//! Workload `service`: an in-process race-hunt `Daemon` with 2 workers and
//! its journal on disk at the default fsync policy (`every:8`), driven by
//! one generator thread in two phases:
//!
//! * **capacity**: a closed loop keeping [`WINDOW`] jobs in flight until a
//!   fixed number of jobs is done, which gives jobs completed per second;
//! * **latency**: an open loop at a fixed, seeded arrival schedule of
//!   [`RATE`] jobs/s, each gap drawn uniformly from half to one and a half
//!   mean gaps.  Each job is timed from its due time, so a stall also
//!   counts against the jobs queued behind it.  Poisson gaps were tried:
//!   their bursts queued clean jobs behind each other, and the p99 then
//!   followed the draw of bursts and host noise (33–62 ms over five seeds)
//!   rather than the lossy jobs' retransmissions.
//!
//! Every tick ([`TICK`], the poll resolution) the generator submits what is
//! due and polls every outstanding job.  A refused (`QueueFull`) or failed
//! job counts as an error and as missing the p99 limit.  An untraced run
//! whose latency-phase p99 exceeds [`P99_LIMIT_MS`], or whose generator
//! submits later than [`LATE_LIMIT_TICKS`] ticks at p99, fails.  For one
//! sampled clean job of each shape, and one lossy job, the daemon's race
//! fingerprints are compared with `run_direct` over the same seeds.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cvm_dsm::Protocol;
use cvm_service::{
    run_direct, Daemon, DaemonConfig, FsyncPolicy, JobId, JobPhase, JobSpec, PersistConfig,
    SubmitError, Workload,
};

use crate::gen::Rng;
use crate::metrics::{median, pct, Counters, Report};
use crate::{trace, Args};

const WORKERS: usize = 2;
const SETUPS: usize = 7;
const SEEDS_PER_JOB: u32 = 2;
/// Jobs kept in flight in the capacity phase.
const WINDOW: usize = 8;
/// Open-loop arrival rate of the latency phase, jobs/s: well below the
/// capacity, so queueing does not amplify host noise into the tail.
const RATE: f64 = 60.0;
/// The latency phase's p99 limit: about four times the p99 measured on a
/// shared 2-vCPU host (26–37 ms over twenty seeds).
const P99_LIMIT_MS: f64 = 150.0;
/// Generator tick: the poll resolution of every job timing.
const TICK: Duration = Duration::from_millis(1);
/// Largest p99 submission lateness, in ticks, of a valid run: beyond it
/// the generator, not the daemon, sets the latencies.
const LATE_LIMIT_TICKS: f64 = 20.0;
/// Share of the run given to the capacity phase, at the nominal rate below.
const CAPACITY_SHARE: f64 = 0.3;
/// Nominal capacity on a 2-vCPU host, jobs/s: it sizes the capacity phase
/// (a fixed job count, so every run retains the same number of jobs).
const NOMINAL_CAPACITY: f64 = 160.0;
/// Longest a phase may overrun before its unfinished jobs count as failed.
const PHASE_LIMIT: Duration = Duration::from_secs(60);
/// One job in this many runs on a lossy wire.
const LOSSY_ONE_IN: u64 = 8;
const KINDS: [Workload; 4] = [
    Workload::RacyCounter { epochs: 3 },
    Workload::MixedStripes { epochs: 3 },
    Workload::LockedCounter { epochs: 3 },
    Workload::DisjointGrid { epochs: 3 },
];

fn job(rng: &mut Rng) -> JobSpec {
    let kind = KINDS[rng.below(KINDS.len() as u64) as usize];
    let mut spec = JobSpec::new(
        kind,
        2 + rng.below(2) as usize,
        rng.next_u64() >> 16,
        SEEDS_PER_JOB,
    );
    spec.protocol = if rng.below(2) == 0 {
        Protocol::SingleWriter
    } else {
        Protocol::MultiWriter
    };
    spec.pipelined = rng.below(2) == 1;
    if rng.below(LOSSY_ONE_IN) == 0 {
        spec.fault.drop_rate = 0.05;
    }
    spec
}

struct Setup {
    daemon: Daemon,
    dir: PathBuf,
    /// Latency-phase arrivals: `(due, spec)`, due in seconds from the
    /// phase start.
    arrivals: Vec<(f64, JobSpec)>,
    /// Arrival index of each sampled job, with the union of `run_direct`
    /// fingerprints over its seeds.
    sampled: BTreeMap<usize, BTreeSet<u64>>,
    /// DSM and wire counters of the reference runs.  The daemon keeps its
    /// runs' reports to itself, so these are where a traced run reads the
    /// counters of the mix.
    counters: Counters,
}

fn setup(args: &Args, k: usize, latency_s: f64) -> Result<Setup, String> {
    let dir = args
        .scratch
        .join(format!("service-{}-{}-{k}", args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::open(DaemonConfig {
        workers: WORKERS,
        persist: PersistConfig {
            fsync: FsyncPolicy::EveryN(8),
            ..PersistConfig::at(&dir)
        },
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let mut rng = Rng::derive(args.seed, "arrivals");
    let mut arrivals = Vec::new();
    let mut due = 0.0;
    loop {
        due += (0.5 + rng.unit()) / RATE;
        if due >= latency_s {
            break;
        }
        arrivals.push((due, job(&mut rng)));
    }
    let mut s = Setup {
        daemon,
        dir,
        arrivals,
        sampled: BTreeMap::new(),
        counters: Counters::default(),
    };
    references(&mut s, false)?;
    Ok(s)
}

/// Runs one small clean job of each kind to completion, so the pool, the
/// journal and the allocator are warm before timing.  Not part of the
/// timed set-up: its time is the pool's scheduling, not set-up work.
fn warm_up(daemon: &Daemon) -> Result<(), String> {
    let warm: Vec<JobId> = KINDS
        .iter()
        .map(|&kind| daemon.submit(JobSpec::new(kind, 2, 0, 1)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("warm-up submit: {e}"))?;
    let t = Instant::now();
    for id in warm {
        loop {
            match daemon.status(id) {
                Some(s) if s.phase == JobPhase::Done => break,
                Some(s) if s.phase.is_terminal() => {
                    return Err(format!("warm-up job {id} ended {}", s.phase.name()))
                }
                _ if t.elapsed() > PHASE_LIMIT => return Err("warm-up timed out".into()),
                _ => std::thread::sleep(TICK),
            }
        }
    }
    Ok(())
}

/// `run_direct` fingerprints of the first clean job of each shape (kind,
/// node count, protocol, sync or pipelined), or of the first lossy job.
/// Sampling by shape gives every seed the same set-up work.  The clean
/// references are part of the timed set-up; the lossy one is computed
/// once, outside it, since its retransmission timing would make set-up
/// time unsteady.
fn references(s: &mut Setup, lossy: bool) -> Result<(), String> {
    let is_lossy = |spec: &JobSpec| spec.fault.drop_rate > 0.0;
    let mut picks = Vec::new();
    let mut shapes = BTreeSet::new();
    for (i, (_, spec)) in s.arrivals.iter().enumerate() {
        let shape = (
            spec.workload.name(),
            spec.nprocs,
            spec.protocol == Protocol::SingleWriter,
            spec.pipelined,
        );
        if lossy && is_lossy(spec) {
            picks.push(i);
            break;
        }
        if !lossy && !is_lossy(spec) && shapes.insert(shape) {
            picks.push(i);
        }
    }
    for i in picks {
        let spec = &s.arrivals[i].1;
        let mut prints = BTreeSet::new();
        for seed in spec.seeds() {
            let r = run_direct(spec, seed)
                .map_err(|e| format!("run_direct {}: {e}", spec.workload.name()))?;
            prints.extend(r.races.distinct_fingerprints());
            s.counters.add(&r);
        }
        s.sampled.insert(i, prints);
    }
    Ok(())
}

fn shut_down(s: Setup) {
    s.daemon.drain(Duration::from_secs(30));
    drop(s.daemon);
    let _ = std::fs::remove_dir_all(&s.dir);
}

/// A submitted job the generator still polls.
struct Pending {
    id: JobId,
    due: Instant,
    submitted: Instant,
    running: Option<Instant>,
    /// Arrival index, for the sampled fingerprint check.
    arrival: Option<usize>,
}

/// Per-call samples the generator collects.
#[derive(Default)]
struct Samples {
    submit_us: Vec<f64>,
    status_us: Vec<f64>,
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Completed jobs' latency from due time; refused and failed jobs as
    /// infinity.
    latency_ms: Vec<f64>,
    refused: u64,
    ticks: u64,
    tick_time: Duration,
}

struct Generator<'a> {
    daemon: &'a Daemon,
    pending: Vec<Pending>,
    s: Samples,
    sweep: usize,
    completed: u64,
}

impl Generator<'_> {
    fn submit(&mut self, rep: &mut Report, spec: JobSpec, due: Instant, arrival: Option<usize>) {
        let now = Instant::now();
        self.s
            .late_ms
            .push(now.duration_since(due).as_secs_f64() * 1e3);
        let span = trace::span("service.daemon", "submit", 0);
        let r = self.daemon.submit(spec);
        drop(span);
        if trace::enabled() {
            self.s.submit_us.push(now.elapsed().as_secs_f64() * 1e6);
        }
        match r {
            Ok(id) => self.pending.push(Pending {
                id,
                due,
                submitted: now,
                running: None,
                arrival,
            }),
            Err(e) => {
                if matches!(e, SubmitError::QueueFull { .. }) {
                    self.s.refused += 1;
                }
                if arrival.is_some() {
                    self.s.latency_ms.push(f64::INFINITY);
                }
                rep.check("job", Err(format!("submission refused: {e}")));
            }
        }
    }

    /// Polls every outstanding job once, starting the sweep at a rotating
    /// position; finished jobs are checked and removed.
    fn poll(&mut self, rep: &mut Report, setup: &Setup, timed: bool) {
        let n = self.pending.len();
        if n == 0 {
            return;
        }
        self.sweep = (self.sweep + 1) % n;
        let mut done = Vec::new();
        for k in 0..n {
            let i = (self.sweep + k) % n;
            let p = &mut self.pending[i];
            let t = Instant::now();
            let span = trace::span("service.daemon", "status", p.id.0);
            let snap = self.daemon.status(p.id);
            drop(span);
            let now = Instant::now();
            if trace::enabled() {
                self.s
                    .status_us
                    .push(now.duration_since(t).as_secs_f64() * 1e6);
            }
            let Some(snap) = snap else {
                done.push((i, Err(format!("job {} unknown to the daemon", p.id))));
                continue;
            };
            if snap.phase != JobPhase::Queued && p.running.is_none() {
                p.running = Some(now);
                self.s
                    .queue_ms
                    .push(now.duration_since(p.submitted).as_secs_f64() * 1e3);
            }
            if snap.phase.is_terminal() {
                let started = p.running.unwrap_or(now);
                self.s
                    .run_ms
                    .push(now.duration_since(started).as_secs_f64() * 1e3);
                let ok = if snap.phase == JobPhase::Done
                    && snap.seeds_done == snap.seeds_total
                    && snap.seeds_failed == 0
                {
                    Ok(())
                } else {
                    Err(format!(
                        "job {} ended {} with {}/{} seeds done: {}",
                        p.id,
                        snap.phase.name(),
                        snap.seeds_done,
                        snap.seeds_total,
                        snap.first_error.unwrap_or_default()
                    ))
                };
                let latency = now.duration_since(p.due).as_secs_f64() * 1e3;
                if timed {
                    self.s
                        .latency_ms
                        .push(if ok.is_ok() { latency } else { f64::INFINITY });
                }
                done.push((i, ok));
            }
        }
        done.sort_by_key(|(i, _)| std::cmp::Reverse(*i));
        for (i, ok) in done {
            let p = self.pending.swap_remove(i);
            let ok = ok.and_then(|()| match p.arrival.and_then(|a| setup.sampled.get(&a)) {
                Some(want) => {
                    let _s = trace::span("service.store", "races", p.id.0);
                    let got: BTreeSet<u64> = self
                        .daemon
                        .races(p.id)
                        .map(|r| r.races.iter().map(|d| d.fingerprint).collect())
                        .unwrap_or_default();
                    if &got == want {
                        Ok(())
                    } else {
                        Err(format!(
                            "job {} fingerprints {got:x?}, run_direct {want:x?}",
                            p.id
                        ))
                    }
                }
                None => Ok(()),
            });
            self.completed += 1;
            rep.check("job", ok);
        }
    }

    /// One generator tick: `work` submits, then every job is polled.
    fn tick(
        &mut self,
        rep: &mut Report,
        setup: &Setup,
        timed: bool,
        work: impl FnOnce(&mut Self, &mut Report),
    ) {
        let t = Instant::now();
        let span = trace::span("gen", "tick", self.s.ticks);
        work(self, rep);
        self.poll(rep, setup, timed);
        drop(span);
        self.s.ticks += 1;
        self.s.tick_time += t.elapsed();
    }

    /// Polls until nothing is outstanding or `limit` passes; what is left
    /// counts as failed.
    fn settle(&mut self, rep: &mut Report, setup: &Setup, timed: bool, limit: Duration) {
        let t = Instant::now();
        while !self.pending.is_empty() && t.elapsed() < limit {
            self.tick(rep, setup, timed, |_, _| {});
            std::thread::sleep(TICK);
        }
        for p in self.pending.drain(..) {
            if timed {
                self.s.latency_ms.push(f64::INFINITY);
            }
            rep.check(
                "job",
                Err(format!("job {} still running after the phase", p.id)),
            );
        }
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    let cap_s = args.seconds * CAPACITY_SHARE;
    let lat_s = args.seconds - cap_s;
    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    for k in 0..SETUPS {
        if let Some(old) = current.take() {
            shut_down(old);
        }
        let t = Instant::now();
        let s = setup(args, k, lat_s);
        setups.push(t.elapsed().as_secs_f64());
        rep.check("set-up", s.as_ref().map(|_| ()).map_err(Clone::clone));
        current = s.ok();
    }
    rep.set("setup_s", median(&setups));
    let Some(mut setup) = current else { return };
    if let Err(e) = warm_up(&setup.daemon) {
        rep.check("warm-up", Err(e));
        shut_down(setup);
        return;
    }
    if let Err(e) = references(&mut setup, true) {
        rep.check("reference", Err(e));
    }

    let mut g = Generator {
        daemon: &setup.daemon,
        pending: Vec::new(),
        s: Samples::default(),
        sweep: 0,
        completed: 0,
    };

    // Capacity phase: closed loop.  A traced run alternates traced and
    // untraced half-second slices to measure the tracing overhead.
    let mut rng = Rng::derive(args.seed, "capacity");
    let start = Instant::now();
    let mut slices: [(f64, u64); 2] = [(0.0, 0); 2];
    let cap_jobs = (cap_s * NOMINAL_CAPACITY).ceil() as u64;
    let mut cap_submitted = 0;
    while (cap_submitted < cap_jobs || !g.pending.is_empty()) && start.elapsed() < PHASE_LIMIT {
        let slice = (start.elapsed().as_secs_f64() / 0.5) as u64;
        let traced = args.trace && slice.is_multiple_of(2);
        trace::set_enabled(traced);
        let (t, before) = (Instant::now(), g.completed);
        g.tick(rep, &setup, false, |g, rep| {
            while g.pending.len() < WINDOW && cap_submitted < cap_jobs {
                let now = Instant::now();
                g.submit(rep, job(&mut rng), now, None);
                cap_submitted += 1;
            }
        });
        std::thread::sleep(TICK);
        let side = &mut slices[usize::from(!traced)];
        side.0 += t.elapsed().as_secs_f64();
        side.1 += g.completed - before;
    }
    let cap_elapsed = start.elapsed().as_secs_f64();
    let cap_done = g.completed;
    g.settle(rep, &setup, false, Duration::ZERO);
    trace::set_enabled(args.trace);

    // Latency phase: open loop on the seeded schedule.
    g.s.late_ms.clear();
    let start = Instant::now();
    let mut next = 0;
    while next < setup.arrivals.len() {
        g.tick(rep, &setup, true, |g, rep| {
            while next < setup.arrivals.len()
                && start.elapsed().as_secs_f64() >= setup.arrivals[next].0
            {
                let (due, spec) = &setup.arrivals[next];
                let due = start + Duration::from_secs_f64(*due);
                g.submit(rep, spec.clone(), due, Some(next));
                next += 1;
            }
        });
        std::thread::sleep(TICK);
    }
    g.settle(rep, &setup, true, PHASE_LIMIT);

    let stats = setup.daemon.stats();
    let s = g.s;
    let jobs_per_s = cap_done as f64 / cap_elapsed;
    let (p50, p99) = (pct(&s.latency_ms, 0.5), pct(&s.latency_ms, 0.99));
    let late_p99 = pct(&s.late_ms, 0.99);
    let n = s.latency_ms.len();
    rep.show(
        "jobs_per_s",
        jobs_per_s,
        "1/s",
        &format!("capacity phase, {WINDOW} in flight, {cap_jobs} jobs"),
    );
    rep.show(
        "job_ms.p50",
        p50,
        "ms",
        &format!("latency phase at {RATE} jobs/s, n={n}"),
    );
    rep.show(
        "job_ms.p99",
        p99,
        "ms",
        &format!(
            "n={n}, {} beyond; limit {P99_LIMIT_MS} ms {}",
            n - (0.99 * n as f64).ceil() as usize,
            if p99 <= P99_LIMIT_MS { "met" } else { "MISSED" }
        ),
    );
    rep.show(
        "gen.late_ms.p99",
        late_p99,
        "ms",
        &format!("submission lateness vs due time, limit {LATE_LIMIT_TICKS} ticks"),
    );
    rep.show(
        "gen.poll_ms",
        TICK.as_secs_f64() * 1e3,
        "ms",
        "poll resolution (generator tick)",
    );

    if !args.trace {
        // Tracing slows the generator and the pool, so the limits hold
        // for untraced runs only.
        rep.check(
            "p99 limit",
            if p99 <= P99_LIMIT_MS {
                Ok(())
            } else {
                Err(format!(
                    "job_ms.p99 {p99:.1} ms over the {P99_LIMIT_MS} ms limit"
                ))
            },
        );
        let late_limit_ms = LATE_LIMIT_TICKS * TICK.as_secs_f64() * 1e3;
        rep.check(
            "generator lateness",
            if late_p99 <= late_limit_ms {
                Ok(())
            } else {
                Err(format!(
                    "gen.late_ms.p99 {late_p99:.1} ms over {late_limit_ms} ms: the run is not valid"
                ))
            },
        );
        rep.set("op_ms", p99);
        rep.set("ops_per_s", jobs_per_s);
    } else {
        let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
        rep.set("service.daemon.submit_us.p50", median(&s.submit_us));
        rep.set("service.daemon.submit_us.p99", pct(&s.submit_us, 0.99));
        rep.set("service.daemon.status_us.p50", median(&s.status_us));
        rep.set("service.daemon.refused", s.refused as f64);
        rep.set("service.pool.queue_ms.p50", median(&s.queue_ms));
        rep.set("service.pool.queue_ms.p99", pct(&s.queue_ms, 0.99));
        rep.set("service.pool.run_ms.p50", median(&s.run_ms));
        rep.set("service.pool.run_ms.p99", pct(&s.run_ms, 0.99));
        // Daemon counters: totals at the end of the run.
        let (pool, store, persist) = (stats.pool, stats.store, stats.persist);
        for (name, v) in [
            ("service.pool.attempts", pool.attempts),
            ("service.pool.retries", pool.retries),
            ("service.pool.panics_caught", pool.panics_caught),
            ("service.pool.deadline_overruns", pool.deadline_overruns),
            ("service.store.distinct", store.distinct_races),
            ("service.store.evictions", store.jobs_evicted),
            ("service.store.bytes", store.bytes_live),
            ("service.persist.records", persist.journal_records),
            ("service.persist.fsyncs", persist.fsyncs),
            ("service.persist.snapshots", persist.snapshots_written),
            ("service.persist.io_errors", persist.io_errors),
        ] {
            rep.set(name, v as f64);
        }
        rep.set(
            "service.pool.retry_ratio",
            ratio(pool.retries, pool.attempts),
        );
        setup.counters.emit(rep);
        rep.set("gen.late_ms.p99", late_p99);
        rep.set(
            "gen.poll_us",
            s.tick_time.as_secs_f64() * 1e6 / s.ticks.max(1) as f64,
        );
        let rate = |(secs, jobs): (f64, u64)| jobs as f64 / secs.max(1e-9);
        rep.set(
            "trace.overhead",
            rate(slices[1]) / rate(slices[0]).max(1e-9),
        );
    }
    shut_down(setup);
}
