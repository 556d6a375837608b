//! Workload `locks-wire`: lock-heavy programs on 2 nodes over the framed,
//! CRC-checked, acknowledged reliable wire with no injected faults
//! (`FaultPlan::clean`), with pipelined detection.
//!
//! * TSP at a reduced input, on [`TSP_INSTANCES`] seeded instances.  The
//!   lock schedule is not replayed: TSP's racy bound steers how many
//!   work-queue acquisitions happen, so a replayed §6.1 schedule diverges
//!   and the replaying run waits forever for a request that never comes
//!   (`examples/tsp_race_hunt.rs` describes the same limit).  Many
//!   instances and the mean over every run keep the figure steady instead;
//! * a benchmark-owned kernel that repeats lock → read-modify-write →
//!   unlock, and a barrier every few rounds.  The lock pattern is fixed up
//!   to seeded lock ids, so every seed moves lock tokens equally often.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use cvm_apps::tsp::{self, TspParams};
use cvm_dsm::{Cluster, DetectConfig, DsmConfig, FaultPlan, Protocol, RunReport};
use cvm_race::RaceKind;

use crate::apps::race_set;
use crate::gen::Rng;
use crate::metrics::{median, pct, Counters, Report};
use crate::{trace, Args};

const NPROCS: usize = 2;
const TSP_CITIES: usize = 10;
/// TSP instances per run, each drawn from the seed.  Their search trees
/// differ in size, so it takes this many for the mean run time to be
/// nearly the same for every seed.
const TSP_INSTANCES: usize = 64;
/// A kernel run follows every this many TSP runs, so both programs are
/// sampled across the whole run.
const KERNEL_EVERY: usize = 8;
/// Locks (and counter words) the kernel's pattern draws from.
const LOCKS: u64 = 4;
/// A barrier closes an epoch every this many rounds.
const BARRIER_EVERY: usize = 12;
/// Kernel rounds per process.
const ROUNDS: usize = 10 * BARRIER_EVERY;
/// Read-modify-write steps per lock hold.
const RMW_PER_HOLD: u64 = 4;

fn config(seed: u64) -> DsmConfig {
    let mut cfg = DsmConfig::new(NPROCS);
    cfg.protocol = Protocol::SingleWriter;
    cfg.detect = DetectConfig::pipelined();
    cfg.net_loss = Some(FaultPlan::clean(seed));
    cfg
}

struct Inputs {
    /// TSP instances with their optimal tour lengths.
    tsp: Vec<(TspParams, u64)>,
    /// `pattern[round * NPROCS + proc]`: the lock slot that process takes.
    pattern: Vec<u64>,
    /// Lock id of each slot; slot `k` guards counter word `k`.
    ids: Vec<u32>,
    /// Expected final value of each counter word.
    expect: Vec<u64>,
    wire_seed: u64,
}

fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::derive(seed, "locks");
    let wire_seed = rng.next_u64();
    // Instances whose nearest-neighbour tour (the initial bound) is not
    // optimal, so the search writes the bound and the bound race occurs.
    let mut tsp = Vec::new();
    while tsp.len() < TSP_INSTANCES {
        let params = TspParams {
            ncities: TSP_CITIES,
            seed: rng.next_u64(),
            ..TspParams::paper()
        };
        let dist = tsp::distance_matrix(params.ncities, params.seed);
        let (best, _) = tsp::solve_reference(&dist, params.ncities);
        if tsp::nearest_neighbour(&dist, params.ncities).0 > best {
            tsp.push((params, best));
        }
    }
    // Each round the processes take different locks, and every lock
    // passes between them every other round.  The seed picks the lock ids
    // but keeps each slot's manager node (`lock % nprocs`), so every seed
    // does the same protocol work.
    let ids: Vec<u32> = (0..LOCKS)
        .map(|slot| (slot + LOCKS * rng.below(1 << 16)) as u32)
        .collect();
    let pattern: Vec<u64> = (0..ROUNDS * NPROCS)
        .map(|i| {
            let (round, proc) = (i / NPROCS, i % NPROCS);
            ((round + proc * NPROCS) % LOCKS as usize) as u64
        })
        .collect();
    let mut expect = vec![0u64; LOCKS as usize];
    for &l in &pattern {
        expect[l as usize] += RMW_PER_HOLD;
    }
    Inputs {
        tsp,
        pattern,
        ids,
        expect,
        wire_seed,
    }
}

fn check_tsp(report: &RunReport, best: u64, want: u64) -> Result<(), String> {
    if best != want {
        return Err(format!("TSP best tour {best}, reference {want}"));
    }
    let races = race_set(report);
    let bound = ("MinTourLen".to_string(), RaceKind::ReadWrite);
    if !races.contains(&bound) || races.iter().any(|(seg, _)| seg != "MinTourLen") {
        return Err(format!(
            "TSP race set {races:?}, expected MinTourLen read-write"
        ));
    }
    Ok(())
}

fn run_tsp(inp: &Inputs, instance: usize) -> Result<(RunReport, f64), String> {
    let (params, best) = inp.tsp[instance];
    let cfg = config(inp.wire_seed);
    let t = Instant::now();
    let span = trace::span("apps", "tsp::run", instance as u64);
    let out = catch_unwind(AssertUnwindSafe(|| tsp::run(cfg, params)));
    drop(span);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (report, out) = out.map_err(|_| "TSP run panicked".to_string())?;
    check_tsp(&report, out.best_len, best)?;
    Ok((report, ms))
}

/// Per-call timings the kernel takes on traced passes.
#[derive(Default)]
struct KernelTimes {
    acquire_us: Vec<f64>,
    release_us: Vec<f64>,
    barrier_us: Vec<f64>,
}

/// One checked run of the lock kernel.
fn run_kernel(inp: &Inputs, times: &mut KernelTimes) -> Result<(RunReport, f64), String> {
    let timed = trace::enabled();
    let result: Mutex<Option<Vec<u64>>> = Mutex::new(None);
    let samples = Mutex::new(KernelTimes::default());
    let t = Instant::now();
    let span = trace::span("dsm.cluster", "Cluster::run", 1);
    let parent = span.id();
    let out = catch_unwind(AssertUnwindSafe(|| {
        Cluster::run(
            config(inp.wire_seed),
            |alloc| alloc.alloc("counters", LOCKS * 8).expect("counters fit"),
            |h, &ctr| {
                let me = h.proc();
                let mut local = KernelTimes::default();
                let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
                for round in 0..ROUNDS {
                    let slot = inp.pattern[round * NPROCS + me];
                    let (lock, word) = (inp.ids[slot as usize], ctr.word(slot));
                    let t = Instant::now();
                    let s = trace::span_under(parent, "dsm.locks", "lock", slot);
                    h.lock(lock);
                    drop(s);
                    if timed {
                        local.acquire_us.push(us(t));
                    }
                    let s = trace::span_under(parent, "dsm.handle", "read-modify-write", slot);
                    for _ in 0..RMW_PER_HOLD {
                        let v = h.read(word);
                        h.write(word, v + 1);
                    }
                    drop(s);
                    let t = Instant::now();
                    let s = trace::span_under(parent, "dsm.locks", "unlock", slot);
                    h.unlock(lock);
                    drop(s);
                    if timed {
                        local.release_us.push(us(t));
                    }
                    if (round + 1) % BARRIER_EVERY == 0 {
                        let t = Instant::now();
                        let s = trace::span_under(parent, "dsm.barrier", "barrier", round as u64);
                        h.barrier();
                        drop(s);
                        if timed {
                            local.barrier_us.push(us(t));
                        }
                    }
                }
                h.barrier();
                if me == 0 {
                    let vals = (0..LOCKS).map(|l| h.read(ctr.word(l))).collect();
                    *result.lock().expect("result lock") = Some(vals);
                }
                let mut all = samples.lock().expect("samples lock");
                all.acquire_us.append(&mut local.acquire_us);
                all.release_us.append(&mut local.release_us);
                all.barrier_us.append(&mut local.barrier_us);
            },
        )
    }));
    let returned = Instant::now();
    drop(span);
    let ms = returned.duration_since(t).as_secs_f64() * 1e3;
    let report = out
        .map_err(|_| "lock kernel panicked".to_string())?
        .map_err(|e| format!("lock kernel failed: {e}"))?;
    let got = result.into_inner().expect("result lock");
    if got.as_deref() != Some(inp.expect.as_slice()) {
        return Err(format!("counters {got:?}, expected {:?}", inp.expect));
    }
    if !report.races.is_empty() {
        return Err(format!(
            "lock kernel reported races {:?}",
            race_set(&report)
        ));
    }
    if timed {
        let mut s = samples.into_inner().expect("samples lock");
        times.acquire_us.append(&mut s.acquire_us);
        times.release_us.append(&mut s.release_us);
        times.barrier_us.append(&mut s.barrier_us);
    }
    Ok((report, ms))
}

pub fn run(args: &Args, rep: &mut Report) {
    let t = Instant::now();
    let inp = setup(args.seed);
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let mut tsp_ms = vec![Vec::new(); TSP_INSTANCES];
    let mut kern_ms = Vec::new();
    let mut pass_ms: [Vec<f64>; 2] = Default::default();
    let mut times = KernelTimes::default();
    let mut counters = Counters::default();
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < 2 || start.elapsed().as_secs_f64() < args.seconds {
        // Traced runs alternate traced and untraced passes.
        let traced = args.trace && pass.is_multiple_of(2);
        trace::set_enabled(traced);
        let t = Instant::now();
        let span = trace::span("gen", "pass", pass);
        for (i, samples) in tsp_ms.iter_mut().enumerate() {
            let r = run_tsp(&inp, i);
            if let Ok((report, ms)) = &r {
                samples.push(*ms);
                counters.add(report);
            }
            rep.check("tsp", r.map(|_| ()));
            if (i + 1) % KERNEL_EVERY == 0 {
                let r = run_kernel(&inp, &mut times);
                if let Ok((report, ms)) = &r {
                    kern_ms.push(*ms);
                    counters.add(report);
                }
                rep.check("lockloop", r.map(|_| ()));
            }
        }
        drop(span);
        pass_ms[usize::from(!traced)].push(t.elapsed().as_secs_f64() * 1e3);
        pass += 1;
        // Set up again after every pass: back-to-back set-ups all met the
        // same moment of host load, so their median moved by a third
        // between runs of one seed.
        let t = Instant::now();
        std::hint::black_box(setup(args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    trace::set_enabled(args.trace);
    rep.set("setup_s", median(&setups));

    if !args.trace {
        // TSP's run time is multimodal: timing decides how the work stack
        // splits between the two workers, and each split has its own time.
        // The mean over every run of every instance is steady where a
        // median would jump between modes.
        let tsp_runs: Vec<f64> = tsp_ms.concat();
        let tsp = tsp_runs.iter().sum::<f64>() / tsp_runs.len().max(1) as f64;
        let kern = median(&kern_ms);
        rep.show(
            "tsp_ms",
            tsp,
            "ms",
            &format!(
                "mean Cluster::run wall time over {TSP_INSTANCES} instances, n={}",
                tsp_runs.len()
            ),
        );
        rep.show(
            "lockloop_ms",
            kern,
            "ms",
            &format!("median Cluster::run wall time, n={}", kern_ms.len()),
        );
        // One program per metric, so neither can hide the other's change.
        rep.set("op_ms", kern);
        rep.set("ops_per_s", 1e3 / tsp);
        return;
    }
    counters.emit(rep);
    emit_kernel_times(rep, &times);
    rep.set("trace.overhead", median(&pass_ms[0]) / median(&pass_ms[1]));
}

fn emit_kernel_times(rep: &mut Report, t: &KernelTimes) {
    rep.set("dsm.locks.acquire_us.p50", median(&t.acquire_us));
    rep.set("dsm.locks.acquire_us.p99", pct(&t.acquire_us, 0.99));
    rep.set("dsm.locks.release_us.p50", median(&t.release_us));
    rep.set("dsm.barrier.wait_us.p50", median(&t.barrier_us));
    rep.set("dsm.barrier.wait_us.p99", pct(&t.barrier_us, 0.99));
}
