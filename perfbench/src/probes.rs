//! Outside-in layer probes, run at the end of every traced run.  Each times
//! calls into one layer's public functions, for the layers no workload
//! times directly:
//!
//! * `net`: `Msg::to_bytes` / `Msg::from_bytes` and `wire::encode_frame` /
//!   `wire::decode_frame` per size class (a lock request, a lock grant
//!   carrying 32 interval records, a page reply);
//! * `dsm.cluster`: an empty `Cluster::run` on the direct and on the clean
//!   reliable wire, with spawn and teardown time seen from the closure;
//! * `dsm.handle`: ns per shared access in a long batch on a page the
//!   process owns, detection on;
//! * `race`: the synthetic 8-node detection epoch, serial and default;
//! * `service.persist`: `Persist::record` under each fsync policy;
//! * `service.pool`: `run_direct` per job kind;
//! * `apps`, `sim`: FFT, SOR and Water at paper inputs, once each with
//!   detection on, instrumentation only and detection off (Figure 3,
//!   Table 1).
//!
//! Every probe checks what it computes (round trips decode to the input,
//! configurations agree, records land).

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cvm_bench::epoch_synth;
use cvm_dsm::{Cluster, DsmConfig, FaultPlan, Msg};
use cvm_net::wire::{decode_frame, encode_frame, Wire};
use cvm_page::{Geometry, PageId};
use cvm_race::{make_interval, EpochDetector, PairEnumeration};
use cvm_service::{
    run_direct, FsyncPolicy, JobId, JobSpec, JournalRecord, Persist, PersistConfig, Workload,
};
use cvm_vclock::{ProcId, VClock};

use crate::metrics::{median, Report};
use crate::{trace, Args};

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 7;

pub fn run(args: &Args, rep: &mut Report) {
    trace::set_enabled(true);
    crate::apps::probe(args, rep);
    codec(rep);
    empty_runs(rep);
    access(rep);
    epoch(rep);
    persist_append(args, rep);
    seed_runs(rep);
}

/// Median over [`BATCHES`] batches of `iters` calls, in ns per call.
fn ns_per(layer: &'static str, name: &'static str, iters: u32, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(BATCHES);
    for b in 0..BATCHES {
        let _s = trace::span(layer, name, b as u64);
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        per.push(t.elapsed().as_secs_f64() * 1e9 / f64::from(iters));
    }
    median(&per)
}

fn messages() -> [(&'static str, Msg); 3] {
    let records = (0..32u32)
        .map(|i| {
            let (p, index) = ((i % 2) as u16, i / 2 + 1);
            let mut vc = vec![index - 1; 2];
            vc[usize::from(p)] = index;
            Arc::new(make_interval(
                p,
                index,
                vc,
                &[i, i + 1, i + 2, i + 3],
                &[i + 7, i + 9],
            ))
        })
        .collect();
    [
        (
            "small",
            Msg::LockReq {
                lock: 7,
                requester: ProcId(1),
                vc: VClock::from(vec![3, 5]),
            },
        ),
        (
            "grant32",
            Msg::LockGrant {
                lock: 7,
                records,
                vc: VClock::from(vec![17, 16]),
                trace_from: None,
            },
        ),
        (
            "page",
            Msg::PageReadReply {
                page: PageId(3),
                data: (0..Geometry::default().page_words as u64)
                    .map(|w| w.wrapping_mul(0x9E37_79B9))
                    .collect(),
            },
        ),
    ]
}

fn codec(rep: &mut Report) {
    for (class, msg) in messages() {
        let bytes = msg.to_bytes();
        let frame = encode_frame(&bytes);
        rep.check(
            "codec round trip",
            match (Msg::from_bytes(&bytes), decode_frame(&frame)) {
                (Ok(m), Ok(body)) if m == msg && body == bytes.as_slice() => Ok(()),
                _ => Err(format!("{class} message does not round-trip")),
            },
        );
        let iters = if class == "small" { 20_000 } else { 2_000 };
        let enc = ns_per("net", "Msg::to_bytes", iters, || {
            black_box(black_box(&msg).to_bytes());
        });
        let dec = ns_per("net", "Msg::from_bytes", iters, || {
            black_box(Msg::from_bytes(black_box(&bytes)).is_ok());
        });
        let framed = ns_per("net", "encode_frame+decode_frame", iters, || {
            let f = encode_frame(black_box(&bytes));
            black_box(decode_frame(&f).map(<[u8]>::len).unwrap_or(0));
        });
        rep.set(&format!("net.codec.encode_ns.{class}"), enc);
        rep.set(&format!("net.codec.decode_ns.{class}"), dec);
        rep.set(&format!("net.frame_ns.{class}"), framed);
    }
}

/// Body entry and exit instants of one run, for spawn and teardown time.
#[derive(Default)]
struct Lifecycle {
    enter: Vec<Instant>,
    exit: Vec<Instant>,
}

/// One empty 2-node run: `(total, spawn, teardown)` in ms.
fn empty_run(cfg: DsmConfig) -> Result<(f64, f64, f64), String> {
    let life = Mutex::new(Lifecycle::default());
    let t = Instant::now();
    let _s = trace::span("dsm.cluster", "Cluster::run(empty)", 0);
    Cluster::run(
        cfg,
        |alloc| alloc.alloc("empty", 8).expect("tiny allocation"),
        |_, _| {
            life.lock()
                .expect("lifecycle lock")
                .enter
                .push(Instant::now());
            life.lock()
                .expect("lifecycle lock")
                .exit
                .push(Instant::now());
        },
    )
    .map_err(|e| format!("empty run failed: {e}"))?;
    let end = Instant::now();
    let life = life.into_inner().expect("lifecycle lock");
    let first = life.enter.iter().min().ok_or("body never ran")?;
    let last = life.exit.iter().max().ok_or("body never ran")?;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    Ok((
        ms(end - t),
        ms(first.duration_since(t)),
        ms(end.duration_since(*last)),
    ))
}

fn empty_runs(rep: &mut Report) {
    const RUNS: usize = 15;
    let (mut direct, mut reliable, mut spawn, mut teardown) = (vec![], vec![], vec![], vec![]);
    for i in 0..RUNS {
        let r = empty_run(DsmConfig::new(2));
        if let Ok((total, s, t)) = r {
            direct.push(total);
            spawn.push(s);
            teardown.push(t);
        }
        rep.check("empty run (direct)", r.map(|_| ()));
        let mut cfg = DsmConfig::new(2);
        cfg.net_loss = Some(FaultPlan::clean(i as u64));
        let r = empty_run(cfg);
        if let Ok((total, _, _)) = r {
            reliable.push(total);
        }
        rep.check("empty run (reliable)", r.map(|_| ()));
    }
    rep.set("dsm.cluster.empty_run_ms.direct", median(&direct));
    rep.set("dsm.cluster.empty_run_ms.reliable", median(&reliable));
    rep.set("dsm.cluster.spawn_ms", median(&spawn));
    rep.set("dsm.cluster.teardown_ms", median(&teardown));
}

fn access(rep: &mut Report) {
    const SWEEPS: u64 = 400;
    let words = Geometry::default().page_words as u64;
    let per_access = Mutex::new(Vec::new());
    for run in 0..3u64 {
        let r = catch_unwind(AssertUnwindSafe(|| {
            Cluster::run(
                DsmConfig::new(2),
                |alloc| {
                    alloc
                        .alloc_page_aligned("access", 2 * words * 8)
                        .expect("two pages fit")
                },
                |h, &base| {
                    let page = base.word(h.proc() as u64 * words);
                    for w in 0..words {
                        h.write(page.word(w), w);
                    }
                    let _s = trace::span("dsm.handle", "read+write batch", run);
                    let t = Instant::now();
                    let mut sum = 0u64;
                    for _ in 0..SWEEPS {
                        for w in 0..words {
                            let v = h.read(page.word(w));
                            sum = sum.wrapping_add(v);
                            h.write(page.word(w), v);
                        }
                    }
                    let ns = t.elapsed().as_secs_f64() * 1e9 / (2 * SWEEPS * words) as f64;
                    black_box(sum);
                    per_access.lock().expect("sample lock").push(ns);
                },
            )
        }));
        rep.check(
            "access probe",
            match r {
                Ok(Ok(report)) if report.races.is_empty() => Ok(()),
                Ok(Ok(_)) => Err("private pages reported races".into()),
                Ok(Err(e)) => Err(format!("access probe failed: {e}")),
                Err(_) => Err("access probe panicked".into()),
            },
        );
    }
    rep.set(
        "dsm.handle.access_ns",
        median(&per_access.into_inner().expect("sample lock")),
    );
}

fn epoch(rep: &mut Report) {
    let g = Geometry::with_page_bytes(epoch_synth::PAGE_WORDS * 8);
    let intervals = epoch_synth::epoch();
    let store = epoch_synth::bitmaps(&intervals, g);
    let serial = EpochDetector {
        enumeration: PairEnumeration::Naive,
        workers: 1,
        ..EpochDetector::new()
    };
    let default = EpochDetector {
        enumeration: PairEnumeration::Pruned,
        workers: 0,
        ..EpochDetector::new()
    };
    let mut counts = Vec::new();
    for (name, d) in [("serial", serial), ("default", default)] {
        let mut ms = Vec::new();
        for b in 0..BATCHES {
            let _s = trace::span("race", "EpochDetector plan+compare", b as u64);
            let t = Instant::now();
            let mut plan = d.plan(&intervals);
            let reports = d.compare(&mut plan, &store, g, 0);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            counts.push(reports.map_or(usize::MAX, |r| r.len()));
        }
        rep.set(&format!("race.epoch_ms.{name}"), median(&ms));
    }
    rep.check(
        "epoch probe",
        if counts.iter().all(|&c| c == counts[0] && c != usize::MAX) {
            Ok(())
        } else {
            Err(format!("serial and default epochs disagree: {counts:?}"))
        },
    );
}

fn persist_append(args: &Args, rep: &mut Report) {
    for (name, fsync, n) in [
        ("always", FsyncPolicy::Always, 60u64),
        ("every8", FsyncPolicy::EveryN(8), 240),
        ("never", FsyncPolicy::Never, 240),
    ] {
        let dir = args
            .scratch
            .join(format!("persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PersistConfig {
            fsync,
            compact_every: 1 << 30,
            ..PersistConfig::at(&dir)
        };
        let outcome = Persist::open(&cfg)
            .map_err(|e| e.to_string())
            .and_then(|(p, _)| {
                let mut us = Vec::new();
                for i in 0..n {
                    let rec = JournalRecord::Submitted {
                        job: JobId(i + 1),
                        spec: JobSpec::new(Workload::RacyCounter { epochs: 2 }, 2, i, 2),
                    };
                    let _s = trace::span("service.persist", "Persist::record", i);
                    let t = Instant::now();
                    p.record(&rec);
                    us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                let st = p.stats();
                if st.journal_records != n || st.io_errors != 0 {
                    return Err(format!(
                        "{} records, {} io errors after {n} appends",
                        st.journal_records, st.io_errors
                    ));
                }
                Ok(median(&us))
            });
        let _ = std::fs::remove_dir_all(&dir);
        if let Ok(us) = &outcome {
            rep.set(&format!("service.persist.append_us.{name}"), *us);
        }
        rep.check("persist probe", outcome.map(|_| ()));
    }
}

fn seed_runs(rep: &mut Report) {
    for kind in [
        Workload::RacyCounter { epochs: 3 },
        Workload::MixedStripes { epochs: 3 },
        Workload::LockedCounter { epochs: 3 },
        Workload::DisjointGrid { epochs: 3 },
    ] {
        let spec = JobSpec::new(kind, 2, 1, 1);
        let mut ms = Vec::new();
        let mut prints = Vec::new();
        for b in 0..BATCHES {
            let _s = trace::span("service.pool", "run_direct", b as u64);
            let t = Instant::now();
            let r = run_direct(&spec, 1);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            match r {
                Ok(report) => prints.push(report.races.distinct_fingerprints()),
                Err(e) => rep.check("seed probe", Err(format!("{}: {e}", kind.name()))),
            }
        }
        rep.check(
            "seed probe",
            if prints.windows(2).all(|w| w[0] == w[1]) {
                Ok(())
            } else {
                Err(format!("{} fingerprints differ across runs", kind.name()))
            },
        );
        rep.set(&format!("service.seed_ms.{}", kind.name()), median(&ms));
    }
}
