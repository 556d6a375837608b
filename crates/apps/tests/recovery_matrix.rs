//! App-level recovery matrix: each of the paper's four applications must
//! survive a scripted node kill under [`RecoveryPolicy::Recover`], complete
//! the run, produce correct application results, and report races
//! byte-identical to a fault-free execution.
//!
//! FFT and SOR are barrier-only and deterministic, so their fault-free
//! baseline is a plain run over the same wire.  TSP and Water acquire
//! locks, and lock-grant order steers both their racy accesses and their
//! interval structure — so the baseline *records* its synchronization
//! schedule (§6.1) and the killed run *replays* it, making byte-identity
//! a meaningful assertion rather than a coin flip.

use std::time::Duration;

use cvm_apps::{fft, sor, tsp, water};
use cvm_dsm::{DsmConfig, FaultPlan, Protocol, RecoveryPolicy, RunReport};
use cvm_vclock::ProcId;

const NPROCS: usize = 4;

/// Tight RTO/backoff so a corpse is declared dead in milliseconds.
fn reliable_wire(seed: u64) -> FaultPlan {
    FaultPlan::clean(seed)
        .with_rto(Duration::from_millis(2), Duration::from_millis(16))
        .with_max_retransmits(8)
}

/// Baseline configuration: same wire and checkpointing as the killed run,
/// so the only difference between the pair is the kill itself.
fn clean_cfg(protocol: Protocol, seed: u64) -> DsmConfig {
    let mut cfg = DsmConfig::new(NPROCS);
    cfg.protocol = protocol;
    cfg.op_deadline = Duration::from_secs(5);
    cfg.net_loss = Some(reliable_wire(seed));
    cfg.recovery = RecoveryPolicy::Recover { max_attempts: 3 };
    cfg
}

fn killed_cfg(protocol: Protocol, seed: u64, victim: u16, at_event: u64) -> DsmConfig {
    let mut cfg = clean_cfg(protocol, seed);
    cfg.net_loss = Some(reliable_wire(seed).with_kill(ProcId(victim), at_event));
    cfg
}

fn race_fingerprint(report: &RunReport) -> Vec<String> {
    let mut rendered: Vec<String> = report
        .races
        .reports()
        .iter()
        .map(|r| format!("{:?}@{} {}", r.kind, r.epoch, r.render(&report.segments)))
        .collect();
    rendered.sort();
    rendered
}

fn assert_recovered(report: &RunReport, app: &str) {
    assert!(
        report.recovery.recoveries >= 1,
        "{app}: the scripted kill must actually trigger recovery"
    );
    assert!(report.recovery.checkpoints_taken > 0, "{app}");
    assert!(report.recovery.bytes_snapshotted > 0, "{app}");
}

#[test]
fn fft_recovers_from_worker_kill() {
    let params = fft::FftParams::small();
    let input = fft::input_signal(params.n());
    let expect = fft::dft_reference(&input, params.inverse);
    let (clean, _) = fft::run_on(clean_cfg(Protocol::SingleWriter, 11), params, &input);
    assert_eq!(clean.recovery.recoveries, 0);
    let (report, result) = fft::run_on(
        killed_cfg(Protocol::SingleWriter, 11, 2, 100),
        params,
        &input,
    );
    assert_recovered(&report, "fft");
    for (i, (a, b)) in result.data.iter().zip(&expect).enumerate() {
        assert!(
            (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
            "element {i}: {a:?} vs {b:?}"
        );
    }
    assert_eq!(race_fingerprint(&clean), race_fingerprint(&report));
    assert!(
        report.races.is_empty(),
        "FFT stays race-free through recovery"
    );
}

#[test]
fn sor_recovers_from_master_kill() {
    let params = sor::SorParams::small();
    let expect = sor::reference(params);
    let (clean, _) = sor::run(clean_cfg(Protocol::MultiWriter, 12), params);
    assert_eq!(clean.recovery.recoveries, 0);
    let (report, result) = sor::run(killed_cfg(Protocol::MultiWriter, 12, 0, 150), params);
    assert_recovered(&report, "sor");
    for (i, (a, b)) in result.grid.iter().zip(&expect).enumerate() {
        assert!((a - b).abs() < 1e-12, "cell {i}");
    }
    assert_eq!(race_fingerprint(&clean), race_fingerprint(&report));
    assert!(
        report.races.is_empty(),
        "SOR stays race-free through recovery"
    );
}

#[test]
fn tsp_recovers_from_worker_kill_with_replayed_schedule() {
    let params = tsp::TspParams::small();
    let dist = tsp::distance_matrix(params.ncities, params.seed);
    let (opt, _) = tsp::solve_reference(&dist, params.ncities);
    // Record the fault-free lock-grant order...  A worker that finds the
    // stack momentarily empty quits the search at once, so which workers
    // search is decided by timing, and now and then proc 0 drains the
    // whole search alone.  Record until some worker searched (took QLOCK
    // more than the one failed pop), and kill the busiest worker so the
    // kill lands mid-search.
    let (clean, victim) = (0..5)
        .find_map(|_| {
            let mut rec_cfg = clean_cfg(Protocol::SingleWriter, 13);
            rec_cfg.record_sync = true;
            let (clean, clean_result) = tsp::run(rec_cfg, params);
            assert_eq!(clean_result.best_len, opt);
            let locks = |n: &&cvm_dsm::NodeReport| n.stats.locks_local + n.stats.locks_remote;
            let busiest = clean.nodes[1..].iter().max_by_key(locks)?;
            let victim = busiest.proc;
            (locks(&busiest) > 1).then_some((clean, victim))
        })
        .expect("a worker searched in one of five recordings");
    // ...and replay it through the kill, so the racy bound reads land in
    // the same intervals and byte-identity is well-defined.
    let mut cfg = killed_cfg(Protocol::SingleWriter, 13, victim.0, 150);
    cfg.replay = Some(clean.schedule.clone());
    let (report, result) = tsp::run(cfg, params);
    assert_recovered(&report, "tsp");
    assert_eq!(result.best_len, opt, "recovered search must stay optimal");
    assert_eq!(race_fingerprint(&clean), race_fingerprint(&report));
    assert!(
        !report.races.reports().is_empty(),
        "the benign bound race must survive recovery"
    );
}

#[test]
fn water_recovers_from_worker_kill_with_replayed_schedule() {
    let params = water::WaterParams::small();
    let expect = water::reference(&params);
    let mut rec_cfg = clean_cfg(Protocol::MultiWriter, 14);
    rec_cfg.record_sync = true;
    let (clean, _) = water::run(rec_cfg, params);
    let mut cfg = killed_cfg(Protocol::MultiWriter, 14, 3, 200);
    cfg.replay = Some(clean.schedule.clone());
    let (report, result) = water::run(cfg, params);
    assert_recovered(&report, "water");
    for (i, (a, b)) in result.positions.iter().zip(&expect.positions).enumerate() {
        assert!((a - b).abs() < 1e-9, "position {i}");
    }
    assert_eq!(race_fingerprint(&clean), race_fingerprint(&report));
    let vir = report
        .segments
        .segments()
        .iter()
        .find(|s| s.name == "VIR")
        .unwrap()
        .base;
    assert!(
        !report.races.at(vir).is_empty(),
        "the VIR write-write bug must survive recovery"
    );
}
