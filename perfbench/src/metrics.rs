//! Metric tables, sample statistics, DSM counter aggregation and the
//! result line.
//!
//! The two tables below are the benchmark's metric vocabulary and mirror
//! `BENCHMARK.json`: an untraced run reports every [`END_TO_END`] metric, a
//! traced run every [`PER_LAYER`] metric.  A per-layer metric of a layer the
//! workload does not exercise reads 0.

use std::collections::BTreeMap;

use cvm_dsm::RunReport;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("apps.base_ms.fft", "ms"),
    ("apps.base_ms.sor", "ms"),
    ("apps.base_ms.water", "ms"),
    ("apps.instr_ms.fft", "ms"),
    ("apps.instr_ms.sor", "ms"),
    ("apps.instr_ms.water", "ms"),
    ("apps.detect_share.fft", "ratio"),
    ("apps.detect_share.sor", "ratio"),
    ("apps.detect_share.water", "ratio"),
    ("apps.instr_share.fft", "ratio"),
    ("apps.instr_share.sor", "ratio"),
    ("apps.instr_share.water", "ratio"),
    ("dsm.handle.shared_calls", "count"),
    ("dsm.handle.private_calls", "count"),
    ("dsm.handle.shared_reads", "count"),
    ("dsm.handle.shared_writes", "count"),
    ("dsm.handle.access_ns", "ns"),
    ("dsm.pages.read_faults", "count"),
    ("dsm.pages.write_faults", "count"),
    ("dsm.pages.pages_sent", "count"),
    ("dsm.pages.diffs_made", "count"),
    ("dsm.locks.acquire_us.p50", "us"),
    ("dsm.locks.acquire_us.p99", "us"),
    ("dsm.locks.release_us.p50", "us"),
    ("dsm.locks.remote", "count"),
    ("dsm.locks.local", "count"),
    ("dsm.barrier.wait_us.p50", "us"),
    ("dsm.barrier.wait_us.p99", "us"),
    ("dsm.pipeline.epochs", "count"),
    ("dsm.pipeline.stalls", "count"),
    ("race.pair_comparisons", "count"),
    ("race.pairs_concurrent", "count"),
    ("race.bitmaps_requested", "count"),
    ("race.bitmaps_used_ratio", "ratio"),
    ("race.races", "count"),
    ("race.epoch_ms.serial", "ms"),
    ("race.epoch_ms.default", "ms"),
    ("net.msgs", "count"),
    ("net.bytes", "bytes"),
    ("net.read_notice_ohead", "ratio"),
    ("net.reliable.datagrams", "count"),
    ("net.reliable.retransmits", "count"),
    ("net.reliable.retransmit_ratio", "ratio"),
    ("net.reliable.corrupt_dropped", "count"),
    ("net.codec.encode_ns.small", "ns"),
    ("net.codec.encode_ns.grant32", "ns"),
    ("net.codec.encode_ns.page", "ns"),
    ("net.codec.decode_ns.small", "ns"),
    ("net.codec.decode_ns.grant32", "ns"),
    ("net.codec.decode_ns.page", "ns"),
    ("net.frame_ns.small", "ns"),
    ("net.frame_ns.grant32", "ns"),
    ("net.frame_ns.page", "ns"),
    ("dsm.cluster.spawn_ms", "ms"),
    ("dsm.cluster.teardown_ms", "ms"),
    ("dsm.cluster.empty_run_ms.direct", "ms"),
    ("dsm.cluster.empty_run_ms.reliable", "ms"),
    ("service.daemon.submit_us.p50", "us"),
    ("service.daemon.submit_us.p99", "us"),
    ("service.daemon.status_us.p50", "us"),
    ("service.daemon.refused", "count"),
    ("service.pool.queue_ms.p50", "ms"),
    ("service.pool.queue_ms.p99", "ms"),
    ("service.pool.run_ms.p50", "ms"),
    ("service.pool.run_ms.p99", "ms"),
    ("service.pool.attempts", "count"),
    ("service.pool.retries", "count"),
    ("service.pool.retry_ratio", "ratio"),
    ("service.pool.panics_caught", "count"),
    ("service.pool.deadline_overruns", "count"),
    ("service.seed_ms.racy_counter", "ms"),
    ("service.seed_ms.mixed_stripes", "ms"),
    ("service.seed_ms.locked_counter", "ms"),
    ("service.seed_ms.disjoint_grid", "ms"),
    ("service.store.distinct", "count"),
    ("service.store.evictions", "count"),
    ("service.store.bytes", "bytes"),
    ("service.persist.records", "count"),
    ("service.persist.fsyncs", "count"),
    ("service.persist.snapshots", "count"),
    ("service.persist.io_errors", "count"),
    ("service.persist.append_us.always", "us"),
    ("service.persist.append_us.every8", "us"),
    ("service.persist.append_us.never", "us"),
    ("sim.slowdown.fft", "ratio"),
    ("sim.slowdown.sor", "ratio"),
    ("sim.slowdown.water", "ratio"),
    ("gen.late_ms.p99", "ms"),
    ("gen.poll_us", "us"),
    ("trace.overhead", "ratio"),
    ("self_ms.gen", "ms"),
    ("self_ms.apps", "ms"),
    ("self_ms.dsm.cluster", "ms"),
    ("self_ms.dsm.handle", "ms"),
    ("self_ms.dsm.locks", "ms"),
    ("self_ms.dsm.barrier", "ms"),
    ("self_ms.race", "ms"),
    ("self_ms.net", "ms"),
    ("self_ms.service.daemon", "ms"),
    ("self_ms.service.pool", "ms"),
    ("self_ms.service.store", "ms"),
    ("self_ms.service.persist", "ms"),
];

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `(0, 1]`); 0 if empty.
pub fn pct(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one checked operation.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Prints a named figure for the reader; it is not part of the result
    /// object unless it is also [`set`](Report::set).
    pub fn show(&self, name: &str, value: f64, unit: &str, note: &str) {
        println!("{name:<34} {value:>14.4} {unit:<6} {note}");
    }

    /// The last line of output: the result object.
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(*name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 1e9 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// DSM counters summed over the `RunReport`s a traced run saw; reported as
/// means per `Cluster::run`.
#[derive(Default)]
pub struct Counters {
    runs: u64,
    sums: BTreeMap<&'static str, f64>,
    bitmaps_total: f64,
    rn_bytes: f64,
    other_bytes: f64,
}

impl Counters {
    pub fn add(&mut self, r: &RunReport) {
        self.runs += 1;
        let nodes = |f: &dyn Fn(&cvm_dsm::NodeReport) -> u64| -> f64 {
            r.nodes.iter().map(f).sum::<u64>() as f64
        };
        let (epochs, stalls) = r.pipeline();
        let rel = r.reliability.unwrap_or_default();
        let msgs = r.net.msgs as f64;
        let retrans = rel.retransmissions as f64;
        let datagrams = if r.reliability.is_some() {
            msgs + retrans
        } else {
            0.0
        };
        let add = [
            ("dsm.handle.shared_calls", nodes(&|n| n.shared_calls)),
            ("dsm.handle.private_calls", nodes(&|n| n.private_calls)),
            ("dsm.handle.shared_reads", nodes(&|n| n.stats.shared_reads)),
            (
                "dsm.handle.shared_writes",
                nodes(&|n| n.stats.shared_writes),
            ),
            ("dsm.pages.read_faults", nodes(&|n| n.stats.read_faults)),
            ("dsm.pages.write_faults", nodes(&|n| n.stats.write_faults)),
            ("dsm.pages.pages_sent", nodes(&|n| n.stats.pages_sent)),
            ("dsm.pages.diffs_made", nodes(&|n| n.stats.diffs_made)),
            ("dsm.locks.remote", nodes(&|n| n.stats.locks_remote)),
            ("dsm.locks.local", nodes(&|n| n.stats.locks_local)),
            ("dsm.pipeline.epochs", epochs as f64),
            ("dsm.pipeline.stalls", stalls as f64),
            ("race.pair_comparisons", r.det_stats.pair_comparisons as f64),
            ("race.pairs_concurrent", r.det_stats.pairs_concurrent as f64),
            (
                "race.bitmaps_requested",
                r.det_stats.bitmaps_requested as f64,
            ),
            ("race.races", r.races.len() as f64),
            ("net.msgs", msgs),
            ("net.bytes", r.net.total_bytes() as f64),
            ("net.reliable.datagrams", datagrams),
            ("net.reliable.retransmits", retrans),
            ("net.reliable.corrupt_dropped", rel.corrupt_dropped as f64),
        ];
        for (k, v) in add {
            *self.sums.entry(k).or_default() += v;
        }
        self.bitmaps_total += r.det_stats.bitmaps_total as f64;
        let rn = r.net.class_bytes(cvm_net::TrafficClass::ReadNotice) as f64;
        self.rn_bytes += rn;
        self.other_bytes += r.net.total_bytes() as f64 - rn;
    }

    pub fn emit(&self, rep: &mut Report) {
        if self.runs == 0 {
            return;
        }
        let n = self.runs as f64;
        for (k, v) in &self.sums {
            rep.set(k, v / n);
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        rep.set(
            "race.bitmaps_used_ratio",
            ratio(self.sums["race.bitmaps_requested"], self.bitmaps_total),
        );
        rep.set(
            "net.read_notice_ohead",
            ratio(self.rn_bytes, self.other_bytes),
        );
        rep.set(
            "net.reliable.retransmit_ratio",
            ratio(
                self.sums["net.reliable.retransmits"],
                self.sums["net.reliable.datagrams"],
            ),
        );
    }
}
