//! The repository benchmark.
//!
//! ```text
//! cvm-perfbench --workload <locks-wire|service> --seed <n>
//!               --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! An untraced run (`--trace 0`) measures the workload's end-to-end
//! metrics; a traced run (`--trace 1`) records spans around every call
//! into a layer, runs the outside-in layer probes, and reports the
//! per-layer metrics with each layer's self time.  Every operation's
//! output is checked; the last line of standard output is the result
//! object, and any wrong output or race set makes the exit code non-zero.
//! `perfbench/README.md` describes the workloads and metrics.

mod apps;
mod gen;
mod locks;
mod metrics;
mod probes;
mod service;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{peak_rss_mb, Report, END_TO_END, PER_LAYER};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the service journal, probe files and span dumps.
    pub scratch: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--scratch" => args.scratch = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !["locks-wire", "service"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be locks-wire or service, not {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cvm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!(
            "cvm-perfbench: cannot create {}: {e}",
            args.scratch.display()
        );
        return ExitCode::from(2);
    }
    println!(
        "workload {} seed {} seconds {} trace {} (host parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    trace::set_enabled(args.trace);
    let started = Instant::now();
    let mut rep = Report::default();
    if args.workload == "locks-wire" {
        locks::run(&args, &mut rep);
    } else {
        service::run(&args, &mut rep);
    }
    let table = if args.trace {
        probes::run(&args, &mut rep);
        finish_trace(&args, &mut rep);
        PER_LAYER
    } else {
        rep.set("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    let error_rate = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.show(
        "error_rate",
        error_rate,
        "ratio",
        &format!(
            "{} failed of {} checked operations",
            rep.failed, rep.attempted
        ),
    );
    for (name, unit) in table {
        if let Some(v) = rep.values.get(*name) {
            rep.show(name, *v, unit, "");
        }
    }
    for e in &rep.errors {
        println!("ERROR {e}");
    }
    println!("wall {:.1} s", started.elapsed().as_secs_f64());
    println!("{}", rep.result_line(table));
    if rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Stops tracing, writes the spans out and reports per-layer self time.
fn finish_trace(args: &Args, rep: &mut Report) {
    trace::set_enabled(false);
    let (spans, dropped) = trace::take();
    for (layer, ms) in trace::self_times(&spans) {
        rep.set(&format!("self_ms.{layer}"), ms);
    }
    let path = args
        .scratch
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => println!(
            "spans: {} written to {} ({dropped} dropped over the in-memory cap)",
            spans.len(),
            path.display()
        ),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}
