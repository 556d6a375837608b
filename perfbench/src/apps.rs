//! The `apps` probe: the paper's Table 1 programs and their Figure 3
//! split.  FFT (65,536 points), SOR (512×512, 10 iterations) and Water (216
//! molecules, 5 iterations) at paper inputs on 2 nodes, single-writer
//! protocol, direct wire.  Every output is checked against its sequential
//! reference and every race set against the paper's: none for FFT and SOR,
//! the VIR write-write race for Water.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cvm_apps::fft::{self, Complex, FftParams};
use cvm_apps::sor::{self, SorParams};
use cvm_apps::water::{self, WaterParams, WaterResult};
use cvm_dsm::{DetectConfig, DsmConfig, Protocol, RunReport};
use cvm_race::RaceKind;

use crate::gen::Rng;
use crate::metrics::Report;
use crate::{trace, Args};

const NPROCS: usize = 2;
/// Largest allowed output difference from the sequential reference.
const TOL: f64 = 1e-9;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum App {
    Fft,
    Sor,
    Water,
}

impl App {
    const ALL: [App; 3] = [App::Fft, App::Sor, App::Water];

    fn key(self) -> &'static str {
        match self {
            App::Fft => "fft",
            App::Sor => "sor",
            App::Water => "water",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            App::Fft => "fft::run_on",
            App::Sor => "sor::run",
            App::Water => "water::run",
        }
    }
}

/// Generated inputs and their references.
struct Inputs {
    fft_in: Vec<Complex>,
    fft_ref: Vec<Complex>,
    sor_ref: Vec<f64>,
    water: WaterParams,
    water_ref: WaterResult,
}

fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::derive(seed, "fft");
    let fft_in: Vec<Complex> = (0..FftParams::paper().n())
        .map(|_| Complex {
            re: rng.unit() * 2.0 - 1.0,
            im: rng.unit() * 2.0 - 1.0,
        })
        .collect();
    let mut fft_ref = fft_in.clone();
    fft::fft_local(&mut fft_ref, -1.0);
    let water = WaterParams {
        seed: Rng::derive(seed, "water").next_u64(),
        ..WaterParams::paper()
    };
    Inputs {
        fft_in,
        fft_ref,
        sor_ref: sor::reference(SorParams::paper()),
        water_ref: water::reference(&water),
        water,
    }
}

fn config(detect: DetectConfig) -> DsmConfig {
    let mut cfg = DsmConfig::new(NPROCS);
    cfg.protocol = Protocol::SingleWriter;
    cfg.detect = detect;
    cfg
}

/// The `(segment, kind)` pairs a run reported races on.
pub fn race_set(r: &RunReport) -> BTreeSet<(String, RaceKind)> {
    r.races
        .reports()
        .iter()
        .map(|race| {
            let seg = r
                .segments
                .resolve(race.addr)
                .map_or_else(|| format!("{}", race.addr), |(s, _)| s.name.clone());
            (seg, race.kind)
        })
        .collect()
}

fn close(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(a, b)| (a - b).abs() > TOL) {
        Some(i) => Err(format!("{what}[{i}] = {} vs reference {}", got[i], want[i])),
        None => Ok(()),
    }
}

fn flat(c: &[Complex]) -> Vec<f64> {
    c.iter().flat_map(|c| [c.re, c.im]).collect()
}

/// One checked `Cluster::run` of `app`: its report and wall time in ms.
fn run_app(app: App, detect: DetectConfig, inp: &Inputs) -> Result<(RunReport, f64), String> {
    let cfg = config(detect);
    let t = Instant::now();
    let _s = trace::span("apps", app.span_name(), 0);
    let outcome = catch_unwind(AssertUnwindSafe(|| match app {
        App::Fft => {
            let (r, out) = fft::run_on(cfg, FftParams::paper(), &inp.fft_in);
            (r, close("fft", &flat(&out.data), &flat(&inp.fft_ref)))
        }
        App::Sor => {
            let (r, out) = sor::run(cfg, SorParams::paper());
            (r, close("sor", &out.grid, &inp.sor_ref))
        }
        App::Water => {
            let (r, out) = water::run(cfg, inp.water);
            (r, close("water", &out.positions, &inp.water_ref.positions))
        }
    }));
    drop(_s);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (report, output) = outcome.map_err(|_| format!("{} run panicked", app.key()))?;
    output?;
    if detect.enabled && !detect.instrumentation_only {
        let races = race_set(&report);
        let want: BTreeSet<(String, RaceKind)> = match app {
            App::Fft | App::Sor => BTreeSet::new(),
            App::Water => [("VIR".to_string(), RaceKind::WriteWrite)].into(),
        };
        if races != want {
            return Err(format!(
                "{} race set {races:?}, expected {want:?}",
                app.key()
            ));
        }
    } else if !report.races.is_empty() {
        return Err(format!("{} reported races with detection off", app.key()));
    }
    Ok((report, ms))
}

/// The Figure 3 split at paper inputs, run by the probes of every traced
/// run: each app once per mode (detection on, instrumentation only,
/// detection off), with every output checked.  Reports `apps.*` and
/// `sim.*`.
pub fn probe(args: &Args, rep: &mut Report) {
    let inp = setup(args.seed);
    let modes = [
        DetectConfig::on(),
        DetectConfig::instrumentation_only(),
        DetectConfig::off(),
    ];
    for app in App::ALL {
        // Wall time and virtual cycles per mode.
        let mut ms = [0.0; 3];
        let mut cycles = [0.0; 3];
        for (m, &detect) in modes.iter().enumerate() {
            let r = run_app(app, detect, &inp);
            if let Ok((report, t)) = &r {
                ms[m] = *t;
                cycles[m] = report.virtual_cycles() as f64;
            }
            rep.check(app.key(), r.map(|_| ()));
        }
        let k = app.key();
        let [on, instr, base] = ms;
        rep.set(&format!("apps.base_ms.{k}"), base);
        rep.set(&format!("apps.instr_ms.{k}"), instr);
        rep.set(&format!("apps.instr_share.{k}"), (instr - base) / on);
        rep.set(&format!("apps.detect_share.{k}"), (on - instr) / on);
        rep.set(&format!("sim.slowdown.{k}"), cycles[0] / cycles[2]);
    }
}
