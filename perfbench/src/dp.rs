//! `train-dp4-nvlink`: 4×P100 NVLink data-parallel training of the
//! GoogLeNet subset, with the settings `reproduce multi-gpu` uses: four
//! fixed streams per replica, communication overlapped with backward,
//! the default single-threaded fabric, and full sanitizing.

use gpu_sim::{DeviceProps, LinkProps};
use nn::{models, DataParallelTrainer, DispatchMode, SolverConfig, StepReport};
use sanitizer::SanitizeMode;

use crate::calib::{Calibration, Timing};
use crate::report::Report;
use crate::stats::median;
use crate::Opts;

const REPLICAS: usize = 4;
const BATCH: usize = 32;
/// Steps before measuring: the first captures every plan, the second is
/// the first replay.
const WARMUP: usize = 2;
/// Host seconds of one sanitized step on the reference host.
const NOMINAL_S: f64 = 0.3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn trainer(seed: u64, sanitize: SanitizeMode, workers: usize) -> DataParallelTrainer {
    let spec = models::googlenet_subset(BATCH, seed);
    let dp = DataParallelTrainer::new(
        &spec,
        &vec![DeviceProps::p100(); REPLICAS],
        false,
        SolverConfig::default(),
    )
    .with_link(LinkProps::nvlink())
    .with_dispatch(DispatchMode::FixedStreams(4))
    .with_overlap(true)
    .timing_only()
    .sanitize(sanitize);
    if workers > 1 {
        dp.with_workers(workers)
    } else {
        dp
    }
}

/// The simulated side of one step.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepSim {
    report: StepReport,
    kernels: usize,
    copies: usize,
    diagnostics: usize,
}

struct Step {
    t: Timing,
    sim: StepSim,
}

fn kernels(dp: &DataParallelTrainer) -> usize {
    dp.device_stats().iter().map(|s| s.kernels_completed).sum()
}

fn step(dp: &mut DataParallelTrainer, cal: &mut Calibration) -> Step {
    let (k0, c0, d0) = (
        kernels(dp),
        dp.fabric().num_copies(),
        dp.diagnostics().len(),
    );
    let (report, t) = cal.time(|| dp.step());
    Step {
        t,
        sim: StepSim {
            report,
            kernels: kernels(dp) - k0,
            copies: dp.fabric().num_copies() - c0,
            diagnostics: dp.diagnostics().len() - d0,
        },
    }
}

/// Build and warm a trainer; returns it with the scaled set-up seconds.
fn setup(
    seed: u64,
    sanitize: SanitizeMode,
    workers: usize,
    cal: &mut Calibration,
) -> (DataParallelTrainer, f64) {
    let (mut dp, mut t) = cal.time(|| trainer(seed, sanitize, workers));
    for _ in 0..WARMUP {
        t = t + cal.time(|| dp.step()).1;
    }
    (dp, t.scaled)
}

fn steady(dp: &mut DataParallelTrainer, cal: &mut Calibration, n: usize) -> Vec<Step> {
    let steps: Vec<Step> = (0..n).map(|_| step(dp, cal)).collect();
    println!(
        "# unscaled / scaled median s per step: {:.4} / {:.4}",
        host_median(&steps),
        norm_median(&steps)
    );
    steps
}

fn host_median(steps: &[Step]) -> f64 {
    median(&steps.iter().map(|s| s.t.raw).collect::<Vec<_>>()).expect("at least one step")
}

fn norm_median(steps: &[Step]) -> f64 {
    median(&steps.iter().map(|s| s.t.scaled).collect::<Vec<_>>()).expect("at least one step")
}

/// Whether every step reproduces `sim` in simulated time, kernels and
/// copies (diagnostics aside).
fn same_timing(steps: &[Step], sim: &StepSim) -> bool {
    steps.iter().all(|s| {
        s.sim.report.wall_ns == sim.report.wall_ns
            && s.sim.report.compute_ns == sim.report.compute_ns
            && s.sim.report.comm_ns == sim.report.comm_ns
            && s.sim.kernels == sim.kernels
            && s.sim.copies == sim.copies
    })
}

/// `train-dp4-nvlink`.
pub fn dp4(opts: &Opts) -> Report {
    let mut report = Report::default();
    report.seed_invariant = true;
    let n = opts.units(NOMINAL_S);
    let mut cal = Calibration::reference();
    let (mut dp, setup_s) = setup(opts.seed, SanitizeMode::Full, 1, &mut cal);
    let steps = steady(&mut dp, &mut cal, n);
    let first = steps[0].sim;
    for (i, s) in steps.iter().enumerate() {
        let ok = same_timing(std::slice::from_ref(s), &first) && s.sim.diagnostics == 0;
        if !report.check(ok, || format!("step {i}: {:?} vs {first:?}", s.sim)) {
            report.failed += 1;
        }
    }
    report.attempted = steps.len() as u64;
    let r = first.report;
    report.sim("sim.iter_ns", r.wall_ns);
    report.sim("collective.comm_ns", r.comm_ns);
    report.sim("nn.compute_ns", r.compute_ns);
    report.sim("gpu-sim.kernels", first.kernels);
    report.sim("gpu-sim.fabric.copies", first.copies);

    if !opts.trace {
        let rss = crate::peak_rss_mb();
        let mut setups = vec![setup_s];
        drop(dp);
        for _ in 1..SETUP_REPS {
            setups.push(setup(opts.seed, SanitizeMode::Full, 1, &mut cal).1);
        }
        report.set("setup_s", median(&setups).expect("set-ups"));
        report.set(
            "images_per_s",
            (REPLICAS * BATCH) as f64 / norm_median(&steps),
        );
        report.set("peak_rss_mb", rss);
        return report;
    }

    // Traced: the same steps with spans around `DataParallelTrainer::step`,
    // then the two re-runs the layer metrics need.
    let traced = steady(&mut dp, &mut cal, (n / 2).max(3));
    report.check(same_timing(&traced, &first), || {
        "traced steps differ from untraced ones in simulated statistics".into()
    });
    report.set("nn.dp_step_ms", host_median(&traced) * 1e3);
    report.set(
        "trace.overhead_frac",
        norm_median(&traced) / norm_median(&steps) - 1.0,
    );
    let mut rerun = |sanitize, workers| {
        let (mut dp, _) = setup(opts.seed, sanitize, workers, &mut cal);
        steady(&mut dp, &mut cal, (n / 4).max(3))
    };
    let w2 = rerun(SanitizeMode::Full, 2);
    if same_timing(&w2, &first) {
        report.set("gpu-sim.fabric.dp_step_ms_w2", host_median(&w2) * 1e3);
    } else {
        report.unmatched("gpu-sim.fabric.dp_step_ms_w2");
    }
    let off = rerun(SanitizeMode::Off, 1);
    if same_timing(&off, &first) {
        report.set("sanitizer.busy_s", host_median(&steps) - host_median(&off));
    } else {
        report.unmatched("sanitizer.busy_s");
    }
    report.set("sim.iter_ms", r.wall_ns as f64 / 1e6);
    report.set("collective.comm_sim_ms", r.comm_ns as f64 / 1e6);
    report.set(
        "collective.exposed_comm_sim_ms",
        r.wall_ns.saturating_sub(r.compute_ns) as f64 / 1e6,
    );
    report.set("gpu-sim.kernels", first.kernels as f64);
    report.set("gpu-sim.fabric.copies", first.copies as f64);
    let diagnostics: usize = steps
        .iter()
        .chain(&traced)
        .chain(&w2)
        .map(|s| s.sim.diagnostics)
        .sum();
    report.check(diagnostics == 0, || {
        format!("{diagnostics} sanitizer diagnostics in traced or re-run steps")
    });
    report.set("sanitizer.diagnostics", diagnostics as f64);
    report
}
