//! The two single-GPU training workloads.
//!
//! `train-caffenet` is GLP4NN timing-only training of CaffeNet at its
//! Table-5 batch: the simulator does nearly all the host work. The
//! `train-cifar10-f32` workload is GLP4NN training of CIFAR10-quick with
//! real f32 math, where `tensor` does nearly all of it, and whose losses
//! and weights must equal a naive-dispatch run bit for bit.

use std::time::Instant;

use gpu_sim::DeviceProps;
use nn::data::SyntheticDataset;
use nn::{models, ExecCtx, LayerTiming, Net, NetSpec, Solver, SolverConfig};
use tensor::Blob;

use crate::calib::{Calibration, Timing};
use crate::report::Report;
use crate::rung;
use crate::stats::median;
use crate::Opts;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The simulated side of one iteration: what the determinism guard and
/// the steady-state check compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IterSim {
    sim_ns: u64,
    events: u64,
    kernels: u64,
    captures: u64,
    dispatches: u64,
}

struct Iter {
    t: Timing,
    sim: IterSim,
    timings: Vec<LayerTiming>,
}

/// Run one iteration through `f`, which returns the host time of the
/// parts it times, and read the simulated deltas around it.
fn measure(ctx: &mut ExecCtx, f: impl FnOnce(&mut ExecCtx) -> Timing) -> Iter {
    let (t0, ev0, k0, c0) = (
        ctx.device.now(),
        ctx.device.events_processed(),
        ctx.device.trace().len(),
        ctx.plan_captures(),
    );
    ctx.take_timings();
    let t = f(ctx);
    let timings = ctx.take_timings();
    Iter {
        t,
        sim: IterSim {
            sim_ns: ctx.device.now() - t0,
            events: ctx.device.events_processed() - ev0,
            kernels: (ctx.device.trace().len() - k0) as u64,
            captures: ctx.plan_captures() - c0,
            dispatches: timings.len() as u64,
        },
        timings,
    }
}

/// Run `n` measured iterations.
fn steady(ctx: &mut ExecCtx, n: usize, mut one: impl FnMut(&mut ExecCtx) -> Timing) -> Vec<Iter> {
    let iters: Vec<Iter> = (0..n).map(|_| measure(ctx, &mut one)).collect();
    let show = |f: fn(&Iter) -> f64| -> String {
        iters
            .iter()
            .map(|i| format!("{:.4}", f(i)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# host s per iteration: {}", show(|i| i.t.raw));
    println!("# scaled s per iteration: {}", show(|i| i.t.scaled));
    iters
}

fn host_median(iters: &[Iter]) -> f64 {
    median(&iters.iter().map(|i| i.t.raw).collect::<Vec<_>>()).expect("at least one iteration")
}

fn norm_median(iters: &[Iter]) -> f64 {
    median(&iters.iter().map(|i| i.t.scaled).collect::<Vec<_>>()).expect("at least one iteration")
}

/// Simulated ms of layer `name` (forward plus backward) in one iteration.
fn layer_sim_ms(timings: &[LayerTiming], name: &str) -> f64 {
    timings
        .iter()
        .filter(|t| t.layer == name)
        .map(|t| t.elapsed_ns)
        .sum::<u64>() as f64
        / 1e6
}

/// Every steady iteration must equal the first one's simulated side and
/// capture no plan. Counts the iterations that fail as failed operations.
fn check_steady(report: &mut Report, iters: &[Iter]) {
    // Timing depends on layer shapes, not on parameter or data values.
    report.seed_invariant = true;
    let first = iters[0].sim;
    for (i, it) in iters.iter().enumerate() {
        let ok = it.sim == first && it.sim.captures == 0;
        if !report.check(ok, || {
            format!("steady iteration {i}: {:?} vs {first:?}", it.sim)
        }) {
            report.failed += 1;
        }
    }
    report.attempted += iters.len() as u64;
}

fn record_sim(report: &mut Report, iters: &[Iter], convs: &[&str]) {
    let s = iters[0].sim;
    report.sim("sim.iter_ns", s.sim_ns);
    report.sim("gpu-sim.events", s.events);
    report.sim("gpu-sim.kernels", s.kernels);
    report.sim("nn.dispatches", s.dispatches);
    for conv in convs {
        let ns: u64 = iters[0]
            .timings
            .iter()
            .filter(|t| t.layer == *conv)
            .map(|t| t.elapsed_ns)
            .sum();
        report.sim(&format!("sim.{conv}_ns"), ns);
    }
}

/// Per-layer numbers every training workload reports from the framework.
fn glp4nn_metrics(report: &mut Report, ctx: &ExecCtx, net: &str, batch: usize, convs: &[&str]) {
    let glp = ctx.glp.as_ref().expect("GLP4NN context");
    let cost = glp.cost_report(0);
    report.set("milp.solves", glp.plan_solves(0) as f64);
    report.set("milp.solve_s", cost.t_a.as_secs_f64());
    report.set("cupti-sim.records", cost.kernels_recorded as f64);
    report.set("cupti-sim.process_s", cost.t_p.as_secs_f64());
    report.sim("milp.solves", glp.plan_solves(0));
    report.sim("cupti-sim.records", cost.kernels_recorded);
    for (k, name) in [
        "glp4nn.streams.conv1",
        "glp4nn.streams.conv2",
        "glp4nn.streams.conv3",
        "glp4nn.streams.conv4",
        "glp4nn.streams.conv5",
    ]
    .into_iter()
    .enumerate()
    {
        let streams = match (net, convs.get(k)) {
            ("CaffeNet", Some(conv)) => glp
                .plan_for(0, &glp4nn::LayerKey::forward(net, conv).with_chunks(batch))
                .map_or(0, |p| p.streams),
            _ => 0,
        };
        report.set(name, f64::from(streams));
        report.sim(name, streams);
    }
}

/// The traced pass's per-conv numbers: host ms of each conv layer's
/// `Net::backward_layer` and simulated ms of its forward plus backward.
fn conv_layer_metrics(
    report: &mut Report,
    net_name: &str,
    bwd_ms: &[f64],
    timings: &[LayerTiming],
) {
    const CAFFENET: [[&str; 2]; 5] = [
        ["nn.CaffeNet.conv1.bwd_host_ms", "nn.CaffeNet.conv1.sim_ms"],
        ["nn.CaffeNet.conv2.bwd_host_ms", "nn.CaffeNet.conv2.sim_ms"],
        ["nn.CaffeNet.conv3.bwd_host_ms", "nn.CaffeNet.conv3.sim_ms"],
        ["nn.CaffeNet.conv4.bwd_host_ms", "nn.CaffeNet.conv4.sim_ms"],
        ["nn.CaffeNet.conv5.bwd_host_ms", "nn.CaffeNet.conv5.sim_ms"],
    ];
    const CIFAR10: [[&str; 2]; 3] = [
        ["nn.CIFAR10.conv1.bwd_host_ms", "nn.CIFAR10.conv1.sim_ms"],
        ["nn.CIFAR10.conv2.bwd_host_ms", "nn.CIFAR10.conv2.sim_ms"],
        ["nn.CIFAR10.conv3.bwd_host_ms", "nn.CIFAR10.conv3.sim_ms"],
    ];
    for (net, rows) in [("CaffeNet", &CAFFENET[..]), ("CIFAR10", &CIFAR10[..])] {
        for (k, [bwd, sim]) in rows.iter().enumerate() {
            if net == net_name {
                report.set(bwd, bwd_ms[k]);
                report.set(sim, layer_sim_ms(timings, &format!("conv{}", k + 1)));
            } else {
                report.set(bwd, 0.0);
                report.set(sim, 0.0);
            }
        }
    }
}

/// One forward plus a layer-by-layer backward (exactly what
/// `Net::backward` does), timing each conv layer's `backward_layer`.
fn layered_pass(ctx: &mut ExecCtx, net: &mut Net, convs: &[&str], bwd_s: &mut [f64]) {
    let names = net.layer_names();
    net.forward(ctx);
    net.seed_loss_grads();
    for i in (0..net.num_layers()).rev() {
        let t = Instant::now();
        net.backward_layer(i, ctx);
        if let Some(k) = convs.iter().position(|c| *c == names[i]) {
            bwd_s[k] += t.elapsed().as_secs_f64();
        }
    }
}

/// The `gpu-sim` rung over the last iteration's commands: one warm-up
/// replay and two timed ones. Returns the replay's host seconds when every
/// pass reproduced the iteration's simulated time and events.
fn replay_rung(report: &mut Report, ctx: &ExecCtx, from: usize, it: &IterSim) -> Option<f64> {
    let rec = rung::record(&ctx.device, from)?;
    let (runs, sm_util) = rung::replay(&ctx.device, &rec, 2);
    if !runs
        .iter()
        .all(|r| r.sim_ns == it.sim_ns && r.events == it.events)
    {
        println!(
            "# gpu-sim rung unmatched: replay {} ns / {} events vs iteration {} ns / {} events",
            runs[0].sim_ns, runs[0].events, it.sim_ns, it.events
        );
        for name in [
            "gpu-sim.busy_s",
            "gpu-sim.ns_per_event",
            "gpu-sim.sm_util",
            "nn.self_s",
        ] {
            report.unmatched(name);
        }
        return None;
    }
    let host_s =
        median(&runs[1..].iter().map(|r| r.host_s).collect::<Vec<_>>()).expect("timed replays");
    report.set("gpu-sim.busy_s", host_s);
    report.set(
        "gpu-sim.ns_per_event",
        host_s * 1e9 / it.events.max(1) as f64,
    );
    report.set("gpu-sim.sm_util", sm_util);
    report.sim("gpu-sim.sm_util", sm_util);
    Some(host_s)
}

/// Common per-layer numbers of both training workloads.
#[allow(clippy::too_many_arguments)]
fn training_layers(
    report: &mut Report,
    ctx: &ExecCtx,
    setup: &SetupTimes,
    untraced: &[Iter],
    traced: &[Iter],
    net: &str,
    batch: usize,
    convs: &[&str],
) {
    let s = untraced[0].sim;
    report.set("sim.iter_ms", s.sim_ns as f64 / 1e6);
    report.set("gpu-sim.events", s.events as f64);
    report.set("gpu-sim.kernels", s.kernels as f64);
    report.set("nn.dispatches", s.dispatches as f64);
    report.set("glp4nn.plan_captures.setup", setup.captures as f64);
    let steady: u64 = untraced.iter().chain(traced).map(|i| i.sim.captures).sum();
    let dispatches: u64 = untraced
        .iter()
        .chain(traced)
        .map(|i| i.sim.dispatches)
        .sum();
    report.set("glp4nn.plan_captures.steady", steady as f64);
    report.set(
        "glp4nn.plan_hit_ratio",
        1.0 - steady as f64 / dispatches.max(1) as f64,
    );
    report.set("glp4nn.profile_s", setup.profile_s);
    report.set("glp4nn.capture_s", setup.capture_s);
    report.set(
        "trace.overhead_frac",
        norm_median(traced) / norm_median(untraced) - 1.0,
    );
    glp4nn_metrics(report, ctx, net, batch, convs);
}

struct SetupTimes {
    /// Scaled host seconds of construction plus both warm-up iterations.
    setup_s: f64,
    profile_s: f64,
    capture_s: f64,
    captures: u64,
}

/// The end-to-end metrics of a training run, from scaled set-up and
/// iteration times.
fn end_to_end(report: &mut Report, setups: &[f64], iters: &[Iter], batch: usize, rss: f64) {
    println!(
        "# unscaled: images_per_s {:.4}",
        batch as f64 / host_median(iters)
    );
    report.set("setup_s", median(setups).expect("at least one set-up"));
    report.set("images_per_s", batch as f64 / norm_median(iters));
    report.set("peak_rss_mb", rss);
}

const CAFFENET_BATCH: usize = 256;
/// Host seconds of one steady CaffeNet iteration on the reference host.
const CAFFENET_NOMINAL_S: f64 = 2.0;
const CAFFENET_CONVS: [&str; 5] = ["conv1", "conv2", "conv3", "conv4", "conv5"];

/// One CaffeNet iteration, forward and backward timed apart (shorter
/// parts let the calibration follow the host more closely).
fn caffenet_pass(ctx: &mut ExecCtx, net: &mut Net, cal: &mut Calibration) -> Timing {
    let (_, fwd) = cal.time(|| net.forward(ctx));
    let (_, bwd) = cal.time(|| net.backward(ctx));
    fwd + bwd
}

fn caffenet_setup(spec: &NetSpec, cal: &mut Calibration) -> (ExecCtx, Net, SetupTimes) {
    let ((mut ctx, mut net), build) = cal.time(|| {
        (
            ExecCtx::glp4nn(DeviceProps::p100()).timing_only(),
            Net::from_spec(spec),
        )
    });
    let profile = caffenet_pass(&mut ctx, &mut net, cal);
    let capture = caffenet_pass(&mut ctx, &mut net, cal);
    let setup = SetupTimes {
        setup_s: (build + profile + capture).scaled,
        profile_s: profile.raw,
        capture_s: capture.raw,
        captures: ctx.plan_captures(),
    };
    (ctx, net, setup)
}

/// `train-caffenet`.
pub fn caffenet(opts: &Opts) -> Report {
    let mut report = Report::default();
    let spec = models::caffenet(CAFFENET_BATCH, opts.seed);
    let mut cal = Calibration::reference();
    let (mut ctx, mut net, setup) = caffenet_setup(&spec, &mut cal);
    let n = opts.units(CAFFENET_NOMINAL_S);
    let iters = steady(&mut ctx, n, |ctx| caffenet_pass(ctx, &mut net, &mut cal));
    check_steady(&mut report, &iters);
    record_sim(&mut report, &iters, &CAFFENET_CONVS);
    report.sim("glp4nn.plan_captures.setup", setup.captures);
    if !opts.trace {
        let rss = crate::peak_rss_mb();
        let mut setups = vec![setup.setup_s];
        drop((ctx, net));
        for _ in 1..SETUP_REPS {
            setups.push(caffenet_setup(&spec, &mut cal).2.setup_s);
        }
        end_to_end(&mut report, &setups, &iters, CAFFENET_BATCH, rss);
        return report;
    }

    // Traced: spans around `Net::forward` and each `Net::backward_layer`.
    let mut bwd_s = [0.0; 5];
    let mut from = 0;
    let traced = steady(&mut ctx, n, |ctx| {
        from = ctx.device.command_log().len();
        cal.time(|| layered_pass(ctx, &mut net, &CAFFENET_CONVS, &mut bwd_s))
            .1
    });
    let traced_sim_ok = traced.iter().all(|i| i.sim == iters[0].sim);
    report.check(traced_sim_ok, || {
        "traced iterations differ from untraced ones in simulated statistics".into()
    });
    let bwd_ms: Vec<f64> = bwd_s
        .iter()
        .map(|s| s * 1e3 / traced.len() as f64)
        .collect();
    conv_layer_metrics(&mut report, "CaffeNet", &bwd_ms, &traced[0].timings);
    if let Some(busy) = replay_rung(&mut report, &ctx, from, &traced[traced.len() - 1].sim) {
        report.set("nn.self_s", host_median(&iters) - busy);
    }
    training_layers(
        &mut report,
        &ctx,
        &setup,
        &iters,
        &traced,
        "CaffeNet",
        CAFFENET_BATCH,
        &CAFFENET_CONVS,
    );
    report
}

const CIFAR_BATCH: usize = 100;
/// Host seconds per measured CIFAR10-quick step on the reference host:
/// the step (about 1 s) plus most of its share of the naive-dispatch
/// check after the measured phase, which costs as much again.
const CIFAR_NOMINAL_S: f64 = 1.6;
const CIFAR_CONVS: [&str; 3] = ["conv1", "conv2", "conv3"];

fn load_batch(net: &mut Net, ds: &SyntheticDataset, it: usize) {
    let mut data = std::mem::replace(net.blob_mut("data"), Blob::empty());
    let mut label = std::mem::replace(net.blob_mut("label"), Blob::empty());
    ds.fill_batch(it * CIFAR_BATCH, &mut data, &mut label);
    *net.blob_mut("data") = data;
    *net.blob_mut("label") = label;
}

/// A CIFAR10-quick solver with its own dataset and step counter; every
/// step's loss is kept, bit for bit, for the naive-dispatch comparison.
struct Cifar {
    solver: Solver,
    ds: SyntheticDataset,
    losses: Vec<u32>,
}

impl Cifar {
    fn new(seed: u64) -> Self {
        Cifar {
            solver: Solver::new(
                Net::from_spec(&models::cifar10_quick(CIFAR_BATCH, seed)),
                SolverConfig::default(),
            ),
            ds: SyntheticDataset::cifar_like(seed),
            losses: Vec::new(),
        }
    }

    /// Load the next batch (untimed), then run one timed `Solver::step`.
    fn step(&mut self, ctx: &mut ExecCtx, cal: &mut Calibration) -> Timing {
        load_batch(&mut self.solver.net, &self.ds, self.losses.len());
        let (loss, t) = cal.time(|| self.solver.step(ctx));
        self.losses.push(loss.to_bits());
        t
    }

    /// [`step`](Self::step) without timing.
    fn step_untimed(&mut self, ctx: &mut ExecCtx) {
        load_batch(&mut self.solver.net, &self.ds, self.losses.len());
        let loss = self.solver.step(ctx);
        self.losses.push(loss.to_bits());
    }

    fn weights(&mut self) -> Vec<u32> {
        self.solver
            .net
            .params_mut()
            .iter()
            .flat_map(|p| p.data().iter().map(|v| v.to_bits()))
            .collect()
    }
}

fn cifar_setup(seed: u64, cal: &mut Calibration) -> (ExecCtx, Cifar, SetupTimes) {
    let ((mut ctx, mut c), build) =
        cal.time(|| (ExecCtx::glp4nn(DeviceProps::p100()), Cifar::new(seed)));
    let profile = c.step(&mut ctx, cal);
    let capture = c.step(&mut ctx, cal);
    let setup = SetupTimes {
        setup_s: (build + profile + capture).scaled,
        profile_s: profile.raw,
        capture_s: capture.raw,
        captures: ctx.plan_captures(),
    };
    (ctx, c, setup)
}

/// Replay the same steps under naive dispatch and compare losses and
/// final weights bit for bit (outside every timed window).
fn check_against_naive(report: &mut Report, c: &mut Cifar, seed: u64) {
    let mut ctx = ExecCtx::naive(DeviceProps::p100());
    let mut naive = Cifar::new(seed);
    for _ in 0..c.losses.len() {
        naive.step_untimed(&mut ctx);
    }
    let differing = c
        .losses
        .iter()
        .zip(&naive.losses)
        .filter(|(a, b)| a != b)
        .count();
    if !report.check(differing == 0, || {
        format!("{differing} step losses differ from naive dispatch")
    }) {
        report.failed += differing as u64;
    }
    report.check(c.weights() == naive.weights(), || {
        "final weights differ from naive dispatch".into()
    });
}

/// `train-cifar10-f32`.
pub fn cifar10_f32(opts: &Opts) -> Report {
    let mut report = Report::default();
    // `tensor` forks its math over every CPU.
    let mut cal = Calibration::ProcessCpu;
    let (mut ctx, mut c, setup) = cifar_setup(opts.seed, &mut cal);
    let n = opts.units(CIFAR_NOMINAL_S);
    let iters = steady(&mut ctx, n, |ctx| c.step(ctx, &mut cal));
    check_steady(&mut report, &iters);
    record_sim(&mut report, &iters, &CIFAR_CONVS);
    report.sim("glp4nn.plan_captures.setup", setup.captures);
    if !opts.trace {
        let rss = crate::peak_rss_mb();
        check_against_naive(&mut report, &mut c, opts.seed);
        let mut setups = vec![setup.setup_s];
        drop((ctx, c));
        for _ in 1..SETUP_REPS {
            setups.push(cifar_setup(opts.seed, &mut cal).2.setup_s);
        }
        end_to_end(&mut report, &setups, &iters, CIFAR_BATCH, rss);
        return report;
    }

    // Traced: spans around each `Solver::step`, then one extra
    // forward/backward pass (no update) with a span per conv layer's
    // `Net::backward_layer`.
    let mut from = 0;
    let traced = steady(&mut ctx, n, |ctx| {
        from = ctx.device.command_log().len();
        c.step(ctx, &mut cal)
    });
    let traced_sim_ok = traced.iter().all(|i| i.sim == iters[0].sim);
    report.check(traced_sim_ok, || {
        "traced steps differ from untraced ones in simulated statistics".into()
    });
    let last = traced[traced.len() - 1].sim;
    let gpu = replay_rung(&mut report, &ctx, from, &last);
    let mut bwd_s = [0.0; 3];
    let pass = measure(&mut ctx, |ctx| {
        cal.time(|| layered_pass(ctx, &mut c.solver.net, &CIFAR_CONVS, &mut bwd_s))
            .1
    });
    let bwd_ms: Vec<f64> = bwd_s.iter().map(|s| s * 1e3).collect();
    conv_layer_metrics(&mut report, "CIFAR10", &bwd_ms, &pass.timings);

    let spec = models::cifar10_quick(CIFAR_BATCH, opts.seed);
    let gflop = rung::gflop_per_iter(&spec, &c.solver.net);
    let tensor_busy = median(
        &(0..3)
            .map(|_| rung::tensor_rung(&spec, &c.solver.net))
            .collect::<Vec<_>>(),
    )
    .expect("three tensor rungs");
    report.set("tensor.gflop_per_iter", gflop);
    report.sim("tensor.gflop_per_iter", gflop);
    report.set("tensor.busy_s", tensor_busy);
    report.set("tensor.sgemm_gflops", gflop / tensor_busy);
    if let Some(busy) = gpu {
        report.set("nn.self_s", host_median(&iters) - busy - tensor_busy);
    }
    training_layers(
        &mut report,
        &ctx,
        &setup,
        &iters,
        &traced,
        "CIFAR10",
        CIFAR_BATCH,
        &CIFAR_CONVS,
    );
    check_against_naive(&mut report, &mut c, opts.seed);
    report
}
