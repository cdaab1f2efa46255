//! `serve-fleet-hetero12`: fleet serving on the heterogeneous 12-slot
//! PCIe fabric (4× K40C, 4× P100, 4× Titan XP), join-shortest-queue
//! routing, the premium-heavy tenant mix, and open-loop seeded Poisson
//! arrivals at 140 k requests per simulated second — about 92 % of the
//! ~153 k saturation point the fleet sweep calibrated, so the backlog
//! does not grow and simulated latency does not depend on run length.
//!
//! Arrivals carry simulated timestamps, so the generator never runs late
//! and host time measures only simulator throughput. Each repetition
//! rebuilds the fleet from the same seed; every repetition must produce
//! the same report.

use std::sync::Arc;
use std::time::Instant;

use fleet::{
    fabric_hetero12, replica_pid, FleetConfig, FleetReport, FleetSim, PriorityMix, RouterPolicy,
};
use serve::{EngineOptions, ServeConfig, ServingEngine};
use telemetry::{SharedRecorder, Telemetry};

use crate::calib::{Calibration, Timing};
use crate::report::Report;
use crate::rung;
use crate::stats::{median, tail};
use crate::Opts;

const RATE_RPS: f64 = 140_000.0;
const REQUESTS: usize = 20_000;
/// Host seconds of one repetition (set-up plus run) on the reference host.
const NOMINAL_S: f64 = 2.0;
/// `FleetSim::new` timings per run (repetitions plus extra builds);
/// `setup_s` is their median.
const SETUP_SAMPLES: usize = 9;

fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::cifar10(
        fabric_hetero12(),
        RouterPolicy::JoinShortestQueue,
        PriorityMix::premium_heavy(),
    );
    cfg.rate_rps = RATE_RPS;
    cfg.num_requests = REQUESTS;
    cfg.seed = seed;
    cfg
}

/// One repetition: `FleetSim::new`, then `FleetSim::run`.
struct Rep {
    setup: Timing,
    run: Timing,
    report: FleetReport,
}

fn build(cfg: &FleetConfig, cal: &mut Calibration) -> (FleetSim, Timing) {
    cal.time(|| FleetSim::new(cfg.clone()).expect("CIFAR10 is a known model"))
}

fn rep(cfg: &FleetConfig, cal: &mut Calibration) -> Rep {
    let (mut sim, setup) = build(cfg, cal);
    let (report, run) = cal.time(|| sim.run());
    Rep { setup, run, report }
}

/// One wave as the fleet dispatched it: replica slot, size, and its
/// simulated start and completion.
struct Wave {
    slot: usize,
    size: usize,
    start_ns: u64,
    done_ns: u64,
}

/// The fleet's waves, read from the `wave xN` spans a traced run records
/// on each replica's track, in dispatch order per replica.
fn waves(t: &Telemetry, slots: usize) -> Vec<Wave> {
    t.spans()
        .iter()
        .filter(|s| s.cat == "fleet")
        .filter_map(|s| {
            let size = s.name.strip_prefix("wave x")?.parse().ok()?;
            let slot = (0..slots).find(|&i| replica_pid(i) == s.pid)?;
            Some(Wave {
                slot,
                size,
                start_ns: s.start_ns,
                done_ns: s.end_ns,
            })
        })
        .collect()
}

/// What the serve and gpu-sim rungs reproduced and cost.
#[derive(Default)]
struct WaveRungs {
    /// Host seconds of every `ServingEngine::run_wave`, one per wave.
    run_wave_s: Vec<f64>,
    /// Host seconds of replaying every wave's device commands.
    replay_s: f64,
    /// Engine events of the re-driven waves.
    events: u64,
    kernels: u64,
    waves_matched: bool,
    replay_matched: bool,
    setup_captures: u64,
    steady_captures: u64,
}

/// Re-drive every replica's recorded waves through a fresh
/// `ServingEngine` (warmed like a fleet replica), then replay each
/// wave's device commands into a fresh device at the same simulated
/// start. Each wave must end at the recorded time.
fn wave_rungs(cfg: &FleetConfig, waves: &[Wave]) -> WaveRungs {
    let mut out = WaveRungs {
        waves_matched: true,
        replay_matched: true,
        ..WaveRungs::default()
    };
    for slot in 0..cfg.fabric.num_slots() {
        let serve_cfg = ServeConfig {
            device: cfg.fabric.slot(slot).clone(),
            mode: cfg.mode,
            model: cfg.model.clone(),
            rate_rps: cfg.rate_rps,
            num_requests: cfg.num_requests,
            policy: cfg.policy,
            queue_capacity: cfg.queue_capacity,
            seed: cfg.seed,
        };
        let opts = EngineOptions {
            timing_only: cfg.engine.timing_only,
            sanitize: cfg.engine.sanitize,
        };
        let mut engine = ServingEngine::new_with(&serve_cfg, opts).expect("known model");
        engine.warmup(cfg.policy.max_batch);
        let captures = engine.plan_captures();
        out.setup_captures += captures;
        let mut recorded = Vec::new();
        let mut next_id = 0u64;
        for w in waves.iter().filter(|w| w.slot == slot) {
            let ids: Vec<u64> = (next_id..next_id + w.size as u64).collect();
            next_id += w.size as u64;
            let (from, ev0, k0) = (
                engine.device().command_log().len(),
                engine.device().events_processed(),
                engine.device().trace().len(),
            );
            let start = Instant::now();
            let timing = engine.run_wave(&ids, w.start_ns);
            out.run_wave_s.push(start.elapsed().as_secs_f64());
            out.waves_matched &= timing.start_ns == w.start_ns && timing.done_ns == w.done_ns;
            let events = engine.device().events_processed() - ev0;
            out.events += events;
            out.kernels += (engine.device().trace().len() - k0) as u64;
            match rung::record(engine.device(), from) {
                Some(rec) => recorded.push((w, rec, events)),
                None => out.replay_matched = false,
            }
        }
        out.steady_captures += engine.plan_captures() - captures;
        let max_events = recorded
            .iter()
            .map(|(_, r, _)| r.events())
            .max()
            .unwrap_or(0);
        let mut replay = rung::Replay::new(engine.device(), max_events);
        let start = Instant::now();
        for (w, rec, events) in &recorded {
            let ev0 = replay.dev.events_processed();
            replay.dev.advance_to(w.start_ns);
            replay.issue(rec);
            out.replay_matched &=
                replay.dev.now() == w.done_ns && replay.dev.events_processed() - ev0 == *events;
        }
        out.replay_s += start.elapsed().as_secs_f64();
    }
    out
}

fn record_sim(report: &mut Report, r: &FleetReport) {
    report.sim("fleet.offered", r.offered);
    report.sim("fleet.completed", r.completed);
    report.sim("fleet.shed", r.shed);
    report.sim("fleet.expired", r.expired);
    report.sim("serve.waves", r.waves);
    report.sim("sim.p50_ns", r.p50_ns);
    report.sim("sim.p99_ns", r.p99_ns);
    report.sim("sim.slo_attainment", r.slo_attainment);
    report.sim("sim.makespan_ns", r.makespan_ns);
}

/// `serve-fleet-hetero12`.
pub fn fleet(opts: &Opts) -> Report {
    let mut report = Report::default();
    let cfg = config(opts.seed);
    let mut cal = Calibration::reference();
    let reps: Vec<Rep> = (0..opts.units(NOMINAL_S))
        .map(|_| rep(&cfg, &mut cal))
        .collect();
    let first = reps[0].report.clone();
    for (i, r) in reps.iter().enumerate() {
        report.attempted += r.report.offered as u64;
        report.failed += (r.report.shed + r.report.expired) as u64;
        report.check(r.report == first, || {
            format!("repetition {i} differs from repetition 0")
        });
        report.check(
            r.report.offered == r.report.completed + r.report.shed + r.report.expired,
            || {
                format!(
                    "repetition {i}: offered {} != completed {} + shed {} + expired {}",
                    r.report.offered, r.report.completed, r.report.shed, r.report.expired
                )
            },
        );
    }
    record_sim(&mut report, &first);
    println!(
        "# simulated latency: p50 {:.4} ms, p99 {:.4} ms over {} completed requests; SLO attainment {:.4}",
        first.p50_ns as f64 / 1e6,
        first.p99_ns as f64 / 1e6,
        first.completed,
        first.slo_attainment
    );
    let run_s =
        median(&reps.iter().map(|r| r.run.scaled).collect::<Vec<_>>()).expect("repetitions");
    let raw_run_s =
        median(&reps.iter().map(|r| r.run.raw).collect::<Vec<_>>()).expect("repetitions");
    println!(
        "# unscaled / scaled median s per run: {raw_run_s:.4} / {run_s:.4}; unscaled images_per_s {:.4}",
        first.offered as f64 / raw_run_s
    );
    if !opts.trace {
        let rss = crate::peak_rss_mb();
        let mut setups: Vec<f64> = reps.iter().map(|r| r.setup.scaled).collect();
        while setups.len() < SETUP_SAMPLES {
            setups.push(build(&cfg, &mut cal).1.scaled);
        }
        report.set("setup_s", median(&setups).expect("repetitions"));
        report.set("images_per_s", first.offered as f64 / run_s);
        report.set("peak_rss_mb", rss);
        return report;
    }

    // Traced: one more repetition with a telemetry recorder attached to
    // the fleet, whose wave spans feed the rungs.
    let store = telemetry::shared(Telemetry::new());
    let mut sim = FleetSim::new(cfg.clone()).expect("CIFAR10 is a known model");
    sim.set_telemetry(Arc::clone(&store) as SharedRecorder);
    let (traced, traced_t) = cal.time(|| sim.run());
    drop(sim);
    report.check(traced == first, || {
        "traced run differs from untraced repetitions".into()
    });
    let waves = {
        let guard = store.lock().expect("telemetry store");
        waves(&guard, cfg.fabric.num_slots())
    };
    drop(store);
    report.check(waves.len() == first.waves, || {
        format!("{} wave spans for {} waves", waves.len(), first.waves)
    });
    let rungs = wave_rungs(&cfg, &waves);
    let wave_total: f64 = rungs.run_wave_s.iter().sum();
    let n = waves.len().max(1) as f64;

    report.set("sim.p50_ms", first.p50_ns as f64 / 1e6);
    report.set("sim.p99_ms", first.p99_ns as f64 / 1e6);
    report.set("sim.latency_samples", first.completed as f64);
    report.set("sim.slo_attainment", first.slo_attainment);
    report.set("serve.waves", first.waves as f64);
    report.set(
        "serve.fill_ratio",
        first.mean_wave / cfg.policy.max_batch as f64,
    );
    report.set("fleet.shed", first.shed as f64);
    report.set("fleet.expired", first.expired as f64);
    report.set("fleet.brownout_sheds", first.brownout_sheds as f64);
    report.set("trace.overhead_frac", traced_t.scaled / run_s - 1.0);
    report.set("gpu-sim.events", rungs.events as f64 / n);
    report.set("gpu-sim.kernels", rungs.kernels as f64 / n);
    report.set("glp4nn.plan_captures.setup", rungs.setup_captures as f64);
    report.set("glp4nn.plan_captures.steady", rungs.steady_captures as f64);
    report.sim("gpu-sim.events", rungs.events);
    report.sim("gpu-sim.kernels", rungs.kernels);
    if rungs.waves_matched {
        report.set(
            "serve.run_wave_us",
            median(&rungs.run_wave_s).unwrap_or(0.0) * 1e6,
        );
        match tail(&rungs.run_wave_s) {
            Some(t) => {
                report.set("serve.run_wave_tail_us", t.value * 1e6);
                report.set("serve.run_wave_tail_pct", t.pct);
                println!(
                    "# run_wave host time: p{} {:.2} us over {} waves",
                    t.pct,
                    t.value * 1e6,
                    t.samples
                );
            }
            None => {
                report.set("serve.run_wave_tail_us", 0.0);
                report.set("serve.run_wave_tail_pct", 0.0);
            }
        }
        report.set("fleet.self_s", raw_run_s - wave_total);
    } else {
        println!("# serve rung unmatched: re-driven waves end at other simulated times");
        for name in [
            "serve.run_wave_us",
            "serve.run_wave_tail_us",
            "serve.run_wave_tail_pct",
            "fleet.self_s",
        ] {
            report.unmatched(name);
        }
    }
    if rungs.waves_matched && rungs.replay_matched {
        report.set("gpu-sim.busy_s", rungs.replay_s);
        report.set(
            "gpu-sim.ns_per_event",
            rungs.replay_s * 1e9 / rungs.events.max(1) as f64,
        );
        report.set("nn.self_s", wave_total - rungs.replay_s);
    } else {
        println!("# gpu-sim rung unmatched: replayed waves end at other simulated times");
        for name in ["gpu-sim.busy_s", "gpu-sim.ns_per_event", "nn.self_s"] {
            report.unmatched(name);
        }
    }
    report
}
