//! The fleet event loop: one simulated clock driving N replicas.
//!
//! The loop processes four event kinds in deterministic order — wave
//! completions, request arrivals, delay-trigger wakeups, controller
//! ticks — always at the globally earliest timestamp, with fixed
//! tie-breaks (completions before arrivals before wakeups before ticks;
//! lowest slot / lowest request id within a kind). Everything downstream
//! (routing, brownout, autoscaling) reads state produced by this
//! ordering, so two runs of the same [`FleetConfig`] are identical.

use crate::config::FleetConfig;
use crate::replica::Replica;
use crate::report::{ClassReport, FleetReport};
use crate::router::{inflight_gauge, queue_depth_gauge, Router};
use gpu_sim::{Fabric, SimTime};
use nn::models::UnknownModelError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sanitizer::{SanitizeMode, Sanitizer};
use serve::{
    Admission, BatchDecision, ClassQueue, ClassedRequest, EngineOptions, PoissonArrivals,
    ServeConfig, ServingEngine,
};
use telemetry::{MetricsRegistry, SharedRecorder, FLEET_PID};

/// Ticks without an SLO violation before the brownout controller
/// re-admits a previously shed class.
const BROWNOUT_RECOVER_TICKS: u32 = 3;

/// Per-class outcome accumulators.
#[derive(Debug, Clone, Default)]
struct ClassOutcome {
    offered: usize,
    completed: usize,
    attained: usize,
    shed: usize,
    expired: usize,
    latency: telemetry::Histogram,
    /// Latencies observed since the last controller tick (brownout
    /// window).
    window: Vec<u64>,
}

/// A multi-replica serving fleet on one simulated clock.
///
/// Build with [`FleetSim::new`] (spawns and warms the initial
/// replicas), optionally attach telemetry, then [`run`](FleetSim::run)
/// once to completion.
pub struct FleetSim {
    cfg: FleetConfig,
    router: Router,
    /// Live fleet metrics — the gauges the router reads, plus counters.
    /// Always on (cheap), independent of trace recording.
    metrics: MetricsRegistry,
    recorder: Option<SharedRecorder>,
    /// One entry per fabric slot; `None` until the slot is spawned.
    replicas: Vec<Option<Replica>>,
    /// Per-slot relative capacity (peak FLOPs of the slot's model).
    weights: Vec<f64>,
    /// Cached gauge names per slot (hot path).
    gauge_names: Vec<(String, String)>,
    outcomes: Vec<ClassOutcome>,
    /// Brownout state: only classes `< admit_classes` are admitted.
    admit_classes: usize,
    clean_ticks: u32,
    brownout_sheds: usize,
    up_streak: u32,
    down_streak: u32,
    scale_ups: usize,
    scale_downs: usize,
    peak_active: usize,
    warmup_total_ns: SimTime,
    total_waves: usize,
    total_wave_requests: usize,
    last_done_ns: SimTime,
    /// Cross-device sanitizer (active when the engines sanitize).
    cross_sanitizer: Option<Sanitizer>,
    /// Measurement origin: all initial replicas warm by this time.
    t0: SimTime,
}

impl FleetSim {
    /// Build the fleet: spawn the initial replicas (warmup runs now, on
    /// each replica's own device clock) and set the measurement origin
    /// to the latest warmup completion.
    pub fn new(cfg: FleetConfig) -> Result<Self, UnknownModelError> {
        let slots = cfg.num_slots();
        let weights: Vec<f64> = (0..slots).map(|i| cfg.fabric.slot_peak_flops(i)).collect();
        let gauge_names: Vec<(String, String)> = (0..slots)
            .map(|i| (queue_depth_gauge(i), inflight_gauge(i)))
            .collect();
        let cross_sanitizer = cfg.engine.sanitize.map(Sanitizer::new);
        let mut sim = FleetSim {
            router: Router::new(cfg.router),
            metrics: MetricsRegistry::new(),
            recorder: None,
            replicas: (0..slots).map(|_| None).collect(),
            weights,
            gauge_names,
            outcomes: vec![ClassOutcome::default(); cfg.mix.num_classes()],
            admit_classes: cfg.mix.num_classes(),
            clean_ticks: 0,
            brownout_sheds: 0,
            up_streak: 0,
            down_streak: 0,
            scale_ups: 0,
            scale_downs: 0,
            peak_active: 0,
            warmup_total_ns: 0,
            total_waves: 0,
            total_wave_requests: 0,
            last_done_ns: 0,
            cross_sanitizer,
            t0: 0,
            cfg,
        };
        for slot in 0..sim.cfg.initial_replicas() {
            let r = sim.spawn_replica(slot)?;
            sim.t0 = sim.t0.max(r.warmup_ns);
            sim.replicas[slot] = Some(r);
            sim.publish_gauges(slot);
        }
        sim.last_done_ns = sim.t0;
        sim.peak_active = sim.cfg.initial_replicas();
        Ok(sim)
    }

    /// Build (but do not install) a replica for `slot`: engine plus
    /// warmup. The fresh device's clock equals the warmup duration when
    /// this returns — the plan-capture cost charged to the spawner.
    fn spawn_replica(&self, slot: usize) -> Result<Replica, UnknownModelError> {
        let serve_cfg = ServeConfig {
            device: self.cfg.fabric.slot(slot).clone(),
            mode: self.cfg.mode,
            model: self.cfg.model.clone(),
            rate_rps: self.cfg.rate_rps,
            num_requests: self.cfg.num_requests,
            policy: self.cfg.policy,
            queue_capacity: self.cfg.queue_capacity,
            seed: self.cfg.seed,
        };
        // The cross-device check replays every replica's command log, so
        // a full-mode replica only checks its plans.
        let opts = EngineOptions {
            timing_only: self.cfg.engine.timing_only,
            sanitize: self.cfg.engine.sanitize.map(SanitizeMode::without_replay),
        };
        let mut engine = ServingEngine::new_with(&serve_cfg, opts)?;
        engine.warmup(self.cfg.policy.max_batch);
        if let Some(rec) = &self.recorder {
            engine.set_telemetry_as(std::sync::Arc::clone(rec), replica_pid(slot));
        }
        let warmup_ns = engine.now();
        Ok(Replica {
            slot,
            engine,
            queue: ClassQueue::new(self.cfg.mix.num_classes(), self.cfg.queue_capacity),
            inflight: Vec::new(),
            busy: false,
            busy_until: 0,
            wake_at: None,
            active: true,
            draining: false,
            waves: 0,
            served: 0,
            warmup_ns,
        })
    }

    /// Attach a shared trace recorder: each replica's device records
    /// kernel spans under its own pid ([`replica_pid`]), the fleet
    /// records wave spans there too, and control events (routing
    /// brownout, scaling) land under [`FLEET_PID`].
    pub fn set_telemetry(&mut self, rec: SharedRecorder) {
        for r in self.replicas.iter_mut().flatten() {
            r.engine
                .set_telemetry_as(std::sync::Arc::clone(&rec), replica_pid(r.slot));
        }
        self.recorder = Some(rec);
    }

    /// Name the fleet's processes/threads in an export target (call once
    /// before exporting a trace recorded through
    /// [`set_telemetry`](FleetSim::set_telemetry)).
    pub fn annotate_telemetry(&self, t: &mut telemetry::Telemetry) {
        t.set_process_name(FLEET_PID, "fleet");
        t.set_thread_name(FLEET_PID, 0, "control");
        for r in self.replicas.iter().flatten() {
            let pid = replica_pid(r.slot);
            t.set_process_name(
                pid,
                &format!("replica.{} ({})", r.slot, self.cfg.fabric.slot(r.slot).name),
            );
            t.set_thread_name(pid, 0, "waves");
        }
    }

    /// The fleet's live metrics registry (router gauges, counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The configuration this fleet runs.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    fn publish_gauges(&mut self, slot: usize) {
        let (queued, inflight) = match &self.replicas[slot] {
            Some(r) => (r.queue.len(), r.inflight.len()),
            None => (0, 0),
        };
        let (depth_name, inflight_name) = &self.gauge_names[slot];
        self.metrics.gauge_set(depth_name, queued as f64);
        self.metrics.gauge_set(inflight_name, inflight as f64);
    }

    fn instant(&mut self, name: &str, t: SimTime) {
        if let Some(rec) = &self.recorder {
            let mut guard = rec.lock().unwrap_or_else(|p| p.into_inner());
            guard.instant(FLEET_PID, 0, name, "fleet", t);
        }
    }

    /// Slots the router may currently target.
    fn active_slots(&self) -> Vec<usize> {
        self.replicas
            .iter()
            .flatten()
            .filter(|r| r.active)
            .map(|r| r.slot)
            .collect()
    }

    /// Generate the run's request trace: Poisson arrivals from the
    /// measurement origin, each tagged with a class drawn from the mix's
    /// shares and an absolute deadline.
    fn generate_requests(&self) -> Vec<ClassedRequest> {
        let mut base = match &self.cfg.load_phases {
            Some(phases) => {
                // Phases run back to back: each picks up the simulated
                // clock (and a fresh sub-seed) where the last left off.
                let mut all = Vec::new();
                let mut origin = self.t0;
                for (i, phase) in phases.iter().enumerate() {
                    let mut arrivals =
                        PoissonArrivals::new(phase.rate_rps, origin, self.cfg.seed ^ i as u64);
                    all.extend(arrivals.take(phase.num_requests));
                    origin = all
                        .last()
                        .map(|r: &serve::Request| r.arrival_ns)
                        .unwrap_or(origin);
                }
                all
            }
            None => PoissonArrivals::new(self.cfg.rate_rps, self.t0, self.cfg.seed)
                .take(self.cfg.num_requests),
        };
        for (i, r) in base.iter_mut().enumerate() {
            r.id = i as u64;
        }
        // Separate stream for class draws so arrival timing and class
        // assignment stay independently seeded.
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5DEE_CE66_D123_4567);
        base.iter()
            .map(|r| {
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                let mut class = self.cfg.mix.num_classes() - 1;
                for (i, c) in self.cfg.mix.classes.iter().enumerate() {
                    acc += c.share;
                    if u < acc {
                        class = i;
                        break;
                    }
                }
                let rel = self.cfg.mix.classes[class].deadline_ns;
                let deadline_ns = if rel == SimTime::MAX {
                    SimTime::MAX
                } else {
                    r.arrival_ns + rel
                };
                ClassedRequest {
                    id: r.id,
                    class,
                    arrival_ns: r.arrival_ns,
                    deadline_ns,
                }
            })
            .collect()
    }

    /// Try to close the next wave on `slot` at time `now`.
    fn maybe_dispatch(&mut self, slot: usize, now: SimTime, just_drained: bool) {
        let num_classes = self.cfg.mix.num_classes();
        let policy = self.cfg.policy;
        let r = self.replicas[slot]
            .as_mut()
            .expect("dispatch on empty slot");
        for dead in r.queue.expire(now) {
            debug_assert!(dead.class < num_classes);
            self.outcomes[dead.class].expired += 1;
        }
        let r = self.replicas[slot]
            .as_mut()
            .expect("dispatch on empty slot");
        let decision =
            policy.decide_continuous(now, r.queue.len(), r.queue.oldest_arrival(), just_drained);
        match decision {
            BatchDecision::Fire(k) => {
                let wave = r.queue.pop_wave(k);
                let ids: Vec<u64> = wave.iter().map(|q| q.id).collect();
                let timing = r.engine.run_wave(&ids, now);
                r.busy = true;
                r.busy_until = timing.done_ns;
                r.inflight = wave;
                r.wake_at = None;
                r.waves += 1;
                self.total_waves += 1;
                self.total_wave_requests += ids.len();
                self.metrics.counter_add("fleet.waves", 1);
                if let Some(rec) = &self.recorder {
                    let mut guard = rec.lock().unwrap_or_else(|p| p.into_inner());
                    guard.span(
                        replica_pid(slot),
                        0,
                        &format!("wave x{}", ids.len()),
                        "fleet",
                        timing.start_ns,
                        timing.done_ns,
                    );
                    guard.observe("fleet.wave_size", ids.len() as u64);
                }
            }
            BatchDecision::WaitUntil(deadline) => r.wake_at = Some(deadline),
            BatchDecision::Idle => r.wake_at = None,
        }
        self.publish_gauges(slot);
    }

    /// Retire `slot`'s wave at time `t`: account completions, then close
    /// the next wave immediately (work-conserving continuous batching).
    fn complete_wave(&mut self, slot: usize, t: SimTime) {
        let r = self.replicas[slot]
            .as_mut()
            .expect("completion on empty slot");
        r.busy = false;
        let wave = std::mem::take(&mut r.inflight);
        r.served += wave.len();
        if !wave.is_empty() {
            self.last_done_ns = self.last_done_ns.max(t);
            self.metrics
                .counter_add("fleet.completed", wave.len() as u64);
        }
        for req in &wave {
            let out = &mut self.outcomes[req.class];
            out.completed += 1;
            if t <= req.deadline_ns {
                out.attained += 1;
            }
            let latency = t - req.arrival_ns;
            out.latency.record(latency);
            out.window.push(latency);
        }
        self.maybe_dispatch(slot, t, true);
    }

    /// Route and admit one arrival.
    fn on_arrival(&mut self, req: ClassedRequest) {
        self.outcomes[req.class].offered += 1;
        if req.class >= self.admit_classes {
            // Brownout: the SLO controller is shedding this class.
            self.outcomes[req.class].shed += 1;
            self.brownout_sheds += 1;
            self.metrics.counter_add("fleet.brownout_shed", 1);
            return;
        }
        let active = self.active_slots();
        let slot = self.router.route(&active, &self.metrics, &self.weights);
        let now = req.arrival_ns;
        let r = self.replicas[slot].as_mut().expect("routed to empty slot");
        match r.queue.admit(req) {
            Admission::Admitted => {}
            Admission::Preempted(victim) => {
                self.outcomes[victim.class].shed += 1;
                self.metrics.counter_add("fleet.preempted", 1);
            }
            Admission::Shed(back) => {
                self.outcomes[back.class].shed += 1;
                self.metrics.counter_add("fleet.shed", 1);
            }
        }
        self.publish_gauges(slot);
        let busy = self.replicas[slot].as_ref().map(|r| r.busy).unwrap_or(true);
        if !busy {
            self.maybe_dispatch(slot, now, false);
        }
    }

    /// Brownout controller: compare each admitted class's windowed p99
    /// against its deadline; shed the lowest-priority lane on violation,
    /// restore one lane after [`BROWNOUT_RECOVER_TICKS`] clean ticks.
    fn brownout_tick(&mut self, t: SimTime) {
        let mut violated = false;
        for (c, spec) in self.cfg.mix.classes.iter().enumerate() {
            if c >= self.admit_classes || spec.deadline_ns == SimTime::MAX {
                continue;
            }
            let window = &mut self.outcomes[c].window;
            if window.is_empty() {
                continue;
            }
            window.sort_unstable();
            let p99 = telemetry::percentile_of_sorted(window, 99.0);
            if p99 > spec.deadline_ns {
                violated = true;
            }
        }
        for out in &mut self.outcomes {
            out.window.clear();
        }
        if violated {
            self.clean_ticks = 0;
            if self.admit_classes > 1 {
                self.admit_classes -= 1;
                self.metrics.counter_add("fleet.brownout_steps", 1);
                self.instant(&format!("brownout:shed-class{}", self.admit_classes), t);
            }
        } else {
            self.clean_ticks += 1;
            if self.clean_ticks >= BROWNOUT_RECOVER_TICKS
                && self.admit_classes < self.cfg.mix.num_classes()
            {
                self.instant(&format!("brownout:restore-class{}", self.admit_classes), t);
                self.admit_classes += 1;
                self.clean_ticks = 0;
            }
        }
    }

    /// Queue-depth autoscaler with hysteresis.
    fn autoscale_tick(&mut self, t: SimTime) {
        let Some(auto) = self.cfg.autoscale else {
            return;
        };
        let active = self.active_slots();
        let mean_depth = active
            .iter()
            .map(|&s| self.replicas[s].as_ref().map_or(0, Replica::load))
            .sum::<usize>() as f64
            / active.len().max(1) as f64;
        self.metrics.gauge_set("fleet.mean_depth", mean_depth);
        if mean_depth > auto.high_watermark {
            self.up_streak += 1;
            self.down_streak = 0;
        } else if mean_depth < auto.low_watermark {
            self.down_streak += 1;
            self.up_streak = 0;
        } else {
            self.up_streak = 0;
            self.down_streak = 0;
        }
        let max = auto.max_replicas.min(self.cfg.num_slots());
        if self.up_streak >= auto.up_after && active.len() < max {
            self.up_streak = 0;
            self.scale_up(t);
        }
        if self.down_streak >= auto.down_after && active.len() > auto.min_replicas {
            self.down_streak = 0;
            self.scale_down(t);
        }
        let now_active = self.active_slots().len();
        self.peak_active = self.peak_active.max(now_active);
        self.metrics
            .gauge_set("fleet.active_replicas", now_active as f64);
    }

    fn scale_up(&mut self, t: SimTime) {
        // Prefer re-activating a drained (still warm) replica — its
        // plans are cached, so the restart is free. Otherwise spawn a
        // fresh one and charge the warmup (plan capture) now.
        if let Some(r) = self.replicas.iter_mut().flatten().find(|r| !r.active) {
            r.active = true;
            r.draining = false;
            let slot = r.slot;
            self.scale_ups += 1;
            self.metrics.counter_add("fleet.scale_ups", 1);
            self.instant(&format!("scale-up:reuse-slot{slot}"), t);
            return;
        }
        let Some(slot) = self.replicas.iter().position(Option::is_none) else {
            return;
        };
        let mut replica = self
            .spawn_replica(slot)
            .expect("model resolved at construction");
        let warmup = replica.warmup_ns;
        // The new replica is busy capturing plans until t + warmup.
        replica.busy = true;
        replica.busy_until = t + warmup;
        self.warmup_total_ns += warmup;
        self.replicas[slot] = Some(replica);
        self.publish_gauges(slot);
        self.scale_ups += 1;
        self.metrics.counter_add("fleet.scale_ups", 1);
        self.instant(&format!("scale-up:spawn-slot{slot}"), t);
        if let Some(rec) = &self.recorder {
            let mut guard = rec.lock().unwrap_or_else(|p| p.into_inner());
            guard.span(
                replica_pid(slot),
                0,
                "warmup (plan capture)",
                "fleet",
                t,
                t + warmup,
            );
        }
    }

    fn scale_down(&mut self, t: SimTime) {
        // Retire the highest-slot active replica: stop routing to it and
        // let it drain.
        let Some(slot) = self.active_slots().into_iter().max() else {
            return;
        };
        let r = self.replicas[slot].as_mut().expect("active slot exists");
        r.active = false;
        r.draining = true;
        self.scale_downs += 1;
        self.metrics.counter_add("fleet.scale_downs", 1);
        self.instant(&format!("scale-down:slot{slot}"), t);
    }

    /// Run the fleet to completion over the configured request trace and
    /// summarize. Consumes all simulated work: on return every queue is
    /// empty and every replica idle.
    pub fn run(&mut self) -> FleetReport {
        let requests = self.generate_requests();
        let first_arrival = requests.first().map(|r| r.arrival_ns).unwrap_or(self.t0);
        let mut next_arrival = 0usize;
        let mut next_tick = self.t0 + self.cfg.tick_ns;

        loop {
            let t_done = self
                .replicas
                .iter()
                .flatten()
                .filter(|r| r.busy)
                .map(|r| r.busy_until)
                .min();
            let t_arr = requests.get(next_arrival).map(|r| r.arrival_ns);
            let t_wake = self
                .replicas
                .iter()
                .flatten()
                .filter(|r| !r.busy)
                .filter_map(|r| r.wake_at)
                .min();
            if t_done.is_none() && t_arr.is_none() && t_wake.is_none() {
                debug_assert!(self.replicas.iter().flatten().all(Replica::is_quiescent));
                break;
            }
            let mut t = SimTime::MAX;
            for cand in [t_done, t_arr, t_wake, Some(next_tick)]
                .into_iter()
                .flatten()
            {
                t = t.min(cand);
            }

            // 1. Wave completions (lowest slot first).
            if t_done == Some(t) {
                for slot in 0..self.replicas.len() {
                    let due = self.replicas[slot]
                        .as_ref()
                        .is_some_and(|r| r.busy && r.busy_until == t);
                    if due {
                        self.complete_wave(slot, t);
                    }
                }
            }
            // 2. Arrivals (in id order).
            while next_arrival < requests.len() && requests[next_arrival].arrival_ns == t {
                self.on_arrival(requests[next_arrival]);
                next_arrival += 1;
            }
            // 3. Delay-trigger wakeups (lowest slot first).
            for slot in 0..self.replicas.len() {
                let due = self.replicas[slot]
                    .as_ref()
                    .is_some_and(|r| !r.busy && r.wake_at == Some(t));
                if due {
                    self.replicas[slot].as_mut().unwrap().wake_at = None;
                    self.maybe_dispatch(slot, t, false);
                }
            }
            // 4. Controller tick.
            if t == next_tick {
                self.brownout_tick(t);
                self.autoscale_tick(t);
                next_tick = t + self.cfg.tick_ns;
            }
        }

        self.finish_report(first_arrival)
    }

    fn finish_report(&mut self, first_arrival: SimTime) -> FleetReport {
        // Conservation: every offered request has exactly one fate.
        let offered: usize = self.outcomes.iter().map(|o| o.offered).sum();
        let completed: usize = self.outcomes.iter().map(|o| o.completed).sum();
        let shed: usize = self.outcomes.iter().map(|o| o.shed).sum();
        let expired: usize = self.outcomes.iter().map(|o| o.expired).sum();
        assert_eq!(
            completed + shed + expired,
            offered,
            "request conservation violated"
        );

        // Cross-device sanitize over every spawned replica's command log.
        let sanitizer_reports = self.run_sanitizers();

        let mut all_latency: Vec<u64> = Vec::with_capacity(completed);
        for o in &self.outcomes {
            all_latency.extend_from_slice(o.latency.values());
        }
        all_latency.sort_unstable();
        let pct = |p: f64| {
            if all_latency.is_empty() {
                0
            } else {
                telemetry::percentile_of_sorted(&all_latency, p)
            }
        };

        // SLO attainment over deadline-bearing classes: a request counts
        // as attained only if it completed within its deadline, so shed,
        // expired and late requests all count against.
        let (mut slo_offered, mut slo_attained) = (0usize, 0usize);
        let per_class: Vec<ClassReport> = self
            .cfg
            .mix
            .classes
            .iter()
            .zip(&self.outcomes)
            .map(|(spec, o)| {
                let has_deadline = spec.deadline_ns != SimTime::MAX;
                if has_deadline {
                    slo_offered += o.offered;
                    slo_attained += o.attained;
                }
                let mut sorted = o.latency.values().to_vec();
                sorted.sort_unstable();
                let cp = |p: f64| {
                    if sorted.is_empty() {
                        0
                    } else {
                        telemetry::percentile_of_sorted(&sorted, p)
                    }
                };
                ClassReport {
                    name: spec.name.clone(),
                    deadline_ns: spec.deadline_ns,
                    offered: o.offered,
                    completed: o.completed,
                    attained: o.attained,
                    shed: o.shed,
                    expired: o.expired,
                    p50_ns: cp(50.0),
                    p95_ns: cp(95.0),
                    p99_ns: cp(99.0),
                }
            })
            .collect();

        let makespan_ns = self.last_done_ns.saturating_sub(first_arrival);
        let throughput_rps = if makespan_ns == 0 {
            0.0
        } else {
            completed as f64 * 1e9 / makespan_ns as f64
        };
        FleetReport {
            policy: self.cfg.router.name().to_string(),
            fabric: self.cfg.fabric.name.clone(),
            mix: self.cfg.mix.name.clone(),
            replicas: self.cfg.initial_replicas(),
            peak_replicas: self.peak_active,
            offered,
            completed,
            shed,
            expired,
            brownout_sheds: self.brownout_sheds,
            waves: self.total_waves,
            mean_wave: if self.total_waves == 0 {
                0.0
            } else {
                self.total_wave_requests as f64 / self.total_waves as f64
            },
            makespan_ns,
            throughput_rps,
            p50_ns: pct(50.0),
            p95_ns: pct(95.0),
            p99_ns: pct(99.0),
            slo_attainment: if slo_offered == 0 {
                1.0
            } else {
                slo_attained as f64 / slo_offered as f64
            },
            shed_rate: if offered == 0 {
                0.0
            } else {
                (shed + expired) as f64 / offered as f64
            },
            per_class,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            warmup_total_ns: self.warmup_total_ns,
            sanitizer_reports,
        }
    }

    /// Collect per-engine sanitizer diagnostics and run the cross-device
    /// check over the fabric; returns the total report count (zero on a
    /// clean run, or when sanitizing is off).
    fn run_sanitizers(&mut self) -> usize {
        let mut total = 0usize;
        for r in self.replicas.iter().flatten() {
            total += r.engine.sanitizer().reports().len();
        }
        if let Some(sani) = &mut self.cross_sanitizer {
            let devices: Vec<&gpu_sim::Device> = self
                .replicas
                .iter()
                .flatten()
                .map(|r| r.engine.device())
                .collect();
            // The fleet never issues P2P copies, but the cross-device
            // replay still validates every replica's command log under
            // the fabric's happens-before model.
            let fabric = if devices.len() == self.cfg.num_slots() {
                self.cfg.fabric.build_fabric()
            } else {
                Fabric::new(devices.len())
            };
            sani.check_fabric(&fabric, &devices);
            total += sani.reports().len();
        }
        total
    }
}

/// Chrome-trace pid of replica `slot` (see [`FLEET_PID`]).
pub fn replica_pid(slot: usize) -> u32 {
    FLEET_PID + 1 + slot as u32
}
