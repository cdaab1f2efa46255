//! Metric catalogue, run outcome and the JSON result line.
//!
//! The metric names and units here must equal `BENCHMARK.json` at the
//! repository root (a unit test compares them). An untraced run prints
//! every end-to-end metric and a traced run every per-layer metric; a
//! workload that does not exercise a layer prints that layer's metrics
//! as 0. A rung (a re-drive of one lower layer on the work the run
//! recorded) that does not reproduce the workload's simulated result
//! prints as `null` with `"unmatched": true`, never as a number.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics of an untraced run: what a user of the system sees.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("images_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Metrics of a traced run, one group per layer.
pub const PER_LAYER: &[Metric] = &[
    m("sim.iter_ms", "ms"),
    m("sim.p50_ms", "ms"),
    m("sim.p99_ms", "ms"),
    m("sim.latency_samples", "count"),
    m("sim.slo_attainment", "ratio"),
    m("gpu-sim.events", "count"),
    m("gpu-sim.kernels", "count"),
    m("gpu-sim.busy_s", "s"),
    m("gpu-sim.ns_per_event", "ns"),
    m("gpu-sim.sm_util", "ratio"),
    m("gpu-sim.fabric.copies", "count"),
    m("gpu-sim.fabric.dp_step_ms_w2", "ms"),
    m("glp4nn.plan_captures.setup", "count"),
    m("glp4nn.plan_captures.steady", "count"),
    m("glp4nn.plan_hit_ratio", "ratio"),
    m("glp4nn.profile_s", "s"),
    m("glp4nn.capture_s", "s"),
    m("glp4nn.streams.conv1", "count"),
    m("glp4nn.streams.conv2", "count"),
    m("glp4nn.streams.conv3", "count"),
    m("glp4nn.streams.conv4", "count"),
    m("glp4nn.streams.conv5", "count"),
    m("milp.solves", "count"),
    m("milp.solve_s", "s"),
    m("cupti-sim.records", "count"),
    m("cupti-sim.process_s", "s"),
    m("nn.dispatches", "count"),
    m("nn.self_s", "s"),
    m("nn.CaffeNet.conv1.bwd_host_ms", "ms"),
    m("nn.CaffeNet.conv2.bwd_host_ms", "ms"),
    m("nn.CaffeNet.conv3.bwd_host_ms", "ms"),
    m("nn.CaffeNet.conv4.bwd_host_ms", "ms"),
    m("nn.CaffeNet.conv5.bwd_host_ms", "ms"),
    m("nn.CaffeNet.conv1.sim_ms", "ms"),
    m("nn.CaffeNet.conv2.sim_ms", "ms"),
    m("nn.CaffeNet.conv3.sim_ms", "ms"),
    m("nn.CaffeNet.conv4.sim_ms", "ms"),
    m("nn.CaffeNet.conv5.sim_ms", "ms"),
    m("nn.CIFAR10.conv1.bwd_host_ms", "ms"),
    m("nn.CIFAR10.conv2.bwd_host_ms", "ms"),
    m("nn.CIFAR10.conv3.bwd_host_ms", "ms"),
    m("nn.CIFAR10.conv1.sim_ms", "ms"),
    m("nn.CIFAR10.conv2.sim_ms", "ms"),
    m("nn.CIFAR10.conv3.sim_ms", "ms"),
    m("nn.dp_step_ms", "ms"),
    m("tensor.gflop_per_iter", "GFLOP"),
    m("tensor.busy_s", "s"),
    m("tensor.sgemm_gflops", "GFLOP/s"),
    m("collective.comm_sim_ms", "ms"),
    m("collective.exposed_comm_sim_ms", "ms"),
    m("sanitizer.diagnostics", "count"),
    m("sanitizer.busy_s", "s"),
    m("serve.waves", "count"),
    m("serve.fill_ratio", "ratio"),
    m("serve.run_wave_us", "us"),
    m("serve.run_wave_tail_us", "us"),
    m("serve.run_wave_tail_pct", "pct"),
    m("fleet.self_s", "s"),
    m("fleet.shed", "count"),
    m("fleet.expired", "count"),
    m("fleet.brownout_sheds", "count"),
    m("trace.overhead_frac", "ratio"),
];

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A metric's value in one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A measured or counted number.
    Num(f64),
    /// A rung that did not reproduce the workload's simulated result.
    Unmatched,
}

/// Everything one run reports: operations attempted and failed, failed
/// output checks, metric values, and the simulated statistics the
/// determinism guard compares exactly.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (iterations, steps or offered requests).
    pub attempted: u64,
    /// Operations that failed their output check or were refused.
    pub failed: u64,
    /// Failed checks, one line each; any entry makes the run incorrect.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, Value>,
    /// Simulated statistics and counts, rendered exactly (`{:?}`), keyed
    /// by name. Two runs of one seed and source must agree on every entry.
    pub sim: BTreeMap<String, String>,
    /// The simulated statistics do not depend on the seed, so runs of
    /// every seed must agree on them.
    pub seed_invariant: bool,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, Value::Num(v));
    }

    /// Record a rung that did not reproduce the workload's result.
    pub fn unmatched(&mut self, name: &'static str) {
        self.metrics.insert(name, Value::Unmatched);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.metrics.get(name).copied()
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problems.push(msg());
        }
        ok
    }

    /// Record a simulated statistic for the determinism guard.
    pub fn sim(&mut self, name: &str, v: impl std::fmt::Debug) {
        self.sim.insert(name.to_string(), format!("{v:?}"));
    }

    /// Failed over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Render the result line for the metrics in `list`. Fails when a
    /// listed metric is missing, an unlisted one was recorded, or a value
    /// is not finite: each is a bug in the workload code.
    pub fn render(&self, list: &[Metric]) -> Result<String, String> {
        for name in self.metrics.keys() {
            if !list.iter().any(|m| m.name == *name) {
                return Err(format!("metric {name} is not in this run's list"));
            }
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, metric) in list.iter().enumerate() {
            if !valid_name(metric.name) || !valid_unit(metric.unit) {
                return Err(format!("invalid metric {} [{}]", metric.name, metric.unit));
            }
            let sep = if i == 0 { "" } else { ", " };
            let value = match self.metrics.get(metric.name) {
                Some(Value::Num(v)) if v.is_finite() => format!("{v}"),
                Some(Value::Num(v)) => return Err(format!("{}: non-finite {v}", metric.name)),
                Some(Value::Unmatched) => "null, \"unmatched\": true".to_string(),
                None => return Err(format!("metric {} was not recorded", metric.name)),
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        out.push_str("}, \"sim\": {");
        for (i, (k, v)) in self.sim.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": \"{v}\"");
        }
        let _ = write!(
            out,
            "}}, \"seed_invariant\": {}, \"fail_frac\": {}, \"problems\": [",
            self.seed_invariant,
            self.fail_frac()
        );
        for (i, p) in self.problems.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\"", p.replace(['"', '\\'], "'"));
        }
        out.push_str("]}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("gpu-sim.fabric.copies"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("GFLOP/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    /// The catalogue must equal `BENCHMARK.json`, in order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split("{\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = entry[..entry.find('"').expect("name ends")].to_string();
                    let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
                    (name, unit[..unit.find('"').expect("unit ends")].to_string())
                })
                .collect()
        };
        let own = |list: &[Metric]| -> Vec<(String, String)> {
            list.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn fail_frac_counts_failed_over_attempted() {
        let mut r = Report::default();
        assert_eq!(r.fail_frac(), 1.0, "nothing attempted counts as failure");
        assert!(!r.correct());
        r.attempted = 200;
        assert_eq!(r.fail_frac(), 0.0);
        assert!(r.correct());
        r.failed = 3;
        assert_eq!(r.fail_frac(), 0.015);
        assert!(!r.correct(), "a refused or failed operation fails the run");
        r.failed = 0;
        r.check(false, || "weights differ".into());
        assert!(!r.correct(), "a failed output check fails the run");
    }

    #[test]
    fn render_requires_exactly_the_listed_metrics() {
        let list = &[m("a_s", "s"), m("b", "count")];
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.set("a_s", 0.25);
        assert!(r.render(list).unwrap_err().contains("b was not recorded"));
        r.unmatched("b");
        let line = r.render(list).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"b\": {\"value\": null, \"unmatched\": true, \"unit\": \"count\"}"));
        r.set("c", 1.0);
        assert!(r.render(list).is_err(), "unlisted metric");
        let mut r2 = Report::default();
        r2.set("a_s", f64::NAN);
        r2.set("b", 1.0);
        assert!(r2.render(list).is_err(), "non-finite value");
    }
}
