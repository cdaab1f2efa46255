//! The repository benchmark: one workload per invocation.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints `#`-prefixed notes, then one JSON line: `correct`, `attempted`,
//! `failed`, `metrics` (end-to-end when untraced, per-layer when traced),
//! plus `sim` (the simulated statistics the determinism guard compares),
//! `fail_frac` and `problems`. `perfbench/run.py` builds this binary, runs
//! it, checks `sim` against earlier runs of the same seed and source, and
//! prints the result line. See `perfbench/README.md`.

mod calib;
mod dp;
mod report;
mod rung;
mod serving;
mod stats;
mod train;

use report::{Report, Value, END_TO_END, PER_LAYER};

/// Options every workload takes.
pub struct Opts {
    /// Workload seed: model parameters, data and arrivals derive from it.
    pub seed: u64,
    /// Host seconds a measured phase takes on the reference host.
    pub seconds: f64,
    /// Traced run: per-layer spans, counts and rungs.
    pub trace: bool,
}

impl Opts {
    /// Units of work (iterations, steps, repetitions) for a measured phase
    /// whose unit costs `nominal_s` host seconds on the reference 2-core
    /// host: `seconds / nominal_s`, at least 3. The count depends only on
    /// `--seconds`, so every run, on any host and any commit, measures the
    /// same work and reaches the same peak memory.
    pub fn units(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(3)
    }
}

/// A workload: runs its phases and returns what it measured.
type Workload = fn(&Opts) -> Report;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[(&str, Workload)] = &[
    ("train-caffenet", train::caffenet),
    ("train-cifar10-f32", train::cifar10_f32),
    ("train-dp4-nvlink", dp::dp4),
    ("serve-fleet-hetero12", serving::fleet),
];

/// Peak resident set of this process so far (`VmHWM`), MB. Workloads read
/// it right after their measured phase, before the extra set-ups and
/// output checks that follow it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok((
        workload,
        Opts {
            seed,
            seconds,
            trace,
        },
    ))
}

fn main() {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "perfbench: unknown workload {workload}; one of {}",
            names.join(", ")
        );
        std::process::exit(2);
    };
    let mut report = run(&opts);
    let list = if opts.trace {
        // Layers this workload does not exercise read 0.
        for m in PER_LAYER {
            if report.get(m.name).is_none() {
                report.set(m.name, 0.0);
            }
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    for m in list {
        if let Some(Value::Num(v)) = report.get(m.name) {
            println!("# {:<34} {v:>16.6} {}", m.name, m.unit);
        }
    }
    for p in &report.problems {
        println!("# check failed: {p}");
    }
    match report.render(list) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(3);
        }
    }
}
