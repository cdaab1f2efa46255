//! Host-speed calibration.
//!
//! The reference host is a shared VM whose speed drifts by tens of
//! percent over minutes, as neighbours load it. A fixed reference loop
//! owned by the benchmark, timed right before and after each measured
//! part, tracks that drift for a single-threaded workload. A part's host
//! time, scaled by the loop's nominal over its measured time, reads about
//! the same whichever phase the host was in. The loop runs no program
//! code, so no change to the program can move it. A workload on every CPU
//! is measured in process CPU seconds instead.

use std::ops::Add;
use std::time::Instant;

/// Entries of the loop's table: 1 MiB, inside the shared cache. A table
/// beyond it made the loop itself four times as noisy (page walks).
const TABLE: usize = 1 << 17;
/// Loop trips per pass (about 20 ms on the reference host).
const TRIPS: usize = 1 << 21;
/// The unit scaled times are expressed in: seconds on a host where one
/// pass of the loop takes this long.
const NOMINAL_S: f64 = 0.02;

/// Host seconds of one measured part.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall seconds, as measured.
    pub raw: f64,
    /// Seconds with the host's drift taken out (see [`Calibration`]).
    pub scaled: f64,
}

impl Add for Timing {
    type Output = Timing;
    fn add(self, o: Timing) -> Timing {
        Timing {
            raw: self.raw + o.raw,
            scaled: self.scaled + o.scaled,
        }
    }
}

/// How a workload's host time is taken out of the host's drift.
pub enum Calibration {
    /// Scale by the benchmark's reference loop: xorshift integer work,
    /// data-dependent table reads and writes, a branch and a
    /// floating-point chain, the mix the simulator spends its time in.
    /// For single-threaded workloads.
    Loop(Vec<u64>),
    /// Count the process's CPU seconds (all threads) instead of wall
    /// seconds. For a workload that forks over every CPU: when a
    /// neighbour takes one CPU away, the other thread waits, and neither
    /// a reference loop nor wall time can tell how long. CPU time does
    /// not count that wait, so it also does not count a parallel speed-up.
    ProcessCpu,
}

fn reference_loop(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 1.0f64;
    for _ in 0..TRIPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (TABLE - 1);
        let v = table[j];
        table[j] = v.wrapping_add(x);
        if v & 1 == 0 {
            acc = acc * 1.000_000_1 + (v & 0xff) as f64 * 1e-9;
        } else {
            acc -= 1e-12;
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s, Linux's `USER_HZ`).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

impl Calibration {
    /// The reference loop, with its table allocated and touched (untimed).
    pub fn reference() -> Self {
        Calibration::Loop(
            (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect(),
        )
    }

    /// Time `f`: wall seconds, and the drift-free seconds this calibration
    /// gives (the wall time scaled by the loop's nominal over the mean of
    /// a pass before and after, or the process CPU seconds).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        match self {
            Calibration::Loop(table) => {
                let before = reference_loop(table);
                let start = Instant::now();
                let out = f();
                let raw = start.elapsed().as_secs_f64();
                let after = reference_loop(table);
                let scaled = raw * NOMINAL_S * 2.0 / (before + after);
                (out, Timing { raw, scaled })
            }
            Calibration::ProcessCpu => {
                let cpu = process_cpu_s();
                let start = Instant::now();
                let out = f();
                let raw = start.elapsed().as_secs_f64();
                let scaled = process_cpu_s() - cpu;
                (out, Timing { raw, scaled })
            }
        }
    }
}
