//! Order statistics for host-time samples.
//!
//! A timing is reported as a median plus the highest percentile that has
//! at least [`MIN_BEYOND`] samples beyond it, together with the sample
//! count; with too few samples no tail percentile is reported at all.

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, in basis points, highest first.
const LADDER_BP: [u32; 4] = [9_999, 9_990, 9_900, 9_000];

/// Median of `xs` (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of percentile `bp` (basis points) among `n`
/// samples: `ceil(n · bp / 10000)`, at least 1.
fn nearest_rank(n: usize, bp: u32) -> usize {
    (n * bp as usize).div_ceil(10_000).max(1)
}

/// The highest ladder percentile (in basis points) that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its nearest rank.
fn tail_percentile_bp(n: usize) -> Option<u32> {
    LADDER_BP
        .iter()
        .copied()
        .find(|&bp| n - nearest_rank(n, bp) >= MIN_BEYOND)
}

/// A tail percentile chosen by [`tail_percentile_bp`]: which percentile,
/// its nearest-rank value, and the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. `99.9`.
    pub pct: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The reportable tail of `xs`, or `None` when too few samples exist.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let bp = tail_percentile_bp(xs.len())?;
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Tail {
        pct: f64::from(bp) / 100.0,
        value: s[nearest_rank(s.len(), bp) - 1],
        samples: s.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn no_tail_below_ten_samples_beyond_p90() {
        // p90 of 100 samples is rank 90: exactly 10 beyond.
        assert_eq!(tail_percentile_bp(99), None);
        assert_eq!(tail_percentile_bp(100), Some(9_000));
    }

    #[test]
    fn tail_climbs_the_ladder_with_sample_count() {
        assert_eq!(tail_percentile_bp(999), Some(9_000));
        assert_eq!(tail_percentile_bp(1_000), Some(9_900));
        assert_eq!(tail_percentile_bp(10_000), Some(9_990));
        assert_eq!(tail_percentile_bp(100_000), Some(9_999));
    }

    #[test]
    fn every_chosen_tail_leaves_ten_samples_beyond() {
        for n in [100, 101, 250, 1_000, 1_001, 9_999, 10_000, 54_321] {
            let bp = tail_percentile_bp(n).expect("n >= 100 always has a tail");
            assert!(n - nearest_rank(n, bp) >= MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn tail_reports_value_and_sample_count() {
        let xs: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let t = tail(&xs).expect("1000 samples have a p99");
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1_000);
        assert!(tail(&xs[..50]).is_none());
    }
}
