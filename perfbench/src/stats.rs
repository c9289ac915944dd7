//! Summary statistics under the benchmark's reporting rules.
//!
//! - A timing is a median plus the highest percentile that still has at
//!   least [`TAIL_MIN_BEYOND`] samples beyond it, with the sample count.
//! - A ratio carries its numerator and denominator.

use std::fmt;

/// Samples a reported tail percentile must leave beyond itself.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest rank of percentile `p` among `n` samples (1-based; the
/// epsilon keeps products like 0.999 × 10000 from rounding up a rank).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest ladder percentile whose nearest-rank position leaves at
/// least [`TAIL_MIN_BEYOND`] samples beyond it; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| {
        let r = rank(p, n);
        n >= r && n - r >= TAIL_MIN_BEYOND
    })
}

/// A timing summary: median, reportable tail, sample count.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub n: usize,
    pub p50: f64,
    /// The 99th percentile as such, for metrics named after it; below
    /// 1000 samples it has fewer than 10 beyond it, and `tail` says so.
    pub p99: f64,
    /// `(percentile, value)`, when the sample count supports one.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Option<Timing> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Timing {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        })
    }

    /// Render with a unit, e.g. `p50 1.2 ms, p99 3.4 ms (n=1200)`.
    pub fn show(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.4} {unit}, p{p} {v:.4} {unit} (n={})",
                self.p50, self.n
            ),
            None => format!(
                "p50 {:.4} {unit} (n={}, too few samples for a tail)",
                self.p50, self.n
            ),
        }
    }
}

/// A ratio with its base.
#[derive(Debug, Clone, Copy)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// The value, or 0 over an empty base.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} ({} / {})", self.value(), self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_on_small_samples() {
        // Below 20 samples no percentile leaves 10 beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: the median (rank 10) leaves exactly 10.
        assert_eq!(tail_percentile(20), Some(50.0));
        // 40: p75 is rank 30, leaving 10.
        assert_eq!(tail_percentile(40), Some(75.0));
        // 100: p90 is rank 90; p95 would leave only 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        // 999: p99 is rank 990 leaving 9, so p98 it is.
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn timing_reports_the_rule_percentile() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Timing::of(&samples).unwrap();
        assert_eq!(t.n, 100);
        assert_eq!(t.p50, 50.0);
        assert_eq!(t.tail, Some((90.0, 90.0)));
        let few = Timing::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(few.p50, 2.0);
        assert_eq!(few.tail, None);
        assert_eq!(few.p99, 3.0);
        assert!(Timing::of(&[]).is_none());
    }

    #[test]
    fn nearest_rank_and_median() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.to_string(), "0.750000 (3 / 4)");
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
    }
}
