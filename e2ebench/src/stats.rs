//! Percentile helpers for latency samples.
//!
//! Timings are reported as a median plus the highest percentile the
//! sample supports: one that still has at least [`MIN_BEYOND`] samples
//! beyond it, so the tail value is never a single outlier.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder tails are chosen from (fixed rungs, so the
/// meaning of a tail metric does not drift with the sample count).
pub const LADDER: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending-sorted slice (mean of the middle pair for even
/// lengths). Returns 0 for an empty slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of values in any order.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// The highest rung of [`LADDER`], no higher than `wanted`, that leaves at
/// least [`MIN_BEYOND`] of `n` samples beyond it. Falls back to the
/// median (rung 50) when no higher rung is supported.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= wanted && (p == 50.0 || beyond(n, p) >= MIN_BEYOND))
        .unwrap_or(50.0)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - (((p / 100.0) * n as f64).ceil() as usize).min(n)
}

/// One latency class summarised.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// The [`LADDER`] rungs above the median that the sample supports,
    /// ascending, each with its value.
    pub tails: Vec<(f64, f64)>,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// The highest supported rung no higher than `wanted`, and its value
    /// (the median when no higher rung is supported).
    pub fn at(&self, wanted: f64) -> (f64, f64) {
        self.tails.iter().rev().copied().find(|(p, _)| *p <= wanted).unwrap_or((50.0, self.p50))
    }
}

/// Summarises `samples` (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Summary {
        n,
        min: sorted.first().copied().unwrap_or(0.0),
        p50: median_sorted(&sorted),
        tails: LADDER
            .iter()
            .filter(|&&p| p > 50.0 && supported_percentile(n, p) == p)
            .map(|&p| (p, percentile_sorted(&sorted, p)))
            .collect(),
        max: sorted.last().copied().unwrap_or(0.0),
        mean: if n == 0 { 0.0 } else { sorted.iter().sum::<f64>() / n as f64 },
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance driver computes spreads with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // statistics.quantiles, method="exclusive": position i*(n+1)/4,
        // clamped to an interior pair and interpolated (or extrapolated,
        // for tiny n) exactly as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), median_sorted(&sorted), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median_sorted(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median_sorted(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_sorted(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 95.0);
        assert_eq!(supported_percentile(200, 99.0), 95.0);
        assert_eq!(supported_percentile(199, 99.0), 90.0);
        assert_eq!(supported_percentile(100, 99.0), 90.0);
        assert_eq!(supported_percentile(99, 99.0), 50.0);
    }

    #[test]
    fn tail_never_exceeds_the_wanted_rung() {
        assert_eq!(supported_percentile(100_000, 95.0), 95.0);
        assert_eq!(supported_percentile(100_000, 50.0), 50.0);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.min, s.p50, s.at(99.0), s.max), (3, 1.0, 2.0, (50.0, 2.0), 3.0));
        let empty = summarize(&[]);
        assert_eq!((empty.n, empty.p50, empty.at(99.0)), (0, 0.0, (50.0, 0.0)));
    }

    #[test]
    fn summarize_picks_nearest_rank_tails() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.tails, [(90.0, 900.0), (95.0, 950.0), (99.0, 990.0)]);
        assert_eq!(
            (s.at(99.0), s.at(95.0), s.at(50.0)),
            ((99.0, 990.0), (95.0, 950.0), (50.0, 500.5))
        );
        assert_eq!(s.p50, 500.5);
        // 150 samples support p90 only: a wanted p99 falls back to it.
        assert_eq!(summarize(&samples[..150]).at(99.0), (90.0, 135.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 2.0, 4.0)));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), Some((0.0, 3.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
