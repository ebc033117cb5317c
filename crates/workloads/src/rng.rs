//! Deterministic workload RNG.
//!
//! Wraps [`EnclaveRng`] (the workspace's only generator) with the
//! range-sampling surface the generators need. Workload data is public —
//! this is about reproducible datasets, not secrecy.

use std::ops::{Range, RangeInclusive};

use oblidb_enclave::EnclaveRng;

/// Seedable generator for workload synthesis.
pub(crate) struct StdRng {
    inner: EnclaveRng,
}

impl StdRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { inner: EnclaveRng::seed_from_u64(seed) }
    }

    /// Uniform sample from an integer or float range.
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(&mut self.inner)
    }
}

/// Ranges [`StdRng::random_range`] can sample `T` from. The output type is
/// a trait parameter (not an associated type) so integer-literal ranges
/// infer their width from the use site, as with `rand`.
pub(crate) trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample(self, rng: &mut EnclaveRng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut EnclaveRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut EnclaveRng) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    // Full-width range: every 64-bit pattern is in range.
                    return rng.next_u64() as $t;
                }
                (start as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(i64, u64, i32, usize);

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut EnclaveRng) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_respected() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let v: i64 = r.random_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let w = r.random_range(1..=3u64);
            assert!((1..=3).contains(&w));
            let f = r.random_range(0.0..10.0f64);
            assert!((0.0..10.0).contains(&f));
        }
    }

    #[test]
    fn full_width_inclusive_range_does_not_panic() {
        let mut r = StdRng::seed_from_u64(3);
        let _: u64 = r.random_range(0..=u64::MAX);
        let _: i64 = r.random_range(i64::MIN..=i64::MAX);
    }

    #[test]
    fn deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(a.random_range(0..1_000_000u64), b.random_range(0..1_000_000u64));
        }
    }
}
