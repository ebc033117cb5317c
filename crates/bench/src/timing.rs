//! Wall-clock measurement helpers for the recorded benchmark binaries.

use std::time::{Duration, Instant};

/// Times one invocation of `f`, returning (result, elapsed).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times `f` over `iters` invocations and returns the mean duration.
pub fn time_mean(iters: usize, mut f: impl FnMut()) -> Duration {
    assert!(iters > 0);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}µs", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_result() {
        let (v, d) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn formats() {
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_micros(5)).ends_with("µs"));
    }
}
