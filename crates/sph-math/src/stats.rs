//! Streaming statistics.
//!
//! The profiler's POP metrics and the scaling harness summarise per-rank
//! compute times (mean, max, imbalance), and the benchmark binaries report
//! means over repeated steps. Welford's algorithm keeps this numerically
//! stable in one pass.

/// One-pass mean/variance/min/max (Welford).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator); NaN for fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge two accumulators (parallel reduction; Chan et al.).
    pub fn merge(&self, other: &OnlineStats) -> OnlineStats {
        if self.n == 0 {
            return *other;
        }
        if other.n == 0 {
            return *self;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        OnlineStats { n, mean, m2, min: self.min.min(other.min), max: self.max.max(other.max) }
    }
}

/// Relative L2 error between two equal-length slices:
/// `‖a−b‖₂ / max(‖b‖₂, ε)`. Used by validation tests (IAD vs analytic
/// gradients, gravity vs direct summation).
pub fn relative_l2_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "relative_l2_error: length mismatch");
    // Validation-only path (never feeds a trajectory), so it gets the
    // compensated accumulator rather than a frozen-order suppression.
    let mut num = crate::KahanAccumulator::new();
    let mut den = crate::KahanAccumulator::new();
    for (&x, &y) in a.iter().zip(b) {
        num.add((x - y) * (x - y));
        den.add(y * y);
    }
    (num.total() / den.total().max(1e-300)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn empty_stats_are_nan() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
    }

    #[test]
    fn known_sequence() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!(approx_eq(s.mean(), 5.0, 1e-12));
        // Sample variance of this classic sequence is 32/7.
        assert!(approx_eq(s.variance(), 32.0 / 7.0, 1e-12));
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).cos()).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        let merged = a.merge(&b);
        assert!(approx_eq(merged.mean(), whole.mean(), 1e-12));
        assert!(approx_eq(merged.variance(), whole.variance(), 1e-10));
        assert_eq!(merged.count(), whole.count());
    }

    #[test]
    fn l2_error() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(relative_l2_error(&a, &a), 0.0);
        let b = [2.0, 2.0, 3.0];
        assert!(relative_l2_error(&b, &a) > 0.0);
    }
}
