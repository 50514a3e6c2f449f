//! Streaming statistics.
//!
//! The checkpoint scheduler and the scaling model average measured step
//! and write times. Welford's update keeps the mean numerically stable in
//! one pass.

/// One-pass running mean (Welford).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0 }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
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
    }

    #[test]
    fn known_sequence() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!(approx_eq(s.mean(), 5.0, 1e-12));
        assert_eq!(s.count(), 8);
    }
}
