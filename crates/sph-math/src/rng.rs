//! Deterministic seed derivation.
//!
//! Every stochastic element of the reproduction (initial-condition jitter,
//! failure injection, SDC bit flips) draws its seed from a single master
//! seed through `SplitMix64`, so `--seed 42` regenerates the exact same
//! particle positions, failures and traces on every run — the
//! reproducibility requirement §4 of the paper calls out.

/// SplitMix64 PRNG (Steele, Lea & Flood 2014). Tiny state, passes BigCrush,
/// and is the canonical seed-stretcher for other generators.
#[derive(Debug, Clone, Copy)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits → [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in [lo, hi).
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in [0, n) (Lemire's method would be overkill here;
    /// modulo bias is negligible for our n ≪ 2⁶⁴ uses, but we reject to be
    /// exact anyway).
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        let threshold = n.wrapping_neg() % n;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return r % n;
            }
        }
    }

    /// Derive an independent child seed for subsystem `label`.
    ///
    /// The label is hashed (FNV-1a) into the stream so different subsystems
    /// with the same master seed get decorrelated sequences and adding a new
    /// subsystem never perturbs existing ones.
    pub fn derive(&self, label: &str) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut child = SplitMix64::new(self.state ^ h);
        child.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(12345);
        let mut b = SplitMix64::new(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let mut r = SplitMix64::new(9);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let x = r.uniform(-2.0, 4.0);
            assert!((-2.0..4.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.next_below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn derive_decorrelates_labels() {
        let master = SplitMix64::new(42);
        let s1 = master.derive("ic-jitter");
        let s2 = master.derive("failure-injection");
        let s3 = master.derive("ic-jitter");
        assert_ne!(s1, s2);
        assert_eq!(s1, s3, "derivation must be a pure function of (seed, label)");
    }
}
