//! Compensated and pairwise summation.
//!
//! Conservation diagnostics (total energy, momentum, angular momentum) and
//! the SDC "conservation drift" detector in `sph-ft` compare sums over up to
//! 10⁶ particles across time-steps; naive summation noise would mask the
//! signal, so reductions that feed diagnostics use Kahan or pairwise
//! summation.

/// Fixed chunk length for the workspace's chunked-map + ordered-reduce
/// parallel loops (density, forces, gravity, conservation sums, …). The
/// boundaries depend only on the input length — never on the thread count —
/// so chunk-folded partial results merge to bit-identical totals for any
/// `SPH_THREADS`. That determinism is what lets the sph-ft SDC detector
/// treat a conservation-sum mismatch as silent data corruption rather than
/// scheduling noise.
pub const REDUCE_CHUNK: usize = 256;

/// Kahan–Babuška–Neumaier compensated accumulator.
///
/// Unlike classic Kahan, the Neumaier update also captures the error when
/// the incoming term is *larger* than the running sum, and the compensation
/// is carried as explicit state added back in [`total`](Self::total). That
/// pairing is what makes [`merge`](Self::merge) exact enough for parallel
/// reductions: merging chunk accumulators combines both partial sums *and*
/// both compensations instead of re-rounding the compensation away (the
/// pre-fix merge lost it through two lossy `add` calls).
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanAccumulator {
    sum: f64,
    compensation: f64,
}

impl KahanAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term (Neumaier update).
    #[inline]
    pub fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - t) + value;
        } else {
            self.compensation += (value - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated total.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum + self.compensation
    }

    /// Merge another accumulator (the combining step of parallel chunked
    /// reductions): fold in the partial sum with full error tracking, then
    /// carry the partner's compensation verbatim.
    pub fn merge(&mut self, other: &KahanAccumulator) {
        self.add(other.sum);
        self.compensation += other.compensation;
    }
}

/// Kahan-compensated sum of a slice.
pub fn kahan_sum(values: &[f64]) -> f64 {
    let mut acc = KahanAccumulator::new();
    for &v in values {
        acc.add(v);
    }
    acc.total()
}

/// Recursive pairwise sum; O(log n) error growth, cache friendly.
pub fn pairwise_sum(values: &[f64]) -> f64 {
    const BASE: usize = 64;
    if values.len() <= BASE {
        // This base case is the leaf of the ordered reduce: the ≤64-term
        // sequential sum whose fixed order defines the pairwise
        // reduction.
        return values.iter().sum();
    }
    let mid = values.len() / 2;
    pairwise_sum(&values[..mid]) + pairwise_sum(&values[mid..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single() {
        assert_eq!(kahan_sum(&[]), 0.0);
        assert_eq!(pairwise_sum(&[]), 0.0);
        assert_eq!(kahan_sum(&[42.0]), 42.0);
        assert_eq!(pairwise_sum(&[42.0]), 42.0);
    }

    #[test]
    fn kahan_beats_naive_on_cancellation() {
        // 1 + many tiny values that naive summation drops entirely.
        let mut values = vec![1.0_f64];
        values.extend(std::iter::repeat_n(1e-16, 100_000));
        let naive: f64 = values.iter().sum();
        let kahan = kahan_sum(&values);
        let exact = 1.0 + 1e-16 * 100_000.0;
        assert!((kahan - exact).abs() < (naive - exact).abs() || naive == exact);
        assert!((kahan - exact).abs() < 1e-12);
    }

    #[test]
    fn pairwise_matches_exact_on_integers() {
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        let exact = 10_000.0 * 10_001.0 / 2.0;
        assert_eq!(pairwise_sum(&values), exact);
        assert_eq!(kahan_sum(&values), exact);
    }

    #[test]
    fn merge_is_associative_enough() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let total = kahan_sum(&values);
        let mut a = KahanAccumulator::new();
        let mut b = KahanAccumulator::new();
        for &v in &values[..500] {
            a.add(v);
        }
        for &v in &values[500..] {
            b.add(v);
        }
        a.merge(&b);
        assert!((a.total() - total).abs() < 1e-12);
    }

    #[test]
    fn neumaier_handles_large_incoming_terms() {
        // Classic Kahan loses the error when |value| > |sum|; Neumaier does
        // not: 1 + 1e100 − 1e100 must come back as exactly 1.
        let mut acc = KahanAccumulator::new();
        for v in [1.0, 1e100, -1e100] {
            acc.add(v);
        }
        assert_eq!(acc.total(), 1.0);
    }

    #[test]
    fn merge_preserves_compensation_pairing() {
        // The pre-fix merge re-rounded `other.compensation` through a lossy
        // add; carrying it verbatim keeps the merged total exact here.
        let mut a = KahanAccumulator::new();
        a.add(1e100);
        let mut b = KahanAccumulator::new();
        b.add(1.0);
        b.add(-1e100); // b = {sum: -1e100 (approx), compensation: 1}
        a.merge(&b);
        assert_eq!(a.total(), 1.0);
    }
}
