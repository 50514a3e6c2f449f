//! Test-runner plumbing: per-case deterministic RNG, configuration, and
//! the error type the `prop_assert*` macros return.

/// Suite-level configuration, mirroring `proptest::test_runner::Config`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; the shim trades a little coverage
        // for suite latency. Override with PROPTEST_CASES or with_cases().
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// Case count after applying the `PROPTEST_CASES` env override.
    #[allow(
        clippy::disallowed_methods,
        reason = "test-suite knob mirroring real proptest: it sets how many cases run, never a \
                  trajectory"
    )]
    pub fn effective_cases(&self) -> u32 {
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => v.parse().unwrap_or(self.cases),
            Err(_) => self.cases,
        }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` failed — the case is discarded, not counted as a
    /// failure.
    Reject(String),
    /// A `prop_assert*` failed — the property is falsified.
    Fail(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Deterministic RNG handed to strategies (SplitMix64 core).
///
/// Seeded from the test path and case index, so every case of every
/// property is reproducible without a persistence file.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for case `case` of the test identified by `path`.
    pub fn for_case(path: &str, case: u32) -> Self {
        // FNV-1a over the path, mixed with the case number.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self { state: h ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) }
    }

    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64 step: passes basic equidistribution needs for tests.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi, "empty f64 range {lo}..{hi}");
        let v = lo + self.next_f64() * (hi - lo);
        // Floating rounding can land exactly on `hi`; clamp back inside.
        if v >= hi {
            hi - (hi - lo) * f64::EPSILON
        } else {
            v
        }
    }

    /// Uniform u64 in `[lo, hi)` (unbiased enough for test generation).
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty integer range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.uniform_u64(lo as u64, hi as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_path_and_case() {
        let mut a = TestRng::for_case("crate::mod::test", 7);
        let mut b = TestRng::for_case("crate::mod::test", 7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("crate::mod::test", 8);
        assert_ne!(a.next_u64(), c.next_u64());
        let mut d = TestRng::for_case("crate::mod::other", 7);
        assert_ne!(b.next_u64(), d.next_u64());
    }

    #[test]
    fn uniform_f64_stays_in_range() {
        let mut rng = TestRng::for_case("t", 0);
        for _ in 0..10_000 {
            let v = rng.uniform_f64(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&v), "{v}");
        }
    }

    #[test]
    fn uniform_u64_covers_range() {
        let mut rng = TestRng::for_case("t", 1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.uniform_u64(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn config_with_cases() {
        assert_eq!(ProptestConfig::with_cases(48).cases, 48);
        assert_eq!(ProptestConfig::default().cases, 64);
    }
}
