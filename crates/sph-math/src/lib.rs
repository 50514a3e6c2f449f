//! Small, dependency-free math substrate for the SPH-EXA reproduction.
//!
//! Everything the higher layers need and nothing more: 3-vectors, 3×3
//! matrices (with the symmetric inverse used by the IAD gradient scheme),
//! axis-aligned bounding boxes with optional per-axis periodicity,
//! compensated summation (conservation diagnostics must not drown in
//! round-off), basic statistics, and a deterministic `splitmix64` generator
//! used to derive every seed in the repository so that all experiments are
//! reproducible bit-for-bit.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod aabb;
pub mod mat3;
pub mod periodic;
pub mod rng;
pub mod stats;
pub mod summation;
pub mod tensor3;
pub mod vec3;

pub use aabb::Aabb;
pub use mat3::Mat3;
pub use periodic::Periodicity;
pub use rng::SplitMix64;
pub use stats::OnlineStats;
pub use summation::{kahan_sum, KahanAccumulator, REDUCE_CHUNK};
pub use tensor3::SymTensor3;
pub use vec3::Vec3;

#[cfg(test)]
/// Relative comparison of two floats with an absolute floor, the unit
/// tests' reference: `approx_eq(a, b, 1e-12)` is true when
/// `|a-b| <= tol * max(1, |a|, |b|)`.
pub(crate) fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * 1.0_f64.max(a.abs()).max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-12));
        assert!(!approx_eq(1.0, 1.1, 1e-12));
        assert!(approx_eq(0.0, 1e-13, 1e-12));
        assert!(approx_eq(1e9, 1e9 + 1.0, 1e-8));
    }
}
