//! SPH interpolation kernels.
//!
//! Table 2 of the paper lists the kernels the SPH-EXA mini-app must provide:
//! the **sinc family** (SPHYNX; Cabezón, García-Senz & Relaño 2008), the
//! **M4 cubic spline** and **Wendland** kernels (ChaNGa and SPH-flow). All
//! kernels here use the astrophysics convention of a compact support of
//! radius `2h`:
//!
//! `W(r, h) = σ / h³ · w(q)`, with `q = r/h ∈ [0, 2]`,
//!
//! where `w` is the dimensionless shape and `σ` the normalization constant
//! such that `∫ W dV = 1` in 3-D. The trait exposes `w`, `dW/dr` and `dW/dh`
//! (the latter feeds grad-h correction terms).
//!
//! Kernels are interchangeable modules, exactly as §4 of the paper requires
//! ("some of them, such as the SPH interpolation kernels, can be implemented
//! as separate interchangeable modules").
//!
//! **Split normalisation.** `σ/h³` and `σ/h⁴` depend on the particle, not
//! on the pair, and a division costs more than everything else in a
//! kernel evaluation. [`Kernel::w_norm`] / [`Kernel::dw_norm`] are those
//! factors; `w`, `dw_dr`, `dw_dh` and `w_and_dw_dh` are defined as
//! `norm * f(shape(r/h))` in one fixed association (stated on `w_norm`),
//! so a pair loop that takes the factor once per particle and multiplies
//! it onto [`Kernel::w_shape`] / [`Kernel::dw_shape`] itself gets the bit
//! pattern of the one-call form. [`Kernel::w_shape_lanes`] /
//! [`Kernel::dw_shape_lanes`] evaluate the shape over a block of pairs
//! with one dynamic dispatch.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cubic_spline;
pub mod quadrature;
pub mod sinc;
pub mod wendland;

pub(crate) use cubic_spline::CubicSpline;
pub(crate) use sinc::SincKernel;
pub(crate) use wendland::{WendlandC2, WendlandC4, WendlandC6};

use sph_math::Vec3;

/// Dimensionless support radius (in units of `h`) shared by all kernels in
/// this crate.
pub const SUPPORT_RADIUS: f64 = 2.0;

/// A smoothing kernel in 3-D.
///
/// Implementations must be pure and thread-safe; the per-neighbour loops
/// evaluate them from many rayon workers simultaneously.
pub trait Kernel: Send + Sync {
    /// Human-readable name used by the feature tables.
    fn name(&self) -> &'static str;

    /// Dimensionless shape `w(q)` for `q = r/h ∈ [0, 2]`; 0 outside.
    fn w_shape(&self, q: f64) -> f64;

    /// Derivative `dw/dq` of the shape; 0 outside the support.
    fn dw_shape(&self, q: f64) -> f64;

    /// Normalization constant `σ` with `W = σ/h³ · w(q)`.
    fn sigma(&self) -> f64;

    /// The h-only factor of [`Kernel::w`]: `σ / (h·h·h)`.
    ///
    /// **Association contract.** `w`, `dw_dr`, `dw_dh` and `w_and_dw_dh`
    /// are *defined* as a normalisation times a function of `q = r/h`:
    ///
    /// ```text
    /// w(r, h)     = w_norm(h) * w_shape(r / h)
    /// dw_dr(r, h) = dw_norm(h) * dw_shape(r / h)
    /// dw_dh(r, h) = -dw_norm(h) * (3.0 * w_shape(q) + q * dw_shape(q))
    /// ```
    ///
    /// with exactly these operations in this order, so a pair loop may
    /// compute the normalisation once per particle (it does not depend on
    /// the pair) and multiply it onto the shape itself: the product is
    /// the bit pattern the one-call form returns. Implementations do not
    /// override any of the six; a test holds the identity for every
    /// kernel in the crate.
    #[inline]
    fn w_norm(&self, h: f64) -> f64 {
        debug_assert!(h > 0.0);
        self.sigma() / (h * h * h)
    }

    /// The h-only factor of [`Kernel::dw_dr`] and [`Kernel::dw_dh`]:
    /// `σ / (h·h·h·h)`. Same contract as [`Kernel::w_norm`].
    #[inline]
    fn dw_norm(&self, h: f64) -> f64 {
        debug_assert!(h > 0.0);
        self.sigma() / (h * h * h * h)
    }

    /// `out[k] = w_shape(q[k])` over the common length of the slices: the
    /// shape evaluation of a pair loop's lane phase, one dispatch per
    /// block of pairs instead of one per pair. Not overridden, so each
    /// element is the bit pattern the scalar call returns.
    #[inline]
    fn w_shape_lanes(&self, q: &[f64], out: &mut [f64]) {
        for (o, &q) in out.iter_mut().zip(q) {
            *o = self.w_shape(q);
        }
    }

    /// `out[k] = dw_shape(q[k])`; see [`Kernel::w_shape_lanes`].
    #[inline]
    fn dw_shape_lanes(&self, q: &[f64], out: &mut [f64]) {
        for (o, &q) in out.iter_mut().zip(q) {
            *o = self.dw_shape(q);
        }
    }

    /// Kernel value `W(r, h)`.
    #[inline]
    fn w(&self, r: f64, h: f64) -> f64 {
        self.w_norm(h) * self.w_shape(r / h)
    }

    /// Radial derivative `∂W/∂r`.
    #[inline]
    fn dw_dr(&self, r: f64, h: f64) -> f64 {
        self.dw_norm(h) * self.dw_shape(r / h)
    }

    /// Smoothing-length derivative `∂W/∂h` at fixed `r`:
    /// `∂W/∂h = −σ/h⁴ · (3 w(q) + q w′(q))`.
    #[inline]
    fn dw_dh(&self, r: f64, h: f64) -> f64 {
        let q = r / h;
        -self.dw_norm(h) * (3.0 * self.w_shape(q) + q * self.dw_shape(q))
    }

    /// Fused `(W, ∂W/∂h)` evaluation: one `w_shape` call and one virtual
    /// dispatch instead of the two shape evaluations and two dispatches
    /// separate [`Kernel::w`] + [`Kernel::dw_dh`] calls pay. The
    /// expressions are the exact ones from those defaults (sharing the
    /// pure `w_shape(q)` value), so the results are bit-identical to
    /// calling them apart.
    #[inline]
    fn w_and_dw_dh(&self, r: f64, h: f64) -> (f64, f64) {
        let q = r / h;
        let ws = self.w_shape(q);
        (self.w_norm(h) * ws, -self.dw_norm(h) * (3.0 * ws + q * self.dw_shape(q)))
    }

    /// Gradient `∇_i W(|r_ij|, h)` for the displacement `r_ij = r_i − r_j`.
    /// Zero at the origin (the kernel is smooth and even there).
    #[inline]
    fn grad_w(&self, rij: Vec3, h: f64) -> Vec3 {
        let r = rij.norm();
        if r <= 0.0 {
            return Vec3::ZERO;
        }
        rij * (self.dw_dr(r, h) / r)
    }
}

/// Enumeration of all kernels the mini-app offers (Table 2, "Kernel"
/// column), convertible into a boxed [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// M4 cubic spline (ChaNGa option).
    CubicSplineM4,
    /// Wendland C2 (ChaNGa & SPH-flow option).
    WendlandC2,
    /// Wendland C4.
    WendlandC4,
    /// Wendland C6.
    WendlandC6,
    /// Sinc kernel with exponent `n` (SPHYNX family; n = 3…10 supported).
    Sinc(u8),
}

impl KernelKind {
    /// Instantiate the kernel.
    pub fn build(self) -> Box<dyn Kernel> {
        match self {
            KernelKind::CubicSplineM4 => Box::new(CubicSpline::new()),
            KernelKind::WendlandC2 => Box::new(WendlandC2::new()),
            KernelKind::WendlandC4 => Box::new(WendlandC4::new()),
            KernelKind::WendlandC6 => Box::new(WendlandC6::new()),
            KernelKind::Sinc(n) => Box::new(SincKernel::new(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadrature::integrate_radial_3d;

    fn all_kernels() -> Vec<Box<dyn Kernel>> {
        let mut v: Vec<Box<dyn Kernel>> = [
            KernelKind::CubicSplineM4,
            KernelKind::WendlandC2,
            KernelKind::WendlandC4,
            KernelKind::WendlandC6,
            KernelKind::Sinc(5),
        ]
        .into_iter()
        .map(|k| k.build())
        .collect();
        v.push(Box::new(SincKernel::new(3)));
        v.push(Box::new(SincKernel::new(7)));
        v
    }

    #[test]
    fn kernels_normalize_to_unity() {
        // ∫ W(r, h) dV = 4π ∫₀^{2h} W r² dr must equal 1 for any h.
        for k in all_kernels() {
            for &h in &[0.5, 1.0, 2.3] {
                let integral = integrate_radial_3d(|r| k.w(r, h), SUPPORT_RADIUS * h, 4096);
                assert!((integral - 1.0).abs() < 1e-6, "{} h={h}: ∫W dV = {integral}", k.name());
            }
        }
    }

    #[test]
    fn kernels_are_nonnegative_and_compact() {
        for k in all_kernels() {
            for i in 0..=200 {
                let q = i as f64 * 0.015; // up to q = 3
                let w = k.w_shape(q);
                assert!(w >= -1e-14, "{} w({q}) = {w} < 0", k.name());
                if q > SUPPORT_RADIUS {
                    assert_eq!(w, 0.0, "{} not compact at q={q}", k.name());
                    assert_eq!(k.dw_shape(q), 0.0);
                }
            }
        }
    }

    #[test]
    fn kernels_decrease_monotonically() {
        for k in all_kernels() {
            let mut prev = k.w_shape(0.0);
            for i in 1..=100 {
                let q = i as f64 * 0.02;
                let w = k.w_shape(q);
                assert!(w <= prev + 1e-12, "{} increases at q={q}: {w} > {prev}", k.name());
                prev = w;
            }
        }
    }

    #[test]
    fn shape_derivative_matches_finite_difference() {
        for k in all_kernels() {
            for i in 1..40 {
                let q = i as f64 * 0.05; // avoid the exact endpoints
                if (q - 1.0).abs() < 1e-9 || (q - 2.0).abs() < 1e-9 {
                    continue;
                }
                let eps = 1e-6;
                let fd = (k.w_shape(q + eps) - k.w_shape(q - eps)) / (2.0 * eps);
                let an = k.dw_shape(q);
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                    "{} at q={q}: fd={fd} analytic={an}",
                    k.name()
                );
            }
        }
    }

    #[test]
    fn dw_dh_matches_finite_difference() {
        for k in all_kernels() {
            let r = 0.7;
            let h = 0.9;
            let eps = 1e-6;
            let fd = (k.w(r, h + eps) - k.w(r, h - eps)) / (2.0 * eps);
            let an = k.dw_dh(r, h);
            assert!(
                (fd - an).abs() < 1e-4 * (1.0 + an.abs()),
                "{}: fd={fd} analytic={an}",
                k.name()
            );
        }
    }

    #[test]
    fn fused_w_and_dw_dh_is_bit_identical_to_separate_calls() {
        // The density pass swaps two virtual calls for the fused one; the
        // backend-exactness story requires the swap to change nothing.
        for k in all_kernels() {
            for i in 0..=80 {
                let r = i as f64 * 0.03;
                for &h in &[0.4, 1.0, 1.7] {
                    let (w, dw_dh) = k.w_and_dw_dh(r, h);
                    assert_eq!(w.to_bits(), k.w(r, h).to_bits(), "{} r={r} h={h}", k.name());
                    assert_eq!(
                        dw_dh.to_bits(),
                        k.dw_dh(r, h).to_bits(),
                        "{} r={r} h={h}",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn split_normalisation_is_bit_identical_to_the_one_call_form() {
        // The association contract of `w_norm` / `dw_norm`, against the
        // expressions the one-call forms had before the split: the pair
        // loops hoist the normalisation out of the pair, and every golden
        // fingerprint rests on that changing nothing.
        for k in all_kernels() {
            let sigma = k.sigma();
            for i in 0..=90 {
                let r = i as f64 * 0.027;
                for &h in &[1e-3, 0.031_25, 0.4, 1.0, 1.7, 3e4] {
                    let r = r * h;
                    let q = r / h;
                    let w = sigma / (h * h * h) * k.w_shape(q);
                    let dw_dr = sigma / (h * h * h * h) * k.dw_shape(q);
                    let dw_dh = -sigma / (h * h * h * h) * (3.0 * k.w_shape(q) + q * k.dw_shape(q));
                    let at = format!("{} r={r} h={h}", k.name());
                    assert_eq!(k.w(r, h).to_bits(), w.to_bits(), "{at}");
                    assert_eq!(k.dw_dr(r, h).to_bits(), dw_dr.to_bits(), "{at}");
                    assert_eq!(k.dw_dh(r, h).to_bits(), dw_dh.to_bits(), "{at}");
                    assert_eq!((k.w_norm(h) * k.w_shape(q)).to_bits(), w.to_bits(), "{at}");
                    assert_eq!((k.dw_norm(h) * k.dw_shape(q)).to_bits(), dw_dr.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn grad_w_points_inward() {
        // ∇_i W must point from j toward i scaled by a negative radial
        // derivative — i.e. along −r̂_ij (kernels decrease outward).
        for k in all_kernels() {
            let rij = Vec3::new(0.3, 0.4, 0.0);
            let g = k.grad_w(rij, 1.0);
            let radial = g.dot(rij);
            assert!(radial < 0.0, "{}: grad not inward", k.name());
            // And is exactly radial: cross product vanishes.
            assert!(g.cross(rij).norm() < 1e-12);
        }
    }

    #[test]
    fn grad_w_zero_at_origin() {
        for k in all_kernels() {
            assert_eq!(k.grad_w(Vec3::ZERO, 1.0), Vec3::ZERO);
        }
    }

    #[test]
    fn kernel_kind_builds_expected_names() {
        assert_eq!(KernelKind::CubicSplineM4.build().name(), "M4 cubic spline");
        assert_eq!(KernelKind::WendlandC2.build().name(), "Wendland C2");
        assert_eq!(KernelKind::Sinc(5).build().name(), "sinc");
    }

    #[test]
    fn scaling_with_h_is_cubic() {
        // W(0, h) must scale as h⁻³.
        for k in all_kernels() {
            let w1 = k.w(0.0, 1.0);
            let w2 = k.w(0.0, 2.0);
            assert!((w1 / w2 - 8.0).abs() < 1e-10, "{}: W(0,1)/W(0,2) = {}", k.name(), w1 / w2);
        }
    }
}
