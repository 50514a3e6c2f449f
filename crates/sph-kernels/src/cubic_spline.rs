//! The M4 cubic spline kernel (Monaghan & Lattanzio 1985).
//!
//! The workhorse kernel of classical SPH and one of ChaNGa's options
//! (Table 1). With support `2h` in 3-D:
//!
//! ```text
//! w(q) = 1 − (3/2) q² + (3/4) q³        0 ≤ q ≤ 1
//!      = (1/4) (2 − q)³                 1 <  q ≤ 2
//!      = 0                              q > 2
//! σ    = 1/π
//! ```

use crate::Kernel;

/// M4 (cubic) B-spline kernel.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CubicSpline;

impl CubicSpline {
    pub(crate) fn new() -> Self {
        CubicSpline
    }
}

impl Kernel for CubicSpline {
    fn name(&self) -> &'static str {
        "M4 cubic spline"
    }

    #[inline]
    fn w_shape(&self, q: f64) -> f64 {
        if q < 0.0 {
            return self.w_shape(-q);
        }
        if q <= 1.0 {
            1.0 - 1.5 * q * q + 0.75 * q * q * q
        } else if q <= 2.0 {
            let t = 2.0 - q;
            0.25 * t * t * t
        } else {
            0.0
        }
    }

    #[inline]
    fn dw_shape(&self, q: f64) -> f64 {
        if q < 0.0 {
            return -self.dw_shape(-q);
        }
        if q <= 1.0 {
            -3.0 * q + 2.25 * q * q
        } else if q <= 2.0 {
            let t = 2.0 - q;
            -0.75 * t * t
        } else {
            0.0
        }
    }

    #[inline]
    fn sigma(&self) -> f64 {
        std::f64::consts::FRAC_1_PI
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_value() {
        let k = CubicSpline::new();
        assert_eq!(k.w_shape(0.0), 1.0);
        // W(0, h=1) = σ = 1/π.
        assert!((k.w(0.0, 1.0) - std::f64::consts::FRAC_1_PI).abs() < 1e-15);
    }

    #[test]
    fn continuity_at_knots() {
        let k = CubicSpline::new();
        let eps = 1e-10;
        // Value and first derivative continuous at q = 1 and q = 2.
        assert!((k.w_shape(1.0 - eps) - k.w_shape(1.0 + eps)).abs() < 1e-8);
        assert!((k.dw_shape(1.0 - eps) - k.dw_shape(1.0 + eps)).abs() < 1e-8);
        assert!(k.w_shape(2.0) < 1e-14);
        assert!(k.dw_shape(2.0).abs() < 1e-14);
    }

    #[test]
    fn known_inner_values() {
        let k = CubicSpline::new();
        // w(1) = 1 − 1.5 + 0.75 = 0.25; the outer branch also gives 0.25.
        assert!((k.w_shape(1.0) - 0.25).abs() < 1e-15);
        // w(0.5) = 1 − 0.375 + 0.09375 = 0.71875.
        assert!((k.w_shape(0.5) - 0.71875).abs() < 1e-15);
    }

    #[test]
    fn even_symmetry() {
        let k = CubicSpline::new();
        assert_eq!(k.w_shape(0.5), k.w_shape(-0.5));
        assert_eq!(k.dw_shape(0.5), -k.dw_shape(-0.5));
    }
}
