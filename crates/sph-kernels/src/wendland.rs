//! Wendland kernels C2, C4 and C6 (Wendland 1995; Dehnen & Aly 2012).
//!
//! Wendland kernels are the preferred choice of SPH-flow and an option in
//! ChaNGa (Table 1): positive-definite Fourier transform, hence free of the
//! pairing instability, and well-behaved with the large neighbour counts
//! (~10²) the paper quotes. Forms below are the 3-D variants with support
//! `2h`, taken from Dehnen & Aly (2012), Table 1:
//!
//! ```text
//! C2: w(q) = (1 − q/2)⁴ (1 + 2q)                        σ = 21/(16π)
//! C4: w(q) = (1 − q/2)⁶ (1 + 3q + 35/12 q²)             σ = 495/(256π)
//! C6: w(q) = (1 − q/2)⁸ (1 + 4q + 25/4 q² + 4q³)        σ = 1365/(512π)
//! ```

use crate::Kernel;
use std::f64::consts::PI;

/// Wendland C2 kernel.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WendlandC2;

impl WendlandC2 {
    pub(crate) fn new() -> Self {
        WendlandC2
    }
}

impl Kernel for WendlandC2 {
    fn name(&self) -> &'static str {
        "Wendland C2"
    }

    #[inline]
    fn w_shape(&self, q: f64) -> f64 {
        let q = q.abs();
        if q >= 2.0 {
            return 0.0;
        }
        let t = 1.0 - 0.5 * q;
        let t2 = t * t;
        t2 * t2 * (1.0 + 2.0 * q)
    }

    #[inline]
    fn dw_shape(&self, q: f64) -> f64 {
        let s = if q < 0.0 { -1.0 } else { 1.0 };
        let q = q.abs();
        if q >= 2.0 {
            return 0.0;
        }
        // d/dq [(1−q/2)⁴(1+2q)] = (1−q/2)³ [−2(1+2q) + 2(1−q/2)·... ]
        // computed directly: = −5q (1−q/2)³.
        let t = 1.0 - 0.5 * q;
        s * (-5.0 * q * t * t * t)
    }

    #[inline]
    fn sigma(&self) -> f64 {
        21.0 / (16.0 * PI)
    }
}

/// Wendland C4 kernel.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WendlandC4;

impl WendlandC4 {
    pub(crate) fn new() -> Self {
        WendlandC4
    }
}

impl Kernel for WendlandC4 {
    fn name(&self) -> &'static str {
        "Wendland C4"
    }

    #[inline]
    fn w_shape(&self, q: f64) -> f64 {
        let q = q.abs();
        if q >= 2.0 {
            return 0.0;
        }
        let t = 1.0 - 0.5 * q;
        let t2 = t * t;
        let t6 = t2 * t2 * t2;
        t6 * (1.0 + 3.0 * q + 35.0 / 12.0 * q * q)
    }

    #[inline]
    fn dw_shape(&self, q: f64) -> f64 {
        let s = if q < 0.0 { -1.0 } else { 1.0 };
        let q = q.abs();
        if q >= 2.0 {
            return 0.0;
        }
        // d/dq = (1−q/2)⁵ · (−(35/12)q·(1 + ... )) — worked out:
        // w' = (1−q/2)⁵ [ −3(1+3q+35/12 q²) + (1−q/2)(3 + 35/6 q) ]
        let t = 1.0 - 0.5 * q;
        let t2 = t * t;
        let t5 = t2 * t2 * t;
        let poly = 1.0 + 3.0 * q + 35.0 / 12.0 * q * q;
        let dpoly = 3.0 + 35.0 / 6.0 * q;
        s * t5 * (-3.0 * poly + t * dpoly)
    }

    #[inline]
    fn sigma(&self) -> f64 {
        495.0 / (256.0 * PI)
    }
}

/// Wendland C6 kernel.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WendlandC6;

impl WendlandC6 {
    pub(crate) fn new() -> Self {
        WendlandC6
    }
}

impl Kernel for WendlandC6 {
    fn name(&self) -> &'static str {
        "Wendland C6"
    }

    #[inline]
    fn w_shape(&self, q: f64) -> f64 {
        let q = q.abs();
        if q >= 2.0 {
            return 0.0;
        }
        let t = 1.0 - 0.5 * q;
        let t2 = t * t;
        let t4 = t2 * t2;
        let t8 = t4 * t4;
        t8 * (1.0 + 4.0 * q + 6.25 * q * q + 4.0 * q * q * q)
    }

    #[inline]
    fn dw_shape(&self, q: f64) -> f64 {
        let s = if q < 0.0 { -1.0 } else { 1.0 };
        let q = q.abs();
        if q >= 2.0 {
            return 0.0;
        }
        let t = 1.0 - 0.5 * q;
        let t2 = t * t;
        let t4 = t2 * t2;
        let t7 = t4 * t2 * t;
        let poly = 1.0 + 4.0 * q + 6.25 * q * q + 4.0 * q * q * q;
        let dpoly = 4.0 + 12.5 * q + 12.0 * q * q;
        s * t7 * (-4.0 * poly + t * dpoly)
    }

    #[inline]
    fn sigma(&self) -> f64 {
        1365.0 / (512.0 * PI)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_values() {
        assert_eq!(WendlandC2::new().w_shape(0.0), 1.0);
        assert_eq!(WendlandC4::new().w_shape(0.0), 1.0);
        assert_eq!(WendlandC6::new().w_shape(0.0), 1.0);
    }

    #[test]
    fn smooth_at_support_edge() {
        // Wendland kernels go to zero with several continuous derivatives
        // at q = 2; value and slope must both vanish.
        for k in [
            Box::new(WendlandC2::new()) as Box<dyn Kernel>,
            Box::new(WendlandC4::new()),
            Box::new(WendlandC6::new()),
        ] {
            assert!(k.w_shape(2.0 - 1e-9) < 1e-20, "{}", k.name());
            assert!(k.dw_shape(2.0 - 1e-9).abs() < 1e-15, "{}", k.name());
        }
    }

    #[test]
    fn zero_slope_at_origin() {
        // Unlike the cubic spline (whose w' → 0 linearly), Wendland kernels
        // have exactly zero derivative at q = 0.
        assert_eq!(WendlandC2::new().dw_shape(0.0), 0.0);
        assert_eq!(WendlandC4::new().dw_shape(0.0), 0.0);
        assert_eq!(WendlandC6::new().dw_shape(0.0), 0.0);
    }

    #[test]
    fn smoothness_ordering_near_origin() {
        // Higher-order Wendland kernels are more centrally concentrated:
        // σ_C2 < σ_C4 < σ_C6.
        let c2 = WendlandC2::new().sigma();
        let c4 = WendlandC4::new().sigma();
        let c6 = WendlandC6::new().sigma();
        assert!(c2 < c4 && c4 < c6);
    }

    #[test]
    fn c2_known_value() {
        // w(1) = (1/2)⁴ · 3 = 3/16.
        assert!((WendlandC2::new().w_shape(1.0) - 3.0 / 16.0).abs() < 1e-15);
    }
}
