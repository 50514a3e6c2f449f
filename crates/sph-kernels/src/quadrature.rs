//! Numerical quadrature used to normalize kernels and to verify `∫W dV = 1`.
//!
//! The sinc kernels have no closed-form normalization for general exponent
//! `n`, so σₙ is computed once at construction time with composite Simpson
//! integration — fast, deterministic and accurate to ~1e-12 for these smooth
//! integrands.

/// Composite Simpson's rule for `∫₀^b f(x) dx` with `n` (even) intervals.
pub(crate) fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> f64 {
    assert!(n >= 2 && n.is_multiple_of(2), "Simpson needs an even interval count");
    let h = (b - a) / n as f64;
    let mut s = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        s += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
    }
    s * h / 3.0
}

#[cfg(test)]
/// Radial 3-D volume integral `4π ∫₀^R f(r) r² dr`, the reference of
/// the kernels' normalisation tests.
pub(crate) fn integrate_radial_3d<F: Fn(f64) -> f64>(f: F, r_max: f64, n: usize) -> f64 {
    4.0 * std::f64::consts::PI * simpson(|r| f(r) * r * r, 0.0, r_max, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn simpson_exact_for_cubics() {
        // Simpson integrates polynomials of degree ≤ 3 exactly.
        let val = simpson(|x| 3.0 * x * x * x - x + 2.0, 0.0, 2.0, 2);
        let exact = 3.0 / 4.0 * 16.0 - 2.0 + 4.0;
        assert!((val - exact).abs() < 1e-12);
    }

    #[test]
    fn simpson_converges_on_sine() {
        let val = simpson(f64::sin, 0.0, PI, 256);
        assert!((val - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn simpson_rejects_odd_n() {
        let _ = simpson(|x| x, 0.0, 1.0, 3);
    }

    #[test]
    fn radial_integral_of_uniform_density() {
        // f = 1 over a sphere of radius R gives the sphere volume.
        let vol = integrate_radial_3d(|_| 1.0, 2.0, 128);
        let exact = 4.0 / 3.0 * PI * 8.0;
        assert!((vol - exact).abs() < 1e-9);
    }
}
