//! Monaghan artificial viscosity with optional Balsara switch.
//!
//! The standard pairwise term (Monaghan 1992) that all three parent codes
//! carry in one form or another:
//!
//! ```text
//! μ_ij = h̄_ij (v_ij · r_ij) / (r_ij² + η² h̄_ij²)     if v_ij · r_ij < 0
//! Π_ij = (−α c̄_ij μ_ij + β μ_ij²) / ρ̄_ij             (else 0)
//! ```
//!
//! The Balsara (1995) limiter suppresses Π in shear-dominated flows —
//! essential for the rotating square patch, which is pure shear and would
//! otherwise be artificially braked.

use crate::config::ViscosityConfig;
use sph_math::Vec3;

/// Balsara shear limiter `f = |∇·v| / (|∇·v| + |∇×v| + 10⁻⁴ c/h)`.
#[inline]
pub fn balsara_factor(div_v: f64, curl_v: f64, cs: f64, h: f64) -> f64 {
    let d = div_v.abs();
    let denom = d + curl_v + 1e-4 * cs / h.max(1e-300);
    if denom > 0.0 {
        d / denom
    } else {
        1.0
    }
}

/// Pairwise viscous pressure term Π_ij.
///
/// * `d` — minimum-image displacement `r_i − r_j`;
/// * `dv` — velocity difference `v_i − v_j`;
/// * `f_i`, `f_j` — Balsara factors (pass 1.0 when the switch is off).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn pair_viscosity(
    cfg: &ViscosityConfig,
    d: Vec3,
    dv: Vec3,
    h_i: f64,
    h_j: f64,
    cs_i: f64,
    cs_j: f64,
    rho_i: f64,
    rho_j: f64,
    f_i: f64,
    f_j: f64,
) -> f64 {
    let vr = dv.dot(d);
    let h_bar = 0.5 * (h_i + h_j);
    let r2 = d.norm_sq();
    let mu = h_bar * vr / (r2 + cfg.eta2 * h_bar * h_bar);
    let c_bar = 0.5 * (cs_i + cs_j);
    let rho_bar = 0.5 * (rho_i + rho_j);
    let f_bar = if cfg.balsara { 0.5 * (f_i + f_j) } else { 1.0 };
    let pi = f_bar * (-cfg.alpha * c_bar * mu + cfg.beta * mu * mu) / rho_bar;
    // Receding pair: no viscosity. A select rather than an early return,
    // so the force pass's lane loop over a block of pairs has no branch.
    if vr >= 0.0 {
        0.0
    } else {
        pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ViscosityConfig {
        ViscosityConfig { alpha: 1.0, beta: 2.0, eta2: 0.01, balsara: false }
    }

    #[test]
    fn receding_pair_has_no_viscosity() {
        // j behind i, i moving away from j: v_ij · r_ij > 0.
        let d = Vec3::new(1.0, 0.0, 0.0);
        let dv = Vec3::new(0.5, 0.0, 0.0);
        let pi = pair_viscosity(&cfg(), d, dv, 0.1, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0);
        assert_eq!(pi, 0.0);
    }

    #[test]
    fn approaching_pair_is_damped() {
        let d = Vec3::new(1.0, 0.0, 0.0);
        let dv = Vec3::new(-0.5, 0.0, 0.0); // approaching
        let pi = pair_viscosity(&cfg(), d, dv, 0.1, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0);
        assert!(pi > 0.0, "Π = {pi}");
    }

    #[test]
    fn viscosity_grows_with_approach_speed() {
        let d = Vec3::new(1.0, 0.0, 0.0);
        let slow = pair_viscosity(
            &cfg(),
            d,
            Vec3::new(-0.1, 0.0, 0.0),
            0.1,
            0.1,
            1.0,
            1.0,
            1.0,
            1.0,
            1.0,
            1.0,
        );
        let fast = pair_viscosity(
            &cfg(),
            d,
            Vec3::new(-1.0, 0.0, 0.0),
            0.1,
            0.1,
            1.0,
            1.0,
            1.0,
            1.0,
            1.0,
            1.0,
        );
        assert!(fast > slow);
    }

    #[test]
    fn transverse_motion_is_inviscid() {
        // Pure shear: dv ⟂ d ⇒ v·r = 0 ⇒ Π = 0 even without Balsara.
        let d = Vec3::new(1.0, 0.0, 0.0);
        let dv = Vec3::new(0.0, 3.0, 0.0);
        let pi = pair_viscosity(&cfg(), d, dv, 0.1, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0);
        assert_eq!(pi, 0.0);
    }

    #[test]
    fn balsara_kills_pure_shear() {
        // |∇×v| ≫ |∇·v| ⇒ f → 0.
        let f = balsara_factor(1e-8, 10.0, 1.0, 0.1);
        assert!(f < 1e-6, "f = {f}");
    }

    #[test]
    fn balsara_passes_pure_compression() {
        // |∇·v| ≫ |∇×v| ⇒ f → 1.
        let f = balsara_factor(10.0, 1e-8, 1.0, 0.1);
        assert!(f > 0.999, "f = {f}");
    }

    #[test]
    fn balsara_factor_bounded() {
        for (d, c) in [(0.0, 0.0), (1.0, 1.0), (5.0, 0.1), (0.1, 5.0)] {
            let f = balsara_factor(d, c, 1.0, 0.1);
            assert!((0.0..=1.0).contains(&f), "f = {f}");
        }
    }

    #[test]
    fn balsara_switch_applied_in_pair_term() {
        let mut c = cfg();
        c.balsara = true;
        let d = Vec3::new(1.0, 0.0, 0.0);
        let dv = Vec3::new(-0.5, 0.0, 0.0);
        let full = pair_viscosity(&c, d, dv, 0.1, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0);
        let damped = pair_viscosity(&c, d, dv, 0.1, 0.1, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0);
        assert_eq!(damped, 0.0);
        assert!(full > 0.0);
    }

    #[test]
    fn shock_strength_approach_is_quadratic_in_mach() {
        // For |v·r| ≫ c the β μ² (von Neumann–Richtmyer) term dominates:
        // doubling a shock-strength approach speed must quadruple Π.
        // This is the term that carries the Sedov/Sod shock capture.
        let d = Vec3::new(1.0, 0.0, 0.0);
        let cs = 0.01; // nearly cold pre-shock gas
        let pi = |speed: f64| {
            pair_viscosity(
                &cfg(),
                d,
                Vec3::new(-speed, 0.0, 0.0),
                0.1,
                0.1,
                cs,
                cs,
                1.0,
                1.0,
                1.0,
                1.0,
            )
        };
        let ratio = pi(20.0) / pi(10.0);
        assert!((ratio - 4.0).abs() < 0.05, "Π(2v)/Π(v) = {ratio}, want ≈ 4");
        assert!(pi(1000.0).is_finite());
    }

    #[test]
    fn cold_static_gas_has_unit_balsara_factor() {
        // cs = 0, ∇·v = 0, ∇×v = 0 makes the denominator exactly zero —
        // the guard must return the no-suppression value, not NaN.
        let f = balsara_factor(0.0, 0.0, 0.0, 0.1);
        assert_eq!(f, 1.0);
    }

    #[test]
    fn balsara_factor_survives_degenerate_smoothing_length() {
        // h = 0 would divide by zero in the noise floor term; the clamp
        // keeps the factor finite (and fully suppressed, since the
        // noise floor then dominates the denominator).
        let f = balsara_factor(1.0, 1.0, 1.0, 0.0);
        assert!(f.is_finite() && (0.0..=1.0).contains(&f), "f = {f}");
    }

    #[test]
    fn viscosity_finite_at_near_contact_separation() {
        // r → 0 with an approaching pair: the η²h̄² softening must keep
        // μ — and Π — finite.
        let d = Vec3::new(1e-12, 0.0, 0.0);
        let dv = Vec3::new(-1.0, 0.0, 0.0);
        let pi = pair_viscosity(&cfg(), d, dv, 0.1, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0);
        assert!(pi.is_finite() && pi >= 0.0, "Π = {pi}");
    }

    #[test]
    fn symmetric_in_pair_exchange() {
        // Π_ij must equal Π_ji: swap i↔j flips both d and dv.
        let d = Vec3::new(0.3, -0.2, 0.1);
        let dv = Vec3::new(-0.4, 0.1, 0.05);
        let a = pair_viscosity(&cfg(), d, dv, 0.1, 0.2, 1.0, 1.5, 1.0, 2.0, 1.0, 1.0);
        let b = pair_viscosity(&cfg(), -d, -dv, 0.2, 0.1, 1.5, 1.0, 2.0, 1.0, 1.0, 1.0);
        assert!((a - b).abs() < 1e-15);
    }
}
