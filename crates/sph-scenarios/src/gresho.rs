//! Gresho–Chan vortex (Gresho & Chan 1990; Liska & Wendroff 2003).
//!
//! A stationary triangular vortex in exact pressure equilibrium: the
//! centrifugal force of the azimuthal velocity profile is balanced
//! pointwise by the radial pressure gradient, so the *analytic solution
//! is the initial condition at every time*. Any evolution is numerical
//! error — which makes the test a sensitive meter for angular-momentum
//! diffusion and artificial-viscosity noise in shear flows (exactly
//! what the Balsara switch exists to suppress).
//!
//! Profile (ρ = 1 everywhere):
//!
//! ```text
//! v_φ(r) = 5r            p(r) = 5 + 12.5 r²                     r < 0.2
//! v_φ(r) = 2 − 5r        p(r) = 9 + 12.5 r² − 20r + 4 ln(5r)    0.2 ≤ r < 0.4
//! v_φ(r) = 0             p(r) = 3 + 4 ln 2                      r ≥ 0.4
//! ```
//!
//! Realised as a 3-D slab: the 2-D vortex extruded along z, fully
//! periodic (the outer fluid is at rest, so the periodic images are
//! inert).

use crate::engine::momentum_scale;
use crate::engine::{
    Check, PrimitiveState, Resolution, Scenario, ScenarioRun, ScenarioSetup, ValidationReport,
};
use sph_core::config::{SphConfig, ViscosityConfig};
use sph_core::eos::IdealGas;
use sph_core::particles::ParticleSystem;
use sph_kernels::KernelKind;
use sph_math::{Aabb, Periodicity, Vec3};

/// Azimuthal velocity of the Gresho vortex.
pub(crate) fn gresho_v_phi(r: f64) -> f64 {
    if r < 0.2 {
        5.0 * r
    } else if r < 0.4 {
        2.0 - 5.0 * r
    } else {
        0.0
    }
}

/// Equilibrium pressure of the *unit-density* Gresho vortex; a vortex
/// of density ρ₀ is in equilibrium with `ρ₀ · gresho_pressure(r)`
/// (the balance `dp/dr = ρ v_φ²/r` is linear in ρ).
pub(crate) fn gresho_pressure(r: f64) -> f64 {
    if r < 0.2 {
        5.0 + 12.5 * r * r
    } else if r < 0.4 {
        9.0 + 12.5 * r * r - 20.0 * r + 4.0 * (5.0 * r).ln()
    } else {
        3.0 + 4.0 * 2.0f64.ln()
    }
}

/// The exact solution of a vortex of density `rho0` at any time: the
/// state is steady, so it is the initial condition.
fn gresho_profile(rho0: f64) -> impl Fn(Vec3) -> PrimitiveState {
    move |p: Vec3| {
        let (rx, ry) = (p.x - 0.5, p.y - 0.5);
        let r = (rx * rx + ry * ry).sqrt();
        let vphi = gresho_v_phi(r);
        let v = if r > 0.0 { Vec3::new(-ry / r * vphi, rx / r * vphi, 0.0) } else { Vec3::ZERO };
        PrimitiveState { rho: rho0, p: rho0 * gresho_pressure(r), v }
    }
}

/// Gresho-vortex configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GreshoConfig {
    /// Lattice cells per unit length in the vortex plane.
    pub nx: usize,
    /// Slab thickness in cells.
    pub nz: usize,
    pub rho0: f64,
    pub gamma: f64,
}

impl Default for GreshoConfig {
    fn default() -> Self {
        GreshoConfig { nx: 32, nz: 8, rho0: 1.0, gamma: 5.0 / 3.0 }
    }
}

/// Build the Gresho-vortex initial conditions on `[0,1]² × [0, nz/nx]`,
/// fully periodic, vortex centred at (½, ½).
pub(crate) fn gresho_vortex(cfg: &GreshoConfig) -> ParticleSystem {
    assert!(cfg.nx >= 8 && cfg.nz >= 4);
    assert!(cfg.rho0 > 0.0 && cfg.gamma > 1.0);
    let dx = 1.0 / cfg.nx as f64;
    let lz = cfg.nz as f64 * dx;
    let n = cfg.nx * cfg.nx * cfg.nz;
    let m = cfg.rho0 * dx * dx * dx;
    let eos = IdealGas::new(cfg.gamma);

    let mut x = Vec::with_capacity(n);
    let mut v = Vec::with_capacity(n);
    let mut u = Vec::with_capacity(n);
    for iz in 0..cfg.nz {
        for iy in 0..cfg.nx {
            for ix in 0..cfg.nx {
                let p = Vec3::new(
                    (ix as f64 + 0.5) * dx,
                    (iy as f64 + 0.5) * dx,
                    (iz as f64 + 0.5) * dx,
                );
                let (rx, ry) = (p.x - 0.5, p.y - 0.5);
                let r = (rx * rx + ry * ry).sqrt();
                let vphi = gresho_v_phi(r);
                // v̂_φ = (−sin φ, cos φ): counter-clockwise rotation.
                let vel = if r > 0.0 {
                    Vec3::new(-ry / r * vphi, rx / r * vphi, 0.0)
                } else {
                    Vec3::ZERO
                };
                x.push(p);
                v.push(vel);
                u.push(eos.energy_from_pressure(cfg.rho0, cfg.rho0 * gresho_pressure(r)));
            }
        }
    }
    let domain = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 1.0, lz));
    ParticleSystem::new(x, v, vec![m; n], u, 1.5 * dx, Periodicity::fully_periodic(domain))
}

/// Mean azimuthal velocity over the peak band `r ∈ [0.15, 0.25]` — the
/// retention diagnostic (the analytic area-weighted band mean is 0.875).
pub(crate) fn peak_band_v_phi(sys: &ParticleSystem) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for i in 0..sys.len() {
        let (rx, ry) = (sys.x[i].x - 0.5, sys.x[i].y - 0.5);
        let r = (rx * rx + ry * ry).sqrt();
        if (0.15..=0.25).contains(&r) && r > 0.0 {
            // v_φ = v · φ̂ with φ̂ = (−ry, rx)/r.
            sum += (-ry * sys.v[i].x + rx * sys.v[i].y) / r;
            n += 1;
        }
    }
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

/// The registered Gresho–Chan workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GreshoScenario;

impl GreshoScenario {
    fn cfg(&self, res: Resolution) -> GreshoConfig {
        GreshoConfig { nx: res.scaled(32, 12), nz: res.scaled(8, 4), ..Default::default() }
    }
}

impl Scenario for GreshoScenario {
    fn name(&self) -> &'static str {
        "gresho"
    }

    fn reference(&self) -> &'static str {
        "Gresho & Chan 1990"
    }

    fn analytic_check(&self) -> &'static str {
        "stationary profile; peak v_φ retention ≥ 80 %, density L1 vs ρ₀ < 0.05"
    }

    fn init(&self, res: Resolution) -> ScenarioSetup {
        let cfg = self.cfg(res);
        let config = SphConfig {
            gamma: cfg.gamma,
            // The vortex is killed by sampling noise, not by pair
            // viscosity (halving α barely moves the retention): smooth
            // harder instead — Wendland C2 with ~100 neighbours, the
            // standard anti-noise recipe for subsonic shear.
            kernel: KernelKind::WendlandC2,
            target_neighbors: 100,
            viscosity: ViscosityConfig { alpha: 0.5, beta: 1.0, eta2: 0.01, balsara: true },
            ..Default::default()
        };
        ScenarioSetup { sys: gresho_vortex(&cfg), config, gravity: None }
    }

    fn end_time(&self) -> f64 {
        0.4
    }

    fn l1_tolerance(&self) -> f64 {
        0.05
    }

    fn track(&self, sys: &ParticleSystem) -> Option<f64> {
        Some(peak_band_v_phi(sys))
    }

    fn validate(&self, run: &ScenarioRun) -> ValidationReport {
        // Same config source as `init` (Resolution scales the lattice only).
        let reference = gresho_profile(self.cfg(Resolution::default()).rho0);
        let norms = crate::engine::density_error_norms(&run.sys, &reference, |_| true);
        let initial_band = run.samples.first().map(|s| s.value).unwrap_or(0.0);
        let final_band = run.samples.last().map(|s| s.value).unwrap_or(0.0);
        let retention = if initial_band > 0.0 { final_band / initial_band } else { 0.0 };
        let momentum_scale = momentum_scale(&run.sys);
        let checks = vec![
            Check::lower("peak_v_phi_retention", retention, 0.8),
            Check::upper("l1_density_error", norms.l1, self.l1_tolerance()),
            Check::upper("energy_drift", run.energy_drift(), 0.02),
        ];
        let metrics =
            vec![("peak_band_v_phi_initial", initial_band), ("peak_band_v_phi_final", final_band)];
        ValidationReport::new(
            self.name(),
            run,
            run.sys.time,
            Some(norms),
            self.l1_tolerance(),
            momentum_scale,
            checks,
            metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_is_continuous_at_the_joints() {
        for r0 in [0.2, 0.4] {
            let below = gresho_v_phi(r0 - 1e-12);
            let above = gresho_v_phi(r0 + 1e-12);
            assert!((below - above).abs() < 1e-9, "v_φ jumps at {r0}");
            let pb = gresho_pressure(r0 - 1e-12);
            let pa = gresho_pressure(r0 + 1e-12);
            assert!((pb - pa).abs() < 1e-9, "p jumps at {r0}");
        }
    }

    #[test]
    fn pressure_gradient_balances_centrifugal_force() {
        // dp/dr = ρ v_φ²/r at interior radii (finite differences).
        let h = 1e-7;
        for &r in &[0.1, 0.15, 0.25, 0.3, 0.35] {
            let dpdr = (gresho_pressure(r + h) - gresho_pressure(r - h)) / (2.0 * h);
            let want = gresho_v_phi(r).powi(2) / r;
            assert!((dpdr - want).abs() < 1e-5, "dp/dr = {dpdr} vs {want} at r = {r}");
        }
    }

    #[test]
    fn vortex_ic_is_sane_and_rotates() {
        let cfg = GreshoConfig { nx: 16, nz: 4, ..Default::default() };
        let sys = gresho_vortex(&cfg);
        assert_eq!(sys.len(), 16 * 16 * 4);
        assert!(sys.sanity_check().is_ok());
        // Peak-band mean azimuthal velocity ≈ analytic area-weighted
        // band mean ∫v_φ r dr / ∫r dr = 0.875 (lattice-discretised).
        let band = peak_band_v_phi(&sys);
        assert!((band - 0.875).abs() < 0.05, "band v_φ = {band}");
        // The far field is at rest.
        for i in 0..sys.len() {
            let (rx, ry) = (sys.x[i].x - 0.5, sys.x[i].y - 0.5);
            if (rx * rx + ry * ry).sqrt() >= 0.4 {
                assert_eq!(sys.v[i], Vec3::ZERO);
            }
        }
    }

    #[test]
    fn outer_pressure_is_uniform() {
        assert_eq!(gresho_pressure(0.45), gresho_pressure(5.0));
    }
}
