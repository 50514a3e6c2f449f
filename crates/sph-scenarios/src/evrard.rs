//! The Evrard collapse (Evrard 1988), configured as §5.1 of the paper:
//! initial density profile `ρ(r) = M/(2πR²r)` for `r ≤ R` with
//! `R = M = 1`, initial specific internal energy `u₀ = 0.05`, ideal gas
//! with `γ = 5/3`, gravitational constant `G = 1`. "With this
//! configuration the gravitational energy is much larger than the internal
//! energy and the system collapses naturally."
//!
//! Particles are equal-mass; positions come from a cubic lattice clipped
//! to the unit ball and **radially stretched** by `r → R (r/R)^{3/2}`,
//! which maps the uniform enclosed-mass profile `μ ∝ r³` onto the target
//! `μ ∝ r²` exactly. An optional deterministic jitter breaks the lattice
//! alignment.

use crate::engine::{Check, Resolution, Scenario, ScenarioRun, ScenarioSetup, ValidationReport};
use crate::registry::ScenarioInfo;
use sph_core::config::{SphConfig, ViscosityConfig};
use sph_core::ParticleSystem;
use sph_math::{Aabb, Periodicity, SplitMix64, Vec3};
use sph_tree::{GravityConfig, MultipoleOrder};

/// Evrard-collapse configuration; paper values are the defaults.
#[derive(Debug, Clone, Copy)]
pub struct EvrardConfig {
    /// Approximate particle count (the lattice clip makes it inexact;
    /// the builder gets within a few percent).
    pub n_target: usize,
    /// Cloud radius R.
    pub radius: f64,
    /// Cloud mass M.
    pub mass: f64,
    /// Initial specific internal energy u₀.
    pub u0: f64,
    /// Lattice jitter amplitude in units of the lattice spacing.
    pub jitter: f64,
    /// Seed for the jitter.
    pub seed: u64,
}

impl Default for EvrardConfig {
    fn default() -> Self {
        EvrardConfig { n_target: 10_000, radius: 1.0, mass: 1.0, u0: 0.05, jitter: 0.05, seed: 42 }
    }
}

/// Exact gravitational energy of the 1/r sphere: `W = −2GM²/(3R)`.
pub fn evrard_gravitational_energy(mass: f64, radius: f64, g: f64) -> f64 {
    -2.0 * g * mass * mass / (3.0 * radius)
}

/// Build the Evrard initial conditions.
pub fn evrard_collapse(cfg: &EvrardConfig) -> ParticleSystem {
    assert!(cfg.n_target >= 100, "need at least ~100 particles for a sphere");
    assert!(cfg.radius > 0.0 && cfg.mass > 0.0 && cfg.u0 >= 0.0);
    // Lattice resolution: a cube of side 2R holds ~ (π/6)·n_lattice³ ball
    // points; choose n so the clipped count approximates n_target.
    let n_side = ((cfg.n_target as f64 * 6.0 / std::f64::consts::PI).cbrt()).round() as usize;
    let n_side = n_side.max(4);
    let spacing = 2.0 * cfg.radius / n_side as f64;
    let mut rng = SplitMix64::new(SplitMix64::new(cfg.seed).derive("evrard-jitter"));

    let mut x = Vec::with_capacity(cfg.n_target * 2);
    for iz in 0..n_side {
        for iy in 0..n_side {
            for ix in 0..n_side {
                let mut p = Vec3::new(
                    -cfg.radius + (ix as f64 + 0.5) * spacing,
                    -cfg.radius + (iy as f64 + 0.5) * spacing,
                    -cfg.radius + (iz as f64 + 0.5) * spacing,
                );
                if cfg.jitter > 0.0 {
                    p += Vec3::new(
                        rng.uniform(-cfg.jitter, cfg.jitter),
                        rng.uniform(-cfg.jitter, cfg.jitter),
                        rng.uniform(-cfg.jitter, cfg.jitter),
                    ) * spacing;
                }
                let r = p.norm();
                if r > 0.0 && r <= cfg.radius {
                    // Radial stretch: uniform μ=(r/R)³ → target μ=(r/R)²,
                    // i.e. r_new = R (r/R)^{3/2}.
                    let r_new = cfg.radius * (r / cfg.radius).powf(1.5);
                    x.push(p * (r_new / r));
                }
            }
        }
    }
    let n = x.len();
    assert!(n > 0, "lattice produced no particles inside the sphere");
    let m = cfg.mass / n as f64;
    let domain = Aabb::cube(Vec3::ZERO, cfg.radius * 1.5);
    ParticleSystem::new(
        x,
        vec![Vec3::ZERO; n],
        vec![m; n],
        vec![cfg.u0; n],
        1.6 * spacing,
        Periodicity::open(domain),
    )
}

/// Mass-weighted rms radius — the collapse-progress diagnostic.
pub(crate) fn rms_radius(sys: &ParticleSystem) -> f64 {
    let mut mr2 = 0.0;
    let mut mt = 0.0;
    for i in 0..sys.len() {
        mr2 += sys.m[i] * sys.x[i].norm_sq();
        mt += sys.m[i];
    }
    (mr2 / mt).sqrt()
}

/// The registered Evrard-collapse workload (paper Table 5, row 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvrardScenario;

impl EvrardScenario {
    fn cfg(&self, res: Resolution) -> EvrardConfig {
        EvrardConfig { n_target: res.scaled(3000, 400), ..Default::default() }
    }
}

impl Scenario for EvrardScenario {
    fn name(&self) -> &'static str {
        "evrard"
    }

    fn reference(&self) -> &'static str {
        "Evrard 1988"
    }

    fn analytic_check(&self) -> &'static str {
        "W₀ = −2GM²/(3R) at start; energy ledger and collapse dynamics over the run"
    }

    fn table5_row(&self) -> Option<ScenarioInfo> {
        Some(crate::registry::evrard_table5_row())
    }

    fn init(&self, res: Resolution) -> ScenarioSetup {
        let cfg = self.cfg(res);
        let config = SphConfig {
            gamma: 5.0 / 3.0,
            target_neighbors: 60,
            viscosity: ViscosityConfig { alpha: 1.0, beta: 2.0, eta2: 0.01, balsara: true },
            ..Default::default()
        };
        // The cheapest point of the error–cost table in the workspace
        // root's `tests/force_error.rs` at the force error of the
        // quadrupole θ 0.5 it replaced (with leaves of 24).
        let gravity =
            GravityConfig { g: 1.0, theta: 0.55, softening: 1e-2, order: MultipoleOrder::Octupole };
        ScenarioSetup { sys: evrard_collapse(&cfg), config, gravity: Some(gravity) }
    }

    fn end_time(&self) -> f64 {
        0.2
    }

    /// No pointwise reference at t > 0: the registered bound gates the
    /// total-energy drift.
    fn l1_tolerance(&self) -> f64 {
        0.02
    }

    fn track(&self, sys: &ParticleSystem) -> Option<f64> {
        Some(rms_radius(sys))
    }

    fn validate(&self, run: &ScenarioRun) -> ValidationReport {
        let cfg = self.cfg(Resolution::default());
        let w_analytic = evrard_gravitational_energy(cfg.mass, cfg.radius, 1.0);
        let w0 = run.initial.gravitational_energy;
        let w0_err = ((w0 - w_analytic) / w_analytic).abs();
        let r0 = run.samples.first().map(|s| s.value).unwrap_or(0.0);
        let r1 = run.samples.last().map(|s| s.value).unwrap_or(f64::INFINITY);
        let momentum_scale = crate::engine::momentum_scale(&run.sys);
        let checks = vec![
            Check::upper("energy_drift", run.energy_drift(), self.l1_tolerance()),
            Check::upper("initial_w_vs_analytic", w0_err, 0.1),
            // The cloud must collapse: rms radius shrinks, KE rises and
            // the potential deepens.
            Check::upper("rms_radius_ratio", r1 / r0.max(f64::MIN_POSITIVE), 1.0),
            Check::lower(
                "kinetic_energy_growth",
                run.final_conservation.kinetic_energy - run.initial.kinetic_energy,
                0.0,
            ),
            Check::upper(
                "potential_deepens",
                run.final_conservation.gravitational_energy - w0,
                0.0,
            ),
        ];
        let metrics = vec![
            ("w_initial_measured", w0),
            ("w_analytic", w_analytic),
            ("rms_radius_initial", r0),
            ("rms_radius_final", r1),
        ];
        ValidationReport::new(
            self.name(),
            run,
            run.sys.time,
            None,
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
    fn count_is_near_target_and_mass_exact() {
        let cfg = EvrardConfig { n_target: 5000, ..Default::default() };
        let sys = evrard_collapse(&cfg);
        let n = sys.len();
        assert!((n as f64 - 5000.0).abs() < 0.25 * 5000.0, "count {n} too far from target");
        assert!((sys.total_mass() - cfg.mass).abs() < 1e-12);
    }

    #[test]
    fn all_particles_inside_sphere_cold_and_static() {
        let cfg = EvrardConfig::default();
        let sys = evrard_collapse(&cfg);
        for i in 0..sys.len() {
            assert!(sys.x[i].norm() <= cfg.radius + 1e-12);
            assert_eq!(sys.v[i], Vec3::ZERO);
            assert_eq!(sys.u[i], cfg.u0);
        }
    }

    #[test]
    fn radial_mass_profile_matches_one_over_r() {
        // Enclosed mass μ(r) = (r/R)² — the signature of ρ ∝ 1/r.
        let cfg = EvrardConfig { n_target: 20_000, jitter: 0.0, ..Default::default() };
        let sys = evrard_collapse(&cfg);
        let mut radii: Vec<f64> = sys.x.iter().map(|p| p.norm()).collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = radii.len();
        for frac in [0.25, 0.5, 0.75] {
            let k = (frac * n as f64) as usize;
            let r_k = radii[k];
            // μ(r_k) = frac ⇒ r_k ≈ R √frac.
            let expected = cfg.radius * frac.sqrt();
            assert!(
                (r_k - expected).abs() < 0.05 * expected,
                "μ={frac}: r={r_k}, expected {expected}"
            );
        }
    }

    #[test]
    fn shell_density_matches_analytic() {
        let cfg = EvrardConfig { n_target: 30_000, jitter: 0.0, ..Default::default() };
        let sys = evrard_collapse(&cfg);
        // Count particles in shells and compare to ρ(r)·V_shell.
        for &(r0, r1) in &[(0.2, 0.3), (0.4, 0.5), (0.6, 0.7)] {
            let count = sys
                .x
                .iter()
                .filter(|p| {
                    let r = p.norm();
                    r >= r0 && r < r1
                })
                .count();
            let shell_mass = count as f64 * sys.m[0];
            // ∫ ρ 4πr² dr over the shell = M (r1²−r0²)/R².
            let expected = cfg.mass * (r1 * r1 - r0 * r0) / (cfg.radius * cfg.radius);
            assert!(
                (shell_mass - expected).abs() < 0.1 * expected,
                "shell [{r0},{r1}): mass {shell_mass} vs analytic {expected}"
            );
        }
    }

    #[test]
    fn gravitational_energy_dominates_internal() {
        // The condition §5.1 states makes the cloud collapse: |W| ≫ U.
        let w = evrard_gravitational_energy(1.0, 1.0, 1.0);
        assert!((w + 2.0 / 3.0).abs() < 1e-15);
        let u_total = 0.05; // u₀ · M
        assert!(w.abs() > 10.0 * u_total);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = EvrardConfig { n_target: 2000, ..Default::default() };
        let a = evrard_collapse(&cfg);
        let b = evrard_collapse(&cfg);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.x[i], b.x[i]);
        }
        // Different seed ⇒ different jitter.
        let c = evrard_collapse(&EvrardConfig { seed: 7, ..cfg });
        assert!(a.x.iter().zip(&c.x).any(|(p, q)| p != q));
    }
}
