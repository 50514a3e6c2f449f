//! The rotating square patch (Colagrossi 2005), set up exactly as §5.1 of
//! the paper describes:
//!
//! * "the square patch was set to [100 × 100] particles in 2D and this
//!   layer was copied 100 times in the direction of the Z-axis",
//! * periodic boundary conditions in Z,
//! * rigid initial rotation `vx = ω y`, `vy = −ω x` with ω = 5 rad/s,
//! * initial pressure from the incompressible Poisson equation expressed
//!   as the rapidly converging double sine series.
//!
//! The series solves `∇²P = 2ρω²` with `P = 0` on the lateral faces; its
//! negative-pressure lobes are what triggers the tensile instability the
//! test is designed to stress. Because the SPH gas here is an ideal gas
//! (u ≥ 0), a uniform background pressure is added — the standard
//! weakly-compressible treatment; it adds no force (`∇P_back = 0`) and is
//! configurable.

use crate::engine::{
    Check, PrimitiveState, Resolution, Scenario, ScenarioRun, ScenarioSetup, ValidationReport,
};
use crate::registry::ScenarioInfo;
use sph_core::config::{SphConfig, ViscosityConfig};
use sph_core::{IdealGas, ParticleSystem};
use sph_math::{Aabb, Periodicity, Vec3};
use std::f64::consts::PI;

/// Square-patch configuration; paper values are the defaults except the
/// lateral resolution, which callers scale for CI-sized runs.
#[derive(Debug, Clone, Copy)]
pub struct SquarePatchConfig {
    /// Particles per side in the XY plane (paper: 100).
    pub nx: usize,
    /// Layers along Z (paper: 100).
    pub nz: usize,
    /// Side length L of the square.
    pub side: f64,
    /// Angular velocity ω (paper: 5 rad/s).
    pub omega: f64,
    /// Fluid density ρ.
    pub rho0: f64,
    /// Adiabatic index.
    pub gamma: f64,
    /// Background pressure as a multiple of ρω²L² (keeps u > 0).
    pub background_pressure: f64,
    /// Odd series terms per direction (m, n = 1, 3, …, 2k−1).
    pub series_terms: usize,
}

impl Default for SquarePatchConfig {
    fn default() -> Self {
        SquarePatchConfig {
            nx: 100,
            nz: 100,
            side: 1.0,
            omega: 5.0,
            rho0: 1.0,
            gamma: 7.0, // stiff gas ≈ weakly compressible water analogue
            background_pressure: 0.25,
            series_terms: 20,
        }
    }
}

/// The Poisson-series pressure of §5.1 at a point `(x, y)` of the square
/// `[0, L]²` (coordinates measured from the square's corner):
///
/// `P(x,y) = ρ Σ_{m,n odd} −32ω² / (mnπ²[(mπ/L)² + (nπ/L)²])
///            · sin(mπx/L) sin(nπy/L)`
///
/// The series is separable, so one evaluation costs `2T` sines (one per
/// odd `m` and one per odd `n`) plus `T²` terms with
/// `T = series_terms`, not `2T²` sines. Each term is the same expression
/// folded in the same `(m, n)` order as the literal double loop, so the
/// value is bit-identical to it. [`square_patch`] evaluates it once per
/// lattice column and copies the result to the column's `nz` layers.
pub(crate) fn square_patch_pressure(
    x: f64,
    y: f64,
    side: f64,
    rho: f64,
    omega: f64,
    series_terms: usize,
) -> f64 {
    let sin_y: Vec<f64> =
        (0..series_terms).map(|kn| ((2 * kn + 1) as f64 * PI * y / side).sin()).collect();
    let mut p = 0.0;
    for km in 0..series_terms {
        let m = (2 * km + 1) as f64;
        let sin_mx = (m * PI * x / side).sin();
        for (kn, &sin_ny) in sin_y.iter().enumerate() {
            let n = (2 * kn + 1) as f64;
            let k2 = (m * PI / side).powi(2) + (n * PI / side).powi(2);
            let coeff = -32.0 * omega * omega / (m * n * PI * PI * k2);
            p += coeff * sin_mx * sin_ny;
        }
    }
    rho * p
}

/// Build the square-patch initial conditions.
///
/// The returned system lives in `[0,L]×[0,L]×[0,Lz]` with `Lz` chosen so
/// the particle spacing is isotropic, is periodic along Z only, and
/// rotates rigidly about the square's axis.
pub fn square_patch(cfg: &SquarePatchConfig) -> ParticleSystem {
    assert!(cfg.nx >= 4 && cfg.nz >= 1);
    assert!(cfg.side > 0.0 && cfg.omega >= 0.0 && cfg.rho0 > 0.0);
    let spacing = cfg.side / cfg.nx as f64;
    let lz = spacing * cfg.nz as f64;
    let n = cfg.nx * cfg.nx * cfg.nz;

    let eos = IdealGas::new(cfg.gamma);
    // Background pressure keeps u positive where the series is negative.
    let p_back = cfg.background_pressure * cfg.rho0 * cfg.omega * cfg.omega * cfg.side * cfg.side;
    // The most negative series value is bounded by |P(centre)|; assert the
    // chosen background actually keeps pressure positive at the centre.
    let p_min = square_patch_pressure(
        cfg.side / 2.0,
        cfg.side / 2.0,
        cfg.side,
        cfg.rho0,
        cfg.omega,
        cfg.series_terms,
    );
    assert!(
        p_back + p_min > 0.0,
        "background pressure {p_back} does not cover the series minimum {p_min}"
    );

    let mut x = Vec::with_capacity(n);
    let mut v = Vec::with_capacity(n);
    let mut u = Vec::with_capacity(n);
    let half = cfg.side / 2.0;
    for iz in 0..cfg.nz {
        for iy in 0..cfg.nx {
            for ix in 0..cfg.nx {
                let px = (ix as f64 + 0.5) * spacing;
                let py = (iy as f64 + 0.5) * spacing;
                let pz = (iz as f64 + 0.5) * spacing;
                x.push(Vec3::new(px, py, pz));
                // Rigid rotation about the square axis (centre of the XY
                // plane): vx = ω(y−c), vy = −ω(x−c) — §5.1 eq. (1).
                v.push(Vec3::new(cfg.omega * (py - half), -cfg.omega * (px - half), 0.0));
            }
        }
    }
    // u depends on (x, y) only (§5.1: "the initial conditions are the
    // same for all layers"): evaluate the series once per lattice column
    // for the first layer, then copy that layer into the others.
    let layer = cfg.nx * cfg.nx;
    for p in &x[..layer] {
        let p0 = square_patch_pressure(p.x, p.y, cfg.side, cfg.rho0, cfg.omega, cfg.series_terms);
        u.push(eos.energy_from_pressure(cfg.rho0, p0 + p_back));
    }
    for _ in 1..cfg.nz {
        u.extend_from_within(..layer);
    }
    let mass = cfg.rho0 * cfg.side * cfg.side * lz / n as f64;
    let domain = Aabb::new(Vec3::ZERO, Vec3::new(cfg.side, cfg.side, lz));
    let per = Periodicity::periodic_z(domain);
    ParticleSystem::new(x, v, vec![mass; n], u, 1.6 * spacing, per)
}

/// Angular momentum about the patch axis (the conserved quantity the
/// Colagrossi test is scored on).
pub(crate) fn patch_angular_momentum(sys: &ParticleSystem, side: f64) -> f64 {
    let c = side / 2.0;
    (0..sys.len())
        .map(|i| {
            let (dx, dy) = (sys.x[i].x - c, sys.x[i].y - c);
            sys.m[i] * (dx * sys.v[i].y - dy * sys.v[i].x)
        })
        .sum()
}

/// The registered rotating-square-patch workload (paper Table 5, row 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct SquarePatchScenario;

impl SquarePatchScenario {
    fn cfg(&self, res: Resolution) -> SquarePatchConfig {
        SquarePatchConfig { nx: res.scaled(20, 10), nz: res.scaled(8, 4), ..Default::default() }
    }
}

impl Scenario for SquarePatchScenario {
    fn name(&self) -> &'static str {
        "square-patch"
    }

    fn reference(&self) -> &'static str {
        "Colagrossi 2005"
    }

    fn analytic_check(&self) -> &'static str {
        "Poisson-series pressure at t = 0; L_z and density retention over the run"
    }

    fn table5_row(&self) -> Option<ScenarioInfo> {
        Some(crate::registry::square_patch_table5_row())
    }

    fn init(&self, res: Resolution) -> ScenarioSetup {
        let cfg = self.cfg(res);
        let config = SphConfig {
            gamma: cfg.gamma,
            target_neighbors: 60,
            viscosity: ViscosityConfig { alpha: 1.0, beta: 2.0, eta2: 0.01, balsara: true },
            ..Default::default()
        };
        ScenarioSetup { sys: square_patch(&cfg), config, gravity: None }
    }

    fn end_time(&self) -> f64 {
        0.03
    }

    fn l1_tolerance(&self) -> f64 {
        0.05
    }

    fn track(&self, sys: &ParticleSystem) -> Option<f64> {
        Some(patch_angular_momentum(sys, self.cfg(Resolution::default()).side))
    }

    fn validate(&self, run: &ScenarioRun) -> ValidationReport {
        let cfg = self.cfg(Resolution::default());
        // Weakly compressible: the density must stay near ρ₀ in the
        // patch *interior*. The lateral faces are free surfaces, where
        // the truncated kernel support under-reads the density by
        // construction — those shells are excluded (inner 60 % × 60 %
        // of the cross-section, which stays inside the material for the
        // ωt ≲ 0.15 rad the validation run rotates).
        let rho0 = cfg.rho0;
        let c = cfg.side / 2.0;
        let interior = |i: usize| {
            (run.sys.x[i].x - c).abs() < 0.3 * cfg.side
                && (run.sys.x[i].y - c).abs() < 0.3 * cfg.side
        };
        let norms = crate::engine::density_error_norms(
            &run.sys,
            &|_| PrimitiveState { rho: rho0, p: 0.0, v: Vec3::ZERO },
            interior,
        );
        let lz0 = run.samples.first().map(|s| s.value).unwrap_or(0.0);
        let lz1 = run.samples.last().map(|s| s.value).unwrap_or(0.0);
        let lz_drift = if lz0 != 0.0 { ((lz1 - lz0) / lz0).abs() } else { f64::INFINITY };
        let momentum_scale = crate::engine::momentum_scale(&run.sys);
        let checks = vec![
            Check::upper("l1_density_error", norms.l1, self.l1_tolerance()),
            Check::upper("angular_momentum_drift", lz_drift, 1e-3),
            Check::upper("energy_drift", run.energy_drift(), 0.02),
        ];
        let metrics = vec![("l_z_initial", lz0), ("l_z_final", lz1)];
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
    use sph_math::SplitMix64;

    fn small() -> SquarePatchConfig {
        SquarePatchConfig { nx: 20, nz: 4, ..Default::default() }
    }

    /// The literal double series, two `sin` calls per term: the oracle
    /// for the separable [`square_patch_pressure`].
    fn square_patch_pressure_reference(
        x: f64,
        y: f64,
        side: f64,
        rho: f64,
        omega: f64,
        series_terms: usize,
    ) -> f64 {
        let mut p = 0.0;
        for km in 0..series_terms {
            let m = (2 * km + 1) as f64;
            for kn in 0..series_terms {
                let n = (2 * kn + 1) as f64;
                let k2 = (m * PI / side).powi(2) + (n * PI / side).powi(2);
                let coeff = -32.0 * omega * omega / (m * n * PI * PI * k2);
                p += coeff * (m * PI * x / side).sin() * (n * PI * y / side).sin();
            }
        }
        rho * p
    }

    /// The per-particle IC loop [`square_patch`] replaced: every particle
    /// evaluates the literal series at its own (x, y).
    fn square_patch_reference(cfg: &SquarePatchConfig) -> ParticleSystem {
        let spacing = cfg.side / cfg.nx as f64;
        let lz = spacing * cfg.nz as f64;
        let n = cfg.nx * cfg.nx * cfg.nz;
        let eos = IdealGas::new(cfg.gamma);
        let p_back =
            cfg.background_pressure * cfg.rho0 * cfg.omega * cfg.omega * cfg.side * cfg.side;
        let mut x = Vec::with_capacity(n);
        let mut v = Vec::with_capacity(n);
        let mut u = Vec::with_capacity(n);
        let half = cfg.side / 2.0;
        for iz in 0..cfg.nz {
            for iy in 0..cfg.nx {
                for ix in 0..cfg.nx {
                    let px = (ix as f64 + 0.5) * spacing;
                    let py = (iy as f64 + 0.5) * spacing;
                    let pz = (iz as f64 + 0.5) * spacing;
                    x.push(Vec3::new(px, py, pz));
                    v.push(Vec3::new(cfg.omega * (py - half), -cfg.omega * (px - half), 0.0));
                    let p0 = square_patch_pressure_reference(
                        px,
                        py,
                        cfg.side,
                        cfg.rho0,
                        cfg.omega,
                        cfg.series_terms,
                    );
                    u.push(eos.energy_from_pressure(cfg.rho0, p0 + p_back));
                }
            }
        }
        let mass = cfg.rho0 * cfg.side * cfg.side * lz / n as f64;
        let domain = Aabb::new(Vec3::ZERO, Vec3::new(cfg.side, cfg.side, lz));
        let per = Periodicity::periodic_z(domain);
        ParticleSystem::new(x, v, vec![mass; n], u, 1.6 * spacing, per)
    }

    fn bits(v: &[Vec3]) -> Vec<[u64; 3]> {
        v.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
    }

    fn scalar_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    #[test]
    fn ic_is_bit_identical_to_the_per_particle_oracle() {
        for (nx, nz, series_terms) in [(4, 1, 1), (7, 3, 5), (20, 8, 20)] {
            let cfg = SquarePatchConfig { nx, nz, series_terms, ..Default::default() };
            let (got, want) = (square_patch(&cfg), square_patch_reference(&cfg));
            let case = format!("nx {nx}, nz {nz}, series_terms {series_terms}");
            assert_eq!(bits(&got.x), bits(&want.x), "x differs at {case}");
            assert_eq!(bits(&got.v), bits(&want.v), "v differs at {case}");
            assert_eq!(scalar_bits(&got.u), scalar_bits(&want.u), "u differs at {case}");
            assert_eq!(scalar_bits(&got.m), scalar_bits(&want.m), "m differs at {case}");
            assert_eq!(scalar_bits(&got.h), scalar_bits(&want.h), "h differs at {case}");
        }
    }

    #[test]
    fn pressure_is_bit_identical_to_the_literal_series() {
        let same = |x: f64, y: f64, side: f64, omega: f64, terms: usize| {
            let got = square_patch_pressure(x, y, side, 1.3, omega, terms);
            let want = square_patch_pressure_reference(x, y, side, 1.3, omega, terms);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "P({x}, {y}) with side {side}, ω {omega}, {terms} terms: {got} vs {want}"
            );
        };
        // Every lattice coordinate the IC cases above evaluate.
        for (nx, terms) in [(4, 1), (7, 5), (20, 20), (20, 30)] {
            let spacing = 1.0 / nx as f64;
            for iy in 0..nx {
                for ix in 0..nx {
                    same((ix as f64 + 0.5) * spacing, (iy as f64 + 0.5) * spacing, 1.0, 5.0, terms);
                }
            }
        }
        // Seeded random points, sides and term counts, up to 30 terms.
        let mut rng = SplitMix64::new(20180911);
        for _ in 0..1000 {
            let side = rng.uniform(0.5, 3.0);
            let (x, y) = (rng.uniform(0.0, side), rng.uniform(0.0, side));
            let terms = 1 + rng.next_below(30) as usize;
            same(x, y, side, rng.uniform(0.0, 8.0), terms);
        }
    }

    #[test]
    fn particle_count_and_mass() {
        let cfg = small();
        let sys = square_patch(&cfg);
        assert_eq!(sys.len(), 20 * 20 * 4);
        // Total mass = ρ·V.
        let lz = cfg.side / 20.0 * 4.0;
        let expected = cfg.rho0 * cfg.side * cfg.side * lz;
        assert!((sys.total_mass() - expected).abs() < 1e-12);
    }

    #[test]
    fn velocity_is_rigid_rotation() {
        let cfg = small();
        let sys = square_patch(&cfg);
        let c = cfg.side / 2.0;
        for i in 0..sys.len() {
            let d = Vec3::new(sys.x[i].x - c, sys.x[i].y - c, 0.0);
            // |v| = ω·r and v ⟂ r.
            assert!((sys.v[i].norm() - cfg.omega * d.norm()).abs() < 1e-12);
            assert!(sys.v[i].dot(d).abs() < 1e-12);
            assert_eq!(sys.v[i].z, 0.0);
        }
    }

    #[test]
    fn pressure_series_solves_poisson_equation() {
        // ∇²P = 2ρω² in the interior (checked by finite differences) and
        // P = 0 on the lateral boundary.
        let (side, rho, omega, terms) = (1.0, 1.0, 5.0, 200);
        let p = |x: f64, y: f64| square_patch_pressure(x, y, side, rho, omega, terms);
        let h = 1e-4;
        for &(x, y) in &[(0.3, 0.4), (0.5, 0.5), (0.7, 0.2), (0.25, 0.75)] {
            let lap =
                (p(x + h, y) + p(x - h, y) + p(x, y + h) + p(x, y - h) - 4.0 * p(x, y)) / (h * h);
            let expected = 2.0 * rho * omega * omega;
            assert!(
                (lap - expected).abs() < 0.02 * expected,
                "∇²P = {lap} at ({x},{y}), expected {expected}"
            );
        }
        // Boundary values vanish.
        assert!(p(0.0, 0.5).abs() < 1e-12);
        assert!(p(1.0, 0.3).abs() < 1e-12);
        assert!(p(0.4, 0.0).abs() < 1e-12);
    }

    #[test]
    fn pressure_series_is_negative_at_centre() {
        // The negative-pressure region driving the tensile instability.
        let p = square_patch_pressure(0.5, 0.5, 1.0, 1.0, 5.0, 30);
        assert!(p < 0.0, "centre pressure {p} should be negative");
        // Known scale: |P(centre)| ≈ 0.589·ρω²L²/(2π²)·… — just pin the
        // magnitude window to catch regressions.
        assert!(p > -2.0 * 25.0 && p < -0.1, "centre pressure {p} out of window");
    }

    #[test]
    fn internal_energy_is_positive_everywhere() {
        let sys = square_patch(&small());
        assert!(sys.u.iter().all(|&u| u > 0.0));
        assert!(sys.sanity_check().is_ok());
    }

    #[test]
    fn periodic_in_z_only() {
        let sys = square_patch(&small());
        assert_eq!(sys.periodicity.periodic, [false, false, true]);
        // Domain height matches the extruded layers.
        let lz = sys.periodicity.domain.extent().z;
        assert!((lz - 1.0 / 20.0 * 4.0).abs() < 1e-12);
    }

    #[test]
    fn layers_are_identical() {
        // IC depends only on x, y (§5.1: "the initial conditions are the
        // same for all layers").
        let cfg = small();
        let sys = square_patch(&cfg);
        let per_layer = cfg.nx * cfg.nx;
        for i in 0..per_layer {
            for layer in 1..cfg.nz {
                let j = layer * per_layer + i;
                assert_eq!(sys.v[i], sys.v[j]);
                assert_eq!(sys.u[i], sys.u[j]);
                assert_eq!(sys.x[i].x, sys.x[j].x);
                assert_eq!(sys.x[i].y, sys.x[j].y);
            }
        }
    }

    #[test]
    #[should_panic]
    fn insufficient_background_pressure_is_rejected() {
        let cfg = SquarePatchConfig { background_pressure: 0.0, ..small() };
        let _ = square_patch(&cfg);
    }

    #[test]
    fn angular_momentum_matches_rigid_body() {
        // L_z of a rigidly rotating square patch: I·ω with
        // I = ∫ρ r² dV = ρ Lz ∫∫ (x²+y²) dx dy = ρ Lz L⁴/6 about the axis.
        let cfg = SquarePatchConfig { nx: 40, nz: 4, ..Default::default() };
        let sys = square_patch(&cfg);
        let c = Vec3::new(cfg.side / 2.0, cfg.side / 2.0, 0.0);
        let mut lz = 0.0;
        for i in 0..sys.len() {
            let d = sys.x[i] - c;
            lz += sys.m[i] * (d.x * sys.v[i].y - d.y * sys.v[i].x);
        }
        let height = cfg.side / cfg.nx as f64 * cfg.nz as f64;
        let inertia = cfg.rho0 * height * cfg.side.powi(4) / 6.0;
        let expected = -inertia * cfg.omega; // vx=ωy, vy=−ωx spins clockwise
        assert!((lz - expected).abs() < 0.01 * expected.abs(), "L_z = {lz}, rigid body {expected}");
    }
}
