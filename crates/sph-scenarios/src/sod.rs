//! Sod shock tube (Sod 1978) as a 3-D periodic slab, with the exact
//! Riemann solution as the analytic reference.
//!
//! The tube is realised as a *mirrored double tube*: the left state
//! fills `x ∈ [0, 1)`, the right state `x ∈ [1, 2)`, and the domain is
//! periodic in x — so there are two Riemann problems, one at `x = 1`
//! and its mirror image at `x = 0 ≡ 2`. Until their wave fans meet
//! (far beyond the validation time) each interface evolves exactly like
//! an isolated tube, and no wall boundary condition is needed. The y/z
//! cross-section is a thin periodic slab.
//!
//! Particles carry **equal masses**: the 8:1 density ratio is realised
//! by a 2:1 lattice-spacing ratio, which keeps the smoothing-length
//! iteration symmetric across the contact (the configuration Table 1
//! lists as "equal mass").
//!
//! The reference is the exact solution of the Riemann problem for an
//! ideal gas (Toro 2009, ch. 4): pressure in the star region from
//! Newton iteration on the pressure function, then self-similar
//! sampling in ξ = (x − x₀)/t.

use crate::engine::momentum_scale;
use crate::engine::{
    Check, PrimitiveState, Resolution, Scenario, ScenarioRun, ScenarioSetup, ValidationReport,
};
use sph_core::config::{SphConfig, ViscosityConfig};
use sph_core::particles::ParticleSystem;
use sph_math::{Aabb, Periodicity, Vec3};

// ---------------------------------------------------------------------
// Exact Riemann solver (Toro 2009, ch. 4)
// ---------------------------------------------------------------------

/// One side of a Riemann problem (velocity is the x-component).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RiemannState {
    pub rho: f64,
    pub p: f64,
    pub v: f64,
}

/// A 1-D two-state Riemann problem for an ideal gas.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RiemannProblem {
    pub left: RiemannState,
    pub right: RiemannState,
    pub gamma: f64,
}

/// Solved star-region state; sampling gives the full self-similar fan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RiemannSolution {
    problem: RiemannProblem,
    /// Star-region pressure.
    pub p_star: f64,
    /// Star-region (contact) velocity.
    pub v_star: f64,
}

/// Toro's pressure function `f_K(p)` and its derivative for one side.
fn pressure_fn(p: f64, s: &RiemannState, gamma: f64) -> (f64, f64) {
    let cs = (gamma * s.p / s.rho).sqrt();
    if p > s.p {
        // Shock branch.
        let a = 2.0 / ((gamma + 1.0) * s.rho);
        let b = (gamma - 1.0) / (gamma + 1.0) * s.p;
        let q = (a / (p + b)).sqrt();
        let f = (p - s.p) * q;
        let df = q * (1.0 - (p - s.p) / (2.0 * (p + b)));
        (f, df)
    } else {
        // Rarefaction branch.
        let pr = p / s.p;
        let f = 2.0 * cs / (gamma - 1.0) * (pr.powf((gamma - 1.0) / (2.0 * gamma)) - 1.0);
        let df = 1.0 / (s.rho * cs) * pr.powf(-(gamma + 1.0) / (2.0 * gamma));
        (f, df)
    }
}

impl RiemannProblem {
    /// Solve for the star-region pressure and velocity (Newton–Raphson
    /// on the pressure function; converges quadratically from the
    /// two-rarefaction guess for any physical states).
    pub(crate) fn solve(&self) -> RiemannSolution {
        let (l, r, g) = (self.left, self.right, self.gamma);
        assert!(l.rho > 0.0 && r.rho > 0.0 && l.p > 0.0 && r.p > 0.0 && g > 1.0);
        let dv = r.v - l.v;
        // Two-rarefaction initial guess — positive and smooth.
        let cl = (g * l.p / l.rho).sqrt();
        let cr = (g * r.p / r.rho).sqrt();
        let z = (g - 1.0) / (2.0 * g);
        let mut p = ((cl + cr - 0.5 * (g - 1.0) * dv) / (cl / l.p.powf(z) + cr / r.p.powf(z)))
            .powf(1.0 / z);
        if !p.is_finite() || p <= 0.0 {
            p = 0.5 * (l.p + r.p);
        }
        for _ in 0..64 {
            let (fl, dfl) = pressure_fn(p, &l, g);
            let (fr, dfr) = pressure_fn(p, &r, g);
            let f = fl + fr + dv;
            let step = f / (dfl + dfr);
            let next = (p - step).max(1e-14 * p);
            if ((next - p) / p).abs() < 1e-14 {
                p = next;
                break;
            }
            p = next;
        }
        let (fl, _) = pressure_fn(p, &l, g);
        let (fr, _) = pressure_fn(p, &r, g);
        let v_star = 0.5 * (l.v + r.v) + 0.5 * (fr - fl);
        RiemannSolution { problem: *self, p_star: p, v_star }
    }
}

impl RiemannSolution {
    /// Sample the self-similar solution at `xi = (x − x₀)/t`.
    pub(crate) fn sample(&self, xi: f64) -> RiemannState {
        let (l, r, g) = (self.problem.left, self.problem.right, self.problem.gamma);
        let (p_star, v_star) = (self.p_star, self.v_star);
        let gm = g - 1.0;
        let gp = g + 1.0;
        if xi <= v_star {
            // Left of the contact.
            let cl = (g * l.p / l.rho).sqrt();
            if p_star > l.p {
                // Left shock.
                let s = l.v - cl * (gp / (2.0 * g) * p_star / l.p + gm / (2.0 * g)).sqrt();
                if xi <= s {
                    l
                } else {
                    let rho = l.rho * (p_star / l.p + gm / gp) / (gm / gp * p_star / l.p + 1.0);
                    RiemannState { rho, p: p_star, v: v_star }
                }
            } else {
                // Left rarefaction.
                let c_star = cl * (p_star / l.p).powf(gm / (2.0 * g));
                let head = l.v - cl;
                let tail = v_star - c_star;
                if xi <= head {
                    l
                } else if xi >= tail {
                    let rho = l.rho * (p_star / l.p).powf(1.0 / g);
                    RiemannState { rho, p: p_star, v: v_star }
                } else {
                    let v = 2.0 / gp * (cl + gm / 2.0 * l.v + xi);
                    let c = 2.0 / gp * (cl + gm / 2.0 * (l.v - xi));
                    let rho = l.rho * (c / cl).powf(2.0 / gm);
                    let p = l.p * (c / cl).powf(2.0 * g / gm);
                    RiemannState { rho, p, v }
                }
            }
        } else {
            // Right of the contact (mirror formulas).
            let cr = (g * r.p / r.rho).sqrt();
            if p_star > r.p {
                // Right shock.
                let s = r.v + cr * (gp / (2.0 * g) * p_star / r.p + gm / (2.0 * g)).sqrt();
                if xi >= s {
                    r
                } else {
                    let rho = r.rho * (p_star / r.p + gm / gp) / (gm / gp * p_star / r.p + 1.0);
                    RiemannState { rho, p: p_star, v: v_star }
                }
            } else {
                // Right rarefaction.
                let c_star = cr * (p_star / r.p).powf(gm / (2.0 * g));
                let head = r.v + cr;
                let tail = v_star + c_star;
                if xi >= head {
                    r
                } else if xi <= tail {
                    let rho = r.rho * (p_star / r.p).powf(1.0 / g);
                    RiemannState { rho, p: p_star, v: v_star }
                } else {
                    let v = 2.0 / gp * (-cr + gm / 2.0 * r.v + xi);
                    let c = 2.0 / gp * (cr - gm / 2.0 * (r.v - xi));
                    let rho = r.rho * (c / cr).powf(2.0 / gm);
                    let p = r.p * (c / cr).powf(2.0 * g / gm);
                    RiemannState { rho, p, v }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Initial conditions
// ---------------------------------------------------------------------

/// Sod-tube configuration. The classic states are the defaults.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SodConfig {
    /// Lattice cells per unit length on the dense (left) side; must be
    /// even so the 2:1-spaced right side tiles exactly.
    pub nx: usize,
    /// Slab thickness in *left* cells; must be even for the same reason.
    pub slab_cells: usize,
    pub left: RiemannState,
    pub right: RiemannState,
    pub gamma: f64,
}

impl Default for SodConfig {
    fn default() -> Self {
        SodConfig {
            nx: 40,
            slab_cells: 8,
            left: RiemannState { rho: 1.0, p: 1.0, v: 0.0 },
            right: RiemannState { rho: 0.125, p: 0.1, v: 0.0 },
            gamma: 1.4,
        }
    }
}

/// Build the mirrored-double-tube initial conditions: left state over
/// `x ∈ [0, 1)`, right state over `x ∈ [1, 2)`, fully periodic.
pub(crate) fn sod_tube(cfg: &SodConfig) -> ParticleSystem {
    assert!(cfg.nx >= 8 && cfg.nx.is_multiple_of(2), "nx must be even and ≥ 8");
    assert!(cfg.slab_cells >= 4 && cfg.slab_cells.is_multiple_of(2));
    assert!(
        (cfg.left.rho / cfg.right.rho - 8.0).abs() < 1e-12,
        "the equal-mass lattice construction requires the classic 8:1 density ratio"
    );
    let dl = 1.0 / cfg.nx as f64;
    let dr = 2.0 * dl;
    let thickness = cfg.slab_cells as f64 * dl;
    let m = cfg.left.rho * dl * dl * dl;

    let mut x = Vec::new();
    let mut h = Vec::new();
    let mut u = Vec::new();
    let mut v = Vec::new();
    let gm1 = cfg.gamma - 1.0;
    // Left half: x ∈ [0, 1).
    for ix in 0..cfg.nx {
        for iy in 0..cfg.slab_cells {
            for iz in 0..cfg.slab_cells {
                x.push(Vec3::new(
                    (ix as f64 + 0.5) * dl,
                    (iy as f64 + 0.5) * dl,
                    (iz as f64 + 0.5) * dl,
                ));
                h.push(1.6 * dl);
                u.push(cfg.left.p / (gm1 * cfg.left.rho));
                v.push(Vec3::new(cfg.left.v, 0.0, 0.0));
            }
        }
    }
    // Right half: x ∈ [1, 2) at double spacing (equal particle mass).
    for ix in 0..cfg.nx / 2 {
        for iy in 0..cfg.slab_cells / 2 {
            for iz in 0..cfg.slab_cells / 2 {
                x.push(Vec3::new(
                    1.0 + (ix as f64 + 0.5) * dr,
                    (iy as f64 + 0.5) * dr,
                    (iz as f64 + 0.5) * dr,
                ));
                h.push(1.6 * dr);
                u.push(cfg.right.p / (gm1 * cfg.right.rho));
                v.push(Vec3::new(cfg.right.v, 0.0, 0.0));
            }
        }
    }
    let n = x.len();
    let domain = Aabb::new(Vec3::ZERO, Vec3::new(2.0, thickness, thickness));
    let mut sys =
        ParticleSystem::new(x, v, vec![m; n], u, 1.6 * dl, Periodicity::fully_periodic(domain));
    sys.h = h; // per-side initial guess, so the h iteration starts near
    sys
}

/// Full-domain analytic profile of the double tube at time `t`: each
/// position is sampled from its nearest interface's fan (exact until
/// the fans meet, far beyond the validation time).
pub(crate) fn sod_profile(cfg: SodConfig, t: f64) -> impl Fn(Vec3) -> PrimitiveState {
    let main = RiemannProblem { left: cfg.left, right: cfg.right, gamma: cfg.gamma }.solve();
    // The mirror interface at x = 0 ≡ 2 sees the right state on its left
    // and the left state on its right.
    let mirror = RiemannProblem { left: cfg.right, right: cfg.left, gamma: cfg.gamma }.solve();
    move |p: Vec3| {
        let x = p.x;
        let (sol, x0) = if (x - 1.0).abs() <= 0.5 {
            (&main, 1.0)
        } else if x < 0.5 {
            (&mirror, 0.0)
        } else {
            (&mirror, 2.0)
        };
        let s = if t > 0.0 {
            sol.sample((x - x0) / t)
        } else if (x - 1.0).abs() <= 0.5 {
            if x < 1.0 {
                cfg.left
            } else {
                cfg.right
            }
        } else if x < 0.5 {
            cfg.left
        } else {
            cfg.right
        };
        PrimitiveState { rho: s.rho, p: s.p, v: Vec3::new(s.v, 0.0, 0.0) }
    }
}

/// The registered Sod workload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SodScenario;

impl SodScenario {
    fn cfg(&self, res: Resolution) -> SodConfig {
        // Keep nx and the slab even at every scale.
        let nx = (res.scaled(20, 6) * 2).max(8);
        let slab = (res.scaled(4, 2) * 2).max(4);
        SodConfig { nx, slab_cells: slab, ..Default::default() }
    }

    /// The particles the error norm is taken over: the full fan of the
    /// main interface, excluding everything the mirror interface's
    /// waves can reach by the validation time.
    fn window(x: f64) -> bool {
        (x - 1.0).abs() <= 0.55
    }
}

impl Scenario for SodScenario {
    fn name(&self) -> &'static str {
        "sod"
    }

    fn reference(&self) -> &'static str {
        "Sod 1978"
    }

    fn analytic_check(&self) -> &'static str {
        "L1 density error vs the exact Riemann solution < 0.05"
    }

    fn init(&self, res: Resolution) -> ScenarioSetup {
        let cfg = self.cfg(res);
        let config = SphConfig {
            gamma: cfg.gamma,
            target_neighbors: 60,
            viscosity: ViscosityConfig { alpha: 1.0, beta: 2.0, eta2: 0.01, balsara: true },
            ..Default::default()
        };
        ScenarioSetup { sys: sod_tube(&cfg), config, gravity: None }
    }

    fn end_time(&self) -> f64 {
        0.2
    }

    fn l1_tolerance(&self) -> f64 {
        0.05
    }

    fn validate(&self, run: &ScenarioRun) -> ValidationReport {
        let cfg = self.cfg(Resolution::default());
        let profile = sod_profile(cfg, run.sys.time);
        let norms = crate::engine::density_error_norms(&run.sys, &profile, |i| {
            Self::window(run.sys.x[i].x)
        });
        let momentum_scale = momentum_scale(&run.sys);
        let checks = vec![
            Check::upper("l1_density_error", norms.l1, self.l1_tolerance()),
            Check::upper("energy_drift", run.energy_drift(), 0.02),
        ];
        let sol = RiemannProblem { left: cfg.left, right: cfg.right, gamma: cfg.gamma }.solve();
        let metrics = vec![("p_star_exact", sol.p_star), ("v_star_exact", sol.v_star)];
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

    fn classic() -> RiemannProblem {
        RiemannProblem {
            left: RiemannState { rho: 1.0, p: 1.0, v: 0.0 },
            right: RiemannState { rho: 0.125, p: 0.1, v: 0.0 },
            gamma: 1.4,
        }
    }

    #[test]
    fn classic_sod_star_state_matches_literature() {
        // Toro 2009, Table 4.2 (test 1): p* = 0.30313, u* = 0.92745.
        let sol = classic().solve();
        assert!((sol.p_star - 0.30313).abs() < 1e-4, "p* = {}", sol.p_star);
        assert!((sol.v_star - 0.92745).abs() < 1e-4, "u* = {}", sol.v_star);
    }

    #[test]
    fn sampled_densities_match_literature() {
        // Star densities of the classic tube: ρ*L ≈ 0.42632 (rarefaction
        // side), ρ*R ≈ 0.26557 (shock side).
        let sol = classic().solve();
        let just_left = sol.sample(sol.v_star - 1e-9);
        let just_right = sol.sample(sol.v_star + 1e-9);
        assert!((just_left.rho - 0.42632).abs() < 1e-4, "ρ*L = {}", just_left.rho);
        assert!((just_right.rho - 0.26557).abs() < 1e-4, "ρ*R = {}", just_right.rho);
        // Far field recovers the inputs.
        assert_eq!(sol.sample(-10.0), classic().left);
        assert_eq!(sol.sample(10.0), classic().right);
    }

    #[test]
    fn solution_is_continuous_across_the_rarefaction() {
        let sol = classic().solve();
        let cl = (1.4f64).sqrt();
        let head = -cl;
        let a = sol.sample(head - 1e-9);
        let b = sol.sample(head + 1e-9);
        assert!((a.rho - b.rho).abs() < 1e-6);
        assert!((a.v - b.v).abs() < 1e-6);
    }

    #[test]
    fn symmetric_states_give_zero_contact_velocity() {
        let s = RiemannState { rho: 1.0, p: 1.0, v: 0.0 };
        let sol = RiemannProblem { left: s, right: s, gamma: 1.4 }.solve();
        assert!((sol.v_star).abs() < 1e-12);
        assert!((sol.p_star - 1.0).abs() < 1e-10);
    }

    #[test]
    fn tube_construction_is_equal_mass_and_sane() {
        let cfg = SodConfig { nx: 16, slab_cells: 4, ..Default::default() };
        let sys = sod_tube(&cfg);
        assert!(sys.sanity_check().is_ok());
        // Equal masses by construction.
        let m0 = sys.m[0];
        assert!(sys.m.iter().all(|&m| (m - m0).abs() < 1e-18));
        // Total mass = ρL·V_left + ρR·V_right.
        let thick = 4.0 / 16.0;
        let want = (1.0 * 1.0 + 0.125 * 1.0) * thick * thick;
        assert!((sys.total_mass() - want).abs() < 1e-12, "M = {}", sys.total_mass());
        // 8:1 particle-count ratio between the halves.
        let left = sys.x.iter().filter(|p| p.x < 1.0).count();
        let right = sys.len() - left;
        assert_eq!(left, 8 * right);
    }

    #[test]
    fn profile_at_t0_is_the_initial_jump() {
        let cfg = SodConfig::default();
        let f = sod_profile(cfg, 0.0);
        assert_eq!(f(Vec3::new(0.5, 0.0, 0.0)).rho, 1.0);
        assert_eq!(f(Vec3::new(1.5, 0.0, 0.0)).rho, 0.125);
    }

    #[test]
    fn mirror_interface_produces_the_mirrored_fan() {
        // At t = 0.1 the mirror shock (travelling in −x from x = 2)
        // must have the same speed as the main shock (travelling +x).
        let cfg = SodConfig::default();
        let t = 0.1;
        let f = sod_profile(cfg, t);
        let sol = RiemannProblem { left: cfg.left, right: cfg.right, gamma: cfg.gamma }.solve();
        // Shock position from the sampled solution: density jumps at
        // x = 1 + s·t; probe just inside/outside.
        let g = cfg.gamma;
        let s_speed = cfg.right.v
            + (g * cfg.right.p / cfg.right.rho).sqrt()
                * ((g + 1.0) / (2.0 * g) * sol.p_star / cfg.right.p + (g - 1.0) / (2.0 * g)).sqrt();
        let main_in = f(Vec3::new(1.0 + s_speed * t - 1e-6, 0.0, 0.0)).rho;
        let mirror_in = f(Vec3::new(2.0 - s_speed * t + 1e-6, 0.0, 0.0)).rho;
        assert!((main_in - mirror_in).abs() < 1e-9, "{main_in} vs {mirror_in}");
    }
}
