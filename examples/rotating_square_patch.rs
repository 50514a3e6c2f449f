//! The rotating square patch (§5.1, Table 5): the CFD validation test all
//! three parent codes ran.
//!
//! ```text
//! cargo run --release --example rotating_square_patch
//! cargo run --release --example rotating_square_patch -- 40   # nx = nz = 40
//! ```
//!
//! Runs 20 time-steps (the paper's simulation length) of the Colagrossi
//! test on the SPH-flow configuration and reports the diagnostics the test
//! is used for: angular-momentum conservation, the negative-pressure
//! fraction driving the tensile instability, and density scatter.

use sph_exa_repro::exa::SimulationBuilder;
use sph_exa_repro::math::Vec3;
use sph_exa_repro::scenarios::parents::sphflow;
use sph_exa_repro::scenarios::{square_patch, SquarePatchConfig};

fn main() {
    let nx: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(24);
    let setup = sphflow();
    let cfg = SquarePatchConfig { nx, nz: nx, gamma: setup.sph.gamma, ..Default::default() };
    let sys = square_patch(&cfg);
    println!(
        "rotating square patch: {}×{}×{} = {} particles, ω = {} rad/s, 20 steps, code = {}",
        cfg.nx,
        cfg.nx,
        cfg.nz,
        sys.len(),
        cfg.omega,
        setup.name
    );

    let mut sim = SimulationBuilder::new(sys).config(setup.sph).build().expect("valid setup");
    let c0 = sim.conservation();
    let axis = Vec3::new(cfg.side / 2.0, cfg.side / 2.0, 0.0);
    let lz0 = angular_momentum_z(&sim, axis);

    // The ideal-gas setup carries a uniform background pressure (it adds
    // no force); the tensile-instability indicator is pressure *below*
    // that background, i.e. the physically negative region of the
    // Colagrossi solution.
    let p_back = cfg.background_pressure * cfg.rho0 * cfg.omega * cfg.omega * cfg.side * cfg.side;
    println!("\nstep     dt       time     Lz/Lz0    P<Pback    max|ρ-ρ0|/ρ0");
    for step in 1..=20 {
        sim.step().expect("stable step");
        let neg_p = sim.sys.p.iter().filter(|&&p| p < p_back).count() as f64 / sim.sys.len() as f64;
        let max_drho =
            sim.sys.rho.iter().map(|&r| (r - cfg.rho0).abs() / cfg.rho0).fold(0.0, f64::max);
        let lz = angular_momentum_z(&sim, axis);
        if step % 2 == 0 {
            println!(
                "{step:4}  {:8.2e}  {:7.4}  {:8.5}  {:9.4}  {:12.4}",
                sim.dt_report(),
                sim.sys.time,
                lz / lz0,
                neg_p,
                max_drho
            );
        }
    }

    let c1 = sim.conservation();
    println!("\nconservation over 20 steps:");
    println!("  energy drift    {:.3e}", c1.energy_drift(&c0));
    println!("  angular momentum ratio {:.6}", angular_momentum_z(&sim, axis) / lz0);
    println!(
        "  the free surface survives: {} of {} particles stayed within 1.5 side lengths",
        sim.sys.x.iter().filter(|p| (p.x - 0.5).abs() < 1.5 && (p.y - 0.5).abs() < 1.5).count(),
        sim.sys.len()
    );
}

fn angular_momentum_z(sim: &sph_exa_repro::exa::Simulation, axis: Vec3) -> f64 {
    let sys = &sim.sys;
    (0..sys.len())
        .map(|i| {
            let d = sys.x[i] - axis;
            sys.m[i] * (d.x * sys.v[i].y - d.y * sys.v[i].x)
        })
        .sum()
}

/// Tiny helper trait so the example can show the last dt.
trait DtReport {
    fn dt_report(&self) -> f64;
}

impl DtReport for sph_exa_repro::exa::Simulation {
    fn dt_report(&self) -> f64 {
        // The simulation exposes time and step count; derive a mean dt.
        if self.sys.step_count > 0 {
            self.sys.time / self.sys.step_count as f64
        } else {
            0.0
        }
    }
}
