//! The Evrard collapse (§5.1, Table 5): the astrophysics validation test
//! with self-gravity, run on the SPHYNX configuration.
//!
//! ```text
//! cargo run --release --example evrard_collapse
//! cargo run --release --example evrard_collapse -- 8000   # particle target
//! ```
//!
//! Tracks the energy ledger of the collapse: the cold cloud (u₀ = 0.05,
//! |W₀| = 2/3 ≫ U₀) falls in, converting gravitational energy into kinetic
//! energy and then — through the central shock — into heat, while the
//! total stays (approximately) conserved.

use sph_exa_repro::exa::SimulationBuilder;
use sph_exa_repro::scenarios::evrard::evrard_gravitational_energy;
use sph_exa_repro::scenarios::parents::sphynx;
use sph_exa_repro::scenarios::{evrard_collapse, EvrardConfig};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(5_000);
    let setup = sphynx();
    let cfg = EvrardConfig { n_target: n, ..Default::default() };
    let sys = evrard_collapse(&cfg);
    println!(
        "Evrard collapse: {} particles, R = M = G = 1, u0 = {}, γ = 5/3, code = {}",
        sys.len(),
        cfg.u0,
        setup.name
    );
    println!(
        "analytic initial gravitational energy: W0 = −2GM²/3R = {:.4}",
        evrard_gravitational_energy(cfg.mass, cfg.radius, 1.0)
    );

    let mut sim = SimulationBuilder::new(sys)
        .config(setup.sph)
        .gravity(setup.gravity.expect("SPHYNX has gravity"))
        .build()
        .expect("valid setup");

    // First derivative evaluation populates the measured potentials.
    sim.step().expect("stable step");
    let c0 = sim.conservation();
    println!(
        "measured  initial gravitational energy: W  = {:.4} (tree, quadrupole, θ = {})\n",
        c0.gravitational_energy,
        setup.gravity.unwrap().theta
    );

    println!("step    time     kinetic   internal    gravit.   total     central ρ");
    for step in 1..=20 {
        sim.step().expect("stable step");
        if step % 2 == 0 {
            let c = sim.conservation();
            let rho_c = central_density(&sim);
            println!(
                "{step:4}  {:7.4}  {:8.5}  {:9.5}  {:9.5}  {:8.5}  {:9.3}",
                sim.sys.time,
                c.kinetic_energy,
                c.internal_energy,
                c.gravitational_energy,
                c.total_energy(),
                rho_c
            );
        }
    }
    let c1 = sim.conservation();
    println!("\nthe collapse so far:");
    println!("  kinetic energy grew  {:.4} → {:.4}", c0.kinetic_energy, c1.kinetic_energy);
    println!(
        "  potential deepened   {:.4} → {:.4}",
        c0.gravitational_energy, c1.gravitational_energy
    );
    println!("  total energy drift   {:.2e}", c1.energy_drift(&c0));
}

fn central_density(sim: &sph_exa_repro::exa::Simulation) -> f64 {
    let sys = &sim.sys;
    let core: Vec<f64> =
        (0..sys.len()).filter(|&i| sys.x[i].norm() < 0.1).map(|i| sys.rho[i]).collect();
    if core.is_empty() {
        f64::NAN
    } else {
        core.iter().sum::<f64>() / core.len() as f64
    }
}
