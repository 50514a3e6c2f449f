//! Integration: the Evrard collapse (§5.1) under the astrophysics
//! configurations — self-gravity, energy ledger, collapse dynamics.

use sph_exa_repro::core::diagnostics::state_fingerprint;
use sph_exa_repro::exa::{DistributedBuilder, SimulationBuilder};
use sph_exa_repro::scenarios::evrard::evrard_gravitational_energy;
use sph_exa_repro::scenarios::parents::{changa, sphynx};
use sph_exa_repro::scenarios::{evrard_collapse, EvrardConfig};

fn build(n: usize) -> sph_exa_repro::core::ParticleSystem {
    evrard_collapse(&EvrardConfig { n_target: n, ..Default::default() })
}

#[test]
fn measured_potential_matches_analytic_profile() {
    // W of the ρ ∝ 1/r sphere is −2GM²/(3R); the tree-measured value on a
    // finite softened particle realisation must land within a few percent.
    let setup = sphynx();
    let sys = build(4000);
    let mut sim = SimulationBuilder::new(sys)
        .config(setup.sph)
        .gravity(setup.gravity.unwrap())
        .build()
        .unwrap();
    let all: Vec<u32> = (0..sim.sys.len() as u32).collect();
    sim.evaluate_derivatives(&all);
    let c = sim.conservation();
    let w_analytic = evrard_gravitational_energy(1.0, 1.0, 1.0);
    let rel = ((c.gravitational_energy - w_analytic) / w_analytic).abs();
    assert!(
        rel < 0.05,
        "W measured {} vs analytic {w_analytic} (rel {rel})",
        c.gravitational_energy
    );
}

#[test]
fn cold_cloud_collapses_and_conserves_energy() {
    let setup = sphynx();
    let sys = build(3000);
    let mut sim = SimulationBuilder::new(sys)
        .config(setup.sph)
        .gravity(setup.gravity.unwrap())
        .build()
        .unwrap();
    sim.step().expect("stable step");
    let c0 = sim.conservation();
    let r0 = mean_radius(&sim.sys);
    for _ in 0..8 {
        sim.step().expect("stable step");
    }
    let c1 = sim.conservation();
    let r1 = mean_radius(&sim.sys);
    assert!(r1 < r0, "cloud must contract: ⟨r⟩ {r0} → {r1}");
    assert!(c1.kinetic_energy > c0.kinetic_energy, "infall must gain kinetic energy");
    assert!(c1.gravitational_energy < c0.gravitational_energy, "potential must deepen");
    assert!(c1.energy_drift(&c0) < 0.02, "energy drift {}", c1.energy_drift(&c0));
    assert!(sim.sys.sanity_check().is_ok());
}

#[test]
fn central_density_grows_during_collapse() {
    let setup = sphynx();
    let sys = build(4000);
    let mut sim = SimulationBuilder::new(sys)
        .config(setup.sph)
        .gravity(setup.gravity.unwrap())
        .build()
        .unwrap();
    sim.step().expect("stable step");
    let rho0 = central_density(&sim.sys);
    for _ in 0..8 {
        sim.step().expect("stable step");
    }
    let rho1 = central_density(&sim.sys);
    assert!(rho1 > 1.2 * rho0, "central density should grow during collapse: {rho0} → {rho1}");
}

#[test]
fn changa_runs_evrard_with_block_timesteps() {
    // ChaNGa's individual time-stepping on the centrally-condensed cloud:
    // the core needs finer steps than the envelope, and more of them as it
    // collapses, so the rungs deepen and the active fraction per substep
    // falls — the multi-time-stepping advantage behind Fig. 2b. Four ranks
    // take the same steps bit for bit.
    let setup = changa();
    let mut sim = SimulationBuilder::new(build(3000))
        .config(setup.sph)
        .gravity(setup.gravity.unwrap())
        .build()
        .unwrap();
    let mut dist = DistributedBuilder::new(build(3000))
        .config(setup.sph)
        .gravity(setup.gravity.unwrap())
        .nranks(4)
        .build()
        .unwrap();
    let mut reports = Vec::new();
    for _ in 0..6 {
        let r = sim.step().expect("stable step");
        let d = dist.step().expect("stable 4-rank step");
        assert_eq!((d.substeps, d.dt.to_bits()), (r.substeps, r.dt.to_bits()), "step {}", r.step);
        assert_eq!(state_fingerprint(&dist.sys), state_fingerprint(&sim.sys), "step {}", r.step);
        reports.push(r);
    }
    let (first, last) = (reports[0], reports[reports.len() - 1]);
    assert!(first.substeps > 1, "no rung spread at the start: {first:?}");
    assert!(last.substeps > first.substeps, "rungs did not deepen: {reports:?}");
    assert!(last.active_fraction < 0.5 * first.active_fraction, "no saving: {reports:?}");
    assert!(sim.sys.sanity_check().is_ok());
}

fn mean_radius(sys: &sph_exa_repro::core::ParticleSystem) -> f64 {
    sys.x.iter().map(|p| p.norm()).sum::<f64>() / sys.len() as f64
}

fn central_density(sys: &sph_exa_repro::core::ParticleSystem) -> f64 {
    let core: Vec<f64> =
        (0..sys.len()).filter(|&i| sys.x[i].norm() < 0.15).map(|i| sys.rho[i]).collect();
    assert!(!core.is_empty());
    core.iter().sum::<f64>() / core.len() as f64
}
