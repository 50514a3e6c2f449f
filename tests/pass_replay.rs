//! The independent oracle of the step driver: one Algorithm-1 macro-step
//! written straight-line from the public pass functions, which the
//! driver's next step must reproduce bit for bit at every rank count.
//! This — not a second driver — is the reference implementation.

use sph_exa_repro::core::config::{GradientScheme, SphConfig};
use sph_exa_repro::core::density::compute_density;
use sph_exa_repro::core::diagnostics::state_fingerprint;
use sph_exa_repro::core::forces::compute_forces;
use sph_exa_repro::core::gradients::{compute_iad_matrices, compute_velocity_gradients};
use sph_exa_repro::core::integrator::{kick, kick_drift, PingPongBuffers};
use sph_exa_repro::core::timestep::{global_dt, per_particle_dt};
use sph_exa_repro::core::volume::compute_volume_elements;
use sph_exa_repro::core::{IdealGas, ParticleSystem};
use sph_exa_repro::exa::DistributedBuilder;
use sph_exa_repro::kernels::SUPPORT_RADIUS;
use sph_exa_repro::scenarios::{evrard_collapse, square_patch, EvrardConfig, SquarePatchConfig};
use sph_exa_repro::tree::{
    CellGrid, GravityConfig, GravitySolver, MultipoleOrder, Octree, OctreeConfig,
};

/// The macro-step that follows `sys` (whose derivatives are current).
fn replay_step(sys: &mut ParticleSystem, config: &SphConfig, gravity: Option<GravityConfig>) {
    let kernel = config.kernel.build();
    let kernel = kernel.as_ref();
    let all: Vec<u32> = (0..sys.len() as u32).collect();

    // Steps 5–6: dt, half-kick + drift.
    let dt = global_dt(&per_particle_dt(sys, config)).expect("stable state");
    kick_drift(sys, &mut PingPongBuffers::new(sys.len()), dt / 2.0, dt);

    // Steps 1–4 on the drifted state.
    let grid = CellGrid::for_radius(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
    let (lists, _) = compute_density(sys, &grid, kernel, config, &all);
    compute_volume_elements(sys, &lists, kernel, config, &all);
    if config.gradients == GradientScheme::Iad {
        compute_iad_matrices(sys, &lists, kernel, &all);
    }
    IdealGas::new(config.gamma).apply(&sys.rho, &sys.u, &mut sys.p, &mut sys.cs);
    compute_velocity_gradients(sys, &lists, kernel, config.gradients, &all);
    compute_forces(sys, &lists.symmetrized(), kernel, config, &all);
    if let Some(gcfg) = gravity {
        let tree = Octree::build(&sys.x, &sys.bounds(), OctreeConfig::default());
        let (samples, _) = GravitySolver::new(&tree, &sys.m, gcfg).accelerations(&sys.x);
        for (a, s) in sys.a.iter_mut().zip(&samples) {
            *a += s.accel;
        }
    }

    // Step 6, second half.
    kick(sys, dt / 2.0, &all);
    sys.time += dt;
    sys.step_count += 1;
}

fn assert_driver_matches_replay(
    make: fn() -> ParticleSystem,
    config: SphConfig,
    gravity: Option<GravityConfig>,
) {
    for nranks in [1, 2, 4] {
        let mut b = DistributedBuilder::new(make()).config(config).nranks(nranks);
        if let Some(g) = gravity {
            b = b.gravity(g);
        }
        let mut sim = b.build().expect("builds");
        sim.run(2).expect("stable run"); // derivatives are current from here on
        let mut oracle = sim.sys.clone();
        replay_step(&mut oracle, &config, gravity);
        sim.step().expect("stable step");
        assert_eq!(
            state_fingerprint(&sim.sys),
            state_fingerprint(&oracle),
            "the {nranks}-rank step is not the straight-line Algorithm-1 step"
        );
    }
}

#[test]
fn square_patch_step_is_the_straight_line_algorithm() {
    let ic = || square_patch(&SquarePatchConfig { nx: 10, nz: 10, ..Default::default() });
    // IAD gradients, so the optional pass (and its ghost refresh) is covered.
    let sph = SphConfig {
        gamma: SquarePatchConfig::default().gamma,
        target_neighbors: 40,
        max_h_iterations: 5,
        gradients: GradientScheme::Iad,
        ..Default::default()
    };
    assert_driver_matches_replay(ic, sph, None);
}

#[test]
fn evrard_step_is_the_straight_line_algorithm() {
    let gravity =
        GravityConfig { g: 1.0, theta: 0.6, softening: 1e-2, order: MultipoleOrder::Quadrupole };
    let sph = SphConfig { target_neighbors: 40, max_h_iterations: 5, ..Default::default() };
    let ic = || evrard_collapse(&EvrardConfig { n_target: 800, seed: 7, ..Default::default() });
    assert_driver_matches_replay(ic, sph, Some(gravity));
}
