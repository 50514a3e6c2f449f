//! Golden trajectory fingerprints.
//!
//! `state_fingerprint` after 10 macro-steps of three workloads under
//! every time-stepping policy, recorded from the single-rank `Simulation`
//! of commit 2286c7a — the last one where it was an implementation of its
//! own rather than the one-rank case of the step driver. "Matches the
//! single-rank reference" used to be checked against that second
//! implementation; these constants are what it computed.
//!
//! A change that moves a constant changes physics bits: re-record it only
//! with the reason in the commit message.

use sph_exa_repro::core::config::{SphConfig, TimeStepping};
use sph_exa_repro::core::diagnostics::state_fingerprint;
use sph_exa_repro::exa::DistributedBuilder;
use sph_exa_repro::scenarios::{
    evrard_collapse, square_patch, EvrardConfig, Resolution, Scenario, ScenarioSetup,
    SedovScenario, SquarePatchConfig,
};
use sph_exa_repro::tree::{GravityConfig, MultipoleOrder};

const STEPS: usize = 10;
const GLOBAL: TimeStepping = TimeStepping::Global;
const ADAPTIVE: TimeStepping = TimeStepping::Adaptive { growth_limit: 1.05 };
const INDIVIDUAL: TimeStepping = TimeStepping::Individual { max_rungs: 4 };

/// Rotating square patch, 10 × 10 × 10.
fn patch() -> ScenarioSetup {
    let cfg = SquarePatchConfig { nx: 10, nz: 10, ..SquarePatchConfig::default() };
    ScenarioSetup {
        sys: square_patch(&cfg),
        config: SphConfig {
            gamma: cfg.gamma,
            target_neighbors: 40,
            max_h_iterations: 5,
            ..Default::default()
        },
        gravity: None,
    }
}

/// Evrard collapse, 800 particles, quadrupole self-gravity.
fn evrard() -> ScenarioSetup {
    ScenarioSetup {
        sys: evrard_collapse(&EvrardConfig { n_target: 800, seed: 7, ..EvrardConfig::default() }),
        config: SphConfig { target_neighbors: 40, max_h_iterations: 5, ..Default::default() },
        gravity: Some(GravityConfig {
            g: 1.0,
            theta: 0.6,
            softening: 1e-2,
            order: MultipoleOrder::Quadrupole,
        }),
    }
}

/// Sedov blast at the CI resolution of `tests/determinism.rs` (12³).
fn sedov() -> ScenarioSetup {
    SedovScenario.init(Resolution { scale: 0.375 })
}

fn fingerprint_after_run(
    setup: ScenarioSetup,
    policy: TimeStepping,
    nranks: usize,
    threads: usize,
) -> u64 {
    let mut b = DistributedBuilder::new(setup.sys)
        .config(SphConfig { time_stepping: policy, ..setup.config })
        .nranks(nranks)
        .num_threads(threads);
    if let Some(g) = setup.gravity {
        b = b.gravity(g);
    }
    let mut sim = b.build().expect("builds");
    sim.run(STEPS).expect("stable run");
    state_fingerprint(&sim.sys)
}

fn assert_goldens(name: &str, make: fn() -> ScenarioSetup, goldens: [(TimeStepping, u64); 3]) {
    for (policy, want) in goldens {
        for nranks in [1, 2, 4] {
            for threads in [1, 4] {
                let got = fingerprint_after_run(make(), policy, nranks, threads);
                assert_eq!(
                    got, want,
                    "{name} under {policy:?} at nranks={nranks}, SPH_THREADS={threads}: \
                     {got:#018x} is not the golden {want:#018x}"
                );
            }
        }
    }
}

// The growth limiter never binds within 10 steps of these workloads, so
// the Adaptive goldens equal the Global ones (the limiter itself is
// covered by `simulation::tests::adaptive_stepping_limits_growth`).

#[test]
fn square_patch_goldens() {
    assert_goldens(
        "square patch",
        patch,
        [
            (GLOBAL, 0x049a1935acda0ea2),
            (ADAPTIVE, 0x049a1935acda0ea2),
            (INDIVIDUAL, 0xa7cd9bdf3bbae3e8),
        ],
    );
}

#[test]
fn evrard_goldens() {
    assert_goldens(
        "Evrard",
        evrard,
        [
            (GLOBAL, 0xbee6f571610f95d6),
            (ADAPTIVE, 0xbee6f571610f95d6),
            (INDIVIDUAL, 0x299bca636ba0b71b),
        ],
    );
}

#[test]
fn sedov_goldens() {
    assert_goldens(
        "Sedov",
        sedov,
        [
            (GLOBAL, 0x7a2d6c92747cd42c),
            (ADAPTIVE, 0x7a2d6c92747cd42c),
            (INDIVIDUAL, 0x1125689a62d882b2),
        ],
    );
}
