//! Integration: the multi-rank distributed step driver vs the single-rank
//! reference.
//!
//! The contract under test is the acceptance criterion of the distributed
//! subsystem: `DistributedSimulation` at nranks ∈ {1, 2, 4} produces
//! **bit-identical** full-state fingerprints to the single-rank
//! `Simulation` over ≥ 10 macro-steps of the square patch and the Evrard
//! collapse, for SPH_THREADS ∈ {1, 4}, including after a mid-run per-rank
//! checkpoint/restore (global and block time-stepping) — and migration
//! provably moves particles between owners without moving a single bit of
//! physics.

use sph_exa_repro::core::config::{SphConfig, TimeStepping};
use sph_exa_repro::core::diagnostics::state_fingerprint as fingerprint;
use sph_exa_repro::core::ParticleSystem;
use sph_exa_repro::domain::Partitioner;
use sph_exa_repro::exa::{
    DistributedBuilder, DistributedConfig, DistributedSimulation, SimulationBuilder,
};
use sph_exa_repro::ft::checkpoint::{DiskStore, MemoryStore};
use sph_exa_repro::scenarios::{evrard_collapse, square_patch, EvrardConfig, SquarePatchConfig};
use sph_exa_repro::tree::{GravityConfig, MultipoleOrder};

const STEPS: usize = 10;
const RANK_COUNTS: [usize; 3] = [1, 2, 4];
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn patch_ic() -> ParticleSystem {
    square_patch(&SquarePatchConfig { nx: 10, nz: 10, ..SquarePatchConfig::default() })
}

fn patch_sph() -> SphConfig {
    let cfg = SquarePatchConfig { nx: 10, nz: 10, ..SquarePatchConfig::default() };
    SphConfig { gamma: cfg.gamma, target_neighbors: 40, max_h_iterations: 5, ..Default::default() }
}

fn evrard_ic() -> ParticleSystem {
    evrard_collapse(&EvrardConfig { n_target: 800, seed: 7, ..EvrardConfig::default() })
}

fn evrard_gravity() -> GravityConfig {
    GravityConfig { g: 1.0, theta: 0.6, softening: 1e-2, order: MultipoleOrder::Quadrupole }
}

fn evrard_sph() -> SphConfig {
    SphConfig { target_neighbors: 40, max_h_iterations: 5, ..Default::default() }
}

#[test]
fn square_patch_matches_single_rank_across_ranks_and_threads() {
    let mut reference =
        SimulationBuilder::new(patch_ic()).config(patch_sph()).num_threads(1).build().unwrap();
    reference.run(STEPS).expect("stable reference run");
    let want = fingerprint(&reference.sys);

    for &nranks in &RANK_COUNTS {
        for &threads in &THREAD_COUNTS {
            let mut dist = DistributedBuilder::new(patch_ic())
                .config(patch_sph())
                .nranks(nranks)
                .num_threads(threads)
                .build()
                .unwrap();
            dist.run(STEPS).expect("stable distributed run");
            assert_eq!(
                fingerprint(&dist.sys),
                want,
                "square patch diverged at nranks={nranks}, SPH_THREADS={threads}"
            );
        }
    }
}

#[test]
fn evrard_with_gravity_matches_single_rank_across_ranks_and_threads() {
    let mut reference = SimulationBuilder::new(evrard_ic())
        .config(evrard_sph())
        .gravity(evrard_gravity())
        .num_threads(1)
        .build()
        .unwrap();
    reference.run(STEPS).expect("stable reference run");
    let want = fingerprint(&reference.sys);

    for &nranks in &RANK_COUNTS {
        for &threads in &THREAD_COUNTS {
            let mut dist = DistributedBuilder::new(evrard_ic())
                .config(evrard_sph())
                .gravity(evrard_gravity())
                .nranks(nranks)
                .num_threads(threads)
                .build()
                .unwrap();
            dist.run(STEPS).expect("stable distributed run");
            assert_eq!(
                fingerprint(&dist.sys),
                want,
                "Evrard diverged at nranks={nranks}, SPH_THREADS={threads}"
            );
        }
    }
}

#[test]
fn migration_provably_changes_owners_and_no_bits() {
    // The square patch rotates, so particles cross the static rank boxes
    // within a few steps. Disable rebalancing so every ownership change is
    // attributable to the migration protocol alone.
    let mut dist = DistributedBuilder::new(patch_ic())
        .config(patch_sph())
        .distributed(DistributedConfig { nranks: 4, rebalance_every: 0, ..Default::default() })
        .build()
        .unwrap();
    let initial_owners = dist.decomposition().assignment.clone();
    dist.run(STEPS).expect("stable distributed run");
    let owners = &dist.decomposition().assignment;
    let moved = initial_owners.iter().zip(owners).filter(|(a, b)| a != b).count();
    assert!(moved > 0, "rotating patch must migrate particles across rank boxes");
    assert!(dist.exchange_log().migrations as usize >= moved);

    let mut reference = SimulationBuilder::new(patch_ic()).config(patch_sph()).build().unwrap();
    reference.run(STEPS).expect("stable reference run");
    assert_eq!(
        fingerprint(&dist.sys),
        fingerprint(&reference.sys),
        "migration changed physics bits"
    );
}

#[test]
fn rebalancing_with_measured_work_keeps_bits_and_balance() {
    let mut dist = DistributedBuilder::new(evrard_ic())
        .config(evrard_sph())
        .gravity(evrard_gravity())
        .distributed(DistributedConfig {
            nranks: 4,
            partitioner: Partitioner::Orb,
            rebalance_every: 3,
            halo_growth_steps: 1,
        })
        .build()
        .unwrap();
    dist.run(6).expect("stable distributed run");
    assert!(dist.exchange_log().rebalances >= 2);
    assert!(dist.imbalance() < 1.5, "work-weighted ORB should stay balanced");

    let mut reference = SimulationBuilder::new(evrard_ic())
        .config(evrard_sph())
        .gravity(evrard_gravity())
        .build()
        .unwrap();
    reference.run(6).expect("stable reference run");
    assert_eq!(fingerprint(&dist.sys), fingerprint(&reference.sys));
}

#[test]
fn mid_run_checkpoint_restore_reproduces_the_uninterrupted_fingerprint() {
    let dir = std::env::temp_dir().join(format!("sphexa-dist-{}", std::process::id()));
    let dcfg = DistributedConfig { nranks: 4, ..Default::default() };

    let mut run =
        DistributedBuilder::new(patch_ic()).config(patch_sph()).distributed(dcfg).build().unwrap();
    run.run(STEPS / 2).expect("stable first half");
    {
        let mut store = DiskStore::new(&dir).unwrap();
        run.checkpoint(&mut store, "mid").unwrap();
    }
    run.run(STEPS - STEPS / 2).expect("stable second half");
    let uninterrupted = fingerprint(&run.sys);

    // A brand-new store instance (≈ a restarted set of rank processes).
    let store = DiskStore::new(&dir).unwrap();
    let mut replay =
        DistributedSimulation::restore(&store, "mid", patch_sph(), None, dcfg).unwrap();
    replay.run(STEPS - STEPS / 2).expect("stable replay");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        fingerprint(&replay.sys),
        uninterrupted,
        "restore must reproduce the uninterrupted run bit-for-bit"
    );

    // And the whole lineage must equal the single-rank reference.
    let mut reference = SimulationBuilder::new(patch_ic()).config(patch_sph()).build().unwrap();
    reference.run(STEPS).expect("stable reference run");
    assert_eq!(uninterrupted, fingerprint(&reference.sys));
}

#[test]
fn block_stepping_checkpoint_restore_reproduces_the_uninterrupted_fingerprint() {
    let config =
        SphConfig { time_stepping: TimeStepping::Individual { max_rungs: 4 }, ..evrard_sph() };
    let dcfg = DistributedConfig { nranks: 4, ..Default::default() };
    let mut run = DistributedBuilder::new(evrard_ic())
        .config(config)
        .gravity(evrard_gravity())
        .distributed(dcfg)
        .build()
        .unwrap();
    run.run(STEPS / 2).expect("stable first half");
    let mut store = MemoryStore::new();
    run.checkpoint(&mut store, "mid").unwrap();
    let reports = run.run(STEPS - STEPS / 2).expect("stable second half");
    assert!(reports.iter().any(|r| r.substeps > 1), "no rung spread after the checkpoint");

    let mut replay =
        DistributedSimulation::restore(&store, "mid", config, Some(evrard_gravity()), dcfg)
            .unwrap();
    replay.run(STEPS - STEPS / 2).expect("stable replay");
    assert_eq!(fingerprint(&replay.sys), fingerprint(&run.sys));
}
