//! Integration: the multi-rank distributed step driver against the
//! single-rank goldens.
//!
//! The contract under test is the acceptance criterion of the distributed
//! subsystem: `DistributedSimulation` on several ranks lands on the
//! golden full-state fingerprint of the single-rank run after 10
//! macro-steps of the square patch and the Evrard collapse (two tests run
//! their share of the contract table, `tests/contract/mod.rs`); so do
//! migration alone, work-weighted rebalancing and a mid-run per-rank
//! checkpoint/restore (global and block time-stepping). The halo margin
//! covers every registered scenario once its first step has settled the
//! smoothing lengths.

mod contract;

use contract::{golden, Evrard, Global, Individual, Patch, STEPS};
use sph_exa_repro::core::config::SphConfig;
use sph_exa_repro::core::diagnostics::state_fingerprint;
use sph_exa_repro::domain::Partitioner;
use sph_exa_repro::exa::{DistributedBuilder, DistributedConfig, DistributedSimulation};
use sph_exa_repro::ft::checkpoint::{DiskStore, MemoryStore};
use sph_exa_repro::scenarios::{Resolution, ScenarioRegistry};

#[test]
fn square_patch_matches_single_rank_across_ranks_and_threads() {
    contract::check_share("square_patch_matches_single_rank_across_ranks_and_threads");
}

#[test]
fn evrard_with_gravity_matches_single_rank_across_ranks_and_threads() {
    contract::check_share("evrard_with_gravity_matches_single_rank_across_ranks_and_threads");
}

#[test]
fn halo_margin_needs_no_renegotiation_after_the_first_step() {
    // The driver imports ghosts within 2 · h_max plus a 5 % margin. A
    // first step from set-up smoothing lengths may outgrow that and
    // renegotiate; every later step must not, on every scenario.
    const LATER_STEPS: usize = 3;
    for sc in ScenarioRegistry::builtin().iter() {
        let build = |nranks: usize| {
            let setup = sc.init(Resolution { scale: 0.5 });
            let mut b = DistributedBuilder::new(setup.sys).config(setup.config).nranks(nranks);
            if let Some(g) = setup.gravity {
                b = b.gravity(g);
            }
            b.build().unwrap()
        };
        let mut dist = build(4);
        dist.step().expect("stable first step");
        let first = dist.exchange_log().renegotiations;
        dist.run(LATER_STEPS).expect("stable distributed run");
        assert_eq!(
            dist.exchange_log().renegotiations,
            first,
            "{}: a step after the first renegotiated its halo",
            sc.name()
        );

        // No golden covers these sizes, so nranks 1 is the reference.
        let mut reference = build(1);
        reference.run(1 + LATER_STEPS).expect("stable reference run");
        assert_eq!(
            state_fingerprint(&dist.sys),
            state_fingerprint(&reference.sys),
            "{}",
            sc.name()
        );
    }
}

#[test]
fn migration_provably_changes_owners_and_no_bits() {
    // The square patch rotates, so particles cross the static rank boxes
    // within a few steps. Rebalancing is off, so every ownership change is
    // the migration protocol's alone.
    let mut dist = Patch
        .builder(Global)
        .distributed(DistributedConfig { nranks: 4, rebalance_every: 0, ..Default::default() })
        .build()
        .unwrap();
    let initial_owners = dist.decomposition().assignment.clone();
    dist.run(STEPS).expect("stable distributed run");
    let owners = &dist.decomposition().assignment;
    let moved = initial_owners.iter().zip(owners).filter(|(a, b)| a != b).count();
    assert!(moved > 0, "rotating patch must migrate particles across rank boxes");
    assert!(dist.exchange_log().migrations as usize >= moved);
    assert_eq!(state_fingerprint(&dist.sys), golden(Patch, Global), "migration moved bits");
}

#[test]
fn rebalancing_with_measured_work_keeps_bits_and_balance() {
    let mut dist = Evrard
        .builder(Global)
        .distributed(DistributedConfig {
            nranks: 4,
            partitioner: Partitioner::Orb,
            rebalance_every: 3,
            halo_growth_steps: 1,
        })
        .build()
        .unwrap();
    dist.run(STEPS).expect("stable distributed run");
    assert!(dist.exchange_log().rebalances >= 2);
    assert!(dist.imbalance() < 1.5, "work-weighted ORB should stay balanced");
    assert_eq!(state_fingerprint(&dist.sys), golden(Evrard, Global), "rebalancing moved bits");
}

#[test]
fn mid_run_checkpoint_restore_reproduces_the_uninterrupted_fingerprint() {
    let dir = std::env::temp_dir().join(format!("sphexa-dist-{}", std::process::id()));
    let dcfg = DistributedConfig { nranks: 4, ..Default::default() };
    let setup = Patch.setup();

    let mut run = Patch.builder(Global).distributed(dcfg).build().unwrap();
    run.run(STEPS / 2).expect("stable first half");
    {
        let mut store = DiskStore::new(&dir).unwrap();
        run.checkpoint(&mut store, "mid").unwrap();
    }
    run.run(STEPS - STEPS / 2).expect("stable second half");
    assert_eq!(state_fingerprint(&run.sys), golden(Patch, Global));

    // A brand-new store instance (≈ a restarted set of rank processes).
    let store = DiskStore::new(&dir).unwrap();
    let replay = DistributedSimulation::restore(&store, "mid", setup.config, None, dcfg);
    let _ = std::fs::remove_dir_all(&dir);
    let mut replay = replay.unwrap();
    replay.run(STEPS - STEPS / 2).expect("stable replay");
    assert_eq!(
        state_fingerprint(&replay.sys),
        golden(Patch, Global),
        "restore must reproduce the uninterrupted run bit-for-bit"
    );
}

#[test]
fn block_stepping_checkpoint_restore_reproduces_the_uninterrupted_fingerprint() {
    let dcfg = DistributedConfig { nranks: 4, ..Default::default() };
    let setup = Evrard.setup();
    let config = SphConfig { time_stepping: Individual.stepping(), ..setup.config };

    let mut run = Evrard.builder(Individual).distributed(dcfg).build().unwrap();
    run.run(STEPS / 2).expect("stable first half");
    let mut store = MemoryStore::new();
    run.checkpoint(&mut store, "mid").unwrap();
    let reports = run.run(STEPS - STEPS / 2).expect("stable second half");
    assert!(reports.iter().any(|r| r.substeps > 1), "no rung spread after the checkpoint");
    assert_eq!(state_fingerprint(&run.sys), golden(Evrard, Individual));

    let mut replay =
        DistributedSimulation::restore(&store, "mid", config, setup.gravity, dcfg).unwrap();
    replay.run(STEPS - STEPS / 2).expect("stable replay");
    assert_eq!(state_fingerprint(&replay.sys), golden(Evrard, Individual));
}
