//! Integration: self-healing distributed stepping under seeded fault
//! schedules.
//!
//! The contract under test is the recovery acceptance criterion: for any
//! *survivable* fault schedule (killed ranks respawnable, at least one
//! checkpoint generation intact, rollback budget sufficient), the
//! [`ResilientSimulation`] finishes with a state **bit-identical** to the
//! same simulation run with no faults at all — at nranks ∈ {1, 2, 4} and
//! for any `SPH_THREADS` (the CI matrix sets it). Unsurvivable schedules
//! must surface as a typed [`RecoveryError`] naming the fault — never a
//! panic, never silent divergence.

use sph_exa_repro::core::config::{SphConfig, TimeStepping};
use sph_exa_repro::core::diagnostics::state_fingerprint as fingerprint;
use sph_exa_repro::core::ParticleSystem;
use sph_exa_repro::domain::ExchangePath;
use sph_exa_repro::exa::{
    DistributedBuilder, DistributedError, DistributedSimulation, RecoveryError, ResilientConfig,
    ResilientSimulation, SchedulerMode,
};
use sph_exa_repro::ft::chaos::{CorruptionMode, FaultKind, FaultPlan};
use sph_exa_repro::ft::codec::CodecError;
use sph_exa_repro::ft::{FtError, MemoryStore};
use sph_exa_repro::scenarios::{square_patch, SquarePatchConfig};

const STEPS: u64 = 6;
const RANK_COUNTS: [usize; 3] = [1, 2, 4];

fn patch_ic() -> ParticleSystem {
    square_patch(&SquarePatchConfig { nx: 10, nz: 10, ..SquarePatchConfig::default() })
}

fn patch_sph() -> SphConfig {
    let cfg = SquarePatchConfig { nx: 10, nz: 10, ..SquarePatchConfig::default() };
    SphConfig { gamma: cfg.gamma, target_neighbors: 40, max_h_iterations: 5, ..Default::default() }
}

fn build(nranks: usize) -> DistributedSimulation {
    DistributedBuilder::new(patch_ic()).config(patch_sph()).nranks(nranks).build().unwrap()
}

/// The fault-free trajectory every chaos run must land on exactly.
fn fault_free_fingerprint(nranks: usize) -> u64 {
    let mut reference = build(nranks);
    reference.run(STEPS as usize).expect("stable fault-free run");
    fingerprint(&reference.sys)
}

fn fixed_cadence(every: u64) -> ResilientConfig {
    ResilientConfig { scheduler: SchedulerMode::FixedSteps(every), ..Default::default() }
}

#[test]
fn survivable_schedule_is_bit_identical_to_the_fault_free_run() {
    // One of each survivable fault kind, spread over the run: a transient
    // carrier hiccup (absorbed by retry), an in-flight payload bit flip
    // (gates the step, rolls back), an in-memory SDC bit flip (caught by
    // the armed checksum detector), a respawnable rank kill, and bit rot
    // in the newest stored checkpoint (forces generation fallback when
    // paired with the SDC flip scheduled at the same boundary).
    for &nranks in &RANK_COUNTS {
        let want = fault_free_fingerprint(nranks);
        let plan = FaultPlan::new(42)
            .at(1, FaultKind::Transient { path: ExchangePath::DtReduce, failures: 2 })
            .at(
                2,
                FaultKind::CorruptPayload { path: ExchangePath::GhostRefresh, bit: 7, repeat: 1 },
            )
            .at(3, FaultKind::CorruptField)
            .at(4, FaultKind::KillRank { rank: 1, respawnable: true })
            .at(
                5,
                FaultKind::CorruptNewestCheckpoint {
                    mode: CorruptionMode::BitFlip { byte: 11, bit: 3 },
                },
            )
            .at(5, FaultKind::CorruptField);
        let mut resilient = ResilientSimulation::new(
            build(nranks),
            Box::new(MemoryStore::new()),
            &plan,
            fixed_cadence(2),
        )
        .unwrap();
        let stats = resilient.run(STEPS).expect("survivable schedule must complete");

        assert_eq!(
            fingerprint(resilient.sys()),
            want,
            "chaos run diverged from the fault-free trajectory at nranks={nranks}"
        );
        assert_eq!(resilient.sys().step_count, STEPS);
        // The schedule demonstrably exercised the machinery.
        assert!(stats.rollbacks >= 3, "rollbacks: {}", stats.rollbacks);
        assert_eq!(stats.sdc_injected, 2);
        assert_eq!(stats.checkpoints_corrupted, 1);
        assert_eq!(stats.ranks_respawned, 1);
        assert!(stats.steps_replayed > 0, "rollback must recompute steps");
        assert!(
            stats.detections.iter().any(|d| d.detector == "checksum"),
            "the armed checksum detector must catch the in-memory flip: {:?}",
            stats.detections
        );
        assert!(
            stats.detections.iter().any(|d| d.detector == "exchange"),
            "carrier faults must be recorded: {:?}",
            stats.detections
        );
        assert!(
            stats.rollback_records.iter().any(|r| r.generations_skipped >= 1),
            "the corrupted newest generation must be skipped: {:?}",
            stats.rollback_records
        );
        // Transient hiccups healed inside the retry loop, not by rollback.
        let log = resilient.into_inner().exchange_log();
        assert!(log.transient_retries >= 2, "retries: {}", log.transient_retries);
    }
}

#[test]
fn block_stepping_recovers_from_a_corrupted_dt_reduce() {
    // Individual stepping at two ranks: a bit flipped in a dt reduction
    // gates the step, and the rollback replays the rung substeps exactly.
    // A hot spot at the patch centre spreads the rungs.
    let hot_patch = || {
        let mut sys = patch_ic();
        for i in 0..sys.len() {
            let (dx, dy) = (sys.x[i].x - 0.5, sys.x[i].y - 0.5);
            if dx * dx + dy * dy < 0.04 {
                sys.u[i] *= 100.0;
            }
        }
        sys
    };
    let config =
        SphConfig { time_stepping: TimeStepping::Individual { max_rungs: 4 }, ..patch_sph() };
    let build = || DistributedBuilder::new(hot_patch()).config(config).nranks(2).build().unwrap();
    let mut reference = build();
    let reports = reference.run(STEPS as usize).expect("stable fault-free run");
    assert!(reports.iter().any(|r| r.substeps > 1), "no rung spread to recover");

    let plan = FaultPlan::new(11)
        .at(2, FaultKind::CorruptPayload { path: ExchangePath::DtReduce, bit: 5, repeat: 1 });
    let mut resilient =
        ResilientSimulation::new(build(), Box::new(MemoryStore::new()), &plan, fixed_cadence(2))
            .unwrap();
    let stats = resilient.run(STEPS).expect("survivable schedule must complete");
    assert_eq!(stats.rollbacks, 1, "{stats:?}");
    assert_eq!(fingerprint(resilient.sys()), fingerprint(&reference.sys));
}

#[test]
fn transient_faults_heal_in_place_without_rollback() {
    let want = fault_free_fingerprint(2);
    let plan = FaultPlan::new(7)
        .at(1, FaultKind::Transient { path: ExchangePath::HaloNegotiation, failures: 2 })
        .at(3, FaultKind::Transient { path: ExchangePath::DtReduce, failures: 1 });
    let mut resilient =
        ResilientSimulation::new(build(2), Box::new(MemoryStore::new()), &plan, fixed_cadence(3))
            .unwrap();
    let stats = resilient.run(STEPS).unwrap();
    assert_eq!(stats.rollbacks, 0, "bounded retry must absorb transients: {stats:?}");
    assert_eq!(stats.steps_replayed, 0);
    assert_eq!(fingerprint(resilient.sys()), want);
    assert!(resilient.into_inner().exchange_log().transient_retries >= 3);
}

#[test]
fn non_respawnable_rank_kill_is_a_typed_rank_lost_error() {
    let plan = FaultPlan::new(3).at(2, FaultKind::KillRank { rank: 1, respawnable: false });
    let mut resilient =
        ResilientSimulation::new(build(2), Box::new(MemoryStore::new()), &plan, fixed_cadence(2))
            .unwrap();
    let err = resilient.run(STEPS).expect_err("a lost rank is unsurvivable");
    assert_eq!(err, RecoveryError::RankLost { rank: 1 });
    // The error names the fault in prose too.
    assert!(err.to_string().contains("rank 1"), "{err}");
}

#[test]
fn all_generations_corrupted_is_a_typed_no_valid_checkpoint_error() {
    // Retention 1 and a cadence that never fires: generation 0 is the
    // only rollback target. Corrupt it, then force a rollback.
    let plan = FaultPlan::new(9)
        .at(1, FaultKind::CorruptNewestCheckpoint { mode: CorruptionMode::Truncate { keep: 6 } })
        .at(2, FaultKind::CorruptField);
    let rcfg = ResilientConfig {
        scheduler: SchedulerMode::FixedSteps(1000),
        retention: 1,
        ..Default::default()
    };
    let mut resilient =
        ResilientSimulation::new(build(2), Box::new(MemoryStore::new()), &plan, rcfg).unwrap();
    let err = resilient.run(STEPS).expect_err("no intact checkpoint is unsurvivable");
    match err {
        RecoveryError::NoValidCheckpoint { tried, ref last_error } => {
            assert_eq!(tried, 1);
            // Six bytes cannot hold the manifest's frame.
            assert_eq!(
                *last_error,
                DistributedError::Storage(FtError::Codec(CodecError::Truncated)),
                "{last_error}"
            );
        }
        other => panic!("expected NoValidCheckpoint, got {other:?}"),
    }
}

#[test]
fn rollback_budget_exhaustion_is_a_typed_no_progress_error() {
    let plan = FaultPlan::new(5).at(1, FaultKind::CorruptField).at(2, FaultKind::CorruptField);
    let rcfg = ResilientConfig { max_rollbacks: 1, ..fixed_cadence(2) };
    let mut resilient =
        ResilientSimulation::new(build(2), Box::new(MemoryStore::new()), &plan, rcfg).unwrap();
    let err = resilient.run(STEPS).expect_err("budget of 1 cannot absorb two faults");
    assert!(
        matches!(err, RecoveryError::NoProgress { rollbacks: 2, .. }),
        "expected NoProgress, got {err:?}"
    );
}

#[test]
fn empty_plan_adds_no_overhead_to_the_trajectory() {
    // A resilient wrapper with nothing scheduled must be a pure
    // pass-through: same bits, zero rollbacks, checkpoints on cadence.
    let want = fault_free_fingerprint(4);
    let plan = FaultPlan::new(1);
    let mut resilient =
        ResilientSimulation::new(build(4), Box::new(MemoryStore::new()), &plan, fixed_cadence(2))
            .unwrap();
    let stats = resilient.run(STEPS).unwrap();
    assert_eq!(fingerprint(resilient.sys()), want);
    assert_eq!(stats.rollbacks, 0);
    assert_eq!(stats.detections, vec![]);
    // gen0 + one per two steps.
    assert_eq!(stats.checkpoints_written, 1 + STEPS / 2);
    assert!(stats.checkpoint_bytes > 0);
}

#[test]
fn daly_cadence_leaves_the_trajectory_untouched() {
    // The Daly scheduler feeds wall-time step and write times into the
    // checkpoint *cadence* only. MTBF 60 s against ms-scale steps: the
    // interval is far longer than the run, so it writes no more than the
    // fixed cadence does — and the bits are the fault-free ones.
    let want = fault_free_fingerprint(2);
    let plan = FaultPlan::new(1);
    let daly = ResilientConfig {
        scheduler: SchedulerMode::Daly { mtbf: 60.0, write_cost_guess: 1e-3 },
        ..Default::default()
    };
    let run = |rcfg| {
        let mut resilient =
            ResilientSimulation::new(build(2), Box::new(MemoryStore::new()), &plan, rcfg).unwrap();
        let stats = resilient.run(STEPS).unwrap();
        assert_eq!(fingerprint(resilient.sys()), want);
        assert_eq!(stats.rollbacks, 0);
        (resilient.daly_interval(), stats.checkpoints_written)
    };
    let (daly_interval, daly_written) = run(daly);
    let (fixed_interval, fixed_written) = run(fixed_cadence(2));
    assert!(daly_interval.is_some() && fixed_interval.is_none());
    assert!(daly_written <= fixed_written, "Daly wrote {daly_written} > fixed {fixed_written}");
}
