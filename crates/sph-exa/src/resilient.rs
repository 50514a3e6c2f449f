//! Self-healing distributed stepping: detect, roll back, recompute.
//!
//! [`ResilientSimulation`] wraps a [`DistributedSimulation`] with the
//! fault-tolerance loop Table 4 prescribes for the mini-app: silent-data-
//! corruption detectors armed around every macro-step, checkpoints written
//! on a Daly-optimal (or fixed) cadence, and rollback-and-recompute
//! recovery from the newest checkpoint that still passes verification.
//! Faults are supplied by a seeded [`FaultPlan`] — the wrapper transplants
//! a [`FaultyExchange`] around the simulation's carrier and executes the
//! plan's driver-side events (in-memory bit flips, stored-checkpoint rot)
//! at step boundaries.
//!
//! # Recovery contract
//!
//! For any *survivable* fault schedule — every killed rank respawnable,
//! at least one checkpoint generation intact, rollback budget sufficient —
//! the run completes with a final state **bit-identical** to the same
//! simulation stepped with no faults at all. The argument:
//!
//! * exchange faults either gate an operation *before* state changed
//!   (reductions, deliveries return `Err`, the step aborts) or are
//!   absorbed by the bounded retry loop without touching the payload;
//! * in-memory corruption is injected only at step boundaries, after the
//!   detectors were armed on the known-good post-step state, so the
//!   checksum detector catches every single-bit flip before the state can
//!   feed a checkpoint or another step;
//! * rollback restores a checkpoint whose integrity was verified end to
//!   end (the codec's checksummed frame on every rank snapshot and on the
//!   manifest, rank-count and shape checks), and the replay recomputes the
//!   discarded steps through the deterministic driver — every fault event
//!   is one-shot, so the replay runs clean;
//! * checkpoints are only written from states the detectors passed.
//!
//! Unsurvivable schedules (a non-respawnable rank kill, every generation
//! corrupted, rollback budget exhausted) surface as a typed
//! [`RecoveryError`] naming the fault — never a panic, never silent
//! divergence.

use crate::distributed::{DistributedConfig, DistributedError, DistributedSimulation};
use sph_core::config::SphConfig;
use sph_core::particles::ParticleSystem;
use sph_domain::exchange::{ExchangeErrorKind, InProcessExchange};
use sph_ft::chaos::{CorruptionMode, FaultEvent, FaultKind, FaultPlan, FaultyExchange};
use sph_ft::checkpoint::CheckpointStore;
use sph_ft::error::FtError;
use sph_ft::scheduler::CheckpointScheduler;
use sph_ft::sdc::{
    ChecksumDetector, ConservationDetector, PhysicsBoundsDetector, SdcDetector, SdcInjector,
    Verdict,
};
use sph_tree::GravityConfig;
use std::collections::VecDeque;

/// Why a resilient run could not complete. Every variant names the fault
/// that ended it — the contract is typed failure, not a panic and not a
/// silently wrong trajectory.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// A killed rank was not respawnable: its owned state is gone and the
    /// carrier cannot bring it back.
    RankLost { rank: u32 },
    /// Every retained checkpoint generation failed verification on
    /// restore (`tried` of them); `last_error` is the oldest generation's
    /// failure, the last one tried.
    NoValidCheckpoint { tried: usize, last_error: DistributedError },
    /// The rollback budget was exhausted before the run reached its
    /// target step — the schedule keeps knocking the run down faster
    /// than replay can make progress.
    NoProgress { at_step: u64, rollbacks: u32 },
    /// A failure outside the recovery loop's competence (storage I/O on
    /// write, configuration rejected on restore, …).
    Unrecoverable { fault: String },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::RankLost { rank } => {
                write!(f, "rank {rank} failed and is not respawnable")
            }
            RecoveryError::NoValidCheckpoint { tried, last_error } => {
                write!(f, "all {tried} retained checkpoint generations failed verification; last failure: {last_error}")
            }
            RecoveryError::NoProgress { at_step, rollbacks } => {
                write!(f, "rollback budget exhausted after {rollbacks} rollbacks at step {at_step}")
            }
            RecoveryError::Unrecoverable { fault } => write!(f, "unrecoverable fault: {fault}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// When to write checkpoints.
#[derive(Debug, Clone, Copy)]
pub enum SchedulerMode {
    /// Re-derive the Young/Daly-optimal interval continuously from the
    /// measured step and write costs ([`CheckpointScheduler`]). The
    /// cadence follows wall time, so *which* steps checkpoint varies
    /// run to run — the trajectory values never do.
    Daly {
        /// Assumed mean time between failures, seconds.
        mtbf: f64,
        /// Seed estimate of one checkpoint write, seconds (replaced by
        /// the measured mean after the first write).
        write_cost_guess: f64,
    },
    /// Checkpoint every `k` completed macro-steps — fully deterministic,
    /// the mode the chaos suite pins its bit-identity assertions on.
    FixedSteps(u64),
}

/// Configuration of the recovery loop.
#[derive(Debug, Clone, Copy)]
pub struct ResilientConfig {
    pub scheduler: SchedulerMode,
    /// Checkpoint generations retained (older ones are invalidated);
    /// also the fallback depth when the newest generation is corrupt.
    pub retention: usize,
    /// Total rollbacks allowed before the run gives up with
    /// [`RecoveryError::NoProgress`].
    pub max_rollbacks: u32,
}

/// Relative tolerance of the conservation-drift detector (armed on the
/// post-step state, checked after fault injection — legitimate physics
/// drift never crosses it because nothing legitimate happens between arm
/// and check).
const CONSERVATION_TOLERANCE: f64 = 1e-9;

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig { scheduler: SchedulerMode::FixedSteps(2), retention: 2, max_rollbacks: 8 }
    }
}

/// One detector firing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Completed-step count at which the corruption was caught.
    pub step: u64,
    /// Which detector fired (`checksum`, `physics-bounds`,
    /// `conservation-drift`, or `exchange` for carrier-reported faults).
    pub detector: &'static str,
    pub detail: String,
}

/// One rollback-and-recompute episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackRecord {
    /// Completed-step count when the fault surfaced.
    pub from_step: u64,
    /// Step count of the checkpoint the run restored to.
    pub to_step: u64,
    /// How many retained generations failed verification before one
    /// restored (0 = the newest was good).
    pub generations_skipped: usize,
    pub reason: String,
}

/// Counters and records of one resilient run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Macro-steps that completed (including replayed ones).
    pub steps_executed: u64,
    /// Of those, steps re-executed after a rollback — the recompute cost.
    pub steps_replayed: u64,
    pub rollbacks: u32,
    pub checkpoints_written: u64,
    pub checkpoint_bytes: u64,
    /// Checkpoint writes gated by a carrier fault (no generation
    /// recorded; the partial labels are discarded).
    pub checkpoint_write_failures: u64,
    /// In-memory SDC events injected by the plan.
    pub sdc_injected: u64,
    /// Stored-checkpoint corruption events executed by the plan.
    pub checkpoints_corrupted: u64,
    /// Ranks brought back through the carrier after a kill.
    pub ranks_respawned: u64,
    pub detections: Vec<Detection>,
    pub rollback_records: Vec<RollbackRecord>,
}

/// Label prefix of the checkpoint generations a [`ResilientSimulation`]
/// writes; generation `N` is stored under `resilient-gen{N}`.
const GENERATION_PREFIX: &str = "resilient-gen";

/// Checkpoint cadence state (wall-time Daly or deterministic fixed).
enum Cadence {
    Daly(CheckpointScheduler),
    Fixed { every: u64, since: u64 },
}

impl Cadence {
    fn new(mode: SchedulerMode) -> Self {
        match mode {
            SchedulerMode::Daly { mtbf, write_cost_guess } => {
                Cadence::Daly(CheckpointScheduler::new(mtbf, write_cost_guess))
            }
            SchedulerMode::FixedSteps(k) => Cadence::Fixed { every: k.max(1), since: 0 },
        }
    }

    fn after_step(&mut self, step_seconds: f64) -> bool {
        match self {
            Cadence::Daly(s) => s.after_step(step_seconds),
            Cadence::Fixed { every, since } => {
                *since += 1;
                if *since >= *every {
                    *since = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn after_checkpoint(&mut self, write_seconds: f64) {
        match self {
            Cadence::Daly(s) => s.after_checkpoint(write_seconds),
            Cadence::Fixed { since, .. } => *since = 0,
        }
    }

    /// Current work interval (seconds) under the Daly model, if active.
    fn daly_interval(&self) -> Option<f64> {
        match self {
            Cadence::Daly(s) => Some(s.current_interval()),
            Cadence::Fixed { .. } => None,
        }
    }
}

/// A driver-side fault event plus its one-shot firing state.
struct ArmedDriverEvent {
    event: FaultEvent,
    spent: bool,
}

/// A retained, verified checkpoint generation.
struct Generation {
    label: String,
    step: u64,
}

/// The self-healing wrapper (module docs for the protocol and contract).
pub struct ResilientSimulation {
    sim: DistributedSimulation,
    store: Box<dyn CheckpointStore>,
    rcfg: ResilientConfig,
    cadence: Cadence,
    driver_events: Vec<ArmedDriverEvent>,
    injector: SdcInjector,
    generations: VecDeque<Generation>,
    next_gen: u64,
    /// Highest completed-step count reached so far; steps at or below it
    /// are replays.
    high_watermark: u64,
    stats: RecoveryStats,
}

impl ResilientSimulation {
    /// Wrap `sim`, arming the exchange-side events of `plan` around its
    /// carrier and taking over `store` for checkpointing. Writes the
    /// generation-0 checkpoint immediately (before the fault layer is
    /// transplanted — construction happens before the chaos starts), so
    /// rollback always has a target.
    pub fn new(
        mut sim: DistributedSimulation,
        mut store: Box<dyn CheckpointStore>,
        plan: &FaultPlan,
        rcfg: ResilientConfig,
    ) -> Result<Self, RecoveryError> {
        assert!(rcfg.retention >= 1, "retention must keep at least one generation");
        let gen0_label = Self::label_of(0);
        let bytes = sim
            .checkpoint(store.as_mut(), &gen0_label)
            .map_err(|e| RecoveryError::Unrecoverable { fault: e.to_string() })?;
        let inner = sim.replace_exchange(Box::new(InProcessExchange::new()));
        sim.replace_exchange(Box::new(FaultyExchange::new(inner, plan)));
        let (_, driver_side) = plan.split();
        let driver_events =
            driver_side.into_iter().map(|event| ArmedDriverEvent { event, spent: false }).collect();
        let high_watermark = sim.sys.step_count;
        let mut generations = VecDeque::with_capacity(rcfg.retention + 1);
        generations.push_back(Generation { label: gen0_label, step: sim.sys.step_count });
        let mut stats = RecoveryStats { checkpoints_written: 1, ..Default::default() };
        stats.checkpoint_bytes += bytes as u64;
        Ok(ResilientSimulation {
            sim,
            store,
            rcfg,
            cadence: Cadence::new(rcfg.scheduler),
            driver_events,
            injector: plan.injector(),
            generations,
            next_gen: 1,
            high_watermark,
            stats,
        })
    }

    /// The store label of generation `gen`'s checkpoint (its manifest;
    /// the rank snapshots are labelled by [`DistributedSimulation`]).
    fn label_of(gen: u64) -> String {
        format!("{GENERATION_PREFIX}{gen}")
    }

    /// Restore the newest checkpoint generation in `store` that passes
    /// verification — how a restarted process resumes a run this type
    /// checkpointed. Generations are found by their manifest labels;
    /// `None` when none restores.
    pub fn restore_newest(
        store: &dyn CheckpointStore,
        config: SphConfig,
        gravity: Option<GravityConfig>,
        dist: DistributedConfig,
    ) -> Option<DistributedSimulation> {
        let mut gens: Vec<u64> = store
            .labels()
            .iter()
            .filter_map(|label| label.strip_prefix(GENERATION_PREFIX)?.parse().ok())
            .collect();
        gens.sort_unstable();
        gens.iter().rev().find_map(|&gen| {
            DistributedSimulation::restore(store, &Self::label_of(gen), config, gravity, dist).ok()
        })
    }

    /// The wrapped simulation's global state.
    pub fn sys(&self) -> &ParticleSystem {
        &self.sim.sys
    }

    /// Counters and records so far.
    pub fn stats(&self) -> &RecoveryStats {
        &self.stats
    }

    /// The Daly work interval currently in effect (None in fixed mode).
    pub fn daly_interval(&self) -> Option<f64> {
        self.cadence.daly_interval()
    }

    /// Borrow the inner simulation (timers, decomposition, conservation —
    /// read-only observers; stepping must go through [`Self::run`]).
    pub fn inner(&self) -> &DistributedSimulation {
        &self.sim
    }

    /// Unwrap the inner simulation (the fault layer stays transplanted).
    pub fn into_inner(self) -> DistributedSimulation {
        self.sim
    }

    /// Advance `n_steps` *net* macro-steps, healing every survivable
    /// fault on the way. On success the state is bit-identical to the
    /// fault-free run of the same length (module docs for the argument).
    pub fn run(&mut self, n_steps: u64) -> Result<RecoveryStats, RecoveryError> {
        let target = self.sim.sys.step_count + n_steps;
        while self.sim.sys.step_count < target {
            // Feeds the Daly cadence only; checkpoint timing never
            // influences trajectory values.
            #[allow(clippy::disallowed_methods)]
            let t0 = std::time::Instant::now();
            match self.sim.step() {
                Ok(_) => {
                    let step_seconds = t0.elapsed().as_secs_f64();
                    self.stats.steps_executed += 1;
                    let at = self.sim.sys.step_count;
                    if at <= self.high_watermark {
                        self.stats.steps_replayed += 1;
                    } else {
                        self.high_watermark = at;
                    }
                    // Arm on the known-good post-step state, *then* let
                    // the plan corrupt; the check below sees every flip.
                    let mut checksum = ChecksumDetector::new();
                    let mut conservation = ConservationDetector::new(CONSERVATION_TOLERANCE);
                    checksum.arm(&self.sim.sys);
                    conservation.arm(&self.sim.sys);
                    self.fire_driver_events()?;
                    if let Some(detection) = self.detect(checksum, conservation) {
                        self.stats.detections.push(detection.clone());
                        self.rollback(format!("{}: {}", detection.detector, detection.detail))?;
                        continue;
                    }
                    if self.cadence.after_step(step_seconds) {
                        self.write_checkpoint()?;
                    }
                }
                Err(e) => self.handle_step_error(e)?,
            }
        }
        Ok(self.stats.clone())
    }

    /// Execute due driver-side plan events (one-shot) at this boundary.
    fn fire_driver_events(&mut self) -> Result<(), RecoveryError> {
        let step = self.sim.sys.step_count;
        for armed in &mut self.driver_events {
            if armed.spent || armed.event.step > step {
                continue;
            }
            armed.spent = true;
            match armed.event.kind {
                FaultKind::CorruptField => {
                    self.injector.inject(&mut self.sim.sys);
                    self.stats.sdc_injected += 1;
                }
                FaultKind::CorruptNewestCheckpoint { mode } => {
                    // Damage the newest generation's stored manifest —
                    // rollback must detect it and fall back a generation.
                    let Some(newest) = self.generations.back() else { continue };
                    let unrecoverable = |e: FtError| RecoveryError::Unrecoverable {
                        fault: format!("fault plan could not corrupt stored checkpoint: {e}"),
                    };
                    let mut bytes = self.store.get(&newest.label).map_err(unrecoverable)?;
                    match mode {
                        CorruptionMode::BitFlip { byte, bit } => {
                            if !bytes.is_empty() {
                                let at = byte % bytes.len();
                                bytes[at] ^= 1u8 << (bit % 8);
                            }
                        }
                        CorruptionMode::Truncate { keep } => bytes.truncate(keep),
                    }
                    self.store.put(&newest.label, &bytes).map_err(unrecoverable)?;
                    self.stats.checkpoints_corrupted += 1;
                }
                // Exchange-side kinds live in the FaultyExchange.
                _ => {}
            }
        }
        Ok(())
    }

    /// Run the armed detector battery; first verdict wins.
    fn detect(
        &mut self,
        mut checksum: ChecksumDetector,
        mut conservation: ConservationDetector,
    ) -> Option<Detection> {
        let step = self.sim.sys.step_count;
        let mut bounds = PhysicsBoundsDetector;
        let battery: [&mut dyn SdcDetector; 3] = [&mut bounds, &mut checksum, &mut conservation];
        for det in battery {
            if let Verdict::Corrupted(detail) = det.check(&self.sim.sys) {
                return Some(Detection { step, detector: det.name(), detail });
            }
        }
        None
    }

    /// Classify a failed step: recoverable faults roll back, the rest
    /// surface typed.
    fn handle_step_error(&mut self, e: DistributedError) -> Result<(), RecoveryError> {
        let step = self.sim.sys.step_count;
        match &e {
            DistributedError::Exchange(ex) => {
                let detail = ex.to_string();
                if let ExchangeErrorKind::RankFailed { rank } = ex.kind {
                    // Respawn through the carrier; a non-respawnable rank
                    // is the unsurvivable case.
                    self.sim.recover_rank(rank).map_err(|_| RecoveryError::RankLost { rank })?;
                    self.stats.ranks_respawned += 1;
                }
                self.stats.detections.push(Detection {
                    step,
                    detector: "exchange",
                    detail: detail.clone(),
                });
                self.rollback(detail)
            }
            // A poisoned dt bound mid-chaos means corrupted state slipped
            // into the step (e.g. a carrier fault surfaced as physics);
            // the checkpoint predates it, so replay heals it.
            DistributedError::TimeStep(ts) => {
                let detail = ts.to_string();
                self.stats.detections.push(Detection {
                    step,
                    detector: "time-step",
                    detail: detail.clone(),
                });
                self.rollback(detail)
            }
            DistributedError::Storage(_)
            | DistributedError::Build(_)
            | DistributedError::Restore { .. } => {
                Err(RecoveryError::Unrecoverable { fault: e.to_string() })
            }
        }
    }

    /// Restore the newest generation that passes verification, falling
    /// back through retained generations; transplant the carrier (its
    /// spent-event and dead-rank state must survive the rollback).
    fn rollback(&mut self, reason: String) -> Result<(), RecoveryError> {
        let from_step = self.sim.sys.step_count;
        self.stats.rollbacks += 1;
        if self.stats.rollbacks > self.rcfg.max_rollbacks {
            return Err(RecoveryError::NoProgress {
                at_step: from_step,
                rollbacks: self.stats.rollbacks,
            });
        }
        let mut last_error =
            DistributedError::Restore { detail: "no checkpoint generation retained".to_string() };
        let mut tried = 0usize;
        for (skipped, gen) in self.generations.iter().rev().enumerate() {
            tried += 1;
            match DistributedSimulation::restore(
                self.store.as_ref(),
                &gen.label,
                self.sim.config,
                self.sim.gravity,
                self.sim.distributed_config(),
            ) {
                Ok(mut restored) => {
                    let carrier = self.sim.replace_exchange(Box::new(InProcessExchange::new()));
                    restored.replace_exchange(carrier);
                    restored.carry_exchange_log(self.sim.exchange_log());
                    self.sim = restored;
                    self.stats.rollback_records.push(RollbackRecord {
                        from_step,
                        to_step: gen.step,
                        generations_skipped: skipped,
                        reason: reason.clone(),
                    });
                    return Ok(());
                }
                Err(e) => last_error = e,
            }
        }
        Err(RecoveryError::NoValidCheckpoint { tried, last_error })
    }

    /// Write the next generation; carrier-gated writes discard their
    /// partial labels and count as a failure, storage errors escalate.
    fn write_checkpoint(&mut self) -> Result<(), RecoveryError> {
        let gen = self.next_gen;
        self.next_gen += 1;
        let label = Self::label_of(gen);
        // Measured write cost feeds the Daly cadence only; never the
        // trajectory.
        #[allow(clippy::disallowed_methods)]
        let t0 = std::time::Instant::now();
        match self.sim.checkpoint(self.store.as_mut(), &label) {
            Ok(bytes) => {
                self.cadence.after_checkpoint(t0.elapsed().as_secs_f64());
                self.stats.checkpoints_written += 1;
                self.stats.checkpoint_bytes += bytes as u64;
                self.generations.push_back(Generation { label, step: self.sim.sys.step_count });
                while self.generations.len() > self.rcfg.retention {
                    if let Some(old) = self.generations.pop_front() {
                        DistributedSimulation::discard_checkpoint(self.store.as_mut(), &old.label);
                    }
                }
                Ok(())
            }
            Err(DistributedError::Exchange(_)) => {
                // The carrier refused/damaged the blob in flight: the
                // write is gated (fault is one-shot), the state itself is
                // healthy — discard the partial generation and move on.
                self.stats.checkpoint_write_failures += 1;
                DistributedSimulation::discard_checkpoint(self.store.as_mut(), &label);
                Ok(())
            }
            Err(e) => Err(RecoveryError::Unrecoverable { fault: e.to_string() }),
        }
    }
}
