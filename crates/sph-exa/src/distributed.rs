//! The step driver: Algorithm 1 per rank, for any rank count.
//!
//! [`DistributedSimulation`] runs Algorithm 1 *per rank* over a domain
//! decomposition with halo exchange — the structure the paper's mini-app
//! prescribes for distributed memory — as N in-process ranks. Each rank
//! owns a subset of the particles; every macro-step executes the
//! bulk-synchronous supersteps documented in `sph_domain`'s module docs:
//! halo negotiation (ghosts within `2 · h_max` plus a 5 % margin, which
//! the density pass verifies), then the pass table of `passes.rs`
//! (collective h-iteration + density over owned ∪ ghost, ghost-field
//! refresh between kernels, symmetric forces, gravity), a global dt
//! reduction, kick/drift, and particle migration with periodic
//! rebalancing.
//!
//! One rank is the same driver with nothing to exchange: the rank owns
//! every particle and imports no ghost, so it computes on the global
//! system in place — no local copy, no publish, no halo negotiation, no
//! migration. [`crate::Simulation`] is a constructor for exactly that.
//!
//! # Determinism contract
//!
//! Trajectories are **bit-identical** for any rank count and any
//! `SPH_THREADS`. Three properties make that hold:
//!
//! 1. every SPH sum iterates neighbours in ascending *global-index* order
//!    (the density pass sorts its gather lists; each rank keeps its local
//!    particles sorted by global id, so local order ≡ global order);
//! 2. the halo import is *verified*, not assumed: if the measured
//!    `StepStats::max_search_radius` of the h-iteration exceeds the
//!    negotiated radius, the exchange is renegotiated and the density
//!    superstep re-runs from the pre-step smoothing lengths — once every
//!    search stayed inside the halo radius, each local ball query returned
//!    exactly the global neighbour set;
//! 3. the dt reductions are an exact `min` / `max` (order-independent)
//!    and the integrator is per-particle.
//!
//! Ownership therefore never affects values — migration and rebalancing
//! change *where* a particle is computed, never *what* is computed.
//!
//! Block time-stepping ([`TimeStepping::Individual`]) evaluates an active
//! subset per substep, through the same protocol on every rank count: a
//! rank computes `owned ∩ active`, and its *resting* particles (owned but
//! inactive) are carried exactly like ghosts — refreshed from the global
//! store, which holds the fields of their last evaluation — except that
//! the EOS row also publishes their `p, c_s`, because one rank applies the
//! EOS to the whole system in place. A subset sums forces over its gather
//! lists on every rank, and each rank kicks its `owned ∩ active`.
//!
//! Self-gravity is long-range: each rank evaluates its owned particles on
//! a replicated global tree (the in-process analogue of the locally
//! essential tree every distributed gravity code assembles), which keeps
//! the traversal — and its rounding — identical for any rank count.

use crate::passes::{refresh_ghosts, ExchangePoint, PassEnv, RankView, PASSES};
use sph_core::config::{SphConfig, TimeStepping};
use sph_core::density::h_growth_bound;
use sph_core::diagnostics::Conservation;
use sph_core::eos::IdealGas;
use sph_core::integrator::{drift, kick};
use sph_core::particles::ParticleSystem;
use sph_core::timestep::{
    active_at_substep, assign_rungs, finalize_adaptive_dt, finalize_global_dt, per_particle_dt,
    validate_dts, TimeStepError,
};
use sph_core::StepStats;
use sph_domain::exchange::{Exchange, ExchangeError, ExchangePath, InProcessExchange};
use sph_domain::{halo_sets, Decomposition, HaloExchange, HaloRadiusPolicy, Partitioner};
use sph_ft::checkpoint::CheckpointStore;
use sph_ft::codec::{self, Manifest};
use sph_ft::error::FtError;
use sph_kernels::{Kernel, SUPPORT_RADIUS};
use sph_math::Aabb;
use sph_math::Vec3;
use sph_profiler::timers::PhaseTimers;
use sph_profiler::Phase;
use sph_tree::{GravityConfig, GravitySolver, Octree, OctreeConfig};

/// Result of one completed macro time-step.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Step index (1-based after the first step).
    pub step: u64,
    /// Macro time-step actually taken.
    pub dt: f64,
    /// Simulation time after the step.
    pub time: f64,
    /// Work statistics accumulated over the step (all substeps).
    pub stats: StepStats,
    /// Number of substeps (1 for global/adaptive stepping).
    pub substeps: u32,
    /// Mean fraction of particles active per derivative evaluation
    /// (1.0 for global stepping; < 1 shows the block-time-step saving).
    pub active_fraction: f64,
}

/// Why a driver ([`DistributedSimulation`] or the one-rank
/// [`crate::Simulation`]) could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistributedBuildError {
    /// Rank count is zero or exceeds the particle count.
    BadRankCount { nranks: usize, particles: usize },
    /// SPH configuration, particle state, or driver wiring failed
    /// validation (message from the underlying check).
    Invalid(String),
}

impl std::fmt::Display for DistributedBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedBuildError::BadRankCount { nranks, particles } => {
                write!(f, "{nranks} ranks cannot each own a particle of {particles}")
            }
            DistributedBuildError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DistributedBuildError {}

impl From<DistributedBuildError> for String {
    fn from(e: DistributedBuildError) -> String {
        e.to_string()
    }
}

/// Why a step, checkpoint, or restore failed.
///
/// Every failure mode of the running driver folds into this one enum so
/// a recovery layer can branch on the *kind* of fault: time-step errors
/// and exchange corruption call for rollback, storage errors for a
/// checkpoint fallback, build/restore errors for operator attention.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributedError {
    /// A per-particle time-step bound was NaN or non-positive.
    TimeStep(TimeStepError),
    /// An exchange failed beyond the transient-retry budget.
    Exchange(ExchangeError),
    /// Checkpoint storage failed (missing, corrupt, or I/O).
    Storage(FtError),
    /// The restored configuration failed the builder's validation.
    Build(DistributedBuildError),
    /// The checkpoint set is internally inconsistent (manifest/snapshot
    /// shape mismatches).
    Restore { detail: String },
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedError::TimeStep(e) => write!(f, "{e}"),
            DistributedError::Exchange(e) => write!(f, "{e}"),
            DistributedError::Storage(e) => write!(f, "{e}"),
            DistributedError::Build(e) => write!(f, "{e}"),
            DistributedError::Restore { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for DistributedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistributedError::TimeStep(e) => Some(e),
            DistributedError::Exchange(e) => Some(e),
            DistributedError::Storage(e) => Some(e),
            DistributedError::Build(e) => Some(e),
            DistributedError::Restore { .. } => None,
        }
    }
}

impl From<TimeStepError> for DistributedError {
    fn from(e: TimeStepError) -> Self {
        DistributedError::TimeStep(e)
    }
}

impl From<ExchangeError> for DistributedError {
    fn from(e: ExchangeError) -> Self {
        DistributedError::Exchange(e)
    }
}

impl From<FtError> for DistributedError {
    fn from(e: FtError) -> Self {
        DistributedError::Storage(e)
    }
}

impl From<DistributedBuildError> for DistributedError {
    fn from(e: DistributedBuildError) -> Self {
        DistributedError::Build(e)
    }
}

impl From<DistributedError> for String {
    fn from(e: DistributedError) -> String {
        e.to_string()
    }
}

/// Configuration of the rank decomposition (the SPH physics lives in
/// [`SphConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    /// Number of in-process ranks.
    pub nranks: usize,
    /// Decomposition algorithm for the initial split and for rebalances.
    pub partitioner: Partitioner,
    /// Rebuild the decomposition from scratch every this many macro-steps,
    /// using the measured per-particle work as weights (0 = never; the
    /// migration protocol alone then tracks drifting particles).
    pub rebalance_every: u64,
    /// Extra analytic headroom on the negotiated halo radius, in
    /// iterations of the smoothing-length growth bound (each multiplies
    /// the radius by ≈ 2 at 60 neighbours). The default 0 imports ghosts
    /// within `2 · h_max` plus the driver's 5 % margin, which a settled
    /// density pass never outgrows; the coverage verification
    /// renegotiates on a miss, so correctness never depends on this
    /// guess. The field stays only because the benchmark reads it.
    pub halo_growth_steps: u32,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            nranks: 1,
            partitioner: Partitioner::Orb,
            rebalance_every: 10,
            halo_growth_steps: 0,
        }
    }
}

/// Exchange/migration counters accumulated over a run — the run's
/// measured communication record.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeLog {
    /// Ghost particles imported across all ranks and density attempts.
    pub ghosts_imported: u64,
    /// Halo renegotiations forced by a measured-radius miss.
    pub renegotiations: u64,
    /// Density supersteps executed (≥ one per derivative evaluation).
    pub density_attempts: u64,
    /// Particles that changed owner through migration.
    pub migrations: u64,
    /// Full decomposition rebuilds.
    pub rebalances: u64,
    /// Transient exchange failures absorbed by the bounded retry loop.
    pub transient_retries: u64,
}

/// Builder for [`DistributedSimulation`].
pub struct DistributedBuilder {
    sys: ParticleSystem,
    config: SphConfig,
    gravity: Option<GravityConfig>,
    dist: DistributedConfig,
}

impl DistributedBuilder {
    pub fn new(sys: ParticleSystem) -> Self {
        DistributedBuilder {
            sys,
            config: SphConfig::default(),
            gravity: None,
            dist: DistributedConfig::default(),
        }
    }

    pub fn config(mut self, config: SphConfig) -> Self {
        self.config = config;
        self
    }

    pub fn gravity(mut self, gravity: GravityConfig) -> Self {
        self.gravity = Some(gravity);
        self
    }

    pub fn distributed(mut self, dist: DistributedConfig) -> Self {
        self.dist = dist;
        self
    }

    /// Shorthand: `nranks` ranks with the remaining distributed defaults.
    pub fn nranks(mut self, nranks: usize) -> Self {
        self.dist.nranks = nranks;
        self
    }

    pub fn build(self) -> Result<DistributedSimulation, DistributedBuildError> {
        if self.dist.nranks == 0 || self.sys.is_empty() || self.dist.nranks > self.sys.len() {
            return Err(DistributedBuildError::BadRankCount {
                nranks: self.dist.nranks,
                particles: self.sys.len(),
            });
        }
        // Full config validation happens in `assemble`, shared with the
        // checkpoint-restore path; positions must be sane *before* the
        // partitioners sort them.
        self.sys.sanity_check().map_err(DistributedBuildError::Invalid)?;
        let decomp = self.dist.partitioner.partition(&self.sys.x, self.dist.nranks, &[]);
        DistributedSimulation::assemble(
            self.sys,
            self.config,
            self.gravity,
            self.dist,
            decomp,
            0.0,
            false,
        )
    }
}

/// A running simulation on N in-process ranks (see the module docs for
/// the superstep protocol and the determinism contract).
pub struct DistributedSimulation {
    /// Global particle state: the union of every rank's owned particles,
    /// indexed by global id. In-process this doubles as the "wire": a
    /// rank publishes owned results here and imports ghost fields from it.
    pub sys: ParticleSystem,
    /// SPH configuration (shared by all ranks).
    pub config: SphConfig,
    /// Self-gravity configuration, if enabled.
    pub gravity: Option<GravityConfig>,
    dist: DistributedConfig,
    kernel: Box<dyn Kernel>,
    eos: IdealGas,
    decomp: Decomposition,
    /// Per-rank owned global ids, ascending — kept in lockstep with
    /// `decomp` (rebuilt on migration and rebalance).
    owned: Vec<Vec<u32>>,
    /// Rank bounding boxes captured at decomposition time — the migration
    /// criterion (a particle drifting out of its owner's box moves to the
    /// nearest box, ties to the lowest rank).
    boxes: Vec<Option<Aabb>>,
    /// Per-particle gravitational potentials (zero with gravity off).
    pub phi: Vec<f64>,
    per_particle_work: Vec<f64>,
    dt_prev: f64,
    /// Per-rank wall-time phase timers (rank-local kernel work).
    timers: Vec<PhaseTimers>,
    /// Driver-level collective work: halo identification/packing
    /// (phase D), dt reduction + integration (phase J).
    driver_timers: PhaseTimers,
    /// Whether `a` and `du_dt` are current, so the next step's first
    /// half-kick may reuse them (true after every evaluation and for a
    /// state resumed from a between-steps checkpoint).
    pub(crate) derivatives_fresh: bool,
    last_exchange: Option<HaloExchange>,
    /// The smoothing lengths an evaluation starts from, kept for the
    /// rollback a halo renegotiation needs (refilled in place; empty at
    /// one rank, which never renegotiates).
    h_rollback: Vec<f64>,
    log: ExchangeLog,
    /// The carrier behind the five exchange paths (see
    /// [`sph_domain::exchange`]); in-process by default.
    exchange: Box<dyn Exchange>,
}

/// Bucket the assignment into per-rank owned-id lists (ascending, since
/// the pass walks global ids in order) — one O(n) sweep replacing the
/// O(n·ranks) of repeated `Decomposition::indices_of` scans.
pub(crate) fn bucket_owned(decomp: &Decomposition) -> Vec<Vec<u32>> {
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); decomp.nparts];
    for (i, &r) in decomp.assignment.iter().enumerate() {
        owned[r as usize].push(i as u32);
    }
    owned
}

/// Factor on the analytic halo radius `2 · h_max · g^steps`. A settled
/// density pass searches within ≈ 1.03 × `2 · h_max` and a first
/// evaluation from set-up smoothing lengths within ≈ 1.08 ×, so 5 %
/// covers every step after the first without a renegotiation; a miss is
/// still caught by the verification and renegotiated.
const HALO_MARGIN: f64 = 1.05;

/// How many times a *transient* exchange failure is reissued before it
/// escalates as [`DistributedError::Exchange`].
const EXCHANGE_RETRIES: u32 = 3;

/// Bounded retry around one exchange operation: transient failures are
/// reissued up to [`EXCHANGE_RETRIES`] times (counted in the log),
/// anything else — and the final transient miss — escalates to the
/// caller. The in-process carrier reissues immediately; a real transport
/// would sleep an exponential backoff between attempts, which changes
/// wall time but never the delivered bits.
pub(crate) fn with_retry<T>(
    exchange: &mut dyn Exchange,
    log: &mut ExchangeLog,
    mut op: impl FnMut(&mut dyn Exchange) -> Result<T, ExchangeError>,
) -> Result<T, ExchangeError> {
    let mut attempt = 0u32;
    loop {
        match op(exchange) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt < EXCHANGE_RETRIES => {
                attempt += 1;
                log.transient_retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

impl DistributedSimulation {
    fn assemble(
        sys: ParticleSystem,
        config: SphConfig,
        gravity: Option<GravityConfig>,
        dist: DistributedConfig,
        decomp: Decomposition,
        dt_prev: f64,
        derivatives_fresh: bool,
    ) -> Result<Self, DistributedBuildError> {
        // Every construction path (builder *and* checkpoint restore)
        // validates the configuration and the state it is handed.
        config.validate().map_err(DistributedBuildError::Invalid)?;
        sys.sanity_check().map_err(DistributedBuildError::Invalid)?;
        if decomp.nparts != dist.nranks {
            return Err(DistributedBuildError::Invalid(format!(
                "decomposition has {} parts for {} ranks",
                decomp.nparts, dist.nranks
            )));
        }
        let boxes = sph_domain::orb::rank_boxes(&sys.x, &decomp);
        let owned = bucket_owned(&decomp);
        let kernel = config.kernel.build();
        let eos = IdealGas::new(config.gamma);
        let n = sys.len();
        Ok(DistributedSimulation {
            sys,
            config,
            gravity,
            kernel,
            eos,
            boxes,
            decomp,
            owned,
            phi: vec![0.0; n],
            per_particle_work: vec![1.0; n],
            dt_prev,
            timers: (0..dist.nranks).map(|_| PhaseTimers::new()).collect(),
            driver_timers: PhaseTimers::new(),
            derivatives_fresh,
            last_exchange: None,
            h_rollback: if dist.nranks > 1 { vec![0.0; n] } else { Vec::new() },
            log: ExchangeLog::default(),
            exchange: Box::new(InProcessExchange::new()),
            dist,
        })
    }

    /// Largest owned-particle count over ranks divided by the mean — the
    /// instantaneous particle imbalance.
    pub fn imbalance(&self) -> f64 {
        self.decomp.imbalance()
    }

    /// The current ownership assignment.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomp
    }

    /// The distributed-driver configuration this run was built with
    /// (recovery layers need it to re-`restore` with identical wiring).
    pub(crate) fn distributed_config(&self) -> DistributedConfig {
        self.dist
    }

    /// Per-rank wall-time phase timers (rank-local kernel work only;
    /// collective driver work is in [`DistributedSimulation::driver_timers`]).
    pub fn timers(&self) -> &[PhaseTimers] {
        &self.timers
    }

    /// Driver-level collective timers (halo identification, dt reduce,
    /// integration, migration).
    pub fn driver_timers(&self) -> &PhaseTimers {
        &self.driver_timers
    }

    /// All per-rank timers folded into one aggregate view.
    pub fn aggregate_timers(&self) -> PhaseTimers {
        let agg = PhaseTimers::new();
        for t in &self.timers {
            agg.merge_from(t);
        }
        agg.merge_from(&self.driver_timers);
        agg
    }

    /// The halo exchange pattern of the most recent density superstep —
    /// measured communication volumes for the cluster step model.
    pub fn last_exchange(&self) -> Option<&HaloExchange> {
        self.last_exchange.as_ref()
    }

    /// Exchange / migration counters accumulated since construction.
    pub fn exchange_log(&self) -> ExchangeLog {
        self.log
    }

    /// Swap the exchange carrier, returning the previous one. Recovery
    /// layers use this to transplant a (stateful, fault-injecting or
    /// connected) carrier into a simulation restored from checkpoint.
    pub(crate) fn replace_exchange(&mut self, exchange: Box<dyn Exchange>) -> Box<dyn Exchange> {
        std::mem::replace(&mut self.exchange, exchange)
    }

    /// Overwrite the exchange counters. A driver restored from checkpoint
    /// starts at zero; recovery layers carry the live log over so the
    /// telemetry records everything that actually happened, replays
    /// included.
    pub(crate) fn carry_exchange_log(&mut self, log: ExchangeLog) {
        self.log = log;
    }

    /// Ask the carrier to bring a failed rank back (respawn/reconnect).
    pub(crate) fn recover_rank(&mut self, rank: u32) -> Result<(), ExchangeError> {
        self.exchange.recover_rank(rank)
    }

    /// Per-particle work units of the last derivative evaluation (the
    /// load measure rebalancing and the cluster model consume).
    pub fn per_particle_work(&self) -> &[f64] {
        &self.per_particle_work
    }

    /// Conservation snapshot over the global state (includes gravity when
    /// enabled). Bit-identical to the single-rank diagnostics.
    pub fn conservation(&self) -> Conservation {
        let phi = self.gravity.is_some().then_some(self.phi.as_slice());
        Conservation::measure(&self.sys, phi)
    }

    // ---------------------------------------------------------------
    // The derivative evaluation (Algorithm 1, steps 1–4)
    // ---------------------------------------------------------------

    /// Superstep 1: the halo radius to import ghosts within — the support
    /// of the global max h (the first collective of the protocol), times
    /// [`HALO_MARGIN`] and any extra analytic headroom
    /// (`halo_growth_steps`, 0 by default). The radius is a guess the
    /// density pass verifies, so a tight one costs at most a
    /// renegotiation, never a result bit. `radius_for` over the reduced
    /// max reproduces `negotiate`'s sequential fold bit-for-bit (max is
    /// order-independent).
    fn negotiate_radius(&mut self, growth: f64) -> Result<f64, ExchangeError> {
        let headroom_cap = self.config.max_h_iterations.saturating_sub(1) as u32;
        let policy = HaloRadiusPolicy::with_headroom(
            SUPPORT_RADIUS,
            growth,
            self.dist.halo_growth_steps.min(headroom_cap),
        );
        let per_rank_max_h: Vec<f64> = self
            .owned
            .iter()
            .map(|ids| ids.iter().map(|&i| self.sys.h[i as usize]).fold(0.0, f64::max))
            .collect();
        let global_max_h = with_retry(self.exchange.as_mut(), &mut self.log, |ex| {
            ex.reduce_max(ExchangePath::HaloNegotiation, &per_rank_max_h)
        })?;
        Ok(policy.radius_for(global_max_h) * HALO_MARGIN)
    }

    /// Each rank's view of one density attempt, computing its owned
    /// particles in `active` (all of them when `None`). With a halo
    /// `radius` every non-empty rank extracts its owned particles plus the
    /// ghosts within the radius of its box; without one (a single rank,
    /// which owns everything and imports nothing) the global system is the
    /// rank's local system.
    fn open_views(
        &self,
        active: Option<&[u32]>,
        radius: Option<f64>,
    ) -> (Vec<RankView>, Option<HaloExchange>) {
        let Some(radius) = radius else {
            let active = active.unwrap_or(&self.owned[0]).to_vec();
            let view = self.timers[0]
                .time(Phase::TreeBuild, || RankView::of_whole_system(0, &self.sys, active));
            return (vec![view], None);
        };
        let halos = self.driver_timers.time(Phase::NeighborLists, || {
            halo_sets(&self.sys.x, &self.decomp, radius, &self.sys.periodicity)
        });
        let views = (0..self.dist.nranks)
            .filter(|&r| !self.owned[r].is_empty())
            .map(|r| {
                // halo_sets emits imports in ascending global id already.
                self.timers[r].time(Phase::TreeBuild, || {
                    RankView::of_subdomain(r, &self.sys, &self.owned[r], &halos.imports[r], active)
                })
            })
            .collect();
        (views, Some(halos))
    }

    /// Evaluate all derivatives: run [`PASSES`] in order over every
    /// rank's view, publishing the owners' results and performing the
    /// pass's exchange point after each. `active = None` evaluates every
    /// particle on its owner; `Some(ids)` (ascending global ids: block
    /// time-stepping) just those.
    ///
    /// Exchange failures surface as `Err` with the state as of the failed
    /// superstep — the recovery layer rolls back; the driver itself never
    /// retries a non-transient fault.
    pub(crate) fn evaluate_derivatives(
        &mut self,
        active: Option<&[u32]>,
    ) -> Result<StepStats, ExchangeError> {
        let nranks = self.dist.nranks;

        // More than one rank: ghosts are imported within a negotiated
        // radius that the density pass then *verifies* against the largest
        // search radius any rank actually requested. On a miss the
        // pre-step smoothing lengths are restored and the pass re-runs at
        // the escalated radius.
        let growth = h_growth_bound(&self.config);
        let mut radius = match nranks {
            1 => None,
            _ => {
                let r = self.negotiate_radius(growth)?;
                self.h_rollback.copy_from_slice(&self.sys.h);
                Some(r)
            }
        };
        let mut renegotiated = 0u32;

        // Self-gravity is long-range: one tree over the global positions,
        // which every rank of a real code replicates — so its build and
        // moments are charged to every rank.
        let replicated = PhaseTimers::new();
        let tree = self.gravity.map(|_| {
            replicated.time(Phase::TreeBuild, || {
                Octree::build(&self.sys.x, &self.sys.bounds(), OctreeConfig::default())
            })
        });
        let solver = tree.as_ref().zip(self.gravity).map(|(tree, gcfg)| {
            replicated.time(Phase::Gravity, || GravitySolver::new(tree, &self.sys.m, gcfg))
        });
        for timers in &self.timers {
            timers.merge_from(&replicated);
        }
        let env = PassEnv {
            kernel: self.kernel.as_ref(),
            config: &self.config,
            eos: &self.eos,
            gravity: solver.as_ref(),
            subset: active.is_some_and(|a| a.len() < self.sys.len()),
        };

        let (mut views, mut halos) = self.open_views(active, radius);
        let mut stats = StepStats::default();
        let mut next = 0;
        while let Some(pass) = PASSES.get(next) {
            next += 1;
            if !(pass.enabled)(&env) {
                continue;
            }
            let mut pass_stats = StepStats::default();
            let mut searched = vec![0.0f64; nranks];
            for view in &mut views {
                let local = match &mut view.copy {
                    Some(copy) => copy,
                    None => &mut self.sys,
                };
                let ran = self.timers[view.rank]
                    .time(pass.phase, || (pass.run)(&env, local, &mut view.ws));
                searched[view.rank] = ran.max_search_radius;
                pass_stats.merge(&ran);
                if let Some(fields) = pass.publishes {
                    view.publish(fields, &mut self.sys);
                }
            }

            if pass.then == ExchangePoint::VerifyHaloThenRefresh {
                self.log.density_attempts += 1;
            }
            if let (ExchangePoint::VerifyHaloThenRefresh, Some(r)) = (pass.then, radius) {
                self.log.ghosts_imported += halos.as_ref().map_or(0, |h| h.total_volume()) as u64;
                // Collective max-reduce of the measured search radius:
                // inside the negotiated radius, every local ball query saw
                // the exact global neighbour set, so the attempt is the
                // global answer. Acceptance is *only* by measured coverage
                // — never by an analytic cap, whose different rounding
                // path could sit a few ulps under the measured radius and
                // admit a missed ghost. The reduce goes through the
                // exchange carrier (max over per-rank maxima ≡ the merged
                // fold, exactly).
                let measured = with_retry(self.exchange.as_mut(), &mut self.log, |ex| {
                    ex.reduce_max(ExchangePath::HaloNegotiation, &searched)
                })?;
                if measured > r {
                    self.log.renegotiations += 1;
                    renegotiated += 1;
                    // Escalation grows the radius geometrically (growth ≥
                    // 1.5), so it passes the fully-covered trajectory's
                    // finite maximum in a handful of rounds — once
                    // covered, measured ≤ radius and the loop accepts. The
                    // counter turns any violation of that argument into a
                    // loud failure instead of a hang.
                    assert!(
                        renegotiated < 64,
                        "halo negotiation failed to converge: radius {r}, measured {measured}"
                    );
                    // Escalate: at least the observed radius (which the
                    // failed attempt understates, since it was computed on
                    // short halos), at least one more growth factor.
                    radius = Some(measured.max(r * growth));
                    // The failed attempt mutated owned h — restore the
                    // pre-step values so the retry reproduces the global
                    // trajectory.
                    self.sys.h.copy_from_slice(&self.h_rollback);
                    // Free the failed attempt's rank copies before the
                    // next set opens, so the two never coexist.
                    drop((std::mem::take(&mut views), halos.take()));
                    (views, halos) = self.open_views(active, radius);
                    next -= 1;
                    continue;
                }
                self.last_exchange = halos.take();
            }
            stats.merge(&pass_stats);

            if let (Some(fields), true) = (pass.publishes, pass.then != ExchangePoint::None) {
                let (exchange, log) = (self.exchange.as_mut(), &mut self.log);
                refresh_ghosts(exchange, log, &self.sys, &mut views, fields)?;
            }
        }

        for view in &views {
            view.account(&mut self.per_particle_work, &mut self.phi);
        }
        self.derivatives_fresh = true;
        Ok(stats)
    }

    // ---------------------------------------------------------------
    // The macro-step driver (Algorithm 1, steps 5–6 + migration)
    // ---------------------------------------------------------------

    /// Execute one macro time-step (Algorithm 1, steps 5–6 around the
    /// evaluation): dt reduce → half-kick → drift → migrate/rebalance →
    /// evaluate → half-kick, for every rank count and stepping policy.
    ///
    /// Pathological time-step states (NaN-poisoned acceleration, infinite
    /// sound speed, …) surface as a [`TimeStepError`] naming the offending
    /// *global* particle id instead of aborting every rank; the state is
    /// left as of the failed criterion evaluation (no kick or drift has
    /// happened), so the caller can checkpoint-restore.
    pub fn step(&mut self) -> Result<StepReport, DistributedError> {
        self.exchange.begin_step(self.sys.step_count);
        let mut stats = StepStats::default();
        if !self.derivatives_fresh {
            stats.merge(&self.evaluate_derivatives(None)?);
        }

        // Step 5: per-particle bounds on the owner, reduced by an exact,
        // order-independent min. Validation happens rank-side (first
        // offending *global* particle id), then each rank folds its owned
        // minimum and the exchange min-reduces the per-rank values — the
        // min of per-rank minima over a partition is bitwise the global
        // min, and empty ranks contribute the +∞ identity.
        let dts =
            self.driver_timers.time(Phase::Update, || per_particle_dt(&self.sys, &self.config));
        validate_dts(&dts)?;
        let per_rank_min: Vec<f64> = self
            .owned
            .iter()
            .map(|ids| ids.iter().map(|&i| dts[i as usize]).fold(f64::INFINITY, f64::min))
            .collect();
        let reduced = with_retry(self.exchange.as_mut(), &mut self.log, |ex| {
            ex.reduce_min(ExchangePath::DtReduce, &per_rank_min)
        })?;
        // The macro step and how many rung levels subdivide it. Global and
        // Adaptive are the zero-level case: every particle on rung 0, one
        // substep.
        let (dt, levels) = match self.config.time_stepping {
            TimeStepping::Global => (finalize_global_dt(reduced), 0),
            TimeStepping::Adaptive { growth_limit } => {
                (finalize_adaptive_dt(reduced, self.dt_prev, growth_limit), 0)
            }
            // Block time-steps (ChaNGa): the largest power-of-two multiple
            // of the global minimum that covers the slowest particle,
            // capped by max_rungs. The slowest finite bound is reduced like
            // the minimum: per-rank maxima folded from `dt_min`, then an
            // exact max-reduce.
            TimeStepping::Individual { max_rungs } => {
                let dt_min = finalize_global_dt(reduced);
                let per_rank_max: Vec<f64> = self
                    .owned
                    .iter()
                    .map(|ids| {
                        let finite = ids.iter().map(|&i| dts[i as usize]).filter(|d| d.is_finite());
                        finite.fold(dt_min, f64::max)
                    })
                    .collect();
                let slowest = with_retry(self.exchange.as_mut(), &mut self.log, |ex| {
                    ex.reduce_max(ExchangePath::DtReduce, &per_rank_max)
                })?;
                let levels =
                    ((slowest / dt_min).log2().floor().max(0.0) as u32).min(max_rungs as u32) as u8;
                (dt_min * (1u64 << levels) as f64, levels)
            }
        };
        let rungs = assign_rungs(&dts, dt, levels);
        if matches!(self.config.time_stepping, TimeStepping::Individual { .. }) {
            self.sys.rung.copy_from_slice(&rungs);
        }

        // Step 6: a synchronised block-KDK leapfrog over 2^levels
        // substeps. Each substep half-kicks the particles active at it by
        // their own rung step, drifts everyone, re-evaluates the active
        // particles and kicks their other half.
        let n = self.sys.len() as u64;
        let substeps = 1u64 << levels;
        let dt_sub = dt / substeps as f64;
        let mut evaluated = 0u64;
        for s in 0..substeps {
            let active = (levels > 0).then(|| active_at_substep(&rungs, s, levels));
            let active = active.as_deref();
            evaluated += active.map_or(n, |a| a.len() as u64);
            self.half_kick(active, &rungs, dt);
            self.driver_timers.time(Phase::Update, || drift(&mut self.sys, dt_sub));

            // Positions moved: migrate strays and, on schedule, rebalance
            // (once per macro-step, at its first substep). Ownership never
            // affects values, so this may happen at any barrier; doing it
            // before the mid-step evaluation keeps the halo pattern aligned
            // with the boxes that will be computed next. A single rank owns
            // everything for good.
            if self.dist.nranks > 1 {
                let barrier = PhaseTimers::new();
                barrier.time(Phase::Update, || self.migrate())?;
                let step_index = self.sys.step_count + 1;
                if s == 0
                    && self.dist.rebalance_every > 0
                    && step_index.is_multiple_of(self.dist.rebalance_every)
                {
                    barrier.time(Phase::Update, || self.rebalance());
                }
                self.driver_timers.merge_from(&barrier);
            }

            stats.merge(&self.evaluate_derivatives(active)?);
            self.half_kick(active, &rungs, dt);
        }
        self.dt_prev = dt;
        self.sys.time += dt;
        self.sys.step_count += 1;
        Ok(StepReport {
            step: self.sys.step_count,
            dt,
            time: self.sys.time,
            stats,
            substeps: substeps as u32,
            active_fraction: evaluated as f64 / (substeps * n) as f64,
        })
    }

    /// Half-kick each rank's `owned ∩ active`, each particle by half the
    /// step of its own rung; without an active subset every particle is on
    /// rung 0 (`dt / 2⁰` is `dt` exactly) and each rank kicks its owned
    /// particles in one call.
    fn half_kick(&mut self, active: Option<&[u32]>, rungs: &[u8], dt: f64) {
        let owner = &self.decomp.assignment;
        for (r, owned) in self.owned.iter().enumerate() {
            self.timers[r].time(Phase::Update, || match active {
                None => kick(&mut self.sys, dt / 2.0, owned),
                Some(active) => {
                    for &i in active.iter().filter(|&&i| owner[i as usize] as usize == r) {
                        let rung_dt = dt / (1u64 << rungs[i as usize]) as f64;
                        kick(&mut self.sys, rung_dt / 2.0, &[i]);
                    }
                }
            });
        }
    }

    /// Run `n_steps` macro steps; stops at the first step error.
    pub fn run(&mut self, n_steps: usize) -> Result<Vec<StepReport>, DistributedError> {
        (0..n_steps).map(|_| self.step()).collect()
    }

    /// Reassign particles that drifted out of their owner's decomposition
    /// box to the rank with the nearest box (ties to the lowest rank —
    /// deterministic), shipping each mover's owner state to its new rank
    /// through the exchange carrier. Returns the number of migrated
    /// particles.
    ///
    /// Only `[x, v, m, h, u]` travel (9 f64 words per particle): the step
    /// order is half-kick → drift → **migrate** → re-evaluate → half-kick,
    /// and the re-evaluation recomputes every other field (ρ, ω, vol,
    /// C-IAD, ∇·v, ∇×v, p, cs, a, du/dt) before anything reads it — the
    /// same minimal payload a real MPI migration would post. A *resting*
    /// mover (block time-stepping, mid macro-step) is the exception: its
    /// other fields stay those of its last evaluation, which in-process
    /// live on in the global store; a real transport would ship them too,
    /// or migrate only at macro-step boundaries.
    fn migrate(&mut self) -> Result<usize, ExchangeError> {
        // Pass 1: decide every move (pure function of positions + boxes).
        let mut moves: Vec<(usize, u32)> = Vec::new();
        for i in 0..self.sys.len() {
            let r = self.decomp.assignment[i] as usize;
            let p = self.sys.x[i];
            let inside = self.boxes[r].is_some_and(|b| b.contains(p));
            if inside {
                continue;
            }
            // Scan in rank order with strict improvement, so the *lowest*
            // rank wins exact-distance ties — including ties against the
            // current owner (the documented deterministic rule).
            let mut best = r as u32;
            let mut best_d = f64::INFINITY;
            for (s, bx) in self.boxes.iter().enumerate() {
                let Some(bx) = bx else { continue };
                let d = bx.dist_sq_to_point(p);
                if d < best_d {
                    best_d = d;
                    best = s as u32;
                }
            }
            if best != r as u32 {
                moves.push((i, best));
            }
        }
        // Pass 2: ship the movers' owner state to each destination rank,
        // in ascending global-id order (moves are discovered in id order,
        // so per-destination order is already ascending). In-process the
        // delivery is the identity; a faulty carrier interposes here.
        const WORDS: usize = 9;
        for dest in 0..self.dist.nranks as u32 {
            let incoming: Vec<usize> =
                moves.iter().filter(|&&(_, to)| to == dest).map(|&(i, _)| i).collect();
            if incoming.is_empty() {
                continue;
            }
            let mut payload = Vec::with_capacity(incoming.len() * WORDS);
            for &i in &incoming {
                let (x, v) = (self.sys.x[i], self.sys.v[i]);
                payload.extend_from_slice(&[
                    x.x,
                    x.y,
                    x.z,
                    v.x,
                    v.y,
                    v.z,
                    self.sys.m[i],
                    self.sys.h[i],
                    self.sys.u[i],
                ]);
            }
            with_retry(self.exchange.as_mut(), &mut self.log, |ex| {
                ex.deliver_f64(ExchangePath::Migration, dest, &mut payload)
            })?;
            for (j, &i) in incoming.iter().enumerate() {
                let w = &payload[j * WORDS..(j + 1) * WORDS];
                self.sys.x[i] = Vec3::new(w[0], w[1], w[2]);
                self.sys.v[i] = Vec3::new(w[3], w[4], w[5]);
                self.sys.m[i] = w[6];
                self.sys.h[i] = w[7];
                self.sys.u[i] = w[8];
            }
        }
        let moved = moves.len();
        for (i, best) in moves {
            self.decomp.assignment[i] = best;
        }
        if moved > 0 {
            self.owned = bucket_owned(&self.decomp);
        }
        self.log.migrations += moved as u64;
        Ok(moved)
    }

    /// Rebuild the decomposition from scratch with the measured
    /// per-particle work as weights, and refresh the migration boxes.
    fn rebalance(&mut self) {
        self.decomp =
            self.dist.partitioner.partition(&self.sys.x, self.dist.nranks, &self.per_particle_work);
        self.owned = bucket_owned(&self.decomp);
        self.boxes = sph_domain::orb::rank_boxes(&self.sys.x, &self.decomp);
        self.log.rebalances += 1;
    }

    // ---------------------------------------------------------------
    // Per-rank checkpoint / restart (sph-ft)
    // ---------------------------------------------------------------

    /// Checkpoint the run as per-rank snapshots plus a manifest. Each
    /// rank stores only its owned particles (`{label}-rank{r}`), as a
    /// real distributed code writes N files; the manifest (under `label`
    /// itself) records the rank count, the ownership assignment and the
    /// adaptive-step memory, so a restore reassembles the exact global
    /// state.
    ///
    /// Every object is encoded once and crosses the exchange carrier's
    /// [`ExchangePath::CheckpointBlob`] path (rank → I/O aggregator in a
    /// real code) before it is stored: the bytes stored are the bytes
    /// delivered. A carrier error gates the write of that object and every
    /// later one — no manifest without its snapshots.
    pub fn checkpoint(
        &mut self,
        store: &mut dyn CheckpointStore,
        label: &str,
    ) -> Result<usize, DistributedError> {
        let mut bytes = 0;
        for (r, owned) in self.owned.iter().enumerate() {
            let mut snapshot = codec::encode(&self.sys.subset(owned));
            with_retry(self.exchange.as_mut(), &mut self.log, |ex| {
                ex.deliver_bytes(ExchangePath::CheckpointBlob, r as u32, &mut snapshot)
            })?;
            bytes += store.put(&rank_label(label, r), &snapshot)?;
        }
        // Potentials travel in the manifest (they are driver state, not
        // ParticleSystem state) so conservation baselines survive restore.
        let mut manifest = codec::encode_manifest(&Manifest {
            nranks: self.dist.nranks,
            dt_prev: self.dt_prev,
            assignment: self.decomp.assignment.clone(),
            phi: if self.gravity.is_some() { self.phi.clone() } else { Vec::new() },
        });
        with_retry(self.exchange.as_mut(), &mut self.log, |ex| {
            ex.deliver_bytes(ExchangePath::CheckpointBlob, 0, &mut manifest)
        })?;
        bytes += store.put(label, &manifest)?;
        Ok(bytes)
    }

    /// Restore a distributed run from [`DistributedSimulation::checkpoint`]
    /// output. The restored run reproduces the uninterrupted run's state
    /// bit-for-bit: snapshots carry the accelerations and energy
    /// derivatives, so the first half-kick after the restore reuses them
    /// exactly as the original run did. A damaged manifest or snapshot is
    /// [`DistributedError::Storage`]; objects that decode but do not fit
    /// together are [`DistributedError::Restore`].
    pub fn restore(
        store: &dyn CheckpointStore,
        label: &str,
        config: SphConfig,
        gravity: Option<GravityConfig>,
        dist: DistributedConfig,
    ) -> Result<Self, DistributedError> {
        let restore_err = |detail: String| DistributedError::Restore { detail };
        let manifest = codec::decode_manifest(&store.get(label)?).map_err(FtError::Codec)?;
        if manifest.nranks != dist.nranks {
            return Err(restore_err(format!(
                "manifest has {} ranks, caller requested {}",
                manifest.nranks, dist.nranks
            )));
        }
        let decomp = Decomposition::new(manifest.assignment, manifest.nranks);
        let n = decomp.assignment.len();

        // Reassemble the global state by scattering each rank's snapshot
        // back to its owned global ids.
        let mut global: Option<ParticleSystem> = None;
        for r in 0..manifest.nranks {
            let owned = decomp.indices_of(r as u32);
            let snap = store.restore(&rank_label(label, r))?;
            if snap.len() != owned.len() {
                return Err(restore_err(format!(
                    "rank {r} snapshot has {} particles, manifest assigns {}",
                    snap.len(),
                    owned.len()
                )));
            }
            let g = global.get_or_insert_with(|| {
                let mut g = snap.subset(&[]);
                g.resize_zeroed(n);
                g
            });
            if snap.time != g.time || snap.step_count != g.step_count {
                return Err(restore_err(format!("rank {r} snapshot is from a different step")));
            }
            g.scatter_from(&owned, &snap);
        }
        let sys = global.ok_or_else(|| restore_err("checkpoint has zero ranks".to_string()))?;
        // Derivatives are fresh in every checkpoint taken *between* steps
        // (a completed step leaves them fresh, and that is the only state
        // a running driver exposes) — but a checkpoint written before the
        // first step carries the constructor's zeroed accelerations, and
        // the replay must re-evaluate them exactly as the original run did.
        let fresh = sys.step_count > 0;
        let mut sim = Self::assemble(sys, config, gravity, dist, decomp, manifest.dt_prev, fresh)?;
        if !manifest.phi.is_empty() {
            // Restore the gravitational-energy baseline; without it the
            // first post-restore conservation() would read Φ = 0.
            sim.phi.copy_from_slice(&manifest.phi);
        }
        Ok(sim)
    }

    /// Remove checkpoint `label` from `store`: its manifest and every
    /// per-rank snapshot the store lists for it, whatever rank count wrote
    /// them (the leftovers of a gated write included).
    pub(crate) fn discard_checkpoint(store: &mut dyn CheckpointStore, label: &str) {
        let prefix = format!("{label}-rank");
        for stored in store.labels() {
            if stored.strip_prefix(&prefix).is_some_and(|r| r.parse::<usize>().is_ok()) {
                store.invalidate(&stored);
            }
        }
        store.invalidate(label);
    }
}

/// The store label of rank `r`'s snapshot in checkpoint `label`.
fn rank_label(label: &str, r: usize) -> String {
    format!("{label}-rank{r}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::SimulationBuilder;
    use sph_core::config::GradientScheme;
    use sph_domain::SfcKind;
    use sph_ft::checkpoint::MemoryStore;
    use sph_ft::codec::CodecError;
    use sph_math::{Mat3, Periodicity, SplitMix64, Vec3};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn gas_ball(n_target: usize, seed: u64) -> ParticleSystem {
        let mut rng = SplitMix64::new(seed);
        let mut x = Vec::new();
        while x.len() < n_target {
            let p =
                Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
            if p.norm() <= 1.0 {
                x.push(p);
            }
        }
        let n = x.len();
        let mut v = vec![Vec3::ZERO; n];
        for (i, vel) in v.iter_mut().enumerate() {
            // A gentle shear so particles actually cross rank boxes.
            *vel = Vec3::new(0.2 * x[i].y, -0.2 * x[i].x, 0.0);
        }
        ParticleSystem::new(
            x,
            v,
            vec![1.0 / n as f64; n],
            vec![0.5; n],
            0.3,
            Periodicity::open(Aabb::cube(Vec3::ZERO, 2.0)),
        )
    }

    fn quick_config() -> SphConfig {
        SphConfig { target_neighbors: 40, max_h_iterations: 5, ..Default::default() }
    }

    use sph_core::diagnostics::state_fingerprint as state_hash;

    #[test]
    fn matches_single_rank_bit_for_bit() {
        let steps = 4;
        let mut reference =
            SimulationBuilder::new(gas_ball(350, 3)).config(quick_config()).build().unwrap();
        reference.run(steps).unwrap();
        let want = state_hash(&reference.sys);

        for nranks in [1usize, 2, 3, 4] {
            let mut dist = DistributedBuilder::new(gas_ball(350, 3))
                .config(quick_config())
                .nranks(nranks)
                .build()
                .unwrap();
            dist.run(steps).unwrap();
            assert_eq!(
                state_hash(&dist.sys),
                want,
                "{nranks}-rank run diverged from the single-rank reference"
            );
            assert_eq!(dist.conservation().kinetic_energy, reference.conservation().kinetic_energy);
        }
    }

    #[test]
    fn every_partitioner_matches_single_rank() {
        let steps = 3;
        let mut reference =
            SimulationBuilder::new(gas_ball(300, 9)).config(quick_config()).build().unwrap();
        reference.run(steps).unwrap();
        let want = state_hash(&reference.sys);
        for partitioner in
            [Partitioner::Slab { axis: 0 }, Partitioner::Sfc(SfcKind::Hilbert), Partitioner::Orb]
        {
            for nranks in [2usize, 3, 4] {
                let mut dist = DistributedBuilder::new(gas_ball(300, 9))
                    .config(quick_config())
                    .distributed(DistributedConfig {
                        nranks,
                        partitioner,
                        rebalance_every: 2,
                        halo_growth_steps: 1,
                    })
                    .build()
                    .unwrap();
                dist.run(steps).unwrap();
                assert_eq!(state_hash(&dist.sys), want, "{partitioner:?} at {nranks} ranks");
                assert!(dist.exchange_log().rebalances >= 1);
            }
        }
    }

    #[test]
    fn halo_renegotiation_from_unconverged_h_still_matches() {
        // Start far from the converged smoothing length so the h iteration
        // must grow past the default halo radius (2 · h_max plus the 5 %
        // margin) and force a renegotiation.
        let make = || {
            let mut sys = gas_ball(300, 5);
            for h in sys.h.iter_mut() {
                *h = 0.08;
            }
            sys
        };
        let mut reference = SimulationBuilder::new(make()).config(quick_config()).build().unwrap();
        reference.step().unwrap();
        let mut dist = DistributedBuilder::new(make())
            .config(quick_config())
            .distributed(DistributedConfig { nranks: 4, ..Default::default() })
            .build()
            .unwrap();
        dist.step().unwrap();
        assert_eq!(state_hash(&dist.sys), state_hash(&reference.sys));
        assert!(
            dist.exchange_log().renegotiations > 0,
            "the default radius on a far-from-converged state should force a renegotiation"
        );
    }

    #[test]
    fn migration_moves_owners_without_moving_values() {
        let mut dist = DistributedBuilder::new(gas_ball(400, 7))
            .config(quick_config())
            .distributed(DistributedConfig {
                nranks: 4,
                rebalance_every: 0, // migration only
                ..Default::default()
            })
            .build()
            .unwrap();
        let before = dist.decomposition().assignment.clone();
        dist.run(6).unwrap();
        let after = &dist.decomposition().assignment;
        assert!(dist.exchange_log().migrations > 0, "shear flow must migrate some particles");
        assert_ne!(&before, after);

        let mut reference =
            SimulationBuilder::new(gas_ball(400, 7)).config(quick_config()).build().unwrap();
        reference.run(6).unwrap();
        assert_eq!(state_hash(&dist.sys), state_hash(&reference.sys));
    }

    #[test]
    fn an_evaluation_reads_only_the_imported_state() {
        // A rank's copy is built from `[x, v, m, h, u]` — the nine words per
        // ghost `halo_bytes_per_step_computed` counts for the import — so
        // whatever else the global store holds when an evaluation starts
        // must be dead: NaN in all of it cannot reach the trajectory.
        for gradients in [GradientScheme::KernelDerivative, GradientScheme::Iad] {
            let config = SphConfig { gradients, ..quick_config() };
            let run = |poison: bool| {
                let mut dist = DistributedBuilder::new(gas_ball(400, 13))
                    .config(config)
                    .nranks(4)
                    .build()
                    .unwrap();
                dist.run(2).unwrap();
                if poison {
                    let sys = &mut dist.sys;
                    for field in [
                        &mut sys.rho,
                        &mut sys.p,
                        &mut sys.cs,
                        &mut sys.du_dt,
                        &mut sys.omega,
                        &mut sys.vol,
                        &mut sys.div_v,
                        &mut sys.curl_v,
                    ] {
                        field.fill(f64::NAN);
                    }
                    sys.a.fill(Vec3::splat(f64::NAN));
                    sys.c_iad.fill(Mat3 { m: [[f64::NAN; 3]; 3] });
                    sys.rung.fill(u8::MAX);
                }
                // Both runs re-evaluate at the state two steps in.
                dist.derivatives_fresh = false;
                dist.run(2).unwrap();
                state_hash(&dist.sys)
            };
            assert_eq!(run(true), run(false), "{gradients:?}: a poisoned field was read");
        }
    }

    #[test]
    fn checkpoint_restore_reproduces_the_uninterrupted_run() {
        let dcfg = DistributedConfig { nranks: 3, ..Default::default() };
        let mut run = DistributedBuilder::new(gas_ball(300, 11))
            .config(quick_config())
            .distributed(dcfg)
            .build()
            .unwrap();
        run.run(2).unwrap();
        let mut store = MemoryStore::new();
        run.checkpoint(&mut store, "mid").unwrap();
        run.run(3).unwrap();
        let want = state_hash(&run.sys);

        let mut replay =
            DistributedSimulation::restore(&store, "mid", quick_config(), None, dcfg).unwrap();
        replay.run(3).unwrap();
        assert_eq!(state_hash(&replay.sys), want, "restore must replay the original run");
    }

    #[test]
    fn gravity_restore_keeps_the_conservation_baseline() {
        use sph_tree::MultipoleOrder;
        let gravity =
            GravityConfig { g: 1.0, theta: 0.6, softening: 0.05, order: MultipoleOrder::Monopole };
        let dcfg = DistributedConfig { nranks: 3, ..Default::default() };
        let mut run = DistributedBuilder::new(gas_ball(250, 37))
            .config(quick_config())
            .gravity(gravity)
            .distributed(dcfg)
            .build()
            .unwrap();
        run.run(2).unwrap();
        let baseline = run.conservation();
        assert!(baseline.gravitational_energy < 0.0);
        let mut store = MemoryStore::new();
        run.checkpoint(&mut store, "g").unwrap();

        let restored =
            DistributedSimulation::restore(&store, "g", quick_config(), Some(gravity), dcfg)
                .unwrap();
        // The restored potentials must reproduce the baseline exactly —
        // a drift detector armed right after the restore must not fire.
        let c = restored.conservation();
        assert_eq!(c.gravitational_energy.to_bits(), baseline.gravitational_energy.to_bits());

        // And the replay still matches the uninterrupted run.
        run.run(2).unwrap();
        let mut replay =
            DistributedSimulation::restore(&store, "g", quick_config(), Some(gravity), dcfg)
                .unwrap();
        replay.run(2).unwrap();
        assert_eq!(state_hash(&replay.sys), state_hash(&run.sys));
    }

    #[test]
    fn restore_with_different_rank_count_is_rejected() {
        let dcfg = DistributedConfig { nranks: 2, ..Default::default() };
        let mut run = DistributedBuilder::new(gas_ball(150, 13))
            .config(quick_config())
            .distributed(dcfg)
            .build()
            .unwrap();
        let mut store = MemoryStore::new();
        run.checkpoint(&mut store, "cp").unwrap();
        let err = DistributedSimulation::restore(
            &store,
            "cp",
            quick_config(),
            None,
            DistributedConfig { nranks: 4, ..Default::default() },
        )
        .err()
        .expect("rank-count mismatch must be rejected");
        assert!(err.to_string().contains("ranks"), "{err}");
    }

    #[test]
    fn restore_rejects_invalid_configs() {
        // The restore path validates the configuration like the builder.
        let dcfg = DistributedConfig { nranks: 2, ..Default::default() };
        let mut run = DistributedBuilder::new(gas_ball(150, 31))
            .config(quick_config())
            .distributed(dcfg)
            .build()
            .unwrap();
        let mut store = MemoryStore::new();
        run.checkpoint(&mut store, "cp").unwrap();

        let invalid = SphConfig { gamma: 0.1, ..quick_config() };
        assert!(DistributedSimulation::restore(&store, "cp", invalid, None, dcfg).is_err());
    }

    #[test]
    fn manifest_roundtrip_and_corruption_detection() {
        let mut dist = DistributedBuilder::new(gas_ball(120, 17))
            .config(quick_config())
            .nranks(2)
            .build()
            .unwrap();
        let mut store = MemoryStore::new();
        dist.checkpoint(&mut store, "cp").unwrap();
        let bytes = store.get("cp").unwrap();
        let m = codec::decode_manifest(&bytes).unwrap();
        assert_eq!(m.nranks, 2);
        assert_eq!(m.assignment, dist.decomp.assignment);

        // Format damage is a storage error naming the codec failure.
        let restore = |store: &MemoryStore| {
            DistributedSimulation::restore(
                store,
                "cp",
                quick_config(),
                None,
                DistributedConfig { nranks: 2, ..Default::default() },
            )
            .err()
        };
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        store.put("cp", &bad).unwrap();
        assert_eq!(
            restore(&store),
            Some(DistributedError::Storage(FtError::Codec(CodecError::ChecksumMismatch)))
        );
        store.put("cp", &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(restore(&store), Some(DistributedError::Storage(FtError::Codec(_)))));
        // A missing rank snapshot is a storage error too.
        store.put("cp", &bytes).unwrap();
        store.invalidate("cp-rank1");
        assert!(matches!(
            restore(&store),
            Some(DistributedError::Storage(FtError::MissingCheckpoint { .. }))
        ));
    }

    /// Checkpoint deliveries as `(to_rank, bytes)`, in order.
    type Deliveries = Rc<RefCell<Vec<(u32, Vec<u8>)>>>;

    /// Wraps the in-process carrier and records every checkpoint delivery.
    struct RecordingExchange {
        delivered: Deliveries,
    }

    impl Exchange for RecordingExchange {
        fn reduce_max(&mut self, path: ExchangePath, v: &[f64]) -> Result<f64, ExchangeError> {
            InProcessExchange.reduce_max(path, v)
        }
        fn reduce_min(&mut self, path: ExchangePath, v: &[f64]) -> Result<f64, ExchangeError> {
            InProcessExchange.reduce_min(path, v)
        }
        fn deliver_f64(
            &mut self,
            path: ExchangePath,
            to_rank: u32,
            payload: &mut Vec<f64>,
        ) -> Result<(), ExchangeError> {
            InProcessExchange.deliver_f64(path, to_rank, payload)
        }
        fn deliver_bytes(
            &mut self,
            path: ExchangePath,
            to_rank: u32,
            payload: &mut Vec<u8>,
        ) -> Result<(), ExchangeError> {
            if path == ExchangePath::CheckpointBlob {
                self.delivered.borrow_mut().push((to_rank, payload.clone()));
            }
            InProcessExchange.deliver_bytes(path, to_rank, payload)
        }
    }

    #[test]
    fn checkpoint_stores_exactly_the_bytes_it_delivers() {
        let delivered = Deliveries::default();
        let mut dist = DistributedBuilder::new(gas_ball(200, 41))
            .config(quick_config())
            .nranks(3)
            .build()
            .unwrap();
        dist.replace_exchange(Box::new(RecordingExchange { delivered: Rc::clone(&delivered) }));
        dist.run(1).unwrap();
        let mut store = MemoryStore::new();
        let bytes = dist.checkpoint(&mut store, "cp").unwrap();

        let delivered = delivered.borrow();
        let mut expected: Vec<(u32, Vec<u8>)> =
            (0..3).map(|r| (r as u32, store.get(&rank_label("cp", r)).unwrap())).collect();
        expected.push((0, store.get("cp").unwrap()));
        assert_eq!(*delivered, expected, "what crosses the seam must be what is stored");
        assert_eq!(bytes, expected.iter().map(|(_, b)| b.len()).sum::<usize>());
        let mut labels = vec!["cp".to_string()];
        labels.extend((0..3).map(|r| rank_label("cp", r)));
        assert_eq!(store.labels(), labels);
    }

    #[test]
    fn discard_checkpoint_removes_one_checkpoint_and_nothing_else() {
        let mut dist = DistributedBuilder::new(gas_ball(150, 43))
            .config(quick_config())
            .nranks(2)
            .build()
            .unwrap();
        let mut store = MemoryStore::new();
        for label in ["gen1", "gen10", "gen2"] {
            dist.checkpoint(&mut store, label).unwrap();
        }
        // The leftover of a gated write at a higher rank count goes too.
        store.put(&rank_label("gen1", 7), b"partial").unwrap();
        DistributedSimulation::discard_checkpoint(&mut store, "gen1");
        let left = store.labels();
        assert!(left.iter().all(|l| !l.starts_with("gen1-") && l != "gen1"), "{left:?}");
        assert_eq!(left.len(), 6, "{left:?}");
        let dcfg = DistributedConfig { nranks: 2, ..Default::default() };
        let gen10 = DistributedSimulation::restore(&store, "gen10", quick_config(), None, dcfg);
        assert!(gen10.is_ok());
    }

    #[test]
    fn poisoned_state_surfaces_error_with_global_index() {
        let mut dist = DistributedBuilder::new(gas_ball(250, 19))
            .config(quick_config())
            .nranks(3)
            .build()
            .unwrap();
        dist.step().unwrap();
        let time_before = dist.sys.time;
        dist.sys.a[41] = Vec3::new(f64::NAN, 0.0, 0.0);
        let err = dist.step().unwrap_err();
        assert!(
            matches!(err, DistributedError::TimeStep(TimeStepError::NonFinite { particle: 41 })),
            "{err}"
        );
        assert_eq!(dist.sys.time, time_before, "failed step must not advance time");
    }

    #[test]
    fn block_stepping_rebalances_once_per_macro_step() {
        // A hot core spreads the rungs, so every macro-step has several
        // substeps; the rebalance schedule counts macro-steps, not substeps.
        let mut sys = gas_ball(400, 23);
        for i in 0..sys.len() {
            if sys.x[i].norm() < 0.3 {
                sys.u[i] = 50.0;
            }
        }
        let config = SphConfig {
            time_stepping: TimeStepping::Individual { max_rungs: 4 },
            ..quick_config()
        };
        let steps = 4;
        let mut dist = DistributedBuilder::new(sys.clone())
            .config(config)
            .distributed(DistributedConfig { nranks: 4, rebalance_every: 1, ..Default::default() })
            .build()
            .unwrap();
        let reports = dist.run(steps).unwrap();
        assert!(reports.iter().any(|r| r.substeps > 1), "no rung spread");
        assert_eq!(dist.exchange_log().rebalances, steps as u64);

        let mut reference = SimulationBuilder::new(sys).config(config).build().unwrap();
        reference.run(steps).unwrap();
        assert_eq!(state_hash(&dist.sys), state_hash(&reference.sys));
    }

    #[test]
    fn builder_rejects_zero_ranks_with_typed_error() {
        let err = DistributedBuilder::new(gas_ball(100, 23))
            .config(quick_config())
            .nranks(0)
            .build()
            .err()
            .expect("zero ranks must be rejected");
        assert!(matches!(err, DistributedBuildError::BadRankCount { nranks: 0, .. }), "{err:?}");
    }

    #[test]
    fn timers_and_exchange_are_populated() {
        let mut dist = DistributedBuilder::new(gas_ball(250, 29))
            .config(quick_config())
            .nranks(2)
            .build()
            .unwrap();
        dist.run(2).unwrap();
        for (r, t) in dist.timers().iter().enumerate() {
            assert!(t.get(Phase::Density) > 0.0, "rank {r} never summed density");
            assert!(t.get(Phase::Momentum) > 0.0, "rank {r} never ran forces");
        }
        assert!(dist.driver_timers().get(Phase::NeighborLists) > 0.0);
        let halos = dist.last_exchange().expect("two ranks must exchange");
        assert!(halos.total_volume() > 0);
        assert!(dist.exchange_log().ghosts_imported > 0);
        let agg = dist.aggregate_timers();
        assert!(agg.total() >= dist.timers()[0].total());
    }
}
