//! The bit-identity contract, as one table.
//!
//! A trajectory does not depend on the rank count, the thread count,
//! migration, rebalancing or a restart from a checkpoint. Every cell of
//! the table lands on a committed golden: `state_fingerprint` after 10
//! macro-steps of one workload under one time-stepping policy. The goldens
//! were recorded from the single-rank `Simulation` of commit 2286c7a, the
//! last one where it was an implementation of its own rather than the
//! one-rank case of the step driver, so no cell re-runs a single-rank
//! reference.
//!
//! Each golden row runs at nranks {1, 2, 4} × threads {1, 2, 4, 7} (7, a
//! non-power-of-two, exercises ragged task distribution). Besides the
//! state hash, each thread cell matches its row's 1-thread cell at the
//! same rank count bit for bit in the summed SPH-interaction and
//! node-visit counters and the `conservation()` sums, which keeps the
//! sph-ft conservation-drift SDC detector free of scheduling noise.
//!
//! This module holds the table and runs its cells. [`SHARES`] divides
//! the cells among the tests of three suites (`determinism.rs`,
//! `distributed_step.rs`, `golden_fingerprints.rs`), each of which runs
//! its share by name, and every run checks that the shares cover each cell
//! exactly once. `distributed_step.rs` also lands migration, rebalancing
//! and two mid-run restores on their row's golden.
//!
//! Each cell names its count with a scoped pool
//! (`rayon::ThreadPool::install`), which no concurrently running test can
//! re-point, so libtest keeps running a suite's tests in parallel. Nothing
//! here or in the three suites may set the shim's process-global count:
//! `tests/lint_config.rs` fails if one does.
//!
//! A change that moves a golden changes physics bits: re-record it only
//! with the reason in the commit message.

use sph_exa_repro::core::config::{SphConfig, TimeStepping};
use sph_exa_repro::core::diagnostics::state_fingerprint;
use sph_exa_repro::exa::DistributedBuilder;
use sph_exa_repro::scenarios::{
    evrard_collapse, square_patch, EvrardConfig, Resolution, Scenario, ScenarioSetup,
    SedovScenario, SquarePatchConfig,
};
use sph_exa_repro::tree::{GravityConfig, MultipoleOrder};

pub const STEPS: usize = 10;
const RANK_COUNTS: [usize; 3] = [1, 2, 4];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rotating square patch, 10 × 10 × 10.
    Patch,
    /// Evrard collapse, 800 particles, quadrupole self-gravity.
    Evrard,
    /// Sedov blast at 12³, the registered scenario at scale 0.375.
    Sedov,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Global,
    Adaptive,
    Individual,
}

pub use Policy::{Adaptive, Global, Individual};
pub use Workload::{Evrard, Patch, Sedov};

/// The nine goldens. The growth limiter never binds within 10 steps of
/// these workloads, so each Adaptive golden equals its Global one (the
/// limiter itself is covered by
/// `simulation::tests::adaptive_stepping_limits_growth`).
const GOLDENS: [(Workload, Policy, u64); 9] = [
    (Patch, Global, 0x049a1935acda0ea2),
    (Patch, Adaptive, 0x049a1935acda0ea2),
    (Patch, Individual, 0xa7cd9bdf3bbae3e8),
    (Evrard, Global, 0x83c56fd90912cf62),
    (Evrard, Adaptive, 0x83c56fd90912cf62),
    (Evrard, Individual, 0xafd9ec47398c6567),
    (Sedov, Global, 0x7a2d6c92747cd42c),
    (Sedov, Adaptive, 0x7a2d6c92747cd42c),
    (Sedov, Individual, 0x1125689a62d882b2),
];

pub fn golden(workload: Workload, policy: Policy) -> u64 {
    GOLDENS
        .iter()
        .find(|&&(w, p, _)| (w, p) == (workload, policy))
        .map(|&(_, _, hash)| hash)
        .expect("every row has a golden")
}

/// Which test runs which cells: every thread count of the golden rows of
/// one workload under the given policies, at the given rank counts.
const SHARES: [(&str, Workload, &[Policy], &[usize]); 9] = [
    // tests/determinism.rs
    ("square_patch_step_is_bit_identical_across_thread_counts", Patch, &EVERY_POLICY, &[1]),
    ("evrard_step_is_bit_identical_across_thread_counts", Evrard, &EVERY_POLICY, &[1]),
    ("sedov_step_is_bit_identical_across_thread_counts", Sedov, &EVERY_POLICY, &[1]),
    ("sedov_is_bit_identical_across_rank_counts", Sedov, &[Global], &[2, 4]),
    // tests/distributed_step.rs
    ("square_patch_matches_single_rank_across_ranks_and_threads", Patch, &[Global], &[2, 4]),
    (
        "evrard_with_gravity_matches_single_rank_across_ranks_and_threads",
        Evrard,
        &[Global],
        &[2, 4],
    ),
    // tests/golden_fingerprints.rs
    ("square_patch_goldens", Patch, &[Adaptive, Individual], &[2, 4]),
    ("evrard_goldens", Evrard, &[Adaptive, Individual], &[2, 4]),
    ("sedov_goldens", Sedov, &[Adaptive, Individual], &[2, 4]),
];

const EVERY_POLICY: [Policy; 3] = [Global, Adaptive, Individual];

impl Policy {
    pub fn stepping(self) -> TimeStepping {
        match self {
            Global => TimeStepping::Global,
            Adaptive => TimeStepping::Adaptive { growth_limit: 1.05 },
            Individual => TimeStepping::Individual { max_rungs: 4 },
        }
    }
}

impl Workload {
    pub fn setup(self) -> ScenarioSetup {
        match self {
            Patch => {
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
            Evrard => ScenarioSetup {
                sys: evrard_collapse(&EvrardConfig {
                    n_target: 800,
                    seed: 7,
                    ..EvrardConfig::default()
                }),
                config: SphConfig {
                    target_neighbors: 40,
                    max_h_iterations: 5,
                    ..Default::default()
                },
                gravity: Some(GravityConfig {
                    g: 1.0,
                    theta: 0.6,
                    softening: 1e-2,
                    order: MultipoleOrder::Quadrupole,
                }),
            },
            Sedov => SedovScenario.init(Resolution { scale: 0.375 }),
        }
    }

    /// The row's set-up on the default decomposition.
    pub fn builder(self, policy: Policy) -> DistributedBuilder {
        let setup = self.setup();
        let b = DistributedBuilder::new(setup.sys)
            .config(SphConfig { time_stepping: policy.stepping(), ..setup.config });
        match setup.gravity {
            Some(g) => b.gravity(g),
            None => b,
        }
    }
}

/// What a cell's run must reproduce, as raw bits (an f64 compare would
/// hide −0.0 / NaN mismatches and invite tolerance creep: the contract is
/// *bit* identity).
#[derive(Debug, PartialEq, Eq)]
struct Tally {
    /// `state_fingerprint`, which also hashes the simulation time.
    state_hash: u64,
    sph_interactions: u64,
    nodes_visited: u64,
    /// Mass, momentum, angular momentum, kinetic, internal and
    /// gravitational energy.
    conservation: [u64; 10],
}

/// One rank × thread cell: STEPS macro-steps inside a pool of `threads`.
fn run_cell(workload: Workload, policy: Policy, nranks: usize, threads: usize) -> Tally {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
    pool.install(|| {
        let mut sim = workload.builder(policy).nranks(nranks).build().expect("builds");
        let (mut sph_interactions, mut nodes_visited) = (0, 0);
        for _ in 0..STEPS {
            assert_eq!(rayon::current_num_threads(), threads, "a step left its cell's pool");
            let report = sim.step().expect("stable step");
            sph_interactions += report.stats.sph_interactions;
            nodes_visited += report.stats.neighbor.nodes_visited;
        }
        let c = sim.conservation();
        Tally {
            state_hash: state_fingerprint(&sim.sys),
            sph_interactions,
            nodes_visited,
            conservation: [
                c.total_mass,
                c.momentum.x,
                c.momentum.y,
                c.momentum.z,
                c.angular_momentum.x,
                c.angular_momentum.y,
                c.angular_momentum.z,
                c.kinetic_energy,
                c.internal_energy,
                c.gravitational_energy,
            ]
            .map(f64::to_bits),
        }
    })
}

/// Run the share of the table that [`SHARES`] gives the test `name`,
/// after checking that the shares cover every cell exactly once.
pub fn check_share(name: &str) {
    for &(workload, policy, _) in &GOLDENS {
        for nranks in RANK_COUNTS {
            let runs = SHARES
                .iter()
                .filter(|&&(_, w, ps, rs)| {
                    w == workload && ps.contains(&policy) && rs.contains(&nranks)
                })
                .count();
            assert_eq!(
                runs, 1,
                "{workload:?} under {policy:?} at nranks={nranks} is in {runs} shares"
            );
        }
    }
    let &(_, workload, policies, ranks) =
        SHARES.iter().find(|&&(n, ..)| n == name).expect("the test has a share");
    for &policy in policies {
        let want = golden(workload, policy);
        for &nranks in ranks {
            let one_thread = run_cell(workload, policy, nranks, 1);
            assert_eq!(
                one_thread.state_hash, want,
                "{workload:?} under {policy:?} at nranks={nranks}, 1 thread: {:#018x} is not \
                 the golden {want:#018x}",
                one_thread.state_hash
            );
            for threads in &THREAD_COUNTS[1..] {
                assert_eq!(
                    run_cell(workload, policy, nranks, *threads),
                    one_thread,
                    "{workload:?} under {policy:?} at nranks={nranks}: {threads} threads differ \
                     from 1"
                );
            }
        }
    }
}
