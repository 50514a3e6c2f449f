//! The SPH-EXA mini-app driver.
//!
//! One driver, [`DistributedSimulation`], executes Algorithm 1 of the
//! paper on any number of in-process ranks:
//!
//! ```text
//! Initialization
//! while target simulated time is not reached do
//!   1. Build tree                      (phase A)
//!   2. Find neighbors and h            (phases B–D)
//!   3. Execute SPH kernels             (phases E–H)
//!   4. (Optional) Compute self-gravity (phase I)
//!   5. Compute new time-step           (phase J)
//!   6. Update velocity and position    (phase J)
//! end while
//! ```
//!
//! Steps 1–4 are an explicit, ordered **table of passes** (the private
//! `passes` module: density + h-iteration → volume elements → IAD → EOS →
//! velocity gradients → force lists → forces → gravity), each entry
//! naming its phase, the `sph-core` pass it calls on one rank's
//! particles, the fields its owners publish and the ghost exchange that
//! follows; one loop in `DistributedSimulation::evaluate_derivatives`
//! runs the table over the ranks. Steps 5–6 are one `step()`: dt reduce →
//! half-kick → drift → migrate/rebalance → evaluate → half-kick, with
//! global, adaptive or individual block time-stepping as the substep
//! count of that one loop, on any rank count.
//!
//! [`Simulation`] / [`SimulationBuilder`] are the one-rank constructors of
//! the same driver — a rank that owns every particle computes on the
//! global system in place — and [`ResilientSimulation`] wraps it in the
//! detect / roll back / recompute loop. Everything runs over any
//! [`sph_core::SphConfig`] (i.e. any cell of Tables 1–2), with optional
//! self-gravity, per-phase wall-time timing and per-particle work
//! accounting (the input of the cluster performance model).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod distributed;
mod passes;
pub mod resilient;
pub mod simulation;

pub use distributed::{
    DistributedBuildError, DistributedBuilder, DistributedConfig, DistributedError,
    DistributedSimulation, ExchangeLog, StepReport,
};
pub use resilient::{
    Detection, RecoveryError, RecoveryStats, ResilientConfig, ResilientSimulation, RollbackRecord,
    SchedulerMode,
};
pub use simulation::{Simulation, SimulationBuilder};
