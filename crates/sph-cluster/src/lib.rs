//! Distributed-memory cluster simulator.
//!
//! The paper's evaluation ran on Piz Daint (Cray XC50, Aries dragonfly,
//! 12 cores/node used) and MareNostrum 4 (Lenovo, Intel Omni-Path,
//! 48 cores/node) up to 1 536 cores. Reproducing the strong-scaling
//! figures (Figs. 1–3) without that hardware requires a performance model
//! with the right *structure*; this crate provides it:
//!
//! * [`machine`] — machine models of the two platforms (per-core
//!   sustained FLOP rate, cores/node, α–β network parameters);
//! * [`cost`] — per-code cost models translating *counted* work units
//!   (SPH pair interactions, gravity cell/particle interactions, tree
//!   build, serial per-step sections) into modelled seconds;
//! * [`step_model`] — models one time-step at a given rank count from the
//!   real per-particle work measured by `sph-exa`, using a real domain
//!   decomposition (`sph-domain`) and real halo volumes;
//! * [`scaling`] — the strong-scaling experiment driver (one simulation
//!   evolution, modelled at every core count — exactly the fixed-problem
//!   sweep of §5.2) and [`StepWork`], the model's reading of a real step;
//! * [`tracegen`] — renders a modelled step into a `sph-profiler` trace
//!   (the Fig. 4 analogue) including serial-tree idling and barrier waits.
//!
//! What is *not* modelled is as important: the model never invents load
//! imbalance or halo volume — both come from the actual particle
//! distribution of the actual simulation; only the unit costs
//! (FLOP/interaction, latency, bandwidth) are calibrated constants.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod calibrate;
pub mod cost;
pub mod machine;
pub mod scaling;
pub mod step_model;
pub mod tracegen;

pub use calibrate::OnlineCalibrator;
pub use cost::CostModel;
pub use machine::{marenostrum4, piz_daint, MachineModel, NetworkModel};
pub use scaling::{scaling_experiment, ScalingConfig, ScalingRow, StepWork};
pub use step_model::{
    calibrate_machine, model_measured_step, model_step, LoadBalancing, MeasuredStep, Partitioner,
    StepModelConfig, StepTiming, StepWorkload,
};
