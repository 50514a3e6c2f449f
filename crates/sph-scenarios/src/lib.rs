//! Physics workloads for the mini-app: the scenario engine.
//!
//! The paper validates on exactly two workloads (Table 5, §5.1); the
//! ROADMAP's north star demands "as many scenarios as you can imagine".
//! This crate provides both: a trait-based **scenario engine**
//! ([`engine::Scenario`] + [`engine::ScenarioRegistry`]) and six
//! registered workloads, each with deterministic initial conditions, a
//! solver configuration, an analytic (or well-known) reference, and a
//! machine-checkable validation:
//!
//! | Scenario | Reference | Analytic check |
//! |----------|-----------|----------------|
//! | `square-patch` | Colagrossi 2005 | Poisson-series pressure, L_z retention |
//! | `evrard` | Evrard 1988 | W₀ = −2GM²/(3R), energy ledger |
//! | `sedov` | Sedov 1959 / Taylor 1950 | self-similar shock radius |
//! | `sod` | Sod 1978 | exact Riemann solution (L1 density) |
//! | `gresho` | Gresho & Chan 1990 | stationary vortex, v_φ retention |
//! | `kelvin-helmholtz` | McNally et al. 2012 | seeded-mode growth |
//!
//! # The `Scenario` trait contract
//!
//! * [`engine::Scenario::init`] is **deterministic**: the same
//!   resolution always builds the bit-identical [`sph_core::ParticleSystem`]
//!   and returns the solver configuration the workload needs (γ,
//!   viscosity, boundary metric, optional gravity). Scenarios never
//!   reach into driver internals.
//! * [`engine::Scenario::analytic_reference`] returns the exact solution
//!   at a time where one exists — a pointwise primitive-variable profile
//!   or a shock-front radius — and `None` otherwise.
//! * [`engine::Scenario::validate`] consumes a completed
//!   [`engine::ScenarioRun`] and produces a [`engine::ValidationReport`]:
//!   L1/L∞ norms, conservation drift, and named checks against the
//!   registered tolerances. `report.passed` is the CI gate.
//! * Every registered scenario runs through **both** step drivers
//!   ([`engine::run_scenario`]): the single-rank `Simulation` and the
//!   multi-rank `DistributedSimulation` produce bit-identical states for
//!   any rank/thread count, so validation transfers between them.
//!
//! The paper's Table 5 ([`registry::scenario_table`]) is *derived* from
//! the registry entries that carry paper metadata — the table cannot
//! drift from the runnable workloads.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod engine;
pub mod evrard;
pub mod gresho;
pub mod kelvin_helmholtz;
pub mod registry;
pub mod relaxation;
pub mod sedov;
pub mod sod;
pub mod square_patch;

pub use engine::{
    density_error_norms, run_scenario, AnalyticReference, Check, ErrorNorms, MetricSample,
    PrimitiveState, Resolution, RunOptions, Scenario, ScenarioRegistry, ScenarioRun, ScenarioSetup,
    ValidationReport,
};
pub use evrard::{evrard_collapse, EvrardConfig, EvrardScenario};
pub use gresho::{gresho_pressure, gresho_v_phi, gresho_vortex, GreshoConfig, GreshoScenario};
pub use kelvin_helmholtz::{
    kelvin_helmholtz, kh_mode_amplitude, KelvinHelmholtzConfig, KelvinHelmholtzScenario,
};
pub use registry::{scenario_table, ScenarioInfo};
pub use relaxation::{relax_to_glass, RelaxationConfig, RelaxationReport};
pub use sedov::{
    sedov_blast, sedov_shock_radius, shock_radius_estimate, SedovConfig, SedovScenario,
};
pub use sod::{sod_tube, RiemannProblem, RiemannSolution, RiemannState, SodConfig, SodScenario};
pub use square_patch::{
    square_patch, square_patch_pressure, SquarePatchConfig, SquarePatchScenario,
};

/// Every built-in workload, in registry (and Table 5 row) order.
pub fn builtin_scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(SquarePatchScenario),
        Box::new(EvrardScenario),
        Box::new(SedovScenario),
        Box::new(SodScenario),
        Box::new(GreshoScenario),
        Box::new(KelvinHelmholtzScenario),
    ]
}
