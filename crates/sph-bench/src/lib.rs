//! `sph-bench`, the one command that regenerates every table and figure
//! of the paper, and the performance model behind Figs. 1–4.
//!
//! The paper measured Piz Daint and MareNostrum 4 at up to 1 536 cores;
//! this crate models those runs instead:
//!
//! * `setups` completes each `sph_scenarios::parents` physics
//!   configuration with its Table 3 decomposition and load balancing and
//!   its calibrated cost models; `features` holds Tables 1–4;
//! * `machine` and `cost` turn *counted* work (SPH pairs, gravity
//!   interactions, tree build, serial sections) into modelled seconds;
//! * `step_model` models one time-step at a given rank count from the real
//!   per-particle work measured by `sph-exa`, split by the code's
//!   `sph_domain::Partitioner` and charged for the real halo volumes;
//! * `scaling` sweeps one evolution over every core count (§5.2) and
//!   `tracegen` renders a modelled step as a Fig. 4 trace.
//!
//! The model never invents load imbalance or halo volume — both come from
//! the actual particle distribution; only the unit costs (FLOP per
//! interaction, latency, bandwidth) are calibrated constants.
//!
//! This file holds what the subcommands share: the `--code` lookup,
//! scenario builders at a given scale, and the code-setup → simulation →
//! step-model wiring. Run `cargo run --release -p sph-bench -- SUBCOMMAND
//! [FLAGS]`:
#![doc = concat!("```text\n", include_str!("usage.txt"), "```")]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod cost;
mod features;
mod machine;
mod scaling;
mod setups;
mod step_model;
mod tracegen;

pub use cost::CostModel;
pub use features::{render_table, table1, table2, table3, table4};
pub use machine::{marenostrum4, piz_daint};
pub use scaling::{render_scaling_table, StepWork};
pub use setups::{miniapp, sphynx, CodeSetup, TestCase};
pub use step_model::{LoadBalancing, StepModelConfig, StepTiming};
pub use tracegen::{step_trace, PhaseProfile};

use machine::MachineModel;
use scaling::{paper_sweep, render_weak_scaling_table, weak_scaling_experiment, ScalingRow};
use setups::{changa, sphflow};
use sph_core::config::SphConfig;
use sph_domain::{Partitioner, SfcKind};
use sph_exa::{DistributedError, Simulation, SimulationBuilder};
use sph_scenarios::{evrard_collapse, square_patch, EvrardConfig, SquarePatchConfig};

/// Experiment size. The default is CI-sized with the paper's shape; the
/// paper ran 10⁶ particles for 20 steps on up to 1 536 cores.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Target particle count per test.
    pub particles: usize,
    /// Time-steps to run and average over.
    pub steps: usize,
    /// Largest core count on the x-axis.
    pub max_cores: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale { particles: 20_000, steps: 4, max_cores: 1536 }
    }
}

/// The names `--code` accepts: the three parent codes and the mini-app,
/// with the aliases `sph-flow` and `sph-exa`.
pub const CODE_NAMES: &[&str] = &["sphynx", "changa", "sphflow", "sph-flow", "miniapp", "sph-exa"];

/// The configuration a `--code` name (one of [`CODE_NAMES`]) selects.
pub fn setup_named(name: &str) -> Option<CodeSetup> {
    match name {
        "sphynx" => Some(sphynx()),
        "changa" => Some(changa()),
        "sphflow" | "sph-flow" => Some(sphflow()),
        "miniapp" | "sph-exa" => Some(miniapp()),
        _ => None,
    }
}

/// The setups a comparison runs: the one `code` names, or else the three
/// parent codes of Figs. 1–3.
pub fn setups_for(code: Option<&str>) -> Vec<CodeSetup> {
    match code {
        Some(name) => setup_named(name).into_iter().collect(),
        None => vec![sphynx(), changa(), sphflow()],
    }
}

/// Build the rotating-square-patch simulation for a code setup at the
/// requested particle count (nx = nz = ∛n, as the paper's 100³).
/// Gravity is off — the square patch is a pure hydrodynamics test.
#[expect(
    clippy::expect_used,
    reason = "bench harness: the scenario builder emits a valid system by construction, and the \
              regenerator wants a loud crash, not a threaded error, if that ever breaks"
)]
pub fn build_square_sim(setup: &CodeSetup, particles: usize) -> Simulation {
    let nx = (particles as f64).cbrt().round().max(8.0) as usize;
    let cfg = SquarePatchConfig { nx, nz: nx, gamma: setup.code.sph.gamma, ..Default::default() };
    let sys = square_patch(&cfg);
    let sph = SphConfig { gamma: cfg.gamma, ..setup.code.sph };
    SimulationBuilder::new(sys).config(sph).build().expect("valid square-patch simulation")
}

/// Build the Evrard-collapse simulation for a code setup.
/// Panics if the setup has no self-gravity (SPH-flow — Table 5 excludes
/// it from this test).
#[expect(
    clippy::expect_used,
    reason = "bench harness: scenario builders emit valid systems by construction; a crash here is \
              a bug, not a state the regenerator should have to handle"
)]
pub fn build_evrard_sim(setup: &CodeSetup, particles: usize, seed: u64) -> Simulation {
    #[expect(
        clippy::panic,
        reason = "documented contract: asking SPH-flow for self-gravity is a programming error in \
                  the wiring, mirroring Table 5's exclusion of the code"
    )]
    let gravity = setup.code.gravity.unwrap_or_else(|| {
        panic!("{} cannot run the Evrard collapse (no self-gravity)", setup.code.name)
    });
    let cfg = EvrardConfig { n_target: particles, seed, ..Default::default() };
    let sys = evrard_collapse(&cfg);
    SimulationBuilder::new(sys)
        .config(setup.code.sph)
        .gravity(gravity)
        .build()
        .expect("valid Evrard simulation")
}

/// The step-model configuration of a code setup on `machine`.
fn step_model(setup: &CodeSetup, test: TestCase, machine: MachineModel) -> StepModelConfig {
    StepModelConfig {
        partitioner: setup.partitioner,
        balancing: setup.balancing,
        machine,
        cost: setup.cost_for(test),
    }
}

/// Build the simulation for (code, test case) and the matching step-model
/// configuration for `machine`.
pub fn wire_experiment(
    setup: &CodeSetup,
    test: TestCase,
    machine: MachineModel,
    scale: ExperimentScale,
) -> (Simulation, StepModelConfig) {
    let sim = match test {
        TestCase::SquarePatch => build_square_sim(setup, scale.particles),
        TestCase::Evrard => build_evrard_sim(setup, scale.particles, 42),
    };
    (sim, step_model(setup, test, machine))
}

/// Take `steps` steps (at least one) and measure the last.
pub fn measure_after(sim: &mut Simulation, steps: usize) -> Result<StepWork, DistributedError> {
    let mut report = sim.step()?;
    for _ in 1..steps {
        report = sim.step()?;
    }
    Ok(StepWork::measure(sim, &report))
}

/// Run one strong-scaling panel (one line of Figs. 1–3).
/// Fails if the underlying physics evolution fails.
pub fn run_scaling_panel(
    setup: &CodeSetup,
    test: TestCase,
    machine: MachineModel,
    scale: ExperimentScale,
) -> Result<Vec<ScalingRow>, DistributedError> {
    let (mut sim, model) = wire_experiment(setup, test, machine, scale);
    scaling::scaling_experiment(&mut sim, &model, &paper_sweep(scale.max_cores), scale.steps)
}

/// Run one weak-scaling panel (square patch, Piz Daint model) at
/// `per_core` particles per core and render it as text.
/// Fails if the underlying physics evolution fails.
pub fn run_weak_scaling_panel(
    setup: &CodeSetup,
    core_counts: &[usize],
    per_core: usize,
    steps: usize,
) -> Result<String, DistributedError> {
    let model = step_model(setup, TestCase::SquarePatch, piz_daint());
    let rows = weak_scaling_experiment(
        |n| build_square_sim(setup, n),
        &model,
        core_counts,
        per_core,
        steps,
    )?;
    let title = format!("{} (square patch, Piz Daint model)", setup.code.name);
    Ok(render_weak_scaling_table(&title, &rows))
}

/// The step of Fig. 4: SPHYNX on the Evrard collapse, evolved
/// `scale.steps` steps (at most two, so the trace shows a developed
/// state) and the last one modelled at `ranks` cores of Piz Daint.
/// `fixed` models the SPHYNX the paper's analysis led to: weight-aware
/// decomposition with dynamic balancing. Returns the particle count and
/// the modelled step.
pub fn fig4_step(
    scale: ExperimentScale,
    ranks: usize,
    fixed: bool,
) -> Result<(usize, StepTiming), DistributedError> {
    let (mut sim, mut model) = wire_experiment(&sphynx(), TestCase::Evrard, piz_daint(), scale);
    if fixed {
        model.balancing = LoadBalancing::Dynamic;
        model.partitioner = Partitioner::Sfc(SfcKind::Hilbert);
    }
    let work = measure_after(&mut sim, scale.steps.min(2))?;
    Ok((sim.sys.len(), work.model(&sim, ranks, &model)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_ci_sized() {
        let s = ExperimentScale::default();
        assert_eq!((s.particles, s.steps, s.max_cores), (20_000, 4, 1536));
    }

    #[test]
    fn every_code_name_selects_a_setup() {
        for name in CODE_NAMES {
            assert!(setup_named(name).is_some(), "{name}");
        }
        assert!(setup_named("sphyx").is_none());
        assert_eq!(setup_named("sph-flow").unwrap().code.name, "SPH-flow");
        let names: Vec<_> = setups_for(None).iter().map(|s| s.code.name).collect();
        assert_eq!(names, ["SPHYNX", "ChaNGa", "SPH-flow"]);
        assert_eq!(setups_for(Some("changa")).len(), 1);
    }

    #[test]
    fn square_sim_builds_for_every_code() {
        for setup in [sphynx(), changa(), sphflow()] {
            let sim = build_square_sim(&setup, 1728);
            assert_eq!(sim.sys.len(), 12 * 12 * 12);
            assert!(sim.gravity.is_none(), "{}: square patch must be hydro-only", setup.code.name);
        }
    }

    #[test]
    fn evrard_sim_builds_for_gravity_codes() {
        let sim = build_evrard_sim(&sphynx(), 2000, 1);
        assert!(sim.gravity.is_some());
        assert!(sim.sys.len() > 1000);
    }

    #[test]
    #[should_panic]
    fn evrard_rejects_sphflow() {
        let _ = build_evrard_sim(&sphflow(), 2000, 1);
    }

    #[test]
    fn step_work_charges_gravity_as_gravity() {
        let mut sim = build_evrard_sim(&sphynx(), 2000, 42);
        let work = measure_after(&mut sim, 1).unwrap();
        assert!(work.gravity.iter().sum::<f64>() > 0.0);
        for (i, &w) in sim.per_particle_work().iter().enumerate() {
            let split = work.hydro[i] + work.gravity[i];
            assert!((split - w).abs() <= 1e-12 * w, "particle {i}: {split} vs {w}");
        }
    }

    #[test]
    fn scaling_panel_smoke() {
        let scale = ExperimentScale { particles: 1500, steps: 1, max_cores: 48 };
        let rows =
            run_scaling_panel(&sphflow(), TestCase::SquarePatch, piz_daint(), scale).unwrap();
        assert_eq!(rows.len(), 3); // 12, 24, 48
        assert!(rows[0].mean_step_time > 0.0);
    }
}
