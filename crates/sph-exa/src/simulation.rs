//! The one-rank constructors of the step driver.
//!
//! [`Simulation`] is a [`DistributedSimulation`] with a single rank —
//! which owns every particle, imports no ghost and therefore computes on
//! the global system in place. There is no step logic here: stepping,
//! diagnostics, `sys` / `config` / `gravity` / `phi` and everything else
//! come from the driver through `Deref`.

use crate::distributed::{DistributedBuildError, DistributedBuilder, DistributedSimulation};
use sph_core::config::SphConfig;
use sph_core::particles::ParticleSystem;
use sph_core::StepStats;
use sph_profiler::timers::PhaseTimers;
use sph_tree::GravityConfig;
use std::ops::{Deref, DerefMut};

/// Builder for [`Simulation`]: a [`DistributedBuilder`] pinned to one rank.
pub struct SimulationBuilder(DistributedBuilder);

impl SimulationBuilder {
    pub fn new(sys: ParticleSystem) -> Self {
        SimulationBuilder(DistributedBuilder::new(sys).nranks(1))
    }

    pub fn config(self, config: SphConfig) -> Self {
        SimulationBuilder(self.0.config(config))
    }

    /// Enable self-gravity (Algorithm 1, step 4).
    pub fn gravity(self, gravity: GravityConfig) -> Self {
        SimulationBuilder(self.0.gravity(gravity))
    }

    /// See [`DistributedBuilder::num_threads`].
    pub fn num_threads(self, n: usize) -> Self {
        SimulationBuilder(self.0.num_threads(n))
    }

    pub fn build(self) -> Result<Simulation, DistributedBuildError> {
        self.0.build().map(Simulation)
    }
}

/// A running one-rank simulation (see the module docs).
pub struct Simulation(DistributedSimulation);

impl Deref for Simulation {
    type Target = DistributedSimulation;

    fn deref(&self) -> &DistributedSimulation {
        &self.0
    }
}

impl DerefMut for Simulation {
    fn deref_mut(&mut self) -> &mut DistributedSimulation {
        &mut self.0
    }
}

impl Simulation {
    /// Convenience constructor with defaults.
    pub fn new(sys: ParticleSystem, config: SphConfig) -> Result<Self, DistributedBuildError> {
        SimulationBuilder::new(sys).config(config).build()
    }

    /// Resume from a checkpointed state whose accelerations and energy
    /// derivatives are valid (the `sph-ft` codec persists them). The next
    /// step reuses them for its first half-kick, exactly as the original
    /// run would have — restarts are therefore bit-exact.
    ///
    /// The two `resume` constructors still render their
    /// [`DistributedBuildError`] to a `String`: `benchmark/src/sim.rs`
    /// returns them as `Result<_, String>` without a `?`, and the
    /// benchmark is frozen.
    pub fn resume(sys: ParticleSystem, config: SphConfig) -> Result<Self, String> {
        Self::resumed(SimulationBuilder::new(sys).config(config))
    }

    /// Resume with self-gravity enabled (see [`Simulation::resume`]).
    pub fn resume_with_gravity(
        sys: ParticleSystem,
        config: SphConfig,
        gravity: GravityConfig,
    ) -> Result<Self, String> {
        Self::resumed(SimulationBuilder::new(sys).config(config).gravity(gravity))
    }

    fn resumed(builder: SimulationBuilder) -> Result<Self, String> {
        let mut sim = builder.build()?;
        sim.0.derivatives_fresh = true;
        Ok(sim)
    }

    /// Wall-clock phase timers (real measured time of this process): the
    /// rank's kernel work and the driver's collective work in one view.
    pub fn timers(&self) -> PhaseTimers {
        self.0.aggregate_timers()
    }

    /// Evaluate all derivatives (Algorithm 1 steps 1–4) for `active`
    /// particles. Returns the accumulated statistics.
    #[expect(
        clippy::expect_used,
        reason = "only an exchange can fail an evaluation, and a single rank posts none: a driver \
                  bug, not an input"
    )]
    pub fn evaluate_derivatives(&mut self, active: &[u32]) -> StepStats {
        self.0.evaluate_derivatives(Some(active)).expect("a one-rank evaluation posts no exchange")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::DistributedError;
    use sph_core::config::TimeStepping;
    use sph_core::timestep::TimeStepError;
    use sph_math::{Aabb, Periodicity, SplitMix64, Vec3};
    use sph_profiler::Phase;
    use sph_tree::MultipoleOrder;

    /// A small warm uniform gas ball, open boundaries.
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
        ParticleSystem::new(
            x,
            vec![Vec3::ZERO; n],
            vec![1.0 / n as f64; n],
            vec![0.5; n],
            0.3,
            Periodicity::open(Aabb::cube(Vec3::ZERO, 2.0)),
        )
    }

    fn quick_config() -> SphConfig {
        SphConfig { target_neighbors: 40, max_h_iterations: 5, ..Default::default() }
    }

    #[test]
    fn builder_validates() {
        let sys = gas_ball(300, 1);
        let bad = SphConfig { gamma: 0.1, ..Default::default() };
        assert!(SimulationBuilder::new(sys).config(bad).build().is_err());
    }

    #[test]
    fn single_step_advances_time() {
        let mut sim = Simulation::new(gas_ball(400, 2), quick_config()).unwrap();
        let r = sim.step().unwrap();
        assert!(r.dt > 0.0);
        assert_eq!(r.step, 1);
        assert!((sim.sys.time - r.dt).abs() < 1e-15);
        assert_eq!(r.substeps, 1);
        assert!(r.stats.sph_interactions > 0);
        assert!(sim.sys.sanity_check().is_ok());
    }

    #[test]
    fn hot_ball_expands_and_cools() {
        // Free expansion: kinetic energy grows, internal energy falls,
        // total (no gravity) approximately conserved.
        let mut sim = Simulation::new(gas_ball(500, 3), quick_config()).unwrap();
        let e0 = sim.conservation();
        for _ in 0..5 {
            sim.step().unwrap();
        }
        let e1 = sim.conservation();
        assert!(e1.kinetic_energy > e0.kinetic_energy, "ball must accelerate outward");
        assert!(e1.internal_energy < e0.internal_energy, "expansion must cool the gas");
        let drift = e1.energy_drift(&e0);
        assert!(drift < 0.02, "energy drift {drift}");
    }

    #[test]
    fn momentum_stays_zero() {
        let mut sim = Simulation::new(gas_ball(400, 4), quick_config()).unwrap();
        let scale = {
            // After a few steps there is real momentum flow to compare to.
            for _ in 0..3 {
                sim.step().unwrap();
            }
            sph_core::diagnostics::momentum_scale(&sim.sys)
        };
        let c = sim.conservation();
        assert!(
            c.momentum.norm() < 1e-8 * scale.max(1e-12),
            "net momentum {:?} vs scale {scale}",
            c.momentum
        );
    }

    #[test]
    fn gravity_binds_the_ball() {
        // With strong gravity and little pressure the ball contracts:
        // kinetic energy rises while the potential deepens.
        let mut sys = gas_ball(400, 5);
        for u in sys.u.iter_mut() {
            *u = 0.001; // nearly cold
        }
        let gravity =
            GravityConfig { g: 1.0, theta: 0.6, softening: 0.05, order: MultipoleOrder::Monopole };
        let mut sim =
            SimulationBuilder::new(sys).config(quick_config()).gravity(gravity).build().unwrap();
        sim.step().unwrap(); // populates potentials
        let c0 = sim.conservation();
        assert!(c0.gravitational_energy < 0.0);
        for _ in 0..5 {
            sim.step().unwrap();
        }
        let c1 = sim.conservation();
        assert!(c1.kinetic_energy > c0.kinetic_energy, "collapse must gain KE");
        assert!(
            c1.gravitational_energy < c0.gravitational_energy,
            "potential must deepen during collapse"
        );
    }

    #[test]
    fn adaptive_stepping_limits_growth() {
        let mut cfg = quick_config();
        cfg.time_stepping = TimeStepping::Adaptive { growth_limit: 1.05 };
        let mut sim = Simulation::new(gas_ball(300, 6), cfg).unwrap();
        let r1 = sim.step().unwrap();
        let r2 = sim.step().unwrap();
        assert!(r2.dt <= r1.dt * 1.05 + 1e-12, "dt grew too fast: {} → {}", r1.dt, r2.dt);
    }

    #[test]
    fn individual_stepping_reduces_active_fraction() {
        // A ball with a hot dense core forces rung spread; the active
        // fraction per substep must drop below 1.
        let mut sys = gas_ball(600, 7);
        for i in 0..sys.len() {
            // Hot core: sound speed ∝ √u is 10× higher inside r < 0.3.
            if sys.x[i].norm() < 0.3 {
                sys.u[i] = 50.0;
            }
        }
        let mut cfg = quick_config();
        cfg.time_stepping = TimeStepping::Individual { max_rungs: 4 };
        let mut sim = Simulation::new(sys, cfg).unwrap();
        let r = sim.step().unwrap();
        assert!(r.substeps > 1, "expected rung spread, got {} substeps", r.substeps);
        assert!(
            r.active_fraction < 0.9,
            "active fraction {} shows no block-stepping saving",
            r.active_fraction
        );
        assert!(sim.sys.sanity_check().is_ok());
    }

    #[test]
    fn per_particle_work_is_positive_after_step() {
        let mut sim = Simulation::new(gas_ball(300, 8), quick_config()).unwrap();
        sim.step().unwrap();
        assert!(sim.per_particle_work().iter().all(|&w| w > 0.0));
    }

    #[test]
    fn timers_accumulate_phases() {
        let mut sim = Simulation::new(gas_ball(300, 9), quick_config()).unwrap();
        sim.step().unwrap();
        assert!(sim.timers().get(Phase::TreeBuild) > 0.0);
        assert!(sim.timers().get(Phase::Density) > 0.0);
        assert!(sim.timers().get(Phase::Momentum) > 0.0);
        assert_eq!(sim.timers().get(Phase::Gravity), 0.0); // gravity off
    }

    #[test]
    fn poisoned_state_surfaces_error_instead_of_abort() {
        let mut sim = Simulation::new(gas_ball(300, 11), quick_config()).unwrap();
        sim.step().unwrap();
        let time_before = sim.sys.time;
        // NaN-poison one acceleration (a stand-in for silent memory
        // corruption); the next step must fail loudly — the pre-fix
        // assert! aborted the process — and must not advance the clock.
        sim.sys.a[7] = Vec3::new(f64::NAN, 0.0, 0.0);
        let err = sim.step().unwrap_err();
        assert!(
            matches!(err, DistributedError::TimeStep(TimeStepError::NonFinite { particle: 7 })),
            "{err}"
        );
        assert_eq!(sim.sys.time, time_before, "failed step must not advance time");
    }

    #[test]
    fn run_produces_reports() {
        let mut sim = Simulation::new(gas_ball(300, 10), quick_config()).unwrap();
        let reports = sim.run(3).unwrap();
        assert_eq!(reports.len(), 3);
        assert!(reports.windows(2).all(|w| w[1].time > w[0].time));
    }
}
