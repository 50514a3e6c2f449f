//! The scenario engine: a trait-based workload registry with a generic
//! runner and a validation/metrics harness.
//!
//! # The `Scenario` contract
//!
//! A [`Scenario`] is one physics workload packaged end-to-end:
//!
//! 1. **Init** — [`Scenario::init`] builds deterministic initial
//!    conditions *and* the solver configuration they need (kernel, γ,
//!    viscosity, boundary metric, optional self-gravity) at a requested
//!    [`Resolution`]. The same `(scenario, resolution)` pair must always
//!    produce the bit-identical [`ParticleSystem`].
//! 2. **Reference** — [`Scenario::analytic_reference`] exposes the exact
//!    or well-known solution at time `t` where one exists: a pointwise
//!    primitive-variable profile ([`AnalyticReference::Profile`]) or a
//!    self-similar shock-front radius
//!    ([`AnalyticReference::ShockRadius`]). Scenarios without a closed
//!    form (e.g. Kelvin–Helmholtz) return `None` and validate through a
//!    tracked diagnostic instead.
//! 3. **Validate** — [`Scenario::validate`] consumes a completed
//!    [`ScenarioRun`] and produces a [`ValidationReport`]: L1/L∞ error
//!    norms against the reference when one exists, conservation drift,
//!    and named pass/fail [`Check`]s with measured values and thresholds.
//!    `report.passed` is the machine-readable gate the `scenario_suite`
//!    binary (and CI) enforces.
//!
//! Scenarios run through the one step driver
//! ([`sph_exa::DistributedSimulation`]) via [`run_scenario`], at whatever
//! rank count [`RunOptions::nranks`] asks for. Trajectories are bit-identical for
//! any rank count (the repo-wide determinism contract), so a scenario
//! validated on one rank is validated on all.
//!
//! The [`ScenarioRegistry`] replaces the old hard-coded two-row table:
//! the paper's Table 5 is now *derived* from the registry (scenarios
//! carry their Table 5 row as metadata), so the table and the runnable
//! workloads cannot drift apart.

use sph_core::config::SphConfig;
use sph_core::diagnostics::Conservation;
use sph_core::particles::ParticleSystem;
use sph_exa::DistributedBuilder;
use sph_json::Value;
use sph_math::Vec3;
use sph_tree::GravityConfig;

use crate::registry::ScenarioInfo;

/// Resolution knob passed to [`Scenario::init`]: a multiplier on the
/// scenario's registered validation resolution (`1.0` = the resolution
/// its tolerances are calibrated for; CI runs exactly that, paper-scale
/// runs pass `> 1`).
///
/// **Contract:** resolution scales *discretisation only* (lattice /
/// particle counts). A scenario's physics parameters are
/// resolution-independent — that is what lets `validate` and
/// `analytic_reference` derive the reference from
/// `self.cfg(Resolution::default())` and have it match a run at any
/// scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resolution {
    pub scale: f64,
}

impl Default for Resolution {
    fn default() -> Self {
        Resolution { scale: 1.0 }
    }
}

impl Resolution {
    /// Scale a reference lateral particle count, clamped below by
    /// `floor` (so pathological scales still build a runnable system).
    pub fn scaled(&self, reference: usize, floor: usize) -> usize {
        ((reference as f64 * self.scale).round() as usize).max(floor)
    }
}

/// Everything a driver needs to run one workload.
pub struct ScenarioSetup {
    pub sys: ParticleSystem,
    pub config: SphConfig,
    pub gravity: Option<GravityConfig>,
}

/// Pointwise primitive-variable state of an analytic solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimitiveState {
    pub rho: f64,
    pub p: f64,
    pub v: Vec3,
}

/// An analytic (or well-known) reference solution at a fixed time.
pub enum AnalyticReference {
    /// Exact primitive variables as a function of position.
    Profile(Box<dyn Fn(Vec3) -> PrimitiveState + Send + Sync>),
    /// A self-similar shock-front radius (measured from the origin).
    ShockRadius(f64),
}

/// One physics workload: deterministic initial conditions, solver
/// configuration, analytic reference, and validation logic. See the
/// module docs for the full contract.
pub trait Scenario: Send + Sync {
    /// Unique registry name (kebab-case).
    fn name(&self) -> &'static str;

    /// Literature reference of the test.
    fn reference(&self) -> &'static str;

    /// One-line description of the physics.
    fn description(&self) -> &'static str;

    /// Human description of the analytic / well-known check `validate`
    /// enforces (shown in the scenario catalogue).
    fn analytic_check(&self) -> &'static str;

    /// The paper's Table 5 row, for the two workloads the paper
    /// validates. `scenario_table()` is derived from these.
    fn table5_row(&self) -> Option<ScenarioInfo> {
        None
    }

    /// Build initial conditions + solver configuration.
    fn init(&self, res: Resolution) -> ScenarioSetup;

    /// End time of a validation run (the tolerances are registered for
    /// a run from t = 0 to this time at `Resolution::default()`).
    fn end_time(&self) -> f64;

    /// Registered L1 tolerance for the suite gate: the L1 error norm
    /// (or shock-position relative error) `validate` reports must not
    /// exceed this. Scenarios without an error norm gate on their named
    /// checks instead and register the conservation-drift bound here.
    fn l1_tolerance(&self) -> f64;

    /// The analytic reference at time `t`, where one exists.
    fn analytic_reference(&self, t: f64) -> Option<AnalyticReference>;

    /// A scalar diagnostic sampled over the run (mode amplitude, peak
    /// azimuthal velocity, shock radius, …). `None` = nothing tracked.
    fn track(&self, sys: &ParticleSystem) -> Option<f64> {
        let _ = sys;
        None
    }

    /// Validate a completed run.
    fn validate(&self, run: &ScenarioRun) -> ValidationReport;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Dynamic scenario registry: the successor of the hard-coded two-row
/// `scenario_table()`. Holds trait objects, so downstream crates can
/// register their own workloads next to the built-ins.
#[derive(Default)]
pub struct ScenarioRegistry {
    entries: Vec<Box<dyn Scenario>>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ScenarioRegistry { entries: Vec::new() }
    }

    /// Every built-in workload, paper scenarios first (their registry
    /// order is the Table 5 row order).
    pub fn builtin() -> Self {
        let mut r = ScenarioRegistry::new();
        for s in crate::builtin_scenarios() {
            #[expect(
                clippy::expect_used,
                reason = "the name set is static and the registry contract test covers it; \
                          duplication is a code bug"
            )]
            r.register(s).expect("built-in names are unique");
        }
        r
    }

    /// Register a scenario; names must be unique.
    pub fn register(&mut self, s: Box<dyn Scenario>) -> Result<(), String> {
        if self.get(s.name()).is_some() {
            return Err(format!("scenario {:?} is already registered", s.name()));
        }
        self.entries.push(s);
        Ok(())
    }

    /// Look a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.entries.iter().find(|s| s.name() == name).map(|s| s.as_ref())
    }

    /// Iterate the scenarios in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.entries.iter().map(|s| s.as_ref())
    }

    /// Registered names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|s| s.name()).collect()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The markdown scenario catalogue (the README section is generated
    /// from this, and a test keeps the two in sync).
    pub fn catalogue_markdown(&self) -> String {
        let mut out = String::from(
            "| Scenario | Reference | Analytic check | Drivers |\n\
             |----------|-----------|----------------|---------|\n",
        );
        for s in self.iter() {
            out.push_str(&format!(
                "| `{}` | {} | {} | `Simulation`, `DistributedSimulation` |\n",
                s.name(),
                s.reference(),
                s.analytic_check(),
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Generic runner
// ---------------------------------------------------------------------

/// Options of one [`run_scenario`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub resolution: Resolution,
    /// In-process ranks of the step driver (trajectories are bit-identical
    /// for any rank count).
    pub nranks: usize,
    /// Override of the scenario's registered end time (`None` = run to
    /// [`Scenario::end_time`]).
    pub end_time: Option<f64>,
    /// Hard cap on macro-steps (safety net; also the knob short smoke
    /// runs use instead of an end time).
    pub max_steps: usize,
    /// Sample [`Scenario::track`] every this many steps.
    pub sample_every: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            resolution: Resolution::default(),
            nranks: 1,
            end_time: None,
            max_steps: 100_000,
            sample_every: 10,
        }
    }
}

/// One `(time, value)` sample of the scenario's tracked diagnostic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSample {
    pub time: f64,
    pub value: f64,
}

/// A completed scenario run: the final state plus everything `validate`
/// needs to judge it.
pub struct ScenarioRun {
    /// Final particle state.
    pub sys: ParticleSystem,
    /// Final gravitational potentials (zeros with gravity off).
    pub phi: Vec<f64>,
    /// Conservation baseline after the *first* step (the first
    /// derivative evaluation populates pressures and potentials; drift
    /// is measured from here, the standard convention).
    pub initial: Conservation,
    /// Conservation at the end of the run.
    pub final_conservation: Conservation,
    /// Macro-steps taken.
    pub steps: u64,
    /// Samples of [`Scenario::track`] over the run (includes the t = 0
    /// state and the final state).
    pub samples: Vec<MetricSample>,
}

impl ScenarioRun {
    /// Relative total-energy drift over the run.
    pub fn energy_drift(&self) -> f64 {
        self.final_conservation.energy_drift(&self.initial)
    }
}

/// Run one scenario through the step driver: step until the end time (or
/// the step cap), sampling the tracked diagnostic on the way, then
/// assemble the [`ScenarioRun`]. Every rank count executes the same
/// macro-step count with bit-identical dt sequences, so fingerprints of
/// the returned `sys` may be compared across rank counts.
pub fn run_scenario(sc: &dyn Scenario, opts: &RunOptions) -> Result<ScenarioRun, String> {
    let setup = sc.init(opts.resolution);
    let mut b = DistributedBuilder::new(setup.sys).config(setup.config).nranks(opts.nranks);
    if let Some(g) = setup.gravity {
        b = b.gravity(g);
    }
    let mut sim = b.build()?;

    let end_time = opts.end_time.unwrap_or_else(|| sc.end_time());
    let mut samples = Vec::new();
    let sample = |sys: &ParticleSystem, samples: &mut Vec<MetricSample>| {
        if let Some(v) = sc.track(sys) {
            if samples.last().map(|s: &MetricSample| s.time) != Some(sys.time) {
                samples.push(MetricSample { time: sys.time, value: v });
            }
        }
    };
    sample(&sim.sys, &mut samples);
    let mut initial: Option<Conservation> = None;
    let mut steps = 0u64;
    while sim.sys.time < end_time && steps < opts.max_steps as u64 {
        sim.step()?;
        steps += 1;
        if initial.is_none() {
            initial = Some(sim.conservation());
        }
        if opts.sample_every > 0 && steps.is_multiple_of(opts.sample_every as u64) {
            sample(&sim.sys, &mut samples);
        }
    }
    let initial = initial.unwrap_or_else(|| sim.conservation());
    let final_conservation = sim.conservation();
    sample(&sim.sys, &mut samples);
    Ok(ScenarioRun { sys: sim.sys, phi: sim.phi, initial, final_conservation, steps, samples })
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// L1 / L∞ error norms against an analytic reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorNorms {
    /// Mean absolute error, normalised by the mean reference magnitude.
    pub l1: f64,
    /// Max absolute error, normalised by the mean reference magnitude.
    pub linf: f64,
}

/// One named pass/fail criterion of a validation.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub measured: f64,
    /// The bound `measured` is compared against.
    pub threshold: f64,
    pub passed: bool,
}

impl Check {
    /// `measured ≤ threshold` passes.
    pub fn upper(name: &'static str, measured: f64, threshold: f64) -> Check {
        Check { name, measured, threshold, passed: measured <= threshold }
    }

    /// `measured ≥ threshold` passes.
    pub fn lower(name: &'static str, measured: f64, threshold: f64) -> Check {
        Check { name, measured, threshold, passed: measured >= threshold }
    }
}

/// Machine-readable outcome of one scenario validation — the unit of the
/// accuracy trajectory `scenario_suite` emits as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    pub scenario: String,
    pub n_particles: usize,
    pub steps: u64,
    pub end_time: f64,
    /// Error norms vs the analytic reference (`None` when the scenario
    /// has no pointwise reference).
    pub norms: Option<ErrorNorms>,
    /// The registered L1 gate ([`Scenario::l1_tolerance`]).
    pub l1_tolerance: f64,
    /// Relative total-energy drift over the run.
    pub energy_drift: f64,
    /// |ΔP| over the run, relative to the momentum scale of the flow
    /// (scenarios with net bulk momentum — e.g. shear layers — stay
    /// meaningful: the *change* is gated, not the magnitude).
    pub momentum_drift: f64,
    /// Named scenario-specific checks.
    pub checks: Vec<Check>,
    /// Scenario-specific diagnostic values (not gated, just reported).
    pub metrics: Vec<(&'static str, f64)>,
    /// The overall gate: the conjunction of `checks` — the named
    /// checks are the *single* source of truth (scenarios with an
    /// error norm push an explicit check against `l1_tolerance`, so a
    /// failing report always has a failing check to point at).
    pub passed: bool,
}

impl ValidationReport {
    /// Assemble a report, deriving `passed` from the checks + norms.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        scenario: &str,
        run: &ScenarioRun,
        end_time: f64,
        norms: Option<ErrorNorms>,
        l1_tolerance: f64,
        momentum_scale: f64,
        checks: Vec<Check>,
        metrics: Vec<(&'static str, f64)>,
    ) -> ValidationReport {
        let energy_drift = run.energy_drift();
        let momentum_drift = (run.final_conservation.momentum - run.initial.momentum).norm()
            / momentum_scale.max(f64::MIN_POSITIVE);
        let passed = checks.iter().all(|c| c.passed);
        ValidationReport {
            scenario: scenario.to_string(),
            n_particles: run.sys.len(),
            steps: run.steps,
            end_time,
            norms,
            l1_tolerance,
            energy_drift,
            momentum_drift,
            checks,
            metrics,
            passed,
        }
    }

    /// The report as a [`sph_json::Value`] tree (non-finite numbers map
    /// to `null` per the shared writer's contract).
    pub fn to_value(&self) -> Value {
        let (l1, linf) = match self.norms {
            Some(n) => (Value::Num(n.l1), Value::Num(n.linf)),
            None => (Value::Null, Value::Null),
        };
        Value::obj(vec![
            ("scenario", Value::str(&self.scenario)),
            ("n_particles", Value::Num(self.n_particles as f64)),
            ("steps", Value::Num(self.steps as f64)),
            ("end_time", Value::Num(self.end_time)),
            ("l1", l1),
            ("linf", linf),
            ("l1_tolerance", Value::Num(self.l1_tolerance)),
            ("energy_drift", Value::Num(self.energy_drift)),
            ("momentum_drift", Value::Num(self.momentum_drift)),
            (
                "checks",
                Value::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Value::obj(vec![
                                ("name", Value::str(c.name)),
                                ("measured", Value::Num(c.measured)),
                                ("threshold", Value::Num(c.threshold)),
                                ("passed", Value::Bool(c.passed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Value::Obj(
                    self.metrics.iter().map(|(k, v)| (k.to_string(), Value::Num(*v))).collect(),
                ),
            ),
            ("passed", Value::Bool(self.passed)),
        ])
    }

    /// Serialise as compact JSON text (shared hand-rolled writer — the
    /// workspace is offline, so no serde).
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }
}

/// Scale for momentum-conservation checks: `Σ|mᵢvᵢ|` of a state (the
/// denominator of [`ValidationReport::momentum_drift`]-style ratios).
pub fn momentum_scale(sys: &ParticleSystem) -> f64 {
    (0..sys.len()).map(|i| sys.m[i] * sys.v[i].norm()).sum()
}

/// Density error norms of `sys` against a pointwise reference profile,
/// over the particles selected by `mask`. Normalisation is the mean
/// reference density over the selection (so `l1 = 0.05` means "5 % of
/// the mean density").
pub fn density_error_norms(
    sys: &ParticleSystem,
    profile: &dyn Fn(Vec3) -> PrimitiveState,
    mask: impl Fn(usize) -> bool,
) -> ErrorNorms {
    let mut abs_sum = 0.0;
    let mut abs_max: f64 = 0.0;
    let mut ref_sum = 0.0;
    let mut n = 0usize;
    for i in 0..sys.len() {
        if !mask(i) {
            continue;
        }
        let want = profile(sys.x[i]).rho;
        let err = (sys.rho[i] - want).abs();
        abs_sum += err;
        abs_max = abs_max.max(err);
        ref_sum += want;
        n += 1;
    }
    assert!(n > 0, "density_error_norms: empty selection");
    let mean_ref = ref_sum / n as f64;
    ErrorNorms { l1: abs_sum / n as f64 / mean_ref, linf: abs_max / mean_ref }
}
