//! The three simulation workloads: set-up, timed episodes with their
//! correctness gates, and — in the traced run — the pass replay and the
//! per-layer measurements taken on the workload's own state.

use crate::inputs::{sim_case, SimCase};
use crate::machine;
use crate::replay::Replay;
use crate::stats::{fastest, mean, median, percentile, tail};
use crate::trace::Tracer;
use crate::{spec, Measured, RunArgs};
use sph_core::diagnostics::{momentum_scale, state_fingerprint};
use sph_core::{Conservation, ParticleSystem, SphConfig};
use sph_exa::{
    DistributedBuilder, DistributedConfig, DistributedSimulation, ExchangeLog, Simulation,
    SimulationBuilder, StepReport,
};
use sph_ft::checkpoint::DiskStore;
use sph_ft::codec::state_checksum;
use sph_profiler::Phase;
use sph_tree::GravityConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Energy drift from the post-first-step baseline a workload may show.
const ENERGY_TOL: f64 = 0.05;
/// The band Σ replayed passes ÷ `evaluate_derivatives` must lie in. An
/// evaluation shorter than `COARSE_BELOW_S` (the smoke sizes: a few
/// milliseconds on cache-resident arrays) cannot resolve it — between
/// processes the ratio moves by a third with memory layout alone — so
/// there the band only catches a major pass left out or counted twice.
const PASS_SUM_BAND: (f64, f64) = (0.85, 1.15);
const COARSE_PASS_SUM_BAND: (f64, f64) = (0.67, 1.5);
const COARSE_BELOW_S: f64 = 0.05;
/// Replays a traced run takes at least: the band is judged on medians,
/// and one disturbed replay must not decide it.
const MIN_REPLAYS: usize = 5;
/// Words a ghost particle costs on the wire per evaluation: the import
/// (x, v, m, h, u) plus the h/ρ/Ω, V/ρ and ∇·v/∇×v refreshes.
const GHOST_WORDS: f64 = 9.0 + 3.0 + 2.0 + 2.0;
const BASE_LABEL: &str = "base";
const EPISODE_LABEL: &str = "episode";

enum Driver {
    Single(Box<Simulation>),
    Dist(Box<DistributedSimulation>),
}

impl Driver {
    fn step(&mut self) -> Result<StepReport, String> {
        match self {
            Driver::Single(s) => s.step().map_err(|e| e.to_string()),
            Driver::Dist(d) => d.step().map_err(|e| e.to_string()),
        }
    }

    fn sys(&self) -> &ParticleSystem {
        match self {
            Driver::Single(s) => &s.sys,
            Driver::Dist(d) => &d.sys,
        }
    }

    fn conservation(&self) -> Conservation {
        match self {
            Driver::Single(s) => s.conservation(),
            Driver::Dist(d) => d.conservation(),
        }
    }
}

/// What stays the same over every episode of a run.
struct Plan {
    config: SphConfig,
    gravity: Option<GravityConfig>,
    dist: DistributedConfig,
    episode_steps: usize,
    checkpoint_every: Option<usize>,
    replay_every: usize,
    momentum_tol: f64,
}

impl Plan {
    fn of(case: &SimCase) -> Plan {
        Plan {
            config: case.setup.config,
            gravity: case.setup.gravity,
            dist: DistributedConfig { nranks: case.nranks, ..Default::default() },
            episode_steps: case.episode_steps,
            checkpoint_every: case.checkpoint_every,
            replay_every: case.replay_every,
            momentum_tol: case.momentum_tol,
        }
    }

    fn build(&self, sys: ParticleSystem) -> Result<Driver, String> {
        if self.dist.nranks == 1 {
            let mut b = SimulationBuilder::new(sys).config(self.config);
            if let Some(g) = self.gravity {
                b = b.gravity(g);
            }
            Ok(Driver::Single(Box::new(b.build()?)))
        } else {
            let mut b = DistributedBuilder::new(sys).config(self.config).distributed(self.dist);
            if let Some(g) = self.gravity {
                b = b.gravity(g);
            }
            Ok(Driver::Dist(Box::new(b.build().map_err(|e| e.to_string())?)))
        }
    }

    /// A single-rank driver that continues from `sys` (whose derivatives
    /// are current), exactly as the run that produced `sys` would have.
    fn resume_single(&self, sys: ParticleSystem) -> Result<Simulation, String> {
        match self.gravity {
            Some(g) => Simulation::resume_with_gravity(sys, self.config, g),
            None => Simulation::resume(sys, self.config),
        }
    }
}

struct SetupTimes {
    init_s: f64,
    first_step_s: f64,
    total_s: f64,
}

/// Generate the inputs, build the driver and take the first step.
fn set_up(args: &RunArgs, tr: &mut Tracer) -> Result<(Plan, Driver, SetupTimes), String> {
    let whole = tr.begin("setup");
    let (case, init_s) =
        tr.span("sph-scenarios.init", || sim_case(&args.workload, args.seed, args.smoke));
    let case = case.ok_or_else(|| format!("{} is not a simulation workload", args.workload))?;
    let plan = Plan::of(&case);
    let (driver, _) = tr.span("driver.build", || plan.build(case.setup.sys));
    let mut driver = driver?;
    let (first, first_step_s) = tr.span("step", || driver.step());
    first?;
    let total_s = tr.end(whole);
    Ok((plan, driver, SetupTimes { init_s, first_step_s, total_s }))
}

/// One episode: the fixed unit of work that repeats until the time box
/// is used up. Every episode starts from the same state, so every
/// episode does identical work.
#[derive(Default)]
struct Episode {
    step_s: Vec<f64>,
    checkpoint_s: Vec<f64>,
    checkpoint_bytes: u64,
    restore_s: Option<f64>,
    /// Steps, checkpoints and the restore; resets, gates and replays are
    /// not in it.
    wall_s: f64,
    complete: bool,
    fingerprint: u64,
}

/// Counts read from the distributed driver, summed over episodes.
#[derive(Default)]
struct DomainCounts {
    log: ExchangeLog,
    steps: u64,
    halo_messages: Vec<f64>,
    halo_volume: Vec<f64>,
    imbalance: Vec<f64>,
    exchange_share: Vec<f64>,
}

struct Harness {
    plan: Plan,
    driver: Driver,
    /// State after set-up's first step: where every episode starts.
    base_sys: ParticleSystem,
    baseline: Conservation,
    store: DiskStore,
    store_dir: PathBuf,
    domain: DomainCounts,
    problems: Vec<String>,
}

impl Drop for Harness {
    fn drop(&mut self) {
        // The temporary store must not outlive the run.
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

impl Harness {
    fn new(plan: Plan, mut driver: Driver) -> Result<Harness, String> {
        let store_dir = machine::out_dir().join(format!("store-{}", std::process::id()));
        let mut store = DiskStore::new(&store_dir).map_err(|e| e.to_string())?;
        if let Driver::Dist(d) = &mut driver {
            d.checkpoint(&mut store, BASE_LABEL).map_err(|e| e.to_string())?;
        }
        let base_sys = driver.sys().clone();
        let baseline = driver.conservation();
        Ok(Harness {
            plan,
            driver,
            base_sys,
            baseline,
            store,
            store_dir,
            domain: DomainCounts::default(),
            problems: Vec::new(),
        })
    }

    /// Put the driver back to the base state.
    fn reset(&mut self) -> Result<(), String> {
        self.driver = match &self.driver {
            Driver::Single(_) => {
                Driver::Single(Box::new(self.plan.resume_single(self.base_sys.clone())?))
            }
            Driver::Dist(_) => Driver::Dist(Box::new(self.restore(BASE_LABEL)?)),
        };
        Ok(())
    }

    fn restore(&self, label: &str) -> Result<DistributedSimulation, String> {
        DistributedSimulation::restore(
            &self.store,
            label,
            self.plan.config,
            self.plan.gravity,
            self.plan.dist,
        )
        .map_err(|e| e.to_string())
    }

    /// Run one episode from the base state. With a `deadline` the episode
    /// may stop early (then it is not `complete`); with a `replay` the
    /// passes are replayed on a copy of the state every few steps.
    fn run_episode(
        &mut self,
        tr: &mut Tracer,
        mut replay: Option<&mut Replay>,
        deadline: Option<Instant>,
    ) -> Result<Episode, String> {
        self.reset()?;
        let mut ep = Episode::default();
        let mut predicted: Option<u64> = None;
        for step in 1..=self.plan.episode_steps {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let (report, dt) = tr.span("step", || self.driver.step());
            ep.wall_s += dt;
            if let Err(e) = report {
                return Err(format!("step {step} of an episode failed: {e}"));
            }
            ep.step_s.push(dt);
            if let Some(expected) = predicted.take() {
                if state_fingerprint(self.driver.sys()) != expected {
                    self.problems.push(format!("replayed step {step} differs from the driver's"));
                }
            }
            if let Driver::Dist(d) = &self.driver {
                if let Some(ex) = d.last_exchange() {
                    self.domain.halo_messages.push(ex.message_count() as f64);
                    self.domain.halo_volume.push(ex.total_volume() as f64);
                }
                self.domain.imbalance.push(d.imbalance());
            }
            if self.plan.checkpoint_every.is_some_and(|k| step % k == 0) {
                if let Driver::Dist(d) = &mut self.driver {
                    let (bytes, dt) =
                        tr.span("checkpoint", || d.checkpoint(&mut self.store, EPISODE_LABEL));
                    ep.checkpoint_bytes = bytes.map_err(|e| e.to_string())? as u64;
                    ep.checkpoint_s.push(dt);
                    ep.wall_s += dt;
                }
            }
            if let Some(r) = replay.as_deref_mut() {
                if step % self.plan.replay_every == 0 && step < self.plan.episode_steps {
                    let open = tr.begin("replay");
                    predicted = Some(r.run(self.driver.sys(), tr)?);
                    tr.end(open);
                }
            }
        }
        ep.complete = ep.step_s.len() == self.plan.episode_steps;
        if ep.complete && self.plan.checkpoint_every.is_some() {
            let (restored, dt) = tr.span("restore", || self.restore(EPISODE_LABEL));
            let restored = restored?;
            ep.restore_s = Some(dt);
            ep.wall_s += dt;
            if state_checksum(&restored.sys) != state_checksum(self.driver.sys()) {
                self.problems.push("restored state differs from the live state".into());
            }
        }
        self.check_state();
        self.count_domain(&ep);
        ep.fingerprint = state_fingerprint(self.driver.sys());
        Ok(ep)
    }

    /// The physics gates, on the state an episode ended in.
    fn check_state(&mut self) {
        if let Err(what) = self.state_problem() {
            self.problems.push(what);
        }
    }

    fn state_problem(&self) -> Result<(), String> {
        let sys = self.driver.sys();
        sys.sanity_check().map_err(|e| format!("state is not sane: {e}"))?;
        if !sys.a.iter().all(|a| a.is_finite()) || !sys.du_dt.iter().all(|d| d.is_finite()) {
            return Err("non-finite acceleration or energy rate".into());
        }
        let now = self.driver.conservation();
        let energy = now.energy_drift(&self.baseline);
        if energy.is_nan() || energy > ENERGY_TOL {
            return Err(format!("energy drift {energy:e} exceeds {ENERGY_TOL}"));
        }
        let momentum = now.momentum_drift(&self.baseline, momentum_scale(sys));
        if momentum.is_nan() || momentum > self.plan.momentum_tol {
            return Err(format!("momentum drift {momentum:e} exceeds {}", self.plan.momentum_tol));
        }
        Ok(())
    }

    fn count_domain(&mut self, ep: &Episode) {
        let Driver::Dist(d) = &self.driver else { return };
        // A restored driver counts from zero, so the log is this episode's.
        let log = d.exchange_log();
        let sum = &mut self.domain.log;
        sum.ghosts_imported += log.ghosts_imported;
        sum.renegotiations += log.renegotiations;
        sum.density_attempts += log.density_attempts;
        sum.migrations += log.migrations;
        sum.rebalances += log.rebalances;
        sum.transient_retries += log.transient_retries;
        self.domain.steps += ep.step_s.len() as u64;
        let step_wall: f64 = ep.step_s.iter().sum();
        if step_wall > 0.0 {
            let timers = d.driver_timers();
            let exchange = timers.get(Phase::NeighborLists) + timers.get(Phase::Update);
            self.domain.exchange_share.push(exchange / step_wall);
        }
    }
}

/// Whole episodes until `seconds` are used up. Always at least one.
fn run_time_box(
    h: &mut Harness,
    tr: &mut Tracer,
    seconds: f64,
    mut replay: Option<&mut Replay>,
) -> Result<Vec<Episode>, String> {
    let start = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    loop {
        let ep = h.run_episode(tr, replay.as_deref_mut(), None)?;
        let last = ep.wall_s;
        episodes.push(ep);
        if crate::time_box_used(start, last, seconds) {
            return Ok(episodes);
        }
    }
}

fn all_steps(episodes: &[Episode]) -> Vec<f64> {
    episodes.iter().flat_map(|e| e.step_s.iter().copied()).collect()
}

/// Every episode of a run does the same work from the same state: their
/// final states must agree bit for bit.
fn check_repeatable<'a>(h: &mut Harness, episodes: impl Iterator<Item = &'a Episode>) -> u64 {
    let complete: Vec<u64> = episodes.filter(|e| e.complete).map(|e| e.fingerprint).collect();
    if complete.windows(2).any(|w| w[0] != w[1]) {
        h.problems.push("episodes from the same state ended in different states".into());
    }
    complete.first().copied().unwrap_or(0)
}

/// Run one simulation workload as the driver's contract asks.
pub fn run(args: &RunArgs) -> Result<Measured, String> {
    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().map_err(|e| e.to_string())?;
    if args.trace {
        run_traced(args)
    } else {
        run_measured(args)
    }
}

fn run_measured(args: &RunArgs) -> Result<Measured, String> {
    let mut tr = Tracer::new(false, Instant::now(), 0);
    let calibration = machine::Calibration::start();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if args.smoke { 1 } else { spec::SETUP_REPEATS } {
        let (plan, driver, times) = set_up(args, &mut tr)?;
        setups.push(times.total_s);
        built = Some((plan, driver));
    }
    let (plan, driver) = built.expect("set-up ran at least once");
    let n = driver.sys().len();
    let mut h = Harness::new(plan, driver)?;
    let episodes = run_time_box(&mut h, &mut tr, args.seconds, None)?;
    let fingerprint = check_repeatable(&mut h, episodes.iter());
    let (_, noisy) = calibration.finish();

    let steps = all_steps(&episodes);
    let walls: Vec<f64> = episodes.iter().map(|e| e.wall_s).collect();
    println!(
        "{}: {n} particles, {} episodes of {} steps, {} steps timed",
        args.workload,
        episodes.len(),
        h.plan.episode_steps,
        steps.len()
    );
    Ok(Measured::new(
        steps.len() as u64,
        vec![
            (spec::SETUP_S, fastest(&setups)),
            (spec::TIME_TO_SOLUTION_S, fastest(&walls)),
            (spec::OP_P25_S, percentile(&steps, 25)),
            (spec::PEAK_RSS_MIB, machine::peak_rss_mib()?),
        ],
        vec![
            (spec::SETUP_S, setups.len()),
            (spec::TIME_TO_SOLUTION_S, walls.len()),
            (spec::OP_P25_S, steps.len()),
        ],
        (noisy, fingerprint),
        std::mem::take(&mut h.problems),
        Vec::new(),
    ))
}

/// The traced run: a third of the time box untraced, a third traced with
/// the pass replay, the rest for the measurements of single layers.
fn run_traced(args: &RunArgs) -> Result<Measured, String> {
    let mut off = Tracer::new(false, Instant::now(), 0);
    let mut tr = Tracer::new(true, Instant::now(), 0);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let calibration = machine::Calibration::start();

    let (plan, driver, times) = set_up(args, &mut tr)?;
    let n = driver.sys().len();
    let mut replay = Replay::new(plan.config, plan.gravity);
    let mut h = Harness::new(plan, driver)?;
    m.insert("sph-scenarios.init_s", times.init_s);
    m.insert("sph-exa.first_step_s", times.first_step_s);

    let share = args.seconds / 3.0;
    let untraced = run_time_box(&mut h, &mut off, share, None)?;
    let traced = run_time_box(&mut h, &mut tr, share, Some(&mut replay))?;
    let fingerprint = check_repeatable(&mut h, untraced.iter().chain(&traced));

    let untraced_p50 = median(&all_steps(&untraced));
    let traced_steps = all_steps(&traced);
    let op_p50 = median(&traced_steps);
    m.insert("trace.overhead_share", op_p50 / untraced_p50 - 1.0);
    let every_step = [all_steps(&untraced), traced_steps.clone()].concat();
    m.insert("sph-exa.step_p50_s", median(&every_step));
    let (tail_pct, tail_s) = tail(&every_step, 90);
    m.insert("sph-exa.step_tail_s", tail_s);
    println!("sph-exa.step_tail_s is p{tail_pct} of {} steps", every_step.len());
    let traced_wall: f64 = traced.iter().map(|e| e.wall_s).sum();
    m.insert("sph-exa.updates_per_s", (n * traced_steps.len()) as f64 / traced_wall);

    while replay.count() < MIN_REPLAYS {
        // The time box held too few: replay the step after set-up.
        let open = tr.begin("replay");
        replay.run(&h.base_sys, &mut tr)?;
        tr.end(open);
    }
    let pass_sum_ratio = replay.report(&mut m, op_p50);
    let band = if m["sph-exa.evaluate_derivatives_s"] < COARSE_BELOW_S {
        COARSE_PASS_SUM_BAND
    } else {
        PASS_SUM_BAND
    };
    if !(band.0..=band.1).contains(&pass_sum_ratio) {
        h.problems.push(format!(
            "the replayed passes add up to {pass_sum_ratio:.3} of evaluate_derivatives, outside {band:?}"
        ));
    }

    if h.plan.checkpoint_every.is_some() {
        let writes: Vec<f64> = traced.iter().flat_map(|e| e.checkpoint_s.iter().copied()).collect();
        let restores: Vec<f64> = traced.iter().filter_map(|e| e.restore_s).collect();
        m.insert("sph-ft.checkpoint_write_s", median(&writes));
        m.insert("sph-ft.restore_s", median(&restores));
        m.insert("sph-ft.checkpoint_bytes", traced[0].checkpoint_bytes as f64);
        let io: f64 = writes.iter().sum::<f64>() + restores.iter().sum::<f64>();
        m.insert("sph-ft.checkpoint_share", io / traced_wall);
        crate::layers::codec(&h.base_sys, &mut tr, &mut m);
    }
    if let Driver::Dist(d) = &h.driver {
        let c = &h.domain;
        // A restored driver's derivatives are current: one evaluation a step.
        let steps = c.steps.max(1) as f64;
        let attempts = c.log.density_attempts.max(1) as f64;
        m.insert(
            "sph-domain.ghosts_per_owned",
            c.log.ghosts_imported as f64 / (attempts * n as f64),
        );
        m.insert("sph-domain.density_attempts_per_eval", c.log.density_attempts as f64 / steps);
        m.insert("sph-domain.renegotiations", c.log.renegotiations as f64);
        m.insert("sph-domain.migrations_per_step", c.log.migrations as f64 / steps);
        m.insert("sph-domain.rebalances", c.log.rebalances as f64);
        m.insert("sph-domain.transient_retries", c.log.transient_retries as f64);
        m.insert("sph-domain.halo_messages_per_step", mean(&c.halo_messages));
        let iad_words =
            if h.plan.config.gradients == sph_core::GradientScheme::Iad { 9.0 } else { 0.0 };
        m.insert(
            "sph-domain.halo_bytes_per_step_computed",
            mean(&c.halo_volume) * (GHOST_WORDS + iad_words) * 8.0,
        );
        m.insert("sph-domain.imbalance", mean(&c.imbalance));
        m.insert("sph-domain.exchange_share", median(&c.exchange_share));
        crate::layers::domain(
            &h.base_sys,
            d.per_particle_work(),
            &h.plan.config,
            h.plan.dist,
            &mut tr,
            &mut m,
        );

        // The same initial state through the single-rank driver.
        let mut single = h.plan.resume_single(h.base_sys.clone())?;
        let mut single_steps = Vec::new();
        let stop = Instant::now() + std::time::Duration::from_secs_f64(args.seconds / 8.0);
        while single_steps.len() < h.plan.episode_steps
            && (single_steps.is_empty() || Instant::now() < stop)
        {
            let (r, dt) = tr.span("single.step", || single.step());
            r.map_err(|e| e.to_string())?;
            single_steps.push(dt);
        }
        let same_steps: Vec<f64> = untraced
            .iter()
            .flat_map(|e| e.step_s.iter().take(single_steps.len()).copied())
            .collect();
        m.insert("sph-exa.dist_over_single_ratio", median(&same_steps) / median(&single_steps));
    }
    if args.workload == spec::SEDOV_HYDRO {
        // Two threads on this workload, against its own one-thread steps.
        // Not gated: what it reads depends on how many hardware threads
        // the box lends (machine.nproc is reported beside it).
        rayon::ThreadPoolBuilder::new().num_threads(2).build_global().map_err(|e| e.to_string())?;
        let two = h.run_episode(
            &mut off,
            None,
            Some(Instant::now() + std::time::Duration::from_secs_f64(args.seconds / 8.0)),
        );
        rayon::ThreadPoolBuilder::new().num_threads(1).build_global().map_err(|e| e.to_string())?;
        let two = two?;
        let one: Vec<f64> =
            untraced.iter().flat_map(|e| e.step_s.iter().take(two.step_s.len()).copied()).collect();
        m.insert("sph-exa.threads2_step_ratio", median(&two.step_s) / median(&one));
    }
    crate::layers::kernels(h.plan.config.kernel.build().as_ref(), &mut m);

    let (spin_after, noisy) = calibration.finish();
    m.insert("machine.spin_calib_s", spin_after);
    m.insert("machine.nproc", machine::nproc() as f64);

    Ok(Measured::new(
        every_step.len() as u64,
        crate::per_layer_metrics(&m),
        vec![("step", every_step.len()), ("replay", replay.count())],
        (noisy, fingerprint),
        std::mem::take(&mut h.problems),
        tr.into_spans(),
    ))
}
