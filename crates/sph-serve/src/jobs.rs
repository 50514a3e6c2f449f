//! Durable job execution: one submitted spec → one deterministic result
//! document, checkpointed on a cadence and resumable across restarts.
//!
//! A job runs the requested scenario through [`ResilientSimulation`]
//! (single in-process rank, empty fault plan) with a fixed checkpoint
//! cadence, inside a per-job [`NamespacedStore`] namespace keyed by the
//! job id. The checkpoint labels are `ResilientSimulation`'s business: a
//! restarted server resumes through
//! [`ResilientSimulation::restore_newest`] and wipes a namespace with
//! `invalidate_all`. Alongside the physics checkpoints the runner
//! journals its "progress" — the post-first-step conservation baseline
//! and the tracked-metric samples so far, as JSON with shortest-roundtrip
//! decimals, which parse back bit-exactly, framed by
//! [`sph_ft::codec::frame`] so damage is detected — and can therefore
//! still assemble a result document *byte-identical* to an uninterrupted
//! run's. That byte-identity is asserted by the loadtest's kill/restart
//! drill.
//!
//! Sampling happens at checkpoint-slice boundaries (absolute multiples
//! of the cadence), never at points that depend on wall time, so the sample
//! set is a pure function of the spec and the server's cadence config.

use crate::api::JobSpec;
use crate::error::ServeError;
use sph_core::diagnostics::{state_fingerprint, Conservation};
use sph_exa::{
    DistributedBuilder, DistributedConfig, DistributedSimulation, ResilientConfig,
    ResilientSimulation, SchedulerMode,
};
use sph_ft::{codec, CheckpointStore, DiskStore, FaultPlan, MemoryStore, NamespacedStore};
use sph_json::Value;
use sph_math::Vec3;
use sph_scenarios::{MetricSample, Resolution, Scenario, ScenarioRegistry, ScenarioRun};
use std::path::PathBuf;

/// How a job's life is reported over the API. A `Done` job holds its
/// deterministic result document, rendered: byte-compared by clients,
/// and the answer to every identical resubmission.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JobStatus {
    Queued,
    Running { completed_steps: u64 },
    Done { result: String },
    Failed { error: String },
}

impl JobStatus {
    pub(crate) fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running { .. } => "running",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed { .. } => "failed",
        }
    }
}

/// Server-side record of one job.
#[derive(Clone)]
pub(crate) struct JobRecord {
    pub spec: JobSpec,
    pub status: JobStatus,
    pub price_seconds: f64,
    /// Volatile per-execution telemetry (timings, recovery counters) —
    /// deliberately *outside* the result document so caching stays sound.
    pub telemetry: Option<Value>,
}

/// Execution knobs shared by every job on a server.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Checkpoint (and sample) every this many macro-steps.
    pub checkpoint_every: u64,
    /// Directory for durable per-job checkpoints; `None` = in-memory
    /// stores (no resume across restarts).
    pub checkpoints_dir: Option<PathBuf>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig { checkpoint_every: 4, checkpoints_dir: None }
    }
}

/// Everything a finished job hands back to the server loop.
#[derive(Debug)]
pub struct CompletedJob {
    pub result_doc: String,
    pub telemetry: Value,
    /// Particles, and steps executed in this process (a resumed job counts
    /// only its own): what admission divides the measured seconds by.
    pub n_particles: usize,
    pub steps_executed: u64,
    pub resumed: bool,
}

// ---------------------------------------------------------------------
// Progress journal
// ---------------------------------------------------------------------

/// The resumable bookkeeping that is not part of any physics checkpoint.
#[derive(Default)]
struct Journal {
    initial: Option<Conservation>,
    samples: Vec<MetricSample>,
}

const JOURNAL_LABEL: &str = "progress";
/// Journal frame magic: "SPHEXAJL".
const JOURNAL_MAGIC: u64 = 0x5350_4845_5841_4a4c;
const JOURNAL_VERSION: u32 = 1;

fn vec3_value(v: Vec3) -> Value {
    Value::Arr(vec![Value::Num(v.x), Value::Num(v.y), Value::Num(v.z)])
}

fn vec3_from(v: &Value) -> Option<Vec3> {
    let a = v.as_arr()?;
    if a.len() != 3 {
        return None;
    }
    Some(Vec3 { x: a[0].as_f64()?, y: a[1].as_f64()?, z: a[2].as_f64()? })
}

fn conservation_value(c: &Conservation) -> Value {
    Value::obj(vec![
        ("total_mass", Value::Num(c.total_mass)),
        ("momentum", vec3_value(c.momentum)),
        ("angular_momentum", vec3_value(c.angular_momentum)),
        ("kinetic_energy", Value::Num(c.kinetic_energy)),
        ("internal_energy", Value::Num(c.internal_energy)),
        ("gravitational_energy", Value::Num(c.gravitational_energy)),
    ])
}

fn conservation_from(v: &Value) -> Option<Conservation> {
    Some(Conservation {
        total_mass: v.get("total_mass")?.as_f64()?,
        momentum: vec3_from(v.get("momentum")?)?,
        angular_momentum: vec3_from(v.get("angular_momentum")?)?,
        kinetic_energy: v.get("kinetic_energy")?.as_f64()?,
        internal_energy: v.get("internal_energy")?.as_f64()?,
        gravitational_energy: v.get("gravitational_energy")?.as_f64()?,
    })
}

impl Journal {
    fn render(&self) -> String {
        let initial = match &self.initial {
            Some(c) => conservation_value(c),
            None => Value::Null,
        };
        let samples = self
            .samples
            .iter()
            .map(|s| Value::Arr(vec![Value::Num(s.time), Value::Num(s.value)]))
            .collect();
        Value::obj(vec![("initial", initial), ("samples", Value::Arr(samples))]).render()
    }

    fn parse(text: &str) -> Option<Journal> {
        let doc = sph_json::parse(text).ok()?;
        let initial = match doc.get("initial")? {
            Value::Null => None,
            other => Some(conservation_from(other)?),
        };
        let mut samples = Vec::new();
        for entry in doc.get("samples")?.as_arr()? {
            let pair = entry.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            samples.push(MetricSample { time: pair[0].as_f64()?, value: pair[1].as_f64()? });
        }
        Some(Journal { initial, samples })
    }

    fn save(&self, store: &mut dyn CheckpointStore) {
        // Journal persistence is best-effort: a lost journal only costs a
        // restart-from-scratch, never a wrong answer (resume refuses to
        // continue without it).
        let framed = codec::frame(JOURNAL_MAGIC, JOURNAL_VERSION, self.render().as_bytes());
        let _ = store.put(JOURNAL_LABEL, &framed);
    }

    fn load(store: &dyn CheckpointStore) -> Option<Journal> {
        let bytes = store.get(JOURNAL_LABEL).ok()?;
        let body = codec::unframe(&bytes, JOURNAL_MAGIC, JOURNAL_VERSION).ok()?;
        Journal::parse(std::str::from_utf8(body).ok()?)
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

fn single_rank_config() -> DistributedConfig {
    DistributedConfig { nranks: 1, ..Default::default() }
}

fn build_fresh(sc: &dyn Scenario, spec: &JobSpec) -> Result<DistributedSimulation, ServeError> {
    let setup = sc.init(Resolution { scale: spec.scale });
    let mut b =
        DistributedBuilder::new(setup.sys).config(setup.config).distributed(single_rank_config());
    if let Some(g) = setup.gravity {
        b = b.gravity(g);
    }
    b.build().map_err(|e| ServeError::JobFailed(e.to_string()))
}

/// Try to resume from the newest restorable generation; returns the
/// restored simulation and the journal it left behind.
fn try_resume(
    sc: &dyn Scenario,
    spec: &JobSpec,
    store: &NamespacedStore<DiskStore>,
) -> Option<(DistributedSimulation, Journal)> {
    let setup = sc.init(Resolution { scale: spec.scale });
    let restored = ResilientSimulation::restore_newest(
        store,
        setup.config,
        setup.gravity,
        single_rank_config(),
    )?;
    if restored.sys.step_count == 0 {
        // Nothing beyond the construction-time checkpoint happened; a
        // fresh build is bit-identical and needs no journal.
        return None;
    }
    // Past step 0 the conservation baseline only exists in the journal;
    // without it the run must restart rather than guess.
    let journal = Journal::load(store)?;
    journal.initial.as_ref()?;
    Some((restored, journal))
}

/// Execute one job to completion, reporting progress after every slice.
///
/// `progress` receives the completed macro-step count; the server uses
/// it to publish `Running { completed_steps }` (and the loadtest's
/// restart drill uses that to time its kill).
pub fn run_job(
    registry: &ScenarioRegistry,
    spec: &JobSpec,
    runner: &RunnerConfig,
    progress: &dyn Fn(u64),
) -> Result<CompletedJob, ServeError> {
    let sc = registry
        .get(&spec.scenario)
        .ok_or_else(|| ServeError::UnknownScenario(spec.scenario.clone()))?;
    let slice = runner.checkpoint_every.max(1);
    let id = spec.job_id();

    // Per-job namespaced store, plus an independent handle to the same
    // namespace for the journal (the ResilientSimulation owns the first).
    type StoresAndResume = (
        Box<dyn CheckpointStore>,
        Option<NamespacedStore<DiskStore>>,
        Option<(DistributedSimulation, Journal)>,
    );
    let (mut sim_store, mut journal_store, start): StoresAndResume = match &runner.checkpoints_dir {
        Some(dir) => {
            let open = || -> Result<NamespacedStore<DiskStore>, ServeError> {
                Ok(NamespacedStore::new(
                    &id,
                    DiskStore::new(dir).map_err(|e| {
                        ServeError::Io(format!("checkpoint dir {}: {e}", dir.display()))
                    })?,
                ))
            };
            let mut ns = open()?;
            let start = try_resume(sc, spec, &ns);
            if start.is_none() {
                // Stale or unusable leftovers would shadow the new run's
                // generation labels — clear the namespace first.
                ns.invalidate_all();
            }
            (Box::new(ns), Some(open()?), start)
        }
        None => (Box::new(NamespacedStore::new(&id, MemoryStore::new())), None, None),
    };

    let resumed = start.is_some();
    let (sim, mut journal) = match start {
        Some((sim, journal)) => (sim, journal),
        None => (build_fresh(sc, spec)?, Journal::default()),
    };

    let plan = FaultPlan::new(spec.seed);
    let rcfg = ResilientConfig {
        scheduler: SchedulerMode::FixedSteps(slice),
        ..ResilientConfig::default()
    };
    // Construction writes a fresh generation-0 checkpoint at the current
    // step — on a resume that replaces the generation we restored from.
    if resumed {
        sim_store.invalidate_all();
        if let Some(js) = journal_store.as_mut() {
            journal.save(js);
        }
    }
    let mut rs = ResilientSimulation::new(sim, sim_store, &plan, rcfg)
        .map_err(|e| ServeError::JobFailed(e.to_string()))?;

    let push_sample = |sys: &sph_core::particles::ParticleSystem,
                       samples: &mut Vec<MetricSample>| {
        if let Some(v) = sc.track(sys) {
            if samples.last().map(|s| s.time) != Some(sys.time) {
                samples.push(MetricSample { time: sys.time, value: v });
            }
        }
    };

    if resumed {
        // Heal the boundary sample the previous process may have died
        // before journaling (the restored state *is* that boundary).
        journal.samples.retain(|s| s.time <= rs.sys().time);
        push_sample(rs.sys(), &mut journal.samples);
    } else {
        push_sample(rs.sys(), &mut journal.samples);
    }

    let target = spec.steps;
    while rs.sys().step_count < target {
        let cur = rs.sys().step_count;
        let chunk = if journal.initial.is_none() {
            // The conservation baseline is taken after the *first* step
            // (the first derivative evaluation populates pressures), the
            // same convention as the scenario engine's drive loop.
            1
        } else {
            let next_boundary = (cur / slice + 1) * slice;
            next_boundary.min(target) - cur
        };
        rs.run(chunk).map_err(|e| ServeError::JobFailed(e.to_string()))?;
        if journal.initial.is_none() {
            journal.initial = Some(rs.inner().conservation());
        }
        let now = rs.sys().step_count;
        progress(now);
        if now.is_multiple_of(slice) || now == target {
            push_sample(rs.sys(), &mut journal.samples);
            if let Some(js) = journal_store.as_mut() {
                journal.save(js);
            }
        }
    }

    // Assemble the deterministic result document.
    let stats = rs.stats().clone();
    let sim = rs.into_inner();
    let phase_seconds = sim.aggregate_timers().snapshot();
    let final_conservation = sim.conservation();
    let initial = journal.initial.unwrap_or(final_conservation);
    let run = ScenarioRun {
        phi: sim.phi.clone(),
        initial,
        final_conservation,
        steps: sim.sys.step_count,
        samples: journal.samples.clone(),
        sys: sim.sys,
    };
    let report = sc.validate(&run);
    let fingerprint = state_fingerprint(&run.sys);
    let n_particles = run.sys.len();
    let result_doc = Value::obj(vec![
        ("spec", spec.to_value()),
        ("n_particles", Value::Num(n_particles as f64)),
        ("steps", Value::Num(run.steps as f64)),
        ("end_time", Value::Num(run.sys.time)),
        ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
        ("validation", report.to_value()),
    ])
    .render();

    let telemetry = Value::obj(vec![
        ("resumed", Value::Bool(resumed)),
        ("steps_executed_here", Value::Num(stats.steps_executed as f64)),
        ("checkpoints_written", Value::Num(stats.checkpoints_written as f64)),
        ("checkpoint_bytes", Value::Num(stats.checkpoint_bytes as f64)),
        ("rollbacks", Value::Num(f64::from(stats.rollbacks))),
        (
            "phase_seconds",
            Value::Obj(
                phase_seconds.iter().map(|(p, s)| (p.name().to_string(), Value::Num(*s))).collect(),
            ),
        ),
    ]);

    // The job is complete; its checkpoints have served their purpose.
    if let Some(js) = journal_store.as_mut() {
        js.invalidate_all();
    }

    let steps_executed = stats.steps_executed;
    Ok(CompletedJob { result_doc, telemetry, n_particles, steps_executed, resumed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(steps: u64) -> JobSpec {
        JobSpec { scenario: "sod".into(), scale: 0.2, steps, seed: 0 }
    }

    fn registry() -> ScenarioRegistry {
        ScenarioRegistry::builtin()
    }

    #[test]
    fn journal_round_trips_bit_exactly() {
        let journal = Journal {
            initial: Some(Conservation {
                total_mass: 1.0 / 3.0,
                momentum: Vec3 { x: 0.1, y: -2.5e-17, z: 3.0 },
                angular_momentum: Vec3::ZERO,
                kinetic_energy: 0.123_456_789_012_345_68,
                internal_energy: 2.5,
                gravitational_energy: -1.0e-300,
            }),
            samples: vec![
                MetricSample { time: 0.0, value: 0.1 + 0.2 },
                MetricSample { time: 1.0 / 7.0, value: f64::MIN_POSITIVE },
            ],
        };
        let back = Journal::parse(&journal.render()).unwrap();
        let (a, b) = (journal.initial.unwrap(), back.initial.unwrap());
        assert_eq!(a.total_mass.to_bits(), b.total_mass.to_bits());
        assert_eq!(a.momentum.y.to_bits(), b.momentum.y.to_bits());
        assert_eq!(a.gravitational_energy.to_bits(), b.gravitational_energy.to_bits());
        assert_eq!(journal.samples.len(), back.samples.len());
        for (x, y) in journal.samples.iter().zip(&back.samples) {
            assert_eq!(x.time.to_bits(), y.time.to_bits());
            assert_eq!(x.value.to_bits(), y.value.to_bits());
        }
    }

    #[test]
    fn journal_frame_rejects_every_truncation_and_bit_flip() {
        let journal =
            Journal { initial: None, samples: vec![MetricSample { time: 0.5, value: 1.0 }] };
        let mut store = MemoryStore::new();
        journal.save(&mut store);
        assert_eq!(Journal::load(&store).unwrap().samples.len(), 1);

        // FNV-1a catches any change confined to one byte (each fold step
        // is a bijection), so every such damage is an `Err`, not a parse.
        let bytes = store.get(JOURNAL_LABEL).unwrap();
        let unframe = |b: &[u8]| codec::unframe(b, JOURNAL_MAGIC, JOURNAL_VERSION).is_err();
        for cut in 0..bytes.len() {
            assert!(unframe(&bytes[..cut]), "truncation to {cut} bytes unframed");
        }
        let mut flipped = bytes.clone();
        for bit in 0..8 * bytes.len() {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(unframe(&flipped), "flip of bit {bit} unframed");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn equal_specs_produce_byte_identical_results() {
        let reg = registry();
        let runner = RunnerConfig::default();
        let a = run_job(&reg, &spec(3), &runner, &|_| {}).unwrap();
        let b = run_job(&reg, &spec(3), &runner, &|_| {}).unwrap();
        assert_eq!(a.result_doc, b.result_doc);
        assert!(!a.resumed && !b.resumed);
        let doc = sph_json::parse(&a.result_doc).unwrap();
        assert_eq!(doc.get("steps").unwrap().as_u64(), Some(3));
        assert!(doc.get("validation").unwrap().get("passed").is_some());
    }

    #[test]
    fn unknown_scenario_is_a_typed_error() {
        let reg = registry();
        let bad = JobSpec { scenario: "no-such".into(), scale: 1.0, steps: 1, seed: 0 };
        let err = run_job(&reg, &bad, &RunnerConfig::default(), &|_| {}).unwrap_err();
        assert_eq!(err.status(), 404);
    }

    #[test]
    fn disk_backed_jobs_clean_their_namespace_and_match_memory_runs() {
        let dir = std::env::temp_dir().join(format!("sph-serve-jobs-{}", std::process::id()));
        let runner = RunnerConfig { checkpoint_every: 2, checkpoints_dir: Some(dir.clone()) };
        let reg = registry();
        let disk = run_job(&reg, &spec(3), &runner, &|_| {}).unwrap();
        let memory = run_job(&reg, &spec(3), &RunnerConfig::default(), &|_| {}).unwrap();
        assert_eq!(disk.result_doc, memory.result_doc);
        // Namespace fully cleaned after completion.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|rd| rd.filter_map(|e| e.ok()).map(|e| e.file_name()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "stale checkpoint files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
