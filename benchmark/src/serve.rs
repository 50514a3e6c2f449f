//! The `serve_mixed` workload: an in-process `sph-serve` with one
//! worker, driven over loopback by two closed-loop clients. Each client
//! submits cold jobs (specs the server has never seen) and follows
//! every one with submissions of specs that already finished.

use crate::inputs::{ServeOp, ServeSchedule, TUPLES};
use crate::machine;
use crate::stats::{fastest, mean, median, percentile, tail};
use crate::trace::{merge, Tracer};
use crate::{spec, Measured, RunArgs};
use sph_exa::{DistributedBuilder, ResilientConfig, ResilientSimulation, SchedulerMode};
use sph_ft::{FaultPlan, MemoryStore};
use sph_json::Value;
use sph_scenarios::{run_scenario, Resolution, RunOptions, ScenarioRegistry};
use sph_serve::jobs::{run_job, RunnerConfig};
use sph_serve::{http_call, JobSpec, Server, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
const POLL_EVERY: Duration = Duration::from_millis(5);
/// A job that is not done after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// One request; the status must be below 500 to count as an answer.
fn call(
    tr: &mut Tracer,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String, f64), String> {
    let name = match (method, path) {
        ("POST", _) => "POST /jobs",
        (_, "/healthz") => "GET /healthz",
        (_, "/metrics") => "GET /metrics",
        _ => "GET /jobs/:id",
    };
    let (reply, dt) = tr.span(name, || http_call(addr, method, path, body));
    let (status, text) = reply.map_err(|e| format!("{method} {path}: {e}"))?;
    if status >= 500 {
        return Err(format!("{method} {path}: HTTP {status}: {text}"));
    }
    Ok((status, text, dt))
}

fn field<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(doc, |v, key| v.get(key))
}

/// What the client saw of one cold job, submit → verified result.
struct ColdJob {
    total_s: f64,
    submit_s: f64,
    queue_wait_s: f64,
    execute_s: f64,
    polls: u64,
    /// The full status document of the finished job; every later read
    /// of this job must return exactly these bytes.
    body: String,
    fingerprint: String,
    /// The deterministic result document inside `body`, rendered.
    result_doc: String,
}

fn cold_job(tr: &mut Tracer, addr: &str, job: &JobSpec) -> Result<ColdJob, String> {
    let id = job.job_id();
    let whole = tr.begin_job("cold_job", Some(&id));
    let outcome = cold_job_inner(tr, addr, job, &id);
    let total_s = tr.end(whole);
    outcome.map(|mut c| {
        c.total_s = total_s;
        c
    })
}

fn cold_job_inner(tr: &mut Tracer, addr: &str, job: &JobSpec, id: &str) -> Result<ColdJob, String> {
    let (status, text, submit_s) = call(tr, addr, "POST", "/jobs", &job.canonical())?;
    if status != 202 {
        return Err(format!("cold submit of {id}: expected 202, got {status}: {text}"));
    }
    let accepted = Instant::now();
    let path = format!("/jobs/{id}");
    let mut running_at = None;
    let mut polls = 0;
    loop {
        std::thread::sleep(POLL_EVERY);
        let (status, body, _) = call(tr, addr, "GET", &path, "")?;
        polls += 1;
        let doc = sph_json::parse(&body)?;
        let state = doc.get("status").and_then(Value::as_str).unwrap_or_default();
        match (status, state) {
            (200, "queued") => {}
            (200, "running") => {
                running_at.get_or_insert_with(Instant::now);
            }
            (200, "done") => {
                let done = Instant::now();
                let running_at = running_at.unwrap_or(done);
                let result = doc.get("result").ok_or("done job without a result")?;
                let fingerprint = result
                    .get("fingerprint")
                    .and_then(Value::as_str)
                    .ok_or("result without a fingerprint")?
                    .to_string();
                if field(result, &["spec"]) != Some(&job.to_value())
                    || field(result, &["steps"]).and_then(Value::as_u64) != Some(job.steps)
                    || field(result, &["validation", "passed"]).and_then(Value::as_bool).is_none()
                {
                    return Err(format!("result of {id} does not answer its spec: {body}"));
                }
                return Ok(ColdJob {
                    total_s: 0.0,
                    submit_s,
                    queue_wait_s: running_at.duration_since(accepted).as_secs_f64(),
                    execute_s: done.duration_since(running_at).as_secs_f64(),
                    polls,
                    fingerprint,
                    result_doc: result.render(),
                    body,
                });
            }
            _ => return Err(format!("job {id}: HTTP {status}: {body}")),
        }
        if accepted.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id} not done after {JOB_TIMEOUT:?}"));
        }
    }
}

/// Submit a finished spec again and read its result: `(submit, read)`
/// seconds. The answer must come from the cache and be byte-identical
/// to the first one.
fn hit(tr: &mut Tracer, addr: &str, job: &JobSpec, first: &str) -> Result<(f64, f64), String> {
    let id = job.job_id();
    let whole = tr.begin_job("cache_hit", Some(&id));
    let outcome = (|| {
        let (status, text, submit_s) = call(tr, addr, "POST", "/jobs", &job.canonical())?;
        let cached = sph_json::parse(&text)?.get("cached").and_then(Value::as_bool);
        if status != 200 || cached != Some(true) {
            return Err(format!("resubmit of {id}: expected 200 cached, got {status}: {text}"));
        }
        let (status, body, read_s) = call(tr, addr, "GET", &format!("/jobs/{id}"), "")?;
        if status != 200 || body != first {
            return Err(format!("cached result of {id} differs from its first result"));
        }
        Ok((submit_s, read_s))
    })();
    tr.end(whole);
    outcome
}

#[derive(Default)]
struct Samples {
    cold_s: Vec<f64>,
    submit_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    execute_s: Vec<f64>,
    polls: Vec<f64>,
    cached_submit_s: Vec<f64>,
    status_done_s: Vec<f64>,
}

impl Samples {
    fn absorb(&mut self, other: Samples) {
        self.cold_s.extend(other.cold_s);
        self.submit_s.extend(other.submit_s);
        self.queue_wait_s.extend(other.queue_wait_s);
        self.execute_s.extend(other.execute_s);
        self.polls.extend(other.polls);
        self.cached_submit_s.extend(other.cached_submit_s);
        self.status_done_s.extend(other.status_done_s);
    }
}

struct Client {
    /// Thread id of this client's spans (0 is the main thread).
    tid: u32,
    addr: String,
    schedule: ServeSchedule,
    tracer: Tracer,
    /// Job id → the first status document read of the finished job.
    first: BTreeMap<String, String>,
    /// Tuple → the fingerprint every cold job of it must report.
    fingerprints: Vec<String>,
    samples: Samples,
    attempted: u64,
    problems: Vec<String>,
}

impl Client {
    fn round(&mut self, round: u64) {
        for op in self.schedule.round(round) {
            match op {
                ServeOp::Cold { tuple, spec } => {
                    self.attempted += 1;
                    match cold_job(&mut self.tracer, &self.addr, &spec) {
                        Ok(c) if c.fingerprint != self.fingerprints[tuple] => {
                            self.problems.push(format!(
                                "{}: fingerprint {} differs from the tuple's {}",
                                spec.job_id(),
                                c.fingerprint,
                                self.fingerprints[tuple]
                            ))
                        }
                        Ok(c) => {
                            self.samples.cold_s.push(c.total_s);
                            self.samples.submit_s.push(c.submit_s);
                            self.samples.queue_wait_s.push(c.queue_wait_s);
                            self.samples.execute_s.push(c.execute_s);
                            self.samples.polls.push(c.polls as f64);
                            self.first.insert(spec.job_id(), c.body);
                        }
                        Err(e) => self.problems.push(e),
                    }
                }
                ServeOp::Hit { spec } => {
                    let Some(first) = self.first.get(&spec.job_id()) else {
                        self.problems
                            .push(format!("hit on {}, which never finished", spec.job_id()));
                        continue;
                    };
                    match hit(&mut self.tracer, &self.addr, &spec, first) {
                        Ok((submit_s, read_s)) => {
                            self.samples.cached_submit_s.push(submit_s);
                            self.samples.status_done_s.push(read_s);
                        }
                        Err(e) => self.problems.push(e),
                    }
                }
            }
        }
    }
}

/// What the clients did, put together.
struct Tally {
    samples: Samples,
    problems: Vec<String>,
    attempted: u64,
    spans: Vec<Vec<crate::trace::Span>>,
}

fn tally(clients: Vec<Client>) -> Tally {
    let mut t = Tally {
        samples: Samples::default(),
        problems: Vec::new(),
        attempted: 0,
        spans: Vec::new(),
    };
    for c in clients {
        t.samples.absorb(c.samples);
        t.problems.extend(c.problems);
        t.attempted += c.attempted;
        t.spans.push(c.tracer.into_spans());
    }
    t
}

/// A started server with one finished warm-up job per tuple.
struct Service {
    server: ServerHandle,
    warmups: Vec<(JobSpec, ColdJob)>,
    setup_s: f64,
}

/// The servers of a run; shut down when it ends, however it ends.
struct Services(Vec<Service>);

impl Drop for Services {
    fn drop(&mut self) {
        for s in self.0.drain(..) {
            s.server.shutdown();
        }
    }
}

fn set_up(args: &RunArgs, index: u64, tr: &mut Tracer) -> Result<Service, String> {
    let schedule = ServeSchedule::new(args.seed, 0, args.smoke);
    let whole = tr.begin("setup");
    let (server, _) = tr
        .span("Server::start", || Server::start(ServerConfig { workers: 1, ..Default::default() }));
    let server = server.map_err(|e| e.to_string())?;
    let warmups = (0..TUPLES.len())
        .map(|t| {
            let job = schedule.warmup(index, t);
            cold_job(tr, server.addr(), &job).map(|c| (job, c))
        })
        .collect::<Result<Vec<_>, _>>();
    let setup_s = tr.end(whole);
    match warmups {
        Ok(warmups) => Ok(Service { server, warmups, setup_s }),
        Err(e) => {
            server.shutdown();
            Err(e)
        }
    }
}

/// The clients, not yet tracing.
fn clients(args: &RunArgs, service: &Service) -> Vec<Client> {
    (0..CLIENTS)
        .map(|id| {
            let mut schedule = ServeSchedule::new(args.seed, id, args.smoke);
            let mut first = BTreeMap::new();
            for (job, done) in &service.warmups {
                schedule.mark_finished(job.clone());
                first.insert(job.job_id(), done.body.clone());
            }
            let tid = id as u32 + 1;
            Client {
                tid,
                addr: service.server.addr().to_string(),
                schedule,
                tracer: Tracer::new(false, Instant::now(), tid),
                first,
                fingerprints: service.warmups.iter().map(|(_, c)| c.fingerprint.clone()).collect(),
                samples: Samples::default(),
                attempted: 0,
                problems: Vec::new(),
            }
        })
        .collect()
}

/// Rounds until `seconds` are used up; in a round every client runs its
/// part of the schedule, and the round ends when all have. Returns each
/// round's wall time.
///
/// Each client is one thread for all rounds, released into a round and
/// collected after it by a barrier: a thread per round would spread the
/// clients' allocations over ever new malloc arenas, and the process's
/// peak memory would vary by a third from run to run.
fn run_rounds(clients: &mut [Client], first_round: u64, seconds: f64) -> Vec<f64> {
    let barrier = Barrier::new(clients.len() + 1);
    let stop = AtomicBool::new(false);
    let mut walls = Vec::new();
    std::thread::scope(|s| {
        for c in clients.iter_mut() {
            let (barrier, stop) = (&barrier, &stop);
            s.spawn(move || {
                for round in first_round.. {
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    c.round(round);
                    barrier.wait();
                }
            });
        }
        let start = Instant::now();
        loop {
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            let wall = t.elapsed().as_secs_f64();
            walls.push(wall);
            if crate::time_box_used(start, wall, seconds) {
                stop.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
        }
    });
    walls
}

struct ServerCounts {
    executions: f64,
    responses_5xx: f64,
    hit_ratio: f64,
    evictions: f64,
    rejected: f64,
}

fn server_counts(tr: &mut Tracer, addr: &str) -> Result<ServerCounts, String> {
    let (_, body, _) = call(tr, addr, "GET", "/metrics", "")?;
    let doc = sph_json::parse(&body)?;
    let num = |path: &[&str]| {
        field(&doc, path).and_then(Value::as_f64).ok_or_else(|| format!("/metrics lacks {path:?}"))
    };
    Ok(ServerCounts {
        executions: num(&["executions"])?,
        responses_5xx: num(&["responses_5xx"])?,
        hit_ratio: num(&["cache", "hit_rate"])?,
        evictions: num(&["cache", "evictions"])?,
        rejected: num(&["admission", "rejected_over_budget"])?
            + num(&["admission", "rejected_queue_full"])?,
    })
}

/// The server's own counts must agree with what the clients did.
fn check_counts(counts: &ServerCounts, cold_jobs: u64, problems: &mut Vec<String>) {
    let expected = (TUPLES.len() as u64 + cold_jobs) as f64;
    if counts.executions != expected {
        problems
            .push(format!("server executed {} jobs, clients ran {expected}", counts.executions));
    }
    if counts.responses_5xx != 0.0 {
        problems.push(format!("{} responses were 5xx", counts.responses_5xx));
    }
}

/// All cold fingerprints of a run, folded: equal between runs of the
/// same code and seed.
fn fold_fingerprints(service: &Service) -> u64 {
    let all: String = service.warmups.iter().map(|(_, c)| c.fingerprint.as_str()).collect();
    sph_ft::codec::fnv1a(all.as_bytes())
}

pub fn run(args: &RunArgs) -> Result<Measured, String> {
    // The worker's simulations run on one thread, like every workload.
    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().map_err(|e| e.to_string())?;
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin, 0);
    let calibration = machine::Calibration::start();

    // Every set-up is a fresh server. The earlier ones stay up, idle,
    // until the run ends: threads of a server started after another's
    // shutdown would inherit its malloc arenas in an order that varies,
    // and peak memory with it.
    let repeats = if args.trace || args.smoke { 1 } else { spec::SETUP_REPEATS as u64 };
    let mut services = Services(Vec::new());
    for index in 0..repeats {
        services.0.push(set_up(args, index, &mut tr)?);
    }
    let service = services.0.last().expect("set-up ran at least once");
    if args.trace {
        traced(args, service, tr, origin, &calibration)
    } else {
        let setups: Vec<f64> = services.0.iter().map(|s| s.setup_s).collect();
        measured(args, service, &mut tr, &setups, &calibration)
    }
}

fn measured(
    args: &RunArgs,
    service: &Service,
    tr: &mut Tracer,
    setups: &[f64],
    calibration: &machine::Calibration,
) -> Result<Measured, String> {
    let mut cs = clients(args, service);
    let walls = run_rounds(&mut cs, 0, args.seconds);
    let counts = server_counts(tr, service.server.addr())?;
    let (_, noisy) = calibration.finish();

    let Tally { samples, mut problems, attempted, .. } = tally(cs);
    check_counts(&counts, attempted, &mut problems);
    println!(
        "{}: {} rounds, {} cold jobs, {} cache hits",
        args.workload,
        walls.len(),
        samples.cold_s.len(),
        samples.cached_submit_s.len()
    );
    Ok(Measured::new(
        attempted,
        vec![
            (spec::SETUP_S, fastest(setups)),
            (spec::TIME_TO_SOLUTION_S, fastest(&walls)),
            (spec::OP_P25_S, percentile(&samples.cold_s, 25)),
            (spec::PEAK_RSS_MIB, machine::peak_rss_mib()?),
        ],
        vec![
            (spec::SETUP_S, setups.len()),
            (spec::TIME_TO_SOLUTION_S, walls.len()),
            (spec::OP_P25_S, samples.cold_s.len()),
        ],
        (noisy, fold_fingerprints(service)),
        problems,
        Vec::new(),
    ))
}

fn traced(
    args: &RunArgs,
    service: &Service,
    mut tr: Tracer,
    origin: Instant,
    calibration: &machine::Calibration,
) -> Result<Measured, String> {
    let addr = service.server.addr();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let healthz: Vec<f64> = (0..200)
        .map(|_| call(&mut tr, addr, "GET", "/healthz", "").map(|r| r.2))
        .collect::<Result<_, _>>()?;
    m.insert("sph-serve.healthz_p50_s", median(&healthz));

    let share = args.seconds / 3.0;
    let mut cs = clients(args, service);
    let untraced_rounds = run_rounds(&mut cs, 0, share);
    let untraced_cold_p50 =
        median(&cs.iter().flat_map(|c| c.samples.cold_s.iter().copied()).collect::<Vec<_>>());
    for c in &mut cs {
        // From here on the clients record a span per request.
        c.tracer = Tracer::new(true, origin, c.tid);
        c.samples = Samples::default();
    }
    run_rounds(&mut cs, untraced_rounds.len() as u64, share);
    let counts = server_counts(&mut tr, addr)?;

    let Tally { samples, mut problems, attempted, mut spans } = tally(cs);
    check_counts(&counts, attempted, &mut problems);
    m.insert("trace.overhead_share", median(&samples.cold_s) / untraced_cold_p50 - 1.0);
    m.insert("sph-serve.queue_wait_p50_s", median(&samples.queue_wait_s));
    m.insert("sph-serve.execute_p50_s", median(&samples.execute_s));
    m.insert("sph-serve.cold_job_p50_s", median(&samples.cold_s));
    let (pct, cold_tail) = tail(&samples.cold_s, 90);
    println!("sph-serve.cold_job_tail_s is p{pct} of {} cold jobs", samples.cold_s.len());
    m.insert("sph-serve.cold_job_tail_s", cold_tail);
    m.insert("sph-serve.submit_p50_s", median(&samples.submit_s));
    m.insert("sph-serve.cached_submit_p50_s", median(&samples.cached_submit_s));
    let (pct, hit_tail) = tail(&samples.cached_submit_s, 95);
    println!("sph-serve.cached_submit_tail_s is p{pct} of {} hits", samples.cached_submit_s.len());
    m.insert("sph-serve.cached_submit_tail_s", hit_tail);
    m.insert("sph-serve.status_done_p50_s", median(&samples.status_done_s));
    m.insert("sph-serve.cache_hit_ratio", counts.hit_ratio);
    m.insert("sph-serve.executions", counts.executions);
    m.insert("sph-serve.cache_evictions", counts.evictions);
    m.insert("sph-serve.responses_5xx", counts.responses_5xx);
    m.insert("sph-serve.rejected", counts.rejected);
    m.insert("sph-serve.polls_per_job", mean(&samples.polls));
    let doc = &service.warmups[0].1.result_doc;
    m.insert("sph-serve.result_doc_bytes", doc.len() as f64);
    crate::layers::json(doc, &mut tr, &mut m)?;

    // The same jobs without the service around them.
    let registry = ScenarioRegistry::builtin();
    let schedule = ServeSchedule::new(args.seed, 0, args.smoke);
    let mut direct = Vec::new();
    for t in 0..TUPLES.len() {
        let job = schedule.warmup(0, t);
        let (done, dt) =
            tr.span("run_job", || run_job(&registry, &job, &RunnerConfig::default(), &|_| {}));
        let done = done.map_err(|e| e.to_string())?;
        if sph_json::parse(&done.result_doc)?.get("fingerprint").and_then(Value::as_str)
            != Some(service.warmups[t].1.fingerprint.as_str())
        {
            problems.push(format!("direct run of tuple {t} differs from the served one"));
        }
        direct.push(dt);
    }
    m.insert("sph-serve.run_job_direct_s", median(&direct));
    resilient_overhead(&schedule.warmup(0, 0), &registry, &mut tr, &mut m)?;

    let (spin_after, noisy) = calibration.finish();
    m.insert("machine.spin_calib_s", spin_after);
    m.insert("machine.nproc", machine::nproc() as f64);
    spans.insert(0, tr.into_spans());
    Ok(Measured::new(
        attempted,
        crate::per_layer_metrics(&m),
        vec![("cold_job", samples.cold_s.len()), ("cache_hit", samples.cached_submit_s.len())],
        (noisy, fold_fingerprints(service)),
        problems,
        merge(spans),
    ))
}

/// What the recovery wrapper costs a fault-free job: the first tuple's
/// simulation through `ResilientSimulation` (checkpoint every 4 steps
/// into memory, as the service runs it) against the bare driver, and
/// what validating the finished state costs.
fn resilient_overhead(
    job: &JobSpec,
    registry: &ScenarioRegistry,
    tr: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let scenario = registry.get(&job.scenario).ok_or("unknown scenario")?;
    let build = || {
        let setup = scenario.init(Resolution { scale: job.scale });
        DistributedBuilder::new(setup.sys)
            .config(setup.config)
            .nranks(1)
            .build()
            .map_err(|e| e.to_string())
    };
    let mut bare = build()?;
    let (r, bare_s) = tr.span("bare.run", || bare.run(job.steps as usize));
    r.map_err(|e| e.to_string())?;
    let config = ResilientConfig { scheduler: SchedulerMode::FixedSteps(4), ..Default::default() };
    let mut resilient = ResilientSimulation::new(
        build()?,
        Box::new(MemoryStore::new()),
        &FaultPlan::new(job.seed),
        config,
    )
    .map_err(|e| e.to_string())?;
    let (r, resilient_s) = tr.span("resilient.run", || resilient.run(job.steps));
    r.map_err(|e| e.to_string())?;
    m.insert("sph-exa.resilient_overhead_share", resilient_s / bare_s - 1.0);

    let run = run_scenario(
        scenario,
        &RunOptions {
            resolution: Resolution { scale: job.scale },
            max_steps: job.steps as usize,
            ..Default::default()
        },
    )?;
    let validate: Vec<f64> = (0..5)
        .map(|_| tr.span("sph-scenarios.validate", || scenario.validate(&run).passed).1)
        .collect();
    m.insert("sph-scenarios.validate_s", median(&validate));
    m.insert(
        "sph-scenarios.init_s",
        tr.span("sph-scenarios.init", || scenario.init(Resolution { scale: job.scale }).sys.len())
            .1,
    );
    Ok(())
}
