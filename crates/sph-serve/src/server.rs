//! The HTTP server: acceptors, job workers, and the route table.
//!
//! Concurrency layout: `acceptors` threads share one `TcpListener` clone
//! each and answer requests inline (every route is cheap — simulation
//! work never happens on a connection thread); `workers` threads drain
//! the admission queue and execute jobs via [`run_job`]. All shared
//! state lives behind one `Mutex<State>` plus a condvar; worker wakeups
//! use a timeout so a missed notify can only delay, never deadlock.
//!
//! Durability: with a `state_dir` configured, accepted specs are written
//! to `jobs/<id>.json` and finished result documents to
//! `results/<id>.json` (write-then-rename, so a crash never leaves a
//! torn result). The job table is also the result cache: a finished
//! record answers every identical resubmission. On startup the scan
//! reloads finished jobs into the table, and re-queues
//! accepted-but-unfinished ones (and any whose stored result no longer
//! parses) — those resume from their own checkpoints inside [`run_job`].

use crate::admission::{Admission, AdmissionConfig, CalibrationSample};
use crate::api::JobSpec;
use crate::error::ServeError;
use crate::http::{read_request, Request, Response};
use crate::jobs::{run_job, JobRecord, JobStatus, RunnerConfig};
use sph_json::Value;
use sph_scenarios::ScenarioRegistry;
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// Root of durable state (`jobs/`, `results/`, `checkpoints/`);
    /// `None` = fully in-memory server.
    pub state_dir: Option<PathBuf>,
    /// Job-executing threads. Zero is allowed (jobs queue forever —
    /// useful for testing the queue-full path).
    pub workers: usize,
    /// Connection-accepting threads.
    pub acceptors: usize,
    pub admission: AdmissionConfig,
    /// Checkpoint/sample cadence of every job, in macro-steps.
    pub checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: None,
            workers: 2,
            acceptors: 2,
            admission: AdmissionConfig::default(),
            checkpoint_every: 4,
        }
    }
}

struct State {
    jobs: BTreeMap<String, JobRecord>,
    queue: VecDeque<String>,
    /// Submissions answered from a finished record, and all the others
    /// that reached the job table.
    cache_hits: u64,
    cache_misses: u64,
    admission: Admission,
    /// Aggregated per-phase busy seconds of all completed jobs.
    phase_seconds: BTreeMap<String, f64>,
}

struct Inner {
    registry: ScenarioRegistry,
    cfg: ServerConfig,
    runner: RunnerConfig,
    state: Mutex<State>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    requests: AtomicU64,
    responses_5xx: AtomicU64,
    /// Jobs actually executed (dispatched to a worker) — stays below the
    /// request count whenever dedup or a finished record absorbed a
    /// submission.
    executions: AtomicU64,
    // Uptime telemetry only; never enters a trajectory (the
    // `Instant::now` call site carries the clippy allow).
    started: std::time::Instant,
}

/// Poison-immune lock: a worker that panicked mid-update cannot take the
/// whole server down with it (the request path must never unwrap).
fn lock_state<'a>(inner: &'a Inner) -> MutexGuard<'a, State> {
    inner.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

pub struct Server;

pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: String,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, scan durable state, and spawn the acceptor + worker pool.
    pub fn start(cfg: ServerConfig) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?
            .to_string();

        let runner = RunnerConfig {
            checkpoint_every: cfg.checkpoint_every,
            checkpoints_dir: cfg.state_dir.as_ref().map(|d| d.join("checkpoints")),
        };
        if let Some(dir) = &cfg.state_dir {
            for sub in ["jobs", "results", "checkpoints"] {
                std::fs::create_dir_all(dir.join(sub))
                    .map_err(|e| ServeError::Io(format!("mkdir {sub}: {e}")))?;
            }
        }

        let mut state = State {
            jobs: BTreeMap::new(),
            queue: VecDeque::with_capacity(64),
            cache_hits: 0,
            cache_misses: 0,
            admission: Admission::new(cfg.admission),
            phase_seconds: BTreeMap::new(),
        };
        if let Some(dir) = &cfg.state_dir {
            scan_durable_state(dir, &mut state);
        }

        #[allow(clippy::disallowed_methods)]
        // Uptime telemetry only (see the field comment).
        let started = std::time::Instant::now();
        let inner = Arc::new(Inner {
            registry: ScenarioRegistry::builtin(),
            cfg,
            runner,
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            started,
        });

        let mut threads = Vec::new();
        for i in 0..inner.cfg.acceptors.max(1) {
            let listener =
                listener.try_clone().map_err(|e| ServeError::Io(format!("clone listener: {e}")))?;
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("accept-{i}"))
                    .spawn(move || accept_loop(&inner, &listener))
                    .map_err(|e| ServeError::Io(format!("spawn acceptor: {e}")))?,
            );
        }
        for i in 0..inner.cfg.workers {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .map_err(|e| ServeError::Io(format!("spawn worker: {e}")))?,
            );
        }
        Ok(ServerHandle { inner, addr, threads })
    }
}

impl ServerHandle {
    /// The actually-bound address (port resolved when the config said 0).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop accepting, wake every thread, and join them. Workers finish
    /// their in-flight job first; queued jobs stay durable on disk.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work_ready.notify_all();
        // Unblock acceptors stuck in accept() with one dummy connection
        // each; failures are fine (the thread may already be exiting).
        for _ in 0..self.inner.cfg.acceptors.max(1) {
            let _ = TcpStream::connect(&self.addr);
        }
        for t in self.threads {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------
// Durable state
// ---------------------------------------------------------------------

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| ServeError::Io(format!("write {}: {e}", path.display())))
}

/// Reload accepted specs and finished results left by a previous
/// process: finished jobs come back `Done`, unfinished ones re-queue and
/// resume from their checkpoints. A stored result that does not parse
/// re-queues too: its spec is valid, and by the determinism contract the
/// rerun writes the same bytes.
fn scan_durable_state(dir: &Path, state: &mut State) {
    let Ok(entries) = std::fs::read_dir(dir.join("jobs")) else { return };
    let mut ids: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_suffix(".json").map(str::to_string)
        })
        .collect();
    ids.sort();
    for id in ids {
        let Ok(text) = std::fs::read_to_string(dir.join("jobs").join(format!("{id}.json"))) else {
            continue;
        };
        let Ok(spec) = JobSpec::from_json(&text) else { continue };
        if spec.job_id() != id {
            continue; // foreign or tampered file; ignore it
        }
        let price_seconds = state.admission.price(&spec);
        // Re-rendered, so a finished record always holds our renderer's
        // bytes, which `job_status` splices in unparsed.
        let stored = std::fs::read_to_string(dir.join("results").join(format!("{id}.json")))
            .ok()
            .and_then(|doc| sph_json::parse(&doc).ok())
            .map(|doc| doc.render());
        let status = match stored {
            Some(result) => JobStatus::Done { result },
            None => {
                state.queue.push_back(id.clone());
                JobStatus::Queued
            }
        };
        state.jobs.insert(id, JobRecord { spec, status, price_seconds, telemetry: None });
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(inner: &Inner) {
    loop {
        let picked = {
            let mut st = lock_state(inner);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Skip-scan: the first queued job whose price fits the
                // remaining budget runs; an expensive job at the head
                // must not starve cheap ones behind it.
                let pos = st.queue.iter().position(|id| {
                    st.jobs.get(id).is_some_and(|r| st.admission.can_start(r.price_seconds))
                });
                if let Some(pos) = pos {
                    let id = st.queue.remove(pos).unwrap_or_default();
                    if let Some(rec) = st.jobs.get_mut(&id) {
                        rec.status = JobStatus::Running { completed_steps: 0 };
                        let price = rec.price_seconds;
                        let spec = rec.spec.clone();
                        st.admission.on_start(price);
                        break Some((id, spec, price));
                    }
                    continue; // record vanished; drop the stale queue entry
                }
                let (guard, _) = inner
                    .work_ready
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                st = guard;
            }
        };
        let Some((id, spec, price)) = picked else { return };

        inner.executions.fetch_add(1, Ordering::SeqCst);
        let progress = |completed: u64| {
            let mut st = lock_state(inner);
            if let Some(rec) = st.jobs.get_mut(&id) {
                rec.status = JobStatus::Running { completed_steps: completed };
            }
        };
        #[allow(clippy::disallowed_methods)] // prices later jobs; never enters a result
        let clock = std::time::Instant::now();
        let outcome = run_job(&inner.registry, &spec, &inner.runner, &progress);
        let seconds = clock.elapsed().as_secs_f64();

        let mut st = lock_state(inner);
        match outcome {
            Ok(done) => {
                let sample = CalibrationSample {
                    scenario: spec.scenario,
                    scale: spec.scale,
                    n_particles: done.n_particles,
                    steps: done.steps_executed,
                    seconds,
                };
                st.admission.on_finish(price, Some(&sample));
                if let Some(obj) = done.telemetry.get("phase_seconds").and_then(Value::as_obj) {
                    for (name, secs) in obj {
                        if let Some(s) = secs.as_f64() {
                            *st.phase_seconds.entry(name.clone()).or_insert(0.0) += s;
                        }
                    }
                }
                if let Some(dir) = &inner.cfg.state_dir {
                    let path = dir.join("results").join(format!("{id}.json"));
                    let _ = write_atomic(&path, done.result_doc.as_bytes());
                }
                if let Some(rec) = st.jobs.get_mut(&id) {
                    rec.status = JobStatus::Done { result: done.result_doc };
                    rec.telemetry = Some(done.telemetry);
                }
            }
            Err(err) => {
                st.admission.on_finish(price, None);
                if let Some(rec) = st.jobs.get_mut(&id) {
                    rec.status = JobStatus::Failed { error: err.to_string() };
                }
            }
        }
        drop(st);
        inner.work_ready.notify_all();
    }
}

// ---------------------------------------------------------------------
// HTTP front end
// ---------------------------------------------------------------------

fn accept_loop(inner: &Inner, listener: &TcpListener) {
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                handle_connection(inner, stream);
            }
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Read and write timeout of every accepted connection. Requests are
/// answered on the acceptor thread, so this bounds how long one silent
/// or stalled client can hold it.
const CONNECTION_TIMEOUT: Duration = Duration::from_secs(5);

fn handle_connection(inner: &Inner, mut stream: TcpStream) {
    inner.requests.fetch_add(1, Ordering::SeqCst);
    let request = stream
        .set_read_timeout(Some(CONNECTION_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(CONNECTION_TIMEOUT)))
        .map_err(|e| ServeError::Io(format!("set socket timeouts: {e}")))
        .and_then(|()| read_request(&mut BufReader::new(&stream)));
    let response = match request {
        Ok(req) => route_request(inner, &req),
        Err(err) => Response::from_error(&err),
    };
    if response.status >= 500 {
        inner.responses_5xx.fetch_add(1, Ordering::SeqCst);
    }
    let _ = response.write_to(&mut stream);
}

fn route_request(inner: &Inner, req: &Request) -> Response {
    let result = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            Ok(Response::json(200, Value::obj(vec![("ok", Value::Bool(true))]).render()))
        }
        ("GET", "/metrics") => Ok(Response::json(200, metrics_body(inner))),
        ("GET", "/scenarios") => Ok(Response::json(
            200,
            Value::obj(vec![(
                "scenarios",
                Value::Arr(inner.registry.names().iter().map(|n| Value::str(n)).collect()),
            )])
            .render(),
        )),
        ("POST", "/jobs") => submit_job(inner, &req.body),
        ("GET", path) if path.starts_with("/jobs/") => {
            job_status(inner, path.trim_start_matches("/jobs/"))
        }
        (_, "/healthz") | (_, "/metrics") | (_, "/scenarios") | (_, "/jobs") => {
            Err(ServeError::MethodNotAllowed { method: req.method.clone(), path: req.path.clone() })
        }
        (_, path) if path.starts_with("/jobs/") => {
            Err(ServeError::MethodNotAllowed { method: req.method.clone(), path: req.path.clone() })
        }
        (_, path) => Err(ServeError::RouteNotFound(path.to_string())),
    };
    result.unwrap_or_else(|err| Response::from_error(&err))
}

fn submit_job(inner: &Inner, body: &str) -> Result<Response, ServeError> {
    let spec = JobSpec::from_json(body)?;
    if inner.registry.get(&spec.scenario).is_none() {
        return Err(ServeError::UnknownScenario(spec.scenario.clone()));
    }
    let id = spec.job_id();
    let mut guard = lock_state(inner);
    let st = &mut *guard;

    // One lookup answers a resubmission. A finished identical spec answers
    // from its record (the determinism contract makes that answer exact,
    // not stale); one queued or running is *not* re-executed, the client
    // polls the same job id; a failed one is admitted again.
    let known = st.jobs.get(&id).and_then(|rec| match rec.status {
        JobStatus::Done { .. } => Some((200, "cached", rec)),
        JobStatus::Queued | JobStatus::Running { .. } => Some((202, "deduped", rec)),
        JobStatus::Failed { .. } => None,
    });
    if matches!(known, Some((200, ..))) {
        st.cache_hits += 1;
    } else {
        st.cache_misses += 1;
    }
    if let Some((code, flag, rec)) = known {
        let body =
            submit_body(&id, rec.status.label(), rec.price_seconds, &[(flag, Value::Bool(true))]);
        return Ok(Response::json(code, body));
    }

    let depth = st.queue.len();
    let price_seconds = st.admission.try_admit(&spec, depth)?;
    if let Some(dir) = &inner.cfg.state_dir {
        let path = dir.join("jobs").join(format!("{id}.json"));
        write_atomic(&path, spec.canonical().as_bytes())?;
    }
    st.jobs.insert(
        id.clone(),
        JobRecord { spec, status: JobStatus::Queued, price_seconds, telemetry: None },
    );
    st.queue.push_back(id.clone());
    drop(guard);
    inner.work_ready.notify_all();
    Ok(Response::json(202, submit_body(&id, "queued", price_seconds, &[])))
}

fn submit_body(id: &str, status: &str, price: f64, extra: &[(&str, Value)]) -> String {
    let mut fields = vec![
        ("id", Value::str(id)),
        ("status", Value::str(status)),
        ("price_seconds", Value::Num(price)),
    ];
    for (k, v) in extra {
        fields.push((*k, v.clone()));
    }
    Value::obj(fields).render()
}

fn job_status(inner: &Inner, id: &str) -> Result<Response, ServeError> {
    let st = lock_state(inner);
    let rec = st.jobs.get(id).ok_or_else(|| ServeError::JobNotFound(id.to_string()))?;
    let mut fields = vec![
        ("id", Value::str(id)),
        ("status", Value::str(rec.status.label())),
        ("spec", rec.spec.to_value()),
        ("price_seconds", Value::Num(rec.price_seconds)),
    ];
    match &rec.status {
        JobStatus::Running { completed_steps } => {
            fields.push(("completed_steps", Value::Num(*completed_steps as f64)));
        }
        JobStatus::Failed { error } => {
            fields.push(("error", Value::Str(error.clone())));
        }
        JobStatus::Done { result } => {
            // The stored document is our own renderer's output (the worker
            // rendered it, or the load re-rendered it), so it is spliced in
            // as it is: the same bytes parse → embed → re-render would give
            // (insertion-order keys, shortest-roundtrip numbers), and
            // clients may byte-compare the result field.
            let mut body = Value::obj(fields).render();
            body.pop(); // the closing brace
            body.push_str(",\"result\":");
            body.push_str(result);
            if let Some(t) = &rec.telemetry {
                body.push_str(",\"telemetry\":");
                body.push_str(&t.render());
            }
            body.push('}');
            return Ok(Response::json(200, body));
        }
        JobStatus::Queued => {}
    }
    Ok(Response::json(200, Value::obj(fields).render()))
}

fn metrics_body(inner: &Inner) -> String {
    let st = lock_state(inner);
    let lookups = st.cache_hits + st.cache_misses;
    let hit_rate = if lookups == 0 { 0.0 } else { st.cache_hits as f64 / lookups as f64 };
    let running =
        st.jobs.values().filter(|r| matches!(r.status, JobStatus::Running { .. })).count();
    let finished = st.jobs.values().filter(|r| matches!(r.status, JobStatus::Done { .. })).count();
    let phases =
        st.phase_seconds.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect::<Vec<_>>();
    Value::obj(vec![
        ("uptime_seconds", Value::Num(inner.started.elapsed().as_secs_f64())),
        ("requests", Value::Num(inner.requests.load(Ordering::SeqCst) as f64)),
        ("responses_5xx", Value::Num(inner.responses_5xx.load(Ordering::SeqCst) as f64)),
        ("executions", Value::Num(inner.executions.load(Ordering::SeqCst) as f64)),
        ("queue_depth", Value::Num(st.queue.len() as f64)),
        ("running", Value::Num(running as f64)),
        ("jobs_total", Value::Num(st.jobs.len() as f64)),
        (
            "cache",
            Value::obj(vec![
                ("hits", Value::Num(st.cache_hits as f64)),
                ("misses", Value::Num(st.cache_misses as f64)),
                // Finished records are never dropped, so nothing is evicted.
                ("evictions", Value::Num(0.0)),
                ("entries", Value::Num(finished as f64)),
                ("hit_rate", Value::Num(hit_rate)),
            ]),
        ),
        ("admission", st.admission.to_value()),
        ("phase_seconds", Value::Obj(phases)),
    ])
    .render()
}
