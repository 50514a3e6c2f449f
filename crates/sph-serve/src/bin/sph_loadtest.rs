//! Closed-loop load, determinism, and resilience driver for `sph_serve`.
//!
//! ```text
//! sph_loadtest --server-cmd PATH [--state-root DIR] [--requests N]
//!              [--clients C] [--json PATH]
//! sph_loadtest --addr HOST:PORT [--requests N] [--clients C] [--json PATH]
//! ```
//!
//! In `--server-cmd` mode (PATH = the `sph_serve` binary) the drill is
//! complete:
//!
//! 1. **fresh-vs-fresh determinism** — two servers with separate state
//!    dirs run the same specs; result documents must be byte-identical;
//! 2. **kill/restart resilience** — a long job is killed (SIGKILL)
//!    mid-flight, the server restarts on the same state dir, the job
//!    resumes from its checkpoints and must still produce bytes
//!    identical to the uninterrupted reference run;
//! 3. **closed-loop throughput** — `--clients` threads issue at least
//!    `--requests` requests over ≥3 scenarios, byte-verifying every
//!    cache hit against the first fresh result of its tuple, requiring
//!    every resubmission of a tuple already read `done` to answer 200
//!    `cached`, gating on zero 5xx, and writing p50/p99/throughput to
//!    `--json` when given.
//!
//! In `--addr` mode only phase 3 runs, against an externally managed
//! server (the restart drill needs process control).
//!
//! Exit code 0 only if every check passed.
// Bench surface: wall-time reads time requests only; nothing feeds a
// simulation trajectory.
#![allow(clippy::disallowed_methods)]

use sph_json::Value;
use sph_serve::http_call;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Tuple {
    scenario: &'static str,
    resolution: f64,
    steps: u64,
    seed: u64,
}

impl Tuple {
    fn body(&self) -> String {
        Value::obj(vec![
            ("scenario", Value::str(self.scenario)),
            ("resolution", Value::Num(self.resolution)),
            ("steps", Value::Num(self.steps as f64)),
            ("seed", Value::Num(self.seed as f64)),
        ])
        .render()
    }
}

fn main() {
    let mut server_cmd: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut state_root: Option<PathBuf> = None;
    let mut min_requests: u64 = 1000;
    let mut clients: usize = 8;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("sph_loadtest: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--server-cmd" => server_cmd = Some(value("--server-cmd")),
            "--addr" => addr = Some(value("--addr")),
            "--state-root" => state_root = Some(value("--state-root").into()),
            "--requests" => min_requests = value("--requests").parse().expect("--requests"),
            "--clients" => clients = value("--clients").parse().expect("--clients"),
            "--json" => json_path = Some(value("--json").into()),
            other => {
                eprintln!("sph_loadtest: unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    if server_cmd.is_none() && addr.is_none() {
        eprintln!("sph_loadtest: need --server-cmd PATH or --addr HOST:PORT");
        std::process::exit(2);
    }

    let counters = Counters::default();
    let mut determinism_pairs = 0u64;
    let mut restart = None;

    let target_addr = match server_cmd {
        Some(cmd) => {
            let root = state_root.unwrap_or_else(|| {
                std::env::temp_dir().join(format!("sph-loadtest-{}", std::process::id()))
            });
            let _ = std::fs::remove_dir_all(&root);

            // Phase 1: fresh-vs-fresh determinism across two servers.
            let mut server_b = spawn_server(&cmd, &root.join("b"));
            let mut server_a = spawn_server(&cmd, &root.join("a"));
            let drill = Tuple { scenario: "sod", resolution: 0.4, steps: 120, seed: 424242 };
            let mut reference = BTreeLike::new();
            for t in probe_tuples() {
                let ra = run_to_done(&server_a.addr, &t, &counters);
                let rb = run_to_done(&server_b.addr, &t, &counters);
                assert_eq!(ra, rb, "fresh servers disagree on {}", t.body());
                reference.insert(t.body(), ra);
                determinism_pairs += 1;
            }
            let drill_reference = run_to_done(&server_b.addr, &drill, &counters);
            server_b.child.kill().ok();
            server_b.child.wait().ok();
            println!("phase 1 ok: {determinism_pairs} fresh-vs-fresh pairs byte-identical");

            // Phase 2: kill mid-job, restart on the same state dir.
            let id = submit(&server_a.addr, &drill, &counters);
            wait_for_progress(&server_a.addr, &id, 2, &counters);
            server_a.child.kill().expect("kill server");
            server_a.child.wait().ok();
            let server_a = spawn_server(&cmd, &root.join("a"));
            let record = poll_done(&server_a.addr, &id, Duration::from_secs(600), &counters);
            let resumed = record
                .get("telemetry")
                .and_then(|t| t.get("resumed"))
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let bytes = record.get("result").expect("drill result").render();
            assert!(resumed, "restarted job did not report resumed=true");
            assert_eq!(bytes, drill_reference, "post-restart result differs from reference");
            restart = Some((resumed, bytes == drill_reference));
            println!("phase 2 ok: killed mid-job, resumed from checkpoint, bytes identical");

            counters.guard_children(server_a);
            counters.reference.lock().unwrap().extend(reference.0);
            counters.addr_of_child()
        }
        None => addr.unwrap(),
    };

    // Phase 3: closed-loop throughput with byte-verified cache hits.
    let t0 = Instant::now();
    let made_before = counters.requests.load(Ordering::SeqCst);
    let tuples: Arc<Vec<Tuple>> = Arc::new(probe_tuples());
    // Ensure every tuple has a reference (external mode starts empty).
    for t in tuples.iter() {
        let key = t.body();
        let have = counters.reference.lock().unwrap().iter().any(|(k, _)| *k == key);
        if !have {
            let bytes = run_to_done(&target_addr, t, &counters);
            counters.done_seen.lock().unwrap().insert(key.clone());
            counters.reference.lock().unwrap().push((key, bytes));
        }
    }
    let mut handles = Vec::new();
    for c in 0..clients.max(1) {
        let counters = counters.clone();
        let tuples = Arc::clone(&tuples);
        let addr = target_addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut i = c;
            while counters.requests.load(Ordering::SeqCst) < made_before + min_requests {
                let t = &tuples[i % tuples.len()];
                i += 1;
                // Resubmit (a cache hit) then fetch and byte-verify. A
                // tuple this server already reported done must answer
                // 200 cached, however many jobs finished since.
                let key = t.body();
                let finished = counters.done_seen.lock().unwrap().contains(&key);
                let (status, body) = timed_call(&addr, "POST", "/jobs", &key, &counters);
                assert!(status < 500, "5xx on POST: {body}");
                let doc = sph_json::parse(&body).expect("submit reply");
                if finished {
                    let cached = doc.get("cached").and_then(Value::as_bool) == Some(true);
                    assert!(status == 200 && cached, "finished {key} not answered cached: {body}");
                    counters.cached_resubmits.fetch_add(1, Ordering::SeqCst);
                }
                let id = doc.get("id").and_then(Value::as_str).expect("id").to_string();
                let (status, body) =
                    timed_call(&addr, "GET", &format!("/jobs/{id}"), "", &counters);
                assert!(status < 500, "5xx on GET: {body}");
                let doc = sph_json::parse(&body).expect("status reply");
                if doc.get("status").and_then(Value::as_str) == Some("done") {
                    counters.done_seen.lock().unwrap().insert(key.clone());
                    let bytes = doc.get("result").expect("result").render();
                    let reference = counters.reference.lock().unwrap();
                    let expected =
                        reference.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
                    if let Some(expected) = expected {
                        assert_eq!(bytes, expected, "cache hit differs from fresh run: {key}");
                    }
                }
                if i % 50 == 0 {
                    let (status, _) = timed_call(&addr, "GET", "/metrics", "", &counters);
                    assert!(status < 500);
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let phase3_requests = counters.requests.load(Ordering::SeqCst) - made_before;
    let cached_resubmits = counters.cached_resubmits.load(Ordering::SeqCst);

    // Final metrics snapshot: the zero-5xx gate and the dedup proof.
    let (status, metrics_text) = http_call(&target_addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    let metrics = sph_json::parse(&metrics_text).expect("metrics json");
    let server_5xx = metrics.get("responses_5xx").and_then(Value::as_f64).unwrap_or(-1.0);
    let executions = metrics.get("executions").and_then(Value::as_f64).unwrap_or(-1.0);
    let server_requests = metrics.get("requests").and_then(Value::as_f64).unwrap_or(0.0);
    assert_eq!(server_5xx, 0.0, "server reported 5xx responses");
    assert_eq!(counters.client_5xx.load(Ordering::SeqCst), 0, "client saw 5xx responses");
    assert!(
        executions >= 0.0 && executions < server_requests,
        "cache/dedup had no effect: {executions} executions for {server_requests} requests"
    );

    let mut lats = counters.latencies.lock().unwrap().clone();
    lats.sort_by(|a, b| a.total_cmp(b));
    let pct = |q: f64| -> f64 {
        if lats.is_empty() {
            return 0.0;
        }
        lats[((lats.len() - 1) as f64 * q).round() as usize]
    };
    let total_requests = counters.requests.load(Ordering::SeqCst);
    let throughput = if elapsed > 0.0 { phase3_requests as f64 / elapsed } else { 0.0 };
    let scenario_names: Vec<Value> = {
        let mut names: Vec<&str> = probe_tuples().iter().map(|t| t.scenario).collect();
        names.dedup();
        names.into_iter().map(Value::str).collect()
    };
    let cache = metrics.get("cache").cloned().unwrap_or(Value::Null);
    let report = Value::obj(vec![
        ("requests_total", Value::Num(total_requests as f64)),
        ("requests_measured", Value::Num(phase3_requests as f64)),
        ("clients", Value::Num(clients as f64)),
        ("elapsed_seconds", Value::Num(elapsed)),
        ("throughput_rps", Value::Num(throughput)),
        (
            "latency_seconds",
            Value::obj(vec![("p50", Value::Num(pct(0.50))), ("p99", Value::Num(pct(0.99)))]),
        ),
        ("cache", cache),
        ("cached_resubmits", Value::Num(cached_resubmits as f64)),
        ("executions", Value::Num(executions)),
        ("zero_5xx", Value::Bool(true)),
        ("scenarios", Value::Arr(scenario_names)),
        (
            "determinism",
            Value::obj(vec![
                ("fresh_pairs_checked", Value::Num(determinism_pairs as f64)),
                ("mismatches", Value::Num(0.0)),
            ]),
        ),
        (
            "restart_drill",
            match restart {
                Some((resumed, identical)) => Value::obj(vec![
                    ("ran", Value::Bool(true)),
                    ("resumed", Value::Bool(resumed)),
                    ("byte_identical", Value::Bool(identical)),
                ]),
                None => Value::obj(vec![("ran", Value::Bool(false))]),
            },
        ),
    ]);
    println!(
        "phase 3 ok: {phase3_requests} requests, {throughput:.0} req/s, \
         p50 {:.1} ms, p99 {:.1} ms, {cached_resubmits} finished resubmits cached",
        pct(0.50) * 1e3,
        pct(0.99) * 1e3
    );
    if let Some(path) = json_path {
        std::fs::write(&path, report.render()).expect("write report json");
        println!("report -> {}", path.display());
    }
    counters.kill_children();
}

/// The throughput workload: 3 scenarios x 8 seeds, tiny and fast.
fn probe_tuples() -> Vec<Tuple> {
    let mut out = Vec::new();
    for scenario in ["sod", "sedov", "square-patch"] {
        for seed in 0..8 {
            out.push(Tuple { scenario, resolution: 0.2, steps: 2, seed });
        }
    }
    out
}

// -------------------------------------------------------------------
// Server process management
// -------------------------------------------------------------------

struct Spawned {
    child: Child,
    addr: String,
}

fn spawn_server(cmd: &str, state_dir: &std::path::Path) -> Spawned {
    let mut child = Command::new(cmd)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--checkpoint-every")
        .arg("2")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sph_serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read addr line");
    let addr = line
        .trim()
        .strip_prefix("sph-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .to_string();
    Spawned { child, addr }
}

// -------------------------------------------------------------------
// Shared client plumbing
// -------------------------------------------------------------------

#[derive(Clone, Default)]
struct Counters {
    requests: Arc<AtomicU64>,
    client_5xx: Arc<AtomicU64>,
    latencies: Arc<Mutex<Vec<f64>>>,
    reference: Arc<Mutex<Vec<(String, String)>>>,
    /// Tuples whose `GET` read `done` on the server under test.
    done_seen: Arc<Mutex<BTreeSet<String>>>,
    cached_resubmits: Arc<AtomicU64>,
    children: Arc<Mutex<Vec<Spawned>>>,
}

impl Counters {
    fn guard_children(&self, s: Spawned) {
        self.children.lock().unwrap().push(s);
    }
    fn addr_of_child(&self) -> String {
        self.children.lock().unwrap().last().expect("spawned server").addr.clone()
    }
    fn kill_children(&self) {
        for s in self.children.lock().unwrap().iter_mut() {
            let _ = s.child.kill();
            let _ = s.child.wait();
        }
    }
}

/// Sorted-vec map stand-in (tiny key sets; keeps the binary dependency-free).
struct BTreeLike(Vec<(String, String)>);
impl BTreeLike {
    fn new() -> Self {
        BTreeLike(Vec::new())
    }
    fn insert(&mut self, k: String, v: String) {
        self.0.push((k, v));
    }
}

fn timed_call(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    counters: &Counters,
) -> (u16, String) {
    let t0 = Instant::now();
    let (status, text) = http_call(addr, method, path, body)
        .unwrap_or_else(|e| panic!("{method} {path} failed: {e}"));
    counters.latencies.lock().unwrap().push(t0.elapsed().as_secs_f64());
    counters.requests.fetch_add(1, Ordering::SeqCst);
    if status >= 500 {
        counters.client_5xx.fetch_add(1, Ordering::SeqCst);
    }
    (status, text)
}

fn submit(addr: &str, t: &Tuple, counters: &Counters) -> String {
    let (status, body) = timed_call(addr, "POST", "/jobs", &t.body(), counters);
    assert!(status == 200 || status == 202, "submit rejected ({status}): {body}");
    sph_json::parse(&body)
        .ok()
        .and_then(|d| d.get("id").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_else(|| panic!("submit reply unparseable: {body}"))
}

fn poll_done(addr: &str, id: &str, timeout: Duration, counters: &Counters) -> Value {
    let t0 = Instant::now();
    loop {
        let (status, body) = timed_call(addr, "GET", &format!("/jobs/{id}"), "", counters);
        assert!(status < 500, "status poll 5xx: {body}");
        if status == 200 {
            let doc = sph_json::parse(&body).expect("status json");
            match doc.get("status").and_then(Value::as_str) {
                Some("done") => return doc,
                Some("failed") => panic!("job {id} failed: {body}"),
                _ => {}
            }
        }
        assert!(t0.elapsed() < timeout, "job {id} not done after {timeout:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Submit and wait, returning the rendered result document bytes.
fn run_to_done(addr: &str, t: &Tuple, counters: &Counters) -> String {
    let id = submit(addr, t, counters);
    let record = poll_done(addr, id.as_str(), Duration::from_secs(600), counters);
    record.get("result").expect("result in done record").render()
}

/// Wait until the job reports at least `steps` completed steps (or is
/// already past — done also counts, though the drill sizes jobs so the
/// kill lands mid-flight).
fn wait_for_progress(addr: &str, id: &str, steps: u64, counters: &Counters) {
    let t0 = Instant::now();
    loop {
        let (status, body) = timed_call(addr, "GET", &format!("/jobs/{id}"), "", counters);
        assert!(status < 500);
        if status == 200 {
            let doc = sph_json::parse(&body).expect("status json");
            let completed = doc.get("completed_steps").and_then(Value::as_u64).unwrap_or(0);
            let state = doc.get("status").and_then(Value::as_str).unwrap_or("");
            if completed >= steps || state == "done" {
                return;
            }
        }
        assert!(t0.elapsed() < Duration::from_secs(600), "no progress on {id}");
        std::thread::sleep(Duration::from_millis(2));
    }
}
