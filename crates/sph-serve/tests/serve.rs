//! End-to-end API tests against in-process servers on loopback sockets.
//!
//! Each test starts its own [`Server`] (port 0 → isolated), talks to it
//! with the same [`http_call`] client the loadtest uses, and shuts it
//! down. Jobs use tiny resolutions so the suite stays debug-build fast.

// Test harness, not library code: wall-time reads only bound the
// polling loops, they never influence results.
#![allow(clippy::disallowed_methods)]

use sph_json::Value;
use sph_serve::{http_call, AdmissionConfig, Server, ServerConfig};
use std::io::Read;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn test_config() -> ServerConfig {
    ServerConfig { workers: 1, acceptors: 1, ..ServerConfig::default() }
}

fn body(scenario: &str, steps: u64, seed: u64) -> String {
    format!(r#"{{"scenario":"{scenario}","resolution":0.2,"steps":{steps},"seed":{seed}}}"#)
}

fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, Value) {
    let (status, text) = http_call(addr, method, path, body).expect("http call");
    let value = if text.is_empty() {
        Value::Null
    } else {
        sph_json::parse(&text).unwrap_or_else(|e| panic!("unparseable reply {text:?}: {e}"))
    };
    (status, value)
}

fn submit(addr: &str, payload: &str) -> (u16, Value) {
    call(addr, "POST", "/jobs", payload)
}

fn wait_done(addr: &str, id: &str) -> Value {
    let t0 = Instant::now();
    loop {
        let (status, doc) = call(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{doc:?}");
        match doc.get("status").and_then(Value::as_str) {
            Some("done") => return doc,
            Some("failed") => panic!("job failed: {doc:?}"),
            _ => {}
        }
        assert!(t0.elapsed() < Duration::from_secs(300), "timeout waiting for {id}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn executions(addr: &str) -> f64 {
    let (status, doc) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    doc.get("executions").and_then(Value::as_f64).expect("executions metric")
}

#[test]
fn a_server_that_never_answers_fails_the_call_within_its_timeout() {
    // `http_call`'s socket timeout, twice the server's 5 s one.
    let call_timeout = Duration::from_secs(10);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let (release, held) = mpsc::channel::<()>();
    let silent = std::thread::spawn(move || {
        let (_stream, _) = listener.accept().expect("accept");
        let _ = held.recv(); // hold the connection open, silently
    });
    let t0 = Instant::now();
    let outcome = http_call(&addr, "GET", "/healthz", "");
    let waited = t0.elapsed();
    drop(release);
    silent.join().expect("silent peer");
    assert!(outcome.is_err(), "{outcome:?}");
    assert!(waited >= call_timeout, "gave up after {waited:?}");
    assert!(waited < call_timeout + Duration::from_secs(5), "hung for {waited:?}");
}

#[test]
fn healthz_and_scenarios() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr().to_string();
    let (status, doc) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
    let (status, doc) = call(&addr, "GET", "/scenarios", "");
    assert_eq!(status, 200);
    let names: Vec<&str> = doc
        .get("scenarios")
        .and_then(Value::as_arr)
        .expect("scenarios array")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(names.contains(&"sod") && names.contains(&"sedov"));
    server.shutdown();
}

#[test]
fn cache_hit_is_byte_identical_and_skips_execution() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr().to_string();

    let (status, first) = submit(&addr, &body("sod", 2, 1));
    assert_eq!(status, 202, "{first:?}");
    let id = first.get("id").and_then(Value::as_str).expect("id").to_string();
    let fresh = wait_done(&addr, &id);
    let fresh_bytes = fresh.get("result").expect("result").render();
    let executed = executions(&addr);
    assert_eq!(executed, 1.0);

    // Identical resubmission: answered from the cache, no new execution.
    let (status, hit) = submit(&addr, &body("sod", 2, 1));
    assert_eq!(status, 200, "{hit:?}");
    assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true));
    let again = wait_done(&addr, &id);
    assert_eq!(again.get("result").expect("result").render(), fresh_bytes);
    assert_eq!(executions(&addr), executed, "cache hit must not re-execute");

    // Different seed: a genuinely new job.
    let (status, miss) = submit(&addr, &body("sod", 2, 2));
    assert_eq!(status, 202, "{miss:?}");
    let id2 = miss.get("id").and_then(Value::as_str).expect("id").to_string();
    assert_ne!(id2, id);
    wait_done(&addr, &id2);
    assert_eq!(executions(&addr), executed + 1.0);

    // The first job still answers from its record after another finished.
    let (status, hit) = submit(&addr, &body("sod", 2, 1));
    assert_eq!(status, 200, "{hit:?}");
    assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true));
    let again = wait_done(&addr, &id);
    assert_eq!(again.get("result").expect("result").render(), fresh_bytes);
    assert_eq!(executions(&addr), executed + 1.0, "cache hit must not re-execute");
    let (_, metrics) = call(&addr, "GET", "/metrics", "");
    let cache = metrics.get("cache").expect("cache stats");
    assert!(cache.get("hits").and_then(Value::as_f64).unwrap() >= 2.0);
    assert!(cache.get("misses").and_then(Value::as_f64).unwrap() >= 2.0);
    assert_eq!(cache.get("entries").and_then(Value::as_f64), Some(2.0));
    // The completed jobs priced their scenario from what they measured.
    let rate = metrics
        .get("admission")
        .and_then(|a| a.get("seconds_per_particle_step"))
        .and_then(|r| r.get("sod"))
        .and_then(Value::as_f64)
        .expect("a learned sod rate");
    assert!(rate > 0.0 && rate.is_finite(), "{rate}");
    server.shutdown();
}

#[test]
fn a_finished_job_answers_the_bytes_parse_and_render_would() {
    // `GET /jobs/<id>` splices the stored result document into the reply
    // unparsed; the reply must be exactly what parsing it and rendering it
    // again gives. The benchmark's three served tuples (two steps each)
    // and a self-gravity job.
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr().to_string();
    for (scenario, resolution) in
        [("sedov", 0.5), ("sod", 1.0), ("square-patch", 1.0), ("evrard", 0.2)]
    {
        let payload =
            format!(r#"{{"scenario":"{scenario}","resolution":{resolution},"steps":2,"seed":1}}"#);
        let (status, doc) = submit(&addr, &payload);
        assert_eq!(status, 202, "{scenario}: {doc:?}");
        let id = doc.get("id").and_then(Value::as_str).expect("id").to_string();
        wait_done(&addr, &id);
        let (status, text) = http_call(&addr, "GET", &format!("/jobs/{id}"), "").expect("get");
        assert_eq!(status, 200, "{scenario}: {text}");
        let parsed = sph_json::parse(&text).expect("a JSON body");
        assert_eq!(text, parsed.render(), "{scenario}: the reply is not parse-and-render");
        assert!(parsed.get("result").and_then(Value::as_obj).is_some(), "{scenario}: {text}");
        assert!(parsed.get("telemetry").is_some(), "{scenario}: {text}");
    }
    server.shutdown();
}

#[test]
fn concurrent_duplicate_submissions_execute_once() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr().to_string();
    let payload = body("sedov", 2, 7);

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let payload = payload.clone();
            std::thread::spawn(move || {
                let (status, doc) = submit(&addr, &payload);
                assert!(status == 200 || status == 202, "{doc:?}");
                doc.get("id").and_then(Value::as_str).expect("id").to_string()
            })
        })
        .collect();
    let ids: Vec<String> = threads.into_iter().map(|t| t.join().expect("thread")).collect();
    assert!(ids.windows(2).all(|w| w[0] == w[1]), "ids diverged: {ids:?}");

    wait_done(&addr, &ids[0]);
    assert_eq!(executions(&addr), 1.0, "duplicates must collapse to one execution");
    server.shutdown();
}

#[test]
fn error_paths_return_typed_bodies() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr().to_string();
    let code_of = |doc: &Value| {
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .map(str::to_string)
            .expect("error.code")
    };

    let (status, doc) = submit(&addr, "this is not json");
    assert_eq!(status, 400);
    assert_eq!(code_of(&doc), "malformed_json");

    let (status, doc) = submit(&addr, r#"{"scenario":"sod"}"#);
    assert_eq!(status, 400);
    assert_eq!(code_of(&doc), "invalid_param");

    let (status, doc) = submit(&addr, r#"{"scenario":"warp-core","steps":2}"#);
    assert_eq!(status, 404);
    assert_eq!(code_of(&doc), "unknown_scenario");

    let (status, doc) = call(&addr, "GET", "/jobs/deadbeefdeadbeef", "");
    assert_eq!(status, 404);
    assert_eq!(code_of(&doc), "job_not_found");

    let (status, doc) = call(&addr, "DELETE", "/jobs", "");
    assert_eq!(status, 405);
    assert_eq!(code_of(&doc), "method_not_allowed");

    let (status, doc) = call(&addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    assert_eq!(code_of(&doc), "route_not_found");
    server.shutdown();
}

#[test]
fn over_budget_submissions_are_priced_and_rejected() {
    let cfg = ServerConfig {
        admission: AdmissionConfig { max_job_seconds: 1e-12, ..AdmissionConfig::default() },
        ..test_config()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr().to_string();
    let (status, doc) = submit(&addr, &body("sod", 1000, 0));
    assert_eq!(status, 429, "{doc:?}");
    let err = doc.get("error").expect("error body");
    assert_eq!(err.get("code").and_then(Value::as_str), Some("over_budget"));
    assert!(err.get("price_seconds").and_then(Value::as_f64).unwrap() > 1e-12);
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_429() {
    let cfg = ServerConfig {
        workers: 0, // nothing drains the queue
        admission: AdmissionConfig { max_queue_depth: 1, ..AdmissionConfig::default() },
        ..test_config()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr().to_string();
    let (status, _) = submit(&addr, &body("sod", 2, 0));
    assert_eq!(status, 202);
    let (status, doc) = submit(&addr, &body("sod", 2, 1));
    assert_eq!(status, 429, "{doc:?}");
    assert_eq!(
        doc.get("error").and_then(|e| e.get("code")).and_then(Value::as_str),
        Some("queue_full")
    );
    server.shutdown();
}

#[test]
fn durable_results_survive_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("sph-serve-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServerConfig { state_dir: Some(dir.clone()), ..test_config() };

    let server = Server::start(cfg()).expect("start");
    let addr = server.addr().to_string();
    let (status, doc) = submit(&addr, &body("square-patch", 2, 3));
    assert_eq!(status, 202, "{doc:?}");
    let id = doc.get("id").and_then(Value::as_str).expect("id").to_string();
    let done = wait_done(&addr, &id);
    let bytes = done.get("result").expect("result").render();
    server.shutdown();

    // A new process (modelled by a new in-process server) on the same
    // state dir serves the finished job without re-running it.
    let server = Server::start(cfg()).expect("restart");
    let addr = server.addr().to_string();
    let reloaded = wait_done(&addr, &id);
    assert_eq!(reloaded.get("result").expect("result").render(), bytes);
    assert_eq!(executions(&addr), 0.0, "restart must reload, not re-run");
    let (status, hit) = submit(&addr, &body("square-patch", 2, 3));
    assert_eq!(status, 200);
    assert_eq!(hit.get("cached").and_then(Value::as_bool), Some(true));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_stored_result_re_runs_on_restart() {
    let dir = std::env::temp_dir().join(format!("sph-serve-damaged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServerConfig { state_dir: Some(dir.clone()), ..test_config() };

    let server = Server::start(cfg()).expect("start");
    let addr = server.addr().to_string();
    let (status, doc) = submit(&addr, &body("square-patch", 2, 3));
    assert_eq!(status, 202, "{doc:?}");
    let id = doc.get("id").and_then(Value::as_str).expect("id").to_string();
    let bytes = wait_done(&addr, &id).get("result").expect("result").render();
    server.shutdown();

    // Truncate the stored result to half: the restarted server cannot
    // parse it, so it re-runs the job instead of serving the damage.
    let path = dir.join("results").join(format!("{id}.json"));
    let stored = std::fs::read(&path).expect("stored result");
    std::fs::write(&path, &stored[..stored.len() / 2]).expect("truncate");
    let server = Server::start(cfg()).expect("restart");
    let addr = server.addr().to_string();
    let rerun = wait_done(&addr, &id);
    assert_eq!(rerun.get("result").expect("result").render(), bytes);
    assert_eq!(executions(&addr), 1.0, "a damaged result must re-run once");
    assert_eq!(std::fs::read(&path).expect("rewritten result"), stored);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_silent_client_cannot_stall_the_only_acceptor() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr().to_string();
    // Connected but silent, and first in the accept queue of the one
    // acceptor thread: its read timeout must free that thread.
    let mut idle = TcpStream::connect(&addr).expect("connect");
    let (tx, rx) = mpsc::channel();
    let healthz_addr = addr.clone();
    std::thread::spawn(move || tx.send(http_call(&healthz_addr, "GET", "/healthz", "")));
    // The server's connection timeout is 5 s; the rest is margin.
    let reply =
        rx.recv_timeout(Duration::from_secs(20)).expect("healthz stalled behind the idle client");
    assert_eq!(reply.expect("healthz call").0, 200);
    // The silent client is told why it was dropped.
    let mut raw = String::new();
    idle.read_to_string(&mut raw).expect("read the 408");
    assert!(raw.starts_with("HTTP/1.1 408 Request Timeout"), "{raw}");
    server.shutdown();
}
