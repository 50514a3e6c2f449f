//! The simulation-as-a-service daemon.
//!
//! ```text
//! sph_serve [--addr HOST:PORT] [--state-dir PATH] [--workers N]
//!           [--acceptors N] [--checkpoint-every N] [--budget-seconds F]
//!           [--max-job-seconds F] [--max-queue-depth N]
//! ```
//!
//! * `--addr`             bind address (default `127.0.0.1:0`; port 0 =
//!   OS-assigned — the resolved address is printed on startup)
//! * `--state-dir`        durable root: accepted specs, finished results
//!   and per-job checkpoints live here, and a restarted server resumes
//!   from them (default: in-memory only)
//! * `--workers`          job-executing threads (default 2)
//! * `--acceptors`        connection-accepting threads (default 2)
//! * `--checkpoint-every` job checkpoint/sample cadence in macro-steps
//!   (default 4)
//! * `--budget-seconds`   concurrent predicted-seconds budget (default 600)
//! * `--max-job-seconds`  per-job predicted-seconds ceiling (default 120)
//! * `--max-queue-depth`  queued-job cap (default 1024)
//!
//! Prints exactly one line `sph-serve listening on HOST:PORT` once the
//! socket is bound — `sph_loadtest --server-cmd` parses it.

use sph_serve::{AdmissionConfig, Server, ServerConfig};
use std::io::Write;

fn main() {
    let mut cfg = ServerConfig::default();
    let mut admission = AdmissionConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value =
            |flag: &str| args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match a.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--state-dir" => cfg.state_dir = Some(value("--state-dir").into()),
            "--workers" => cfg.workers = parse(&value("--workers"), "--workers"),
            "--acceptors" => cfg.acceptors = parse(&value("--acceptors"), "--acceptors"),
            "--checkpoint-every" => {
                cfg.checkpoint_every = parse(&value("--checkpoint-every"), "--checkpoint-every")
            }
            "--budget-seconds" => {
                admission.budget_seconds = parse(&value("--budget-seconds"), "--budget-seconds")
            }
            "--max-job-seconds" => {
                admission.max_job_seconds = parse(&value("--max-job-seconds"), "--max-job-seconds")
            }
            "--max-queue-depth" => {
                admission.max_queue_depth = parse(&value("--max-queue-depth"), "--max-queue-depth")
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    cfg.admission = admission;

    let handle = match Server::start(cfg) {
        Ok(h) => h,
        Err(e) => die(&format!("startup failed: {e}")),
    };
    println!("sph-serve listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    // Serve until killed; the acceptor/worker threads do all the work.
    loop {
        std::thread::park();
    }
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| die(&format!("{flag}: cannot parse {text:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("sph_serve: {msg}");
    std::process::exit(2);
}
