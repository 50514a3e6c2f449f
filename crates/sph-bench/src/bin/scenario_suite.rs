//! Run every registered scenario through the validation harness and
//! emit per-scenario `ValidationReport`s as JSON — the machine-readable
//! accuracy trajectory of the mini-app.
//!
//! ```text
//! scenario_suite [--json PATH] [--scale F] [--scenario NAME]
//!                [--list] [--skip-bitcheck]
//! ```
//!
//! * `--json PATH`     write the JSON report array to PATH (default:
//!   print to stdout after the human summary)
//! * `--scale F`       resolution multiplier (1.0 = the registered
//!   validation resolution the tolerances are calibrated for)
//! * `--scenario NAME` run a single scenario
//! * `--list`          print the scenario catalogue and exit
//! * `--skip-bitcheck` skip the single-vs-distributed bit-identity check
//!
//! Exit code 1 if any scenario fails its registered tolerance (the CI
//! gate) or diverges between drivers.
// CLI surface: wall-time progress timing only; never feeds a trajectory.
#![allow(clippy::disallowed_methods)]

use sph_core::diagnostics::state_fingerprint;
use sph_scenarios::{run_scenario, Resolution, RunOptions, ScenarioRegistry};

fn main() {
    let mut json_path: Option<String> = None;
    let mut scale = 1.0f64;
    let mut only: Option<String> = None;
    let mut list = false;
    let mut bitcheck = true;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--scale" => {
                scale = args
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("--scale needs a number")
            }
            "--scenario" => only = Some(args.next().expect("--scenario needs a name")),
            "--list" => list = true,
            "--skip-bitcheck" => bitcheck = false,
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }

    let registry = ScenarioRegistry::builtin();
    if list {
        print!("{}", registry.catalogue_markdown());
        return;
    }
    if let Some(name) = &only {
        // A typo'd or renamed scenario must fail loudly — an empty run
        // that exits 0 would silently green-light the CI gate.
        if registry.get(name).is_none() {
            eprintln!("unknown scenario {name:?}; registered: {:?}", registry.names());
            std::process::exit(2);
        }
    }

    let mut reports = Vec::new();
    let mut all_ok = true;
    for sc in registry.iter() {
        if let Some(name) = &only {
            if sc.name() != name {
                continue;
            }
        }
        let opts = RunOptions { resolution: Resolution { scale }, ..Default::default() };
        let t0 = std::time::Instant::now();
        let run = match run_scenario(sc, &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{:<18} ERROR: {e}", sc.name());
                all_ok = false;
                continue;
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        let report = sc.validate(&run);
        let norm = report
            .norms
            .map(|n| format!("L1 {:.4}", n.l1))
            .unwrap_or_else(|| "L1   —  ".to_string());
        println!(
            "{:<18} {:>7} particles {:>5} steps  t = {:<7.4} {}  drift {:.2e}  [{}]  {:.1}s",
            report.scenario,
            report.n_particles,
            report.steps,
            report.end_time,
            norm,
            report.energy_drift,
            if report.passed { "PASS" } else { "FAIL" },
            wall,
        );
        for c in &report.checks {
            println!(
                "    {:<28} measured {:>12.5e}  threshold {:>10.3e}  {}",
                c.name,
                c.measured,
                c.threshold,
                if c.passed { "ok" } else { "FAIL" }
            );
        }
        all_ok &= report.passed;

        if bitcheck {
            // Three macro-steps on one and on two ranks must agree bit
            // for bit (the repo-wide determinism contract, extended to
            // every registered workload).
            let quick = |nranks| RunOptions {
                resolution: Resolution { scale: (scale * 0.5).min(0.5) },
                nranks,
                end_time: Some(f64::INFINITY),
                max_steps: 3,
                ..Default::default()
            };
            let single = run_scenario(sc, &quick(1));
            let dist = run_scenario(sc, &quick(2));
            match (single, dist) {
                (Ok(s), Ok(d)) => {
                    let (fs, fd) = (state_fingerprint(&s.sys), state_fingerprint(&d.sys));
                    if fs != fd {
                        println!("    bit-identity single vs distributed: FAIL");
                        all_ok = false;
                    } else {
                        println!("    bit-identity single vs distributed: ok");
                    }
                }
                (s, d) => {
                    println!("    bit-identity check ERROR: {:?} / {:?}", s.err(), d.err());
                    all_ok = false;
                }
            }
        }
        reports.push(report);
    }

    let json = format!("[{}]", reports.iter().map(|r| r.to_json()).collect::<Vec<_>>().join(","));
    match json_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write JSON report");
            println!("wrote {} reports to {p}", reports.len());
        }
        None => println!("{json}"),
    }
    if !all_ok {
        std::process::exit(1);
    }
}
