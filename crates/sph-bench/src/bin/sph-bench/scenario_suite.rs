//! `scenario_suite`: run and validate every registered scenario and
//! report as JSON; exit 1 if one misses its tolerance or diverges between
//! one and two ranks (the CI gate).

use crate::args::{Args, Flags, Kind};
use sph_core::diagnostics::state_fingerprint;
use sph_scenarios::{run_scenario, Resolution, RunOptions, ScenarioRegistry};

pub const FLAGS: Flags = &[
    ("--json", Kind::Text),
    ("--scale", Kind::Real),
    ("--scenario", Kind::Text),
    ("--list", Kind::Switch),
    ("--skip-bitcheck", Kind::Switch),
];

pub fn run(args: &Args) {
    let json_path = args.text("--json");
    let scale = args.num("--scale").unwrap_or(1.0f64);
    let only = args.text("--scenario");
    let bitcheck = !args.switch("--skip-bitcheck");

    let registry = ScenarioRegistry::builtin();
    if args.switch("--list") {
        print!("{}", registry.catalogue_markdown());
        return;
    }
    // A typo'd or renamed scenario must fail loudly — an empty run that
    // exits 0 would silently green-light the CI gate.
    if let Some(name) = only.filter(|name| registry.get(name).is_none()) {
        eprintln!("unknown scenario {name:?}; registered: {:?}", registry.names());
        std::process::exit(2);
    }

    let mut reports = Vec::new();
    let mut all_ok = true;
    for sc in registry.iter().filter(|sc| only.is_none_or(|name| sc.name() == name)) {
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
            let fingerprint =
                |nranks| run_scenario(sc, &quick(nranks)).map(|r| state_fingerprint(&r.sys));
            let verdict = match (fingerprint(1), fingerprint(2)) {
                (Ok(s), Ok(d)) if s == d => "ok".to_string(),
                (Ok(_), Ok(_)) => "FAIL".to_string(),
                (s, d) => format!("ERROR: {:?} / {:?}", s.err(), d.err()),
            };
            all_ok &= verdict == "ok";
            println!("    bit-identity single vs distributed: {verdict}");
        }
        reports.push(report);
    }

    let json = format!("[{}]", reports.iter().map(|r| r.to_json()).collect::<Vec<_>>().join(","));
    match json_path {
        Some(p) => {
            std::fs::write(p, &json).expect("write JSON report");
            println!("wrote {} reports to {p}", reports.len());
        }
        None => println!("{json}"),
    }
    if !all_ok {
        std::process::exit(1);
    }
}
