//! The repo benchmark. Two ways in:
//!
//! * the driver's contract — `--workload <name> --seed <n> --seconds <s>
//!   --trace <0|1>` runs one workload in this process and prints one
//!   JSON result as the last line of standard output;
//! * `run`, `trace`, `selfcheck`, `compare`, `spec` — the commands a
//!   person uses (README.md), built on the first by starting one child
//!   process per workload.

// A benchmark reads the wall clock by design; nothing timed here feeds a
// trajectory (the repo's clippy.toml bans `Instant::now` for that).
#![allow(clippy::disallowed_methods)]

mod inputs;
mod layers;
mod machine;
mod replay;
mod report;
mod serve;
mod sim;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The arguments of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// About a twentieth of the size, for the test suite; every
    /// correctness gate still applies.
    pub smoke: bool,
}

/// What one workload run measured.
pub struct Measured {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric, or (traced) every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the medians, by name.
    pub samples: Vec<(&'static str, usize)>,
    pub noisy: bool,
    /// Of the final state; equal between runs of the same code and seed.
    pub fingerprint: u64,
    pub problems: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Measured {
    /// A run is correct when no gate failed; one failed gate counts
    /// every operation of the run as failed.
    pub fn new(
        attempted: u64,
        metrics: Vec<(&'static str, f64)>,
        samples: Vec<(&'static str, usize)>,
        (noisy, fingerprint): (bool, u64),
        problems: Vec<String>,
        spans: Vec<trace::Span>,
    ) -> Measured {
        let correct = problems.is_empty();
        Measured {
            correct,
            attempted,
            failed: if correct { 0 } else { attempted },
            metrics,
            samples,
            noisy,
            fingerprint,
            problems,
            spans,
        }
    }
}

/// Episodes and rounds repeat until the time box is used up: a further
/// one starts while at least half of it (going by the last) still fits.
pub fn time_box_used(start: std::time::Instant, last_s: f64, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + 0.5 * last_s >= seconds
}

/// Every per-layer metric in table order; a layer the workload does not
/// exercise reads 0.
pub fn per_layer_metrics(measured: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64)> {
    for name in measured.keys() {
        assert!(spec::PER_LAYER.iter().any(|m| m.name == *name), "{name} is not in the table");
    }
    spec::PER_LAYER.iter().map(|m| (m.name, measured.get(m.name).copied().unwrap_or(0.0))).collect()
}

pub fn run_workload(args: &RunArgs) -> Result<Measured, String> {
    if !spec::WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {:?}; the workloads are {names:?}", args.workload));
    }
    let measured =
        if args.workload == spec::SERVE_MIXED { serve::run(args) } else { sim::run(args) }?;
    for (name, value) in &measured.metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
    }
    Ok(measured)
}

fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload <name> is required".into());
    }
    Ok(args)
}

/// Run one workload and print what the contract asks for.
fn contract_run(argv: &[String]) -> Result<bool, String> {
    let args = parse_run_args(argv)?;
    let measured = run_workload(&args)?;
    report::print_measured(&args, &measured)?;
    Ok(measured.correct)
}

const USAGE: &str = "usage:
  sph-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  sph-benchmark run       [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]
  sph-benchmark trace     [--seed <n>] [--seconds <s>] [--out <file>]
  sph-benchmark selfcheck [--seed <n>] [--seconds <s>] [--runs <k>]
  sph-benchmark compare <a.json> <b.json>
  sph-benchmark spec";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => report::run_command(&argv[1..], false),
        Some("trace") => report::run_command(&argv[1..], true),
        Some("selfcheck") => report::selfcheck_command(&argv[1..]),
        Some("compare") => report::compare_command(&argv[1..]),
        Some("spec") => {
            println!("{}", report::pretty(&spec::benchmark_json()));
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => contract_run(&argv),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sph-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let a =
            parse_run_args(&argv("--workload sedov_hydro --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: "sedov_hydro".into(),
                seed: 7,
                seconds: 3.0,
                trace: true,
                smoke: false
            }
        );
        assert!(parse_run_args(&argv("--seed 7")).is_err());
        assert!(parse_run_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_run_args(&argv("--workload x --seconds 0")).is_err());
        assert!(parse_run_args(&argv("--workload x --seed")).is_err());
        assert!(run_workload(&parse_run_args(&argv("--workload nope")).unwrap()).is_err());
    }

    /// Every workload at about a twentieth of its size, measured and
    /// traced: all correctness gates hold, every metric of the table is
    /// reported, and the same seed ends in the same state.
    #[test]
    fn smoke_run_of_every_workload_passes_every_gate() {
        for w in &spec::WORKLOADS {
            let mut fingerprints = Vec::new();
            for trace in [false, true] {
                let args = RunArgs {
                    workload: w.name.to_string(),
                    seed: 5,
                    seconds: 0.5,
                    trace,
                    smoke: true,
                };
                let m = run_workload(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert!(m.correct, "{} (trace {trace}): {:?}", w.name, m.problems);
                assert!(m.attempted >= 1 && m.failed == 0);
                let names: Vec<&str> = m.metrics.iter().map(|(n, _)| *n).collect();
                if trace {
                    let table: Vec<&str> = spec::PER_LAYER.iter().map(|p| p.name).collect();
                    assert_eq!(names, table);
                    assert!(!m.spans.is_empty());
                    if w.name != spec::SERVE_MIXED {
                        let ratio = m
                            .metrics
                            .iter()
                            .find(|(n, _)| *n == "sph-exa.pass_sum_ratio")
                            .unwrap()
                            .1;
                        // The band at smoke size (evaluations of milliseconds).
                        assert!(
                            (0.67..=1.5).contains(&ratio),
                            "{}: pass_sum_ratio {ratio}",
                            w.name
                        );
                    }
                } else {
                    let table: Vec<&str> = spec::END_TO_END.iter().map(|p| p.name).collect();
                    assert_eq!(names, table);
                    assert!(m.metrics.iter().all(|(_, v)| *v > 0.0), "{:?}", m.metrics);
                }
                fingerprints.push(m.fingerprint);
            }
            assert_eq!(
                fingerprints[0], fingerprints[1],
                "{}: same seed, other final state",
                w.name
            );
        }
    }
}
