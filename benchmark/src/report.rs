//! Printing a run, collecting runs into result files, and comparing
//! two result files by the benchmark's own bounds.

use crate::spec::{self, Better};
use crate::stats::{median, spread};
use crate::trace::{chrome_json, self_times};
use crate::{machine, Measured, RunArgs};
use sph_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn metrics_value(metrics: &[(&'static str, f64)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let entry = Value::obj(vec![
                    ("value", Value::Num(*value)),
                    ("unit", Value::str(unit_of(name))),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// The one JSON object the driver reads: exactly these four keys.
pub fn result_line(m: &Measured) -> String {
    Value::obj(vec![
        ("correct", Value::Bool(m.correct)),
        ("attempted", Value::Num(m.attempted as f64)),
        ("failed", Value::Num(m.failed as f64)),
        ("metrics", metrics_value(&m.metrics)),
    ])
    .render()
}

/// What `run` and `selfcheck` keep of a run beyond the result line.
fn info_line(args: &RunArgs, m: &Measured) -> String {
    Value::obj(vec![
        ("workload", Value::str(&args.workload)),
        ("seed", Value::Str(args.seed.to_string())),
        ("noisy", Value::Bool(m.noisy)),
        ("fingerprint", Value::Str(format!("{:016x}", m.fingerprint))),
    ])
    .render()
}

/// Print every metric by name with its unit, write the trace of a
/// traced run, and end with the info line and the result line.
pub fn print_measured(args: &RunArgs, m: &Measured) -> Result<(), String> {
    for (name, value) in &m.metrics {
        let n = m
            .samples
            .iter()
            .find(|(s, _)| s == name)
            .map_or(String::new(), |(_, n)| format!("  (n = {n})"));
        println!("{:<16} {name:<44} {value:>16.6} {}{n}", args.workload, unit_of(name));
    }
    if args.trace {
        for (name, n) in &m.samples {
            println!("{:<16} samples: {n} × {name}", args.workload);
        }
        println!("{:<16} self time per span name:", args.workload);
        for (name, (count, seconds)) in self_times(&m.spans) {
            println!("{:<16}   {name:<36} {count:>6} × {seconds:>12.6} s", args.workload);
        }
        let dir = machine::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, chrome_json(&m.spans).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{:<16} {} spans written to {}", args.workload, m.spans.len(), path.display());
    }
    println!("{:<16} final-state fingerprint {:016x}", args.workload, m.fingerprint);
    for p in &m.problems {
        println!("{:<16} GATE FAILED: {p}", args.workload);
    }
    println!("{}", info_line(args, m));
    println!("{}", result_line(m));
    Ok(())
}

/// Indented rendering, one key or element per line.
pub fn pretty(v: &Value) -> String {
    fn go(v: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match v {
            Value::Obj(fields) if !fields.is_empty() && depth < 2 => {
                out.push_str("{\n");
                for (i, (k, item)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&sph_json::quoted(k));
                    out.push_str(": ");
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            Value::Arr(items) if !items.is_empty() && depth < 2 => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    go(item, depth + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            other => out.push_str(&other.render()),
        }
    }
    let mut out = String::new();
    go(v, 0, &mut out);
    out
}

// ---------------------------------------------------------------------
// Result files: one child process per workload and run
// ---------------------------------------------------------------------

struct SetArgs {
    seed: u64,
    seconds: f64,
    runs: u64,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_set_args(argv: &[String], default_runs: u64) -> Result<SetArgs, String> {
    let mut a = SetArgs {
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        runs: default_runs,
        out: None,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not a valid value");
        match flag.as_str() {
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--runs" => a.runs = value.parse().ok().filter(|&r| r >= 1).ok_or_else(bad)?,
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// Run one workload in a child process of its own (so that its peak
/// memory is its own) and return its record for the result file.
fn run_child(workload: &str, seed: u64, a: &SetArgs, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &a.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let mut lines = text.lines().rev();
    let result = lines.next().and_then(|l| sph_json::parse(l).ok());
    let info = lines.next().and_then(|l| sph_json::parse(l).ok());
    let (Some(result), Some(Value::Obj(mut record))) = (result, info) else {
        return Err(format!("the {workload} run printed no result ({})", out.status));
    };
    if let Value::Obj(fields) = result {
        record.extend(fields);
    }
    Ok(Value::Obj(record))
}

/// Every workload `runs` times, run `i` with seed `seed + i`.
fn run_set(a: &SetArgs, trace: bool) -> Result<Value, String> {
    let mut records = Vec::new();
    for w in &spec::WORKLOADS {
        for i in 0..a.runs {
            records.push(run_child(w.name, a.seed + i, a, trace)?);
        }
    }
    Ok(Value::obj(vec![
        ("seed", Value::Str(a.seed.to_string())),
        ("seconds", Value::Num(a.seconds)),
        ("trace", Value::Bool(trace)),
        ("runs", Value::Arr(records)),
    ]))
}

fn write_result(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, pretty(doc) + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    Ok(())
}

fn all_correct(doc: &Value) -> bool {
    runs_of(doc).iter().all(|r| r.get("correct").and_then(Value::as_bool) == Some(true))
}

pub fn run_command(argv: &[String], trace: bool) -> Result<bool, String> {
    let a = parse_set_args(argv, 1)?;
    let doc = run_set(&a, trace)?;
    let name = format!("{}-{}.json", if trace { "layers" } else { "result" }, a.seed);
    write_result(&a.out.clone().unwrap_or_else(|| machine::out_dir().join(name)), &doc)?;
    Ok(all_correct(&doc))
}

// ---------------------------------------------------------------------
// compare and selfcheck
// ---------------------------------------------------------------------

fn runs_of(doc: &Value) -> &[Value] {
    doc.get("runs").and_then(Value::as_arr).unwrap_or(&[])
}

/// One workload's runs in a result file.
#[derive(Default)]
struct WorkloadRuns {
    /// Metric → one value per run.
    values: BTreeMap<String, Vec<f64>>,
    /// The same without the runs marked noisy: what `compare` judges by.
    quiet: BTreeMap<String, Vec<f64>>,
    noisy_runs: usize,
    correct: bool,
    attempted: f64,
    failed: f64,
    /// Seed → fingerprint.
    fingerprints: BTreeMap<String, String>,
}

fn by_workload(doc: &Value) -> BTreeMap<String, WorkloadRuns> {
    let mut out: BTreeMap<String, WorkloadRuns> = BTreeMap::new();
    for run in runs_of(doc) {
        let text = |key: &str| run.get(key).and_then(Value::as_str).unwrap_or_default().to_string();
        let w = out
            .entry(text("workload"))
            .or_insert_with(|| WorkloadRuns { correct: true, ..Default::default() });
        let noisy = run.get("noisy").and_then(Value::as_bool) == Some(true);
        w.noisy_runs += usize::from(noisy);
        w.correct &= run.get("correct").and_then(Value::as_bool) == Some(true);
        w.attempted += run.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        w.failed += run.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        w.fingerprints.insert(text("seed"), text("fingerprint"));
        for (name, entry) in run.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            if let Some(v) = entry.get("value").and_then(Value::as_f64) {
                w.values.entry(name.clone()).or_default().push(v);
                if !noisy {
                    w.quiet.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of `a`'s median `b`'s median is worse (negative: better).
fn worse_by(better: Better, a: &[f64], b: &[f64]) -> f64 {
    let ratio = median(b) / median(a);
    match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    }
}

/// Is `b` worse than `a` by more than `bound`? `a` and `b` hold the runs
/// not marked noisy; with none left on a side nothing is resolved.
/// Neither is it by a spread wider than the bound, unless every run of
/// `b` reads better than every run of `a`.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    if spread(a).max(spread(b)) > bound {
        let b_always_better = match better {
            Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
            Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
        };
        return if b_always_better { Verdict::WithinBound } else { Verdict::Unresolved };
    }
    if worse_by(better, a, b) > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// One row per end-to-end metric × workload, and one per workload for
/// failed operations. Runs marked noisy are left out of the medians.
/// Returns the table and whether any row is `worse`.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let (a, b) = (by_workload(a), by_workload(b));
    let mut table = format!(
        "{:<16} {:<24} {:>12} {:>12} {:>18} {:>8} {:>7}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "b / a (base a)", "spread", "bound"
    );
    let mut any_worse = false;
    let none = WorkloadRuns::default();
    for w in &spec::WORKLOADS {
        let (ra, rb) = (a.get(w.name).unwrap_or(&none), b.get(w.name).unwrap_or(&none));
        for m in &spec::END_TO_END {
            let empty = Vec::new();
            let (va, vb) =
                (ra.quiet.get(m.name).unwrap_or(&empty), rb.quiet.get(m.name).unwrap_or(&empty));
            let v = verdict(m.better, m.bound, va, vb);
            any_worse |= v == Verdict::Worse;
            table.push_str(&format!(
                "{:<16} {:<24} {:>12.5} {:>12.5} {:>18.4} {:>7.2}% {:>6.0}%  {}\n",
                w.name,
                format!("{} [{}]", m.name, m.unit),
                median(va),
                median(vb),
                median(vb) / median(va),
                100.0 * spread(va).max(spread(vb)),
                100.0 * m.bound,
                v.label()
            ));
        }
        let share = |r: &WorkloadRuns| if r.attempted > 0.0 { r.failed / r.attempted } else { 1.0 };
        let worse = !rb.correct || share(rb) > share(ra);
        any_worse |= worse;
        table.push_str(&format!(
            "{:<16} {:<24} {:>12} {:>12} {:>18} {:>8} {:>7}  {}\n",
            w.name,
            "failed / attempted",
            format!("{}/{}", ra.failed, ra.attempted),
            format!("{}/{}", rb.failed, rb.attempted),
            "",
            "",
            "0",
            if worse { "worse" } else { "within-bound" }
        ));
        if ra.noisy_runs + rb.noisy_runs > 0 {
            table.push_str(&format!(
                "{:<16} noisy runs left out: {} of a, {} of b\n",
                w.name, ra.noisy_runs, rb.noisy_runs
            ));
        }
    }
    (table, any_worse)
}

fn read_result(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    sph_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare_command(argv: &[String]) -> Result<bool, String> {
    let [a, b] = argv else { return Err("compare takes two result files".into()) };
    let (table, any_worse) = compare(&read_result(a)?, &read_result(b)?);
    print!("{table}");
    Ok(!any_worse)
}

/// What the acceptance rule asks of one set of runs: every spread
/// except `setup_s`'s within the metric's bound. Returns the offenders.
fn wide_spreads(doc: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for (workload, runs) in by_workload(doc) {
        for m in spec::END_TO_END.iter().filter(|m| m.name != spec::SETUP_S) {
            let s = runs.values.get(m.name).map_or(0.0, |v| spread(v));
            if s > m.bound {
                out.push(format!(
                    "{workload} {}: spread {:.2} % exceeds the bound {:.0} %",
                    m.name,
                    100.0 * s,
                    100.0 * m.bound
                ));
            }
        }
    }
    out
}

/// The run-to-run agreement test: the benchmark twice on the current
/// tree, same seeds, then `compare`. Passes if no row is `worse`, no
/// spread is wider than its bound, nothing failed, and equal seeds
/// ended in equal states.
pub fn selfcheck_command(argv: &[String]) -> Result<bool, String> {
    let a = parse_set_args(argv, 10)?;
    let dir = machine::out_dir();
    let mut sets = Vec::new();
    for label in ["a", "b"] {
        let doc = run_set(&a, false)?;
        write_result(&dir.join(format!("selfcheck-{label}.json")), &doc)?;
        sets.push(doc);
    }
    let (table, any_worse) = compare(&sets[0], &sets[1]);
    print!("{table}");
    let mut problems: Vec<String> = sets.iter().flat_map(wide_spreads).collect();
    if any_worse {
        problems.push("the second set is worse than the first on some row".into());
    }
    if !sets.iter().all(all_correct) {
        problems.push("a run failed its correctness gates".into());
    }
    let (first, second) = (by_workload(&sets[0]), by_workload(&sets[1]));
    for (workload, runs) in &first {
        if second.get(workload).map(|r| &r.fingerprints) != Some(&runs.fingerprints) {
            problems.push(format!("{workload}: equal seeds ended in different states"));
        }
    }
    for p in &problems {
        println!("SELFCHECK FAILED: {p}");
    }
    if problems.is_empty() {
        println!("selfcheck passed: {} runs per workload and set, {} s each", a.runs, a.seconds);
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_table() {
        let lower = Better::Lower;
        let a = [1.00, 1.01, 0.99, 1.00];
        // Within the bound either way.
        assert_eq!(verdict(lower, 0.10, &a, &[1.05, 1.06, 1.04, 1.05]), Verdict::WithinBound);
        assert_eq!(verdict(lower, 0.10, &a, &[0.50, 0.51, 0.49, 0.50]), Verdict::WithinBound);
        // Worse by more than the bound.
        assert_eq!(verdict(lower, 0.10, &a, &[1.20, 1.21, 1.19, 1.20]), Verdict::Worse);
        // For a rate, lower is worse.
        let higher = Better::Higher;
        assert_eq!(verdict(higher, 0.10, &a, &[0.80, 0.81, 0.79, 0.80]), Verdict::Worse);
        assert_eq!(verdict(higher, 0.10, &a, &[1.20, 1.21, 1.19, 1.20]), Verdict::WithinBound);
        // A spread wider than the bound resolves nothing …
        let wide = [1.0, 1.4, 0.7, 1.2];
        assert_eq!(verdict(lower, 0.10, &wide, &[1.3, 1.5, 0.9, 1.6]), Verdict::Unresolved);
        // … unless every run of b is better than every run of a.
        assert_eq!(verdict(lower, 0.10, &wide, &[0.5, 0.6, 0.4, 0.65]), Verdict::WithinBound);
        // Single runs have no spread: the bound alone decides.
        assert_eq!(verdict(lower, 0.10, &[1.0], &[1.2]), Verdict::Worse);
        assert_eq!(verdict(lower, 0.10, &[1.0], &[1.05]), Verdict::WithinBound);
        // No quiet run on a side resolves nothing.
        assert_eq!(verdict(lower, 0.10, &[], &[1.0]), Verdict::Unresolved);
    }

    fn measured(op_p25: f64, failed: u64, noisy: bool) -> Measured {
        Measured {
            correct: failed == 0,
            attempted: 10,
            failed,
            metrics: vec![
                (spec::SETUP_S, 1.0),
                (spec::TIME_TO_SOLUTION_S, 5.0),
                (spec::OP_P25_S, op_p25),
                (spec::PEAK_RSS_MIB, 100.0),
            ],
            samples: vec![],
            noisy,
            fingerprint: 7,
            problems: vec![],
            spans: vec![],
        }
    }

    fn result_file(op_p25: f64, failed: u64, noisy: bool) -> Value {
        let runs = spec::WORKLOADS
            .iter()
            .map(|w| {
                let args = RunArgs {
                    workload: w.name.into(),
                    seed: 1,
                    seconds: 1.0,
                    trace: false,
                    smoke: false,
                };
                let m = measured(op_p25, failed, noisy);
                let Value::Obj(mut record) = sph_json::parse(&info_line(&args, &m)).unwrap() else {
                    panic!()
                };
                let Value::Obj(result) = sph_json::parse(&result_line(&m)).unwrap() else {
                    panic!()
                };
                record.extend(result);
                Value::Obj(record)
            })
            .collect();
        Value::obj(vec![("runs", Value::Arr(runs))])
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let doc = sph_json::parse(&result_line(&measured(0.25, 0, false))).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.0));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn compare_flags_a_slower_or_failing_second_file() {
        let base = result_file(0.25, 0, false);
        let (table, worse) = compare(&base, &result_file(0.26, 0, false));
        assert!(!worse, "{table}");
        assert_eq!(table.lines().count(), 1 + spec::WORKLOADS.len() * (spec::END_TO_END.len() + 1));
        let (table, worse) = compare(&base, &result_file(0.35, 0, false));
        assert!(worse && table.contains("worse"), "{table}");
        let (_, worse) = compare(&base, &result_file(0.25, 1, false));
        assert!(worse, "more failed operations is worse");
        // A noisy run is left out; with no quiet run nothing is resolved.
        let (table, worse) = compare(&base, &result_file(0.35, 0, true));
        assert!(!worse && table.contains("unresolved") && table.contains("1 of b"), "{table}");
        // The pretty form parses back to the same document.
        assert_eq!(sph_json::parse(&pretty(&base)).unwrap(), base);
    }
}
