//! Every `sph-bench` subcommand runs end to end at smoke size, and a typo
//! in any of them is an error (exit 2), never a silent default.

use std::process::{Command, Output};

fn command(line: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sph-bench"));
    cmd.args(line.split_whitespace());
    cmd
}

fn sph_bench(line: &str) -> Output {
    command(line).output().expect("sph-bench runs")
}

/// Stdout of a run that must succeed.
fn succeeded(line: &str, out: Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{line}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn assert_runs(line: &str) -> String {
    succeeded(line, sph_bench(line))
}

fn assert_rejected(line: &str, flag: &str) {
    let out = sph_bench(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
    assert!(stderr.contains(flag) && stderr.contains("SUBCOMMAND"), "{line}: {stderr}");
    assert!(out.stdout.is_empty(), "{line} ran anyway");
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn miniapp_checkpoints_and_resumes() {
    let dir = format!("{}/cli-checkpoints", env!("CARGO_TARGET_TMPDIR"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = assert_runs(&format!(
        "miniapp --test square --code sphflow --particles 1500 --steps 2 \
         --checkpoint-every 1 --checkpoint-dir {dir}"
    ));
    assert!(out.contains("checkpoint 'step-000001' written"), "{out}");
    let out = assert_runs(&format!("miniapp --resume {dir}/step-000001.sphcp --steps 1"));
    assert!(out.contains("resumed") && out.contains("(step 1)"), "{out}");
    assert_rejected("miniapp --particles 3k", "--particles");
}

#[test]
fn scaling_runs_and_rejects_an_unknown_code() {
    let out = assert_runs("scaling --code sphflow --particles 1500 --steps 1");
    assert!(out.contains("=== SPH-flow (Square test case) ===") && !out.contains("SPHYNX"));
    assert_rejected("scaling --code sphyx", "--code");
}

#[test]
fn weak_scaling_runs_and_rejects_a_bad_count() {
    let out = assert_runs("weak_scaling --per-core 20 --steps 1");
    assert_eq!(out.matches("(square patch, Piz Daint model)").count(), 3);
    assert_rejected("weak_scaling --per-core x", "--per-core");
}

#[test]
fn pop_metrics_runs_and_rejects_an_unknown_test() {
    let out = assert_runs("pop_metrics --code sphynx --test evrard --particles 1500 --steps 1");
    assert!(out.contains("SPHYNX / Evrard") && !out.contains("/ Square"), "{out}");
    assert_rejected("pop_metrics --test evrad", "--test");
}

#[test]
fn trace_runs_and_rejects_a_bad_rank_count() {
    let out = assert_runs("trace --particles 1500 --steps 1");
    assert!(out.contains("Fig. 4 analogue") && out.contains("POP:"), "{out}");
    assert_rejected("trace --ranks x", "--ranks");
}

#[test]
fn ablations_run_and_reject_an_unknown_flag() {
    // FNV-1a of the report; ablation 4's wall-clock seconds go to stderr.
    let line = "ablations --particles 1500";
    for threads in ["1", "4"] {
        let out = command(line).env("SPH_THREADS", threads).output().expect("sph-bench runs");
        let out = succeeded(line, out);
        assert!(out.contains("ablation 4"), "{out}");
        assert_eq!(fnv1a(out.as_bytes()), 0xd709_834e_3d3a_6404, "SPH_THREADS={threads}:\n{out}");
    }
    assert_rejected("ablations --fixed", "--fixed");
}

#[test]
fn tables_print_the_pinned_bytes_and_reject_table_7() {
    // FNV-1a of the five tables as the separate `tables` binary printed them.
    assert_eq!(fnv1a(assert_runs("tables").as_bytes()), 0xc2dc_e780_5f99_83a5);
    assert_rejected("tables --table 7", "--table");
}

#[test]
fn scenario_suite_lists_and_rejects_a_bad_scale() {
    let out = assert_runs("scenario_suite --list");
    assert!(out.contains("| `sod` |"), "{out}");
    assert_rejected("scenario_suite --scale fast", "--scale");
}

#[test]
fn an_unknown_subcommand_is_rejected() {
    assert_rejected("scalling", "scalling");
    assert_rejected("", "missing subcommand");
}
