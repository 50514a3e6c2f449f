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

/// Stdout of `line`, which must hash (FNV-1a) to `pin` at `SPH_THREADS` 1
/// and 4: the modelled figures are bit-identical for any pool size.
fn assert_pinned(line: &str, pin: u64) -> String {
    let mut stdout = String::new();
    for threads in ["1", "4"] {
        let out = command(line).env("SPH_THREADS", threads).output().expect("sph-bench runs");
        stdout = succeeded(line, out);
        assert_eq!(fnv1a(stdout.as_bytes()), pin, "{line}, SPH_THREADS={threads}:\n{stdout}");
    }
    stdout
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
    let out =
        assert_pinned("scaling --code sphflow --particles 1500 --steps 1", 0xd321_9ff2_613a_10a8);
    assert!(out.contains("=== SPH-flow (Square test case) ===") && !out.contains("SPHYNX"));
    assert_rejected("scaling --code sphyx", "--code");
}

#[test]
fn weak_scaling_runs_and_rejects_a_bad_count() {
    let out = assert_pinned("weak_scaling --per-core 20 --steps 1", 0xa4f0_e544_e784_0418);
    assert_eq!(out.matches("(square patch, Piz Daint model)").count(), 3);
    assert_rejected("weak_scaling --per-core x", "--per-core");
}

#[test]
fn pop_metrics_runs_and_rejects_an_unknown_test() {
    let out = assert_pinned(
        "pop_metrics --code sphynx --test evrard --particles 1500 --steps 1",
        0xbb52_8a90_09d6_c2ac,
    );
    assert!(out.contains("SPHYNX / Evrard") && !out.contains("/ Square"), "{out}");
    assert_rejected("pop_metrics --test evrad", "--test");
}

#[test]
fn trace_runs_and_rejects_a_bad_rank_count() {
    let out = assert_pinned("trace --particles 1500 --steps 1", 0x4729_9af6_f3da_29d0);
    assert!(out.contains("Fig. 4 analogue") && out.contains("POP:"), "{out}");
    assert_rejected("trace --ranks x", "--ranks");
}

#[test]
fn ablations_run_and_reject_an_unknown_flag() {
    // Ablation 4's wall-clock seconds go to stderr, so stdout is pinnable.
    let out = assert_pinned("ablations --particles 1500", 0x592a_9868_9120_8fc8);
    assert!(out.contains("ablation 4"), "{out}");
    assert_rejected("ablations --fixed", "--fixed");
}

#[test]
fn tables_print_the_pinned_bytes_and_reject_table_7() {
    // FNV-1a of the five tables as the separate `tables` binary printed them.
    assert_pinned("tables", 0xc2dc_e780_5f99_83a5);
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
