//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is this table rendered (`sph-benchmark spec`); a unit test keeps
//! the two equal. README.md is the glossary.

use sph_json::Value;

/// How long one run measures, seconds (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 20;
/// Set-up is repeated this often in a measuring run; `setup_s` is the
/// fastest.
pub const SETUP_REPEATS: usize = 3;
/// Seed used when none is given (README.md names the hold-out seed).
pub const DEFAULT_SEED: u64 = 20180911;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SEDOV_HYDRO: &str = "sedov_hydro";
pub const EVRARD_GRAVITY: &str = "evrard_gravity";
pub const PATCH_DIST4: &str = "patch_dist4";
pub const SERVE_MIXED: &str = "serve_mixed";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: SEDOV_HYDRO,
        why: "Sedov blast 32^3, single-rank Simulation, no gravity: the pure hydro hot path \
              (density+h-iteration, IAD/gradients, forces); gravity, exchange, checkpoint and HTTP idle",
    },
    Workload {
        name: EVRARD_GRAVITY,
        why: "Evrard collapse 15.6k particles with Barnes-Hut quadrupole gravity: octree build+walk is \
              ~3/4 of the step, hydro ~1/4; variable h and neighbour counts",
    },
    Workload {
        name: PATCH_DIST4,
        why: "Rotating square patch 40x40x16 on DistributedSimulation nranks=4 (ORB): ghosts, halo \
              negotiation, migration, rebalance, plus sph-ft checkpoint write and restore on disk",
    },
    Workload {
        name: SERVE_MIXED,
        why: "In-process sph-serve, 1 worker, 2 closed-loop clients: cold small-N jobs each followed \
              by 4 cache hits - admission, queue, run_job, render and the result cache under contention",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const TIME_TO_SOLUTION_S: &str = "time_to_solution_s";
pub const OP_P25_S: &str = "op_p25_s";
pub const PEAK_RSS_MIB: &str = "peak_rss_mib";

// The timings are *fast-side* statistics — the fastest set-up, the
// fastest episode, the 25th-percentile operation — because the reference
// box is a shared host: neighbours add time in phases of minutes, never
// take any away, and under them the medians of ten runs of unchanged
// code spread by up to 28 % and moved by up to 38 % between two sets
// (README.md, "Reference numbers"). Medians are per-layer metrics. The
// bounds stay wide for the same reason: a bound the machine cannot
// resolve would reject unchanged code.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: SETUP_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: TIME_TO_SOLUTION_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: OP_P25_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: PEAK_RSS_MIB, unit: "MiB", better: Better::Lower, bound: 0.10 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Every per-layer metric, layer = crate name. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[PerLayer] = &[
    lo("sph-kernels.w_dwdh_ns", "ns"),
    lo("sph-kernels.grad_w_ns", "ns"),
    lo("sph-tree.grid_build_s", "s"),
    lo("sph-tree.csr_build_s", "s"),
    lo("sph-tree.csr_symmetrize_s", "s"),
    lo("sph-tree.neighbors_mean", "count"),
    lo("sph-tree.csr_bytes", "B"),
    lo("sph-tree.octree_build_s", "s"),
    lo("sph-tree.gravity_walk_s", "s"),
    hi("sph-tree.gravity_interactions_per_s", "1/s"),
    lo("sph-tree.gravity_interactions_per_particle", "count"),
    lo("sph-core.density_s", "s"),
    hi("sph-core.density_pairs_per_s", "1/s"),
    lo("sph-core.h_iterations_per_particle", "count"),
    lo("sph-core.gradients_s", "s"),
    lo("sph-core.forces_s", "s"),
    hi("sph-core.forces_pairs_per_s", "1/s"),
    lo("sph-core.pair_interactions_per_step", "count"),
    lo("sph-core.bytes_per_pair_computed", "B"),
    lo("sph-core.dt_s", "s"),
    lo("sph-core.kick_drift_s", "s"),
    lo("sph-exa.step_p50_s", "s"),
    lo("sph-exa.step_tail_s", "s"),
    lo("sph-exa.evaluate_derivatives_s", "s"),
    lo("sph-exa.pass_sum_ratio", "ratio"),
    lo("sph-exa.driver_overhead_share", "ratio"),
    hi("sph-exa.updates_per_s", "1/s"),
    lo("sph-exa.dist_over_single_ratio", "ratio"),
    lo("sph-exa.first_step_s", "s"),
    lo("sph-exa.resilient_overhead_share", "ratio"),
    lo("sph-exa.threads2_step_ratio", "ratio"),
    lo("sph-domain.orb_partition_s", "s"),
    lo("sph-domain.halo_sets_s", "s"),
    lo("sph-domain.ghosts_per_owned", "ratio"),
    lo("sph-domain.density_attempts_per_eval", "ratio"),
    lo("sph-domain.renegotiations", "count"),
    lo("sph-domain.migrations_per_step", "count"),
    lo("sph-domain.rebalances", "count"),
    lo("sph-domain.transient_retries", "count"),
    lo("sph-domain.halo_messages_per_step", "count"),
    lo("sph-domain.halo_bytes_per_step_computed", "B"),
    lo("sph-domain.imbalance", "ratio"),
    lo("sph-domain.exchange_share", "ratio"),
    hi("sph-ft.encode_mb_per_s", "MB/s"),
    hi("sph-ft.decode_mb_per_s", "MB/s"),
    hi("sph-ft.checksum_mb_per_s", "MB/s"),
    lo("sph-ft.checkpoint_write_s", "s"),
    lo("sph-ft.checkpoint_bytes", "B"),
    lo("sph-ft.restore_s", "s"),
    lo("sph-ft.checkpoint_share", "ratio"),
    lo("sph-scenarios.init_s", "s"),
    lo("sph-scenarios.validate_s", "s"),
    lo("sph-serve.queue_wait_p50_s", "s"),
    lo("sph-serve.execute_p50_s", "s"),
    lo("sph-serve.cold_job_p50_s", "s"),
    lo("sph-serve.cold_job_tail_s", "s"),
    lo("sph-serve.run_job_direct_s", "s"),
    lo("sph-serve.submit_p50_s", "s"),
    lo("sph-serve.cached_submit_p50_s", "s"),
    lo("sph-serve.cached_submit_tail_s", "s"),
    lo("sph-serve.status_done_p50_s", "s"),
    lo("sph-serve.healthz_p50_s", "s"),
    hi("sph-serve.cache_hit_ratio", "ratio"),
    lo("sph-serve.executions", "count"),
    lo("sph-serve.cache_evictions", "count"),
    lo("sph-serve.responses_5xx", "count"),
    lo("sph-serve.rejected", "count"),
    lo("sph-serve.polls_per_job", "count"),
    lo("sph-serve.result_doc_bytes", "B"),
    hi("sph-json.parse_mb_per_s", "MB/s"),
    hi("sph-json.render_mb_per_s", "MB/s"),
    lo("machine.spin_calib_s", "s"),
    hi("machine.nproc", "count"),
    lo("trace.overhead_share", "ratio"),
];

/// `BENCHMARK.json`, with exactly the keys the driver's contract names.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(s)).collect());
    Value::obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj(vec![("name", Value::str(w.name)), ("why", Value::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(names.insert(w.name));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(names.insert(m.name));
        }
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = sph_json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json(), "regenerate with `sph-benchmark spec`");
        let keys: Vec<&str> = committed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
    }
}
