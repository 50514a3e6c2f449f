//! Integration: the Fig. 4 trace generator and the Tables 1–5 renderers
//! produce the structures the paper describes.

use sph_bench::{fig4_step, ExperimentScale};
use sph_cluster::tracegen::{step_trace, PhaseProfile};
use sph_cluster::{LoadBalancing, StepTiming};
use sph_parents::features::{table1, table2, table3, table4};
use sph_parents::render_table;
use sph_profiler::{pop_metrics, render_gantt, Phase, WorkerState};

/// The Fig. 4 step of a 2 500-particle Evrard run at `ranks`; dynamic
/// balancing is the post-analysis ("fixed") SPHYNX.
fn modelled_timing(ranks: usize, balancing: LoadBalancing) -> StepTiming {
    let scale = ExperimentScale { particles: 2500, steps: 1, ..Default::default() };
    fig4_step(scale, ranks, balancing == LoadBalancing::Dynamic).expect("stable step").1
}

#[test]
fn figure4_trace_shows_the_serial_tree_pathology() {
    let timing = modelled_timing(8, LoadBalancing::Static);
    let trace = step_trace(&timing, &PhaseProfile::sphynx_evrard());
    // Worker 0 carries tree-build useful time; the rest of its node idles
    // during phase A.
    let a_useful: Vec<f64> = (0..8)
        .map(|w| {
            trace
                .spans(w)
                .iter()
                .filter(|s| s.phase == Phase::TreeBuild && s.state == WorkerState::Useful)
                .map(|s| s.duration())
                .sum()
        })
        .collect();
    assert!(a_useful[0] > 0.0);
    assert!(a_useful[1..].iter().all(|&t| t == 0.0), "{a_useful:?}");
    // Idle regions exist (the "black" areas of Fig. 4).
    assert!((1..8).any(|w| trace.state_time(w, WorkerState::Idle) > 0.0));
    // The rendered Gantt mentions the phase letters and the legend.
    let g = render_gantt(&trace, 80);
    assert!(g.contains('A'));
    assert!(g.contains("legend"));
}

#[test]
fn fixing_the_pathologies_improves_pop_lb() {
    // §5.2: the analysis led to parallelising the tree and rebalancing;
    // the modelled POP load balance must improve accordingly.
    let sick =
        step_trace(&modelled_timing(8, LoadBalancing::Static), &PhaseProfile::sphynx_evrard());
    let fixed_timing = modelled_timing(8, LoadBalancing::Dynamic);
    let fixed = step_trace(
        &fixed_timing,
        &PhaseProfile { serial_tree: false, ..PhaseProfile::sphynx_evrard() },
    );
    let lb_sick = pop_metrics(&sick, None).load_balance;
    let lb_fixed = pop_metrics(&fixed, None).load_balance;
    assert!(lb_fixed > lb_sick + 0.1, "fixes should improve LB: {lb_sick:.3} → {lb_fixed:.3}");
}

#[test]
fn tables_render_with_paper_content() {
    let t1 = render_table(&table1());
    assert!(t1.contains("SPHYNX") && t1.contains("IAD") && t1.contains("Multipoles (4-pole)"));
    assert!(t1.contains("ChaNGa") && t1.contains("Multipoles (16-pole)"));
    assert!(t1.contains("SPH-flow"));
    let t2 = render_table(&table2());
    assert!(t2.contains("Sinc, M4 spline, Wendland"));
    let t3 = render_table(&table3());
    assert!(t3.contains("Space Filling Curve") && t3.contains("Orthogonal Recursive Bisection"));
    assert!(t3.contains("110,000")); // ChaNGa LOC
    let t4 = render_table(&table4());
    assert!(t4.contains("Optimal interval, Multilevel"));
    assert!(t4.contains("Silent data corruption detectors"));
}
