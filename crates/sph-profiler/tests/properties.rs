//! Property-based tests of the trace/POP invariants.

use proptest::prelude::*;
use sph_profiler::{pop_metrics, Phase, Trace, WorkerState};

fn useful_times() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01..100.0_f64, 1..32)
}

fn trace_of(times: &[f64]) -> Trace {
    let mut t = Trace::new(times.len());
    for (w, &d) in times.iter().enumerate() {
        t.append(w, Phase::Density, WorkerState::Useful, d);
    }
    t.close_step(Phase::Update);
    t
}

proptest! {
    #[test]
    fn pop_metrics_bounded(times in useful_times()) {
        let m = pop_metrics(&trace_of(&times), None);
        prop_assert!(m.load_balance > 0.0 && m.load_balance <= 1.0 + 1e-12);
        prop_assert!(m.communication_efficiency > 0.0 && m.communication_efficiency <= 1.0 + 1e-12);
        prop_assert!(m.parallel_efficiency <= m.load_balance + 1e-12);
        prop_assert!(m.parallel_efficiency <= m.communication_efficiency + 1e-12);
        prop_assert_eq!(m.computation_scalability, 1.0);
    }

    #[test]
    fn makespan_is_max_worker_time(times in useful_times()) {
        let t = trace_of(&times);
        let max = times.iter().cloned().fold(0.0, f64::max);
        prop_assert!((t.makespan() - max).abs() < 1e-12);
        // After close_step everyone ends together.
        for w in 0..t.n_workers() {
            prop_assert!((t.end_of(w) - max).abs() < 1e-12);
        }
    }

    #[test]
    fn idle_time_complements_useful(times in useful_times()) {
        let t = trace_of(&times);
        let makespan = t.makespan();
        for w in 0..t.n_workers() {
            let useful = t.useful_time(w);
            let idle = t.state_time(w, WorkerState::Idle);
            prop_assert!((useful + idle - makespan).abs() < 1e-9);
        }
    }

    #[test]
    fn perfect_balance_iff_equal_times(base in 0.1..10.0_f64, n in 2usize..16) {
        let m = pop_metrics(&trace_of(&vec![base; n]), None);
        prop_assert!((m.load_balance - 1.0).abs() < 1e-12);
        prop_assert!((m.global_efficiency - 1.0).abs() < 1e-12);
        // Perturbing one worker breaks it.
        let mut times = vec![base; n];
        times[0] *= 2.0;
        let m2 = pop_metrics(&trace_of(&times), None);
        prop_assert!(m2.load_balance < 1.0 - 1e-9);
    }

    #[test]
    fn scaling_reference_divides_cleanly(times in useful_times(), scale in 0.5..2.0_f64) {
        let t = trace_of(&times);
        let total = t.total_useful();
        let m = pop_metrics(&t, Some(total * scale));
        prop_assert!((m.computation_scalability - scale).abs() < 1e-9);
        prop_assert!((m.global_efficiency - m.parallel_efficiency * scale).abs() < 1e-9);
    }
}
