//! Property-based tests of the performance model: the modelled times must
//! obey the structural laws the scaling analysis relies on.

use proptest::prelude::*;
use sph_cluster::{model_step, piz_daint, CostModel, LoadBalancing, StepModelConfig, StepWorkload};
use sph_domain::Partitioner;
use sph_math::{Aabb, Periodicity, SplitMix64, Vec3};

fn workload_inputs(n: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<Vec3>, Vec<f64>)> {
    (n, any::<u64>()).prop_map(|(count, seed)| {
        let mut rng = SplitMix64::new(seed);
        let pos: Vec<Vec3> =
            (0..count).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect();
        let work: Vec<f64> = (0..count).map(|_| rng.uniform(10.0, 500.0)).collect();
        (pos, work)
    })
}

fn config(partitioner: Partitioner) -> StepModelConfig {
    StepModelConfig {
        partitioner,
        balancing: LoadBalancing::Static,
        machine: piz_daint(),
        cost: CostModel::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn modelled_times_are_finite_and_positive((pos, work) in workload_inputs(50..300), ranks in 1usize..33) {
        let zeros = vec![0.0; pos.len()];
        let w = StepWorkload {
            positions: &pos,
            sph_work: &work,
            gravity_work: &zeros,
            interaction_radius: 0.1,
            periodicity: Periodicity::open(Aabb::unit()),
        };
        let t = model_step(&w, ranks, &config(Partitioner::Orb), None);
        prop_assert!(t.total().is_finite() && t.total() > 0.0);
        prop_assert_eq!(t.per_rank_compute.len(), ranks);
        prop_assert!(t.load_balance() > 0.0 && t.load_balance() <= 1.0 + 1e-12);
        prop_assert!(t.compute_mean() <= t.compute_max() + 1e-15);
    }

    #[test]
    fn total_compute_is_conserved_across_rank_counts((pos, work) in workload_inputs(100..300)) {
        // The sum of per-rank compute times equals the total work time
        // regardless of P (only its distribution changes) — modulo the
        // per-rank tree n·log n term, which grows sublinearly as ranks
        // shrink; allow its bounded slack.
        let zeros = vec![0.0; pos.len()];
        let w = StepWorkload {
            positions: &pos,
            sph_work: &work,
            gravity_work: &zeros,
            interaction_radius: 0.1,
            periodicity: Periodicity::open(Aabb::unit()),
        };
        let cfg = config(Partitioner::Sfc(sph_domain::SfcKind::Hilbert));
        let t2 = model_step(&w, 2, &cfg, None);
        let t8 = model_step(&w, 8, &cfg, None);
        let sum2: f64 = t2.per_rank_compute.iter().sum();
        let sum8: f64 = t8.per_rank_compute.iter().sum();
        // Within 25% (the tree-term slack for these sizes).
        prop_assert!((sum2 - sum8).abs() < 0.25 * sum2.max(sum8), "{sum2} vs {sum8}");
    }

    #[test]
    fn dynamic_balancing_never_hurts_much((pos, mut work) in workload_inputs(150..400)) {
        // Make the load skewed so balancing has something to do.
        for (i, p) in pos.iter().enumerate() {
            if p.x < 0.3 {
                work[i] *= 10.0;
            }
        }
        let zeros = vec![0.0; pos.len()];
        let w = StepWorkload {
            positions: &pos,
            sph_work: &work,
            gravity_work: &zeros,
            interaction_radius: 0.1,
            periodicity: Periodicity::open(Aabb::unit()),
        };
        let mut cfg = config(Partitioner::Sfc(sph_domain::SfcKind::Hilbert));
        let t_static = model_step(&w, 8, &cfg, Some(&work));
        cfg.balancing = LoadBalancing::Dynamic;
        let t_dyn = model_step(&w, 8, &cfg, Some(&work));
        prop_assert!(
            t_dyn.compute_max() <= t_static.compute_max() * 1.1,
            "dynamic {} vs static {}",
            t_dyn.compute_max(),
            t_static.compute_max()
        );
    }

    #[test]
    fn serial_term_is_rank_invariant((pos, work) in workload_inputs(50..150), r1 in 1usize..8, r2 in 8usize..64) {
        let zeros = vec![0.0; pos.len()];
        let w = StepWorkload {
            positions: &pos,
            sph_work: &work,
            gravity_work: &zeros,
            interaction_radius: 0.1,
            periodicity: Periodicity::open(Aabb::unit()),
        };
        let cfg = config(Partitioner::Orb);
        let a = model_step(&w, r1, &cfg, None);
        let b = model_step(&w, r2, &cfg, None);
        prop_assert!((a.serial - b.serial).abs() < 1e-15);
    }

    #[test]
    fn network_times_monotone_in_bytes(bytes in 0.0..1e9_f64, extra in 1.0..1e6_f64) {
        let net = piz_daint().network;
        prop_assert!(net.message_time(bytes + extra) > net.message_time(bytes));
        prop_assert!(net.allreduce_time(8.0, 64) > net.allreduce_time(8.0, 2));
    }
}
