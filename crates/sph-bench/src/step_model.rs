//! Model one time-step at a given rank count.
//!
//! Inputs are **measured**, not assumed: the positions and per-particle
//! work come from the real SPH evaluation in `sph-exa`; the decomposition
//! and halo volumes are computed by the real `sph-domain` algorithms. The
//! model then charges:
//!
//! ```text
//! T_step = max_r T_compute(r)            (imbalance appears here)
//!        + T_serial                      (Amdahl term, replicated work)
//!        + max_r T_halo(r)               (α–β per neighbour message)
//!        + T_allreduce(dt, P)            (the step-5 collective)
//! ```

use crate::cost::CostModel;
use crate::machine::MachineModel;
use sph_domain::{halo_sets, Partitioner};
use sph_math::{Periodicity, Vec3};

/// Load-balancing policy (Table 3 "Load Balancing").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalancing {
    /// Decompose by particle count only (SPHYNX: "None (static)").
    Static,
    /// Re-decompose each step with measured per-particle costs as weights
    /// (ChaNGa "Dynamic"; SPH-flow "Local-Inner-Outer" is approximated by
    /// the same mechanism).
    Dynamic,
}

/// One step's workload, measured from the real simulation.
pub(crate) struct StepWorkload<'a> {
    /// Particle positions at this step.
    pub(crate) positions: &'a [Vec3],
    /// Per-particle SPH interaction counts (macro-step totals).
    pub(crate) sph_work: &'a [f64],
    /// Per-particle gravity interaction counts (zero when gravity off).
    pub(crate) gravity_work: &'a [f64],
    /// Interaction radius (2·max h) defining the halo width.
    pub(crate) interaction_radius: f64,
    /// Boundary metric.
    pub(crate) periodicity: Periodicity,
}

/// Modelled timing of one step at one rank count.
#[derive(Debug, Clone)]
pub struct StepTiming {
    /// Per-rank compute seconds (imbalance visible directly).
    pub(crate) per_rank_compute: Vec<f64>,
    /// Serial (replicated) section, seconds.
    pub serial: f64,
    /// Max per-rank halo-exchange time, seconds.
    pub comm: f64,
    /// Collective (allreduce) time, seconds.
    pub(crate) collective: f64,
    /// Total imported halo particles.
    pub halo_volume: usize,
}

impl StepTiming {
    pub fn compute_max(&self) -> f64 {
        self.per_rank_compute.iter().cloned().fold(0.0, f64::max)
    }

    pub fn compute_mean(&self) -> f64 {
        self.per_rank_compute.iter().sum::<f64>() / self.per_rank_compute.len() as f64
    }

    /// Load balance efficiency of the compute part (mean/max — the POP LB).
    pub fn load_balance(&self) -> f64 {
        let max = self.compute_max();
        if max > 0.0 {
            self.compute_mean() / max
        } else {
            1.0
        }
    }

    /// Total modelled step time.
    pub fn total(&self) -> f64 {
        self.compute_max() + self.serial + self.comm + self.collective
    }
}

/// Model configuration: which code on which machine.
#[derive(Debug, Clone, Copy)]
pub struct StepModelConfig {
    pub partitioner: Partitioner,
    pub balancing: LoadBalancing,
    pub machine: MachineModel,
    pub cost: CostModel,
}

/// Model one step of `workload` on `ranks` cores.
///
/// `prev_work` supplies the measured per-particle costs the *dynamic*
/// balancer would have from the previous step; `None` forces a static
/// (count-based) decomposition even under `LoadBalancing::Dynamic`
/// (the first step of a run).
pub(crate) fn model_step(
    workload: &StepWorkload<'_>,
    ranks: usize,
    config: &StepModelConfig,
    prev_work: Option<&[f64]>,
) -> StepTiming {
    assert!(ranks > 0);
    let n = workload.positions.len();
    assert_eq!(workload.sph_work.len(), n);
    assert_eq!(workload.gravity_work.len(), n);

    // 1. Decompose — with measured weights when dynamically balanced.
    let weights: Vec<f64> = match (config.balancing, prev_work) {
        (LoadBalancing::Dynamic, Some(w)) => {
            assert_eq!(w.len(), n);
            w.to_vec()
        }
        _ => Vec::new(),
    };
    let decomposition = config.partitioner.partition(workload.positions, ranks, &weights);

    // 2. Per-rank counted work → modelled compute seconds.
    let mut sph_per_rank = vec![0.0f64; ranks];
    let mut grav_per_rank = vec![0.0f64; ranks];
    let mut count_per_rank = vec![0.0f64; ranks];
    for i in 0..n {
        let r = decomposition.assignment[i] as usize;
        sph_per_rank[r] += workload.sph_work[i];
        grav_per_rank[r] += workload.gravity_work[i];
        count_per_rank[r] += 1.0;
    }
    let per_rank_compute: Vec<f64> = (0..ranks)
        .map(|r| {
            let flops =
                config.cost.rank_flops(sph_per_rank[r], grav_per_rank[r], count_per_rank[r]);
            config.machine.compute_time(flops)
        })
        .collect();

    // 3. Serial (replicated) section.
    let serial = config.machine.compute_time(config.cost.serial_flops(n as f64));

    // 4. Halo exchange: per rank, one message per partner plus payload.
    let halos = halo_sets(
        workload.positions,
        &decomposition,
        workload.interaction_radius,
        &workload.periodicity,
    );
    let comm = (0..ranks as u32)
        .map(|r| {
            let imported = halos.imports[r as usize].len() as f64;
            if imported == 0.0 {
                return 0.0;
            }
            let partners = (0..ranks as u32)
                .filter(|&s| s != r && halos.volume_between(s, r) > 0)
                .count() as f64;
            partners * config.machine.network.latency
                + config.machine.network.message_time(config.cost.halo_bytes(imported))
        })
        .fold(0.0, f64::max);

    // 5. Collectives: the new-Δt allreduce plus per-rank runtime overhead.
    let collective = config.machine.network.allreduce_time(8.0, ranks)
        + config.machine.compute_time(config.cost.runtime_flops_per_rank)
            * (ranks as f64).log2().max(1.0);

    StepTiming { per_rank_compute, serial, comm, collective, halo_volume: halos.total_volume() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::piz_daint;
    use sph_domain::SfcKind;
    use sph_math::{Aabb, SplitMix64};

    fn uniform_workload(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let pos: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect();
        let sph = vec![100.0; n];
        let grav = vec![0.0; n];
        (pos, sph, grav)
    }

    fn workload<'a>(pos: &'a [Vec3], sph: &'a [f64], grav: &'a [f64]) -> StepWorkload<'a> {
        StepWorkload {
            positions: pos,
            sph_work: sph,
            gravity_work: grav,
            interaction_radius: 0.08,
            periodicity: Periodicity::open(Aabb::unit()),
        }
    }

    fn config(partitioner: Partitioner, balancing: LoadBalancing) -> StepModelConfig {
        StepModelConfig { partitioner, balancing, machine: piz_daint(), cost: CostModel::default() }
    }

    #[test]
    fn compute_time_shrinks_with_ranks() {
        let (pos, sph, grav) = uniform_workload(4000, 1);
        let w = workload(&pos, &sph, &grav);
        let cfg = config(Partitioner::Orb, LoadBalancing::Static);
        let t2 = model_step(&w, 2, &cfg, None);
        let t16 = model_step(&w, 16, &cfg, None);
        assert!(t16.compute_max() < t2.compute_max() / 4.0);
        // But the serial term is rank-independent.
        assert!((t16.serial - t2.serial).abs() < 1e-15);
    }

    #[test]
    fn total_time_eventually_stalls() {
        // Strong-scaling saturation: beyond some rank count the serial +
        // comm terms dominate and the speedup collapses — the §5.2 stall.
        let (pos, sph, grav) = uniform_workload(4000, 2);
        let w = workload(&pos, &sph, &grav);
        let cfg = config(Partitioner::Orb, LoadBalancing::Static);
        let t1 = model_step(&w, 1, &cfg, None).total();
        let t64 = model_step(&w, 64, &cfg, None).total();
        let t512 = model_step(&w, 512, &cfg, None).total();
        let speedup_64 = t1 / t64;
        let speedup_512 = t1 / t512;
        assert!(speedup_64 > 10.0, "64-rank speedup {speedup_64}");
        // Efficiency at 512 must be clearly below at 64 (stall begins).
        assert!(
            speedup_512 / 512.0 < speedup_64 / 64.0,
            "no saturation: {speedup_64}@64 vs {speedup_512}@512"
        );
    }

    #[test]
    fn skewed_work_imbalances_static_but_not_dynamic() {
        let (pos, mut sph, grav) = uniform_workload(4000, 3);
        // Left half of the box does 20× the work (an Evrard-like core).
        for (i, p) in pos.iter().enumerate() {
            if p.x < 0.3 {
                sph[i] = 2000.0;
            }
        }
        let w = workload(&pos, &sph, &grav);
        let static_cfg = config(Partitioner::Sfc(SfcKind::Hilbert), LoadBalancing::Static);
        let t_static = model_step(&w, 8, &static_cfg, Some(&sph));
        let dyn_cfg = config(Partitioner::Sfc(SfcKind::Hilbert), LoadBalancing::Dynamic);
        let t_dyn = model_step(&w, 8, &dyn_cfg, Some(&sph));
        assert!(
            t_static.load_balance() < 0.75,
            "static LB {} should be poor",
            t_static.load_balance()
        );
        assert!(t_dyn.load_balance() > 0.9, "dynamic LB {} should be good", t_dyn.load_balance());
        assert!(t_dyn.total() < t_static.total());
    }

    #[test]
    fn dynamic_without_history_falls_back_to_static() {
        let (pos, sph, grav) = uniform_workload(1000, 4);
        let w = workload(&pos, &sph, &grav);
        let dyn_cfg = config(Partitioner::Orb, LoadBalancing::Dynamic);
        let a = model_step(&w, 4, &dyn_cfg, None);
        let static_cfg = config(Partitioner::Orb, LoadBalancing::Static);
        let b = model_step(&w, 4, &static_cfg, None);
        assert_eq!(a.per_rank_compute, b.per_rank_compute);
        assert_eq!(a.halo_volume, b.halo_volume);
    }

    #[test]
    fn halo_volume_grows_with_ranks() {
        let (pos, sph, grav) = uniform_workload(3000, 5);
        let w = workload(&pos, &sph, &grav);
        let cfg = config(Partitioner::Orb, LoadBalancing::Static);
        let t4 = model_step(&w, 4, &cfg, None);
        let t32 = model_step(&w, 32, &cfg, None);
        assert!(t32.halo_volume > t4.halo_volume);
        assert!(t32.comm > 0.0);
    }

    #[test]
    fn single_rank_has_no_comm() {
        let (pos, sph, grav) = uniform_workload(500, 6);
        let w = workload(&pos, &sph, &grav);
        let cfg = config(Partitioner::Slab { axis: 0 }, LoadBalancing::Static);
        let t = model_step(&w, 1, &cfg, None);
        assert_eq!(t.halo_volume, 0);
        assert!(t.collective.is_finite() && t.collective < 1e-3);
        assert!(t.comm < 1e-9);
        assert!((t.load_balance() - 1.0).abs() < 1e-12);
    }
}

// Property-based tests of the performance model: the modelled times must
// obey the structural laws the scaling analysis relies on.
#[cfg(test)]
mod properties {
    use super::*;
    use crate::machine::piz_daint;
    use proptest::prelude::*;
    use sph_math::{Aabb, SplitMix64};

    fn workload_inputs(n: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<Vec3>, Vec<f64>)> {
        (n, any::<u64>()).prop_map(|(count, seed)| {
            let mut rng = SplitMix64::new(seed);
            let pos: Vec<Vec3> = (0..count)
                .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
                .collect();
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
    }
}
