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
use sph_domain::{
    halo_sets, orb_partition, sfc_partition, slab_partition, Decomposition, HaloExchange, SfcKind,
};
use sph_math::{Aabb, Periodicity, Vec3};

/// Which decomposition algorithm a code uses (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Static equal-width slabs along an axis (SPHYNX "straightforward").
    Slab { axis: usize },
    /// Space-filling curve (ChaNGa).
    Sfc(SfcKind),
    /// Orthogonal recursive bisection (SPH-flow).
    Orb,
}

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
pub struct StepWorkload<'a> {
    /// Particle positions at this step.
    pub positions: &'a [Vec3],
    /// Per-particle SPH interaction counts (macro-step totals).
    pub sph_work: &'a [f64],
    /// Per-particle gravity interaction counts (zero when gravity off).
    pub gravity_work: &'a [f64],
    /// Interaction radius (2·max h) defining the halo width.
    pub interaction_radius: f64,
    /// Boundary metric.
    pub periodicity: Periodicity,
    /// Domain bounds for the slab/SFC partitioners.
    pub bounds: Aabb,
}

/// Modelled timing of one step at one rank count.
#[derive(Debug, Clone)]
pub struct StepTiming {
    /// Ranks (cores) modelled.
    pub ranks: usize,
    /// Per-rank compute seconds (imbalance visible directly).
    pub per_rank_compute: Vec<f64>,
    /// Serial (replicated) section, seconds.
    pub serial: f64,
    /// Max per-rank halo-exchange time, seconds.
    pub comm: f64,
    /// Collective (allreduce) time, seconds.
    pub collective: f64,
    /// Total imported halo particles.
    pub halo_volume: usize,
    /// The decomposition used (kept for tracing / metrics).
    pub decomposition: Decomposition,
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

/// A step measured by the real distributed driver
/// (`sph_exa::DistributedSimulation`): the decomposition it actually used,
/// the halo exchange it actually performed, and the per-particle work it
/// actually counted. Feeding this into [`model_measured_step`] calibrates
/// the machine model with *measured* exchanges — the model no longer has
/// to re-derive a hypothetical decomposition and halo pattern.
pub struct MeasuredStep<'a> {
    /// The driver's ownership assignment at this step.
    pub decomposition: &'a Decomposition,
    /// The halo exchange the driver performed (verified coverage — the
    /// renegotiated pattern, not the first guess).
    pub halos: &'a HaloExchange,
    /// Per-particle SPH + gravity work units from the driver's
    /// `per_particle_work()`.
    pub work: &'a [f64],
}

/// Per-rank (work, particle-count) totals of a measured step — the
/// attribution shared by [`model_measured_step`] and [`calibrate_machine`]
/// so the model and its calibration can never silently disagree.
fn per_rank_work(measured: &MeasuredStep<'_>) -> (Vec<f64>, Vec<f64>) {
    let ranks = measured.decomposition.nparts;
    let n = measured.decomposition.assignment.len();
    assert_eq!(measured.work.len(), n);
    let mut work_per_rank = vec![0.0f64; ranks];
    let mut count_per_rank = vec![0.0f64; ranks];
    for i in 0..n {
        let r = measured.decomposition.assignment[i] as usize;
        work_per_rank[r] += measured.work[i];
        count_per_rank[r] += 1.0;
    }
    (work_per_rank, count_per_rank)
}

/// Model one step from **measured** distributed-driver data: same cost
/// arithmetic as [`model_step`], but the decomposition and halo volumes
/// are the ones a real multi-rank run produced instead of estimates.
pub fn model_measured_step(measured: &MeasuredStep<'_>, config: &StepModelConfig) -> StepTiming {
    let decomposition = measured.decomposition.clone();
    let ranks = decomposition.nparts;
    let n = decomposition.assignment.len();
    assert_eq!(measured.halos.nparts, ranks);

    // Per-rank measured work → modelled compute seconds. The driver folds
    // gravity interactions into the same work counter, so they are charged
    // at the SPH rate; the calibration helper below absorbs the difference.
    let (work_per_rank, count_per_rank) = per_rank_work(measured);
    let per_rank_compute: Vec<f64> = (0..ranks)
        .map(|r| {
            let flops = config.cost.rank_flops(work_per_rank[r], 0.0, count_per_rank[r]);
            config.machine.compute_time(flops)
        })
        .collect();

    let serial = config.machine.compute_time(config.cost.serial_flops(n as f64));

    // Halo exchange from the *measured* pattern.
    let comm = (0..ranks as u32)
        .map(|r| {
            let imported = measured.halos.imports[r as usize].len() as f64;
            if imported == 0.0 {
                return 0.0;
            }
            let partners = (0..ranks as u32)
                .filter(|&s| s != r && measured.halos.volume_between(s, r) > 0)
                .count() as f64;
            partners * config.machine.network.latency
                + config.machine.network.message_time(config.cost.halo_bytes(imported))
        })
        .fold(0.0, f64::max);

    let collective = config.machine.network.allreduce_time(8.0, ranks)
        + config.machine.compute_time(config.cost.runtime_flops_per_rank)
            * (ranks as f64).log2().max(1.0);

    StepTiming {
        ranks,
        per_rank_compute,
        serial,
        comm,
        collective,
        halo_volume: measured.halos.total_volume(),
        decomposition,
    }
}

/// Calibrate a machine's sustained per-core GFLOP/s from measured per-rank
/// wall-time seconds (e.g. each rank's `PhaseTimers::total()` for one
/// step): the modelled per-rank FLOPs divided by the measured seconds,
/// averaged over the ranks that did work. This replaces the hand-tuned
/// `core_gflops` constant with one observed on the host actually running
/// the mini-app.
pub fn calibrate_machine(
    machine: MachineModel,
    cost: &CostModel,
    measured: &MeasuredStep<'_>,
    per_rank_seconds: &[f64],
) -> MachineModel {
    let ranks = measured.decomposition.nparts;
    assert_eq!(per_rank_seconds.len(), ranks);
    let (work_per_rank, count_per_rank) = per_rank_work(measured);
    let mut sum = 0.0;
    let mut samples = 0usize;
    for r in 0..ranks {
        if per_rank_seconds[r] <= 0.0 || work_per_rank[r] <= 0.0 {
            continue;
        }
        let flops = cost.rank_flops(work_per_rank[r], 0.0, count_per_rank[r]);
        sum += flops / per_rank_seconds[r] / 1e9;
        samples += 1;
    }
    assert!(samples > 0, "calibration needs at least one rank with measured time and work");
    let mut out = machine;
    out.core_gflops = sum / samples as f64;
    out
}

/// Model one step of `workload` on `ranks` cores.
///
/// `prev_work` supplies the measured per-particle costs the *dynamic*
/// balancer would have from the previous step; `None` forces a static
/// (count-based) decomposition even under `LoadBalancing::Dynamic`
/// (the first step of a run).
pub fn model_step(
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
    let decomposition = match config.partitioner {
        Partitioner::Slab { axis } => {
            slab_partition(workload.positions, &workload.bounds, ranks, axis)
        }
        Partitioner::Sfc(kind) => {
            sfc_partition(workload.positions, &workload.bounds, ranks, kind, &weights)
        }
        Partitioner::Orb => orb_partition(workload.positions, ranks, &weights),
    };

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

    StepTiming {
        ranks,
        per_rank_compute,
        serial,
        comm,
        collective,
        halo_volume: halos.total_volume(),
        decomposition,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::piz_daint;
    use sph_math::SplitMix64;

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
            bounds: Aabb::unit(),
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
        assert_eq!(a.decomposition.assignment, b.decomposition.assignment);
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
    fn measured_step_uses_the_driver_exchange_verbatim() {
        // Drive a real 4-rank distributed simulation for a step and feed
        // its measured decomposition + halo pattern into the model: the
        // modelled halo volume must be *exactly* the measured one, and the
        // timing structure must be complete.
        use sph_core::config::SphConfig;
        use sph_exa::{DistributedBuilder, DistributedConfig};
        use sph_math::{Aabb, Periodicity};

        let mut rng = SplitMix64::new(17);
        let n = 600;
        let x: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect();
        let sys = sph_core::particles::ParticleSystem::new(
            x,
            vec![Vec3::ZERO; n],
            vec![1.0 / n as f64; n],
            vec![0.5; n],
            0.1,
            Periodicity::open(Aabb::unit()),
        );
        let sph = SphConfig { target_neighbors: 40, max_h_iterations: 5, ..Default::default() };
        let mut sim = DistributedBuilder::new(sys)
            .config(sph)
            .distributed(DistributedConfig { nranks: 4, ..Default::default() })
            .build()
            .unwrap();
        // Warm up (the first step pays a double derivative evaluation),
        // then time exactly one macro-step — calibrate_machine's contract.
        sim.step().unwrap();
        for t in sim.timers() {
            t.reset();
        }
        sim.step().unwrap();

        let halos = sim.last_exchange().expect("4 ranks exchange halos").clone();
        let measured = MeasuredStep {
            decomposition: sim.decomposition(),
            halos: &halos,
            work: sim.per_particle_work(),
        };
        let cfg = config(Partitioner::Orb, LoadBalancing::Static);
        let t = model_measured_step(&measured, &cfg);
        assert_eq!(t.ranks, 4);
        assert_eq!(t.halo_volume, halos.total_volume());
        assert!(t.comm > 0.0, "measured ghosts must charge communication time");
        assert!(t.compute_max() > 0.0);
        assert!(t.load_balance() > 0.0 && t.load_balance() <= 1.0);

        // Calibration: per-rank wall-time seconds from the driver's
        // timers produce a finite, positive sustained-GFLOP/s estimate.
        let per_rank_seconds: Vec<f64> = sim.timers().iter().map(|t| t.total()).collect();
        let calibrated = calibrate_machine(piz_daint(), &cfg.cost, &measured, &per_rank_seconds);
        assert!(calibrated.core_gflops.is_finite() && calibrated.core_gflops > 0.0);
        let t2 = model_measured_step(&measured, &StepModelConfig { machine: calibrated, ..cfg });
        assert!(t2.compute_max() > 0.0);
    }

    #[test]
    fn calibration_is_the_mean_per_rank_flops_over_seconds() {
        // Synthetic, fully determined inputs: rank 0 does 100 work units
        // in 1 s, rank 1 does 400 in 2 s. The calibrated rate must be the
        // mean of the two per-rank FLOPs/second figures — not the default
        // constant, and not a whole-run average.
        let decomposition = Decomposition::new(vec![0, 1, 1], 2);
        let halos = HaloExchange {
            imports: vec![vec![1], vec![0]],
            pair_volume: vec![0, 1, 1, 0],
            nparts: 2,
        };
        let work = [100.0, 150.0, 250.0];
        let measured = MeasuredStep { decomposition: &decomposition, halos: &halos, work: &work };
        let cost = CostModel::default();
        let machine = piz_daint();
        let calibrated = calibrate_machine(machine, &cost, &measured, &[1.0, 2.0]);
        let f0 = cost.rank_flops(100.0, 0.0, 1.0);
        let f1 = cost.rank_flops(400.0, 0.0, 2.0);
        let expected = (f0 / 1.0 + f1 / 2.0) / 2.0 / 1e9;
        assert!(
            (calibrated.core_gflops - expected).abs() < 1e-12 * expected,
            "calibrated {} vs expected {expected}",
            calibrated.core_gflops
        );
        assert_ne!(calibrated.core_gflops, machine.core_gflops);
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
