//! The strong-scaling experiment driver (§5.2 "Analysis of strong
//! scalability").
//!
//! "This work employs a set of strong-scaling experiments to assess the
//! performance at scale with fixed number of particles for each test."
//! The physics evolution is independent of the rank count, so one
//! simulation is evolved once and each step is modelled at every core
//! count of the sweep — exactly a fixed-problem (strong-scaling) study.

use crate::step_model::{model_step, StepModelConfig, StepTiming, StepWorkload};
use sph_core::config::TimeStepping;
use sph_exa::{DistributedError, Simulation, StepReport};
use sph_math::OnlineStats;

/// The per-particle work of the step a simulation just took, split into
/// the `hydro` and `gravity` shares [`model_step`] charges differently.
pub struct StepWork {
    /// Macro-step work per particle (one on rung r was evaluated 2^r
    /// times): what a dynamic balancer measures for the next step.
    pub total: Vec<f64>,
    pub hydro: Vec<f64>,
    pub gravity: Vec<f64>,
}

impl StepWork {
    /// Measure the step `report` describes, which `sim` just took. Gravity
    /// is split out of `per_particle_work` by this step's global ratio.
    pub fn measure(sim: &Simulation, report: &StepReport) -> Self {
        let work = sim.per_particle_work();
        let total: Vec<f64> = match sim.config.time_stepping {
            TimeStepping::Individual { .. } => {
                work.iter().zip(&sim.sys.rung).map(|(&w, &r)| w * (1u64 << r) as f64).collect()
            }
            _ => work.to_vec(),
        };
        let total_gravity = report.stats.gravity.total_interactions() as f64;
        let total_all: f64 = total.iter().sum();
        let gravity_ratio =
            if total_all > 0.0 { (total_gravity / total_all).min(1.0) } else { 0.0 };
        let gravity: Vec<f64> = total.iter().map(|w| w * gravity_ratio).collect();
        let hydro = total.iter().zip(&gravity).map(|(&w, &g)| (w - g).max(0.0)).collect();
        StepWork { total, hydro, gravity }
    }

    /// The step-model input for this work at `sim`'s current state.
    pub fn workload<'a>(&'a self, sim: &'a Simulation) -> StepWorkload<'a> {
        StepWorkload {
            positions: &sim.sys.x,
            sph_work: &self.hydro,
            gravity_work: &self.gravity,
            interaction_radius: 2.0 * sim.sys.max_h(),
            periodicity: sim.sys.periodicity,
            bounds: sim.sys.bounds(),
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Core counts to model (paper: 12, 24, 48, …, 1536).
    pub core_counts: Vec<usize>,
    /// Time-steps to run and average over (paper: 20).
    pub steps: usize,
}

impl ScalingConfig {
    /// The paper's Piz Daint sweep: 12 × 2^k up to `max`.
    pub fn paper_sweep(max: usize) -> Self {
        let mut core_counts = Vec::new();
        let mut c = 12;
        while c <= max {
            core_counts.push(c);
            c *= 2;
        }
        ScalingConfig { core_counts, steps: 20 }
    }
}

/// One row of a strong-scaling figure: core count → time per step.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    pub cores: usize,
    /// Mean modelled time per time-step (the y-axis of Figs. 1–3).
    pub mean_step_time: f64,
    pub min_step_time: f64,
    pub max_step_time: f64,
    /// Mean POP load balance of the compute phase.
    pub mean_load_balance: f64,
    /// Mean fraction of the step spent communicating.
    pub mean_comm_fraction: f64,
    /// Particles per core (the paper's stall indicator: ~10⁴).
    pub particles_per_core: f64,
}

/// Evolve `sim` for `config.steps` macro steps and model every step at
/// every core count. Returns one [`ScalingRow`] per core count plus the
/// per-step timings (outer index = core count) for deeper analysis.
/// Fails if the underlying physics step fails (e.g. time step collapse).
pub fn scaling_experiment(
    sim: &mut Simulation,
    model: &StepModelConfig,
    config: &ScalingConfig,
) -> Result<(Vec<ScalingRow>, Vec<Vec<StepTiming>>), DistributedError> {
    assert!(!config.core_counts.is_empty() && config.steps > 0);
    let n = sim.sys.len();
    let mut stats: Vec<OnlineStats> = vec![OnlineStats::new(); config.core_counts.len()];
    let mut lb: Vec<OnlineStats> = vec![OnlineStats::new(); config.core_counts.len()];
    let mut commfrac: Vec<OnlineStats> = vec![OnlineStats::new(); config.core_counts.len()];
    let mut per_step: Vec<Vec<StepTiming>> = vec![Vec::new(); config.core_counts.len()];
    // Work measured on the previous step — what a dynamic balancer has.
    let mut prev_work: Option<Vec<f64>> = None;

    for _ in 0..config.steps {
        let report = sim.step()?;
        let work = StepWork::measure(sim, &report);
        let workload = work.workload(sim);
        for (k, &cores) in config.core_counts.iter().enumerate() {
            let timing = model_step(&workload, cores, model, prev_work.as_deref());
            stats[k].push(timing.total());
            lb[k].push(timing.load_balance());
            commfrac[k].push((timing.comm + timing.collective) / timing.total().max(1e-300));
            per_step[k].push(timing);
        }
        prev_work = Some(work.total);
    }

    let rows = config
        .core_counts
        .iter()
        .enumerate()
        .map(|(k, &cores)| ScalingRow {
            cores,
            mean_step_time: stats[k].mean(),
            min_step_time: stats[k].min(),
            max_step_time: stats[k].max(),
            mean_load_balance: lb[k].mean(),
            mean_comm_fraction: commfrac[k].mean(),
            particles_per_core: n as f64 / cores as f64,
        })
        .collect();
    Ok((rows, per_step))
}

/// One row of a weak-scaling experiment: cores grow with the problem so
/// particles/core stays fixed — "usually the regime in which they operate
/// in production runs" (§5.2), named there as unexplored future work.
#[derive(Debug, Clone)]
pub struct WeakScalingRow {
    pub cores: usize,
    pub particles: usize,
    /// Mean modelled time per step; flat = ideal weak scaling.
    pub mean_step_time: f64,
    /// Weak-scaling efficiency t(1 node)/t(p).
    pub efficiency: f64,
    pub mean_load_balance: f64,
    pub mean_comm_fraction: f64,
}

/// Run a weak-scaling experiment: `build` constructs a simulation of the
/// requested particle count; each (cores, particles) pair keeps
/// `particles_per_core` fixed. Each point evolves its own simulation for
/// `steps` steps (the problem itself changes size, unlike strong scaling).
/// Fails if any physics step fails (e.g. time step collapse).
pub fn weak_scaling_experiment(
    mut build: impl FnMut(usize) -> Simulation,
    model: &StepModelConfig,
    core_counts: &[usize],
    particles_per_core: usize,
    steps: usize,
) -> Result<Vec<WeakScalingRow>, DistributedError> {
    assert!(!core_counts.is_empty() && steps > 0 && particles_per_core > 0);
    let mut rows = Vec::new();
    let mut base_time = None;
    for &cores in core_counts {
        let target = cores * particles_per_core;
        let mut sim = build(target);
        let mut time_stats = OnlineStats::new();
        let mut lb_stats = OnlineStats::new();
        let mut comm_stats = OnlineStats::new();
        let mut prev_work: Option<Vec<f64>> = None;
        for _ in 0..steps {
            let report = sim.step()?;
            let work = StepWork::measure(&sim, &report);
            let t = model_step(&work.workload(&sim), cores, model, prev_work.as_deref());
            time_stats.push(t.total());
            lb_stats.push(t.load_balance());
            comm_stats.push((t.comm + t.collective) / t.total().max(1e-300));
            prev_work = Some(work.total);
        }
        let mean = time_stats.mean();
        let base = *base_time.get_or_insert(mean);
        rows.push(WeakScalingRow {
            cores,
            particles: sim.sys.len(),
            mean_step_time: mean,
            efficiency: base / mean,
            mean_load_balance: lb_stats.mean(),
            mean_comm_fraction: comm_stats.mean(),
        });
    }
    Ok(rows)
}

/// Render weak-scaling rows as text.
pub fn render_weak_scaling_table(title: &str, rows: &[WeakScalingRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str("  cores  particles  time/step(s)  weak-eff  LB     comm%\n");
    for r in rows {
        out.push_str(&format!(
            "  {:5}  {:9}  {:12.3}  {:8.2}  {:.3}  {:5.1}\n",
            r.cores,
            r.particles,
            r.mean_step_time,
            r.efficiency,
            r.mean_load_balance,
            r.mean_comm_fraction * 100.0
        ));
    }
    out
}

/// Render rows as the text analogue of a Figs. 1–3 panel.
pub fn render_scaling_table(title: &str, rows: &[ScalingRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str("  cores  time/step(s)  speedup  efficiency  LB     comm%  part/core\n");
    let Some((c0, t0)) = rows.first().map(|r| (r.cores, r.mean_step_time)) else {
        return out;
    };
    for r in rows {
        let speedup = t0 / r.mean_step_time;
        let eff = speedup / (r.cores as f64 / c0 as f64);
        out.push_str(&format!(
            "  {:5}  {:12.3}  {:7.2}  {:10.2}  {:.3}  {:5.1}  {:9.0}\n",
            r.cores,
            r.mean_step_time,
            speedup,
            eff,
            r.mean_load_balance,
            r.mean_comm_fraction * 100.0,
            r.particles_per_core
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::machine::piz_daint;
    use crate::step_model::{LoadBalancing, Partitioner};
    use sph_core::config::SphConfig;
    use sph_core::particles::ParticleSystem;
    use sph_math::{Aabb, Periodicity, SplitMix64, Vec3};

    fn small_sim() -> Simulation {
        let mut rng = SplitMix64::new(11);
        let n = 800;
        let mut x = Vec::new();
        while x.len() < n {
            let p = Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64());
            x.push(p);
        }
        let sys = ParticleSystem::new(
            x,
            vec![Vec3::ZERO; n],
            vec![1.0 / n as f64; n],
            vec![0.5; n],
            0.15,
            Periodicity::open(Aabb::unit()),
        );
        let cfg = SphConfig { target_neighbors: 40, max_h_iterations: 4, ..Default::default() };
        Simulation::new(sys, cfg).unwrap()
    }

    fn model() -> StepModelConfig {
        StepModelConfig {
            partitioner: Partitioner::Orb,
            balancing: LoadBalancing::Static,
            machine: piz_daint(),
            cost: CostModel::default(),
        }
    }

    #[test]
    fn paper_sweep_layout() {
        let s = ScalingConfig::paper_sweep(1536);
        assert_eq!(s.core_counts, vec![12, 24, 48, 96, 192, 384, 768, 1536]);
        assert_eq!(s.steps, 20);
    }

    #[test]
    fn scaling_rows_show_speedup_then_saturation() {
        let mut sim = small_sim();
        let cfg = ScalingConfig { core_counts: vec![1, 4, 16, 256], steps: 2 };
        let (rows, per_step) = scaling_experiment(&mut sim, &model(), &cfg).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(per_step[0].len(), 2);
        // Monotone decrease in time per step at small counts...
        assert!(rows[1].mean_step_time < rows[0].mean_step_time);
        assert!(rows[2].mean_step_time < rows[1].mean_step_time);
        // ...but efficiency at 256 ranks of an 800-particle problem has
        // collapsed (3 particles/core!).
        let eff_16 = rows[0].mean_step_time / rows[2].mean_step_time / 16.0;
        let eff_256 = rows[0].mean_step_time / rows[3].mean_step_time / 256.0;
        assert!(eff_256 < eff_16 * 0.5, "eff16 {eff_16} eff256 {eff_256}");
        assert_eq!(rows[3].particles_per_core, 800.0 / 256.0);
    }

    #[test]
    fn weak_scaling_holds_particles_per_core() {
        let cfg = model();
        let rows = weak_scaling_experiment(
            |n| {
                let mut rng = SplitMix64::new(n as u64);
                let x: Vec<Vec3> = (0..n)
                    .map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64()))
                    .collect();
                let sys = ParticleSystem::new(
                    x,
                    vec![Vec3::ZERO; n],
                    vec![1.0 / n as f64; n],
                    vec![0.5; n],
                    0.3 / (n as f64).cbrt() * 4.0,
                    Periodicity::open(Aabb::unit()),
                );
                Simulation::new(
                    sys,
                    SphConfig { target_neighbors: 30, max_h_iterations: 3, ..Default::default() },
                )
                .unwrap()
            },
            &cfg,
            &[2, 4, 8],
            200,
            1,
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        for (r, &cores) in rows.iter().zip(&[2usize, 4, 8]) {
            assert_eq!(r.cores, cores);
            assert_eq!(r.particles, cores * 200);
            assert!(r.mean_step_time > 0.0);
        }
        // First row is the reference: efficiency 1 by construction.
        assert!((rows[0].efficiency - 1.0).abs() < 1e-12);
        // Weak scaling cannot be super-linear in this model beyond noise.
        assert!(rows[2].efficiency < 1.3, "weak-eff {}", rows[2].efficiency);
        let table = render_weak_scaling_table("weak", &rows);
        assert!(table.contains("weak-eff"));
        assert_eq!(table.lines().count(), 5);
    }

    #[test]
    fn render_table_contains_rows() {
        let mut sim = small_sim();
        let cfg = ScalingConfig { core_counts: vec![2, 8], steps: 1 };
        let (rows, _) = scaling_experiment(&mut sim, &model(), &cfg).unwrap();
        let s = render_scaling_table("Square test", &rows);
        assert!(s.contains("Square test"));
        assert!(s.contains("speedup"));
        assert_eq!(s.lines().count(), 4);
    }
}
