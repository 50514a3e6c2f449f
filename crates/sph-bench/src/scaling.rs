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
/// the `hydro` and `gravity` shares `model_step` charges differently.
pub struct StepWork {
    /// Macro-step work per particle (one on rung r was evaluated 2^r
    /// times): what a dynamic balancer measures for the next step.
    pub(crate) total: Vec<f64>,
    pub(crate) hydro: Vec<f64>,
    pub(crate) gravity: Vec<f64>,
}

impl StepWork {
    /// Measure the step `report` describes, which `sim` just took. Gravity
    /// is split out of `per_particle_work` by this step's global ratio.
    pub(crate) fn measure(sim: &Simulation, report: &StepReport) -> Self {
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
    pub(crate) fn workload<'a>(&'a self, sim: &'a Simulation) -> StepWorkload<'a> {
        StepWorkload {
            positions: &sim.sys.x,
            sph_work: &self.hydro,
            gravity_work: &self.gravity,
            interaction_radius: 2.0 * sim.sys.max_h(),
            periodicity: sim.sys.periodicity,
        }
    }

    /// Model this step of `sim` on `ranks` cores, a dynamic balancer
    /// seeing this step's own measured work.
    pub fn model(&self, sim: &Simulation, ranks: usize, config: &StepModelConfig) -> StepTiming {
        model_step(&self.workload(sim), ranks, config, Some(&self.total))
    }
}

/// The core counts of the paper's Piz Daint sweep: 12 × 2^k up to `max`.
pub(crate) fn paper_sweep(max: usize) -> Vec<usize> {
    let mut core_counts = Vec::new();
    let mut c = 12;
    while c <= max {
        core_counts.push(c);
        c *= 2;
    }
    core_counts
}

/// One row of a strong-scaling figure: core count → time per step.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    pub(crate) cores: usize,
    /// Mean modelled time per time-step (the y-axis of Figs. 1–3).
    pub(crate) mean_step_time: f64,
    /// Mean POP load balance of the compute phase.
    pub(crate) mean_load_balance: f64,
    /// Mean fraction of the step spent communicating.
    pub(crate) mean_comm_fraction: f64,
    /// Particles per core (the paper's stall indicator: ~10⁴).
    pub(crate) particles_per_core: f64,
}

/// Mean modelled step time, compute load balance and communication
/// fraction at one core count over a run.
struct RunMeans {
    step_time: f64,
    load_balance: f64,
    comm_fraction: f64,
}

/// Evolve `sim` for `steps` macro steps and model every step at every
/// core count, the dynamic balancer seeing the previous step's measured
/// work. Returns one [`RunMeans`] per core count.
fn model_run(
    sim: &mut Simulation,
    model: &StepModelConfig,
    core_counts: &[usize],
    steps: usize,
) -> Result<Vec<RunMeans>, DistributedError> {
    // Time, load balance and communication fraction per core count.
    let mut stats = vec![[OnlineStats::new(); 3]; core_counts.len()];
    let mut prev_work: Option<Vec<f64>> = None;
    for _ in 0..steps {
        let report = sim.step()?;
        let work = StepWork::measure(sim, &report);
        let workload = work.workload(sim);
        for (s, &cores) in stats.iter_mut().zip(core_counts) {
            let t = model_step(&workload, cores, model, prev_work.as_deref());
            s[0].push(t.total());
            s[1].push(t.load_balance());
            s[2].push((t.comm + t.collective) / t.total().max(1e-300));
        }
        prev_work = Some(work.total);
    }
    Ok(stats
        .iter()
        .map(|[time, lb, comm]| RunMeans {
            step_time: time.mean(),
            load_balance: lb.mean(),
            comm_fraction: comm.mean(),
        })
        .collect())
}

/// Evolve `sim` for `steps` macro steps (paper: 20) and model every step
/// at every core count. Returns one [`ScalingRow`] per core count.
/// Fails if the underlying physics step fails (e.g. time step collapse).
pub(crate) fn scaling_experiment(
    sim: &mut Simulation,
    model: &StepModelConfig,
    core_counts: &[usize],
    steps: usize,
) -> Result<Vec<ScalingRow>, DistributedError> {
    assert!(!core_counts.is_empty() && steps > 0);
    let means = model_run(sim, model, core_counts, steps)?;
    let n = sim.sys.len();
    Ok(core_counts
        .iter()
        .zip(means)
        .map(|(&cores, m)| ScalingRow {
            cores,
            mean_step_time: m.step_time,
            mean_load_balance: m.load_balance,
            mean_comm_fraction: m.comm_fraction,
            particles_per_core: n as f64 / cores as f64,
        })
        .collect())
}

/// One row of a weak-scaling experiment: cores grow with the problem so
/// particles/core stays fixed — "usually the regime in which they operate
/// in production runs" (§5.2), named there as unexplored future work.
#[derive(Debug, Clone)]
pub(crate) struct WeakScalingRow {
    pub(crate) cores: usize,
    pub(crate) particles: usize,
    /// Mean modelled time per step; flat = ideal weak scaling.
    pub(crate) mean_step_time: f64,
    /// Weak-scaling efficiency t(1 node)/t(p).
    pub(crate) efficiency: f64,
    pub(crate) mean_load_balance: f64,
    pub(crate) mean_comm_fraction: f64,
}

/// Run a weak-scaling experiment: `build` constructs a simulation of the
/// requested particle count; each (cores, particles) pair keeps
/// `particles_per_core` fixed. Each point evolves its own simulation for
/// `steps` steps (the problem itself changes size, unlike strong scaling).
/// Fails if any physics step fails (e.g. time step collapse).
pub(crate) fn weak_scaling_experiment(
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
        let mut sim = build(cores * particles_per_core);
        let means = model_run(&mut sim, model, &[cores], steps)?;
        let m = &means[0];
        let base = *base_time.get_or_insert(m.step_time);
        rows.push(WeakScalingRow {
            cores,
            particles: sim.sys.len(),
            mean_step_time: m.step_time,
            efficiency: base / m.step_time,
            mean_load_balance: m.load_balance,
            mean_comm_fraction: m.comm_fraction,
        });
    }
    Ok(rows)
}

/// Render weak-scaling rows as text.
pub(crate) fn render_weak_scaling_table(title: &str, rows: &[WeakScalingRow]) -> String {
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
    use crate::step_model::LoadBalancing;
    use sph_core::config::SphConfig;
    use sph_core::particles::ParticleSystem;
    use sph_domain::Partitioner;
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
        assert_eq!(paper_sweep(1536), vec![12, 24, 48, 96, 192, 384, 768, 1536]);
        assert_eq!(paper_sweep(1535), vec![12, 24, 48, 96, 192, 384, 768]);
        assert_eq!(paper_sweep(11), Vec::<usize>::new());
    }

    #[test]
    fn scaling_rows_show_speedup_then_saturation() {
        let mut sim = small_sim();
        let rows = scaling_experiment(&mut sim, &model(), &[1, 4, 16, 256], 2).unwrap();
        assert_eq!(rows.len(), 4);
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
        let rows = scaling_experiment(&mut sim, &model(), &[2, 8], 1).unwrap();
        let s = render_scaling_table("Square test", &rows);
        assert!(s.contains("Square test"));
        assert!(s.contains("speedup"));
        assert_eq!(s.lines().count(), 4);
    }
}

// The strong-scaling experiments reproduce the *shape* of Figs. 1–3 —
// who wins, by roughly what factor, where scaling stalls. (Absolute
// seconds are calibrated; shapes are measured.)
#[cfg(test)]
mod figure_shapes {
    use super::*;
    use crate::machine::piz_daint;
    use crate::setups::{changa, sphflow, sphynx, CodeSetup, TestCase};
    use crate::{wire_experiment, ExperimentScale};

    const N: usize = 4_000;

    fn rows_for(setup: &CodeSetup, scenario: TestCase) -> Vec<ScalingRow> {
        let scale = ExperimentScale { particles: N, ..Default::default() };
        let (mut sim, model) = wire_experiment(setup, scenario, piz_daint(), scale);
        scaling_experiment(&mut sim, &model, &[12, 48, 192, 768], 2).unwrap()
    }

    #[test]
    fn every_code_speeds_up_then_stalls() {
        // Fig. 1–3 common shape: good strong scaling while particles/core is
        // high, collapsing efficiency once it is not ("scaling stalls when
        // there are not enough particles/core").
        for (setup, scenario) in [
            (sphynx(), TestCase::SquarePatch),
            (sphflow(), TestCase::SquarePatch),
            (sphynx(), TestCase::Evrard),
        ] {
            let rows = rows_for(&setup, scenario);
            let t12 = rows[0].mean_step_time;
            let t48 = rows[1].mean_step_time;
            let t768 = rows[3].mean_step_time;
            assert!(
                t48 < t12 / 2.0,
                "{} {scenario:?}: no early speedup ({t12} → {t48})",
                setup.code.name
            );
            let eff_48 = t12 / t48 / 4.0;
            let eff_768 = t12 / t768 / 64.0;
            assert!(
                eff_768 < 0.7 * eff_48,
                "{} {scenario:?}: no stall (eff {eff_48} → {eff_768})",
                setup.code.name
            );
        }
    }

    #[test]
    fn changa_square_is_much_slower_than_sphynx_square() {
        // Fig. 2a vs Fig. 1a at matched cores: ~19× at the 12-core anchor.
        let changa_rows = rows_for(&changa(), TestCase::SquarePatch);
        let sphynx_rows = rows_for(&sphynx(), TestCase::SquarePatch);
        let ratio = changa_rows[0].mean_step_time / sphynx_rows[0].mean_step_time;
        assert!(
            ratio > 5.0,
            "ChaNGa must be far slower than SPHYNX on the square test, got {ratio:.1}×"
        );
    }

    #[test]
    fn changa_evrard_is_much_faster_than_changa_square() {
        // Fig. 2b vs Fig. 2a: 30 s vs 738 s at the same core count — gravity
        // is ChaNGa's home turf, CFD is not.
        let square = rows_for(&changa(), TestCase::SquarePatch);
        let evrard = rows_for(&changa(), TestCase::Evrard);
        assert!(
            evrard[0].mean_step_time < square[0].mean_step_time / 3.0,
            "Evrard {} should be ≪ square {}",
            evrard[0].mean_step_time,
            square[0].mean_step_time
        );
    }

    #[test]
    fn sphynx_static_slabs_imbalance_on_evrard() {
        // SPHYNX's static slab decomposition is fine on the uniform square
        // patch but imbalances on the centrally-condensed Evrard cloud — the
        // §5.2 load-imbalance finding.
        let square = rows_for(&sphynx(), TestCase::SquarePatch);
        let evrard = rows_for(&sphynx(), TestCase::Evrard);
        let lb_square = square[2].mean_load_balance; // 192 cores
        let lb_evrard = evrard[2].mean_load_balance;
        assert!(
            lb_evrard < lb_square,
            "Evrard LB {lb_evrard} should be worse than square LB {lb_square}"
        );
    }

    #[test]
    fn particles_per_core_column_matches_problem_size() {
        let rows = rows_for(&sphflow(), TestCase::SquarePatch);
        for r in &rows {
            let n = (N as f64).cbrt().round().powi(3);
            assert!((r.particles_per_core - n / r.cores as f64).abs() < 1.0);
        }
    }
}
