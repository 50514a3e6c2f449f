//! Render a modelled step into a per-worker trace — the Fig. 4 generator.
//!
//! Fig. 4 shows one SPHYNX time-step at 192 cores on the Evrard test:
//! a *serial* tree build (phase A) with every other worker idle, neighbour
//! phases B–D with idle tails, the SPH phases E–H, gravity I, and the
//! update J, separated by barriers where imbalance appears as black idle
//! regions. This module reconstructs that timeline from a modelled
//! [`StepTiming`]: per-rank useful durations are split across the phases
//! in proportion to the step's global work composition and every phase
//! ends at a barrier, so stragglers generate exactly the idle regions the
//! paper discusses.

use crate::step_model::StepTiming;
use sph_profiler::{Phase, Trace, WorkerState};

/// How the step's useful work divides across phases; fractions must sum
/// to ≤ 1 (the remainder is charged to phase J).
#[derive(Debug, Clone, Copy)]
pub struct PhaseProfile {
    /// Tree build fraction of per-rank compute (phase A).
    pub tree: f64,
    /// Neighbour phases B–D combined.
    pub neighbors: f64,
    /// SPH phases E–H combined.
    pub sph: f64,
    /// Gravity phase I (0 when gravity is off).
    pub gravity: f64,
    /// The tree build runs serially on one worker per node (SPHYNX 1.3.1
    /// behaviour highlighted by the paper) instead of in parallel.
    pub serial_tree: bool,
    /// Workers per node (the width of the serial-tree idle block; Piz
    /// Daint used 12 cores per node).
    pub node_width: usize,
}

impl PhaseProfile {
    /// SPHYNX-like profile for a gravity run (Evrard).
    pub fn sphynx_evrard() -> Self {
        PhaseProfile {
            tree: 0.08,
            neighbors: 0.22,
            sph: 0.40,
            gravity: 0.25,
            serial_tree: true,
            node_width: 12,
        }
    }

    /// Hydro-only profile (square patch).
    pub fn hydro_only(serial_tree: bool) -> Self {
        PhaseProfile {
            tree: 0.10,
            neighbors: 0.30,
            sph: 0.55,
            gravity: 0.0,
            serial_tree,
            node_width: 12,
        }
    }
}

/// Build a [`Trace`] of the modelled step.
pub fn step_trace(timing: &StepTiming, profile: &PhaseProfile) -> Trace {
    let p = timing.per_rank_compute.len();
    let mut trace = Trace::new(p);
    let frac_rest =
        (1.0 - profile.tree - profile.neighbors - profile.sph - profile.gravity).max(0.0);

    // Phase A: tree build. Serial variant: one worker per node builds the
    // node's tree (cost = sum of its node's shares) while its node mates
    // idle — the Fig. 4 pathology at thread level. Parallel variant: each
    // rank builds its own.
    if profile.serial_tree {
        let width = profile.node_width.max(1);
        for (g, chunk) in timing.per_rank_compute.chunks(width).enumerate() {
            let node_tree: f64 = chunk.iter().map(|t| t * profile.tree).sum();
            trace.append(g * width, Phase::TreeBuild, WorkerState::Useful, node_tree);
        }
    } else {
        for (w, &t) in timing.per_rank_compute.iter().enumerate() {
            trace.append(w, Phase::TreeBuild, WorkerState::Useful, t * profile.tree);
        }
    }
    trace.close_step(Phase::TreeBuild);

    // Phases B–D: neighbour work, barrier-terminated (idle tails).
    for (sub, frac) in
        [(Phase::NeighborWalk, 0.5), (Phase::SmoothingLength, 0.3), (Phase::NeighborLists, 0.2)]
    {
        for (w, &t) in timing.per_rank_compute.iter().enumerate() {
            trace.append(w, sub, WorkerState::Useful, t * profile.neighbors * frac);
        }
        trace.close_step(sub);
    }

    // Halo exchange (communication) after neighbour discovery.
    if timing.comm > 0.0 {
        for w in 0..p {
            trace.append(w, Phase::NeighborLists, WorkerState::Communication, timing.comm);
        }
    }

    // Phases E–H: SPH kernels.
    for (sub, frac) in [
        (Phase::Density, 0.35),
        (Phase::Gradients, 0.15),
        (Phase::Momentum, 0.30),
        (Phase::Energy, 0.20),
    ] {
        for (w, &t) in timing.per_rank_compute.iter().enumerate() {
            trace.append(w, sub, WorkerState::Useful, t * profile.sph * frac);
        }
        trace.close_step(sub);
    }

    // Phase I: gravity.
    if profile.gravity > 0.0 {
        for (w, &t) in timing.per_rank_compute.iter().enumerate() {
            trace.append(w, Phase::Gravity, WorkerState::Useful, t * profile.gravity);
        }
        trace.close_step(Phase::Gravity);
    }

    // Phase J: Δt allreduce (sync), the serial per-step section (on one
    // worker while the rest idle — this is an imbalance/idle loss in the
    // POP decomposition, exactly how the paper classifies it), and the
    // particle update.
    for w in 0..p {
        trace.append(w, Phase::Update, WorkerState::Synchronization, timing.collective);
    }
    trace.append(0, Phase::Update, WorkerState::Useful, timing.serial);
    trace.close_step(Phase::Update);
    for (w, &t) in timing.per_rank_compute.iter().enumerate() {
        trace.append(w, Phase::Update, WorkerState::Useful, t * frac_rest);
    }
    trace.close_step(Phase::Update);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_profiler::pop_metrics;

    fn timing(per_rank: Vec<f64>) -> StepTiming {
        StepTiming {
            per_rank_compute: per_rank,
            serial: 0.2,
            comm: 0.1,
            collective: 0.05,
            halo_volume: 100,
        }
    }

    #[test]
    fn serial_tree_idles_other_workers() {
        let t = timing(vec![1.0, 1.0, 1.0, 1.0]);
        let trace = step_trace(&t, &PhaseProfile::sphynx_evrard());
        // Worker 0 has tree-build useful time; workers 1–3 idle during A.
        let a0: f64 = trace
            .spans(0)
            .iter()
            .filter(|s| s.phase == Phase::TreeBuild && s.state == WorkerState::Useful)
            .map(|s| s.duration())
            .sum();
        assert!(a0 > 0.3, "serial tree should aggregate all ranks' share: {a0}");
        for w in 1..4 {
            let a: f64 = trace
                .spans(w)
                .iter()
                .filter(|s| s.phase == Phase::TreeBuild && s.state == WorkerState::Useful)
                .map(|s| s.duration())
                .sum();
            assert_eq!(a, 0.0);
            assert!(trace.state_time(w, WorkerState::Idle) > 0.0);
        }
    }

    #[test]
    fn parallel_tree_spreads_the_work() {
        let t = timing(vec![1.0; 4]);
        let trace = step_trace(&t, &PhaseProfile::hydro_only(false));
        for w in 0..4 {
            let a: f64 = trace
                .spans(w)
                .iter()
                .filter(|s| s.phase == Phase::TreeBuild && s.state == WorkerState::Useful)
                .map(|s| s.duration())
                .sum();
            assert!((a - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn imbalance_appears_as_idle_and_in_pop_lb() {
        // Rank 3 does 2× the work: POP LB from the generated trace must
        // reflect it.
        let t = timing(vec![1.0, 1.0, 1.0, 2.0]);
        let trace = step_trace(&t, &PhaseProfile::hydro_only(false));
        let m = pop_metrics(&trace, None);
        assert!(m.load_balance < 0.95, "LB {} should show the straggler", m.load_balance);
        assert!(trace.state_time(0, WorkerState::Idle) > 0.0);
        assert!(trace.state_time(3, WorkerState::Idle) < trace.state_time(0, WorkerState::Idle));
    }

    #[test]
    fn gravity_phase_present_only_when_configured() {
        let t = timing(vec![1.0; 2]);
        let with = step_trace(&t, &PhaseProfile::sphynx_evrard());
        let without = step_trace(&t, &PhaseProfile::hydro_only(true));
        let grav_time = |tr: &Trace| {
            (0..tr.n_workers())
                .flat_map(|w| tr.spans(w).to_vec())
                .filter(|s| s.phase == Phase::Gravity)
                .map(|s| s.duration())
                .sum::<f64>()
        };
        assert!(grav_time(&with) > 0.0);
        assert_eq!(grav_time(&without), 0.0);
    }

    #[test]
    fn communication_and_sync_recorded() {
        let t = timing(vec![1.0; 3]);
        let trace = step_trace(&t, &PhaseProfile::hydro_only(false));
        for w in 0..3 {
            assert!((trace.state_time(w, WorkerState::Communication) - 0.1).abs() < 1e-12);
            assert!((trace.state_time(w, WorkerState::Synchronization) - 0.05).abs() < 1e-12);
        }
    }

    #[test]
    fn all_workers_end_at_the_same_time() {
        let t = timing(vec![0.5, 1.5, 1.0]);
        let trace = step_trace(&t, &PhaseProfile::sphynx_evrard());
        let end = trace.makespan();
        for w in 0..3 {
            assert!((trace.end_of(w) - end).abs() < 1e-12);
        }
    }
}
