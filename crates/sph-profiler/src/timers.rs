//! Wall-clock phase timers.
//!
//! For the *measured* (as opposed to modelled) side of the reproduction:
//! the simulations and the examples time the real Rust execution of each
//! Algorithm 1 phase on the host machine. Thread-safe so rayon workers can
//! report concurrently; a worker that panics while holding the lock does
//! not poison the timers for everyone else.

// sph-profiler is the sanctioned home of clock reads (clippy.toml bans
// them elsewhere).
#![allow(clippy::disallowed_methods)]

use crate::phase::Phase;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Accumulated wall time per phase.
#[derive(Debug, Default)]
pub struct PhaseTimers {
    acc: Mutex<[f64; 10]>,
}

impl PhaseTimers {
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulators, recovered from poisoning: a holder can only
    /// panic between whole `+=` updates, so the array is never torn.
    fn acc(&self) -> MutexGuard<'_, [f64; 10]> {
        self.acc.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn index(phase: Phase) -> usize {
        // `Phase::all()` lists variants in declaration order, so the
        // discriminant IS the slot (asserted by `index_matches_all_order`).
        phase as usize
    }

    /// Time `f` and charge its duration to `phase`. Returns `f`'s output.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dt = start.elapsed().as_secs_f64();
        self.acc()[Self::index(phase)] += dt;
        out
    }

    /// Accumulated seconds for a phase.
    pub fn get(&self, phase: Phase) -> f64 {
        self.acc()[Self::index(phase)]
    }

    /// Total across phases.
    pub fn total(&self) -> f64 {
        self.acc().iter().sum()
    }

    /// (phase, seconds) pairs in execution order.
    pub fn snapshot(&self) -> Vec<(Phase, f64)> {
        let acc = self.acc();
        Phase::all().iter().map(|&p| (p, acc[Self::index(p)])).collect()
    }

    /// Fold another timer's accumulators into this one — e.g. aggregating
    /// the per-rank timers of a distributed run into one global view.
    pub fn merge_from(&self, other: &PhaseTimers) {
        let theirs = *other.acc();
        let mut acc = self.acc();
        for (a, t) in acc.iter_mut().zip(theirs) {
            *a += t;
        }
    }

    /// Reset all accumulators.
    pub fn reset(&self) {
        *self.acc() = [0.0; 10];
    }

    /// Render a one-step timing report.
    pub fn report(&self) -> String {
        let total = self.total().max(1e-300);
        let mut out = String::from("phase timings: ");
        for (p, t) in self.snapshot() {
            if t > 0.0 {
                out.push_str(&format!("{} {:.3}s ({:.0}%)  ", p.letter(), t, t / total * 100.0));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Charge an externally measured duration, as `time` would.
    fn add(timers: &PhaseTimers, phase: Phase, seconds: f64) {
        timers.acc()[PhaseTimers::index(phase)] += seconds;
    }

    #[test]
    fn index_matches_all_order() {
        // `PhaseTimers::index` uses the discriminant directly; that is only
        // sound while `Phase::all()` lists variants in declaration order.
        for (slot, p) in Phase::all().into_iter().enumerate() {
            assert_eq!(PhaseTimers::index(p), slot, "{p:?}");
        }
    }

    #[test]
    fn time_accumulates() {
        let timers = PhaseTimers::new();
        let v = timers.time(Phase::Density, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(timers.get(Phase::Density) >= 0.004);
        assert_eq!(timers.get(Phase::Gravity), 0.0);
    }

    #[test]
    fn add_and_total() {
        let timers = PhaseTimers::new();
        add(&timers, Phase::TreeBuild, 1.5);
        add(&timers, Phase::TreeBuild, 0.5);
        add(&timers, Phase::Update, 1.0);
        assert_eq!(timers.get(Phase::TreeBuild), 2.0);
        assert_eq!(timers.total(), 3.0);
    }

    #[test]
    fn merge_from_folds_per_rank_timers() {
        let rank0 = PhaseTimers::new();
        add(&rank0, Phase::Density, 1.0);
        add(&rank0, Phase::Update, 0.25);
        let rank1 = PhaseTimers::new();
        add(&rank1, Phase::Density, 2.0);
        add(&rank1, Phase::Gravity, 0.5);
        let agg = PhaseTimers::new();
        agg.merge_from(&rank0);
        agg.merge_from(&rank1);
        assert_eq!(agg.get(Phase::Density), 3.0);
        assert_eq!(agg.get(Phase::Gravity), 0.5);
        assert_eq!(agg.get(Phase::Update), 0.25);
        assert_eq!(agg.total(), 3.75);
    }

    #[test]
    fn reset_clears() {
        let timers = PhaseTimers::new();
        add(&timers, Phase::Momentum, 1.0);
        timers.reset();
        assert_eq!(timers.total(), 0.0);
    }

    #[test]
    fn report_mentions_phases() {
        let timers = PhaseTimers::new();
        add(&timers, Phase::Gravity, 2.0);
        let r = timers.report();
        assert!(r.contains("I 2.000s"), "{r}");
    }

    #[test]
    fn concurrent_updates() {
        let timers = std::sync::Arc::new(PhaseTimers::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = timers.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    add(&t, Phase::Energy, 0.001);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!((timers.get(Phase::Energy) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn timers_survive_a_panicking_lock_holder() {
        let timers = std::sync::Arc::new(PhaseTimers::new());
        add(&timers, Phase::Density, 1.0);
        let t = timers.clone();
        let _ = std::thread::spawn(move || {
            let _guard = t.acc();
            panic!("poison attempt");
        })
        .join();
        assert!(timers.acc.is_poisoned());
        add(&timers, Phase::Density, 0.5);
        assert_eq!(timers.get(Phase::Density), 1.5);
    }
}
