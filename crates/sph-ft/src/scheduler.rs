//! Daly-driven checkpoint scheduling — Table 4's "Optimal interval" wired
//! into a run loop.
//!
//! The scheduler observes the measured per-step wall time, the
//! measured checkpoint write cost, and the machine MTBF, and answers one
//! question after every step: *checkpoint now?* It re-derives the Daly
//! interval continuously, so the cadence adapts when steps get slower
//! (e.g. the Evrard collapse deepening) or checkpoints get cheaper.

use crate::daly::daly_interval;
use sph_math::OnlineStats;

/// Adaptive checkpoint scheduler.
#[derive(Debug)]
pub struct CheckpointScheduler {
    /// Mean time between failures of the machine (seconds).
    pub mtbf: f64,
    step_times: OnlineStats,
    write_times: OnlineStats,
    /// Useful work (seconds) accumulated since the last checkpoint.
    since_checkpoint: f64,
    /// Initial guess for the checkpoint cost until one is measured.
    write_cost_guess: f64,
}

impl CheckpointScheduler {
    /// `mtbf` in seconds; `write_cost_guess` seeds the interval before the
    /// first checkpoint has been timed.
    pub fn new(mtbf: f64, write_cost_guess: f64) -> Self {
        assert!(mtbf > 0.0 && write_cost_guess > 0.0);
        CheckpointScheduler {
            mtbf,
            step_times: OnlineStats::new(),
            write_times: OnlineStats::new(),
            since_checkpoint: 0.0,
            write_cost_guess,
        }
    }

    /// Record a completed step's wall-time seconds. Returns `true` when a
    /// checkpoint should be written now.
    pub fn after_step(&mut self, step_seconds: f64) -> bool {
        assert!(step_seconds >= 0.0);
        self.step_times.push(step_seconds);
        self.since_checkpoint += step_seconds;
        // Checkpoint when the accumulated work exceeds the Daly interval,
        // but never within one step of the last checkpoint (the interval
        // cannot be shorter than a step).
        self.since_checkpoint >= self.current_interval()
    }

    /// Record the cost of a checkpoint just written and reset the clock.
    pub fn after_checkpoint(&mut self, write_seconds: f64) {
        assert!(write_seconds >= 0.0);
        self.write_times.push(write_seconds);
        self.since_checkpoint = 0.0;
    }

    /// Current checkpoint write-cost estimate (measured mean or the seed).
    pub(crate) fn write_cost(&self) -> f64 {
        if self.write_times.count() > 0 {
            self.write_times.mean()
        } else {
            self.write_cost_guess
        }
    }

    /// The Daly-optimal work interval under current estimates, floored at
    /// one mean step so a slow machine still makes forward progress.
    pub fn current_interval(&self) -> f64 {
        let interval = daly_interval(self.write_cost().max(1e-9), self.mtbf);
        if self.step_times.count() > 0 {
            interval.max(self.step_times.mean())
        } else {
            interval
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_at_the_daly_cadence() {
        // C = 2 s, MTBF = 10 000 s ⇒ w* = √(2·2·10⁴) = 200 s.
        let mut sched = CheckpointScheduler::new(10_000.0, 2.0);
        let mut steps_between = Vec::new();
        let mut count = 0;
        for _ in 0..1000 {
            count += 1;
            if sched.after_step(1.0) {
                steps_between.push(count);
                count = 0;
                sched.after_checkpoint(2.0);
            }
        }
        // Every interval ≈ 200 steps of 1 s.
        assert!(!steps_between.is_empty());
        for &s in &steps_between {
            assert!((195..=205).contains(&s), "interval {s} steps");
        }
    }

    #[test]
    fn adapts_when_checkpoints_get_expensive() {
        let mut sched = CheckpointScheduler::new(10_000.0, 2.0);
        let w_cheap = sched.current_interval();
        sched.after_checkpoint(50.0); // measured: much more expensive
        let w_measured = sched.current_interval();
        assert!(w_measured > 2.0 * w_cheap, "{w_cheap} → {w_measured}");
    }

    #[test]
    fn interval_never_below_one_step() {
        // Tiny MTBF would demand constant checkpointing; the floor keeps
        // one step of progress per checkpoint.
        let mut sched = CheckpointScheduler::new(1.0, 0.5);
        sched.after_step(10.0);
        assert!(sched.current_interval() >= 10.0);
    }

    // --- edge cases: invalid machine parameters must be rejected at
    // construction or observation time, never folded into the cadence ---

    #[test]
    #[should_panic]
    fn rejects_zero_mtbf() {
        CheckpointScheduler::new(0.0, 2.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_mtbf() {
        CheckpointScheduler::new(-100.0, 2.0);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_write_cost_guess() {
        CheckpointScheduler::new(10_000.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_step_time() {
        let mut sched = CheckpointScheduler::new(10_000.0, 2.0);
        sched.after_step(-1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_write_time() {
        let mut sched = CheckpointScheduler::new(10_000.0, 2.0);
        sched.after_checkpoint(-1.0);
    }

    #[test]
    fn write_cost_exceeding_mtbf_still_makes_progress() {
        // C ≥ 2M puts daly_interval in its degenerate regime (interval =
        // MTBF); with steps slower than the MTBF, the one-step floor wins
        // and the run checkpoints after every step instead of stalling.
        let mut sched = CheckpointScheduler::new(10.0, 50.0);
        assert_eq!(sched.current_interval(), 10.0);
        assert!(sched.after_step(30.0), "one slow step must trigger a checkpoint");
        sched.after_checkpoint(50.0);
        assert!(sched.current_interval() >= 30.0, "floor must track the measured step");
        assert!(sched.after_step(30.0));
    }

    #[test]
    fn zero_step_time_never_divides_the_cadence() {
        // Instant steps (cached/no-op) accumulate no work; the scheduler
        // must neither trigger nor corrupt its interval estimate.
        let mut sched = CheckpointScheduler::new(10_000.0, 2.0);
        for _ in 0..100 {
            assert!(!sched.after_step(0.0));
        }
        assert!(sched.current_interval().is_finite());
    }

    #[test]
    fn no_immediate_checkpoint_after_reset() {
        let mut sched = CheckpointScheduler::new(10_000.0, 2.0);
        let mut first_trigger = 0;
        for k in 1..=300 {
            if sched.after_step(1.0) {
                first_trigger = k;
                break;
            }
        }
        // Daly interval ≈ 198.7 s of work at C = 2 s, M = 10⁴ s.
        assert!((195..=205).contains(&first_trigger), "first trigger at {first_trigger}");
        sched.after_checkpoint(2.0);
        assert!(!sched.after_step(1.0), "clock must reset after a checkpoint");
    }
}
