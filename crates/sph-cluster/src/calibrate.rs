//! Online machine calibration: the serving-path entry point.
//!
//! [`calibrate_machine`] turns *one* measured step into a sustained
//! per-core GFLOP/s figure; a server admitting jobs wants a *running*
//! estimate that sharpens as completed jobs stream in and never panics
//! on degenerate measurements (a job so short no rank accumulated
//! measurable time). [`OnlineCalibrator`] wraps the one-shot helper with
//! a guarded running mean and a prediction entry point, so admission
//! pricing and calibration can never disagree on the cost arithmetic.

use crate::cost::CostModel;
use crate::machine::MachineModel;
use crate::step_model::{calibrate_machine, MeasuredStep};

/// A running calibration of one machine from completed measured steps.
#[derive(Debug, Clone)]
pub struct OnlineCalibrator {
    prior: MachineModel,
    cost: CostModel,
    /// Running mean of per-observation calibrated `core_gflops`.
    mean_gflops: f64,
    observations: u64,
}

impl OnlineCalibrator {
    /// Start from a prior machine model (used verbatim until the first
    /// observation lands).
    pub fn new(prior: MachineModel, cost: CostModel) -> OnlineCalibrator {
        OnlineCalibrator { mean_gflops: prior.core_gflops, prior, cost, observations: 0 }
    }

    /// Fold one completed measured step into the estimate. Returns
    /// `false` (and changes nothing) when the measurement is unusable:
    /// mismatched rank counts, or no rank with both positive work and
    /// positive wall-time seconds — the preconditions
    /// [`calibrate_machine`] would otherwise assert on.
    pub fn observe(&mut self, measured: &MeasuredStep<'_>, per_rank_seconds: &[f64]) -> bool {
        let ranks = measured.decomposition.nparts;
        if per_rank_seconds.len() != ranks
            || measured.work.len() != measured.decomposition.assignment.len()
        {
            return false;
        }
        let mut rank_work = vec![0.0f64; ranks];
        for (i, w) in measured.work.iter().enumerate() {
            rank_work[measured.decomposition.assignment[i] as usize] += w;
        }
        let usable = (0..ranks).any(|r| rank_work[r] > 0.0 && per_rank_seconds[r] > 0.0);
        if !usable {
            return false;
        }
        let sample = calibrate_machine(self.prior, &self.cost, measured, per_rank_seconds);
        if !(sample.core_gflops.is_finite() && sample.core_gflops > 0.0) {
            return false;
        }
        self.observations += 1;
        let n = self.observations as f64;
        if self.observations == 1 {
            self.mean_gflops = sample.core_gflops;
        } else {
            self.mean_gflops += (sample.core_gflops - self.mean_gflops) / n;
        }
        true
    }

    /// The calibrated machine: the prior with `core_gflops` replaced by
    /// the running mean (the prior itself before any observation).
    pub fn machine(&self) -> MachineModel {
        let mut out = self.prior;
        out.core_gflops = self.mean_gflops;
        out
    }

    /// Number of observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Predicted single-rank compute seconds for a step doing
    /// `work_units` pair interactions over `n_particles` particles —
    /// the pricing arithmetic of `model_measured_step`, evaluated with
    /// the *current* calibrated machine.
    pub fn predict_step_seconds(&self, work_units: f64, n_particles: f64) -> f64 {
        let flops = self.cost.rank_flops(work_units, 0.0, n_particles)
            + self.cost.serial_flops(n_particles);
        self.machine().compute_time(flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::piz_daint;
    use sph_domain::{Decomposition, HaloExchange};

    fn single_rank_measured(work: &[f64]) -> (Decomposition, HaloExchange) {
        let decomposition = Decomposition::new(vec![0; work.len()], 1);
        let halos = HaloExchange { imports: vec![vec![]], pair_volume: vec![0], nparts: 1 };
        (decomposition, halos)
    }

    #[test]
    fn prior_until_first_observation() {
        let cal = OnlineCalibrator::new(piz_daint(), CostModel::default());
        assert_eq!(cal.machine().core_gflops, piz_daint().core_gflops);
        assert_eq!(cal.observations(), 0);
        assert!(cal.predict_step_seconds(1e6, 1e4) > 0.0);
    }

    #[test]
    fn degenerate_measurements_are_refused_not_panicked() {
        let mut cal = OnlineCalibrator::new(piz_daint(), CostModel::default());
        let work = [0.0, 0.0];
        let (d, h) = single_rank_measured(&work);
        let m = MeasuredStep { decomposition: &d, halos: &h, work: &work };
        // Zero work: unusable.
        assert!(!cal.observe(&m, &[1.0]));
        // Wrong rank count: unusable.
        let work2 = [10.0, 10.0];
        let (d2, h2) = single_rank_measured(&work2);
        let m2 = MeasuredStep { decomposition: &d2, halos: &h2, work: &work2 };
        assert!(!cal.observe(&m2, &[1.0, 2.0]));
        // Zero seconds: unusable.
        assert!(!cal.observe(&m2, &[0.0]));
        assert_eq!(cal.observations(), 0);
    }

    #[test]
    fn running_mean_tracks_observations() {
        let cost = CostModel::default();
        let mut cal = OnlineCalibrator::new(piz_daint(), cost);
        let work = [100.0, 300.0];
        let (d, h) = single_rank_measured(&work);
        let m = MeasuredStep { decomposition: &d, halos: &h, work: &work };
        assert!(cal.observe(&m, &[2.0]));
        let one = cal.machine().core_gflops;
        let expected1 = cost.rank_flops(400.0, 0.0, 2.0) / 2.0 / 1e9 / piz_daint().thread_speedup();
        assert!((one - expected1).abs() < 1e-12 * expected1);
        // A second observation at half the speed pulls the mean down to
        // the midpoint.
        assert!(cal.observe(&m, &[4.0]));
        let two = cal.machine().core_gflops;
        assert!((two - expected1 * 0.75).abs() < 1e-12 * expected1, "mean {two} vs {expected1}");
        assert_eq!(cal.observations(), 2);
        // A faster calibrated machine prices the same step cheaper.
        let fast = OnlineCalibrator::new(cal.machine(), cost);
        let mut half_speed = cal.machine();
        half_speed.core_gflops /= 2.0;
        let slow = OnlineCalibrator::new(half_speed, cost);
        assert!(fast.predict_step_seconds(1e6, 1e3) < slow.predict_step_seconds(1e6, 1e3));
    }
}
