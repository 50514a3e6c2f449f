//! Measured-cost admission control.
//!
//! Every submitted job is priced in *predicted seconds* before it is
//! allowed to queue: estimated particle count × requested steps × the
//! scenario's measured seconds per particle-step. Pricing serves two
//! gates:
//!
//! * a per-job ceiling (`max_job_seconds`) rejects jobs that would
//!   monopolise the server outright (HTTP 429, with the price in the
//!   error body so clients can resize);
//! * a concurrency budget (`budget_seconds`) bounds the *sum* of prices
//!   of running jobs — dispatch holds queued jobs back until capacity
//!   frees up, so one expensive job cannot starve the cheap ones behind
//!   it (the dispatcher skip-scans the FIFO).
//!
//! A served job runs on one rank in this process, so its cost is measured,
//! not modelled: admission keeps a running mean of the measured seconds
//! per particle-step *per scenario* (gravity makes `evrard`'s dearer). A
//! scenario with no completed job pays `PRIOR_SECONDS_PER_PARTICLE_STEP`.

use crate::api::JobSpec;
use crate::error::ServeError;
use sph_json::Value;
use std::collections::BTreeMap;

/// Reference lateral particle count used to estimate problem size from a
/// resolution scale before the first job of a scenario completes
/// (scenario lattices are O((lateral·scale)³) in 3-D).
const REF_LATERAL: f64 = 10.0;
/// Seconds per particle-step of a scenario with no completed job: 100 SPH
/// interactions of 400 FLOPs on a 4 GFLOP/s Piz Daint core, the rate this
/// service priced every job at before it measured its own.
const PRIOR_SECONDS_PER_PARTICLE_STEP: f64 = 1e-5;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Sum of prices of concurrently *running* jobs may not exceed this.
    pub budget_seconds: f64,
    /// A single job priced above this is rejected outright.
    pub max_job_seconds: f64,
    /// Maximum queued (admitted but not yet running) jobs.
    pub max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { budget_seconds: 600.0, max_job_seconds: 120.0, max_queue_depth: 1024 }
    }
}

/// What one completed job cost, as its worker measured it.
#[derive(Debug)]
pub(crate) struct CalibrationSample {
    pub scenario: String,
    pub scale: f64,
    pub n_particles: usize,
    /// Steps executed in this process; a resumed job counts only its own.
    pub steps: u64,
    /// Wall seconds the worker spent executing the job.
    pub seconds: f64,
}

/// What admission has learned about one scenario from its completed jobs.
struct Learned {
    /// Particles per unit scale³ — replaces the `REF_LATERAL` guess.
    particle_density: f64,
    /// Running mean of measured seconds per particle-step.
    seconds_per_particle_step: f64,
    samples: u64,
}

pub(crate) struct Admission {
    cfg: AdmissionConfig,
    /// Predicted seconds of currently running jobs.
    outstanding_seconds: f64,
    learned: BTreeMap<String, Learned>,
    rejected_over_budget: u64,
    rejected_queue_full: u64,
}

impl Admission {
    pub(crate) fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            outstanding_seconds: 0.0,
            learned: BTreeMap::new(),
            rejected_over_budget: 0,
            rejected_queue_full: 0,
        }
    }

    /// Price a spec in predicted seconds: estimated particles × steps ×
    /// the scenario's measured seconds per particle-step.
    pub(crate) fn price(&self, spec: &JobSpec) -> f64 {
        let (particles, rate) = match self.learned.get(&spec.scenario) {
            Some(l) => (l.particle_density * spec.scale.powi(3), l.seconds_per_particle_step),
            None => ((REF_LATERAL * spec.scale).powi(3), PRIOR_SECONDS_PER_PARTICLE_STEP),
        };
        particles.max(1.0) * spec.steps as f64 * rate
    }

    /// Gate a submission: returns the price on success, or a 429-class
    /// error. Queue-depth and per-job-ceiling checks happen here; the
    /// *budget* gate is applied at dispatch time (see [`Self::can_start`])
    /// so queued jobs wait rather than bounce.
    pub(crate) fn try_admit(
        &mut self,
        spec: &JobSpec,
        queue_depth: usize,
    ) -> Result<f64, ServeError> {
        let price = self.price(spec);
        if price > self.cfg.max_job_seconds {
            self.rejected_over_budget += 1;
            return Err(ServeError::OverBudget {
                price_seconds: price,
                max_job_seconds: self.cfg.max_job_seconds,
            });
        }
        if queue_depth >= self.cfg.max_queue_depth {
            self.rejected_queue_full += 1;
            return Err(ServeError::QueueFull { depth: queue_depth });
        }
        Ok(price)
    }

    /// May a job of this price start now? Always true when nothing is
    /// running (a single job over budget would otherwise deadlock).
    pub(crate) fn can_start(&self, price: f64) -> bool {
        self.outstanding_seconds == 0.0
            || self.outstanding_seconds + price <= self.cfg.budget_seconds
    }

    pub(crate) fn on_start(&mut self, price: f64) {
        self.outstanding_seconds += price;
    }

    /// Release a finished job's budget share and learn its measured cost; a
    /// sample with no particle-steps or no positive, finite seconds is refused.
    pub(crate) fn on_finish(&mut self, price: f64, sample: Option<&CalibrationSample>) {
        self.outstanding_seconds = (self.outstanding_seconds - price).max(0.0);
        let Some(s) = sample else { return };
        let particle_steps = s.n_particles as f64 * s.steps as f64;
        if particle_steps == 0.0 || !(s.seconds > 0.0 && s.seconds.is_finite()) {
            return;
        }
        let rate = s.seconds / particle_steps;
        let particle_density = s.n_particles as f64 / s.scale.powi(3).max(f64::MIN_POSITIVE);
        let learned = self.learned.entry(s.scenario.clone()).or_insert(Learned {
            particle_density,
            seconds_per_particle_step: rate,
            samples: 0,
        });
        learned.particle_density = particle_density;
        learned.samples += 1;
        learned.seconds_per_particle_step +=
            (rate - learned.seconds_per_particle_step) / learned.samples as f64;
    }

    /// The `admission` object of `GET /metrics`.
    pub(crate) fn to_value(&self) -> Value {
        let rates = self
            .learned
            .iter()
            .map(|(name, l)| (name.clone(), Value::Num(l.seconds_per_particle_step)));
        Value::obj(vec![
            ("outstanding_seconds", Value::Num(self.outstanding_seconds)),
            ("seconds_per_particle_step", Value::Obj(rates.collect())),
            ("rejected_over_budget", Value::Num(self.rejected_over_budget as f64)),
            ("rejected_queue_full", Value::Num(self.rejected_queue_full as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_of(scenario: &str, steps: u64, scale: f64) -> JobSpec {
        JobSpec { scenario: scenario.into(), scale, steps, seed: 0 }
    }

    fn spec(steps: u64, scale: f64) -> JobSpec {
        spec_of("sod", steps, scale)
    }

    fn sample(scenario: &str, n_particles: usize, steps: u64, seconds: f64) -> CalibrationSample {
        CalibrationSample { scenario: scenario.into(), scale: 1.0, n_particles, steps, seconds }
    }

    fn assert_close(actual: f64, expected: f64) {
        assert!((actual - expected).abs() <= 1e-12 * expected.abs(), "{actual} vs {expected}");
    }

    #[test]
    fn price_scales_with_steps_and_resolution() {
        let adm = Admission::new(AdmissionConfig::default());
        let base = adm.price(&spec(10, 1.0));
        assert_close(base, 1000.0 * 10.0 * PRIOR_SECONDS_PER_PARTICLE_STEP);
        let doubled_steps = adm.price(&spec(20, 1.0));
        assert!((doubled_steps / base - 2.0).abs() < 1e-9);
        assert!(adm.price(&spec(10, 2.0)) > base);
    }

    #[test]
    fn per_job_ceiling_rejects_with_price_attached() {
        let mut adm = Admission::new(AdmissionConfig {
            max_job_seconds: 1e-12,
            ..AdmissionConfig::default()
        });
        let err = adm.try_admit(&spec(1000, 2.0), 0).unwrap_err();
        match err {
            ServeError::OverBudget { price_seconds, max_job_seconds } => {
                assert!(price_seconds > max_job_seconds);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
        assert_eq!(adm.rejected_over_budget, 1);
    }

    #[test]
    fn queue_depth_gate() {
        let mut adm =
            Admission::new(AdmissionConfig { max_queue_depth: 2, ..AdmissionConfig::default() });
        assert!(adm.try_admit(&spec(1, 1.0), 1).is_ok());
        let err = adm.try_admit(&spec(1, 1.0), 2).unwrap_err();
        assert_eq!(err.status(), 429);
        assert_eq!(adm.rejected_queue_full, 1);
    }

    #[test]
    fn budget_gates_dispatch_but_never_deadlocks() {
        let mut adm =
            Admission::new(AdmissionConfig { budget_seconds: 1.0, ..AdmissionConfig::default() });
        // Idle server: even an over-budget price may start.
        assert!(adm.can_start(5.0));
        adm.on_start(0.8);
        assert!(!adm.can_start(0.5));
        assert!(adm.can_start(0.2));
        adm.on_finish(0.8, None);
        assert_eq!(adm.outstanding_seconds, 0.0);
        assert!(adm.can_start(5.0));
    }

    #[test]
    fn completed_jobs_refine_scenario_density() {
        let mut adm = Admission::new(AdmissionConfig::default());
        let guess = adm.price(&spec(10, 1.0));
        // "sod" at scale 1 has 8000 particles (vs the REF_LATERAL³ = 1000
        // guess) and ran at the prior rate: the price rises eightfold.
        adm.on_finish(0.0, Some(&sample("sod", 8000, 10, 8000.0 * 10.0 * 1e-5)));
        assert_close(adm.price(&spec(10, 1.0)), 8.0 * guess);
    }

    #[test]
    fn price_is_the_learned_rate_times_particle_steps() {
        let mut adm = Admission::new(AdmissionConfig::default());
        adm.on_finish(0.0, Some(&sample("sod", 2000, 4, 0.4)));
        let rate = 0.4 / (2000.0 * 4.0);
        let metrics = adm.to_value();
        let learned = metrics.get("seconds_per_particle_step").and_then(Value::as_obj).unwrap();
        assert_eq!(learned.len(), 1);
        assert_eq!(learned[0].0, "sod");
        assert_close(learned[0].1.as_f64().unwrap(), rate);
        assert_close(adm.price(&spec(10, 1.0)), rate * 2000.0 * 10.0);
        assert_close(adm.price(&spec(30, 1.0)), rate * 2000.0 * 30.0);
        assert_close(adm.price(&spec(10, 2.0)), rate * 2000.0 * 8.0 * 10.0);
        // A second sample moves the rate to the mean of the two.
        adm.on_finish(0.0, Some(&sample("sod", 2000, 4, 0.8)));
        assert_close(adm.price(&spec(10, 1.0)), 1.5 * rate * 2000.0 * 10.0);
    }

    #[test]
    fn a_gravity_scenario_is_priced_from_its_own_rate() {
        let mut adm = Admission::new(AdmissionConfig::default());
        adm.on_finish(0.0, Some(&sample("sod", 1000, 10, 0.1)));
        let sod = adm.price(&spec_of("sod", 10, 1.0));
        // Evrard's tree walk makes a particle-step 30× dearer than Sod's.
        adm.on_finish(0.0, Some(&sample("evrard", 1000, 10, 3.0)));
        assert_close(adm.price(&spec_of("evrard", 10, 1.0)), 3.0);
        assert_close(adm.price(&spec_of("sod", 10, 1.0)), sod);
        // A scenario with no completed job still pays the prior.
        assert_close(
            adm.price(&spec_of("sedov", 10, 1.0)),
            1000.0 * 10.0 * PRIOR_SECONDS_PER_PARTICLE_STEP,
        );
    }

    #[test]
    fn degenerate_samples_change_no_rate() {
        let mut adm = Admission::new(AdmissionConfig::default());
        let prior = adm.price(&spec(10, 1.0));
        for bad in [
            sample("sod", 8000, 0, 1.0),
            sample("sod", 0, 10, 1.0),
            sample("sod", 8000, 10, 0.0),
            sample("sod", 8000, 10, f64::NAN),
            sample("sod", 8000, 10, f64::INFINITY),
        ] {
            adm.on_finish(0.0, Some(&bad));
        }
        assert!(adm.learned.is_empty());
        assert_eq!(adm.price(&spec(10, 1.0)), prior);
        adm.on_finish(0.0, Some(&sample("sod", 1000, 10, 0.5)));
        adm.on_finish(0.0, Some(&sample("sod", 1000, 0, 9.0)));
        adm.on_finish(0.0, Some(&sample("sod", 1000, 10, 0.0)));
        assert_close(adm.price(&spec(10, 1.0)), 0.5);
    }
}
