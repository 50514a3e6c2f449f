//! Time-step control (Algorithm 1, step 5; Table 1 "Time-Stepping").
//!
//! Three policies, one per parent code:
//! * **Global** (SPHYNX): one Δt = min over all particles of the local
//!   criterion — simple, synchronous, and the source of the load-imbalance
//!   the paper measures when particle costs differ;
//! * **Individual** (ChaNGa): power-of-two block rungs so cheap particles
//!   step rarely — the "multi-time-stepping" performance factor §1 calls
//!   out, and why ChaNGa wins on the centrally-condensed Evrard test;
//! * **Adaptive** (SPH-flow): a global step recomputed each step with a
//!   growth limiter.
//!
//! The local criterion combines the CFL/signal-velocity bound
//! `h / (c + 1.2(αc + βh max(0, −∇·v)))` (Monaghan 1992) with the force
//! bound `√(h/|a|)`.

use crate::config::SphConfig;
use crate::particles::ParticleSystem;

/// A pathological time-step state, detected instead of aborting the
/// process. A distributed run must be able to surface this through the
/// step driver (and, in a real deployment, trigger a checkpoint-restore)
/// rather than `abort()`ing every rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeStepError {
    /// A per-particle bound was NaN — e.g. a NaN-poisoned acceleration or
    /// sound speed flowed into the criterion.
    NonFinite {
        /// Index of the first offending particle.
        particle: usize,
    },
    /// A per-particle bound was zero or negative — e.g. an infinite sound
    /// speed collapsed the CFL criterion to zero.
    NonPositive {
        /// Index of the first offending particle.
        particle: usize,
        /// The offending value.
        dt: f64,
    },
}

impl std::fmt::Display for TimeStepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeStepError::NonFinite { particle } => {
                write!(f, "particle {particle}: NaN time-step bound (poisoned state)")
            }
            TimeStepError::NonPositive { particle, dt } => {
                write!(f, "particle {particle}: non-positive time-step bound {dt}")
            }
        }
    }
}

impl std::error::Error for TimeStepError {}

/// Per-particle stable time-step from the CFL and force criteria.
/// Requires `cs`, `div_v` and `a` to be current.
///
/// NaN inputs (a poisoned acceleration or sound speed) propagate to a NaN
/// bound instead of being silently dropped by IEEE `min`, so [`global_dt`]
/// can report the corruption.
pub fn per_particle_dt(sys: &ParticleSystem, cfg: &SphConfig) -> Vec<f64> {
    let alpha = cfg.viscosity.alpha;
    let beta = cfg.viscosity.beta;
    (0..sys.len())
        .map(|i| {
            let h = sys.h[i];
            let compress = (-sys.div_v[i]).max(0.0);
            let v_sig = sys.cs[i] + 1.2 * (alpha * sys.cs[i] + beta * h * compress);
            let dt_cfl = if v_sig.is_nan() {
                f64::NAN
            } else if v_sig > 0.0 {
                h / v_sig
            } else {
                f64::INFINITY
            };
            let a = sys.a[i].norm();
            let dt_force = if a.is_nan() {
                f64::NAN
            } else if a > 0.0 {
                (h / a).sqrt()
            } else {
                f64::INFINITY
            };
            let bound =
                if dt_cfl.is_nan() || dt_force.is_nan() { f64::NAN } else { dt_cfl.min(dt_force) };
            cfg.cfl * bound
        })
        .collect()
}

/// Global time-step: the minimum of the per-particle bounds.
///
/// A NaN or non-positive bound is reported as a [`TimeStepError`] naming
/// the offending particle (the pre-fix `assert!` aborted the whole
/// process, taking every rank of a distributed run with it). The
/// reduction is exact (`min` is order-independent), so distributed
/// drivers may reduce per-rank minima in any order and still agree
/// bit-for-bit with the single-rank result.
pub fn global_dt(dts: &[f64]) -> Result<f64, TimeStepError> {
    validate_dts(dts)?;
    Ok(finalize_global_dt(reduce_min_dt(dts)))
}

/// Validate every per-particle bound without reducing: NaN or
/// non-positive entries surface as a [`TimeStepError`] naming the first
/// offending particle. Split out so a distributed driver can validate on
/// the owners and reduce through its exchange carrier while keeping the
/// exact error semantics of [`global_dt`].
pub fn validate_dts(dts: &[f64]) -> Result<(), TimeStepError> {
    for (particle, &d) in dts.iter().enumerate() {
        if d.is_nan() {
            return Err(TimeStepError::NonFinite { particle });
        }
        if d <= 0.0 {
            return Err(TimeStepError::NonPositive { particle, dt: d });
        }
    }
    Ok(())
}

/// Exact order-independent `min` over validated bounds (`INFINITY` when
/// empty — the reduction identity a distributed min-reduce also uses).
pub(crate) fn reduce_min_dt(dts: &[f64]) -> f64 {
    dts.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Turn a reduced minimum into the Global-policy step.
pub fn finalize_global_dt(reduced_min: f64) -> f64 {
    if reduced_min.is_finite() {
        reduced_min
    } else {
        // Cold, static, force-free gas: any step is stable; pick unity.
        1.0
    }
}

/// Turn a reduced minimum into the Adaptive-policy step (SPH-flow): the
/// Global step limited to `growth_limit × previous` so the step cannot
/// explode after a transient.
pub fn finalize_adaptive_dt(reduced_min: f64, previous: f64, growth_limit: f64) -> f64 {
    let raw = finalize_global_dt(reduced_min);
    if previous > 0.0 {
        raw.min(previous * growth_limit)
    } else {
        raw
    }
}

/// Block-time-step rung assignment (ChaNGa).
///
/// Rung `r` steps with `Δt_max / 2^r`; a particle needing `dt_i` lands on
/// the smallest rung whose step does not exceed `dt_i`, capped at
/// `max_rungs`.
///
/// The `log2().ceil()` guess is only a seed: floating-point rounding at
/// exact power-of-two ratios can land it one rung off in either direction
/// (needlessly halving the step, or — worse — stepping past the stability
/// bound). The assignment is therefore post-verified in exact arithmetic:
/// `Δt_max / 2^r ≤ dt_i < Δt_max / 2^(r−1)` holds for every returned rung
/// below the cap (power-of-two divisions of a finite f64 are exact).
pub fn assign_rungs(dts: &[f64], dt_max: f64, max_rungs: u8) -> Vec<u8> {
    assert!(dt_max > 0.0);
    // 2^r via powi: exact for every u8 rung (2^255 is representable),
    // where `1u64 << r` would overflow from rung 64 on.
    let rung_dt = |r: u32| dt_max / 2f64.powi(r as i32);
    dts.iter()
        .map(|&dt| {
            if !dt.is_finite() || dt >= dt_max {
                return 0;
            }
            let mut r = ((dt_max / dt).log2().ceil().max(0.0) as u32).min(max_rungs as u32);
            // Stability: deepen while the rung step exceeds the bound.
            while r < max_rungs as u32 && rung_dt(r) > dt {
                r += 1;
            }
            // Minimality: climb while the rung above is also stable.
            while r > 0 && rung_dt(r - 1) <= dt {
                r -= 1;
            }
            r as u8
        })
        .collect()
}

/// Which rungs are active at a given substep of the macro-step.
///
/// A macro-step of `Δt_max` is divided into `2^deepest` substeps; the
/// particles on rung `r` are kicked on substeps that are multiples of
/// `2^(deepest − r)`. Substep 0 activates everyone.
pub fn rung_is_active(rung: u8, substep: u64, deepest: u8) -> bool {
    debug_assert!(rung <= deepest);
    let period = 1u64 << (deepest - rung);
    substep.is_multiple_of(period)
}

/// Indices of particles active at `substep` under the given rungs.
pub fn active_at_substep(rungs: &[u8], substep: u64, deepest: u8) -> Vec<u32> {
    rungs
        .iter()
        .enumerate()
        .filter(|&(_, &r)| rung_is_active(r.min(deepest), substep, deepest))
        .map(|(i, _)| i as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::{Aabb, Periodicity, Vec3};

    fn static_system(n: usize) -> ParticleSystem {
        ParticleSystem::new(
            (0..n).map(|i| Vec3::splat(i as f64 * 0.01)).collect(),
            vec![Vec3::ZERO; n],
            vec![1.0; n],
            vec![1.0; n],
            0.1,
            Periodicity::open(Aabb::unit()),
        )
    }

    #[test]
    fn hot_gas_limits_the_step() {
        let mut sys = static_system(4);
        sys.cs = vec![1.0, 1.0, 10.0, 1.0]; // one hot particle
        let cfg = SphConfig::default();
        let dts = per_particle_dt(&sys, &cfg);
        assert!(dts[2] < dts[0]);
        assert!((global_dt(&dts).unwrap() - dts[2]).abs() < 1e-15);
    }

    #[test]
    fn force_criterion_engages() {
        let mut sys = static_system(2);
        sys.cs = vec![0.0; 2]; // silent gas: CFL unbounded
        sys.a[1] = Vec3::new(100.0, 0.0, 0.0);
        let cfg = SphConfig::default();
        let dts = per_particle_dt(&sys, &cfg);
        assert!(dts[0].is_infinite());
        let expected = cfg.cfl * (sys.h[1] / 100.0_f64).sqrt();
        assert!((dts[1] - expected).abs() < 1e-12);
    }

    #[test]
    fn compression_tightens_cfl() {
        let mut sys = static_system(2);
        sys.cs = vec![1.0; 2];
        sys.div_v = vec![0.0, -50.0]; // strongly converging at particle 1
        let cfg = SphConfig::default();
        let dts = per_particle_dt(&sys, &cfg);
        assert!(dts[1] < dts[0]);
        // Expansion must NOT tighten the step.
        sys.div_v = vec![0.0, 50.0];
        let dts2 = per_particle_dt(&sys, &cfg);
        assert!((dts2[1] - dts2[0]).abs() < 1e-15);
    }

    #[test]
    fn cold_static_gas_gets_unit_step() {
        let dts = vec![f64::INFINITY; 3];
        assert_eq!(global_dt(&dts).unwrap(), 1.0);
    }

    #[test]
    fn non_positive_dt_is_an_error_not_an_abort() {
        // An infinite sound speed collapses the CFL bound to zero; the
        // pre-fix assert! aborted the process here.
        let err = global_dt(&[0.5, 0.0, 0.2]).unwrap_err();
        assert_eq!(err, TimeStepError::NonPositive { particle: 1, dt: 0.0 });
        let err = global_dt(&[-1.0]).unwrap_err();
        assert!(matches!(err, TimeStepError::NonPositive { particle: 0, .. }));
        assert!(err.to_string().contains("non-positive"));
    }

    #[test]
    fn nan_poisoned_acceleration_surfaces_as_error() {
        // Regression: a single NaN acceleration used to vanish through
        // IEEE min (NaN > 0.0 is false → infinite force bound) and the
        // poisoned state stepped on silently.
        let mut sys = static_system(3);
        sys.cs = vec![1.0; 3];
        sys.a[1] = Vec3::new(f64::NAN, 0.0, 0.0);
        let cfg = SphConfig::default();
        let dts = per_particle_dt(&sys, &cfg);
        assert!(dts[1].is_nan(), "NaN acceleration must poison the bound");
        let err = global_dt(&dts).unwrap_err();
        assert_eq!(err, TimeStepError::NonFinite { particle: 1 });
    }

    #[test]
    fn nan_sound_speed_surfaces_as_error() {
        let mut sys = static_system(2);
        sys.cs = vec![1.0, f64::NAN];
        let dts = per_particle_dt(&sys, &SphConfig::default());
        assert!(matches!(global_dt(&dts), Err(TimeStepError::NonFinite { particle: 1 })));
    }

    #[test]
    fn adaptive_growth_is_limited() {
        let dt = finalize_adaptive_dt(10.0, 1.0, 1.1);
        assert!((dt - 1.1).abs() < 1e-15, "growth must be capped: {dt}");
        // Shrinking is immediate.
        let dt = finalize_adaptive_dt(0.1, 1.0, 1.1);
        assert!((dt - 0.1).abs() < 1e-15);
    }

    #[test]
    fn rung_assignment_powers_of_two() {
        let dt_max = 1.0;
        let rungs = assign_rungs(&[1.0, 0.6, 0.3, 0.12, 1e-6], dt_max, 8);
        assert_eq!(rungs, vec![0, 1, 2, 4, 8]); // last capped at max_rungs
    }

    #[test]
    fn rung_step_never_exceeds_particle_dt() {
        let dt_max = 2.0;
        let dts = [1.7, 0.9, 0.4, 0.26];
        let rungs = assign_rungs(&dts, dt_max, 10);
        for (&dt, &r) in dts.iter().zip(&rungs) {
            let rung_dt = dt_max / (1u64 << r) as f64;
            assert!(rung_dt <= dt, "rung {r} step {rung_dt} > allowed {dt}");
        }
    }

    #[test]
    fn exact_power_of_two_ratios_land_on_the_exact_rung() {
        // Regression: FP rounding in log2().ceil() could push a particle
        // whose dt is *exactly* Δt_max/2^k one rung deeper (halving its
        // step for nothing). Power-of-two divisions are exact, so the
        // assignment must hit k precisely.
        for dt_max in [1.0, 3.0, 0.7, 1e-3] {
            for k in 0..12u32 {
                let dt = dt_max / (1u64 << k) as f64;
                let rungs = assign_rungs(&[dt], dt_max, 16);
                assert_eq!(rungs[0] as u32, k, "dt_max={dt_max} k={k}: rung {}", rungs[0]);
            }
        }
    }

    #[test]
    fn deep_rungs_beyond_64_do_not_overflow() {
        // Regression: rung_dt used `1u64 << r`, which overflows (panics in
        // debug) once the seed rung reaches 64 — reachable with a large
        // max_rungs cap and an extreme dt ratio.
        let dt_max = 1.0;
        let dt = dt_max / 2f64.powi(100);
        let rungs = assign_rungs(&[dt, dt * 1.5, f64::INFINITY], dt_max, 200);
        assert_eq!(rungs[0], 100, "exact 2^-100 ratio must land on rung 100");
        assert_eq!(rungs[1], 100, "1.5×2^-100 still fits rung 100");
        assert_eq!(rungs[2], 0);
    }

    #[test]
    fn rungs_are_stable_and_minimal_under_adversarial_ratios() {
        // Sweep dt just above / just below power-of-two boundaries, where
        // the log2 guess rounds either way; the post-verification must
        // keep both invariants: Δt_max/2^r ≤ dt (stability) and
        // Δt_max/2^(r−1) > dt (no needless halving), below the cap.
        let mut rng = sph_math::SplitMix64::new(42);
        let max_rungs = 12u8;
        for _ in 0..2000 {
            let dt_max = rng.uniform(1e-6, 1e3);
            let k = (rng.next_f64() * 11.0) as u32;
            let eps = 1.0 + (rng.uniform(-8.0, 8.0)) * f64::EPSILON;
            let dt = (dt_max / (1u64 << k) as f64) * eps;
            if dt <= 0.0 || !dt.is_finite() {
                continue;
            }
            let r = assign_rungs(&[dt], dt_max, max_rungs)[0];
            let step = dt_max / (1u64 << r) as f64;
            if r < max_rungs {
                assert!(step <= dt, "stability: rung {r} step {step} > dt {dt}");
            }
            if r > 0 {
                let above = dt_max / (1u64 << (r - 1)) as f64;
                assert!(above > dt, "minimality: rung {}'s step {above} also fits dt {dt}", r - 1);
            }
        }
    }

    #[test]
    fn substep_activation_pattern() {
        // deepest = 2 ⇒ 4 substeps. Rung 0 actives at 0; rung 1 at 0, 2;
        // rung 2 at every substep.
        assert!(rung_is_active(0, 0, 2));
        assert!(!rung_is_active(0, 1, 2));
        assert!(!rung_is_active(0, 2, 2));
        assert!(rung_is_active(1, 0, 2));
        assert!(rung_is_active(1, 2, 2));
        assert!(!rung_is_active(1, 1, 2));
        for s in 0..4 {
            assert!(rung_is_active(2, s, 2));
        }
    }

    #[test]
    fn active_lists_match_pattern() {
        let rungs = vec![0, 1, 2, 2];
        assert_eq!(active_at_substep(&rungs, 0, 2), vec![0, 1, 2, 3]);
        assert_eq!(active_at_substep(&rungs, 1, 2), vec![2, 3]);
        assert_eq!(active_at_substep(&rungs, 2, 2), vec![1, 2, 3]);
        assert_eq!(active_at_substep(&rungs, 3, 2), vec![2, 3]);
    }
}
