//! Optimal checkpoint interval (Young 1974; Daly 2006) — the "Optimal
//! interval" requirement of Table 4, after the paper's refs [15, 20, 21].
//!
//! For checkpoint cost `C`, recovery cost `R` and machine MTBF `M`, the
//! wall-time waste of checkpointing every `w` seconds of useful work is
//! minimised near `w* = √(2 C M)` (Young), with Daly's higher-order
//! refinement `w* = √(2CM)·[1 + ⅓√(C/2M) + (C/2M)/9] − C` for `C < 2M`.

/// Young's first-order optimal interval `√(2 C M)`.
pub fn young_interval(checkpoint_cost: f64, mtbf: f64) -> f64 {
    assert!(checkpoint_cost > 0.0 && mtbf > 0.0);
    (2.0 * checkpoint_cost * mtbf).sqrt()
}

/// Daly's refined optimal interval.
pub fn daly_interval(checkpoint_cost: f64, mtbf: f64) -> f64 {
    assert!(checkpoint_cost > 0.0 && mtbf > 0.0);
    let c = checkpoint_cost;
    let m = mtbf;
    if c >= 2.0 * m {
        // Degenerate regime: checkpointing costs more than the MTBF —
        // checkpoint every MTBF.
        return m;
    }
    let x = (c / (2.0 * m)).sqrt();
    young_interval(c, m) * (1.0 + x / 3.0 + x * x / 9.0) - c
}

/// Expected fraction of wall time wasted (checkpoint overhead +
/// expected rework + recovery) when checkpointing every `w` seconds of
/// work, under exponential failures with MTBF `M` (first-order model).
pub fn expected_waste(w: f64, checkpoint_cost: f64, recovery_cost: f64, mtbf: f64) -> f64 {
    assert!(w > 0.0 && checkpoint_cost >= 0.0 && recovery_cost >= 0.0 && mtbf > 0.0);
    // Per period of useful work w: overhead C, failure probability
    // (w + C)/M, expected rework w/2 + recovery R.
    let period = w + checkpoint_cost;
    let p_fail = (period / mtbf).min(1.0);
    let waste = checkpoint_cost + p_fail * (w / 2.0 + recovery_cost);
    waste / (w + waste)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_formula() {
        // C = 50 s, M = 10000 s ⇒ w* = √(2·50·10⁴) = 1000 s.
        assert!((young_interval(50.0, 10_000.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn daly_close_to_young_for_small_c_over_m() {
        let (c, m) = (10.0, 1_000_000.0);
        let y = young_interval(c, m);
        let d = daly_interval(c, m);
        assert!((d - y).abs() / y < 0.01, "young {y}, daly {d}");
    }

    #[test]
    fn daly_degenerate_regime() {
        // C ≥ 2M: interval collapses to the MTBF.
        assert_eq!(daly_interval(100.0, 40.0), 40.0);
    }

    #[test]
    fn optimal_interval_minimises_waste() {
        let (c, r, m) = (30.0, 60.0, 20_000.0);
        let w_opt = daly_interval(c, m);
        let waste_opt = expected_waste(w_opt, c, r, m);
        // The optimum must beat 4× shorter and 4× longer intervals.
        let waste_short = expected_waste(w_opt / 4.0, c, r, m);
        let waste_long = expected_waste(w_opt * 4.0, c, r, m);
        assert!(waste_opt < waste_short, "{waste_opt} !< {waste_short}");
        assert!(waste_opt < waste_long, "{waste_opt} !< {waste_long}");
    }

    #[test]
    fn waste_increases_with_failure_rate() {
        let w = 500.0;
        let low = expected_waste(w, 30.0, 60.0, 100_000.0);
        let high = expected_waste(w, 30.0, 60.0, 5_000.0);
        assert!(high > low);
    }

    #[test]
    fn waste_is_a_fraction() {
        for &(w, c, r, m) in
            &[(100.0, 10.0, 10.0, 1e4), (1e4, 100.0, 500.0, 1e3), (1.0, 0.1, 0.1, 1e6)]
        {
            let f = expected_waste(w, c, r, m);
            assert!((0.0..1.0).contains(&f), "waste {f}");
        }
    }

    // --- edge cases: the formulas must reject nonsense loudly, not
    // return a quietly wrong interval ---

    #[test]
    #[should_panic]
    fn young_rejects_zero_mtbf() {
        young_interval(10.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn young_rejects_zero_cost() {
        young_interval(0.0, 1e4);
    }

    #[test]
    #[should_panic]
    fn daly_rejects_negative_mtbf() {
        daly_interval(10.0, -5.0);
    }

    #[test]
    #[should_panic]
    fn daly_rejects_nonpositive_cost() {
        daly_interval(0.0, 1e4);
    }

    #[test]
    #[should_panic]
    fn waste_rejects_zero_work_interval() {
        expected_waste(0.0, 10.0, 10.0, 1e4);
    }

    #[test]
    #[should_panic]
    fn waste_rejects_negative_recovery_cost() {
        expected_waste(100.0, 10.0, -1.0, 1e4);
    }

    #[test]
    fn daly_degenerate_boundary_is_continuous_in_regime_choice() {
        // Exactly C = 2M sits in the degenerate branch: interval = MTBF.
        let m = 50.0;
        assert_eq!(daly_interval(2.0 * m, m), m);
        // Just below the boundary the refined formula applies and stays
        // positive and finite.
        let below = daly_interval(2.0 * m - 1e-9, m);
        assert!(below.is_finite() && below > 0.0, "interval {below}");
    }

    #[test]
    fn waste_increases_monotonically_away_from_the_optimum() {
        // Walk both directions from w*: each doubling away from the
        // optimum must cost at least as much as the previous point.
        let (c, r, m) = (30.0, 60.0, 20_000.0);
        let w_opt = daly_interval(c, m);
        let mut prev = expected_waste(w_opt, c, r, m);
        for k in 1..=4 {
            let next = expected_waste(w_opt * f64::powi(2.0, k), c, r, m);
            assert!(next >= prev, "waste fell moving away from optimum: {prev} → {next}");
            prev = next;
        }
        let mut prev = expected_waste(w_opt, c, r, m);
        for k in 1..=4 {
            let next = expected_waste(w_opt / f64::powi(2.0, k), c, r, m);
            assert!(next >= prev, "waste fell moving away from optimum: {prev} → {next}");
            prev = next;
        }
    }
}
