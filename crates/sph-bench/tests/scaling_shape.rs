//! Integration: the strong-scaling experiments reproduce the *shape* of
//! Figs. 1–3 — who wins, by roughly what factor, where scaling stalls.
//! (Absolute seconds are calibrated; shapes are measured.)

use sph_bench::{wire_experiment, ExperimentScale};
use sph_cluster::{piz_daint, scaling_experiment, ScalingConfig, ScalingRow};
use sph_parents::{changa, sphflow, sphynx, CodeSetup, Scenario};

const N: usize = 4_000;

fn rows_for(setup: &CodeSetup, scenario: Scenario) -> Vec<ScalingRow> {
    let scale = ExperimentScale { particles: N, ..Default::default() };
    let (mut sim, model) = wire_experiment(setup, scenario, piz_daint(), scale);
    let cfg = ScalingConfig { core_counts: vec![12, 48, 192, 768], steps: 2 };
    let (rows, _) = scaling_experiment(&mut sim, &model, &cfg).unwrap();
    rows
}

#[test]
fn every_code_speeds_up_then_stalls() {
    // Fig. 1–3 common shape: good strong scaling while particles/core is
    // high, collapsing efficiency once it is not ("scaling stalls when
    // there are not enough particles/core").
    for (setup, scenario) in [
        (sphynx(), Scenario::SquarePatch),
        (sphflow(), Scenario::SquarePatch),
        (sphynx(), Scenario::Evrard),
    ] {
        let rows = rows_for(&setup, scenario);
        let t12 = rows[0].mean_step_time;
        let t48 = rows[1].mean_step_time;
        let t768 = rows[3].mean_step_time;
        assert!(t48 < t12 / 2.0, "{} {scenario:?}: no early speedup ({t12} → {t48})", setup.name);
        let eff_48 = t12 / t48 / 4.0;
        let eff_768 = t12 / t768 / 64.0;
        assert!(
            eff_768 < 0.7 * eff_48,
            "{} {scenario:?}: no stall (eff {eff_48} → {eff_768})",
            setup.name
        );
    }
}

#[test]
fn changa_square_is_much_slower_than_sphynx_square() {
    // Fig. 2a vs Fig. 1a at matched cores: ~19× at the 12-core anchor.
    let changa_rows = rows_for(&changa(), Scenario::SquarePatch);
    let sphynx_rows = rows_for(&sphynx(), Scenario::SquarePatch);
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
    let square = rows_for(&changa(), Scenario::SquarePatch);
    let evrard = rows_for(&changa(), Scenario::Evrard);
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
    let square = rows_for(&sphynx(), Scenario::SquarePatch);
    let evrard = rows_for(&sphynx(), Scenario::Evrard);
    let lb_square = square[2].mean_load_balance; // 192 cores
    let lb_evrard = evrard[2].mean_load_balance;
    assert!(
        lb_evrard < lb_square,
        "Evrard LB {lb_evrard} should be worse than square LB {lb_square}"
    );
}

#[test]
fn particles_per_core_column_matches_problem_size() {
    let rows = rows_for(&sphflow(), Scenario::SquarePatch);
    for r in &rows {
        let n = (N as f64).cbrt().round().powi(3);
        assert!((r.particles_per_core - n / r.cores as f64).abs() < 1.0);
    }
}
