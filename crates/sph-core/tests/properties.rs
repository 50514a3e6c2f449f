//! Property-based tests of the SPH core invariants.

use proptest::prelude::*;
use sph_core::config::{SphConfig, ViscosityConfig};
use sph_core::eos::IdealGas;
use sph_core::particles::ParticleSystem;
use sph_core::timestep::{assign_rungs, global_dt, per_particle_dt, rung_is_active};
use sph_core::viscosity::{balsara_factor, pair_viscosity};
use sph_math::{Aabb, Periodicity, Vec3};

/// Distance in representable doubles between two finite, same-sign
/// values (0 = bit-identical).
fn ulp_distance(a: f64, b: f64) -> u64 {
    assert!(a.is_finite() && b.is_finite() && a.is_sign_positive() == b.is_sign_positive());
    a.to_bits().abs_diff(b.to_bits())
}

proptest! {
    #[test]
    fn energy_from_pressure_inverts_pressure_to_one_ulp(
        gamma in 1.1..6.9_f64,
        rho in 1e-6..1e6_f64,
        p in 1e-6..1e6_f64,
    ) {
        // Both directions divide/multiply by the *same* rounded factor
        // fl((γ−1)·ρ), so the round trip accumulates exactly two
        // rounding errors ≤ ½ulp each — the result can differ from the
        // input by at most one representable double. This is what makes
        // pressure-specified initial conditions (Sod, Gresho, KH,
        // square patch) reproduce their pressure fields faithfully.
        let eos = IdealGas::new(gamma);
        let u = eos.energy_from_pressure(rho, p);
        let p2 = eos.pressure(rho, u);
        let d = ulp_distance(p, p2);
        prop_assert!(d <= 1, "p = {p} round-trips to {p2} ({d} ulps) at γ = {gamma}, ρ = {rho}");
    }

    #[test]
    fn eos_pressure_energy_roundtrip(gamma in 1.1..6.9_f64, rho in 0.01..100.0_f64, u in 0.0..100.0_f64) {
        let eos = IdealGas::new(gamma);
        let p = eos.pressure(rho, u);
        prop_assert!(p >= 0.0);
        let u_back = eos.energy_from_pressure(rho, p);
        prop_assert!((u_back - u).abs() < 1e-9 * (1.0 + u));
        // Sound speed finite and monotone in u.
        let cs = eos.sound_speed(rho, u);
        prop_assert!(cs.is_finite() && cs >= 0.0);
        prop_assert!(eos.sound_speed(rho, u + 1.0) >= cs);
    }

    #[test]
    fn viscosity_never_negative_and_symmetric(
        d in (-1.0..1.0_f64, -1.0..1.0_f64, -1.0..1.0_f64),
        dv in (-5.0..5.0_f64, -5.0..5.0_f64, -5.0..5.0_f64),
        h in (0.01..0.5_f64, 0.01..0.5_f64),
        cs in (0.1..10.0_f64, 0.1..10.0_f64),
        rho in (0.1..10.0_f64, 0.1..10.0_f64)
    ) {
        let cfg = ViscosityConfig::default();
        let d = Vec3::new(d.0, d.1, d.2);
        let dv = Vec3::new(dv.0, dv.1, dv.2);
        prop_assume!(d.norm() > 1e-6);
        let pi = pair_viscosity(&cfg, d, dv, h.0, h.1, cs.0, cs.1, rho.0, rho.1, 1.0, 1.0);
        prop_assert!(pi >= 0.0, "viscosity must dissipate, Π = {pi}");
        // i↔j exchange symmetry.
        let pj = pair_viscosity(&cfg, -d, -dv, h.1, h.0, cs.1, cs.0, rho.1, rho.0, 1.0, 1.0);
        prop_assert!((pi - pj).abs() < 1e-12 * (1.0 + pi));
    }

    #[test]
    fn balsara_factor_in_unit_interval(div in -100.0..100.0_f64, curl in 0.0..100.0_f64, cs in 0.0..10.0_f64, h in 0.001..1.0_f64) {
        let f = balsara_factor(div, curl, cs, h);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn global_dt_is_the_minimum(dts in prop::collection::vec(0.001..10.0_f64, 1..50)) {
        let dt = global_dt(&dts).unwrap();
        let min = dts.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(dt, min);
    }

    #[test]
    fn rung_assignment_respects_stability(dts in prop::collection::vec(0.001..10.0_f64, 1..50), max_rungs in 1u8..12) {
        let dt_max = dts.iter().cloned().fold(0.0_f64, f64::max);
        prop_assume!(dt_max > 0.0);
        let rungs = assign_rungs(&dts, dt_max, max_rungs);
        for (&dt, &r) in dts.iter().zip(&rungs) {
            prop_assert!(r <= max_rungs);
            let rung_dt = dt_max / (1u64 << r) as f64;
            // Stable unless capped at the deepest rung — exactly, not to a
            // tolerance: the assignment is post-verified in exact
            // power-of-two arithmetic.
            if r < max_rungs {
                prop_assert!(rung_dt <= dt, "rung {r} step {rung_dt} > {dt}");
            }
        }
    }

    #[test]
    fn rung_activation_counts_are_powers_of_two(rung in 0u8..6, deepest in 0u8..6) {
        let rung = rung.min(deepest);
        let substeps = 1u64 << deepest;
        let active = (0..substeps).filter(|&s| rung_is_active(rung, s, deepest)).count() as u64;
        prop_assert_eq!(active, 1u64 << rung);
    }

    #[test]
    fn per_particle_dt_monotone_in_sound_speed(cs in 0.1..10.0_f64, factor in 1.1..10.0_f64) {
        let mut sys = ParticleSystem::new(
            vec![Vec3::ZERO, Vec3::X],
            vec![Vec3::ZERO; 2],
            vec![1.0; 2],
            vec![1.0; 2],
            0.1,
            Periodicity::open(Aabb::unit()),
        );
        let cfg = SphConfig::default();
        sys.cs = vec![cs, cs * factor];
        let dts = per_particle_dt(&sys, &cfg);
        prop_assert!(dts[1] < dts[0], "hotter particle must have smaller dt");
    }

    #[test]
    fn subset_preserves_fields(indices in prop::collection::vec(0u32..20, 1..20)) {
        let n = 20;
        let sys = ParticleSystem::new(
            (0..n).map(|i| Vec3::splat(i as f64 * 0.01)).collect(),
            (0..n).map(|i| Vec3::splat(-(i as f64))).collect(),
            (1..=n).map(|i| i as f64).collect(),
            (0..n).map(|i| i as f64 * 0.5).collect(),
            0.1,
            Periodicity::open(Aabb::unit()),
        );
        let sub = sys.subset(&indices);
        prop_assert_eq!(sub.len(), indices.len());
        for (k, &i) in indices.iter().enumerate() {
            prop_assert_eq!(sub.x[k], sys.x[i as usize]);
            prop_assert_eq!(sub.m[k], sys.m[i as usize]);
            prop_assert_eq!(sub.u[k], sys.u[i as usize]);
        }
    }

    #[test]
    fn scatter_from_inverts_subset(picks in prop::collection::hash_set(0u32..20, 1..20)) {
        // Per-rank snapshots scattered back into a zero-filled blank
        // reassemble exactly the system they were cut from, every field
        // — the checkpoint-restore path.
        let n = 20usize;
        let mut sys = ParticleSystem::new(
            (0..n).map(|i| Vec3::splat(i as f64 * 0.01)).collect(),
            (0..n).map(|i| Vec3::splat(-(i as f64))).collect(),
            (1..=n).map(|i| i as f64).collect(),
            (0..n).map(|i| i as f64 * 0.5).collect(),
            0.1,
            Periodicity::open(Aabb::unit()),
        );
        for i in 0..n {
            sys.rho[i] = 1.0 + i as f64;
            sys.a[i] = Vec3::splat(0.5 * i as f64);
            sys.c_iad[i].m[1][2] = i as f64;
            sys.rung[i] = i as u8;
        }
        let mut ids: Vec<u32> = picks.into_iter().collect();
        ids.sort_unstable();
        let rest: Vec<u32> = (0..n as u32).filter(|i| !ids.contains(i)).collect();

        let mut rebuilt = sys.subset(&[]);
        rebuilt.resize_zeroed(n);
        rebuilt.scatter_from(&ids, &sys.subset(&ids));
        rebuilt.scatter_from(&rest, &sys.subset(&rest));
        // `Debug` prints every SoA array (there is no `PartialEq`).
        prop_assert_eq!(format!("{rebuilt:?}"), format!("{sys:?}"));
    }
}
