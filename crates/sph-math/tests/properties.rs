//! Property-based tests of the math substrate.

use proptest::prelude::*;
use sph_math::{kahan_sum, Aabb, KahanAccumulator, Mat3, Periodicity, SplitMix64, Vec3};

/// `|a-b| <= tol * max(1, |a|, |b|)`.
fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * 1.0_f64.max(a.abs()).max(b.abs())
}

fn diagonal(x: f64, y: f64, z: f64) -> Mat3 {
    Mat3 { m: [[x, 0.0, 0.0], [0.0, y, 0.0], [0.0, 0.0, z]] }
}

/// Distance in units in the last place between two finite doubles.
fn ulp_distance(a: f64, b: f64) -> u64 {
    // Standard IEEE-754 total-order key: flip all bits of negatives, set
    // the sign bit of non-negatives. Strictly monotone over the whole
    // line, so distances through zero count every representable step.
    fn key(x: f64) -> u64 {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }
    key(a).abs_diff(key(b))
}

#[test]
fn ulp_distance_is_sign_aware() {
    // Guard for the helper itself: ±1.0 are far apart, not distance 0.
    assert!(ulp_distance(-1.0, 1.0) > 1 << 60);
    assert_eq!(ulp_distance(1.0, 1.0), 0);
    assert_eq!(ulp_distance(0.0, f64::from_bits(1)), 1);
    // −0.0 and +0.0 are adjacent steps on the total-order line.
    assert_eq!(ulp_distance(-0.0, 0.0), 1);
    assert_eq!(ulp_distance(-0.0, f64::from_bits(1)), 2);
}

fn finite_f64() -> impl Strategy<Value = f64> {
    -1e6..1e6_f64
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (finite_f64(), finite_f64(), finite_f64()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #[test]
    fn triangle_inequality(a in vec3(), b in vec3()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-6);
    }

    #[test]
    fn cauchy_schwarz(a in vec3(), b in vec3()) {
        prop_assert!(a.dot(b).abs() <= a.norm() * b.norm() * (1.0 + 1e-12) + 1e-12);
    }

    #[test]
    fn cross_product_orthogonality(a in vec3(), b in vec3()) {
        let c = a.cross(b);
        let scale = a.norm() * b.norm();
        prop_assert!(c.dot(a).abs() <= 1e-6 * scale.max(1.0) * a.norm().max(1.0));
        prop_assert!(c.dot(b).abs() <= 1e-6 * scale.max(1.0) * b.norm().max(1.0));
    }

    #[test]
    fn vector_algebra_distributes(a in vec3(), b in vec3(), s in -100.0..100.0_f64) {
        let lhs = (a + b) * s;
        let rhs = a * s + b * s;
        prop_assert!((lhs - rhs).norm() < 1e-6 * (1.0 + lhs.norm()));
    }

    #[test]
    fn mat3_inverse_roundtrip(
        d in (0.1..10.0_f64, 0.1..10.0_f64, 0.1..10.0_f64),
        v in vec3()
    ) {
        // Diagonally dominant ⇒ comfortably invertible.
        let mut m = diagonal(d.0 + 3.0, d.1 + 3.0, d.2 + 3.0);
        let v_small = v * (1.0 / (1.0 + v.norm())); // |entries| < 1
        m.add_scaled_outer(v_small, 0.1);
        let inv = m.inverse().expect("dominant matrix must invert");
        let prod = m * inv;
        let identity = diagonal(1.0, 1.0, 1.0);
        for (row, id_row) in prod.m.iter().zip(&identity.m) {
            for (x, id) in row.iter().zip(id_row) {
                prop_assert!((x - id).abs() < 1e-9, "prod = {prod:?}");
            }
        }
    }

    #[test]
    fn mat3_det_of_product(s in 0.5..2.0_f64, t in 0.5..2.0_f64) {
        let a = diagonal(s, 2.0 * s, 0.5);
        let b = diagonal(t, 1.0, 3.0 * t);
        let lhs = (a * b).determinant();
        let rhs = a.determinant() * b.determinant();
        prop_assert!(approx_eq(lhs, rhs, 1e-10));
    }

    #[test]
    fn periodic_wrap_idempotent_and_inside(p in vec3()) {
        let per = Periodicity::fully_periodic(Aabb::unit());
        let w = per.wrap(p);
        let pad = Vec3::splat(1e-9);
        let padded = Aabb::new(per.domain.lo - pad, per.domain.hi + pad);
        prop_assert!(padded.contains(w), "wrapped {w:?} outside");
        prop_assert!((per.wrap(w) - w).norm() < 1e-9);
    }

    #[test]
    fn periodic_displacement_antisymmetric(a in vec3(), b in vec3()) {
        let per = Periodicity::fully_periodic(Aabb::unit());
        let (a, b) = (per.wrap(a), per.wrap(b));
        let d1 = per.displacement(a, b);
        let d2 = per.displacement(b, a);
        prop_assert!((d1 + d2).norm() < 1e-9, "d1 {d1:?} d2 {d2:?}");
    }

    #[test]
    fn minimum_image_is_shortest(a in vec3(), b in vec3()) {
        let per = Periodicity::fully_periodic(Aabb::unit());
        let (a, b) = (per.wrap(a), per.wrap(b));
        let d = per.distance(a, b);
        // No shifted image may be closer.
        for sx in [-1.0, 0.0, 1.0] {
            for sy in [-1.0, 0.0, 1.0] {
                for sz in [-1.0, 0.0, 1.0] {
                    let shifted = b + Vec3::new(sx, sy, sz);
                    prop_assert!(d <= (a - shifted).norm() + 1e-9);
                }
            }
        }
    }

    #[test]
    fn compensated_sums_agree_with_naive_on_benign_input(values in prop::collection::vec(-1e3..1e3_f64, 0..300)) {
        let naive: f64 = values.iter().sum();
        let k = kahan_sum(&values);
        let scale = values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!((k - naive).abs() < 1e-9 * scale);
    }

    #[test]
    fn chunked_kahan_merge_matches_sequential_to_one_ulp(
        values in prop::collection::vec(-1e12..1e12_f64, 0..600),
        chunk in 1usize..64,
    ) {
        // The parallel reductions split a sum into fixed chunks, fold each
        // chunk into its own accumulator, and merge in chunk order. The
        // Kahan–Babuška–Neumaier merge must reproduce the sequential
        // compensated sum to 1 ulp — this is load-bearing for the
        // bit-stability claims of the SPH hot paths.
        let mut sequential = KahanAccumulator::new();
        for &v in &values {
            sequential.add(v);
        }
        let mut merged = KahanAccumulator::new();
        for piece in values.chunks(chunk) {
            let mut acc = KahanAccumulator::new();
            for &v in piece {
                acc.add(v);
            }
            merged.merge(&acc);
        }
        let (s, m) = (sequential.total(), merged.total());
        prop_assert!(
            ulp_distance(s, m) <= 1,
            "sequential {s:e} vs chunked-merged {m:e} ({} ulps apart, chunk {chunk})",
            ulp_distance(s, m)
        );
    }

    #[test]
    fn kahan_is_permutation_stable(mut values in prop::collection::vec(-1e6..1e6_f64, 1..100)) {
        let forward = kahan_sum(&values);
        values.reverse();
        let backward = kahan_sum(&values);
        let scale = values.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        prop_assert!((forward - backward).abs() < 1e-9 * scale);
    }

    #[test]
    fn splitmix_derive_is_pure(seed in any::<u64>()) {
        let a = SplitMix64::new(seed);
        let b = SplitMix64::new(seed);
        prop_assert_eq!(a.derive("x"), b.derive("x"));
        prop_assert_ne!(a.derive("x"), a.derive("y"));
    }

    #[test]
    fn aabb_union_contains_both(
        a in (vec3(), 0.1..10.0_f64),
        b in (vec3(), 0.1..10.0_f64)
    ) {
        let ba = Aabb::cube(a.0, a.1);
        let bb = Aabb::cube(b.0, b.1);
        let u = ba.union(&bb);
        prop_assert!(u.contains(ba.lo) && u.contains(ba.hi));
        prop_assert!(u.contains(bb.lo) && u.contains(bb.hi));
    }

    #[test]
    fn aabb_dist_consistent_with_contains(c in vec3(), half in 0.1..5.0_f64, p in vec3()) {
        let b = Aabb::cube(c, half);
        if b.contains(p) {
            prop_assert_eq!(b.dist_sq_to_point(p), 0.0);
        } else {
            prop_assert!(b.dist_sq_to_point(p) > 0.0);
        }
    }

    #[test]
    fn octants_contain_their_centers_and_tile(c in vec3(), half in 0.1..5.0_f64) {
        let b = Aabb::cube(c, half);
        let mut vol = 0.0;
        for i in 0..8 {
            let o = b.octant(i);
            prop_assert!(b.contains(o.center()));
            vol += o.volume();
        }
        prop_assert!(approx_eq(vol, b.volume(), 1e-9));
    }
}
