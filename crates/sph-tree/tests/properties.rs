//! Property-based tests of the spatial substrate: the octree must index
//! any particle set, Barnes–Hut must stay within its error envelope, and
//! the cell-list ball queries must equal the O(N²) brute-force ball (sets
//! *and* clamp behaviour) — the one neighbour oracle.

use proptest::prelude::*;
use sph_math::{Aabb, Periodicity, Vec3};
use sph_tree::gravity::direct_field;
use sph_tree::{
    build_csr_lists, CellGrid, GravityConfig, GravitySolver, MultipoleOrder, Octree, OctreeConfig,
    TraversalStats,
};

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (0.0..1.0_f64, 0.0..1.0_f64, 0.0..1.0_f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        n,
    )
}

/// Brute-force reference: ids within the radius as clamped by the grid's
/// formula (half each periodic span, shaved by 1e-9 relative), under the
/// minimum-image metric.
fn brute_force(pts: &[Vec3], per: &Periodicity, center: Vec3, r: f64) -> Vec<u32> {
    let mut clamped = r;
    for axis in 0..3 {
        if per.periodic[axis] {
            let span = per.domain.hi.component(axis) - per.domain.lo.component(axis);
            clamped = clamped.min(0.5 * span * (1.0 - 1e-9));
        }
    }
    let r2 = clamped * clamped;
    (0..pts.len() as u32).filter(|&i| per.distance_sq(pts[i as usize], center) <= r2).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn octree_indexes_every_particle_once(pts in points(1..400), leaf in 1usize..64) {
        let tree = Octree::build(
            &pts,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: leaf },
        );
        let mut seen = vec![false; pts.len()];
        for &i in tree.order() {
            prop_assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Leaf ranges tile [0, n).
        let mut ranges: Vec<(u32, u32)> = tree
            .nodes()
            .iter()
            .filter(|n| n.is_leaf())
            .map(|n| (n.start, n.end))
            .collect();
        ranges.sort_unstable();
        let mut cursor = 0;
        for (s, e) in ranges {
            prop_assert_eq!(s, cursor);
            cursor = e;
        }
        prop_assert_eq!(cursor, pts.len() as u32);
    }

    #[test]
    fn barnes_hut_stays_within_error_envelope(pts in points(50..250)) {
        let masses = vec![1.0 / pts.len() as f64; pts.len()];
        let tree = Octree::build(
            &pts,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 16 },
        );
        let solver = GravitySolver::new(
            &tree,
            &masses,
            GravityConfig { g: 1.0, theta: 0.4, softening: 1e-2, order: MultipoleOrder::Quadrupole },
        );
        // Mass invariant.
        prop_assert!((solver.total_mass() - 1.0).abs() < 1e-12);
        // Acceleration error vs direct sum bounded at θ = 0.4.
        let mut stats = TraversalStats::default();
        for i in (0..pts.len()).step_by(17) {
            let bh = solver.field_at(pts[i], Some(i as u32), &mut stats);
            let exact = direct_field(&pts, &masses, pts[i], Some(i), 1.0, 1e-2);
            let rel = (bh.accel - exact.accel).norm() / exact.accel.norm().max(1e-9);
            prop_assert!(rel < 0.05, "rel accel error {rel} at particle {i}");
        }
    }

    #[test]
    fn cell_list_equals_brute_force(
        pts in points(2..300),
        q in (0.0..1.0_f64, 0.0..1.0_f64, 0.0..1.0_f64),
        r in 0.01..0.4_f64,
        mode in 0u8..3
    ) {
        let per = match mode {
            0 => Periodicity::open(Aabb::unit()),
            1 => Periodicity::periodic_z(Aabb::unit()),
            _ => Periodicity::fully_periodic(Aabb::unit()),
        };
        let grid = CellGrid::build(&pts, per, 0.1);
        let center = Vec3::new(q.0, q.1, q.2);

        let mut from_grid = Vec::new();
        let mut gs = TraversalStats::default();
        grid.neighbors_within(center, r, &mut from_grid, &mut gs);
        from_grid.sort_unstable();

        let brute = brute_force(&pts, &per, center, r);
        prop_assert_eq!(&from_grid, &brute);
        // r stays under the half span, so no clamp event
        // (`half_span_clamp_edge_is_exact` covers the other side).
        prop_assert_eq!(gs.radius_clamps, 0);
        // Counting must agree with listing.
        let mut cs = TraversalStats::default();
        prop_assert_eq!(grid.count_within(center, r, &mut cs), brute.len());
    }

    #[test]
    fn csr_lists_match_per_query_results_at_mixed_radii(
        pts in points(4..150),
        radii_seed in prop::collection::vec(0.01..0.5_f64, 4..150),
        mode in 0u8..3
    ) {
        // Radii deliberately span well below and well above the cell edge
        // (fixed at 0.07), so single-cell, 27-cell, and multi-ring scans
        // are all exercised — the "h spanning multiple cell sizes" case.
        let per = match mode {
            0 => Periodicity::open(Aabb::unit()),
            1 => Periodicity::periodic_z(Aabb::unit()),
            _ => Periodicity::fully_periodic(Aabb::unit()),
        };
        let n = pts.len();
        let radii: Vec<f64> = (0..n).map(|i| radii_seed[i % radii_seed.len()]).collect();
        let grid = CellGrid::build(&pts, per, 0.07);
        let (lists, _) = build_csr_lists(&grid, &pts, &radii);
        prop_assert_eq!(lists.query_count(), n);
        for i in 0..n {
            let brute = brute_force(&pts, &per, pts[i], radii[i]);
            prop_assert_eq!(lists.neighbors(i), &brute[..], "row {} radius {}", i, radii[i]);
        }
    }

    #[test]
    fn half_span_clamp_edge_is_exact(
        pts in points(2..120),
        q in (0.0..1.0_f64, 0.0..1.0_f64, 0.0..1.0_f64),
        over in 0.0..0.5_f64
    ) {
        // Radii at and beyond the half-span must clamp to the effective
        // ball the reference computes and must record the event.
        let per = Periodicity::fully_periodic(Aabb::unit());
        let grid = CellGrid::build(&pts, per, 0.11);
        let center = Vec3::new(q.0, q.1, q.2);
        let r = 0.5 + over; // always at or past the half-span of the unit box
        let mut from_grid = Vec::new();
        let mut gs = TraversalStats::default();
        grid.neighbors_within(center, r, &mut from_grid, &mut gs);
        from_grid.sort_unstable();
        prop_assert_eq!(gs.radius_clamps, 1);
        prop_assert_eq!(&from_grid, &brute_force(&pts, &per, center, r));
    }

    #[test]
    fn gravity_potential_is_negative_for_positive_masses(pts in points(10..100)) {
        let masses = vec![1.0; pts.len()];
        let tree = Octree::build(
            &pts,
            &Aabb::unit(),
            OctreeConfig { max_leaf_size: 8 },
        );
        let solver = GravitySolver::new(&tree, &masses, GravityConfig::default());
        let mut stats = TraversalStats::default();
        for i in (0..pts.len()).step_by(7) {
            let s = solver.field_at(pts[i], Some(i as u32), &mut stats);
            if pts.len() > 1 {
                prop_assert!(s.potential < 0.0);
            }
            prop_assert!(s.accel.is_finite());
        }
    }
}
