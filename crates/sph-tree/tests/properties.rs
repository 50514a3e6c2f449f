//! Property-based tests of the spatial substrate: the octree must index
//! any particle set, Barnes–Hut must stay within its error envelope, the
//! cell-list ball queries must equal the O(N²) brute-force ball (sets
//! *and* clamp behaviour) — the one neighbour oracle — and the in-place
//! symmetric closures must equal a naive closure.

use proptest::prelude::*;
use sph_math::{Aabb, Periodicity, SplitMix64, Vec3};
use sph_tree::{
    build_csr_lists, CellGrid, GravityConfig, GravitySolver, MultipoleOrder, NeighborLists, Octree,
    OctreeConfig, TraversalStats,
};

/// O(N²) softened acceleration on particle `i` (G = 1), the reference of
/// the Barnes–Hut walk.
fn direct_accel(pts: &[Vec3], masses: &[f64], i: usize, softening: f64) -> Vec3 {
    let mut accel = Vec3::ZERO;
    for (j, (&pj, &mj)) in pts.iter().zip(masses).enumerate() {
        if j != i {
            let d = pts[i] - pj;
            let r2 = d.norm_sq() + softening * softening;
            accel -= d * (mj / (r2 * r2.sqrt()));
        }
    }
    accel
}

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
    (0..pts.len() as u32)
        .filter(|&i| per.displacement(pts[i as usize], center).norm_sq() <= r2)
        .collect()
}

/// Row counts on both sides of the 256-row segment length.
const ROW_COUNTS: [usize; 6] = [0, 1, 255, 256, 257, 3 * 256 + 17];

fn domain(mode: u8) -> Periodicity {
    match mode {
        0 => Periodicity::open(Aabb::unit()),
        1 => Periodicity::periodic_z(Aabb::unit()),
        _ => Periodicity::fully_periodic(Aabb::unit()),
    }
}

/// A uniform cloud of `n` particles and its gather rows: every particle
/// within each one's own support radius, which varies up to 2× between
/// particles (so `j ∈ N(k)` without `k ∈ N(j)` is common), ascending.
fn gather_cloud(n: usize, seed: u64, per: Periodicity) -> (Vec<Vec3>, Vec<Vec<u32>>) {
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut rng = SplitMix64::new(seed);
    let pts: Vec<Vec3> =
        (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect();
    let r0 = (12.0 / (4.19 * n as f64)).cbrt().min(0.2);
    let radii: Vec<f64> = (0..n).map(|_| r0 * rng.uniform(1.0, 2.0)).collect();
    let grid = CellGrid::build(&pts, per, r0);
    let (lists, _) = build_csr_lists(&grid, &pts, &radii);
    let rows = (0..n).map(|k| lists.neighbors(k).to_vec()).collect();
    (pts, rows)
}

/// The closure by definition: row `q` (particle `row_ids[q]`) gets its
/// own row, plus every row or ghost whose gather row holds it; sorted and
/// deduplicated.
fn naive_closure(rows: &[Vec<u32>], row_ids: &[u32], ghost_ids: &[u32]) -> Vec<Vec<u32>> {
    let mut sets: Vec<Vec<u32>> = row_ids.iter().map(|&k| rows[k as usize].clone()).collect();
    for &source in row_ids.iter().chain(ghost_ids) {
        for &j in &rows[source as usize] {
            if let (true, Ok(q)) = (j != source, row_ids.binary_search(&j)) {
                sets[q].push(source);
            }
        }
    }
    for set in &mut sets {
        set.sort_unstable();
        set.dedup();
    }
    sets
}

fn assert_rows(lists: &NeighborLists, want: &[Vec<u32>], case: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(lists.query_count(), want.len(), "{}", case);
    for (q, row) in want.iter().enumerate() {
        prop_assert_eq!(lists.neighbors(q), &row[..], "{} row {}", case, q);
    }
    prop_assert_eq!(lists.total_neighbors(), want.iter().map(Vec::len).sum::<usize>(), "{}", case);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn in_place_closures_equal_the_naive_closure(
        seed in any::<u64>(),
        size in 0..ROW_COUNTS.len(),
        mode in 0u8..3,
        every_ghost in any::<bool>(),
    ) {
        let n = ROW_COUNTS[size];
        let (pts, rows) = gather_cloud(n, seed, domain(mode));
        let case = format!("n {n} mode {mode}");

        // The whole system.
        let all: Vec<u32> = (0..n as u32).collect();
        let gather = NeighborLists::from_lists(rows.clone());
        let closed = gather.clone().into_symmetrized();
        prop_assert!(closed.is_symmetric_closure() && !gather.is_symmetric_closure());
        prop_assert!(gather.symmetrized() == closed, "{}: symmetrized() differs", case);
        assert_rows(&closed, &naive_closure(&rows, &all, &[]), &case)?;

        // A subdomain: the particles with x < ½ keep their rows; the
        // others are ghosts — all of them, or every other one (the rest
        // are ids without a row that no one tells the closure about).
        let (row_ids, others): (Vec<u32>, Vec<u32>) =
            all.iter().partition(|&&k| pts[k as usize].x < 0.5);
        let ghost_ids: Vec<u32> =
            others.into_iter().enumerate().filter(|&(i, _)| every_ghost || i % 2 == 0).map(|(_, g)| g).collect();
        let forward =
            NeighborLists::from_lists(row_ids.iter().map(|&k| rows[k as usize].clone()).collect());
        // Row indices each ghost gathers, descending: any order will do.
        let ghost_rows = NeighborLists::from_lists(
            ghost_ids
                .iter()
                .map(|&g| {
                    let mut hits: Vec<u32> = rows[g as usize]
                        .iter()
                        .filter_map(|j| row_ids.binary_search(j).ok())
                        .map(|q| q as u32)
                        .collect();
                    hits.reverse();
                    hits
                })
                .collect(),
        );
        let closed = forward.into_symmetrized_over_ghosts(&row_ids, n, &ghost_ids, &ghost_rows);
        prop_assert!(closed.is_symmetric_closure());
        let case = format!("{case} subset of {} rows, {} ghosts", row_ids.len(), ghost_ids.len());
        let want = naive_closure(&rows, &row_ids, &ghost_ids);
        assert_rows(&closed, &want, &case)?;
        if every_ghost {
            // Every particle is known: each row is the whole system's.
            let full = naive_closure(&rows, &all, &[]);
            for (q, &k) in row_ids.iter().enumerate() {
                prop_assert_eq!(closed.neighbors(q), &full[k as usize][..], "{} row {}", case, q);
            }
        }
    }

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
            let exact = direct_accel(&pts, &masses, i, 1e-2);
            let rel = (bh.accel - exact).norm() / exact.norm().max(1e-9);
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
