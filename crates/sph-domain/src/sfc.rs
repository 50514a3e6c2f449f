//! Space-filling-curve partitioning (ChaNGa's strategy, Table 3; mini-app
//! requirement, Table 4).
//!
//! Particles are sorted along the curve and the sorted order is cut into
//! `nparts` contiguous chunks of (approximately) equal total *weight*.
//! Weights default to 1 (equal particle counts) but `sph-exa`'s rebalance
//! and `sph-bench`'s modelled dynamic balancer re-partition with measured
//! per-particle costs, which is exactly how SFC-based codes rebalance.

use crate::hilbert;
use crate::Decomposition;
use sph_math::{kahan_sum, Aabb, KahanAccumulator, Vec3};
use sph_tree::morton;

/// Which curve orders the particles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfcKind {
    /// Z-order (Morton) — cheap, some locality jumps.
    Morton,
    /// Hilbert — strictly face-adjacent, best locality.
    Hilbert,
}

/// Partition by space-filling curve into `nparts` weighted-balanced chunks.
///
/// `weights` may be empty (⇒ unit weights). Deterministic for fixed input.
pub fn sfc_partition(
    positions: &[Vec3],
    bounds: &Aabb,
    nparts: usize,
    kind: SfcKind,
    weights: &[f64],
) -> Decomposition {
    assert!(nparts > 0);
    assert!(!positions.is_empty());
    assert!(weights.is_empty() || weights.len() == positions.len());
    let cube = bounds.bounding_cube();
    let mut keyed: Vec<(u64, u32)> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let k = match kind {
                SfcKind::Morton => morton::encode_point(p, &cube),
                SfcKind::Hilbert => hilbert::encode_point(p, &cube),
            };
            (k, i as u32)
        })
        .collect();
    keyed.sort_unstable();

    let total_weight: f64 =
        if weights.is_empty() { positions.len() as f64 } else { kahan_sum(weights) };
    let target = total_weight / nparts as f64;

    let mut assignment = vec![0u32; positions.len()];
    let mut rank = 0u32;
    // Compensated running weight: the cut positions depend on the partial
    // sums, so they must not drift with summation noise as n grows.
    let mut acc = KahanAccumulator::new();
    for &(_, i) in &keyed {
        let w = if weights.is_empty() { 1.0 } else { weights[i as usize] };
        // Close the chunk when its weight reaches the target, but never
        // run out of ranks for the remaining particles.
        if acc.total() + 0.5 * w > target && (rank as usize) < nparts - 1 {
            rank += 1;
            acc = KahanAccumulator::new();
        }
        assignment[i as usize] = rank;
        acc.add(w);
    }
    Decomposition::new(assignment, nparts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::SplitMix64;

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect()
    }

    #[test]
    fn balanced_counts_unweighted() {
        for kind in [SfcKind::Morton, SfcKind::Hilbert] {
            let pts = random_points(10_000, 1);
            let d = sfc_partition(&pts, &Aabb::unit(), 16, kind, &[]);
            assert!(d.imbalance() < 1.01, "{kind:?}: imbalance {}", d.imbalance());
            // Everyone assigned a valid rank.
            assert!(d.assignment.iter().all(|&r| r < 16));
            assert!(d.counts().iter().all(|&c| c > 0));
        }
    }

    #[test]
    fn weighted_partition_balances_weight_not_count() {
        let pts = random_points(4000, 2);
        // Left half of the box is 10× more expensive.
        let weights: Vec<f64> = pts.iter().map(|p| if p.x < 0.5 { 10.0 } else { 1.0 }).collect();
        let d = sfc_partition(&pts, &Aabb::unit(), 8, SfcKind::Hilbert, &weights);
        let wi = d.weighted_imbalance(&weights);
        assert!(wi < 1.2, "weighted imbalance {wi}");
        // Count imbalance should now be far from 1 (cheap ranks hold many).
        assert!(d.imbalance() > 1.3, "count imbalance {}", d.imbalance());
    }

    #[test]
    fn single_rank_owns_everything() {
        let pts = random_points(100, 3);
        let d = sfc_partition(&pts, &Aabb::unit(), 1, SfcKind::Morton, &[]);
        assert!(d.assignment.iter().all(|&r| r == 0));
    }

    #[test]
    fn chunks_are_contiguous_on_the_curve() {
        let pts = random_points(2000, 4);
        let cube = Aabb::unit();
        let d = sfc_partition(&pts, &cube, 7, SfcKind::Hilbert, &[]);
        // Walking particles in curve order, the rank must be non-decreasing.
        let mut keyed: Vec<(u64, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (hilbert::encode_point(p, &cube), i as u32))
            .collect();
        keyed.sort_unstable();
        let mut prev = 0;
        for &(_, i) in &keyed {
            let r = d.assignment[i as usize];
            assert!(r >= prev, "rank decreased along the curve");
            prev = r;
        }
    }

    #[test]
    fn hilbert_subdomains_are_more_compact_than_morton() {
        // Compactness proxy: mean subdomain bounding-box surface area.
        let pts = random_points(8000, 5);
        let nparts = 16;
        let mut areas = Vec::new();
        for kind in [SfcKind::Hilbert, SfcKind::Morton] {
            let d = sfc_partition(&pts, &Aabb::unit(), nparts, kind, &[]);
            let mut total = 0.0;
            for r in 0..nparts as u32 {
                let ids = d.indices_of(r);
                let sub: Vec<Vec3> = ids.iter().map(|&i| pts[i as usize]).collect();
                let bb = Aabb::from_points(sub.iter()).unwrap();
                let e = bb.extent();
                total += 2.0 * (e.x * e.y + e.y * e.z + e.z * e.x);
            }
            areas.push(total / nparts as f64);
        }
        assert!(areas[0] < areas[1], "hilbert {} should beat morton {}", areas[0], areas[1]);
    }

    #[test]
    fn deterministic() {
        let pts = random_points(500, 6);
        let a = sfc_partition(&pts, &Aabb::unit(), 4, SfcKind::Hilbert, &[]);
        let b = sfc_partition(&pts, &Aabb::unit(), 4, SfcKind::Hilbert, &[]);
        assert_eq!(a.assignment, b.assignment);
    }
}
