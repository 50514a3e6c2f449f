//! "Straightforward" slab decomposition — SPHYNX's strategy in Table 3
//! ("Domain Decomposition: Straightforward, Load Balancing: None
//! (static)").
//!
//! The particles are sorted along one axis and cut into `nparts` chunks of
//! equal *count* (quantile slabs). This is the classic quick-and-simple
//! decomposition: particle counts are balanced by construction, but the
//! scheme is blind to per-particle *cost* — gravity-heavy core particles
//! of the Evrard collapse cost several times an envelope particle, and a
//! cost-blind decomposition turns that variance straight into the load
//! imbalance the paper measures for SPHYNX (§5.2, Fig. 4). It also cuts
//! long thin slabs, whose surface (halo) is far larger than the compact
//! ORB/SFC subdomains.

use crate::Decomposition;
use sph_math::{Aabb, Vec3};

/// Equal-count slab partition along `axis` (0 = x, 1 = y, 2 = z).
///
/// `_bounds` is accepted for interface symmetry with the other
/// partitioners but not needed: the cuts are quantiles of the particle
/// coordinates themselves.
pub fn slab_partition(
    positions: &[Vec3],
    _bounds: &Aabb,
    nparts: usize,
    axis: usize,
) -> Decomposition {
    assert!(nparts > 0);
    assert!(axis < 3);
    assert!(!positions.is_empty());
    let mut order: Vec<u32> = (0..positions.len() as u32).collect();
    #[expect(
        clippy::unwrap_used,
        reason = "positions are validated finite upstream (cell_of_point / Octree::build reject \
                  NaN loudly), so partial_cmp cannot return None here; switching to total_cmp \
                  would reorder ±0.0 and change the decomposition"
    )]
    order.sort_unstable_by(|&a, &b| {
        positions[a as usize]
            .component(axis)
            .partial_cmp(&positions[b as usize].component(axis))
            .unwrap()
            .then(a.cmp(&b)) // deterministic tie-break
    });
    let n = positions.len();
    let mut assignment = vec![0u32; n];
    for (k, &i) in order.iter().enumerate() {
        // Rank of the k-th particle in sorted order: proportional split.
        assignment[i as usize] = ((k * nparts) / n) as u32;
    }
    Decomposition::new(assignment, nparts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::SplitMix64;

    fn uniform(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect()
    }

    fn clustered(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let r = rng.next_f64().powi(4) * 0.5;
                let d = Vec3::new(
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0),
                );
                Vec3::splat(0.5) + d.normalized().unwrap_or(Vec3::X) * r
            })
            .collect()
    }

    #[test]
    fn counts_balanced_on_uniform_points() {
        let pts = uniform(8000, 1);
        let d = slab_partition(&pts, &Aabb::unit(), 8, 0);
        assert!(d.imbalance() < 1.01, "imbalance {}", d.imbalance());
    }

    #[test]
    fn counts_balanced_even_on_clustered_points() {
        // Quantile cuts balance counts regardless of the distribution.
        let pts = clustered(8000, 2);
        let d = slab_partition(&pts, &Aabb::unit(), 8, 0);
        assert!(d.imbalance() < 1.01, "imbalance {}", d.imbalance());
    }

    #[test]
    fn blind_to_per_particle_cost() {
        // The SPHYNX pathology: when work concentrates spatially, the
        // count-balanced slabs are badly *load* imbalanced — and the
        // scheme has no weights input to fix it.
        let pts = uniform(8000, 3);
        let d = slab_partition(&pts, &Aabb::unit(), 8, 0);
        let weights: Vec<f64> = pts
            .iter()
            .map(|p| if (*p - Vec3::splat(0.5)).norm() < 0.25 { 20.0 } else { 1.0 })
            .collect();
        assert!(
            d.weighted_imbalance(&weights) > 1.5,
            "weighted imbalance {}",
            d.weighted_imbalance(&weights)
        );
    }

    #[test]
    fn slabs_are_ordered_along_the_axis() {
        let pts = uniform(2000, 4);
        let d = slab_partition(&pts, &Aabb::unit(), 4, 2);
        // Any particle in a lower rank has z ≤ any particle in a higher
        // rank (up to quantile ties).
        let mut max_per_rank = [f64::NEG_INFINITY; 4];
        let mut min_per_rank = [f64::INFINITY; 4];
        for (i, &r) in d.assignment.iter().enumerate() {
            max_per_rank[r as usize] = max_per_rank[r as usize].max(pts[i].z);
            min_per_rank[r as usize] = min_per_rank[r as usize].min(pts[i].z);
        }
        for r in 0..3 {
            assert!(max_per_rank[r] <= min_per_rank[r + 1] + 1e-12);
        }
    }

    #[test]
    fn axis_selection() {
        let pts = vec![
            Vec3::new(0.1, 0.9, 0.5),
            Vec3::new(0.9, 0.1, 0.5),
            Vec3::new(0.2, 0.8, 0.5),
            Vec3::new(0.8, 0.2, 0.5),
        ];
        let dx = slab_partition(&pts, &Aabb::unit(), 2, 0);
        let dy = slab_partition(&pts, &Aabb::unit(), 2, 1);
        assert_eq!(dx.assignment, vec![0, 1, 0, 1]);
        assert_eq!(dy.assignment, vec![1, 0, 1, 0]);
    }

    #[test]
    fn deterministic_with_ties() {
        let mut pts = uniform(200, 5);
        for p in pts.iter_mut().take(100) {
            p.x = 0.5;
        }
        let a = slab_partition(&pts, &Aabb::unit(), 4, 0);
        let b = slab_partition(&pts, &Aabb::unit(), 4, 0);
        assert_eq!(a.assignment, b.assignment);
    }
}
