//! Orthogonal Recursive Bisection (SPH-flow's strategy, Table 3; mini-app
//! requirement, Table 4).
//!
//! The particle set is recursively split by a plane orthogonal to the
//! longest axis of its bounding box at the *weighted median*, producing
//! box-shaped subdomains with near-equal load. Non-power-of-two rank
//! counts are handled by splitting proportionally (⌈P/2⌉ : ⌊P/2⌋).

use crate::Decomposition;
use sph_math::{Aabb, KahanAccumulator, Vec3};

/// Partition into `nparts` subdomains by recursive bisection.
///
/// `weights` empty ⇒ unit weights. Deterministic.
pub fn orb_partition(positions: &[Vec3], nparts: usize, weights: &[f64]) -> Decomposition {
    assert!(nparts > 0);
    assert!(!positions.is_empty());
    assert!(weights.is_empty() || weights.len() == positions.len());
    let mut assignment = vec![0u32; positions.len()];
    let all: Vec<u32> = (0..positions.len() as u32).collect();
    split(positions, weights, all, 0, nparts, &mut assignment);
    Decomposition::new(assignment, nparts)
}

fn weight_of(weights: &[f64], i: u32) -> f64 {
    if weights.is_empty() {
        1.0
    } else {
        weights[i as usize]
    }
}

/// Recursively assign `ids` to ranks `[first_rank, first_rank + nparts)`.
fn split(
    positions: &[Vec3],
    weights: &[f64],
    mut ids: Vec<u32>,
    first_rank: u32,
    nparts: usize,
    assignment: &mut [u32],
) {
    if nparts == 1 {
        for i in ids {
            assignment[i as usize] = first_rank;
        }
        return;
    }
    // Longest axis of the current subdomain. An empty subdomain (more
    // ranks than particles) has nothing to assign.
    let Some(bb) = Aabb::from_points(ids.iter().map(|&i| &positions[i as usize])) else {
        return;
    };
    let e = bb.extent();
    let axis = if e.x >= e.y && e.x >= e.z {
        0
    } else if e.y >= e.z {
        1
    } else {
        2
    };
    // Sort along the axis, then cut at the weighted split fraction.
    #[expect(
        clippy::unwrap_used,
        reason = "positions are validated finite upstream (cell_of_point / Octree::build reject \
                  NaN loudly), so partial_cmp cannot return None here; switching to total_cmp \
                  would reorder ±0.0 and change the decomposition"
    )]
    ids.sort_unstable_by(|&a, &b| {
        positions[a as usize]
            .component(axis)
            .partial_cmp(&positions[b as usize].component(axis))
            .unwrap()
            .then(a.cmp(&b)) // total order for determinism with ties
    });
    let left_parts = nparts.div_ceil(2);
    let right_parts = nparts - left_parts;
    // Compensated sums: the cut index is a threshold crossing, so it must
    // not drift with summation noise as the subdomain grows.
    let mut total_acc = KahanAccumulator::new();
    for &i in ids.iter() {
        total_acc.add(weight_of(weights, i));
    }
    let total = total_acc.total();
    let target_left = total * left_parts as f64 / nparts as f64;

    let mut acc = KahanAccumulator::new();
    let mut cut = ids.len(); // fallback: everything left
    for (k, &i) in ids.iter().enumerate() {
        acc.add(weight_of(weights, i));
        if acc.total() >= target_left {
            cut = k + 1;
            break;
        }
    }
    // Guarantee both sides non-empty when both need particles.
    cut = cut.clamp(1, ids.len().saturating_sub(1).max(1));
    let right = ids.split_off(cut.min(ids.len()));
    split(positions, weights, ids, first_rank, left_parts, assignment);
    if right_parts > 0 {
        // Degenerate case: no particles left for the right side — assign
        // nothing (those ranks stay empty) rather than panicking.
        if !right.is_empty() {
            split(
                positions,
                weights,
                right,
                first_rank + left_parts as u32,
                right_parts,
                assignment,
            );
        }
    }
}

/// Bounding boxes of each rank's particles (used by halo identification
/// and by the metrics).
pub fn rank_boxes(positions: &[Vec3], decomp: &Decomposition) -> Vec<Option<Aabb>> {
    let mut boxes: Vec<Option<Aabb>> = vec![None; decomp.nparts];
    for (i, &r) in decomp.assignment.iter().enumerate() {
        let p = positions[i];
        boxes[r as usize] = Some(match boxes[r as usize] {
            None => Aabb::new(p, p),
            Some(b) => b.union(&Aabb::new(p, p)),
        });
    }
    boxes
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
    fn power_of_two_balances() {
        let pts = random_points(8192, 1);
        let d = orb_partition(&pts, 8, &[]);
        assert!(d.imbalance() < 1.01, "imbalance {}", d.imbalance());
        assert!(d.counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn non_power_of_two_balances() {
        let pts = random_points(9000, 2);
        for p in [3usize, 5, 6, 7, 12] {
            let d = orb_partition(&pts, p, &[]);
            assert!(d.imbalance() < 1.05, "p={p}: imbalance {}", d.imbalance());
        }
    }

    #[test]
    fn subdomains_are_axis_aligned_disjoint_boxes() {
        // ORB's defining property: rank regions can be separated by planes;
        // a cheap necessary condition is that the rank bounding boxes have
        // small pairwise volume overlap relative to their own volume.
        let pts = random_points(4000, 3);
        let d = orb_partition(&pts, 8, &[]);
        let boxes: Vec<Aabb> = rank_boxes(&pts, &d).into_iter().flatten().collect();
        assert_eq!(boxes.len(), 8);
        let mut overlapping_pairs = 0;
        for i in 0..8 {
            for j in (i + 1)..8 {
                let (a, b) = (&boxes[i], &boxes[j]);
                // Allow surface contact; flag only interior overlap of
                // meaningful volume.
                let lo = a.lo.max(b.lo);
                let hi = a.hi.min(b.hi);
                if hi.x > lo.x && hi.y > lo.y && hi.z > lo.z {
                    let inter = Aabb::new(lo, hi).volume();
                    if inter > 0.02 * a.volume().min(b.volume()) {
                        overlapping_pairs += 1;
                    }
                }
            }
        }
        assert_eq!(overlapping_pairs, 0, "ORB subdomains overlap in volume");
    }

    #[test]
    fn weighted_split_balances_load() {
        let pts = random_points(4000, 4);
        let weights: Vec<f64> = pts.iter().map(|p| if p.z > 0.7 { 20.0 } else { 1.0 }).collect();
        let d = orb_partition(&pts, 8, &weights);
        assert!(
            d.weighted_imbalance(&weights) < 1.25,
            "weighted imbalance {}",
            d.weighted_imbalance(&weights)
        );
    }

    #[test]
    fn single_part_trivial() {
        let pts = random_points(50, 5);
        let d = orb_partition(&pts, 1, &[]);
        assert!(d.assignment.iter().all(|&r| r == 0));
    }

    #[test]
    fn deterministic_with_duplicate_coordinates() {
        // Ties along the split axis must break deterministically.
        let mut pts = random_points(100, 6);
        for p in pts.iter_mut().take(50) {
            p.x = 0.5; // many identical x
        }
        let a = orb_partition(&pts, 4, &[]);
        let b = orb_partition(&pts, 4, &[]);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn splits_longest_axis_first() {
        // A slab-shaped domain (long in y): the first cut must be in y,
        // giving rank boxes that tile y rather than x.
        let mut rng = SplitMix64::new(7);
        let pts: Vec<Vec3> = (0..2000)
            .map(|_| Vec3::new(rng.next_f64() * 0.1, rng.next_f64() * 10.0, rng.next_f64() * 0.1))
            .collect();
        let d = orb_partition(&pts, 2, &[]);
        let boxes: Vec<Aabb> = rank_boxes(&pts, &d).into_iter().flatten().collect();
        // The two boxes must separate along y.
        let sep_y = boxes[0].hi.y <= boxes[1].lo.y + 1e-9 || boxes[1].hi.y <= boxes[0].lo.y + 1e-9;
        assert!(sep_y, "expected a y split: {boxes:?}");
    }
}
