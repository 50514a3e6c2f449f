//! Property-based tests of the decomposition substrate.

use proptest::prelude::*;
use sph_domain::{halo_sets, hilbert, orb_partition, sfc_partition, slab_partition, SfcKind};
use sph_math::{Aabb, Periodicity, Vec3};

fn points(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (0.0..1.0_f64, 0.0..1.0_f64, 0.0..1.0_f64).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hilbert_keys_are_unique(cells in prop::collection::hash_set((0u64..32, 0u64..32, 0u64..32), 2..50)) {
        let keys: std::collections::BTreeSet<u64> = cells
            .iter()
            .map(|&(x, y, z)| hilbert::encode_cell(x, y, z, 5))
            .collect();
        prop_assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn every_partitioner_assigns_every_particle(pts in points(1..400), nparts in 1usize..17) {
        for d in [
            sfc_partition(&pts, &Aabb::unit(), nparts, SfcKind::Morton, &[]),
            sfc_partition(&pts, &Aabb::unit(), nparts, SfcKind::Hilbert, &[]),
            orb_partition(&pts, nparts, &[]),
            slab_partition(&pts, nparts, 0),
        ] {
            prop_assert_eq!(d.assignment.len(), pts.len());
            prop_assert!(d.assignment.iter().all(|&r| (r as usize) < nparts));
            prop_assert_eq!(d.counts().iter().sum::<usize>(), pts.len());
        }
    }

    #[test]
    fn adaptive_partitioners_balance_counts(pts in points(200..600), nparts in 2usize..9) {
        for d in [
            sfc_partition(&pts, &Aabb::unit(), nparts, SfcKind::Hilbert, &[]),
            orb_partition(&pts, nparts, &[]),
        ] {
            // Max deviation bounded: every rank within 2× of the mean and
            // non-empty for n ≫ p.
            prop_assert!(d.imbalance() < 2.0, "imbalance {}", d.imbalance());
            prop_assert!(d.counts().iter().all(|&c| c > 0));
        }
    }

    #[test]
    fn weighted_sfc_balances_weights(pts in points(200..500), skew in 1.0..50.0_f64) {
        let weights: Vec<f64> = pts.iter().map(|p| if p.x < 0.5 { skew } else { 1.0 }).collect();
        let d = sfc_partition(&pts, &Aabb::unit(), 4, SfcKind::Hilbert, &weights);
        // max/mean of the per-rank weight sums.
        let mut loads = [0.0; 4];
        for (&r, &w) in d.assignment.iter().zip(&weights) {
            loads[r as usize] += w;
        }
        let imbalance = loads.iter().cloned().fold(0.0, f64::max) / (loads.iter().sum::<f64>() / 4.0);
        prop_assert!(imbalance < 2.0, "weighted imbalance {imbalance}");
    }

    #[test]
    fn halo_sets_are_symmetric_and_complete(pts in points(30..150), radius in 0.05..0.3_f64) {
        let d = orb_partition(&pts, 3, &[]);
        let per = Periodicity::open(Aabb::unit());
        let halos = halo_sets(&pts, &d, radius, &per);
        // Completeness: every cross-rank pair within radius is covered.
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if pts[i].dist_sq(pts[j]) <= radius * radius {
                    let (ri, rj) = (d.assignment[i], d.assignment[j]);
                    if ri != rj {
                        prop_assert!(halos.imports[ri as usize].contains(&(j as u32)));
                        prop_assert!(halos.imports[rj as usize].contains(&(i as u32)));
                    }
                }
            }
        }
        // No rank imports its own particles.
        for (r, imp) in halos.imports.iter().enumerate() {
            for &i in imp {
                prop_assert_ne!(d.assignment[i as usize], r as u32);
            }
        }
    }

    #[test]
    fn decomposition_is_deterministic(pts in points(50..200), nparts in 2usize..8) {
        let a = orb_partition(&pts, nparts, &[]);
        let b = orb_partition(&pts, nparts, &[]);
        prop_assert_eq!(a.assignment, b.assignment);
        let c = sfc_partition(&pts, &Aabb::unit(), nparts, SfcKind::Hilbert, &[]);
        let d = sfc_partition(&pts, &Aabb::unit(), nparts, SfcKind::Hilbert, &[]);
        prop_assert_eq!(c.assignment, d.assignment);
    }
}
