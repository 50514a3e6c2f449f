//! Halo (ghost-particle) identification.
//!
//! A rank computing SPH sums for its own particles needs every remote
//! particle within the interaction radius of its subdomain. The halo sets
//! determine both correctness (the cluster simulator feeds them to the
//! per-rank SPH evaluation) and cost (their sizes are the per-step
//! communication volume the network model charges — the term that erodes
//! strong scaling in Figs. 1–3 as subdomains shrink).

use crate::orb::rank_boxes;
use crate::Decomposition;
use rayon::prelude::*;
use sph_math::{Periodicity, Vec3, REDUCE_CHUNK};

/// Conservative halo-radius negotiation.
///
/// A rank's halo import is sufficient iff it contains every remote
/// particle any of its neighbour searches can reach. Two things set that
/// reach: the largest smoothing length *anywhere* (a remote particle's
/// support `2h_j` must find owned particles for the symmetric force
/// pairs), and the headroom the smoothing-length iteration needs, since it
/// may *grow* `h` — and therefore the search radius — before converging.
///
/// The policy captures both: `radius = support · max_h · g^steps`, where
/// `g` bounds the per-iteration growth (e.g.
/// `sph_core::density::h_growth_bound`) and `steps` is how many growth
/// iterations to budget for. Drivers and tests share this one
/// implementation instead of hand-rolled over-estimates; a driver that
/// additionally *verifies* coverage (via the measured
/// `StepStats::max_search_radius`) can start from a small `steps` and
/// renegotiate on a miss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaloRadiusPolicy {
    /// Kernel support radius in units of `h` (2.0 for the standard
    /// compact kernels).
    pub support_radius: f64,
    /// Upper bound on the factor one smoothing-length iteration can grow
    /// `h` by (1.0 = frozen h).
    pub growth_per_iteration: f64,
    /// Number of growth iterations budgeted for.
    pub growth_steps: u32,
}

impl HaloRadiusPolicy {
    /// Policy for an evaluation at frozen smoothing lengths (no
    /// iteration headroom): `radius = support · max_h` exactly.
    pub fn frozen(support_radius: f64) -> Self {
        HaloRadiusPolicy { support_radius, growth_per_iteration: 1.0, growth_steps: 0 }
    }

    /// Policy with `steps` iterations of headroom at growth bound `g`.
    pub fn with_headroom(support_radius: f64, g: f64, steps: u32) -> Self {
        assert!(g >= 1.0, "growth bound {g} < 1 cannot bound a growing iteration");
        HaloRadiusPolicy { support_radius, growth_per_iteration: g, growth_steps: steps }
    }

    /// The multiplicative iteration headroom `g^steps`.
    pub fn headroom(&self) -> f64 {
        self.growth_per_iteration.powi(self.growth_steps as i32)
    }

    /// Halo radius for a given maximum smoothing length.
    pub fn radius_for(&self, max_h: f64) -> f64 {
        assert!(max_h > 0.0 && max_h.is_finite(), "bad max_h {max_h}");
        assert!(self.support_radius > 0.0);
        self.support_radius * max_h * self.headroom()
    }

    /// The collective step of the negotiation: reduce the per-rank maxima
    /// of the *owned* smoothing lengths (ranks that own nothing report
    /// 0.0) and apply the policy to the global maximum. Every rank must
    /// use the globally negotiated radius — a rank's ghosts are bounded by
    /// *other* ranks' supports, not its own.
    pub fn negotiate(&self, per_rank_max_h: &[f64]) -> f64 {
        let max_h = per_rank_max_h.iter().cloned().fold(0.0, f64::max);
        self.radius_for(max_h)
    }
}

/// The halo exchange pattern for one decomposition.
#[derive(Debug, Clone)]
pub struct HaloExchange {
    /// `imports[r]` = indices of remote particles rank `r` must receive.
    pub imports: Vec<Vec<u32>>,
    /// `pair_volume[(a, b)]` = particles sent from rank `a` to rank `b`,
    /// flattened as `a * nparts + b`.
    pub pair_volume: Vec<u32>,
    /// Number of ranks.
    pub nparts: usize,
}

impl HaloExchange {
    /// Total imported particles across ranks (total message payload).
    pub fn total_volume(&self) -> usize {
        self.imports.iter().map(|v| v.len()).sum::<usize>()
    }

    /// Number of neighbouring-rank pairs that actually exchange data.
    pub fn message_count(&self) -> usize {
        self.pair_volume.iter().filter(|&&v| v > 0).count()
    }

    /// Largest per-rank import set (the communication straggler).
    pub fn max_import(&self) -> usize {
        self.imports.iter().map(|v| v.len()).max().unwrap_or(0)
    }

    /// Particles sent from `a` to `b`.
    pub fn volume_between(&self, a: u32, b: u32) -> u32 {
        self.pair_volume[a as usize * self.nparts + b as usize]
    }
}

/// Compute halo sets: for each rank, the remote particles within `radius`
/// of its subdomain bounding box (minimum-image aware on periodic axes).
///
/// `radius` is conservatively the largest interaction radius in the system
/// (2·max h); using the box–point distance keeps this O(N·P) instead of
/// O(N²).
pub fn halo_sets(
    positions: &[Vec3],
    decomp: &Decomposition,
    radius: f64,
    periodicity: &Periodicity,
) -> HaloExchange {
    assert!(radius > 0.0);
    let nparts = decomp.nparts;
    let boxes = rank_boxes(positions, decomp);
    let r2 = radius * radius;

    // For each particle, the ranks whose box it is close to (excluding its
    // owner), as flat (particle, rank) pairs in particle order. Chunked map
    // over fixed REDUCE_CHUNK boundaries, then an ordered reduce inverting
    // the chunks into per-rank import lists — so the import ordering is
    // identical for any thread count.
    let chunks: Vec<Vec<(u32, u32)>> = positions
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            let base = c * REDUCE_CHUNK;
            let mut out = Vec::new();
            for (off, &p) in chunk.iter().enumerate() {
                let i = base + off;
                let owner = decomp.assignment[i];
                // Periodic images of the particle that could be near a box.
                let mut images = [p; 8];
                let mut n_images = 0;
                periodicity.for_each_ghost_offset(p, radius, |off| {
                    images[n_images] = p + off;
                    n_images += 1;
                });
                let images = &images[..n_images];
                for (r, bx) in boxes.iter().enumerate() {
                    if r as u32 == owner {
                        continue;
                    }
                    let Some(bx) = bx else { continue };
                    let near = images.iter().any(|&q| bx.dist_sq_to_point(q) <= r2);
                    if near {
                        out.push((i as u32, r as u32));
                    }
                }
            }
            out
        })
        .collect();

    let mut imports: Vec<Vec<u32>> = vec![Vec::new(); nparts];
    let mut pair_volume = vec![0u32; nparts * nparts];
    for &(i, r) in chunks.iter().flatten() {
        let owner = decomp.assignment[i as usize] as usize;
        imports[r as usize].push(i);
        pair_volume[owner * nparts + r as usize] += 1;
    }
    HaloExchange { imports, pair_volume, nparts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orb::orb_partition;
    use crate::sfc::{sfc_partition, SfcKind};
    use sph_math::{Aabb, SplitMix64};

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect()
    }

    #[test]
    fn halo_covers_all_cross_rank_neighbors() {
        // Correctness: every pair (i, j) within `radius` that crosses ranks
        // must appear in the import set of each other's owner.
        let pts = random_points(1500, 1);
        let d = orb_partition(&pts, 4, &[]);
        let radius = 0.12;
        let per = Periodicity::open(Aabb::unit());
        let halos = halo_sets(&pts, &d, radius, &per);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if per.distance_sq(pts[i], pts[j]) <= radius * radius {
                    let (ri, rj) = (d.assignment[i], d.assignment[j]);
                    if ri != rj {
                        assert!(
                            halos.imports[ri as usize].contains(&(j as u32)),
                            "rank {ri} missing remote neighbour {j}"
                        );
                        assert!(
                            halos.imports[rj as usize].contains(&(i as u32)),
                            "rank {rj} missing remote neighbour {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn halo_covers_periodic_wraps() {
        let pts = random_points(800, 2);
        let per = Periodicity::periodic_z(Aabb::unit());
        // Slab decomposition along z puts the wrap between first and last rank.
        let d = crate::slab::slab_partition(&pts, &Aabb::unit(), 4, 2);
        let radius = 0.1;
        let halos = halo_sets(&pts, &d, radius, &per);
        let mut checked = 0;
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if per.distance_sq(pts[i], pts[j]) <= radius * radius {
                    let (ri, rj) = (d.assignment[i], d.assignment[j]);
                    if ri != rj {
                        assert!(halos.imports[ri as usize].contains(&(j as u32)));
                        assert!(halos.imports[rj as usize].contains(&(i as u32)));
                        if (ri == 0 && rj == 3) || (ri == 3 && rj == 0) {
                            checked += 1; // pairs across the wrap
                        }
                    }
                }
            }
        }
        assert!(checked > 0, "test never exercised the periodic wrap");
    }

    #[test]
    fn periodic_halo_sets_are_pinned() {
        // Import lists (FNV-1a over the ids, rank by rank) and the pair
        // volumes of a fully periodic cloud, recorded before the image
        // enumeration moved to `Periodicity::for_each_ghost_offset`.
        let pts = random_points(2000, 7);
        let per = Periodicity::fully_periodic(Aabb::unit());
        let pinned: [(u64, &[u32]); 4] = [
            (0xa0fb1cd74c963c7d, &[0, 339, 337, 0]),
            (0xb5d7d3fe9d1fd8d9, &[0, 379, 668, 0]),
            (
                0x44e3d6b92a360141,
                &[0, 207, 172, 43, 160, 0, 51, 165, 163, 61, 0, 164, 32, 170, 183, 0],
            ),
            (
                0xaaa4ebecfc7f77d5,
                &[0, 303, 155, 192, 189, 0, 184, 67, 51, 328, 0, 180, 185, 170, 417, 0],
            ),
        ];
        let decompositions = [2, 4].into_iter().flat_map(|nparts| {
            let orb = orb_partition(&pts, nparts, &[]);
            [orb, sfc_partition(&pts, &Aabb::unit(), nparts, SfcKind::Hilbert, &[])]
        });
        for (d, (want_hash, want_volume)) in decompositions.zip(pinned) {
            let halos = halo_sets(&pts, &d, 0.09, &per);
            let hash = halos.imports.iter().flatten().fold(0xcbf29ce484222325u64, |h, &id| {
                (h ^ u64::from(id)).wrapping_mul(0x100000001b3)
            });
            assert_eq!(halos.pair_volume, want_volume);
            assert_eq!(hash, want_hash);
        }
    }

    #[test]
    fn no_self_imports() {
        let pts = random_points(500, 3);
        let d = orb_partition(&pts, 4, &[]);
        let halos = halo_sets(&pts, &d, 0.1, &Periodicity::open(Aabb::unit()));
        for (r, imp) in halos.imports.iter().enumerate() {
            for &i in imp {
                assert_ne!(d.assignment[i as usize], r as u32, "rank {r} imports its own particle");
            }
        }
    }

    #[test]
    fn halo_shrinks_with_radius() {
        let pts = random_points(2000, 4);
        let d = orb_partition(&pts, 8, &[]);
        let per = Periodicity::open(Aabb::unit());
        let small = halo_sets(&pts, &d, 0.05, &per);
        let large = halo_sets(&pts, &d, 0.2, &per);
        assert!(small.total_volume() < large.total_volume());
    }

    #[test]
    fn more_ranks_more_relative_communication() {
        // The strong-scaling killer: at fixed N, the halo fraction grows
        // with rank count (surface-to-volume of the shrinking subdomains).
        let pts = random_points(4000, 5);
        let per = Periodicity::open(Aabb::unit());
        let radius = 0.08;
        let frac = |p: usize| {
            let d = orb_partition(&pts, p, &[]);
            let h = halo_sets(&pts, &d, radius, &per);
            h.total_volume() as f64 / pts.len() as f64
        };
        let f2 = frac(2);
        let f16 = frac(16);
        assert!(f16 > 1.5 * f2, "halo fraction: 2 ranks {f2}, 16 ranks {f16}");
    }

    #[test]
    fn frozen_policy_is_exactly_the_support_radius() {
        let p = HaloRadiusPolicy::frozen(2.0);
        assert_eq!(p.headroom(), 1.0);
        assert_eq!(p.radius_for(0.25), 0.5);
    }

    #[test]
    fn headroom_compounds_per_iteration() {
        let p = HaloRadiusPolicy::with_headroom(2.0, 1.5, 3);
        assert!((p.headroom() - 3.375).abs() < 1e-15);
        assert!((p.radius_for(0.1) - 2.0 * 0.1 * 3.375).abs() < 1e-15);
        // More budgeted iterations can only widen the halo.
        let wider = HaloRadiusPolicy::with_headroom(2.0, 1.5, 4);
        assert!(wider.radius_for(0.1) > p.radius_for(0.1));
    }

    #[test]
    fn negotiation_takes_the_global_max_h() {
        // Rank 2 owns nothing (reports 0); the winner is rank 1's 0.3 —
        // every rank must budget for the *largest* remote support.
        let p = HaloRadiusPolicy::frozen(2.0);
        let r = p.negotiate(&[0.1, 0.3, 0.0, 0.2]);
        assert_eq!(r, 0.6);
    }

    #[test]
    #[should_panic]
    fn negotiation_rejects_degenerate_h() {
        // All ranks empty (or h wiped to zero) — a halo radius of zero
        // would silently produce empty imports and wrong physics.
        HaloRadiusPolicy::frozen(2.0).negotiate(&[0.0, 0.0]);
    }

    #[test]
    fn pair_volume_bookkeeping_consistent() {
        let pts = random_points(1000, 6);
        let d = sfc_partition(&pts, &Aabb::unit(), 5, SfcKind::Hilbert, &[]);
        let halos = halo_sets(&pts, &d, 0.1, &Periodicity::open(Aabb::unit()));
        // Σ over sender→receiver pair volumes equals total imports.
        let pair_total: u32 = halos.pair_volume.iter().sum();
        assert_eq!(pair_total as usize, halos.total_volume());
        assert!(halos.message_count() > 0);
        assert!(halos.max_import() > 0);
        // volume_between agrees with the matrix.
        let v01 = halos.volume_between(0, 1);
        assert_eq!(v01, halos.pair_volume[1]);
    }
}
