//! Domain decomposition substrate.
//!
//! Table 3 of the paper records three different strategies in the parent
//! codes — SPHYNX "straightforward" (slab-like static split), ChaNGa
//! "space filling curve", SPH-flow "orthogonal recursive bisection" — and
//! Table 4 prescribes that the mini-app support **ORB and SFCs**. This
//! crate implements all of them over the shared [`Decomposition`]
//! abstraction, with [`Partitioner`] as the one place that picks between
//! them (for the step driver and the cluster model alike), plus the halo
//! (ghost-particle) identification both use to account communication
//! volume.
//!
//! # The rank / halo / migration protocol
//!
//! The distributed step driver (`sph_exa::DistributedSimulation`) runs
//! Algorithm 1 per rank over these primitives. One macro-step is a
//! sequence of bulk-synchronous supersteps:
//!
//! 1. **Halo negotiation** — each rank reports the maximum smoothing
//!    length of its *owned* particles; the driver reduces them to the
//!    global max h and sets one import radius: a small margin times
//!    [`HaloRadiusPolicy::radius_for`] that max (support radius × max h
//!    × optional iteration headroom). The radius is a guess that step 2
//!    verifies, so it is as tight as a settled h-iteration allows rather
//!    than conservative. [`halo_sets`] then yields, per rank, the remote
//!    particles within that radius of its bounding box.
//! 2. **Collective h-iteration + density** — every rank adapts h and sums
//!    density for its owned particles over (owned ∪ ghost) only. The
//!    largest search radius actually requested is reduced globally
//!    (`StepStats::max_search_radius`); if it exceeds the negotiated
//!    radius, the exchange is *renegotiated* at the observed radius and
//!    the phase re-runs — coverage is verified, never assumed.
//! 3. **Ghost-field refresh between kernels** — volume elements, IAD
//!    matrices, EOS outputs and velocity gradients each read neighbour
//!    fields computed by the owners in the previous superstep, so ghost
//!    copies are refreshed (the exchange a real MPI code would post)
//!    before each kernel.
//! 4. **Forces** — the symmetric pair closure needs gather lists of the
//!    ghosts too; each rank recovers them with one frozen search at the
//!    ghost's exchanged h (valid because the h-iteration's exit invariant
//!    ties the final h to its exact ball query).
//! 5. **dt reduction, kick/drift** — the per-particle bounds reduce by an
//!    exact `min` (order-independent), then each rank integrates its
//!    owned particles.
//! 6. **Migration** — particles that drifted out of their rank's box
//!    (captured by [`orb::rank_boxes`] at decomposition time) are
//!    reassigned to the nearest box, with ties to the lowest rank;
//!    every `rebalance_every` steps the decomposition is rebuilt from
//!    scratch with the measured per-particle work as weights.
//!
//! # Determinism contract
//!
//! Ownership never affects values: SPH sums iterate neighbours in
//! **ascending global-index order** (the density pass sorts its gather
//! lists; the symmetric force closure is sorted by construction), and
//! each rank's local particle set is kept sorted by global id so local
//! order ≡ global order. Every per-particle quantity therefore rounds
//! identically no matter which rank computes it or how many threads it
//! uses — full-state fingerprints are bit-identical across rank counts
//! *and* `SPH_THREADS`, which is what lets one `sph-ft` conservation
//! checksum govern a whole distributed run.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod exchange;
pub mod halo;
pub mod hilbert;
pub mod orb;
pub mod sfc;
pub mod slab;

pub use exchange::{Exchange, ExchangeError, ExchangeErrorKind, ExchangePath, InProcessExchange};
pub use halo::{halo_sets, HaloExchange, HaloRadiusPolicy};
pub use orb::orb_partition;
pub use sfc::{sfc_partition, SfcKind};
pub use slab::slab_partition;

use sph_math::{Aabb, Vec3};

/// Which decomposition algorithm splits the particles (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Equal-count slabs along an axis (SPHYNX "straightforward").
    Slab { axis: usize },
    /// Space-filling curve over the particles' bounding box (ChaNGa).
    Sfc(SfcKind),
    /// Orthogonal recursive bisection (SPH-flow).
    Orb,
}

impl Partitioner {
    /// Split `positions` over `nparts` ranks. `weights` (empty ⇒ unit)
    /// balance the SFC and ORB cuts; slabs balance counts only.
    pub fn partition(self, positions: &[Vec3], nparts: usize, weights: &[f64]) -> Decomposition {
        match self {
            Partitioner::Slab { axis } => slab_partition(positions, nparts, axis),
            Partitioner::Sfc(kind) => {
                // Empty input has no box; `sfc_partition` rejects it.
                let bounds = Aabb::from_points(positions).unwrap_or(Aabb::unit());
                sfc_partition(positions, &bounds, nparts, kind, weights)
            }
            Partitioner::Orb => orb_partition(positions, nparts, weights),
        }
    }
}

/// An assignment of every particle to one of `nparts` ranks.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// `assignment[i]` = owning rank of particle `i`.
    pub assignment: Vec<u32>,
    /// Number of ranks.
    pub nparts: usize,
}

impl Decomposition {
    pub fn new(assignment: Vec<u32>, nparts: usize) -> Self {
        assert!(nparts > 0);
        debug_assert!(assignment.iter().all(|&r| (r as usize) < nparts));
        Decomposition { assignment, nparts }
    }

    /// Particle count per rank.
    pub fn counts(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.nparts];
        for &r in &self.assignment {
            c[r as usize] += 1;
        }
        c
    }

    /// Particle indices owned by `rank`.
    pub fn indices_of(&self, rank: u32) -> Vec<u32> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == rank)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// `max/mean` particle-count imbalance (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let counts = self.counts();
        let max = counts.iter().max().copied().unwrap_or(0) as f64;
        let mean = self.assignment.len() as f64 / self.nparts as f64;
        if mean > 0.0 {
            max / mean
        } else {
            f64::NAN
        }
    }
}

#[cfg(test)]
/// The weighted partitioners' test reference.
impl Decomposition {
    /// Weighted imbalance: `max(W_r)/mean(W_r)` for per-particle weights.
    pub(crate) fn weighted_imbalance(&self, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.assignment.len());
        let mut loads = vec![0.0; self.nparts];
        for (i, &r) in self.assignment.iter().enumerate() {
            loads[r as usize] += weights[i];
        }
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let mean = loads.iter().sum::<f64>() / self.nparts as f64;
        if mean > 0.0 {
            max / mean
        } else {
            f64::NAN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::SplitMix64;

    #[test]
    fn counts_and_indices() {
        let d = Decomposition::new(vec![0, 1, 0, 2, 1, 0], 3);
        assert_eq!(d.counts(), vec![3, 2, 1]);
        assert_eq!(d.indices_of(0), vec![0, 2, 5]);
        assert_eq!(d.indices_of(2), vec![3]);
    }

    #[test]
    fn imbalance_perfect_and_skewed() {
        let d = Decomposition::new(vec![0, 0, 1, 1], 2);
        assert!((d.imbalance() - 1.0).abs() < 1e-15);
        let d = Decomposition::new(vec![0, 0, 0, 1], 2);
        assert!((d.imbalance() - 1.5).abs() < 1e-15);
    }

    #[test]
    fn weighted_schemes_beat_cost_blind_slabs_under_skewed_load() {
        // Quantile slabs balance particle *counts* on any distribution,
        // but they cannot see per-particle cost. With a hot core (the
        // Evrard gravity pattern), the weight-aware decompositions keep
        // the load balanced while slabs cannot — the Table 3 contrast
        // between SPHYNX ("None (static)") and the balancing codes.
        let mut rng = SplitMix64::new(1);
        let pts: Vec<Vec3> = (0..6000)
            .map(|_| {
                let r = rng.next_f64().powi(3) * 0.5;
                let d = Vec3::new(
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0),
                );
                Vec3::splat(0.5) + d.normalized().unwrap_or(Vec3::X) * r
            })
            .collect();
        let weights: Vec<f64> = pts
            .iter()
            .map(|p| if (*p - Vec3::splat(0.5)).norm() < 0.1 { 40.0 } else { 1.0 })
            .collect();
        let slab = Partitioner::Slab { axis: 0 }.partition(&pts, 8, &weights);
        assert!(slab.imbalance() < 1.05, "quantile slabs balance counts");
        let load = slab.weighted_imbalance(&weights);
        assert!(load > 1.5, "cost-blind slabs should be load-imbalanced: {load}");
        for partitioner in [Partitioner::Orb, Partitioner::Sfc(SfcKind::Hilbert)] {
            let load = partitioner.partition(&pts, 8, &weights).weighted_imbalance(&weights);
            assert!(load < 1.3, "{partitioner:?} load imbalance {load}");
        }
    }

    #[test]
    fn weighted_imbalance_sees_heavy_particles() {
        let d = Decomposition::new(vec![0, 0, 1, 1], 2);
        // Counts balanced but weights not.
        let w = vec![10.0, 10.0, 1.0, 1.0];
        assert!((d.weighted_imbalance(&w) - 20.0 / 11.0).abs() < 1e-12);
    }
}
