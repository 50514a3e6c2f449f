//! Domain decomposition substrate.
//!
//! Table 3 of the paper records three different strategies in the parent
//! codes — SPHYNX "straightforward" (slab-like static split), ChaNGa
//! "space filling curve", SPH-flow "orthogonal recursive bisection" — and
//! Table 4 prescribes that the mini-app support **ORB and SFCs**. This
//! crate implements all of them over the shared [`Decomposition`]
//! abstraction, plus the halo (ghost-particle) identification the cluster
//! simulator uses to account communication volume, and the quality metrics
//! (imbalance, surface/volume, halo fraction) that explain the
//! load-balance differences measured in §5.2.
//!
//! # The rank / halo / migration protocol
//!
//! The distributed step driver (`sph_exa::DistributedSimulation`) runs
//! Algorithm 1 per rank over these primitives. One macro-step is a
//! sequence of bulk-synchronous supersteps:
//!
//! 1. **Halo negotiation** — each rank reports the maximum smoothing
//!    length of its *owned* particles; [`HaloRadiusPolicy::negotiate`]
//!    reduces them to one conservative import radius (support radius ×
//!    global max h × iteration headroom). [`halo_sets`] then yields, per
//!    rank, the remote particles within that radius of its bounding box.
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
pub mod metrics;
pub mod orb;
pub mod sfc;
pub mod slab;

pub use exchange::{Exchange, ExchangeError, ExchangeErrorKind, ExchangePath, InProcessExchange};
pub use halo::{halo_sets, HaloExchange, HaloRadiusPolicy};
pub use metrics::DecompositionMetrics;
pub use orb::orb_partition;
pub use sfc::{sfc_partition, SfcKind};
pub use slab::slab_partition;

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

    /// Weighted imbalance: `max(W_r)/mean(W_r)` for per-particle weights.
    pub fn weighted_imbalance(&self, weights: &[f64]) -> f64 {
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
    fn weighted_imbalance_sees_heavy_particles() {
        let d = Decomposition::new(vec![0, 0, 1, 1], 2);
        // Counts balanced but weights not.
        let w = vec![10.0, 10.0, 1.0, 1.0];
        assert!((d.weighted_imbalance(&w) - 20.0 / 11.0).abs() < 1e-12);
    }
}
