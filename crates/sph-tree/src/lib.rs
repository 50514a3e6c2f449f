//! Spatial substrate: the cell-list neighbour pipeline, the octree, and
//! Barnes–Hut self-gravity.
//!
//! Algorithm 1 of the paper structures every SPH time-step around a tree:
//! step 1 builds it, step 2 walks it to find neighbours, step 4 (optional)
//! reuses it for self-gravity via multipole expansions. All three codes in
//! Table 1 discover neighbours by a tree walk, and the astrophysics codes
//! compute gravity with multipoles (4-pole for SPHYNX, 16-pole for ChaNGa).
//! This mini-app departs from Table 1 on the first point: neighbours come
//! from a uniform cell list, and the octree is built only when gravity is
//! on.
//!
//! This crate provides:
//! * [`morton`] — 63-bit Morton (Z-order) keys, also reused by the SFC
//!   domain decomposition in `sph-domain`;
//! * [`octree`] — a linear octree built over Morton-sorted particles, with
//!   a rayon-parallel construction path (gravity's structure);
//! * [`cell_list`] — the uniform-grid ball queries with optional per-axis
//!   periodicity (the square patch wraps in z) and the CSR neighbour lists
//!   every SPH kernel pass streams over;
//! * [`gravity`] — multipole moments (monopole + quadrupole), an
//!   opening-angle MAC, a Barnes–Hut traversal, and a direct-summation
//!   reference used by the validation tests.
//!
//! Every traversal records interaction counts in [`TraversalStats`]; the
//! cluster simulator in `sph-cluster` converts those counts into modelled
//! compute time, which is how the strong-scaling figures are produced
//! without the authors' hardware.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cell_list;
pub mod gravity;
pub mod morton;
pub mod octree;

pub use cell_list::{build_csr_lists, CellGrid, NeighborLists};
pub use gravity::{GravityConfig, GravitySolver, MultipoleOrder};
pub use octree::{Octree, OctreeConfig};

/// Counters filled in by grid scans and tree walks; the currency of the
/// performance model (`sph-cluster` charges modelled seconds per unit of each).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Cells scanned by a ball query; tree nodes visited (opening tests
    /// executed) by a gravity walk.
    pub nodes_visited: u64,
    /// Particle–particle interactions evaluated.
    pub p2p_interactions: u64,
    /// Particle–multipole (cell) interactions evaluated.
    pub p2m_interactions: u64,
    /// Ball queries whose radius was clamped below half a periodic span.
    /// A sustained nonzero rate means `2h` outgrew the domain — support
    /// is silently truncated, which the step statistics must surface
    /// instead of hiding.
    pub radius_clamps: u64,
}

impl TraversalStats {
    pub fn merge(&mut self, o: &TraversalStats) {
        self.nodes_visited += o.nodes_visited;
        self.p2p_interactions += o.p2p_interactions;
        self.p2m_interactions += o.p2m_interactions;
        self.radius_clamps += o.radius_clamps;
    }

    /// Total interaction count, the dominant cost driver.
    pub fn total_interactions(&self) -> u64 {
        self.p2p_interactions + self.p2m_interactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge() {
        let mut a = TraversalStats {
            nodes_visited: 1,
            p2p_interactions: 2,
            p2m_interactions: 3,
            radius_clamps: 4,
        };
        let b = TraversalStats {
            nodes_visited: 10,
            p2p_interactions: 20,
            p2m_interactions: 30,
            radius_clamps: 40,
        };
        a.merge(&b);
        assert_eq!(a.nodes_visited, 11);
        assert_eq!(a.total_interactions(), 55);
        assert_eq!(a.radius_clamps, 44);
    }
}
