//! Per-code cost models: counted work units → modelled FLOPs.
//!
//! Each parent code burns a different number of effective FLOPs per
//! counted interaction (SPHYNX evaluates sinc kernels and 3×3 inverses per
//! pair; ChaNGa pays Charm++ object scheduling on top of every kernel;
//! SPH-flow runs a lean Wendland loop). Each also carries a different
//! *serial* per-step section — the term that caps its strong scaling
//! (SPHYNX 1.3.1's serial tree build was the headline finding of the
//! paper's Fig. 4 analysis). The concrete constants live in
//! [`crate::setups`]; this module defines the model and the arithmetic.

/// Cost model of one code on one machine-independent basis (FLOPs and
/// bytes; the machine model converts to seconds).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// FLOPs per SPH pair interaction (density + force loops combined).
    pub(crate) sph_flops_per_interaction: f64,
    /// FLOPs per gravity interaction (particle–particle or
    /// particle–multipole; ChaNGa's 16-pole expansions are folded into
    /// this constant).
    pub(crate) gravity_flops_per_interaction: f64,
    /// FLOPs per particle per tree level for the (parallelizable) tree
    /// build and neighbour bookkeeping.
    pub(crate) tree_flops_per_particle: f64,
    /// FLOPs per particle of *serial* (unparallelizable) per-step work —
    /// replicated sequential sections, domain bookkeeping, I/O stubs.
    /// This is the Amdahl term that flattens the scaling curves.
    pub(crate) serial_flops_per_particle: f64,
    /// Payload bytes exchanged per halo particle (positions, velocities,
    /// thermodynamics — SPH needs more than gravity-only codes).
    pub(crate) bytes_per_halo_particle: f64,
    /// Fixed per-step runtime overhead in FLOP-equivalents per rank
    /// (scheduler turns, message dispatch) — multiplied by the rank count
    /// in the collective term.
    pub(crate) runtime_flops_per_rank: f64,
}

impl CostModel {
    /// Modelled FLOPs for a rank owning `n_local` particles with the given
    /// counted work.
    pub(crate) fn rank_flops(
        &self,
        sph_interactions: f64,
        gravity_interactions: f64,
        n_local: f64,
    ) -> f64 {
        assert!(sph_interactions >= 0.0 && gravity_interactions >= 0.0 && n_local >= 0.0);
        let tree = self.tree_flops_per_particle * n_local * (n_local.max(2.0)).log2();
        self.sph_flops_per_interaction * sph_interactions
            + self.gravity_flops_per_interaction * gravity_interactions
            + tree
    }

    /// Serial per-step FLOPs for a problem of `n_total` particles.
    pub(crate) fn serial_flops(&self, n_total: f64) -> f64 {
        self.serial_flops_per_particle * n_total
    }

    /// Halo exchange payload for `particles` ghosts.
    pub(crate) fn halo_bytes(&self, particles: f64) -> f64 {
        self.bytes_per_halo_particle * particles
    }
}

impl Default for CostModel {
    /// A generic lean SPH code (used by the ablations and tests; the
    /// calibrated per-parent models live in `setups`).
    fn default() -> Self {
        CostModel {
            sph_flops_per_interaction: 400.0,
            gravity_flops_per_interaction: 60.0,
            tree_flops_per_particle: 40.0,
            serial_flops_per_particle: 500.0,
            bytes_per_halo_particle: 96.0,
            runtime_flops_per_rank: 1e5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_flops_composition() {
        let c = CostModel {
            sph_flops_per_interaction: 100.0,
            gravity_flops_per_interaction: 10.0,
            tree_flops_per_particle: 1.0,
            serial_flops_per_particle: 0.0,
            bytes_per_halo_particle: 64.0,
            runtime_flops_per_rank: 0.0,
        };
        // 1000 sph, 500 gravity, 256 particles (tree: 256·log2(256)=2048).
        let f = c.rank_flops(1000.0, 500.0, 256.0);
        assert!((f - (100_000.0 + 5_000.0 + 2048.0)).abs() < 1e-9);
    }

    #[test]
    fn serial_term_scales_with_problem_size() {
        let c = CostModel::default();
        assert!((c.serial_flops(2e6) / c.serial_flops(1e6) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn halo_bytes_linear() {
        let c = CostModel::default();
        assert_eq!(c.halo_bytes(100.0), 9600.0);
    }

    #[test]
    fn empty_rank_costs_nothing_variable() {
        let c = CostModel::default();
        assert_eq!(c.rank_flops(0.0, 0.0, 0.0), 0.0);
    }
}
