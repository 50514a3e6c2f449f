//! The SPH numerical core of the mini-app.
//!
//! Implements every "scientific characteristic" row of Table 2 of the
//! paper:
//!
//! | Table 2 column      | Module                                     |
//! |---------------------|--------------------------------------------|
//! | Kernel              | `sph-kernels` (consumed here)              |
//! | Gradients           | [`gradients`] — IAD and kernel derivatives |
//! | Volume elements     | [`volume`] — generalized and standard      |
//! | Mass of particles   | per-particle masses in [`particles`]       |
//! | Time-stepping       | [`timestep`] — global, individual, adaptive|
//! | Neighbour discovery | `sph-tree` cell list (driven from here)    |
//! | Self-gravity        | `sph-tree::gravity` (coupled in `sph-exa`) |
//!
//! The computational phases match Algorithm 1 and carry the same letters
//! the Extrae trace of Fig. 4 uses (A: tree build, B–D: neighbours and h,
//! E–H: SPH kernels, I: gravity, J: update), so the profiler can label the
//! timeline identically.

pub mod config;
pub mod density;
pub mod diagnostics;
pub mod eos;
pub mod forces;
pub mod gradients;
pub mod integrator;
mod lanes;
#[cfg(test)]
mod oracle;
pub mod particles;
pub mod timestep;
pub mod viscosity;
pub mod volume;

pub use config::{GradientScheme, SphConfig, TimeStepping, VolumeElements};
pub use diagnostics::Conservation;
pub use eos::IdealGas;
pub use particles::ParticleSystem;

/// Result of one full SPH force evaluation (steps 2–3 of Algorithm 1),
/// including interaction counts consumed by the performance model.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepStats {
    /// Neighbour-search traversal statistics.
    pub neighbor: sph_tree::TraversalStats,
    /// Smoothing-length iterations executed (phase B–D work multiplier).
    pub h_iterations: u64,
    /// SPH pair interactions of the density + force loops: one per
    /// non-self entry of their rows. The force pass evaluates a pair of a
    /// symmetric closure once but counts it for both rows, so this count —
    /// and the load measure and cluster model built on it — is the same
    /// however the pass is evaluated.
    pub sph_interactions: u64,
    /// Gravity traversal statistics (zero when gravity is off).
    pub gravity: sph_tree::TraversalStats,
    /// Number of particles that were active this step (== n for global
    /// time-stepping; a subset under individual/block time-stepping).
    pub active_particles: u64,
    /// Largest neighbour-search radius requested during the evaluation
    /// (the smoothing-length iteration can grow it past `2·h₀`). A
    /// distributed run's halo import is sufficient iff its radius covers
    /// this value — the quantity the halo-retry negotiation reduces over.
    pub max_search_radius: f64,
}

impl StepStats {
    pub fn merge(&mut self, o: &StepStats) {
        self.neighbor.merge(&o.neighbor);
        self.h_iterations += o.h_iterations;
        self.sph_interactions += o.sph_interactions;
        self.gravity.merge(&o.gravity);
        self.active_particles += o.active_particles;
        self.max_search_radius = self.max_search_radius.max(o.max_search_radius);
    }
}
