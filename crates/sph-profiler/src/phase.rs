//! The computational phases of Algorithm 1 and worker execution states.
//!
//! Fig. 4 of the paper labels one SPHYNX time-step with letters A–J:
//! "Phase A is the building of the octree. Phases B, C, and D concern the
//! finding of neighbors. Phases E to H are the SPH-related calculations
//! (density, momentum, and energy, among other needed quantities). Phase I
//! is the calculation of self-gravity. Finally, phase J, is the
//! computation of the new time-step and the update of particle positions."

/// One phase of the SPH time-step, with the Fig. 4 letter code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// A — build the octree.
    TreeBuild,
    /// B — tree walk for candidate neighbours.
    NeighborWalk,
    /// C — smoothing-length iteration.
    SmoothingLength,
    /// D — neighbour-list finalisation / halo exchange.
    NeighborLists,
    /// E — density summation.
    Density,
    /// F — gradients / IAD matrices / EOS.
    Gradients,
    /// G — momentum equation.
    Momentum,
    /// H — energy equation.
    Energy,
    /// I — self-gravity.
    Gravity,
    /// J — new time-step and particle update.
    Update,
}

impl Phase {
    /// The Fig. 4 letter.
    pub(crate) fn letter(self) -> char {
        match self {
            Phase::TreeBuild => 'A',
            Phase::NeighborWalk => 'B',
            Phase::SmoothingLength => 'C',
            Phase::NeighborLists => 'D',
            Phase::Density => 'E',
            Phase::Gradients => 'F',
            Phase::Momentum => 'G',
            Phase::Energy => 'H',
            Phase::Gravity => 'I',
            Phase::Update => 'J',
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::TreeBuild => "tree build",
            Phase::NeighborWalk => "neighbor search",
            Phase::SmoothingLength => "smoothing length",
            Phase::NeighborLists => "neighbor lists",
            Phase::Density => "density",
            Phase::Gradients => "gradients/EOS",
            Phase::Momentum => "momentum",
            Phase::Energy => "energy",
            Phase::Gravity => "self-gravity",
            Phase::Update => "time-step & update",
        }
    }

    /// All phases in execution order.
    pub(crate) fn all() -> [Phase; 10] {
        [
            Phase::TreeBuild,
            Phase::NeighborWalk,
            Phase::SmoothingLength,
            Phase::NeighborLists,
            Phase::Density,
            Phase::Gradients,
            Phase::Momentum,
            Phase::Energy,
            Phase::Gravity,
            Phase::Update,
        ]
    }
}

/// Worker execution state, matching the Fig. 4 colour legend:
/// "computing phases (blue), MPI collective communication (orange),
/// thread synchronization (red), thread fork/join (yellow), and idle
/// threads (black)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkerState {
    /// Useful computation (blue).
    Useful,
    /// Communication — point-to-point or collective (orange).
    Communication,
    /// Synchronisation / fork-join overhead (red/yellow).
    Synchronization,
    /// Idle, waiting for stragglers (black).
    Idle,
}

impl WorkerState {
    /// Single-character code used by the ASCII Gantt for non-useful time
    /// (useful time renders as the phase letter instead).
    pub(crate) fn glyph(self) -> char {
        match self {
            WorkerState::Useful => '*',
            WorkerState::Communication => '~',
            WorkerState::Synchronization => '+',
            WorkerState::Idle => '.',
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_are_a_through_j() {
        let letters: Vec<char> = Phase::all().iter().map(|p| p.letter()).collect();
        assert_eq!(letters, vec!['A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J']);
    }

    #[test]
    fn letters_unique_and_ordered() {
        let phases = Phase::all();
        for w in phases.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[0].letter() < w[1].letter());
        }
    }

    #[test]
    fn names_are_nonempty() {
        for p in Phase::all() {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn state_glyphs_distinct() {
        let glyphs = [
            WorkerState::Useful.glyph(),
            WorkerState::Communication.glyph(),
            WorkerState::Synchronization.glyph(),
            WorkerState::Idle.glyph(),
        ];
        let mut dedup = glyphs.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), glyphs.len());
    }
}
