//! Determinism across thread counts, and Sedov across rank counts.
//!
//! The parallel rayon shim splits every hot loop at fixed chunk boundaries
//! (independent of the worker count) and the call sites reduce chunk
//! results in order, so a run must produce **bit-identical** state,
//! counters and conservation sums at every thread count. This property
//! is what keeps the sph-ft conservation-drift SDC detector meaningful: a
//! drift can only mean corruption, never scheduling noise.
//!
//! Every scenario runs through the cell-list/CSR neighbour pipeline (grid
//! sort + CSR list build + SoA kernel passes + ping-pong update), so these
//! cells also pin the pipeline's determinism: the CSR rows are assembled
//! per fixed chunk and spliced in order, and the grid's counting sort is
//! sequential. Each test runs its share of the contract table
//! (`tests/contract/mod.rs`).

mod contract;

#[test]
fn square_patch_step_is_bit_identical_across_thread_counts() {
    contract::check_share("square_patch_step_is_bit_identical_across_thread_counts");
}

#[test]
fn evrard_step_is_bit_identical_across_thread_counts() {
    contract::check_share("evrard_step_is_bit_identical_across_thread_counts");
}

/// Sedov is the shock-dominated workload the fixed-chunk contract must
/// also cover (strong shocks exercise the h-iteration escalation and the
/// Balsara branches that the two smooth paper tests never touch).
#[test]
fn sedov_step_is_bit_identical_across_thread_counts() {
    contract::check_share("sedov_step_is_bit_identical_across_thread_counts");
}

#[test]
fn sedov_is_bit_identical_across_rank_counts() {
    contract::check_share("sedov_is_bit_identical_across_rank_counts");
}
