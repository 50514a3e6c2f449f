//! Golden trajectory fingerprints under the Adaptive and Individual
//! (block) time-stepping policies on several ranks: each test runs its
//! share of the contract table (`tests/contract/mod.rs`).

mod contract;

#[test]
fn square_patch_goldens() {
    contract::check_share("square_patch_goldens");
}

#[test]
fn evrard_goldens() {
    contract::check_share("evrard_goldens");
}

#[test]
fn sedov_goldens() {
    contract::check_share("sedov_goldens");
}
