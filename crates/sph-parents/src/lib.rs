//! Parent-code emulations: SPHYNX, ChaNGa and SPH-flow as configurations
//! of the mini-app.
//!
//! The paper's co-design method (§4) is to express each parent code as a
//! point in the mini-app's feature space — Tables 1 and 3 are exactly
//! those coordinates. [`CodeSetup`] bundles one code's scientific
//! configuration (kernel, gradients, volume elements, time-stepping,
//! gravity), its computer-science configuration (domain decomposition,
//! load balancing), and its calibrated cost model for the cluster
//! simulator. [`features`] holds the Tables 1–4 data and renderers.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod features;
pub mod setups;

pub use features::{render_table, FeatureTable};
pub use setups::{changa, miniapp, sphflow, sphynx, CodeSetup, Scenario};
