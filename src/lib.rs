//! Umbrella crate for the SPH-EXA reproduction.
//!
//! Re-exports every workspace crate under one roof so the examples and
//! integration tests (and downstream users who just want "the mini-app")
//! need a single dependency:
//!
//! ```
//! use sph_exa_repro::math::Vec3;
//! let v = Vec3::new(1.0, 2.0, 3.0);
//! assert_eq!(v.norm_sq(), 14.0);
//! ```

pub use sph_core as core;
pub use sph_domain as domain;
pub use sph_exa as exa;
pub use sph_ft as ft;
pub use sph_kernels as kernels;
pub use sph_math as math;
pub use sph_profiler as profiler;
pub use sph_scenarios as scenarios;
pub use sph_tree as tree;
