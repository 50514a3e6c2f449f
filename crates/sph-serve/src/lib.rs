//! Simulation-as-a-service over the scenario registry.
//!
//! `sph-serve` turns the workspace's validation scenarios into a small
//! job API: `POST /jobs` submits `(scenario, resolution, steps, seed)`,
//! `GET /jobs/:id` reports status and the finished
//! [`ValidationReport`](sph_scenarios::ValidationReport), and
//! `GET /metrics` exposes queue, cache, and calibration telemetry. Three
//! properties of the underlying stack make the server more than a thin
//! wrapper:
//!
//! * **bit-determinism** — equal specs produce byte-identical results,
//!   so the LRU result cache and in-flight dedup are provably sound
//!   ([`cache`]);
//! * **the cluster cost model** — jobs are priced in modelled seconds
//!   and admitted against a budget, with the machine model calibrated
//!   online from completed jobs ([`admission`]);
//! * **checkpoint/rollback fault tolerance** — running jobs checkpoint
//!   on a cadence and resume across server restarts ([`jobs`]).
//!
//! Everything is hand-rolled on `std` (no crates.io), matching the rest
//! of the workspace.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod admission;
pub mod api;
pub mod cache;
pub mod error;
pub mod http;
pub mod jobs;
pub mod server;

pub use admission::{Admission, AdmissionConfig};
pub use api::JobSpec;
pub use cache::ResultCache;
pub use error::ServeError;
pub use http::{http_call, Request, Response};
pub use server::{Server, ServerConfig, ServerHandle};
