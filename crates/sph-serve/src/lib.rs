//! Simulation-as-a-service over the scenario registry.
//!
//! `sph-serve` turns the workspace's validation scenarios into a small
//! job API: `POST /jobs` submits `(scenario, resolution, steps, seed)`,
//! `GET /jobs/:id` reports status and the finished
//! [`ValidationReport`](sph_scenarios::ValidationReport), and
//! `GET /metrics` exposes queue, cache, and admission telemetry. Three
//! properties of the underlying stack make the server more than a thin
//! wrapper:
//!
//! * **bit-determinism** — equal specs produce byte-identical results,
//!   so answering a resubmission from its finished job record, and
//!   collapsing in-flight duplicates onto one job, are provably sound
//!   ([`server`]);
//! * **measured prices** — jobs are priced in predicted seconds from the
//!   seconds per particle-step that completed jobs of the same scenario
//!   measured on this host, and admitted against a budget ([`admission`]);
//! * **checkpoint/rollback fault tolerance** — running jobs checkpoint
//!   on a cadence and resume across server restarts ([`jobs`]).
//!
//! Everything is hand-rolled on `std` (no crates.io), matching the rest
//! of the workspace.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod admission;
pub mod api;
pub mod error;
pub mod http;
pub mod jobs;
pub mod server;

pub use admission::AdmissionConfig;
pub use api::JobSpec;
pub use http::http_call;
pub use server::{Server, ServerConfig, ServerHandle};
