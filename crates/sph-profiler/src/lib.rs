//! Performance tracing and POP efficiency metrics — the reproduction's
//! stand-in for the Extrae/Paraver toolchain of §5.2 and Fig. 4.
//!
//! The paper's methodology: record, per worker, which *phase* of
//! Algorithm 1 it is executing and in which *state* (useful computation,
//! MPI communication, synchronisation, idle), then derive the POP
//! efficiency hierarchy (load balance, communication efficiency,
//! computation scalability, global efficiency) from those timelines. This
//! crate implements the same pipeline over modelled (or measured) spans:
//!
//! * [`Phase`] — the A…J phase letters of Fig. 4 / Algorithm 1;
//! * [`Trace`] — per-worker span timelines;
//! * [`pop`] — the POP metric calculator;
//! * [`gantt`] — an ASCII Paraver-style timeline renderer (Fig. 4
//!   analogue);
//! * [`timers`] — wall-time phase timers for the Criterion benches.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod gantt;
pub mod phase;
pub mod pop;
pub mod timers;
pub mod trace;

pub use gantt::render_gantt;
pub use phase::{Phase, WorkerState};
pub use pop::{pop_metrics, PopMetrics};
pub use trace::{Span, Trace};
