//! Fault-tolerance substrate.
//!
//! Table 4 prescribes for the mini-app: "Checkpoint-Restart: Optimal
//! interval, Multilevel" and "Error Detection: Silent data corruption
//! detectors"; §4 adds selective replication and ABFT. Implemented here
//! are the optimal interval, checkpoint/restart and the detectors.
//! **Not implemented:** Table 4's "Multilevel" checkpointing and §4's
//! selective replication and ABFT — what exists instead is N checkpoint
//! generations on one store with rollback to the newest intact one, in
//! `sph_exa::ResilientSimulation`.
//!
//! * [`codec`] — the one owner of stored formats: the checksummed
//!   frame every stored object wears, the particle snapshot and the
//!   distributed-checkpoint manifest (no external dependencies);
//! * [`checkpoint`] — in-memory and on-disk checkpoint stores: atomic
//!   byte maps with one namespace that keep exactly the bytes they are
//!   given (integrity is the codec's frame, checked on decode);
//! * [`daly`] — the Young/Daly optimal checkpoint interval and the
//!   expected-waste model it minimises;
//! * [`scheduler`] — the checkpoint cadence (fixed steps or Daly);
//! * [`sdc`] — silent-data-corruption injection and three detectors
//!   (checksum, physics bounds, conservation drift);
//! * [`chaos`] — deterministic seeded fault plans and the fault-injecting
//!   [`Exchange`](sph_domain::Exchange) wrapper the chaos suite drives;
//! * [`error`] — the typed [`FtError`] all of the above report with.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod chaos;
pub mod checkpoint;
pub mod codec;
pub mod daly;
pub mod error;
pub mod scheduler;
pub mod sdc;

pub use chaos::{CorruptionMode, FaultEvent, FaultKind, FaultPlan, FaultyExchange};
pub use checkpoint::{CheckpointStore, DiskStore, MemoryStore, NamespacedStore};
pub use error::FtError;
