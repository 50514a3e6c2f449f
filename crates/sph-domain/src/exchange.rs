//! The rank-to-rank exchange seam.
//!
//! The distributed step driver performs exactly five kinds of
//! communication per macro-step (see the crate docs): halo-radius
//! negotiation, ghost-field refresh, particle migration, the global dt
//! reduction, and checkpoint blob movement. Each of those goes through
//! the [`Exchange`] trait so the *protocol* is fixed while the *carrier*
//! is pluggable: [`InProcessExchange`] (this module) is the determinism
//! reference, a fault-injecting wrapper lives in `sph-ft`, and a real
//! shared-memory or socket transport can slot in later without touching
//! the driver.
//!
//! # Contract
//!
//! * **Reductions are exact.** `reduce_max`/`reduce_min` must return the
//!   IEEE fold of the per-rank contributions — `max`/`min` are
//!   order-independent, so any tree shape a real transport uses yields
//!   the same bits as the sequential fold.
//! * **Deliveries are bit-preserving.** A successful `deliver_f64` /
//!   `deliver_bytes` leaves the payload exactly as handed in (the
//!   in-process carrier moves nothing; a real one must round-trip the
//!   bytes unchanged). The driver reads the payload back *after* the
//!   call, so a transport that detects corruption must report it as an
//!   error rather than deliver altered bits.
//! * **Transient errors are retry-safe.** On [`ExchangeErrorKind::Transient`]
//!   the payload is unmodified and the same call may be issued again.
//!   Non-transient errors (payload corruption, rank failure) are not
//!   retryable; the driver escalates them to its recovery layer.

use std::error::Error;
use std::fmt;

/// The five communication paths of the distributed step protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExchangePath {
    /// Global max-h reduction that sizes the halo import radius.
    HaloNegotiation,
    /// Owner → ghost field refresh between kernel passes.
    GhostRefresh,
    /// Particles drifting across rank boundaries.
    Migration,
    /// Exact global `min` over per-rank dt bounds.
    DtReduce,
    /// Per-rank snapshot + manifest bytes moving to stable storage.
    CheckpointBlob,
}

impl ExchangePath {
    pub(crate) fn name(&self) -> &'static str {
        match self {
            ExchangePath::HaloNegotiation => "halo_negotiation",
            ExchangePath::GhostRefresh => "ghost_refresh",
            ExchangePath::Migration => "migration",
            ExchangePath::DtReduce => "dt_reduce",
            ExchangePath::CheckpointBlob => "checkpoint_blob",
        }
    }
}

impl fmt::Display for ExchangePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What went wrong on an exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeErrorKind {
    /// Recoverable carrier hiccup (dropped message, timeout). The payload
    /// is untouched; the caller may retry the identical call.
    Transient { detail: String },
    /// The payload arrived but its integrity check failed. Not retryable:
    /// the correct bits are gone and only a rollback can restore them.
    PayloadCorruption { detail: String },
    /// A peer rank is unreachable. Not retryable until the rank is
    /// recovered (see [`Exchange::recover_rank`]).
    RankFailed { rank: u32 },
}

/// A failed exchange, tagged with the protocol path it happened on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeError {
    pub path: ExchangePath,
    pub kind: ExchangeErrorKind,
}

impl ExchangeError {
    pub fn transient(path: ExchangePath, detail: impl Into<String>) -> Self {
        ExchangeError { path, kind: ExchangeErrorKind::Transient { detail: detail.into() } }
    }

    pub fn corruption(path: ExchangePath, detail: impl Into<String>) -> Self {
        ExchangeError { path, kind: ExchangeErrorKind::PayloadCorruption { detail: detail.into() } }
    }

    pub fn rank_failed(path: ExchangePath, rank: u32) -> Self {
        ExchangeError { path, kind: ExchangeErrorKind::RankFailed { rank } }
    }

    /// Whether retrying the identical call can succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self.kind, ExchangeErrorKind::Transient { .. })
    }
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ExchangeErrorKind::Transient { detail } => {
                write!(f, "transient fault on {}: {detail}", self.path)
            }
            ExchangeErrorKind::PayloadCorruption { detail } => {
                write!(f, "payload corruption on {}: {detail}", self.path)
            }
            ExchangeErrorKind::RankFailed { rank } => {
                write!(f, "rank {rank} failed during {}", self.path)
            }
        }
    }
}

impl Error for ExchangeError {}

/// The carrier behind the distributed driver's five exchange paths.
///
/// Implementations must uphold the module-level contract: exact
/// reductions, bit-preserving deliveries, retry-safe transients.
pub trait Exchange {
    /// Called once at the top of every macro-step with the step index
    /// about to be computed. Fault-injecting or epoch-tagged transports
    /// key their behaviour off this; the in-process carrier ignores it.
    fn begin_step(&mut self, _step: u64) {}

    /// Exact global `max` over one contribution per rank.
    fn reduce_max(&mut self, path: ExchangePath, per_rank: &[f64]) -> Result<f64, ExchangeError>;

    /// Exact global `min` over one contribution per rank.
    fn reduce_min(&mut self, path: ExchangePath, per_rank: &[f64]) -> Result<f64, ExchangeError>;

    /// Move an f64 payload to `to_rank`. On `Ok(())` the payload holds
    /// exactly the delivered bits (unchanged for the in-process carrier).
    fn deliver_f64(
        &mut self,
        path: ExchangePath,
        to_rank: u32,
        payload: &mut Vec<f64>,
    ) -> Result<(), ExchangeError>;

    /// Move a byte payload to `to_rank` (checkpoint snapshots/manifests).
    fn deliver_bytes(
        &mut self,
        path: ExchangePath,
        to_rank: u32,
        payload: &mut Vec<u8>,
    ) -> Result<(), ExchangeError>;

    /// Attempt to bring a failed rank back (respawn / reconnect). The
    /// in-process carrier has no failures, so the default succeeds.
    fn recover_rank(&mut self, _rank: u32) -> Result<(), ExchangeError> {
        Ok(())
    }
}

/// The determinism reference: all "ranks" live in one address space, so
/// reductions are sequential IEEE folds and deliveries are no-ops over
/// the caller's own buffer. Every other carrier is validated against the
/// bits this one produces.
#[derive(Debug, Default, Clone, Copy)]
pub struct InProcessExchange;

impl InProcessExchange {
    pub fn new() -> Self {
        InProcessExchange
    }
}

impl Exchange for InProcessExchange {
    fn reduce_max(&mut self, _path: ExchangePath, per_rank: &[f64]) -> Result<f64, ExchangeError> {
        Ok(per_rank.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    fn reduce_min(&mut self, _path: ExchangePath, per_rank: &[f64]) -> Result<f64, ExchangeError> {
        Ok(per_rank.iter().copied().fold(f64::INFINITY, f64::min))
    }

    fn deliver_f64(
        &mut self,
        _path: ExchangePath,
        _to_rank: u32,
        _payload: &mut Vec<f64>,
    ) -> Result<(), ExchangeError> {
        Ok(())
    }

    fn deliver_bytes(
        &mut self,
        _path: ExchangePath,
        _to_rank: u32,
        _payload: &mut Vec<u8>,
    ) -> Result<(), ExchangeError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reductions_are_exact_folds() {
        let mut ex = InProcessExchange::new();
        let vals = [3.5, -1.0, 7.25, 0.0];
        assert_eq!(ex.reduce_max(ExchangePath::HaloNegotiation, &vals).unwrap(), 7.25);
        assert_eq!(ex.reduce_min(ExchangePath::DtReduce, &vals).unwrap(), -1.0);
        // Empty contributions reduce to the fold identities.
        assert_eq!(ex.reduce_max(ExchangePath::HaloNegotiation, &[]).unwrap(), f64::NEG_INFINITY);
        assert_eq!(ex.reduce_min(ExchangePath::DtReduce, &[]).unwrap(), f64::INFINITY);
    }

    #[test]
    fn reductions_ignore_order() {
        let mut ex = InProcessExchange::new();
        let a = [0.1, 0.7, 0.3, 0.5];
        let b = [0.5, 0.3, 0.7, 0.1];
        assert_eq!(
            ex.reduce_max(ExchangePath::HaloNegotiation, &a).unwrap().to_bits(),
            ex.reduce_max(ExchangePath::HaloNegotiation, &b).unwrap().to_bits()
        );
    }

    #[test]
    fn deliveries_preserve_payload_bits() {
        let mut ex = InProcessExchange::new();
        let original = vec![1.0, f64::MIN_POSITIVE, -0.0, 1e308];
        let mut payload = original.clone();
        ex.deliver_f64(ExchangePath::GhostRefresh, 2, &mut payload).unwrap();
        assert!(payload.iter().zip(&original).all(|(a, b)| a.to_bits() == b.to_bits()));

        let bytes_in = vec![0u8, 255, 127, 1];
        let mut bytes = bytes_in.clone();
        ex.deliver_bytes(ExchangePath::CheckpointBlob, 0, &mut bytes).unwrap();
        assert_eq!(bytes, bytes_in);
    }

    #[test]
    fn error_taxonomy_retryability() {
        assert!(ExchangeError::transient(ExchangePath::Migration, "drop").is_retryable());
        assert!(!ExchangeError::corruption(ExchangePath::GhostRefresh, "bit").is_retryable());
        assert!(!ExchangeError::rank_failed(ExchangePath::DtReduce, 3).is_retryable());
    }

    #[test]
    fn display_names_the_path() {
        let e = ExchangeError::rank_failed(ExchangePath::HaloNegotiation, 1);
        assert_eq!(e.to_string(), "rank 1 failed during halo_negotiation");
    }
}
