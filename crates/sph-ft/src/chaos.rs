//! Deterministic fault injection for the distributed step protocol.
//!
//! A [`FaultPlan`] is a seeded, replayable schedule of faults: each
//! [`FaultEvent`] names a step and a [`FaultKind`]. Exchange-side kinds
//! (rank kill, payload corruption, transient carrier errors) are executed
//! by [`FaultyExchange`], a wrapper around any
//! [`sph_domain::Exchange`] carrier; state- and storage-side
//! kinds (in-memory SDC, checkpoint bit rot) are executed by the
//! recovery driver (`sph_exa::ResilientSimulation`) at step boundaries.
//!
//! Every event is **one-shot**: once fired it is marked spent and never
//! fires again, so the rollback-and-replay recovery path re-executes the
//! same steps *without* re-suffering the same fault — exactly the
//! semantics of a real transient failure, and the property that makes a
//! chaos run terminate. Determinism is total: the same plan against the
//! same simulation produces the same faults, detections, and recovery
//! trajectory on every run, for any `SPH_THREADS`.

use crate::sdc::SdcInjector;
use sph_domain::exchange::{Exchange, ExchangeError, ExchangePath};

/// How stored checkpoint bytes get damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// XOR one bit: `byte` indexes into the stored bytes (wrapped by
    /// length), `bit` selects the bit within it.
    BitFlip { byte: usize, bit: u8 },
    /// Truncate the stored bytes to at most `keep` bytes.
    Truncate { keep: usize },
}

/// The fault taxonomy of the chaos suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Rank `rank` dies: every subsequent exchange fails with
    /// `RankFailed` until the recovery layer calls `recover_rank`,
    /// which succeeds iff `respawnable`.
    KillRank { rank: u32, respawnable: bool },
    /// The next `repeat` operations on `path` arrive corrupted: the
    /// carrier flips `bit` of the payload and reports
    /// `PayloadCorruption` (integrity check failed on arrival).
    CorruptPayload { path: ExchangePath, bit: u32, repeat: u32 },
    /// The next `failures` operations on `path` fail with a retryable
    /// `Transient` error, then the carrier heals.
    Transient { path: ExchangePath, failures: u32 },
    /// Flip one seeded-random bit in one in-memory particle field
    /// (executed by the recovery driver via [`SdcInjector`]).
    CorruptField,
    /// Damage the *newest stored* checkpoint's manifest (executed by
    /// the recovery driver as `CheckpointStore` get → mutate → put).
    CorruptNewestCheckpoint { mode: CorruptionMode },
}

impl FaultKind {
    /// Whether [`FaultyExchange`] executes this kind (vs the recovery
    /// driver at step boundaries).
    pub(crate) fn is_exchange_side(&self) -> bool {
        matches!(
            self,
            FaultKind::KillRank { .. }
                | FaultKind::CorruptPayload { .. }
                | FaultKind::Transient { .. }
        )
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Macro-step index at (or after) which the fault fires.
    pub step: u64,
    pub kind: FaultKind,
}

/// A seeded, replayable fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, events: Vec::new() }
    }

    /// Schedule `kind` at `step` (builder style).
    pub fn at(mut self, step: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { step, kind });
        self
    }

    /// The seeded injector used for [`FaultKind::CorruptField`] events.
    pub fn injector(&self) -> SdcInjector {
        SdcInjector::new(self.seed)
    }

    /// Partition into (exchange-side, driver-side) event lists.
    pub fn split(&self) -> (Vec<FaultEvent>, Vec<FaultEvent>) {
        let (ex, st): (Vec<_>, Vec<_>) =
            self.events.iter().partition(|e| e.kind.is_exchange_side());
        (ex, st)
    }
}

/// Internal: an exchange-side event plus its firing state.
#[derive(Debug, Clone, Copy)]
struct ArmedEvent {
    event: FaultEvent,
    /// Remaining firings (payload corruption `repeat` / transient
    /// `failures`; 1 for rank kills). 0 ⇒ spent.
    remaining: u32,
}

/// A fault-injecting wrapper around any exchange carrier.
///
/// Wraps the real carrier and, keyed off the step watermark delivered by
/// `begin_step`, executes the exchange-side events of a [`FaultPlan`].
/// When no event applies, every call forwards unchanged — a
/// `FaultyExchange` with an empty plan is bit-identical to its inner
/// carrier.
pub struct FaultyExchange {
    inner: Box<dyn Exchange>,
    events: Vec<ArmedEvent>,
    /// `(rank, respawnable)` for currently-dead ranks, sorted by rank.
    dead: Vec<(u32, bool)>,
    step: u64,
}

impl FaultyExchange {
    /// Wrap `inner`, executing the exchange-side events of `plan`.
    pub fn new(inner: Box<dyn Exchange>, plan: &FaultPlan) -> Self {
        let (exchange_events, _) = plan.split();
        let events = exchange_events
            .into_iter()
            .map(|event| {
                let remaining = match event.kind {
                    FaultKind::KillRank { .. } => 1,
                    FaultKind::CorruptPayload { repeat, .. } => repeat,
                    FaultKind::Transient { failures, .. } => failures,
                    // Driver-side kinds are filtered out by split().
                    FaultKind::CorruptField | FaultKind::CorruptNewestCheckpoint { .. } => 0,
                };
                ArmedEvent { event, remaining }
            })
            .collect();
        FaultyExchange { inner, events, dead: Vec::new(), step: 0 }
    }

    /// A dead rank fails *every* path: the protocol is bulk-synchronous,
    /// so each superstep touches all ranks.
    fn check_dead(&self, path: ExchangePath) -> Result<(), ExchangeError> {
        match self.dead.first() {
            Some(&(rank, _)) => Err(ExchangeError::rank_failed(path, rank)),
            None => Ok(()),
        }
    }

    /// Run the pre-operation fault gates for `path`; on a corruption
    /// event, `damage` applies the bit flip to the in-flight payload.
    fn gate(
        &mut self,
        path: ExchangePath,
        damage: &mut dyn FnMut(u32),
    ) -> Result<(), ExchangeError> {
        self.check_dead(path)?;
        for armed in &mut self.events {
            if armed.remaining == 0 || armed.event.step > self.step {
                continue;
            }
            match armed.event.kind {
                FaultKind::Transient { path: p, .. } if p == path => {
                    armed.remaining -= 1;
                    return Err(ExchangeError::transient(
                        path,
                        format!("injected carrier fault at step {}", self.step),
                    ));
                }
                FaultKind::CorruptPayload { path: p, bit, .. } if p == path => {
                    armed.remaining -= 1;
                    damage(bit);
                    return Err(ExchangeError::corruption(
                        path,
                        format!("bit {bit} flipped in flight at step {}", self.step),
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl Exchange for FaultyExchange {
    fn begin_step(&mut self, step: u64) {
        self.step = step;
        for armed in &mut self.events {
            if armed.remaining == 0 || armed.event.step > step {
                continue;
            }
            if let FaultKind::KillRank { rank, respawnable } = armed.event.kind {
                armed.remaining = 0;
                if let Err(at) = self.dead.binary_search_by_key(&rank, |&(r, _)| r) {
                    self.dead.insert(at, (rank, respawnable));
                }
            }
        }
        self.inner.begin_step(step);
    }

    fn reduce_max(&mut self, path: ExchangePath, per_rank: &[f64]) -> Result<f64, ExchangeError> {
        // Reductions carry no mutable payload; corruption there surfaces
        // as the error alone (the integrity check rejected the result).
        self.gate(path, &mut |_| {})?;
        self.inner.reduce_max(path, per_rank)
    }

    fn reduce_min(&mut self, path: ExchangePath, per_rank: &[f64]) -> Result<f64, ExchangeError> {
        self.gate(path, &mut |_| {})?;
        self.inner.reduce_min(path, per_rank)
    }

    fn deliver_f64(
        &mut self,
        path: ExchangePath,
        to_rank: u32,
        payload: &mut Vec<f64>,
    ) -> Result<(), ExchangeError> {
        self.gate(path, &mut |bit| {
            if !payload.is_empty() {
                let word = (bit as usize / 64) % payload.len();
                let v = payload[word];
                payload[word] = f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64)));
            }
        })?;
        self.inner.deliver_f64(path, to_rank, payload)
    }

    fn deliver_bytes(
        &mut self,
        path: ExchangePath,
        to_rank: u32,
        payload: &mut Vec<u8>,
    ) -> Result<(), ExchangeError> {
        self.gate(path, &mut |bit| {
            if !payload.is_empty() {
                let byte = (bit as usize / 8) % payload.len();
                payload[byte] ^= 1u8 << (bit % 8);
            }
        })?;
        self.inner.deliver_bytes(path, to_rank, payload)
    }

    fn recover_rank(&mut self, rank: u32) -> Result<(), ExchangeError> {
        if let Ok(at) = self.dead.binary_search_by_key(&rank, |&(r, _)| r) {
            let (_, respawnable) = self.dead[at];
            if !respawnable {
                // Permanently lost: recovery cannot proceed without it.
                return Err(ExchangeError::rank_failed(ExchangePath::HaloNegotiation, rank));
            }
            self.dead.remove(at);
        }
        self.inner.recover_rank(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_domain::exchange::{ExchangeErrorKind, InProcessExchange};

    fn faulty(plan: FaultPlan) -> FaultyExchange {
        FaultyExchange::new(Box::new(InProcessExchange::new()), &plan)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let mut ex = faulty(FaultPlan::new(7));
        ex.begin_step(5);
        let mut payload = vec![1.5, -2.5];
        ex.deliver_f64(ExchangePath::GhostRefresh, 0, &mut payload).unwrap();
        assert_eq!(payload, vec![1.5, -2.5]);
        assert_eq!(ex.reduce_min(ExchangePath::DtReduce, &[0.25, 0.5]).unwrap(), 0.25);
    }

    #[test]
    fn transient_fails_exactly_n_times_then_heals() {
        let plan = FaultPlan::new(1)
            .at(3, FaultKind::Transient { path: ExchangePath::Migration, failures: 2 });
        let mut ex = faulty(plan);
        // Before the scheduled step: clean.
        ex.begin_step(2);
        let mut p = vec![1.0];
        ex.deliver_f64(ExchangePath::Migration, 0, &mut p).unwrap();
        // At the scheduled step: exactly two retryable failures.
        ex.begin_step(3);
        for _ in 0..2 {
            let err = ex.deliver_f64(ExchangePath::Migration, 0, &mut p).unwrap_err();
            assert!(err.is_retryable());
            assert_eq!(p, vec![1.0], "transient faults must not touch the payload");
        }
        ex.deliver_f64(ExchangePath::Migration, 0, &mut p).unwrap();
        // Other paths were never affected.
        ex.reduce_min(ExchangePath::DtReduce, &[0.5]).unwrap();
    }

    #[test]
    fn corruption_flips_a_bit_and_is_not_retryable() {
        let plan = FaultPlan::new(1).at(
            0,
            FaultKind::CorruptPayload { path: ExchangePath::GhostRefresh, bit: 1, repeat: 1 },
        );
        let mut ex = faulty(plan);
        ex.begin_step(0);
        let mut p = vec![1.0, 2.0];
        let err = ex.deliver_f64(ExchangePath::GhostRefresh, 1, &mut p).unwrap_err();
        assert!(matches!(err.kind, ExchangeErrorKind::PayloadCorruption { .. }));
        assert!(!err.is_retryable());
        assert_ne!(p[0].to_bits(), 1.0f64.to_bits(), "payload must actually be damaged");
        // One-shot: the replay after rollback sees a clean carrier.
        let mut q = vec![1.0, 2.0];
        ex.deliver_f64(ExchangePath::GhostRefresh, 1, &mut q).unwrap();
        assert_eq!(q[0].to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn killed_rank_fails_every_path_until_recovered() {
        let plan = FaultPlan::new(1).at(4, FaultKind::KillRank { rank: 2, respawnable: true });
        let mut ex = faulty(plan);
        ex.begin_step(4);
        assert_eq!(ex.dead, vec![(2, true)]);
        let err = ex.reduce_max(ExchangePath::HaloNegotiation, &[1.0]).unwrap_err();
        assert!(matches!(err.kind, ExchangeErrorKind::RankFailed { rank: 2 }));
        let mut b = vec![0u8; 4];
        assert!(ex.deliver_bytes(ExchangePath::CheckpointBlob, 0, &mut b).is_err());
        // Respawn, then everything works — and the kill never re-fires.
        ex.recover_rank(2).unwrap();
        assert!(ex.dead.is_empty());
        ex.begin_step(4);
        ex.reduce_max(ExchangePath::HaloNegotiation, &[1.0]).unwrap();
    }

    #[test]
    fn non_respawnable_rank_stays_lost() {
        let plan = FaultPlan::new(1).at(0, FaultKind::KillRank { rank: 1, respawnable: false });
        let mut ex = faulty(plan);
        ex.begin_step(0);
        let err = ex.recover_rank(1).unwrap_err();
        assert!(matches!(err.kind, ExchangeErrorKind::RankFailed { rank: 1 }));
        assert_eq!(ex.dead, vec![(1, false)]);
    }

    #[test]
    fn split_partitions_by_side() {
        let plan = FaultPlan::new(9)
            .at(1, FaultKind::CorruptField)
            .at(2, FaultKind::Transient { path: ExchangePath::DtReduce, failures: 1 })
            .at(
                3,
                FaultKind::CorruptNewestCheckpoint { mode: CorruptionMode::Truncate { keep: 8 } },
            );
        let (ex, st) = plan.split();
        assert_eq!(ex.len(), 1);
        assert_eq!(st.len(), 2);
        assert!(ex.iter().all(|e| e.kind.is_exchange_side()));
        assert!(st.iter().all(|e| !e.kind.is_exchange_side()));
    }
}
