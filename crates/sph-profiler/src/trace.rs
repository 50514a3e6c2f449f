//! Per-worker span timelines — the reproduction's trace format.
//!
//! The cluster simulator emits one [`Span`] per (worker, phase, state)
//! interval in modelled seconds; the POP calculator and the Gantt renderer
//! consume the resulting [`Trace`]. Spans within one worker must be
//! non-overlapping and appended in time order (enforced).

use crate::phase::{Phase, WorkerState};

/// One contiguous interval of a worker's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub phase: Phase,
    pub state: WorkerState,
    /// Start time (modelled seconds).
    pub start: f64,
    /// End time (≥ start).
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A collection of per-worker timelines.
#[derive(Debug, Clone)]
pub struct Trace {
    workers: Vec<Vec<Span>>,
}

impl Trace {
    /// Create a trace with `n` empty worker timelines.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers > 0);
        Trace { workers: vec![Vec::new(); n_workers] }
    }

    /// Append a span to `worker`'s timeline.
    ///
    /// Panics if it overlaps the previous span or has negative duration —
    /// a malformed trace would silently corrupt every downstream metric.
    pub fn push(&mut self, worker: usize, span: Span) {
        assert!(span.end >= span.start, "negative-duration span: {span:?}");
        let lane = &mut self.workers[worker];
        if let Some(last) = lane.last() {
            assert!(
                span.start >= last.end - 1e-12,
                "span {span:?} overlaps previous {last:?} on worker {worker}"
            );
        }
        lane.push(span);
    }

    /// Convenience: append a span starting where the worker's last span
    /// ended (or 0), with the given duration. Returns the new end time.
    pub fn append(
        &mut self,
        worker: usize,
        phase: Phase,
        state: WorkerState,
        duration: f64,
    ) -> f64 {
        let start = self.end_of(worker);
        let span = Span { phase, state, start, end: start + duration };
        self.push(worker, span);
        span.end
    }

    /// End time of a worker's timeline (0 when empty).
    pub fn end_of(&self, worker: usize) -> f64 {
        self.workers[worker].last().map_or(0.0, |s| s.end)
    }

    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    pub fn spans(&self, worker: usize) -> &[Span] {
        &self.workers[worker]
    }

    /// Latest end time over all workers (the modelled runtime).
    pub fn makespan(&self) -> f64 {
        (0..self.n_workers()).map(|w| self.end_of(w)).fold(0.0, f64::max)
    }

    /// Useful-computation time of one worker.
    pub fn useful_time(&self, worker: usize) -> f64 {
        self.workers[worker]
            .iter()
            .filter(|s| s.state == WorkerState::Useful)
            .map(Span::duration)
            .sum()
    }

    /// Time a worker spends in a given state.
    pub fn state_time(&self, worker: usize, state: WorkerState) -> f64 {
        self.workers[worker].iter().filter(|s| s.state == state).map(Span::duration).sum()
    }

    /// Total useful time across workers.
    pub fn total_useful(&self) -> f64 {
        (0..self.n_workers()).map(|w| self.useful_time(w)).sum()
    }

    /// Aggregate useful time per phase across all workers — the "where does
    /// the time go" summary Fig. 4 is read for.
    pub(crate) fn phase_breakdown(&self) -> Vec<(Phase, f64)> {
        Phase::all()
            .into_iter()
            .map(|p| {
                let t: f64 = self
                    .workers
                    .iter()
                    .flatten()
                    .filter(|s| s.phase == p && s.state == WorkerState::Useful)
                    .map(Span::duration)
                    .sum();
                (p, t)
            })
            .collect()
    }

    /// Pad every worker with Idle to the common makespan — workers that
    /// finish early wait at the step barrier, which is exactly the black
    /// idle region of Fig. 4.
    pub fn close_step(&mut self, phase: Phase) {
        let end = self.makespan();
        for w in 0..self.n_workers() {
            let t = self.end_of(w);
            if t < end {
                self.push(w, Span { phase, state: WorkerState::Idle, start: t, end });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_chains_spans() {
        let mut t = Trace::new(2);
        t.append(0, Phase::TreeBuild, WorkerState::Useful, 1.0);
        t.append(0, Phase::Density, WorkerState::Useful, 2.0);
        t.append(1, Phase::TreeBuild, WorkerState::Useful, 0.5);
        assert_eq!(t.end_of(0), 3.0);
        assert_eq!(t.end_of(1), 0.5);
        assert_eq!(t.makespan(), 3.0);
        assert_eq!(t.spans(0).len(), 2);
    }

    #[test]
    #[should_panic]
    fn rejects_overlap() {
        let mut t = Trace::new(1);
        t.push(0, Span { phase: Phase::Density, state: WorkerState::Useful, start: 0.0, end: 2.0 });
        t.push(0, Span { phase: Phase::Update, state: WorkerState::Useful, start: 1.0, end: 3.0 });
    }

    #[test]
    #[should_panic]
    fn rejects_negative_duration() {
        let mut t = Trace::new(1);
        t.push(0, Span { phase: Phase::Density, state: WorkerState::Useful, start: 2.0, end: 1.0 });
    }

    #[test]
    fn useful_and_state_times() {
        let mut t = Trace::new(1);
        t.append(0, Phase::TreeBuild, WorkerState::Useful, 1.0);
        t.append(0, Phase::NeighborLists, WorkerState::Communication, 0.5);
        t.append(0, Phase::Density, WorkerState::Useful, 2.0);
        t.append(0, Phase::Update, WorkerState::Idle, 0.25);
        assert_eq!(t.useful_time(0), 3.0);
        assert_eq!(t.state_time(0, WorkerState::Communication), 0.5);
        assert_eq!(t.state_time(0, WorkerState::Idle), 0.25);
        assert_eq!(t.total_useful(), 3.0);
    }

    #[test]
    fn phase_breakdown_aggregates_workers() {
        let mut t = Trace::new(2);
        t.append(0, Phase::Density, WorkerState::Useful, 1.0);
        t.append(1, Phase::Density, WorkerState::Useful, 2.0);
        t.append(1, Phase::Gravity, WorkerState::Useful, 4.0);
        let bd = t.phase_breakdown();
        let density = bd.iter().find(|(p, _)| *p == Phase::Density).unwrap().1;
        let gravity = bd.iter().find(|(p, _)| *p == Phase::Gravity).unwrap().1;
        assert_eq!(density, 3.0);
        assert_eq!(gravity, 4.0);
    }

    #[test]
    fn close_step_pads_stragglers() {
        let mut t = Trace::new(3);
        t.append(0, Phase::Density, WorkerState::Useful, 3.0);
        t.append(1, Phase::Density, WorkerState::Useful, 1.0);
        t.append(2, Phase::Density, WorkerState::Useful, 2.0);
        t.close_step(Phase::Update);
        for w in 0..3 {
            assert_eq!(t.end_of(w), 3.0);
        }
        assert_eq!(t.state_time(1, WorkerState::Idle), 2.0);
        assert_eq!(t.state_time(0, WorkerState::Idle), 0.0);
    }
}
