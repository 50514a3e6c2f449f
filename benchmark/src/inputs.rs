//! Seed → inputs. The program under test only ever sees what is
//! generated here: the same seed gives bit-identical particle systems
//! and the same serve schedule.

use crate::spec;
use sph_core::ParticleSystem;
use sph_math::{SplitMix64, Vec3};
use sph_scenarios::{
    evrard_collapse, EvrardConfig, EvrardScenario, Resolution, Scenario, ScenarioSetup,
    SedovScenario, SquarePatchScenario,
};
use sph_serve::JobSpec;

/// Lattice jitter amplitude, as a share of the lattice spacing.
const JITTER: f64 = 0.02;

/// One simulation workload, sized and seeded.
pub struct SimCase {
    pub setup: ScenarioSetup,
    /// 1 runs `Simulation`; more run `DistributedSimulation`.
    pub nranks: usize,
    /// Macro-steps in one episode (the fixed unit of work that repeats).
    pub episode_steps: usize,
    /// Checkpoint to disk every this many steps of an episode, and
    /// restore once at its end.
    pub checkpoint_every: Option<usize>,
    /// The traced run replays the passes after every this-many-th step.
    pub replay_every: usize,
    /// Gate on momentum drift ÷ momentum scale.
    pub momentum_tol: f64,
}

/// Displace every particle of a lattice by at most `JITTER` spacings per
/// axis; the spacing is the cube root of the domain volume per particle.
fn jitter_lattice(sys: &mut ParticleSystem, seed: u64) {
    let spacing = (sys.periodicity.domain.volume() / sys.len() as f64).cbrt();
    let amp = JITTER * spacing;
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive("benchmark-lattice-jitter"));
    for x in sys.x.iter_mut() {
        *x += Vec3::new(rng.uniform(-amp, amp), rng.uniform(-amp, amp), rng.uniform(-amp, amp));
    }
}

/// The simulation workload `name`, or `None` if `name` is not one.
/// `smoke` shrinks it to about a twentieth for the test suite.
pub fn sim_case(name: &str, seed: u64, smoke: bool) -> Option<SimCase> {
    match name {
        spec::SEDOV_HYDRO => {
            // scale 1.0 → 32³ = 32 768 particles; smoke 12³.
            let mut setup =
                SedovScenario.init(Resolution { scale: if smoke { 0.375 } else { 1.0 } });
            jitter_lattice(&mut setup.sys, seed);
            Some(SimCase {
                setup,
                nranks: 1,
                episode_steps: if smoke { 4 } else { 10 },
                checkpoint_every: None,
                replay_every: if smoke { 2 } else { 3 },
                momentum_tol: 1e-10,
            })
        }
        spec::EVRARD_GRAVITY => {
            // The registered solver configuration and gravity, over a
            // cloud of our own size and seed (15 000 → about 15 560 particles).
            let mut setup = EvrardScenario.init(Resolution::default());
            setup.sys = evrard_collapse(&EvrardConfig {
                n_target: if smoke { 800 } else { 15_000 },
                seed,
                ..Default::default()
            });
            Some(SimCase {
                setup,
                nranks: 1,
                episode_steps: if smoke { 3 } else { 5 },
                checkpoint_every: None,
                replay_every: 2,
                momentum_tol: 1e-3,
            })
        }
        spec::PATCH_DIST4 => {
            // scale 2.0 → 40 × 40 × 16 = 25 600 particles; smoke 16 × 16 × 6.
            let mut setup =
                SquarePatchScenario.init(Resolution { scale: if smoke { 0.8 } else { 2.0 } });
            jitter_lattice(&mut setup.sys, seed);
            Some(SimCase {
                setup,
                nranks: 4,
                episode_steps: if smoke { 4 } else { 10 },
                checkpoint_every: Some(if smoke { 2 } else { 5 }),
                replay_every: if smoke { 2 } else { 3 },
                momentum_tol: 1e-10,
            })
        }
        _ => None,
    }
}

/// A `(scenario, resolution, steps)` the service is asked for. The three
/// are sized to cost about the same (≈ 0.4 s on the reference box).
pub struct Tuple {
    pub scenario: &'static str,
    pub scale: f64,
    pub steps: u64,
    pub smoke_steps: u64,
}

pub const TUPLES: [Tuple; 3] = [
    Tuple { scenario: "sedov", scale: 0.5, steps: 10, smoke_steps: 2 },
    Tuple { scenario: "sod", scale: 1.0, steps: 16, smoke_steps: 2 },
    Tuple { scenario: "square-patch", scale: 1.0, steps: 14, smoke_steps: 2 },
];

/// Submissions of already-finished specs that follow every cold job.
pub const HITS_PER_COLD: usize = 4;

#[derive(Debug, Clone, PartialEq)]
pub enum ServeOp {
    /// A spec the server has never seen: runs a simulation.
    Cold { tuple: usize, spec: JobSpec },
    /// A spec that already finished: answered from the result cache.
    Hit { spec: JobSpec },
}

/// The serve workload's request schedule for one client: which spec it
/// submits when. Job seeds are unique per (setup, client, round, tuple),
/// so a cold job is never a cache hit.
pub struct ServeSchedule {
    base: u64,
    smoke: bool,
    client: u64,
    rng: SplitMix64,
    /// Specs this client knows to be finished: hits draw from these.
    finished: Vec<JobSpec>,
}

impl ServeSchedule {
    pub fn new(seed: u64, client: u64, smoke: bool) -> ServeSchedule {
        let master = SplitMix64::new(seed);
        // Job seeds travel as JSON numbers: keep them exact in an f64.
        let base = master.derive("benchmark-serve-jobs") >> 12;
        let rng = SplitMix64::new(master.derive(&format!("benchmark-serve-client-{client}")));
        ServeSchedule { base, smoke, client, rng, finished: Vec::new() }
    }

    fn spec(&self, tuple: usize, index: u64) -> JobSpec {
        let t = &TUPLES[tuple];
        JobSpec {
            scenario: t.scenario.to_string(),
            scale: t.scale,
            steps: if self.smoke { t.smoke_steps } else { t.steps },
            seed: self.base + index,
        }
    }

    /// The warm-up job of `tuple` in the `setup`-th server of a run
    /// (set-up is repeated; every repetition gets fresh seeds).
    pub fn warmup(&self, setup: u64, tuple: usize) -> JobSpec {
        self.spec(tuple, setup * TUPLES.len() as u64 + tuple as u64)
    }

    /// Tell the schedule that `spec` finished on the server being
    /// measured (the warm-ups of the last set-up).
    pub fn mark_finished(&mut self, spec: JobSpec) {
        self.finished.push(spec);
    }

    /// One round: every tuple once as a cold job, in a seeded order,
    /// each followed by `HITS_PER_COLD` hits on finished specs.
    pub fn round(&mut self, round: u64) -> Vec<ServeOp> {
        let mut order: Vec<usize> = (0..TUPLES.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.next_below(i as u64 + 1) as usize);
        }
        let mut ops = Vec::with_capacity(order.len() * (1 + HITS_PER_COLD));
        for tuple in order {
            // Indices below 64 are the warm-ups'.
            let index = 64 + ((round * 2 + self.client) * TUPLES.len() as u64) + tuple as u64;
            let spec = self.spec(tuple, index);
            ops.push(ServeOp::Cold { tuple, spec: spec.clone() });
            self.finished.push(spec);
            for _ in 0..HITS_PER_COLD {
                let pick = self.rng.next_below(self.finished.len() as u64) as usize;
                ops.push(ServeOp::Hit { spec: self.finished[pick].clone() });
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_core::diagnostics::state_fingerprint;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_particles_other_seed_other_particles() {
        for w in [spec::SEDOV_HYDRO, spec::EVRARD_GRAVITY, spec::PATCH_DIST4] {
            let a = sim_case(w, 11, true).unwrap();
            let b = sim_case(w, 11, true).unwrap();
            let c = sim_case(w, 12, true).unwrap();
            assert_eq!(state_fingerprint(&a.setup.sys), state_fingerprint(&b.setup.sys), "{w}");
            assert_ne!(state_fingerprint(&a.setup.sys), state_fingerprint(&c.setup.sys), "{w}");
            assert!(a.setup.sys.sanity_check().is_ok());
        }
        assert!(sim_case(spec::SERVE_MIXED, 1, true).is_none());
    }

    #[test]
    fn full_size_cases_have_the_frozen_particle_counts() {
        assert_eq!(sim_case(spec::SEDOV_HYDRO, 1, false).unwrap().setup.sys.len(), 32_768);
        // The jittered lattice is clipped to a sphere: the seed moves a few
        // particles across the surface.
        let evrard = sim_case(spec::EVRARD_GRAVITY, 1, false).unwrap().setup.sys.len();
        assert!((15_500..15_620).contains(&evrard), "{evrard}");
        assert_eq!(sim_case(spec::PATCH_DIST4, 1, false).unwrap().setup.sys.len(), 25_600);
    }

    #[test]
    fn jitter_stays_within_two_percent_of_the_spacing() {
        let plain = SedovScenario.init(Resolution { scale: 0.375 }).sys;
        let jittered = sim_case(spec::SEDOV_HYDRO, 5, true).unwrap().setup.sys;
        let spacing = 1.0 / 12.0;
        let mut moved = 0;
        for (a, b) in plain.x.iter().zip(&jittered.x) {
            let d = *b - *a;
            for c in [d.x, d.y, d.z] {
                assert!(c.abs() <= JITTER * spacing * (1.0 + 1e-9), "{c}");
            }
            moved += usize::from(d.norm() > 0.0);
        }
        assert!(moved > plain.len() / 2);
    }

    fn rounds(seed: u64, client: u64, n: u64) -> Vec<Vec<ServeOp>> {
        let mut s = ServeSchedule::new(seed, client, false);
        for t in 0..TUPLES.len() {
            let w = s.warmup(2, t);
            s.mark_finished(w);
        }
        (0..n).map(|r| s.round(r)).collect()
    }

    #[test]
    fn same_seed_same_schedule_and_cold_jobs_are_unique() {
        assert_eq!(rounds(7, 0, 3), rounds(7, 0, 3));
        assert_ne!(rounds(7, 0, 3), rounds(8, 0, 3));
        assert_ne!(rounds(7, 0, 3), rounds(7, 1, 3));
        let mut cold = BTreeSet::new();
        let mut known = BTreeSet::new();
        let s = ServeSchedule::new(7, 0, false);
        for setup in 0..3 {
            for t in 0..TUPLES.len() {
                let id = s.warmup(setup, t).job_id();
                assert!(cold.insert(id.clone()), "warm-up seeds repeat");
                if setup == 2 {
                    known.insert(id);
                }
            }
        }
        for client in 0..2 {
            let mut mine = known.clone();
            for round in rounds(7, client, 4) {
                assert_eq!(round.len(), TUPLES.len() * (1 + HITS_PER_COLD));
                for op in round {
                    match op {
                        ServeOp::Cold { spec, .. } => {
                            assert!(spec.seed < 1 << 53);
                            assert!(cold.insert(spec.job_id()), "a cold job repeats");
                            mine.insert(spec.job_id());
                        }
                        ServeOp::Hit { spec } => {
                            assert!(mine.contains(&spec.job_id()), "hit on an unfinished spec");
                        }
                    }
                }
            }
        }
    }
}
