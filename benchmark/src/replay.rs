//! The pass replay: on a copy of a workload's state, take the next
//! macro-step by calling the crates' public pass functions in
//! Algorithm-1 order, a span around each. Two checks keep it honest:
//! the passes must reproduce `Simulation::evaluate_derivatives` bit for
//! bit, and the whole replayed step must reproduce the step the driver
//! takes next (the caller compares the fingerprint returned here).

use crate::stats::median;
use crate::trace::Tracer;
use sph_core::config::{GradientScheme, TimeStepping};
use sph_core::density::compute_density;
use sph_core::diagnostics::state_fingerprint;
use sph_core::forces::compute_forces;
use sph_core::gradients::{compute_iad_matrices, compute_velocity_gradients};
use sph_core::integrator::{kick, kick_drift, PingPongBuffers};
use sph_core::timestep::{global_dt, per_particle_dt};
use sph_core::volume::compute_volume_elements;
use sph_core::{IdealGas, ParticleSystem, SphConfig};
use sph_exa::Simulation;
use sph_kernels::{Kernel, SUPPORT_RADIUS};
use sph_tree::{build_csr_lists, CellGrid, GravityConfig, GravitySolver, Octree, OctreeConfig};
use std::collections::BTreeMap;

/// Bytes read per neighbour, computed from the SoA field sizes (cache
/// misses are not in it). Density: the candidate's position, its cached
/// `(id, d²)` pair and its mass. Forces: the CSR index, x, v and the
/// eight scalars h, ρ, p, Ω, ∇·v, ∇×v, c_s, m — plus the IAD matrix
/// where that scheme is on.
const DENSITY_BYTES_PER_PAIR: f64 = 24.0 + 16.0 + 8.0;
const FORCE_BYTES_PER_PAIR: f64 = 4.0 + 24.0 + 24.0 + 8.0 * 8.0;
const IAD_BYTES_PER_PAIR: f64 = 72.0;

/// The passes whose spans must add up to `evaluate_derivatives`.
const EVALUATE_PASSES: [&str; 7] = [
    "sph-tree.grid_build",
    "sph-core.density",
    "sph-core.gradients",
    "sph-tree.csr_symmetrize",
    "sph-core.forces",
    "sph-tree.octree_build",
    "sph-tree.gravity_walk",
];

type Times = BTreeMap<&'static str, Vec<f64>>;

/// Run `f` under a span and keep its duration as one sample of `name`.
fn timed<T>(times: &mut Times, tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (value, dt) = tr.span(name, f);
    times.entry(name).or_default().push(dt);
    value
}

pub struct Replay {
    config: SphConfig,
    gravity: Option<GravityConfig>,
    kernel: Box<dyn Kernel>,
    eos: IdealGas,
    /// Span name → one duration per replay.
    times: Times,
    // Counts of the last replay (they describe the state, not the clock).
    particles: usize,
    neighbors_mean: f64,
    csr_bytes: f64,
    h_iterations: u64,
    density_pairs: u64,
    force_pairs: u64,
    gravity_interactions: u64,
}

impl Replay {
    pub fn new(config: SphConfig, gravity: Option<GravityConfig>) -> Replay {
        assert!(
            matches!(config.time_stepping, TimeStepping::Global),
            "the replay takes the global time-step the benchmark's scenarios use"
        );
        Replay {
            config,
            gravity,
            kernel: config.kernel.build(),
            eos: IdealGas::new(config.gamma),
            times: BTreeMap::new(),
            particles: 0,
            neighbors_mean: 0.0,
            csr_bytes: 0.0,
            h_iterations: 0,
            density_pairs: 0,
            force_pairs: 0,
            gravity_interactions: 0,
        }
    }

    pub fn count(&self) -> usize {
        self.times.get("sph-core.density").map_or(0, Vec::len)
    }

    /// Replay the step that follows `state` (whose derivatives are
    /// current). Returns the fingerprint the driver's state must have
    /// after its own next step.
    pub fn run(&mut self, state: &ParticleSystem, tr: &mut Tracer) -> Result<u64, String> {
        let config = self.config;
        let kernel = self.kernel.as_ref();
        let times = &mut self.times;
        let mut sys = state.clone();
        let n = sys.len();
        let all: Vec<u32> = (0..n as u32).collect();
        let mut buffers = PingPongBuffers::new(n);

        // Algorithm 1, steps 5–6 of the step before: dt, half-kick + drift.
        let dt = timed(times, tr, "sph-core.dt", || global_dt(&per_particle_dt(&sys, &config)))
            .map_err(|e| format!("replay: {e}"))?;
        timed(times, tr, "sph-core.kick_drift", || {
            kick_drift(&mut sys, &mut buffers, dt / 2.0, dt)
        });

        // The driver's own evaluation of the same drifted state. It and
        // the passes each get a copy made the same way: the drifted
        // original's arrays are laid out differently (ping-pong buffers),
        // which at cache-resident sizes alone shifts the ratio by a third.
        let mut reference = match self.gravity {
            Some(g) => Simulation::resume_with_gravity(sys.clone(), config, g),
            None => Simulation::resume(sys.clone(), config),
        }?;
        let mut sys = sys.clone();
        timed(times, tr, "sph-exa.evaluate_derivatives", || reference.evaluate_derivatives(&all));

        // Steps 1–4 as single passes.
        let grid = timed(times, tr, "sph-tree.grid_build", || {
            CellGrid::for_radius(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h())
        });
        let (lists, dstats) = timed(times, tr, "sph-core.density", || {
            compute_density(&mut sys, &grid, kernel, &config, &all)
        });
        timed(times, tr, "sph-core.gradients", || {
            compute_volume_elements(&mut sys, &lists, kernel, &config, &all);
            if config.gradients == GradientScheme::Iad {
                compute_iad_matrices(&mut sys, &lists, kernel, &all);
            }
            self.eos.apply(&sys.rho, &sys.u, &mut sys.p, &mut sys.cs);
            compute_velocity_gradients(&mut sys, &lists, kernel, config.gradients, &all);
        });
        let force_lists = timed(times, tr, "sph-tree.csr_symmetrize", || lists.symmetrized());
        let force_pairs = timed(times, tr, "sph-core.forces", || {
            compute_forces(&mut sys, &force_lists, kernel, &config, &all)
        });
        let mut gravity_interactions = 0;
        if let Some(gcfg) = self.gravity {
            let tree = timed(times, tr, "sph-tree.octree_build", || {
                Octree::build(&sys.x, &sys.bounds(), OctreeConfig::default())
            });
            let (samples, stats) = timed(times, tr, "sph-tree.gravity_walk", || {
                GravitySolver::new(&tree, &sys.m, gcfg).accelerations(&sys.x)
            });
            for (a, s) in sys.a.iter_mut().zip(&samples) {
                *a += s.accel;
            }
            gravity_interactions = stats.total_interactions();
        }
        if state_fingerprint(&sys) != state_fingerprint(&reference.sys) {
            return Err("replay: the single passes do not reproduce evaluate_derivatives".into());
        }

        // Outside the sum: the plain CSR gather at the converged h.
        let radii: Vec<f64> = sys.h.iter().map(|h| SUPPORT_RADIUS * h).collect();
        timed(times, tr, "sph-tree.csr_build", || build_csr_lists(&grid, &sys.x, &radii));

        timed(times, tr, "sph-core.kick", || kick(&mut sys, dt / 2.0, &all));
        sys.time += dt;
        sys.step_count += 1;

        self.particles = n;
        self.neighbors_mean = lists.mean_count();
        self.csr_bytes =
            4.0 * (2 * (n + 1) + lists.total_neighbors() + force_lists.total_neighbors()) as f64;
        self.h_iterations = dstats.h_iterations;
        self.density_pairs = dstats.sph_interactions;
        self.force_pairs = force_pairs;
        self.gravity_interactions = gravity_interactions;
        Ok(state_fingerprint(&sys))
    }

    fn p50(&self, name: &str) -> f64 {
        self.times.get(name).map_or(0.0, |v| median(v))
    }

    /// Write the replay's per-layer metrics into `m`; `op_p50` is the
    /// workload's median step. Returns Σ passes ÷ `evaluate_derivatives`:
    /// the median of that ratio over the replays, so that a disturbance
    /// during one replay does not decide it.
    pub fn report(&self, m: &mut BTreeMap<&'static str, f64>, op_p50: f64) -> f64 {
        let n = self.particles.max(1) as f64;
        let rate =
            |count: u64, seconds: f64| if seconds > 0.0 { count as f64 / seconds } else { 0.0 };
        m.insert("sph-tree.grid_build_s", self.p50("sph-tree.grid_build"));
        m.insert("sph-tree.csr_build_s", self.p50("sph-tree.csr_build"));
        m.insert("sph-tree.csr_symmetrize_s", self.p50("sph-tree.csr_symmetrize"));
        m.insert("sph-tree.neighbors_mean", self.neighbors_mean);
        m.insert("sph-tree.csr_bytes", self.csr_bytes);
        m.insert("sph-tree.octree_build_s", self.p50("sph-tree.octree_build"));
        let walk = self.p50("sph-tree.gravity_walk");
        m.insert("sph-tree.gravity_walk_s", walk);
        m.insert("sph-tree.gravity_interactions_per_s", rate(self.gravity_interactions, walk));
        m.insert(
            "sph-tree.gravity_interactions_per_particle",
            self.gravity_interactions as f64 / n,
        );
        let density = self.p50("sph-core.density");
        m.insert("sph-core.density_s", density);
        m.insert("sph-core.density_pairs_per_s", rate(self.density_pairs, density));
        m.insert("sph-core.h_iterations_per_particle", self.h_iterations as f64 / n);
        m.insert("sph-core.gradients_s", self.p50("sph-core.gradients"));
        let forces = self.p50("sph-core.forces");
        m.insert("sph-core.forces_s", forces);
        m.insert("sph-core.forces_pairs_per_s", rate(self.force_pairs, forces));
        let pairs = self.density_pairs + self.force_pairs;
        m.insert("sph-core.pair_interactions_per_step", pairs as f64);
        let force_bytes = FORCE_BYTES_PER_PAIR
            + if self.config.gradients == GradientScheme::Iad { IAD_BYTES_PER_PAIR } else { 0.0 };
        m.insert(
            "sph-core.bytes_per_pair_computed",
            (self.density_pairs as f64 * DENSITY_BYTES_PER_PAIR
                + self.force_pairs as f64 * force_bytes)
                / pairs.max(1) as f64,
        );
        let dt = self.p50("sph-core.dt");
        let integrate = self.p50("sph-core.kick_drift") + self.p50("sph-core.kick");
        m.insert("sph-core.dt_s", dt);
        m.insert("sph-core.kick_drift_s", integrate);
        let evaluate = self.p50("sph-exa.evaluate_derivatives");
        m.insert("sph-exa.evaluate_derivatives_s", evaluate);
        let sample = |name: &str, k: usize| self.times.get(name).map_or(0.0, |v| v[k]);
        let ratios: Vec<f64> = (0..self.count())
            .map(|k| {
                let pass_sum: f64 = EVALUATE_PASSES.iter().map(|p| sample(p, k)).sum();
                pass_sum / sample("sph-exa.evaluate_derivatives", k)
            })
            .collect();
        let ratio = median(&ratios);
        m.insert("sph-exa.pass_sum_ratio", ratio);
        m.insert("sph-exa.driver_overhead_share", 1.0 - (evaluate + dt + integrate) / op_p50);
        ratio
    }
}
