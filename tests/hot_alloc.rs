//! The hot-path allocation contract, measured: once warm, a step's heap
//! allocations must not grow with the particle count.
//!
//! A counting global allocator tallies `alloc` and `realloc` calls over
//! one step taken after two warm-up steps, at two sizes of the same
//! scenario. The slope `(A(N₂) − A(N₁)) / (N₂ − N₁)` is the number of
//! allocations each added particle costs. Any per-particle (or per-pair)
//! allocation on the step path pushes it to ≥ 1; per-chunk scratch
//! (`REDUCE_CHUNK` = 256 particles) and per-rank buffers stay far below
//! the bound. Both drivers' shapes are covered: one rank, and four ranks
//! with halo negotiation, ghost refresh and migration.
//!
//! Everything runs in this one test on one thread (`num_threads(1)` runs
//! every parallel call on the caller), so no other work allocates while a
//! step is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sph_exa_repro::core::config::SphConfig;
use sph_exa_repro::core::ParticleSystem;
use sph_exa_repro::exa::DistributedBuilder;
use sph_exa_repro::scenarios::{evrard_collapse, square_patch, EvrardConfig, SquarePatchConfig};
use sph_exa_repro::tree::{GravityConfig, MultipoleOrder};

/// `System`, plus a count of the calls that obtain memory.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the only addition is a relaxed atomic
// increment, which neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s size contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations each added particle may cost per step.
const MAX_SLOPE: f64 = 0.5;
const WARM_STEPS: usize = 2;

fn patch(nz: usize) -> ParticleSystem {
    square_patch(&SquarePatchConfig { nx: 10, nz, ..SquarePatchConfig::default() })
}

fn evrard(n_target: usize) -> ParticleSystem {
    evrard_collapse(&EvrardConfig { n_target, seed: 7, ..EvrardConfig::default() })
}

/// Particle count and the allocations of the step after the warm-up.
fn allocations_per_step(
    ic: ParticleSystem,
    sph: SphConfig,
    gravity: Option<GravityConfig>,
    nranks: usize,
) -> (usize, u64) {
    let n = ic.len();
    let mut builder = DistributedBuilder::new(ic).config(sph).nranks(nranks).num_threads(1);
    if let Some(g) = gravity {
        builder = builder.gravity(g);
    }
    let mut sim = builder.build().expect("valid simulation");
    sim.run(WARM_STEPS).expect("stable warm-up");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.step().expect("stable step");
    (n, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn step_allocations_do_not_grow_with_the_particle_count() {
    let patch_sph = SphConfig {
        gamma: SquarePatchConfig::default().gamma,
        target_neighbors: 40,
        max_h_iterations: 5,
        ..SphConfig::default()
    };
    let evrard_sph =
        SphConfig { target_neighbors: 40, max_h_iterations: 5, ..SphConfig::default() };
    let gravity =
        GravityConfig { g: 1.0, theta: 0.6, softening: 1e-2, order: MultipoleOrder::Quadrupole };

    let mut slopes = Vec::new();
    let mut table = String::new();
    for nranks in [1, 4] {
        let cases = [
            ("square patch", [patch(10), patch(20)], patch_sph, None),
            ("evrard", [evrard(800), evrard(1600)], evrard_sph, Some(gravity)),
        ];
        for (name, [small, large], sph, gravity) in cases {
            let (n1, a1) = allocations_per_step(small, sph, gravity, nranks);
            let (n2, a2) = allocations_per_step(large, sph, gravity, nranks);
            let slope = (a2 as f64 - a1 as f64) / (n2 as f64 - n1 as f64);
            table += &format!(
                "{name} nranks={nranks}: {a1} allocations at N = {n1}, {a2} at N = {n2}, \
                 slope {slope:.3}\n"
            );
            slopes.push((name, nranks, slope));
        }
    }
    println!("{table}");
    for (name, nranks, slope) in slopes {
        assert!(
            slope <= MAX_SLOPE,
            "{name} at nranks={nranks} allocates {slope:.3} times per added particle per step \
             (bound {MAX_SLOPE}):\n{table}"
        );
    }
}
