//! The hot-path allocation contract, measured: once warm, a step's heap
//! allocations, and its heap peak above the state it starts from, must
//! not grow faster than the particle count allows.
//!
//! A counting global allocator tallies `alloc` and `realloc` calls and
//! tracks the live heap bytes and their high-water mark over one step
//! taken after two warm-up steps, at two sizes of the same scenario. Two
//! slopes `(X(N₂) − X(N₁)) / (N₂ − N₁)` are bounded:
//!
//! - allocations per added particle. Any per-particle (or per-pair)
//!   allocation on the step path pushes it to ≥ 1; per-chunk scratch
//!   (`REDUCE_CHUNK` = 256 particles) and per-rank buffers stay far below
//!   the bound;
//! - bytes of the step's peak live heap above the live heap before it
//!   (the transient working set) per added particle: what a step needs on
//!   top of the particle state, dominated by the neighbour lists.
//!
//! Both drivers' shapes are covered: one rank, and four ranks with halo
//! negotiation, ghost refresh and migration.
//!
//! Everything runs in this one test on one thread (the rayon shim's pool
//! set to one thread runs every parallel call on the caller), so no other
//! work allocates while a step is counted. The counters are global: a
//! second `#[test]` in this file would run concurrently and corrupt both
//! measurements (`tests/lint_config.rs` keeps it to one).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sph_exa_repro::core::config::SphConfig;
use sph_exa_repro::core::ParticleSystem;
use sph_exa_repro::exa::DistributedBuilder;
use sph_exa_repro::scenarios::{evrard_collapse, square_patch, EvrardConfig, SquarePatchConfig};
use sph_exa_repro::tree::{GravityConfig, MultipoleOrder};

/// `System`, plus a count of the calls that obtain memory and a tally of
/// the live bytes with their high-water mark.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

#[expect(
    unsafe_code,
    reason = "a global allocator is an `unsafe impl` by definition; this one only counts calls \
              and sizes and forwards each to `System`"
)]
// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the only additions are relaxed atomic
// counter updates, which neither allocate nor touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s size contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations each added particle may cost per step.
const MAX_SLOPE: f64 = 0.5;
/// Bytes of step heap peak above the live heap each added particle may
/// cost, by case, at nranks 1 and 4. Four ranks pay for the rank copies
/// of owned ∪ ghost particles and the ghosts' gather sets on top; the
/// 4-rank bounds hold the halo to the radius the density pass searches
/// (an import at `2 · h_max · 2.05`, one analytic h-growth step, reads
/// 1 017 and 1 257).
const MAX_PEAK_BYTES: [(&str, [f64; 2]); 2] =
    [("square patch", [550.0, 900.0]), ("evrard", [550.0, 1150.0])];
const WARM_STEPS: usize = 2;

fn patch(nz: usize) -> ParticleSystem {
    square_patch(&SquarePatchConfig { nx: 10, nz, ..SquarePatchConfig::default() })
}

fn evrard(n_target: usize) -> ParticleSystem {
    evrard_collapse(&EvrardConfig { n_target, seed: 7, ..EvrardConfig::default() })
}

/// What one step after the warm-up cost.
struct StepCost {
    particles: usize,
    allocations: u64,
    /// The step's peak live heap bytes above the live bytes before it.
    peak_bytes: u64,
}

fn step_cost(
    ic: ParticleSystem,
    sph: SphConfig,
    gravity: Option<GravityConfig>,
    nranks: usize,
) -> StepCost {
    let particles = ic.len();
    let mut builder = DistributedBuilder::new(ic).config(sph).nranks(nranks);
    if let Some(g) = gravity {
        builder = builder.gravity(g);
    }
    let mut sim = builder.build().expect("valid simulation");
    sim.run(WARM_STEPS).expect("stable warm-up");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    sim.step().expect("stable step");
    StepCost {
        particles,
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed) - live,
    }
}

#[test]
fn step_allocations_do_not_grow_with_the_particle_count() {
    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().expect("one thread");
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
    let mut table = String::from(
        "case         nranks  N1    N2    allocations (N1, N2)  slope  peak bytes (N1, N2)  \
         B/particle\n",
    );
    for (r, nranks) in [1, 4].into_iter().enumerate() {
        let cases = [
            ("square patch", [patch(10), patch(20)], patch_sph, None),
            ("evrard", [evrard(800), evrard(1600)], evrard_sph, Some(gravity)),
        ];
        for (name, [small, large], sph, gravity) in cases {
            let a = step_cost(small, sph, gravity, nranks);
            let b = step_cost(large, sph, gravity, nranks);
            let added = (b.particles - a.particles) as f64;
            let slope = (b.allocations as f64 - a.allocations as f64) / added;
            let bytes = (b.peak_bytes as f64 - a.peak_bytes as f64) / added;
            table += &format!(
                "{name:12} {nranks:6}  {:4}  {:4}  {:9} {:9}   {slope:5.3}  {:9} {:9}  {bytes:10.0}\n",
                a.particles, b.particles, a.allocations, b.allocations, a.peak_bytes, b.peak_bytes,
            );
            let max_bytes = MAX_PEAK_BYTES.iter().find(|(case, _)| *case == name).map(|c| c.1[r]);
            slopes.push((name, nranks, slope, bytes, max_bytes.expect("a byte bound per case")));
        }
    }
    println!("{table}");
    for (name, nranks, slope, bytes, max_bytes) in slopes {
        assert!(
            slope <= MAX_SLOPE,
            "{name} at nranks={nranks} allocates {slope:.3} times per added particle per step \
             (bound {MAX_SLOPE}):\n{table}"
        );
        assert!(
            bytes <= max_bytes,
            "{name} at nranks={nranks} peaks {bytes:.0} heap bytes per added particle above its \
             state in a step (bound {max_bytes}):\n{table}"
        );
    }
}
