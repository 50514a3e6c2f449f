//! Benchmarks of the SPH pipeline phases (Algorithm 1, step 3) and full
//! time-steps for each parent-code configuration — the measured (host)
//! side of the per-interaction cost calibration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sph_bench::{build_evrard_sim, build_square_sim};
use sph_core::config::GradientScheme;
use sph_core::density::compute_density;
use sph_core::forces::compute_forces;
use sph_core::gradients::{compute_iad_matrices, compute_velocity_gradients};
use sph_core::particles::ParticleSystem;
use sph_core::volume::compute_volume_elements;
use sph_exa::{DistributedBuilder, SimulationBuilder};
use sph_kernels::SUPPORT_RADIUS;
use sph_math::{SplitMix64, Vec3};
use sph_parents::{changa, sphflow, sphynx};
use sph_scenarios::{Resolution, Scenario, SedovScenario, SquarePatchScenario};
use sph_tree::CellGrid;

const N: usize = 8_000;

fn bench_density_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_pass");
    group.sample_size(20);
    for setup in [sphynx(), changa(), sphflow()] {
        let sim = build_square_sim(&setup, N);
        let mut sys = sim.sys.clone();
        let cfg = sim.config;
        let kernel = cfg.kernel.build();
        let grid = CellGrid::for_radius(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        group.bench_function(setup.name, |b| {
            b.iter(|| black_box(compute_density(&mut sys, &grid, kernel.as_ref(), &cfg, &active).1))
        });
    }
    group.finish();
}

fn bench_force_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("force_pass");
    group.sample_size(20);
    for setup in [sphynx(), sphflow()] {
        let sim = build_square_sim(&setup, N);
        let mut sys = sim.sys.clone();
        let cfg = sim.config;
        let kernel = cfg.kernel.build();
        let grid = CellGrid::for_radius(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        let (lists, _) = compute_density(&mut sys, &grid, kernel.as_ref(), &cfg, &active);
        compute_volume_elements(&mut sys, &lists, kernel.as_ref(), &cfg, &active);
        if cfg.gradients == GradientScheme::Iad {
            compute_iad_matrices(&mut sys, &lists, kernel.as_ref(), &active);
        }
        let eos = sph_core::IdealGas::new(cfg.gamma);
        eos.apply(&sys.rho, &sys.u, &mut sys.p, &mut sys.cs);
        let sym = lists.symmetrized();
        group.bench_function(setup.name, |b| {
            b.iter(|| black_box(compute_forces(&mut sys, &sym, kernel.as_ref(), &cfg, &active)))
        });
    }
    group.finish();
}

/// Displace every lattice site by at most 2 % of the spacing per axis, as
/// the repo benchmark does to its lattice workloads.
fn jitter_lattice(sys: &mut ParticleSystem) {
    let amp = 0.02 * (sys.periodicity.domain.volume() / sys.len() as f64).cbrt();
    let mut rng = SplitMix64::new(20180911);
    for x in sys.x.iter_mut() {
        *x += Vec3::new(rng.uniform(-amp, amp), rng.uniform(-amp, amp), rng.uniform(-amp, amp));
    }
}

/// The pass rows of the repo benchmark's `sedov_hydro` workload
/// (`sph-core.density_s` / `gradients_s` / `forces_s`), on its state and
/// its one thread: the 32³ Sedov blast in its fully periodic box, every
/// lattice site displaced by at most 2 % of the spacing per axis, three
/// steps in. The parent-code rows above run in open or z-periodic boxes,
/// where the minimum-image displacement folds on one axis at most.
fn bench_sedov_passes(c: &mut Criterion) {
    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().expect("shim pool");
    let mut setup = SedovScenario.init(Resolution { scale: 1.0 });
    jitter_lattice(&mut setup.sys);
    let cfg = setup.config;
    let mut sim =
        SimulationBuilder::new(setup.sys).config(cfg).build().expect("valid Sedov simulation");
    for _ in 0..3 {
        sim.step().expect("stable step");
    }
    let mut sys = sim.sys.clone();
    let kernel = cfg.kernel.build();
    let kernel = kernel.as_ref();
    let grid = CellGrid::for_radius(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
    let active: Vec<u32> = (0..sys.len() as u32).collect();
    let eos = sph_core::IdealGas::new(cfg.gamma);
    const ROW: &str = "sedov_periodic_32";

    c.benchmark_group("density_pass").sample_size(20).bench_function(ROW, |b| {
        b.iter(|| black_box(compute_density(&mut sys, &grid, kernel, &cfg, &active).1))
    });
    let (lists, _) = compute_density(&mut sys, &grid, kernel, &cfg, &active);
    // Volume elements, (IAD matrices), EOS and velocity gradients: what
    // the benchmark's `gradients` span covers.
    c.benchmark_group("gradient_pass").sample_size(20).bench_function(ROW, |b| {
        b.iter(|| {
            compute_volume_elements(&mut sys, &lists, kernel, &cfg, &active);
            if cfg.gradients == GradientScheme::Iad {
                compute_iad_matrices(&mut sys, &lists, kernel, &active);
            }
            eos.apply(&sys.rho, &sys.u, &mut sys.p, &mut sys.cs);
            compute_velocity_gradients(&mut sys, &lists, kernel, cfg.gradients, &active);
            black_box(sys.div_v[0])
        })
    });
    let sym = lists.symmetrized();
    c.benchmark_group("force_pass").sample_size(20).bench_function(ROW, |b| {
        b.iter(|| black_box(compute_forces(&mut sys, &sym, kernel, &cfg, &active)))
    });
    // Back to the default pool for the rows that follow.
    rayon::ThreadPoolBuilder::new().num_threads(0).build_global().expect("shim pool");
}

fn bench_full_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_step");
    group.sample_size(10);
    group.bench_function("square_sphflow", |b| {
        b.iter_with_setup(
            || build_square_sim(&sphflow(), 4_000),
            |mut sim| black_box(sim.step().expect("stable step")),
        )
    });
    group.bench_function("evrard_sphynx_gravity", |b| {
        b.iter_with_setup(
            || build_evrard_sim(&sphynx(), 4_000, 1),
            |mut sim| black_box(sim.step().expect("stable step")),
        )
    });
    group.finish();
}

/// The rank-count overhead of one step, without the benchmark harness:
/// the state of the repo benchmark's `patch_dist4` workload (40×40×16
/// rotating square patch, ≤ 2 %-of-spacing jitter, one thread) stepped by
/// the single-rank driver and by four ORB ranks. The two trajectories are
/// bit-identical, so every sample pair times the same physical step; the
/// ratio of the rows is what `sph-exa.dist_over_single_ratio` reports.
fn bench_rank_count_overhead(c: &mut Criterion) {
    rayon::ThreadPoolBuilder::new().num_threads(1).build_global().expect("shim pool");
    let mut setup = SquarePatchScenario.init(Resolution { scale: 2.0 });
    jitter_lattice(&mut setup.sys);
    let mut group = c.benchmark_group("full_step");
    group.sample_size(10);
    let mut single = SimulationBuilder::new(setup.sys.clone())
        .config(setup.config)
        .build()
        .expect("valid square-patch simulation");
    group.bench_function("square_patch_single", |b| {
        b.iter(|| black_box(single.step().expect("stable step")))
    });
    let mut dist4 = DistributedBuilder::new(setup.sys)
        .config(setup.config)
        .nranks(4)
        .build()
        .expect("valid 4-rank simulation");
    group.bench_function("square_patch_dist4", |b| {
        b.iter(|| black_box(dist4.step().expect("stable step")))
    });
    group.finish();
    rayon::ThreadPoolBuilder::new().num_threads(0).build_global().expect("shim pool");
}

criterion_group!(
    benches,
    bench_density_pass,
    bench_force_pass,
    bench_sedov_passes,
    bench_full_steps,
    bench_rank_count_overhead
);
criterion_main!(benches);
