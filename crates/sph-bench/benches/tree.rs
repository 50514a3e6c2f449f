//! Benchmarks of the spatial substrate: octree build (Algorithm 1,
//! step 1), cell-grid neighbour search (step 2) and the Barnes–Hut
//! gravity walk (step 4).
//!
//! The tree build bench is the ablation behind the Fig. 4 finding: the
//! parallel Morton sort is what replaces SPHYNX 1.3.1's serial build.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sph_math::{Aabb, Periodicity, SplitMix64, Vec3};
use sph_tree::{
    build_csr_lists, CellGrid, GravityConfig, GravitySolver, MultipoleOrder, Octree, OctreeConfig,
    TraversalStats,
};

fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect()
}

/// Centrally condensed cloud, ρ ∝ 1/r inside radius ½ (the Evrard
/// profile): M(<r) ∝ r² ⇒ r = ½√u, isotropic direction.
fn condensed_points(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let r = 0.5 * rng.next_f64().sqrt();
            let cos_t = rng.uniform(-1.0, 1.0);
            let sin_t = (1.0 - cos_t * cos_t).sqrt();
            let phi = rng.uniform(0.0, 2.0 * std::f64::consts::PI);
            Vec3::splat(0.5) + Vec3::new(sin_t * phi.cos(), sin_t * phi.sin(), cos_t) * r
        })
        .collect()
}

fn bench_tree_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    for &n in &[10_000usize, 50_000] {
        let pts = random_points(n, 1);
        for (parallel, tag) in [(false, "serial_sort"), (true, "parallel_sort")] {
            group.bench_with_input(BenchmarkId::new(tag, n), &pts, |b, pts| {
                b.iter(|| {
                    black_box(Octree::build(
                        pts,
                        &Aabb::unit(),
                        OctreeConfig { max_leaf_size: 32, parallel_sort: parallel },
                    ))
                })
            });
        }
    }
    group.finish();
}

fn bench_neighbor_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbor_search");
    let pts = random_points(50_000, 2);
    // Radius tuned for ~100 neighbours — the paper's target count.
    let radius = (100.0_f64 / 50_000.0 * 3.0 / (4.0 * std::f64::consts::PI)).cbrt();
    let grid = CellGrid::for_radius(&pts, Periodicity::open(Aabb::unit()), radius);
    group.bench_function("single_query_100nb", |b| {
        let mut out = Vec::with_capacity(128);
        let mut stats = TraversalStats::default();
        b.iter(|| {
            out.clear();
            grid.neighbors_within(black_box(Vec3::splat(0.5)), radius, &mut out, &mut stats);
            black_box(out.len())
        })
    });
    group.bench_function("batch_1000_queries", |b| {
        let centers: Vec<Vec3> = pts[..1000].to_vec();
        let radii = vec![radius; 1000];
        b.iter(|| black_box(build_csr_lists(&grid, &centers, &radii).1))
    });
    group.finish();
}

fn bench_gravity(c: &mut Criterion) {
    let mut group = c.benchmark_group("gravity");
    group.sample_size(20);
    let pts = random_points(20_000, 3);
    let masses = vec![1.0 / 20_000.0; 20_000];
    let tree = Octree::build(&pts, &Aabb::unit(), OctreeConfig::default());
    for (order, tag) in
        [(MultipoleOrder::Monopole, "monopole"), (MultipoleOrder::Quadrupole, "quadrupole")]
    {
        let solver = GravitySolver::new(
            &tree,
            &masses,
            GravityConfig { g: 1.0, theta: 0.5, softening: 1e-3, order },
        );
        group.bench_function(format!("walk_1000_targets_{tag}"), |b| {
            b.iter(|| {
                let mut stats = TraversalStats::default();
                let mut acc = 0.0;
                for i in (0..1000).map(|k| k * 20) {
                    acc += solver.field_at(pts[i], Some(i as u32), &mut stats).potential;
                }
                black_box(acc)
            })
        });
    }
    // The case the repo benchmark's `sph-tree.gravity_walk_s` times: a
    // centrally condensed cloud (ρ ∝ 1/r, the Evrard profile) of the same
    // size, solver construction plus the walk at every particle. Deep
    // tree at the centre, so most of the walk is leaf particle–particle
    // work.
    let cloud = condensed_points(20_000, 4);
    let tree = Octree::build(&cloud, &Aabb::unit(), OctreeConfig::default());
    let config =
        GravityConfig { g: 1.0, theta: 0.5, softening: 1e-3, order: MultipoleOrder::Quadrupole };
    group.bench_function("accelerations_condensed_quadrupole", |b| {
        b.iter(|| black_box(GravitySolver::new(&tree, &masses, config).accelerations(&cloud)))
    });
    group.finish();
}

criterion_group!(benches, bench_tree_build, bench_neighbor_search, bench_gravity);
criterion_main!(benches);
