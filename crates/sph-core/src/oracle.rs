//! The lane-batched passes against the one-pair-at-a-time bodies they
//! replaced (`*_reference` in `density`, `volume`, `gradients`, `forces`):
//! every written field, the CSR rows and the counters must agree bit for
//! bit over the whole configuration space. A re-association inside a lane
//! loop — `norm * (shape / r)` for `norm * shape / r`, a reordered dot
//! product — changes a last bit somewhere in this matrix.
//!
//! The force pass is also run at several sweep-chunk lengths (1, 2, 7, 256
//! and the whole system): the production length is larger than any system
//! here, so this matrix is where pairs straddle chunk boundaries and a
//! chunk folds the entries below it before it sweeps.

use crate::config::{GradientScheme, SphConfig, ViscosityConfig, VolumeElements};
use crate::density::{compute_density, compute_density_reference, NeighborLists};
use crate::eos::IdealGas;
use crate::forces::{compute_forces, compute_forces_chunked, compute_forces_reference};
use crate::gradients::{
    compute_iad_matrices, compute_iad_matrices_reference, compute_velocity_gradients,
    compute_velocity_gradients_reference, scalar_gradient, scalar_gradient_reference,
};
use crate::lanes::LANES;
use crate::particles::ParticleSystem;
use crate::volume::{compute_volume_elements, compute_volume_elements_reference};
use crate::StepStats;
use sph_kernels::{Kernel, KernelKind, SUPPORT_RADIUS};
use sph_math::{Aabb, Mat3, Periodicity, SplitMix64, Vec3};
use sph_tree::CellGrid;

type Density = fn(
    &mut ParticleSystem,
    &CellGrid,
    &dyn Kernel,
    &SphConfig,
    &[u32],
) -> (NeighborLists, StepStats);
type Volume = fn(&mut ParticleSystem, &NeighborLists, &dyn Kernel, &SphConfig, &[u32]);
type Iad = fn(&mut ParticleSystem, &NeighborLists, &dyn Kernel, &[u32]);
type VelocityGradients =
    fn(&mut ParticleSystem, &NeighborLists, &dyn Kernel, GradientScheme, &[u32]);
type ScalarGradient =
    fn(&ParticleSystem, &NeighborLists, &dyn Kernel, GradientScheme, &[u32], &[f64]) -> Vec<Vec3>;
type Forces = fn(&mut ParticleSystem, &NeighborLists, &dyn Kernel, &SphConfig, &[u32]) -> u64;

/// One implementation of the five passes.
struct Passes {
    density: Density,
    volume: Volume,
    iad: Iad,
    velocity_gradients: VelocityGradients,
    scalar_gradient: ScalarGradient,
    forces: Forces,
}

const PRODUCTION: Passes = Passes {
    density: compute_density,
    volume: compute_volume_elements,
    iad: compute_iad_matrices,
    velocity_gradients: compute_velocity_gradients,
    scalar_gradient,
    forces: compute_forces,
};

const REFERENCE: Passes = Passes {
    density: compute_density_reference,
    volume: compute_volume_elements_reference,
    iad: compute_iad_matrices_reference,
    velocity_gradients: compute_velocity_gradients_reference,
    scalar_gradient: scalar_gradient_reference,
    forces: compute_forces_reference,
};

/// What one derivative evaluation leaves behind besides the fields.
struct Outcome {
    lists: NeighborLists,
    force_lists: NeighborLists,
    stats: StepStats,
    pairs: u64,
    grad_u: Vec<Vec3>,
}

/// Algorithm 1, steps 1–4, in the driver's order. `singular_every` marks
/// every n-th particle's IAD matrix singular after the IAD pass, so both
/// sides of a pair meet the analytic fallback.
fn evaluate(
    passes: &Passes,
    sys: &mut ParticleSystem,
    cfg: &SphConfig,
    active: &[u32],
    singular_every: Option<usize>,
) -> Outcome {
    let kernel = cfg.kernel.build();
    let kernel = kernel.as_ref();
    let grid = CellGrid::for_radius(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
    let (lists, stats) = (passes.density)(sys, &grid, kernel, cfg, active);
    (passes.volume)(sys, &lists, kernel, cfg, active);
    if cfg.gradients == GradientScheme::Iad {
        (passes.iad)(sys, &lists, kernel, active);
        if let Some(every) = singular_every {
            for c in sys.c_iad.iter_mut().step_by(every) {
                *c = Mat3::ZERO;
            }
        }
    }
    IdealGas::new(cfg.gamma).apply(&sys.rho, &sys.u, &mut sys.p, &mut sys.cs);
    (passes.velocity_gradients)(sys, &lists, kernel, cfg.gradients, active);
    let grad_u = (passes.scalar_gradient)(sys, &lists, kernel, cfg.gradients, active, &sys.u);
    let force_lists = if active.len() == sys.len() { lists.symmetrized() } else { lists.clone() };
    let pairs = (passes.forces)(sys, &force_lists, kernel, cfg, active);
    Outcome { lists, force_lists, stats, pairs, grad_u }
}

/// Jittered `side³` lattice in the unit cube with random velocities and a
/// 4:1 spread of internal energies — strong forces, approaching and
/// receding pairs, every Balsara regime.
pub(crate) fn cloud(side: usize, periodicity: Periodicity, seed: u64) -> ParticleSystem {
    cloud_on(side, periodicity, seed, true)
}

/// [`cloud`], or with `jitter = false` the bare lattice (cell centres):
/// particles in one lattice row share a coordinate, so those components of
/// their displacements are exactly zero.
fn cloud_on(side: usize, periodicity: Periodicity, seed: u64, jitter: bool) -> ParticleSystem {
    let mut rng = SplitMix64::new(seed);
    let spacing = 1.0 / side as f64;
    let n = side * side * side;
    let mut x = Vec::with_capacity(n);
    for iz in 0..side {
        for iy in 0..side {
            for ix in 0..side {
                let cell = Vec3::new(ix as f64, iy as f64, iz as f64);
                let offset = if jitter {
                    Vec3::new(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
                } else {
                    Vec3::splat(0.5)
                };
                x.push((cell + offset) * spacing);
            }
        }
    }
    let v = (0..n)
        .map(|_| Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect();
    let m = (0..n).map(|_| rng.uniform(0.8, 1.2) / n as f64).collect();
    let u = (0..n).map(|_| rng.uniform(0.5, 2.0)).collect();
    ParticleSystem::new(x, v, m, u, 2.0 * spacing, periodicity)
}

fn assert_scalars(name: &str, at: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{at}: {name}[{i}] = {g:e}, reference {w:e}");
        assert!(g.is_finite(), "{at}: {name}[{i}] = {g}");
    }
}

fn assert_vectors(name: &str, at: &str, got: &[Vec3], want: &[Vec3]) {
    let flat = |v: &[Vec3]| v.iter().flat_map(|p| p.to_array()).collect::<Vec<f64>>();
    assert_scalars(name, at, &flat(got), &flat(want));
}

/// Every field a pass writes, the lists and the counters.
fn assert_identical(at: &str, got: (&ParticleSystem, &Outcome), want: (&ParticleSystem, &Outcome)) {
    let ((a, oa), (b, ob)) = (got, want);
    assert_scalars("h", at, &a.h, &b.h);
    assert_scalars("rho", at, &a.rho, &b.rho);
    assert_scalars("omega", at, &a.omega, &b.omega);
    assert_scalars("vol", at, &a.vol, &b.vol);
    let flat = |c: &[Mat3]| c.iter().flat_map(|m| m.m.concat()).collect::<Vec<f64>>();
    assert_scalars("c_iad", at, &flat(&a.c_iad), &flat(&b.c_iad));
    assert_scalars("div_v", at, &a.div_v, &b.div_v);
    assert_scalars("curl_v", at, &a.curl_v, &b.curl_v);
    assert_vectors("grad_u", at, &oa.grad_u, &ob.grad_u);
    assert_vectors("a", at, &a.a, &b.a);
    assert_scalars("du_dt", at, &a.du_dt, &b.du_dt);
    for (name, la, lb) in
        [("gather", &oa.lists, &ob.lists), ("force", &oa.force_lists, &ob.force_lists)]
    {
        assert_eq!(la.query_count(), lb.query_count(), "{at}: {name} lists");
        for k in 0..la.query_count() {
            assert_eq!(la.neighbors(k), lb.neighbors(k), "{at}: {name} row {k}");
        }
    }
    assert_eq!(oa.pairs, ob.pairs, "{at}: force pairs");
    let (sa, sb) = (&oa.stats, &ob.stats);
    assert_eq!(sa.h_iterations, sb.h_iterations, "{at}");
    assert_eq!(sa.sph_interactions, sb.sph_interactions, "{at}");
    assert_eq!(sa.active_particles, sb.active_particles, "{at}");
    assert_eq!(sa.max_search_radius.to_bits(), sb.max_search_radius.to_bits(), "{at}");
    assert_eq!(sa.neighbor.nodes_visited, sb.neighbor.nodes_visited, "{at}");
    assert_eq!(sa.neighbor.p2p_interactions, sb.neighbor.p2p_interactions, "{at}");
    assert_eq!(sa.neighbor.radius_clamps, sb.neighbor.radius_clamps, "{at}");
}

/// The force pass over `lists` at every sweep-chunk length, from the
/// state `sys` the other passes left, against the reference's
/// accelerations, energy rates and pair count `want`.
fn check_chunk_lengths(
    at: &str,
    sys: &ParticleSystem,
    cfg: &SphConfig,
    lists: &NeighborLists,
    active: &[u32],
    want: (&ParticleSystem, u64),
) {
    let kernel = cfg.kernel.build();
    for chunk_len in [1, 2, 7, 256, sys.len()] {
        let mut got = sys.clone();
        // Poison what the pass must write, so a row it skips shows.
        for &i in active {
            got.a[i as usize] = Vec3::splat(f64::NAN);
            got.du_dt[i as usize] = f64::NAN;
        }
        let pairs =
            compute_forces_chunked(&mut got, lists, kernel.as_ref(), cfg, active, chunk_len);
        let at = format!("{at}, chunk length {chunk_len}");
        assert_vectors("a", &at, &got.a, &want.0.a);
        assert_scalars("du_dt", &at, &got.du_dt, &want.0.du_dt);
        assert_eq!(pairs, want.1, "{at}: force pairs");
    }
}

/// Evaluate `sys` with both implementations — all particles, then (from
/// that state, so the inactive neighbours carry real fields) a strided
/// active subset, whose gather lists are unmarked and run per row — and
/// compare, the force pass at every sweep-chunk length.
fn check(at: &str, sys: &ParticleSystem, cfg: &SphConfig, singular_every: Option<usize>) {
    let all: Vec<u32> = (0..sys.len() as u32).collect();
    let (mut lanes, mut scalar) = (sys.clone(), sys.clone());
    let got = evaluate(&PRODUCTION, &mut lanes, cfg, &all, singular_every);
    let want = evaluate(&REFERENCE, &mut scalar, cfg, &all, singular_every);
    let at_all = format!("{at}, all");
    assert_identical(&at_all, (&lanes, &got), (&scalar, &want));
    assert!(got.force_lists.is_symmetric_closure(), "{at}: the sweep was not taken");
    check_chunk_lengths(&at_all, &lanes, cfg, &got.force_lists, &all, (&scalar, want.pairs));
    // Rows that fill a lane block, rows that end in a partial one.
    let lens = || (0..got.force_lists.query_count()).map(|k| got.force_lists.neighbors(k).len());
    assert!(lens().any(|l| l > LANES && l % LANES != 0), "{at}: no row past one block");

    let subset: Vec<u32> = all.iter().copied().skip(1).step_by(3).collect();
    let got = evaluate(&PRODUCTION, &mut lanes, cfg, &subset, singular_every);
    let want = evaluate(&REFERENCE, &mut scalar, cfg, &subset, singular_every);
    let at_subset = format!("{at}, subset");
    assert_identical(&at_subset, (&lanes, &got), (&scalar, &want));
    assert!(!got.force_lists.is_symmetric_closure(), "{at}: gather lists are not a closure");
    check_chunk_lengths(&at_subset, &lanes, cfg, &got.force_lists, &subset, (&scalar, want.pairs));
}

#[test]
fn lane_passes_match_the_pair_at_a_time_oracles_over_the_configuration_space() {
    let unit = Aabb::unit();
    let boxes = [
        ("open", Periodicity::open(unit)),
        ("periodic-z", Periodicity::periodic_z(unit)),
        ("periodic", Periodicity::fully_periodic(unit)),
    ];
    for (seed, (box_name, periodicity)) in boxes.into_iter().enumerate() {
        let sys = cloud(6, periodicity, 0x0A11 + seed as u64);
        for kernel in [KernelKind::CubicSplineM4, KernelKind::WendlandC2, KernelKind::Sinc(5)] {
            for gradients in [GradientScheme::KernelDerivative, GradientScheme::Iad] {
                for volume_elements in
                    [VolumeElements::Standard, VolumeElements::Generalized { p: 0.7 }]
                {
                    for balsara in [true, false] {
                        let cfg = SphConfig {
                            kernel,
                            gradients,
                            volume_elements,
                            target_neighbors: 50,
                            viscosity: ViscosityConfig { balsara, ..Default::default() },
                            ..Default::default()
                        };
                        let at = format!(
                            "{box_name} {kernel:?} {gradients:?} {volume_elements:?} \
                             balsara={balsara}"
                        );
                        check(&at, &sys, &cfg, None);
                    }
                }
            }
        }
    }
}

#[test]
fn pairs_across_the_wrap_are_in_the_matrix() {
    // The periodic cases above mean something only if rows reach through
    // the faces: there the displacement takes its divide-and-round branch.
    let mut sys = cloud(6, Periodicity::fully_periodic(Aabb::unit()), 0x0A13);
    let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
    let all: Vec<u32> = (0..sys.len() as u32).collect();
    let out = evaluate(&PRODUCTION, &mut sys, &cfg, &all, None);
    let wrapped = (0..sys.len())
        .flat_map(|i| out.lists.neighbors(i).iter().map(move |&j| (i, j as usize)))
        .filter(|&(i, j)| (sys.x[i] - sys.x[j]).abs().max_component() > 0.5)
        .count();
    assert!(wrapped > 1_000, "only {wrapped} pairs cross a face");
}

#[test]
fn coincident_particles_never_reach_the_fold() {
    // Two distinct particles at one position: r = 0 with j ≠ i. The
    // analytic-gradient lane holds norm·dw_shape(0)/0 = NaN there; the
    // fold must take the r ≤ 0 branch (zero gradient) before reading it.
    for gradients in [GradientScheme::KernelDerivative, GradientScheme::Iad] {
        let mut sys = cloud(6, Periodicity::fully_periodic(Aabb::unit()), 0xC01C);
        sys.x[40] = sys.x[7];
        sys.x[41] = sys.x[7];
        let cfg = SphConfig {
            gradients,
            target_neighbors: 50,
            viscosity: ViscosityConfig { balsara: true, ..Default::default() },
            ..Default::default()
        };
        check(&format!("coincident {gradients:?}"), &sys, &cfg, Some(4));
    }
}

#[test]
fn singular_iad_matrices_take_the_analytic_fallback_on_both_sides_of_a_pair() {
    let cfg = SphConfig {
        gradients: GradientScheme::Iad,
        target_neighbors: 50,
        viscosity: ViscosityConfig { balsara: true, ..Default::default() },
        ..Default::default()
    };
    // Every fifth matrix marked singular: targets with the fallback and
    // regular neighbours, regular targets with fallback neighbours.
    let sys = cloud(6, Periodicity::periodic_z(Aabb::unit()), 0x51A6);
    check("every fifth C singular", &sys, &cfg, Some(5));

    // A flat sheet: τ has no z extent, the inverse does not exist and the
    // IAD pass itself writes the marker for every particle.
    let mut sheet = cloud(6, Periodicity::open(Aabb::unit()), 0x51A7);
    for x in sheet.x.iter_mut() {
        x.z = 0.5;
    }
    let (mut lanes, mut scalar) = (sheet.clone(), sheet);
    let all: Vec<u32> = (0..lanes.len() as u32).collect();
    let got = evaluate(&PRODUCTION, &mut lanes, &cfg, &all, None);
    let want = evaluate(&REFERENCE, &mut scalar, &cfg, &all, None);
    assert_identical("sheet", (&lanes, &got), (&scalar, &want));
    assert!(lanes.c_iad.iter().all(|c| *c == Mat3::ZERO), "the sheet's τ should be singular");
}

#[test]
fn an_unjittered_periodic_lattice_sweeps_through_exact_zero_displacements() {
    // Particles of one lattice row share two coordinates: those
    // displacement components are ±0 from either side, the one place the
    // two sides of a pair can differ (in the sign of a zero).
    let sys = cloud_on(6, Periodicity::fully_periodic(Aabb::unit()), 0x2E80, false);
    for gradients in [GradientScheme::KernelDerivative, GradientScheme::Iad] {
        let cfg = SphConfig {
            gradients,
            target_neighbors: 50,
            viscosity: ViscosityConfig { balsara: true, ..Default::default() },
            ..Default::default()
        };
        check(&format!("lattice {gradients:?}"), &sys, &cfg, None);
    }
    let zeros = (0..sys.len()).filter(|&j| sys.x[j].x == sys.x[0].x && j != 0).count();
    assert!(zeros > 0, "no displacement with an exact zero component");
}

#[test]
fn particles_without_a_row_are_sweep_sources_at_every_chunk_length() {
    // A rank view's shape on one system: every fourth particle has no row
    // (a ghost), the others hold the closure over those ghosts. The sweep
    // must hand each ghost's pairs to the rows that hold it.
    for gradients in [GradientScheme::KernelDerivative, GradientScheme::Iad] {
        let cfg = SphConfig {
            gradients,
            target_neighbors: 50,
            viscosity: ViscosityConfig { balsara: true, ..Default::default() },
            ..Default::default()
        };
        let mut sys = cloud(6, Periodicity::periodic_z(Aabb::unit()), 0x6057);
        let all: Vec<u32> = (0..sys.len() as u32).collect();
        let gather = evaluate(&PRODUCTION, &mut sys, &cfg, &all, Some(5)).lists;
        let (rows, ghosts): (Vec<u32>, Vec<u32>) = all.iter().partition(|&&k| k % 4 != 0);
        let forward = NeighborLists::from_lists(
            rows.iter().map(|&k| gather.neighbors(k as usize).to_vec()).collect(),
        );
        let row_of = |j: &u32| rows.binary_search(j).ok().map(|q| q as u32);
        let ghost_rows = NeighborLists::from_lists(
            ghosts
                .iter()
                .map(|&g| gather.neighbors(g as usize).iter().filter_map(row_of).collect())
                .collect(),
        );
        let closure = forward.symmetrized_over_ghosts(&rows, sys.len(), &ghosts, &ghost_rows);
        assert!(closure.is_symmetric_closure());
        let mut want = sys.clone();
        let kernel = cfg.kernel.build();
        let pairs = compute_forces_reference(&mut want, &closure, kernel.as_ref(), &cfg, &rows);
        let at = format!("ghost sources {gradients:?}");
        check_chunk_lengths(&at, &sys, &cfg, &closure, &rows, (&want, pairs));
    }
}

#[test]
fn an_unmarked_copy_of_a_closure_gives_the_closure_s_result() {
    // The mark only chooses the sweep: the same rows as plain lists run
    // per row and must give the same accelerations, rates and count.
    let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
    let mut sys = cloud(6, Periodicity::open(Aabb::unit()), 0x3A4C);
    let all: Vec<u32> = (0..sys.len() as u32).collect();
    let closure = evaluate(&PRODUCTION, &mut sys, &cfg, &all, None).force_lists;
    let copy = NeighborLists::from_lists(
        (0..closure.query_count()).map(|k| closure.neighbors(k).to_vec()).collect(),
    );
    assert!(closure.is_symmetric_closure() && !copy.is_symmetric_closure());
    let kernel = cfg.kernel.build();
    let mut swept = sys.clone();
    let swept_pairs = compute_forces(&mut swept, &closure, kernel.as_ref(), &cfg, &all);
    let per_row_pairs = compute_forces(&mut sys, &copy, kernel.as_ref(), &cfg, &all);
    assert_vectors("a", "unmarked copy", &sys.a, &swept.a);
    assert_scalars("du_dt", "unmarked copy", &sys.du_dt, &swept.du_dt);
    assert_eq!(per_row_pairs, swept_pairs);
}
