//! The Barnes–Hut force error against O(N²) direct summation on the
//! Evrard cloud, the paper's self-gravity test: a tier-1 gate on the
//! production point (`OctreeConfig::default()` and the Evrard scenario's
//! `GravityConfig`) and on every other gravity configuration that runs on
//! that tree, the error–cost table the point was chosen from, and the θ
//! sweep that re-chose the other configurations' θ for its leaf size.
//!
//! Regenerate both (benchmark-sized cloud, ≈ 1 min in release):
//!
//! ```sh
//! cargo test --release -p sph-exa-repro --test force_error -- --ignored \
//!     error_cost_table_benchmark_cloud --nocapture
//! ```
#![allow(clippy::disallowed_methods)] // the table times the walk with `Instant::now`

use sph_exa_repro::core::ParticleSystem;
use sph_exa_repro::exa::SimulationBuilder;
use sph_exa_repro::math::Vec3;
use sph_exa_repro::scenarios::parents::{changa, sphynx, ParentCode};
use sph_exa_repro::scenarios::{
    evrard_collapse, EvrardConfig, EvrardScenario, Resolution, Scenario,
};
use sph_exa_repro::tree::{GravityConfig, GravitySolver, MultipoleOrder, Octree, OctreeConfig};
use std::time::Instant;

/// Median, p99 and max of the per-particle relative acceleration error.
#[derive(Debug, Clone, Copy)]
struct ErrorStats {
    median: f64,
    p99: f64,
    max: f64,
}

impl ErrorStats {
    fn of(mut errors: Vec<f64>) -> ErrorStats {
        errors.sort_by(f64::total_cmp);
        let at = |q: f64| errors[((errors.len() - 1) as f64 * q).round() as usize];
        ErrorStats { median: at(0.5), p99: at(0.99), max: at(1.0) }
    }

    fn within(&self, bound: &ErrorStats) -> bool {
        self.median <= bound.median && self.p99 <= bound.p99 && self.max <= bound.max
    }

    fn scaled(&self, factor: f64) -> ErrorStats {
        ErrorStats { median: self.median * factor, p99: self.p99 * factor, max: self.max * factor }
    }

    fn row(&self) -> String {
        format!("{:.2e} | {:.2e} | {:.2e}", self.median, self.p99, self.max)
    }
}

/// Softened accelerations by direct summation over every other particle.
fn direct_accelerations(x: &[Vec3], m: &[f64], gcfg: &GravityConfig) -> Vec<Vec3> {
    let eps2 = gcfg.softening * gcfg.softening;
    x.iter()
        .enumerate()
        .map(|(i, &xi)| {
            let mut a = Vec3::ZERO;
            for (j, (&xj, &mj)) in x.iter().zip(m).enumerate() {
                if j != i {
                    let d = xi - xj;
                    let r2 = d.norm_sq() + eps2;
                    a -= d * (gcfg.g * mj / (r2 * r2.sqrt()));
                }
            }
            a
        })
        .collect()
}

/// One walk over every particle: relative errors against `exact` and the
/// P2P interactions per target.
fn walk_errors(
    sys: &ParticleSystem,
    exact: &[Vec3],
    leaf: OctreeConfig,
    gcfg: GravityConfig,
) -> (ErrorStats, f64) {
    let tree = Octree::build(&sys.x, &sys.bounds(), leaf);
    let (samples, stats) = GravitySolver::new(&tree, &sys.m, gcfg).accelerations(&sys.x);
    let errors = samples.iter().zip(exact).map(|(s, e)| (s.accel - *e).norm() / e.norm()).collect();
    (ErrorStats::of(errors), stats.p2p_interactions as f64 / sys.len() as f64)
}

/// Each gravity configuration's force error on the gate cloud as this
/// repository shipped it before the error–cost table (leaves of 32, two
/// divisions per pair), rounded up in the fourth digit; the gate's bounds
/// are these × 1.05. The Evrard scenario's and SPHYNX's were quadrupoles
/// at θ 0.5 (ε 0.01 and 0.001), ChaNGa's an octupole at θ 0.7 (ε 0.001),
/// `GravityConfig::default()` a quadrupole at θ 0.5 (ε 0.0001).
const EVRARD_BEFORE: ErrorStats = ErrorStats { median: 3.971e-4, p99: 1.560e-3, max: 2.122e-3 };
const SPHYNX_BEFORE: ErrorStats = ErrorStats { median: 3.975e-4, p99: 1.575e-3, max: 2.145e-3 };
const CHANGA_BEFORE: ErrorStats = ErrorStats { median: 6.730e-4, p99: 1.942e-3, max: 2.797e-3 };
const DEFAULT_BEFORE: ErrorStats = ErrorStats { median: 3.975e-4, p99: 1.576e-3, max: 2.145e-3 };

/// The gate cloud: 4 000 particles of the Evrard collapse's initial state.
fn gate_cloud() -> ParticleSystem {
    evrard_collapse(&EvrardConfig { n_target: 4000, ..Default::default() })
}

/// The Evrard scenario's registered gravity.
fn evrard_gravity() -> GravityConfig {
    EvrardScenario.init(Resolution::default()).gravity.expect("Evrard runs self-gravity")
}

/// The force error of the production point (`OctreeConfig::default()`
/// and the Evrard scenario's `GravityConfig`) on the gate cloud may not
/// grow past [`EVRARD_BEFORE`] × 1.05: a change to the walk, the leaf
/// size, the expansion order, θ or the pair arithmetic that spends
/// accuracy fails here and has to move the bounds in a reviewed diff. The
/// point was chosen from the error–cost table below and passes them; θ 0.7
/// must fail them, so the gate sees a change of that size.
#[test]
fn evrard_force_error_stays_within_the_committed_bound() {
    let (sys, gcfg) = (gate_cloud(), evrard_gravity());
    let exact = direct_accelerations(&sys.x, &sys.m, &gcfg);
    let bound = EVRARD_BEFORE.scaled(1.05);
    let (errors, _) = walk_errors(&sys, &exact, OctreeConfig::default(), gcfg);
    assert!(errors.within(&bound), "force error {errors:?} exceeds the bound {bound:?}");
    let loose = GravityConfig { theta: 0.7, ..gcfg };
    let (loose_errors, _) = walk_errors(&sys, &exact, OctreeConfig::default(), loose);
    assert!(!loose_errors.within(&bound), "θ 0.7 ({loose_errors:?}) passes the bound {bound:?}");
}

/// The parent codes' gravity (SPHYNX's, which the mini-app shares, and
/// ChaNGa's) and `GravityConfig::default()` run on the same
/// `OctreeConfig::default()` tree, so the leaf size of the production
/// point moves their force error too. Each keeps its own: its θ was
/// re-chosen for leaves of 24 by [`parent_code_theta_sweep`] (SPHYNX and
/// default 0.5 → 0.49, ChaNGa 0.7 → 0.62), and its error on the gate cloud
/// may not grow past its `*_BEFORE` × 1.05.
#[test]
fn parent_code_force_errors_stay_within_their_committed_bounds() {
    let sys = gate_cloud();
    for (name, gcfg, before, _) in parent_code_gravity() {
        let exact = direct_accelerations(&sys.x, &sys.m, &gcfg);
        let bound = before.scaled(1.05);
        let (errors, _) = walk_errors(&sys, &exact, OctreeConfig::default(), gcfg);
        assert!(errors.within(&bound), "{name}: force error {errors:?} exceeds {bound:?}");
    }
}

/// The gravity configurations other than the Evrard scenario's, each with
/// its error before the table and the θ it shipped with then.
fn parent_code_gravity() -> [(&'static str, GravityConfig, ErrorStats, f64); 3] {
    let gravity = |code: ParentCode| code.gravity.expect("a parent code with self-gravity");
    [
        ("SPHYNX", gravity(sphynx()), SPHYNX_BEFORE, 0.5),
        ("ChaNGa", gravity(changa()), CHANGA_BEFORE, 0.7),
        ("GravityConfig::default()", GravityConfig::default(), DEFAULT_BEFORE, 0.5),
    ]
}

/// The Evrard state the benchmark's `evrard_gravity` workload times: its
/// cloud, the scenario's solver and gravity, after two steps.
fn evrard_state(n_target: usize, seed: u64) -> (ParticleSystem, GravityConfig) {
    let setup = EvrardScenario.init(Resolution::default());
    let gcfg = setup.gravity.expect("Evrard runs self-gravity");
    let sys = evrard_collapse(&EvrardConfig { n_target, seed, ..Default::default() });
    let mut sim =
        SimulationBuilder::new(sys).config(setup.config).gravity(gcfg).build().expect("builds");
    sim.run(2).expect("stable steps");
    (sim.sys.clone(), gcfg)
}

/// Prints the error–cost table over leaf size × expansion order × θ: each
/// cell's median, p99 and max relative force error against direct
/// summation on the benchmark's Evrard state, its walk time
/// (`GravitySolver::new` + `accelerations`, the benchmark's
/// `sph-tree.gravity_walk_s`; median of `rounds`, cells interleaved)
/// relative to the first row, its P2P interactions per target, and
/// whether it passes the tier-1 gate. The first row is the point the
/// repository shipped before the table (leaf 32, quadrupole, θ 0.5); the
/// last line names the cheapest cell whose three errors are each within
/// 5 % of that row's and that passes the gate.
fn error_cost_table(n_target: usize, rounds: usize) {
    let (sys, gcfg) = evrard_state(n_target, 20180911);
    let exact = direct_accelerations(&sys.x, &sys.m, &gcfg);
    let gate_sys = gate_cloud();
    let gate_exact = direct_accelerations(&gate_sys.x, &gate_sys.m, &gcfg);
    let gate_bound = EVRARD_BEFORE.scaled(1.05);
    let first = (32, MultipoleOrder::Quadrupole, 0.5);
    let mut cells = vec![first];
    for leaf in [16, 24, 32] {
        for order in [MultipoleOrder::Quadrupole, MultipoleOrder::Octupole] {
            for theta in [0.45, 0.5, 0.55, 0.6, 0.65] {
                if (leaf, order, theta) != first {
                    cells.push((leaf, order, theta));
                }
            }
        }
    }
    let config = |&(leaf, order, theta): &(usize, MultipoleOrder, f64)| {
        (OctreeConfig { max_leaf_size: leaf }, GravityConfig { theta, order, ..gcfg })
    };
    let mut times = vec![Vec::new(); cells.len()];
    for _ in 0..rounds {
        for (cell, t) in cells.iter().zip(&mut times) {
            let (leaf, g) = config(cell);
            let tree = Octree::build(&sys.x, &sys.bounds(), leaf);
            let start = Instant::now();
            let (samples, _) = GravitySolver::new(&tree, &sys.m, g).accelerations(&sys.x);
            t.push(start.elapsed().as_secs_f64());
            assert_eq!(samples.len(), sys.len());
        }
    }
    let median = |t: &mut Vec<f64>| {
        t.sort_by(f64::total_cmp);
        t[t.len() / 2]
    };
    let base_time = median(&mut times[0]);
    println!("Evrard state: {} particles after 2 steps, ε {}", sys.len(), gcfg.softening);
    println!(
        "| leaf size | order | θ | walk time | median error | p99 error | max error | P2P per \
         target | within 5 % | gate |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut bound = None;
    let mut cheapest: Option<(f64, String)> = None;
    for (cell, t) in cells.iter().zip(&mut times) {
        let (leaf, g) = config(cell);
        let (errors, p2p) = walk_errors(&sys, &exact, leaf, g);
        assert!(errors.max.is_finite(), "{cell:?}: {errors:?}");
        let bound = *bound.get_or_insert(errors.scaled(1.05));
        let within = errors.within(&bound);
        let gate = walk_errors(&gate_sys, &gate_exact, leaf, g).0.within(&gate_bound);
        let ratio = median(t) / base_time;
        let (yes, no) = ("yes", "no");
        println!(
            "| {} | {:?} | {} | ×{ratio:.2} | {} | {p2p:.0} | {} | {} |",
            cell.0,
            cell.1,
            cell.2,
            errors.row(),
            if within { yes } else { no },
            if gate { yes } else { no }
        );
        if within && gate && cheapest.as_ref().is_none_or(|(best, _)| ratio < *best) {
            cheapest = Some((ratio, format!("leaf {}, {:?}, θ {}", cell.0, cell.1, cell.2)));
        }
    }
    match cheapest {
        Some((ratio, cell)) => {
            println!("cheapest within 5 % and through the gate: {cell} (×{ratio:.2})")
        }
        None => println!("no cell is within 5 % and through the gate"),
    }
}

/// Prints, for each configuration of [`parent_code_gravity`], its force
/// error with leaves of 32 at the θ it shipped with, then with
/// `OctreeConfig::default()` over θ in steps of 0.01 below that, on the
/// gate cloud and on the benchmark's Evrard state (`n_target`), each
/// against direct summation at the configuration's own softening. The
/// last line of each names the largest θ whose median, p99 and max are
/// each within 5 % of the first row's on both clouds: the θ the
/// configuration takes.
fn parent_code_theta_sweep(n_target: usize) {
    let (state, _) = evrard_state(n_target, 20180911);
    let clouds = [gate_cloud(), state];
    println!(
        "| configuration | leaf size | θ | gate cloud | within 5 % | Evrard state | within 5 % |"
    );
    println!("|---|---|---|---|---|---|---|");
    for (name, gcfg, _, theta_before) in parent_code_gravity() {
        let exact: Vec<_> =
            clouds.iter().map(|c| direct_accelerations(&c.x, &c.m, &gcfg)).collect();
        let errors = |leaf: usize, theta: f64| -> Vec<ErrorStats> {
            let g = GravityConfig { theta, ..gcfg };
            let leaf = OctreeConfig { max_leaf_size: leaf };
            clouds.iter().zip(&exact).map(|(c, e)| walk_errors(c, e, leaf, g).0).collect()
        };
        let bounds: Vec<_> = errors(32, theta_before).iter().map(|e| e.scaled(1.05)).collect();
        let mut chosen = None;
        let hundredths = (theta_before * 100.0).round() as i32;
        for (leaf, step) in [(32, 0)].into_iter().chain((0..=10).map(|k| (24, k))) {
            let theta = f64::from(hundredths - step) / 100.0;
            let row = errors(leaf, theta);
            let within: Vec<bool> = row.iter().zip(&bounds).map(|(e, b)| e.within(b)).collect();
            let yes = |w: bool| if w { "yes" } else { "no" };
            println!(
                "| {name} | {leaf} | {theta} | {} | {} | {} | {} |",
                row[0].row(),
                yes(within[0]),
                row[1].row(),
                yes(within[1])
            );
            if leaf == 24 && chosen.is_none() && within.iter().all(|&w| w) {
                chosen = Some(theta);
            }
        }
        match chosen {
            Some(theta) => println!("{name}: θ {theta} with leaves of 24 (ships θ {})", gcfg.theta),
            None => println!("{name}: no θ in the sweep keeps the force error"),
        }
    }
}

#[test]
#[ignore = "prints the benchmark-sized tables (≈ 1 min in release)"]
fn error_cost_table_benchmark_cloud() {
    error_cost_table(15_000, 5);
    parent_code_theta_sweep(15_000);
}

/// The same tables on a small cloud and one timing round, so CI keeps the
/// tool running.
#[test]
#[ignore = "tooling: run by the scenario-suite CI job"]
fn error_cost_table_reduced() {
    error_cost_table(2_000, 1);
    parent_code_theta_sweep(2_000);
}
