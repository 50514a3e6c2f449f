//! Density evaluation and smoothing-length adaptation
//! (Algorithm 1, step 2 "Find neighbors and smoothing length" and the
//! density part of step 3).
//!
//! Each particle iterates its smoothing length until the neighbour count
//! inside the `2h` support hits the configured target (footnote 2 of the
//! paper: "the simulation will try to reach a given target number of
//! neighbors and this influences the value of the resulting smoothing
//! length"). The density sum, the grad-h term Ω and the neighbour lists
//! are produced in the same pass.

use crate::config::SphConfig;
use crate::lanes::{PairLanes, LANES};
use crate::particles::ParticleSystem;
use crate::StepStats;
use rayon::prelude::*;
use sph_kernels::{Kernel, SUPPORT_RADIUS};
use sph_math::{Vec3, REDUCE_CHUNK};
use sph_tree::{CellGrid, TraversalStats};

// The CSR neighbour-list container lives in `sph-tree` next to the cell
// grid that builds it; re-exported here because every sph-core kernel
// pass consumes it (and for source compatibility with earlier revisions).
pub use sph_tree::NeighborLists;

/// Per-particle scalar output of the density pass (the neighbour row goes
/// straight into the chunk's flat CSR buffer instead).
struct DensityRow {
    h: f64,
    rho: f64,
    omega: f64,
}

/// Per-chunk output: the rows plus the chunk-folded counters. Counters are
/// folded once per chunk (not per particle) and merged in chunk order by
/// the caller — the chunked-map + ordered-reduce shape every parallel hot
/// path in the workspace follows. Neighbour rows are stored as one flat
/// id buffer + per-row lengths (a CSR fragment, which becomes one segment
/// of the returned [`NeighborLists`] as it is): no per-particle `Vec`
/// allocation anywhere on the hot path.
struct DensityChunk {
    rows: Vec<DensityRow>,
    flat: Vec<u32>,
    counts: Vec<u32>,
    stats: TraversalStats,
    h_iterations: u64,
    interactions: u64,
    max_search_radius: f64,
}

/// Upper bound on the factor by which **one** smoothing-length iteration
/// can grow `h`: the starved-support branch grows by 1.5×, the damped
/// fixed-point update by at most `0.5·(1 + ∛(target/2))` (its worst case,
/// reached at the minimum neighbour count of 2 that reaches that branch).
///
/// Distributed halo negotiation uses this to bound the largest search
/// radius an evaluation starting from `h` can request:
/// `2h · bound^(max_h_iterations − 1)`.
pub fn h_growth_bound(cfg: &SphConfig) -> f64 {
    let fixed_point = 0.5 * (1.0 + (cfg.target_neighbors as f64 / 2.0).cbrt());
    fixed_point.max(1.5)
}

/// Compute densities, adapted smoothing lengths, Ω terms and neighbour
/// lists for the particles listed in `active` (pass `0..n` for all).
///
/// Positions are read from `sys` and must match what `query` was built
/// from. On return `sys.h`, `sys.rho`, `sys.omega` are updated for active
/// particles and the neighbour lists (indexed like `active`) are returned
/// together with accumulated [`StepStats`].
pub fn compute_density(
    sys: &mut ParticleSystem,
    query: &CellGrid,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
) -> (NeighborLists, StepStats) {
    compute_density_with(sys, query, kernel, cfg, active, density_sum)
}

/// `(ρ, ∂ρ/∂h)` of the particle at `xi` with smoothing length `h` over
/// its final neighbour `row` (ascending ids, self included): a lane phase
/// per block of the row — displacement, `r`, `q = r/h`, the two kernel
/// shapes — then the ordered fold. The normalisations depend on `h` only
/// and are taken once per particle.
fn density_sum(
    sys: &ParticleSystem,
    kernel: &dyn Kernel,
    xi: Vec3,
    h: f64,
    row: &[u32],
) -> (f64, f64) {
    let w_norm = kernel.w_norm(h);
    let neg_dw_norm = -kernel.dw_norm(h);
    let mut pairs = PairLanes::new();
    let (mut q, mut ws, mut dws) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
    let mut rho = 0.0;
    let mut drho_dh = 0.0;
    for ids in row.chunks(LANES) {
        let n = ids.len();
        pairs.gather(sys, xi, ids);
        for (q, &r) in q[..n].iter_mut().zip(&pairs.r[..n]) {
            *q = r / h;
        }
        kernel.w_shape_lanes(&q[..n], &mut ws[..n]);
        kernel.dw_shape_lanes(&q[..n], &mut dws[..n]);
        for (((&j, &q), &ws), &dws) in ids.iter().zip(&q[..n]).zip(&ws[..n]).zip(&dws[..n]) {
            let m = sys.m[j as usize];
            // `Kernel::w_and_dw_dh`, normalisations hoisted.
            let w = w_norm * ws;
            let dw_dh = neg_dw_norm * (3.0 * ws + q * dws);
            // FROZEN: the per-particle kernel sum in sorted-neighbour
            // order is the cross-backend bit-identity contract;
            // compensation would change every trajectory.
            rho += m * w;
            // FROZEN: same contract as `rho` above (identical loop,
            // order).
            drho_dh += m * dw_dh;
        }
    }
    (rho, drho_dh)
}

/// The one-pair-at-a-time sum `density_sum` replaced, kept as its oracle.
#[cfg(test)]
fn density_sum_reference(
    sys: &ParticleSystem,
    kernel: &dyn Kernel,
    xi: Vec3,
    h: f64,
    row: &[u32],
) -> (f64, f64) {
    let mut rho = 0.0;
    let mut drho_dh = 0.0;
    for &j in row {
        let j = j as usize;
        let d = sys.periodicity.displacement(xi, sys.x[j]);
        let r = d.norm();
        let (w, dw_dh) = kernel.w_and_dw_dh(r, h);
        rho += sys.m[j] * w;
        drho_dh += sys.m[j] * dw_dh;
    }
    (rho, drho_dh)
}

/// [`compute_density`] over the one-pair-at-a-time sum: the oracle of the
/// lane-batched pass (same smoothing-length iteration, same assembly).
#[cfg(test)]
pub(crate) fn compute_density_reference(
    sys: &mut ParticleSystem,
    query: &CellGrid,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
) -> (NeighborLists, StepStats) {
    compute_density_with(sys, query, kernel, cfg, active, density_sum_reference)
}

/// The pass, over the per-particle density sum `sum` (the production one,
/// or the oracle under test).
fn compute_density_with(
    sys: &mut ParticleSystem,
    query: &CellGrid,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
    sum: impl Fn(&ParticleSystem, &dyn Kernel, Vec3, f64, &[u32]) -> (f64, f64) + Sync,
) -> (NeighborLists, StepStats) {
    let target = cfg.target_neighbors as f64;
    let lo = (target * (1.0 - cfg.neighbor_tolerance)).floor() as usize;
    let hi = (target * (1.0 + cfg.neighbor_tolerance)).ceil() as usize;
    // Hard cap on h: the minimum-image metric is only unambiguous while
    // the support 2h stays below half of every periodic span. Surface
    // particles in thin extruded domains would otherwise grow h past it.
    let mut h_cap = f64::INFINITY;
    for axis in 0..3 {
        if sys.periodicity.periodic[axis] {
            let span = sys.periodicity.domain.extent().component(axis);
            h_cap = h_cap.min(span * (0.5 - 1e-9) / SUPPORT_RADIUS);
        }
    }
    assert!(h_cap > 0.0, "degenerate periodic domain: zero span on a periodic axis");

    // Chunked map: fixed REDUCE_CHUNK boundaries (independent of the
    // thread count) so the per-chunk folds below always see the same
    // particles — results are bit-identical for any `SPH_THREADS`.
    let chunks: Vec<DensityChunk> = active
        .par_chunks(REDUCE_CHUNK)
        .map(|chunk| {
            let mut stats = TraversalStats::default();
            let mut h_iterations = 0u64;
            let mut interactions = 0u64;
            let mut max_search_radius = 0.0_f64;
            // One candidate cache and one scratch row reused for every
            // particle of the chunk plus one flat CSR fragment the
            // finished rows append to — the per-particle `Vec` churn this
            // pass used to pay is gone. A converged row holds at most `hi`
            // entries, so the fragment rarely grows.
            let mut cand: Vec<(u32, f64)> = Vec::with_capacity(cfg.target_neighbors * 4);
            let mut row: Vec<u32> = Vec::with_capacity(cfg.target_neighbors * 2);
            let mut flat: Vec<u32> = Vec::with_capacity(chunk.len() * hi);
            let mut counts: Vec<u32> = Vec::with_capacity(chunk.len());
            let rows = chunk
                .iter()
                .map(|&ai| {
                    let i = ai as usize;
                    let xi = sys.x[i];
                    let mut h = sys.h[i];
                    let mut iterations = 0u64;
                    // Candidate cache: the `(id, d²)` pairs of the exact
                    // ball at the radius searched (or pruned to) last,
                    // `r_cov`. A round whose radius fits inside the cache
                    // is answered by *pruning* on the cached distances
                    // instead of re-walking the structure — exact, because
                    // the half-span clamp admits at most one periodic image
                    // of a particle into any ball, so `d²` is the unique
                    // accept value a fresh query at the smaller radius
                    // would recompute. Typical initial guesses overshoot
                    // the target count (h only shrinks), so most particles
                    // pay exactly one structure walk however many rounds
                    // they take; a growing radius falls back to a fresh
                    // gather.
                    let mut r_cov = 0.0_f64;

                    // --- Smoothing-length iteration (phases B–D of Fig. 4) ---
                    // Loop invariant on exit: `cand` is the exact ball
                    // query at the *final* `h` — every break happens after
                    // a gather or prune at the current value. (The pre-fix
                    // starved branch could break with a freshly grown `h`
                    // but the neighbour set of the previous one, leaving
                    // the stored h and the density sum inconsistent.)
                    // Distributed halo symmetrisation relies on this
                    // invariant to recover a ghost particle's gather set by
                    // one search at its exchanged h.
                    loop {
                        let radius = SUPPORT_RADIUS * h;
                        max_search_radius = max_search_radius.max(radius);
                        let count = if radius > r_cov {
                            cand.clear();
                            query.neighbors_with_dist(xi, radius, &mut cand, &mut stats);
                            cand.len()
                        } else {
                            // Same per-round clamp accounting a fresh query
                            // would record; only the structure walk is
                            // skipped.
                            let clamped = query.clamp_radius(radius);
                            if clamped < radius {
                                stats.radius_clamps += 1;
                            }
                            let r2 = clamped * clamped;
                            cand.retain(|&(_, d2)| d2 <= r2);
                            cand.len()
                        };
                        r_cov = radius;
                        iterations += 1;
                        if iterations as usize >= cfg.max_h_iterations || (lo..=hi).contains(&count)
                        {
                            break;
                        }
                        let h_new = if count < 2 {
                            // Starved support: grow geometrically.
                            (h * 1.5).min(h_cap)
                        } else {
                            // n(h) ∝ h³ ⇒ damped fixed point of h (n_target/n)^{1/3}.
                            let factor = (target / count as f64).cbrt();
                            (h * 0.5 * (1.0 + factor)).min(h_cap)
                        };
                        if h_new == h {
                            break; // pinned at the periodic cap
                        }
                        h = h_new;
                    }

                    // Canonical summation order: ascending particle index.
                    // The gather yields candidates in scan order, which
                    // depends on how the structure was built; sorting makes
                    // every downstream reduction's FP rounding a function
                    // of the particle *set* only — the property that lets a
                    // per-rank evaluation over (owned ∪ ghost) subsets
                    // reproduce the global sums bit-for-bit. Only the
                    // surviving row is sorted, never the raw candidates.
                    row.clear();
                    row.extend(cand.iter().map(|&(id, _)| id));
                    row.sort_unstable();

                    // --- Density sum and grad-h term over the final support ---
                    // Distances go through the periodic minimum-image
                    // displacement — the exact arithmetic the pre-pipeline
                    // path used, so densities match it bit-for-bit.
                    let (rho, drho_dh) = sum(sys, kernel, xi, h, &row);
                    interactions += row.len() as u64;
                    // Ω_i = 1 + (h/3ρ) ∂ρ/∂h
                    let omega = if rho > 0.0 { 1.0 + h / (3.0 * rho) * drho_dh } else { 1.0 };
                    h_iterations += iterations;
                    flat.extend_from_slice(&row);
                    counts.push(row.len() as u32);
                    DensityRow { h, rho, omega }
                })
                .collect();
            // The fragment outlives the pass as a segment of the lists:
            // no spare room.
            flat.shrink_to_fit();
            DensityChunk {
                rows,
                flat,
                counts,
                stats,
                h_iterations,
                interactions,
                max_search_radius,
            }
        })
        .collect();

    // Ordered reduce: merge chunk counters, write rows back in `active`
    // order (chunk order × row order reproduces it exactly), and hand the
    // chunk CSR fragments over as the lists' segments.
    let total: usize = chunks.iter().map(|c| c.flat.len()).sum();
    assert!(total <= u32::MAX as usize, "neighbour count overflows u32 CSR offsets");
    let mut offsets = Vec::with_capacity(active.len() + 1);
    offsets.push(0u32);
    let mut segments = Vec::with_capacity(chunks.len());
    let mut running = 0u32;
    let mut step = StepStats::default();
    let mut ids = active.iter();
    for chunk in chunks {
        step.neighbor.merge(&chunk.stats);
        step.h_iterations += chunk.h_iterations;
        step.sph_interactions += chunk.interactions;
        step.max_search_radius = step.max_search_radius.max(chunk.max_search_radius);
        for (row, count) in chunk.rows.into_iter().zip(chunk.counts) {
            #[expect(
                clippy::expect_used,
                reason = "local invariant: the chunks are a partition of `active`, so the id \
                          iterator yields exactly one id per row; exhaustion here is a code bug"
            )]
            let i = *ids.next().expect("chunk rows outnumber active ids") as usize;
            sys.h[i] = row.h;
            sys.rho[i] = row.rho;
            sys.omega[i] = if cfg.grad_h { row.omega } else { 1.0 };
            running += count;
            offsets.push(running);
        }
        segments.push(chunk.flat);
    }
    step.active_particles += active.len() as u64;
    (NeighborLists::from_segments(offsets, segments), step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::{Aabb, Periodicity, Vec3};

    /// Uniform cubic lattice of n³ particles in the unit cube with total
    /// mass 1 ⇒ expected density 1 away from the open boundaries.
    pub(crate) fn lattice_system(n: usize) -> ParticleSystem {
        let mut x = Vec::with_capacity(n * n * n);
        let spacing = 1.0 / n as f64;
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    x.push(Vec3::new(
                        (ix as f64 + 0.5) * spacing,
                        (iy as f64 + 0.5) * spacing,
                        (iz as f64 + 0.5) * spacing,
                    ));
                }
            }
        }
        let count = x.len();
        let m = vec![1.0 / count as f64; count];
        let v = vec![Vec3::ZERO; count];
        let u = vec![1.0; count];
        ParticleSystem::new(x, v, m, u, 2.0 * spacing, Periodicity::open(Aabb::unit()))
    }

    fn run_density(sys: &mut ParticleSystem, cfg: &SphConfig) -> (NeighborLists, StepStats) {
        let grid = CellGrid::build(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
        let kernel = cfg.kernel.build();
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        compute_density(sys, &grid, kernel.as_ref(), cfg, &active)
    }

    #[test]
    fn lattice_density_is_unity_in_the_bulk() {
        let mut sys = lattice_system(12);
        let cfg = SphConfig { target_neighbors: 60, ..Default::default() };
        run_density(&mut sys, &cfg);
        // Check interior particles only (the open boundary depletes the
        // kernel support of surface particles).
        let mut checked = 0;
        for i in 0..sys.len() {
            let p = sys.x[i];
            let margin = 0.25;
            if p.x > margin
                && p.x < 1.0 - margin
                && p.y > margin
                && p.y < 1.0 - margin
                && p.z > margin
                && p.z < 1.0 - margin
            {
                assert!(
                    (sys.rho[i] - 1.0).abs() < 0.05,
                    "interior density {} at {p:?}",
                    sys.rho[i]
                );
                checked += 1;
            }
        }
        assert!(checked > 50, "too few interior particles checked: {checked}");
    }

    #[test]
    fn neighbor_count_hits_target() {
        let mut sys = lattice_system(12);
        let cfg = SphConfig { target_neighbors: 60, neighbor_tolerance: 0.1, ..Default::default() };
        let (lists, _) = run_density(&mut sys, &cfg);
        // Interior particles must land inside the tolerance band.
        let mut hits = 0;
        let mut total = 0;
        for i in 0..sys.len() {
            let p = sys.x[i];
            let margin = 0.25;
            if p.x > margin
                && p.x < 1.0 - margin
                && p.y > margin
                && p.y < 1.0 - margin
                && p.z > margin
                && p.z < 1.0 - margin
            {
                total += 1;
                let c = lists.neighbors(i).len();
                if (54..=66).contains(&c) {
                    hits += 1;
                }
            }
        }
        assert!(hits as f64 > 0.9 * total as f64, "{hits}/{total} on target");
    }

    #[test]
    fn self_is_always_a_neighbor() {
        let mut sys = lattice_system(8);
        let cfg = SphConfig { target_neighbors: 40, ..Default::default() };
        let (lists, _) = run_density(&mut sys, &cfg);
        for i in 0..sys.len() {
            assert!(lists.neighbors(i).contains(&(i as u32)), "particle {i} lost itself");
        }
    }

    #[test]
    fn omega_near_one_for_uniform_field() {
        // In a uniform lattice ∂ρ/∂h ≈ 0 at the adapted h, so Ω ≈ 1.
        let mut sys = lattice_system(12);
        let cfg = SphConfig { target_neighbors: 60, ..Default::default() };
        run_density(&mut sys, &cfg);
        for i in 0..sys.len() {
            let p = sys.x[i];
            let margin = 0.3;
            if p.x > margin
                && p.x < 1.0 - margin
                && p.y > margin
                && p.y < 1.0 - margin
                && p.z > margin
                && p.z < 1.0 - margin
            {
                assert!(
                    (sys.omega[i] - 1.0).abs() < 0.3,
                    "Ω = {} at interior particle {i}",
                    sys.omega[i]
                );
            }
        }
    }

    #[test]
    fn grad_h_disabled_pins_omega() {
        let mut sys = lattice_system(6);
        let cfg = SphConfig { grad_h: false, target_neighbors: 40, ..Default::default() };
        run_density(&mut sys, &cfg);
        assert!(sys.omega.iter().all(|&o| o == 1.0));
    }

    #[test]
    fn mass_is_recovered_by_volume_integral() {
        // Σ_i ρ_i · (m_i/ρ_i) = Σ m_i = total mass, trivially; the real
        // check: kernel-summed density integrates the mass distribution,
        // Σ_i m_i ρ_i / ρ_i ≈ Σ m. Instead verify Σ_j m_j W h-consistency:
        // density of an isolated particle is m·W(0,h).
        let mut sys = ParticleSystem::new(
            vec![Vec3::splat(0.5)],
            vec![Vec3::ZERO],
            vec![2.0],
            vec![1.0],
            0.25,
            Periodicity::open(Aabb::unit()),
        );
        let cfg = SphConfig { max_h_iterations: 1, ..Default::default() };
        let kernel = cfg.kernel.build();
        let (_, stats) = run_density(&mut sys, &cfg);
        let expected = 2.0 * kernel.w(0.0, sys.h[0]);
        assert!((sys.rho[0] - expected).abs() < 1e-12);
        assert_eq!(stats.active_particles, 1);
    }

    #[test]
    fn rows_are_the_brute_force_ball_at_the_returned_h() {
        // The O(N²) minimum-image ball is the neighbour oracle. Exit
        // invariant of the h iteration, against it: every returned row is
        // the ball of radius clamp(2hᵢ) at the *returned* hᵢ, and ρ, Ω are
        // the pair-at-a-time sums over that row, bit for bit.
        let cfg = SphConfig { target_neighbors: 50, max_h_iterations: 4, ..Default::default() };
        let kernel = cfg.kernel.build();
        let mut lattice = lattice_system(10);
        lattice.periodicity = Periodicity::periodic_z(Aabb::unit());
        let jittered = crate::oracle::cloud(8, Periodicity::fully_periodic(Aabb::unit()), 0xBA11);
        for mut sys in [lattice, jittered] {
            let grid = CellGrid::build(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
            let active: Vec<u32> = (0..sys.len() as u32).collect();
            let (lists, stats) = compute_density(&mut sys, &grid, kernel.as_ref(), &cfg, &active);
            assert!(stats.h_iterations > sys.len() as u64, "h never iterated");
            for i in 0..sys.len() {
                let (xi, h) = (sys.x[i], sys.h[i]);
                let r = grid.clamp_radius(SUPPORT_RADIUS * h);
                let ball: Vec<u32> = (0..sys.len() as u32)
                    .filter(|&j| {
                        sys.periodicity.displacement(xi, sys.x[j as usize]).norm_sq() <= r * r
                    })
                    .collect();
                assert_eq!(lists.neighbors(i), ball, "row {i}");
                let (rho, drho_dh) = density_sum_reference(&sys, kernel.as_ref(), xi, h, &ball);
                let omega = 1.0 + h / (3.0 * rho) * drho_dh;
                assert_eq!(sys.rho[i].to_bits(), rho.to_bits(), "ρ differs at {i}");
                assert_eq!(sys.omega[i].to_bits(), omega.to_bits(), "Ω differs at {i}");
            }
        }
    }

    #[test]
    fn active_subset_only_touches_subset() {
        let mut sys = lattice_system(6);
        let cfg = SphConfig { target_neighbors: 40, ..Default::default() };
        let grid = CellGrid::build(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
        let kernel = cfg.kernel.build();
        let before_rho = sys.rho.clone();
        let active = [0u32, 5, 10];
        let (lists, stats) = compute_density(&mut sys, &grid, kernel.as_ref(), &cfg, &active);
        assert_eq!(lists.query_count(), 3);
        assert_eq!(stats.active_particles, 3);
        // Untouched particles keep their (zero) density.
        for (i, &rho_before) in before_rho.iter().enumerate() {
            if !active.contains(&(i as u32)) {
                assert_eq!(sys.rho[i], rho_before);
            }
        }
        for &ai in &active {
            assert!(sys.rho[ai as usize] > 0.0);
        }
    }

    #[test]
    fn neighbor_lists_are_sorted_ascending() {
        // The canonical-order contract every downstream sum relies on for
        // decomposition-independent rounding.
        let mut sys = lattice_system(8);
        let cfg = SphConfig { target_neighbors: 40, ..Default::default() };
        let (lists, stats) = run_density(&mut sys, &cfg);
        for k in 0..lists.query_count() {
            let n = lists.neighbors(k);
            assert!(n.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated list at query {k}");
        }
        assert!(stats.max_search_radius > 0.0);
    }

    #[test]
    fn max_search_radius_respects_the_growth_bound() {
        // Start far below the converged h so the iteration must grow it;
        // every radius requested along the way must stay within the
        // analytic per-iteration growth bound — the guarantee the halo
        // negotiation's worst-case headroom is built on.
        let mut sys = lattice_system(10);
        let h0 = 0.02;
        for h in sys.h.iter_mut() {
            *h = h0;
        }
        let cfg = SphConfig { target_neighbors: 60, max_h_iterations: 6, ..Default::default() };
        let (_, stats) = run_density(&mut sys, &cfg);
        let bound = SUPPORT_RADIUS
            * h0
            * h_growth_bound(&cfg).powi(cfg.max_h_iterations as i32 - 1)
            * (1.0 + 1e-12);
        assert!(stats.max_search_radius > SUPPORT_RADIUS * h0, "iteration never grew h");
        assert!(
            stats.max_search_radius <= bound,
            "radius {} exceeds analytic bound {bound}",
            stats.max_search_radius
        );
    }

    #[test]
    fn final_neighbors_match_a_fresh_search_at_final_h() {
        // Exit invariant of the h iteration: the stored h and the returned
        // neighbour set are consistent — one frozen search at the final h
        // reproduces the list exactly (the property halo symmetrisation
        // uses to recover ghost gather sets).
        let mut sys = lattice_system(9);
        let cfg = SphConfig { target_neighbors: 50, max_h_iterations: 4, ..Default::default() };
        let (lists, _) = run_density(&mut sys, &cfg);
        let frozen = SphConfig { max_h_iterations: 1, ..cfg };
        let mut again = sys.clone();
        let (lists2, _) = run_density(&mut again, &frozen);
        for k in 0..lists.query_count() {
            assert_eq!(lists.neighbors(k), lists2.neighbors(k), "particle {k}");
            assert_eq!(sys.h[k], again.h[k]);
            assert_eq!(sys.rho[k], again.rho[k]);
        }
    }

    #[test]
    fn csr_roundtrip() {
        let lists = vec![vec![1, 2, 3], vec![], vec![7]];
        let nl = NeighborLists::from_lists(lists);
        assert_eq!(nl.query_count(), 3);
        assert_eq!(nl.neighbors(0), &[1, 2, 3]);
        assert_eq!(nl.neighbors(1), &[] as &[u32]);
        assert_eq!(nl.neighbors(2), &[7]);
        assert_eq!(nl.total_neighbors(), 4);
        assert!((nl.mean_count() - 4.0 / 3.0).abs() < 1e-15);
    }
}
