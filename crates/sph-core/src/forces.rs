//! Momentum and energy equations (Algorithm 1, step 3, phases E–H of the
//! Fig. 4 trace).
//!
//! With `α_i = P_i / (Ω_i ρ_i²)` and the *effective* kernel gradient
//! `g_ij` of the configured scheme (analytic derivative or IAD):
//!
//! ```text
//! dv_i/dt = − Σ_j m_j [ α_i g_ij(h_i, C_i) + α_j g_ij(h_j, C_j) + Π_ij ḡ_ij ]
//! du_i/dt =   α_i Σ_j m_j v_ij · g_ij(h_i, C_i)
//!           + ½ Σ_j m_j Π_ij v_ij · ḡ_ij
//! ```
//!
//! where `v_ij = v_i − v_j` and `ḡ = (g(h_i) + g(h_j))/2`. The pair terms
//! are exactly antisymmetric under `i ↔ j` for the analytic gradient, so
//! linear momentum and total energy are conserved to round-off — the
//! conservation-law constraint §5 of the paper calls "much more important"
//! than pointwise convergence. IAD trades exact antisymmetry for linear
//! exactness; its conservation error is bounded by the matrix asymmetry
//! and is verified small in the tests.

use crate::config::{GradientScheme, SphConfig};
use crate::density::NeighborLists;
use crate::gradients::effective_gradient;
use crate::lanes::{PairKernel, TargetLanes, LANES};
use crate::particles::ParticleSystem;
use crate::viscosity::{balsara_factor, pair_viscosity};
use rayon::prelude::*;
use sph_kernels::Kernel;
use sph_math::{Mat3, Vec3, REDUCE_CHUNK};

/// Evaluate hydrodynamic accelerations and energy derivatives for the
/// active particles. Requires density, volume elements, Ω, EOS outputs
/// (`p`, `cs`), velocity gradients (`div_v`, `curl_v`) and — for IAD —
/// the `c_iad` matrices to be current. Returns the number of pair
/// interactions evaluated.
pub fn compute_forces(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
) -> u64 {
    assert_eq!(lists.query_count(), active.len());
    let scheme = cfg.gradients;
    let visc = cfg.viscosity;

    // What a pair reads of its neighbour `j` that is a function of `j`
    // alone, once per local particle instead of once per pair (a particle
    // is a neighbour ~57 times): α_j, the Balsara factor, and the h-only
    // factor of the kernel form the scheme's gradient uses. Ghost copies
    // carry refreshed `p, Ω, ρ, cs, ∇·v, ∇×v, h`, so the values are the
    // ones the pair loop would compute.
    let form_j = match scheme {
        GradientScheme::KernelDerivative => PairKernel::SlopeOverR,
        GradientScheme::Iad => PairKernel::Value,
    };
    let local = sys.len();
    let mut alpha: Vec<f64> = Vec::with_capacity(local);
    alpha.extend((0..local).map(|j| sys.p[j] / (sys.omega[j] * sys.rho[j] * sys.rho[j])));
    let mut norm: Vec<f64> = Vec::with_capacity(local);
    norm.extend(sys.h.iter().map(|&h| form_j.norm(kernel, h)));
    let mut balsara: Vec<f64> = Vec::with_capacity(if visc.balsara { local } else { 0 });
    if visc.balsara {
        balsara.extend(
            (0..local).map(|j| balsara_factor(sys.div_v[j], sys.curl_v[j], sys.cs[j], sys.h[j])),
        );
    }
    let f_bal = |j: usize| if visc.balsara { balsara[j] } else { 1.0 };

    // Chunked map + ordered reduce: rows per chunk plus one chunk-folded
    // pair counter, over fixed REDUCE_CHUNK boundaries (thread-count
    // independent, so accelerations are bit-identical for any SPH_THREADS).
    let chunks: Vec<(Vec<(Vec3, f64)>, u64)> = active
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            let mut chunk_pairs = 0u64;
            let rows = chunk
                .iter()
                .enumerate()
                .map(|(off, &ai)| {
                    let k = c * REDUCE_CHUNK + off;
                    let i = ai as usize;
                    let vi = sys.v[i];
                    let hi = sys.h[i];
                    let rho_i = sys.rho[i];
                    let cs_i = sys.cs[i];
                    let ci = sys.c_iad[i];
                    let alpha_i = alpha[i];
                    let f_bal_i = f_bal(i);
                    let mut lanes = TargetLanes::new(sys, kernel, i, PairKernel::of(scheme, &ci));
                    let (mut h_j, mut norm_j) = ([0.0; LANES], [0.0; LANES]);
                    let (mut q, mut s_j) = ([0.0; LANES], [0.0; LANES]);
                    let mut acc = Vec3::ZERO;
                    let mut dudt = 0.0;
                    for ids in lists.neighbors(k).chunks(LANES) {
                        let n = ids.len();
                        // Lane phase: geometry and the kernel factor of
                        // g_ij(h_i, C_i), then that of g_ij(h_j, C_j), for
                        // every pair of the block (the self pair included;
                        // the fold never reads its lanes).
                        lanes.lane_phase(ids);
                        for ((h, norm_j), &j) in h_j.iter_mut().zip(&mut norm_j).zip(ids) {
                            *h = sys.h[j as usize];
                            *norm_j = norm[j as usize];
                        }
                        let norm_h_j = norm_j[..n].iter().copied().zip(h_j[..n].iter().copied());
                        form_j.eval(kernel, &lanes.pairs.r[..n], norm_h_j, &mut q, &mut s_j);

                        // Ordered fold, in row order.
                        for (lane, &j) in ids.iter().enumerate() {
                            let j = j as usize;
                            if j == i {
                                continue;
                            }
                            chunk_pairs += 1;
                            let d = lanes.pairs.d(lane);
                            let r = lanes.pairs.r[lane];
                            let dv = vi - sys.v[j];

                            let g_i = lanes.gradient(&ci, lane);
                            let g_j = if form_j == PairKernel::Value && sys.c_iad[j] == Mat3::ZERO {
                                // Singular C_j: the analytic fallback, one
                                // pair at a time.
                                effective_gradient(scheme, kernel, &sys.c_iad[j], d, r, h_j[lane])
                            } else {
                                form_j.gradient(&sys.c_iad[j], d, r, s_j[lane])
                            };
                            let g_bar = (g_i + g_j) * 0.5;

                            let rho_j = sys.rho[j];
                            let pi_ij = pair_viscosity(
                                &visc,
                                d,
                                dv,
                                hi,
                                h_j[lane],
                                cs_i,
                                sys.cs[j],
                                rho_i,
                                rho_j,
                                f_bal_i,
                                f_bal(j),
                            );

                            let mj = sys.m[j];
                            acc -= (g_i * alpha_i + g_j * alpha[j] + g_bar * pi_ij) * mj;
                            // sph-lint: allow(raw-accumulation) — FROZEN: the
                            // pairwise energy-rate sum in sorted-neighbour
                            // order is part of the bit-identity contract;
                            // compensation would change every trajectory.
                            dudt += mj * (alpha_i * dv.dot(g_i) + 0.5 * pi_ij * dv.dot(g_bar));
                        }
                    }
                    (acc, dudt)
                })
                .collect();
            (rows, chunk_pairs)
        })
        .collect();

    // Ordered reduce: write rows back in `active` order, fold pair counts.
    let mut total_pairs = 0;
    let mut ids = active.iter();
    for (rows, chunk_pairs) in chunks {
        // sph-lint: allow(raw-accumulation) — u64 interaction counter;
        // integer addition is exact, no FP order to freeze.
        total_pairs += chunk_pairs;
        for (acc, dudt) in rows {
            // sph-lint: allow(panic-path) — local invariant: the chunks
            // are a partition of `active`, so the id iterator yields
            // exactly one id per row; exhaustion here is a code bug.
            let i = *ids.next().expect("chunk rows outnumber active ids") as usize;
            sys.a[i] = acc;
            sys.du_dt[i] = dudt;
        }
    }
    total_pairs
}

/// The one-pair-at-a-time [`compute_forces`] the lane-batched pass
/// replaced, kept verbatim as its oracle: every per-particle quantity
/// recomputed per pair, both gradients through `effective_gradient`.
#[cfg(test)]
pub(crate) fn compute_forces_reference(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
) -> u64 {
    assert_eq!(lists.query_count(), active.len());
    let scheme = cfg.gradients;
    let visc = cfg.viscosity;

    // Chunked map + ordered reduce: rows per chunk plus one chunk-folded
    // pair counter, over fixed REDUCE_CHUNK boundaries (thread-count
    // independent, so accelerations are bit-identical for any SPH_THREADS).
    let chunks: Vec<(Vec<(Vec3, f64)>, u64)> = active
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            let mut chunk_pairs = 0u64;
            let rows = chunk
                .iter()
                .enumerate()
                .map(|(off, &ai)| {
                    let k = c * REDUCE_CHUNK + off;
                    let i = ai as usize;
                    let xi = sys.x[i];
                    let vi = sys.v[i];
                    let hi = sys.h[i];
                    let rho_i = sys.rho[i];
                    let p_i = sys.p[i];
                    let cs_i = sys.cs[i];
                    let ci = sys.c_iad[i];
                    let alpha_i = p_i / (sys.omega[i] * rho_i * rho_i);
                    let f_bal_i = if visc.balsara {
                        balsara_factor(sys.div_v[i], sys.curl_v[i], cs_i, hi)
                    } else {
                        1.0
                    };

                    let mut acc = Vec3::ZERO;
                    let mut dudt = 0.0;
                    for &j in lists.neighbors(k) {
                        let j = j as usize;
                        if j == i {
                            continue;
                        }
                        chunk_pairs += 1;
                        let d = sys.periodicity.displacement(xi, sys.x[j]);
                        let r = d.norm();
                        let dv = vi - sys.v[j];

                        let g_i = effective_gradient(scheme, kernel, &ci, d, r, hi);
                        let g_j = effective_gradient(scheme, kernel, &sys.c_iad[j], d, r, sys.h[j]);
                        let g_bar = (g_i + g_j) * 0.5;

                        let rho_j = sys.rho[j];
                        let alpha_j = sys.p[j] / (sys.omega[j] * rho_j * rho_j);

                        let f_bal_j = if visc.balsara {
                            balsara_factor(sys.div_v[j], sys.curl_v[j], sys.cs[j], sys.h[j])
                        } else {
                            1.0
                        };
                        let pi_ij = pair_viscosity(
                            &visc, d, dv, hi, sys.h[j], cs_i, sys.cs[j], rho_i, rho_j, f_bal_i,
                            f_bal_j,
                        );

                        let mj = sys.m[j];
                        acc -= (g_i * alpha_i + g_j * alpha_j + g_bar * pi_ij) * mj;
                        dudt += mj * (alpha_i * dv.dot(g_i) + 0.5 * pi_ij * dv.dot(g_bar));
                    }
                    (acc, dudt)
                })
                .collect();
            (rows, chunk_pairs)
        })
        .collect();

    // Ordered reduce: write rows back in `active` order, fold pair counts.
    let mut total_pairs = 0;
    let mut ids = active.iter();
    for (rows, chunk_pairs) in chunks {
        total_pairs += chunk_pairs;
        for (acc, dudt) in rows {
            let i = *ids.next().expect("chunk rows outnumber active ids") as usize;
            sys.a[i] = acc;
            sys.du_dt[i] = dudt;
        }
    }
    total_pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GradientScheme, SphConfig};
    use crate::density::compute_density;
    use crate::eos::IdealGas;
    use crate::gradients::{compute_iad_matrices, compute_velocity_gradients};
    use crate::volume::compute_volume_elements;
    use sph_kernels::SUPPORT_RADIUS;
    use sph_math::{Aabb, Periodicity, SplitMix64};
    use sph_tree::CellGrid;

    fn jittered(n: usize, jitter: f64, seed: u64) -> ParticleSystem {
        let mut rng = SplitMix64::new(seed);
        let spacing = 1.0 / n as f64;
        let mut x = Vec::new();
        for iz in 0..n {
            for iy in 0..n {
                for ix in 0..n {
                    x.push(Vec3::new(
                        (ix as f64 + 0.5 + rng.uniform(-jitter, jitter)) * spacing,
                        (iy as f64 + 0.5 + rng.uniform(-jitter, jitter)) * spacing,
                        (iz as f64 + 0.5 + rng.uniform(-jitter, jitter)) * spacing,
                    ));
                }
            }
        }
        let c = x.len();
        ParticleSystem::new(
            x,
            vec![Vec3::ZERO; c],
            vec![1.0 / c as f64; c],
            vec![1.0; c],
            2.0 * spacing,
            Periodicity::open(Aabb::unit()),
        )
    }

    /// Full derivative evaluation pipeline for the tests. The force pass
    /// uses the symmetric closure of the gather lists so every pair is seen
    /// from both sides (conservation requires it).
    fn evaluate(sys: &mut ParticleSystem, cfg: &SphConfig) {
        let grid = CellGrid::build(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
        let kernel = cfg.kernel.build();
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        let (lists, _) = compute_density(sys, &grid, kernel.as_ref(), cfg, &active);
        compute_volume_elements(sys, &lists, kernel.as_ref(), cfg, &active);
        if cfg.gradients == GradientScheme::Iad {
            compute_iad_matrices(sys, &lists, kernel.as_ref(), &active);
        }
        let eos = IdealGas::new(cfg.gamma);
        eos.apply(&sys.rho, &sys.u, &mut sys.p, &mut sys.cs);
        compute_velocity_gradients(sys, &lists, kernel.as_ref(), cfg.gradients, &active);
        let sym = lists.symmetrized();
        compute_forces(sys, &sym, kernel.as_ref(), cfg, &active);
    }

    fn interior(sys: &ParticleSystem, margin: f64) -> Vec<usize> {
        (0..sys.len())
            .filter(|&i| {
                let p = sys.x[i];
                p.x > margin
                    && p.x < 1.0 - margin
                    && p.y > margin
                    && p.y < 1.0 - margin
                    && p.z > margin
                    && p.z < 1.0 - margin
            })
            .collect()
    }

    #[test]
    fn uniform_pressure_gives_no_force_in_periodic_lattice() {
        // A fully periodic uniform lattice has exact translation symmetry:
        // every particle's net hydro force must vanish to round-off.
        // n = 8 makes the spacing (1/8) exactly representable, so all
        // particles see bit-identical neighbour geometry and the symmetry
        // holds exactly, not just statistically.
        let mut sys = jittered(8, 0.0, 1); // perfect lattice
        sys.periodicity = Periodicity::fully_periodic(Aabb::unit());
        let cfg = SphConfig { target_neighbors: 60, ..Default::default() };
        evaluate(&mut sys, &cfg);
        // Scale: P/(ρ h) is the natural acceleration unit here.
        let scale = sys.p[0] / (sys.rho[0] * sys.h[0]);
        for i in 0..sys.len() {
            assert!(sys.a[i].norm() < 1e-9 * scale, "accel {:?} at {i} (scale {scale})", sys.a[i]);
        }
    }

    #[test]
    fn pressure_gradient_accelerates_correctly() {
        // u(x) linear in x ⇒ P = (γ−1)ρu linear ⇒ a ≈ −∇P/ρ pointing down-x.
        let mut sys = jittered(12, 0.0, 2);
        let slope = 0.5;
        for i in 0..sys.len() {
            sys.u[i] = 1.0 + slope * sys.x[i].x;
        }
        let cfg = SphConfig {
            gradients: GradientScheme::Iad,
            target_neighbors: 60,
            ..Default::default()
        };
        evaluate(&mut sys, &cfg);
        let gamma = cfg.gamma;
        // ρ ≈ 1 interior ⇒ expected a_x = −(γ−1)·slope.
        let expected = -(gamma - 1.0) * slope;
        for i in interior(&sys, 0.3) {
            let rel = (sys.a[i].x - expected).abs() / expected.abs();
            assert!(rel < 0.15, "a_x = {} vs expected {expected} at particle {i}", sys.a[i].x);
            assert!(sys.a[i].y.abs() < 0.1 * expected.abs());
            assert!(sys.a[i].z.abs() < 0.1 * expected.abs());
        }
    }

    #[test]
    fn momentum_conserved_to_roundoff_with_kernel_derivatives() {
        let mut sys = jittered(8, 0.3, 5);
        // Random hot spots to drive strong forces.
        let mut rng = SplitMix64::new(10);
        for i in 0..sys.len() {
            sys.u[i] = rng.uniform(0.5, 2.0);
            sys.v[i] = Vec3::new(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), 0.0);
        }
        let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
        evaluate(&mut sys, &cfg);
        let net: Vec3 = sys.a.iter().zip(&sys.m).map(|(&a, &m)| a * m).sum();
        let typical: f64 =
            sys.a.iter().zip(&sys.m).map(|(&a, &m)| (a * m).norm()).sum::<f64>() / sys.len() as f64;
        assert!(
            net.norm() < 1e-10 * typical * sys.len() as f64,
            "net momentum rate {net:?}, typical |ma| {typical}"
        );
    }

    #[test]
    fn energy_conserved_to_roundoff_with_kernel_derivatives() {
        // The discrete identity Σ m (v·a + du/dt) = 0 must hold pairwise.
        let mut sys = jittered(8, 0.3, 6);
        let mut rng = SplitMix64::new(11);
        for i in 0..sys.len() {
            sys.u[i] = rng.uniform(0.5, 2.0);
            sys.v[i] =
                Vec3::new(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2));
        }
        let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
        evaluate(&mut sys, &cfg);
        let de: f64 =
            (0..sys.len()).map(|i| sys.m[i] * (sys.v[i].dot(sys.a[i]) + sys.du_dt[i])).sum();
        let scale: f64 = (0..sys.len())
            .map(|i| sys.m[i] * (sys.v[i].dot(sys.a[i]).abs() + sys.du_dt[i].abs()))
            .sum();
        assert!(de.abs() < 1e-10 * scale.max(1e-30), "dE/dt = {de}, scale {scale}");
    }

    #[test]
    fn iad_momentum_error_is_small() {
        let mut sys = jittered(8, 0.3, 7);
        let mut rng = SplitMix64::new(12);
        for i in 0..sys.len() {
            sys.u[i] = rng.uniform(0.5, 2.0);
        }
        let cfg = SphConfig {
            gradients: GradientScheme::Iad,
            target_neighbors: 50,
            ..Default::default()
        };
        evaluate(&mut sys, &cfg);
        let net: Vec3 = sys.a.iter().zip(&sys.m).map(|(&a, &m)| a * m).sum();
        let total_abs: f64 = sys.a.iter().zip(&sys.m).map(|(&a, &m)| (a * m).norm()).sum();
        // IAD is not exactly antisymmetric; require the violation to stay
        // below 1% of the total force magnitude.
        assert!(
            net.norm() < 0.01 * total_abs,
            "IAD momentum violation {} vs total {total_abs}",
            net.norm()
        );
    }

    #[test]
    fn compression_heats_gas() {
        // Two columns approaching: du/dt must be positive where they meet.
        let mut sys = jittered(10, 0.0, 8);
        for i in 0..sys.len() {
            // Converging flow toward the x = 0.5 plane.
            sys.v[i] = Vec3::new(if sys.x[i].x < 0.5 { 0.5 } else { -0.5 }, 0.0, 0.0);
        }
        let cfg = SphConfig { target_neighbors: 60, ..Default::default() };
        evaluate(&mut sys, &cfg);
        let mid: Vec<usize> =
            interior(&sys, 0.2).into_iter().filter(|&i| (sys.x[i].x - 0.5).abs() < 0.1).collect();
        assert!(!mid.is_empty());
        let heating: f64 = mid.iter().map(|&i| sys.du_dt[i]).sum::<f64>() / mid.len() as f64;
        assert!(heating > 0.0, "mean du/dt at the interface = {heating}");
    }

    #[test]
    fn viscosity_off_means_no_heating_in_uniform_flow() {
        // Uniform translation: no du/dt anywhere (Galilean invariance).
        let mut sys = jittered(8, 0.2, 9);
        for i in 0..sys.len() {
            sys.v[i] = Vec3::new(1.0, 2.0, 3.0);
        }
        let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
        evaluate(&mut sys, &cfg);
        for i in 0..sys.len() {
            assert!(
                sys.du_dt[i].abs() < 1e-10,
                "du/dt = {} under uniform translation",
                sys.du_dt[i]
            );
        }
    }
}
