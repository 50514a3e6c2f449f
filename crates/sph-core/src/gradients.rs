//! Gradient estimators: analytic kernel derivatives and the Integral
//! Approach to Derivatives (IAD).
//!
//! Table 1 distinguishes SPHYNX ("IAD") from ChaNGa/SPH-flow ("kernel
//! derivatives"); Table 2 requires the mini-app to offer both. IAD
//! (García-Senz, Cabezón & Escartín 2012) replaces the analytic kernel
//! gradient by
//!
//! `A_ij = C_i · (r_j − r_i) W_ij(h_i)`,  `C_i = τ_i⁻¹`,
//! `τ_i = Σ_j V_j (r_j − r_i) ⊗ (r_j − r_i) W_ij(h_i)`,
//!
//! which makes the gradient estimate `⟨∇f⟩_i = Σ_j V_j (f_j − f_i) A_ij`
//! **exact for linear fields on any particle arrangement** — the property
//! the tests below verify and the reason SPHYNX uses it for shock-dominated
//! astrophysics. If τ is numerically singular (degenerate neighbour
//! geometry) the particle falls back to the analytic gradient, mirroring
//! SPHYNX's behaviour.

use crate::config::GradientScheme;
use crate::density::NeighborLists;
use crate::lanes::{PairKernel, TargetLanes, LANES};
use crate::particles::ParticleSystem;
use rayon::prelude::*;
use sph_kernels::Kernel;
use sph_math::{Mat3, Vec3, REDUCE_CHUNK};

/// Compute the IAD matrices `C_i` for all `active` particles.
///
/// Requires densities and volume elements (`sys.vol`) to be current.
/// Particles whose shape matrix is singular get `C = 0`, which makes
/// `effective_gradient` fall back to the analytic kernel derivative.
pub fn compute_iad_matrices(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    active: &[u32],
) {
    assert_eq!(lists.query_count(), active.len());
    // Chunked map over fixed REDUCE_CHUNK boundaries; the ordered flatten
    // below reproduces `active` order exactly for any thread count.
    let chunks: Vec<Vec<Mat3>> = active
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(off, &ai)| {
                    let k = c * REDUCE_CHUNK + off;
                    let i = ai as usize;
                    let mut lanes = TargetLanes::new(sys, kernel, i, PairKernel::Value);
                    let mut tau = Mat3::ZERO;
                    for ids in lists.neighbors(k).chunks(LANES) {
                        lanes.lane_phase(ids);
                        for (lane, &j) in ids.iter().enumerate() {
                            // r_j − r_i under the periodic metric.
                            let dji = -lanes.pairs.d(lane);
                            tau.add_scaled_outer(dji, sys.vol[j as usize] * lanes.s[lane]);
                        }
                    }
                    tau.inverse().unwrap_or(Mat3::ZERO)
                })
                .collect()
        })
        .collect();
    for (&ai, m) in active.iter().zip(chunks.into_iter().flatten()) {
        sys.c_iad[ai as usize] = m;
    }
}

/// The "effective kernel gradient" `g_ij` used uniformly by the momentum,
/// energy and velocity-gradient loops:
///
/// * `KernelDerivative` → `∇_i W_ij = (dW/dr) · d/r` (analytic);
/// * `Iad` → `A_ij = C_i (r_j − r_i) W_ij`, falling back to the analytic
///   form when `C_i` is the zero (singular) marker.
///
/// `d = r_i − r_j` (minimum image), `r = |d|`.
#[inline]
pub(crate) fn effective_gradient(
    scheme: GradientScheme,
    kernel: &dyn Kernel,
    c_i: &Mat3,
    d: Vec3,
    r: f64,
    h: f64,
) -> Vec3 {
    match scheme {
        GradientScheme::KernelDerivative => {
            if r <= 0.0 {
                Vec3::ZERO
            } else {
                d * (kernel.dw_dr(r, h) / r)
            }
        }
        GradientScheme::Iad => {
            if *c_i == Mat3::ZERO {
                // Singular fallback.
                if r <= 0.0 {
                    Vec3::ZERO
                } else {
                    d * (kernel.dw_dr(r, h) / r)
                }
            } else {
                c_i.mul_vec(-d) * kernel.w(r, h)
            }
        }
    }
}

/// Estimate `⟨∇f⟩_i` of a scalar field from neighbour values:
/// `Σ_j V_j (f_j − f_i) g_ij`. Exact for linear `f` under IAD.
pub fn scalar_gradient(
    sys: &ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    scheme: GradientScheme,
    active: &[u32],
    f: &[f64],
) -> Vec<Vec3> {
    assert_eq!(f.len(), sys.len());
    assert_eq!(lists.query_count(), active.len());
    let chunks: Vec<Vec<Vec3>> = active
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(off, &ai)| {
                    let k = c * REDUCE_CHUNK + off;
                    let i = ai as usize;
                    let ci = &sys.c_iad[i];
                    let mut lanes = TargetLanes::new(sys, kernel, i, PairKernel::of(scheme, ci));
                    let mut grad = Vec3::ZERO;
                    for ids in lists.neighbors(k).chunks(LANES) {
                        lanes.lane_phase(ids);
                        for (lane, &j) in ids.iter().enumerate() {
                            let j = j as usize;
                            if j == i {
                                continue;
                            }
                            let g = lanes.gradient(ci, lane);
                            // FROZEN: the per-particle gradient sum in
                            // sorted-neighbour order is part of the
                            // bit-identity contract.
                            grad += g * (sys.vol[j] * (f[j] - f[i]));
                        }
                    }
                    grad
                })
                .collect()
        })
        .collect();
    chunks.into_iter().flatten().collect()
}

/// Compute `∇·v` and `|∇×v|` for the active particles, writing them into
/// `sys.div_v` / `sys.curl_v` (consumed by the Balsara switch and by the
/// conservation diagnostics).
pub fn compute_velocity_gradients(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    scheme: GradientScheme,
    active: &[u32],
) {
    assert_eq!(lists.query_count(), active.len());
    let chunks: Vec<Vec<(f64, f64)>> = active
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(off, &ai)| {
                    let k = c * REDUCE_CHUNK + off;
                    let i = ai as usize;
                    let vi = sys.v[i];
                    let ci = &sys.c_iad[i];
                    let mut lanes = TargetLanes::new(sys, kernel, i, PairKernel::of(scheme, ci));
                    let mut div = 0.0;
                    let mut curl = Vec3::ZERO;
                    for ids in lists.neighbors(k).chunks(LANES) {
                        lanes.lane_phase(ids);
                        for (lane, &j) in ids.iter().enumerate() {
                            let j = j as usize;
                            if j == i {
                                continue;
                            }
                            let g = lanes.gradient(ci, lane);
                            let dv = sys.v[j] - vi;
                            let vol = sys.vol[j];
                            // FROZEN: the divergence sum in sorted-neighbour
                            // order feeds the Balsara switch; part of the bit
                            // contract.
                            div += vol * dv.dot(g);
                            // FROZEN: same contract as `div` above (identical
                            // loop, order).
                            curl += (dv.cross(g)) * vol;
                        }
                    }
                    (div, curl.norm())
                })
                .collect()
        })
        .collect();
    for (&ai, (div, curl)) in active.iter().zip(chunks.into_iter().flatten()) {
        sys.div_v[ai as usize] = div;
        sys.curl_v[ai as usize] = curl;
    }
}

/// The one-pair-at-a-time [`compute_iad_matrices`] the lane-batched pass replaced,
/// kept verbatim as its oracle.
#[cfg(test)]
pub(crate) fn compute_iad_matrices_reference(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    active: &[u32],
) {
    assert_eq!(lists.query_count(), active.len());
    // Chunked map over fixed REDUCE_CHUNK boundaries; the ordered flatten
    // below reproduces `active` order exactly for any thread count.
    let chunks: Vec<Vec<Mat3>> = active
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(off, &ai)| {
                    let k = c * REDUCE_CHUNK + off;
                    let i = ai as usize;
                    let xi = sys.x[i];
                    let h = sys.h[i];
                    let mut tau = Mat3::ZERO;
                    for &j in lists.neighbors(k) {
                        let j = j as usize;
                        // r_j − r_i under the periodic metric.
                        let dji = -sys.periodicity.displacement(xi, sys.x[j]);
                        let w = kernel.w(dji.norm(), h);
                        tau.add_scaled_outer(dji, sys.vol[j] * w);
                    }
                    tau.inverse().unwrap_or(Mat3::ZERO)
                })
                .collect()
        })
        .collect();
    for (&ai, m) in active.iter().zip(chunks.into_iter().flatten()) {
        sys.c_iad[ai as usize] = m;
    }
}

/// The one-pair-at-a-time [`scalar_gradient`] the lane-batched pass replaced,
/// kept verbatim as its oracle.
#[cfg(test)]
pub(crate) fn scalar_gradient_reference(
    sys: &ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    scheme: GradientScheme,
    active: &[u32],
    f: &[f64],
) -> Vec<Vec3> {
    assert_eq!(f.len(), sys.len());
    let chunks: Vec<Vec<Vec3>> = active
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(off, &ai)| {
                    let k = c * REDUCE_CHUNK + off;
                    let i = ai as usize;
                    let xi = sys.x[i];
                    let h = sys.h[i];
                    let ci = &sys.c_iad[i];
                    let mut grad = Vec3::ZERO;
                    for &j in lists.neighbors(k) {
                        let j = j as usize;
                        if j == i {
                            continue;
                        }
                        let d = sys.periodicity.displacement(xi, sys.x[j]);
                        let g = effective_gradient(scheme, kernel, ci, d, d.norm(), h);
                        grad += g * (sys.vol[j] * (f[j] - f[i]));
                    }
                    grad
                })
                .collect()
        })
        .collect();
    chunks.into_iter().flatten().collect()
}

/// The one-pair-at-a-time [`compute_velocity_gradients`] the lane-batched pass replaced,
/// kept verbatim as its oracle.
#[cfg(test)]
pub(crate) fn compute_velocity_gradients_reference(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    scheme: GradientScheme,
    active: &[u32],
) {
    let chunks: Vec<Vec<(f64, f64)>> = active
        .par_chunks(REDUCE_CHUNK)
        .enumerate()
        .map(|(c, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(off, &ai)| {
                    let k = c * REDUCE_CHUNK + off;
                    let i = ai as usize;
                    let xi = sys.x[i];
                    let vi = sys.v[i];
                    let h = sys.h[i];
                    let ci = &sys.c_iad[i];
                    let mut div = 0.0;
                    let mut curl = Vec3::ZERO;
                    for &j in lists.neighbors(k) {
                        let j = j as usize;
                        if j == i {
                            continue;
                        }
                        let d = sys.periodicity.displacement(xi, sys.x[j]);
                        let g = effective_gradient(scheme, kernel, ci, d, d.norm(), h);
                        let dv = sys.v[j] - vi;
                        let vol = sys.vol[j];
                        div += vol * dv.dot(g);
                        curl += (dv.cross(g)) * vol;
                    }
                    (div, curl.norm())
                })
                .collect()
        })
        .collect();
    for (&ai, (div, curl)) in active.iter().zip(chunks.into_iter().flatten()) {
        sys.div_v[ai as usize] = div;
        sys.curl_v[ai as usize] = curl;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SphConfig;
    use crate::density::compute_density;
    use crate::volume::compute_volume_elements;
    use sph_kernels::SUPPORT_RADIUS;
    use sph_math::{Aabb, Periodicity, SplitMix64};
    use sph_tree::CellGrid;

    /// Jittered lattice: irregular enough to break naive estimators but
    /// with full support everywhere in the interior.
    fn jittered_system(n: usize, jitter: f64, seed: u64) -> ParticleSystem {
        let mut rng = SplitMix64::new(seed);
        let spacing = 1.0 / n as f64;
        let mut x = Vec::with_capacity(n * n * n);
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
        let count = x.len();
        ParticleSystem::new(
            x,
            vec![Vec3::ZERO; count],
            vec![1.0 / count as f64; count],
            vec![1.0; count],
            2.0 * spacing,
            Periodicity::open(Aabb::unit()),
        )
    }

    /// Run density + volumes (+ IAD matrices when requested); return lists.
    fn prepare(sys: &mut ParticleSystem, cfg: &SphConfig) -> NeighborLists {
        let grid = CellGrid::build(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
        let kernel = cfg.kernel.build();
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        let (lists, _) = compute_density(sys, &grid, kernel.as_ref(), cfg, &active);
        compute_volume_elements(sys, &lists, kernel.as_ref(), cfg, &active);
        if cfg.gradients == GradientScheme::Iad {
            compute_iad_matrices(sys, &lists, kernel.as_ref(), &active);
        }
        lists
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
    fn iad_is_exact_for_linear_fields_on_disorder() {
        let cfg = SphConfig {
            gradients: GradientScheme::Iad,
            target_neighbors: 60,
            ..Default::default()
        };
        let mut sys = jittered_system(10, 0.25, 7);
        let lists = prepare(&mut sys, &cfg);
        let kernel = cfg.kernel.build();
        // f = a·r + b
        let a = Vec3::new(2.0, -1.0, 0.5);
        let f: Vec<f64> = sys.x.iter().map(|&p| a.dot(p) + 3.0).collect();
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        let grads =
            scalar_gradient(&sys, &lists, kernel.as_ref(), GradientScheme::Iad, &active, &f);
        for i in interior(&sys, 0.3) {
            let err = (grads[i] - a).norm() / a.norm();
            assert!(err < 1e-10, "particle {i}: IAD gradient error {err}");
        }
    }

    #[test]
    fn kernel_derivative_gradient_is_first_order_only() {
        // On the same disordered arrangement the analytic-derivative
        // estimator shows O(10%) errors — that contrast is the point of IAD.
        let cfg = SphConfig { target_neighbors: 60, ..Default::default() };
        let mut sys = jittered_system(10, 0.25, 7);
        let lists = prepare(&mut sys, &cfg);
        let kernel = cfg.kernel.build();
        let a = Vec3::new(2.0, -1.0, 0.5);
        let f: Vec<f64> = sys.x.iter().map(|&p| a.dot(p) + 3.0).collect();
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        let grads = scalar_gradient(
            &sys,
            &lists,
            kernel.as_ref(),
            GradientScheme::KernelDerivative,
            &active,
            &f,
        );
        let mut max_err = 0.0_f64;
        let mut mean_err = 0.0;
        let ids = interior(&sys, 0.3);
        for &i in &ids {
            let err = (grads[i] - a).norm() / a.norm();
            max_err = max_err.max(err);
            mean_err += err;
        }
        mean_err /= ids.len() as f64;
        // It is a consistent estimator (errors bounded) but far from the
        // IAD's 1e-10 exactness.
        assert!(mean_err < 0.5, "mean error {mean_err} unreasonably large");
        assert!(max_err > 1e-6, "analytic estimator suspiciously exact: {max_err}");
    }

    #[test]
    fn constant_field_has_zero_gradient_in_both_schemes() {
        let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
        let mut sys = jittered_system(8, 0.2, 9);
        let lists = prepare(&mut sys, &cfg);
        let kernel = cfg.kernel.build();
        let f = vec![4.2; sys.len()];
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        for scheme in [GradientScheme::KernelDerivative, GradientScheme::Iad] {
            let grads = scalar_gradient(&sys, &lists, kernel.as_ref(), scheme, &active, &f);
            for g in &grads {
                assert!(g.norm() < 1e-12, "{scheme:?} nonzero gradient of constant: {g:?}");
            }
        }
    }

    #[test]
    fn rigid_rotation_has_zero_divergence_and_known_curl() {
        // v = ω × r with ω = 5 ẑ (the square-patch initial field):
        // ∇·v = 0, |∇×v| = 2ω = 10.
        let cfg = SphConfig {
            gradients: GradientScheme::Iad,
            target_neighbors: 60,
            ..Default::default()
        };
        let mut sys = jittered_system(10, 0.15, 3);
        let omega = 5.0;
        let c = Vec3::splat(0.5);
        for i in 0..sys.len() {
            let d = sys.x[i] - c;
            sys.v[i] = Vec3::new(omega * d.y, -omega * d.x, 0.0);
        }
        let lists = prepare(&mut sys, &cfg);
        let kernel = cfg.kernel.build();
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        compute_velocity_gradients(&mut sys, &lists, kernel.as_ref(), GradientScheme::Iad, &active);
        for i in interior(&sys, 0.3) {
            assert!(sys.div_v[i].abs() < 1e-9, "div {} at {i}", sys.div_v[i]);
            assert!((sys.curl_v[i] - 2.0 * omega).abs() < 1e-8, "curl {} at {i}", sys.curl_v[i]);
        }
    }

    #[test]
    fn uniform_expansion_has_divergence_three() {
        // v = r ⇒ ∇·v = 3, ∇×v = 0.
        let cfg = SphConfig {
            gradients: GradientScheme::Iad,
            target_neighbors: 60,
            ..Default::default()
        };
        let mut sys = jittered_system(10, 0.15, 4);
        for i in 0..sys.len() {
            sys.v[i] = sys.x[i] - Vec3::splat(0.5);
        }
        let lists = prepare(&mut sys, &cfg);
        let kernel = cfg.kernel.build();
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        compute_velocity_gradients(&mut sys, &lists, kernel.as_ref(), GradientScheme::Iad, &active);
        for i in interior(&sys, 0.3) {
            assert!((sys.div_v[i] - 3.0).abs() < 1e-9, "div {} at {i}", sys.div_v[i]);
            assert!(sys.curl_v[i].abs() < 1e-9, "curl {} at {i}", sys.curl_v[i]);
        }
    }

    /// Gather lists of all particles, queried with a shorter `active`:
    /// row `k` would be read as the row of `active[k]`.
    fn lists_longer_than_active() -> (ParticleSystem, NeighborLists, Vec<u32>) {
        let cfg = SphConfig { target_neighbors: 40, ..Default::default() };
        let mut sys = jittered_system(6, 0.1, 5);
        let lists = prepare(&mut sys, &cfg);
        (sys, lists, vec![3, 9, 27])
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn velocity_gradients_reject_lists_that_do_not_match_active() {
        let (mut sys, lists, active) = lists_longer_than_active();
        let kernel = SphConfig::default().kernel.build();
        let scheme = GradientScheme::KernelDerivative;
        compute_velocity_gradients(&mut sys, &lists, kernel.as_ref(), scheme, &active);
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn scalar_gradient_rejects_lists_that_do_not_match_active() {
        let (sys, lists, active) = lists_longer_than_active();
        let kernel = SphConfig::default().kernel.build();
        let scheme = GradientScheme::KernelDerivative;
        scalar_gradient(&sys, &lists, kernel.as_ref(), scheme, &active, &sys.u);
    }

    #[test]
    fn singular_iad_falls_back_to_kernel_derivative() {
        // Two coincident-line particles: τ is rank-1, inverse fails, and the
        // effective gradient must equal the analytic one.
        let kernel = crate::config::SphConfig::default().kernel.build();
        let c = Mat3::ZERO; // the singular marker
        let d = Vec3::new(0.3, 0.0, 0.0);
        let g_iad = effective_gradient(GradientScheme::Iad, kernel.as_ref(), &c, d, d.norm(), 0.5);
        let g_kd = effective_gradient(
            GradientScheme::KernelDerivative,
            kernel.as_ref(),
            &c,
            d,
            d.norm(),
            0.5,
        );
        assert_eq!(g_iad, g_kd);
    }
}
