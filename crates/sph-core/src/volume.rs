//! Volume elements: standard and generalized (Table 1, "Volume Elements").
//!
//! ChaNGa and SPH-flow use the standard `V_i = m_i/ρ_i`. SPHYNX uses
//! *generalized* volume elements (Cabezón, García-Senz & Figueira 2017):
//! an estimator `X_i = (m_i/ρ_i)^p` defines a partition of unity
//! `κ_i = Σ_j X_j W_ij(h_i)` and the volume `V_i = X_i / κ_i`; the density
//! is then *re-derived* from the volume as `ρ_i = m_i / V_i`. For `p = 0`
//! this reduces to the inverse number density, and the scheme reduces
//! kernel-support errors at density discontinuities.

use crate::config::{SphConfig, VolumeElements};
use crate::density::NeighborLists;
use crate::lanes::{PairKernel, TargetLanes, LANES};
use crate::particles::ParticleSystem;
use rayon::prelude::*;
use sph_kernels::Kernel;
use sph_math::REDUCE_CHUNK;

/// Compute volume elements for the active particles, and — for the
/// generalized scheme — update their densities to `m/V`.
///
/// Requires `sys.rho` from the standard density sum (the estimator `X`
/// uses it). `lists` must be the neighbour lists produced for `active`.
pub fn compute_volume_elements(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
) {
    assert_eq!(lists.query_count(), active.len());
    match cfg.volume_elements {
        VolumeElements::Standard => {
            for &ai in active {
                let i = ai as usize;
                debug_assert!(sys.rho[i] > 0.0, "volume elements need density first");
                sys.vol[i] = sys.m[i] / sys.rho[i];
            }
        }
        VolumeElements::Generalized { p } => {
            // X from the *pre-update* density for every particle (neighbour
            // X values are needed, so evaluate globally — cheap, O(n)).
            // Pre-sized: one deliberate allocation, no grow cycle.
            let mut x_est: Vec<f64> = Vec::with_capacity(sys.m.len());
            x_est.extend(sys.m.iter().zip(&sys.rho).map(|(&m, &rho)| {
                if rho > 0.0 {
                    (m / rho).powf(p)
                } else {
                    1.0
                }
            }));
            let chunks: Vec<Vec<f64>> = active
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
                            let mut kappa = 0.0;
                            for ids in lists.neighbors(k).chunks(LANES) {
                                lanes.lane_phase(ids);
                                for (&j, &w) in ids.iter().zip(&lanes.s) {
                                    // FROZEN sum: the volume-element normalisation in
                                    // sorted-neighbour order is part of the
                                    // bit-identity contract.
                                    kappa += x_est[j as usize] * w;
                                }
                            }
                            if kappa > 0.0 {
                                x_est[i] / kappa
                            } else {
                                sys.m[i] / sys.rho[i].max(1e-300)
                            }
                        })
                        .collect()
                })
                .collect();
            for (&ai, v) in active.iter().zip(chunks.into_iter().flatten()) {
                let i = ai as usize;
                sys.vol[i] = v;
                sys.rho[i] = sys.m[i] / v;
            }
        }
    }
}

/// The one-pair-at-a-time [`compute_volume_elements`] the lane-batched pass replaced,
/// kept verbatim as its oracle.
#[cfg(test)]
pub(crate) fn compute_volume_elements_reference(
    sys: &mut ParticleSystem,
    lists: &NeighborLists,
    kernel: &dyn Kernel,
    cfg: &SphConfig,
    active: &[u32],
) {
    assert_eq!(lists.query_count(), active.len());
    match cfg.volume_elements {
        VolumeElements::Standard => {
            for &ai in active {
                let i = ai as usize;
                debug_assert!(sys.rho[i] > 0.0, "volume elements need density first");
                sys.vol[i] = sys.m[i] / sys.rho[i];
            }
        }
        VolumeElements::Generalized { p } => {
            // X from the *pre-update* density for every particle (neighbour
            // X values are needed, so evaluate globally — cheap, O(n)).
            // Pre-sized: one deliberate allocation, no grow cycle.
            let mut x_est: Vec<f64> = Vec::with_capacity(sys.m.len());
            x_est.extend(sys.m.iter().zip(&sys.rho).map(|(&m, &rho)| {
                if rho > 0.0 {
                    (m / rho).powf(p)
                } else {
                    1.0
                }
            }));
            let chunks: Vec<Vec<f64>> = active
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
                            let mut kappa = 0.0;
                            for &j in lists.neighbors(k) {
                                let j = j as usize;
                                let r = sys.periodicity.distance(xi, sys.x[j]);
                                kappa += x_est[j] * kernel.w(r, h);
                            }
                            if kappa > 0.0 {
                                x_est[i] / kappa
                            } else {
                                sys.m[i] / sys.rho[i].max(1e-300)
                            }
                        })
                        .collect()
                })
                .collect();
            for (&ai, v) in active.iter().zip(chunks.into_iter().flatten()) {
                let i = ai as usize;
                sys.vol[i] = v;
                sys.rho[i] = sys.m[i] / v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SphConfig;
    use crate::density::compute_density;
    use sph_kernels::SUPPORT_RADIUS;
    use sph_math::{Aabb, Periodicity, Vec3};
    use sph_tree::CellGrid;

    fn lattice(n: usize) -> ParticleSystem {
        let spacing = 1.0 / n as f64;
        let mut x = Vec::new();
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

    fn run(cfg: &SphConfig, sys: &mut ParticleSystem) {
        let grid = CellGrid::build(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
        let kernel = cfg.kernel.build();
        let active: Vec<u32> = (0..sys.len() as u32).collect();
        let (lists, _) = compute_density(sys, &grid, kernel.as_ref(), cfg, &active);
        compute_volume_elements(sys, &lists, kernel.as_ref(), cfg, &active);
    }

    #[test]
    fn standard_volume_is_mass_over_density() {
        let mut sys = lattice(8);
        let cfg = SphConfig { target_neighbors: 50, ..Default::default() };
        run(&cfg, &mut sys);
        for i in 0..sys.len() {
            assert!((sys.vol[i] - sys.m[i] / sys.rho[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn generalized_volumes_tile_the_bulk() {
        // In a uniform lattice the generalized volumes must equal the cell
        // volume (1/n³ each) in the interior — the partition-of-unity
        // property.
        let n = 10;
        let mut sys = lattice(n);
        let cfg = SphConfig {
            volume_elements: VolumeElements::Generalized { p: 0.7 },
            target_neighbors: 60,
            ..Default::default()
        };
        run(&cfg, &mut sys);
        let cell = 1.0 / (n * n * n) as f64;
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
                    (sys.vol[i] - cell).abs() < 0.05 * cell,
                    "V = {} vs cell {cell}",
                    sys.vol[i]
                );
            }
        }
    }

    #[test]
    fn generalized_density_consistent_with_volume() {
        let mut sys = lattice(8);
        let cfg = SphConfig {
            volume_elements: VolumeElements::Generalized { p: 0.5 },
            target_neighbors: 50,
            ..Default::default()
        };
        run(&cfg, &mut sys);
        for i in 0..sys.len() {
            assert!((sys.rho[i] - sys.m[i] / sys.vol[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn p_zero_gives_number_density_volumes() {
        // With p = 0 every X_i = 1 and V_i = 1/Σ_j W_ij, independent of
        // mass; verify by giving particles wildly different masses and
        // checking volumes stay equal on the uniform lattice interior.
        let n = 10;
        let mut sys = lattice(n);
        for i in 0..sys.len() {
            sys.m[i] = if i % 2 == 0 { 1e-3 } else { 2e-3 };
        }
        let cfg = SphConfig {
            volume_elements: VolumeElements::Generalized { p: 0.0 },
            target_neighbors: 60,
            ..Default::default()
        };
        run(&cfg, &mut sys);
        let ids: Vec<usize> = (0..sys.len())
            .filter(|&i| {
                let p = sys.x[i];
                p.x > 0.3 && p.x < 0.7 && p.y > 0.3 && p.y < 0.7 && p.z > 0.3 && p.z < 0.7
            })
            .collect();
        let v0 = sys.vol[ids[0]];
        for &i in &ids {
            assert!(
                (sys.vol[i] - v0).abs() < 0.05 * v0,
                "p=0 volumes should ignore mass: {} vs {v0}",
                sys.vol[i]
            );
        }
    }
}
