//! Structure-of-arrays particle storage.
//!
//! SPH is bandwidth-bound; SoA keeps each per-particle field contiguous so
//! the density/force loops stream through memory and auto-vectorise (see
//! the domain guides on data layout). The layout also makes checkpointing
//! (`sph-ft`) and halo packing (`sph-exa`'s rank views) simple slice copies.

use sph_math::{Aabb, Mat3, Periodicity, Vec3};

/// All per-particle state of a simulation.
#[derive(Debug, Clone)]
pub struct ParticleSystem {
    /// Positions.
    pub x: Vec<Vec3>,
    /// Velocities.
    pub v: Vec<Vec3>,
    /// Masses (Table 1 "Mass of Particles": equal or variable — both are
    /// just values here).
    pub m: Vec<f64>,
    /// Smoothing lengths.
    pub h: Vec<f64>,
    /// Densities.
    pub rho: Vec<f64>,
    /// Specific internal energies.
    pub u: Vec<f64>,
    /// Pressures (EOS output).
    pub p: Vec<f64>,
    /// Sound speeds (EOS output).
    pub cs: Vec<f64>,
    /// Accelerations (hydro + gravity).
    pub a: Vec<Vec3>,
    /// Rates of change of internal energy.
    pub du_dt: Vec<f64>,
    /// Grad-h correction terms Ω.
    pub omega: Vec<f64>,
    /// Volume elements V.
    pub vol: Vec<f64>,
    /// Velocity divergence (for the Balsara switch and diagnostics).
    pub div_v: Vec<f64>,
    /// Velocity curl magnitude (Balsara switch).
    pub curl_v: Vec<f64>,
    /// IAD inverse shape matrices C (valid when gradients == Iad).
    pub c_iad: Vec<Mat3>,
    /// Individual-time-step rung (0 = largest step).
    pub rung: Vec<u8>,
    /// Boundary metric for neighbour search and displacements.
    pub periodicity: Periodicity,
    /// Current simulation time.
    pub time: f64,
    /// Completed step count.
    pub step_count: u64,
}

/// Every per-particle array with its zero value, handed to the macro
/// `$apply` — the one field list the per-field loops of `subset`,
/// `scatter_from` and `resize_zeroed` expand over.
macro_rules! soa_fields {
    ($apply:ident) => {
        $apply! {
            x: Vec3::ZERO, v: Vec3::ZERO, m: 0.0, h: 0.0, rho: 0.0, u: 0.0, p: 0.0, cs: 0.0,
            a: Vec3::ZERO, du_dt: 0.0, omega: 0.0, vol: 0.0, div_v: 0.0, curl_v: 0.0,
            c_iad: Mat3::ZERO, rung: 0
        }
    };
}

impl ParticleSystem {
    /// Create a system from positions, velocities, masses, internal
    /// energies and an initial smoothing length guess.
    pub fn new(
        x: Vec<Vec3>,
        v: Vec<Vec3>,
        m: Vec<f64>,
        u: Vec<f64>,
        h0: f64,
        periodicity: Periodicity,
    ) -> Self {
        let n = x.len();
        assert!(n > 0, "empty particle system");
        assert_eq!(v.len(), n);
        assert_eq!(m.len(), n);
        assert_eq!(u.len(), n);
        assert!(h0 > 0.0 && h0.is_finite());
        assert!(m.iter().all(|&mi| mi > 0.0), "non-positive particle mass");
        ParticleSystem {
            x,
            v,
            m,
            h: vec![h0; n],
            rho: vec![0.0; n],
            u,
            p: vec![0.0; n],
            cs: vec![0.0; n],
            a: vec![Vec3::ZERO; n],
            du_dt: vec![0.0; n],
            omega: vec![1.0; n],
            vol: vec![0.0; n],
            div_v: vec![0.0; n],
            curl_v: vec![0.0; n],
            c_iad: vec![Mat3::ZERO; n],
            rung: vec![0; n],
            periodicity,
            time: 0.0,
            step_count: 0,
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Tight bounding box of current positions.
    ///
    /// # Panics
    ///
    /// Panics on an empty system — there is no meaningful box to return.
    #[expect(
        clippy::expect_used,
        reason = "documented contract: every driver rejects empty systems at build time, and a \
                  Result here would thread an unreachable error arm through all the kernel passes"
    )]
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(self.x.iter()).expect("non-empty system")
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        sph_math::kahan_sum(&self.m)
    }

    /// Largest smoothing length (the distributed driver's halo is 2·h_max·HALO_MARGIN).
    pub fn max_h(&self) -> f64 {
        self.h.iter().cloned().fold(0.0, f64::max)
    }

    /// Extract the subset of particles with the given indices — the
    /// building block of domain decomposition (each rank owns a subset).
    pub fn subset(&self, indices: &[u32]) -> ParticleSystem {
        macro_rules! pick {
            ($($field:ident: $zero:expr),*) => {
                ParticleSystem {
                    $($field: indices.iter().map(|&i| self.$field[i as usize]).collect(),)*
                    periodicity: self.periodicity,
                    time: self.time,
                    step_count: self.step_count,
                }
            };
        }
        soa_fields!(pick)
    }

    /// The inverse of [`ParticleSystem::subset`]: overwrite particle
    /// `ids[k]` of `self` with particle `k` of `src`, every field.
    pub fn scatter_from(&mut self, ids: &[u32], src: &ParticleSystem) {
        assert_eq!(ids.len(), src.len(), "one target id per source particle");
        macro_rules! scatter {
            ($($field:ident: $zero:expr),*) => {
                $(for (k, &i) in ids.iter().enumerate() {
                    self.$field[i as usize] = src.$field[k];
                })*
            };
        }
        soa_fields!(scatter);
    }

    /// Resize every field to `n` particles, zero-filling new ones — the
    /// blank a reassembly [`ParticleSystem::scatter_from`]s into.
    pub fn resize_zeroed(&mut self, n: usize) {
        macro_rules! resize {
            ($($field:ident: $zero:expr),*) => {
                $(self.$field.resize(n, $zero);)*
            };
        }
        soa_fields!(resize);
    }

    /// Verify basic physical sanity; returns the first violation found.
    /// This is also one of the `sph-ft` silent-data-corruption detectors.
    pub fn sanity_check(&self) -> Result<(), String> {
        for (i, p) in self.x.iter().enumerate() {
            if !p.is_finite() {
                return Err(format!("particle {i}: non-finite position {p:?}"));
            }
        }
        for (i, v) in self.v.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("particle {i}: non-finite velocity {v:?}"));
            }
        }
        for (i, &m) in self.m.iter().enumerate() {
            if m <= 0.0 || !m.is_finite() {
                return Err(format!("particle {i}: bad mass {m}"));
            }
        }
        for (i, &h) in self.h.iter().enumerate() {
            if h <= 0.0 || !h.is_finite() {
                return Err(format!("particle {i}: bad smoothing length {h}"));
            }
        }
        for (i, &u) in self.u.iter().enumerate() {
            if u < 0.0 || !u.is_finite() {
                return Err(format!("particle {i}: bad internal energy {u}"));
            }
        }
        for (i, &rho) in self.rho.iter().enumerate() {
            if rho < 0.0 || !rho.is_finite() {
                return Err(format!("particle {i}: bad density {rho}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_system() -> ParticleSystem {
        let x = vec![Vec3::ZERO, Vec3::X, Vec3::Y];
        let v = vec![Vec3::ZERO; 3];
        let m = vec![1.0, 2.0, 3.0];
        let u = vec![0.5; 3];
        ParticleSystem::new(x, v, m, u, 0.1, Periodicity::open(Aabb::unit()))
    }

    #[test]
    fn construction() {
        let s = tiny_system();
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_mass(), 6.0);
        assert_eq!(s.max_h(), 0.1);
        assert_eq!(s.time, 0.0);
        assert!(s.sanity_check().is_ok());
    }

    #[test]
    #[should_panic]
    fn rejects_negative_mass() {
        let _ = ParticleSystem::new(
            vec![Vec3::ZERO],
            vec![Vec3::ZERO],
            vec![-1.0],
            vec![0.0],
            0.1,
            Periodicity::open(Aabb::unit()),
        );
    }

    #[test]
    #[should_panic]
    fn rejects_length_mismatch() {
        let _ = ParticleSystem::new(
            vec![Vec3::ZERO, Vec3::X],
            vec![Vec3::ZERO],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            0.1,
            Periodicity::open(Aabb::unit()),
        );
    }

    #[test]
    fn bounds_are_tight() {
        let s = tiny_system();
        let b = s.bounds();
        assert_eq!(b.lo, Vec3::ZERO);
        assert_eq!(b.hi, Vec3::new(1.0, 1.0, 0.0));
    }

    #[test]
    fn subset_picks_rows() {
        let mut s = tiny_system();
        s.rho = vec![1.0, 2.0, 3.0];
        let sub = s.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.m, vec![3.0, 1.0]);
        assert_eq!(sub.rho, vec![3.0, 1.0]);
        assert_eq!(sub.x[0], Vec3::Y);
    }

    #[test]
    fn sanity_check_catches_nan() {
        let mut s = tiny_system();
        s.x[1].y = f64::NAN;
        assert!(s.sanity_check().is_err());
        let mut s = tiny_system();
        s.u[0] = -1.0;
        assert!(s.sanity_check().is_err());
        let mut s = tiny_system();
        s.h[2] = 0.0;
        assert!(s.sanity_check().is_err());
    }
}
