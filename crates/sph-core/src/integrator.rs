//! Time integrators (Algorithm 1, step 6 "Update velocity and position").
//!
//! The drift/kick primitives are split out so the step drivers in
//! `sph-exa` can compose them: a plain Euler step for smoke tests and the
//! kick–drift–kick (KDK) leapfrog used for production runs (second order,
//! symplectic for separable Hamiltonians — the standard choice of the
//! parent codes).

use crate::particles::ParticleSystem;
use sph_math::Vec3;

/// Kick: `v += a·dt`, `u += u̇·dt` for the given particles.
/// Internal energy is floored at zero (artificial viscosity can slightly
/// overcool cold flows in finite precision).
pub fn kick(sys: &mut ParticleSystem, dt: f64, active: &[u32]) {
    for &ai in active {
        let i = ai as usize;
        sys.v[i] += sys.a[i] * dt;
        sys.u[i] = (sys.u[i] + sys.du_dt[i] * dt).max(0.0);
    }
}

/// Drift: `x += v·dt` for **all** particles, wrapping periodic axes.
pub fn drift(sys: &mut ParticleSystem, dt: f64) {
    let per = sys.periodicity;
    for i in 0..sys.len() {
        sys.x[i] = per.wrap(sys.x[i] + sys.v[i] * dt);
    }
}

/// Double (ping-pong) position/velocity buffers for the drivers' update
/// phase: the fused half-kick + drift streams the old `x`/`v` and writes
/// the new values into the back buffers, which are then swapped in O(1).
/// The state arrays are never read-modified in place, so the update is a
/// pure gather → scatter pass (the layout a GPU port needs), while the
/// per-particle arithmetic stays exactly `kick` followed by `drift` —
/// trajectories are bit-identical to the unfused primitives.
#[derive(Debug, Default)]
pub struct PingPongBuffers {
    x_back: Vec<Vec3>,
    v_back: Vec<Vec3>,
}

impl PingPongBuffers {
    pub fn new(n: usize) -> Self {
        PingPongBuffers { x_back: vec![Vec3::ZERO; n], v_back: vec![Vec3::ZERO; n] }
    }

    /// Match the buffer length to the system (cheap when unchanged).
    pub(crate) fn resize(&mut self, n: usize) {
        self.x_back.resize(n, Vec3::ZERO);
        self.v_back.resize(n, Vec3::ZERO);
    }
}

/// Fused first half of the KDK leapfrog over **all** particles: half-kick
/// `v ← v + a·dt_kick`, `u ← max(0, u + u̇·dt_kick)`, then drift
/// `x ← wrap(x + v·dt_drift)` — new `x`/`v` written to the back buffers
/// and swapped in. Identical arithmetic, element by element, to
/// `kick(sys, dt_kick, all)` followed by `drift(sys, dt_drift)`.
pub fn kick_drift(
    sys: &mut ParticleSystem,
    buf: &mut PingPongBuffers,
    dt_kick: f64,
    dt_drift: f64,
) {
    let n = sys.len();
    buf.resize(n);
    let per = sys.periodicity;
    for i in 0..n {
        let v_new = sys.v[i] + sys.a[i] * dt_kick;
        buf.v_back[i] = v_new;
        buf.x_back[i] = per.wrap(sys.x[i] + v_new * dt_drift);
        sys.u[i] = (sys.u[i] + sys.du_dt[i] * dt_kick).max(0.0);
    }
    std::mem::swap(&mut sys.v, &mut buf.v_back);
    std::mem::swap(&mut sys.x, &mut buf.x_back);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::{Aabb, Periodicity, Vec3};

    fn two_body() -> ParticleSystem {
        ParticleSystem::new(
            vec![Vec3::splat(0.25), Vec3::splat(0.75)],
            vec![Vec3::X, -Vec3::X],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            0.1,
            Periodicity::open(Aabb::unit()),
        )
    }

    #[test]
    fn kick_updates_velocity_and_energy() {
        let mut sys = two_body();
        sys.a[0] = Vec3::Y * 2.0;
        sys.du_dt[0] = 3.0;
        kick(&mut sys, 0.5, &[0]);
        assert_eq!(sys.v[0], Vec3::new(1.0, 1.0, 0.0));
        assert_eq!(sys.u[0], 2.5);
        // Particle 1 untouched.
        assert_eq!(sys.v[1], -Vec3::X);
    }

    #[test]
    fn kick_floors_internal_energy() {
        let mut sys = two_body();
        sys.du_dt[0] = -100.0;
        kick(&mut sys, 1.0, &[0]);
        assert_eq!(sys.u[0], 0.0);
    }

    #[test]
    fn drift_moves_everyone() {
        let mut sys = two_body();
        drift(&mut sys, 0.1);
        assert!((sys.x[0].x - 0.35).abs() < 1e-15);
        assert!((sys.x[1].x - 0.65).abs() < 1e-15);
    }

    #[test]
    fn drift_wraps_periodic_axes() {
        let mut sys = two_body();
        sys.periodicity = Periodicity::periodic_z(Aabb::unit());
        sys.v[0] = Vec3::Z * 10.0;
        drift(&mut sys, 0.1); // z: 0.25 + 1.0 → wraps to 0.25
        assert!((sys.x[0].z - 0.25).abs() < 1e-12);
    }

    #[test]
    fn kick_drift_is_bit_identical_to_kick_then_drift() {
        let mut a = two_body();
        a.periodicity = Periodicity::periodic_z(Aabb::unit());
        a.a[0] = Vec3::new(0.3, -0.7, 11.0); // big z kick to force a wrap
        a.a[1] = Vec3::new(-0.2, 0.4, 0.1);
        a.du_dt[0] = 2.5;
        a.du_dt[1] = -100.0; // exercises the energy floor
        let mut b = a.clone();

        let all: Vec<u32> = vec![0, 1];
        kick(&mut a, 0.05, &all);
        drift(&mut a, 0.1);

        let mut buf = PingPongBuffers::new(b.len());
        kick_drift(&mut b, &mut buf, 0.05, 0.1);

        for i in 0..2 {
            assert_eq!(a.x[i], b.x[i], "x differs at {i}");
            assert_eq!(a.v[i], b.v[i], "v differs at {i}");
            assert_eq!(a.u[i], b.u[i], "u differs at {i}");
        }
    }

    #[test]
    fn ping_pong_buffers_track_system_size() {
        let mut buf = PingPongBuffers::default();
        let mut sys = two_body();
        kick_drift(&mut sys, &mut buf, 0.1, 0.1); // resizes 0 → 2 internally
        assert!(sys.sanity_check().is_ok());
    }
}
