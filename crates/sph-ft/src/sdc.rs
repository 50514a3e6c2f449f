//! Silent-data-corruption (SDC) injection and detection — Table 4's
//! "Error Detection: Silent data corruption detectors", after the paper's
//! refs \[6, 44\] (DRAM error field studies) and \[7\] (resilience patterns
//! for silent errors).
//!
//! Three complementary detectors, ordered by cost and reach:
//!
//! 1. **Checksum** — bit-exact FNV over the state between known-good
//!    points; catches everything but says nothing about *where*;
//! 2. **Physics bounds** — NaN/negative-mass/negative-energy screening
//!    (free, catches gross corruption immediately);
//! 3. **Conservation drift** — total energy/momentum moving beyond the
//!    integrator's expected tolerance flags subtle numeric corruption.

use crate::codec::state_checksum;
use sph_core::diagnostics::Conservation;
use sph_core::particles::ParticleSystem;
use sph_math::SplitMix64;
use std::fmt;

/// A detector's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Clean,
    Corrupted(String),
}

impl Verdict {
    pub fn is_corrupted(&self) -> bool {
        matches!(self, Verdict::Corrupted(_))
    }
}

/// Common detector interface.
pub trait SdcDetector {
    fn name(&self) -> &'static str;
    /// Inspect the system, returning a verdict.
    fn check(&mut self, sys: &ParticleSystem) -> Verdict;
}

/// Bit-exact checksum detector: remembers the checksum at `arm()` and
/// reports corruption if the state changed while it was not supposed to.
#[derive(Debug, Default)]
pub struct ChecksumDetector {
    armed: Option<u64>,
}

impl ChecksumDetector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the current state as known-good.
    pub fn arm(&mut self, sys: &ParticleSystem) {
        self.armed = Some(state_checksum(sys));
    }
}

impl SdcDetector for ChecksumDetector {
    fn name(&self) -> &'static str {
        "checksum"
    }

    fn check(&mut self, sys: &ParticleSystem) -> Verdict {
        match self.armed {
            None => Verdict::Clean, // not armed: nothing to compare
            Some(reference) => {
                if state_checksum(sys) == reference {
                    Verdict::Clean
                } else {
                    Verdict::Corrupted("state checksum changed".into())
                }
            }
        }
    }
}

/// Physics-bounds detector: wraps `ParticleSystem::sanity_check`.
#[derive(Debug, Default)]
pub struct PhysicsBoundsDetector;

impl SdcDetector for PhysicsBoundsDetector {
    fn name(&self) -> &'static str {
        "physics-bounds"
    }

    fn check(&mut self, sys: &ParticleSystem) -> Verdict {
        match sys.sanity_check() {
            Ok(()) => Verdict::Clean,
            Err(e) => Verdict::Corrupted(e),
        }
    }
}

/// Conservation-drift detector: flags when total energy or momentum move
/// beyond `tolerance` (relative) from the armed reference.
#[derive(Debug)]
pub struct ConservationDetector {
    reference: Option<Conservation>,
    momentum_scale: f64,
    pub tolerance: f64,
}

impl ConservationDetector {
    pub fn new(tolerance: f64) -> Self {
        assert!(tolerance > 0.0);
        ConservationDetector { reference: None, momentum_scale: 0.0, tolerance }
    }

    pub fn arm(&mut self, sys: &ParticleSystem) {
        self.reference = Some(Conservation::measure(sys, None));
        self.momentum_scale = sph_core::diagnostics::momentum_scale(sys).max(1e-300);
    }
}

impl SdcDetector for ConservationDetector {
    fn name(&self) -> &'static str {
        "conservation-drift"
    }

    fn check(&mut self, sys: &ParticleSystem) -> Verdict {
        let Some(reference) = &self.reference else {
            return Verdict::Clean;
        };
        let now = Conservation::measure(sys, None);
        let e_drift = now.energy_drift(reference);
        if e_drift > self.tolerance {
            return Verdict::Corrupted(format!("energy drift {e_drift:.3e}"));
        }
        let p_drift = now.momentum_drift(reference, self.momentum_scale);
        if p_drift > self.tolerance {
            return Verdict::Corrupted(format!("momentum drift {p_drift:.3e}"));
        }
        Verdict::Clean
    }
}

/// Which particle field an injected fault landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultField {
    Position,
    Velocity,
    Mass,
    InternalEnergy,
    SmoothingLength,
}

impl FaultField {
    /// The field's short name as it appears in `ParticleSystem` (`x`,
    /// `v`, `m`, `u`, `h`).
    pub(crate) fn symbol(&self) -> &'static str {
        match self {
            FaultField::Position => "x",
            FaultField::Velocity => "v",
            FaultField::Mass => "m",
            FaultField::InternalEnergy => "u",
            FaultField::SmoothingLength => "h",
        }
    }
}

/// A structured record of one injected bit flip — enough for a chaos
/// suite to assert that a detector caught *this* fault (and to undo or
/// re-apply it exactly), where a prose description could only show that
/// *some* fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Index of the particle hit (global index of the system injected into).
    pub particle: usize,
    /// Field the flip landed in.
    pub field: FaultField,
    /// Vector component for `Position`/`Velocity` (0..3); 0 for scalars.
    pub component: u8,
    /// Which bit of the f64 was flipped (0 = LSB of the mantissa).
    pub bit: u32,
    /// Field bits before the flip.
    pub old_bits: u64,
    /// Field bits after the flip (`old_bits ^ (1 << bit)`).
    pub new_bits: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.field {
            FaultField::Position | FaultField::Velocity => {
                write!(
                    f,
                    "{}[{}].{} bit {}",
                    self.field.symbol(),
                    self.particle,
                    self.component,
                    self.bit
                )
            }
            _ => write!(f, "{}[{}] bit {}", self.field.symbol(), self.particle, self.bit),
        }
    }
}

/// Deterministic SDC injector: flips a random bit in a random field of a
/// random particle — the "unprotected computing" threat model of ref \[6\].
#[derive(Debug)]
pub struct SdcInjector {
    rng: SplitMix64,
}

impl SdcInjector {
    pub fn new(seed: u64) -> Self {
        SdcInjector { rng: SplitMix64::new(SplitMix64::new(seed).derive("sdc-injector")) }
    }

    /// Flip one bit; returns a structured record of exactly what was hit.
    pub fn inject(&mut self, sys: &mut ParticleSystem) -> InjectedFault {
        assert!(!sys.is_empty(), "cannot inject into an empty system");
        let i = self.rng.next_below(sys.len() as u64) as usize;
        let field = self.rng.next_below(5);
        let bit = self.rng.next_below(64) as u32;
        let flip = |v: f64| f64::from_bits(v.to_bits() ^ (1u64 << bit));
        let (field, component, old) = match field {
            0 => {
                let axis = self.rng.next_below(3) as usize;
                let v = sys.x[i].component(axis);
                *sys.x[i].component_mut(axis) = flip(v);
                (FaultField::Position, axis as u8, v)
            }
            1 => {
                let axis = self.rng.next_below(3) as usize;
                let v = sys.v[i].component(axis);
                *sys.v[i].component_mut(axis) = flip(v);
                (FaultField::Velocity, axis as u8, v)
            }
            2 => {
                let v = sys.m[i];
                sys.m[i] = flip(v);
                (FaultField::Mass, 0, v)
            }
            3 => {
                let v = sys.u[i];
                sys.u[i] = flip(v);
                (FaultField::InternalEnergy, 0, v)
            }
            _ => {
                let v = sys.h[i];
                sys.h[i] = flip(v);
                (FaultField::SmoothingLength, 0, v)
            }
        };
        InjectedFault {
            particle: i,
            field,
            component,
            bit,
            old_bits: old.to_bits(),
            new_bits: flip(old).to_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::{Aabb, Periodicity, Vec3};

    fn sample() -> ParticleSystem {
        let n = 64;
        let mut rng = SplitMix64::new(5);
        let x: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(rng.next_f64(), rng.next_f64(), rng.next_f64())).collect();
        let v: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.0))
            .collect();
        ParticleSystem::new(x, v, vec![1.0; n], vec![0.5; n], 0.1, Periodicity::open(Aabb::unit()))
    }

    #[test]
    fn checksum_detector_catches_any_flip() {
        let mut sys = sample();
        let mut det = ChecksumDetector::new();
        det.arm(&sys);
        assert_eq!(det.check(&sys), Verdict::Clean);
        let mut inj = SdcInjector::new(1);
        let what = inj.inject(&mut sys);
        assert!(det.check(&sys).is_corrupted(), "missed injection at {what}");
    }

    #[test]
    fn checksum_detector_unarmed_is_silent() {
        let sys = sample();
        let mut det = ChecksumDetector::new();
        assert_eq!(det.check(&sys), Verdict::Clean);
    }

    #[test]
    fn physics_bounds_catches_gross_corruption() {
        let mut sys = sample();
        let mut det = PhysicsBoundsDetector;
        assert_eq!(det.check(&sys), Verdict::Clean);
        sys.m[3] = -1.0;
        assert!(det.check(&sys).is_corrupted());
    }

    #[test]
    fn physics_bounds_misses_subtle_corruption() {
        // A low-order mantissa flip stays physical — that is exactly why
        // checksum/conservation detectors exist.
        let mut sys = sample();
        let mut det = PhysicsBoundsDetector;
        sys.u[0] = f64::from_bits(sys.u[0].to_bits() ^ 1); // LSB flip
        assert_eq!(det.check(&sys), Verdict::Clean);
    }

    #[test]
    fn conservation_detector_sees_energy_jump() {
        let mut sys = sample();
        let mut det = ConservationDetector::new(1e-6);
        det.arm(&sys);
        assert_eq!(det.check(&sys), Verdict::Clean);
        sys.v[7].x *= 1.5; // kinetic-energy corruption
        let verdict = det.check(&sys);
        assert!(verdict.is_corrupted(), "{verdict:?}");
    }

    #[test]
    fn conservation_detector_sees_momentum_jump_at_constant_energy() {
        let mut sys = sample();
        // Symmetric pair of velocities: swap signs keeps energy, moves p.
        sys.v[0] = Vec3::new(1.0, 0.0, 0.0);
        sys.v[1] = Vec3::new(-1.0, 0.0, 0.0);
        let mut det = ConservationDetector::new(1e-6);
        det.arm(&sys);
        sys.v[1] = Vec3::new(1.0, 0.0, 0.0); // |v| unchanged ⇒ KE unchanged
        let verdict = det.check(&sys);
        assert!(verdict.is_corrupted(), "{verdict:?}");
    }

    #[test]
    fn injector_deterministic_and_varied() {
        let mut sys_a = sample();
        let mut sys_b = sample();
        let mut inj_a = SdcInjector::new(9);
        let mut inj_b = SdcInjector::new(9);
        for _ in 0..5 {
            assert_eq!(inj_a.inject(&mut sys_a), inj_b.inject(&mut sys_b));
        }
        // Different fields get hit across many injections.
        let mut inj = SdcInjector::new(10);
        let mut sys = sample();
        let kinds: std::collections::BTreeSet<&'static str> =
            (0..40).map(|_| inj.inject(&mut sys).field.symbol()).collect();
        assert!(kinds.len() >= 3, "kinds hit: {kinds:?}");
    }

    #[test]
    fn injected_fault_record_is_faithful() {
        let mut sys = sample();
        let before = sys.clone();
        let fault = SdcInjector::new(3).inject(&mut sys);
        // The record's old/new bits must match the actual state mutation.
        let read = |s: &ParticleSystem| -> u64 {
            let i = fault.particle;
            match fault.field {
                FaultField::Position => s.x[i].component(fault.component as usize).to_bits(),
                FaultField::Velocity => s.v[i].component(fault.component as usize).to_bits(),
                FaultField::Mass => s.m[i].to_bits(),
                FaultField::InternalEnergy => s.u[i].to_bits(),
                FaultField::SmoothingLength => s.h[i].to_bits(),
            }
        };
        assert_eq!(read(&before), fault.old_bits);
        assert_eq!(read(&sys), fault.new_bits);
        assert_eq!(fault.old_bits ^ fault.new_bits, 1u64 << fault.bit);
        // Display names the field and particle for human logs.
        let shown = fault.to_string();
        assert!(shown.contains(&format!("[{}]", fault.particle)), "{shown}");
        assert!(shown.contains(&format!("bit {}", fault.bit)), "{shown}");
    }
}
