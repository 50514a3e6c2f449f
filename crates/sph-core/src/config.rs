//! Mini-app configuration: the knobs of Tables 1 and 2.
//!
//! Each parent code in Table 1 is one point in this configuration space;
//! `sph_scenarios::parents` instantiates them. The mini-app exposes the
//! whole space, which is precisely what Table 2 ("Outlook on the scientific
//! characteristics of the future SPH-EXA mini-app") prescribes.

use sph_kernels::KernelKind;

/// How spatial gradients entering the momentum/energy equations are
/// estimated (Table 1, "Gradients Calculation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradientScheme {
    /// Plain analytic kernel derivatives (ChaNGa, SPH-flow).
    KernelDerivative,
    /// Integral Approach to Derivatives (García-Senz et al. 2012; SPHYNX).
    /// Exact for linear fields regardless of particle disorder; costs one
    /// 3×3 inverse per particle and one extra neighbour loop.
    Iad,
}

/// Volume-element definition (Table 1, "Volume Elements").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VolumeElements {
    /// `V_i = m_i / ρ_i` (ChaNGa, SPH-flow).
    Standard,
    /// Generalized volume elements (SPHYNX, Cabezón et al. 2017):
    /// `V_i = X_i / κ_i`, `κ_i = Σ_j X_j W_ij`, with estimator
    /// `X_i = (m_i/ρ_i)^p`; `p = 0` recovers `X = 1` (number density),
    /// larger `p` weights mass-loaded regions.
    Generalized {
        /// Estimator exponent `p` (SPHYNX default 0.7).
        p: f64,
    },
}

/// Time-stepping policy (Table 1, "Time-Stepping").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeStepping {
    /// One global Δt = min over particles (SPHYNX, SPH-flow).
    Global,
    /// Individual power-of-two block time-steps (ChaNGa): particles are
    /// binned onto rungs `Δt_max / 2^r`, only active rungs compute forces.
    Individual {
        /// Maximum number of rungs below the top level.
        max_rungs: u8,
    },
    /// Adaptive global step: recomputed each step from the CFL *and*
    /// acceleration criteria with a growth limiter (SPH-flow).
    Adaptive {
        /// Max fractional growth per step (e.g. 1.1 = +10 %).
        growth_limit: f64,
    },
}

/// Artificial-viscosity parameters (Monaghan 1992 + Balsara 1995 switch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViscosityConfig {
    /// Linear (bulk) coefficient α.
    pub alpha: f64,
    /// Quadratic (von Neumann–Richtmyer) coefficient β.
    pub beta: f64,
    /// Softening of the pair viscosity denominator, in units of h̄².
    pub eta2: f64,
    /// Apply the Balsara shear-flow limiter.
    pub balsara: bool,
}

impl Default for ViscosityConfig {
    fn default() -> Self {
        ViscosityConfig { alpha: 1.0, beta: 2.0, eta2: 0.01, balsara: false }
    }
}

/// Full SPH configuration.
#[derive(Debug, Clone, Copy)]
pub struct SphConfig {
    /// Interpolation kernel.
    pub kernel: KernelKind,
    /// Gradient estimator.
    pub gradients: GradientScheme,
    /// Volume-element scheme.
    pub volume_elements: VolumeElements,
    /// Time-stepping policy.
    pub time_stepping: TimeStepping,
    /// Target neighbour count for the smoothing-length iteration
    /// (the paper quotes ~10² neighbours per particle in 3-D).
    pub target_neighbors: usize,
    /// Relative tolerance on the neighbour count before the h iteration
    /// stops (e.g. 0.05 = ±5 %).
    pub neighbor_tolerance: f64,
    /// Maximum h iterations per particle per step.
    pub max_h_iterations: usize,
    /// Adiabatic index γ of the ideal-gas EOS.
    pub gamma: f64,
    /// Artificial viscosity.
    pub viscosity: ViscosityConfig,
    /// CFL safety factor for the signal-velocity time-step criterion.
    pub cfl: f64,
    /// Use grad-h (Ω) correction terms.
    pub grad_h: bool,
}

impl Default for SphConfig {
    fn default() -> Self {
        SphConfig {
            kernel: KernelKind::CubicSplineM4,
            gradients: GradientScheme::KernelDerivative,
            volume_elements: VolumeElements::Standard,
            time_stepping: TimeStepping::Global,
            target_neighbors: 100,
            neighbor_tolerance: 0.05,
            max_h_iterations: 10,
            gamma: 5.0 / 3.0,
            viscosity: ViscosityConfig::default(),
            cfl: 0.3,
            grad_h: true,
        }
    }
}

impl SphConfig {
    /// Sanity-check the configuration; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.target_neighbors < 4 {
            return Err(format!(
                "target_neighbors {} too small for 3-D SPH",
                self.target_neighbors
            ));
        }
        // Up to γ = 7: the stiff Tait-like exponent weakly-compressible
        // CFD codes (SPH-flow) use for water analogues.
        if self.gamma <= 1.0 || self.gamma > 7.0 {
            return Err(format!("gamma {} outside the supported range (1, 7]", self.gamma));
        }
        if self.cfl <= 0.0 || self.cfl > 1.0 {
            return Err(format!("CFL factor {} must be in (0, 1]", self.cfl));
        }
        if self.neighbor_tolerance <= 0.0 {
            return Err("neighbor_tolerance must be positive".into());
        }
        if let VolumeElements::Generalized { p } = self.volume_elements {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("generalized VE exponent {p} must be in [0, 1]"));
            }
        }
        if let TimeStepping::Individual { max_rungs } = self.time_stepping {
            if max_rungs == 0 || max_rungs > 16 {
                return Err(format!("max_rungs {max_rungs} must be in [1, 16]"));
            }
        }
        if let TimeStepping::Adaptive { growth_limit } = self.time_stepping {
            if growth_limit <= 1.0 {
                return Err(format!("growth_limit {growth_limit} must exceed 1"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SphConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_gamma() {
        let cfg = SphConfig { gamma: 0.5, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_cfl() {
        let cfg = SphConfig { cfl: 0.0, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg = SphConfig { cfl: 1.5, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_ve_exponent() {
        let cfg = SphConfig {
            volume_elements: VolumeElements::Generalized { p: 1.5 },
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_rungs() {
        let cfg = SphConfig {
            time_stepping: TimeStepping::Individual { max_rungs: 0 },
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_tiny_neighbor_target() {
        let cfg = SphConfig { target_neighbors: 2, ..Default::default() };
        assert!(cfg.validate().is_err());
    }
}
