//! The parent codes as physics configurations of the mini-app.
//!
//! The paper's co-design method (§4) expresses each parent code as a
//! point in the mini-app's feature space; Table 1 is the scientific half
//! of those coordinates. A [`ParentCode`] holds that half (kernel,
//! gradients, volume elements, time-stepping, self-gravity), which is all
//! a simulation needs to run as SPHYNX, ChaNGa or SPH-flow. The Table 3
//! half (decomposition, load balancing) and the calibrated cost models
//! belong to the modelled figures and live in `sph-bench`.

use sph_core::config::{GradientScheme, SphConfig, TimeStepping, ViscosityConfig, VolumeElements};
use sph_kernels::KernelKind;
use sph_tree::{GravityConfig, MultipoleOrder};

/// One parent code (or the mini-app) as a physics configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParentCode {
    pub name: &'static str,
    /// Table 1 row: the scientific configuration.
    pub sph: SphConfig,
    /// Self-gravity (None for SPH-flow — Table 1: "Self-Gravity: No").
    pub gravity: Option<GravityConfig>,
}

impl ParentCode {
    /// Does this code run the Evrard test? (Table 5: SPH-flow does not —
    /// it has no self-gravity.)
    pub fn supports_evrard(&self) -> bool {
        self.gravity.is_some()
    }
}

/// SPHYNX 1.3.1 (Cabezón et al. 2017): sinc kernels, IAD gradients,
/// generalized volume elements, global time-steps and quadrupole (4-pole)
/// gravity.
///
/// θ is this octree's opening angle, and what a θ costs in force error
/// depends on the leaf size: 0.49 with leaves of 24 keeps the median, p99
/// and max force error of the θ 0.5 with leaves of 32 it replaced within
/// 5 % (the root `tests/force_error.rs` gates it and prints the sweep).
pub fn sphynx() -> ParentCode {
    ParentCode {
        name: "SPHYNX",
        sph: SphConfig {
            kernel: KernelKind::Sinc(5),
            gradients: GradientScheme::Iad,
            volume_elements: VolumeElements::Generalized { p: 0.7 },
            time_stepping: TimeStepping::Global,
            target_neighbors: 100,
            neighbor_tolerance: 0.05,
            max_h_iterations: 10,
            gamma: 5.0 / 3.0,
            viscosity: ViscosityConfig { alpha: 1.0, beta: 2.0, eta2: 0.01, balsara: true },
            cfl: 0.3,
            grad_h: true,
        },
        gravity: Some(GravityConfig {
            g: 1.0,
            theta: 0.49,
            softening: 1e-3,
            order: MultipoleOrder::Quadrupole,
        }),
    }
}

/// ChaNGa 3.3 (Menon et al. 2015): Wendland/M4 kernels with analytic
/// derivatives, standard volume elements, **individual** (block)
/// time-steps, hexadecapole (16-pole) gravity — modelled as an octupole
/// expansion (one order below); `sph-bench` folds the remaining 16-pole
/// *cost* into ChaNGa's gravity cost constant. θ 0.62 with leaves of 24
/// keeps the force error of ChaNGa's θ 0.7 with leaves of 32 (see
/// [`sphynx`]).
pub fn changa() -> ParentCode {
    ParentCode {
        name: "ChaNGa",
        sph: SphConfig {
            kernel: KernelKind::WendlandC2,
            gradients: GradientScheme::KernelDerivative,
            volume_elements: VolumeElements::Standard,
            time_stepping: TimeStepping::Individual { max_rungs: 6 },
            target_neighbors: 64,
            neighbor_tolerance: 0.1,
            max_h_iterations: 8,
            gamma: 5.0 / 3.0,
            viscosity: ViscosityConfig { alpha: 1.0, beta: 2.0, eta2: 0.01, balsara: true },
            cfl: 0.3,
            grad_h: true,
        },
        gravity: Some(GravityConfig {
            g: 1.0,
            theta: 0.62,
            softening: 1e-3,
            order: MultipoleOrder::Octupole,
        }),
    }
}

/// SPH-flow 17.6 (Oger et al. 2016): Wendland kernels, analytic
/// derivatives, standard volume elements, adaptive global time-steps, no
/// self-gravity.
pub fn sphflow() -> ParentCode {
    ParentCode {
        name: "SPH-flow",
        sph: SphConfig {
            kernel: KernelKind::WendlandC2,
            gradients: GradientScheme::KernelDerivative,
            volume_elements: VolumeElements::Standard,
            time_stepping: TimeStepping::Adaptive { growth_limit: 1.1 },
            target_neighbors: 100,
            neighbor_tolerance: 0.05,
            max_h_iterations: 10,
            gamma: 7.0,
            viscosity: ViscosityConfig { alpha: 0.5, beta: 1.0, eta2: 0.01, balsara: false },
            cfl: 0.25,
            grad_h: false,
        },
        gravity: None,
    }
}

/// The SPH-EXA mini-app target configuration (Table 2): SPHYNX's sinc/IAD
/// accuracy and quadrupole gravity with individual time-steps.
pub fn miniapp() -> ParentCode {
    let sphynx = sphynx();
    ParentCode {
        name: "SPH-EXA mini-app",
        sph: SphConfig { time_stepping: TimeStepping::Individual { max_rungs: 8 }, ..sphynx.sph },
        gravity: sphynx.gravity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_setups_validate() {
        for s in [sphynx(), changa(), sphflow(), miniapp()] {
            s.sph.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
    }

    #[test]
    fn table1_rows_match_the_paper() {
        // SPHYNX: sinc, IAD, generalized VE, global stepping, 4-pole.
        let s = sphynx();
        assert!(matches!(s.sph.kernel, KernelKind::Sinc(_)));
        assert_eq!(s.sph.gradients, GradientScheme::Iad);
        assert!(matches!(s.sph.volume_elements, VolumeElements::Generalized { .. }));
        assert!(matches!(s.sph.time_stepping, TimeStepping::Global));
        assert_eq!(s.gravity.unwrap().order, MultipoleOrder::Quadrupole);

        // ChaNGa: Wendland, derivatives, standard VE, individual stepping.
        let c = changa();
        assert_eq!(c.sph.kernel, KernelKind::WendlandC2);
        assert_eq!(c.sph.gradients, GradientScheme::KernelDerivative);
        assert!(matches!(c.sph.time_stepping, TimeStepping::Individual { .. }));
        // ChaNGa carries the highest-order expansion of the three codes.
        assert_eq!(c.gravity.unwrap().order, MultipoleOrder::Octupole);
        assert!(c.gravity.unwrap().order.degree() > sphynx().gravity.unwrap().order.degree());

        // SPH-flow: Wendland, adaptive stepping, no gravity.
        let f = sphflow();
        assert_eq!(f.sph.kernel, KernelKind::WendlandC2);
        assert!(matches!(f.sph.time_stepping, TimeStepping::Adaptive { .. }));
        assert!(f.gravity.is_none());
        assert!(!f.supports_evrard());
    }
}
