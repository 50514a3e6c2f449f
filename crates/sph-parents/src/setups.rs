//! The three parent-code configurations (Tables 1 & 3) plus the mini-app
//! reference configuration (Tables 2 & 4).
//!
//! Cost-model constants are *calibrated* against the 12-core anchor
//! points of Figs. 1–3; the
//! scaling *shape* comes from the measured decomposition, halo and
//! imbalance structure, not from these constants.

use sph_cluster::{CostModel, LoadBalancing};
use sph_core::config::{GradientScheme, SphConfig, TimeStepping, ViscosityConfig, VolumeElements};
use sph_domain::{Partitioner, SfcKind};
use sph_kernels::KernelKind;
use sph_tree::{GravityConfig, MultipoleOrder};

/// Which of the two paper test cases a cost model is calibrated for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    SquarePatch,
    Evrard,
}

/// One parent code (or the mini-app) as a full configuration.
#[derive(Debug, Clone, Copy)]
pub struct CodeSetup {
    pub name: &'static str,
    /// Table 1 row: the scientific configuration.
    pub sph: SphConfig,
    /// Self-gravity (None for SPH-flow — Table 1: "Self-Gravity: No").
    pub gravity: Option<GravityConfig>,
    /// Table 3 row: domain decomposition.
    pub partitioner: Partitioner,
    /// Table 3 row: load balancing.
    pub balancing: LoadBalancing,
    /// The SPHYNX 1.3.1 pathology from Fig. 4: tree build runs serially.
    pub serial_tree: bool,
    /// Calibrated per-scenario cost models.
    square_cost: CostModel,
    evrard_cost: CostModel,
}

impl CodeSetup {
    /// Cost model calibrated for the given test case.
    pub fn cost_for(&self, scenario: Scenario) -> CostModel {
        match scenario {
            Scenario::SquarePatch => self.square_cost,
            Scenario::Evrard => self.evrard_cost,
        }
    }

    /// Does this code run the Evrard test? (Table 5: SPH-flow does not —
    /// it has no self-gravity.)
    pub fn supports_evrard(&self) -> bool {
        self.gravity.is_some()
    }
}

/// SPHYNX 1.3.1 (Cabezón et al. 2017): sinc kernels, IAD gradients,
/// generalized volume elements, global time-steps, slab ("straightforward")
/// decomposition with **no** load balancing, quadrupole (4-pole) gravity,
/// and — per the Fig. 4 finding — a serial tree build.
pub fn sphynx() -> CodeSetup {
    CodeSetup {
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
            theta: 0.5,
            softening: 1e-3,
            order: MultipoleOrder::Quadrupole,
        }),
        partitioner: Partitioner::Slab { axis: 0 },
        balancing: LoadBalancing::Static,
        serial_tree: true,
        square_cost: CostModel {
            sph_flops_per_interaction: 8_500.0,
            gravity_flops_per_interaction: 250.0,
            tree_flops_per_particle: 80.0,
            serial_flops_per_particle: 4_500.0,
            bytes_per_halo_particle: 136.0,
            runtime_flops_per_rank: 2e5,
        },
        evrard_cost: CostModel {
            sph_flops_per_interaction: 8_500.0,
            gravity_flops_per_interaction: 250.0,
            tree_flops_per_particle: 80.0,
            serial_flops_per_particle: 5_500.0,
            bytes_per_halo_particle: 136.0,
            runtime_flops_per_rank: 2e5,
        },
    }
}

/// ChaNGa 3.3 (Menon et al. 2015): Wendland/M4 kernels with analytic
/// derivatives, standard volume elements, **individual** (block)
/// time-steps, space-filling-curve decomposition with Charm++ dynamic
/// load balancing, hexadecapole (16-pole) gravity — modelled as an
/// octupole expansion (one order below) with the remaining 16-pole *cost*
/// folded into the gravity constant
/// (`CostModel::gravity_flops_per_interaction`).
pub fn changa() -> CodeSetup {
    CodeSetup {
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
            theta: 0.7,
            softening: 1e-3,
            order: MultipoleOrder::Octupole,
        }),
        partitioner: Partitioner::Sfc(SfcKind::Hilbert),
        balancing: LoadBalancing::Dynamic,
        serial_tree: false,
        // The square patch runs through ChaNGa's unoptimised CFD path —
        // the paper measures it ~19× slower than SPHYNX at 12 cores, with
        // a heavy rank-count-resistant floor (93 s at 1 536 cores).
        square_cost: CostModel {
            sph_flops_per_interaction: 150_000.0,
            gravity_flops_per_interaction: 700.0,
            tree_flops_per_particle: 150.0,
            serial_flops_per_particle: 350_000.0,
            bytes_per_halo_particle: 120.0,
            runtime_flops_per_rank: 5e5,
        },
        // The Evrard collapse is ChaNGa's home turf: tuned gravity and
        // multi-time-stepping make it competitive (30.4 s → 5.7 s).
        evrard_cost: CostModel {
            sph_flops_per_interaction: 7_000.0,
            gravity_flops_per_interaction: 700.0,
            tree_flops_per_particle: 150.0,
            serial_flops_per_particle: 20_000.0,
            bytes_per_halo_particle: 120.0,
            runtime_flops_per_rank: 5e5,
        },
    }
}

/// SPH-flow 17.6 (Oger et al. 2016): Wendland kernels, analytic
/// derivatives, standard volume elements, adaptive global time-steps,
/// ORB decomposition with Local-Inner-Outer balancing (modelled as the
/// dynamic re-decomposition policy, `LoadBalancing::Dynamic`), no
/// self-gravity.
pub fn sphflow() -> CodeSetup {
    CodeSetup {
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
        partitioner: Partitioner::Orb,
        balancing: LoadBalancing::Dynamic,
        serial_tree: false,
        square_cost: CostModel {
            sph_flops_per_interaction: 6_800.0,
            gravity_flops_per_interaction: 0.0,
            tree_flops_per_particle: 60.0,
            serial_flops_per_particle: 3_500.0,
            bytes_per_halo_particle: 112.0,
            runtime_flops_per_rank: 1.5e5,
        },
        evrard_cost: CostModel {
            // Never used (no gravity), kept equal to the square model.
            sph_flops_per_interaction: 6_800.0,
            gravity_flops_per_interaction: 0.0,
            tree_flops_per_particle: 60.0,
            serial_flops_per_particle: 3_500.0,
            bytes_per_halo_particle: 112.0,
            runtime_flops_per_rank: 1.5e5,
        },
    }
}

/// The SPH-EXA mini-app target configuration (Tables 2 & 4): best-of
/// features — sinc/IAD accuracy, Hilbert SFC decomposition, dynamic load
/// balancing, parallel tree, lean cost model.
pub fn miniapp() -> CodeSetup {
    CodeSetup {
        name: "SPH-EXA mini-app",
        sph: SphConfig {
            kernel: KernelKind::Sinc(5),
            gradients: GradientScheme::Iad,
            volume_elements: VolumeElements::Generalized { p: 0.7 },
            time_stepping: TimeStepping::Individual { max_rungs: 8 },
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
            theta: 0.5,
            softening: 1e-3,
            order: MultipoleOrder::Quadrupole,
        }),
        partitioner: Partitioner::Sfc(SfcKind::Hilbert),
        balancing: LoadBalancing::Dynamic,
        serial_tree: false,
        square_cost: CostModel {
            sph_flops_per_interaction: 2_500.0,
            gravity_flops_per_interaction: 200.0,
            tree_flops_per_particle: 40.0,
            serial_flops_per_particle: 500.0,
            bytes_per_halo_particle: 112.0,
            runtime_flops_per_rank: 1e5,
        },
        evrard_cost: CostModel {
            sph_flops_per_interaction: 2_500.0,
            gravity_flops_per_interaction: 200.0,
            tree_flops_per_particle: 40.0,
            serial_flops_per_particle: 500.0,
            bytes_per_halo_particle: 112.0,
            runtime_flops_per_rank: 1e5,
        },
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

    #[test]
    fn table3_rows_match_the_paper() {
        assert!(matches!(sphynx().partitioner, Partitioner::Slab { .. }));
        assert_eq!(sphynx().balancing, LoadBalancing::Static);
        assert!(matches!(changa().partitioner, Partitioner::Sfc(_)));
        assert_eq!(changa().balancing, LoadBalancing::Dynamic);
        assert_eq!(sphflow().partitioner, Partitioner::Orb);
    }

    #[test]
    fn sphynx_alone_has_the_serial_tree_pathology() {
        assert!(sphynx().serial_tree);
        assert!(!changa().serial_tree);
        assert!(!sphflow().serial_tree);
        assert!(!miniapp().serial_tree);
    }

    #[test]
    fn cost_anchors_order_correctly() {
        // Paper, 12-core anchors (square): ChaNGa ≫ SPHYNX > SPH-flow.
        let sq = Scenario::SquarePatch;
        assert!(
            changa().cost_for(sq).sph_flops_per_interaction
                > 10.0 * sphynx().cost_for(sq).sph_flops_per_interaction
        );
        assert!(
            sphynx().cost_for(sq).sph_flops_per_interaction
                > sphflow().cost_for(sq).sph_flops_per_interaction
        );
        // ChaNGa's Evrard path is dramatically cheaper than its square path.
        assert!(
            changa().cost_for(Scenario::Evrard).sph_flops_per_interaction
                < changa().cost_for(sq).sph_flops_per_interaction / 10.0
        );
        // The mini-app is the leanest of all.
        assert!(
            miniapp().cost_for(sq).serial_flops_per_particle
                < sphflow().cost_for(sq).serial_flops_per_particle
        );
    }
}
