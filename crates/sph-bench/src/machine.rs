//! Machine models of the two evaluation platforms (§5.2 "System
//! overview").
//!
//! Numbers are public specifications plus one calibrated constant each
//! (sustained per-core GFLOP/s for memory-bound SPH kernels — far below
//! peak, as usual). The network is an α–β model: a message of `b` bytes
//! costs `α + b/β`; collectives pay `⌈log₂ P⌉` rounds.

/// α–β interconnect model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetworkModel {
    /// Per-message latency α (seconds).
    pub(crate) latency: f64,
    /// Per-rank effective bandwidth β (bytes/second).
    pub(crate) bandwidth: f64,
}

impl NetworkModel {
    /// Time to move one message of `bytes`.
    pub(crate) fn message_time(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0);
        self.latency + bytes / self.bandwidth
    }

    /// Allreduce of `bytes` across `p` ranks (recursive doubling).
    pub(crate) fn allreduce_time(&self, bytes: f64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        rounds * self.message_time(bytes)
    }
}

/// One of the two evaluation platforms.
#[derive(Debug, Clone, Copy)]
pub struct MachineModel {
    pub name: &'static str,
    /// Cores per node actually used (paper x-axis annotation:
    /// "Piz Daint=12c/cn, MareNostrum=48c/cn").
    pub cores_per_node: usize,
    /// Sustained per-core GFLOP/s on SPH-like kernels (calibrated).
    pub(crate) core_gflops: f64,
    pub(crate) network: NetworkModel,
}

impl MachineModel {
    /// Seconds to execute `flops` on one rank.
    pub(crate) fn compute_time(&self, flops: f64) -> f64 {
        assert!(flops >= 0.0);
        flops / (self.core_gflops * 1e9)
    }
}

/// Piz Daint hybrid partition: Cray XC50, Intel E5-2690 v3 (Haswell),
/// Aries dragonfly. One MPI rank per core, 12 cores/node as in the paper.
pub fn piz_daint() -> MachineModel {
    MachineModel {
        name: "Piz Daint (XC50, Aries dragonfly)",
        cores_per_node: 12,
        core_gflops: 4.0,
        network: NetworkModel { latency: 1.3e-6, bandwidth: 10.0e9 },
    }
}

/// MareNostrum 4: Lenovo, Intel Xeon Platinum 8160 (Skylake), 100 Gb
/// Omni-Path full fat tree, 48 cores/node.
pub fn marenostrum4() -> MachineModel {
    MachineModel {
        name: "MareNostrum 4 (Skylake, Omni-Path fat tree)",
        cores_per_node: 48,
        core_gflops: 4.8,
        network: NetworkModel { latency: 1.5e-6, bandwidth: 12.5e9 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn message_time_is_affine() {
        let n = piz_daint().network;
        let t0 = n.message_time(0.0);
        let t1 = n.message_time(1e6);
        assert!((t0 - n.latency).abs() < 1e-18);
        assert!((t1 - (n.latency + 1e6 / n.bandwidth)).abs() < 1e-15);
    }

    #[test]
    fn allreduce_scales_logarithmically() {
        let n = marenostrum4().network;
        assert_eq!(n.allreduce_time(8.0, 1), 0.0);
        let t2 = n.allreduce_time(8.0, 2);
        let t1024 = n.allreduce_time(8.0, 1024);
        assert!((t1024 / t2 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn compute_time_inverse_to_rate() {
        let m = piz_daint();
        let t = m.compute_time(4e9);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_core_counts() {
        // The x-axes of Figs. 1–3 run 12…1536 in powers of two ×12.
        assert_eq!(piz_daint().cores_per_node, 12);
        assert_eq!(marenostrum4().cores_per_node, 48);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn network_times_monotone_in_bytes(bytes in 0.0..1e9_f64, extra in 1.0..1e6_f64) {
            let net = piz_daint().network;
            prop_assert!(net.message_time(bytes + extra) > net.message_time(bytes));
            prop_assert!(net.allreduce_time(8.0, 64) > net.allreduce_time(8.0, 2));
        }
    }
}
