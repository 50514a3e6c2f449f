//! Machine models of the two evaluation platforms (§5.2 "System
//! overview").
//!
//! Numbers are public specifications plus one calibrated constant each
//! (sustained per-core GFLOP/s for memory-bound SPH kernels — far below
//! peak, as usual). The network is an α–β model: a message of `b` bytes
//! costs `α + b/β`; collectives pay `⌈log₂ P⌉` rounds.

/// α–β interconnect model.
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    pub name: &'static str,
    /// Per-message latency α (seconds).
    pub latency: f64,
    /// Per-rank effective bandwidth β (bytes/second).
    pub bandwidth: f64,
}

impl NetworkModel {
    /// Time to move one message of `bytes`.
    pub fn message_time(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0);
        self.latency + bytes / self.bandwidth
    }

    /// Allreduce of `bytes` across `p` ranks (recursive doubling).
    pub fn allreduce_time(&self, bytes: f64, p: usize) -> f64 {
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
    pub core_gflops: f64,
    /// Worker threads each rank runs (hybrid MPI+threads). 1 = the paper's
    /// flat one-rank-per-core configuration.
    pub threads_per_rank: usize,
    /// Parallel efficiency of the in-rank thread pool at `threads_per_rank`
    /// (0, 1]: calibrated from the measured `sph_step_threads` bench in
    /// sph-bench, so the modelled speedup matches the shim's real one.
    pub thread_efficiency: f64,
    pub network: NetworkModel,
}

impl MachineModel {
    /// Effective speedup of one rank's compute from in-rank threading:
    /// `1 + e·(t − 1)` — exactly 1 for a single thread regardless of `e`.
    pub fn thread_speedup(&self) -> f64 {
        1.0 + self.thread_efficiency * (self.threads_per_rank as f64 - 1.0)
    }

    /// Seconds to execute `flops` on one rank (its threads included).
    pub fn compute_time(&self, flops: f64) -> f64 {
        assert!(flops >= 0.0);
        flops / (self.core_gflops * 1e9 * self.thread_speedup())
    }

    /// Hybrid variant of this machine: `threads` workers per rank at the
    /// measured `efficiency`. Feed it the speedup from the sph-bench
    /// `sph_step_threads` bench (`efficiency = (S − 1)/(t − 1)`). Measured
    /// values may legitimately exceed 1 (cache-footprint superlinearity) or
    /// dip below 0 (threading overhead on starved hardware); only a
    /// non-positive resulting speedup is rejected.
    pub fn with_threads(mut self, threads: usize, efficiency: f64) -> Self {
        assert!(threads >= 1, "ranks need at least one thread");
        assert!(efficiency.is_finite(), "efficiency must be finite");
        self.threads_per_rank = threads;
        self.thread_efficiency = efficiency;
        assert!(
            self.thread_speedup() > 0.0,
            "efficiency {efficiency} at {threads} threads models a non-positive speedup"
        );
        self
    }
}

/// Piz Daint hybrid partition: Cray XC50, Intel E5-2690 v3 (Haswell),
/// Aries dragonfly. One MPI rank per core, 12 cores/node as in the paper.
pub fn piz_daint() -> MachineModel {
    MachineModel {
        name: "Piz Daint (XC50, Aries dragonfly)",
        cores_per_node: 12,
        core_gflops: 4.0,
        threads_per_rank: 1,
        thread_efficiency: 1.0,
        network: NetworkModel { name: "Aries dragonfly", latency: 1.3e-6, bandwidth: 10.0e9 },
    }
}

/// MareNostrum 4: Lenovo, Intel Xeon Platinum 8160 (Skylake), 100 Gb
/// Omni-Path full fat tree, 48 cores/node.
pub fn marenostrum4() -> MachineModel {
    MachineModel {
        name: "MareNostrum 4 (Skylake, Omni-Path fat tree)",
        cores_per_node: 48,
        core_gflops: 4.8,
        threads_per_rank: 1,
        thread_efficiency: 1.0,
        network: NetworkModel { name: "Omni-Path fat tree", latency: 1.5e-6, bandwidth: 12.5e9 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn hybrid_threads_speed_up_compute_only() {
        // The measured 4-thread speedup of the rayon shim (bench
        // sph_step_threads) feeds in as efficiency; compute shrinks by the
        // modelled speedup while the network model is untouched.
        let flat = piz_daint();
        let hybrid = piz_daint().with_threads(4, 0.8);
        assert!((hybrid.thread_speedup() - 3.4).abs() < 1e-12);
        let flops = 4e9;
        assert!((flat.compute_time(flops) / hybrid.compute_time(flops) - 3.4).abs() < 1e-9);
        assert_eq!(flat.network.message_time(1e6), hybrid.network.message_time(1e6));
        // One thread is a no-op regardless of efficiency.
        assert_eq!(piz_daint().with_threads(1, 0.5).thread_speedup(), 1.0);
    }

    #[test]
    fn paper_core_counts() {
        // The x-axes of Figs. 1–3 run 12…1536 in powers of two ×12.
        assert_eq!(piz_daint().cores_per_node, 12);
        assert_eq!(marenostrum4().cores_per_node, 48);
    }
}
