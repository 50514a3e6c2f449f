//! Multi-rank distributed stepping, end to end: run the same square patch
//! on 1, 2 and 4 in-process ranks, verify the full-state fingerprints are
//! bit-identical, and print each run's exchange log and per-rank phase
//! timers.
//!
//! ```text
//! cargo run --release --example distributed_ranks
//! ```

use sph_exa_repro::core::config::SphConfig;
use sph_exa_repro::core::diagnostics::state_fingerprint as fingerprint;
use sph_exa_repro::exa::{DistributedBuilder, DistributedConfig};
use sph_exa_repro::profiler::Phase;
use sph_exa_repro::scenarios::{square_patch, SquarePatchConfig};

fn main() {
    let nx = 14;
    let scenario = SquarePatchConfig { nx, nz: nx, ..Default::default() };
    let sph = SphConfig {
        gamma: scenario.gamma,
        target_neighbors: 60,
        max_h_iterations: 6,
        ..Default::default()
    };
    let steps = 5;
    println!("distributed square patch, {} particles, {steps} macro-steps\n", nx * nx * nx);

    let mut reference_fp = None;
    for nranks in [1usize, 2, 4] {
        let mut sim = DistributedBuilder::new(square_patch(&scenario))
            .config(sph)
            .distributed(DistributedConfig { nranks, rebalance_every: 3, ..Default::default() })
            .build()
            .expect("valid distributed setup");
        // Warm up, then reset the per-rank timers so they cover exactly
        // the final macro-step.
        sim.run(steps - 1).expect("stable run");
        for t in sim.timers() {
            t.reset();
        }
        sim.run(1).expect("stable final step");
        let fp = fingerprint(&sim.sys);
        match reference_fp {
            None => reference_fp = Some(fp),
            Some(want) => assert_eq!(fp, want, "rank count changed the physics bits!"),
        }

        let log = sim.exchange_log();
        println!(
            "nranks={nranks}: fingerprint {fp:#018x}  imbalance {:.3}  ghosts/step {:.0}  \
             migrations {}  renegotiations {}  rebalances {}",
            sim.imbalance(),
            log.ghosts_imported as f64 / log.density_attempts.max(1) as f64,
            log.migrations,
            log.renegotiations,
            log.rebalances,
        );
        for (r, t) in sim.timers().iter().enumerate() {
            println!(
                "  rank {r}: density {:.3}s  gradients {:.3}s  momentum {:.3}s  total {:.3}s",
                t.get(Phase::Density),
                t.get(Phase::Gradients),
                t.get(Phase::Momentum),
                t.total(),
            );
        }

        println!();
    }
    println!(
        "all rank counts produced the same fingerprint: decomposition, migration and \
         rebalancing changed where particles were computed, never what was computed."
    );
}
