//! Multi-rank distributed stepping, end to end: run the same square patch
//! on 1, 2 and 4 in-process ranks, verify the full-state fingerprints are
//! bit-identical, and print each run's exchange log (with the ghosts
//! imported per owned particle per density attempt) and per-rank phase
//! timers. Fails (exits non-zero) if a halo renegotiation happens after
//! the first step: the negotiated radius (2 · h_max plus a 5 % margin)
//! must cover every settled density pass.
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
    let mut late_renegotiations = 0;
    for nranks in [1usize, 2, 4] {
        let mut sim = DistributedBuilder::new(square_patch(&scenario))
            .config(sph)
            .distributed(DistributedConfig { nranks, rebalance_every: 3, ..Default::default() })
            .build()
            .expect("valid distributed setup");
        // Warm up, then reset the per-rank timers so they cover exactly
        // the final macro-step. The first step may renegotiate the halo
        // from the set-up smoothing lengths; no later one may.
        sim.step().expect("stable first step");
        let first_renegotiations = sim.exchange_log().renegotiations;
        sim.run(steps - 2).expect("stable run");
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
        late_renegotiations += log.renegotiations - first_renegotiations;
        println!(
            "nranks={nranks}: fingerprint {fp:#018x}  imbalance {:.3}  ghosts/owned {:.3}  \
             migrations {}  renegotiations {}  rebalances {}",
            sim.imbalance(),
            log.ghosts_imported as f64
                / (log.density_attempts.max(1) * sim.sys.len() as u64) as f64,
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
    assert_eq!(
        late_renegotiations, 0,
        "halo renegotiations after the first step: the negotiated radius no longer covers a \
         settled density pass"
    );
}
