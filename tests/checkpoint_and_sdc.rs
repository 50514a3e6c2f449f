//! Integration: the fault-tolerance pipeline end to end — checkpoint,
//! bit-exact resume, corruption detection across module boundaries.

use sph_exa_repro::core::config::SphConfig;
use sph_exa_repro::exa::Simulation;
use sph_exa_repro::ft::checkpoint::{CheckpointStore, DiskStore, MemoryStore};
use sph_exa_repro::ft::sdc::{ChecksumDetector, SdcDetector, SdcInjector};
use sph_exa_repro::scenarios::{evrard_collapse, square_patch, EvrardConfig, SquarePatchConfig};

fn small_config() -> SphConfig {
    SphConfig { target_neighbors: 40, max_h_iterations: 5, ..Default::default() }
}

#[test]
fn restart_is_bit_exact_for_the_square_patch() {
    let cfg = SquarePatchConfig { nx: 10, nz: 10, ..Default::default() };
    let sph = SphConfig { gamma: cfg.gamma, ..small_config() };
    let mut original = Simulation::new(square_patch(&cfg), sph).unwrap();
    original.run(2).expect("stable steps");

    let mut store = MemoryStore::new();
    store.save("mid", &original.sys).unwrap();
    original.run(3).expect("stable steps");

    let mut replay = Simulation::resume(store.restore("mid").unwrap(), sph).unwrap();
    replay.run(3).expect("stable steps");

    for i in 0..original.sys.len() {
        assert_eq!(original.sys.x[i], replay.sys.x[i], "position {i} diverged");
        assert_eq!(original.sys.v[i], replay.sys.v[i], "velocity {i} diverged");
        assert_eq!(original.sys.u[i], replay.sys.u[i], "energy {i} diverged");
    }
    assert_eq!(original.sys.time, replay.sys.time);
    assert_eq!(original.sys.step_count, replay.sys.step_count);
}

#[test]
fn restart_is_bit_exact_with_gravity() {
    let setup = sph_exa_repro::scenarios::parents::sphynx();
    let cfg = EvrardConfig { n_target: 1500, ..Default::default() };
    let mut original = sph_exa_repro::exa::SimulationBuilder::new(evrard_collapse(&cfg))
        .config(setup.sph)
        .gravity(setup.gravity.unwrap())
        .build()
        .unwrap();
    original.run(2).expect("stable steps");
    let mut store = MemoryStore::new();
    store.save("mid", &original.sys).unwrap();
    original.run(2).expect("stable steps");

    let mut replay = Simulation::resume_with_gravity(
        store.restore("mid").unwrap(),
        setup.sph,
        setup.gravity.unwrap(),
    )
    .unwrap();
    replay.run(2).expect("stable steps");
    let max_dev =
        original.sys.x.iter().zip(&replay.sys.x).map(|(a, b)| (*a - *b).norm()).fold(0.0, f64::max);
    assert_eq!(max_dev, 0.0, "gravity restart deviated by {max_dev}");
}

#[test]
fn disk_checkpoints_survive_process_boundaries() {
    let dir = std::env::temp_dir().join(format!("sphexa-it-{}", std::process::id()));
    let cfg = SquarePatchConfig { nx: 8, nz: 8, ..Default::default() };
    let sph = SphConfig { gamma: cfg.gamma, ..small_config() };
    let mut sim = Simulation::new(square_patch(&cfg), sph).unwrap();
    sim.run(1).expect("stable steps");
    {
        let mut store = DiskStore::new(&dir).unwrap();
        store.save("persist", &sim.sys).unwrap();
    }
    // A brand-new store instance (≈ a restarted process) finds it.
    let store = DiskStore::new(&dir).unwrap();
    assert_eq!(store.labels(), vec!["persist".to_string()]);
    let restored = store.restore("persist").unwrap();
    assert_eq!(restored.len(), sim.sys.len());
    assert_eq!(restored.time, sim.sys.time);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_corruption_is_always_caught_by_the_checksum() {
    let cfg = SquarePatchConfig { nx: 8, nz: 8, ..Default::default() };
    let sph = SphConfig { gamma: cfg.gamma, ..small_config() };
    let mut sim = Simulation::new(square_patch(&cfg), sph).unwrap();
    sim.run(1).expect("stable steps");
    for seed in 0..20 {
        let mut det = ChecksumDetector::new();
        det.arm(&sim.sys);
        let mut backup = sim.sys.clone();
        let what = SdcInjector::new(seed).inject(&mut sim.sys);
        assert!(det.check(&sim.sys).is_corrupted(), "seed {seed}: missed injection at {what}");
        std::mem::swap(&mut sim.sys, &mut backup); // restore clean state
    }
}

#[test]
fn corrupted_checkpoint_cannot_be_restored_silently() {
    let cfg = SquarePatchConfig { nx: 8, nz: 8, ..Default::default() };
    let sph = SphConfig { gamma: cfg.gamma, ..small_config() };
    let sim = Simulation::new(square_patch(&cfg), sph).unwrap();
    let bytes = sph_exa_repro::ft::codec::encode(&sim.sys);
    // Flip every 997th byte in turn; decode must refuse each time.
    for k in (0..bytes.len()).step_by(997) {
        let mut corrupted = bytes.clone();
        corrupted[k] ^= 0x40;
        assert!(
            sph_exa_repro::ft::codec::decode(&corrupted).is_err(),
            "byte {k}: corruption slipped through"
        );
    }
}

#[test]
fn snapshot_and_manifest_bytes_match_the_recorded_format() {
    use sph_exa_repro::core::ParticleSystem;
    use sph_exa_repro::exa::DistributedBuilder;
    use sph_exa_repro::ft::codec::{encode, fnv1a};
    use sph_exa_repro::math::{Aabb, Periodicity, Vec3};
    use sph_exa_repro::tree::{GravityConfig, MultipoleOrder};

    // FNV-1a of each format's bytes for a fixed input, recorded when the
    // formats were first pinned: any change to a stored byte — layout,
    // framing, or an extra seal — breaks `miniapp --resume` of existing
    // checkpoint files and must show up here.
    const SNAPSHOT_FNV: u64 = 0xba9c_dfd1_5c95_2ad8;
    const MANIFEST_FNV: u64 = 0xd80b_80cc_c930_0c31;

    let mut sys = ParticleSystem::new(
        vec![Vec3::new(0.1, 0.2, 0.3), Vec3::new(0.4, 0.5, 0.6)],
        vec![Vec3::X, -Vec3::Y],
        vec![1.0, 2.0],
        vec![0.5, 0.25],
        0.1,
        Periodicity::periodic_z(Aabb::unit()),
    );
    sys.rho = vec![1.5, 2.5];
    sys.h = vec![0.1, 0.2];
    sys.a = vec![Vec3::new(0.5, 0.0, -0.5), Vec3::ZERO];
    sys.du_dt = vec![-0.125, 0.25];
    sys.p = vec![0.75, 1.5];
    sys.cs = vec![1.0, 1.25];
    sys.div_v = vec![0.1, -0.2];
    sys.curl_v = vec![0.0, 0.3];
    sys.rung = vec![0, 3];
    sys.time = 1.25;
    sys.step_count = 17;
    let snapshot = encode(&sys);
    assert_eq!(snapshot.len(), 490);
    assert_eq!(fnv1a(&snapshot), SNAPSHOT_FNV, "snapshot format drifted");

    // A 2-rank build of a 2×2×2 lattice with gravity, so the manifest
    // carries its potential block.
    let mut x = Vec::new();
    for i in 0..8 {
        let at = |bit: usize| 0.25 + 0.5 * ((i >> bit) & 1) as f64;
        x.push(Vec3::new(at(2), at(1), at(0)));
    }
    let lattice = ParticleSystem::new(
        x,
        vec![Vec3::ZERO; 8],
        vec![0.125; 8],
        vec![1.0; 8],
        0.5,
        Periodicity::open(Aabb::unit()),
    );
    let gravity =
        GravityConfig { g: 1.0, theta: 0.6, softening: 0.05, order: MultipoleOrder::Monopole };
    let mut sim = DistributedBuilder::new(lattice).gravity(gravity).nranks(2).build().unwrap();
    let mut store = MemoryStore::new();
    sim.checkpoint(&mut store, "pin").unwrap();
    let manifest = store.get("pin").unwrap();
    assert_eq!(manifest.len(), 144);
    assert_eq!(fnv1a(&manifest), MANIFEST_FNV, "manifest format drifted");
}
