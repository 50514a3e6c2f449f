//! Measurements of single layers, taken by calling one public function
//! of a crate in a loop on the workload's own data.

use crate::stats::median;
use crate::trace::Tracer;
use sph_core::density::h_growth_bound;
use sph_core::{ParticleSystem, SphConfig};
use sph_domain::{halo_sets, orb_partition, HaloRadiusPolicy};
use sph_exa::DistributedConfig;
use sph_kernels::{Kernel, SUPPORT_RADIUS};
use sph_math::{SplitMix64, Vec3};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

type Metrics = BTreeMap<&'static str, f64>;

/// Repetitions of a layer measurement; the median is reported.
const REPEATS: usize = 5;

fn median_of<T>(tr: &mut Tracer, name: &str, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| tr.span(name, || black_box(f())).1).collect();
    median(&samples)
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds
}

/// Nanoseconds per kernel evaluation over a fixed table of 4 096
/// `(r, h)` pairs inside the support (the table does not depend on the
/// workload seed: it measures the kernel, not the inputs).
pub fn kernels(kernel: &dyn Kernel, m: &mut Metrics) {
    const TABLE: usize = 4096;
    const SWEEPS: usize = 64;
    let mut rng = SplitMix64::new(0x5EED_CAFE);
    let table: Vec<(Vec3, f64, f64)> = (0..TABLE)
        .map(|_| {
            let h = rng.uniform(0.5, 1.5);
            let r = rng.uniform(0.0, SUPPORT_RADIUS * h);
            let dir =
                Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0));
            (dir * (r / dir.norm()), r, h)
        })
        .collect();
    let ns_per_call = |f: &dyn Fn(Vec3, f64, f64) -> f64| {
        let samples: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0.0;
                for _ in 0..SWEEPS {
                    for &(rij, r, h) in black_box(&table) {
                        acc += f(rij, r, h);
                    }
                }
                black_box(acc);
                t.elapsed().as_secs_f64() * 1e9 / (TABLE * SWEEPS) as f64
            })
            .collect();
        median(&samples)
    };
    m.insert(
        "sph-kernels.w_dwdh_ns",
        ns_per_call(&|_, r, h| {
            let (w, dw) = kernel.w_and_dw_dh(r, h);
            w + dw
        }),
    );
    m.insert("sph-kernels.grad_w_ns", ns_per_call(&|rij, _, h| kernel.grad_w(rij, h).x));
}

/// `sph-ft` codec throughput on the workload's global state.
pub fn codec(sys: &ParticleSystem, tr: &mut Tracer, m: &mut Metrics) {
    let bytes = sph_ft::codec::encode(sys);
    let encode = median_of(tr, "sph-ft.encode", || sph_ft::codec::encode(sys));
    let decode = median_of(tr, "sph-ft.decode", || sph_ft::codec::decode(&bytes).map(|s| s.len()));
    let checksum = median_of(tr, "sph-ft.checksum", || sph_ft::codec::state_checksum(sys));
    m.insert("sph-ft.encode_mb_per_s", mb_per_s(bytes.len(), encode));
    m.insert("sph-ft.decode_mb_per_s", mb_per_s(bytes.len(), decode));
    m.insert("sph-ft.checksum_mb_per_s", mb_per_s(bytes.len(), checksum));
}

/// ORB partition with work weights, and halo identification at the
/// radius the driver negotiates first, on the global state.
pub fn domain(
    sys: &ParticleSystem,
    work: &[f64],
    config: &SphConfig,
    dist: DistributedConfig,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let orb =
        median_of(tr, "sph-domain.orb_partition", || orb_partition(&sys.x, dist.nranks, work));
    let decomp = orb_partition(&sys.x, dist.nranks, work);
    let radius = HaloRadiusPolicy::with_headroom(
        SUPPORT_RADIUS,
        h_growth_bound(config),
        dist.halo_growth_steps,
    )
    .radius_for(sys.max_h());
    let halo = median_of(tr, "sph-domain.halo_sets", || {
        halo_sets(&sys.x, &decomp, radius, &sys.periodicity)
    });
    m.insert("sph-domain.orb_partition_s", orb);
    m.insert("sph-domain.halo_sets_s", halo);
}

/// `sph-json` throughput on one result document.
pub fn json(doc: &str, tr: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    const BATCH: usize = 200;
    let value = sph_json::parse(doc)?;
    let parse = median_of(tr, "sph-json.parse", || {
        (0..BATCH).map(|_| sph_json::parse(black_box(doc)).is_ok() as usize).sum::<usize>()
    });
    let render = median_of(tr, "sph-json.render", || {
        (0..BATCH).map(|_| black_box(&value).render().len()).sum::<usize>()
    });
    m.insert("sph-json.parse_mb_per_s", mb_per_s(doc.len() * BATCH, parse));
    m.insert("sph-json.render_mb_per_s", mb_per_s(doc.len() * BATCH, render));
    Ok(())
}
