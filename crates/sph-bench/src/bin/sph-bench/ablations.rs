//! `ablations`: the design choices on which the parent codes differ.

use crate::args::{Args, Flags, Kind};
use sph_bench::{build_evrard_sim, measure_after};
use sph_cluster::{model_step, piz_daint, CostModel, LoadBalancing, StepModelConfig, StepWork};
use sph_core::config::{GradientScheme, TimeStepping};
use sph_core::density::compute_density;
use sph_core::gradients::{compute_iad_matrices, scalar_gradient};
use sph_core::volume::compute_volume_elements;
use sph_domain::{Partitioner, SfcKind};
use sph_kernels::SUPPORT_RADIUS;
use sph_math::Vec3;
use sph_parents::sphynx;
use sph_tree::CellGrid;

pub const FLAGS: Flags = &[("--particles", Kind::Count)];

fn decomposition_ablation(sim: &sph_exa::Simulation, work: &StepWork) {
    println!("--- ablation 1+2: decomposition × balancing (Evrard distribution) ---");
    let workload = work.workload(sim);
    let (machine, cost) = (piz_daint(), CostModel::default());
    println!("  partitioner        balancing  LB      halo    step(s)");
    for (partitioner, pname) in [
        (Partitioner::Slab { axis: 0 }, "slab (SPHYNX)"),
        (Partitioner::Sfc(SfcKind::Morton), "SFC Morton"),
        (Partitioner::Sfc(SfcKind::Hilbert), "SFC Hilbert"),
        (Partitioner::Orb, "ORB (SPH-flow)"),
    ] {
        for (balancing, bname) in
            [(LoadBalancing::Static, "static"), (LoadBalancing::Dynamic, "dynamic")]
        {
            let cfg = StepModelConfig { partitioner, balancing, machine, cost };
            let t = model_step(&workload, 96, &cfg, Some(&work.total));
            println!(
                "  {pname:18} {bname:9}  {:5.1}%  {:6}  {:.4}",
                t.load_balance() * 100.0,
                t.halo_volume,
                t.total()
            );
        }
    }
    println!();
}

fn timestepping_ablation(particles: usize) {
    println!("--- ablation 3: global vs individual time-stepping (Evrard) ---");
    let steps = 3;
    for (ts, name) in [
        (TimeStepping::Global, "global (SPHYNX)"),
        (TimeStepping::Individual { max_rungs: 6 }, "individual (ChaNGa)"),
    ] {
        let mut setup = sphynx();
        setup.sph.time_stepping = ts;
        let mut sim = build_evrard_sim(&setup, particles, 42);
        let mut interactions = 0u64;
        let mut active = 0.0;
        let mut simulated = 0.0;
        for _ in 0..steps {
            let r = sim.step().expect("stable step");
            interactions += r.stats.sph_interactions + r.stats.gravity.total_interactions();
            active += r.active_fraction;
            simulated += r.dt;
        }
        println!(
            "  {name:22}: {:.3e} interactions for {simulated:.4} time units \
             (mean active fraction {:.2})",
            interactions as f64,
            active / steps as f64
        );
    }
    println!();
}

fn gradient_ablation(sim: &sph_exa::Simulation) {
    println!("--- ablation 4: IAD vs kernel-derivative gradients (linear field) ---");
    let mut sys = sim.sys.clone();
    let cfg = sim.config;
    let grid = CellGrid::for_radius(&sys.x, sys.periodicity, SUPPORT_RADIUS * sys.max_h());
    let kernel = cfg.kernel.build();
    let active: Vec<u32> = (0..sys.len() as u32).collect();
    let (lists, _) = compute_density(&mut sys, &grid, kernel.as_ref(), &cfg, &active);
    compute_volume_elements(&mut sys, &lists, kernel.as_ref(), &cfg, &active);
    compute_iad_matrices(&mut sys, &lists, kernel.as_ref(), &active);
    let a = Vec3::new(1.0, -2.0, 0.5);
    let f: Vec<f64> = sys.x.iter().map(|&p| a.dot(p)).collect();
    for (scheme, name) in [
        (GradientScheme::Iad, "IAD (SPHYNX)"),
        (GradientScheme::KernelDerivative, "kernel derivatives"),
    ] {
        let start = std::time::Instant::now();
        let grads = scalar_gradient(&sys, &lists, kernel.as_ref(), scheme, &active, &f);
        let dt = start.elapsed().as_secs_f64();
        // Interior error only (surface particles lack full support).
        let com: Vec3 = sys.x.iter().fold(Vec3::ZERO, |acc, &p| acc + p) / sys.len() as f64;
        let mut err = 0.0;
        let mut count = 0;
        for (i, g) in grads.iter().enumerate() {
            if (sys.x[i] - com).norm() < 0.5 {
                err += (*g - a).norm() / a.norm();
                count += 1;
            }
        }
        println!(
            "  {name:20}: mean interior error {:.2e} ({count} particles)",
            err / count.max(1) as f64
        );
        // Wall-clock time differs run to run; the report stays pinnable.
        eprintln!("  ablation 4, {name}: {dt:.3}s");
    }
    println!();
}

pub fn run(args: &Args) {
    let particles = args.num("--particles").unwrap_or(20_000).min(20_000);
    println!("ablation studies at {particles} particles\n");
    let mut sim = build_evrard_sim(&sphynx(), particles, 42);
    let work = measure_after(&mut sim, 1).expect("stable step");
    decomposition_ablation(&sim, &work);
    timestepping_ablation(particles.min(5_000));
    gradient_ablation(&sim);
}
