//! `miniapp`: the mini-app itself, meeting the paper's §2 bar of "the
//! preparation of the run to a handful of command line arguments".

use crate::args::{Args, Flags, Kind};
use sph_bench::{build_evrard_sim, build_square_sim, miniapp, setup_named, CODE_NAMES};
use sph_exa::Simulation;
use sph_ft::checkpoint::{CheckpointStore, DiskStore};

pub const FLAGS: Flags = &[
    ("--test", Kind::OneOf(&["square", "evrard"])),
    ("--code", Kind::OneOf(CODE_NAMES)),
    ("--particles", Kind::Count),
    ("--steps", Kind::Count),
    ("--checkpoint-every", Kind::Count),
    ("--checkpoint-dir", Kind::Text),
    ("--resume", Kind::Text),
];

pub fn run(args: &Args) {
    let test = args.text("--test").unwrap_or("square");
    let setup = args.text("--code").and_then(setup_named).unwrap_or_else(miniapp);
    let particles = args.num("--particles").unwrap_or(20_000);
    let steps = args.num("--steps").unwrap_or(20);
    let checkpoint_every = args.num("--checkpoint-every").unwrap_or(0);
    let checkpoint_dir = args.text("--checkpoint-dir").unwrap_or("checkpoints");

    let mut sim: Simulation = if let Some(path) = args.text("--resume") {
        let read = std::fs::read(path).map_err(|e| e.to_string());
        let sys = read.and_then(|b| sph_ft::codec::decode(&b).map_err(|e| e.to_string()));
        let sys = sys.unwrap_or_else(|e| {
            eprintln!("cannot resume from checkpoint {path}: {e}");
            std::process::exit(2);
        });
        println!(
            "resumed {} particles at t = {:.5} (step {})",
            sys.len(),
            sys.time,
            sys.step_count
        );
        // Gravity follows the test case (the square patch is hydro-only;
        // pass --test evrard when resuming an Evrard checkpoint).
        match (setup.code.gravity, test) {
            (Some(g), "evrard") => {
                Simulation::resume_with_gravity(sys, setup.code.sph, g).expect("valid resume")
            }
            _ => Simulation::resume(sys, setup.code.sph).expect("valid resume"),
        }
    } else {
        match test {
            "evrard" if !setup.code.supports_evrard() => {
                eprintln!(
                    "{} has no self-gravity; the Evrard test needs it (Table 5)",
                    setup.code.name
                );
                std::process::exit(2);
            }
            "evrard" => build_evrard_sim(&setup, particles, 42),
            _ => build_square_sim(&setup, particles),
        }
    };

    println!(
        "SPH-EXA mini-app: {} / {} test, {} particles, {} steps",
        setup.code.name,
        test,
        sim.sys.len(),
        steps
    );

    let mut store =
        (checkpoint_every > 0).then(|| DiskStore::new(checkpoint_dir).expect("checkpoint dir"));
    let wall_start = std::time::Instant::now();
    let c0 = sim.conservation();
    println!("step      dt        time     active   interactions   wall(s)");
    for k in 1..=steps {
        let t0 = std::time::Instant::now();
        let r = sim.step().expect("stable step");
        println!(
            "{:4}  {:9.3e}  {:8.5}  {:7.2}  {:>13}  {:8.3}",
            r.step,
            r.dt,
            r.time,
            r.active_fraction,
            r.stats.sph_interactions + r.stats.gravity.total_interactions(),
            t0.elapsed().as_secs_f64()
        );
        if let Some(store) = &mut store {
            if k % checkpoint_every == 0 {
                let label = format!("step-{:06}", sim.sys.step_count);
                let bytes = store.save(&label, &sim.sys).expect("checkpoint write");
                println!("      checkpoint '{label}' written ({bytes} bytes)");
            }
        }
    }
    let c1 = sim.conservation();
    println!("\ncompleted in {:.2}s wall time", wall_start.elapsed().as_secs_f64());
    println!("energy drift over the run: {:.3e}", c1.energy_drift(&c0));
    println!("{}", sim.timers().report());
}
