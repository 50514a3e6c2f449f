//! `scaling`: Figs. 1–3, one panel per code and test case, with the
//! paper's anchor values for comparison.

use crate::args::{Args, Flags, Kind};
use sph_bench::{
    marenostrum4, piz_daint, render_scaling_table, run_scaling_panel, setups_for, CodeSetup,
    ExperimentScale, TestCase, CODE_NAMES,
};

pub const FLAGS: Flags =
    &[("--code", Kind::OneOf(CODE_NAMES)), ("--particles", Kind::Count), ("--steps", Kind::Count)];

/// Paper anchor values (y-axis tick labels of Figs. 1–3) for the console
/// comparison: (figure, anchor description).
fn paper_anchor(code: &str, test: TestCase) -> &'static str {
    match (code, test) {
        ("SPHYNX", TestCase::SquarePatch) => {
            "paper Fig. 1a: 38.25 s/step @ low cores → 2.79 s/step at scale (Piz Daint & MareNostrum)"
        }
        ("SPHYNX", TestCase::Evrard) => {
            "paper Fig. 1b: 40.27 s/step @ low cores → 3.86 s/step at scale"
        }
        ("ChaNGa", TestCase::SquarePatch) => {
            "paper Fig. 2a: 738.0 s/step @ low cores → 93.0 s/step floor at 1536 cores"
        }
        ("ChaNGa", TestCase::Evrard) => {
            "paper Fig. 2b: 30.38 s/step @ low cores → 5.74 s/step at scale"
        }
        ("SPH-flow", TestCase::SquarePatch) => {
            "paper Fig. 3: 31.00 s/step @ low cores → 2.80 s/step at scale"
        }
        _ => "(not reported in the paper)",
    }
}

fn run_panel(setup: &CodeSetup, test: TestCase, scale: ExperimentScale) {
    let test_name = match test {
        TestCase::SquarePatch => "Square test case",
        TestCase::Evrard => "Evrard test case",
    };
    println!("=== {} ({test_name}) ===", setup.code.name);
    println!("{}", paper_anchor(setup.code.name, test));
    for machine in [piz_daint(), marenostrum4()] {
        // The paper shows ChaNGa on Piz Daint only (Charm++ build).
        if setup.code.name == "ChaNGa" && machine.cores_per_node != 12 {
            continue;
        }
        let rows = run_scaling_panel(setup, test, machine, scale)
            .expect("physics evolution stayed stable");
        println!("{}", render_scaling_table(machine.name, &rows));
    }
}

pub fn run(args: &Args) {
    let scale = args.scale();
    println!(
        "strong scaling, {} particles, {} steps, cores 12..{}\n",
        scale.particles, scale.steps, scale.max_cores
    );
    for setup in setups_for(args.text("--code")) {
        run_panel(&setup, TestCase::SquarePatch, scale);
        if setup.code.supports_evrard() {
            run_panel(&setup, TestCase::Evrard, scale);
        } else {
            println!(
                "=== {} (Evrard test case) ===\nskipped: no self-gravity (Table 5)\n",
                setup.code.name
            );
        }
    }
}
