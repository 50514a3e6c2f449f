//! Regenerate the strong-scaling figures (Figs. 1, 2 and 3).
//!
//! ```text
//! cargo run --release -p sph-bench --bin scaling                   # all panels
//! cargo run --release -p sph-bench --bin scaling -- --code sphynx  # Fig. 1
//! cargo run --release -p sph-bench --bin scaling -- --code changa  # Fig. 2
//! cargo run --release -p sph-bench --bin scaling -- --code sphflow # Fig. 3
//! SPH_EXA_FULL=1 ... runs the paper scale (10⁶ particles, 20 steps).
//! ```
//!
//! Each panel prints cores vs modelled mean time per time-step for the
//! test cases and platforms of the corresponding figure, plus the paper's
//! reported anchor values for comparison.

use sph_bench::{run_scaling_panel, ExperimentScale};
use sph_cluster::scaling::render_scaling_table;
use sph_cluster::{marenostrum4, piz_daint};
use sph_parents::{changa, sphflow, sphynx, CodeSetup, Scenario};

/// Paper anchor values (y-axis tick labels of Figs. 1–3) for the console
/// comparison: (figure, anchor description).
fn paper_anchor(code: &str, scenario: Scenario) -> &'static str {
    match (code, scenario) {
        ("SPHYNX", Scenario::SquarePatch) => {
            "paper Fig. 1a: 38.25 s/step @ low cores → 2.79 s/step at scale (Piz Daint & MareNostrum)"
        }
        ("SPHYNX", Scenario::Evrard) => {
            "paper Fig. 1b: 40.27 s/step @ low cores → 3.86 s/step at scale"
        }
        ("ChaNGa", Scenario::SquarePatch) => {
            "paper Fig. 2a: 738.0 s/step @ low cores → 93.0 s/step floor at 1536 cores"
        }
        ("ChaNGa", Scenario::Evrard) => {
            "paper Fig. 2b: 30.38 s/step @ low cores → 5.74 s/step at scale"
        }
        ("SPH-flow", Scenario::SquarePatch) => {
            "paper Fig. 3: 31.00 s/step @ low cores → 2.80 s/step at scale"
        }
        _ => "(not reported in the paper)",
    }
}

fn run_panel(setup: &CodeSetup, scenario: Scenario, scale: ExperimentScale) {
    let scenario_name = match scenario {
        Scenario::SquarePatch => "Square test case",
        Scenario::Evrard => "Evrard test case",
    };
    println!("=== {} ({scenario_name}) ===", setup.name);
    println!("{}", paper_anchor(setup.name, scenario));
    for machine in [piz_daint(), marenostrum4()] {
        // The paper shows ChaNGa on Piz Daint only (Charm++ build).
        if setup.name == "ChaNGa" && machine.cores_per_node != 12 {
            continue;
        }
        let rows = run_scaling_panel(setup, scenario, machine, scale)
            .expect("physics evolution stayed stable");
        println!("{}", render_scaling_table(machine.name, &rows));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code_filter = args
        .iter()
        .position(|a| a == "--code")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_lowercase());
    let scale = ExperimentScale::from_env();
    println!(
        "strong scaling, {} particles, {} steps, cores 12..{} (SPH_EXA_FULL=1 for paper scale)\n",
        scale.particles, scale.steps, scale.max_cores
    );

    let setups = [(sphynx(), "sphynx"), (changa(), "changa"), (sphflow(), "sphflow")];
    for (setup, key) in setups {
        if let Some(f) = &code_filter {
            if f != key {
                continue;
            }
        }
        run_panel(&setup, Scenario::SquarePatch, scale);
        if setup.supports_evrard() {
            run_panel(&setup, Scenario::Evrard, scale);
        } else {
            println!(
                "=== {} (Evrard test case) ===\nskipped: no self-gravity (Table 5)\n",
                setup.name
            );
        }
    }
}
