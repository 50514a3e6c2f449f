//! `pop_metrics`: the §5.2 POP efficiency analysis.

use crate::args::{Args, Flags, Kind};
use sph_bench::{
    measure_after, piz_daint, setups_for, step_trace, wire_experiment, CodeSetup, ExperimentScale,
    PhaseProfile, TestCase, CODE_NAMES,
};
use sph_profiler::pop_metrics;

pub const FLAGS: Flags = &[
    ("--code", Kind::OneOf(CODE_NAMES)),
    ("--test", Kind::OneOf(&["square", "evrard"])),
    ("--particles", Kind::Count),
    ("--steps", Kind::Count),
];

fn analyse(setup: &CodeSetup, test: TestCase, scale: ExperimentScale) {
    let name = match test {
        TestCase::SquarePatch => "Square",
        TestCase::Evrard => "Evrard",
    };
    println!("=== POP efficiency: {} / {name}, Piz Daint model ===", setup.code.name);
    let (mut sim, model) = wire_experiment(setup, test, piz_daint(), scale);
    let work = measure_after(&mut sim, scale.steps.min(2)).expect("stable step");
    let profile = match test {
        TestCase::Evrard => {
            PhaseProfile { serial_tree: setup.serial_tree, ..PhaseProfile::sphynx_evrard() }
        }
        TestCase::SquarePatch => PhaseProfile::hydro_only(setup.serial_tree),
    };
    // Reference (lowest core count) total useful time for CompScal.
    let mut reference_useful: Option<f64> = None;
    println!("  cores  LB      CommE   ParE    CompScal  GlobalE");
    for cores in [12usize, 24, 48, 96, 192, 384] {
        let timing = work.model(&sim, cores, &model);
        let trace = step_trace(&timing, &profile);
        let m = pop_metrics(&trace, reference_useful);
        if reference_useful.is_none() {
            reference_useful = Some(trace.total_useful());
        }
        println!(
            "  {cores:5}  {:5.1}%  {:5.1}%  {:5.1}%  {:7.1}%  {:6.1}%",
            m.load_balance * 100.0,
            m.communication_efficiency * 100.0,
            m.parallel_efficiency * 100.0,
            m.computation_scalability * 100.0,
            m.global_efficiency * 100.0
        );
    }
    println!();
}

pub fn run(args: &Args) {
    let test = args.text("--test");
    let scale = args.scale();
    println!(
        "POP metrics sweep ({} particles; paper quote: global efficiency decreases 48→192 \
         cores, dominated by load imbalance)\n",
        scale.particles
    );
    for setup in setups_for(args.text("--code")) {
        if test != Some("evrard") {
            analyse(&setup, TestCase::SquarePatch, scale);
        }
        if test != Some("square") && setup.code.supports_evrard() {
            analyse(&setup, TestCase::Evrard, scale);
        }
    }
}
