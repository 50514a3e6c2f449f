//! `tables`: Tables 1–4 from the `sph-parents` feature registry, Table 5
//! from the `sph-scenarios` scenario registry.

use crate::args::{Args, Flags, Kind};
use sph_parents::features::{table1, table2, table3, table4};
use sph_parents::render_table;
use sph_scenarios::scenario_table;

pub const FLAGS: Flags = &[("--table", Kind::OneOf(&["1", "2", "3", "4", "5"]))];

fn render_table5() -> String {
    let mut out = String::from("Table 5: Test simulations and their characteristics\n");
    out.push_str(&format!(
        "| {:22} | {:70} | {:18} | {:14} | {:24} | {:26} |\n",
        "Test Simulation", "Description", "Domain Size", "Sim. Length", "SPH Code", "Test Platform"
    ));
    out.push_str(&"-".repeat(196));
    out.push('\n');
    for s in scenario_table() {
        out.push_str(&format!(
            "| {:22} | {:70} | {:18} | {:14} | {:24} | {:26} |\n",
            format!("{} [{}]", s.name, s.reference),
            s.description,
            s.domain,
            s.simulation_length,
            s.codes,
            s.platforms
        ));
    }
    out
}

pub fn run(args: &Args) {
    let which: Option<u32> = args.num("--table");
    let want = |t: u32| which.is_none_or(|w| w == t);

    if want(1) {
        println!("{}", render_table(&table1()));
    }
    if want(2) {
        println!("{}", render_table(&table2()));
    }
    if want(3) {
        println!("{}", render_table(&table3()));
    }
    if want(4) {
        println!("{}", render_table(&table4()));
    }
    if want(5) {
        println!("{}", render_table5());
    }
}
