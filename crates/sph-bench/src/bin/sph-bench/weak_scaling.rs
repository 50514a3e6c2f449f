//! `weak_scaling`: the experiment §5.2 leaves open — "the weak scaling of
//! these codes, which is usually the regime in which they operate in
//! production runs". A flat time-per-step line is ideal.

use crate::args::{Args, Flags, Kind};
use sph_bench::{build_square_sim, setups_for, step_model};
use sph_cluster::piz_daint;
use sph_cluster::scaling::{render_weak_scaling_table, weak_scaling_experiment};
use sph_parents::Scenario;

pub const FLAGS: Flags = &[("--per-core", Kind::Count), ("--steps", Kind::Count)];

pub fn run(args: &Args) {
    let per_core = args.num("--per-core").unwrap_or(1_000);
    let steps = args.num("--steps").unwrap_or(2);
    let core_counts = [12usize, 24, 48, 96];
    println!(
        "weak scaling, {per_core} particles/core, cores {core_counts:?}, {steps} steps \
         (the §5.2 'production regime' experiment)\n"
    );
    for setup in setups_for(None) {
        let model = step_model(&setup, Scenario::SquarePatch, piz_daint());
        let rows = weak_scaling_experiment(
            |n| build_square_sim(&setup, n),
            &model,
            &core_counts,
            per_core,
            steps,
        )
        .expect("physics evolution stayed stable");
        println!(
            "{}",
            render_weak_scaling_table(
                &format!("{} (square patch, Piz Daint model)", setup.name),
                &rows
            )
        );
    }
}
