//! `trace`: Fig. 4. The default shows the pathologies the paper reads off
//! the trace (the serial tree build, phase A, and idle phase tails);
//! `--fixed` shows the step after "B, D, and J have been parallelized or
//! re-written to be eliminated" (§5.2).

use crate::args::{Args, Flags, Kind};
use sph_bench::{fig4_step, step_trace, PhaseProfile};
use sph_profiler::gantt::phase_summary;
use sph_profiler::{pop_metrics, render_gantt};

pub const FLAGS: Flags = &[
    ("--fixed", Kind::Switch),
    ("--ranks", Kind::Count),
    ("--particles", Kind::Count),
    ("--steps", Kind::Count),
];

pub fn run(args: &Args) {
    let fixed = args.switch("--fixed");
    let scale = args.scale();
    // Fig. 4 used 192 cores for 10⁶ particles ≈ 5 200 particles/core; at
    // reduced particle counts keep that ratio so the imbalance structure
    // is comparable, unless the user pins --ranks.
    let ranks = args.num("--ranks").unwrap_or((scale.particles / 5_200).clamp(4, 192));
    let (particles, timing) = fig4_step(scale, ranks, fixed).expect("stable step");

    let profile = if fixed {
        PhaseProfile { serial_tree: false, ..PhaseProfile::sphynx_evrard() }
    } else {
        PhaseProfile::sphynx_evrard()
    };
    let trace = step_trace(&timing, &profile);

    println!(
        "Fig. 4 analogue: SPHYNX{} Evrard step at {ranks} ranks, {} particles, Piz Daint model",
        if fixed { " (fixed)" } else { " v1.3.1" },
        particles
    );
    println!(
        "paper: 'A highly scalable code will need not contain any of the black parallel \
         regions (idle threads)' — compare the A column and the phase tails.\n"
    );
    // Render a subset of workers (Fig. 4 shows a window of threads).
    let shown = ranks.min(24);
    let mut window = sph_profiler::Trace::new(shown);
    for w in 0..shown {
        for s in trace.spans(w) {
            window.push(w, *s);
        }
    }
    println!("{}", render_gantt(&window, 110));
    println!("{}", phase_summary(&trace));
    let m = pop_metrics(&trace, None);
    println!("POP: {m}");
    println!(
        "modelled step: compute max {:.3}s mean {:.3}s, serial {:.3}s, comm {:.4}s, total {:.3}s",
        timing.compute_max(),
        timing.compute_mean(),
        timing.serial,
        timing.comm,
        timing.total()
    );
}
