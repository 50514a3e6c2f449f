//! `sph-bench`: every table and figure regenerator of the reproduction
//! behind one command line. The first argument names the subcommand; the
//! usage text (`src/usage.txt`, also in the crate docs) lists them all.
// CLI surface: wall-time progress timing only; never feeds a trajectory.
#![allow(clippy::disallowed_methods)]

mod ablations;
mod args;
mod miniapp;
mod pop_metrics;
mod scaling;
mod scenario_suite;
mod tables;
mod trace;
mod weak_scaling;

use args::{Args, Flags};

const USAGE: &str = include_str!("../../usage.txt");

/// A subcommand: its name, the flags it accepts and what it runs.
struct Subcommand {
    name: &'static str,
    flags: Flags,
    run: fn(&Args),
}

const SUBCOMMANDS: [Subcommand; 8] = [
    Subcommand { name: "miniapp", flags: miniapp::FLAGS, run: miniapp::run },
    Subcommand { name: "scaling", flags: scaling::FLAGS, run: scaling::run },
    Subcommand { name: "weak_scaling", flags: weak_scaling::FLAGS, run: weak_scaling::run },
    Subcommand { name: "pop_metrics", flags: pop_metrics::FLAGS, run: pop_metrics::run },
    Subcommand { name: "trace", flags: trace::FLAGS, run: trace::run },
    Subcommand { name: "ablations", flags: ablations::FLAGS, run: ablations::run },
    Subcommand { name: "tables", flags: tables::FLAGS, run: tables::run },
    Subcommand { name: "scenario_suite", flags: scenario_suite::FLAGS, run: scenario_suite::run },
];

/// The subcommand `argv` names, and its parsed flags.
fn parse_command(argv: &[String]) -> Result<(&'static Subcommand, Args), String> {
    let (name, words) = argv.split_first().ok_or("missing subcommand")?;
    let sub = SUBCOMMANDS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
    let args = Args::from_words(words, sub.flags).map_err(|e| format!("{name}: {e}"))?;
    Ok((sub, args))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_command(&argv) {
        Ok((sub, args)) => (sub.run)(&args),
        Err(e) => {
            eprintln!("sph-bench: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_command(&argv).map(|(_, args)| args)
    }

    #[test]
    fn typos_are_errors_that_name_the_flag() {
        for (line, flag) in [
            ("tables --table 7", "--table"),
            ("scaling --code sphyx", "--code"),
            ("pop_metrics --test evrad", "--test"),
            ("miniapp --particles 3k", "--particles"),
            ("trace --ranks x", "--ranks"),
            ("weak_scaling --per-core x", "--per-core"),
            ("ablations --particle 10", "--particle"),
            ("scenario_suite --scale fast", "--scale"),
            ("scaling --steps", "--steps"),
            ("weak_scaling --code sphynx", "--code"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
        }
        assert!(parse_line("").unwrap_err().contains("subcommand"));
        assert!(parse_line("scalling").unwrap_err().contains("scalling"));
    }

    #[test]
    fn every_documented_form_parses() {
        for line in [
            "miniapp --test evrard --code sph-exa --particles 3000 --steps 4 \
             --checkpoint-every 2 --checkpoint-dir cks --resume cks/step-000002.sphcp",
            "scaling --code SPHYNX --particles 1000000 --steps 20",
            "weak_scaling --per-core 20 --steps 1",
            "pop_metrics --code changa --test square --particles 1500 --steps 1",
            "trace --fixed --ranks 48 --particles 1500 --steps 1",
            "ablations --particles 1500",
            "tables --table 3",
            "scenario_suite --json r.json --scale 0.5 --scenario sod --list --skip-bitcheck",
        ] {
            assert!(parse_line(line).is_ok(), "{line}");
        }
        let miniapp = parse_line("miniapp --code SPH-Flow --particles 3000").unwrap();
        assert_eq!(miniapp.text("--code"), Some("sph-flow"));
        assert_eq!(miniapp.num::<usize>("--particles"), Some(3000));
    }

    #[test]
    fn usage_names_every_subcommand_and_flag() {
        for sub in &SUBCOMMANDS {
            assert!(USAGE.contains(&format!("\n  {} ", sub.name)), "{}", sub.name);
            for (flag, _) in sub.flags {
                assert!(USAGE.contains(flag), "{}: {flag}", sub.name);
            }
        }
    }
}
