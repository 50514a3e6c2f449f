//! The one argument parser: a flag → value map with typed getters.

use sph_bench::ExperimentScale;
use std::collections::BTreeMap;
use std::str::FromStr;

/// What a flag takes.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Nothing: a bare switch such as `--fixed`.
    Switch,
    /// A whole number.
    Count,
    /// A finite real number.
    Real,
    /// One of these words, in any case.
    OneOf(&'static [&'static str]),
    /// Any text: a path, or a name checked where it is used.
    Text,
}

/// The flags a subcommand accepts.
pub type Flags = &'static [(&'static str, Kind)];

/// The flags of one invocation. Every value was checked against its
/// [`Kind`] when parsed, so the getters cannot fail.
#[derive(Debug)]
pub struct Args(BTreeMap<&'static str, String>);

impl Args {
    /// Parse `words` against `flags`. The error names the word at fault.
    pub fn from_words(words: &[String], flags: Flags) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut words = words.iter();
        while let Some(word) = words.next() {
            let &(flag, kind) = flags
                .iter()
                .find(|(f, _)| f == word)
                .ok_or_else(|| format!("unknown flag {word:?}"))?;
            let value = match kind {
                Kind::Switch => String::new(),
                _ => {
                    let value = words.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    check(flag, kind, value)?
                }
            };
            values.insert(flag, value);
        }
        Ok(Args(values))
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    /// The value of `flag` as text, if given.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.0.get(flag).map(String::as_str)
    }

    /// The value of `flag`, if given.
    pub fn num<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.text(flag).and_then(|v| v.parse().ok())
    }

    /// `--particles` and `--steps` over the default experiment scale.
    pub fn scale(&self) -> ExperimentScale {
        let d = ExperimentScale::default();
        ExperimentScale {
            particles: self.num("--particles").unwrap_or(d.particles),
            steps: self.num("--steps").unwrap_or(d.steps),
            ..d
        }
    }
}

/// The stored form of `value` for `flag`, or why it is not one.
fn check(flag: &str, kind: Kind, value: &str) -> Result<String, String> {
    let err = |expected: &str| Err(format!("{flag} {value:?}: expected {expected}"));
    match kind {
        Kind::Count if value.parse::<usize>().is_err() => err("a whole number"),
        Kind::Real if !value.parse::<f64>().is_ok_and(f64::is_finite) => err("a number"),
        Kind::OneOf(words) => match words.iter().find(|w| w.eq_ignore_ascii_case(value)) {
            Some(word) => Ok(word.to_string()),
            None => err(&format!("one of {}", words.join("|"))),
        },
        _ => Ok(value.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: Flags = &[
        ("--fixed", Kind::Switch),
        ("--steps", Kind::Count),
        ("--scale", Kind::Real),
        ("--test", Kind::OneOf(&["square", "evrard"])),
        ("--json", Kind::Text),
    ];

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::from_words(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>(), FLAGS)
    }

    #[test]
    fn well_formed_flags_parse_to_typed_values() {
        let a = parse(&["--steps", "3", "--fixed", "--scale", "0.5", "--test", "Evrard"]).unwrap();
        assert_eq!(a.num::<usize>("--steps"), Some(3));
        assert!(a.switch("--fixed"));
        assert_eq!(a.num::<f64>("--scale"), Some(0.5));
        assert_eq!(a.text("--test"), Some("evrard"));
        assert_eq!(a.text("--json"), None);
        let none = parse(&[]).unwrap();
        assert!(!none.switch("--fixed"));
        assert_eq!(none.num::<usize>("--steps"), None);
    }

    #[test]
    fn every_malformed_input_is_an_error_naming_its_flag() {
        for (words, names) in [
            (&["--steps", "3k"][..], "--steps"),
            (&["--steps", "-1"][..], "--steps"),
            (&["--scale", "x"][..], "--scale"),
            (&["--scale", "NaN"][..], "--scale"),
            (&["--test", "evrad"][..], "--test"),
            (&["--json"][..], "--json"),
            (&["--stesp", "3"][..], "--stesp"),
            (&["square"][..], "square"),
        ] {
            let err = parse(words).unwrap_err();
            assert!(err.contains(names), "{words:?}: {err}");
        }
    }

    #[test]
    fn scale_defaults_to_ci_and_follows_flags() {
        let flags: Flags = &[("--particles", Kind::Count), ("--steps", Kind::Count)];
        let words = ["--particles", "1500"].map(String::from);
        let s = Args::from_words(&words, flags).unwrap().scale();
        assert_eq!((s.particles, s.steps, s.max_cores), (1500, 4, 1536));
    }
}
