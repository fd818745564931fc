//! Minimal command-line parsing shared by the `bench` subcommands and
//! the `oracle` binary.
//!
//! Flags are `--name value` pairs; unknown and repeated flags abort with
//! a message so typos never silently fall back to defaults.

use std::collections::HashMap;

/// Parsed `--key value` arguments.
#[derive(Debug)]
pub struct Args {
    values: HashMap<String, String>,
    allowed: Vec<&'static str>,
    binary: String,
}

/// Why parsing failed (surfaced as a usage error by [`Args::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// The user asked for `--help`.
    HelpRequested,
    /// An argument did not start with `--`.
    NotAFlag(String),
    /// A flag was not in the allowed list.
    UnknownFlag(String),
    /// A flag appeared without a following value.
    MissingValue(String),
    /// A flag appeared twice.
    DuplicateFlag(String),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::HelpRequested => write!(f, "help requested"),
            ArgsError::NotAFlag(a) => write!(f, "unexpected argument: {a}"),
            ArgsError::UnknownFlag(n) => write!(f, "unknown flag: --{n}"),
            ArgsError::MissingValue(n) => write!(f, "flag --{n} needs a value"),
            ArgsError::DuplicateFlag(n) => write!(f, "flag --{n} given twice"),
        }
    }
}

impl Args {
    /// Parse `argv` — what follows `binary` on the command line, a
    /// program name or `bench <subcommand>` — accepting only the listed
    /// flag names (without the `--` prefix). Exits with a usage message
    /// on error or on `--help`.
    pub fn parse(binary: &str, argv: Vec<String>, allowed: &[&'static str]) -> Args {
        Self::parse_from(binary, argv, allowed).unwrap_or_else(|e| {
            let help = e == ArgsError::HelpRequested;
            if !help {
                eprintln!("{e}");
            }
            Self::usage(binary, allowed);
            std::process::exit(if help { 0 } else { 2 })
        })
    }

    /// Testable core: parse an explicit argument vector.
    pub fn parse_from(
        binary: &str,
        argv: Vec<String>,
        allowed: &[&'static str],
    ) -> Result<Args, ArgsError> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let flag = &argv[i];
            if flag == "--help" || flag == "-h" {
                return Err(ArgsError::HelpRequested);
            }
            let Some(name) = flag.strip_prefix("--") else {
                return Err(ArgsError::NotAFlag(flag.clone()));
            };
            if !allowed.contains(&name) {
                return Err(ArgsError::UnknownFlag(name.to_string()));
            }
            let Some(value) = argv.get(i + 1) else {
                return Err(ArgsError::MissingValue(name.to_string()));
            };
            if values.insert(name.to_string(), value.clone()).is_some() {
                return Err(ArgsError::DuplicateFlag(name.to_string()));
            }
            i += 2;
        }
        Ok(Args {
            values,
            allowed: allowed.to_vec(),
            binary: binary.to_string(),
        })
    }

    fn usage(binary: &str, allowed: &[&'static str]) {
        eprint!("usage: {binary}");
        for a in allowed {
            eprint!(" [--{a} <value>]");
        }
        eprintln!();
    }

    /// Fetch a flag parsed as `T`, or the default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        debug_assert!(self.allowed.contains(&name), "undeclared flag {name}");
        match self.values.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("{}: cannot parse --{name} value {v:?}", self.binary);
                std::process::exit(2);
            }),
        }
    }

    /// Fetch a comma-separated list flag parsed element-wise as `T`, or
    /// the default — `--f 0.0,0.5,1.0` for sweep grids. Empty elements
    /// (`1.0,,2.0` or a trailing comma) and unparsable elements exit 2
    /// with the offending element named, so a malformed grid never
    /// silently shrinks a sweep.
    pub fn list<T: std::str::FromStr + Clone>(&self, name: &str, default: &[T]) -> Vec<T> {
        debug_assert!(self.allowed.contains(&name), "undeclared flag {name}");
        let Some(v) = self.values.get(name) else {
            return default.to_vec();
        };
        v.split(',')
            .map(|elem| {
                let elem = elem.trim();
                if elem.is_empty() {
                    eprintln!("{}: empty element in --{name} list {v:?}", self.binary);
                    std::process::exit(2);
                }
                elem.parse().unwrap_or_else(|_| {
                    eprintln!(
                        "{}: cannot parse --{name} list element {elem:?} in {v:?}",
                        self.binary
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    }

    /// Fetch an enumerated flag: the value must be one of `options`, the
    /// first of which is the default. Anything else lists the choices
    /// and exits 2 — shared by every `--mode`, so every subcommand
    /// rejects typos the same way.
    pub fn one_of(&self, name: &str, options: &[&'static str]) -> &'static str {
        debug_assert!(self.allowed.contains(&name), "undeclared flag {name}");
        debug_assert!(!options.is_empty(), "one_of needs at least one option");
        match self.values.get(name) {
            None => options[0],
            Some(v) => options.iter().copied().find(|o| o == v).unwrap_or_else(|| {
                eprintln!(
                    "{}: unknown --{name} value {v:?} (expected one of: {})",
                    self.binary,
                    options.join(", ")
                );
                std::process::exit(2);
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_defaults() {
        let a = Args::parse_from(
            "t",
            argv(&["--seed", "7", "--requests", "100"]),
            &["seed", "requests", "dims"],
        )
        .unwrap();
        assert_eq!(a.get("seed", 0u64), 7);
        assert_eq!(a.get("requests", 0usize), 100);
        assert_eq!(a.get("dims", 4u32), 4); // default
    }

    #[test]
    fn rejects_unknown_flags() {
        let e = Args::parse_from("t", argv(&["--nope", "1"]), &["seed"]).unwrap_err();
        assert_eq!(e, ArgsError::UnknownFlag("nope".into()));
    }

    #[test]
    fn rejects_bare_words() {
        let e = Args::parse_from("t", argv(&["seed", "1"]), &["seed"]).unwrap_err();
        assert_eq!(e, ArgsError::NotAFlag("seed".into()));
    }

    #[test]
    fn rejects_missing_value() {
        let e = Args::parse_from("t", argv(&["--seed"]), &["seed"]).unwrap_err();
        assert_eq!(e, ArgsError::MissingValue("seed".into()));
    }

    #[test]
    fn rejects_repeated_flags() {
        let e =
            Args::parse_from("t", argv(&["--seed", "1", "--seed", "2"]), &["seed"]).unwrap_err();
        assert_eq!(e, ArgsError::DuplicateFlag("seed".into()));
    }

    #[test]
    fn help_is_reported() {
        let e = Args::parse_from("t", argv(&["--help"]), &["seed"]).unwrap_err();
        assert_eq!(e, ArgsError::HelpRequested);
    }

    #[test]
    fn one_of_defaults_and_matches() {
        let a = Args::parse_from("t", argv(&["--mode", "smoke"]), &["mode", "policy"]).unwrap();
        assert_eq!(a.one_of("mode", &["sweep", "smoke"]), "smoke");
        assert_eq!(a.one_of("policy", &["hash", "least-loaded"]), "hash"); // default
    }

    #[test]
    fn float_lists_parse_with_defaults_and_whitespace() {
        let a = Args::parse_from(
            "t",
            argv(&["--f", "0.0,0.5, 1.0", "--r", "3"]),
            &["f", "r", "w"],
        )
        .unwrap();
        assert_eq!(a.list("f", &[9.0f64]), vec![0.0, 0.5, 1.0]);
        assert_eq!(a.list("r", &[1u32, 2]), vec![3]); // single element
        assert_eq!(a.list("w", &[0.1f64, 0.2]), vec![0.1, 0.2]); // default
    }

    #[test]
    fn floats_and_bools_parse() {
        let a = Args::parse_from(
            "t",
            argv(&["--f", "2.5", "--quick", "true"]),
            &["f", "quick"],
        )
        .unwrap();
        assert_eq!(a.get("f", 0.0f64), 2.5);
        assert!(a.get("quick", false));
    }
}
