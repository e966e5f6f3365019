//! Minimal dependency-free flag parser for the `pacga` binary.
//!
//! Supports `--flag value` and `--flag=value` forms plus bare boolean
//! flags; unknown flags are errors (catches typos early).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus flag map.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The first positional token (subcommand); `dispatch` matches on it
    /// before parsing, so library users may ignore it.
    #[allow(dead_code)]
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Flag-parsing errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A token did not look like `--flag`.
    NotAFlag(String),
    /// A value could not be parsed.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending text.
        value: String,
        /// Expected kind.
        expected: &'static str,
    },
    /// A required flag was absent.
    Missing(String),
    /// A flag not in `allowed` appeared. Named with the subcommand so
    /// `pacga sweep --evalz 10` says exactly which command rejected what
    /// (instead of a bare "unknown flag" — or, worse, silence).
    Unknown {
        /// The subcommand that rejected the flag.
        command: String,
        /// The rejected flag (without the `--`).
        flag: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::NotAFlag(t) => write!(f, "expected --flag, found {t:?}"),
            ArgError::BadValue { flag, value, expected } => {
                write!(f, "--{flag}: cannot parse {value:?} as {expected}")
            }
            ArgError::Missing(flag) => write!(f, "required flag --{flag} missing"),
            ArgError::Unknown { command, flag } => {
                write!(f, "unknown flag --{flag} for `pacga {command}`")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw tokens (without the program name). `allowed` lists the
    /// valid flag names for the subcommand; boolean flags take the value
    /// `"true"` when given without one.
    pub fn parse<I: IntoIterator<Item = String>>(
        tokens: I,
        allowed: &[&str],
    ) -> Result<Self, ArgError> {
        let mut it = tokens.into_iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        let mut flags = BTreeMap::new();
        while let Some(tok) = it.next() {
            let name = tok.strip_prefix("--").ok_or_else(|| ArgError::NotAFlag(tok.clone()))?;
            let (key, value) = if let Some((k, v)) = name.split_once('=') {
                (k.to_string(), v.to_string())
            } else if it.peek().map(|n| !n.starts_with("--")).unwrap_or(false) {
                (name.to_string(), it.next().expect("peeked"))
            } else {
                (name.to_string(), "true".to_string())
            };
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError::Unknown { command, flag: key });
            }
            flags.insert(key, value);
        }
        Ok(Self { command, flags })
    }

    /// String flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, flag: &str) -> Result<&str, ArgError> {
        self.get(flag).ok_or_else(|| ArgError::Missing(flag.to_string()))
    }

    /// Typed flag with default.
    pub fn get_parse<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// Boolean flag (present without value, or `true`/`false`).
    pub fn get_bool(&self, flag: &str) -> Result<bool, ArgError> {
        self.get_parse(flag, false, "bool")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = Args::parse(toks("schedule --threads 3 --seed=7"), &["threads", "seed"]).unwrap();
        assert_eq!(a.command, "schedule");
        assert_eq!(a.get("threads"), Some("3"));
        assert_eq!(a.get("seed"), Some("7"));
    }

    #[test]
    fn boolean_flags() {
        let a = Args::parse(toks("info --verbose --name x"), &["verbose", "name"]).unwrap();
        assert!(a.get_bool("verbose").unwrap());
        assert!(!a.get_bool("quiet").unwrap());
    }

    #[test]
    fn typed_with_default() {
        let a = Args::parse(toks("x --n 12"), &["n"]).unwrap();
        assert_eq!(a.get_parse("n", 0usize, "usize").unwrap(), 12);
        assert_eq!(a.get_parse("m", 5usize, "usize").unwrap(), 5);
    }

    #[test]
    fn bad_value_reported() {
        let a = Args::parse(toks("x --n twelve"), &["n"]).unwrap();
        let err = a.get_parse("n", 0usize, "usize").unwrap_err();
        assert!(matches!(err, ArgError::BadValue { .. }));
        assert!(err.to_string().contains("twelve"));
    }

    #[test]
    fn unknown_flag_rejected_with_command_name() {
        let err = Args::parse(toks("x --oops 1"), &["n"]).unwrap_err();
        assert_eq!(err, ArgError::Unknown { command: "x".into(), flag: "oops".into() });
        assert_eq!(err.to_string(), "unknown flag --oops for `pacga x`");
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(Args::parse(Vec::new(), &[]).unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn require_reports_missing() {
        let a = Args::parse(toks("x"), &["name"]).unwrap();
        assert!(matches!(a.require("name"), Err(ArgError::Missing(_))));
    }

    #[test]
    fn positional_after_flag_value_rejected() {
        let err = Args::parse(toks("x --n 1 stray"), &["n"]).unwrap_err();
        assert!(matches!(err, ArgError::NotAFlag(_)));
    }
}
