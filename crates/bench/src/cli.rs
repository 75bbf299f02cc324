//! The one command-line parser of the `repro_*` binaries.
//!
//! A binary declares its value flags (`--shards 4`) and switches
//! (`--stream`); anything else that does not start with `-` is the one
//! positional argument (an output or fixtures directory). Flags, switches
//! and the positional may come in any order. `--help` prints the usage
//! text on stdout and exits 0; an unknown flag, a second positional, a
//! flag without its value or a value that does not parse prints
//! `<bin>: <what>` and the usage text on stderr and exits 2.
//!
//! Binaries that dump telemetry list `--telemetry` among their value
//! flags and hand [`Cli::telemetry_dir`] to [`crate::telemetry`].

use std::str::FromStr;

/// What a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Binary name, the prefix of every error line.
    pub bin: &'static str,
    /// Usage text: after an error on stderr, for `--help` on stdout.
    pub usage: &'static str,
    /// Flags that take a value.
    pub values: &'static [&'static str],
    /// Flags that take none.
    pub switches: &'static [&'static str],
}

/// Why parsing stopped short of a [`Cli`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `--help` / `-h` was given.
    Help,
    /// The command line is wrong; the text says how.
    Usage(String),
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    spec: Spec,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positional: Option<String>,
}

impl Spec {
    /// Parses the process's arguments, exiting on `--help` (0) and on a
    /// usage error (2).
    pub fn parse(self) -> Cli {
        match self.parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(Stop::Help) => {
                print!("{}", self.usage);
                std::process::exit(0);
            }
            Err(Stop::Usage(detail)) => self.exit_usage(&detail),
        }
    }

    /// [`Spec::parse`] for a binary that takes no positional argument: one
    /// is a usage error, like an unknown flag.
    pub fn parse_without_positional(self) -> Cli {
        let cli = self.parse();
        if let Some(arg) = cli.positional() {
            cli.fail(&format!("unexpected argument {arg:?}"));
        }
        cli
    }

    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// [`Stop::Help`] on `--help`; [`Stop::Usage`] on an unknown flag, a
    /// second positional or a value flag at the end of the line.
    pub fn parse_from(self, args: impl IntoIterator<Item = String>) -> Result<Cli, Stop> {
        let mut cli =
            Cli { spec: self, values: Vec::new(), switches: Vec::new(), positional: None };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help);
            } else if let Some(&flag) = self.values.iter().find(|&&f| f == arg) {
                let value =
                    args.next().ok_or_else(|| Stop::Usage(format!("{flag} needs a value")))?;
                cli.values.push((flag, value));
            } else if let Some(&flag) = self.switches.iter().find(|&&f| f == arg) {
                cli.switches.push(flag);
            } else if arg.starts_with('-') || cli.positional.is_some() {
                return Err(Stop::Usage(format!("unexpected argument {arg:?}")));
            } else {
                cli.positional = Some(arg);
            }
        }
        Ok(cli)
    }

    fn exit_usage(&self, detail: &str) -> ! {
        eprintln!("{}: {detail}\n\n{}", self.bin, self.usage);
        std::process::exit(2);
    }
}

impl Cli {
    /// The raw value of `flag`; of a repeated flag, the last.
    fn raw(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| *f == flag).map(|(_, raw)| raw.as_str())
    }

    /// The value of `flag`, parsed.
    ///
    /// # Errors
    ///
    /// The usage-error text if the value does not parse as a `T`.
    pub fn try_value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let Some(raw) = self.raw(flag) else { return Ok(None) };
        raw.trim().parse().map(Some).map_err(|_| format!("cannot parse {flag} value {raw:?}"))
    }

    /// [`Cli::try_value`], exiting 2 with the usage text on a value that
    /// does not parse.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.try_value(flag).unwrap_or_else(|detail| self.fail(&detail))
    }

    /// Whether `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The positional argument, if any.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// The `--telemetry` directory, if the flag was given.
    pub fn telemetry_dir(&self) -> Option<&str> {
        self.raw("--telemetry")
    }

    /// Exits 2 as a usage error — for a value that parsed but is out of
    /// the binary's range.
    pub fn fail(&self, detail: &str) -> ! {
        self.spec.exit_usage(detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        bin: "repro_x",
        usage: "usage: repro_x [out_dir] [--stream] [--shards N] [--telemetry DIR]\n",
        values: &["--shards", "--telemetry"],
        switches: &["--stream"],
    };

    fn parse(line: &str) -> Result<Cli, Stop> {
        SPEC.parse_from(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn value_switch_and_positional_in_any_order() {
        for line in [
            "out --stream --shards 4 --telemetry tel",
            "--shards 4 out --telemetry tel --stream",
            "--telemetry tel --stream --shards 4 out",
        ] {
            let cli = parse(line).unwrap();
            assert_eq!(cli.positional(), Some("out"), "{line}");
            assert!(cli.switch("--stream"), "{line}");
            assert_eq!(cli.value::<usize>("--shards"), Some(4), "{line}");
            assert_eq!(cli.telemetry_dir(), Some("tel"), "{line}");
        }
        let bare = parse("").unwrap();
        assert_eq!(bare.positional(), None);
        assert!(!bare.switch("--stream"));
        assert_eq!(bare.value::<usize>("--shards"), None);
        assert_eq!(bare.telemetry_dir(), None);
        // A repeated flag keeps its last value.
        assert_eq!(parse("--shards 2 --shards 8").unwrap().value::<usize>("--shards"), Some(8));
    }

    #[test]
    fn help_wins_wherever_it_stands() {
        assert_eq!(parse("--help").unwrap_err(), Stop::Help);
        assert_eq!(parse("out --shards 4 -h").unwrap_err(), Stop::Help);
    }

    #[test]
    fn the_three_usage_errors_say_what_is_wrong() {
        let usage = |line: &str| match parse(line) {
            Err(Stop::Usage(detail)) => detail,
            other => panic!("{line:?} parsed to {other:?}"),
        };
        assert_eq!(usage("--frobnicate"), "unexpected argument \"--frobnicate\"");
        assert_eq!(usage("out again"), "unexpected argument \"again\"");
        assert_eq!(usage("out --shards"), "--shards needs a value");
        let unparsable = parse("--shards four").unwrap().try_value::<usize>("--shards");
        assert_eq!(unparsable.unwrap_err(), "cannot parse --shards value \"four\"");
    }
}
