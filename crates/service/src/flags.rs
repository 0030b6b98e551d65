//! The command-line parser of the `mwd` and `loadgen` front ends.
//!
//! A command declares its flags once, as a list such as
//! `["--all", "--engine=", "--threads="]`: a trailing `=` marks a flag
//! that takes the next argument as its value (verbatim, even when it
//! starts with `--`); any other entry is a switch. The list is the
//! command's allow-list: any other `--flag` is refused with an error
//! naming the command and the flag. Arguments that do not start with
//! `--` are operands, kept in order. A flag given more than once reads
//! as its last value; [`Flags::all`] reads every value.

use std::path::PathBuf;
use std::str::FromStr;

/// What a malformed count needs, for [`Flags::value`].
pub const COUNT: &str = "a non-negative integer";

/// One command's parsed arguments.
#[derive(Debug)]
pub struct Flags {
    cmd: String,
    accepts: Vec<String>,
    operands: Vec<String>,
    /// Every flag given, in order, with its value (`None` for a switch).
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse `args` against `accepts`, the flag list of `cmd` (the name
    /// errors use, e.g. `mwd run`).
    pub fn parse(cmd: &str, accepts: &[&str], args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            cmd: cmd.to_string(),
            accepts: accepts.iter().map(|f| f.to_string()).collect(),
            operands: Vec::new(),
            given: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                flags.operands.push(arg.clone());
                continue;
            }
            let value = match accepts.iter().find(|f| f.trim_end_matches('=') == arg) {
                None => return Err(format!("`{cmd}` does not take `{arg}`")),
                Some(f) if f.ends_with('=') => {
                    let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    Some(value.clone())
                }
                Some(_) => None,
            };
            flags.given.push((arg.clone(), value));
        }
        Ok(flags)
    }

    /// Every value given for `flag`, in order.
    ///
    /// # Panics
    /// If `flag` is not in the command's list: reading a flag the
    /// command never accepts is a bug in the caller.
    pub fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        assert!(
            self.accepts.iter().any(|f| f.trim_end_matches('=') == flag),
            "`{}` reads {flag}, which is not in its flag list",
            self.cmd
        );
        self.given
            .iter()
            .filter(move |(f, _)| f == flag)
            .map(|(_, v)| v.as_deref().unwrap_or_default())
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.all(flag).next().is_some()
    }

    /// The last value of `flag`.
    pub fn string<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.all(flag).last()
    }

    /// The last value of `flag` as a path.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.string(flag).map(PathBuf::from)
    }

    /// The last value of `flag` parsed as `T`; a value that does not
    /// parse is an error saying what the flag `needs` (e.g. [`COUNT`]).
    pub fn value<T: FromStr>(&self, flag: &str, needs: &str) -> Result<Option<T>, String> {
        self.string(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag} needs {needs}")))
            .transpose()
    }

    /// The last value of `flag` as a count of at least 1.
    pub fn positive(&self, flag: &str) -> Result<Option<usize>, String> {
        const NEEDS: &str = "a positive integer";
        match self.value(flag, NEEDS)? {
            Some(0) => Err(format!("{flag} needs {NEEDS}")),
            n => Ok(n),
        }
    }

    /// The arguments that are neither flags nor flag values, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Refuse any operand, for a command that takes only flags.
    pub fn no_operands(&self) -> Result<(), String> {
        match self.operands.first() {
            Some(arg) => Err(format!("`{}` does not take `{arg}`", self.cmd)),
            None => Ok(()),
        }
    }
}
