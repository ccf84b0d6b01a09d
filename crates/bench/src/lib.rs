//! Shared plumbing for the benchmark binaries (the six `bench_*` and
//! `paper`): wall-clock timing, the hand-rolled JSON string escaping every
//! emitter uses, and the one strict command-line parser — kept in one place
//! so the machine-readable outputs and the argument handling cannot drift.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::str::FromStr;
use std::time::Instant;

/// Runs `f`, returning its result and the elapsed wall-clock seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Escapes a construction name for embedding in a JSON string literal
/// (backslashes and quotes; the workspace's names contain nothing else that
/// needs escaping).
#[must_use]
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Prints `problem` and `usage` to stderr and exits with status 2 — what
/// every binary does with a command line it does not understand, before
/// doing any work.
pub fn usage_exit(usage: &str, problem: &str) -> ! {
    eprintln!("error: {problem}\nusage: {usage}");
    std::process::exit(2);
}

/// Optional positional arguments, each with a default: absent means the
/// default, present must parse, and nothing may be left over.
#[derive(Debug)]
pub struct Args {
    usage: String,
    rest: std::vec::IntoIter<String>,
}

impl Args {
    /// Parses `args` (the command line after the program and any subcommand
    /// name) for a command described by `usage`.
    pub fn new(usage: impl Into<String>, args: impl IntoIterator<Item = String>) -> Self {
        Args {
            usage: usage.into(),
            rest: args.into_iter().collect::<Vec<_>>().into_iter(),
        }
    }

    fn try_next<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.rest.next() {
            None => Ok(default),
            Some(arg) => arg
                .parse()
                .map_err(|_| format!("cannot read {name} from `{arg}`")),
        }
    }

    fn try_take<const N: usize>(
        &mut self,
        defaults: [(&str, usize); N],
    ) -> Result<[usize; N], String> {
        let mut values = [0; N];
        for (value, (name, default)) in values.iter_mut().zip(defaults) {
            *value = self.try_next(name, default)?;
        }
        match self.rest.next() {
            None => Ok(values),
            Some(arg) => Err(format!("unexpected argument `{arg}`")),
        }
    }

    /// The next positional argument `name`, or `default` when the command
    /// line has run out. Exits with the usage when it does not parse.
    pub fn next_or<T: FromStr>(&mut self, name: &str, default: T) -> T {
        self.try_next(name, default)
            .unwrap_or_else(|problem| usage_exit(&self.usage, &problem))
    }

    /// The remaining positional arguments — whole numbers, `(name,
    /// default)` each — and the end of the command line. Exits with the
    /// usage when one does not parse or an argument is left over.
    #[must_use]
    pub fn take<const N: usize>(mut self, defaults: [(&str, usize); N]) -> [usize; N] {
        self.try_take(defaults)
            .unwrap_or_else(|problem| usage_exit(&self.usage, &problem))
    }
}

/// Ends a gate binary: prints every failure to stderr and exits 1 if there
/// is one.
pub fn exit_on_failures(failures: &[String]) {
    for failure in failures {
        eprintln!("ERROR: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn parse_bench_args(
    args: impl IntoIterator<Item = String>,
    default_output: &str,
) -> Result<(bool, String), String> {
    let mut quick = false;
    let mut output = None;
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown option `{arg}`"));
        } else if output.replace(arg).is_some() {
            return Err("more than one output path".to_string());
        }
    }
    Ok((quick, output.unwrap_or_else(|| default_output.to_string())))
}

/// The command line every `bench_*` binary takes, `[--quick]
/// [output.json]`, read from the process arguments: `(quick, output)`.
/// Exits with the usage on any other `--option` or a second path.
#[must_use]
pub fn bench_args(bin: &str, default_output: &str) -> (bool, String) {
    parse_bench_args(std::env::args().skip(1), default_output)
        .unwrap_or_else(|problem| usage_exit(&format!("{bin} [--quick] [output.json]"), &problem))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_backslashes() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("M-Grid(n=49, b=3)"), "M-Grid(n=49, b=3)");
    }

    #[test]
    fn time_reports_result_and_duration() {
        let (v, secs) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn positional_arguments_default_parse_or_fail() {
        let args = |given: &[&str]| Args::new("t [p] [side] [b]", strings(given));
        let mut some = args(&["0.5", "12"]);
        assert_eq!(some.try_next("p", 0.125f64), Ok(0.5));
        assert_eq!(some.try_take([("side", 7), ("b", 3)]), Ok([12, 3]));
        assert!(args(&["1o"]).try_take([("side", 7)]).is_err());
        assert!(args(&["3", "4"]).try_take([("side", 7)]).is_err());
    }

    #[test]
    fn bench_arguments_reject_unknown_options() {
        let parse = |args: &[&str]| parse_bench_args(strings(args), "BENCH_x.json");
        assert_eq!(parse(&[]), Ok((false, "BENCH_x.json".to_string())));
        assert_eq!(
            parse(&["out.json", "--quick"]),
            Ok((true, "out.json".to_string()))
        );
        // The old loop took any other argument for the output path: a typo
        // ran the full matrix and wrote a file named `--quik`.
        assert!(parse(&["--quik", "out.json"]).is_err());
        assert!(parse(&["a.json", "b.json"]).is_err());
    }
}
