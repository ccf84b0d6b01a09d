//! Shared plumbing for the benchmark binaries (the six `bench_*` and
//! `paper`): wall-clock timing, the one strict command-line parser, and the
//! one report writer.
//!
//! A `bench_*` binary builds its report once as a [`Json`] value, records
//! each acceptance check on a [`Gate`], and ends with [`Gate::finish`],
//! which writes the report, prints it, and fails the process on any missed
//! check. JSON syntax and layout live in this module only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::str::FromStr;
use std::time::Instant;

/// Runs `f`, returning its result and the elapsed wall-clock seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A report value. A number keeps the text it was formatted to (`{}`,
/// `{:e}`, `{:.12}`, exact `u64`s), so a report's values read exactly as
/// the binary formatted them; an object keeps its members in order.
#[derive(Debug, PartialEq)]
pub enum Json {
    /// `null`: a field with no value for this row.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its already-formatted text.
    Num(String),
    /// A string (escaped when written).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object with `members`, in order.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(members.into_iter().collect())
    }

    /// An array of `items`.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A number written with `{}`.
    pub fn num(x: impl Display) -> Json {
        Json::Num(x.to_string())
    }

    /// A number written with `{:e}`.
    pub fn sci(x: f64) -> Json {
        Json::Num(format!("{x:e}"))
    }

    /// A number written with `digits` decimals.
    pub fn fixed(x: f64, digits: usize) -> Json {
        Json::Num(format!("{x:.digits$}"))
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// This object with `key` appended, unless `value` is `None`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Option<Json>>) -> Json {
        let Json::Obj(members) = &mut self else {
            panic!("`with` appends to an object")
        };
        members.extend(value.into().map(|v| (key, v)));
        self
    }

    /// The report's text. One layout rule: the top-level object has one
    /// member per line, a top-level member whose children are all objects
    /// has one child per line, and everything else is written inline.
    fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let children: Vec<(Option<&str>, &Json)> = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => return out.push_str(text),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(members) => members.iter().map(|(k, v)| (Some(*k), v)).collect(),
        };
        let (open, close) = match self {
            Json::Arr(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        let holds_objects = children.iter().all(|(_, v)| matches!(v, Json::Obj(_)));
        let (separator, lead, tail) = if depth == 0 || (depth == 1 && holds_objects) {
            let indent = "  ".repeat(depth);
            (",", format!("\n{indent}  "), format!("\n{indent}"))
        } else {
            (", ", String::new(), String::new())
        };
        out.push(open);
        for (i, (key, value)) in children.into_iter().enumerate() {
            if i > 0 {
                out.push_str(separator);
            }
            out.push_str(&lead);
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        out.push_str(&tail);
        out.push(close);
    }
}

/// Writes `s` as a JSON string literal (backslashes and quotes escaped; the
/// workspace's names and failure details contain nothing else that needs
/// escaping).
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&s.replace('\\', "\\\\").replace('"', "\\\""));
    out.push('"');
}

/// The acceptance gate of one bench run: every missed check, in order.
#[derive(Debug, Default)]
pub struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// Records `detail` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, detail: impl Into<String>) {
        if !ok {
            self.failures.push(detail.into());
        }
    }

    /// Whether every check so far held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failures so far, as a JSON array of their details.
    #[must_use]
    pub fn failures(&self) -> Json {
        Json::arr(self.failures.iter().map(Json::str))
    }

    /// Ends the run: writes `report` to `output`, prints it to stdout, lists
    /// every failure on stderr and exits 1 if there is one.
    pub fn finish(self, output: &str, report: &Json) {
        let text = report.render();
        std::fs::write(output, &text).expect("write benchmark output");
        print!("{text}");
        for failure in &self.failures {
            eprintln!("ERROR: {failure}");
        }
        if !self.passed() {
            std::process::exit(1);
        }
    }
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

    /// The document `{"key": value}` as the writer lays it out.
    fn one_member(key: &'static str, value: Json) -> String {
        Json::obj([(key, value)]).render()
    }

    #[test]
    fn strings_escape_quotes_and_backslashes_and_failures_wrap_inline() {
        let failures = Json::arr([Json::str(r#"a"b\c"#), Json::str("M-Grid(n=49, b=3)")]);
        assert_eq!(
            one_member("failures", failures),
            "{\n  \"failures\": [\"a\\\"b\\\\c\", \"M-Grid(n=49, b=3)\"]\n}\n"
        );
        // An empty top-level array keeps the committed files' wrapping.
        assert_eq!(
            one_member("failures", Gate::default().failures()),
            "{\n  \"failures\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn the_load_comparison_line_is_written_as_committed() {
        let line = r#"{"construction": "Threshold(18-of-24)", "explicit_quorums": 134596, "explicit_load": 0.750000000000, "explicit_seconds": 2.92094108e-1, "cg_load": 0.750000000000, "cg_seconds": 2.9908e-5, "ratio": 9766.4}"#;
        let member = Json::obj([
            ("construction", Json::str("Threshold(18-of-24)")),
            ("explicit_quorums", Json::num(134_596)),
            ("explicit_load", Json::fixed(0.75, 12)),
            ("explicit_seconds", Json::sci(0.292_094_108)),
            ("cg_load", Json::fixed(0.75, 12)),
            ("cg_seconds", Json::sci(2.9908e-5)),
            ("ratio", Json::fixed(9766.44, 1)),
        ]);
        assert_eq!(
            one_member("explicit_vs_cg", member),
            format!("{{\n  \"explicit_vs_cg\": {line}\n}}\n")
        );
    }

    #[test]
    fn a_reconfig_run_row_with_its_phases_is_written_as_committed() {
        let line = r#"{"backend": "loopback", "scenario": "clean_crash", "seed": 784418326, "killed": [0, 1, 2], "healthy_steady": true, "reconfigured": true, "detect_ticks": 3, "suspects": [0, 1, 2], "detection_exact": true, "epochs": [0, 1], "source": "Grid(5x5, b=1)", "initial_load": 6.40000000000009e-1, "recertified_load": 8.75e-1, "measured_max_load": 8.903333333333333e-1, "sigma": 6.038073644245599e-3, "tolerance": 3.343445903673852e-2, "z": 2.53944125837986e0, "within_tolerance": true, "load_operations": 3000, "safety_violations": 0, "fenced_after_finalize": 120, "stale_completed": 0, "trace_fingerprint": 14335776359201785990, "fingerprint": 1321298250859273173, "phases": [{"name": "healthy", "epoch": 0, "scheduled": 800, "completed": 800, "fenced": 0, "timed_out": 0}, {"name": "detect", "epoch": 0, "scheduled": 400, "completed": 331, "fenced": 0, "timed_out": 69}, {"name": "detect", "epoch": 0, "scheduled": 400, "completed": 321, "fenced": 0, "timed_out": 79}, {"name": "detect", "epoch": 0, "scheduled": 400, "completed": 324, "fenced": 0, "timed_out": 76}, {"name": "migrate", "epoch": 1, "scheduled": 300, "completed": 300, "fenced": 0, "timed_out": 0}, {"name": "stale_probe", "epoch": 0, "scheduled": 120, "completed": 0, "fenced": 120, "timed_out": 0}, {"name": "measure", "epoch": 1, "scheduled": 3000, "completed": 3000, "fenced": 0, "timed_out": 0}], "seconds": 1.348548068e0}"#;
        let ints = |xs: &[u64]| Json::arr(xs.iter().map(Json::num));
        let phases = [
            ("healthy", 0, 800, 800, 0, 0),
            ("detect", 0, 400, 331, 0, 69),
            ("detect", 0, 400, 321, 0, 79),
            ("detect", 0, 400, 324, 0, 76),
            ("migrate", 1, 300, 300, 0, 0),
            ("stale_probe", 0, 120, 0, 120, 0),
            ("measure", 1, 3000, 3000, 0, 0),
        ]
        .map(|(name, epoch, scheduled, completed, fenced, timed_out)| {
            Json::obj([
                ("name", Json::str(name)),
                ("epoch", Json::num(epoch)),
                ("scheduled", Json::num(scheduled)),
                ("completed", Json::num(completed)),
                ("fenced", Json::num(fenced)),
                ("timed_out", Json::num(timed_out)),
            ])
        });
        let row = Json::obj([
            ("backend", Json::str("loopback")),
            ("scenario", Json::str("clean_crash")),
            ("seed", Json::num(784_418_326)),
            ("killed", ints(&[0, 1, 2])),
            ("healthy_steady", Json::Bool(true)),
            ("reconfigured", Json::Bool(true)),
            ("detect_ticks", Json::num(3)),
            ("suspects", ints(&[0, 1, 2])),
            ("detection_exact", Json::Bool(true)),
            ("epochs", ints(&[0, 1])),
            ("source", Json::str("Grid(5x5, b=1)")),
            ("initial_load", Json::sci(0.640_000_000_000_009)),
            ("recertified_load", Json::sci(0.875)),
            ("measured_max_load", Json::sci(0.890_333_333_333_333_3)),
            ("sigma", Json::sci(6.038_073_644_245_599e-3)),
            ("tolerance", Json::sci(3.343_445_903_673_852e-2)),
            ("z", Json::sci(2.539_441_258_379_86)),
            ("within_tolerance", Json::Bool(true)),
            ("load_operations", Json::num(3000)),
            ("safety_violations", Json::num(0)),
            ("fenced_after_finalize", Json::num(120)),
            ("stale_completed", Json::num(0)),
            (
                "trace_fingerprint",
                Json::num(14_335_776_359_201_785_990u64),
            ),
            ("fingerprint", Json::num(1_321_298_250_859_273_173u64)),
            ("phases", Json::arr(phases)),
            ("seconds", Json::sci(1.348_548_068)),
        ]);
        assert_eq!(
            one_member("runs", Json::arr([row])),
            format!("{{\n  \"runs\": [\n    {line}\n  ]\n}}\n")
        );
    }

    #[test]
    fn a_net_sweep_row_without_a_load_check_writes_nulls_as_committed() {
        let line = r#"{"backend": "uds", "construction": "Grid(n=25, b=1) [strategic]", "n": 25, "b": 1, "generator": "open_loop", "offered_ops_per_sec": 96000.0, "realized_offered_ops_per_sec": 94988.0, "achieved_ops_per_sec": 83767.3, "saturated": true, "scheduled": 24000, "completed_writes": 4738, "completed_reads": 18942, "inconclusive_reads": 0, "shed": 320, "timed_out": 0, "no_live_quorum": 0, "rejected_sends": 0, "safety_violations": 0, "peak_in_flight": 3412, "latency_mean_ns": 10113928, "latency_p50_ns": 6616331, "latency_p90_ns": 25629687, "latency_p99_ns": 40960326, "latency_max_ns": 46600694, "latency_hist_p50_ns": 6291456, "latency_hist_p99_ns": 50331648, "latency_hist_p999_ns": 50331648, "elapsed_seconds": 2.82687801e-1, "seconds": 3.03680838e-1, "certified_load": null, "empirical_max_load": null, "sigma": null, "tolerance": null, "z": null, "within_tolerance": null}"#;
        let counts = [
            ("scheduled", 24_000),
            ("completed_writes", 4738),
            ("completed_reads", 18_942),
            ("inconclusive_reads", 0),
            ("shed", 320),
            ("timed_out", 0),
            ("no_live_quorum", 0),
            ("rejected_sends", 0),
            ("safety_violations", 0),
            ("peak_in_flight", 3412),
            ("latency_mean_ns", 10_113_928),
            ("latency_p50_ns", 6_616_331),
            ("latency_p90_ns", 25_629_687),
            ("latency_p99_ns", 40_960_326),
            ("latency_max_ns", 46_600_694),
            ("latency_hist_p50_ns", 6_291_456),
            ("latency_hist_p99_ns", 50_331_648),
            ("latency_hist_p999_ns", 50_331_648),
        ];
        let head = [
            ("backend", Json::str("uds")),
            ("construction", Json::str("Grid(n=25, b=1) [strategic]")),
            ("n", Json::num(25)),
            ("b", Json::num(1)),
            ("generator", Json::str("open_loop")),
            ("offered_ops_per_sec", Json::fixed(96_000.0, 1)),
            ("realized_offered_ops_per_sec", Json::fixed(94_988.04, 1)),
            ("achieved_ops_per_sec", Json::fixed(83_767.26, 1)),
            ("saturated", Json::Bool(true)),
        ];
        let times = [
            ("elapsed_seconds", Json::sci(0.282_687_801)),
            ("seconds", Json::sci(0.303_680_838)),
        ];
        let no_check = [
            "certified_load",
            "empirical_max_load",
            "sigma",
            "tolerance",
            "z",
            "within_tolerance",
        ]
        .map(|key| (key, Json::Null));
        let row = Json::obj(
            head.into_iter()
                .chain(counts.map(|(key, v)| (key, Json::num(v))))
                .chain(times)
                .chain(no_check),
        );
        assert_eq!(
            one_member("sweep", Json::arr([row])),
            format!("{{\n  \"sweep\": [\n    {line}\n  ]\n}}\n")
        );
    }

    #[test]
    fn a_top_level_object_of_objects_has_one_child_per_line() {
        let fronts = Json::obj([
            ("a", Json::obj([("x", Json::num(1))])),
            ("b", Json::obj([("y", Json::obj([("z", Json::Null)]))])),
        ]);
        let doc = Json::obj([("schema", Json::str("t/v1")), ("fronts", fronts)]);
        assert_eq!(
            doc.render(),
            "{\n  \"schema\": \"t/v1\",\n  \"fronts\": {\n    \"a\": {\"x\": 1},\n    \"b\": {\"y\": {\"z\": null}}\n  }\n}\n"
        );
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
