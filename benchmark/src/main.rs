//! `bench`: the repository's one performance benchmark (see README.md and
//! `BENCHMARK.json` at the repository root).
//!
//! ```text
//! bench run --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! bench all [--seed <u64>] [--seconds <n>] [--runs <k>] [--trace <0|1|both>] [--out <file>]
//! bench compare <a.json> <b.json>
//! bench check
//! bench selfcheck
//! ```

mod adapter;
mod analysis;
mod compare;
mod hist;
mod json;
mod procfs;
mod register;
mod spec;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use spec::{Metric, MetricSet, END_TO_END, PER_LAYER, WORKLOADS};

/// What `bench all` measures for when `--seconds` is not given; the same as
/// `run_seconds` in `BENCHMARK.json` (`bench check` compares them).
const DEFAULT_SECONDS: u64 = 25;

/// The arguments of one `bench run`.
pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run may write (sockets, trace files): `benchmark/out`.
    pub out_dir: PathBuf,
}

/// What one run measured and whether its outputs were right.
pub struct RunOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every reason the outputs are not correct; empty when they are.
    pub faults: Vec<String>,
    pub metrics: MetricSet,
}

/// The median of `values` (the mean of the middle two for an even count);
/// sorts them in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The value at the best decile of `values` (nearest rank): the 10th
/// percentile where lower is better, the 90th where higher is.
///
/// The reference box shares its cores with a neighbour that slows one by a
/// fifth for a second or so at a time, for a share of the time that drifts
/// over minutes. A mean or median over a window therefore reads anywhere
/// between the undisturbed value and a fifth worse, depending on how much of
/// the window was disturbed. So each end-to-end metric is taken per
/// half-second slice (per sub-task in `analysis-pass`) and the reported value
/// is the slice at the best decile: the machine's undisturbed state, as long
/// as a tenth of the window was undisturbed, and not a freak best case. It
/// shifts with a real regression exactly as a median does.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quiet(values: &[f64], better: spec::Better) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((0.1 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    match better {
        spec::Better::Lower => sorted[rank - 1],
        spec::Better::Higher => sorted[sorted.len() - rank],
    }
}

/// `--key value` pairs; every key must be one the command knows.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut flags = BTreeMap::new();
        let mut rest = args.iter();
        while let Some(key) = rest.next() {
            let name = key
                .strip_prefix("--")
                .filter(|name| known.contains(name))
                .ok_or_else(|| format!("unknown argument {key}; known: {known:?}"))?;
            let value = rest.next().ok_or_else(|| format!("{key} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Flags(flags))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.0
            .get(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("--{name} {raw}: not a valid value"))
            })
            .transpose()
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }
}

/// The repository root: the directory holding `BENCHMARK.json`, which is the
/// working directory or its parent. Kept relative so that socket paths under
/// it stay short.
fn repo_root() -> Result<PathBuf, String> {
    [".", ".."]
        .into_iter()
        .map(PathBuf::from)
        .find(|dir| dir.join("BENCHMARK.json").is_file() && dir.join("benchmark").is_dir())
        .ok_or_else(|| "run from the repository root (the directory of BENCHMARK.json)".into())
}

/// The checked-out revision, read from `.git` without starting a process;
/// `unknown` outside a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(git.join(reference))
        .map(|hash| hash.trim().to_string())
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn environment(root: &Path) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("git", Json::str(git_revision(root))),
    ]
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .into_iter()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name}; known: {WORKLOADS:?}"))
}

/// `bench run`: one workload, one mode. Prints every metric by name with its
/// unit, then the result object as the last line.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    let root = repo_root()?;
    // Read before the run: a workload that pins its threads narrows what
    // `available_parallelism` reports afterwards.
    let env: Vec<String> = environment(&root)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let out_dir = root.join("benchmark").join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let run_args = RunArgs {
        workload: workload_name(&flags.require::<String>("workload")?)?,
        seed: flags.require("seed")?,
        seconds: flags.require("seconds")?,
        trace: match flags.require::<u8>("trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other}: 0 or 1")),
        },
        out_dir,
    };
    if !(run_args.seconds > 0.0 && run_args.seconds <= 60.0) {
        return Err(format!("--seconds {}: between 0 and 60", run_args.seconds));
    }
    let outcome = if run_args.workload == spec::ANALYSIS_PASS {
        analysis::run(&run_args)?
    } else {
        register::run(&run_args)?
    };

    println!(
        "# workload={} seed={} seconds={} trace={} {}",
        run_args.workload,
        run_args.seed,
        run_args.seconds,
        u8::from(run_args.trace),
        env.join(" ")
    );
    println!("# host loopback / Unix-domain sockets only, no injected delay: latency is processor + kernel time");
    for (metric, value) in outcome.metrics.entries() {
        println!("{:<40} {:>18.6} {}", metric.name, value, metric.unit);
    }
    for fault in outcome.faults.iter().take(20) {
        eprintln!("INCORRECT: {fault}");
    }
    let correct = outcome.faults.is_empty();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", outcome.metrics.to_json()),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `bench all`: every workload, each run in a child process of its own so
/// that memory high-water marks, thread pools and CPU counters never leak
/// from one workload into the next. Writes a result file for `bench compare`.
fn all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "runs", "trace", "out"])?;
    let root = repo_root()?;
    let seed: u64 = flags.get("seed")?.unwrap_or(1);
    let seconds: u64 = flags.get("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let runs: u64 = flags.get("runs")?.unwrap_or(1);
    let modes: &[u8] = match flags.get::<String>("trace")?.as_deref() {
        None | Some("both") => &[0, 1],
        Some("0") => &[0],
        Some("1") => &[1],
        Some(other) => return Err(format!("--trace {other}: 0, 1 or both")),
    };
    let out: PathBuf = flags
        .get("out")?
        .unwrap_or_else(|| root.join("benchmark").join("out").join("results.json"));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let mut results = Vec::new();
    let mut all_correct = true;
    for run_seed in seed..seed + runs {
        for workload in WORKLOADS {
            for &trace in modes {
                let output = Command::new(&exe)
                    .args(["run", "--workload", workload])
                    .args(["--seed", &run_seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let (report, result_line) =
                    stdout.trim_end().rsplit_once('\n').ok_or_else(|| {
                        format!("{workload}: no result line (exit {})", output.status)
                    })?;
                println!("{report}");
                let result = Json::parse(result_line)?;
                all_correct &= output.status.success()
                    && result.get("correct").and_then(Json::as_bool) == Some(true);
                let mut fields = vec![
                    ("workload".to_string(), Json::str(workload)),
                    ("seed".to_string(), Json::Num(run_seed as f64)),
                    ("trace".to_string(), Json::Num(f64::from(trace))),
                ];
                fields.extend(result.as_obj().unwrap_or_default().iter().cloned());
                results.push(Json::Obj(fields));
            }
        }
    }
    let mut env = environment(&root);
    env.push(("seconds", Json::Num(seconds as f64)));
    let document = Json::obj([("env", Json::obj(env)), ("runs", Json::Arr(results))]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, format!("{document}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: bench compare <a.json> <b.json>".into());
    };
    let load = |path: &String| -> Result<compare::ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::ResultSet::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, all_pass) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What `BENCHMARK.json` says about one metric list, as comparable rows.
fn declared_metrics(document: &Json, key: &str) -> Result<Vec<String>, String> {
    document
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("?").to_string();
            let bound = m.get("bound").and_then(Json::as_f64);
            Ok(format!(
                "{} [{}] {} {:?}",
                field("name"),
                field("unit"),
                field("better"),
                bound
            ))
        })
        .collect()
}

fn printed_metrics(registry: &[Metric]) -> Vec<String> {
    registry
        .iter()
        .map(|m| {
            format!(
                "{} [{}] {} {:?}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect()
}

/// `bench check`: the names this binary prints are exactly the names
/// `BENCHMARK.json` declares, and both fit the contract's limits.
fn check() -> Result<ExitCode, String> {
    let root = repo_root()?;
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let document = Json::parse(&text)?;
    let mut problems = Vec::new();

    let declared_workloads: Vec<&str> = document
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if declared_workloads != WORKLOADS {
        problems.push(format!(
            "workloads: declared {declared_workloads:?}, printed {WORKLOADS:?}"
        ));
    }
    for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let (declared, printed) = (declared_metrics(&document, key)?, printed_metrics(registry));
        for row in declared.iter().filter(|row| !printed.contains(row)) {
            problems.push(format!("{key}: declared but not printed: {row}"));
        }
        for row in printed.iter().filter(|row| !declared.contains(row)) {
            problems.push(format!("{key}: printed but not declared: {row}"));
        }
    }
    problems.extend(spec::contract_problems());
    if document.get("run_seconds").and_then(Json::as_f64) != Some(DEFAULT_SECONDS as f64) {
        problems.push(format!(
            "run_seconds differs from bench all's default {DEFAULT_SECONDS}"
        ));
    }
    if text.len() > 64 * 1024 {
        problems.push("BENCHMARK.json is larger than 64 KiB".into());
    }
    report("check", &problems)
}

/// The `[profile.release]` stanza of a manifest, comments and blank lines
/// dropped.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty())
        .map(str::to_string)
        .collect()
}

/// `bench selfcheck`: the benchmark is built like the library (same release
/// profile as the root manifest) and touches it through `adapter.rs` only.
fn selfcheck() -> Result<ExitCode, String> {
    let root = repo_root()?;
    let read = |path: PathBuf| {
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut problems = Vec::new();
    let ours = release_profile(&read(root.join("benchmark").join("Cargo.toml"))?);
    let theirs = release_profile(&read(root.join("Cargo.toml"))?);
    if ours != theirs || ours.is_empty() {
        problems.push(format!(
            "[profile.release] differs: root {theirs:?}, benchmark {ours:?}"
        ));
    }
    // Spelled in two halves so this file does not match itself.
    let library_paths = [concat!("bqs", "_"), concat!("rand", "::")];
    let sources = root.join("benchmark").join("src");
    for entry in std::fs::read_dir(&sources).map_err(|e| format!("{}: {e}", sources.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.file_name().is_some_and(|name| name == "adapter.rs") {
            continue;
        }
        let text = read(path.clone())?;
        for (number, line) in text.lines().enumerate() {
            if library_paths.iter().any(|needle| line.contains(needle)) {
                problems.push(format!(
                    "{}:{}: library path outside adapter.rs",
                    path.display(),
                    number + 1
                ));
            }
        }
    }
    report("selfcheck", &problems)
}

fn report(what: &str, problems: &[String]) -> Result<ExitCode, String> {
    for problem in problems {
        eprintln!("{what}: {problem}");
    }
    if problems.is_empty() {
        println!("{what}: ok");
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((command, rest)) => match command.as_str() {
            "run" => run(rest),
            "all" => all(rest),
            "compare" => compare(rest),
            "check" if rest.is_empty() => check(),
            "selfcheck" if rest.is_empty() => selfcheck(),
            other => Err(format!("unknown command {other}; see benchmark/README.md")),
        },
        None => Err(
            "usage: bench <run|all|compare|check|selfcheck> ...; see benchmark/README.md".into(),
        ),
    };
    outcome.unwrap_or_else(|error| {
        eprintln!("bench: {error}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quiet_is_the_best_decile_in_the_metrics_direction() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(quiet(&values, spec::Better::Lower), 4.0);
        assert_eq!(quiet(&values, spec::Better::Higher), 37.0);
        assert_eq!(quiet(&[7.0, 3.0, 5.0], spec::Better::Lower), 3.0);
        assert_eq!(quiet(&[7.0], spec::Better::Higher), 7.0);
    }

    #[test]
    fn flags_reject_unknown_keys_and_bad_values() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let flags = Flags::parse(&args(&["--seed", "7"]), &["seed"]).unwrap();
        assert_eq!(flags.require::<u64>("seed"), Ok(7));
        assert!(Flags::parse(&args(&["--sed", "7"]), &["seed"]).is_err());
        assert!(Flags::parse(&args(&["--seed"]), &["seed"]).is_err());
        let flags = Flags::parse(&args(&["--seed", "x"]), &["seed"]).unwrap();
        assert!(flags.require::<u64>("seed").is_err());
        assert!(flags.require::<u64>("seconds").is_err());
    }

    #[test]
    fn release_profile_ignores_comments_and_other_tables() {
        let manifest = "[package]\nname = \"x\"\n\n# why\n[profile.release]\n# inline\nlto = \"thin\" # fast\n\n[profile.dev]\nopt-level = 1\n";
        assert_eq!(release_profile(manifest), vec!["lto = \"thin\""]);
        assert!(release_profile("[package]\n").is_empty());
    }

    /// The satellite: the names this binary prints are the names declared.
    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        // Tests run from the package directory; the root is its parent.
        assert_eq!(check(), Ok(ExitCode::SUCCESS));
        assert_eq!(selfcheck(), Ok(ExitCode::SUCCESS));
    }
}
