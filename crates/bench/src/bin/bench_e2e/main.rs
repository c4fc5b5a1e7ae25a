//! `bench_e2e` — the end-to-end marketplace benchmark.
//!
//! Four workloads (`market`, `batch`, `churn`, `monitor`), each driven by
//! one closed-loop client through the broker's public entry points. Each
//! rep is a fresh child process that builds a fresh system from the same
//! seeded inputs. Each rep reports the throughput, p50 and p99 of its
//! fastest window of 1,000 or more calls; a run reports the best rep,
//! with the median and quartiles of the reps beside it. After
//! the timed reps, one traced rep per workload
//! runs over wrapper types that time every call into the network,
//! estimator, index, pricing and reuse layers (see `trace.rs`), giving
//! the per-layer metrics. Every rep checks its outputs; any failed check
//! makes the command exit non-zero. See `README.md` beside this file.
//!
//! ```text
//! bench_e2e [--seed N] [--reps R] [--smoke] [--workload W]
//!     full run: every workload (or W), R interleaved reps plus a traced
//!     rep each; prints every metric and writes target/bench_e2e/result.json
//! bench_e2e --workload W --seed N --seconds S --trace 0|1
//!     one workload measured for about S seconds; the last stdout line is
//!     one JSON object with the end-to-end (trace 0) or per-layer
//!     (trace 1) metrics
//! bench_e2e compare A.json B.json
//!     compares two result files (see compare.rs)
//! ```

mod compare;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Summary, END_TO_END, LAYER_SHARES, PER_LAYER};
use prc_bench::print_table;
use stats::{best, median, quartiles};
use trace::{Plain, Traced};
use workloads::Workload;

const USAGE: &str = "usage:
  bench_e2e [--seed N] [--reps R] [--smoke] [--workload W]
  bench_e2e --workload W --seed N --seconds S --trace 0|1
  bench_e2e compare A.json B.json
workloads: market, batch, churn, monitor";

/// Where result and trace files go, relative to the working directory.
const OUT_DIR: &str = "target/bench_e2e";

/// Reps of a full run when `--reps` is not given.
const DEFAULT_REPS: usize = 5;

#[derive(Debug)]
struct Options {
    seed: u64,
    reps: Option<usize>,
    smoke: bool,
    workload: Option<Workload>,
    seconds: Option<u64>,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        seed: 2014,
        reps: None,
        smoke: false,
        workload: None,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--seed" => options.seed = number(value()?)?,
            "--reps" => match number(value()?)? {
                0 => return Err("--reps must be at least 1".to_owned()),
                r => options.reps = Some(r as usize),
            },
            "--seconds" => options.seconds = Some(number(value()?)?.max(1)),
            "--trace" => match value()?.as_str() {
                "0" => options.trace = false,
                "1" => options.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--workload" => {
                let name = value()?;
                options.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if options.seconds.is_some() && options.workload.is_none() {
        return Err("--seconds needs --workload".to_owned());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some("rep") => rep(&args[1..]),
        _ => match parse_options(&args) {
            Ok(options) => run(&options),
            Err(e) => {
                eprintln!("bench_e2e: {e}\n{USAGE}");
                2
            }
        },
    };
    ExitCode::from(code)
}

/// Child-process entry: runs one rep of one workload and prints its
/// outcome as one JSON line. `--trace 1` runs it over the wrappers and
/// writes the span file.
fn rep(args: &[String]) -> u8 {
    let options = match parse_options(args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("bench_e2e rep: {e}");
            return 2;
        }
    };
    let Some(workload) = options.workload else {
        eprintln!("bench_e2e rep: --workload is required");
        return 2;
    };
    let outcome = if options.trace {
        workload.run::<Traced>(options.seed, options.smoke)
    } else {
        workload.run::<Plain>(options.seed, options.smoke)
    };
    if options.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
        if let Err(e) = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, &outcome.trace_jsonl))
        {
            eprintln!("bench_e2e: could not write {}: {e}", path.display());
        }
    }
    println!("{}", outcome.to_json().render());
    0
}

/// Runs one rep in a fresh child process and parses its outcome.
fn spawn_rep(
    exe: &Path,
    workload: Workload,
    options: &Options,
    traced: bool,
    threads: &str,
) -> Result<Json, String> {
    let mut command = Command::new(exe);
    command
        .args(["rep", "--workload", workload.name(), "--seed"])
        .arg(options.seed.to_string())
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("PRC_THREADS", threads)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("could not start a rep: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} rep exited with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    Json::parse(line).map_err(|e| format!("{} rep printed no result ({e})", workload.name()))
}

/// Every rep of one workload, and what the parent concluded from them.
struct WorkloadRun {
    workload: Workload,
    reps: Vec<Json>,
    traced: Option<Json>,
    failures: Vec<String>,
}

impl WorkloadRun {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.reps.iter().filter_map(|r| r.num(metric)).collect()
    }

    fn total(&self, key: &str) -> u64 {
        self.reps
            .iter()
            .chain(&self.traced)
            .filter_map(|r| r.num(key))
            .sum::<f64>() as u64
    }

    /// Parent-side checks: each rep's own checks passed, and every rep,
    /// the traced one included, released identical bits and counters.
    fn check(&mut self) {
        let all: Vec<&Json> = self.reps.iter().chain(&self.traced).collect();
        for (i, rep) in all.iter().enumerate() {
            let label = if i < self.reps.len() {
                format!("rep {}", i + 1)
            } else {
                "traced rep".to_owned()
            };
            for failure in rep.get("failures").map(Json::as_array).unwrap_or(&[]) {
                if let Json::Str(text) = failure {
                    self.failures.push(format!("{label}: {text}"));
                }
            }
            if rep.str("digest") != all[0].str("digest") {
                self.failures.push(format!(
                    "{label} released different bits or counters than rep 1 ({} vs {})",
                    rep.str("digest").unwrap_or("?"),
                    all[0].str("digest").unwrap_or("?"),
                ));
            }
        }
    }

    fn metric_value(&self, name: &str) -> Option<f64> {
        let metric = metrics::end_to_end(name)?;
        let values = self.values(name);
        if values.is_empty() {
            return None;
        }
        Some(match metric.summary {
            Summary::Best => best(&values, metric.better),
            Summary::Median => median(&values),
            Summary::Exact => values[0],
        })
    }

    /// Per-layer metrics of the traced rep, plus its throughput relative
    /// to the best untraced rep.
    fn layers(&self) -> Vec<(&'static str, f64)> {
        let traced = match &self.traced {
            Some(traced) => traced,
            None => return Vec::new(),
        };
        let overhead = match (
            traced.num("throughput_rps"),
            self.metric_value("throughput_rps"),
        ) {
            (Some(t), Some(b)) if b > 0.0 => t / b,
            _ => 0.0,
        };
        PER_LAYER
            .iter()
            .map(|&(name, _, _)| {
                let value = if name == "trace.overhead" {
                    overhead
                } else {
                    traced
                        .get("layers")
                        .and_then(|l| l.num(name))
                        .unwrap_or(0.0)
                };
                (name, value)
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for metric in &END_TO_END {
            let values = self.values(metric.name);
            let Some(value) = self.metric_value(metric.name) else {
                continue;
            };
            let (q1, med, q3) = quartiles(&values);
            metrics.set(
                metric.name,
                Json::obj()
                    .with("value", value)
                    .with("unit", metric.unit)
                    .with("median", med)
                    .with("q1", q1)
                    .with("q3", q3)
                    .with(
                        "reps",
                        values.into_iter().map(Json::Num).collect::<Vec<_>>(),
                    ),
            );
        }
        let shares = self
            .traced
            .as_ref()
            .and_then(|t| t.get("shares"))
            .cloned()
            .unwrap_or_else(Json::obj);
        Json::obj()
            .with("correct", self.failures.is_empty())
            .with("attempted", self.total("requests"))
            .with("failed", self.total("failed"))
            .with(
                "failures",
                self.failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect::<Vec<_>>(),
            )
            .with("metrics", metrics)
            .with("layers", self.layers_json())
            .with("shares", shares)
    }

    fn layers_json(&self) -> Json {
        let mut layers = Json::obj();
        for ((name, value), (_, unit, _)) in self.layers().into_iter().zip(PER_LAYER) {
            layers.set(name, Json::obj().with("value", value).with("unit", unit));
        }
        layers
    }

    fn print(&self) {
        let title = format!(
            "{} ({} reps{})",
            self.workload.name(),
            self.reps.len(),
            if self.traced.is_some() {
                " + traced"
            } else {
                ""
            }
        );
        let rows: Vec<Vec<String>> = END_TO_END
            .iter()
            .filter_map(|metric| {
                let value = self.metric_value(metric.name)?;
                let values = self.values(metric.name);
                let (q1, med, q3) = quartiles(&values);
                let summary = match metric.summary {
                    Summary::Best => "best",
                    Summary::Median => "median",
                    Summary::Exact => "exact",
                };
                Some(vec![
                    metric.name.to_owned(),
                    metric.unit.to_owned(),
                    format!("{value:.4}"),
                    summary.to_owned(),
                    format!("{med:.4}"),
                    format!("{q1:.4}"),
                    format!("{q3:.4}"),
                    format!(
                        "{:.1}%",
                        100.0 * (q3 - q1) / med.abs().max(f64::MIN_POSITIVE)
                    ),
                ])
            })
            .collect();
        print_table(
            &title,
            &[
                "metric",
                "unit",
                "value",
                "of reps",
                "median",
                "q1",
                "q3",
                "iqr/median",
            ],
            &rows,
        );
        if self.traced.is_some() {
            let rows: Vec<Vec<String>> = self
                .layers()
                .iter()
                .zip(PER_LAYER)
                .map(|(&(name, value), (_, unit, _))| {
                    vec![name.to_owned(), unit.to_owned(), format!("{value:.4}")]
                })
                .collect();
            print_table(
                &format!("{} per-layer (traced rep)", self.workload.name()),
                &["metric", "unit", "value"],
                &rows,
            );
        }
        let calls = self
            .reps
            .first()
            .and_then(|r| r.num("calls"))
            .unwrap_or(0.0);
        println!("timed client calls per rep: {calls}");
        for failure in &self.failures {
            println!("CHECK FAILED: {failure}");
        }
    }
}

fn run(options: &Options) -> u8 {
    let workloads: Vec<Workload> = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // A timed run sizes its rep count from the time it is given, by a
    // fixed per-rep estimate, so the count never depends on how fast the
    // code under test happens to run.
    let reps = options.reps.unwrap_or(match options.seconds {
        Some(seconds) => {
            let per_rep = workloads.iter().map(|w| w.rep_seconds()).sum::<f64>();
            ((seconds as f64 / per_rep).round() as usize).clamp(3, 50)
        }
        None => DEFAULT_REPS,
    });
    let traced_pass = options.seconds.is_none() || options.trace;
    let threads = std::env::var("PRC_THREADS").unwrap_or_else(|_| {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .to_string()
    });
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench_e2e: cannot locate own executable: {e}");
            return 2;
        }
    };

    let mut runs: Vec<WorkloadRun> = workloads
        .iter()
        .map(|&workload| WorkloadRun {
            workload,
            reps: Vec::new(),
            traced: None,
            failures: Vec::new(),
        })
        .collect();
    // Round-robin across workloads, so a slow phase of the host does not
    // land on every rep of one workload.
    for r in 0..reps {
        for run in &mut runs {
            eprintln!("bench_e2e: {} rep {}/{reps}", run.workload.name(), r + 1);
            match spawn_rep(&exe, run.workload, options, false, &threads) {
                Ok(rep) => run.reps.push(rep),
                Err(e) => run.failures.push(e),
            }
        }
    }
    if traced_pass {
        for run in &mut runs {
            eprintln!("bench_e2e: {} traced rep", run.workload.name());
            match spawn_rep(&exe, run.workload, options, true, &threads) {
                Ok(rep) => run.traced = Some(rep),
                Err(e) => run.failures.push(e),
            }
        }
    }
    for run in &mut runs {
        run.check();
        run.print();
    }
    if traced_pass {
        print_shares(&runs);
    }
    let correct = runs.iter().all(|r| r.failures.is_empty());

    if options.seconds.is_some() {
        // The one-workload form ends with a single JSON line.
        let run = &runs[0];
        let metrics = if options.trace {
            run.layers_json()
        } else {
            let mut metrics = Json::obj();
            for metric in END_TO_END.iter().filter(|m| m.listed) {
                let value = run.metric_value(metric.name).unwrap_or(f64::NAN);
                metrics.set(
                    metric.name,
                    Json::obj().with("value", value).with("unit", metric.unit),
                );
            }
            metrics
        };
        let result = Json::obj()
            .with("correct", correct)
            .with("attempted", run.total("requests").max(1))
            .with("failed", run.total("failed"))
            .with("metrics", metrics);
        println!("{}", result.render());
    } else {
        let lanes = runs
            .iter()
            .flat_map(|r| &r.reps)
            .find_map(|r| r.num("lanes"))
            .unwrap_or(0.0);
        let mut per_workload = Json::obj();
        for run in &runs {
            per_workload.set(run.workload.name(), run.to_json());
        }
        let result = Json::obj()
            .with("bench", "bench_e2e")
            .with("host", host_facts(options, &threads, lanes, reps))
            .with("correct", correct)
            .with("workloads", per_workload);
        let path = PathBuf::from(OUT_DIR).join("result.json");
        match std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, result.render() + "\n"))
        {
            Ok(()) => println!("\nresult: {}", path.display()),
            Err(e) => eprintln!("bench_e2e: could not write {}: {e}", path.display()),
        }
        println!("correct: {correct}");
    }
    u8::from(!correct)
}

/// The traced rep's share of client-call time per layer, one row per
/// workload.
fn print_shares(runs: &[WorkloadRun]) {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let shares = run.traced.as_ref().and_then(|t| t.get("shares"));
            std::iter::once(run.workload.name().to_owned())
                .chain(LAYER_SHARES.iter().map(|layer| {
                    let share = shares.and_then(|s| s.num(layer)).unwrap_or(0.0);
                    format!("{:.1}%", 100.0 * share)
                }))
                .collect()
        })
        .collect();
    let mut headers = vec!["workload"];
    headers.extend(LAYER_SHARES);
    print_table(
        "share of client-call time per layer (traced rep)",
        &headers,
        &rows,
    );
}

/// Facts about the host, build and run settings that must match before
/// two result files are compared. The rep count is one of them: a timing
/// value is a best or median over the reps, so it shifts with their
/// number.
fn host_facts(options: &Options, threads: &str, lanes: f64, reps: usize) -> Json {
    let first_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .next()
                    .map(str::to_owned)
            })
            .unwrap_or_else(|| "unknown".to_owned())
    };
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        )
        .with("lanes", lanes)
        .with("prc_threads", threads)
        .with("rustc", first_line("rustc", &["--version"]))
        .with(
            "commit",
            first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        )
        .with("seed", options.seed)
        .with("smoke", options.smoke)
        .with("reps", reps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn options_parse_both_command_forms() {
        let full = parse_options(&args(&["--seed", "7", "--reps", "3", "--smoke"])).unwrap();
        assert_eq!((full.seed, full.reps, full.smoke), (7, Some(3), true));
        let timed = parse_options(&args(&[
            "--workload",
            "churn",
            "--seed",
            "1",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(timed.workload, Some(Workload::Churn));
        assert_eq!((timed.seconds, timed.trace), (Some(10), true));
        assert!(parse_options(&args(&["--trace", "2"])).is_err());
        assert!(parse_options(&args(&["--workload", "nope"])).is_err());
        assert!(parse_options(&args(&["--reps", "0"])).is_err());
        assert!(parse_options(&args(&["--seed"])).is_err());
        assert!(parse_options(&args(&["--bogus"])).is_err());
        assert!(parse_options(&args(&["--seconds", "15"])).is_err());
    }

    /// The wrappers must be invisible: the same rep over plain and traced
    /// layers releases the same bits and counters.
    fn assert_transparent(workload: Workload) {
        // The span recorder is process-global: traced reps must not
        // overlap.
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let plain = workload.run::<Plain>(11, true);
        let traced = workload.run::<Traced>(11, true);
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(
            plain.digest,
            traced.digest,
            "{} bits differ",
            workload.name()
        );
        assert_eq!(plain.requests, traced.requests);
        assert!(plain.layers.is_empty());
        assert_eq!(traced.layers.len(), PER_LAYER.len() - 1);
        assert!(!traced.trace_jsonl.is_empty());
    }

    #[test]
    fn wrappers_are_transparent_on_churn() {
        assert_transparent(Workload::Churn);
    }

    #[test]
    fn wrappers_are_transparent_on_batch() {
        assert_transparent(Workload::Batch);
    }
}
