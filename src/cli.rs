//! Command-line interface for the `prc-cli` binary.
//!
//! Subcommands:
//!
//! * `generate` — synthesize a CityPulse-shape dataset and write it as CSV;
//! * `summary` — per-index summary statistics of a dataset;
//! * `query` — answer one differentially private range count end to end
//!   (network, broker, optimizer, price);
//! * `histogram` — release a private histogram of one index.
//!
//! Datasets come from `--data <csv>` or, when omitted, from the seeded
//! synthetic generator (`--records`, `--seed`). Parsing is dependency-free:
//! `--flag value` pairs after the subcommand.

use std::io::Write;

// prc-lint: allow(B003, reason = "seeds the demo rng passed into prc-core; all noise draws happen inside prc-dp")
use rand::SeedableRng;

use prc_core::broker::DataBroker;
use prc_core::estimator::RankCounting;
use prc_core::histogram::private_histogram;
use prc_core::pipeline::PricedAnswer;
use prc_core::query::{Accuracy, QueryRequest, RangeQuery};
use prc_data::generator::CityPulseGenerator;
use prc_data::partition::PartitionStrategy;
use prc_data::record::{AirQualityIndex, Dataset};
use prc_data::stats;
use prc_dp::budget::Epsilon;
use prc_dp::mechanism::Sensitivity;
use prc_net::network::{FlatNetwork, Network};
use prc_pricing::engine::PostedPriceEngine;
use prc_pricing::functions::InverseVariancePricing;
use prc_pricing::variance::ChebyshevVariance;

/// Errors produced while parsing or executing a CLI invocation.
#[derive(Debug)]
pub enum CliError {
    /// No subcommand, or an unknown one.
    UnknownCommand(String),
    /// A flag without a value, or an unknown flag for the subcommand.
    BadFlag(String),
    /// A flag value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        value: String,
    },
    /// A required flag was missing.
    Missing(&'static str),
    /// Any downstream failure (I/O, pipeline, pricing).
    Run(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown command `{c}` (try: generate, summary, query, histogram)"
                )
            }
            CliError::BadFlag(flag) => write!(f, "unknown or incomplete flag `{flag}`"),
            CliError::BadValue { flag, value } => {
                write!(f, "could not parse value `{value}` for flag `{flag}`")
            }
            CliError::Missing(flag) => write!(f, "missing required flag `{flag}`"),
            CliError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A parsed `--flag value` list.
#[derive(Debug, Default)]
struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(CliError::BadFlag(flag.clone()));
            };
            let Some(value) = it.next() else {
                return Err(CliError::BadFlag(flag.clone()));
            };
            pairs.push((name.to_owned(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse_value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| CliError::BadValue {
                flag: name.to_owned(),
                value: raw.to_owned(),
            }),
        }
    }

    fn value_or<T: std::str::FromStr + Copy>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.parse_value(name)?.unwrap_or(default))
    }
}

/// A fully parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Synthesize a dataset and write CSV to `out`.
    Generate {
        /// Number of records.
        records: usize,
        /// Generator seed.
        seed: u64,
        /// Output path.
        out: String,
    },
    /// Print per-index summary statistics.
    Summary {
        /// Input CSV path, or `None` for the synthetic default.
        data: Option<String>,
        /// Records for the synthetic default.
        records: usize,
        /// Seed for the synthetic default.
        seed: u64,
    },
    /// Answer one private range count.
    Query {
        /// Input CSV path, or `None` for the synthetic default.
        data: Option<String>,
        /// Records for the synthetic default.
        records: usize,
        /// Seed for the synthetic default and the pipeline RNG.
        seed: u64,
        /// Which air-quality index to query.
        index: AirQualityIndex,
        /// Lower range bound.
        lower: f64,
        /// Upper range bound.
        upper: f64,
        /// Accuracy α.
        alpha: f64,
        /// Confidence δ.
        delta: f64,
        /// Node count.
        nodes: usize,
        /// Pricing coefficient for π = c/V.
        coefficient: f64,
    },
    /// Release private quantiles.
    Quantile {
        /// Input CSV path, or `None` for the synthetic default.
        data: Option<String>,
        /// Records for the synthetic default.
        records: usize,
        /// Seed for the synthetic default and the pipeline RNG.
        seed: u64,
        /// Which air-quality index to summarize.
        index: AirQualityIndex,
        /// Quantile levels to release, each in (0, 1).
        levels: Vec<f64>,
        /// Total privacy budget ε (split across the levels).
        epsilon: f64,
        /// Sampling probability p.
        probability: f64,
    },
    /// Release a private histogram.
    Histogram {
        /// Input CSV path, or `None` for the synthetic default.
        data: Option<String>,
        /// Records for the synthetic default.
        records: usize,
        /// Seed for the synthetic default and the pipeline RNG.
        seed: u64,
        /// Which air-quality index to summarize.
        index: AirQualityIndex,
        /// Number of equal-width buckets over [0, 200].
        buckets: usize,
        /// Privacy budget ε.
        epsilon: f64,
        /// Sampling probability p.
        probability: f64,
    },
}

/// Parses an index name via [`AirQualityIndex`]'s `FromStr` (column names
/// or chemical abbreviations).
fn parse_index(raw: &str) -> Result<AirQualityIndex, CliError> {
    raw.parse().map_err(|_| CliError::BadValue {
        flag: "index".to_owned(),
        value: raw.to_owned(),
    })
}

/// Parses the argument list (excluding the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first malformed argument.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::UnknownCommand(String::new()));
    };
    let flags = Flags::parse(rest)?;
    let records = flags.value_or("records", 17_568usize)?;
    let seed = flags.value_or("seed", 2014u64)?;
    let data = flags.get("data").map(str::to_owned);
    match command.as_str() {
        "generate" => Ok(Command::Generate {
            records,
            seed,
            out: flags
                .get("out")
                .ok_or(CliError::Missing("--out"))?
                .to_owned(),
        }),
        "summary" => Ok(Command::Summary {
            data,
            records,
            seed,
        }),
        "query" => Ok(Command::Query {
            data,
            records,
            seed,
            index: parse_index(flags.get("index").unwrap_or("ozone"))?,
            lower: flags
                .parse_value("lower")?
                .ok_or(CliError::Missing("--lower"))?,
            upper: flags
                .parse_value("upper")?
                .ok_or(CliError::Missing("--upper"))?,
            alpha: flags.value_or("alpha", 0.05f64)?,
            delta: flags.value_or("delta", 0.8f64)?,
            nodes: flags.value_or("nodes", 50usize)?,
            coefficient: flags.value_or("price-coefficient", 1e9f64)?,
        }),
        "histogram" => Ok(Command::Histogram {
            data,
            records,
            seed,
            index: parse_index(flags.get("index").unwrap_or("ozone"))?,
            buckets: flags.value_or("buckets", 10usize)?,
            epsilon: flags.value_or("epsilon", 1.0f64)?,
            probability: flags.value_or("probability", 0.35f64)?,
        }),
        "quantile" => {
            let raw_levels = flags.get("levels").unwrap_or("0.25,0.5,0.75");
            let levels = raw_levels
                .split(',')
                .map(|part| {
                    part.trim().parse::<f64>().map_err(|_| CliError::BadValue {
                        flag: "levels".to_owned(),
                        value: raw_levels.to_owned(),
                    })
                })
                .collect::<Result<Vec<f64>, CliError>>()?;
            Ok(Command::Quantile {
                data,
                records,
                seed,
                index: parse_index(flags.get("index").unwrap_or("ozone"))?,
                levels,
                epsilon: flags.value_or("epsilon", 3.0f64)?,
                probability: flags.value_or("probability", 0.35f64)?,
            })
        }
        other => Err(CliError::UnknownCommand(other.to_owned())),
    }
}

/// Usage text for `--help` / errors.
pub fn usage() -> &'static str {
    "prc-cli — trading private range counting over IoT data

USAGE:
  prc-cli generate  --out FILE [--records N] [--seed S]
  prc-cli summary   [--data FILE | --records N --seed S]
  prc-cli query     --lower L --upper U [--index ozone|pm|co|so2|no2]
                    [--alpha A] [--delta D] [--nodes K]
                    [--price-coefficient C] [--data FILE]
  prc-cli histogram [--index I] [--buckets B] [--epsilon E]
                    [--probability P] [--data FILE]
  prc-cli quantile  [--index I] [--levels 0.25,0.5,0.75] [--epsilon E]
                    [--probability P] [--data FILE]
"
}

fn load_dataset(data: &Option<String>, records: usize, seed: u64) -> Result<Dataset, CliError> {
    match data {
        Some(path) => prc_data::csv::read_csv_file(path)
            .map_err(|e| CliError::Run(format!("failed to read `{path}`: {e}"))),
        None => Ok(CityPulseGenerator::new(seed)
            .record_count(records)
            .generate()),
    }
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError::Run`] for any downstream failure.
pub fn run<W: Write>(command: &Command, out: &mut W) -> Result<(), CliError> {
    let io_err = |e: std::io::Error| CliError::Run(format!("write failed: {e}"));
    match command {
        Command::Generate {
            records,
            seed,
            out: path,
        } => {
            let dataset = CityPulseGenerator::new(*seed)
                .record_count(*records)
                .generate();
            prc_data::csv::write_csv_file(path, &dataset)
                .map_err(|e| CliError::Run(format!("failed to write `{path}`: {e}")))?;
            writeln!(out, "wrote {} records to {path}", dataset.len()).map_err(io_err)?;
        }
        Command::Summary {
            data,
            records,
            seed,
        } => {
            let dataset = load_dataset(data, *records, *seed)?;
            writeln!(out, "{} records", dataset.len()).map_err(io_err)?;
            if let Some((first, last)) = dataset.time_bounds() {
                writeln!(out, "time range: {first} .. {last}").map_err(io_err)?;
            }
            writeln!(
                out,
                "{:<20} {:>8} {:>8} {:>8} {:>8}",
                "index", "min", "mean", "p95", "max"
            )
            .map_err(io_err)?;
            for index in AirQualityIndex::ALL {
                let values = dataset.values(index);
                writeln!(
                    out,
                    "{:<20} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                    index.column_name(),
                    stats::min(&values).unwrap_or(f64::NAN),
                    stats::mean(&values).unwrap_or(f64::NAN),
                    stats::quantile(&values, 0.95).unwrap_or(f64::NAN),
                    stats::max(&values).unwrap_or(f64::NAN),
                )
                .map_err(io_err)?;
            }
        }
        Command::Query {
            data,
            records,
            seed,
            index,
            lower,
            upper,
            alpha,
            delta,
            nodes,
            coefficient,
        } => {
            let dataset = load_dataset(data, *records, *seed)?;
            let network = FlatNetwork::from_dataset(
                &dataset,
                *index,
                *nodes,
                PartitionStrategy::RoundRobin,
                *seed,
            );
            let mut broker = DataBroker::new(network, *seed);
            let model = ChebyshevVariance::new(dataset.len());
            broker.enable_pricing(Box::new(PostedPriceEngine::new(
                InverseVariancePricing::new(*coefficient, model),
                model,
            )));
            let request = QueryRequest::new(
                RangeQuery::new(*lower, *upper).map_err(|e| CliError::Run(e.to_string()))?,
                Accuracy::new(*alpha, *delta).map_err(|e| CliError::Run(e.to_string()))?,
            );
            let PricedAnswer { answer, price, .. } = broker
                .answer_as("prc-cli", &request)
                .map_err(|e| CliError::Run(e.to_string()))?;
            writeln!(out, "query:        {request}").map_err(io_err)?;
            writeln!(out, "answer:       {:.1}", answer.value).map_err(io_err)?;
            writeln!(
                out,
                "perturbation: α'={:.4} δ'={:.4} ε={:.4} effective ε'={:.5}",
                answer.plan.alpha_prime,
                answer.plan.delta_prime,
                answer.plan.epsilon.value(),
                answer.plan.effective_epsilon.value()
            )
            .map_err(io_err)?;
            if let Some(price) = price {
                writeln!(out, "price:        {price:.2}").map_err(io_err)?;
            }
            let cost = broker.network().meter().snapshot();
            writeln!(
                out,
                "network cost: {} samples, {} messages, {} bytes",
                cost.samples, cost.messages, cost.bytes
            )
            .map_err(io_err)?;
        }
        Command::Quantile {
            data,
            records,
            seed,
            index,
            levels,
            epsilon,
            probability,
        } => {
            if levels.is_empty() || levels.iter().any(|&q| !(0.0..1.0).contains(&q) || q == 0.0) {
                return Err(CliError::Run(
                    "quantile levels must be a non-empty list inside (0, 1)".to_owned(),
                ));
            }
            let dataset = load_dataset(data, *records, *seed)?;
            let mut network = FlatNetwork::from_dataset(
                &dataset,
                *index,
                50.min(dataset.len().max(1)),
                PartitionStrategy::RoundRobin,
                *seed,
            );
            network.collect_samples(*probability);
            // prc-lint: allow(B003, reason = "seeds the demo rng passed into prc-core; all noise draws happen inside prc-dp")
            let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
            let config = prc_core::quantile::QuantileConfig {
                domain: (0.0, 200.0),
                steps: 20,
                epsilon: Epsilon::new(*epsilon).map_err(|e| CliError::Run(e.to_string()))?,
                sensitivity: Sensitivity::new(1.0 / probability)
                    .map_err(|e| CliError::Run(e.to_string()))?,
            };
            let results = prc_core::quantile::private_quantiles(
                &RankCounting,
                network.station(),
                levels,
                &config,
                &mut rng,
            )
            .map_err(|e| CliError::Run(e.to_string()))?;
            writeln!(
                out,
                "private {} quantiles (ε = {epsilon} total, p = {probability})",
                index.column_name()
            )
            .map_err(io_err)?;
            for r in results {
                writeln!(
                    out,
                    "  q{:<5} ≈ {:>8.2}  ({} probes at ε = {:.3})",
                    (r.q * 1_000.0).round() / 10.0,
                    r.value,
                    r.steps,
                    r.epsilon.value()
                )
                .map_err(io_err)?;
            }
        }
        Command::Histogram {
            data,
            records,
            seed,
            index,
            buckets,
            epsilon,
            probability,
        } => {
            if *buckets == 0 {
                return Err(CliError::Run("need at least one bucket".to_owned()));
            }
            let dataset = load_dataset(data, *records, *seed)?;
            let mut network = FlatNetwork::from_dataset(
                &dataset,
                *index,
                50,
                PartitionStrategy::RoundRobin,
                *seed,
            );
            network.collect_samples(*probability);
            let edges: Vec<f64> = (0..=*buckets)
                .map(|i| 200.0 * i as f64 / *buckets as f64)
                .collect();
            // prc-lint: allow(B003, reason = "seeds the demo rng passed into prc-core; all noise draws happen inside prc-dp")
            let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
            let sensitivity =
                Sensitivity::new(1.0 / probability).map_err(|e| CliError::Run(e.to_string()))?;
            let histogram = private_histogram(
                &RankCounting,
                network.station(),
                &edges,
                Epsilon::new(*epsilon).map_err(|e| CliError::Run(e.to_string()))?,
                sensitivity,
                &mut rng,
            )
            .map_err(|e| CliError::Run(e.to_string()))?;
            writeln!(
                out,
                "private {} histogram (ε = {epsilon}, p = {probability})",
                index.column_name()
            )
            .map_err(io_err)?;
            for i in 0..histogram.len() {
                let (lo, hi) = histogram.bucket_bounds(i);
                let count = histogram.counts()[i].max(0.0);
                writeln!(out, "  ({lo:>6.1}, {hi:>6.1}] {count:>10.0}").map_err(io_err)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&args(&[
            "generate",
            "--out",
            "/tmp/x.csv",
            "--records",
            "100",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                records: 100,
                seed: 2014,
                out: "/tmp/x.csv".into()
            }
        );
    }

    #[test]
    fn parses_query_with_defaults_and_short_index() {
        let cmd = parse(&args(&[
            "query", "--lower", "80", "--upper", "120", "--index", "pm",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                index,
                lower,
                upper,
                alpha,
                delta,
                nodes,
                ..
            } => {
                assert_eq!(index, AirQualityIndex::ParticulateMatter);
                assert_eq!((lower, upper), (80.0, 120.0));
                assert_eq!((alpha, delta), (0.05, 0.8));
                assert_eq!(nodes, 50);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn later_flags_override_earlier() {
        let cmd = parse(&args(&["summary", "--records", "10", "--records", "20"])).unwrap();
        assert!(matches!(cmd, Command::Summary { records: 20, .. }));
    }

    #[test]
    fn parse_errors_are_specific() {
        assert!(matches!(
            parse(&args(&[])),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse(&args(&["frobnicate"])),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse(&args(&["query", "--lower"])),
            Err(CliError::BadFlag(_))
        ));
        assert!(matches!(
            parse(&args(&["query", "bare"])),
            Err(CliError::BadFlag(_))
        ));
        assert!(matches!(
            parse(&args(&["query", "--lower", "abc", "--upper", "1"])),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&args(&["query", "--upper", "1"])),
            Err(CliError::Missing("--lower"))
        ));
        assert!(matches!(
            parse(&args(&[
                "query", "--lower", "0", "--upper", "1", "--index", "xyz"
            ])),
            Err(CliError::BadValue { .. })
        ));
        // Errors render.
        let e = parse(&args(&["nope"])).unwrap_err();
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn summary_runs_on_synthetic_data() {
        let cmd = parse(&args(&["summary", "--records", "200", "--seed", "1"])).unwrap();
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("200 records"));
        assert!(text.contains("ozone"));
        assert!(text.contains("nitrogen_dioxide"));
    }

    #[test]
    fn query_runs_end_to_end() {
        let cmd = parse(&args(&[
            "query",
            "--lower",
            "60",
            "--upper",
            "120",
            "--records",
            "2000",
            "--nodes",
            "10",
            "--alpha",
            "0.1",
            "--delta",
            "0.6",
        ]))
        .unwrap();
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("answer:"));
        assert!(text.contains("price:"));
        assert!(text.contains("effective ε'"));
    }

    #[test]
    fn quantile_parses_and_runs() {
        let cmd = parse(&args(&[
            "quantile",
            "--records",
            "2000",
            "--levels",
            "0.5,0.9",
            "--index",
            "pm",
        ]))
        .unwrap();
        match &cmd {
            Command::Quantile { levels, index, .. } => {
                assert_eq!(levels, &vec![0.5, 0.9]);
                assert_eq!(*index, AirQualityIndex::ParticulateMatter);
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("q50"));
        assert!(text.contains("q90"));
    }

    #[test]
    fn quantile_rejects_bad_levels() {
        assert!(matches!(
            parse(&args(&["quantile", "--levels", "0.5,abc"])),
            Err(CliError::BadValue { .. })
        ));
        let cmd = parse(&args(&["quantile", "--records", "100", "--levels", "1.5"])).unwrap();
        let mut buf = Vec::new();
        assert!(run(&cmd, &mut buf).is_err());
    }

    #[test]
    fn histogram_runs_end_to_end() {
        let cmd = parse(&args(&[
            "histogram",
            "--records",
            "2000",
            "--buckets",
            "5",
            "--epsilon",
            "2.0",
        ]))
        .unwrap();
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 6); // header + 5 buckets
    }

    #[test]
    fn generate_then_reload_via_query() {
        let dir = std::env::temp_dir().join("prc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.csv");
        let path_str = path.to_str().unwrap().to_owned();

        let cmd = parse(&args(&["generate", "--out", &path_str, "--records", "300"])).unwrap();
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();

        let cmd = parse(&args(&["summary", "--data", &path_str])).unwrap();
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("300 records"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_run_error() {
        let cmd = parse(&args(&["summary", "--data", "/no/such/file.csv"])).unwrap();
        let mut buf = Vec::new();
        let err = run(&cmd, &mut buf).unwrap_err();
        assert!(matches!(err, CliError::Run(_)));
        assert!(err.to_string().contains("/no/such/file.csv"));
    }

    #[test]
    fn zero_buckets_rejected_at_run() {
        let cmd = parse(&args(&["histogram", "--buckets", "0", "--records", "100"])).unwrap();
        let mut buf = Vec::new();
        assert!(run(&cmd, &mut buf).is_err());
    }

    #[test]
    fn usage_mentions_every_command() {
        for c in ["generate", "summary", "query", "histogram"] {
            assert!(usage().contains(c));
        }
    }
}
