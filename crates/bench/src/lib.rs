//! # prc-bench — experiment harness
//!
//! Shared machinery for regenerating the paper's evaluation figures
//! (Figs. 2–6) and the design-choice ablations. Each figure has a binary
//! (`fig2` … `fig6`, `ablation_*`) that prints the figure's series as an
//! aligned table; EXPERIMENTS.md records the measured outputs next to the
//! paper's claims.
//!
//! The workload model follows §V: the CityPulse-like pollution dataset
//! (17,568 records, five air-quality indexes) is distributed over `k = 50`
//! nodes; queries are value ranges drawn from the data's quantiles so that
//! narrow, medium, and wide ranges are all exercised.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use prc_core::estimator::RangeCountEstimator;
use prc_core::exact::range_count;
use prc_core::query::RangeQuery;
use prc_data::generator::CityPulseGenerator;
use prc_data::partition::PartitionStrategy;
use prc_data::record::{AirQualityIndex, Dataset};
use prc_data::stats;
use prc_net::network::{FlatNetwork, Network};

/// Number of nodes used by all experiments (the paper does not state its
/// `k`; 50 road-side sensors is a plausible smart-city deployment and is
/// held constant across every figure).
pub const NODES: usize = 50;

/// Seed tying all experiments together.
pub const SEED: u64 = 2014;

/// The full evaluation dataset: 17,568 records, seeded.
pub fn standard_dataset() -> Dataset {
    CityPulseGenerator::new(SEED).generate()
}

/// Builds the evaluation network over one air-quality index.
pub fn build_network(dataset: &Dataset, index: AirQualityIndex, seed: u64) -> FlatNetwork {
    FlatNetwork::from_dataset(dataset, index, NODES, PartitionStrategy::RoundRobin, seed)
}

/// Quantile pairs defining the standard query workload: narrow, medium,
/// and wide ranges over the observed value distribution.
pub const WORKLOAD_QUANTILES: [(f64, f64); 7] = [
    (0.45, 0.55),
    (0.30, 0.50),
    (0.25, 0.75),
    (0.10, 0.90),
    (0.05, 0.60),
    (0.40, 0.95),
    (0.02, 0.98),
];

/// Builds the standard workload for a value population.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn standard_workload(values: &[f64]) -> Vec<RangeQuery> {
    WORKLOAD_QUANTILES
        .iter()
        .map(|&(lo, hi)| {
            let l = stats::quantile(values, lo).expect("non-empty values");
            let u = stats::quantile(values, hi).expect("non-empty values");
            RangeQuery::new(l, u).expect("quantiles are ordered")
        })
        .collect()
}

/// How a measured error is normalized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorScale {
    /// `|est − truth| / truth` — the relative error of Figs. 2, 5, 6.
    RelativeToTruth,
    /// `|est − truth| / n` — error as a fraction of the population.
    RelativeToPopulation,
    /// `|est − truth| / (α·n)` — error in units of the Definition 2.2
    /// allowance (used by the Fig. 3 sweep, where α varies per point).
    RelativeToAllowance {
        /// The α of the current point.
        alpha: f64,
    },
}

/// Normalizes one absolute error.
pub fn scale_error(absolute: f64, truth: f64, n: usize, scale: ErrorScale) -> f64 {
    match scale {
        ErrorScale::RelativeToTruth => {
            if truth <= 0.0 {
                absolute
            } else {
                absolute / truth
            }
        }
        ErrorScale::RelativeToPopulation => absolute / n as f64,
        ErrorScale::RelativeToAllowance { alpha } => absolute / (alpha * n as f64),
    }
}

/// Runs `estimator` over the workload against the network's ground truth
/// and returns the **maximum** scaled error (the paper's headline metric).
pub fn max_relative_error<E: RangeCountEstimator>(
    estimator: &E,
    network: &FlatNetwork,
    values: &[f64],
    workload: &[RangeQuery],
    scale: ErrorScale,
) -> f64 {
    let n = values.len();
    workload
        .iter()
        .map(|&q| {
            let truth = range_count(values, q) as f64;
            let est = estimator.estimate(network.station(), q);
            scale_error((est - truth).abs(), truth, n, scale)
        })
        .fold(0.0, f64::max)
}

/// Maximum scaled error when the estimates have already been produced
/// (e.g. noisy broker answers).
pub fn max_scaled_error(
    pairs: &[(f64, f64)], // (estimate, truth)
    n: usize,
    scale: ErrorScale,
) -> f64 {
    pairs
        .iter()
        .map(|&(est, truth)| scale_error((est - truth).abs(), truth, n, scale))
        .fold(0.0, f64::max)
}

/// A geometric grid from `lo` to `hi` with `points` entries.
///
/// # Panics
///
/// Panics unless `0 < lo < hi` and `points >= 2`.
pub fn geometric_grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    assert!(points >= 2, "need at least two grid points");
    let ratio = (hi / lo).powf(1.0 / (points - 1) as f64);
    (0..points).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// A linear grid from `lo` to `hi` with `points` entries.
///
/// # Panics
///
/// Panics unless `points >= 2`.
pub fn linear_grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "need at least two grid points");
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

/// Writes a figure's series as CSV under `target/figures/<slug>.csv`
/// (for plotting), returning the path.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn export_csv(
    slug: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write as _;
    let dir = std::path::Path::new("target").join("figures");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{slug}.csv"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(file, "{}", headers.join(","))?;
    for row in rows {
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Prints an aligned table with a title, for the figure binaries.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prc_core::estimator::RankCounting;

    #[test]
    fn standard_dataset_has_paper_dimensions() {
        let ds = standard_dataset();
        assert_eq!(ds.len(), 17_568);
    }

    #[test]
    fn workload_queries_are_ordered_and_nontrivial() {
        let ds = CityPulseGenerator::new(1).record_count(2_000).generate();
        let values = ds.values(AirQualityIndex::Ozone);
        let workload = standard_workload(&values);
        assert_eq!(workload.len(), WORKLOAD_QUANTILES.len());
        for q in &workload {
            assert!(q.lower() < q.upper());
            let truth = range_count(&values, *q);
            assert!(truth > 0, "workload query {q} matches nothing");
        }
    }

    #[test]
    fn grids_behave() {
        let g = geometric_grid(0.01, 1.0, 3);
        assert!((g[0] - 0.01).abs() < 1e-12);
        assert!((g[1] - 0.1).abs() < 1e-12);
        assert!((g[2] - 1.0).abs() < 1e-9);
        let l = linear_grid(0.0, 1.0, 5);
        assert_eq!(l, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn error_scaling_modes() {
        assert_eq!(
            scale_error(10.0, 100.0, 1_000, ErrorScale::RelativeToTruth),
            0.1
        );
        assert_eq!(
            scale_error(10.0, 100.0, 1_000, ErrorScale::RelativeToPopulation),
            0.01
        );
        assert_eq!(
            scale_error(
                10.0,
                100.0,
                1_000,
                ErrorScale::RelativeToAllowance { alpha: 0.1 }
            ),
            0.1
        );
        // Zero truth falls back to the absolute error.
        assert_eq!(scale_error(5.0, 0.0, 10, ErrorScale::RelativeToTruth), 5.0);
    }

    #[test]
    fn max_relative_error_is_zero_at_full_sampling() {
        let ds = CityPulseGenerator::new(3).record_count(1_000).generate();
        let values = ds.values(AirQualityIndex::CarbonMonoxide);
        let mut net = build_network(&ds, AirQualityIndex::CarbonMonoxide, 3);
        net.collect_samples(1.0);
        let workload = standard_workload(&values);
        let err = max_relative_error(
            &RankCounting,
            &net,
            &values,
            &workload,
            ErrorScale::RelativeToTruth,
        );
        assert_eq!(err, 0.0, "p = 1 must be exact");
    }

    #[test]
    fn export_csv_writes_headers_and_rows() {
        let rows = vec![
            vec!["1".to_string(), "2.5".to_string()],
            vec!["3".to_string(), "4.5".to_string()],
        ];
        let path = export_csv("unit_test_export", &["x", "y"], &rows).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2.5\n3,4.5\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn max_scaled_error_takes_the_worst_query() {
        let pairs = [(100.0, 100.0), (90.0, 100.0), (130.0, 100.0)];
        let e = max_scaled_error(&pairs, 1_000, ErrorScale::RelativeToTruth);
        assert!((e - 0.3).abs() < 1e-12);
    }
}
