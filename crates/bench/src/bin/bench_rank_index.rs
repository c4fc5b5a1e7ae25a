//! Scan-vs-index micro-benchmark of the query index layer.
//!
//! Benchmarks the merged prefix-rank query index ([`RankIndex`]) against
//! the per-node scan across a grid of node counts and per-epoch query
//! counts, checks both paths release the same bits, and records what the
//! broker's adaptive build policy would decide for each cell next to the
//! measured amortized speedup.
//!
//! Run with `cargo run -p prc-bench --release --bin bench_rank_index`.
//! A full run writes the trajectory to `BENCH_rank_index.json` at the
//! repository root. Set `PRC_BENCH_SMOKE=1` to shrink the grid to
//! CI-smoke sizes: the bit-identity self-check still runs and must pass,
//! the timing assertions are skipped, and the record goes to
//! `target/bench/BENCH_rank_index.json` (relative to the working
//! directory) instead, leaving the committed one alone.

use std::path::{Path, PathBuf};
use std::time::Instant;

use prc_core::estimator::{BuildAccrual, RangeCountEstimator, RankCounting, RankIndex};
use prc_core::query::RangeQuery;
use prc_net::base_station::BaseStation;
use prc_net::network::{FlatNetwork, Network};

const SEED: u64 = 2014;

/// True when `PRC_BENCH_SMOKE` asks for CI-smoke sizes.
fn smoke() -> bool {
    std::env::var("PRC_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn queries_per_sec(queries: usize, seconds: f64) -> f64 {
    queries as f64 / seconds.max(1e-12)
}

/// One cell of the scan-vs-indexed trajectory: `queries` range queries
/// answered over a `nodes`-node epoch through both estimator paths.
struct IndexCell {
    nodes: usize,
    queries: usize,
    merged_entries: usize,
    build_seconds: f64,
    scan_seconds: f64,
    indexed_seconds: f64,
    identical: bool,
    /// What the broker's adaptive ski-rental policy would decide for
    /// this cell: accrue the cell's query count and ask whether the
    /// foregone scanning cost has bought the build. Emitted next to the
    /// measured amortized speedup so the cost model stays honest — a
    /// cell the model would build must measure amortized ≥ 1×, and a
    /// declined cell must measure < 1×.
    adaptive_build: bool,
}

impl IndexCell {
    /// Per-query speedup of the indexed path, ignoring the build.
    fn speedup_per_query(&self) -> f64 {
        self.scan_seconds / self.indexed_seconds.max(1e-12)
    }

    /// Epoch speedup with the one-off build amortized over the cell's
    /// queries.
    fn speedup_amortized(&self) -> f64 {
        self.scan_seconds / (self.build_seconds + self.indexed_seconds).max(1e-12)
    }

    fn json(&self) -> String {
        format!(
            "    {{\"nodes\": {}, \"queries\": {}, \"merged_entries\": {}, \"build_seconds\": {:.6}, \"scan_seconds\": {:.6}, \"indexed_seconds\": {:.6}, \"scan_qps\": {:.2}, \"indexed_qps\": {:.2}, \"speedup_per_query\": {:.2}, \"speedup_amortized\": {:.2}, \"adaptive_build\": {}, \"identical\": {}}}",
            self.nodes,
            self.queries,
            self.merged_entries,
            self.build_seconds,
            self.scan_seconds,
            self.indexed_seconds,
            queries_per_sec(self.queries, self.scan_seconds),
            queries_per_sec(self.queries, self.indexed_seconds),
            self.speedup_per_query(),
            self.speedup_amortized(),
            self.adaptive_build,
            self.identical,
        )
    }
}

/// Collects one epoch's station for the index trajectory: `k` nodes with
/// `per_node` contiguous values each, sampled at `p`.
fn trajectory_station(k: usize, per_node: usize, p: f64) -> BaseStation {
    let partitions: Vec<Vec<f64>> = (0..k)
        .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
        .collect();
    let mut network = FlatNetwork::from_partitions(partitions, SEED);
    network.collect_samples(p);
    network.station().clone()
}

/// A deterministic mixed-width query workload over support `[0, n)`.
fn trajectory_queries(count: usize, n: f64) -> Vec<RangeQuery> {
    (0..count)
        .map(|i| {
            let lower = n * 0.9 * ((i * 61) % 128) as f64 / 128.0;
            let width = n * (0.05 + 0.3 * ((i * 37) % 16) as f64 / 16.0);
            RangeQuery::new(lower, (lower + width).min(n)).expect("valid range")
        })
        .collect()
}

/// Benchmarks scan vs indexed estimation across node and query counts.
///
/// Every cell verifies bit-identity between the two paths before its
/// timings are trusted; the caller asserts on the `identical` flags.
fn index_trajectory() -> Vec<IndexCell> {
    let (node_counts, query_counts, per_node): (&[usize], &[usize], usize) = if smoke() {
        (&[16, 64], &[4, 16], 64)
    } else {
        (&[64, 1_024, 16_384], &[16, 256, 4_096], 128)
    };
    let p = 0.25;
    let mut cells = Vec::new();
    for &k in node_counts {
        let station = trajectory_station(k, per_node, p);
        let build_start = Instant::now();
        let index = RankIndex::build(&station).expect("uniform station builds");
        let build_seconds = build_start.elapsed().as_secs_f64();
        for &count in query_counts {
            let queries = trajectory_queries(count, (k * per_node) as f64);

            let scan_start = Instant::now();
            let scanned: Vec<u64> = queries
                .iter()
                .map(|&q| RankCounting.estimate(&station, q).to_bits())
                .collect();
            let scan_seconds = scan_start.elapsed().as_secs_f64();

            let indexed_start = Instant::now();
            let indexed: Vec<u64> = queries
                .iter()
                .map(|&q| index.estimate(q).to_bits())
                .collect();
            let indexed_seconds = indexed_start.elapsed().as_secs_f64();

            // The decision the adaptive policy would reach seeing this
            // cell's whole workload in one epoch.
            let mut accrual = BuildAccrual::default();
            accrual.observe(index.merged_entries(), k, count as u64);
            let adaptive_build = accrual.should_build(index.merged_entries());

            cells.push(IndexCell {
                nodes: k,
                queries: count,
                merged_entries: index.merged_entries(),
                build_seconds,
                scan_seconds,
                indexed_seconds,
                identical: scanned == indexed,
                adaptive_build,
            });
        }
    }
    cells
}

fn main() {
    let cells = index_trajectory();
    let all_identical = cells.iter().all(|c| c.identical);
    let cell_json = cells
        .iter()
        .map(IndexCell::json)
        .collect::<Vec<_>>()
        .join(",\n");
    let index_json = format!(
        "{{\n  \"bench\": \"rank_index\",\n  \"smoke\": {},\n  \"seed\": {SEED},\n  \"probability\": 0.25,\n  \"cells\": [\n{cell_json}\n  ],\n  \"all_identical\": {all_identical}\n}}",
        smoke(),
    );
    println!("{index_json}");

    // A full run's trajectory lands at the repository root so successive
    // changes can diff it (in the working directory when the
    // manifest-relative root is absent); a smoke run's goes under
    // `target/bench/`.
    let target = if smoke() {
        let dir = Path::new("target/bench");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("could not create {}: {e}", dir.display());
        }
        dir.join("BENCH_rank_index.json")
    } else {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if root.is_dir() {
            root.join("BENCH_rank_index.json")
        } else {
            PathBuf::from("BENCH_rank_index.json")
        }
    };
    match std::fs::write(&target, &index_json) {
        Ok(()) => eprintln!("json: {}", target.display()),
        Err(e) => eprintln!("could not write {}: {e}", target.display()),
    }

    assert!(
        all_identical,
        "indexed estimates diverged from the scan path"
    );
    // The amortized column must always be a usable number — the smoke CI
    // job gates on this, so the field can never silently degenerate.
    for cell in &cells {
        let amortized = cell.speedup_amortized();
        assert!(
            amortized.is_finite() && amortized > 0.0,
            "amortized speedup degenerated at k={} q={} (got {amortized})",
            cell.nodes,
            cell.queries,
        );
    }
    if !smoke() {
        // Cost-model honesty: the adaptive policy's paper decision must
        // agree with the measured amortized outcome on every *decisive*
        // full-grid cell — the 16-query cells never pay off a build
        // (well under 1×) and the policy must decline them; cells it
        // builds must not measure clearly below break-even. Cells inside
        // the gray band around 1× are coin flips (the measured ratio
        // moves across 1.0 with run-to-run noise) and prove nothing
        // either way, so they are exempt.
        for cell in &cells {
            let amortized = cell.speedup_amortized();
            if (0.8..1.25).contains(&amortized) {
                continue;
            }
            assert_eq!(
                cell.adaptive_build,
                amortized >= 1.0,
                "cost model dishonest at k={} q={}: adaptive_build={} but measured amortized {amortized:.2}×",
                cell.nodes,
                cell.queries,
                cell.adaptive_build,
            );
        }
        for cell in &cells {
            if cell.nodes >= 16_384 && cell.queries >= 256 {
                let speedup = cell.speedup_per_query();
                assert!(
                    speedup >= 5.0,
                    "index must be ≥5× faster per query at k={} q={} (got {speedup:.2}×)",
                    cell.nodes,
                    cell.queries,
                );
            }
            // Once a batch is large enough to buy the build outright,
            // the build-inclusive speedup must clear 1×.
            if cell.nodes >= 16_384 && cell.queries >= 4_096 {
                let amortized = cell.speedup_amortized();
                assert!(
                    amortized >= 1.0,
                    "amortized speedup fell below 1× at k={} q={} (got {amortized:.2}×)",
                    cell.nodes,
                    cell.queries,
                );
            }
        }
    }
}
