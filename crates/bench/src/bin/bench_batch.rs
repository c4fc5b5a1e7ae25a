//! Batched-broker throughput benchmark.
//!
//! Answers the same 64-query mixed-accuracy workload three ways —
//! sequential `answer()` calls over a `FlatNetwork`, `answer_batch` over
//! a `FlatNetwork`, and `answer_batch` over a `TreeNetwork` — and emits
//! a JSON report with queries/sec for each mode, the speedups over the
//! sequential baseline, the batch's per-stage counters, and two identity
//! checks: two batched flat runs with the same seed, and the flat and
//! tree runs, must release bit-identical answers.
//!
//! The workload repeats each of 16 distinct `(range, α, δ)` requests four
//! times: repeats are what the batched engine's arbitrage-consistent
//! answer cache exists for, and what a real marketplace sees when many
//! buyers ask the popular queries.
//!
//! A second section benchmarks the merged prefix-rank query index
//! ([`RankIndex`]) against the per-node scan across a grid of node
//! counts and per-epoch query counts, checks both paths release the same
//! bits, and writes the trajectory to `BENCH_rank_index.json` at the
//! repository root.
//!
//! Run with `cargo run -p prc-bench --release --bin bench_batch`. Set
//! `PRC_BENCH_SMOKE=1` to shrink every dimension to CI-smoke sizes
//! (the determinism and identity self-checks still run and must pass;
//! the absolute-speedup assertion is skipped).

use std::time::Instant;

use prc_core::broker::{BatchStats, DataBroker};
use prc_core::estimator::{BuildAccrual, RangeCountEstimator, RankCounting, RankIndex};
use prc_core::optimizer::OptimizerConfig;
use prc_core::query::{Accuracy, QueryRequest, RangeQuery};
use prc_net::base_station::BaseStation;
use prc_net::network::{FlatNetwork, Network};
use prc_net::tree::TreeNetwork;
use prc_pricing::functions::InverseVariancePricing;
use prc_pricing::reuse::{PostedPriceReuse, ReuseGuard};
use prc_pricing::variance::ChebyshevVariance;

const SEED: u64 = 2014;
const NODES: usize = 16;
const DISTINCT_QUERIES: usize = 16;
const REPEATS: usize = 4;

/// True when `PRC_BENCH_SMOKE` asks for CI-smoke sizes.
fn smoke() -> bool {
    std::env::var("PRC_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Values per node in the batch workload's network.
fn per_node() -> usize {
    if smoke() {
        1_500
    } else {
        25_000
    }
}

/// High-resolution perturbation planning, identical in every mode: the
/// finer the `α′` grid, the closer each plan is to the true optimum of
/// problem (3) — and the more a repeated request benefits from the cache.
fn grid_points() -> usize {
    if smoke() {
        400
    } else {
        10_000
    }
}

fn optimizer() -> OptimizerConfig {
    OptimizerConfig {
        grid_points: grid_points(),
        ..OptimizerConfig::default()
    }
}

fn partitions() -> Vec<Vec<f64>> {
    // Round-robin global values 0..n so every range spans every node.
    (0..NODES)
        .map(|i| (0..per_node()).map(|j| (i + NODES * j) as f64).collect())
        .collect()
}

fn workload() -> Vec<QueryRequest> {
    let n = (NODES * per_node()) as f64;
    let alphas = [0.05, 0.08, 0.1, 0.15];
    let deltas = [0.5, 0.6, 0.7, 0.8];
    let mut distinct = Vec::with_capacity(DISTINCT_QUERIES);
    for i in 0..DISTINCT_QUERIES {
        let lo = n * 0.05 * (i % 8) as f64;
        let hi = lo + n * (0.2 + 0.04 * (i % 5) as f64);
        let query = RangeQuery::new(lo, hi.min(n)).expect("valid range");
        let accuracy =
            Accuracy::new(alphas[i % alphas.len()], deltas[i % deltas.len()]).expect("valid");
        distinct.push(QueryRequest::new(query, accuracy));
    }
    // Interleave the repeats so duplicates are spread across the batch.
    let mut requests = Vec::with_capacity(DISTINCT_QUERIES * REPEATS);
    for _ in 0..REPEATS {
        requests.extend(distinct.iter().copied());
    }
    requests
}

fn reuse_guard() -> Box<dyn ReuseGuard> {
    let model = ChebyshevVariance::new(NODES * per_node());
    Box::new(PostedPriceReuse::new(
        InverseVariancePricing::new(1e9, model),
        model,
    ))
}

struct ModeResult {
    label: &'static str,
    seconds: f64,
    answered: usize,
    values: Vec<u64>,
    stats: Option<BatchStats>,
}

fn queries_per_sec(requests: usize, seconds: f64) -> f64 {
    requests as f64 / seconds.max(1e-12)
}

fn run_sequential(requests: &[QueryRequest]) -> ModeResult {
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(), SEED), SEED);
    broker.set_optimizer_config(optimizer());
    let start = Instant::now();
    let mut values = Vec::with_capacity(requests.len());
    for request in requests {
        let answer = broker.answer(request).expect("sequential answer");
        values.push(answer.value.to_bits());
    }
    ModeResult {
        label: "sequential_flat",
        seconds: start.elapsed().as_secs_f64(),
        answered: values.len(),
        values,
        stats: None,
    }
}

fn run_batched<N: Network>(
    label: &'static str,
    network: N,
    requests: &[QueryRequest],
) -> ModeResult {
    let mut broker = DataBroker::new(network, SEED);
    broker.set_optimizer_config(optimizer());
    broker.enable_answer_cache(reuse_guard());
    let start = Instant::now();
    let report = broker.answer_batch(requests);
    let seconds = start.elapsed().as_secs_f64();
    let values: Vec<u64> = report
        .answers
        .iter()
        .map(|r| r.as_ref().expect("batched answer").value.to_bits())
        .collect();
    ModeResult {
        label,
        seconds,
        answered: values.len(),
        values,
        stats: Some(report.stats),
    }
}

fn mode_json(mode: &ModeResult, total_requests: usize) -> String {
    let mut fields = vec![
        format!("\"mode\": \"{}\"", mode.label),
        format!("\"seconds\": {:.6}", mode.seconds),
        format!(
            "\"queries_per_sec\": {:.2}",
            queries_per_sec(total_requests, mode.seconds)
        ),
        format!("\"answered\": {}", mode.answered),
    ];
    if let Some(stats) = &mode.stats {
        fields.push(format!(
            "\"stats\": {{\"rate_tiers\": {}, \"collection_rounds\": {}, \"samples_collected\": {}, \"cache_hits\": {}, \"chargeable_messages\": {}}}",
            stats.rate_tiers,
            stats.collection_rounds,
            stats.samples_collected,
            stats.cache_hits,
            stats.chargeable_messages,
        ));
    }
    format!("    {{{}}}", fields.join(", "))
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
    let requests = workload();
    let total = requests.len();

    let sequential = run_sequential(&requests);
    let batched_flat = run_batched(
        "batched_flat",
        FlatNetwork::from_partitions(partitions(), SEED),
        &requests,
    );
    // Determinism: a second batched flat run with the same seed must
    // release bit-identical answers.
    let batched_flat_again = run_batched(
        "batched_flat_rerun",
        FlatNetwork::from_partitions(partitions(), SEED),
        &requests,
    );
    let batched_tree = run_batched(
        "batched_tree",
        TreeNetwork::from_partitions(partitions(), 4, SEED),
        &requests,
    );

    let deterministic = batched_flat.values == batched_flat_again.values;
    let drivers_agree = batched_flat.values == batched_tree.values;
    let seq_qps = queries_per_sec(total, sequential.seconds);
    let speedup_flat = queries_per_sec(total, batched_flat.seconds) / seq_qps;
    let speedup_tree = queries_per_sec(total, batched_tree.seconds) / seq_qps;

    let modes = [&sequential, &batched_flat, &batched_tree]
        .iter()
        .map(|m| mode_json(m, total))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"workload\": {{\"requests\": {total}, \"distinct\": {DISTINCT_QUERIES}, \"nodes\": {NODES}, \"population\": {}, \"seed\": {SEED}}},\n  \"modes\": [\n{modes}\n  ],\n  \"speedup_vs_sequential\": {{\"batched_flat\": {speedup_flat:.2}, \"batched_tree\": {speedup_tree:.2}}},\n  \"deterministic_flat\": {deterministic},\n  \"flat_tree_identical\": {drivers_agree}\n}}",
        NODES * per_node(),
    );
    println!("{json}");

    let dir = std::path::Path::new("target/bench");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("bench_batch.json");
        if std::fs::write(&path, &json).is_ok() {
            eprintln!("json: {}", path.display());
        }
    }

    assert!(deterministic, "batched flat runs must be bit-identical");
    assert!(
        drivers_agree,
        "flat and tree drivers must release identical answers"
    );

    // Scan-vs-indexed trajectory: the perf record this PR sequence tracks.
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

    // The trajectory lands at the repository root so successive PRs can
    // diff it; fall back to CWD when the manifest-relative path is absent.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let target = if root.is_dir() {
        root.join("BENCH_rank_index.json")
    } else {
        std::path::PathBuf::from("BENCH_rank_index.json")
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
