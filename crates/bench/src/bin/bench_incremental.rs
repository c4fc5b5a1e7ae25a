//! Incremental-index epoch benchmark: the perf record for the
//! segmented [`SegmentedRankIndex`] against a per-epoch monolithic
//! rebuild and the raw per-node scan.
//!
//! The simulated deployment is the regime the continuous-marketplace
//! papers assume: many collection epochs, each changing only a slice of
//! the network, with a query workload answered between rounds. The
//! epoch schedule uses the two delta sources that keep a station's
//! sampling probability uniform (so every strategy stays on the exact
//! RankCounting path):
//!
//! 1. *revival catch-up* — the tree's leaf nodes start dead and come
//!    back a few per epoch, catching up to the constant target, so each
//!    round's delta is exactly the revived nodes (leaves only, so the
//!    flat and tree drivers hold byte-identical stations);
//! 2. a final *global top-up* to a higher target — a full delta that
//!    mass-tombstones the old segments and lets compaction collapse the
//!    index back to a single segment (the steady state the q=4096
//!    throughput bar is measured at). A full delta is rebuild-equivalent
//!    for every strategy (every node changes), so its maintenance cost
//!    is reported separately (`topup_maintain_seconds`) and the
//!    amortized speedups are totalled over the incremental epochs only.
//!
//! Three strategies answer the identical per-epoch workload:
//!
//! * `scan` — no index; every query pays the O(k log s) per-node scan;
//! * `monolithic` — a fresh single-segment [`SegmentedRankIndex`]
//!   rebuilt every epoch (no delta absorption);
//! * `segmented` — one [`SegmentedRankIndex`] built at epoch 0 and fed
//!   each round's [`RoundDelta`] via `absorb_delta`.
//!
//! Every cell checks all three strategies release bit-identical
//! estimates, on every driver; the summary asserts the cross-driver
//! bits match too. Results land in `BENCH_incremental_index.json` at
//! the repository root.
//!
//! Run with `cargo run -p prc-bench --release --bin bench_incremental`.
//! Set `PRC_BENCH_SMOKE=1` for CI-smoke sizes: the bit-identity checks
//! and the deterministic maintenance-entries regression bar still run;
//! the wall-clock speedup bars (amortized ≥ 1× at q=16, steady-state
//! per-query ≥ 0.9× of monolithic at q=4096) are full-mode only.

use std::time::Instant;

use prc_core::estimator::{RangeCountEstimator, RankCounting, SegmentedRankIndex};
use prc_core::query::RangeQuery;
use prc_net::failure::FailurePlan;
use prc_net::message::NodeId;
use prc_net::network::{FlatNetwork, Network};
use prc_net::tree::TreeNetwork;

const SEED: u64 = 4019;
/// Constant revival target: every incremental epoch collects at `P0`.
const P0: f64 = 0.25;
/// Final global top-up target (the full-delta epoch).
const P1: f64 = 0.5;
const TREE_BRANCHING: usize = 2;

fn smoke() -> bool {
    std::env::var("PRC_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The epoch grid's fixed dimensions.
struct Shape {
    nodes: usize,
    per_node: usize,
    /// Node ids that are leaves of the binary aggregation tree (heap
    /// layout: children of `i` are `2i+1, 2i+2`, so ids `>= nodes/2`
    /// have none). Only leaves are ever killed, which keeps the tree
    /// driver's delivered set equal to the flat driver's.
    leaves: std::ops::Range<u32>,
    revive_per_epoch: usize,
}

fn shape() -> Shape {
    if smoke() {
        Shape {
            nodes: 16,
            per_node: 60,
            leaves: 8..16,
            revive_per_epoch: 2,
        }
    } else {
        Shape {
            nodes: 256,
            per_node: 200,
            leaves: 128..256,
            revive_per_epoch: 4,
        }
    }
}

fn query_counts() -> &'static [usize] {
    if smoke() {
        &[8, 64]
    } else {
        &[16, 4_096]
    }
}

fn partitions(shape: &Shape) -> Vec<Vec<f64>> {
    (0..shape.nodes)
        .map(|i| {
            (0..shape.per_node)
                .map(|j| (i * shape.per_node + j) as f64)
                .collect()
        })
        .collect()
}

/// The epoch schedule: `(failure plan, collection target)` per round.
///
/// Epoch `e` keeps leaves `[e * revive_per_epoch ..]` dead; once every
/// leaf is alive, one final round raises the global target to `P1`.
fn schedule(shape: &Shape) -> Vec<(FailurePlan, f64)> {
    let leaf_count = shape.leaves.len();
    let mut rounds = Vec::new();
    let mut revived = 0;
    loop {
        let mut plan = FailurePlan::none();
        for leaf in shape.leaves.clone().skip(revived) {
            plan.kill_node(NodeId(leaf));
        }
        rounds.push((plan, P0));
        if revived >= leaf_count {
            break;
        }
        revived = (revived + shape.revive_per_epoch).min(leaf_count);
    }
    rounds.push((FailurePlan::none(), P1));
    rounds
}

/// Deterministic mixed-width workload over support `[0, n)`, varied per
/// epoch so the bit-identity check covers fresh ranges every round.
fn epoch_queries(count: usize, n: f64, epoch: usize) -> Vec<RangeQuery> {
    (0..count)
        .map(|i| {
            let lower = n * 0.9 * (((i * 61 + epoch * 17) % 128) as f64) / 128.0;
            let width = n * (0.05 + 0.3 * (((i * 37 + epoch * 29) % 16) as f64) / 16.0);
            RangeQuery::new(lower, (lower + width).min(n)).expect("valid range")
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    Scan,
    Monolithic,
    Segmented,
}

/// One strategy's full run over the epoch schedule.
///
/// The incremental phase (all revival epochs, initial build included)
/// and the final global top-up are totalled separately: a full delta is
/// a rebuild-equivalent event by construction — every node changes, so
/// *any* strategy pays `O(S log S)` for it — and folding that one-off
/// into the per-epoch amortization would measure the top-up, not the
/// incremental maintenance this benchmark exists to track.
struct StrategyRun {
    bits: Vec<u64>,
    /// Maintenance seconds across the incremental (revival) epochs.
    incr_maintain_seconds: f64,
    /// Query seconds across the incremental epochs.
    incr_query_seconds: f64,
    /// Maintenance seconds for the final full top-up epoch.
    topup_maintain_seconds: f64,
    /// Best-of-5 single-pass time for the final (post-compaction) epoch.
    final_query_seconds: f64,
    /// Entries the strategy's maintenance touched across all epochs
    /// (merged for a rebuild; appended + tombstoned for an absorb) — a
    /// deterministic, noise-free measure of incrementality.
    maintenance_entries: usize,
    max_segments: usize,
    final_segments: usize,
    delta_appends: u64,
    compactions: u64,
}

/// Whole-run repetitions per strategy: timings are the element-wise
/// minimum across repetitions (a single pass is noise-prone), bits must
/// be identical across repetitions.
const REPS: usize = 3;

fn run_strategy<N: Network>(
    build: impl Fn() -> N,
    shape: &Shape,
    q: usize,
    strategy: Strategy,
) -> StrategyRun {
    let mut best: Option<StrategyRun> = None;
    for _ in 0..REPS {
        let rep = run_once(build(), shape, q, strategy);
        best = Some(match best {
            None => rep,
            Some(mut acc) => {
                assert_eq!(acc.bits, rep.bits, "a repetition changed the released bits");
                acc.incr_maintain_seconds =
                    acc.incr_maintain_seconds.min(rep.incr_maintain_seconds);
                acc.incr_query_seconds = acc.incr_query_seconds.min(rep.incr_query_seconds);
                acc.topup_maintain_seconds =
                    acc.topup_maintain_seconds.min(rep.topup_maintain_seconds);
                acc.final_query_seconds = acc.final_query_seconds.min(rep.final_query_seconds);
                acc
            }
        });
    }
    best.expect("REPS >= 1")
}

fn run_once<N: Network>(
    mut network: N,
    shape: &Shape,
    q: usize,
    strategy: Strategy,
) -> StrategyRun {
    let n = (shape.nodes * shape.per_node) as f64;
    let rounds = schedule(shape);
    let last_epoch = rounds.len() - 1;

    let mut segmented: Option<SegmentedRankIndex> = None;
    let mut monolithic: Option<SegmentedRankIndex> = None;
    let mut run = StrategyRun {
        bits: Vec::new(),
        incr_maintain_seconds: 0.0,
        incr_query_seconds: 0.0,
        topup_maintain_seconds: 0.0,
        final_query_seconds: f64::INFINITY,
        maintenance_entries: 0,
        max_segments: 0,
        final_segments: 0,
        delta_appends: 0,
        compactions: 0,
    };

    for (epoch, (plan, target)) in rounds.into_iter().enumerate() {
        network.set_failure_plan(plan);
        let delta = network.collect_delta(target);
        let station = network.station();

        let maintain_start = Instant::now();
        match strategy {
            Strategy::Scan => {}
            Strategy::Monolithic => {
                let index = SegmentedRankIndex::build(station).expect("uniform station builds");
                run.maintenance_entries += index.merged_entries();
                monolithic = Some(index);
            }
            Strategy::Segmented => match segmented.as_mut() {
                None => {
                    let index = SegmentedRankIndex::build(station).expect("uniform station builds");
                    run.maintenance_entries += index.merged_entries();
                    segmented = Some(index);
                }
                Some(index) => {
                    let outcome = index
                        .absorb_delta(station, &delta.changed)
                        .expect("revival epochs keep the station uniform");
                    run.maintenance_entries +=
                        outcome.appended_entries + outcome.tombstoned_entries;
                }
            },
        }
        let maintain_elapsed = maintain_start.elapsed().as_secs_f64();
        if epoch == last_epoch {
            run.topup_maintain_seconds += maintain_elapsed;
        } else {
            run.incr_maintain_seconds += maintain_elapsed;
        }
        if let Some(index) = &segmented {
            run.max_segments = run.max_segments.max(index.segments());
            run.final_segments = index.segments();
            run.delta_appends = index.delta_appends();
            run.compactions = index.compactions();
        }

        let queries = epoch_queries(q, n, epoch);
        let answer = |query: RangeQuery| -> u64 {
            match strategy {
                Strategy::Scan => RankCounting.estimate(station, query).to_bits(),
                Strategy::Monolithic => monolithic
                    .as_ref()
                    .map(|i| i.estimate(query).to_bits())
                    .unwrap_or(0),
                Strategy::Segmented => segmented
                    .as_ref()
                    .map(|i| i.estimate(query).to_bits())
                    .unwrap_or(0),
            }
        };

        let query_start = Instant::now();
        for &query in &queries {
            run.bits.push(answer(query));
        }
        if epoch != last_epoch {
            run.incr_query_seconds += query_start.elapsed().as_secs_f64();
        }

        if epoch == last_epoch {
            // Steady-state per-query throughput: best of 5 extra passes
            // over the final epoch's workload, minimizing timer noise.
            for _ in 0..5 {
                let pass = Instant::now();
                let mut sink = 0u64;
                for &query in &queries {
                    sink ^= answer(query);
                }
                std::hint::black_box(sink);
                run.final_query_seconds = run.final_query_seconds.min(pass.elapsed().as_secs_f64());
            }
        }
    }
    run
}

/// One (driver × queries-per-epoch) cell: all three strategies.
struct Cell {
    driver: &'static str,
    queries_per_epoch: usize,
    epochs: usize,
    scan: StrategyRun,
    monolithic: StrategyRun,
    segmented: StrategyRun,
}

impl Cell {
    fn identical(&self) -> bool {
        self.scan.bits == self.monolithic.bits && self.scan.bits == self.segmented.bits
    }

    /// Build-inclusive speedup of the segmented index over the scan,
    /// totalled across the incremental (revival) epochs — the final
    /// global top-up is rebuild-equivalent for every strategy and is
    /// reported separately as `topup_maintain_seconds`.
    fn amortized_vs_scan(&self) -> f64 {
        self.scan.incr_query_seconds
            / (self.segmented.incr_maintain_seconds + self.segmented.incr_query_seconds).max(1e-12)
    }

    /// Build-inclusive speedup of the segmented index over rebuilding
    /// the monolithic index every incremental epoch.
    fn amortized_vs_monolithic(&self) -> f64 {
        (self.monolithic.incr_maintain_seconds + self.monolithic.incr_query_seconds)
            / (self.segmented.incr_maintain_seconds + self.segmented.incr_query_seconds).max(1e-12)
    }

    /// Steady-state (final, fully-compacted epoch) per-query throughput
    /// of the segmented index relative to the monolithic one.
    fn steady_ratio_vs_monolithic(&self) -> f64 {
        self.monolithic.final_query_seconds / self.segmented.final_query_seconds.max(1e-12)
    }

    fn json(&self) -> String {
        format!(
            "    {{\"driver\": \"{}\", \"queries_per_epoch\": {}, \"epochs\": {}, \
\"scan\": {{\"incr_query_seconds\": {:.6}}}, \
\"monolithic\": {{\"incr_maintain_seconds\": {:.6}, \"incr_query_seconds\": {:.6}, \"topup_maintain_seconds\": {:.6}, \"final_pass_seconds\": {:.6}, \"maintenance_entries\": {}}}, \
\"segmented\": {{\"incr_maintain_seconds\": {:.6}, \"incr_query_seconds\": {:.6}, \"topup_maintain_seconds\": {:.6}, \"final_pass_seconds\": {:.6}, \"maintenance_entries\": {}, \"max_segments\": {}, \"final_segments\": {}, \"delta_appends\": {}, \"compactions\": {}}}, \
\"amortized_speedup_vs_scan\": {:.2}, \"amortized_speedup_vs_monolithic\": {:.2}, \"steady_per_query_ratio_vs_monolithic\": {:.2}, \"identical\": {}}}",
            self.driver,
            self.queries_per_epoch,
            self.epochs,
            self.scan.incr_query_seconds,
            self.monolithic.incr_maintain_seconds,
            self.monolithic.incr_query_seconds,
            self.monolithic.topup_maintain_seconds,
            self.monolithic.final_query_seconds,
            self.monolithic.maintenance_entries,
            self.segmented.incr_maintain_seconds,
            self.segmented.incr_query_seconds,
            self.segmented.topup_maintain_seconds,
            self.segmented.final_query_seconds,
            self.segmented.maintenance_entries,
            self.segmented.max_segments,
            self.segmented.final_segments,
            self.segmented.delta_appends,
            self.segmented.compactions,
            self.amortized_vs_scan(),
            self.amortized_vs_monolithic(),
            self.steady_ratio_vs_monolithic(),
            self.identical(),
        )
    }
}

fn run_cell(driver: &'static str, shape: &Shape, q: usize) -> Cell {
    let build_flat = || FlatNetwork::from_partitions(partitions(shape), SEED);
    let build_tree = || TreeNetwork::from_partitions(partitions(shape), TREE_BRANCHING, SEED);
    let run = |strategy: Strategy| match driver {
        "flat" => run_strategy(build_flat, shape, q, strategy),
        _ => run_strategy(build_tree, shape, q, strategy),
    };
    Cell {
        driver,
        queries_per_epoch: q,
        epochs: schedule(shape).len(),
        scan: run(Strategy::Scan),
        monolithic: run(Strategy::Monolithic),
        segmented: run(Strategy::Segmented),
    }
}

fn main() {
    let shape = shape();
    let mut cells: Vec<Cell> = Vec::new();
    for &q in query_counts() {
        for driver in ["flat", "tree"] {
            cells.push(run_cell(driver, &shape, q));
        }
    }

    // Bit-identity: every strategy agrees within a cell, and the two
    // drivers release identical bits for the same workload.
    let all_identical = cells.iter().all(Cell::identical)
        && query_counts().iter().all(|&q| {
            let mut per_driver = cells
                .iter()
                .filter(|c| c.queries_per_epoch == q)
                .map(|c| &c.segmented.bits);
            match per_driver.next() {
                Some(first) => per_driver.all(|bits| bits == first),
                None => true,
            }
        });

    let cell_json = cells.iter().map(Cell::json).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"incremental_index\",\n  \"smoke\": {},\n  \"seed\": {SEED},\n  \"shape\": {{\"nodes\": {}, \"per_node\": {}, \"leaves\": [{}, {}], \"revive_per_epoch\": {}, \"p0\": {P0}, \"p1\": {P1}}},\n  \"cells\": [\n{cell_json}\n  ],\n  \"all_identical\": {all_identical}\n}}",
        smoke(),
        shape.nodes,
        shape.per_node,
        shape.leaves.start,
        shape.leaves.end,
        shape.revive_per_epoch,
    );
    println!("{json}");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let target = if root.is_dir() {
        root.join("BENCH_incremental_index.json")
    } else {
        std::path::PathBuf::from("BENCH_incremental_index.json")
    };
    match std::fs::write(&target, &json) {
        Ok(()) => eprintln!("json: {}", target.display()),
        Err(e) => eprintln!("could not write {}: {e}", target.display()),
    }

    assert!(
        all_identical,
        "segmented/monolithic/scan or cross-driver bits diverged"
    );

    // Deterministic incrementality bar (runs in smoke too — no wall
    // clock): across the whole schedule the segmented index must touch
    // far fewer entries than rebuild-per-epoch.
    for cell in &cells {
        assert!(
            cell.segmented.maintenance_entries < cell.monolithic.maintenance_entries,
            "{} q={}: segmented maintenance touched {} entries vs {} for rebuilds — deltas are not incremental",
            cell.driver,
            cell.queries_per_epoch,
            cell.segmented.maintenance_entries,
            cell.monolithic.maintenance_entries,
        );
        assert_eq!(
            cell.segmented.final_segments, 1,
            "{} q={}: the full top-up must compact back to one segment",
            cell.driver, cell.queries_per_epoch,
        );
        assert!(cell.segmented.compactions > 0);
    }

    // Wall-clock bars, full mode only (smoke sizes are noise-dominated).
    if !smoke() {
        let (low_q, high_q) = match *query_counts() {
            [low_q, high_q] => (low_q, high_q),
            _ => unreachable!("query grid is two-valued"),
        };
        for cell in &cells {
            if cell.queries_per_epoch == low_q {
                let vs_scan = cell.amortized_vs_scan();
                let vs_mono = cell.amortized_vs_monolithic();
                assert!(
                    vs_scan >= 1.0,
                    "{} q={}: amortized speedup vs scan {vs_scan:.2}× < 1×",
                    cell.driver,
                    cell.queries_per_epoch,
                );
                assert!(
                    vs_mono >= 1.0,
                    "{} q={}: amortized speedup vs monolithic rebuilds {vs_mono:.2}× < 1×",
                    cell.driver,
                    cell.queries_per_epoch,
                );
            }
            if cell.queries_per_epoch == high_q {
                let ratio = cell.steady_ratio_vs_monolithic();
                assert!(
                    ratio >= 0.9,
                    "{} q={}: steady-state per-query throughput {ratio:.2}× of monolithic < 0.9×",
                    cell.driver,
                    cell.queries_per_epoch,
                );
            }
        }
    }
}
