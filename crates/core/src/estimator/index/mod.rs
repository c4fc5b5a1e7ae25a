//! The merged prefix-rank query index: `O(log S)` RankCounting,
//! maintained incrementally.
//!
//! The per-node RankCounting path answers a query `[l, u]` with **two
//! binary searches per node** — `O(k·log s)` over `k` nodes. That is fine
//! for one query, but the broker's whole value proposition is amortizing
//! one collection epoch across many priced queries, and at `k` in the tens
//! of thousands the per-node scan dominates every batch.
//! [`SegmentedRankIndex`] removes the `k` factor: after a collection
//! epoch it merges all `S` sample entries into one value-sorted
//! structure-of-arrays whose prefix sums encode *every* node's boundary state at every threshold, so one
//! query costs **two binary searches total** — `O(log S)`.
//!
//! ## The per-case decomposition
//!
//! Theorem 3.1 gives four per-node cases, depending on whether the
//! boundary predecessor `𝔭(l, i)` (largest-rank sample with value `< l`)
//! and successor `𝔰(u, i)` (smallest-rank sample with value `> u`) exist:
//!
//! ```text
//! γ̂ᵢ = rank(𝔰) − rank(𝔭) + 1 − 2/p   (both)
//!    = n_i − rank(𝔭) + 1 − 1/p       (predecessor only)
//!    = rank(𝔰) − 1/p                 (successor only)
//!    = n_i                           (neither)
//! ```
//!
//! Every case is of the form `Aᵢ − Bᵢ/p` with `Aᵢ ∈ ℤ` and
//! `Bᵢ = [𝔭 exists] + [𝔰 exists] ∈ {0, 1, 2}`, and the global sum
//! regroups into five range-decomposable integer aggregates:
//!
//! ```text
//! Σᵢ Aᵢ = Σ_{𝔰 exists} rank(𝔰)            (R_succ)
//!       − Σ_{𝔭 exists} rank(𝔭)            (R_pred)
//!       + #{i : 𝔭 exists}                  (C_pred)
//!       + Σ_{𝔰 missing} n_i                (N − N_succ)
//! Σᵢ Bᵢ = C_pred + #{i : 𝔰 exists}         (C_succ)
//! ```
//!
//! In the merged value-sorted order, each node's entries keep their rank
//! order, so "node `i`'s predecessor under threshold `c`" is simply its
//! *last* entry among the first `c` merged entries. Extending the prefix
//! by one entry of node `i` with rank `r` therefore changes `R_pred` by
//! `r − r_prev` (the node's previous entry's rank, `0` for its first) —
//! a per-entry constant. The same telescoping works from the right for
//! `R_succ`. All five aggregates become prefix/suffix sums over per-entry
//! deltas, evaluated at the two cut positions
//! `pos_l = #{values < l}` and `pos_u = #{values ≤ u}`.
//!
//! ## Bit-exact agreement with the per-node path
//!
//! The index and the per-node scan ([`scan_rank_terms`])
//! accumulate the *same* exact integers `(ΣA, ΣB)` and apply the *same*
//! final float expression ([`finish_rank_terms`]), so their results are
//! bit-identical by construction — the broker may switch between them
//! freely without perturbing its determinism and cross-driver identity
//! guarantees. The decomposition requires one shared `1/p`, so an index
//! only exists for stations whose data-bearing nodes report one uniform
//! positive sampling probability ([`BaseStation::uniform_probability`]);
//! heterogeneous stations stay on the per-node path.
//!
//! ## Incremental maintenance (LSM-style segments)
//!
//! A fresh build is one merged segment over every node. The index
//! generalizes it into a sequence of immutable sorted *segments*, each
//! covering a disjoint subset of nodes. Because `(ΣA, ΣB)` are plain integer sums over
//! nodes, a query fans the same pair of `partition_point`s across every
//! segment and adds the per-segment aggregates — still bit-identical.
//! A collection round's [`RoundDelta`](prc_net::network::RoundDelta)
//! names exactly the changed nodes: the index *tombstones* them in older
//! segments (their exact old contribution is subtracted per query from
//! per-node snapshots) and builds one new segment over just their fresh
//! samples — `O(Δ log Δ)` instead of `O(S log S)` per round. A
//! deterministic size-tiered [`CompactionPolicy`] (a pure function of
//! segment sizes; `compaction` module) bounds the segment count, and the
//! [`cost`] module's ski-rental accrual decides when paying for a build
//! beats continuing to scan. The sampling probability only enters at
//! [`finish_rank_terms`], so segments built at different probabilities
//! remain valid across top-ups.
//!
//! ## Complexity
//!
//! | path                   | per query       | build / maintain          |
//! |------------------------|-----------------|---------------------------|
//! | per-node scan          | `O(k log s)`    | —                         |
//! | fresh build (`m = 1`)  | `O(log S)`      | `O(S log S)`              |
//! | [`SegmentedRankIndex`] | `O(m log S)`    | `O(Δ log Δ)` per delta    |
//!
//! (`m` = live segments, bounded logarithmically by compaction; `Δ` =
//! entries of the round's changed nodes.)
//!
//! Builds shard one run per node (entries are already value-sorted),
//! k-way merge shards over the shared `prc-runtime` pool, and accumulate
//! the prefix/suffix arrays in one sequential pass.

pub mod compaction;
pub mod cost;
mod merge;
mod segment;
mod segmented;

pub use compaction::CompactionPolicy;
pub use cost::{BuildAccrual, CostModel};
pub use segmented::SegmentedRankIndex;

use prc_net::base_station::BaseStation;
use prc_net::message::SampleEntry;

use crate::query::RangeQuery;

/// The canonical combine step shared by the indexed and per-node paths:
/// `ΣA − ΣB/p` evaluated with one fixed floating-point expression.
///
/// Keeping this a single function is what makes all paths bit-exact:
/// each feeds it identical exact integers, so each releases identical
/// bits. With `p = 1` the result is an exact integer (the estimator
/// degenerates to exact counting).
pub fn finish_rank_terms(sum_a: i64, sum_b: i64, p: f64) -> f64 {
    sum_a as f64 - sum_b as f64 / p
}

/// One node's exact integer contribution `(Aᵢ, Bᵢ)` to a query, from its
/// rank-sorted entry slice and claimed population.
///
/// This is the single source of truth for the per-node arithmetic: the
/// scan path sums it over every data-bearing node, and segments use it
/// to subtract a tombstoned node's old contribution exactly. Integer
/// addition is associative, so any grouping of nodes into segments sums
/// to the same `(ΣA, ΣB)`.
pub(crate) fn node_rank_terms(
    entries: &[SampleEntry],
    population: i64,
    query: RangeQuery,
) -> (i64, i64) {
    let mut sum_a: i64 = 0;
    let mut sum_b: i64 = 0;
    // Entries are sorted by rank, hence by value (node data is sorted).
    let (pred_idx, succ_idx) = crate::estimator::engine::entry_boundary_ranks(entries, query);
    if pred_idx > 0 {
        sum_a += 1 - i64::from(entries[pred_idx - 1].rank);
        sum_b += 1;
    }
    match entries.get(succ_idx) {
        Some(succ) => {
            sum_a += i64::from(succ.rank);
            sum_b += 1;
        }
        None => sum_a += population,
    }
    (sum_a, sum_b)
}

/// The per-node reference path: accumulates the exact integer aggregates
/// `(ΣA, ΣB)` with two binary searches per data-bearing node.
///
/// [`crate::estimator::RankCounting::estimate`] uses this whenever the
/// station reports a uniform sampling probability; the index must agree
/// with it bit-for-bit on every query (enforced by the property tests
/// and the benches' self-checks) — it is the one oracle.
pub fn scan_rank_terms(station: &BaseStation, query: RangeQuery) -> (i64, i64) {
    let mut sum_a: i64 = 0;
    let mut sum_b: i64 = 0;
    for sample in station.data_bearing_samples() {
        let (a, b) = node_rank_terms(sample.entries(), sample.population_size as i64, query);
        sum_a += a;
        sum_b += b;
    }
    (sum_a, sum_b)
}
