//! The merged prefix-rank query index: `O(log S)` RankCounting.
//!
//! The per-node RankCounting path answers a query `[l, u]` with **two
//! binary searches per node** — `O(k·log s)` over `k` nodes. That is fine
//! for one query, but the broker's whole value proposition is amortizing
//! one collection epoch across many priced queries, and at `k` in the tens
//! of thousands the per-node scan dominates every batch.
//! [`RankIndex`] removes the `k` factor: after a collection epoch it
//! merges all `S` sample entries into one value-sorted
//! structure-of-arrays whose prefix sums encode *every* node's boundary
//! state at every threshold, so one query costs **two binary searches
//! total** — `O(log S)`.
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
//! ## Build, rebuild, and when to pay
//!
//! An index describes the station it was built from. The broker keeps it
//! while the station's revision stands and rebuilds it from scratch when
//! a collection round moves the revision: a stricter demand's top-up
//! raises every node's sampling probability, so a round normally changes
//! the whole station anyway. The [`cost`] module's ski-rental accrual
//! decides when paying for the first build beats continuing to scan.
//!
//! ## Complexity
//!
//! | path           | per query     | build        |
//! |----------------|---------------|--------------|
//! | per-node scan  | `O(k log s)`  | —            |
//! | [`RankIndex`]  | `O(log S)`    | `O(S log S)` |
//!
//! A build gathers every node's entries from the station with their
//! per-node deltas, sorts them once by value, and accumulates the
//! prefix/suffix arrays in one pass each, all on the calling thread.

pub mod cost;
mod rank_index;

pub use cost::BuildAccrual;
pub use rank_index::RankIndex;

use prc_net::base_station::BaseStation;

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

/// The per-node reference path: accumulates the exact integer aggregates
/// `(ΣA, ΣB)` with two binary searches per data-bearing node.
///
/// [`RankCounting`](crate::estimator::RankCounting)'s
/// [`estimate`](crate::estimator::RangeCountEstimator::estimate) uses
/// this whenever the station reports a uniform sampling probability; the
/// index must agree with it bit-for-bit on every query (enforced by the
/// property tests and the benches' self-checks) — it is the one oracle.
pub fn scan_rank_terms(station: &BaseStation, query: RangeQuery) -> (i64, i64) {
    let mut sum_a: i64 = 0;
    let mut sum_b: i64 = 0;
    for sample in station.data_bearing_samples() {
        // Entries are sorted by rank, hence by value (node data is sorted).
        let entries = sample.entries();
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
            None => sum_a += sample.population_size as i64,
        }
    }
    (sum_a, sum_b)
}
