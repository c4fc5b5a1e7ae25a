//! Sampling-based range-count estimators (§III-A).
//!
//! Both estimators consume the per-node sample sets collected by the
//! `prc-net` base station and estimate the global count
//! `γ(l, u, D) = Σᵢ γ(l, u, i)` as a sum of independent per-node
//! estimates:
//!
//! * [`BasicCounting`] — the straightforward baseline
//!   `γ_B = |{x ∈ S : l ≤ x ≤ u}|/p`; unbiased, but its variance
//!   `γ(l,u,D)(1−p)/p` grows with the queried range, up to `|D|(1−p)/p`;
//! * [`RankCounting`] — the paper's estimator, which exploits each sampled
//!   element's local rank. Its per-node variance is bounded by `8/p²`
//!   **independent of the range width** (Theorem 3.1), so the global
//!   variance is at most `8k/p²` (Theorem 3.2).
//!
//! Estimators may additionally offer a per-epoch [`QueryIndex`]
//! (via [`RangeCountEstimator::build_index`]): an immutable snapshot built
//! after a collection round that answers subsequent queries faster
//! than the per-node walk. [`RankIndex`] is RankCounting's index — a
//! merged prefix-rank structure that turns `O(k log s)` per query into
//! `O(log S)` with bit-identical results.

pub mod basic;
pub mod engine;
pub mod index;
pub mod rank;

pub use basic::BasicCounting;
pub use index::{BuildAccrual, RankIndex};
pub use rank::RankCounting;

use prc_net::base_station::{BaseStation, NodeSample};
use prc_net::message::NodeId;

use crate::query::RangeQuery;

/// What one [`QueryIndex::absorb_delta`] call did. No index in this
/// crate absorbs deltas; the type stays only because the end-to-end
/// benchmark's traced index names it, and goes with that benchmark's next
/// revision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Sample entries appended in the delta's fresh segment.
    pub appended_entries: usize,
    /// Entries newly tombstoned in older segments.
    pub tombstoned_entries: usize,
    /// Compaction steps applied after the append.
    pub compactions: u64,
}

/// A batch of estimates resolved in one call, plus a work meter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchEstimate {
    /// One estimate per submitted query, in submission order.
    pub estimates: Vec<f64>,
    /// Search steps an implementation chose to report. No index in this
    /// crate reports any, so it reads `0`; the field stays only because
    /// the end-to-end benchmark reads it, and goes with its next
    /// revision.
    pub gallop_steps: u64,
}

/// A per-epoch query accelerator over a station's samples.
///
/// An index answers queries against the sample state it was built from;
/// its owner (the broker) rebuilds it once a collection round moves the
/// station. Implementations must return results **bit-identical** to the
/// estimator's direct [`RangeCountEstimator::estimate`] on the same
/// station, so switching between the paths can never change a released
/// answer.
pub trait QueryIndex: std::fmt::Debug {
    /// Estimates the global count `γ(l, u, D)` for one query.
    fn estimate(&self, query: RangeQuery) -> f64;

    /// Estimates a whole batch of queries in submission order.
    ///
    /// Must return exactly the bits of calling
    /// [`QueryIndex::estimate`] per query, which is what the default
    /// does.
    fn estimate_batch(&self, queries: &[RangeQuery]) -> BatchEstimate {
        BatchEstimate {
            estimates: queries.iter().map(|&query| self.estimate(query)).collect(),
            gallop_steps: 0,
        }
    }

    /// Number of merged sample entries the index covers (`S`).
    fn merged_entries(&self) -> usize;

    /// The uniform sampling probability the index was built at.
    fn probability(&self) -> f64;

    /// Segments the index answers from: always `1`. Nothing in this
    /// crate calls or overrides it; it stays only because the end-to-end
    /// benchmark's traced index forwards it, and goes with that
    /// benchmark's next revision.
    fn segments(&self) -> usize {
        1
    }

    /// Declines every delta: owners rebuild an index whose station moved.
    /// Nothing in this crate calls or overrides it; it stays only because
    /// the end-to-end benchmark's traced index forwards it, and goes with
    /// that benchmark's next revision.
    fn absorb_delta(&mut self, station: &BaseStation, changed: &[NodeId]) -> Option<DeltaOutcome> {
        let _ = (station, changed);
        None
    }
}

/// A sampling-based estimator of range counts.
///
/// Implementations must produce *unbiased* per-node estimates whenever the
/// query range intersects the node's value support (see the crate docs for
/// the degenerate boundary cases).
pub trait RangeCountEstimator {
    /// Short human-readable name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Estimates the local count `γ(l, u, i)` from one node's sample set.
    ///
    /// Returns `0` when the node holds no data. The estimate may be
    /// negative or exceed `n_i`; consumers that need a physical count may
    /// clamp, but clamping forfeits unbiasedness.
    fn estimate_node(&self, sample: &NodeSample, query: RangeQuery) -> f64;

    /// Estimates the global count `γ(l, u, D) = Σᵢ γ(l, u, i)`.
    fn estimate(&self, station: &BaseStation, query: RangeQuery) -> f64 {
        station
            .node_samples()
            .map(|s| self.estimate_node(s, query))
            .sum()
    }

    /// Worst-case variance bound of the *global* estimate for `k` nodes,
    /// population `n`, and sampling probability `p`.
    fn variance_bound(&self, k: usize, n: usize, p: f64) -> f64;

    /// Builds a per-epoch [`QueryIndex`] over the station's current
    /// samples, if this estimator supports one *and* the station's state
    /// admits it (e.g. a uniform sampling probability).
    ///
    /// The default declines; estimators without an accelerated path run
    /// every query through [`RangeCountEstimator::estimate`].
    fn build_index(&self, station: &BaseStation) -> Option<Box<dyn QueryIndex>> {
        let _ = station;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prc_net::message::{NodeId, SampleEntry, SampleMessage};

    /// The default `estimate` sums per-node estimates.
    struct One;
    impl RangeCountEstimator for One {
        fn name(&self) -> &'static str {
            "one"
        }
        fn estimate_node(&self, _: &NodeSample, _: RangeQuery) -> f64 {
            1.0
        }
        fn variance_bound(&self, _: usize, _: usize, _: f64) -> f64 {
            0.0
        }
    }

    #[test]
    fn default_estimate_sums_nodes() {
        let mut station = BaseStation::new();
        for i in 0..5 {
            station.ingest(SampleMessage {
                node_id: NodeId(i),
                population_size: 10,
                probability: 0.5,
                entries: vec![SampleEntry {
                    value: 1.0,
                    rank: 1,
                }],
            });
        }
        let q = RangeQuery::new(0.0, 2.0).unwrap();
        assert_eq!(One.estimate(&station, q), 5.0);
    }
}
