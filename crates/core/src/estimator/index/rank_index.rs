//! RankCounting's merged prefix-rank query index: every node's entries
//! read straight from the station, sorted once by value, and the
//! prefix/suffix structure-of-arrays every query reads.

use prc_net::base_station::BaseStation;
use prc_net::message::{key_value, order_key, SampleEntry};

use super::finish_rank_terms;
use crate::estimator::{engine, QueryIndex};
use crate::query::RangeQuery;

/// One station entry with its node's telescoping deltas, computed per
/// node before the sort (a node's neighbours in value order are its
/// neighbours in its own rank-sorted slice).
#[derive(Debug, Clone, Copy)]
struct MergedEntry {
    /// [`order_key`] of the entry's value: the sort key.
    key: u64,
    /// `rank − rank_prev` (`rank` for the node's first entry).
    pred_delta: i64,
    /// `rank − rank_next` (`rank` for the node's last entry).
    succ_delta: i64,
    /// This is the node's first entry (opens its predecessor case).
    first: bool,
    /// This is the node's last entry (closes its successor case).
    last: bool,
    /// `n_i` on the node's last entry, else `0` (suffix population sum).
    pop: i64,
}

fn merged_entry(entries: &[SampleEntry], population: i64, pos: usize) -> MergedEntry {
    let e = entries[pos];
    let prev = if pos > 0 {
        i64::from(entries[pos - 1].rank)
    } else {
        0
    };
    let next = if pos + 1 < entries.len() {
        i64::from(entries[pos + 1].rank)
    } else {
        0
    };
    let last = pos + 1 == entries.len();
    MergedEntry {
        key: order_key(e.value),
        pred_delta: i64::from(e.rank) - prev,
        succ_delta: i64::from(e.rank) - next,
        first: pos == 0,
        last,
        pop: if last { population } else { 0 },
    }
}

/// RankCounting's merged prefix-rank query index: one value-sorted
/// structure-of-arrays over every data-bearing node of a station.
///
/// Five integer aggregates plus the merged values answer `(ΣA, ΣB)` with
/// two `partition_point`s and five lookups — bit-identical to the
/// per-node scan ([`super::scan_rank_terms`]) at `O(log S)` per query.
/// The index describes the station it was built from; the broker
/// rebuilds it when the station's revision moves.
///
/// # Examples
///
/// ```
/// use prc_core::estimator::{RangeCountEstimator, RankCounting, RankIndex};
/// use prc_core::query::RangeQuery;
/// use prc_net::network::{FlatNetwork, Network};
///
/// # fn main() -> Result<(), prc_core::CoreError> {
/// let partitions: Vec<Vec<f64>> = (0..8)
///     .map(|i| (0..500).map(|j| (i * 500 + j) as f64).collect())
///     .collect();
/// let mut network = FlatNetwork::from_partitions(partitions, 11);
/// network.collect_samples(0.25);
///
/// let index = RankIndex::build(network.station()).expect("uniform station");
/// let query = RangeQuery::new(700.0, 2_900.0)?;
/// // Same bits as the O(k log s) per-node path, at O(log S) cost.
/// let scanned = RankCounting.estimate(network.station(), query);
/// assert_eq!(index.estimate(query).to_bits(), scanned.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RankIndex {
    /// The station's uniform sampling probability at build time.
    probability: f64,
    /// Merged sample values, sorted ascending (`S` entries).
    values: Vec<f64>,
    /// `cum_pred_rank[c] = R_pred(c)`: Σ over nodes of the rank of their
    /// last entry among the first `c` merged entries.
    cum_pred_rank: Vec<i64>,
    /// `cum_first[c] = C_pred(c)`: nodes with ≥ 1 entry among the first `c`.
    cum_first: Vec<i64>,
    /// `suf_succ_rank[c] = R_succ(c)`: Σ over nodes of the rank of their
    /// first entry at or after position `c`.
    suf_succ_rank: Vec<i64>,
    /// `suf_last[c] = C_succ(c)`: nodes with ≥ 1 entry at or after `c`.
    suf_last: Vec<i64>,
    /// `suf_pop[c] = N_succ(c)`: Σ `n_i` over nodes with ≥ 1 entry at or
    /// after `c`.
    suf_pop: Vec<i64>,
    /// Σ `n_i` over all data-bearing nodes (entry-less ones included).
    total_population: i64,
}

impl RankIndex {
    /// Builds the index over the station's current samples.
    ///
    /// Returns `None` when the station has no uniform positive sampling
    /// probability across its data-bearing nodes (the `1/p` factoring the
    /// prefix-sum decomposition needs does not exist) — callers fall back
    /// to the per-node scan.
    ///
    /// The build gathers every data-bearing node's entries with their
    /// deltas into one vector, sorts it once by value, and accumulates the
    /// prefix and suffix arrays in one pass each: `O(S log S)` total work
    /// on the calling thread. The sort is unstable: ties between equal
    /// values may land in any order, which no query can observe because
    /// the boundary cuts never fall inside a run of equal values.
    pub fn build(station: &BaseStation) -> Option<RankIndex> {
        let probability = station.uniform_probability()?;
        // The index's arrays are allocated before the sort buffer, so the
        // buffer is the newest allocation and freeing it hands back the
        // top of the heap instead of leaving a hole below the index.
        let s: usize = station.data_bearing_samples().map(|n| n.len()).sum();
        let mut values = Vec::with_capacity(s);
        let mut cum_pred_rank = Vec::with_capacity(s + 1);
        let mut cum_first = Vec::with_capacity(s + 1);
        let mut suf_succ_rank = vec![0i64; s + 1];
        let mut suf_last = vec![0i64; s + 1];
        let mut suf_pop = vec![0i64; s + 1];
        let mut total_population = 0i64;
        let mut merged = Vec::with_capacity(s);
        for sample in station.data_bearing_samples() {
            let population = sample.population_size as i64;
            total_population += population;
            let entries = sample.entries();
            merged.extend((0..entries.len()).map(|pos| merged_entry(entries, population, pos)));
        }
        merged.sort_unstable_by_key(|e| e.key);

        let mut running_pred = 0i64;
        let mut running_first = 0i64;
        cum_pred_rank.push(running_pred);
        cum_first.push(running_first);
        for e in &merged {
            values.push(key_value(e.key));
            running_pred += e.pred_delta;
            running_first += i64::from(e.first);
            cum_pred_rank.push(running_pred);
            cum_first.push(running_first);
        }
        for (j, e) in merged.iter().enumerate().rev() {
            suf_succ_rank[j] = suf_succ_rank[j + 1] + e.succ_delta;
            suf_last[j] = suf_last[j + 1] + i64::from(e.last);
            suf_pop[j] = suf_pop[j + 1] + e.pop;
        }

        Some(RankIndex {
            probability,
            values,
            cum_pred_rank,
            cum_first,
            suf_succ_rank,
            suf_last,
            suf_pop,
            total_population,
        })
    }

    /// Answers one range query: the exact integer aggregates combined
    /// once by [`finish_rank_terms`].
    pub fn estimate(&self, query: RangeQuery) -> f64 {
        let (sum_a, sum_b) = self.rank_terms(query);
        finish_rank_terms(sum_a, sum_b, self.probability)
    }

    /// The exact integer aggregates `(ΣA, ΣB)` for one query — must match
    /// [`super::scan_rank_terms`] exactly: two `partition_point`s
    /// ([`engine::boundary_ranks`]), five lookups, one combine.
    pub fn rank_terms(&self, query: RangeQuery) -> (i64, i64) {
        let (pos_l, pos_u) = engine::boundary_ranks(&self.values, query);
        let sum_a = self.suf_succ_rank[pos_u] - self.cum_pred_rank[pos_l]
            + self.cum_first[pos_l]
            + (self.total_population - self.suf_pop[pos_u]);
        let sum_b = self.cum_first[pos_l] + self.suf_last[pos_u];
        (sum_a, sum_b)
    }

    /// Merged sample entries (`S`).
    pub fn merged_entries(&self) -> usize {
        self.values.len()
    }

    /// The uniform sampling probability the index was built at.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl QueryIndex for RankIndex {
    fn estimate(&self, query: RangeQuery) -> f64 {
        RankIndex::estimate(self, query)
    }

    fn merged_entries(&self) -> usize {
        RankIndex::merged_entries(self)
    }

    fn probability(&self) -> f64 {
        RankIndex::probability(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::index::scan_rank_terms;
    use crate::estimator::{RangeCountEstimator, RankCounting};
    use prc_net::message::{NodeId, SampleMessage};
    use prc_net::network::{FlatNetwork, Network};

    fn q(l: f64, u: f64) -> RangeQuery {
        RangeQuery::new(l, u).unwrap()
    }

    fn ingest(station: &mut BaseStation, node: u32, n: usize, p: f64, pairs: &[(f64, u32)]) {
        station.ingest(SampleMessage {
            node_id: NodeId(node),
            population_size: n,
            probability: p,
            entries: pairs
                .iter()
                .map(|&(value, rank)| SampleEntry { value, rank })
                .collect(),
        });
    }

    /// Asserts the index agrees bit-for-bit with the per-node scan on a
    /// spread of queries, and covers exactly the station's entries.
    fn assert_matches_scan(index: &RankIndex, station: &BaseStation) {
        let entries: usize = station
            .data_bearing_samples()
            .map(|s| s.entries().len())
            .sum();
        assert_eq!(index.merged_entries(), entries);
        for (l, u) in [
            (-1.0e9, 1.0e9),
            (-5.0, 3.0),
            (0.0, 10.0),
            (2.5, 2.5),
            (4.9, 5.1),
            (7.0, 40.0),
            (100.0, 200.0),
            (-20.0, -10.0),
        ] {
            assert_eq!(
                index.rank_terms(q(l, u)),
                scan_rank_terms(station, q(l, u)),
                "scan mismatch on ({l}, {u})"
            );
            assert_eq!(
                index.estimate(q(l, u)).to_bits(),
                RankCounting.estimate(station, q(l, u)).to_bits(),
                "estimate mismatch on ({l}, {u})"
            );
        }
    }

    #[test]
    fn build_matches_the_scan_bit_for_bit() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 10, 0.5, &[(2.0, 2), (5.0, 5), (9.0, 9)]);
        ingest(
            &mut station,
            1,
            8,
            0.5,
            &[(1.0, 1), (5.0, 3), (5.0, 4), (8.0, 7)],
        );
        ingest(&mut station, 2, 6, 0.5, &[]); // sampled nothing: always case 4
        let index = RankIndex::build(&station).unwrap();
        assert_eq!(index.probability(), 0.5);
        assert_matches_scan(&index, &station);
    }

    #[test]
    fn p_one_index_is_exact() {
        let values: Vec<f64> = vec![1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 8.0, 9.0];
        let mut net = FlatNetwork::from_partitions(vec![values.clone()], 1);
        net.collect_samples(1.0);
        let index = RankIndex::build(net.station()).unwrap();
        for (l, u) in [(2.0, 5.0), (1.0, 9.0), (4.0, 4.5), (10.0, 20.0)] {
            let truth = values.iter().filter(|&&v| v >= l && v <= u).count() as f64;
            assert_eq!(index.estimate(q(l, u)), truth, "({l}, {u})");
        }
        assert_eq!(finish_rank_terms(42, 6, 1.0), 36.0);
        assert_eq!(finish_rank_terms(-3, 0, 0.25), -3.0);
    }

    #[test]
    fn heterogeneous_or_empty_stations_decline_to_build() {
        let mut mixed = BaseStation::new();
        ingest(&mut mixed, 0, 4, 0.5, &[(1.0, 1)]);
        ingest(&mut mixed, 1, 4, 0.25, &[(2.0, 2)]);
        assert!(RankIndex::build(&mixed).is_none());
        // The scan path still answers (per-node fallback in the estimator).
        assert!(RankCounting.estimate(&mixed, q(0.0, 3.0)).is_finite());

        assert!(RankIndex::build(&BaseStation::new()).is_none());
        let mut all_empty = BaseStation::new();
        ingest(&mut all_empty, 0, 0, 0.5, &[]);
        assert!(RankIndex::build(&all_empty).is_none());
    }

    #[test]
    fn zero_population_nodes_are_ignored() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 6, 0.5, &[(1.0, 1), (4.0, 4)]);
        ingest(&mut station, 1, 0, 0.9, &[]);
        let index = RankIndex::build(&station).unwrap();
        assert_matches_scan(&index, &station);
    }
}
