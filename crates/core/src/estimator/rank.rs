//! The RankCounting estimator (§III-A, Theorems 3.1–3.3).
//!
//! Each node ships sampled values together with their **local ranks**
//! (1-based positions in the node's sorted data). Given a query `[l, u]`,
//! the estimator looks only at two *boundary* samples:
//!
//! * the predecessor `𝔭(l, i)` — the sampled element of largest rank with
//!   value **strictly below** `l`;
//! * the successor `𝔰(u, i)` — the sampled element of smallest rank with
//!   value **strictly above** `u`;
//!
//! and corrects the rank distance between them by the expected boundary
//! gap `1/p` per existing side:
//!
//! ```text
//! γ̂(l, u, i) = rank(𝔰) − rank(𝔭) + 1 − 2/p   if both exist
//!             = n_i − rank(𝔭) + 1 − 1/p       if only 𝔭 exists
//!             = rank(𝔰) − 1/p                 if only 𝔰 exists
//!             = n_i                           otherwise
//! ```
//!
//! **Tie handling.** The paper defines the predecessor as the largest
//! sampled value *no larger than* `l`, implicitly assuming continuous data
//! where ties have probability zero. We use the strict inequality: the
//! boundary gaps `rank(l) − rank(𝔭)` and `rank(𝔰) − rank(u)` are then
//! truncated-geometric(p) *exactly*, even under duplicate values, which is
//! what the unbiasedness proof of Theorem 3.1 requires. With `p = 1` the
//! estimator degenerates to the exact count in every case.
//!
//! **Degenerate ranges.** When `[l, u]` lies strictly outside the node's
//! value support, the theorem's premises (`r(l)`, `r(u)` well defined) do
//! not hold; the estimator remains well defined and is still
//! approximately zero-mean, but exact unbiasedness is not guaranteed.
//! Tests cover both regimes.
//!
//! **Canonical aggregation.** Every per-node estimate is of the form
//! `Aᵢ − Bᵢ/p` with exact integers `Aᵢ, Bᵢ` (see
//! [`crate::estimator::index`]). When the station reports one uniform
//! sampling probability, the global [`RangeCountEstimator::estimate`]
//! accumulates `(ΣA, ΣB)` exactly and combines once — the *same*
//! computation the `O(log S)` [`crate::estimator::RankIndex`]
//! performs from its prefix sums, so the scan and indexed paths release
//! bit-identical answers. Heterogeneous stations (mixed per-node rates)
//! fall back to summing [`RangeCountEstimator::estimate_node`] floats in
//! node-id order, which is still deterministic.

use prc_net::base_station::{BaseStation, NodeSample};

use crate::estimator::engine::entry_boundary_ranks;
use crate::estimator::index::{finish_rank_terms, scan_rank_terms, RankIndex};
use crate::estimator::{QueryIndex, RangeCountEstimator};
use crate::query::RangeQuery;

/// The paper's rank-based estimator: unbiased with per-node variance at
/// most `8/p²` regardless of range width (Theorem 3.1), hence global
/// variance at most `8k/p²` (Theorem 3.2).
///
/// # Examples
///
/// ```
/// use prc_core::estimator::{RangeCountEstimator, RankCounting};
/// use prc_core::query::RangeQuery;
/// use prc_net::network::FlatNetwork;
///
/// # fn main() -> Result<(), prc_core::CoreError> {
/// let mut network = FlatNetwork::from_partitions(
///     vec![(0..1000).map(f64::from).collect(), (1000..2000).map(f64::from).collect()],
///     7,
/// );
/// network.collect_samples(0.25);
/// let estimate = RankCounting.estimate(network.station(), RangeQuery::new(500.0, 1500.0)?);
/// // Truth is 1001; the estimate has standard deviation ≤ √(8·2)/0.25.
/// assert!((estimate - 1001.0).abs() < 500.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankCounting;

impl RankCounting {
    /// Creates the estimator.
    pub fn new() -> Self {
        RankCounting
    }
}

impl RangeCountEstimator for RankCounting {
    fn name(&self) -> &'static str {
        "RankCounting"
    }

    fn estimate_node(&self, sample: &NodeSample, query: RangeQuery) -> f64 {
        let n_i = sample.population_size;
        if n_i == 0 {
            return 0.0;
        }
        let p = sample.probability;
        if p <= 0.0 {
            // Nothing was ever sampled; the only unbiased guess with no
            // information is the whole-population fallback of case 4.
            return n_i as f64;
        }
        let entries = sample.entries();
        // Entries are sorted by rank, and the node's data is sorted, so
        // they are sorted by value as well (ties keep rank order).
        let (pred_idx, succ_idx) = entry_boundary_ranks(entries, query);
        let predecessor = pred_idx.checked_sub(1).map(|i| entries[i]);
        let successor = entries.get(succ_idx);

        match (predecessor, successor) {
            (Some(pred), Some(succ)) => (succ.rank as f64 - pred.rank as f64 + 1.0) - 2.0 / p,
            (Some(pred), None) => (n_i as f64 - pred.rank as f64 + 1.0) - 1.0 / p,
            (None, Some(succ)) => succ.rank as f64 - 1.0 / p,
            (None, None) => n_i as f64,
        }
    }

    /// Canonical station-level estimate: exact integer aggregation over
    /// the per-node boundary searches whenever the station has one
    /// uniform sampling probability (bit-identical to [`RankIndex`]),
    /// falling back to the per-node float sum otherwise.
    fn estimate(&self, station: &BaseStation, query: RangeQuery) -> f64 {
        match station.uniform_probability() {
            Some(p) => {
                let (sum_a, sum_b) = scan_rank_terms(station, query);
                finish_rank_terms(sum_a, sum_b, p)
            }
            None => station
                .node_samples()
                .map(|s| self.estimate_node(s, query))
                .sum(),
        }
    }

    fn variance_bound(&self, k: usize, _n: usize, p: f64) -> f64 {
        if p <= 0.0 {
            return f64::INFINITY;
        }
        8.0 * k as f64 / (p * p)
    }

    fn build_index(&self, station: &BaseStation) -> Option<Box<dyn QueryIndex>> {
        RankIndex::build(station).map(|index| Box::new(index) as Box<dyn QueryIndex>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prc_net::base_station::BaseStation;
    use prc_net::message::{NodeId, SampleEntry, SampleMessage};
    use prc_net::network::FlatNetwork;

    fn q(l: f64, u: f64) -> RangeQuery {
        RangeQuery::new(l, u).unwrap()
    }

    fn sample(values_ranks: &[(f64, u32)], n: usize, p: f64) -> NodeSample {
        let mut station = BaseStation::new();
        station.ingest(SampleMessage {
            node_id: NodeId(0),
            population_size: n,
            probability: p,
            entries: values_ranks
                .iter()
                .map(|&(value, rank)| SampleEntry { value, rank })
                .collect(),
        });
        station.node_sample(NodeId(0)).unwrap().clone()
    }

    #[test]
    fn four_cases_compute_the_papers_formulas() {
        let p = 0.5;
        // Node data (conceptually): ranks 1..=10 with value = rank.
        let s = sample(&[(2.0, 2), (5.0, 5), (9.0, 9)], 10, p);

        // Both predecessor (2.0 @ rank 2) and successor (9.0 @ rank 9)
        // exist for the query [3, 7]: (9 - 2 + 1) - 2/p = 8 - 4 = 4.
        assert_eq!(RankCounting.estimate_node(&s, q(3.0, 7.0)), 4.0);

        // Only predecessor for [6, 20] (no sampled value > 20):
        // (10 - 5 + 1) - 1/p = 6 - 2 = 4.
        assert_eq!(RankCounting.estimate_node(&s, q(6.0, 20.0)), 4.0);

        // Only successor for [-5, 1] (no sampled value < -5):
        // rank(2.0) - 1/p = 2 - 2 = 0.
        assert_eq!(RankCounting.estimate_node(&s, q(-5.0, 1.0)), 0.0);

        // Neither for [-10, 30]: n_i = 10.
        assert_eq!(RankCounting.estimate_node(&s, q(-10.0, 30.0)), 10.0);
    }

    #[test]
    fn boundary_values_use_strict_comparison() {
        let p = 0.5;
        let s = sample(&[(3.0, 3), (7.0, 7)], 10, p);
        // Query [3, 7]: the sampled 3.0 is *in* range (not a predecessor),
        // and the sampled 7.0 is in range (not a successor) => case 4.
        assert_eq!(RankCounting.estimate_node(&s, q(3.0, 7.0)), 10.0);
        // Query (3, 7) shifted: [3.5, 6.5] makes them boundary samples.
        assert_eq!(
            RankCounting.estimate_node(&s, q(3.5, 6.5)),
            (7.0 - 3.0 + 1.0) - 2.0 / p
        );
    }

    #[test]
    fn p_one_is_exact_for_every_case() {
        // With p = 1 the estimator must equal the exact count, whichever
        // case fires.
        let values: Vec<f64> = vec![1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 8.0, 9.0];
        let mut net = FlatNetwork::from_partitions(vec![values.clone()], 1);
        net.collect_samples(1.0);
        for (l, u) in [
            (2.0, 5.0),   // both boundary samples exist
            (2.0, 9.0),   // no successor
            (1.0, 5.0),   // no predecessor
            (1.0, 9.0),   // neither
            (0.0, 100.0), // covers everything
            (4.0, 4.5),   // empty interior range
            (2.0, 2.0),   // point query on duplicates
            (10.0, 20.0), // entirely above support
            (-5.0, 0.0),  // entirely below support
        ] {
            let truth = values.iter().filter(|&&v| v >= l && v <= u).count() as f64;
            let est = RankCounting.estimate(net.station(), q(l, u));
            assert_eq!(est, truth, "({l}, {u})");
        }
    }

    #[test]
    fn empty_node_estimates_zero() {
        let s = sample(&[], 0, 0.5);
        assert_eq!(RankCounting.estimate_node(&s, q(0.0, 1.0)), 0.0);
    }

    #[test]
    fn unsampled_node_falls_back_to_population() {
        let s = sample(&[], 10, 0.0);
        assert_eq!(RankCounting.estimate_node(&s, q(0.0, 1.0)), 10.0);
    }

    #[test]
    fn unbiased_monte_carlo_single_node() {
        // Theorem 3.1: E[γ̂(l, u, i)] = γ(l, u, i).
        let n = 600;
        let p = 0.25;
        let truth = 201.0; // values 200..=400
        let trials = 4_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for seed in 0..trials {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut net = FlatNetwork::from_partitions(vec![values], seed);
            net.collect_samples(p);
            let e = RankCounting.estimate(net.station(), q(200.0, 400.0));
            sum += e;
            sum_sq += (e - truth).powi(2);
        }
        let mean = sum / trials as f64;
        let mse = sum_sq / trials as f64;
        // Var ≤ 8/p² = 128; std error of the mean ≈ sqrt(128/4000) ≈ 0.18.
        assert!((mean - truth).abs() < 0.7, "mean {mean} vs truth {truth}");
        // Theorem 3.1's variance bound (MSE ≈ variance for an unbiased
        // estimator).
        assert!(
            mse <= 8.0 / (p * p) * 1.1,
            "MSE {mse} exceeds the 8/p² bound {}",
            8.0 / (p * p)
        );
    }

    #[test]
    fn unbiased_monte_carlo_multi_node_with_duplicates() {
        // Theorem 3.2 with tie-heavy data: values are i/10 so each value
        // appears 10 times; the strict predecessor/successor definition
        // must keep the estimator unbiased.
        let k = 4;
        let per_node = 300;
        let p = 0.3;
        let trials = 3_000;
        let partitions: Vec<Vec<f64>> = (0..k)
            .map(|i| {
                (0..per_node)
                    .map(|j| ((i * per_node + j) / 10) as f64)
                    .collect()
            })
            .collect();
        let truth = partitions
            .iter()
            .flatten()
            .filter(|&&v| (20.0..=75.0).contains(&v))
            .count() as f64;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut net = FlatNetwork::from_partitions(partitions.clone(), seed + 50_000);
            net.collect_samples(p);
            sum += RankCounting.estimate(net.station(), q(20.0, 75.0));
        }
        let mean = sum / trials as f64;
        // Var ≤ 8k/p² ≈ 356; std error ≈ sqrt(356/3000) ≈ 0.35.
        assert!((mean - truth).abs() < 1.4, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn variance_is_insensitive_to_range_width() {
        // The headline property: unlike BasicCounting, RankCounting's
        // spread does not grow with the queried range.
        let p = 0.2;
        let trials = 1_200;
        let spread = |l: f64, u: f64, offset: u64| {
            let truth = {
                let count = (0..2_000)
                    .filter(|&i| (i as f64) >= l && (i as f64) <= u)
                    .count();
                count as f64
            };
            let mut sq = 0.0;
            for seed in 0..trials {
                let values: Vec<f64> = (0..2_000).map(|i| i as f64).collect();
                let mut net = FlatNetwork::from_partitions(vec![values], seed + offset);
                net.collect_samples(p);
                let e = RankCounting.estimate(net.station(), q(l, u));
                sq += (e - truth).powi(2);
            }
            sq / trials as f64
        };
        let narrow = spread(950.0, 1_050.0, 1_000);
        let wide = spread(10.0, 1_990.0, 2_000);
        let bound = 8.0 / (p * p);
        assert!(
            narrow <= bound * 1.15,
            "narrow variance {narrow} > bound {bound}"
        );
        assert!(wide <= bound * 1.15, "wide variance {wide} > bound {bound}");
        // And the two are of the same order (within 4x), unlike the baseline.
        assert!(
            wide < narrow * 4.0 + bound,
            "wide {wide} vs narrow {narrow}"
        );
    }

    #[test]
    fn variance_bound_formula() {
        assert_eq!(RankCounting.variance_bound(2, 999, 0.5), 64.0);
        assert_eq!(RankCounting.variance_bound(1, 999, 1.0), 8.0);
        assert_eq!(RankCounting.variance_bound(1, 999, 0.0), f64::INFINITY);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(RankCounting.name(), "RankCounting");
        assert_eq!(RankCounting::new(), RankCounting);
    }

    #[test]
    fn canonical_aggregation_tracks_the_per_node_sum() {
        // The uniform-probability fast path reassociates the sum through
        // exact integers; it must agree with the naive per-node float sum
        // to within reassociation rounding (and exactly at p = 1).
        let partitions: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..400).map(|j| ((i * 400 + j) / 7) as f64).collect())
            .collect();
        for p in [0.1, 0.37, 1.0] {
            let mut net = FlatNetwork::from_partitions(partitions.clone(), 42);
            net.collect_samples(p);
            for (l, u) in [(10.0, 250.0), (0.0, 400.0), (-5.0, -1.0), (90.0, 90.0)] {
                let fast = RankCounting.estimate(net.station(), q(l, u));
                let naive: f64 = net
                    .station()
                    .node_samples()
                    .map(|s| RankCounting.estimate_node(s, q(l, u)))
                    .sum();
                if p == 1.0 {
                    assert_eq!(fast, naive, "p=1 must be exact, ({l}, {u})");
                } else {
                    let tol = 1e-9 * (1.0 + naive.abs());
                    assert!(
                        (fast - naive).abs() <= tol,
                        "p={p} ({l}, {u}): fast {fast} vs naive {naive}"
                    );
                }
            }
        }
    }

    #[test]
    fn heterogeneous_stations_use_the_per_node_fallback() {
        let mut station = BaseStation::new();
        for (node, p) in [(0u32, 0.5), (1, 0.25)] {
            station.ingest(SampleMessage {
                node_id: NodeId(node),
                population_size: 10,
                probability: p,
                entries: vec![
                    SampleEntry {
                        value: 2.0,
                        rank: 2,
                    },
                    SampleEntry {
                        value: 8.0,
                        rank: 8,
                    },
                ],
            });
        }
        assert_eq!(station.uniform_probability(), None);
        let expected: f64 = station
            .node_samples()
            .map(|s| RankCounting.estimate_node(s, q(3.0, 7.0)))
            .sum();
        let actual = RankCounting.estimate(&station, q(3.0, 7.0));
        assert_eq!(actual.to_bits(), expected.to_bits());
    }

    #[test]
    fn build_index_round_trips_through_the_trait() {
        let partitions: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..200).map(|j| (i * 200 + j) as f64).collect())
            .collect();
        let mut net = FlatNetwork::from_partitions(partitions, 5);
        net.collect_samples(0.3);
        let index = RankCounting.build_index(net.station()).expect("uniform");
        let query = q(100.0, 650.0);
        assert_eq!(
            index.estimate(query).to_bits(),
            RankCounting.estimate(net.station(), query).to_bits()
        );
        // BasicCounting has no index.
        assert!(crate::estimator::BasicCounting
            .build_index(net.station())
            .is_none());
    }
}
