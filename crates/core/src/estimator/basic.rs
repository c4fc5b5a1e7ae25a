//! The BasicCounting baseline estimator.

use prc_net::base_station::NodeSample;

use crate::estimator::engine::entry_boundary_ranks;
use crate::estimator::RangeCountEstimator;
use crate::query::RangeQuery;

/// The straightforward Horvitz–Thompson baseline (§III-A):
/// `γ_B(l, u, S) = |{x ∈ S : l ≤ x ≤ u}| / p`.
///
/// Unbiased, but its variance `γ(l, u, D)·(1 − p)/p` grows with the true
/// count of the queried range — up to `|D|(1 − p)/p` for wide ranges —
/// which is exactly the weakness RankCounting removes.
///
/// # Examples
///
/// ```
/// use prc_core::estimator::{BasicCounting, RangeCountEstimator, RankCounting};
///
/// // The baseline's variance bound grows with the population; the
/// // paper's estimator's does not.
/// let (k, n, p) = (50, 17_568, 0.05);
/// assert!(BasicCounting.variance_bound(k, n, p) > RankCounting.variance_bound(k, n, p));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BasicCounting;

impl BasicCounting {
    /// Creates the estimator.
    pub fn new() -> Self {
        BasicCounting
    }
}

impl RangeCountEstimator for BasicCounting {
    fn name(&self) -> &'static str {
        "BasicCounting"
    }

    fn estimate_node(&self, sample: &NodeSample, query: RangeQuery) -> f64 {
        if sample.population_size == 0 || sample.probability <= 0.0 {
            return 0.0;
        }
        // Entries are sorted by rank, and rank order is value order, so
        // the in-range count is the gap between the two shared boundary
        // ranks — O(log s) instead of the former linear scan.
        let (below, through) = entry_boundary_ranks(sample.entries(), query);
        (through - below) as f64 / sample.probability
    }

    fn variance_bound(&self, _k: usize, n: usize, p: f64) -> f64 {
        if p <= 0.0 {
            return f64::INFINITY;
        }
        n as f64 * (1.0 - p) / p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prc_net::base_station::BaseStation;
    use prc_net::message::{NodeId, SampleEntry, SampleMessage};
    use prc_net::network::{FlatNetwork, Network};

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
    fn scales_in_range_count_by_inverse_probability() {
        let s = sample(&[(1.0, 1), (2.0, 2), (5.0, 5)], 10, 0.5);
        assert_eq!(BasicCounting.estimate_node(&s, q(0.0, 2.5)), 4.0);
        assert_eq!(BasicCounting.estimate_node(&s, q(0.0, 10.0)), 6.0);
        assert_eq!(BasicCounting.estimate_node(&s, q(7.0, 9.0)), 0.0);
    }

    #[test]
    fn empty_population_estimates_zero() {
        let s = sample(&[], 0, 0.5);
        assert_eq!(BasicCounting.estimate_node(&s, q(0.0, 1.0)), 0.0);
    }

    #[test]
    fn p_one_is_exact() {
        let values: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let mut net = FlatNetwork::from_partitions(vec![values], 3);
        net.collect_samples(1.0);
        let estimate = BasicCounting.estimate(net.station(), q(100.0, 250.0));
        assert_eq!(estimate, 151.0);
    }

    #[test]
    fn unbiased_over_many_trials() {
        let truth = 301.0; // values 100..=400 in 0..1000
        let trials = 1_500;
        let p = 0.3;
        let mut sum = 0.0;
        for seed in 0..trials {
            let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
            let mut net = FlatNetwork::from_partitions(vec![values], seed);
            net.collect_samples(p);
            sum += BasicCounting.estimate(net.station(), q(100.0, 400.0));
        }
        let mean = sum / trials as f64;
        // Std error ≈ sqrt(truth(1-p)/p / trials) ≈ 0.68.
        assert!((mean - truth).abs() < 3.0, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn variance_grows_with_range_width() {
        // Empirical check of the baseline's weakness: wide ranges are noisier.
        let p = 0.2;
        let trials = 800;
        let spread = |l: f64, u: f64| {
            let truth = (u - l + 1.0).min(2_000.0);
            let mut sq = 0.0;
            for seed in 0..trials {
                let values: Vec<f64> = (0..2_000).map(|i| i as f64).collect();
                let mut net = FlatNetwork::from_partitions(vec![values], seed + 9_000);
                net.collect_samples(p);
                let e = BasicCounting.estimate(net.station(), q(l, u));
                sq += (e - truth).powi(2);
            }
            sq / trials as f64
        };
        let narrow = spread(900.0, 1_000.0);
        let wide = spread(0.0, 1_999.0);
        assert!(
            wide > narrow * 4.0,
            "wide-range variance {wide} should dwarf narrow-range {narrow}"
        );
    }

    #[test]
    fn variance_bound_formula() {
        assert_eq!(BasicCounting.variance_bound(5, 1_000, 0.5), 1_000.0);
        assert_eq!(BasicCounting.variance_bound(5, 1_000, 1.0), 0.0);
        assert_eq!(BasicCounting.variance_bound(5, 1_000, 0.0), f64::INFINITY);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(BasicCounting.name(), "BasicCounting");
        assert_eq!(BasicCounting::new(), BasicCounting);
    }

    #[test]
    fn binary_search_matches_linear_scan() {
        // Duplicate-heavy values and every boundary alignment.
        let s = sample(
            &[(1.0, 1), (3.0, 3), (3.0, 4), (3.0, 5), (7.0, 8), (9.0, 9)],
            20,
            0.4,
        );
        for l in [-1.0, 1.0, 2.0, 3.0, 6.9, 9.0, 10.0] {
            for u in [1.0, 3.0, 5.0, 7.0, 9.0, 42.0] {
                if u < l {
                    continue;
                }
                let query = q(l, u);
                let scan = s
                    .entries()
                    .iter()
                    .filter(|e| query.contains(e.value))
                    .count();
                let expected = scan as f64 / 0.4;
                let actual = BasicCounting.estimate_node(&s, query);
                assert_eq!(actual.to_bits(), expected.to_bits(), "({l}, {u})");
            }
        }
    }
}
