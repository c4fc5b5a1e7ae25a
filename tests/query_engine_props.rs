//! Property-based tests for the query engine's answer paths.
//!
//! The engine's contract is *bit-identity*: a single-query estimate, a
//! batch estimate, the exact integer aggregates `(ΣA, ΣB)` an index
//! accumulates, and the per-node scan oracle must agree on every query —
//! so every released answer is independent of which path ran and of
//! which network driver collected the samples. The sweep drives random
//! stations (duplicate-heavy, zero-valued samples), batches whose bounds
//! include explicit signed zeros, and the two network drivers against
//! each other.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prc::core::broker::IndexPolicy;
use prc::core::estimator::index::scan_rank_terms;
use prc::net::base_station::BaseStation;
use prc::prelude::*;

/// Builds a collected network from per-node value lists (sorted per
/// node, since rank order is value order) and returns its station.
fn collected_station(mut partitions: Vec<Vec<f64>>, seed: u64, p: f64) -> BaseStation {
    for node in &mut partitions {
        node.sort_by(f64::total_cmp);
    }
    let mut network = FlatNetwork::from_partitions(partitions, seed);
    network.collect_samples(p);
    network.station().clone()
}

/// A query bound: usually a value from the wrapped range, one time in
/// five an explicit signed zero. `-0.0` and `+0.0` are distinct under
/// `total_cmp` but equal under the boundary predicates.
#[derive(Debug, Clone)]
struct SignedBound(std::ops::Range<f64>);

impl Strategy for SignedBound {
    type Value = f64;

    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> f64 {
        match rng.next_u64() % 10 {
            0 => 0.0,
            1 => -0.0,
            _ => self.0.generate(rng),
        }
    }
}

fn signed_bound(range: std::ops::Range<f64>) -> SignedBound {
    SignedBound(range)
}

/// Query batch probing below, inside, across, and above the support,
/// built from consecutive pairs of a flat bound list: each pair yields
/// the spanning range plus a point query pinned to the integer grid
/// (where the stored values live, so boundaries land *on* duplicates).
fn queries_from(bounds: &[f64]) -> Vec<RangeQuery> {
    bounds
        .chunks_exact(2)
        .flat_map(|pair| {
            let (lower, upper) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            let pivot = lower.floor();
            [
                RangeQuery::new(lower, upper).expect("ordered bounds"),
                RangeQuery::new(pivot, pivot).expect("point query"),
            ]
        })
        .collect()
}

/// Checks every engine path of `index` against the scan oracle on
/// `station`: single query, batch, and the exact integer aggregates.
fn check_paths(
    index: &RankIndex,
    station: &BaseStation,
    queries: &[RangeQuery],
) -> Result<(), TestCaseError> {
    let batch = index.estimate_batch(queries);
    prop_assert_eq!(batch.estimates.len(), queries.len());
    for (&query, batched) in queries.iter().zip(batch.estimates) {
        let single = index.estimate(query);
        let scanned = RankCounting.estimate(station, query);
        prop_assert_eq!(
            index.rank_terms(query),
            scan_rank_terms(station, query),
            "aggregates on {:?}",
            query
        );
        prop_assert_eq!(
            single.to_bits(),
            scanned.to_bits(),
            "single {} vs scan {} on {:?}",
            single,
            scanned,
            query
        );
        prop_assert_eq!(
            batched.to_bits(),
            single.to_bits(),
            "batch {} vs single {} on {:?}",
            batched,
            single,
            query
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On a collected station with zero-valued samples of either sign,
    /// every engine path through a fresh index — single queries, the
    /// batch entry point, the integer aggregates — and the raw per-node
    /// scan release identical bits for batches with signed-zero bounds.
    #[test]
    fn rank_index_engine_paths_are_bit_identical(
        seed in 0u64..1_000,
        p in 0.05f64..1.0,
        sizes in proptest::collection::vec(0usize..40, 1..10),
        zeros in 0usize..5,
        bounds in proptest::collection::vec(signed_bound(-20.0f64..120.0), 2..48),
    ) {
        let partitions: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let values = (0..s).map(|j| ((i * 13 + j * 7) % 97) as f64);
                let zero_samples = (0..zeros).map(|z| if z % 2 == 0 { 0.0 } else { -0.0 });
                values.chain(zero_samples).collect()
            })
            .collect();
        let station = collected_station(partitions, seed, p);
        prop_assume!(station.total_population() > 0);
        let index = RankIndex::build(&station).expect("uniform station");
        check_paths(&index, &station, &queries_from(&bounds))?;
    }
}

proptest! {
    // Fewer cases: each one runs four full broker batches.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End to end across drivers: flat and tree brokers
    /// forced onto the indexed batch path release identical bits — and
    /// identical bits to a scan-forced flat broker — while the counters
    /// confirm which path each run took.
    #[test]
    fn drivers_release_identical_batch_bits(
        seed in 0u64..1_000,
        bounds in proptest::collection::vec(0.0f64..4_000.0, 2..10),
    ) {
        let partitions: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..700).map(|j| (i * 700 + j) as f64).collect())
            .collect();
        let workload: Vec<QueryRequest> = bounds
            .chunks_exact(2)
            .map(|pair| {
                let (a, b) = (pair[0], pair[1]);
                QueryRequest::new(
                    RangeQuery::new(a.min(b), a.max(b)).unwrap(),
                    Accuracy::new(0.15, 0.5).unwrap(),
                )
            })
            .collect();
        fn run<N: Network>(
            net: N,
            seed: u64,
            policy: IndexPolicy,
            workload: &[QueryRequest],
        ) -> (Vec<u64>, StageCounters) {
            let mut broker = DataBroker::new(net, seed);
            broker.set_index_policy(policy);
            let report = broker.answer_batch(workload);
            let bits = report
                .answers
                .iter()
                .map(|a| a.as_ref().expect("batch member released").value.to_bits())
                .collect();
            (bits, broker.counters())
        }

        let (flat, flat_counters) = run(
            FlatNetwork::from_partitions(partitions.clone(), seed),
            seed,
            IndexPolicy::Always,
            &workload,
        );
        let (tree, tree_counters) = run(
            TreeNetwork::from_partitions(partitions.clone(), 2, seed),
            seed,
            IndexPolicy::Always,
            &workload,
        );
        let (scanned, scan_counters) = run(
            FlatNetwork::from_partitions(partitions, seed),
            seed,
            IndexPolicy::Never,
            &workload,
        );

        prop_assert_eq!(&flat, &tree, "flat vs tree");
        prop_assert_eq!(&flat, &scanned, "indexed vs scanned");

        // Every indexed run answered every member through the index;
        // the scan run never did.
        let members = workload.len() as u64;
        prop_assert_eq!(flat_counters.indexed_estimates, members);
        prop_assert_eq!(tree_counters.indexed_estimates, members);
        prop_assert_eq!(scan_counters.indexed_estimates, 0);
        prop_assert_eq!(scan_counters.index_builds, 0);
    }
}
