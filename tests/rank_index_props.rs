//! Property-based tests for the merged prefix-rank query index.
//!
//! The [`RankIndex`] contract is *bit-identity*: for any station
//! with a uniform sampling probability, `index.estimate(q)` must return
//! exactly the bits of the direct `RankCounting::estimate(station, q)`
//! scan — the broker switches between the two paths on its index policy,
//! so any divergence would make released answers depend on an internal
//! cutover. These properties drive both paths over random populations,
//! sampling rates, duplicate-heavy and zero-valued samples, signed-zero
//! bounds, and degenerate ranges — and pin the flat and tree topologies
//! to each other on the indexed batch path.

use proptest::prelude::*;

use prc::core::broker::IndexPolicy;
use prc::core::estimator::index::scan_rank_terms;
use prc::net::base_station::BaseStation;
use prc::net::message::{NodeId, SampleEntry, SampleMessage};
use prc::prelude::*;

/// Builds a collected network from per-node value lists (sorted per node,
/// since rank order is value order) and returns its station snapshot.
fn collected_station(mut partitions: Vec<Vec<f64>>, seed: u64, p: f64) -> BaseStation {
    for node in &mut partitions {
        node.sort_by(f64::total_cmp);
    }
    let mut network = FlatNetwork::from_partitions(partitions, seed);
    network.collect_samples(p);
    network.station().clone()
}

/// Quantizes raw values into a narrow grid so duplicates are common
/// within and across nodes.
fn quantize(raw: Vec<f64>, buckets: f64) -> Vec<f64> {
    raw.into_iter().map(|v| (v * buckets).floor()).collect()
}

/// The few distinct values the tie-order sweep stores, both zeros
/// included, so every node holds runs of equal values shared with the
/// other nodes.
const TIE_VALUES: [f64; 6] = [-3.5, -0.0, 0.0, 1.0, 2.0, 7.25];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Indexed and scan estimates agree bit-for-bit over random
    /// populations, sampling rates, and ranges — including ranges fully
    /// below/above the support, point queries, zero-valued samples of
    /// either sign, and explicit `±0.0` bounds (equal under the boundary
    /// predicates, distinct under `total_cmp`). The batch entry point the
    /// broker's fan-out calls releases the same bits.
    #[test]
    fn index_is_bit_identical_to_the_scan(
        seed in 0u64..1_000,
        p in 0.05f64..1.0,
        sizes in proptest::collection::vec(0usize..40, 1..12),
        zeros in 0usize..5,
        signed_zero in 0usize..5,
        lower in -20.0f64..120.0,
        width in 0.0f64..140.0,
    ) {
        let partitions: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let values = (0..s).map(|j| (i * 13 + j * 7) as f64 % 97.0);
                // Alternating-sign zero samples, so `±0.0` bounds land
                // *on* stored values.
                let zero_samples = (0..zeros).map(|z| if z % 2 == 0 { 0.0 } else { -0.0 });
                values.chain(zero_samples).collect()
            })
            .collect();
        let station = collected_station(partitions, seed, p);
        prop_assume!(station.total_population() > 0);
        let index = RankCounting.build_index(&station);
        prop_assert!(index.is_some(), "uniform station must build an index");
        let index = index.unwrap();
        let lower = match signed_zero {
            0 => 0.0,
            1 => -0.0,
            _ => lower,
        };
        let queries = [
            RangeQuery::new(lower, lower + width).unwrap(),
            RangeQuery::new(lower, lower).unwrap(),
            RangeQuery::new(-0.0, 0.0).unwrap(),
        ];
        let batch = index.estimate_batch(&queries);
        for (query, batched) in queries.into_iter().zip(batch.estimates) {
            let indexed = index.estimate(query);
            let scanned = RankCounting.estimate(&station, query);
            prop_assert_eq!(
                indexed.to_bits(),
                scanned.to_bits(),
                "indexed {} vs scanned {} on {:?}",
                indexed, scanned, query
            );
            prop_assert_eq!(batched.to_bits(), indexed.to_bits());
        }
    }

    /// Duplicate-heavy values (a handful of distinct values across every
    /// node) cannot break the identity: partition-point cuts never split
    /// a run of numerically equal values, so the sort's tie order is moot.
    #[test]
    fn duplicate_heavy_values_keep_the_identity(
        seed in 0u64..1_000,
        p in 0.1f64..1.0,
        raw in proptest::collection::vec(0.0f64..1.0, 8..120),
        nodes in 2usize..8,
        pivot in 0.0f64..8.0,
    ) {
        let values = quantize(raw, 8.0); // only ~8 distinct values
        let partitions: Vec<Vec<f64>> = values
            .chunks(values.len().div_ceil(nodes))
            .map(<[f64]>::to_vec)
            .collect();
        let station = collected_station(partitions, seed, p);
        let index = RankCounting.build_index(&station).unwrap();
        // Query boundaries at and around the duplicated values.
        for (l, u) in [
            (pivot.floor(), pivot.floor()),     // point query on a duplicate
            (pivot.floor() - 0.5, pivot.floor() + 0.5),
            (-5.0, -1.0),                       // fully below support
            (9.0, 50.0),                        // fully above support
            (0.0, 8.0),                         // whole support
        ] {
            let query = RangeQuery::new(l, u).unwrap();
            prop_assert_eq!(
                index.estimate(query).to_bits(),
                RankCounting.estimate(&station, query).to_bits(),
                "range [{}, {}]", l, u
            );
        }
    }

    /// The build sorts all entries once, unstably, so equal values may
    /// land in any order within and across nodes. The prefix arrays are
    /// read only at `partition_point` cuts, which never fall inside a run
    /// of equal values (`±0.0` included), so the integer terms themselves
    /// — not only the estimates — must match the per-node scan. The
    /// station grows the way a ladder of rungs grows it: 2–4 escalating
    /// top-up rounds on a tree whose dead nodes revive after the first.
    #[test]
    fn tie_order_cannot_move_the_rank_terms(
        seed in 0u64..1_000,
        picks in proptest::collection::vec(
            proptest::collection::vec(0usize..TIE_VALUES.len(), 0..40),
            2..12,
        ),
        dead in proptest::collection::vec(any::<bool>(), 12..13),
        steps in proptest::collection::vec(1u32..21, 2..5),
    ) {
        // Targets in 0.05..=1.0, escalating (a repeat is a no-op round).
        let mut targets: Vec<f64> = steps.iter().map(|&k| f64::from(k) / 20.0).collect();
        targets.sort_by(f64::total_cmp);
        let partitions: Vec<Vec<f64>> = picks
            .iter()
            .map(|node| node.iter().map(|&i| TIE_VALUES[i]).collect())
            .collect();
        let mut network = TreeNetwork::from_partitions(partitions, 4, seed);
        let mut plan = FailurePlan::none();
        for (id, _) in dead.iter().enumerate().filter(|(_, &d)| d) {
            plan.kill_node(NodeId(id as u32));
        }
        network.set_failure_plan(plan);
        // Bounds on every distinct stored value, between them and beyond.
        let bounds = [-10.0, -3.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 7.25, 9.0];
        for (round, &target) in targets.iter().enumerate() {
            if round == 1 {
                network.set_failure_plan(FailurePlan::none());
            }
            network.collect_samples(target);
            let station = network.station();
            let Some(index) = RankIndex::build(station) else {
                // Only a station without data declines.
                prop_assert_eq!(station.total_population(), 0);
                continue;
            };
            for (i, &l) in bounds.iter().enumerate() {
                for &u in &bounds[i..] {
                    let query = RangeQuery::new(l, u).unwrap();
                    prop_assert_eq!(
                        index.rank_terms(query),
                        scan_rank_terms(station, query),
                        "terms on [{}, {}] after round {}", l, u, round
                    );
                    prop_assert_eq!(
                        index.estimate(query).to_bits(),
                        RankCounting.estimate(station, query).to_bits(),
                        "estimate on [{}, {}] after round {}", l, u, round
                    );
                }
            }
        }
    }

    /// At p = 1 every sample is the whole population, so both paths must
    /// return the *exact true count* — bit-identical to each other and to
    /// the naive per-node float sum (whose arithmetic is exact integers).
    #[test]
    fn p_one_is_exact_and_matches_the_per_node_sum(
        seed in 0u64..1_000,
        sizes in proptest::collection::vec(0usize..30, 1..8),
        lower in -10.0f64..110.0,
        width in 0.0f64..120.0,
    ) {
        let partitions: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| (0..s).map(|j| (i * 11 + j * 5) as f64 % 89.0).collect())
            .collect();
        let station = collected_station(partitions, seed, 1.0);
        prop_assume!(station.total_population() > 0);
        let index = RankCounting.build_index(&station).unwrap();
        let query = RangeQuery::new(lower, lower + width).unwrap();
        let per_node: f64 = station
            .node_samples()
            .map(|s| RankCounting.estimate_node(s, query))
            .sum();
        let truth: f64 = station
            .node_samples()
            .flat_map(|s| s.entries())
            .filter(|e| e.value >= lower && e.value <= lower + width)
            .count() as f64;
        prop_assert_eq!(index.estimate(query).to_bits(), per_node.to_bits());
        prop_assert_eq!(index.estimate(query).to_bits(), truth.to_bits());
    }

    /// Stations whose nodes report different sampling probabilities must
    /// decline to build; the estimator then runs the per-node fallback.
    #[test]
    fn heterogeneous_probabilities_decline_the_index(
        p1 in 0.1f64..0.5,
        bump in 0.01f64..0.4,
        n in 1usize..50,
    ) {
        let mut station = BaseStation::new();
        for (node, p) in [(0u32, p1), (1, p1 + bump)] {
            station.ingest(SampleMessage {
                node_id: NodeId(node),
                population_size: n,
                probability: p,
                entries: vec![SampleEntry { value: 1.0, rank: 1 }],
            });
        }
        prop_assert!(RankCounting.build_index(&station).is_none());
        // The fallback still answers (as the per-node sum).
        let query = RangeQuery::new(0.0, 2.0).unwrap();
        let expected: f64 = station
            .node_samples()
            .map(|s| RankCounting.estimate_node(s, query))
            .sum();
        prop_assert_eq!(
            RankCounting.estimate(&station, query).to_bits(),
            expected.to_bits()
        );
    }
}

proptest! {
    // Fewer cases: each one runs three full broker batches.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End to end: flat and tree brokers forced onto the
    /// indexed batch path release the same bits as a flat broker forced
    /// onto the scan path, over random workloads, while the counters
    /// confirm which path each run took — and the plan cache serves the
    /// members sharing one accuracy target.
    #[test]
    fn indexed_brokers_release_identical_bits(
        seed in 0u64..1_000,
        bounds in proptest::collection::vec(0.0f64..4_000.0, 2..12),
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
        fn run<N: Network>(net: N, seed: u64, policy: IndexPolicy, workload: &[QueryRequest]) -> (Vec<u64>, StageCounters) {
            let mut broker = DataBroker::new(net, seed);
            broker.set_index_policy(policy);
            let report = broker.answer_batch(workload);
            let bits = report
                .answers
                .iter()
                .map(|r| r.as_ref().expect("batch member released").value.to_bits())
                .collect();
            (bits, broker.counters())
        }
        let flat_net = || FlatNetwork::from_partitions(partitions.clone(), seed);
        let (flat, flat_counters) = run(flat_net(), seed, IndexPolicy::Always, &workload);
        let (tree, tree_counters) = run(
            TreeNetwork::from_partitions(partitions.clone(), 2, seed),
            seed,
            IndexPolicy::Always,
            &workload,
        );
        let (scanned, scan_counters) = run(flat_net(), seed, IndexPolicy::Never, &workload);

        prop_assert_eq!(&flat, &tree, "flat vs tree");
        prop_assert_eq!(&flat, &scanned, "indexed vs scanned");
        // Every indexed run answered every member through the index;
        // the scan run never built one.
        let members = workload.len() as u64;
        prop_assert_eq!(flat_counters.indexed_estimates, members);
        prop_assert_eq!(tree_counters.indexed_estimates, members);
        prop_assert_eq!(scan_counters.indexed_estimates, 0);
        prop_assert_eq!(scan_counters.index_builds, 0);
        // All members share one accuracy target and one rate tier, so
        // after the first grid sweep the remaining plans are memo hits
        // (exact count left open: an infeasibility retry re-sweeps).
        if workload.len() >= 2 {
            prop_assert!(
                flat_counters.plan_cache_hits >= 1,
                "no plan-cache hit across {} same-accuracy members",
                workload.len()
            );
        }
    }
}
