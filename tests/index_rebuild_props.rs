//! Property-based tests for the broker's query index across collection
//! rounds.
//!
//! A collection round moves the station's revision, and the broker
//! rebuilds its index before the next estimate. After *any* interleaving
//! of rounds — partial revivals at a constant target and global top-ups
//! to a higher target, driven through `network_mut()` between answers —
//! an index-forced broker must release exactly the bits of a scan-forced
//! one, on both network drivers, answering every probe through the index
//! and rebuilding at most once per round.
//!
//! Only *leaf* nodes of the aggregation tree are ever killed, so the
//! tree driver's delivered sample set equals the flat driver's (a dead
//! interior node would also cut off its descendants).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prc::core::broker::IndexPolicy;
use prc::net::message::NodeId;
use prc::prelude::*;

/// Nodes per network; with branching 2 the tree's leaves are the upper
/// half of the id space.
const NODES: usize = 8;
const LEAF_START: u32 = 4;
const LEAF_COUNT: usize = 4;
const PER_NODE: usize = 24;
const TREE_BRANCHING: usize = 2;

/// One randomized schedule step.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Revive up to `k` still-dead leaves and collect at the current
    /// target (revival catch-up: only the revived leaves change).
    Revive(usize),
    /// Raise the global target and collect (every alive node changes).
    TopUp,
}

fn partitions() -> Vec<Vec<f64>> {
    (0..NODES)
        .map(|i| {
            (0..PER_NODE)
                // Halved so duplicate values are common across nodes.
                .map(|j| ((i * PER_NODE + j) / 2) as f64)
                .collect()
        })
        .collect()
}

/// Kills the still-dead leaf suffix `[revived ..]`.
fn plan_for(revived: usize) -> FailurePlan {
    let mut plan = FailurePlan::none();
    for leaf in (LEAF_START + revived as u32)..(LEAF_START + LEAF_COUNT as u32) {
        plan.kill_node(NodeId(leaf));
    }
    plan
}

/// The per-step probe requests: spread, point, and out-of-support
/// ranges, varied by step so every round is checked on fresh cuts. The
/// demand is loose enough (sampling rate about 0.14) that the schedule's
/// rounds, not the broker, set the sampling rate.
fn probes(step: usize) -> Vec<QueryRequest> {
    let n = (NODES * PER_NODE / 2) as f64;
    let pivot = n * (((step * 7) % 10) as f64) / 10.0;
    let accuracy = Accuracy::new(0.9, 0.1).expect("valid demand");
    [
        (pivot, pivot),
        (pivot * 0.5, pivot * 0.5 + n * 0.3),
        (-10.0, -1.0),
        (0.0, n + 10.0),
    ]
    .into_iter()
    .map(|(l, u)| QueryRequest::new(RangeQuery::new(l, u).expect("valid probe"), accuracy))
    .collect()
}

/// Runs one schedule on one driver under one index policy: each round
/// goes through `network_mut()`, then the broker answers the step's
/// probes singly and as one batch. Returns the released bits.
fn run_broker<N: Network>(
    net: N,
    seed: u64,
    policy: IndexPolicy,
    ops: &[Op],
    p0: f64,
) -> Result<Vec<u64>, TestCaseError> {
    let mut broker = DataBroker::new(net, seed);
    broker.set_index_policy(policy);
    let mut target = p0;
    let mut revived = 0usize;
    let mut bits = Vec::new();

    // Step 0 collects with every leaf dead; step i applies ops[i - 1].
    for step in 0..=ops.len() {
        match step.checked_sub(1).map(|i| ops[i]) {
            None => {}
            Some(Op::Revive(k)) => revived = (revived + k.max(1)).min(LEAF_COUNT),
            // Bounded so the target stays a valid probability.
            Some(Op::TopUp) => target = (target + 0.17).min(0.95),
        }
        let network = broker.network_mut();
        network.set_failure_plan(plan_for(revived));
        network.collect_samples(target);

        let requests = probes(step);
        for request in &requests {
            let answer = broker
                .answer(request)
                .map_err(|e| TestCaseError::Fail(format!("step {step}: {e}")))?;
            bits.push(answer.value.to_bits());
        }
        for result in broker.answer_batch(&requests).answers {
            let answer = result.map_err(|e| TestCaseError::Fail(format!("step {step}: {e}")))?;
            bits.push(answer.value.to_bits());
        }
    }

    let counters = broker.counters();
    prop_assert_eq!(
        counters.collection_rounds,
        0,
        "the schedule, not the broker, sets the sampling rate"
    );
    match policy {
        IndexPolicy::Never => {
            prop_assert_eq!(counters.index_builds, 0);
            prop_assert_eq!(counters.indexed_estimates, 0);
        }
        _ => {
            prop_assert_eq!(
                counters.indexed_estimates,
                bits.len() as u64,
                "every probe answered through the index"
            );
            prop_assert!(
                counters.index_builds <= 1 + ops.len() as u64,
                "{} builds for {} rounds after the first",
                counters.index_builds,
                ops.len()
            );
        }
    }
    Ok(bits)
}

proptest! {
    // Each case replays the schedule four times (two drivers, two
    // policies); keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of revivals and top-ups leaves the rebuilt index
    /// releasing the scan's bits on both drivers — and the two drivers
    /// bit-identical to each other.
    #[test]
    fn rebuilt_index_releases_scan_bits_under_any_schedule(
        seed in 0u64..1_000,
        p0 in 0.15f64..0.4,
        raw_ops in proptest::collection::vec(0usize..4, 1..8),
    ) {
        let ops: Vec<Op> = raw_ops
            .iter()
            .map(|&r| if r == 0 { Op::TopUp } else { Op::Revive(r) })
            .collect();
        let flat = || FlatNetwork::from_partitions(partitions(), seed);
        let tree = || TreeNetwork::from_partitions(partitions(), TREE_BRANCHING, seed);
        let indexed = run_broker(flat(), seed, IndexPolicy::Always, &ops, p0)?;
        let scanned = run_broker(flat(), seed, IndexPolicy::Never, &ops, p0)?;
        let tree_indexed = run_broker(tree(), seed, IndexPolicy::Always, &ops, p0)?;
        let tree_scanned = run_broker(tree(), seed, IndexPolicy::Never, &ops, p0)?;
        prop_assert_eq!(&indexed, &scanned, "flat: indexed vs scanned");
        prop_assert_eq!(&tree_indexed, &tree_scanned, "tree: indexed vs scanned");
        prop_assert_eq!(&indexed, &tree_indexed, "flat vs tree");
    }
}
