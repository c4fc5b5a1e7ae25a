//! Property-based tests for the segmented incremental index.
//!
//! The [`SegmentedRankIndex`] contract extends the fresh-build one:
//! after *any* interleaving of collection rounds — partial revivals at a
//! constant target, global top-ups to a higher target, and the
//! compactions they trigger — the index fed only the per-round deltas
//! must release exactly the bits of a single-segment index rebuilt from
//! scratch on the current station, and of the raw per-node scan, on
//! both the single-query and the batch entry points. The sweep drives
//! random schedules over both network drivers and additionally pins the
//! two drivers to each other bit-for-bit.
//!
//! Only *leaf* nodes of the aggregation tree are ever killed, so the
//! tree driver's delivered sample set equals the flat driver's (a dead
//! interior node would also cut off its descendants).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prc::net::base_station::BaseStation;
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
    /// Raise the global target and collect (a full delta over every
    /// alive node — the mass-tombstone path compaction reclaims).
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

/// The per-step probe workload: spread, point, and out-of-support
/// ranges, varied by step so every round is checked on fresh cuts.
fn probes(step: usize) -> Vec<RangeQuery> {
    let n = (NODES * PER_NODE / 2) as f64;
    let pivot = n * (((step * 7) % 10) as f64) / 10.0;
    vec![
        RangeQuery::new(pivot, pivot).expect("valid probe"),
        RangeQuery::new(pivot * 0.5, pivot * 0.5 + n * 0.3).expect("valid probe"),
        RangeQuery::new(-10.0, -1.0).expect("valid probe"),
        RangeQuery::new(0.0, n + 10.0).expect("valid probe"),
    ]
}

/// Runs one schedule on one driver, absorbing each round's delta and
/// checking the segmented index against a fresh rebuild and
/// the scan after every step. Returns the segmented bits released.
fn run_driver<N: Network>(mut net: N, ops: &[Op], p0: f64) -> Result<Vec<u64>, TestCaseError> {
    let mut target = p0;
    let mut revived = 0usize;
    let mut index: Option<SegmentedRankIndex> = None;
    let mut bits = Vec::new();

    // Epoch 0: every leaf dead, first collection, initial build.
    net.set_failure_plan(plan_for(0));
    let delta = net.collect_delta(target);
    prop_assert_eq!(delta.changed.len(), NODES - LEAF_COUNT);
    absorb_or_build(&mut index, net.station(), &delta.changed)?;
    check_step(
        index.as_ref().expect("built at epoch 0"),
        net.station(),
        0,
        &mut bits,
    )?;

    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Revive(k) => {
                revived = (revived + k.max(1)).min(LEAF_COUNT);
            }
            Op::TopUp => {
                // Bounded so the target stays a valid probability.
                target = (target + 0.17).min(0.95);
            }
        }
        net.set_failure_plan(plan_for(revived));
        let delta = net.collect_delta(target);
        absorb_or_build(&mut index, net.station(), &delta.changed)?;
        check_step(
            index.as_ref().expect("built at epoch 0"),
            net.station(),
            step + 1,
            &mut bits,
        )?;
    }

    let index = index.expect("built at epoch 0");
    // Compaction must keep the layout bounded no matter the schedule.
    prop_assert!(
        index.segments() <= 6,
        "compaction let segments grow to {}",
        index.segments()
    );
    Ok(bits)
}

fn absorb_or_build(
    index: &mut Option<SegmentedRankIndex>,
    station: &BaseStation,
    changed: &[NodeId],
) -> Result<(), TestCaseError> {
    match index {
        None => {
            *index = Some(SegmentedRankIndex::build(station).expect("uniform station"));
        }
        Some(idx) => {
            prop_assert!(
                idx.absorb_delta(station, changed).is_some(),
                "revivals and top-ups keep the station uniform"
            );
        }
    }
    Ok(())
}

/// Bit-identity after one step: segmented (single query and batch) vs
/// a fresh single-segment rebuild vs the per-node scan, on every probe.
fn check_step(
    index: &SegmentedRankIndex,
    station: &BaseStation,
    step: usize,
    bits: &mut Vec<u64>,
) -> Result<(), TestCaseError> {
    let fresh = SegmentedRankIndex::build(station).expect("uniform station");
    prop_assert_eq!(fresh.segments(), 1);
    let queries = probes(step);
    let batch = index.estimate_batch(&queries);
    for (query, batched) in queries.into_iter().zip(batch.estimates) {
        let segmented = index.estimate(query).to_bits();
        prop_assert_eq!(
            segmented,
            batched.to_bits(),
            "batch vs single at step {}",
            step
        );
        prop_assert_eq!(
            segmented,
            fresh.estimate(query).to_bits(),
            "segmented vs fresh rebuild at step {}",
            step
        );
        prop_assert_eq!(
            segmented,
            RankCounting.estimate(station, query).to_bits(),
            "segmented vs scan at step {}",
            step
        );
        bits.push(segmented);
    }
    Ok(())
}

proptest! {
    // Each case replays the schedule on two drivers with a rebuild
    // per step; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of revivals, top-ups, and the compactions they
    /// trigger leaves the delta-fed segmented index bit-identical to a
    /// fresh rebuild on both drivers — and the two drivers
    /// bit-identical to each other.
    #[test]
    fn delta_fed_index_matches_fresh_rebuild_under_any_schedule(
        seed in 0u64..1_000,
        p0 in 0.15f64..0.4,
        raw_ops in proptest::collection::vec(0usize..4, 1..8),
    ) {
        let ops: Vec<Op> = raw_ops
            .iter()
            .map(|&r| if r == 0 { Op::TopUp } else { Op::Revive(r) })
            .collect();
        let flat = run_driver(
            FlatNetwork::from_partitions(partitions(), seed), &ops, p0,
        )?;
        let tree = run_driver(
            TreeNetwork::from_partitions(partitions(), TREE_BRANCHING, seed), &ops, p0,
        )?;
        prop_assert_eq!(&flat, &tree, "flat vs tree released bits");
    }
}
