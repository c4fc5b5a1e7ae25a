//! Golden pins for one collection round.
//!
//! Every other round test compares drivers with each other; a bug in a
//! loop that all drivers share would pass them all. These goldens were
//! captured from the per-driver loops before the flat and tree drivers
//! started sharing one round, and the shared round must reproduce them
//! exactly: meter totals, per-node byte bills, the tracer's event
//! sequence and the station's sample state, for both loss modes, over
//! three escalating rounds under dropout plus message loss.
//!
//! The resample scenarios pin `SensorNetwork::resample` to a fresh
//! network over the edited data, and the broker's index and answer cache
//! to the retired sample's absence. The swap scenario pins the index,
//! the plan cache and the answer cache to a network replaced whole.
//!
//! A plan with zero dropout and zero loss probability draws no
//! randomness at all: only its killed nodes fail. The revival scenarios
//! pin that case the way a ladder of rungs drives it — nodes killed
//! before the schedule, then a fresh plan installed mid-schedule under
//! which one of them revives.

use prc::core::broker::IndexPolicy;
use prc::net::conformance::station_fingerprint;
use prc::net::message::NodeId;
use prc::net::network::{CostSnapshot, DataEdit, SensorNetwork};
use prc::net::trace::Tracer;
use prc::prelude::*;

/// The escalating collection schedule every scenario runs.
const SCHEDULE: [f64; 3] = [0.02, 0.3, 0.8];

fn partitions(k: usize, per_node: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
        .collect()
}

/// Random dropout plus message loss under the given loss mode, with the
/// listed nodes killed outright. The schedule's first round is small
/// enough that some batches ride heartbeats for free.
fn plan(mode: LossMode, killed: &[u32]) -> FailurePlan {
    let mut plan = FailurePlan::new(0.15, 0.3, mode, 1);
    for &id in killed {
        plan.kill_node(NodeId(id));
    }
    plan
}

/// FNV-1a over a byte string: a compact fingerprint for the goldens.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a scenario produced, reduced to comparable values.
#[derive(Debug)]
struct Golden {
    /// Entries delivered by each round of [`SCHEDULE`].
    delivered: &'static [usize],
    cost: CostSnapshot,
    /// `(node id, bytes)` in node-id order.
    per_node_bytes: &'static [(u32, u64)],
    /// Length and FNV-1a hash of the traced event sequence.
    events: usize,
    events_hash: u64,
    /// FNV-1a hash of [`station_fingerprint`].
    station_hash: u64,
}

/// Runs [`SCHEDULE`] under one plan installed before the first round.
fn run<N: Network>(network: N, plan: FailurePlan, golden: &Golden) {
    let mut plan = Some(plan);
    run_replanned(network, |_| plan.take(), golden);
}

/// Runs [`SCHEDULE`], installing `replan(round)`'s plan (when it names
/// one) before that round, and compares the outcome with `golden`.
fn run_replanned<N: Network>(
    mut network: N,
    mut replan: impl FnMut(usize) -> Option<FailurePlan>,
    golden: &Golden,
) {
    let tracer = Tracer::new(4_096);
    network.set_tracer(tracer.clone());
    let delivered: Vec<usize> = SCHEDULE
        .iter()
        .enumerate()
        .map(|(round, &target)| {
            if let Some(plan) = replan(round) {
                network.set_failure_plan(plan);
            }
            network.collect_samples(target)
        })
        .collect();
    let per_node_bytes: Vec<(u32, u64)> = network
        .meter()
        .per_node_bytes()
        .into_iter()
        .map(|(NodeId(id), bytes)| (id, bytes))
        .collect();
    let events = tracer.events();
    assert_eq!(delivered, golden.delivered, "deliveries per round");
    assert_eq!(network.meter().snapshot(), golden.cost, "meter totals");
    assert_eq!(per_node_bytes, golden.per_node_bytes, "per-node bytes");
    assert_eq!(events.len(), golden.events, "traced event count");
    assert_eq!(
        fnv1a(format!("{events:?}").as_bytes()),
        golden.events_hash,
        "traced event sequence"
    );
    assert_eq!(
        fnv1a(&station_fingerprint(network.station())),
        golden.station_hash,
        "station sample state"
    );
}

const fn cost(
    messages: u64,
    free_messages: u64,
    samples: u64,
    bytes: u64,
    lost: u64,
) -> CostSnapshot {
    CostSnapshot {
        messages,
        free_messages,
        samples,
        bytes,
        lost_messages: lost,
    }
}

const FLAT_DROP: Golden = Golden {
    delivered: &[37, 416, 607],
    cost: cost(54, 6, 1_060, 26_952, 12),
    per_node_bytes: &[
        (0, 3_060),
        (1, 2_928),
        (2, 2_964),
        (4, 2_976),
        (5, 2_820),
        (6, 3_096),
        (7, 3_108),
        (8, 3_048),
        (9, 2_952),
    ],
    events: 60,
    events_hash: 0xc35d_1d9d_60eb_c6a5,
    station_hash: 0x71e9_b6d2_3882_3bc8,
};

const FLAT_RETRANSMIT: Golden = Golden {
    delivered: &[54, 752, 1_350],
    cost: cost(69, 17, 2_156, 37_068, 0),
    per_node_bytes: &[
        (0, 3_212),
        (1, 4_624),
        (2, 2_964),
        (4, 4_732),
        (5, 2_820),
        (6, 3_096),
        (7, 5_284),
        (8, 5_192),
        (9, 5_144),
    ],
    events: 60,
    events_hash: 0x7dec_44c7_c0b0_fd9e,
    station_hash: 0x454c_72e5_cd0c_6e1d,
};

const TREE_DROP: Golden = Golden {
    delivered: &[26, 346, 867],
    cost: cost(111, 12, 1_239, 50_028, 7),
    per_node_bytes: &[
        (0, 3_048),
        (2, 5_880),
        (5, 9_072),
        (6, 8_748),
        (12, 11_748),
        (13, 3_084),
        (14, 8_448),
    ],
    events: 69,
    events_hash: 0x5781_4930_cdda_8789,
    station_hash: 0xc3b2_d5c4_8e32_cdf4,
};

const TREE_RETRANSMIT: Golden = Golden {
    delivered: &[45, 594, 1_024],
    cost: cost(152, 39, 1_663, 75_164, 0),
    per_node_bytes: &[
        (0, 3_224),
        (2, 5_880),
        (5, 9_072),
        (6, 8_748),
        (12, 12_448),
        (13, 12_528),
        (14, 23_264),
    ],
    events: 69,
    events_hash: 0x30f0_890d_89a5_3118,
    station_hash: 0x5608_6888_f79f_f740,
};

/// Ten flat nodes; the plan's random dropout kills node 3.
fn flat() -> FlatNetwork {
    FlatNetwork::from_partitions(partitions(10, 300), 0xF1A7)
}

/// Fifteen nodes in a binary tree. The tree scenarios kill interior
/// node 1, which cuts off its subtree {3, 4, 7, 8, 9, 10}; random
/// dropout also kills node 3 (already cut off) and leaf 11.
fn tree_with_dead_interior() -> TreeNetwork {
    TreeNetwork::from_partitions(partitions(15, 300), 2, 0x72EE)
}

#[test]
fn flat_round_matches_its_golden_under_drop() {
    run(flat(), plan(LossMode::Drop, &[]), &FLAT_DROP);
}

#[test]
fn flat_round_matches_its_golden_under_retransmit() {
    run(flat(), plan(LossMode::Retransmit, &[]), &FLAT_RETRANSMIT);
}

#[test]
fn tree_round_matches_its_golden_under_drop() {
    run(
        tree_with_dead_interior(),
        plan(LossMode::Drop, &[1]),
        &TREE_DROP,
    );
}

#[test]
fn tree_round_matches_its_golden_under_retransmit() {
    run(
        tree_with_dead_interior(),
        plan(LossMode::Retransmit, &[1]),
        &TREE_RETRANSMIT,
    );
}

/// A plan with no random failures that kills exactly `killed`.
fn killing(killed: &[u32]) -> FailurePlan {
    let mut plan = FailurePlan::none();
    for &id in killed {
        plan.kill_node(NodeId(id));
    }
    plan
}

/// Kills `before` for the first two rounds, then installs a fresh plan
/// killing `after` for the last: the nodes in `before` but not in
/// `after` revive and catch up in one step.
fn revival(
    before: &'static [u32],
    after: &'static [u32],
) -> impl FnMut(usize) -> Option<FailurePlan> {
    move |round| match round {
        0 => Some(killing(before)),
        2 => Some(killing(after)),
        _ => None,
    }
}

const FLAT_REVIVAL: Golden = Golden {
    delivered: &[47, 659, 1_443],
    cost: cost(50, 8, 2_149, 26_788, 0),
    per_node_bytes: &[
        (0, 3_060),
        (1, 2_928),
        (2, 2_964),
        (3, 2_932),
        (4, 2_976),
        (5, 2_820),
        (7, 3_108),
        (8, 3_048),
        (9, 2_952),
    ],
    events: 58,
    events_hash: 0x0d6e_b3db_5b38_4657,
    station_hash: 0x27e5_936e_a601_64b8,
};

const TREE_REVIVAL: Golden = Golden {
    delivered: &[45, 594, 2_706],
    cost: cost(174, 21, 3_345, 132_528, 0),
    per_node_bytes: &[
        (0, 3_048),
        (1, 5_648),
        (2, 5_880),
        (3, 8_652),
        (4, 9_048),
        (5, 9_072),
        (6, 8_748),
        (7, 12_064),
        (8, 11_968),
        (9, 11_728),
        (10, 11_200),
        (12, 12_048),
        (13, 11_472),
        (14, 11_952),
    ],
    events: 76,
    events_hash: 0x2f8d_ab9d_ed5f_88cb,
    station_hash: 0x13ef_d16d_b9ee_3673,
};

/// Flat: nodes 3 and 6 start dead; node 3 revives for the last round.
#[test]
fn flat_round_matches_its_golden_under_a_zero_probability_revival() {
    run_replanned(flat(), revival(&[3, 6], &[6]), &FLAT_REVIVAL);
}

/// Tree: interior node 1 (cutting off {3, 4, 7, 8, 9, 10}) and leaf 11
/// start dead; node 1 revives for the last round, so its whole subtree
/// catches up from nothing to the final target at once.
#[test]
fn tree_round_matches_its_golden_under_a_zero_probability_revival() {
    run_replanned(
        tree_with_dead_interior(),
        revival(&[1, 11], &[11]),
        &TREE_REVIVAL,
    );
}

// ---------------------------------------------------------------------
// Resample: a persistent network draws what a fresh one would.
// ---------------------------------------------------------------------

/// The edits every resample scenario applies to `partitions(k, 40)`: node
/// 0 gains two values and loses one, node 1 gains a duplicate of a value
/// it holds, and node 2 loses every value it holds (so it reports a
/// population of zero afterwards).
fn edits(k: usize) -> Vec<DataEdit> {
    let mut edits = vec![
        DataEdit::Insert(NodeId(0), 5.5),
        DataEdit::Remove(NodeId(0), 7.0),
        DataEdit::Insert(NodeId(0), -3.0),
        DataEdit::Insert(NodeId(1), 41.0),
    ];
    edits.extend((80..120).map(|v| DataEdit::Remove(NodeId(2), f64::from(v))));
    edits.push(DataEdit::Insert(NodeId(k as u32 - 1), 1e9));
    edits
}

/// `partitions(k, 40)` with [`edits`] applied.
fn edited_partitions(k: usize) -> Vec<Vec<f64>> {
    let mut parts = partitions(k, 40);
    for edit in edits(k) {
        match edit {
            DataEdit::Insert(NodeId(id), value) => parts[id as usize].push(value),
            DataEdit::Remove(NodeId(id), value) => {
                let part = &mut parts[id as usize];
                let at = part.iter().position(|v| v.to_bits() == value.to_bits());
                part.remove(at.expect("the edit removes a held value"));
            }
        }
    }
    parts
}

/// What the meter added between two snapshots.
fn grown(after: CostSnapshot, before: CostSnapshot) -> CostSnapshot {
    cost(
        after.messages - before.messages,
        after.free_messages - before.free_messages,
        after.samples - before.samples,
        after.bytes - before.bytes,
        after.lost_messages - before.lost_messages,
    )
}

/// Samples `build(partitions(k, 40), ·)` twice under `plan`, resamples it
/// over [`edits`] and collects again; a fresh `build(edited, ·)` under
/// the same plan must hold the same station, deliver the same count and
/// cost the same traffic.
fn assert_resample_matches_a_fresh_network<T>(
    k: usize,
    build: impl Fn(Vec<Vec<f64>>, u64) -> SensorNetwork<T>,
    plan: FailurePlan,
) {
    const SEED: u64 = 0x7E5A;
    let mut network = build(partitions(k, 40), 0xF1A7);
    network.set_failure_plan(plan.clone());
    network.collect_samples(0.3);
    network.collect_samples(0.6);
    let meter = network.meter().snapshot();
    let bills = network.meter().per_node_bytes();

    network.resample(SEED, &edits(k));
    let mut fresh = build(edited_partitions(k), SEED);
    fresh.set_failure_plan(plan);
    assert_eq!(network.total_data_size(), fresh.total_data_size());
    assert_eq!(network.node_count(), fresh.node_count());
    for target in [0.25, 0.7] {
        let delivered = network.collect_samples(target);
        assert_eq!(
            delivered,
            fresh.collect_samples(target),
            "delivered at {target}"
        );
        assert!(network.station() == fresh.station(), "station at {target}");
    }
    assert_eq!(
        grown(network.meter().snapshot(), meter),
        fresh.meter().snapshot(),
        "the meter grows by the fresh network's traffic"
    );
    let mut grown_bills = network.meter().per_node_bytes();
    for (node, bytes) in bills {
        *grown_bills.get_mut(&node).expect("bills only grow") -= bytes;
    }
    grown_bills.retain(|_, bytes| *bytes > 0);
    assert_eq!(grown_bills, fresh.meter().per_node_bytes());
}

#[test]
fn a_resampled_flat_network_equals_a_fresh_one() {
    let build = |parts, seed| FlatNetwork::from_partitions(parts, seed);
    assert_resample_matches_a_fresh_network(10, build, FailurePlan::none());
    assert_resample_matches_a_fresh_network(10, build, killing(&[2, 5]));
}

#[test]
fn a_resampled_tree_network_equals_a_fresh_one() {
    let build = |parts, seed| TreeNetwork::from_partitions(parts, 2, seed);
    assert_resample_matches_a_fresh_network(15, build, FailurePlan::none());
    // Interior node 1 cuts off {3, 4, 7, 8, 9, 10}.
    assert_resample_matches_a_fresh_network(15, build, killing(&[1, 11]));
}

#[test]
fn a_resample_moves_the_revision_forward_even_when_nothing_arrives() {
    let mut network = flat();
    network.collect_samples(0.3);
    let before = network.station().revision();
    network.resample(1, &[]);
    assert!(network.station().revision() > before);
    assert_eq!(network.station().node_count(), 0, "every record retired");
    network.set_failure_plan(killing(&(0..10).collect::<Vec<_>>()));
    assert_eq!(network.collect_samples(0.3), 0);
    assert!(network.station().revision() > before);
}

fn request() -> QueryRequest {
    QueryRequest::new(
        RangeQuery::new(500.0, 2_000.0).expect("a valid range"),
        Accuracy::new(0.2, 0.6).expect("a valid accuracy"),
    )
}

#[test]
fn a_stale_index_never_serves_after_a_resample() {
    let mut broker = DataBroker::new(flat(), 3);
    broker.set_index_policy(IndexPolicy::Always);
    broker.answer(&request()).unwrap();
    let builds = broker.counters().index_builds;
    broker
        .network_mut()
        .resample(9, &[DataEdit::Insert(NodeId(0), 1_000.5)]);
    let answer = broker.answer(&request()).unwrap();
    assert_eq!(broker.counters().index_builds, builds + 1);
    let scan = RankCounting.estimate(broker.network().station(), request().query);
    assert_eq!(answer.sample_estimate.to_bits(), scan.to_bits());
}

#[test]
fn a_stale_answer_never_serves_after_a_resample() {
    let mut broker = DataBroker::new(flat(), 4);
    let model = ChebyshevVariance::new(3_000);
    broker.enable_answer_cache(Box::new(PostedPriceReuse::new(
        InverseVariancePricing::new(1e7, model),
        model,
    )));
    let first = broker.answer(&request()).unwrap();
    // The guard re-serves the identical demand from the same sample…
    assert_eq!(broker.answer(&request()).unwrap(), first);
    let hits = broker.counters().cache_hits;
    assert_eq!(hits, 1);
    // …but not once the sample it was drawn from is retired.
    broker.network_mut().resample(9, &[]);
    let second = broker.answer(&request()).unwrap();
    assert_eq!(broker.counters().cache_hits, hits, "a fresh answer");
    assert_ne!(second.value.to_bits(), first.value.to_bits());
    let scan = RankCounting.estimate(broker.network().station(), request().query);
    assert_eq!(second.sample_estimate.to_bits(), scan.to_bits());
    // The new answer is cached in turn.
    assert_eq!(broker.answer(&request()).unwrap(), second);
    assert_eq!(broker.counters().cache_hits, hits + 1);
}

/// `k` flat nodes of `per_node` consecutive values each, from `offset` up.
fn offset_network(k: usize, per_node: usize, offset: f64, seed: u64) -> FlatNetwork {
    let parts = partitions(k, per_node)
        .into_iter()
        .map(|part| part.into_iter().map(|value| value + offset).collect())
        .collect();
    FlatNetwork::from_partitions(parts, seed)
}

/// Replaces the broker's network with `other`, first collected at the
/// probability the broker's station stands at: the two stations then
/// count the same revision and the same retirements.
fn swap_in(broker: &mut DataBroker, mut other: FlatNetwork) {
    let station = broker.network().station();
    other.collect_samples(station.effective_probability());
    assert_eq!(other.station().revision(), station.revision());
    assert_eq!(other.station().retirements(), station.retirements());
    *broker.network_mut() = other;
}

#[test]
fn a_swapped_network_never_serves_stale_state() {
    let request = QueryRequest::new(
        RangeQuery::new(500.0, 1_500.0).expect("a valid range"),
        Accuracy::new(0.2, 0.6).expect("a valid accuracy"),
    );
    let scan =
        |broker: &DataBroker| RankCounting.estimate(broker.network().station(), request.query);

    // (a) The index built over the old station does not answer for the
    // new one.
    let mut indexed = DataBroker::new(offset_network(4, 500, 0.0, 5), 5);
    indexed.set_index_policy(IndexPolicy::Always);
    indexed.answer(&request).unwrap();
    swap_in(&mut indexed, offset_network(4, 500, 700.0, 6));
    let answer = indexed.answer(&request).unwrap();
    assert_eq!(answer.sample_estimate.to_bits(), scan(&indexed).to_bits());
    assert_eq!(indexed.counters().index_builds, 2, "rebuilt for the swap");

    // (b) A plan swept for the old station's shape does not price the
    // noise for the new one.
    let config = OptimizerConfig {
        sensitivity: SensitivityPolicy::WorstCase,
        ..OptimizerConfig::default()
    };
    let mut planned = DataBroker::new(offset_network(4, 500, 0.0, 7), 7);
    planned.set_optimizer_config(config);
    planned.answer(&request).unwrap();
    swap_in(&mut planned, offset_network(4, 2_000, 0.0, 8));
    let served = planned.answer(&request).unwrap().plan;
    let station = planned.network().station();
    let fresh = optimize(
        request.accuracy,
        station.effective_probability(),
        NetworkShape::from_station(station).unwrap(),
        &config,
    )
    .unwrap();
    assert_eq!(served.noise_scale.to_bits(), fresh.noise_scale.to_bits());
    assert_eq!(
        served.epsilon.value().to_bits(),
        fresh.epsilon.value().to_bits()
    );

    // (c) An answer cached from the old station is not re-served for the
    // same range and demand.
    let model = ChebyshevVariance::new(2_000);
    let mut cached = DataBroker::new(offset_network(4, 500, 0.0, 9), 9);
    cached.enable_answer_cache(Box::new(PostedPriceReuse::new(
        InverseVariancePricing::new(1e7, model),
        model,
    )));
    let first = cached.answer(&request).unwrap();
    assert_eq!(cached.answer(&request).unwrap(), first, "a hit before");
    swap_in(&mut cached, offset_network(4, 500, 700.0, 10));
    let second = cached.answer(&request).unwrap();
    assert_eq!(cached.counters().cache_hits, 1, "a fresh answer after");
    assert_eq!(second.sample_estimate.to_bits(), scan(&cached).to_bits());
}
