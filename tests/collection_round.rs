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
//! A plan with zero dropout and zero loss probability draws no
//! randomness at all: only its killed nodes fail. The revival scenarios
//! pin that case the way a ladder of rungs drives it — nodes killed
//! before the schedule, then a fresh plan installed mid-schedule under
//! which one of them revives.

use prc::net::conformance::station_fingerprint;
use prc::net::message::NodeId;
use prc::net::network::CostSnapshot;
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
