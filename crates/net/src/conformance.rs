//! The executable [`Network`] contract: a driver-generic conformance kit.
//!
//! The workspace has two network drivers — flat and tree, which run one
//! shared collection round over different topologies — and a broker
//! pipeline that is generic over both. The pricing engine's
//! arbitrage-freeness audit is only meaningful if every driver feeding
//! it produces the *same* sample state for the same seed, so the
//! contract the drivers share is pinned here as executable checks rather
//! than prose:
//!
//! 1. **Seed determinism** — rebuilding and re-running a driver with
//!    identical construction parameters yields a byte-identical
//!    [`BaseStation`] and identical costs;
//! 2. **Monotone top-up** — [`Network::top_up`] collects only when the
//!    station's effective probability lags the target, and a round at or
//!    below the reached probability moves nothing;
//! 3. **Cost-meter invariants** — `samples == station.total_samples()`,
//!    `free ≤ total` (so chargeable messages never underflow), and
//!    per-node byte attributions sum to the byte total;
//! 4. **Failure semantics** — dead nodes stay silent;
//!    [`LossMode::Retransmit`] never changes data but costs messages;
//!    [`LossMode::Drop`] under-delivers but still registers population;
//! 5. **Tracer accounting** — per-round events are complete: every
//!    non-silent lagging node is requested, every request resolves to a
//!    delivery or a loss, and the round summary carries the delivered
//!    total.
//! 6. **Delta reporting** — [`Network::collect_delta`] names exactly
//!    the nodes whose station record changed: a first round reports
//!    every live node, a redundant round reports nothing and leaves the
//!    revision untouched, a catch-up round after a lifted failure plan
//!    reports precisely the previously-dead nodes, and the delta's
//!    `revision` always brackets [`BaseStation::changed_since`].
//!
//! [`check_driver`] runs the whole contract against any factory closure
//! and returns a [`ConformanceReport`] holding the canonical-scenario
//! outcomes; [`assert_drivers_agree`] then pins the *cross-driver*
//! half of the contract — all drivers byte-identical on the same seed,
//! including under one shared [`FailurePlan`]. The integration test
//! `tests/driver_conformance.rs` instantiates both for every driver in
//! the workspace; DESIGN.md §12 documents the invariant catalog.
//!
//! The canonical topology is 7 nodes so that a binary [`crate::tree::TreeNetwork`]
//! over the same partitions has leaves {3, 4, 5, 6}: the shared failure
//! scenario only kills **leaf** nodes, which keeps tree connectivity
//! equal to plain liveness and lets both drivers agree exactly.

use crate::base_station::BaseStation;
use crate::failure::{FailurePlan, LossMode};
use crate::message::NodeId;
use crate::network::{CostSnapshot, Network, RoundDelta};
use crate::trace::Tracer;

/// Nodes in the canonical scenario (binary-tree leaves are 3..=6).
pub const CANONICAL_NODES: usize = 7;
/// Data elements per node in the canonical scenario.
pub const CANONICAL_PER_NODE: usize = 400;
/// Sampling seed shared by every conformance run.
pub const CANONICAL_SEED: u64 = 0x00C0_FFEE;
/// The escalating (and once-repeating) collection schedule.
pub const CANONICAL_SCHEDULE: [f64; 4] = [0.2, 0.55, 0.55, 0.9];
/// Failure-plan seed for the shared cross-driver failure scenario.
pub const CANONICAL_FAILURE_SEED: u64 = 0xBAD5_EED5;

/// The partitions every conformance run distributes over its driver.
pub fn canonical_partitions() -> Vec<Vec<f64>> {
    (0..CANONICAL_NODES)
        .map(|i| {
            (0..CANONICAL_PER_NODE)
                .map(|j| (i * CANONICAL_PER_NODE + j) as f64 * 0.5 - 100.0)
                .collect()
        })
        .collect()
}

/// The shared failure scenario: two dead leaves plus unacknowledged
/// message loss. Leaf-only kills keep every driver's delivered set equal.
pub fn canonical_failure_plan() -> FailurePlan {
    let mut plan = FailurePlan::new(0.0, 0.3, LossMode::Drop, CANONICAL_FAILURE_SEED);
    plan.kill_node(NodeId(5));
    plan.kill_node(NodeId(6));
    plan
}

/// Serializes a station's full sample state into a canonical byte string:
/// per node (in station order) the id, population, probability bits,
/// entry count, then every entry's value bits and rank. Two stations with
/// equal fingerprints hold bit-identical sample state.
pub fn station_fingerprint(station: &BaseStation) -> Vec<u8> {
    let mut bytes = Vec::new();
    for node in station.node_samples() {
        bytes.extend_from_slice(&node.node_id.0.to_le_bytes());
        bytes.extend_from_slice(&(node.population_size as u64).to_le_bytes());
        bytes.extend_from_slice(&node.probability.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(node.len() as u64).to_le_bytes());
        for entry in node.entries() {
            bytes.extend_from_slice(&entry.value.to_bits().to_le_bytes());
            bytes.extend_from_slice(&entry.rank.to_le_bytes());
        }
    }
    bytes
}

/// What one driver produced on the canonical scenarios; the cross-driver
/// comparison input for [`assert_drivers_agree`].
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Human-readable driver name (used in assertion messages).
    pub driver: String,
    /// Station state after the clean canonical schedule.
    pub clean_station: BaseStation,
    /// Meter totals after the clean canonical schedule.
    pub clean_cost: CostSnapshot,
    /// Station state after the shared failure scenario.
    pub failure_station: BaseStation,
    /// Meter totals after the shared failure scenario.
    pub failure_cost: CostSnapshot,
    /// Per-round deltas reported over the clean canonical schedule.
    pub clean_deltas: Vec<RoundDelta>,
    /// Per-round deltas reported under the shared failure scenario.
    pub failure_deltas: Vec<RoundDelta>,
}

/// Checks the cost-meter invariants that must hold after every round.
fn assert_cost_invariants<N: Network>(driver: &str, network: &N) {
    let snap = network.meter().snapshot();
    assert_eq!(
        snap.samples,
        network.station().total_samples() as u64,
        "{driver}: metered samples must equal the station's holdings"
    );
    assert!(
        snap.free_messages <= snap.messages,
        "{driver}: free messages must never exceed total messages"
    );
    let attributed: u64 = network.meter().per_node_bytes().values().sum();
    assert_eq!(
        attributed, snap.bytes,
        "{driver}: per-node byte attributions must sum to the byte total"
    );
}

/// Runs the full `Network` contract against one driver factory.
///
/// The factory receives `(partitions, seed)` and must return a fresh,
/// unused driver. The kit builds several instances — the contract is
/// about what *identical construction* guarantees.
///
/// # Panics
///
/// Panics (with the driver name in the message) on any contract
/// violation.
///
/// # Examples
///
/// ```
/// use prc_net::conformance::check_driver;
/// use prc_net::network::FlatNetwork;
///
/// let report = check_driver("flat", |parts, seed| {
///     FlatNetwork::from_partitions(parts, seed)
/// });
/// assert_eq!(report.driver, "flat");
/// ```
pub fn check_driver<N, F>(driver: &str, build: F) -> ConformanceReport
where
    N: Network,
    F: Fn(Vec<Vec<f64>>, u64) -> N,
{
    let run_schedule = |plan: Option<FailurePlan>, schedule: &[f64]| {
        let mut network = build(canonical_partitions(), CANONICAL_SEED);
        if let Some(plan) = plan {
            network.set_failure_plan(plan);
        }
        let mut delivered = 0;
        let mut deltas = Vec::with_capacity(schedule.len());
        for &target in schedule {
            let before = network.station().revision();
            let delta = network.collect_delta(target);
            assert_cost_invariants(driver, &network);
            // 6. Delta reporting: the delta must bracket the station's
            //    own journal exactly, round after round.
            assert_eq!(
                delta.changed,
                network.station().changed_since(before),
                "{driver}: a round delta must name exactly the journalled dirty set"
            );
            assert_eq!(
                delta.revision,
                network.station().revision(),
                "{driver}: a round delta must carry the post-round revision"
            );
            if delta.changed.is_empty() {
                assert_eq!(
                    delta.revision, before,
                    "{driver}: an empty delta must leave the revision untouched"
                );
            }
            delivered += delta.delivered;
            deltas.push(delta);
        }
        (
            network.station().clone(),
            network.meter().snapshot(),
            delivered,
            deltas,
        )
    };

    // 1. Seed determinism: two builds, two runs, byte-identical outcome.
    let (clean_station, clean_cost, clean_delivered, clean_deltas) =
        run_schedule(None, &CANONICAL_SCHEDULE);
    let (repeat_station, repeat_cost, repeat_delivered, repeat_deltas) =
        run_schedule(None, &CANONICAL_SCHEDULE);
    assert_eq!(
        station_fingerprint(&clean_station),
        station_fingerprint(&repeat_station),
        "{driver}: identical construction must give a byte-identical station"
    );
    assert_eq!(
        clean_station, repeat_station,
        "{driver}: identical construction must give an equal station"
    );
    assert_eq!(
        clean_cost, repeat_cost,
        "{driver}: identical construction must give identical costs"
    );
    assert_eq!(
        clean_delivered, repeat_delivered,
        "{driver}: identical construction must deliver identical counts"
    );
    assert_eq!(
        clean_delivered,
        clean_station.total_samples(),
        "{driver}: with no failures, everything delivered must be held"
    );
    assert_eq!(
        clean_deltas, repeat_deltas,
        "{driver}: identical construction must report identical deltas"
    );
    let all_nodes: Vec<NodeId> = (0..CANONICAL_NODES as u32).map(NodeId).collect();
    match clean_deltas.as_slice() {
        [first_round, _, repeat_round, raised_round] => {
            assert_eq!(
                first_round.changed, all_nodes,
                "{driver}: the first clean round must report every node changed"
            );
            assert!(
                repeat_round.changed.is_empty() && repeat_round.delivered == 0,
                "{driver}: the repeated target must report an empty delta"
            );
            assert_eq!(
                raised_round.changed, all_nodes,
                "{driver}: a raised target must report every lagging node changed"
            );
        }
        other => assert_eq!(
            other.len(),
            4,
            "{driver}: the canonical schedule must produce one delta per round"
        ),
    }

    // 2. Monotone top-up semantics.
    let mut network = build(canonical_partitions(), CANONICAL_SEED);
    assert!(
        network.top_up(0.5).is_some(),
        "{driver}: a lagging station must trigger collection"
    );
    assert_eq!(
        network.station().effective_probability(),
        0.5,
        "{driver}: top-up must reach exactly the target probability"
    );
    let held = network.station().total_samples();
    assert!(
        network.top_up(0.3).is_none(),
        "{driver}: a satisfied target must not trigger collection"
    );
    assert_eq!(
        network.collect_samples(0.3),
        0,
        "{driver}: a round below the reached probability must move nothing"
    );
    assert_eq!(
        network.station().total_samples(),
        held,
        "{driver}: non-lagging rounds must not change the sample set"
    );
    assert!(
        network.top_up(0.9).is_some(),
        "{driver}: raising the target must top the station up again"
    );
    assert_eq!(network.station().effective_probability(), 0.9);
    assert!(
        network.station().total_samples() >= held,
        "{driver}: top-up must never discard samples"
    );
    assert_cost_invariants(driver, &network);

    // 3. Basic shape: every driver reports the same population layout
    //    and un-metered ground truth.
    assert_eq!(
        network.node_count(),
        CANONICAL_NODES,
        "{driver}: node count"
    );
    assert_eq!(
        network.total_data_size(),
        CANONICAL_NODES * CANONICAL_PER_NODE,
        "{driver}: total data size"
    );
    let exact_all = network.exact_range_count(f64::MIN, f64::MAX);
    assert_eq!(
        exact_all,
        CANONICAL_NODES * CANONICAL_PER_NODE,
        "{driver}: exact count over the full support must match the population"
    );

    // 4a. Dead nodes stay silent.
    let mut dead_plan = FailurePlan::none();
    dead_plan.kill_node(NodeId(5));
    dead_plan.kill_node(NodeId(6));
    let (dead_station, _, dead_delivered, dead_deltas) =
        run_schedule(Some(dead_plan), &CANONICAL_SCHEDULE);
    assert!(
        dead_deltas
            .iter()
            .all(|d| !d.changed.contains(&NodeId(5)) && !d.changed.contains(&NodeId(6))),
        "{driver}: dead nodes must never appear in a round delta"
    );
    assert_eq!(
        dead_station.node_count(),
        CANONICAL_NODES - 2,
        "{driver}: dead nodes must never register with the station"
    );
    assert!(
        dead_station.node_sample(NodeId(5)).is_none()
            && dead_station.node_sample(NodeId(6)).is_none(),
        "{driver}: the killed nodes specifically must be absent"
    );
    assert_eq!(
        dead_station.total_population(),
        (CANONICAL_NODES - 2) * CANONICAL_PER_NODE,
        "{driver}: population must cover exactly the surviving nodes"
    );
    assert_eq!(
        dead_delivered,
        dead_station.total_samples(),
        "{driver}: deliveries under dropout must all be held"
    );

    // 4b. Retransmit loses nothing but costs messages.
    let retransmit_plan = FailurePlan::new(0.0, 0.4, LossMode::Retransmit, CANONICAL_FAILURE_SEED);
    let (retry_station, retry_cost, _, _) =
        run_schedule(Some(retransmit_plan), &CANONICAL_SCHEDULE);
    assert_eq!(
        station_fingerprint(&retry_station),
        station_fingerprint(&clean_station),
        "{driver}: retransmission must never change the data"
    );
    assert!(
        retry_cost.messages > clean_cost.messages,
        "{driver}: retransmission must cost extra messages"
    );
    assert_eq!(
        retry_cost.lost_messages, 0,
        "{driver}: retransmit mode never loses a message permanently"
    );

    // 4c. Drop under-delivers but still registers population.
    let drop_plan = FailurePlan::new(0.0, 0.4, LossMode::Drop, CANONICAL_FAILURE_SEED);
    let (drop_station, drop_cost, _, _) = run_schedule(Some(drop_plan), &CANONICAL_SCHEDULE);
    assert!(
        drop_cost.lost_messages > 0,
        "{driver}: the canonical Drop scenario must actually lose batches"
    );
    assert!(
        drop_station.total_samples() < clean_station.total_samples(),
        "{driver}: dropped batches must leave the station under-sampled"
    );
    assert_eq!(
        drop_station.node_count(),
        CANONICAL_NODES,
        "{driver}: a node whose batch dropped still registers its population"
    );
    assert_eq!(
        drop_station.total_population(),
        CANONICAL_NODES * CANONICAL_PER_NODE,
        "{driver}: Drop-mode loss must not hide population"
    );

    // 5. Tracer accounting: requests resolve, silence is reported, the
    //    round summary carries the delivered total.
    let mut network = build(canonical_partitions(), CANONICAL_SEED);
    let mut plan = FailurePlan::none();
    plan.kill_node(NodeId(5));
    network.set_failure_plan(plan);
    let tracer = Tracer::new(256);
    network.set_tracer(tracer.clone());
    let delivered = network.collect_samples(0.5);
    let counts = tracer.counts_by_kind();
    assert_eq!(
        counts.get("node_silent").copied().unwrap_or(0),
        1,
        "{driver}: one dead node must be traced silent"
    );
    assert_eq!(
        counts.get("top_up_requested").copied().unwrap_or(0),
        CANONICAL_NODES - 1,
        "{driver}: every live lagging node must be asked to top up"
    );
    let resolved = counts.get("batch_delivered").copied().unwrap_or(0)
        + counts.get("batch_lost").copied().unwrap_or(0);
    assert_eq!(
        resolved,
        CANONICAL_NODES - 1,
        "{driver}: every request must resolve to a delivery or a loss"
    );
    assert_eq!(
        counts.get("round_completed").copied().unwrap_or(0),
        1,
        "{driver}: exactly one round summary per round"
    );
    let summary_delivered: Vec<usize> = tracer
        .events()
        .iter()
        .filter_map(|event| match event {
            crate::trace::TraceEvent::RoundCompleted { delivered, .. } => Some(*delivered),
            _ => None,
        })
        .collect();
    assert_eq!(
        summary_delivered,
        vec![delivered],
        "{driver}: the round summary must carry the delivered total"
    );
    // A second, non-lagging round only adds silence and a summary.
    tracer.clear();
    assert_eq!(network.collect_samples(0.25), 0);
    let counts = tracer.counts_by_kind();
    assert_eq!(
        counts.get("top_up_requested").copied().unwrap_or(0),
        0,
        "{driver}: satisfied nodes must not be re-requested"
    );
    assert_eq!(counts.get("round_completed").copied().unwrap_or(0), 1);

    // 6 (continued). Catch-up deltas: after a lifted failure plan, one
    // round reports exactly the previously-dead nodes — the partial
    // delta answer-cache eviction consumes instead of clearing the cache.
    let mut network = build(canonical_partitions(), CANONICAL_SEED);
    let mut plan = FailurePlan::none();
    plan.kill_node(NodeId(3));
    plan.kill_node(NodeId(4));
    network.set_failure_plan(plan);
    let first = network.collect_delta(0.5);
    assert_eq!(
        first.changed,
        vec![NodeId(0), NodeId(1), NodeId(2), NodeId(5), NodeId(6)],
        "{driver}: the first round under dropout must report exactly the live nodes"
    );
    network.set_failure_plan(FailurePlan::none());
    let catch_up = network.collect_delta(0.5);
    assert_eq!(
        catch_up.changed,
        vec![NodeId(3), NodeId(4)],
        "{driver}: a catch-up round must report exactly the revived nodes"
    );
    assert!(
        catch_up.revision > first.revision,
        "{driver}: a catch-up round must advance the revision"
    );
    let idle = network.collect_delta(0.5);
    assert_eq!(
        idle,
        RoundDelta {
            delivered: 0,
            changed: Vec::new(),
            revision: catch_up.revision,
        },
        "{driver}: a redundant round must report an empty delta at the same revision"
    );

    // The shared failure scenario, for cross-driver comparison.
    let (failure_station, failure_cost, _, failure_deltas) =
        run_schedule(Some(canonical_failure_plan()), &[0.4, 0.8]);

    ConformanceReport {
        driver: driver.to_string(),
        clean_station,
        clean_cost,
        failure_station,
        failure_cost,
        clean_deltas,
        failure_deltas,
    }
}

/// The cross-driver half of the contract: every report must hold
/// byte-identical station state on the clean scenario *and* under the
/// shared failure plan, and agree on sample counts (costs may differ —
/// the tree driver legitimately pays per hop).
///
/// # Panics
///
/// Panics when any two drivers disagree.
pub fn assert_drivers_agree(reports: &[ConformanceReport]) {
    let Some(first) = reports.first() else {
        return;
    };
    for other in reports.iter().skip(1) {
        assert_eq!(
            station_fingerprint(&first.clean_station),
            station_fingerprint(&other.clean_station),
            "{} vs {}: clean station state must be byte-identical",
            first.driver,
            other.driver
        );
        assert_eq!(
            station_fingerprint(&first.failure_station),
            station_fingerprint(&other.failure_station),
            "{} vs {}: station state under one failure plan must be byte-identical",
            first.driver,
            other.driver
        );
        assert_eq!(
            first.clean_cost.samples, other.clean_cost.samples,
            "{} vs {}: drivers must ship the same number of samples",
            first.driver, other.driver
        );
        assert_eq!(
            first.failure_cost.samples, other.failure_cost.samples,
            "{} vs {}: drivers must lose the same samples under one plan",
            first.driver, other.driver
        );
        assert_eq!(
            first.failure_cost.lost_messages, other.failure_cost.lost_messages,
            "{} vs {}: drivers must lose the same messages under one plan",
            first.driver, other.driver
        );
        assert_eq!(
            first.clean_deltas, other.clean_deltas,
            "{} vs {}: clean round deltas must be byte-identical",
            first.driver, other.driver
        );
        assert_eq!(
            first.failure_deltas, other.failure_deltas,
            "{} vs {}: round deltas under one failure plan must be byte-identical",
            first.driver, other.driver
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_sample_states() {
        let mut a = crate::network::FlatNetwork::from_partitions(canonical_partitions(), 1);
        let mut b = crate::network::FlatNetwork::from_partitions(canonical_partitions(), 2);
        a.collect_samples(0.5);
        b.collect_samples(0.5);
        assert_ne!(
            station_fingerprint(a.station()),
            station_fingerprint(b.station()),
            "different seeds must fingerprint differently"
        );
        let mut a2 = crate::network::FlatNetwork::from_partitions(canonical_partitions(), 1);
        a2.collect_samples(0.5);
        assert_eq!(
            station_fingerprint(a.station()),
            station_fingerprint(a2.station())
        );
    }

    #[test]
    fn empty_report_list_is_trivially_consistent() {
        assert_drivers_agree(&[]);
    }
}
