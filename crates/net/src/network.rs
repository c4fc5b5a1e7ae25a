//! The sensor network, its collection round, and communication-cost
//! accounting.
//!
//! [`SensorNetwork`] is one network type with two topologies:
//! [`FlatNetwork`], the paper's flat model, where every node talks
//! directly to the base station, and [`crate::tree::TreeNetwork`], the
//! general tree model. A flat node is simply a child of the base station
//! at one hop, so dead-ancestor cut-off, hop-multiplied metering, both
//! loss modes and the traced event sequence are written once, in the
//! round that tallies its traffic into the network's [`CostMeter`].

use std::collections::BTreeMap;
use std::marker::PhantomData;

use prc_data::partition::{partition_values, PartitionStrategy};
use prc_data::record::{AirQualityIndex, Dataset};

use crate::base_station::BaseStation;
use crate::failure::{FailurePlan, LossMode};
use crate::message::{NodeId, SampleMessage, TOP_UP_REQUEST_BYTES};
use crate::node::SensorNode;
use crate::trace::{TraceEvent, Tracer};

/// Aggregate communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSnapshot {
    /// Total messages transmitted (including retransmissions and hops).
    pub messages: u64,
    /// Messages that piggybacked on routine traffic (heartbeat rule).
    pub free_messages: u64,
    /// Total sample entries shipped.
    pub samples: u64,
    /// Total payload bytes transmitted.
    pub bytes: u64,
    /// Messages permanently lost (only under `LossMode::Drop`).
    pub lost_messages: u64,
}

impl CostSnapshot {
    /// Messages that incurred real cost (not piggybacked).
    pub fn chargeable_messages(&self) -> u64 {
        self.messages - self.free_messages
    }

    /// Adds one delivered message of `wire_size` bytes that took
    /// `transmissions` transmissions (hops × attempts per hop) and carried
    /// `samples` sample entries; `free` when it rides a heartbeat.
    /// Returns the bytes charged.
    fn add_delivered(
        &mut self,
        wire_size: usize,
        free: bool,
        samples: usize,
        transmissions: u64,
    ) -> u64 {
        self.messages += transmissions;
        if free {
            self.free_messages += transmissions;
        }
        let bytes = wire_size as u64 * transmissions;
        self.bytes += bytes;
        self.samples += samples as u64;
        bytes
    }

    /// Adds one message of `wire_size` bytes lost on its one (charged)
    /// transmission. Returns the bytes charged.
    fn add_lost(&mut self, wire_size: usize) -> u64 {
        self.messages += 1;
        self.lost_messages += 1;
        let bytes = wire_size as u64;
        self.bytes += bytes;
        bytes
    }

    fn add(&mut self, other: &CostSnapshot) {
        self.messages += other.messages;
        self.free_messages += other.free_messages;
        self.samples += other.samples;
        self.bytes += other.bytes;
        self.lost_messages += other.lost_messages;
    }
}

/// The communication cost a network has been charged so far.
///
/// The collection round is the only writer: it tallies its traffic
/// locally and adds it here once per round. In addition to the aggregate
/// [`CostSnapshot`], the meter tracks bytes transmitted *per node*,
/// which the energy model ([`crate::energy`]) turns into per-node
/// battery drain.
#[derive(Debug, Default)]
pub struct CostMeter {
    totals: CostSnapshot,
    per_node_bytes: BTreeMap<NodeId, u64>,
}

impl CostMeter {
    /// Adds one round's `totals` and each `(node, bytes)` bill. Per-node
    /// accounting attributes a message's full (hop-multiplied) byte cost
    /// to the node it was sent to or from, matching the convention that
    /// relaying energy is billed to the flow that caused it.
    fn charge(&mut self, totals: &CostSnapshot, bills: &[(NodeId, u64)]) {
        self.totals.add(totals);
        for &(node, bytes) in bills {
            *self.per_node_bytes.entry(node).or_insert(0) += bytes;
        }
    }

    /// Current counter values.
    pub fn snapshot(&self) -> CostSnapshot {
        self.totals
    }

    /// Bytes attributed to each node so far.
    pub fn per_node_bytes(&self) -> BTreeMap<NodeId, u64> {
        self.per_node_bytes.clone()
    }
}

/// What one collection round changed, as seen through the delta
/// contract (§12 of DESIGN.md).
///
/// A round's delta is *derived from the station's revision journal*
/// ([`BaseStation::changed_since`]), not from round-internal
/// bookkeeping: every round mutates station state exclusively through
/// [`BaseStation::ingest`], so for byte-identical rounds every topology
/// reports byte-identical deltas. The conformance kit
/// ([`crate::conformance`]) pins this across the flat and tree topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundDelta {
    /// Sample entries delivered to the station this round.
    pub delivered: usize,
    /// Nodes whose station record changed this round, in node-id order.
    /// Empty for a round in which every message was lost or redundant.
    pub changed: Vec<NodeId>,
    /// The station revision after the round; consumers store this and
    /// pass it back to [`BaseStation::changed_since`] to resynchronise
    /// incrementally.
    pub revision: u64,
}

/// A topology-agnostic view of a sampling network.
///
/// [`SensorNetwork`] implements it once for both topologies —
/// [`FlatNetwork`] (every node one hop from the base station) and
/// [`crate::tree::TreeNetwork`] (balanced d-ary aggregation tree,
/// hop-multiplied costs): a population distributed over `k` nodes, a
/// base station accumulating Bernoulli samples, and a [`CostMeter`]
/// charging every message. Generic consumers — most importantly the
/// broker in `prc-core` — are written against this trait so the same
/// pipeline runs unchanged over either topology.
///
/// Implementations must be *deterministic in the seed*: for identical
/// construction parameters, the station state after any sequence of
/// [`Network::collect_samples`] calls must not depend on scheduling —
/// and for one shared [`FailurePlan`] seed, every topology must see the
/// same per-node failures. The executable form of this contract lives in
/// [`crate::conformance`]; `tests/driver_conformance.rs` runs it against
/// both topologies.
pub trait Network {
    /// Number of nodes (dead or alive).
    fn node_count(&self) -> usize;

    /// Total data elements across all nodes, `n = |D|`.
    ///
    /// `O(1)` on a [`SensorNetwork`]: node data changes only when a node
    /// is added or the network resamples, and both keep a running sum.
    fn total_data_size(&self) -> usize;

    /// The base station's view of collected samples.
    fn station(&self) -> &BaseStation;

    /// The cost meter charging this network's traffic.
    fn meter(&self) -> &CostMeter;

    /// Installs a failure plan (replacing any previous plan); subsequent
    /// rounds consult it for node dropout and message loss.
    fn set_failure_plan(&mut self, plan: FailurePlan);

    /// Attaches an event tracer; subsequent rounds emit
    /// [`crate::trace::TraceEvent`]s into it.
    fn set_tracer(&mut self, tracer: Tracer);

    /// Exact global range count `γ(l, u, D)` — ground truth for
    /// evaluation. Computed out of band (not metered, unaffected by
    /// failure plans): evaluation harnesses need the truth even when the
    /// simulated radios are lossy.
    fn exact_range_count(&self, l: f64, u: f64) -> usize;

    /// Runs one collection round: every live node raises its cumulative
    /// sampling probability to `target` and ships the new batch. Returns
    /// the number of sample entries that reached the base station.
    fn collect_samples(&mut self, target: f64) -> usize;

    /// The collection-stage hook: tops the station up to `target` when
    /// its effective probability lags, returning `Some(delivered)` for a
    /// round that actually ran and `None` when the existing sample
    /// already suffices. Consumers (the broker's Collect stage) treat a
    /// `Some` as the start of a new collection epoch.
    fn top_up(&mut self, target: f64) -> Option<usize> {
        if self.station().effective_probability() < target {
            Some(self.collect_samples(target.clamp(f64::MIN_POSITIVE, 1.0)))
        } else {
            None
        }
    }

    /// Runs one collection round and reports its [`RoundDelta`]: the
    /// exact set of nodes whose station record changed, instead of
    /// forcing the consumer to treat the whole station as dirty.
    ///
    /// Provided for every implementation by bracketing
    /// [`Network::collect_samples`] with the station's revision journal;
    /// implementations must not override this with local bookkeeping (the
    /// journal is what keeps flat and tree deltas byte-identical).
    fn collect_delta(&mut self, target: f64) -> RoundDelta {
        let before = self.station().revision();
        let delivered = self.collect_samples(target);
        let station = self.station();
        RoundDelta {
            delivered,
            changed: station.changed_since(before),
            revision: station.revision(),
        }
    }

    /// The delta-reporting form of [`Network::top_up`]: `Some(delta)`
    /// for a round that actually ran, `None` when the existing sample
    /// already meets `target`.
    fn top_up_delta(&mut self, target: f64) -> Option<RoundDelta> {
        if self.station().effective_probability() < target {
            Some(self.collect_delta(target.clamp(f64::MIN_POSITIVE, 1.0)))
        } else {
            None
        }
    }
}

/// A sensor network: the nodes, each node's route to the base station,
/// the station itself, the meter, the failure plan and the tracer.
///
/// The topology `T` is a marker type fixed at construction: [`Flat`]
/// ([`FlatNetwork`]) or [`crate::tree::Tree`]
/// ([`crate::tree::TreeNetwork`]). The flat model is the one-hop case of
/// the tree model (§III-A), so both run the same collection round and
/// differ only in the routes their constructors build.
#[derive(Debug)]
pub struct SensorNetwork<T> {
    pub(crate) nodes: Vec<SensorNode>,
    /// `parent[i]` is the index of node `i`'s parent, or `None` for a
    /// child of the base station. A parent always precedes its children.
    parent: Vec<Option<usize>>,
    /// `hops[i]` = number of links from node `i` to the base station (≥ 1).
    pub(crate) hops: Vec<u32>,
    /// `Σ n_i` over `nodes`, kept by [`SensorNetwork::push`] and
    /// [`SensorNetwork::resample`], the only places node data changes.
    data_size: usize,
    station: BaseStation,
    meter: CostMeter,
    failure: FailurePlan,
    tracer: Option<Tracer>,
    topology: PhantomData<T>,
}

/// One change to one node's local data, applied by
/// [`SensorNetwork::resample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataEdit {
    /// The value joins the node's data.
    Insert(NodeId, f64),
    /// One copy of the value (matched bit for bit) leaves the node's data.
    Remove(NodeId, f64),
}

/// The flat topology: every node reports directly to the base station.
#[derive(Debug)]
pub enum Flat {}

/// The paper's flat network: `k` sensor nodes reporting directly to one
/// base station.
pub type FlatNetwork = SensorNetwork<Flat>;

impl<T> SensorNetwork<T> {
    /// Builds one node per partition; `parent_of(i)` names node `i`'s
    /// parent, which must precede it (`None`: the base station).
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty.
    pub(crate) fn build(
        partitions: Vec<Vec<f64>>,
        seed: u64,
        parent_of: impl Fn(usize) -> Option<usize>,
    ) -> Self {
        assert!(!partitions.is_empty(), "network needs at least one node");
        let k = partitions.len();
        let mut network = SensorNetwork {
            nodes: Vec::with_capacity(k),
            parent: Vec::with_capacity(k),
            hops: Vec::with_capacity(k),
            data_size: 0,
            station: BaseStation::new(),
            meter: CostMeter::default(),
            failure: FailurePlan::none(),
            tracer: None,
            topology: PhantomData,
        };
        for (i, data) in partitions.into_iter().enumerate() {
            network.push(data, seed, parent_of(i));
        }
        network
    }

    /// Adds a node with fresh local data under `parent` (`None`: the base
    /// station) and returns its id.
    fn push(&mut self, data: Vec<f64>, seed: u64, parent: Option<usize>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.data_size += data.len();
        self.nodes.push(SensorNode::new(id, data, seed));
        let hops = parent.map_or(1, |p| self.hops[p] + 1);
        self.hops.push(hops);
        self.parent.push(parent);
        id
    }

    /// Starts a fresh, independent sample over edited node data.
    ///
    /// In one call:
    ///
    /// 1. applies `edits` in order; each node's data stays sorted as
    ///    [`SensorNode::new`] sorts it, and
    ///    [`Network::total_data_size`] follows the edits;
    /// 2. retires the base station's sample: every record goes, and the
    ///    revision moves forward, so an index, plan or answer derived
    ///    from the old sample cannot pass for a current one;
    /// 3. makes every node forget its draws and reseeds its RNG exactly
    ///    as a node built with `seed` is seeded.
    ///
    /// Routes, the meter, the failure plan and the tracer stay. The next
    /// round at `p` therefore delivers what a fresh network built over
    /// the edited data with `seed` would deliver at `p` under the same
    /// plan, and the meter grows by what that network's meter would
    /// read. (A plan with random message loss keeps its per-node loss
    /// streams where they stood, so its losses continue rather than
    /// restart.) Node data changes nowhere else after a node exists, so
    /// no rank a node shipped earlier ever refers to an edited array:
    /// its sample was retired with the edit.
    ///
    /// # Panics
    ///
    /// Panics if an edit names a node the network does not have, inserts
    /// NaN, or removes a value its node does not hold.
    pub fn resample(&mut self, seed: u64, edits: &[DataEdit]) {
        for &edit in edits {
            match edit {
                DataEdit::Insert(id, value) => {
                    self.nodes[id.0 as usize].insert(value);
                    self.data_size += 1;
                }
                DataEdit::Remove(id, value) => {
                    self.nodes[id.0 as usize].remove(value);
                    self.data_size -= 1;
                }
            }
        }
        for node in &mut self.nodes {
            node.reseed(seed);
        }
        self.station.retire();
    }

    /// Whether each node can reach the base station: it and every
    /// ancestor are alive. Every node's dropout is decided, cut off or
    /// not, so the plan's state does not depend on the topology.
    pub(crate) fn reachable(&mut self) -> Vec<bool> {
        let mut reachable = Vec::with_capacity(self.nodes.len());
        for (node, parent) in self.nodes.iter().zip(&self.parent) {
            let alive = !self.failure.node_is_dead(node.id());
            let route_up = parent.is_none_or(|p| reachable[p]);
            reachable.push(alive && route_up);
        }
        reachable
    }
}

impl FlatNetwork {
    /// Builds a network with one node per partition.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty.
    pub fn from_partitions(partitions: Vec<Vec<f64>>, seed: u64) -> Self {
        SensorNetwork::build(partitions, seed, |_| None)
    }

    /// Builds a network over one air-quality index of a dataset,
    /// partitioned across `k` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn from_dataset(
        dataset: &Dataset,
        index: AirQualityIndex,
        k: usize,
        strategy: PartitionStrategy,
        seed: u64,
    ) -> Self {
        let values = dataset.values(index);
        FlatNetwork::from_partitions(partition_values(&values, k, strategy), seed)
    }

    /// Dynamic membership: adds a node with fresh local data and returns
    /// its id. The node starts unsampled; it catches up at the next
    /// collection round, after which the global estimator automatically
    /// covers the grown population (its `k` and `n` come from the base
    /// station's live state).
    pub fn add_node(&mut self, data: Vec<f64>, seed: u64) -> NodeId {
        self.push(data, seed, None)
    }
}

impl<T> Network for SensorNetwork<T> {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn total_data_size(&self) -> usize {
        self.data_size
    }

    fn station(&self) -> &BaseStation {
        &self.station
    }

    fn meter(&self) -> &CostMeter {
        &self.meter
    }

    fn set_failure_plan(&mut self, plan: FailurePlan) {
        self.failure = plan;
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    fn exact_range_count(&self, l: f64, u: f64) -> usize {
        self.nodes.iter().map(|n| n.exact_range_count(l, u)).sum()
    }

    /// Runs one collection round: every reachable node below `target` is
    /// asked to top up to it and ships the new batch.
    ///
    /// Requests and delivered batches are charged once per hop (and,
    /// under retransmission, once per attempt per hop); the round tallies
    /// its traffic locally and charges the meter once. Nodes that are
    /// dead or cut off by a dead ancestor are traced as silent. A batch
    /// lost under [`LossMode::Drop`] dies on its first link (one charged
    /// transmission), and the node still registers its population and
    /// probability claim with the station. Returns the number of sample
    /// entries that reached the base station.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1]`.
    fn collect_samples(&mut self, target: f64) -> usize {
        assert!(
            target > 0.0 && target <= 1.0,
            "sampling probability must be in (0, 1], got {target}"
        );
        let reachable = self.reachable();
        let mut delivered = 0;
        let mut totals = CostSnapshot::default();
        let mut bills = Vec::with_capacity(self.nodes.len());
        for ((node, &hops), reachable) in self.nodes.iter_mut().zip(&self.hops).zip(reachable) {
            let id = node.id();
            if !reachable {
                if let Some(tracer) = &self.tracer {
                    tracer.record(TraceEvent::NodeSilent { node: id });
                }
                continue;
            }
            if node.probability() >= target {
                continue;
            }
            // Downlink request; retransmitted until heard even in Drop
            // mode (control traffic is acked in any real protocol).
            let mut bytes = totals.add_delivered(TOP_UP_REQUEST_BYTES, false, 0, u64::from(hops));
            if let Some(tracer) = &self.tracer {
                tracer.record(TraceEvent::TopUpRequested { node: id, target });
            }
            let batch = node.sample_to(target);
            let entries = batch.entries.len();
            match self.failure.transmission_attempts(id) {
                Some(attempts) => {
                    bytes += totals.add_delivered(
                        batch.wire_size(),
                        batch.fits_in_heartbeat(),
                        entries,
                        u64::from(hops) * u64::from(attempts),
                    );
                    delivered += entries;
                    if let Some(tracer) = &self.tracer {
                        tracer.record(TraceEvent::BatchDelivered {
                            node: id,
                            entries,
                            attempts,
                        });
                    }
                    self.station.ingest(batch);
                }
                None => {
                    bytes += totals.add_lost(batch.wire_size());
                    if let Some(tracer) = &self.tracer {
                        tracer.record(TraceEvent::BatchLost { node: id, entries });
                    }
                    // LossMode::Drop: record that the node reported (so the
                    // station knows its population and probability claim)
                    // but without the lost entries.
                    if self.failure.loss_mode() == LossMode::Drop {
                        self.station.ingest(SampleMessage {
                            entries: Vec::new(),
                            ..batch
                        });
                    }
                }
            }
            bills.push((id, bytes));
        }
        self.meter.charge(&totals, &bills);
        if let Some(tracer) = &self.tracer {
            let round = tracer.next_round();
            tracer.record(TraceEvent::RoundCompleted {
                round,
                target,
                delivered,
            });
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::LossMode;

    fn partitions(k: usize, per_node: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
            .collect()
    }

    #[test]
    fn flat_network_collects_from_all_nodes() {
        let mut net = FlatNetwork::from_partitions(partitions(4, 100), 7);
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.total_data_size(), 400);
        let delivered = net.collect_samples(0.5);
        assert!(delivered > 0);
        assert_eq!(net.station().node_count(), 4);
        assert_eq!(net.station().total_population(), 400);
        assert_eq!(net.station().effective_probability(), 0.5);
        assert_eq!(net.station().total_samples(), delivered);
    }

    #[test]
    fn top_up_rounds_accumulate() {
        let mut net = FlatNetwork::from_partitions(partitions(2, 1_000), 3);
        let first = net.collect_samples(0.1);
        let second = net.collect_samples(0.4);
        assert_eq!(net.station().total_samples(), first + second);
        assert_eq!(net.station().effective_probability(), 0.4);
        // Re-collecting at a lower probability moves nothing.
        let third = net.collect_samples(0.2);
        assert_eq!(third, 0);
    }

    #[test]
    fn meter_counts_messages_and_bytes() {
        let mut net = FlatNetwork::from_partitions(partitions(3, 200), 5);
        net.collect_samples(0.3);
        let cost = net.meter().snapshot();
        // 3 top-up requests + 3 sample messages minimum.
        assert!(cost.messages >= 6);
        assert!(cost.bytes > 0);
        assert_eq!(cost.samples, net.station().total_samples() as u64);
    }

    #[test]
    fn heartbeat_rule_marks_small_batches_free() {
        // Tiny sampling probability => tiny batches => free messages.
        let mut net = FlatNetwork::from_partitions(partitions(2, 50), 5);
        net.collect_samples(0.05);
        let cost = net.meter().snapshot();
        assert!(cost.free_messages > 0);
    }

    #[test]
    fn exact_count_sums_over_nodes() {
        let net = FlatNetwork::from_partitions(vec![vec![1.0, 2.0], vec![2.0, 3.0]], 0);
        assert_eq!(net.exact_range_count(2.0, 3.0), 3);
        assert_eq!(net.exact_range_count(0.0, 0.5), 0);
    }

    #[test]
    fn dead_nodes_stay_silent() {
        let mut net = FlatNetwork::from_partitions(partitions(4, 100), 9);
        let mut plan = FailurePlan::none();
        plan.kill_node(NodeId(0));
        plan.kill_node(NodeId(2));
        net.set_failure_plan(plan);
        net.collect_samples(0.5);
        assert_eq!(net.station().node_count(), 2);
        assert_eq!(net.station().total_population(), 200);
    }

    #[test]
    fn drop_mode_loses_batches_but_records_population() {
        let mut net = FlatNetwork::from_partitions(partitions(50, 100), 1);
        net.set_failure_plan(FailurePlan::new(0.0, 0.5, LossMode::Drop, 2));
        net.collect_samples(0.5);
        let cost = net.meter().snapshot();
        assert!(cost.lost_messages > 0, "expected losses at 50%");
        // Every node still registered (empty batches count the population).
        assert_eq!(net.station().node_count(), 50);
        // But fewer samples arrived than were sent.
        assert!((net.station().total_samples() as u64) < cost.samples + 2_000);
    }

    #[test]
    fn retransmit_mode_costs_more_but_loses_nothing() {
        let mk = |loss: f64, seed| {
            let mut net = FlatNetwork::from_partitions(partitions(5, 500), seed);
            if loss > 0.0 {
                net.set_failure_plan(FailurePlan::new(0.0, loss, LossMode::Retransmit, 4));
            }
            net.collect_samples(0.4);
            (
                net.meter().snapshot().messages,
                net.station().total_samples(),
            )
        };
        let (clean_msgs, clean_samples) = mk(0.0, 21);
        let (lossy_msgs, lossy_samples) = mk(0.4, 21);
        assert_eq!(
            clean_samples, lossy_samples,
            "retransmit must not lose data"
        );
        assert!(
            lossy_msgs > clean_msgs,
            "retransmissions must cost messages"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_network_panics() {
        let _ = FlatNetwork::from_partitions(vec![], 0);
    }

    #[test]
    fn dynamic_membership_catches_up_on_the_next_round() {
        let mut net = FlatNetwork::from_partitions(partitions(3, 200), 5);
        net.collect_samples(0.4);
        assert_eq!(net.station().node_count(), 3);
        assert_eq!(net.station().effective_probability(), 0.4);

        // A new device joins with fresh data.
        let id = net.add_node((600..800).map(f64::from).collect(), 5);
        assert_eq!(id, NodeId(3));
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.total_data_size(), 800);
        // The station lags until the next round…
        assert_eq!(net.station().node_count(), 3);
        // …then the newcomer catches up to the same cumulative p.
        net.collect_samples(0.4);
        assert_eq!(net.station().node_count(), 4);
        assert_eq!(net.station().effective_probability(), 0.4);
        assert_eq!(net.station().total_population(), 800);
    }

    #[test]
    fn tracer_observes_a_round() {
        use crate::trace::{TraceEvent, Tracer};
        let mut net = FlatNetwork::from_partitions(partitions(3, 100), 9);
        let mut plan = FailurePlan::none();
        plan.kill_node(NodeId(1));
        net.set_failure_plan(plan);
        let tracer = Tracer::new(64);
        net.set_tracer(tracer.clone());
        let delivered = net.collect_samples(0.3);

        let counts = tracer.counts_by_kind();
        assert_eq!(counts["node_silent"], 1);
        assert_eq!(counts["top_up_requested"], 2);
        assert_eq!(counts["batch_delivered"], 2);
        assert_eq!(counts["round_completed"], 1);
        // The round summary carries the delivered total.
        let last = tracer.events().pop().unwrap();
        match last {
            TraceEvent::RoundCompleted {
                round,
                target,
                delivered: d,
            } => {
                assert_eq!(round, 0);
                assert_eq!(target, 0.3);
                assert_eq!(d, delivered);
            }
            other => panic!("unexpected final event {other:?}"),
        }
        // A second, lower-target round only emits silence + summary.
        tracer.clear();
        net.collect_samples(0.1);
        let counts = tracer.counts_by_kind();
        assert_eq!(counts.get("batch_delivered"), None);
        assert_eq!(counts["round_completed"], 1);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn flat_rejects_bad_probability() {
        let mut net = FlatNetwork::from_partitions(partitions(1, 10), 1);
        net.collect_samples(1.5);
    }
}
