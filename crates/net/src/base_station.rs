//! The base station: per-node sample sets and the station-wide
//! aggregates the estimators read.

use std::cell::OnceCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::message::{NodeId, SampleEntry, SampleMessage};

/// The accumulated sample state for one node, as known to the base station.
///
/// Equality compares *sample state only* — the revision journal
/// ([`NodeSample::last_changed`]) is excluded. Different drivers may
/// deliver a node's samples in a different number of ingest events
/// (e.g. tree aggregation) and so stamp different revisions while
/// holding byte-identical state; the driver-conformance contract is
/// about the state, and the journal is per-station bookkeeping.
#[derive(Debug, Clone)]
pub struct NodeSample {
    /// The contributing node.
    pub node_id: NodeId,
    /// Size `n_i` of the node's full local dataset.
    pub population_size: usize,
    /// Cumulative sampling probability the node has reached.
    pub probability: f64,
    /// All received entries, sorted by rank, no duplicates.
    entries: Vec<SampleEntry>,
    /// Station revision at which this record last changed (see
    /// [`BaseStation::revision`]).
    last_changed: u64,
}

impl PartialEq for NodeSample {
    fn eq(&self, other: &Self) -> bool {
        self.node_id == other.node_id
            && self.population_size == other.population_size
            && self.probability == other.probability
            && self.entries == other.entries
    }
}

impl NodeSample {
    /// The received entries, sorted by rank.
    pub fn entries(&self) -> &[SampleEntry] {
        &self.entries
    }

    /// Number of samples held for this node.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no samples have been received.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The station revision at which this record last changed.
    ///
    /// A record counts as changed when it is created, when its claimed
    /// population moves, when its cumulative probability rises, or when
    /// a merge adds at least one new entry.
    pub fn last_changed(&self) -> u64 {
        self.last_changed
    }

    /// The closed value interval `[min, max]` covered by the received
    /// entries, or `None` when no entries are held.
    ///
    /// Entries arrive rank-sorted and each node's local dataset is
    /// sorted, so rank order *is* value order: the span is simply the
    /// first and last entry.
    pub fn value_span(&self) -> Option<(f64, f64)> {
        let first = self.entries.first()?;
        let last = self.entries.last()?;
        Some((first.value, last.value))
    }

    /// Merges one message in; reports whether the record changed.
    ///
    /// The held entries and the batch are both rank-sorted runs (a batch
    /// that is not is sorted and deduplicated first), so one linear merge
    /// joins them. On a rank held already, the held entry stays: the
    /// result equals extending, stably sorting by rank, and keeping the
    /// first entry of each rank.
    fn merge(&mut self, message: SampleMessage) -> bool {
        debug_assert_eq!(self.node_id, message.node_id);
        let before = (
            self.population_size,
            self.probability.to_bits(),
            self.entries.len(),
        );
        self.population_size = message.population_size;
        self.probability = self.probability.max(message.probability);
        let mut batch = message.entries;
        if !batch.is_sorted_by(|a, b| a.rank < b.rank) {
            batch.sort_by_key(|e| e.rank);
            batch.dedup_by_key(|e| e.rank);
        }
        merge_by_rank(&mut self.entries, batch);
        before
            != (
                self.population_size,
                self.probability.to_bits(),
                self.entries.len(),
            )
    }
}

/// Merges the strictly rank-increasing run `batch` into the strictly
/// rank-increasing run `held`, keeping `held`'s entry on a shared rank.
fn merge_by_rank(held: &mut Vec<SampleEntry>, batch: Vec<SampleEntry>) {
    if held.is_empty() {
        *held = batch;
        return;
    }
    if batch.is_empty() {
        return;
    }
    let old = std::mem::take(held);
    held.reserve_exact(old.len() + batch.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(a), Some(b)) = (old.get(i), batch.get(j)) {
        if a.rank <= b.rank {
            held.push(*a);
            i += 1;
            j += usize::from(a.rank == b.rank);
        } else {
            held.push(*b);
            j += 1;
        }
    }
    held.extend_from_slice(&old[i..]);
    held.extend_from_slice(&batch[j..]);
}

/// Station-wide aggregates, folded in one pass over the node records.
#[derive(Debug, Clone, Copy)]
struct Summary {
    total_population: usize,
    total_samples: usize,
    effective_probability: f64,
    uniform_probability: Option<f64>,
    max_population: usize,
    data_bearing_count: usize,
}

impl Summary {
    /// Every aggregate in one pass over the records in node-id order.
    /// Each applies the same operations in the same order as a fold of
    /// its own would, so each gets the same bits.
    fn of(samples: &BTreeMap<NodeId, NodeSample>) -> Summary {
        let mut total_population = 0;
        let mut total_samples = 0;
        let mut min_probability = f64::INFINITY;
        let mut max_population = 0;
        let mut data_bearing_count = 0;
        // The first data-bearing node's probability bits, and whether any
        // later one differs from them.
        let mut shared_bits: Option<u64> = None;
        let mut mixed = false;
        for sample in samples.values() {
            total_population += sample.population_size;
            total_samples += sample.len();
            min_probability = min_probability.min(sample.probability);
            max_population = max_population.max(sample.population_size);
            if sample.population_size > 0 {
                data_bearing_count += 1;
                let bits = sample.probability.to_bits();
                match shared_bits {
                    Some(first) => mixed |= first != bits,
                    None => shared_bits = Some(bits),
                }
            }
        }
        let ceiling = if samples.is_empty() { 0.0 } else { 1.0 };
        Summary {
            total_population,
            total_samples,
            effective_probability: min_probability.clamp(0.0, 1.0).min(ceiling),
            uniform_probability: shared_bits
                .filter(|_| !mixed)
                .map(f64::from_bits)
                .filter(|&p| p > 0.0),
            max_population,
            data_bearing_count,
        }
    }
}

/// Collects sample messages and exposes per-node sample sets.
///
/// The base station is the component that *"opens the data access API to
/// data brokers"* (§II-A): brokers read [`BaseStation::node_samples`] to
/// run the RankCounting estimator.
///
/// The station-wide aggregates ([`BaseStation::total_population`],
/// [`BaseStation::effective_probability`], …) are read on every request,
/// so the station folds them once per revision: the first read after an
/// [`BaseStation::ingest`] that changed a record computes all of them in
/// one pass, and every later read until the next change is `O(1)`. The
/// memo cannot go stale because the only two mutations, `ingest` and a
/// retirement, drop it whenever they bump the revision.
#[derive(Debug)]
pub struct BaseStation {
    /// Process-unique identity, taken when the station is made
    /// ([`BaseStation::identity`]).
    identity: u64,
    samples: BTreeMap<NodeId, NodeSample>,
    /// Monotone change counter: bumped once per [`BaseStation::ingest`]
    /// that actually changes a node's record, and once per retirement of
    /// the whole sample. Revision `0` is the empty station. Every
    /// mutation of station state flows through one of the two, so
    /// `(identity, revision)` is a sound validity token for any derived
    /// structure (estimator indexes, plan caches): if neither moved, the
    /// sample state is byte-identical.
    revision: u64,
    /// Retirements of the whole sample so far
    /// ([`crate::network::SensorNetwork::resample`]).
    retirements: u64,
    /// The aggregates of the current revision, folded on first read and
    /// dropped by every change.
    summary: OnceCell<Summary>,
}

/// The next station identity. The count publishes no other data, so
/// `Relaxed` ordering is enough.
static NEXT_IDENTITY: AtomicU64 = AtomicU64::new(0);

/// Sample-state equality: two stations are equal when every node holds
/// the same population claim, probability, and entry set. The identity,
/// the revision journal and the retirement count are deliberately
/// excluded — they name a station and count its *events*, which differ
/// across drivers delivering the same state and between a resampled
/// network and a fresh one.
impl PartialEq for BaseStation {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
    }
}

impl Default for BaseStation {
    fn default() -> Self {
        BaseStation {
            identity: NEXT_IDENTITY.fetch_add(1, Ordering::Relaxed),
            samples: BTreeMap::new(),
            revision: 0,
            retirements: 0,
            summary: OnceCell::new(),
        }
    }
}

/// A clone is a new station: it holds the same sample state under a
/// fresh identity, since the two may move apart from here.
impl Clone for BaseStation {
    fn clone(&self) -> Self {
        BaseStation {
            samples: self.samples.clone(),
            revision: self.revision,
            retirements: self.retirements,
            summary: self.summary.clone(),
            ..BaseStation::default()
        }
    }
}

impl BaseStation {
    /// Creates an empty base station.
    pub fn new() -> Self {
        BaseStation::default()
    }

    /// This station's identity: no other station this process has made
    /// (a clone included) shares it, and it never changes. The revision
    /// and the retirement count are counters *of one station*, so a
    /// consumer that keeps derived state stamps it with the identity as
    /// well: a network swapped in for another whose station stands at the
    /// same counts then still reads as a change.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// Ingests one sample message, merging it into the node's sample set.
    ///
    /// Bumps the station [`revision`](BaseStation::revision) and stamps
    /// the node's [`last_changed`](NodeSample::last_changed) iff the
    /// merge changed the record (created it, moved its population,
    /// raised its probability, or added entries). Re-delivering an
    /// already-known batch leaves the revision untouched.
    pub fn ingest(&mut self, message: SampleMessage) {
        let node_id = message.node_id;
        let record = match self.samples.entry(node_id) {
            Entry::Occupied(existing) => {
                let record = existing.into_mut();
                if !record.merge(message) {
                    return;
                }
                record
            }
            // A node reporting for the first time is a change even when
            // the batch itself is empty (Drop-mode population
            // registration): the station's population claim moved.
            Entry::Vacant(slot) => {
                let mut fresh = NodeSample {
                    node_id,
                    population_size: message.population_size,
                    probability: 0.0,
                    entries: Vec::new(),
                    last_changed: 0,
                };
                fresh.merge(message);
                slot.insert(fresh)
            }
        };
        self.revision += 1;
        record.last_changed = self.revision;
        self.summary = OnceCell::new();
    }

    /// Retires the whole sample: every record goes, the revision moves
    /// forward and the retirement count grows by one.
    pub(crate) fn retire(&mut self) {
        self.samples.clear();
        self.revision += 1;
        self.retirements += 1;
        self.summary = OnceCell::new();
    }

    /// How many times the whole sample has been retired. An answer drawn
    /// before the count last moved came from a sample the station no
    /// longer holds, whatever the revision journal says about the nodes
    /// that reported since.
    pub fn retirements(&self) -> u64 {
        self.retirements
    }

    /// The aggregates of the current revision.
    fn summary(&self) -> &Summary {
        self.summary.get_or_init(|| Summary::of(&self.samples))
    }

    /// The station's monotone change counter (`0` = never changed).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Nodes whose record changed strictly after revision `rev`, in
    /// node-id order.
    ///
    /// `changed_since(0)` lists every node the station holds a record of;
    /// `changed_since(self.revision())` is always empty. This is the
    /// pull side of the delta contract: a consumer remembers the
    /// revision it last synchronised at and asks the station for the
    /// exact set of dirty nodes, instead of treating the whole station
    /// as dirty after every collection round.
    pub fn changed_since(&self, rev: u64) -> Vec<NodeId> {
        self.samples
            .values()
            .filter(|s| s.last_changed > rev)
            .map(|s| s.node_id)
            .collect()
    }

    /// Number of nodes that have reported at least once.
    pub fn node_count(&self) -> usize {
        self.samples.len()
    }

    /// Total population `n = Σ n_i` across reporting nodes. Memoized per
    /// revision, like every station-wide aggregate (see [`BaseStation`]).
    pub fn total_population(&self) -> usize {
        self.summary().total_population
    }

    /// Total number of samples held. Memoized per revision.
    pub fn total_samples(&self) -> usize {
        self.summary().total_samples
    }

    /// The minimum cumulative sampling probability across reporting
    /// nodes, or `0` when no node has reported. Memoized per revision.
    ///
    /// This is the probability the RankCounting estimator may assume for
    /// the whole network.
    pub fn effective_probability(&self) -> f64 {
        self.summary().effective_probability
    }

    /// The largest population claim `max_i n_i` across reporting nodes,
    /// or `0` when no node has reported. Memoized per revision.
    pub fn max_population(&self) -> usize {
        self.summary().max_population
    }

    /// Number of reporting nodes that hold data (`n_i > 0`): the length
    /// of [`BaseStation::data_bearing_samples`]. Memoized per revision.
    pub fn data_bearing_count(&self) -> usize {
        self.summary().data_bearing_count
    }

    /// Per-node sample sets, in node-id order.
    pub fn node_samples(&self) -> impl Iterator<Item = &NodeSample> {
        self.samples.values()
    }

    /// The sample set of one node, if it has reported.
    pub fn node_sample(&self, node_id: NodeId) -> Option<&NodeSample> {
        self.samples.get(&node_id)
    }

    /// Per-node sample sets of the nodes that actually hold data
    /// (`n_i > 0`), in node-id order.
    ///
    /// This is the zero-copy input of estimator index builds: each yielded
    /// [`NodeSample`] exposes its entry slice via [`NodeSample::entries`],
    /// so a merged index can be assembled without copying the station's
    /// sample state. Nodes with `n_i = 0` are excluded because every
    /// estimator treats them as contributing exactly zero.
    pub fn data_bearing_samples(&self) -> impl Iterator<Item = &NodeSample> {
        self.samples.values().filter(|s| s.population_size > 0)
    }

    /// The single sampling probability shared by every data-bearing node,
    /// if one exists.
    ///
    /// Returns `Some(p)` only when at least one node with `n_i > 0` has
    /// reported, all such nodes carry **bit-identical** probabilities, and
    /// `p > 0`. This is the precondition under which a merged prefix-rank
    /// index can represent the whole station with one `1/p` correction
    /// term; heterogeneous stations (e.g. after partial failures) return
    /// `None` and estimators fall back to the per-node path. Memoized per
    /// revision.
    pub fn uniform_probability(&self) -> Option<f64> {
        self.summary().uniform_probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(node: u32, n: usize, p: f64, ranks: &[u32]) -> SampleMessage {
        SampleMessage {
            node_id: NodeId(node),
            population_size: n,
            probability: p,
            entries: ranks
                .iter()
                .map(|&r| SampleEntry {
                    value: r as f64,
                    rank: r,
                })
                .collect(),
        }
    }

    #[test]
    fn ingest_creates_and_merges() {
        let mut bs = BaseStation::new();
        bs.ingest(msg(1, 100, 0.1, &[5, 2]));
        bs.ingest(msg(1, 100, 0.3, &[7]));
        bs.ingest(msg(2, 50, 0.3, &[1]));

        assert_eq!(bs.node_count(), 2);
        assert_eq!(bs.total_population(), 150);
        assert_eq!(bs.total_samples(), 4);

        let s = bs.node_sample(NodeId(1)).unwrap();
        assert_eq!(s.probability, 0.3);
        let ranks: Vec<u32> = s.entries().iter().map(|e| e.rank).collect();
        assert_eq!(ranks, vec![2, 5, 7], "entries must be sorted by rank");
    }

    #[test]
    fn duplicate_ranks_are_deduplicated() {
        let mut bs = BaseStation::new();
        bs.ingest(msg(1, 10, 0.1, &[3, 4]));
        bs.ingest(msg(1, 10, 0.2, &[4, 5]));
        assert_eq!(bs.node_sample(NodeId(1)).unwrap().len(), 3);
    }

    #[test]
    fn effective_probability_is_the_minimum() {
        let mut bs = BaseStation::new();
        assert_eq!(bs.effective_probability(), 0.0);
        bs.ingest(msg(1, 10, 0.5, &[]));
        bs.ingest(msg(2, 10, 0.2, &[]));
        assert_eq!(bs.effective_probability(), 0.2);
    }

    #[test]
    fn probability_never_decreases_on_merge() {
        let mut bs = BaseStation::new();
        bs.ingest(msg(1, 10, 0.5, &[]));
        bs.ingest(msg(1, 10, 0.2, &[])); // stale message
        assert_eq!(bs.node_sample(NodeId(1)).unwrap().probability, 0.5);
    }

    #[test]
    fn node_samples_iterates_in_id_order() {
        let mut bs = BaseStation::new();
        bs.ingest(msg(9, 1, 0.1, &[]));
        bs.ingest(msg(2, 1, 0.1, &[]));
        bs.ingest(msg(5, 1, 0.1, &[]));
        let ids: Vec<u32> = bs.node_samples().map(|s| s.node_id.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn data_bearing_samples_skip_empty_populations() {
        let mut bs = BaseStation::new();
        bs.ingest(msg(1, 10, 0.5, &[1]));
        bs.ingest(msg(2, 0, 0.5, &[]));
        bs.ingest(msg(3, 20, 0.5, &[2]));
        let ids: Vec<u32> = bs.data_bearing_samples().map(|s| s.node_id.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn uniform_probability_detects_homogeneity() {
        let mut bs = BaseStation::new();
        assert_eq!(bs.uniform_probability(), None, "empty station");
        bs.ingest(msg(1, 10, 0.25, &[1]));
        bs.ingest(msg(2, 10, 0.25, &[2]));
        // Zero-population nodes do not break homogeneity.
        bs.ingest(msg(3, 0, 0.9, &[]));
        assert_eq!(bs.uniform_probability(), Some(0.25));
        // A lagging node makes the station heterogeneous.
        bs.ingest(msg(4, 10, 0.1, &[3]));
        assert_eq!(bs.uniform_probability(), None);
    }

    #[test]
    fn uniform_probability_rejects_zero() {
        let mut bs = BaseStation::new();
        bs.ingest(msg(1, 10, 0.0, &[]));
        assert_eq!(bs.uniform_probability(), None);
    }

    #[test]
    fn revision_tracks_only_real_changes() {
        let mut bs = BaseStation::new();
        assert_eq!(bs.revision(), 0);

        bs.ingest(msg(1, 10, 0.1, &[3]));
        assert_eq!(bs.revision(), 1, "first report is a change");

        // Re-delivering the exact same batch changes nothing.
        bs.ingest(msg(1, 10, 0.1, &[3]));
        assert_eq!(bs.revision(), 1, "idempotent re-delivery");

        // A duplicate rank with a higher probability is still a change
        // (the probability moved).
        bs.ingest(msg(1, 10, 0.2, &[3]));
        assert_eq!(bs.revision(), 2);

        // New entries at the same probability are a change.
        bs.ingest(msg(1, 10, 0.2, &[4]));
        assert_eq!(bs.revision(), 3);

        // An empty batch registering a new node is a change.
        bs.ingest(msg(2, 5, 0.0, &[]));
        assert_eq!(bs.revision(), 4);

        assert_eq!(bs.node_sample(NodeId(1)).unwrap().last_changed(), 3);
        assert_eq!(bs.node_sample(NodeId(2)).unwrap().last_changed(), 4);
    }

    #[test]
    fn changed_since_reports_the_exact_dirty_set() {
        let mut bs = BaseStation::new();
        bs.ingest(msg(1, 10, 0.1, &[1]));
        bs.ingest(msg(2, 10, 0.1, &[2]));
        let synced = bs.revision();

        assert!(bs.changed_since(synced).is_empty());
        assert_eq!(
            bs.changed_since(0),
            vec![NodeId(1), NodeId(2)],
            "from revision zero every reporter is dirty"
        );

        bs.ingest(msg(2, 10, 0.3, &[5]));
        bs.ingest(msg(7, 10, 0.3, &[9]));
        assert_eq!(bs.changed_since(synced), vec![NodeId(2), NodeId(7)]);
        assert!(bs.changed_since(bs.revision()).is_empty());
    }

    #[test]
    fn value_span_covers_received_entries() {
        let mut bs = BaseStation::new();
        bs.ingest(msg(1, 10, 0.1, &[]));
        assert_eq!(bs.node_sample(NodeId(1)).unwrap().value_span(), None);
        bs.ingest(msg(1, 10, 0.2, &[4, 2, 9]));
        assert_eq!(
            bs.node_sample(NodeId(1)).unwrap().value_span(),
            Some((2.0, 9.0))
        );
    }

    #[test]
    fn identity_names_one_station_for_its_life() {
        let mut bs = BaseStation::new();
        let identity = bs.identity();
        bs.ingest(msg(1, 10, 0.1, &[3]));
        bs.retire();
        assert_eq!(bs.identity(), identity, "mutation keeps the identity");
        let other = BaseStation::new();
        let copy = bs.clone();
        assert_ne!(other.identity(), identity);
        assert_ne!(copy.identity(), identity, "a clone is a new station");
        assert_eq!(copy, bs, "equality reads sample state only");
        assert_eq!(copy.revision(), bs.revision());
    }

    #[test]
    fn empty_station_defaults() {
        let bs = BaseStation::new();
        assert_eq!(bs.node_count(), 0);
        assert_eq!(bs.total_population(), 0);
        assert_eq!(bs.total_samples(), 0);
        assert!(bs.node_sample(NodeId(1)).is_none());
    }
}
