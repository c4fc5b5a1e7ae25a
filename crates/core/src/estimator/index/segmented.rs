//! The segmented (LSM-style) rank index: immutable sorted segments over
//! disjoint node subsets, maintained incrementally from collection
//! deltas instead of rebuilt per epoch.

use prc_net::base_station::BaseStation;
use prc_net::message::NodeId;

use super::compaction::{CompactionPolicy, CompactionStep, SegmentStats};
use super::finish_rank_terms;
use super::segment::{Segment, SegmentMember};
use crate::estimator::{DeltaOutcome, QueryIndex};
use crate::query::RangeQuery;

/// RankCounting's merged prefix-rank query index, maintained
/// incrementally.
///
/// Invariant: every data-bearing node of the station the index was last
/// synchronized with appears as a *live* member of exactly one segment.
/// `(ΣA, ΣB)` are integer sums over nodes, so a query fans the same two
/// `partition_point`s across every segment and adds the per-segment
/// aggregates — bit-identical to the per-node scan
/// ([`super::scan_rank_terms`]), at `O(m log S)` per query for `m` live
/// segments. A fresh [`SegmentedRankIndex::build`] is a single segment:
/// the `O(log S)` monolithic index.
///
/// On a collection round, [`SegmentedRankIndex::absorb_delta`] takes the
/// round's changed-node set, tombstones those nodes in older segments,
/// and builds one new segment over just their fresh samples —
/// `O(Δ log Δ)` maintenance instead of an `O(S log S)` rebuild. The
/// deterministic size-tiered [`CompactionPolicy`] then bounds the live
/// segment count to `O(log S)`.
///
/// The sampling probability enters only at the final
/// [`finish_rank_terms`] combine, never inside a segment, so segments
/// built before a top-up remain valid after it; `absorb_delta` simply
/// refreshes the stored probability.
///
/// # Examples
///
/// ```
/// use prc_core::estimator::{RangeCountEstimator, RankCounting, SegmentedRankIndex};
/// use prc_core::query::RangeQuery;
/// use prc_net::network::FlatNetwork;
///
/// # fn main() -> Result<(), prc_core::CoreError> {
/// let partitions: Vec<Vec<f64>> = (0..8)
///     .map(|i| (0..500).map(|j| (i * 500 + j) as f64).collect())
///     .collect();
/// let mut network = FlatNetwork::from_partitions(partitions, 11);
/// network.collect_samples(0.25);
///
/// let index = SegmentedRankIndex::build(network.station()).expect("uniform station");
/// let query = RangeQuery::new(700.0, 2_900.0)?;
/// // Same bits as the O(k log s) per-node path, at O(log S) cost.
/// let scanned = RankCounting.estimate(network.station(), query);
/// assert_eq!(index.estimate(query).to_bits(), scanned.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SegmentedRankIndex {
    /// The station's current uniform sampling probability (refreshed on
    /// every absorb).
    probability: f64,
    /// Oldest-first immutable segments over disjoint live node sets.
    segments: Vec<Segment>,
    policy: CompactionPolicy,
    /// Deltas absorbed since the initial build.
    delta_appends: u64,
    /// Compaction steps applied since the initial build.
    compactions: u64,
}

impl SegmentedRankIndex {
    /// Builds a single-segment index over the station's current samples.
    ///
    /// Returns `None` when the station has no uniform positive sampling
    /// probability across its data-bearing nodes (the `1/p` factoring the
    /// prefix-sum decomposition needs does not exist) — callers fall back
    /// to the per-node scan.
    ///
    /// The build shards one sorted run per node, merges shards over the
    /// shared `prc-runtime` pool, and accumulates the prefix and suffix
    /// arrays in one sequential pass: `O(S log S)` total work.
    pub fn build(station: &BaseStation) -> Option<SegmentedRankIndex> {
        let probability = station.uniform_probability()?;
        let members = members_of(station, station.data_bearing_samples().map(|s| s.node_id));
        Some(SegmentedRankIndex {
            probability,
            segments: vec![Segment::build(members)],
            policy: CompactionPolicy::default(),
            delta_appends: 0,
            compactions: 0,
        })
    }

    /// Absorbs one collection round's delta: tombstones `changed` nodes
    /// in existing segments, appends one fresh segment over their
    /// current samples, and compacts to the policy's fixpoint.
    ///
    /// Returns `None` when the station no longer has a uniform positive
    /// sampling probability — the index is invalid and the caller must
    /// discard it. Work is `O(Δ log Δ)` plus amortized compaction, where
    /// `Δ` is the changed nodes' entry count.
    pub fn absorb_delta(
        &mut self,
        station: &BaseStation,
        changed: &[NodeId],
    ) -> Option<DeltaOutcome> {
        let probability = station.uniform_probability()?;
        self.probability = probability;
        if changed.is_empty() {
            return Some(DeltaOutcome::default());
        }

        let mut tombstoned_entries = 0usize;
        for segment in &mut self.segments {
            for &node in changed {
                tombstoned_entries += segment.tombstone(node);
            }
        }

        let members = members_of(
            station,
            changed.iter().copied().filter(|&n| {
                station
                    .node_sample(n)
                    .is_some_and(|s| s.population_size > 0)
            }),
        );
        let appended_entries: usize = members.iter().map(|m| m.entries.len()).sum();
        if !members.is_empty() {
            self.segments.push(Segment::build(members));
        }
        self.delta_appends += 1;

        let compactions = self.compact();
        Some(DeltaOutcome {
            appended_entries,
            tombstoned_entries,
            compactions,
        })
    }

    /// Applies compaction steps until the policy reaches its fixpoint;
    /// returns the number of steps applied.
    fn compact(&mut self) -> u64 {
        let mut applied = 0u64;
        loop {
            let stats: Vec<SegmentStats> = self
                .segments
                .iter()
                .map(|s| SegmentStats {
                    live: s.live_entries(),
                    dead: s.dead_entries(),
                    live_members: s.live_members(),
                })
                .collect();
            let Some(step) = self.policy.plan(&stats) else {
                break;
            };
            match step {
                CompactionStep::Drop(i) => {
                    self.segments.remove(i);
                }
                CompactionStep::Rewrite(i) => {
                    let old = self.segments.remove(i);
                    self.segments
                        .insert(i, Segment::build(old.into_live_members()));
                }
                CompactionStep::MergeTail(count) => {
                    let tail_start = self.segments.len() - count;
                    let members: Vec<SegmentMember> = self
                        .segments
                        .drain(tail_start..)
                        .flat_map(Segment::into_live_members)
                        .collect();
                    self.segments.push(Segment::build(members));
                }
            }
            applied += 1;
        }
        self.compactions += applied;
        applied
    }

    /// Answers one range query: the two binary searches fan across every
    /// segment and the exact integer aggregates are summed once.
    pub fn estimate(&self, query: RangeQuery) -> f64 {
        let (sum_a, sum_b) = self.rank_terms(query);
        finish_rank_terms(sum_a, sum_b, self.probability)
    }

    /// The exact integer aggregates `(ΣA, ΣB)` — must match
    /// [`super::scan_rank_terms`] exactly.
    pub fn rank_terms(&self, query: RangeQuery) -> (i64, i64) {
        let mut sum_a = 0i64;
        let mut sum_b = 0i64;
        for segment in &self.segments {
            let (a, b) = segment.rank_terms(query);
            sum_a += a;
            sum_b += b;
        }
        (sum_a, sum_b)
    }

    /// Live merged entries across all segments (`S`).
    pub fn merged_entries(&self) -> usize {
        self.segments.iter().map(Segment::live_entries).sum()
    }

    /// Tombstoned entries still paid for per query (shrinks under
    /// compaction).
    pub fn dead_entries(&self) -> usize {
        self.segments.iter().map(Segment::dead_entries).sum()
    }

    /// The uniform sampling probability as of the last build or absorb.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Live segment count (`m` in the `O(m log S)` query bound).
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Deltas absorbed since the initial build.
    pub fn delta_appends(&self) -> u64 {
        self.delta_appends
    }

    /// Compaction steps applied since the initial build.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }
}

/// Snapshots the given nodes' current samples as fresh segment members.
fn members_of(
    station: &BaseStation,
    nodes: impl IntoIterator<Item = NodeId>,
) -> Vec<SegmentMember> {
    nodes
        .into_iter()
        .filter_map(|node_id| station.node_sample(node_id))
        .map(|s| SegmentMember {
            node_id: s.node_id,
            population: s.population_size as i64,
            entries: s.entries().to_vec(),
            dead: false,
        })
        .collect()
}

impl QueryIndex for SegmentedRankIndex {
    fn estimate(&self, query: RangeQuery) -> f64 {
        SegmentedRankIndex::estimate(self, query)
    }

    fn merged_entries(&self) -> usize {
        SegmentedRankIndex::merged_entries(self)
    }

    fn probability(&self) -> f64 {
        SegmentedRankIndex::probability(self)
    }

    fn segments(&self) -> usize {
        SegmentedRankIndex::segments(self)
    }

    fn absorb_delta(&mut self, station: &BaseStation, changed: &[NodeId]) -> Option<DeltaOutcome> {
        SegmentedRankIndex::absorb_delta(self, station, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::index::scan_rank_terms;
    use crate::estimator::{RangeCountEstimator, RankCounting};
    use prc_net::failure::FailurePlan;
    use prc_net::message::{SampleEntry, SampleMessage};
    use prc_net::network::FlatNetwork;

    fn q(l: f64, u: f64) -> RangeQuery {
        RangeQuery::new(l, u).unwrap()
    }

    fn ingest(station: &mut BaseStation, node: u32, n: usize, p: f64, pairs: &[(f64, u32)]) {
        station.ingest(SampleMessage {
            node_id: NodeId(node),
            population_size: n,
            probability: p,
            entries: pairs
                .iter()
                .map(|&(value, rank)| SampleEntry { value, rank })
                .collect(),
        });
    }

    /// Asserts the index agrees bit-for-bit with the per-node scan on a
    /// spread of queries, and covers exactly the station's entries.
    fn assert_synchronized(index: &SegmentedRankIndex, station: &BaseStation) {
        let entries: usize = station
            .data_bearing_samples()
            .map(|s| s.entries().len())
            .sum();
        assert_eq!(index.merged_entries(), entries);
        for (l, u) in [
            (-1.0e9, 1.0e9),
            (-5.0, 3.0),
            (0.0, 10.0),
            (2.5, 2.5),
            (4.9, 5.1),
            (7.0, 40.0),
            (100.0, 200.0),
            (-20.0, -10.0),
        ] {
            assert_eq!(
                index.rank_terms(q(l, u)),
                scan_rank_terms(station, q(l, u)),
                "scan mismatch on ({l}, {u})"
            );
            assert_eq!(
                index.estimate(q(l, u)).to_bits(),
                RankCounting.estimate(station, q(l, u)).to_bits(),
                "estimate mismatch on ({l}, {u})"
            );
        }
    }

    #[test]
    fn build_matches_the_scan_bit_for_bit() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 10, 0.5, &[(2.0, 2), (5.0, 5), (9.0, 9)]);
        ingest(
            &mut station,
            1,
            8,
            0.5,
            &[(1.0, 1), (5.0, 3), (5.0, 4), (8.0, 7)],
        );
        ingest(&mut station, 2, 6, 0.5, &[]); // sampled nothing: always case 4
        let index = SegmentedRankIndex::build(&station).unwrap();
        assert_eq!(index.segments(), 1);
        assert_eq!(index.probability(), 0.5);
        assert_synchronized(&index, &station);
    }

    #[test]
    fn p_one_index_is_exact() {
        let values: Vec<f64> = vec![1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 8.0, 9.0];
        let mut net = FlatNetwork::from_partitions(vec![values.clone()], 1);
        net.collect_samples(1.0);
        let index = SegmentedRankIndex::build(net.station()).unwrap();
        for (l, u) in [(2.0, 5.0), (1.0, 9.0), (4.0, 4.5), (10.0, 20.0)] {
            let truth = values.iter().filter(|&&v| v >= l && v <= u).count() as f64;
            assert_eq!(index.estimate(q(l, u)), truth, "({l}, {u})");
        }
        assert_eq!(finish_rank_terms(42, 6, 1.0), 36.0);
        assert_eq!(finish_rank_terms(-3, 0, 0.25), -3.0);
    }

    #[test]
    fn heterogeneous_or_empty_stations_decline_to_build() {
        let mut mixed = BaseStation::new();
        ingest(&mut mixed, 0, 4, 0.5, &[(1.0, 1)]);
        ingest(&mut mixed, 1, 4, 0.25, &[(2.0, 2)]);
        assert!(SegmentedRankIndex::build(&mixed).is_none());
        // The scan path still answers (per-node fallback in the estimator).
        assert!(RankCounting.estimate(&mixed, q(0.0, 3.0)).is_finite());

        assert!(SegmentedRankIndex::build(&BaseStation::new()).is_none());
        let mut all_empty = BaseStation::new();
        ingest(&mut all_empty, 0, 0, 0.5, &[]);
        assert!(SegmentedRankIndex::build(&all_empty).is_none());
    }

    #[test]
    fn zero_population_nodes_are_ignored() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 6, 0.5, &[(1.0, 1), (4.0, 4)]);
        ingest(&mut station, 1, 0, 0.9, &[]);
        let index = SegmentedRankIndex::build(&station).unwrap();
        assert_synchronized(&index, &station);
    }

    #[test]
    fn absorb_tracks_updated_and_new_nodes() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 10, 0.5, &[(2.0, 2), (9.0, 9)]);
        ingest(&mut station, 1, 8, 0.5, &[(1.0, 1), (8.0, 7)]);
        let mut index = SegmentedRankIndex::build(&station).unwrap();
        let rev = station.revision();

        // Node 1 grows (entries extend), node 2 appears.
        ingest(&mut station, 1, 9, 0.5, &[(4.0, 4)]);
        ingest(&mut station, 2, 5, 0.5, &[(3.0, 2)]);
        let changed = station.changed_since(rev);
        assert_eq!(changed, vec![NodeId(1), NodeId(2)]);

        let outcome = index.absorb_delta(&station, &changed).unwrap();
        assert_eq!(outcome.tombstoned_entries, 2, "node 1's old snapshot");
        assert_eq!(outcome.appended_entries, 4, "node 1 fresh (3) + node 2 (1)");
        assert_eq!(index.delta_appends(), 1);
        assert_synchronized(&index, &station);
    }

    #[test]
    fn empty_delta_is_a_cheap_no_op() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 4, 0.25, &[(1.0, 1)]);
        let mut index = SegmentedRankIndex::build(&station).unwrap();
        let outcome = index.absorb_delta(&station, &[]).unwrap();
        assert_eq!(outcome, DeltaOutcome::default());
        assert_eq!(index.delta_appends(), 0);
        assert_synchronized(&index, &station);
    }

    #[test]
    fn top_up_refreshes_probability_across_old_segments() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 10, 0.25, &[(2.0, 2)]);
        ingest(&mut station, 1, 10, 0.25, &[(6.0, 3)]);
        let mut index = SegmentedRankIndex::build(&station).unwrap();
        let rev = station.revision();

        // A global top-up raises every node's probability; old segments
        // stay valid because p only enters at the final combine.
        ingest(&mut station, 0, 10, 0.5, &[(4.0, 4)]);
        ingest(&mut station, 1, 10, 0.5, &[(8.0, 7)]);
        let changed = station.changed_since(rev);
        index.absorb_delta(&station, &changed).unwrap();
        assert_eq!(index.probability(), 0.5);
        assert_synchronized(&index, &station);
    }

    #[test]
    fn heterogeneous_probability_invalidates() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 4, 0.5, &[(1.0, 1)]);
        ingest(&mut station, 1, 4, 0.5, &[(2.0, 2)]);
        let mut index = SegmentedRankIndex::build(&station).unwrap();
        let rev = station.revision();
        ingest(&mut station, 1, 4, 0.75, &[(3.0, 3)]);
        assert!(index
            .absorb_delta(&station, &station.changed_since(rev))
            .is_none());
    }

    #[test]
    fn repeated_deltas_stay_synchronized_and_compact() {
        let partitions: Vec<Vec<f64>> = (0..12)
            .map(|i| (0..200).map(|j| ((i * 200 + j) / 2) as f64).collect())
            .collect();
        let mut net = FlatNetwork::from_partitions(partitions, 77);
        // Nodes 10 and 11 are down for the first epoch: they never report,
        // so the station stays uniform at the target without them.
        let mut plan = FailurePlan::none();
        plan.kill_node(NodeId(10));
        plan.kill_node(NodeId(11));
        net.set_failure_plan(plan);
        net.collect_samples(0.3);
        let mut index = SegmentedRankIndex::build(net.station()).unwrap();
        let mut rev = net.station().revision();

        // Revival catch-up at the same target: exactly the two previously
        // dead nodes change.
        net.set_failure_plan(FailurePlan::none());
        net.collect_samples(0.3);
        let delta = net.station().changed_since(rev);
        assert_eq!(delta, vec![NodeId(10), NodeId(11)]);
        index.absorb_delta(net.station(), &delta).unwrap();
        rev = net.station().revision();
        assert_synchronized(&index, net.station());

        // Growth: rounds of nodes joining and catching up to the target.
        for round in 0..5u64 {
            for j in 0..2u64 {
                let base = 3_000 + (round * 2 + j) * 200;
                let data = (0..200).map(|v| ((base + v) / 2) as f64).collect();
                net.add_node(data, 1_000 + round * 2 + j);
            }
            net.collect_samples(0.3);
            let delta = net.station().changed_since(rev);
            assert_eq!(delta.len(), 2, "only the joiners change");
            index.absorb_delta(net.station(), &delta).unwrap();
            rev = net.station().revision();
            assert_synchronized(&index, net.station());
        }
        assert!(index.delta_appends() >= 6);
        assert!(index.compactions() > 0, "size-tiered merges must fire");
        assert!(
            index.segments() <= 5,
            "compaction must bound segments, got {}",
            index.segments()
        );

        // A global top-up changes every node: a full delta mass-tombstones
        // the old segments, which compaction then reclaims entirely.
        net.collect_samples(0.5);
        let delta = net.station().changed_since(rev);
        assert_eq!(delta.len(), net.station().node_count());
        let outcome = index.absorb_delta(net.station(), &delta).unwrap();
        assert!(outcome.tombstoned_entries > 0);
        assert_eq!(index.probability(), 0.5);
        assert_eq!(index.dead_entries(), 0, "fully-dead segments are dropped");
        assert_synchronized(&index, net.station());
    }

    #[test]
    fn trait_object_surface_reports_segment_state() {
        let mut station = BaseStation::new();
        ingest(&mut station, 0, 4, 0.5, &[(1.0, 1)]);
        ingest(&mut station, 1, 4, 0.5, &[(2.0, 2)]);
        let index = SegmentedRankIndex::build(&station).unwrap();
        let mut boxed: Box<dyn QueryIndex> = Box::new(index);
        assert_eq!(boxed.segments(), 1);
        assert_eq!(boxed.merged_entries(), 2);

        let rev = station.revision();
        ingest(&mut station, 2, 4, 0.5, &[(3.0, 3)]);
        let outcome = boxed
            .absorb_delta(&station, &station.changed_since(rev))
            .expect("segmented trait objects absorb deltas");
        assert_eq!(outcome.appended_entries, 1);
        assert_eq!(boxed.probability(), 0.5);
        assert_eq!(
            boxed.estimate(q(0.0, 5.0)).to_bits(),
            RankCounting.estimate(&station, q(0.0, 5.0)).to_bits()
        );
    }
}
