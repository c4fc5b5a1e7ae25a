//! One immutable sorted segment of the segmented index: merged arrays
//! over a disjoint subset of nodes, plus per-node snapshots enabling
//! exact tombstone subtraction and lossless compaction merges.

use prc_net::message::{NodeId, SampleEntry};

use super::merge::{MergedArrays, RunSource};
use super::node_rank_terms;
use crate::query::RangeQuery;

/// One node's sample state as frozen into a segment at build time: the
/// authoritative data the segment's arrays were accumulated from.
///
/// Snapshots serve two purposes. When the node is *tombstoned* (its live
/// sample moved to a newer segment), its exact old contribution
/// `(Aᵢ, Bᵢ)` is recomputed per query from the snapshot and subtracted
/// from the segment's aggregate — integer arithmetic, so the subtraction
/// is exact, not approximate. And when segments are compacted, live
/// snapshots are re-merged without touching the station.
#[derive(Debug, Clone)]
pub(crate) struct SegmentMember {
    pub node_id: NodeId,
    /// Claimed population `n_i` at snapshot time.
    pub population: i64,
    /// Rank-sorted (hence value-sorted) entries at snapshot time.
    pub entries: Vec<SampleEntry>,
    /// Tombstoned: a newer segment now carries this node's live sample.
    pub dead: bool,
}

/// An immutable sorted segment: the merged prefix-rank arrays over its
/// member nodes, answering `(ΣA, ΣB)` restricted to *live* members.
///
/// The segmented index maintains the invariant that every live node of
/// the station appears as a live member of exactly one segment, so
/// summing `rank_terms` across segments reproduces the full-station
/// aggregates bit-for-bit.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// Members in node-id order. The dense merge order within the
    /// segment never affects the aggregates (integer sums are grouping-
    /// independent), but a canonical order keeps rebuilds deterministic.
    members: Vec<SegmentMember>,
    arrays: MergedArrays,
    /// Indices (into `members`) of tombstoned members, so the per-query
    /// subtraction loop touches only the dead — a freshly built or
    /// compacted segment answers in pure `O(log S)` with no member walk.
    dead_members: Vec<usize>,
    /// Entries belonging to tombstoned members.
    dead_entries: usize,
}

impl Segment {
    /// Builds a segment over `members` (tombstones cleared), sorting
    /// them into canonical node-id order.
    pub fn build(mut members: Vec<SegmentMember>) -> Segment {
        members.sort_by_key(|m| m.node_id);
        for m in &mut members {
            m.dead = false;
        }
        let sources: Vec<RunSource<'_>> = members
            .iter()
            .map(|m| RunSource {
                entries: &m.entries,
                population: m.population,
            })
            .collect();
        let arrays = MergedArrays::build(&sources);
        Segment {
            members,
            arrays,
            dead_members: Vec::new(),
            dead_entries: 0,
        }
    }

    /// The exact `(ΣA, ΣB)` over this segment's live members: the
    /// aggregate over *all* members minus each tombstoned member's exact
    /// snapshot contribution.
    pub fn rank_terms(&self, query: RangeQuery) -> (i64, i64) {
        let (mut sum_a, mut sum_b) = self.arrays.rank_terms(query);
        for m in self
            .dead_members
            .iter()
            .filter_map(|&i| self.members.get(i))
        {
            let (a, b) = node_rank_terms(&m.entries, m.population, query);
            sum_a -= a;
            sum_b -= b;
        }
        (sum_a, sum_b)
    }

    /// Tombstones `node` if it is a live member; returns the number of
    /// entries newly deadened (0 when the node is absent or already
    /// dead).
    pub fn tombstone(&mut self, node: NodeId) -> usize {
        match self.members.binary_search_by_key(&node, |m| m.node_id) {
            Ok(pos) => {
                let member = &mut self.members[pos];
                if member.dead {
                    0
                } else {
                    member.dead = true;
                    self.dead_members.push(pos);
                    self.dead_entries += member.entries.len();
                    member.entries.len()
                }
            }
            Err(_) => 0,
        }
    }

    /// Entries still owned by live members.
    pub fn live_entries(&self) -> usize {
        self.arrays.len() - self.dead_entries
    }

    /// Entries owned by tombstoned members (per-query subtraction work).
    pub fn dead_entries(&self) -> usize {
        self.dead_entries
    }

    /// Members not yet tombstoned. Can exceed zero while
    /// [`Segment::live_entries`] is zero: a member whose sample drew no
    /// entries still contributes its population to the A-term.
    pub fn live_members(&self) -> usize {
        self.members.len() - self.dead_members.len()
    }

    /// Consumes the segment, yielding its live members (compaction
    /// input).
    pub fn into_live_members(self) -> Vec<SegmentMember> {
        self.members.into_iter().filter(|m| !m.dead).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::index::scan_rank_terms;
    use prc_net::base_station::BaseStation;
    use prc_net::message::SampleMessage;

    fn q(l: f64, u: f64) -> RangeQuery {
        RangeQuery::new(l, u).unwrap()
    }

    fn member(node: u32, population: i64, pairs: &[(f64, u32)]) -> SegmentMember {
        SegmentMember {
            node_id: NodeId(node),
            population,
            entries: pairs
                .iter()
                .map(|&(value, rank)| SampleEntry { value, rank })
                .collect(),
            dead: false,
        }
    }

    fn station_of(members: &[SegmentMember], p: f64) -> BaseStation {
        let mut station = BaseStation::new();
        for m in members {
            station.ingest(SampleMessage {
                node_id: m.node_id,
                population_size: m.population as usize,
                probability: p,
                entries: m.entries.clone(),
            });
        }
        station
    }

    #[test]
    fn segment_aggregates_match_the_scan_over_its_members() {
        let members = vec![
            member(0, 10, &[(2.0, 2), (5.0, 5), (9.0, 9)]),
            member(1, 8, &[(1.0, 1), (5.0, 3), (8.0, 7)]),
            member(2, 6, &[]),
        ];
        let station = station_of(&members, 0.5);
        let segment = Segment::build(members);
        for (l, u) in [(3.0, 7.0), (-5.0, 1.0), (5.0, 5.0), (100.0, 200.0)] {
            assert_eq!(
                segment.rank_terms(q(l, u)),
                scan_rank_terms(&station, q(l, u)),
                "({l}, {u})"
            );
        }
    }

    #[test]
    fn tombstone_subtracts_the_exact_old_contribution() {
        let members = vec![
            member(0, 10, &[(2.0, 2), (5.0, 5)]),
            member(1, 8, &[(1.0, 1), (8.0, 7)]),
        ];
        // Reference: a station holding only the surviving member.
        let survivors = station_of(&members[..1], 0.5);
        let mut segment = Segment::build(members);

        assert_eq!(segment.tombstone(NodeId(1)), 2);
        assert_eq!(segment.tombstone(NodeId(1)), 0, "idempotent");
        assert_eq!(segment.tombstone(NodeId(9)), 0, "absent node");
        assert_eq!(segment.live_entries(), 2);
        assert_eq!(segment.dead_entries(), 2);

        for (l, u) in [(0.0, 3.0), (4.0, 9.0), (-2.0, -1.0), (20.0, 30.0)] {
            assert_eq!(
                segment.rank_terms(q(l, u)),
                scan_rank_terms(&survivors, q(l, u)),
                "({l}, {u})"
            );
        }
    }

    #[test]
    fn into_live_members_drops_tombstones() {
        let members = vec![member(0, 4, &[(1.0, 1)]), member(1, 4, &[(2.0, 2)])];
        let mut segment = Segment::build(members);
        segment.tombstone(NodeId(0));
        let live = segment.into_live_members();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].node_id, NodeId(1));
    }
}
