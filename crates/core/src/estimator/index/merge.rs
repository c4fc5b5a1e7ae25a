//! Merge machinery: per-node runs, deterministic k-way merge, and the
//! prefix/suffix structure-of-arrays every index segment queries.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use prc_net::message::SampleEntry;
use prc_runtime::{CutoffPolicy, Runtime};

use crate::estimator::engine;
use crate::query::RangeQuery;

/// One source of a merge: a node's rank-sorted entry slice plus its
/// claimed population `n_i`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSource<'a> {
    pub entries: &'a [SampleEntry],
    pub population: i64,
}

/// One merged entry with its telescoping deltas, produced per node before
/// the merge (a node's neighbours in merged order are its neighbours in
/// its own rank-sorted slice).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MergedEntry {
    value: f64,
    /// Dense node index (position among the merge's sources) — merge
    /// tie-break only; never affects the accumulated aggregates.
    node: u32,
    /// Local rank — merge tie-break for within-node duplicates.
    rank: u32,
    /// `rank − rank_prev` (`rank` for the node's first entry).
    pred_delta: i64,
    /// `rank − rank_next` (`rank` for the node's last entry).
    succ_delta: i64,
    /// This is the node's first entry (opens its predecessor case).
    first: bool,
    /// This is the node's last entry (closes its successor case).
    last: bool,
    /// `n_i` on the node's last entry, else `0` (suffix population sum).
    pop: i64,
}

fn merged_entry(source: RunSource<'_>, dense: u32, pos: usize) -> MergedEntry {
    let entries = source.entries;
    let e = entries[pos];
    let prev = if pos > 0 {
        i64::from(entries[pos - 1].rank)
    } else {
        0
    };
    let next = if pos + 1 < entries.len() {
        i64::from(entries[pos + 1].rank)
    } else {
        0
    };
    let last = pos + 1 == entries.len();
    MergedEntry {
        value: e.value,
        node: dense,
        rank: e.rank,
        pred_delta: i64::from(e.rank) - prev,
        succ_delta: i64::from(e.rank) - next,
        first: pos == 0,
        last,
        pop: if last { source.population } else { 0 },
    }
}

/// Heap key: ascending `(value, node, rank)` — a total order because
/// `(node, rank)` is unique, so the merged order (and the arrays it
/// produces) is deterministic regardless of sharding or thread count.
#[derive(Debug, Clone, Copy)]
struct MergeKey {
    value: f64,
    node: u32,
    rank: u32,
}

impl PartialEq for MergeKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeKey {}
impl PartialOrd for MergeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.value
            .total_cmp(&other.value)
            .then_with(|| self.node.cmp(&other.node))
            .then_with(|| self.rank.cmp(&other.rank))
    }
}

/// K-way merges already-sorted runs of entries into one sorted vector.
fn merge_runs(runs: Vec<Vec<MergedEntry>>, capacity: usize) -> Vec<MergedEntry> {
    let mut runs: Vec<Vec<MergedEntry>> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    if runs.len() == 1 {
        return runs.pop().unwrap_or_default();
    }
    let mut heap: BinaryHeap<std::cmp::Reverse<(MergeKey, usize)>> =
        BinaryHeap::with_capacity(runs.len());
    let mut cursors = vec![0usize; runs.len()];
    for (r, run) in runs.iter().enumerate() {
        if let Some(&e) = run.first() {
            heap.push(std::cmp::Reverse((
                MergeKey {
                    value: e.value,
                    node: e.node,
                    rank: e.rank,
                },
                r,
            )));
        }
    }
    let mut merged = Vec::with_capacity(capacity);
    while let Some(std::cmp::Reverse((_, r))) = heap.pop() {
        let pos = cursors[r];
        merged.push(runs[r][pos]);
        cursors[r] += 1;
        if let Some(e) = runs[r].get(cursors[r]) {
            heap.push(std::cmp::Reverse((
                MergeKey {
                    value: e.value,
                    node: e.node,
                    rank: e.rank,
                },
                r,
            )));
        }
    }
    merged
}

/// Merges one shard (a contiguous group of sources) into a sorted run.
fn merge_shard(group: &[RunSource<'_>], dense_base: u32) -> Vec<MergedEntry> {
    let capacity: usize = group.iter().map(|s| s.entries.len()).sum();
    let runs: Vec<Vec<MergedEntry>> = group
        .iter()
        .enumerate()
        .map(|(i, &source)| {
            let dense = dense_base + i as u32;
            (0..source.entries.len())
                .map(|pos| merged_entry(source, dense, pos))
                .collect()
        })
        .collect();
    merge_runs(runs, capacity)
}

/// Below this many merged entries the pool fan-out costs more than the
/// merge itself (dispatch is microseconds; so is the whole merge) —
/// delta segments and small compactions stay on the calling thread. The
/// sequential path assigns the same dense indices and the merge key is a
/// total order, so the cutoff never changes the produced arrays, only
/// who builds them.
const MERGE_CUTOFF: CutoffPolicy = CutoffPolicy::min_work(1 << 15);

/// Merges every source's entries into one deterministic value-sorted run,
/// sharding contiguous source groups over the shared [`Runtime`] pool
/// once the input is large enough to amortize the fan-out.
///
/// Dense node indices come from each source's global position (the
/// chunk's input offset), so any chunking — including the sequential
/// single chunk — produces identical runs and an identical final merge.
///
/// # Panics
///
/// Only to propagate a shard worker's panic, re-raised through the
/// runtime's single panic path ([`Runtime::map_chunked`]); the merge
/// itself does not panic.
fn parallel_merge(sources: &[RunSource<'_>]) -> Vec<MergedEntry> {
    let total_entries: usize = sources.iter().map(|s| s.entries.len()).sum();
    let runs = Runtime::global().map_chunked(sources, total_entries, MERGE_CUTOFF, |chunk| {
        merge_shard(chunk.items, chunk.offset as u32)
    });
    merge_runs(runs, total_entries)
}

/// The value-sorted prefix/suffix structure-of-arrays at the heart of
/// every index segment: five integer aggregates plus the merged values,
/// answering `(ΣA, ΣB)` over its sources with two `partition_point`s and
/// five lookups.
#[derive(Debug, Clone)]
pub(crate) struct MergedArrays {
    /// Merged sample values, sorted ascending (`S` entries).
    values: Vec<f64>,
    /// `cum_pred_rank[c] = R_pred(c)`: Σ over nodes of the rank of their
    /// last entry among the first `c` merged entries.
    cum_pred_rank: Vec<i64>,
    /// `cum_first[c] = C_pred(c)`: nodes with ≥ 1 entry among the first `c`.
    cum_first: Vec<i64>,
    /// `suf_succ_rank[c] = R_succ(c)`: Σ over nodes of the rank of their
    /// first entry at or after position `c`.
    suf_succ_rank: Vec<i64>,
    /// `suf_last[c] = C_succ(c)`: nodes with ≥ 1 entry at or after `c`.
    suf_last: Vec<i64>,
    /// `suf_pop[c] = N_succ(c)`: Σ `n_i` over nodes with ≥ 1 entry at or
    /// after `c`.
    suf_pop: Vec<i64>,
    /// Σ `n_i` over all sources (entry-less sources included).
    total_population: i64,
}

impl MergedArrays {
    /// Builds the arrays over `sources` in one parallel merge plus one
    /// sequential accumulation pass: `O(S log S)` total work.
    pub fn build(sources: &[RunSource<'_>]) -> MergedArrays {
        let total_population: i64 = sources.iter().map(|s| s.population).sum();
        let merged = parallel_merge(sources);

        let s = merged.len();
        let mut values = Vec::with_capacity(s);
        let mut cum_pred_rank = Vec::with_capacity(s + 1);
        let mut cum_first = Vec::with_capacity(s + 1);
        let mut running_pred = 0i64;
        let mut running_first = 0i64;
        cum_pred_rank.push(running_pred);
        cum_first.push(running_first);
        for e in &merged {
            values.push(e.value);
            running_pred += e.pred_delta;
            running_first += i64::from(e.first);
            cum_pred_rank.push(running_pred);
            cum_first.push(running_first);
        }
        let mut suf_succ_rank = vec![0i64; s + 1];
        let mut suf_last = vec![0i64; s + 1];
        let mut suf_pop = vec![0i64; s + 1];
        for (j, e) in merged.iter().enumerate().rev() {
            suf_succ_rank[j] = suf_succ_rank[j + 1] + e.succ_delta;
            suf_last[j] = suf_last[j + 1] + i64::from(e.last);
            suf_pop[j] = suf_pop[j + 1] + e.pop;
        }

        MergedArrays {
            values,
            cum_pred_rank,
            cum_first,
            suf_succ_rank,
            suf_last,
            suf_pop,
            total_population,
        }
    }

    /// The exact integer aggregates `(ΣA, ΣB)` over every source, for
    /// one query: two `partition_point`s ([`engine::boundary_ranks`]),
    /// five lookups, one combine.
    pub fn rank_terms(&self, query: RangeQuery) -> (i64, i64) {
        let (pos_l, pos_u) = engine::boundary_ranks(&self.values, query);
        let sum_a = self.suf_succ_rank[pos_u] - self.cum_pred_rank[pos_l]
            + self.cum_first[pos_l]
            + (self.total_population - self.suf_pop[pos_u]);
        let sum_b = self.cum_first[pos_l] + self.suf_last[pos_u];
        (sum_a, sum_b)
    }

    /// Number of merged sample entries (`S`).
    pub fn len(&self) -> usize {
        self.values.len()
    }
}
