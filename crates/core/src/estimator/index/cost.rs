//! The build-vs-scan cost model and its ski-rental accrual.
//!
//! The broker's old policy was a static entry-count threshold: build an
//! index whenever the station holds ≥ 512 merged entries. That wastes a
//! build on a station that sees one query per epoch, and delays one on a
//! small station hammered by thousands. The replacement is the classic
//! **ski-rental** scheme: keep scanning ("renting") while accumulating
//! the per-query saving an index *would have* delivered; the moment the
//! foregone saving reaches the build cost, build ("buy"). Deterministic
//! — the decision depends only on the observed query count and the
//! station's entry/node counts, never on wall-clock time — and
//! 2-competitive against the optimal offline choice for any query
//! arrival sequence.
//!
//! All costs are **abstract integer comparison counts** (binary-search
//! steps via `ilog2`), not timings, so the decision is reproducible
//! across machines and drivers (prc-lint D002 holds).

/// Multiplier on the `O(S log S)` build work relative to query
/// comparisons (merging an entry costs about one heap sift plus the
/// accumulation pass).
const BUILD_FACTOR: u64 = 2;

fn log2_ceil(n: u64) -> u64 {
    if n <= 1 {
        1
    } else {
        u64::from((n - 1).ilog2()) + 1
    }
}

/// Comparisons for one per-node scan query: two binary searches in each
/// of `nodes` runs of about `entries / nodes` entries.
fn scan_query_cost(entries: usize, nodes: usize) -> u64 {
    let nodes = nodes.max(1) as u64;
    let per_node = (entries as u64).div_ceil(nodes);
    2 * nodes * log2_ceil(per_node)
}

/// Comparisons for one indexed query: two binary searches over all
/// `entries` merged values.
fn indexed_query_cost(entries: usize) -> u64 {
    2 * log2_ceil(entries as u64)
}

/// Comparisons to build an index over `entries`.
fn build_cost(entries: usize) -> u64 {
    BUILD_FACTOR * (entries as u64) * log2_ceil(entries as u64)
}

/// What one query saves when indexed instead of scanned (0 when the scan
/// is already at least as cheap — e.g. a single-node station).
fn query_saving(entries: usize, nodes: usize) -> u64 {
    scan_query_cost(entries, nodes).saturating_sub(indexed_query_cost(entries))
}

/// Ski-rental state: the total per-query saving foregone by scanning so
/// far. Survives collection rounds — the amortization horizon is the
/// broker's query stream, not one epoch: once bought, the index is
/// rebuilt whenever a round moves the station, without renting again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildAccrual {
    foregone: u64,
}

impl BuildAccrual {
    /// Records `queries` answered by scanning a station with the given
    /// shape, accruing the saving an index would have delivered.
    pub fn observe(&mut self, entries: usize, nodes: usize, queries: u64) {
        self.foregone = self
            .foregone
            .saturating_add(query_saving(entries, nodes).saturating_mul(queries));
    }

    /// True once the foregone saving has paid for a build: renting now
    /// costs more than buying would have.
    pub fn should_build(&self, entries: usize) -> bool {
        entries > 0 && self.foregone >= build_cost(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_shape() {
        // Many small nodes scan expensively; one merged structure is cheap.
        assert!(scan_query_cost(4096, 256) > indexed_query_cost(4096));
        // A single node *is* a merged structure: no saving to be had.
        assert_eq!(query_saving(4096, 1), 0);
        assert_eq!(query_saving(0, 0), 0);
        assert!(build_cost(4096) > build_cost(64));
    }

    #[test]
    fn accrual_buys_after_enough_rent() {
        let (entries, nodes) = (8192, 64);
        let mut accrual = BuildAccrual::default();
        assert!(!accrual.should_build(entries), "no queries yet");

        let saving = query_saving(entries, nodes);
        assert!(saving > 0);
        let needed = build_cost(entries).div_ceil(saving);
        accrual.observe(entries, nodes, needed - 1);
        assert!(!accrual.should_build(entries), "one query short");
        accrual.observe(entries, nodes, 1);
        assert!(accrual.should_build(entries));
    }

    #[test]
    fn single_node_stations_never_buy() {
        let mut accrual = BuildAccrual::default();
        accrual.observe(10_000, 1, u64::MAX);
        assert!(!accrual.should_build(10_000));
    }

    #[test]
    fn empty_stations_never_buy() {
        assert!(!BuildAccrual::default().should_build(0));
    }

    #[test]
    fn accrual_saturates_instead_of_overflowing() {
        let mut accrual = BuildAccrual::default();
        accrual.observe(1 << 20, 1 << 10, u64::MAX);
        accrual.observe(1 << 20, 1 << 10, u64::MAX);
        assert_eq!(accrual.foregone, u64::MAX);
    }
}
