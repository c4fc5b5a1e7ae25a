//! The unified sequential-cutoff policy.

/// Decides when a fan-out is worth its dispatch overhead.
///
/// Every parallel site used to carry its own ad-hoc constant — such as
/// the optimizer's `PARALLEL_GRID_MIN` grid points — with its own
/// comment re-deriving the same argument. A
/// `CutoffPolicy` names that constant and gives it one semantics: a call
/// whose declared total `work` is below [`CutoffPolicy::threshold`] runs
/// as a single chunk on the calling thread. The cutoff never changes
/// results — every runtime entry point is bit-identical for any chunking,
/// including the one-chunk sequential fallback — it only decides who
/// computes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutoffPolicy {
    min_work: usize,
}

impl CutoffPolicy {
    /// Fans out only when the call declares at least `min_work` units of
    /// work (the unit is the caller's: grid points, boundary searches,
    /// pending queries, nodes — whatever the per-item cost is measured
    /// in).
    #[must_use]
    pub const fn min_work(min_work: usize) -> CutoffPolicy {
        CutoffPolicy { min_work }
    }

    /// Always fans out (subject to pool size and item count) — for sites
    /// whose per-item work always dwarfs dispatch, like a network round.
    #[must_use]
    pub const fn always_parallel() -> CutoffPolicy {
        CutoffPolicy { min_work: 0 }
    }

    /// Whether a call declaring `work` units stays on the calling thread.
    #[must_use]
    pub const fn is_sequential(self, work: usize) -> bool {
        work < self.min_work
    }

    /// The declared minimum work for a fan-out.
    #[must_use]
    pub const fn threshold(self) -> usize {
        self.min_work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_work_gates_strictly_below_threshold() {
        let policy = CutoffPolicy::min_work(512);
        assert!(policy.is_sequential(0));
        assert!(policy.is_sequential(511));
        assert!(!policy.is_sequential(512));
        assert!(!policy.is_sequential(usize::MAX));
        assert_eq!(policy.threshold(), 512);
    }

    #[test]
    fn always_parallel_never_gates() {
        let policy = CutoffPolicy::always_parallel();
        assert!(!policy.is_sequential(0));
        assert!(!policy.is_sequential(1));
        assert_eq!(policy.threshold(), 0);
    }
}
