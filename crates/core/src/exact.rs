//! Exact range counting `γ(l, u, D)` (Definition 2.1).
//!
//! Ground truth for every experiment, and the answer a non-approximating
//! system would pay full communication cost to compute.

use crate::query::RangeQuery;

/// Exact count over unsorted values: `|{x ∈ values : l ≤ x ≤ u}|`. `O(n)`.
pub fn range_count(values: &[f64], query: RangeQuery) -> usize {
    values.iter().filter(|&&v| query.contains(v)).count()
}

/// Exact count over **ascending-sorted** values via binary search. `O(log n)`.
///
/// # Panics
///
/// Debug builds assert that `values` is sorted.
pub fn range_count_sorted(values: &[f64], query: RangeQuery) -> usize {
    debug_assert!(
        values.is_sorted(),
        "range_count_sorted requires ascending-sorted input"
    );
    let (lo, hi) = crate::estimator::engine::boundary_ranks(values, query);
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(l: f64, u: f64) -> RangeQuery {
        RangeQuery::new(l, u).unwrap()
    }

    #[test]
    fn unsorted_and_sorted_agree() {
        let unsorted = vec![5.0, 1.0, 3.0, 3.0, 9.0, 2.0];
        let mut sorted = unsorted.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (l, u) in [(0.0, 10.0), (3.0, 3.0), (2.5, 5.0), (9.5, 20.0), (1.0, 1.0)] {
            assert_eq!(
                range_count(&unsorted, q(l, u)),
                range_count_sorted(&sorted, q(l, u)),
                "({l}, {u})"
            );
        }
    }

    #[test]
    fn bounds_are_inclusive() {
        let values = [1.0, 2.0, 3.0];
        assert_eq!(range_count(&values, q(1.0, 3.0)), 3);
        assert_eq!(range_count(&values, q(1.0, 1.0)), 1);
        assert_eq!(range_count_sorted(&values, q(2.0, 2.0)), 1);
    }

    #[test]
    fn duplicates_are_counted() {
        let values = [2.0, 2.0, 2.0, 5.0];
        assert_eq!(range_count_sorted(&values, q(2.0, 2.0)), 3);
        assert_eq!(range_count_sorted(&values, q(0.0, 10.0)), 4);
    }

    #[test]
    fn empty_input_counts_zero() {
        assert_eq!(range_count(&[], q(0.0, 1.0)), 0);
        assert_eq!(range_count_sorted(&[], q(0.0, 1.0)), 0);
    }

    #[test]
    fn infinite_range_counts_everything() {
        let values = [1.0, 2.0, 3.0];
        assert_eq!(
            range_count_sorted(&values, q(f64::NEG_INFINITY, f64::INFINITY)),
            3
        );
    }
}
