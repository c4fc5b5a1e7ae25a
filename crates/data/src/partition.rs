//! Partitioning datasets across IoT nodes.
//!
//! The paper's system model distributes the global dataset `D` over `k`
//! smart devices, `D = ∪ D_i`. This module provides the partitioning
//! strategies used to set up that distribution in simulations:
//!
//! * [`PartitionStrategy::RoundRobin`] — record `j` goes to node
//!   `j mod k`; every node sees a temporally interleaved slice (the
//!   closest analogue of co-located sensors all observing the city).
//! * [`PartitionStrategy::Contiguous`] — the record stream is cut into `k`
//!   consecutive blocks; nodes see disjoint time windows (the analogue of
//!   a sensor per epoch, and the worst case for value skew across nodes).
//!
//! Experiments partition the values of one air-quality index
//! ([`partition_values`]).

/// How to split a dataset across `k` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// Record `j` goes to node `j mod k`.
    RoundRobin,
    /// The record stream is cut into `k` consecutive, near-equal blocks.
    Contiguous,
}

/// Splits a slice of raw values across `k` nodes.
///
/// # Examples
///
/// ```
/// use prc_data::partition::{partition_values, PartitionStrategy};
///
/// let values = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let parts = partition_values(&values, 2, PartitionStrategy::RoundRobin);
/// assert_eq!(parts[0], vec![1.0, 3.0, 5.0]);
/// assert_eq!(parts[1], vec![2.0, 4.0]);
/// ```
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn partition_values(values: &[f64], k: usize, strategy: PartitionStrategy) -> Vec<Vec<f64>> {
    assert!(k > 0, "cannot partition across zero nodes");
    match strategy {
        // Each part is one strided pass, allocated at its exact size.
        PartitionStrategy::RoundRobin => (0..k)
            .map(|i| values.iter().skip(i).step_by(k).copied().collect())
            .collect(),
        PartitionStrategy::Contiguous => contiguous_chunks(values.len(), k)
            .into_iter()
            .map(|chunk| values[chunk].to_vec())
            .collect(),
    }
}

/// Near-equal contiguous index ranges covering `0..len` with `k` chunks.
///
/// The first `len % k` chunks receive one extra element.
fn contiguous_chunks(len: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let base = len / k;
    let extra = len % k;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_interleaves() {
        let parts = partition_values(&[0.0, 1.0, 2.0, 3.0, 4.0], 2, PartitionStrategy::RoundRobin);
        assert_eq!(parts[0], vec![0.0, 2.0, 4.0]);
        assert_eq!(parts[1], vec![1.0, 3.0]);
    }

    #[test]
    fn contiguous_blocks_preserve_order_and_cover() {
        let values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let parts = partition_values(&values, 3, PartitionStrategy::Contiguous);
        assert_eq!(parts[0], vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(parts[1], vec![4.0, 5.0, 6.0]);
        assert_eq!(parts[2], vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn every_strategy_conserves_elements() {
        let values: Vec<f64> = (0..103).map(|i| i as f64).collect();
        for strategy in [PartitionStrategy::RoundRobin, PartitionStrategy::Contiguous] {
            let parts = partition_values(&values, 7, strategy);
            assert_eq!(parts.len(), 7);
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, 103, "{strategy:?} lost elements");
            let mut all: Vec<f64> = parts.into_iter().flatten().collect();
            all.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(all, values);
        }
    }

    #[test]
    fn more_nodes_than_elements_leaves_empty_nodes() {
        let parts = partition_values(&[1.0, 2.0], 5, PartitionStrategy::Contiguous);
        assert_eq!(parts.iter().filter(|p| p.is_empty()).count(), 3);
        let parts = partition_values(&[1.0, 2.0], 5, PartitionStrategy::RoundRobin);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "zero nodes")]
    fn zero_nodes_panics() {
        let _ = partition_values(&[1.0], 0, PartitionStrategy::RoundRobin);
    }

    #[test]
    fn chunk_helper_covers_edge_cases() {
        assert_eq!(contiguous_chunks(0, 3), vec![0..0, 0..0, 0..0]);
        assert_eq!(contiguous_chunks(5, 1), vec![0..5]);
        assert_eq!(contiguous_chunks(5, 2), vec![0..3, 3..5]);
    }
}
