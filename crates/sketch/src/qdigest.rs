//! The q-digest of Shrivastava, Buragohain, Agrawal & Suri ("Medians and
//! beyond: new aggregation techniques for sensor networks", SenSys 2004).
//!
//! A q-digest summarizes a multiset over the integer domain `[0, 2^bits)`
//! as counts attached to nodes of the complete binary interval tree. The
//! **compression parameter** `k` trades size for accuracy: after
//! compression the digest stores `O(k·log σ)` nodes and every rank query
//! returns certified bounds whose width is at most `n·log₂σ / k`
//! (straddling nodes form a root-leaf path; every internal node's count
//! is at most `⌊n/k⌋` after compression).
//!
//! Digests over the same domain **merge** by adding counts node-wise —
//! the property that makes them ideal for in-network aggregation trees.

use std::collections::BTreeMap;

use crate::CountBounds;

/// A mergeable q-digest over the integer domain `[0, 2^bits)`.
///
/// # Examples
///
/// ```
/// use prc_sketch::QDigest;
///
/// let values: Vec<u64> = (0..1000).collect();
/// let digest = QDigest::from_values(10, 32, &values);
/// let bounds = digest.range_count_bounds(250, 750);
/// // The certified interval always contains the true count (501).
/// assert!(bounds.lower <= 501 && 501 <= bounds.upper);
/// assert!(digest.node_count() < 1000); // compressed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QDigest {
    bits: u32,
    compression: u64,
    total: u64,
    /// Binary-interval-tree node id → count. Root is id 1; node `v` has
    /// children `2v`, `2v+1`; leaves (ids in `[2^bits, 2^(bits+1))`)
    /// correspond to single domain values.
    counts: BTreeMap<u64, u64>,
}

/// Wire-size model: fixed header plus 12 bytes per stored node.
pub const QDIGEST_HEADER_BYTES: usize = 16;
/// Bytes per stored (node id, count) pair.
pub const QDIGEST_NODE_BYTES: usize = 12;

impl QDigest {
    /// Creates an empty digest over `[0, 2^bits)` with compression `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 32` and `k ≥ 1`.
    pub fn new(bits: u32, compression: u64) -> Self {
        assert!(
            (1..=32).contains(&bits),
            "bits must be in 1..=32, got {bits}"
        );
        assert!(compression >= 1, "compression must be at least 1");
        QDigest {
            bits,
            compression,
            total: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Builds a compressed digest from values.
    ///
    /// # Panics
    ///
    /// Panics if any value is outside the domain.
    pub fn from_values(bits: u32, compression: u64, values: &[u64]) -> Self {
        let mut digest = QDigest::new(bits, compression);
        for &v in values {
            digest.insert(v);
        }
        digest.compress();
        digest
    }

    /// Domain width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The compression parameter `k`.
    pub fn compression(&self) -> u64 {
        self.compression
    }

    /// Total weight summarized, `n`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest representable domain value, `2^bits − 1`.
    pub fn max_value(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    /// Number of stored tree nodes.
    pub fn node_count(&self) -> usize {
        self.counts.len()
    }

    /// Serialized size under the fixed wire model.
    pub fn wire_size(&self) -> usize {
        QDIGEST_HEADER_BYTES + self.counts.len() * QDIGEST_NODE_BYTES
    }

    /// Inserts one value with weight 1 (no compression; call
    /// [`QDigest::compress`] when done inserting).
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the domain.
    pub fn insert(&mut self, value: u64) {
        self.insert_weighted(value, 1);
    }

    /// Inserts one value with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the domain.
    pub fn insert_weighted(&mut self, value: u64, weight: u64) {
        assert!(
            value <= self.max_value(),
            "value {value} outside domain [0, 2^{})",
            self.bits
        );
        if weight == 0 {
            return;
        }
        let leaf = (1u64 << self.bits) + value;
        *self.counts.entry(leaf).or_insert(0) += weight;
        self.total += weight;
    }

    /// Compresses the digest: bottom-up, any (child, sibling, parent)
    /// triple whose combined count is at most `⌊n/k⌋` collapses into the
    /// parent. After compression every *internal* node's count is at most
    /// the threshold, which is what certifies the query error.
    pub fn compress(&mut self) {
        let threshold = self.total / self.compression;
        if threshold == 0 {
            return;
        }
        for depth in (1..=self.bits).rev() {
            let level_lo = 1u64 << depth;
            let level_hi = (1u64 << (depth + 1)) - 1;
            let ids: Vec<u64> = self
                .counts
                .range(level_lo..=level_hi)
                .map(|(&id, _)| id)
                .collect();
            for id in ids {
                // The sibling pass may already have consumed this node.
                let Some(&own) = self.counts.get(&id) else {
                    continue;
                };
                let sibling = id ^ 1;
                let parent = id >> 1;
                let sibling_count = self.counts.get(&sibling).copied().unwrap_or(0);
                let parent_count = self.counts.get(&parent).copied().unwrap_or(0);
                let combined = own + sibling_count + parent_count;
                if combined <= threshold {
                    self.counts.remove(&id);
                    self.counts.remove(&sibling);
                    self.counts.insert(parent, combined);
                }
            }
        }
    }

    /// Merges another digest into this one (counts add node-wise), then
    /// recompresses at this digest's `k`.
    ///
    /// # Panics
    ///
    /// Panics when the domains differ.
    pub fn merge_from(&mut self, other: &QDigest) {
        assert_eq!(
            self.bits, other.bits,
            "cannot merge digests over different domains"
        );
        for (&id, &count) in &other.counts {
            *self.counts.entry(id).or_insert(0) += count;
        }
        self.total += other.total;
        self.compress();
    }

    /// `(depth, interval)` of a tree node: the domain values it covers.
    fn node_interval(&self, id: u64) -> (u64, u64) {
        let depth = 63 - id.leading_zeros(); // floor(log2(id))
        let width_bits = self.bits - depth;
        let offset = id - (1u64 << depth);
        let lo = offset << width_bits;
        let hi = lo + (1u64 << width_bits) - 1;
        (lo, hi)
    }

    /// Certified bounds on the rank `|{v ≤ x}|`.
    ///
    /// Values beyond the domain clamp (`x ≥ 2^bits` counts everything).
    pub fn rank_bounds(&self, x: u64) -> CountBounds {
        if x >= self.max_value() {
            return CountBounds {
                lower: self.total,
                upper: self.total,
            };
        }
        let mut certain = 0u64;
        let mut straddling = 0u64;
        for (&id, &count) in &self.counts {
            let (lo, hi) = self.node_interval(id);
            if hi <= x {
                certain += count;
            } else if lo <= x {
                straddling += count;
            }
        }
        CountBounds {
            lower: certain,
            upper: certain + straddling,
        }
    }

    /// Certified bounds on the range count `|{v : a ≤ v ≤ b}|`.
    ///
    /// Returns zero bounds when `a > b`.
    pub fn range_count_bounds(&self, a: u64, b: u64) -> CountBounds {
        if a > b {
            return CountBounds { lower: 0, upper: 0 };
        }
        let upper_rank = self.rank_bounds(b);
        let below = if a == 0 {
            CountBounds { lower: 0, upper: 0 }
        } else {
            self.rank_bounds(a - 1)
        };
        CountBounds {
            lower: upper_rank.lower.saturating_sub(below.upper),
            upper: upper_rank.upper.saturating_sub(below.lower),
        }
    }

    /// The theoretical maximum half-width of any rank query:
    /// `bits · ⌊n/k⌋` (a root-leaf path of internal nodes, each below the
    /// compression threshold).
    pub fn error_bound(&self) -> u64 {
        u64::from(self.bits) * (self.total / self.compression)
    }

    /// A quantile estimate: the smallest value whose rank lower bound
    /// reaches `q·n`. `q` is clamped to `[0, 1]`. Returns `None` for an
    /// empty digest.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil() as u64;
        // Binary search over the domain using rank bounds' midpoint.
        let (mut lo, mut hi) = (0u64, self.max_value());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (self.rank_bounds(mid).estimate() as u64) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn exact_range(values: &[u64], a: u64, b: u64) -> u64 {
        values.iter().filter(|&&v| v >= a && v <= b).count() as u64
    }

    #[test]
    fn uncompressed_digest_is_exact() {
        let values = [1u64, 5, 5, 9, 200, 1023];
        let mut d = QDigest::new(10, 1_000_000);
        for &v in &values {
            d.insert(v);
        }
        // Huge k => threshold 0 => no compression => exact answers.
        for (a, b) in [(0, 1023), (5, 5), (2, 100), (500, 1000), (10, 4)] {
            let bounds = d.range_count_bounds(a, b);
            let truth = exact_range(&values, a, b);
            assert_eq!(bounds.lower, truth, "({a},{b})");
            assert_eq!(bounds.upper, truth, "({a},{b})");
        }
        assert_eq!(d.total(), 6);
    }

    #[test]
    fn bounds_always_contain_the_truth() {
        let mut rng = StdRng::seed_from_u64(7);
        let values: Vec<u64> = (0..5_000)
            .map(|_| rng.random_range(0..1u64 << 12))
            .collect();
        let d = QDigest::from_values(12, 32, &values);
        for _ in 0..200 {
            let a = rng.random_range(0..1u64 << 12);
            let b = rng.random_range(0..1u64 << 12);
            let (a, b) = (a.min(b), a.max(b));
            let bounds = d.range_count_bounds(a, b);
            let truth = exact_range(&values, a, b);
            assert!(
                bounds.contains(truth),
                "truth {truth} outside [{}, {}] for ({a},{b})",
                bounds.lower,
                bounds.upper
            );
        }
    }

    #[test]
    fn error_respects_the_theoretical_bound() {
        let mut rng = StdRng::seed_from_u64(9);
        let values: Vec<u64> = (0..20_000)
            .map(|_| rng.random_range(0..1u64 << 16))
            .collect();
        let d = QDigest::from_values(16, 64, &values);
        let bound = d.error_bound();
        for x in (0..1u64 << 16).step_by(1 << 10) {
            let b = d.rank_bounds(x);
            assert!(
                b.upper - b.lower <= bound,
                "width {} exceeds bound {bound}",
                b.upper - b.lower
            );
        }
    }

    #[test]
    fn compression_shrinks_the_digest() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<u64> = (0..50_000)
            .map(|_| rng.random_range(0..1u64 << 16))
            .collect();
        let loose = QDigest::from_values(16, 10_000_000, &values);
        let tight = QDigest::from_values(16, 32, &values);
        assert!(tight.node_count() < loose.node_count() / 10);
        // Size is O(k log σ): comfortably under 3·k·bits.
        assert!(
            tight.node_count() as u64 <= 3 * 32 * 16,
            "digest too large: {}",
            tight.node_count()
        );
        assert!(tight.wire_size() < loose.wire_size());
    }

    #[test]
    fn merge_matches_combined_build() {
        let mut rng = StdRng::seed_from_u64(5);
        let a_values: Vec<u64> = (0..3_000)
            .map(|_| rng.random_range(0..1u64 << 10))
            .collect();
        let b_values: Vec<u64> = (0..2_000)
            .map(|_| rng.random_range(0..1u64 << 10))
            .collect();
        let mut a = QDigest::from_values(10, 16, &a_values);
        let b = QDigest::from_values(10, 16, &b_values);
        a.merge_from(&b);
        assert_eq!(a.total(), 5_000);
        // Truth containment still holds after merging.
        let all: Vec<u64> = a_values.iter().chain(&b_values).copied().collect();
        for (lo, hi) in [(0, 1023), (100, 400), (512, 600)] {
            let bounds = a.range_count_bounds(lo, hi);
            assert!(bounds.contains(exact_range(&all, lo, hi)));
        }
    }

    #[test]
    fn quantiles_of_uniform_data() {
        let values: Vec<u64> = (0..10_000u64).collect();
        let d = QDigest::from_values(14, 128, &values);
        let median = d.quantile(0.5).unwrap();
        assert!(
            (median as i64 - 5_000).unsigned_abs() < 1_200,
            "median {median}"
        );
        assert!(d.quantile(0.0).unwrap() <= d.quantile(1.0).unwrap());
        assert_eq!(QDigest::new(4, 4).quantile(0.5), None);
    }

    #[test]
    fn rank_clamps_at_domain_edges() {
        let d = QDigest::from_values(8, 8, &[0, 255, 255]);
        assert_eq!(d.rank_bounds(255).lower, 3);
        assert_eq!(d.rank_bounds(255).upper, 3);
        let zero = d.range_count_bounds(5, 4);
        assert_eq!(zero, CountBounds { lower: 0, upper: 0 });
    }

    #[test]
    fn weighted_inserts() {
        let mut d = QDigest::new(6, 1_000);
        d.insert_weighted(10, 7);
        d.insert_weighted(10, 0);
        assert_eq!(d.total(), 7);
        assert_eq!(d.range_count_bounds(10, 10).lower, 7);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_panics() {
        QDigest::new(4, 4).insert(16);
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn zero_bits_panics() {
        let _ = QDigest::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "different domains")]
    fn mismatched_merge_panics() {
        let mut a = QDigest::new(4, 4);
        let b = QDigest::new(5, 4);
        a.merge_from(&b);
    }

    #[test]
    fn internal_nodes_respect_threshold_after_compression() {
        let mut rng = StdRng::seed_from_u64(11);
        let values: Vec<u64> = (0..10_000)
            .map(|_| rng.random_range(0..1u64 << 12))
            .collect();
        let d = QDigest::from_values(12, 50, &values);
        let threshold = d.total() / d.compression();
        for (&id, &count) in &d.counts {
            let is_leaf = id >= (1u64 << d.bits());
            if !is_leaf {
                assert!(
                    count <= threshold,
                    "internal node {id} holds {count} > threshold {threshold}"
                );
            }
        }
    }
}
