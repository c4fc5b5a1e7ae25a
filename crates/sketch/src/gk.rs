//! The Greenwald–Khanna ε-approximate quantile summary ("Space-efficient
//! online computation of quantile summaries", SIGMOD 2001).
//!
//! A GK summary maintains a sorted list of tuples `(v, g, Δ)` where `g`
//! is the gap in minimum rank to the previous tuple and `Δ` bounds the
//! rank uncertainty of `v`. The invariant `g + Δ ≤ ⌊2εn⌋` guarantees any
//! rank (hence any quantile or range count) is answered within `± εn`,
//! using `O((1/ε)·log(εn))` space.
//!
//! GK summaries are streaming (one pass, per-element `O(log s)` insert)
//! but not mergeable; the distributed protocol in [`crate::distributed`]
//! keeps one summary per node and sums per-node bounds at the base
//! station, which preserves the total error `Σ εnᵢ = εn`.

use crate::CountBounds;

/// One GK tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tuple {
    value: f64,
    /// Gap in minimum rank from the previous tuple.
    g: u64,
    /// Rank uncertainty of this tuple.
    delta: u64,
}

/// Wire-size model: fixed header plus 16 bytes per tuple.
pub const GK_HEADER_BYTES: usize = 16;
/// Bytes per stored tuple.
pub const GK_TUPLE_BYTES: usize = 16;

/// A streaming ε-approximate quantile summary over `f64` values.
///
/// # Examples
///
/// ```
/// use prc_sketch::GkSummary;
///
/// let mut summary = GkSummary::new(0.01);
/// for i in 0..10_000 {
///     summary.insert(f64::from(i));
/// }
/// // Rank queries are certified within ±εn = ±100.
/// let bounds = summary.rank_bounds(5_000.0);
/// assert!(bounds.lower <= 5_001 && 5_001 <= bounds.upper);
/// assert!(summary.tuple_count() < 1_000); // sublinear space
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GkSummary {
    epsilon: f64,
    count: u64,
    tuples: Vec<Tuple>,
    inserts_since_compress: u64,
}

impl GkSummary {
    /// Creates an empty summary with rank-error parameter `ε ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε < 1`.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        GkSummary {
            epsilon,
            count: 0,
            tuples: Vec::new(),
            inserts_since_compress: 0,
        }
    }

    /// Builds a summary from a batch of values.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub fn from_values(epsilon: f64, values: &[f64]) -> Self {
        let mut summary = GkSummary::new(epsilon);
        for &v in values {
            summary.insert(v);
        }
        summary
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of stored tuples.
    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    /// Serialized size under the fixed wire model.
    pub fn wire_size(&self) -> usize {
        GK_HEADER_BYTES + self.tuples.len() * GK_TUPLE_BYTES
    }

    /// The worst-case rank error, `⌈εn⌉`.
    pub fn error_bound(&self) -> u64 {
        (self.epsilon * self.count as f64).ceil() as u64
    }

    /// Inserts one value.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn insert(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot insert NaN");
        self.count += 1;
        let band = (2.0 * self.epsilon * self.count as f64).floor() as u64;
        // Position of the first tuple with a strictly larger value.
        let pos = self.tuples.partition_point(|t| t.value <= value);
        let delta = if pos == 0 || pos == self.tuples.len() {
            0 // new extremes are known exactly
        } else {
            band.saturating_sub(1)
        };
        self.tuples.insert(pos, Tuple { value, g: 1, delta });

        self.inserts_since_compress += 1;
        if self.inserts_since_compress as f64 >= 1.0 / (2.0 * self.epsilon) {
            self.compress();
            self.inserts_since_compress = 0;
        }
    }

    /// Removes tuples whose information is covered by their successor
    /// (the classic `g_i + g_{i+1} + Δ_{i+1} ≤ 2εn` rule), preserving the
    /// extremes.
    pub fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let band = (2.0 * self.epsilon * self.count as f64).floor() as u64;
        let mut i = self.tuples.len() - 2;
        while i >= 1 {
            let merged_g = self.tuples[i].g + self.tuples[i + 1].g;
            if merged_g + self.tuples[i + 1].delta <= band {
                self.tuples[i + 1].g = merged_g;
                self.tuples.remove(i);
            }
            i -= 1;
        }
    }

    /// Certified bounds on the rank `|{v ≤ x}|`.
    pub fn rank_bounds(&self, x: f64) -> CountBounds {
        let Some(first) = self.tuples.first() else {
            return CountBounds { lower: 0, upper: 0 };
        };
        // Index of the last tuple with value ≤ x.
        let pos = self.tuples.partition_point(|t| t.value <= x);
        if pos == 0 {
            // x precedes every summarized value.
            return CountBounds {
                lower: 0,
                upper: first.g.saturating_sub(1) + first.delta,
            };
        }
        let rmin: u64 = self.tuples[..pos].iter().map(|t| t.g).sum();
        if pos == self.tuples.len() {
            // x is at or beyond the maximum: everything could be ≤ x, but
            // at least rmin definitely is; the max tuple is exact, so if
            // x ≥ max value the rank is exactly n.
            return CountBounds {
                lower: rmin.max(if x >= self.tuples[pos - 1].value {
                    self.count
                } else {
                    0
                }),
                upper: self.count,
            };
        }
        // Elements ≤ x number at least rmin (min rank of tuple pos−1) and
        // at most (max rank of tuple pos) − 1.
        let rmax_next = rmin + self.tuples[pos].g + self.tuples[pos].delta;
        CountBounds {
            lower: rmin,
            upper: rmax_next.saturating_sub(1).min(self.count),
        }
    }

    /// Certified bounds on the range count `|{v : a ≤ v ≤ b}|`.
    ///
    /// Returns zero bounds when `a > b`.
    pub fn range_count_bounds(&self, a: f64, b: f64) -> CountBounds {
        if a > b {
            return CountBounds { lower: 0, upper: 0 };
        }
        let hi = self.rank_bounds(b);
        // Strictly-below-a rank: use the largest representable value
        // below `a`.
        let lo = self.rank_bounds(a.next_down());
        CountBounds {
            lower: hi.lower.saturating_sub(lo.upper),
            upper: hi.upper.saturating_sub(lo.lower),
        }
    }

    /// The `q`-quantile estimate (`q` clamped to `[0, 1]`), or `None` for
    /// an empty summary.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.tuples.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let allowed = self.error_bound();
        let mut rmin = 0u64;
        for t in &self.tuples {
            rmin += t.g;
            // First tuple whose min rank is within the allowance of the
            // target and whose max rank reaches it.
            if rmin >= target.saturating_sub(allowed) && rmin + t.delta >= target {
                return Some(t.value);
            }
        }
        self.tuples.last().map(|t| t.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn exact_range(values: &[f64], a: f64, b: f64) -> u64 {
        values.iter().filter(|&&v| v >= a && v <= b).count() as u64
    }

    #[test]
    fn rank_bounds_contain_truth_on_random_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<f64> = (0..20_000).map(|_| rng.random::<f64>() * 1_000.0).collect();
        let summary = GkSummary::from_values(0.01, &values);
        for _ in 0..200 {
            let x = rng.random::<f64>() * 1_000.0;
            let truth = values.iter().filter(|&&v| v <= x).count() as u64;
            let bounds = summary.rank_bounds(x);
            assert!(
                bounds.contains(truth),
                "rank({x}) = {truth} outside [{}, {}]",
                bounds.lower,
                bounds.upper
            );
        }
    }

    #[test]
    fn rank_error_is_within_epsilon_n() {
        let mut rng = StdRng::seed_from_u64(2);
        let values: Vec<f64> = (0..30_000).map(|_| rng.random::<f64>() * 100.0).collect();
        let epsilon = 0.005;
        let summary = GkSummary::from_values(epsilon, &values);
        let allowed = 2 * summary.error_bound() + 2; // two-sided width
        for x in (0..100).map(|i| i as f64) {
            let b = summary.rank_bounds(x);
            assert!(
                b.upper - b.lower <= allowed,
                "width {} exceeds {allowed}",
                b.upper - b.lower
            );
        }
    }

    #[test]
    fn space_is_sublinear() {
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<f64> = (0..100_000).map(|_| rng.random::<f64>()).collect();
        let summary = GkSummary::from_values(0.01, &values);
        assert!(
            summary.tuple_count() < 2_000,
            "summary too large: {} tuples for 100k values",
            summary.tuple_count()
        );
        assert_eq!(summary.count(), 100_000);
        assert!(summary.wire_size() < 2_000 * GK_TUPLE_BYTES + GK_HEADER_BYTES);
    }

    #[test]
    fn range_count_bounds_contain_truth() {
        let mut rng = StdRng::seed_from_u64(4);
        let values: Vec<f64> = (0..15_000).map(|_| rng.random::<f64>() * 500.0).collect();
        let summary = GkSummary::from_values(0.01, &values);
        for _ in 0..200 {
            let a = rng.random::<f64>() * 500.0;
            let b = rng.random::<f64>() * 500.0;
            let (a, b) = (a.min(b), a.max(b));
            let truth = exact_range(&values, a, b);
            let bounds = summary.range_count_bounds(a, b);
            assert!(
                bounds.contains(truth),
                "count({a},{b}) = {truth} outside [{}, {}]",
                bounds.lower,
                bounds.upper
            );
        }
        assert_eq!(
            summary.range_count_bounds(5.0, 4.0),
            CountBounds { lower: 0, upper: 0 }
        );
    }

    #[test]
    fn quantiles_are_epsilon_accurate() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let epsilon = 0.01;
        let summary = GkSummary::from_values(epsilon, &values);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let est = summary.quantile(q).unwrap();
            let target = q * 10_000.0;
            assert!(
                (est - target).abs() <= 2.0 * epsilon * 10_000.0 + 1.0,
                "q{q}: {est} vs {target}"
            );
        }
        assert_eq!(GkSummary::new(0.1).quantile(0.5), None);
    }

    #[test]
    fn duplicates_and_sorted_input() {
        let mut values: Vec<f64> = (0..5_000).map(|i| (i / 50) as f64).collect();
        let summary = GkSummary::from_values(0.01, &values);
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for x in [0.0, 10.0, 50.5, 99.0] {
            let truth = values.iter().filter(|&&v| v <= x).count() as u64;
            assert!(summary.rank_bounds(x).contains(truth), "x={x}");
        }
    }

    #[test]
    fn extremes_are_exact() {
        let summary = GkSummary::from_values(0.05, &[5.0, 1.0, 9.0, 3.0]);
        let bottom = summary.rank_bounds(0.5);
        assert_eq!(bottom.lower, 0);
        let top = summary.rank_bounds(9.0);
        assert_eq!(top.lower, 4);
        assert_eq!(top.upper, 4);
    }

    #[test]
    fn empty_summary_answers_zero() {
        let summary = GkSummary::new(0.1);
        assert_eq!(summary.rank_bounds(1.0), CountBounds { lower: 0, upper: 0 });
        assert_eq!(summary.count(), 0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_insert_panics() {
        GkSummary::new(0.1).insert(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn bad_epsilon_panics() {
        let _ = GkSummary::new(0.0);
    }
}
