//! Sensor nodes: local data, ranks, and incremental Bernoulli sampling.

// prc-lint: allow(B003, reason = "seeded per-node Bernoulli sampling randomness; not privacy noise")
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::message::{key_value, order_key, NodeId, SampleEntry, SampleMessage};

/// A smart device holding a sorted local dataset `D_i`.
///
/// Each node samples its data elements independently with probability `p`
/// and ships the sampled values *with their local ranks* to the base
/// station (§III-A). When the base station later needs a higher sampling
/// probability, the node **tops up**: every not-yet-sampled element is
/// included with conditional probability `(p' − p)/(1 − p)`, which makes
/// the cumulative inclusion probability of every element exactly `p'`
/// without discarding the samples already shipped.
///
/// # Examples
///
/// ```
/// use prc_net::message::NodeId;
/// use prc_net::node::SensorNode;
///
/// let mut node = SensorNode::new(NodeId(0), vec![5.0, 1.0, 3.0], 42);
/// let batch = node.sample_to(1.0); // full sampling
/// assert_eq!(batch.entries.len(), 3);
/// // Ranks follow the sorted order: 1.0 has rank 1, 5.0 has rank 3.
/// assert_eq!(batch.entries[0].value, 1.0);
/// assert_eq!(batch.entries[2].rank, 3);
/// // Topping up to a lower probability is a no-op.
/// assert!(node.sample_to(0.5).entries.is_empty());
/// ```
#[derive(Debug)]
pub struct SensorNode {
    id: NodeId,
    /// Local data, sorted ascending. Rank `r` (1-based) = `data[r-1]`.
    data: Vec<f64>,
    /// Whether each position has already been sampled and shipped.
    sampled: Vec<bool>,
    /// Cumulative inclusion probability reached so far.
    probability: f64,
    rng: StdRng,
}

impl SensorNode {
    /// Creates a node from its raw (unsorted) local data.
    ///
    /// The RNG is seeded from `seed` and the node id, so a network of
    /// nodes built from the same seed is fully deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `data` contains NaN (ranks would be ill-defined).
    pub fn new(id: NodeId, data: Vec<f64>, seed: u64) -> Self {
        assert!(
            data.iter().all(|v| !v.is_nan()),
            "node data must not contain NaN"
        );
        // Sorting the order keys sorts the values by `total_cmp`; equal
        // keys are bit-identical values, so the array is the one any
        // `total_cmp` sort gives. Both conversions reuse the allocation.
        let mut keys: Vec<u64> = data.into_iter().map(order_key).collect();
        keys.sort_unstable();
        let data: Vec<f64> = keys.into_iter().map(key_value).collect();
        let len = data.len();
        SensorNode {
            id,
            data,
            sampled: vec![false; len],
            probability: 0.0,
            rng: seeded_rng(id, seed),
        }
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Size `n_i` of the local dataset.
    pub fn population_size(&self) -> usize {
        self.data.len()
    }

    /// Cumulative sampling probability reached so far.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// The sorted local data (test and exact-count support).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Number of elements sampled so far.
    pub fn sampled_count(&self) -> usize {
        self.sampled.iter().filter(|&&s| s).count()
    }

    /// Raises the cumulative sampling probability to `target` and returns
    /// the batch of newly sampled entries.
    ///
    /// Returns an empty batch when `target` does not exceed the current
    /// probability. Entries are sorted by rank. The cumulative inclusion
    /// probability of *every* element after the call is exactly
    /// `max(target, previous)`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1]`.
    pub fn sample_to(&mut self, target: f64) -> SampleMessage {
        assert!(
            target > 0.0 && target <= 1.0,
            "sampling probability must be in (0, 1], got {target}"
        );
        let mut entries = Vec::new();
        if target > self.probability {
            // Conditional inclusion probability for not-yet-sampled elements.
            let conditional = if self.probability >= 1.0 {
                0.0
            } else {
                (target - self.probability) / (1.0 - self.probability)
            };
            let threshold = inclusion_threshold(conditional);
            let mut rng = self.rng.clone();
            for ((pos, taken), &value) in self.sampled.iter_mut().enumerate().zip(&self.data) {
                if !*taken && rng.next_u64() >> 11 < threshold {
                    *taken = true;
                    entries.push(SampleEntry {
                        value,
                        rank: pos as u32 + 1,
                    });
                }
            }
            self.rng = rng;
            self.probability = target;
        }
        SampleMessage {
            node_id: self.id,
            population_size: self.data.len(),
            probability: self.probability,
            entries,
        }
    }

    /// Adds `value` to the local data at the position the sort in
    /// [`SensorNode::new`] gives it.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub(crate) fn insert(&mut self, value: f64) {
        assert!(!value.is_nan(), "node data must not contain NaN");
        let at = self.position_of(value);
        self.data.insert(at, value);
    }

    /// Removes one copy of `value` (matched bit for bit) from the local
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if the node holds no such value.
    pub(crate) fn remove(&mut self, value: f64) {
        let at = self.position_of(value);
        assert!(
            self.data
                .get(at)
                .is_some_and(|&held| held.to_bits() == value.to_bits()),
            "node {} holds no value {value}",
            self.id.0
        );
        self.data.remove(at);
    }

    /// The first position whose value does not order before `value`.
    fn position_of(&self, value: f64) -> usize {
        let key = order_key(value);
        self.data.partition_point(|&held| order_key(held) < key)
    }

    /// Forgets every draw: no element counts as sampled, the cumulative
    /// probability is back at 0, and the RNG is the one
    /// [`SensorNode::new`] seeds from `seed`.
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.sampled.clear();
        self.sampled.resize(self.data.len(), false);
        self.probability = 0.0;
        self.rng = seeded_rng(self.id, seed);
    }

    /// Exact local range count `γ(l, u, i) = |{x ∈ D_i : l ≤ x ≤ u}|`.
    ///
    /// Ground truth for evaluation; a real device would never be asked to
    /// compute this over the network.
    pub fn exact_range_count(&self, l: f64, u: f64) -> usize {
        if l > u {
            return 0;
        }
        let lo = self.data.partition_point(|&v| v < l);
        let hi = self.data.partition_point(|&v| v <= u);
        hi - lo
    }
}

/// A node's sampling RNG: a pure function of the seed and the node id.
fn seeded_rng(id: NodeId, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ (u64::from(id.0) << 32 | 0x9e37_79b9))
}

/// The integer form of the Bernoulli test `random::<f64>() < c` on the
/// next raw word `x`: include the element when `(x >> 11) < ⌈c·2⁵³⌉`.
///
/// The vendored `random::<f64>()` is exactly `m·2⁻⁵³` with `m = x >> 11`,
/// and scaling `c ∈ [0, 1]` by `2⁵³` is exact, so
/// `m·2⁻⁵³ < c ⟺ m < c·2⁵³ ⟺ m < ⌈c·2⁵³⌉` for the integer `m`. The two
/// tests agree for every `x`, `c = 1` (threshold `2⁵³`) included, so each
/// element consumes the same draw and meets the same fate.
fn inclusion_threshold(conditional: f64) -> u64 {
    (conditional * (1u64 << 53) as f64).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    fn node(data: Vec<f64>, seed: u64) -> SensorNode {
        SensorNode::new(NodeId(1), data, seed)
    }

    #[test]
    fn data_is_sorted_and_ranks_match() {
        let mut n = node(vec![5.0, 1.0, 3.0], 7);
        assert_eq!(n.data(), &[1.0, 3.0, 5.0]);
        let batch = n.sample_to(1.0);
        assert_eq!(batch.entries.len(), 3);
        for (i, e) in batch.entries.iter().enumerate() {
            assert_eq!(e.rank as usize, i + 1);
            assert_eq!(e.value, n.data()[i]);
        }
    }

    #[test]
    fn p_one_samples_everything() {
        let mut n = node((0..100).map(f64::from).collect(), 3);
        let batch = n.sample_to(1.0);
        assert_eq!(batch.entries.len(), 100);
        assert_eq!(n.sampled_count(), 100);
        assert_eq!(batch.probability, 1.0);
    }

    #[test]
    fn top_up_only_ships_new_entries() {
        let mut n = node((0..10_000).map(f64::from).collect(), 11);
        let first = n.sample_to(0.2);
        let second = n.sample_to(0.5);
        // No rank appears twice across batches.
        let mut ranks: Vec<u32> = first
            .entries
            .iter()
            .chain(second.entries.iter())
            .map(|e| e.rank)
            .collect();
        let total = ranks.len();
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks.len(), total, "a rank was shipped twice");
        assert_eq!(n.sampled_count(), total);
        assert_eq!(n.probability(), 0.5);
    }

    #[test]
    fn top_up_reaches_exact_cumulative_probability() {
        // Statistically: sampling to 0.3 then topping to 0.6 must include
        // each element with probability 0.6.
        let mut total = 0usize;
        let runs = 400;
        let size = 1_000;
        for seed in 0..runs {
            let mut n = node((0..size).map(f64::from).collect(), seed);
            n.sample_to(0.3);
            n.sample_to(0.6);
            total += n.sampled_count();
        }
        let rate = total as f64 / (runs as usize * size as usize) as f64;
        assert!((rate - 0.6).abs() < 0.01, "empirical inclusion rate {rate}");
    }

    #[test]
    fn lower_target_is_a_noop() {
        let mut n = node((0..1000).map(f64::from).collect(), 5);
        n.sample_to(0.5);
        let count = n.sampled_count();
        let batch = n.sample_to(0.3);
        assert!(batch.entries.is_empty());
        assert_eq!(n.sampled_count(), count);
        assert_eq!(n.probability(), 0.5);
    }

    #[test]
    fn repeated_same_target_is_a_noop() {
        let mut n = node((0..1000).map(f64::from).collect(), 5);
        n.sample_to(0.4);
        let batch = n.sample_to(0.4);
        assert!(batch.entries.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn zero_probability_panics() {
        node(vec![1.0], 0).sample_to(0.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn above_one_panics() {
        node(vec![1.0], 0).sample_to(1.5);
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_data_panics() {
        let _ = node(vec![1.0, f64::NAN], 0);
    }

    #[test]
    fn empty_node_is_fine() {
        let mut n = node(vec![], 1);
        let batch = n.sample_to(0.9);
        assert!(batch.entries.is_empty());
        assert_eq!(batch.population_size, 0);
        assert_eq!(n.exact_range_count(0.0, 10.0), 0);
    }

    #[test]
    fn exact_range_count_is_inclusive_on_both_ends() {
        let n = node(vec![1.0, 2.0, 2.0, 3.0, 5.0], 1);
        assert_eq!(n.exact_range_count(2.0, 3.0), 3);
        assert_eq!(n.exact_range_count(0.0, 10.0), 5);
        assert_eq!(n.exact_range_count(4.0, 4.5), 0);
        assert_eq!(n.exact_range_count(5.0, 5.0), 1);
        assert_eq!(n.exact_range_count(3.0, 2.0), 0); // inverted range
    }

    #[test]
    fn deterministic_per_seed_and_id() {
        let mut a = SensorNode::new(NodeId(4), (0..500).map(f64::from).collect(), 99);
        let mut b = SensorNode::new(NodeId(4), (0..500).map(f64::from).collect(), 99);
        assert_eq!(a.sample_to(0.3), b.sample_to(0.3));
        // Different ids diverge.
        let mut c = SensorNode::new(NodeId(5), (0..500).map(f64::from).collect(), 99);
        assert_ne!(a.sample_to(0.9).entries, c.sample_to(0.9).entries);
    }

    #[test]
    fn edited_and_reseeded_node_equals_a_fresh_one() {
        let mut edited = SensorNode::new(NodeId(3), vec![4.0, -0.0, 2.0, 2.0, 9.0], 1);
        edited.sample_to(0.6);
        for value in [2.0, 7.5, 0.0, -1.0] {
            edited.insert(value);
        }
        edited.remove(2.0);
        edited.remove(-0.0);
        edited.remove(9.0);
        edited.reseed(8);
        let mut fresh = SensorNode::new(NodeId(3), vec![7.5, 2.0, 0.0, 2.0, 4.0, -1.0], 8);
        assert_eq!(edited.data(), fresh.data());
        assert_eq!(edited.sampled_count(), 0);
        assert_eq!(edited.probability(), 0.0);
        assert_eq!(edited.sample_to(0.5), fresh.sample_to(0.5));
        assert_eq!(edited.sample_to(0.9), fresh.sample_to(0.9));
    }

    #[test]
    #[should_panic(expected = "holds no value")]
    fn removing_an_absent_value_panics() {
        // `0.0` and `-0.0` are different values to a node.
        node(vec![-0.0, 1.0], 0).remove(0.0);
    }

    #[test]
    fn sampling_rate_is_close_to_p() {
        let mut n = node((0..50_000).map(f64::from).collect(), 13);
        n.sample_to(0.2);
        let rate = n.sampled_count() as f64 / 50_000.0;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }

    /// The float form of the sampling loop: one `random::<f64>()` per
    /// unsampled element, compared with the conditional probability.
    fn reference_sample_to(
        rng: &mut StdRng,
        sampled: &mut [bool],
        data: &[f64],
        probability: f64,
        target: f64,
    ) -> Vec<SampleEntry> {
        let mut entries = Vec::new();
        if target > probability {
            let conditional = if probability >= 1.0 {
                0.0
            } else {
                (target - probability) / (1.0 - probability)
            };
            for (pos, taken) in sampled.iter_mut().enumerate() {
                if !*taken && rng.random::<f64>() < conditional {
                    *taken = true;
                    entries.push(SampleEntry {
                        value: data[pos],
                        rank: pos as u32 + 1,
                    });
                }
            }
        }
        entries
    }

    #[test]
    fn sampling_is_draw_for_draw_identical_to_the_float_test() {
        let two53 = (1u64 << 53) as f64;
        let ladders: [&[f64]; 7] = [
            &[1.0],
            &[0.01, 1.0],
            &[1.0 / two53, 2.0 / two53, 0.5],
            &[0.0099, 0.0198, 0.0396, 0.0791, 0.1582, 0.3164],
            // Targets whose conditional times 2^53 is an integer.
            &[0.25, 0.5, 0.75, 1.0],
            &[0.125, 0.125, 0.0625, 0.9999999999999999, 1.0],
            &[1e-300, 3e-17, 0.3, 0.3 + 1e-16, 1.0],
        ];
        for seed in 0..64u64 {
            for (l, ladder) in ladders.iter().enumerate() {
                let data: Vec<f64> = (0..257).map(|j| ((j * 37 + l) % 101) as f64).collect();
                let mut node = SensorNode::new(NodeId(seed as u32), data, seed);
                let mut rng = node.rng.clone();
                let mut sampled = vec![false; node.data.len()];
                let mut probability = 0.0;
                for &target in *ladder {
                    let expected = reference_sample_to(
                        &mut rng,
                        &mut sampled,
                        &node.data,
                        probability,
                        target,
                    );
                    probability = probability.max(target);
                    let batch = node.sample_to(target);
                    assert_eq!(
                        batch.entries, expected,
                        "seed {seed}, ladder {l}, target {target}"
                    );
                    assert_eq!(node.sampled, sampled);
                    assert_eq!(
                        node.rng, rng,
                        "the RNG advanced by a different number of draws"
                    );
                }
            }
        }
    }

    #[test]
    fn inclusion_threshold_matches_the_float_test_at_the_edges() {
        let two53 = (1u64 << 53) as f64;
        let max_m = (1u64 << 53) - 1;
        for c in [0.0, 1.0 / two53, 0.5, 1.0 - 1.0 / two53, 1.0] {
            let threshold = inclusion_threshold(c);
            assert_eq!(threshold, (c * two53) as u64, "c·2^53 is an integer here");
            for m in [0, 1, 2, (1u64 << 52) - 1, 1u64 << 52, max_m - 1, max_m] {
                let as_float = m as f64 * (1.0 / two53);
                assert_eq!(m < threshold, as_float < c, "m = {m}, c = {c}");
            }
        }
        assert_eq!(inclusion_threshold(0.0), 0, "c = 0 includes nothing");
        assert_eq!(
            inclusion_threshold(1.0),
            1u64 << 53,
            "c = 1 includes everything"
        );
        // A conditional that is not a multiple of 2^-53 rounds up.
        assert_eq!(inclusion_threshold(0.1), (0.1 * two53).floor() as u64 + 1);
    }
}
