//! Distributed sketching: one sketch per node, summed bounds at the base
//! station.
//!
//! This is the deterministic counterpart of `prc-net`'s sampling
//! protocol: instead of shipping a Bernoulli sample with ranks, every
//! node ships a fixed-size summary of its local data. Range counts are
//! answered by summing the per-node certified bounds (errors add, so a
//! per-node `εnᵢ` guarantee yields `εn` globally); q-digests can
//! alternatively be merged into one digest first.
//!
//! [`Quantizer`] maps `f64` observations onto the integer domain
//! q-digests need; query bounds snap to the same grid so the certified
//! intervals remain valid for grid-aligned queries.

use crate::gk::GkSummary;
use crate::qdigest::QDigest;
use crate::CountBounds;

/// An affine map from a closed `f64` interval onto `[0, 2^bits)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    lo: f64,
    hi: f64,
    bits: u32,
}

impl Quantizer {
    /// Creates a quantizer for values in `[lo, hi]` onto `bits`-wide
    /// integers.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` are finite and `1 ≤ bits ≤ 32`.
    pub fn new(lo: f64, hi: f64, bits: u32) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "need finite lo < hi"
        );
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        Quantizer { lo, hi, bits }
    }

    /// Domain width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest integer code, `2^bits − 1`.
    pub fn max_code(&self) -> u64 {
        (1u64 << self.bits) - 1
    }

    /// Maps a value onto its integer code (clamped to the domain).
    pub fn quantize(&self, value: f64) -> u64 {
        let scaled = (value - self.lo) / (self.hi - self.lo) * self.max_code() as f64;
        scaled.round().clamp(0.0, self.max_code() as f64) as u64
    }

    /// Maps an integer code back to the centre of its cell.
    pub fn dequantize(&self, code: u64) -> f64 {
        self.lo + code as f64 / self.max_code() as f64 * (self.hi - self.lo)
    }

    /// The width of one quantization cell in value units.
    pub fn cell_width(&self) -> f64 {
        (self.hi - self.lo) / self.max_code() as f64
    }
}

/// One node's summary, as shipped to the base station.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeSketch {
    /// A mergeable q-digest over the quantized domain.
    QDigest(QDigest),
    /// A Greenwald–Khanna summary over raw values.
    Gk(GkSummary),
}

impl NodeSketch {
    /// Serialized size under each sketch's wire model.
    pub fn wire_size(&self) -> usize {
        match self {
            NodeSketch::QDigest(d) => d.wire_size(),
            NodeSketch::Gk(g) => g.wire_size(),
        }
    }

    /// Total weight summarized by the sketch.
    pub fn total(&self) -> u64 {
        match self {
            NodeSketch::QDigest(d) => d.total(),
            NodeSketch::Gk(g) => g.count(),
        }
    }
}

/// The base station of the sketching protocol.
///
/// # Examples
///
/// ```
/// use prc_sketch::distributed::{digest_partitions, Quantizer, SketchStation};
///
/// let partitions = vec![vec![10.0, 20.0, 30.0], vec![40.0, 50.0]];
/// let quantizer = Quantizer::new(0.0, 100.0, 8);
/// let mut station = SketchStation::new();
/// for sketch in digest_partitions(&partitions, &quantizer, 16) {
///     station.ingest(sketch);
/// }
/// let bounds = station.range_count_bounds(
///     &quantizer,
///     quantizer.quantize(15.0),
///     quantizer.quantize(45.0),
/// );
/// // True count of {20, 30, 40} is certified inside the bounds.
/// assert!(bounds.lower <= 3 && 3 <= bounds.upper);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SketchStation {
    sketches: Vec<NodeSketch>,
    bytes_received: u64,
}

impl SketchStation {
    /// An empty station.
    pub fn new() -> Self {
        SketchStation::default()
    }

    /// Ingests one node's sketch, accounting its wire size.
    pub fn ingest(&mut self, sketch: NodeSketch) {
        self.bytes_received += sketch.wire_size() as u64;
        self.sketches.push(sketch);
    }

    /// Number of nodes that have reported.
    pub fn node_count(&self) -> usize {
        self.sketches.len()
    }

    /// Total population summarized across nodes.
    pub fn total_population(&self) -> u64 {
        self.sketches.iter().map(NodeSketch::total).sum()
    }

    /// Total bytes received.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Certified bounds on the global count of quantized codes in
    /// `[a, b]` — q-digest sketches are queried on the integer range,
    /// GK sketches on the dequantized value range.
    pub fn range_count_bounds(&self, quantizer: &Quantizer, a: u64, b: u64) -> CountBounds {
        let mut bounds = CountBounds { lower: 0, upper: 0 };
        for sketch in &self.sketches {
            let node = match sketch {
                NodeSketch::QDigest(d) => d.range_count_bounds(a, b),
                NodeSketch::Gk(g) => {
                    // Query the value interval covered by codes [a, b],
                    // padded by half a cell on each side so grid-aligned
                    // values stay inside.
                    let half = quantizer.cell_width() / 2.0;
                    g.range_count_bounds(
                        quantizer.dequantize(a) - half,
                        quantizer.dequantize(b) + half,
                    )
                }
            };
            bounds = bounds.merge(&node);
        }
        bounds
    }

    /// Merges every q-digest into one (errors stop adding across nodes at
    /// the cost of one recompression); non-digest sketches are left as
    /// is. Returns the merged digest when at least one digest was
    /// present.
    pub fn merge_digests(&self) -> Option<QDigest> {
        let mut merged: Option<QDigest> = None;
        for sketch in &self.sketches {
            if let NodeSketch::QDigest(d) = sketch {
                match &mut merged {
                    Some(m) => m.merge_from(d),
                    None => merged = Some(d.clone()),
                }
            }
        }
        merged
    }
}

/// Builds per-node q-digest sketches for partitioned raw values.
pub fn digest_partitions(
    partitions: &[Vec<f64>],
    quantizer: &Quantizer,
    compression: u64,
) -> Vec<NodeSketch> {
    partitions
        .iter()
        .map(|values| {
            let codes: Vec<u64> = values.iter().map(|&v| quantizer.quantize(v)).collect();
            NodeSketch::QDigest(QDigest::from_values(quantizer.bits(), compression, &codes))
        })
        .collect()
}

/// Builds per-node GK sketches for partitioned raw values.
pub fn gk_partitions(partitions: &[Vec<f64>], epsilon: f64) -> Vec<NodeSketch> {
    partitions
        .iter()
        .map(|values| NodeSketch::Gk(GkSummary::from_values(epsilon, values)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn partitions(k: usize, per_node: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..per_node).map(|_| rng.random::<f64>() * 200.0).collect())
            .collect()
    }

    fn exact_quantized(parts: &[Vec<f64>], q: &Quantizer, a: u64, b: u64) -> u64 {
        parts
            .iter()
            .flatten()
            .filter(|&&v| {
                let code = q.quantize(v);
                code >= a && code <= b
            })
            .count() as u64
    }

    #[test]
    fn quantizer_round_trips_on_grid() {
        let q = Quantizer::new(0.0, 200.0, 10);
        assert_eq!(q.max_code(), 1_023);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.quantize(200.0), 1_023);
        assert_eq!(q.quantize(-5.0), 0); // clamped
        assert_eq!(q.quantize(250.0), 1_023);
        for code in [0u64, 17, 512, 1_023] {
            assert_eq!(q.quantize(q.dequantize(code)), code);
        }
        assert!(q.cell_width() > 0.0);
    }

    #[test]
    #[should_panic(expected = "finite lo < hi")]
    fn degenerate_quantizer_panics() {
        let _ = Quantizer::new(5.0, 5.0, 8);
    }

    #[test]
    fn digest_station_bounds_contain_truth() {
        let parts = partitions(10, 500, 1);
        let q = Quantizer::new(0.0, 200.0, 12);
        let mut station = SketchStation::new();
        for sketch in digest_partitions(&parts, &q, 64) {
            station.ingest(sketch);
        }
        assert_eq!(station.node_count(), 10);
        assert_eq!(station.total_population(), 5_000);
        assert!(station.bytes_received() > 0);

        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let a = rng.random_range(0..1u64 << 12);
            let b = rng.random_range(0..1u64 << 12);
            let (a, b) = (a.min(b), a.max(b));
            let truth = exact_quantized(&parts, &q, a, b);
            let bounds = station.range_count_bounds(&q, a, b);
            assert!(
                bounds.contains(truth),
                "truth {truth} outside [{}, {}]",
                bounds.lower,
                bounds.upper
            );
        }
    }

    #[test]
    fn gk_station_bounds_contain_truth() {
        let parts = partitions(8, 800, 3);
        let q = Quantizer::new(0.0, 200.0, 12);
        let mut station = SketchStation::new();
        for sketch in gk_partitions(&parts, 0.02) {
            station.ingest(sketch);
        }
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let a = rng.random_range(0..1u64 << 12);
            let b = rng.random_range(0..1u64 << 12);
            let (a, b) = (a.min(b), a.max(b));
            let truth = exact_quantized(&parts, &q, a, b);
            let bounds = station.range_count_bounds(&q, a, b);
            assert!(
                bounds.contains(truth),
                "truth {truth} outside [{}, {}]",
                bounds.lower,
                bounds.upper
            );
        }
    }

    #[test]
    fn merged_digest_is_tighter_or_equal_population() {
        let parts = partitions(6, 400, 5);
        let q = Quantizer::new(0.0, 200.0, 10);
        let mut station = SketchStation::new();
        for sketch in digest_partitions(&parts, &q, 32) {
            station.ingest(sketch);
        }
        let merged = station.merge_digests().unwrap();
        assert_eq!(merged.total(), 2_400);
        // Merged bounds still contain the truth.
        let truth = exact_quantized(&parts, &q, 100, 800);
        assert!(merged.range_count_bounds(100, 800).contains(truth));
    }

    #[test]
    fn merge_digests_none_without_digests() {
        let mut station = SketchStation::new();
        station.ingest(NodeSketch::Gk(GkSummary::from_values(0.1, &[1.0])));
        assert!(station.merge_digests().is_none());
    }

    #[test]
    fn wire_sizes_reflect_compression() {
        let parts = partitions(1, 20_000, 7);
        let q = Quantizer::new(0.0, 200.0, 16);
        let tight = &digest_partitions(&parts, &q, 16)[0];
        let loose = &digest_partitions(&parts, &q, 1_024)[0];
        assert!(tight.wire_size() < loose.wire_size());
    }
}
