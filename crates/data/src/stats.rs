//! Summary statistics, histograms, and empirical CDFs.
//!
//! These utilities back the benchmark harness (relative-error metrics,
//! workload construction from data quantiles) and the generator's tests.

/// Arithmetic mean, or `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Population variance (dividing by `n`), or `None` for an empty slice.
pub fn variance(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    Some(values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64)
}

/// Sample variance (dividing by `n - 1`), or `None` when fewer than two values.
pub fn sample_variance(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let m = mean(values)?;
    Some(values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64)
}

/// Minimum, ignoring NaNs; `None` for an empty slice (or all-NaN input).
pub fn min(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
}

/// Maximum, ignoring NaNs; `None` for an empty slice (or all-NaN input).
pub fn max(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Quantile by linear interpolation on the sorted values.
///
/// `q` is clamped to `[0, 1]`. Returns `None` for an empty slice.
///
/// # Examples
///
/// ```
/// let data = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(prc_data::stats::quantile(&data, 0.5), Some(2.5));
/// assert_eq!(prc_data::stats::quantile(&data, 0.0), Some(1.0));
/// assert_eq!(prc_data::stats::quantile(&data, 1.0), Some(4.0));
/// ```
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// A fixed-width histogram over a closed value range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    counts: Vec<u64>,
    /// Number of observed values outside `[low, high]`.
    outliers: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width buckets spanning `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, the bounds are not finite, or `low >= high`.
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(low.is_finite() && high.is_finite(), "bounds must be finite");
        assert!(low < high, "bounds must satisfy low < high");
        Histogram {
            low,
            high,
            counts: vec![0; bins],
            outliers: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || value < self.low || value > self.high {
            self.outliers += 1;
            return;
        }
        let width = (self.high - self.low) / self.counts.len() as f64;
        let mut idx = ((value - self.low) / width) as usize;
        if idx >= self.counts.len() {
            idx = self.counts.len() - 1; // value == high lands in the last bin
        }
        self.counts[idx] += 1;
    }

    /// Records every value in the slice.
    pub fn record_all(&mut self, values: &[f64]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of values that fell outside the histogram range.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(low, high)` bounds of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.high - self.low) / self.counts.len() as f64;
        (
            self.low + width * i as f64,
            self.low + width * (i + 1) as f64,
        )
    }
}

/// An empirical cumulative distribution function over a fixed sample.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds the CDF from a sample.
    ///
    /// NaN values sort last under IEEE total ordering and so only dilute
    /// the upper tail; callers wanting strictness should filter first.
    pub fn new(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        EmpiricalCdf { sorted }
    }

    /// `Pr[X <= x]` under the empirical distribution.
    pub fn evaluate(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the CDF was built from an empty sample.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample value `v` with `Pr[X <= v] >= q`, clamping `q` to `(0, 1]`.
    ///
    /// Returns `None` for an empty sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[idx - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(variance(&[]), None);
        assert_eq!(variance(&[1.0, 1.0, 1.0]), Some(0.0));
        assert_eq!(variance(&[1.0, 3.0]), Some(1.0));
        assert_eq!(sample_variance(&[1.0]), None);
        assert_eq!(sample_variance(&[1.0, 3.0]), Some(2.0));
    }

    #[test]
    fn min_max_skip_nan() {
        assert_eq!(min(&[3.0, f64::NAN, 1.0]), Some(1.0));
        assert_eq!(max(&[3.0, f64::NAN, 1.0]), Some(3.0));
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[f64::NAN]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let data = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&data, 0.5), Some(20.0));
        assert_eq!(quantile(&data, 0.25), Some(15.0));
        assert_eq!(quantile(&data, -1.0), Some(10.0));
        assert_eq!(quantile(&data, 2.0), Some(30.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record_all(&[0.0, 1.0, 2.5, 9.9, 10.0]);
        // 0.0 and 1.0 land in bin 0, 2.5 in bin 1, 9.9 and 10.0 in bin 4.
        assert_eq!(h.counts(), &[2, 1, 0, 0, 2]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.outliers(), 0);
        assert_eq!(h.bin_bounds(0), (0.0, 2.0));
        assert_eq!(h.bin_bounds(4), (8.0, 10.0));
    }

    #[test]
    fn histogram_counts_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-0.1);
        h.record(1.1);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.total(), 0);
        assert_eq!(h.outliers(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn empirical_cdf_matches_definition() {
        let cdf = EmpiricalCdf::new(&[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(cdf.evaluate(0.0), 0.0);
        assert_eq!(cdf.evaluate(1.0), 0.25);
        assert_eq!(cdf.evaluate(2.0), 0.75);
        assert_eq!(cdf.evaluate(3.0), 0.75);
        assert_eq!(cdf.evaluate(100.0), 1.0);
        assert_eq!(cdf.len(), 4);
        assert!(!cdf.is_empty());
    }

    #[test]
    fn empirical_cdf_quantile() {
        let cdf = EmpiricalCdf::new(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.quantile(0.25), Some(10.0));
        assert_eq!(cdf.quantile(0.5), Some(20.0));
        assert_eq!(cdf.quantile(1.0), Some(40.0));
        assert_eq!(cdf.quantile(0.0), Some(10.0));
        assert_eq!(EmpiricalCdf::new(&[]).quantile(0.5), None);
        assert_eq!(EmpiricalCdf::new(&[]).evaluate(0.0), 0.0);
    }
}
