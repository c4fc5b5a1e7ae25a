//! Summary statistics.
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
}
