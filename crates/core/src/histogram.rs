//! Differentially private histograms over the sampled data.
//!
//! A natural product built from private range counting (and the
//! workhorse of the paper's reference \[6\], which tracks quantiles and
//! range counts together): cut the value domain into buckets, estimate
//! each bucket's count with RankCounting from the *same* sample, and
//! perturb each bucket with Laplace noise.
//!
//! Bucket semantics are left-open/right-closed, `(e_i, e_{i+1}]`, with
//! the first bucket additionally including its left edge. Counts are
//! produced by differencing prefix estimates `γ̂(−∞, e_i]`, so the
//! buckets always sum to the full-population estimate.
//!
//! **Privacy.** Adding or removing one record changes exactly one bucket
//! count, so perturbing every bucket with `Lap(Δγ̂/ε)` yields an
//! `ε`-differentially private histogram by parallel composition — one ε
//! for the whole vector, not ε per bucket.

use prc_dp::budget::Epsilon;
use prc_dp::exponential::ExponentialMechanism;
use prc_dp::laplace::draw_centered;
use prc_dp::mechanism::Sensitivity;
// prc-lint: allow(B003, reason = "generic rng plumbing only; all draws happen inside prc-dp")
use rand::Rng;

use prc_net::base_station::BaseStation;

use crate::error::CoreError;
use crate::estimator::RangeCountEstimator;
use crate::query::RangeQuery;

/// A released, ε-differentially private histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivateHistogram {
    edges: Vec<f64>,
    counts: Vec<f64>,
    epsilon: Epsilon,
}

impl PrivateHistogram {
    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the histogram has no buckets.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Bucket edges (`len() + 1` values, ascending).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Noisy bucket counts (may be negative; clamping is post-processing
    /// the caller may apply).
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// The privacy budget this release consumed.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// `(low, high]` bounds of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        assert!(i < self.len(), "bucket index out of range");
        (self.edges[i], self.edges[i + 1])
    }

    /// Sum of all noisy counts.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// The noisy cumulative distribution at each right edge, normalized
    /// by [`PrivateHistogram::total`] and clamped to `[0, 1]`.
    pub fn cdf(&self) -> Vec<f64> {
        let total = self.total().max(f64::MIN_POSITIVE);
        let mut cumulative = 0.0;
        self.counts
            .iter()
            .map(|c| {
                cumulative += c;
                (cumulative / total).clamp(0.0, 1.0)
            })
            .collect()
    }

    /// Estimates the `q`-quantile by inverting the noisy CDF with linear
    /// interpolation inside the bucket. `q` is clamped to `[0, 1]`.
    ///
    /// Returns `None` for an empty histogram or a non-positive total.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.counts.is_empty() || self.total() <= 0.0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let cdf = self.cdf();
        let mut prev = 0.0;
        for (i, &c) in cdf.iter().enumerate() {
            if q <= c || i == cdf.len() - 1 {
                let (lo, hi) = self.bucket_bounds(i);
                let span = (c - prev).max(f64::MIN_POSITIVE);
                let frac = ((q - prev) / span).clamp(0.0, 1.0);
                return Some(lo + (hi - lo) * frac);
            }
            prev = c;
        }
        None
    }
}

/// Validates histogram edges: at least two, finite where required, strictly
/// ascending.
fn validate_edges(edges: &[f64]) -> Result<(), CoreError> {
    if edges.len() < 2 {
        return Err(CoreError::InvalidRange {
            l: f64::NAN,
            u: f64::NAN,
        });
    }
    for (&l, &u) in edges.iter().zip(edges.iter().skip(1)) {
        if l.is_nan() || u.is_nan() || l >= u {
            return Err(CoreError::InvalidRange { l, u });
        }
    }
    Ok(())
}

/// Raw (pre-noise) bucket estimates by prefix differencing.
fn bucket_estimates<E: RangeCountEstimator>(
    estimator: &E,
    station: &BaseStation,
    edges: &[f64],
) -> Result<Vec<f64>, CoreError> {
    validate_edges(edges)?;
    if station.node_count() == 0 {
        return Err(CoreError::NoSamples);
    }
    // Prefix estimates γ̂(−∞, e_i]; the first bucket also includes its
    // left edge, which the (−∞, e_0] prefix subtracts away — widen the
    // first prefix to just below e_0 instead.
    let mut prefixes = Vec::with_capacity(edges.len());
    for (i, &edge) in edges.iter().enumerate() {
        let upper = if i == 0 {
            // Everything strictly below the histogram's domain.
            edge.next_down()
        } else {
            edge
        };
        let query = RangeQuery::new(f64::NEG_INFINITY, upper)?;
        prefixes.push(estimator.estimate(station, query));
    }
    Ok(prefixes
        .iter()
        .zip(prefixes.iter().skip(1))
        .map(|(lo, hi)| hi - lo)
        .collect())
}

/// Builds an ε-differentially private histogram from the base station's
/// samples.
///
/// # Examples
///
/// ```
/// use prc_core::estimator::RankCounting;
/// use prc_core::histogram::private_histogram;
/// use prc_dp::budget::Epsilon;
/// use prc_dp::mechanism::Sensitivity;
/// use prc_net::network::FlatNetwork;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), prc_core::CoreError> {
/// let mut network = FlatNetwork::from_partitions(
///     vec![(0..1000).map(f64::from).collect()], 7);
/// network.collect_samples(0.5);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let histogram = private_histogram(
///     &RankCounting,
///     network.station(),
///     &[0.0, 250.0, 500.0, 750.0, 1000.0],
///     Epsilon::new(1.0)?,
///     Sensitivity::new(2.0)?,
///     &mut rng,
/// )?;
/// assert_eq!(histogram.len(), 4);
/// assert!(histogram.quantile(0.5).is_some());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`CoreError::InvalidRange`] — fewer than two edges, NaN edges, or a
///   non-ascending pair;
/// * [`CoreError::NoSamples`] — the station holds nothing;
/// * [`CoreError::Dp`] — `ε = 0`.
// prc-lint: allow(F001, reason = "standalone release API: the draws are paid for by the explicit epsilon argument the caller supplies, outside the broker's reservation ledger")
pub fn private_histogram<E, R>(
    estimator: &E,
    station: &BaseStation,
    edges: &[f64],
    epsilon: Epsilon,
    sensitivity: Sensitivity,
    rng: &mut R,
) -> Result<PrivateHistogram, CoreError>
where
    E: RangeCountEstimator,
    R: Rng + ?Sized,
{
    if epsilon.is_zero() {
        return Err(CoreError::Dp(prc_dp::DpError::InvalidEpsilon {
            value: 0.0,
        }));
    }
    let raw = bucket_estimates(estimator, station, edges)?;
    let scale = sensitivity.value() / epsilon.value();
    let mut counts = Vec::with_capacity(raw.len());
    for c in raw {
        counts.push(c + draw_centered(scale, rng)?);
    }
    Ok(PrivateHistogram {
        edges: edges.to_vec(),
        counts,
        epsilon,
    })
}

/// ε-differentially private *arg-max* bucket: selects the index of the
/// most loaded bucket via the exponential mechanism over the raw bucket
/// estimates — cheaper (in privacy) than releasing the whole histogram
/// when only the mode is needed.
///
/// # Errors
///
/// Same conditions as [`private_histogram`].
pub fn private_argmax_bucket<E, R>(
    estimator: &E,
    station: &BaseStation,
    edges: &[f64],
    epsilon: Epsilon,
    sensitivity: Sensitivity,
    rng: &mut R,
) -> Result<usize, CoreError>
where
    E: RangeCountEstimator,
    R: Rng + ?Sized,
{
    let raw = bucket_estimates(estimator, station, edges)?;
    let mechanism = ExponentialMechanism::new(epsilon, sensitivity)?;
    Ok(mechanism.select(&raw, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::RankCounting;
    use prc_net::network::FlatNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// Network whose values are 0..n spread over k nodes, fully sampled.
    fn exact_network(n: usize, k: usize) -> FlatNetwork {
        let parts: Vec<Vec<f64>> = (0..k)
            .map(|i| (0..n).filter(|j| j % k == i).map(|j| j as f64).collect())
            .collect();
        let mut net = FlatNetwork::from_partitions(parts, 1);
        net.collect_samples(1.0);
        net
    }

    #[test]
    fn histogram_counts_match_truth_with_generous_budget() {
        let net = exact_network(1_000, 4);
        let edges = [0.0, 250.0, 500.0, 750.0, 1_000.0];
        let mut rng = StdRng::seed_from_u64(3);
        let h = private_histogram(
            &RankCounting,
            net.station(),
            &edges,
            eps(1e6),
            Sensitivity::unit(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(h.len(), 4);
        // Buckets (left-open except the first): [0,250], (250,500], ...
        // With integer values 0..=999: 251, 250, 250, 249.
        let expect = [251.0, 250.0, 250.0, 249.0];
        for (c, e) in h.counts().iter().zip(expect) {
            assert!((c - e).abs() < 0.01, "count {c} vs {e}");
        }
        assert!((h.total() - 1_000.0).abs() < 0.1);
        assert_eq!(h.epsilon(), eps(1e6));
        assert_eq!(h.bucket_bounds(0), (0.0, 250.0));
    }

    #[test]
    fn buckets_partition_the_population_estimate() {
        // Even with sampling (p < 1), differenced buckets sum to the
        // full-domain estimate exactly.
        let parts: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..500).map(|j| (i * 500 + j) as f64).collect())
            .collect();
        let mut net = FlatNetwork::from_partitions(parts, 7);
        net.collect_samples(0.3);
        let edges = [0.0, 600.0, 1_200.0, 2_500.0];
        let raw = bucket_estimates(&RankCounting, net.station(), &edges).unwrap();
        // Telescoping invariant: the buckets sum to the estimate of the
        // whole domain (everything above the below-domain prefix).
        let full = RankCounting.estimate(
            net.station(),
            RangeQuery::new(f64::NEG_INFINITY, 2_500.0).unwrap(),
        );
        let below = RankCounting.estimate(
            net.station(),
            RangeQuery::new(f64::NEG_INFINITY, 0.0f64.next_down()).unwrap(),
        );
        assert!((raw.iter().sum::<f64>() - (full - below)).abs() < 1e-9);
    }

    #[test]
    fn noise_has_the_laplace_scale() {
        let net = exact_network(2_000, 4);
        let edges = [0.0, 1_000.0, 2_000.0];
        let e = 0.5;
        let mut rng = StdRng::seed_from_u64(11);
        let mut errors = Vec::new();
        for _ in 0..3_000 {
            let h = private_histogram(
                &RankCounting,
                net.station(),
                &edges,
                eps(e),
                Sensitivity::unit(),
                &mut rng,
            )
            .unwrap();
            errors.push(h.counts()[0] - 1_001.0); // truth of bucket 0
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let var = errors.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / errors.len() as f64;
        let theory = 2.0 / (e * e);
        assert!(mean.abs() < 0.3, "mean {mean}");
        assert!((var - theory).abs() / theory < 0.1, "var {var} vs {theory}");
    }

    #[test]
    fn cdf_and_quantiles_invert_sensibly() {
        let net = exact_network(10_000, 8);
        let edges: Vec<f64> = (0..=20).map(|i| i as f64 * 500.0).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let h = private_histogram(
            &RankCounting,
            net.station(),
            &edges,
            eps(10.0),
            Sensitivity::unit(),
            &mut rng,
        )
        .unwrap();
        let cdf = h.cdf();
        assert_eq!(cdf.len(), 20);
        assert!((cdf[19] - 1.0).abs() < 1e-12);
        // Uniform data: the median is near 5000.
        let median = h.quantile(0.5).unwrap();
        assert!((median - 5_000.0).abs() < 300.0, "median {median}");
        let q10 = h.quantile(0.1).unwrap();
        assert!((q10 - 1_000.0).abs() < 300.0, "q10 {q10}");
        assert!(h.quantile(0.0).unwrap() >= 0.0);
        assert!(h.quantile(1.0).unwrap() <= 10_000.0);
    }

    #[test]
    fn argmax_finds_the_heavy_bucket() {
        // Heavily skewed data: nearly everything in bucket 1.
        let mut values: Vec<f64> = (0..900).map(|i| 150.0 + (i % 100) as f64 / 2.0).collect();
        values.extend((0..100).map(|i| 400.0 + i as f64));
        let mut net = FlatNetwork::from_partitions(vec![values], 3);
        net.collect_samples(1.0);
        let edges = [0.0, 100.0, 300.0, 500.0];
        let mut rng = StdRng::seed_from_u64(9);
        let mut hits = 0;
        for _ in 0..200 {
            let idx = private_argmax_bucket(
                &RankCounting,
                net.station(),
                &edges,
                eps(1.0),
                Sensitivity::unit(),
                &mut rng,
            )
            .unwrap();
            if idx == 1 {
                hits += 1;
            }
        }
        assert!(
            hits > 190,
            "exponential mechanism should find the mode: {hits}/200"
        );
    }

    #[test]
    fn validation_errors() {
        let net = exact_network(100, 2);
        let mut rng = StdRng::seed_from_u64(0);
        // Too few edges.
        assert!(private_histogram(
            &RankCounting,
            net.station(),
            &[1.0],
            eps(1.0),
            Sensitivity::unit(),
            &mut rng
        )
        .is_err());
        // Non-ascending edges.
        assert!(private_histogram(
            &RankCounting,
            net.station(),
            &[0.0, 10.0, 5.0],
            eps(1.0),
            Sensitivity::unit(),
            &mut rng
        )
        .is_err());
        // Zero epsilon.
        assert!(private_histogram(
            &RankCounting,
            net.station(),
            &[0.0, 10.0],
            eps(0.0),
            Sensitivity::unit(),
            &mut rng
        )
        .is_err());
        // Empty station.
        let empty = prc_net::base_station::BaseStation::new();
        assert!(matches!(
            private_histogram(
                &RankCounting,
                &empty,
                &[0.0, 10.0],
                eps(1.0),
                Sensitivity::unit(),
                &mut rng
            ),
            Err(CoreError::NoSamples)
        ));
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = PrivateHistogram {
            edges: vec![0.0, 1.0],
            counts: vec![-3.0],
            epsilon: eps(1.0),
        };
        // Negative total: quantile is undefined.
        assert_eq!(h.quantile(0.5), None);
        assert!(!h.is_empty());
    }
}
