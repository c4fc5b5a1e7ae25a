//! Differentially private quantile estimation by noisy binary search.
//!
//! The second aggregate of the paper's reference \[6\] (*"Approximate
//! aggregation for tracking quantiles and range countings in wireless
//! sensor networks"*): the `q`-quantile of the distributed data. We
//! estimate it with a noisy binary search over private prefix counts —
//! each probe asks the RankCounting estimator for `γ̂(−∞, mid]`, perturbs
//! it with Laplace noise scaled to a per-step share of the budget, and
//! branches on the comparison with `q·n̂`. With `s` steps the whole
//! search is `ε`-differentially private by sequential composition of the
//! `ε/s` probes.

use prc_dp::budget::Epsilon;
use prc_dp::laplace::draw_centered;
use prc_dp::mechanism::Sensitivity;
// prc-lint: allow(B003, reason = "generic rng plumbing only; all draws happen inside prc-dp")
use rand::Rng;

use prc_net::base_station::BaseStation;

use crate::error::CoreError;
use crate::estimator::RangeCountEstimator;
use crate::query::RangeQuery;

/// Configuration of the noisy binary search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileConfig {
    /// Inclusive search domain for the quantile value.
    pub domain: (f64, f64),
    /// Number of bisection steps (each spends `ε/steps`).
    pub steps: usize,
    /// Total privacy budget for the whole search.
    pub epsilon: Epsilon,
    /// Sensitivity of one prefix count (the paper's expected `1/p` or a
    /// conservative choice).
    pub sensitivity: Sensitivity,
}

/// A released private quantile estimate with its search diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivateQuantile {
    /// The quantile level `q` that was asked.
    pub q: f64,
    /// The released value estimate.
    pub value: f64,
    /// The total budget consumed.
    pub epsilon: Epsilon,
    /// Number of probes performed.
    pub steps: usize,
}

/// Estimates the `q`-quantile of the distributed data privately.
///
/// `q` must lie in `(0, 1)`. Returns the bisection midpoint after
/// `config.steps` noisy probes.
///
/// # Examples
///
/// ```
/// use prc_core::estimator::RankCounting;
/// use prc_core::quantile::{private_quantile, QuantileConfig};
/// use prc_dp::budget::Epsilon;
/// use prc_dp::mechanism::Sensitivity;
/// use prc_net::network::{FlatNetwork, Network};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), prc_core::CoreError> {
/// let mut network = FlatNetwork::from_partitions(
///     vec![(0..10_000).map(f64::from).collect()], 3);
/// network.collect_samples(1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let config = QuantileConfig {
///     domain: (0.0, 10_000.0),
///     steps: 20,
///     epsilon: Epsilon::new(20.0)?,
///     sensitivity: Sensitivity::new(1.0)?,
/// };
/// let median = private_quantile(&RankCounting, network.station(), 0.5, &config, &mut rng)?;
/// assert!((median.value - 5_000.0).abs() < 500.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`CoreError::InvalidAccuracy`] — `q ∉ (0, 1)`;
/// * [`CoreError::InvalidRange`] — an invalid search domain or
///   `steps = 0`;
/// * [`CoreError::NoSamples`] — the station holds nothing;
/// * [`CoreError::Dp`] — `ε = 0`.
// prc-lint: allow(F001, reason = "standalone release API: the draws are paid for by the explicit epsilon in the caller's QuantileConfig, outside the broker's reservation ledger")
pub fn private_quantile<E, R>(
    estimator: &E,
    station: &BaseStation,
    q: f64,
    config: &QuantileConfig,
    rng: &mut R,
) -> Result<PrivateQuantile, CoreError>
where
    E: RangeCountEstimator,
    R: Rng + ?Sized,
{
    if !(q > 0.0 && q < 1.0) {
        return Err(CoreError::InvalidAccuracy { alpha: q, delta: q });
    }
    let (mut lo, mut hi) = config.domain;
    if lo.is_nan() || hi.is_nan() || lo >= hi || config.steps == 0 {
        return Err(CoreError::InvalidRange { l: lo, u: hi });
    }
    if station.node_count() == 0 || station.total_population() == 0 {
        return Err(CoreError::NoSamples);
    }
    if config.epsilon.is_zero() {
        return Err(CoreError::Dp(prc_dp::DpError::InvalidEpsilon {
            value: 0.0,
        }));
    }

    let per_step = config.epsilon.value() / config.steps as f64;
    let noise_scale = config.sensitivity.value() / per_step;
    let target = q * station.total_population() as f64;

    for _ in 0..config.steps {
        let mid = 0.5 * (lo + hi);
        let prefix = estimator.estimate(station, RangeQuery::new(f64::NEG_INFINITY, mid)?);
        let noisy_prefix = prefix + draw_centered(noise_scale, rng)?;
        if noisy_prefix < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    Ok(PrivateQuantile {
        q,
        value: 0.5 * (lo + hi),
        epsilon: config.epsilon,
        steps: config.steps,
    })
}

/// Estimates several quantiles, splitting the budget evenly across them
/// (sequential composition: the whole release is `ε`-DP).
///
/// # Errors
///
/// Propagates [`private_quantile`]'s errors; `qs` must be non-empty.
pub fn private_quantiles<E, R>(
    estimator: &E,
    station: &BaseStation,
    qs: &[f64],
    config: &QuantileConfig,
    rng: &mut R,
) -> Result<Vec<PrivateQuantile>, CoreError>
where
    E: RangeCountEstimator,
    R: Rng + ?Sized,
{
    if qs.is_empty() {
        return Err(CoreError::InvalidAccuracy {
            alpha: f64::NAN,
            delta: f64::NAN,
        });
    }
    let per_quantile = QuantileConfig {
        epsilon: Epsilon::new(config.epsilon.value() / qs.len() as f64)?,
        ..*config
    };
    qs.iter()
        .map(|&q| private_quantile(estimator, station, q, &per_quantile, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::RankCounting;
    use prc_net::network::{FlatNetwork, Network};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(epsilon: f64) -> QuantileConfig {
        QuantileConfig {
            domain: (0.0, 10_000.0),
            steps: 25,
            epsilon: Epsilon::new(epsilon).unwrap(),
            sensitivity: Sensitivity::unit(),
        }
    }

    fn uniform_network(n: usize, k: usize, p: f64, seed: u64) -> FlatNetwork {
        let parts: Vec<Vec<f64>> = (0..k)
            .map(|i| (0..n).filter(|j| j % k == i).map(|j| j as f64).collect())
            .collect();
        let mut net = FlatNetwork::from_partitions(parts, seed);
        net.collect_samples(p);
        net
    }

    #[test]
    fn median_of_uniform_data_is_found() {
        let net = uniform_network(10_000, 8, 1.0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let result =
            private_quantile(&RankCounting, net.station(), 0.5, &config(50.0), &mut rng).unwrap();
        assert!(
            (result.value - 5_000.0).abs() < 100.0,
            "median {} should be near 5000",
            result.value
        );
        assert_eq!(result.steps, 25);
        assert_eq!(result.q, 0.5);
    }

    #[test]
    fn extreme_quantiles_land_in_the_right_region() {
        let net = uniform_network(10_000, 8, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let q05 =
            private_quantile(&RankCounting, net.station(), 0.05, &config(50.0), &mut rng).unwrap();
        let q95 =
            private_quantile(&RankCounting, net.station(), 0.95, &config(50.0), &mut rng).unwrap();
        assert!(q05.value < 1_000.0, "q05 {}", q05.value);
        assert!(q95.value > 9_000.0, "q95 {}", q95.value);
    }

    #[test]
    fn works_under_sampling() {
        // With p < 1 the prefix estimates are noisy even before the DP
        // noise; the search still converges near the truth.
        let net = uniform_network(10_000, 10, 0.3, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let result =
            private_quantile(&RankCounting, net.station(), 0.5, &config(20.0), &mut rng).unwrap();
        assert!(
            (result.value - 5_000.0).abs() < 600.0,
            "sampled median {}",
            result.value
        );
    }

    #[test]
    fn stricter_budget_is_noisier() {
        // Spread of the median estimate grows as ε shrinks.
        let spread = |epsilon: f64| {
            let net = uniform_network(5_000, 5, 1.0, 9);
            let mut rng = StdRng::seed_from_u64(10);
            let mut values = Vec::new();
            for _ in 0..60 {
                let r = private_quantile(
                    &RankCounting,
                    net.station(),
                    0.5,
                    &QuantileConfig {
                        domain: (0.0, 5_000.0),
                        ..config(epsilon)
                    },
                    &mut rng,
                )
                .unwrap();
                values.push(r.value);
            }
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64
        };
        let tight_budget = spread(100.0);
        let loose_budget = spread(0.05);
        assert!(
            loose_budget > tight_budget * 3.0,
            "ε=0.05 spread {loose_budget} should dwarf ε=100 spread {tight_budget}"
        );
    }

    #[test]
    fn multiple_quantiles_split_the_budget() {
        let net = uniform_network(8_000, 8, 1.0, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let results = private_quantiles(
            &RankCounting,
            net.station(),
            &[0.25, 0.5, 0.75],
            &config(90.0),
            &mut rng,
        )
        .unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!((r.epsilon.value() - 30.0).abs() < 1e-12);
        }
        assert!(results[0].value < results[1].value);
        assert!(results[1].value < results[2].value);
    }

    #[test]
    fn validation_errors() {
        let net = uniform_network(100, 2, 1.0, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let c = config(1.0);
        for bad_q in [0.0, 1.0, -0.5, f64::NAN] {
            assert!(private_quantile(&RankCounting, net.station(), bad_q, &c, &mut rng).is_err());
        }
        let bad_domain = QuantileConfig {
            domain: (5.0, 5.0),
            ..c
        };
        assert!(
            private_quantile(&RankCounting, net.station(), 0.5, &bad_domain, &mut rng).is_err()
        );
        let zero_steps = QuantileConfig { steps: 0, ..c };
        assert!(
            private_quantile(&RankCounting, net.station(), 0.5, &zero_steps, &mut rng).is_err()
        );
        let zero_eps = QuantileConfig {
            epsilon: Epsilon::new(0.0).unwrap(),
            ..c
        };
        assert!(private_quantile(&RankCounting, net.station(), 0.5, &zero_eps, &mut rng).is_err());
        let empty = prc_net::base_station::BaseStation::new();
        assert!(matches!(
            private_quantile(&RankCounting, &empty, 0.5, &c, &mut rng),
            Err(CoreError::NoSamples)
        ));
        assert!(private_quantiles(&RankCounting, net.station(), &[], &c, &mut rng).is_err());
    }
}
