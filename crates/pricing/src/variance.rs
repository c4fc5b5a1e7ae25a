//! Variance models `V(α, δ)`.
//!
//! Lemma 4.1 of the paper shows an arbitrage-avoiding price is a function
//! of the answer's variance alone: `π(α, δ) = ψ(V(α, δ))`. The canonical
//! link between an `(α, δ)` guarantee and a variance is Chebyshev's
//! inequality: a variable with variance `V = (αn)²(1−δ)` satisfies
//! `Pr[|X − truth| ≤ αn] ≥ 1 − V/(αn)² = δ` — so
//! [`ChebyshevVariance`] is the tightest variance a broker can certify
//! for an `(α, δ)` answer without distributional assumptions.

use crate::error::PricingError;

/// Maps an accuracy demand `(α, δ)` to the variance of the answer sold.
pub trait VarianceModel {
    /// The variance `V(α, δ)`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `α` or `δ` is outside `(0, 1)`.
    fn variance(&self, alpha: f64, delta: f64) -> f64;

    /// The confidence `δ` implied by variance `v` at error bound `α` —
    /// the partial inverse used when comparing bundles. Returns values
    /// possibly outside `(0, 1)`; callers must check.
    fn delta_for_variance(&self, alpha: f64, v: f64) -> f64;
}

/// The Chebyshev-tight model `V(α, δ) = (α·n)²·(1 − δ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChebyshevVariance {
    n: usize,
}

impl ChebyshevVariance {
    /// Creates the model for a population of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "population must be positive");
        ChebyshevVariance { n }
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PricingError::InvalidParameter`] if `n == 0`.
    pub fn try_new(n: usize) -> Result<Self, PricingError> {
        if n == 0 {
            return Err(PricingError::InvalidParameter {
                name: "population",
                value: 0.0,
            });
        }
        Ok(ChebyshevVariance { n })
    }

    /// The population size `n`.
    pub fn population(&self) -> usize {
        self.n
    }
}

/// Validates `(α, δ) ∈ (0, 1)²`, panicking otherwise.
pub(crate) fn assert_accuracy(alpha: f64, delta: f64) {
    assert!(
        alpha > 0.0 && alpha < 1.0 && alpha.is_finite(),
        "alpha must be in (0, 1), got {alpha}"
    );
    assert!(
        delta > 0.0 && delta < 1.0 && delta.is_finite(),
        "delta must be in (0, 1), got {delta}"
    );
}

impl VarianceModel for ChebyshevVariance {
    fn variance(&self, alpha: f64, delta: f64) -> f64 {
        assert_accuracy(alpha, delta);
        let t = alpha * self.n as f64;
        t * t * (1.0 - delta)
    }

    fn delta_for_variance(&self, alpha: f64, v: f64) -> f64 {
        let t = alpha * self.n as f64;
        1.0 - v / (t * t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_and_monotonicity() {
        let m = ChebyshevVariance::new(1_000);
        assert_eq!(m.population(), 1_000);
        // V = (0.1·1000)²·(1−0.5) = 5000.
        assert_eq!(m.variance(0.1, 0.5), 5_000.0);
        // Increasing δ tightens (lowers) the variance.
        assert!(m.variance(0.1, 0.9) < m.variance(0.1, 0.5));
        // Increasing α loosens (raises) it.
        assert!(m.variance(0.2, 0.5) > m.variance(0.1, 0.5));
    }

    #[test]
    fn chebyshev_self_consistency() {
        // A variable with variance V(α, δ) has Chebyshev confidence
        // exactly δ at tolerance αn.
        let m = ChebyshevVariance::new(17_568);
        let (alpha, delta) = (0.05, 0.8);
        let v = m.variance(alpha, delta);
        let t = alpha * 17_568.0;
        assert!(((1.0 - v / (t * t)) - delta).abs() < 1e-12);
    }

    #[test]
    fn delta_for_variance_inverts() {
        let m = ChebyshevVariance::new(500);
        for (a, d) in [(0.05, 0.5), (0.2, 0.9), (0.8, 0.01)] {
            let v = m.variance(a, d);
            assert!((m.delta_for_variance(a, v) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn constructors_validate() {
        assert!(ChebyshevVariance::try_new(0).is_err());
        assert!(ChebyshevVariance::try_new(5).is_ok());
    }

    #[test]
    #[should_panic(expected = "population")]
    fn zero_population_panics() {
        let _ = ChebyshevVariance::new(0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        ChebyshevVariance::new(10).variance(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn bad_delta_panics() {
        ChebyshevVariance::new(10).variance(0.5, 1.0);
    }
}
