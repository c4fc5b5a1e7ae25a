//! Pricing function families.
//!
//! All compliant functions factor through the variance (`π = ψ(V)`,
//! Lemma 4.1) and differ in the shape of `ψ`:
//!
//! | function | ψ(v) | Theorem 4.2 (literal) | Definition 2.3 (operational) |
//! |---|---|---|---|
//! | [`InverseVariancePricing`] | `c/v` | ✔ (the unique shape) | ✔ |
//! | [`SqrtPrecisionPricing`] | `c/√v` | ✘ (fails Property 2) | ✔ |
//! | [`LogPrecisionPricing`] | `c·ln(1 + 1/v)` | ✘ (fails Property 2) | ✔ |
//! | [`LinearDeltaPricing`] | — (not a function of V) | ✘ (fails Property 1) | ✘ |
//!
//! Operational safety of the precision families: write `f(w) = ψ(1/w)`
//! over precision `w = 1/v`. `ψ(v)·v` non-decreasing in `v` is equivalent
//! to `f(w)/w` non-increasing in `w`, which makes `f` subadditive; a
//! bundle of answers whose equal-weight average reaches variance `v`
//! then always costs at least `ψ(v)` (the argument behind Theorem 4.2's
//! sufficiency proof, and validated exhaustively by the attack simulator
//! in [`crate::arbitrage`]).

use crate::variance::{assert_accuracy, VarianceModel};
use crate::PricingError;

/// A pricing function `π(α, δ)` for range-counting answers.
pub trait PricingFunction {
    /// Short human-readable name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// The price of one `(α, δ)` answer.
    ///
    /// # Panics
    ///
    /// Panics when `α` or `δ` is outside `(0, 1)`.
    fn price(&self, alpha: f64, delta: f64) -> f64;
}

/// Validates a pricing coefficient.
fn check_coefficient(value: f64) -> Result<f64, PricingError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(PricingError::InvalidParameter {
            name: "coefficient",
            value,
        });
    }
    Ok(value)
}

/// The canonical arbitrage-avoiding price `π = c/V(α, δ)` — the unique
/// shape satisfying Theorem 4.2 as literally stated (Properties 2 and 3
/// jointly pin `π·V` constant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverseVariancePricing<M> {
    coefficient: f64,
    model: M,
}

impl<M: VarianceModel> InverseVariancePricing<M> {
    /// Creates the pricing function.
    ///
    /// # Panics
    ///
    /// Panics unless `coefficient` is finite and positive.
    pub fn new(coefficient: f64, model: M) -> Self {
        // prc-lint: allow(P002, reason = "documented panicking convenience; fallible twin is try_new")
        Self::try_new(coefficient, model).expect("invalid pricing coefficient")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PricingError::InvalidParameter`] for a non-positive or
    /// non-finite coefficient.
    pub fn try_new(coefficient: f64, model: M) -> Result<Self, PricingError> {
        Ok(InverseVariancePricing {
            coefficient: check_coefficient(coefficient)?,
            model,
        })
    }

    /// The underlying variance model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The price of an answer with raw variance `v` (the `ψ` view).
    pub fn price_of_variance(&self, v: f64) -> f64 {
        self.coefficient / v
    }
}

impl<M: VarianceModel> PricingFunction for InverseVariancePricing<M> {
    fn name(&self) -> &'static str {
        "InverseVariance"
    }

    fn price(&self, alpha: f64, delta: f64) -> f64 {
        self.price_of_variance(self.model.variance(alpha, delta))
    }
}

/// The square-root-precision price `π = c/√V(α, δ)`.
///
/// Operationally arbitrage-avoiding (its precision form `f(w) = c·√w` is
/// concave, hence subadditive) but **rejected by the literal Theorem 4.2
/// checker**: moving along the δ axis it violates Property 2, because the
/// theorem's printed relative-difference bounds force `π·V` to be
/// simultaneously non-increasing (Property 2) and non-decreasing
/// (Property 3) in `V`. See DESIGN.md §3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqrtPrecisionPricing<M> {
    coefficient: f64,
    model: M,
}

impl<M: VarianceModel> SqrtPrecisionPricing<M> {
    /// Creates the pricing function.
    ///
    /// # Panics
    ///
    /// Panics unless `coefficient` is finite and positive.
    pub fn new(coefficient: f64, model: M) -> Self {
        // prc-lint: allow(P002, reason = "documented panicking convenience; fallible twin is try_new")
        Self::try_new(coefficient, model).expect("invalid pricing coefficient")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PricingError::InvalidParameter`] for a non-positive or
    /// non-finite coefficient.
    pub fn try_new(coefficient: f64, model: M) -> Result<Self, PricingError> {
        Ok(SqrtPrecisionPricing {
            coefficient: check_coefficient(coefficient)?,
            model,
        })
    }

    /// The price of an answer with raw variance `v`.
    pub fn price_of_variance(&self, v: f64) -> f64 {
        self.coefficient / v.sqrt()
    }
}

impl<M: VarianceModel> PricingFunction for SqrtPrecisionPricing<M> {
    fn name(&self) -> &'static str {
        "SqrtPrecision"
    }

    fn price(&self, alpha: f64, delta: f64) -> f64 {
        self.price_of_variance(self.model.variance(alpha, delta))
    }
}

/// The log-precision price `π = c·ln(1 + 1/V(α, δ))` — a bounded-revenue
/// family whose precision form `f(w) = c·ln(1 + w)` is concave, hence
/// operationally arbitrage-avoiding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogPrecisionPricing<M> {
    coefficient: f64,
    model: M,
}

impl<M: VarianceModel> LogPrecisionPricing<M> {
    /// Creates the pricing function.
    ///
    /// # Panics
    ///
    /// Panics unless `coefficient` is finite and positive.
    pub fn new(coefficient: f64, model: M) -> Self {
        // prc-lint: allow(P002, reason = "documented panicking convenience; fallible twin is try_new")
        Self::try_new(coefficient, model).expect("invalid pricing coefficient")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PricingError::InvalidParameter`] for a non-positive or
    /// non-finite coefficient.
    pub fn try_new(coefficient: f64, model: M) -> Result<Self, PricingError> {
        Ok(LogPrecisionPricing {
            coefficient: check_coefficient(coefficient)?,
            model,
        })
    }

    /// The price of an answer with raw variance `v`.
    pub fn price_of_variance(&self, v: f64) -> f64 {
        self.coefficient * (1.0 / v).ln_1p()
    }
}

impl<M: VarianceModel> PricingFunction for LogPrecisionPricing<M> {
    fn name(&self) -> &'static str {
        "LogPrecision"
    }

    fn price(&self, alpha: f64, delta: f64) -> f64 {
        self.price_of_variance(self.model.variance(alpha, delta))
    }
}

/// A deliberately **broken** pricing function, `π = c·δ/α`, used to
/// validate the attack simulator: it is monotone the right way (price
/// rises with δ, falls with α) yet is not a function of the variance, so
/// Example 4.1's averaging attack beats it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearDeltaPricing {
    coefficient: f64,
}

impl LinearDeltaPricing {
    /// Creates the pricing function.
    ///
    /// # Panics
    ///
    /// Panics unless `coefficient` is finite and positive.
    pub fn new(coefficient: f64) -> Self {
        // prc-lint: allow(P002, reason = "documented panicking convenience; fallible twin is try_new")
        Self::try_new(coefficient).expect("invalid pricing coefficient")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`PricingError::InvalidParameter`] for a non-positive or
    /// non-finite coefficient.
    pub fn try_new(coefficient: f64) -> Result<Self, PricingError> {
        Ok(LinearDeltaPricing {
            coefficient: check_coefficient(coefficient)?,
        })
    }
}

impl PricingFunction for LinearDeltaPricing {
    fn name(&self) -> &'static str {
        "LinearDelta(broken)"
    }

    fn price(&self, alpha: f64, delta: f64) -> f64 {
        assert_accuracy(alpha, delta);
        self.coefficient * delta / alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variance::ChebyshevVariance;

    fn model() -> ChebyshevVariance {
        ChebyshevVariance::new(10_000)
    }

    #[test]
    fn inverse_variance_formula() {
        let p = InverseVariancePricing::new(100.0, model());
        let v = model().variance(0.1, 0.5);
        assert_eq!(p.price(0.1, 0.5), 100.0 / v);
        assert_eq!(p.price_of_variance(4.0), 25.0);
        assert_eq!(p.name(), "InverseVariance");
        assert_eq!(p.model().population(), 10_000);
    }

    #[test]
    fn all_functions_are_monotone_the_right_way() {
        let inv = InverseVariancePricing::new(1.0, model());
        let sqrt = SqrtPrecisionPricing::new(1.0, model());
        let log = LogPrecisionPricing::new(1.0, model());
        let lin = LinearDeltaPricing::new(1.0);
        let check = |f: &dyn PricingFunction| {
            // Price decreases as α loosens.
            assert!(
                f.price(0.05, 0.5) > f.price(0.2, 0.5),
                "{}: price must fall with alpha",
                f.name()
            );
            // Price increases with confidence δ.
            assert!(
                f.price(0.1, 0.9) > f.price(0.1, 0.4),
                "{}: price must rise with delta",
                f.name()
            );
            assert!(f.price(0.1, 0.5) > 0.0);
        };
        check(&inv);
        check(&sqrt);
        check(&log);
        check(&lin);
    }

    #[test]
    fn price_times_variance_shapes() {
        // ψ(v)·v: constant for inverse, increasing for sqrt and log.
        let m = model();
        let inv = InverseVariancePricing::new(1.0, m);
        let sqrt = SqrtPrecisionPricing::new(1.0, m);
        let log = LogPrecisionPricing::new(1.0, m);
        let v1 = 10.0;
        let v2 = 1_000.0;
        assert!((inv.price_of_variance(v1) * v1 - inv.price_of_variance(v2) * v2).abs() < 1e-12);
        assert!(sqrt.price_of_variance(v2) * v2 > sqrt.price_of_variance(v1) * v1);
        assert!(log.price_of_variance(v2) * v2 > log.price_of_variance(v1) * v1);
    }

    #[test]
    fn sqrt_precision_is_subadditive_under_duplication() {
        // m copies at variance m·v average to variance v; the bundle must
        // not be cheaper than one answer of variance v.
        let sqrt = SqrtPrecisionPricing::new(7.0, model());
        for m in [2usize, 3, 10, 50] {
            let v = 500.0;
            let bundle = m as f64 * sqrt.price_of_variance(m as f64 * v);
            let single = sqrt.price_of_variance(v);
            assert!(bundle >= single - 1e-9, "m={m}: {bundle} < {single}");
        }
    }

    #[test]
    fn coefficient_validation() {
        assert!(InverseVariancePricing::try_new(0.0, model()).is_err());
        assert!(InverseVariancePricing::try_new(f64::NAN, model()).is_err());
        assert!(InverseVariancePricing::try_new(5.0, model()).is_ok());
        assert!(SqrtPrecisionPricing::try_new(-2.0, model()).is_err());
        assert!(SqrtPrecisionPricing::try_new(2.0, model()).is_ok());
        assert!(LogPrecisionPricing::try_new(f64::INFINITY, model()).is_err());
        assert!(LogPrecisionPricing::try_new(1.0, model()).is_ok());
        assert!(LinearDeltaPricing::try_new(0.0).is_err());
        assert!(LinearDeltaPricing::try_new(3.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "coefficient")]
    fn negative_coefficient_panics() {
        let _ = SqrtPrecisionPricing::new(-1.0, model());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn linear_delta_validates_inputs() {
        LinearDeltaPricing::new(1.0).price(1.5, 0.5);
    }
}
