//! Arbitrage-consistent reuse of previously sold answers.
//!
//! A broker that caches a released noisy answer and serves it again for a
//! later request saves a sampling round and a privacy-budget charge — but
//! reuse interacts with the posted price curve. The cached answer was
//! produced for some demand `(α_c, δ_c)` and therefore carries variance
//! `V(α_c, δ_c)`; a later buyer paying the posted price `π(α_r, δ_r)` for
//! a (possibly looser) demand would, on reuse, receive an answer whose
//! *actual* variance is the cached one. If
//! `π(α_r, δ_r) < ψ(V(α_c, δ_c))` — the posted price of the precision
//! actually delivered — the buyer obtained information below its posted
//! price, which is exactly the discount that Definition 2.3's averaging
//! attacks monetize.
//!
//! [`PostedPriceReuse`] therefore allows a cache hit only when
//!
//! 1. the cached answer **satisfies** the request: `α_c ≤ α_r` and
//!    `δ_c ≥ δ_r` (the guarantee sold is at least as strict as the one
//!    asked for), and
//! 2. the posted curve is **not undercut**: `π(α_r, δ_r) ≥ ψ(V(α_c, δ_c))`
//!    up to a relative tolerance for floating-point noise.
//!
//! Because every compliant `ψ` is strictly decreasing in `v`, condition 1
//! (which implies `V_c ≤ V_r`) and condition 2 (`ψ(V_r) ≥ ψ(V_c)`, i.e.
//! `V_c ≥ V_r`) jointly force `V(α_r, δ_r) = V(α_c, δ_c)` — and under the
//! per-coordinate order of condition 1 that equality only holds for
//! *identical* demands. The guard still consults the concrete curve
//! rather than hard-coding that conclusion, so families with plateaus or
//! promotional segments get the reuse set their own curve implies.

use std::fmt::Debug;

use crate::functions::PricingFunction;
use crate::history::PrecisionPricing;
use crate::variance::VarianceModel;

/// Relative price tolerance absorbing floating-point noise in the
/// undercut comparison.
const PRICE_TOLERANCE: f64 = 1e-9;

/// An accuracy demand `(α, δ)` as seen by the pricing layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Relative error bound `α ∈ (0, 1)`.
    pub alpha: f64,
    /// Confidence `δ ∈ (0, 1)`.
    pub delta: f64,
}

impl Demand {
    /// Creates a demand.
    pub fn new(alpha: f64, delta: f64) -> Self {
        Demand { alpha, delta }
    }

    /// Whether this demand is at least as strict as `other` (smaller
    /// error bound, at least the confidence).
    pub fn at_least_as_strict_as(&self, other: &Demand) -> bool {
        self.alpha <= other.alpha && self.delta >= other.delta
    }
}

/// Decides whether serving a cached answer for a new request is
/// consistent with the posted price curve.
///
/// Implementations must be conservative: when in doubt, deny reuse (the
/// broker then answers fresh, which is always sound).
pub trait ReuseGuard: Debug {
    /// Whether an answer sold for `cached` may be re-served to a buyer
    /// paying the posted price of `requested`.
    fn allows_reuse(&self, requested: Demand, cached: Demand) -> bool;

    /// The posted price the new buyer pays, for bookkeeping.
    fn posted_price(&self, requested: Demand) -> f64;
}

/// The posted-curve guard: reuse is allowed iff the cached guarantee
/// covers the request and the request's posted price is no lower than the
/// posted price of the variance actually delivered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostedPriceReuse<F, M> {
    pricing: F,
    model: M,
}

impl<F, M> PostedPriceReuse<F, M>
where
    F: PricingFunction + PrecisionPricing,
    M: VarianceModel,
{
    /// Wraps a posted pricing function and its variance model.
    pub fn new(pricing: F, model: M) -> Self {
        PostedPriceReuse { pricing, model }
    }

    /// The underlying pricing function.
    pub fn pricing(&self) -> &F {
        &self.pricing
    }
}

impl<F, M> ReuseGuard for PostedPriceReuse<F, M>
where
    F: PricingFunction + PrecisionPricing + Debug,
    M: VarianceModel + Debug,
{
    fn allows_reuse(&self, requested: Demand, cached: Demand) -> bool {
        if !cached.at_least_as_strict_as(&requested) {
            return false;
        }
        let paid = self.pricing.price(requested.alpha, requested.delta);
        let delivered_variance = self.model.variance(cached.alpha, cached.delta);
        let delivered_precision = 1.0 / delivered_variance;
        let owed = self.pricing.price_of_precision(delivered_precision);
        paid >= owed * (1.0 - PRICE_TOLERANCE)
    }

    fn posted_price(&self, requested: Demand) -> f64 {
        self.pricing.price(requested.alpha, requested.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{InverseVariancePricing, SqrtPrecisionPricing};
    use crate::variance::ChebyshevVariance;

    fn model() -> ChebyshevVariance {
        ChebyshevVariance::new(10_000)
    }

    #[test]
    fn identical_demands_always_reuse() {
        let guard = PostedPriceReuse::new(InverseVariancePricing::new(1e6, model()), model());
        let d = Demand::new(0.1, 0.6);
        assert!(guard.allows_reuse(d, d));
        assert_eq!(guard.posted_price(d), guard.pricing().price(0.1, 0.6));
    }

    #[test]
    fn unsatisfying_cache_entry_is_rejected() {
        let guard = PostedPriceReuse::new(InverseVariancePricing::new(1e6, model()), model());
        // Cached answer is looser than the request in either coordinate.
        assert!(!guard.allows_reuse(Demand::new(0.05, 0.6), Demand::new(0.1, 0.6)));
        assert!(!guard.allows_reuse(Demand::new(0.1, 0.8), Demand::new(0.1, 0.6)));
    }

    #[test]
    fn inverse_variance_blocks_discounted_upgrades() {
        // The cached answer is strictly tighter than the request; under
        // π = c/V the looser request's price undercuts the delivered
        // precision, so the guard must refuse.
        let guard = PostedPriceReuse::new(InverseVariancePricing::new(1e6, model()), model());
        assert!(!guard.allows_reuse(Demand::new(0.2, 0.5), Demand::new(0.05, 0.9)));
    }

    #[test]
    fn reuse_set_is_exactly_identical_demands() {
        // Under a strictly decreasing ψ and the per-coordinate
        // satisfaction order, only the identical demand survives both
        // conditions — for the sqrt family just as for inverse-variance.
        let m = model();
        let guard = PostedPriceReuse::new(SqrtPrecisionPricing::new(1e3, m), m);
        let requested = Demand::new(0.1, 0.5);
        assert!(guard.allows_reuse(requested, requested));
        assert!(!guard.allows_reuse(requested, Demand::new(0.1, 0.502)));
        assert!(!guard.allows_reuse(requested, Demand::new(0.01, 0.99)));
        assert!(!guard.allows_reuse(requested, Demand::new(0.11, 0.5)));
    }
}
