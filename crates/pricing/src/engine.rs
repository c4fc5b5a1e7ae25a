//! The broker-facing pricing engine: quote → release → settle.
//!
//! The paper's marketplace is one transaction: a consumer's `(α, δ)`
//! demand is priced by the arbitrage-avoiding curve `π = ψ(V)`
//! (Theorem 4.1), the private answer is produced, and the sale is
//! settled in the ledger. [`PricingEngine`] is the seam the broker's
//! query pipeline drives that transaction through:
//!
//! 1. **Admit** calls [`PricingEngine::quote_for`] with the buyer and the
//!    range — the demand is validated, certified free of averaging
//!    arbitrage (Definition 2.3, via the [`crate::arbitrage`] simulator),
//!    and priced;
//! 2. the broker runs its private pipeline (reserve → collect →
//!    estimate → perturb);
//! 3. **Settle** calls [`PricingEngine::settle`] with the released
//!    answer's [`PlanSummary`] (its budgets, scale and noise variance as
//!    numbers), which the ledger records alongside the sale.
//!
//! [`PostedPriceEngine`] is the canonical implementation: a posted price
//! curve over a variance model, with per-demand arbitrage certification
//! memoized so each distinct demand pays the (deterministic, seeded)
//! simulator cost once. [`crate::history::HistoryAwarePricing`] wraps it
//! and charges each buyer the marginal price of what they already hold.

use std::collections::BTreeSet;
use std::fmt::Debug;

use crate::arbitrage::{find_arbitrage, AttackConfig};
use crate::error::PricingError;
use crate::functions::PricingFunction;
use crate::ledger::{PlanSummary, TradeLedger};
use crate::reuse::Demand;
use crate::variance::VarianceModel;

/// A priced offer for one demand, returned by [`PricingEngine::quote`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quote {
    /// The demand quoted.
    pub demand: Demand,
    /// The price of the demand: the posted price, or for a history-aware
    /// engine the buyer's marginal price.
    pub price: f64,
    /// The variance the model promises an answer at this demand.
    pub variance: f64,
}

/// The broker's report of one released answer, consumed by
/// [`PricingEngine::settle`]. It borrows the buyer's name, so building
/// one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settlement<'a> {
    /// The purchasing consumer.
    pub buyer: &'a str,
    /// The bits of the queried range's bounds, `[lower, upper]`, with a
    /// `−0.0` bound read as `+0.0` (so one range has one key).
    pub range: [u64; 2],
    /// The demand that was quoted and answered.
    pub demand: Demand,
    /// The price quoted at admission (what the buyer pays).
    pub price: f64,
    /// Perturbation-plan summary of the released answer, including its
    /// Laplace noise variance.
    pub plan: PlanSummary,
}

/// A pricing authority the broker's query pipeline can transact with.
///
/// `quote` runs at the pipeline's Admit stage, before any budget is
/// reserved or sample collected; `settle` runs at the Settle stage,
/// after the noisy answer is released. Implementations must be
/// deterministic for a given construction (no wall-clock, no unseeded
/// randomness) so priced answer streams stay reproducible.
pub trait PricingEngine: Debug {
    /// Validates, certifies, and prices a demand.
    ///
    /// # Errors
    ///
    /// * [`PricingError::InvalidAccuracy`] — the demand is outside
    ///   `(0, 1) × (0, 1)`;
    /// * [`PricingError::ArbitrageDetected`] — the posted curve is
    ///   exploitable at this demand, so the engine refuses to sell.
    fn quote(&mut self, demand: Demand) -> Result<Quote, PricingError>;

    /// Prices `demand` for `buyer` over the range with bound bits
    /// `range` (as in [`Settlement::range`]); Admit calls this. The
    /// default is [`PricingEngine::quote`]. A wrapping engine must
    /// forward it, or the inner engine's history is lost.
    ///
    /// # Errors
    ///
    /// As [`PricingEngine::quote`].
    fn quote_for(
        &mut self,
        _buyer: &str,
        _range: [u64; 2],
        demand: Demand,
    ) -> Result<Quote, PricingError> {
        self.quote(demand)
    }

    /// Records a completed sale in the ledger and returns its sequence
    /// number.
    fn settle(&mut self, settlement: Settlement<'_>) -> u64;

    /// The ledger of settled sales.
    fn ledger(&self) -> &TradeLedger;
}

/// Posted-price engine over a pricing function and its variance model.
///
/// Every distinct demand is certified against the averaging-arbitrage
/// simulator on first quote; the certification (keyed by the exact bit
/// patterns of `(α, δ)`) is memoized, so a workload that re-quotes the
/// same demand pays the simulator once. The simulator is seeded through
/// [`AttackConfig`], keeping quotes deterministic.
///
/// # Examples
///
/// ```
/// use prc_pricing::engine::{PostedPriceEngine, PricingEngine, Settlement};
/// use prc_pricing::functions::InverseVariancePricing;
/// use prc_pricing::ledger::PlanSummary;
/// use prc_pricing::reuse::Demand;
/// use prc_pricing::variance::ChebyshevVariance;
///
/// let model = ChebyshevVariance::new(10_000);
/// let mut engine = PostedPriceEngine::new(InverseVariancePricing::new(1e6, model), model);
/// let quote = engine.quote(Demand::new(0.05, 0.8)).unwrap();
/// assert!(quote.price > 0.0);
/// let plan = PlanSummary {
///     epsilon: 0.9,
///     effective_epsilon: 0.4,
///     sensitivity: 1.2,
///     noise_scale: 1.2 / 0.9,
///     noise_variance: 2.0 * (1.2f64 / 0.9).powi(2),
///     probability: 0.4,
/// };
/// let seq = engine.settle(Settlement {
///     buyer: "alice",
///     range: [80f64.to_bits(), 120f64.to_bits()],
///     demand: quote.demand,
///     price: quote.price,
///     plan,
/// });
/// assert_eq!(seq, 0);
/// assert_eq!(engine.ledger().len(), 1);
/// let record = engine.ledger().records()[0];
/// assert_eq!(engine.ledger().buyers()[record.buyer], "alice");
/// assert_eq!(record.plan.to_string(), plan.to_string());
/// ```
#[derive(Debug)]
pub struct PostedPriceEngine<F, M> {
    pricing: F,
    pub(crate) model: M,
    certified: BTreeSet<(u64, u64)>,
    ledger: TradeLedger,
}

impl<F, M> PostedPriceEngine<F, M>
where
    F: PricingFunction,
    M: VarianceModel,
{
    /// Wraps a posted pricing function and its variance model.
    pub fn new(pricing: F, model: M) -> Self {
        PostedPriceEngine {
            pricing,
            model,
            certified: BTreeSet::new(),
            ledger: TradeLedger::new(),
        }
    }

    /// The underlying pricing function.
    pub fn pricing(&self) -> &F {
        &self.pricing
    }

    /// Number of distinct demands certified arbitrage-free so far.
    pub fn certified_demands(&self) -> usize {
        self.certified.len()
    }
}

impl<F, M> PricingEngine for PostedPriceEngine<F, M>
where
    F: PricingFunction + Debug,
    M: VarianceModel + Debug,
{
    fn quote(&mut self, demand: Demand) -> Result<Quote, PricingError> {
        let (alpha, delta) = (demand.alpha, demand.delta);
        if !(alpha > 0.0 && alpha < 1.0 && delta > 0.0 && delta < 1.0) {
            return Err(PricingError::InvalidAccuracy { alpha, delta });
        }
        let key = (alpha.to_bits(), delta.to_bits());
        if !self.certified.contains(&key) {
            let attacks = find_arbitrage(
                &self.pricing,
                &self.model,
                &[(alpha, delta)],
                &AttackConfig::default(),
            );
            if let Some(attack) = attacks.first() {
                return Err(PricingError::ArbitrageDetected {
                    alpha,
                    delta,
                    target_price: attack.target_price,
                    bundle_cost: attack.bundle_cost,
                });
            }
            self.certified.insert(key);
        }
        Ok(Quote {
            demand,
            price: self.pricing.price(alpha, delta),
            variance: self.model.variance(alpha, delta),
        })
    }

    fn settle(&mut self, settlement: Settlement<'_>) -> u64 {
        self.ledger.record_settlement(
            settlement.buyer,
            settlement.demand.alpha,
            settlement.demand.delta,
            settlement.price,
            settlement.plan,
        )
    }

    fn ledger(&self) -> &TradeLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{InverseVariancePricing, LinearDeltaPricing};
    use crate::variance::ChebyshevVariance;

    fn engine() -> PostedPriceEngine<InverseVariancePricing<ChebyshevVariance>, ChebyshevVariance> {
        let model = ChebyshevVariance::new(10_000);
        PostedPriceEngine::new(InverseVariancePricing::new(1e6, model), model)
    }

    #[test]
    fn quotes_match_the_posted_curve() {
        let mut e = engine();
        let demand = Demand::new(0.05, 0.8);
        let quote = e.quote(demand).unwrap();
        assert_eq!(quote.price, e.pricing().price(0.05, 0.8));
        assert_eq!(
            quote.variance,
            ChebyshevVariance::new(10_000).variance(0.05, 0.8)
        );
        assert_eq!(quote.demand, demand);
    }

    #[test]
    fn certification_is_memoized_per_demand() {
        let mut e = engine();
        assert_eq!(e.certified_demands(), 0);
        e.quote(Demand::new(0.05, 0.8)).unwrap();
        assert_eq!(e.certified_demands(), 1);
        // Re-quoting the same demand does not grow the certified set.
        e.quote(Demand::new(0.05, 0.8)).unwrap();
        assert_eq!(e.certified_demands(), 1);
        e.quote(Demand::new(0.1, 0.5)).unwrap();
        assert_eq!(e.certified_demands(), 2);
    }

    #[test]
    fn invalid_demands_are_rejected() {
        let mut e = engine();
        assert!(matches!(
            e.quote(Demand::new(0.0, 0.8)),
            Err(PricingError::InvalidAccuracy { .. })
        ));
        assert!(matches!(
            e.quote(Demand::new(0.1, 1.0)),
            Err(PricingError::InvalidAccuracy { .. })
        ));
        assert_eq!(e.certified_demands(), 0);
    }

    #[test]
    fn exploitable_curves_are_refused_at_quote_time() {
        let model = ChebyshevVariance::new(10_000);
        let mut e = PostedPriceEngine::new(LinearDeltaPricing::new(10.0), model);
        let err = e.quote(Demand::new(0.05, 0.8)).unwrap_err();
        match err {
            PricingError::ArbitrageDetected {
                target_price,
                bundle_cost,
                ..
            } => assert!(bundle_cost < target_price),
            other => panic!("expected ArbitrageDetected, got {other:?}"),
        }
        assert_eq!(e.certified_demands(), 0);
    }

    #[test]
    fn settlements_land_in_the_ledger() {
        let mut e = engine();
        let quote = e.quote(Demand::new(0.05, 0.8)).unwrap();
        let plan = PlanSummary {
            epsilon: 1.0,
            effective_epsilon: 0.5,
            sensitivity: 1.1,
            noise_scale: 1.1,
            noise_variance: 2.5,
            probability: 0.5,
        };
        let seq = e.settle(Settlement {
            buyer: "alice",
            range: [0, 1],
            demand: quote.demand,
            price: quote.price,
            plan,
        });
        assert_eq!(seq, 0);
        let record = &e.ledger().records()[0];
        assert_eq!(e.ledger().buyers()[record.buyer], "alice");
        assert_eq!(record.plan.noise_variance, 2.5);
        assert!((record.price - quote.price).abs() < 1e-12);
    }

    #[test]
    fn quotes_are_deterministic() {
        let run = || {
            let mut e = engine();
            let q = e.quote(Demand::new(0.07, 0.75)).unwrap();
            q.price.to_bits()
        };
        assert_eq!(run(), run());
    }
}
