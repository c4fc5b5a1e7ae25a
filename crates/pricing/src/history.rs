//! History-aware (marginal-information) pricing.
//!
//! The paper prices each answer independently; Definition 2.3 then has to
//! rule out bundle arbitrage *inequality by inequality*. A stronger
//! discipline from the query-pricing literature (Li & Kifer's line of
//! work) is to charge each buyer for the **marginal information** a new
//! purchase adds to what they already hold:
//!
//! ```text
//! charge = f(w_before + w_new) − f(w_before)
//! ```
//!
//! where `w = 1/V` is an answer's *precision*, precisions of independent
//! answers to the same query add under optimal (inverse-variance
//! weighted) combination, and `f(w)` is the posted price of a fresh
//! answer with precision `w`.
//!
//! Telescoping makes the scheme exactly arbitrage-free for *any*
//! non-decreasing `f` with `f(0) = 0`: however a buyer splits their
//! shopping into bundles, the total paid is always `f(w_total)` — the
//! posted price of the information they end up holding. Splitting can
//! never save money, and (unlike the stateless scheme) over-buying in
//! small pieces never *loses* money either.

use std::collections::BTreeMap;
use std::fmt::Debug;

use crate::engine::{PostedPriceEngine, PricingEngine, Quote, Settlement};
use crate::error::PricingError;
use crate::functions::{
    InverseVariancePricing, LogPrecisionPricing, PricingFunction, SqrtPrecisionPricing,
};
use crate::ledger::TradeLedger;
use crate::reuse::Demand;
use crate::variance::VarianceModel;

/// A pricing function expressed over *precision* `w = 1/V`.
///
/// Implementations must be non-decreasing in `w` with
/// `price_of_precision(0) = 0`.
pub trait PrecisionPricing {
    /// The posted price of a fresh answer with precision `w`.
    fn price_of_precision(&self, w: f64) -> f64;
}

impl<M: VarianceModel> PrecisionPricing for InverseVariancePricing<M> {
    fn price_of_precision(&self, w: f64) -> f64 {
        if w <= 0.0 {
            0.0
        } else {
            self.price_of_variance(1.0 / w)
        }
    }
}

impl<M: VarianceModel> PrecisionPricing for SqrtPrecisionPricing<M> {
    fn price_of_precision(&self, w: f64) -> f64 {
        if w <= 0.0 {
            0.0
        } else {
            self.price_of_variance(1.0 / w)
        }
    }
}

impl<M: VarianceModel> PrecisionPricing for LogPrecisionPricing<M> {
    fn price_of_precision(&self, w: f64) -> f64 {
        if w <= 0.0 {
            0.0
        } else {
            self.price_of_variance(1.0 / w)
        }
    }
}

/// Marginal-information pricing: a [`PricingEngine`] that charges each
/// buyer `f(w_before + w_new) − f(w_before)` for one more answer over a
/// range they already hold precision `w_before` on.
///
/// It wraps a [`PostedPriceEngine`] over the same curve, so validation,
/// arbitrage certification and the ledger are the posted engine's. History
/// adds the marginal price at quote ([`PricingEngine::quote_for`]) and the
/// held precision at settle. Holdings are keyed by the buyer's ledger id
/// and the range's bound bits; a buyer with no sale yet holds nothing.
///
/// # Examples
///
/// ```
/// use prc_pricing::{ChebyshevVariance, Demand, HistoryAwarePricing, PlanSummary};
/// use prc_pricing::{PricingEngine, Settlement, SqrtPrecisionPricing};
///
/// let model = ChebyshevVariance::new(10_000);
/// let mut pricing = HistoryAwarePricing::new(SqrtPrecisionPricing::new(1e3, model), model);
/// let (range, demand) = ([80f64.to_bits(), 120f64.to_bits()], Demand::new(0.1, 0.5));
/// let first = pricing.quote_for("alice", range, demand).unwrap().price;
/// let plan = PlanSummary {
///     epsilon: 0.9,
///     effective_epsilon: 0.4,
///     sensitivity: 1.2,
///     noise_scale: 1.2 / 0.9,
///     noise_variance: 2.0 * (1.2f64 / 0.9).powi(2),
///     probability: 0.4,
/// };
/// pricing.settle(Settlement { buyer: "alice", range, demand, price: first, plan });
/// // Under a concave posted price, the repeat purchase is discounted.
/// assert!(pricing.quote_for("alice", range, demand).unwrap().price < first);
/// ```
#[derive(Debug)]
pub struct HistoryAwarePricing<F, M> {
    posted: PostedPriceEngine<F, M>,
    /// Accumulated precision per (ledger buyer id, range bound bits).
    holdings: BTreeMap<(usize, [u64; 2]), f64>,
}

impl<F, M> HistoryAwarePricing<F, M>
where
    F: PricingFunction + PrecisionPricing + Debug + Send + Sync,
    M: VarianceModel + Debug + Send + Sync,
{
    /// Wraps a posted pricing function and its variance model.
    pub fn new(base: F, model: M) -> Self {
        HistoryAwarePricing {
            posted: PostedPriceEngine::new(base, model),
            holdings: BTreeMap::new(),
        }
    }

    /// The posted engine's quote for `demand`, priced at the marginal
    /// cost of adding its precision to `w_before`.
    fn marginal(&mut self, w_before: f64, demand: Demand) -> Result<Quote, PricingError> {
        let quote = self.posted.quote(demand)?;
        let w_new = 1.0 / quote.variance;
        let f = |w| self.posted.pricing().price_of_precision(w);
        let price = (f(w_before + w_new) - f(w_before)).max(0.0);
        Ok(Quote { price, ..quote })
    }
}

impl<F, M> PricingEngine for HistoryAwarePricing<F, M>
where
    F: PricingFunction + PrecisionPricing + Debug + Send + Sync,
    M: VarianceModel + Debug + Send + Sync,
{
    /// The price for a buyer who holds nothing yet.
    fn quote(&mut self, demand: Demand) -> Result<Quote, PricingError> {
        self.marginal(0.0, demand)
    }

    fn quote_for(
        &mut self,
        buyer: &str,
        range: [u64; 2],
        demand: Demand,
    ) -> Result<Quote, PricingError> {
        let id = self.posted.ledger().buyer_id(buyer);
        let held = id.and_then(|id| self.holdings.get(&(id, range)).copied());
        self.marginal(held.unwrap_or(0.0), demand)
    }

    fn settle(&mut self, settlement: Settlement<'_>) -> u64 {
        let sequence = self.posted.settle(settlement);
        let buyer = self.posted.ledger().records()[sequence as usize].buyer;
        let Demand { alpha, delta } = settlement.demand;
        let held = self
            .holdings
            .entry((buyer, settlement.range))
            .or_insert(0.0);
        *held += 1.0 / self.posted.model.variance(alpha, delta);
        sequence
    }

    fn ledger(&self) -> &TradeLedger {
        self.posted.ledger()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::PlanSummary;
    use crate::variance::ChebyshevVariance;

    fn model() -> ChebyshevVariance {
        ChebyshevVariance::new(10_000)
    }

    /// The bound bits of test range `q`.
    fn range(q: u64) -> [u64; 2] {
        [q, q + 1]
    }

    /// What `buyer` would pay for one more `(α, δ)` answer over `q`.
    fn quote(pricing: &mut dyn PricingEngine, buyer: &str, q: u64, a: f64, d: f64) -> f64 {
        pricing
            .quote_for(buyer, range(q), Demand::new(a, d))
            .unwrap()
            .price
    }

    /// Sells one `(α, δ)` answer over `q` and returns the price charged.
    fn buy(pricing: &mut dyn PricingEngine, buyer: &str, q: u64, a: f64, d: f64) -> f64 {
        let price = quote(pricing, buyer, q, a, d);
        let plan = PlanSummary {
            epsilon: 1.0,
            effective_epsilon: 0.5,
            sensitivity: 1.0,
            noise_scale: 1.0,
            noise_variance: 2.0,
            probability: 0.5,
        };
        pricing.settle(Settlement {
            buyer,
            range: range(q),
            demand: Demand::new(a, d),
            price,
            plan,
        });
        price
    }

    #[test]
    fn first_purchase_matches_posted_price() {
        let base = InverseVariancePricing::new(1e6, model());
        let mut pricing = HistoryAwarePricing::new(base, model());
        let quoted = quote(&mut pricing, "alice", 1, 0.1, 0.5);
        assert!((quoted - base.price(0.1, 0.5)).abs() < 1e-9);
        let charged = buy(&mut pricing, "alice", 1, 0.1, 0.5);
        assert_eq!(charged, quoted);
        assert_eq!(pricing.ledger().records()[0].price, charged);
    }

    #[test]
    fn linear_precision_pricing_is_history_invariant() {
        // With π = c/V (linear in precision), the marginal price of an
        // answer never depends on history.
        let base = InverseVariancePricing::new(1e6, model());
        let mut pricing = HistoryAwarePricing::new(base, model());
        let fresh = quote(&mut pricing, "alice", 1, 0.05, 0.8);
        buy(&mut pricing, "alice", 1, 0.2, 0.5);
        buy(&mut pricing, "alice", 1, 0.1, 0.9);
        let after_history = quote(&mut pricing, "alice", 1, 0.05, 0.8);
        assert!((fresh - after_history).abs() / fresh < 1e-9);
    }

    #[test]
    fn concave_pricing_discounts_repeat_buyers() {
        // With a concave f (√precision), each additional identical answer
        // is cheaper than the last — the buyer already holds most of the
        // information.
        let base = SqrtPrecisionPricing::new(1e3, model());
        let mut pricing = HistoryAwarePricing::new(base, model());
        let p1 = buy(&mut pricing, "bob", 1, 0.1, 0.5);
        let p2 = buy(&mut pricing, "bob", 1, 0.1, 0.5);
        let p3 = buy(&mut pricing, "bob", 1, 0.1, 0.5);
        assert!(p1 > p2 && p2 > p3, "{p1} > {p2} > {p3} expected");
        assert!(p3 > 0.0);
    }

    #[test]
    fn telescoping_makes_total_paid_path_independent() {
        // Whatever the purchase path, the total paid equals f(w_total).
        let base = LogPrecisionPricing::new(50.0, model());
        let m = model();

        let path_a = [(0.1, 0.5), (0.05, 0.8), (0.2, 0.9)];
        let path_b = [(0.2, 0.9), (0.1, 0.5), (0.05, 0.8)]; // same set, reordered

        let total = |path: &[(f64, f64)]| {
            let mut pricing = HistoryAwarePricing::new(base, m);
            path.iter()
                .map(|&(a, d)| buy(&mut pricing, "carol", 1, a, d))
                .sum::<f64>()
        };
        let total_a = total(&path_a);
        let total_b = total(&path_b);
        assert!((total_a - total_b).abs() < 1e-9, "{total_a} vs {total_b}");

        // And both equal the posted price of the combined precision.
        let w_total: f64 = path_a.iter().map(|&(a, d)| 1.0 / m.variance(a, d)).sum();
        assert!((total_a - base.price_of_precision(w_total)).abs() < 1e-9);
    }

    #[test]
    fn splitting_never_saves_money() {
        // Buying the target accuracy directly vs. accumulating it in k
        // cheap pieces costs exactly the same — arbitrage-free with
        // equality, for every family.
        let m = model();
        let target_w = 1.0 / m.variance(0.03, 0.9);

        fn check<F>(base: F, m: ChebyshevVariance, target_w: f64)
        where
            F: PricingFunction + PrecisionPricing + Clone + Debug + Send + Sync,
        {
            let direct = base.price_of_precision(target_w);
            let mut pricing = HistoryAwarePricing::new(base, m);
            // Ten equal slices of the target precision: realized as ten
            // purchases of an accuracy with a tenth of the precision.
            // (We bypass (α, δ) and add precision via quotes on a crafted
            // accuracy whose variance is 10/target_w.)
            let slice_v = 10.0 / target_w;
            let alpha = 0.5;
            let delta = m.delta_for_variance(alpha, slice_v);
            assert!(delta > 0.0 && delta < 1.0, "crafted slice must be valid");
            let total: f64 = (0..10)
                .map(|_| buy(&mut pricing, "dave", 1, alpha, delta))
                .sum();
            assert!(
                (total - direct).abs() / direct < 1e-6,
                "split total {total} vs direct {direct}"
            );
        }
        check(InverseVariancePricing::new(1e6, m), m, target_w);
        check(SqrtPrecisionPricing::new(1e3, m), m, target_w);
        check(LogPrecisionPricing::new(50.0, m), m, target_w);
    }

    #[test]
    fn histories_are_isolated_per_buyer_and_query() {
        let base = SqrtPrecisionPricing::new(1e3, model());
        let mut pricing = HistoryAwarePricing::new(base, model());
        let fresh = quote(&mut pricing, "alice", 1, 0.1, 0.5);
        buy(&mut pricing, "alice", 1, 0.1, 0.5);
        // Other buyer and other query still pay the fresh price.
        assert_eq!(quote(&mut pricing, "bob", 1, 0.1, 0.5), fresh);
        assert_eq!(quote(&mut pricing, "alice", 2, 0.1, 0.5), fresh);
        // Alice on q1 pays less; a quote without a buyer is the fresh price.
        assert!(quote(&mut pricing, "alice", 1, 0.1, 0.5) < fresh);
        assert_eq!(pricing.quote(Demand::new(0.1, 0.5)).unwrap().price, fresh);
    }

    #[test]
    fn quotes_are_never_negative() {
        let base = LogPrecisionPricing::new(10.0, model());
        let mut pricing = HistoryAwarePricing::new(base, model());
        for _ in 0..50 {
            let q = buy(&mut pricing, "eve", 1, 0.9, 0.01);
            assert!(q >= 0.0);
        }
    }

    #[test]
    fn zero_precision_prices_zero() {
        let base = InverseVariancePricing::new(1e6, model());
        assert_eq!(base.price_of_precision(0.0), 0.0);
        assert_eq!(base.price_of_precision(-1.0), 0.0);
        let sqrt = SqrtPrecisionPricing::new(1e3, model());
        assert_eq!(sqrt.price_of_precision(0.0), 0.0);
        let log = LogPrecisionPricing::new(10.0, model());
        assert_eq!(log.price_of_precision(0.0), 0.0);
    }
}
