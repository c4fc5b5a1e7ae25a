//! The assembled marketplace: broker + pricing + ledger + history in one
//! front door.
//!
//! The paper's three entities — IoT network, data broker, data consumers
//! — meet here. A [`Marketplace`] owns the private-answer pipeline
//! (`prc-core`), a posted pricing function (`prc-pricing`), the trade
//! ledger, and per-buyer purchase history, exposing the two calls a
//! consumer-facing service needs:
//!
//! * [`Marketplace::quote`] — what would this `(α, δ)` answer cost me?
//! * [`Marketplace::buy`] — charge me and release the answer.
//!
//! Prices are *history-aware* (marginal information, see
//! `prc_pricing::history`): a buyer accumulating precision on the same
//! query pays exactly the posted price of what they end up holding, so
//! splitting purchases neither saves nor wastes money.

use prc_core::broker::{DataBroker, PrivateAnswer};
use prc_core::query::QueryRequest;
use prc_core::CoreError;
use prc_pricing::functions::PricingFunction;
use prc_pricing::history::{HistoryAwarePricing, PrecisionPricing};
use prc_pricing::ledger::TradeLedger;
use prc_pricing::variance::{ChebyshevVariance, VarianceModel};

/// A completed purchase: the released answer plus its billing record.
#[derive(Debug, Clone)]
pub struct Receipt {
    /// The released private answer.
    pub answer: PrivateAnswer,
    /// The price charged (marginal, given the buyer's history).
    pub price: f64,
    /// Ledger sequence number of the sale.
    pub sequence: u64,
}

/// A data marketplace selling differentially private range counts.
#[derive(Debug)]
pub struct Marketplace<F> {
    broker: DataBroker,
    pricing: HistoryAwarePricing<F, ChebyshevVariance>,
    ledger: TradeLedger,
}

impl<F> Marketplace<F>
where
    F: PricingFunction + PrecisionPricing,
{
    /// Assembles a marketplace from a broker pipeline and a posted
    /// pricing function over the broker's population.
    pub fn new(broker: DataBroker, posted_pricing: F) -> Self {
        let population = broker.network().total_data_size().max(1);
        let model = ChebyshevVariance::new(population);
        Marketplace {
            broker,
            pricing: HistoryAwarePricing::new(posted_pricing, model),
            ledger: TradeLedger::new(),
        }
    }

    /// The marginal price `buyer` would pay for this request, without
    /// buying.
    pub fn quote(&self, buyer: &str, request: &QueryRequest) -> f64 {
        self.pricing.quote(
            buyer,
            &Self::query_key(request),
            request.accuracy.alpha(),
            request.accuracy.delta(),
        )
    }

    /// Sells one answer: runs the private pipeline, charges the marginal
    /// price, and records the trade.
    ///
    /// # Errors
    ///
    /// Propagates every pipeline error ([`CoreError`]); failed pipelines
    /// charge nothing and record nothing.
    pub fn buy(&mut self, buyer: &str, request: &QueryRequest) -> Result<Receipt, CoreError> {
        // Run the pipeline first: a failed answer must not charge.
        let answer = self.broker.answer(request)?;
        let key = Self::query_key(request);
        let price = self.pricing.purchase(
            buyer,
            &key,
            request.accuracy.alpha(),
            request.accuracy.delta(),
        );
        let sequence = self.ledger.record(
            buyer,
            request.accuracy.alpha(),
            request.accuracy.delta(),
            price,
        );
        Ok(Receipt {
            answer,
            price,
            sequence,
        })
    }

    /// The broker's total revenue so far.
    pub fn revenue(&self) -> f64 {
        self.ledger.total_revenue()
    }

    /// The trade ledger.
    pub fn ledger(&self) -> &TradeLedger {
        &self.ledger
    }

    /// The underlying broker (network metrics, privacy accountant).
    pub fn broker(&self) -> &DataBroker {
        &self.broker
    }

    /// Mutable access to the broker (budget installation, failure
    /// injection through the network).
    pub fn broker_mut(&mut self) -> &mut DataBroker {
        &mut self.broker
    }

    /// The variance the posted price would assign to a request — exposed
    /// so consumers can verify quotes against the model.
    pub fn posted_variance(&self, request: &QueryRequest) -> f64 {
        ChebyshevVariance::new(self.broker.network().total_data_size().max(1))
            .variance(request.accuracy.alpha(), request.accuracy.delta())
    }

    /// Canonical history key for a request: the exact range queried
    /// (`RangeQuery::new` already reads a `−0.0` bound as `+0.0`).
    fn query_key(request: &QueryRequest) -> String {
        format!("[{};{}]", request.query.lower(), request.query.upper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prc_core::query::{Accuracy, RangeQuery};
    use prc_net::network::FlatNetwork;
    use prc_pricing::functions::SqrtPrecisionPricing;

    fn marketplace(seed: u64) -> Marketplace<SqrtPrecisionPricing<ChebyshevVariance>> {
        let partitions: Vec<Vec<f64>> = (0..10)
            .map(|i| (0..500).map(|j| (i * 500 + j) as f64).collect())
            .collect();
        let broker = DataBroker::new(FlatNetwork::from_partitions(partitions, seed), seed);
        let posted = SqrtPrecisionPricing::new(1e4, ChebyshevVariance::new(5_000));
        Marketplace::new(broker, posted)
    }

    fn request(alpha: f64, delta: f64) -> QueryRequest {
        QueryRequest::new(
            RangeQuery::new(1_000.0, 4_000.0).unwrap(),
            Accuracy::new(alpha, delta).unwrap(),
        )
    }

    #[test]
    fn quote_matches_first_purchase_price() {
        let mut market = marketplace(1);
        let req = request(0.1, 0.6);
        let quoted = market.quote("alice", &req);
        let receipt = market.buy("alice", &req).unwrap();
        assert_eq!(receipt.price, quoted);
        assert_eq!(receipt.sequence, 0);
        assert!(receipt.answer.value.is_finite());
        assert_eq!(market.revenue(), quoted);
    }

    #[test]
    fn repeat_buyers_get_marginal_prices() {
        let mut market = marketplace(2);
        let req = request(0.1, 0.6);
        let first = market.buy("alice", &req).unwrap().price;
        let second = market.buy("alice", &req).unwrap().price;
        assert!(second < first, "concave posted price must discount repeats");
        // A different buyer still pays the fresh price.
        let bob = market.buy("bob", &req).unwrap().price;
        assert_eq!(bob, first);
        // A different *range* resets the history too.
        let other = QueryRequest::new(
            RangeQuery::new(0.0, 500.0).unwrap(),
            Accuracy::new(0.1, 0.6).unwrap(),
        );
        assert_eq!(market.quote("alice", &other), first);
    }

    #[test]
    fn negative_zero_bound_shares_the_purchase_history() {
        let mut market = marketplace(6);
        let from = |lower: f64| {
            QueryRequest::new(
                RangeQuery::new(lower, 4_000.0).unwrap(),
                Accuracy::new(0.1, 0.6).unwrap(),
            )
        };
        let first = market.buy("alice", &from(0.0)).unwrap().price;
        let marginal = market.quote("alice", &from(0.0));
        assert!(marginal < first);
        // `[−0.0, u]` is the range alice already holds, not a fresh one.
        assert_eq!(
            market.quote("alice", &from(-0.0)).to_bits(),
            marginal.to_bits()
        );
    }

    #[test]
    fn failed_pipeline_charges_nothing() {
        let mut market = marketplace(3);
        // Exhaust the privacy budget, then try to buy.
        market
            .broker_mut()
            .set_privacy_budget(prc_dp::budget::Epsilon::new(1e-9).unwrap());
        let err = market.buy("carol", &request(0.1, 0.6)).unwrap_err();
        assert!(matches!(err, CoreError::Dp(_)));
        assert_eq!(market.revenue(), 0.0);
        assert!(market.ledger().is_empty());
        // The quote is unaffected by the failed attempt.
        assert!(market.quote("carol", &request(0.1, 0.6)) > 0.0);
    }

    #[test]
    fn ledger_accumulates_across_buyers() {
        let mut market = marketplace(4);
        market.buy("a", &request(0.1, 0.6)).unwrap();
        market.buy("b", &request(0.05, 0.8)).unwrap();
        market.buy("a", &request(0.1, 0.6)).unwrap();
        assert_eq!(market.ledger().len(), 3);
        let by_buyer = market.ledger().revenue_by_buyer();
        assert!(by_buyer["a"] > 0.0 && by_buyer["b"] > 0.0);
        assert!((market.revenue() - (by_buyer["a"] + by_buyer["b"])).abs() < 1e-9);
    }

    #[test]
    fn posted_variance_is_the_chebyshev_model() {
        let market = marketplace(5);
        let req = request(0.1, 0.6);
        let v = market.posted_variance(&req);
        assert_eq!(v, ChebyshevVariance::new(5_000).variance(0.1, 0.6));
    }
}
