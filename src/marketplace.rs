//! The assembled marketplace: a broker that sells every answer at a
//! history-aware price, behind one front door.
//!
//! The paper's three entities — IoT network, data broker, data consumers
//! — meet here. A [`Marketplace`] owns a broker (`prc-core`) with a
//! [`HistoryAwarePricing`] engine (`prc-pricing`) installed, and exposes
//! the two calls a consumer-facing service needs:
//!
//! * [`Marketplace::quote`] — what would this `(α, δ)` answer cost me?
//! * [`Marketplace::buy`] — charge me and release the answer.
//!
//! A sale is the broker's [`DataBroker::answer_as`]: the demand is priced
//! and certified before any budget moves, and the settled sale lands in
//! the engine's ledger. Prices are *history-aware* (marginal information,
//! see `prc_pricing::history`): a buyer accumulating precision on the same
//! range pays exactly the posted price of what they end up holding, so
//! splitting purchases neither saves nor wastes money.

use std::fmt::Debug;

use prc_core::broker::DataBroker;
use prc_core::pipeline::PricedAnswer;
use prc_core::query::QueryRequest;
use prc_core::CoreError;
use prc_pricing::engine::Quote;
use prc_pricing::functions::PricingFunction;
use prc_pricing::history::{HistoryAwarePricing, PrecisionPricing};
use prc_pricing::ledger::TradeLedger;
use prc_pricing::variance::ChebyshevVariance;

/// A data marketplace selling differentially private range counts.
#[derive(Debug)]
pub struct Marketplace {
    broker: DataBroker,
}

impl Marketplace {
    /// Assembles a marketplace from a broker pipeline and a posted
    /// pricing function, installing history-aware pricing over the
    /// broker's population.
    pub fn new<F>(mut broker: DataBroker, posted_pricing: F) -> Self
    where
        F: PricingFunction + PrecisionPricing + Debug + Send + Sync + 'static,
    {
        let model = ChebyshevVariance::new(broker.network().total_data_size().max(1));
        broker.enable_pricing(Box::new(HistoryAwarePricing::new(posted_pricing, model)));
        Marketplace { broker }
    }

    /// The quote `buyer` would get for this request, without buying
    /// ([`DataBroker::quote`]): the marginal price, and the variance the
    /// posted model promises so consumers can verify it.
    ///
    /// # Errors
    ///
    /// [`CoreError::Pricing`] when the engine refuses the demand.
    pub fn quote(
        &mut self,
        buyer: &str,
        request: &QueryRequest,
    ) -> Result<Option<Quote>, CoreError> {
        self.broker.quote(buyer, request)
    }

    /// Sells one answer ([`DataBroker::answer_as`]): quotes the marginal
    /// price, runs the private pipeline, and settles the trade.
    ///
    /// # Errors
    ///
    /// Propagates every pipeline error ([`CoreError`]); a failed sale
    /// charges nothing and records nothing.
    pub fn buy(&mut self, buyer: &str, request: &QueryRequest) -> Result<PricedAnswer, CoreError> {
        self.broker.answer_as(buyer, request)
    }

    /// The broker's total revenue so far.
    pub fn revenue(&self) -> f64 {
        self.ledger().map_or(0.0, TradeLedger::total_revenue)
    }

    /// The trade ledger of the installed engine.
    pub fn ledger(&self) -> Option<&TradeLedger> {
        self.broker.pricing().map(|engine| engine.ledger())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use prc_core::query::{Accuracy, RangeQuery};
    use prc_net::network::FlatNetwork;
    use prc_pricing::functions::SqrtPrecisionPricing;
    use prc_pricing::variance::VarianceModel;

    fn marketplace(seed: u64) -> Marketplace {
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
        let quoted = market.quote("alice", &req).unwrap().map(|q| q.price);
        let sale = market.buy("alice", &req).unwrap();
        assert_eq!(sale.price, quoted);
        assert_eq!(sale.settlement, Some(0));
        assert!(sale.answer.value.is_finite());
        assert_eq!(Some(market.revenue()), quoted);
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
        let fresh = market.quote("alice", &other).unwrap().map(|q| q.price);
        assert_eq!(fresh, first);
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
        let first = market.buy("alice", &from(0.0)).unwrap().price.unwrap();
        let marginal = market.quote("alice", &from(0.0)).unwrap().unwrap().price;
        assert!(marginal < first);
        // `[−0.0, u]` is the range alice already holds, not a fresh one.
        assert_eq!(
            market
                .quote("alice", &from(-0.0))
                .unwrap()
                .map(|q| q.price.to_bits()),
            Some(marginal.to_bits())
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
        assert!(market.ledger().unwrap().is_empty());
        // The quote is unaffected by the failed attempt.
        let quote = market.quote("carol", &request(0.1, 0.6)).unwrap().unwrap();
        assert!(quote.price > 0.0);
    }

    #[test]
    fn ledger_accumulates_across_buyers() {
        let mut market = marketplace(4);
        market.buy("a", &request(0.1, 0.6)).unwrap();
        market.buy("b", &request(0.05, 0.8)).unwrap();
        market.buy("a", &request(0.1, 0.6)).unwrap();
        let ledger = market.ledger().unwrap();
        assert_eq!(ledger.len(), 3);
        let by_buyer = ledger.revenue_by_buyer();
        assert!(by_buyer["a"] > 0.0 && by_buyer["b"] > 0.0);
        assert!((market.revenue() - (by_buyer["a"] + by_buyer["b"])).abs() < 1e-9);
    }

    #[test]
    fn posted_variance_is_the_chebyshev_model() {
        let mut market = marketplace(5);
        let quote = market.quote("alice", &request(0.1, 0.6)).unwrap().unwrap();
        assert_eq!(
            quote.variance,
            ChebyshevVariance::new(5_000).variance(0.1, 0.6)
        );
    }
}
