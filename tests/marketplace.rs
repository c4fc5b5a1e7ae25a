//! Marketplace-level integration: broker + pricing + adversaries + budget,
//! and a broker selling at history-aware prices through `answer_as`.

use prc::prelude::*;

fn marketplace_network(seed: u64) -> (Dataset, FlatNetwork) {
    let dataset = CityPulseGenerator::new(seed).record_count(6_000).generate();
    let network = FlatNetwork::from_dataset(
        &dataset,
        AirQualityIndex::NitrogenDioxide,
        30,
        PartitionStrategy::RoundRobin,
        seed,
    );
    (dataset, network)
}

#[test]
fn live_averaging_attack_never_saves_money_under_compliant_pricing() {
    // The adversary buys m loose answers whose averaged variance matches a
    // strict answer, for several (m, target) combinations; under π = c/V
    // the bundle can never be cheaper.
    let (dataset, network) = marketplace_network(1);
    let pricing = InverseVariancePricing::new(1e9, ChebyshevVariance::new(dataset.len()));
    let mut broker = DataBroker::new(network, 1);
    let query = RangeQuery::new(60.0, 110.0).unwrap();

    for m in [2usize, 4, 9, 16] {
        let target = Accuracy::new(0.02, 0.8).unwrap();
        // Loose accuracy with m× the variance: α scaled by √m.
        let loose_alpha = (target.alpha() * (m as f64).sqrt()).min(0.95);
        let loose = Accuracy::new(loose_alpha, target.delta()).unwrap();

        let mut bundle = AnswerBundle::new();
        for _ in 0..m {
            bundle.push(broker.answer(&QueryRequest::new(query, loose)).unwrap());
        }
        let single_price = pricing.price(target.alpha(), target.delta());
        let bundle_price = m as f64 * pricing.price(loose.alpha(), loose.delta());
        assert!(
            bundle_price >= single_price * (1.0 - 1e-9),
            "m={m}: bundle {bundle_price} undercuts single {single_price}"
        );
    }
}

#[test]
fn broken_pricing_is_exploitable_in_the_live_marketplace() {
    let (_, network) = marketplace_network(2);
    let broken = LinearDeltaPricing::new(10.0);
    let mut broker = DataBroker::new(network, 2);
    let query = RangeQuery::new(60.0, 110.0).unwrap();

    // LinearDelta charges c·δ/α, so the cheap axis is confidence: buy m
    // nearly-worthless-confidence answers (δ = 0.01) at slightly looser α
    // and average. Their combined variance (αn)²(1−0.01)/m beats the
    // target's (αn)²(1−0.8) once m ≥ 5, at a tiny fraction of the price.
    let target = Accuracy::new(0.05, 0.8).unwrap();
    let m = 6;
    let loose = Accuracy::new(target.alpha() * 1.01, 0.01).unwrap();
    let model = ChebyshevVariance::new(6_000);
    assert!(
        model.variance(loose.alpha(), loose.delta()) / m as f64
            <= model.variance(target.alpha(), target.delta()),
        "bundle must reach the target variance"
    );
    let mut bundle = AnswerBundle::new();
    for _ in 0..m {
        bundle.push(broker.answer(&QueryRequest::new(query, loose)).unwrap());
    }
    let single_price = broken.price(target.alpha(), target.delta());
    let bundle_price = m as f64 * broken.price(loose.alpha(), loose.delta());
    assert!(
        bundle_price < single_price,
        "the broken price should be exploitable: bundle {bundle_price} vs single {single_price}"
    );
}

#[test]
fn ledger_tracks_a_full_trading_session() {
    let (dataset, network) = marketplace_network(3);
    let model = ChebyshevVariance::new(dataset.len());
    let pricing = InverseVariancePricing::new(1e8, model);
    let mut broker = DataBroker::new(network, 3);
    broker.enable_pricing(Box::new(PostedPriceEngine::new(pricing, model)));

    let buyers = ["alice", "bob", "alice", "carol", "bob", "alice"];
    let demands = [
        (0.05, 0.8),
        (0.1, 0.6),
        (0.2, 0.5),
        (0.03, 0.9),
        (0.15, 0.7),
        (0.08, 0.75),
    ];
    for (buyer, (alpha, delta)) in buyers.iter().zip(demands) {
        let request = QueryRequest::new(
            RangeQuery::new(50.0, 120.0).unwrap(),
            Accuracy::new(alpha, delta).unwrap(),
        );
        let sale = broker.answer_as(buyer, &request).unwrap();
        assert!(sale.answer.value.is_finite());
        assert_eq!(sale.price, Some(pricing.price(alpha, delta)));
    }
    let ledger = broker.pricing().unwrap().ledger();
    assert_eq!(ledger.len(), 6);
    let by_buyer = ledger.revenue_by_buyer();
    assert_eq!(by_buyer.len(), 3);
    let total: f64 = by_buyer.values().sum();
    assert!((total - ledger.total_revenue()).abs() < 1e-9);
    assert!(ledger.buyer_spend("alice") > ledger.buyer_spend("bob"));
}

#[test]
fn privacy_budget_limits_a_trading_session() {
    let (_, network) = marketplace_network(4);
    let mut broker = DataBroker::new(network, 4);
    let request = QueryRequest::new(
        RangeQuery::new(50.0, 120.0).unwrap(),
        Accuracy::new(0.1, 0.6).unwrap(),
    );
    // Probe cost, then allow exactly three answers.
    let probe = broker.answer(&request).unwrap();
    let unit = probe.plan.effective_epsilon.value();
    broker.set_privacy_budget(Epsilon::new(unit * 3.2).unwrap());

    let mut served = 0;
    for _ in 0..10 {
        if broker.answer(&request).is_ok() {
            served += 1;
        }
    }
    assert_eq!(served, 3, "budget should admit exactly three answers");
    // Not fully exhausted (0.2 units remain) but too little for another answer.
    let remaining = broker.accountant().unwrap().remaining().value();
    assert!(
        remaining < unit,
        "remaining {remaining} should not fit another answer"
    );
}

#[test]
fn effective_epsilon_is_what_the_accountant_spends() {
    let (_, network) = marketplace_network(5);
    let mut broker = DataBroker::new(network, 5);
    broker.set_privacy_budget(Epsilon::new(10.0).unwrap());
    let request = QueryRequest::new(
        RangeQuery::new(50.0, 120.0).unwrap(),
        Accuracy::new(0.1, 0.6).unwrap(),
    );
    let a1 = broker.answer(&request).unwrap();
    let a2 = broker.answer(&request).unwrap();
    let spent = broker.accountant().unwrap().spent().value();
    let expected = a1.plan.effective_epsilon.value() + a2.plan.effective_epsilon.value();
    assert!((spent - expected).abs() < 1e-12);
}

// ---------------------------------------------------------------------
// A broker selling at history-aware prices: quote and sale through
// `DataBroker::quote` and `DataBroker::answer_as`.
// ---------------------------------------------------------------------

/// A broker over 10 nodes × 500 values with `HistoryAwarePricing`
/// installed over a √-precision posted curve and the population's
/// Chebyshev model.
fn history_broker(seed: u64) -> DataBroker {
    let partitions: Vec<Vec<f64>> = (0..10)
        .map(|i| (0..500).map(|j| (i * 500 + j) as f64).collect())
        .collect();
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions, seed), seed);
    let model = ChebyshevVariance::new(5_000);
    broker.enable_pricing(Box::new(HistoryAwarePricing::new(
        SqrtPrecisionPricing::new(1e4, model),
        model,
    )));
    broker
}

fn history_request(alpha: f64, delta: f64) -> QueryRequest {
    QueryRequest::new(
        RangeQuery::new(1_000.0, 4_000.0).expect("valid range"),
        Accuracy::new(alpha, delta).expect("valid demand"),
    )
}

fn revenue(broker: &DataBroker) -> f64 {
    broker
        .pricing()
        .map_or(0.0, |engine| engine.ledger().total_revenue())
}

#[test]
fn quote_matches_first_purchase_price() {
    let mut broker = history_broker(1);
    let req = history_request(0.1, 0.6);
    let quoted = broker.quote("alice", &req).unwrap().map(|q| q.price);
    let sale = broker.answer_as("alice", &req).unwrap();
    assert_eq!(sale.price, quoted);
    assert_eq!(sale.settlement, Some(0));
    assert!(sale.answer.value.is_finite());
    assert_eq!(Some(revenue(&broker)), quoted);
}

#[test]
fn repeat_buyers_get_marginal_prices() {
    let mut broker = history_broker(2);
    let req = history_request(0.1, 0.6);
    let first = broker.answer_as("alice", &req).unwrap().price;
    let second = broker.answer_as("alice", &req).unwrap().price;
    assert!(second < first, "concave posted price must discount repeats");
    // A different buyer still pays the fresh price.
    let bob = broker.answer_as("bob", &req).unwrap().price;
    assert_eq!(bob, first);
    // A different *range* resets the history too.
    let other = QueryRequest::new(
        RangeQuery::new(0.0, 500.0).unwrap(),
        Accuracy::new(0.1, 0.6).unwrap(),
    );
    let fresh = broker.quote("alice", &other).unwrap().map(|q| q.price);
    assert_eq!(fresh, first);
}

#[test]
fn negative_zero_bound_shares_the_purchase_history() {
    let mut broker = history_broker(6);
    let from = |lower: f64| {
        QueryRequest::new(
            RangeQuery::new(lower, 4_000.0).unwrap(),
            Accuracy::new(0.1, 0.6).unwrap(),
        )
    };
    let first = broker
        .answer_as("alice", &from(0.0))
        .unwrap()
        .price
        .unwrap();
    let marginal = broker.quote("alice", &from(0.0)).unwrap().unwrap().price;
    assert!(marginal < first);
    // `[−0.0, u]` is the range alice already holds, not a fresh one.
    assert_eq!(
        broker
            .quote("alice", &from(-0.0))
            .unwrap()
            .map(|q| q.price.to_bits()),
        Some(marginal.to_bits())
    );
}

#[test]
fn failed_pipeline_charges_nothing() {
    let mut broker = history_broker(3);
    // Exhaust the privacy budget, then try to buy.
    broker.set_privacy_budget(Epsilon::new(1e-9).unwrap());
    let err = broker
        .answer_as("carol", &history_request(0.1, 0.6))
        .unwrap_err();
    assert!(matches!(err, CoreError::Dp(_)));
    assert_eq!(revenue(&broker), 0.0);
    assert!(broker.pricing().unwrap().ledger().is_empty());
    // The quote is unaffected by the failed attempt.
    let quote = broker
        .quote("carol", &history_request(0.1, 0.6))
        .unwrap()
        .unwrap();
    assert!(quote.price > 0.0);
}

#[test]
fn ledger_accumulates_across_buyers() {
    let mut broker = history_broker(4);
    broker.answer_as("a", &history_request(0.1, 0.6)).unwrap();
    broker.answer_as("b", &history_request(0.05, 0.8)).unwrap();
    broker.answer_as("a", &history_request(0.1, 0.6)).unwrap();
    let ledger = broker.pricing().unwrap().ledger();
    assert_eq!(ledger.len(), 3);
    let by_buyer = ledger.revenue_by_buyer();
    assert!(by_buyer["a"] > 0.0 && by_buyer["b"] > 0.0);
    assert!((revenue(&broker) - (by_buyer["a"] + by_buyer["b"])).abs() < 1e-9);
}

#[test]
fn posted_variance_is_the_chebyshev_model() {
    let mut broker = history_broker(5);
    let quote = broker
        .quote("alice", &history_request(0.1, 0.6))
        .unwrap()
        .unwrap();
    assert_eq!(
        quote.variance,
        ChebyshevVariance::new(5_000).variance(0.1, 0.6)
    );
}
