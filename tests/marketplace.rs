//! Marketplace-level integration: broker + pricing + adversaries + budget.

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
