//! End-to-end integration: dataset → network → broker → consumer → pricing.

use prc::prelude::*;

fn standard_setup(seed: u64) -> (Dataset, FlatNetwork) {
    let dataset = CityPulseGenerator::new(seed).record_count(8_000).generate();
    let network = FlatNetwork::from_dataset(
        &dataset,
        AirQualityIndex::Ozone,
        40,
        PartitionStrategy::RoundRobin,
        seed,
    );
    (dataset, network)
}

#[test]
fn full_pipeline_produces_a_priced_private_answer() {
    let (dataset, network) = standard_setup(1);
    let truth = network.exact_range_count(80.0, 130.0) as f64;
    let mut broker = DataBroker::new(network, 1);
    // Pricing closes the loop: the sale is priced before the release.
    let model = ChebyshevVariance::new(dataset.len());
    broker.enable_pricing(Box::new(PostedPriceEngine::new(
        InverseVariancePricing::new(1e8, model),
        model,
    )));

    let request = QueryRequest::new(
        RangeQuery::new(80.0, 130.0).unwrap(),
        Accuracy::new(0.06, 0.8).unwrap(),
    );
    let sale = broker.answer_as("customer-1", &request).unwrap();
    let answer = sale.answer;

    // The answer is noisy but close to the truth.
    assert!((answer.value - truth).abs() < 0.2 * dataset.len() as f64);
    // The internal estimate differs from the released value (noise added).
    assert_ne!(answer.value, answer.sample_estimate);

    let ledger = broker.pricing().unwrap().ledger();
    assert_eq!(ledger.len(), 1);
    assert!(ledger.total_revenue() > 0.0);
    assert_eq!(Some(ledger.total_revenue()), sale.price);
}

#[test]
fn definition_2_2_holds_empirically_for_the_full_pipeline() {
    // The released (noisy) answer must satisfy |answer − truth| ≤ αn with
    // probability ≥ δ. 200 independent pipelines, δ = 0.75.
    let accuracy = Accuracy::new(0.08, 0.75).unwrap();
    let query = RangeQuery::new(70.0, 140.0).unwrap();
    let mut hits = 0;
    let trials = 200;
    for seed in 0..trials {
        let (dataset, network) = standard_setup(seed);
        let truth = network.exact_range_count(70.0, 140.0) as f64;
        let n = dataset.len() as f64;
        let mut broker = DataBroker::new(network, seed * 31 + 5);
        let answer = broker.answer(&QueryRequest::new(query, accuracy)).unwrap();
        if (answer.value - truth).abs() <= accuracy.alpha() * n {
            hits += 1;
        }
    }
    let rate = hits as f64 / trials as f64;
    assert!(
        rate >= 0.75,
        "(α, δ) contract violated: empirical rate {rate} < 0.75"
    );
}

#[test]
fn pipeline_is_deterministic_for_a_fixed_seed() {
    let run = || {
        let (_, network) = standard_setup(9);
        let mut broker = DataBroker::new(network, 9);
        let request = QueryRequest::new(
            RangeQuery::new(90.0, 120.0).unwrap(),
            Accuracy::new(0.1, 0.6).unwrap(),
        );
        broker.answer(&request).unwrap().value
    };
    assert_eq!(run(), run());
}

#[test]
fn broker_answers_many_queries_from_one_sample() {
    // The one-sample/many-queries design: after the first answer, later
    // queries with the same accuracy must not trigger new sampling.
    let (_, network) = standard_setup(3);
    let mut broker = DataBroker::new(network, 3);
    let accuracy = Accuracy::new(0.1, 0.6).unwrap();
    broker
        .answer(&QueryRequest::new(
            RangeQuery::new(80.0, 120.0).unwrap(),
            accuracy,
        ))
        .unwrap();
    let samples_after_first = broker.network().station().total_samples();
    for (l, u) in [(60.0, 90.0), (100.0, 150.0), (0.0, 200.0), (95.0, 96.0)] {
        broker
            .answer(&QueryRequest::new(RangeQuery::new(l, u).unwrap(), accuracy))
            .unwrap();
    }
    assert_eq!(
        broker.network().station().total_samples(),
        samples_after_first,
        "same-accuracy queries must reuse the existing sample"
    );
}

#[test]
fn consumer_bundle_averages_broker_answers() {
    let (_, network) = standard_setup(5);
    let mut broker = DataBroker::new(network, 5);
    let request = QueryRequest::new(
        RangeQuery::new(85.0, 125.0).unwrap(),
        Accuracy::new(0.15, 0.5).unwrap(),
    );
    let bundle: AnswerBundle = (0..6).map(|_| broker.answer(&request).unwrap()).collect();
    assert_eq!(bundle.len(), 6);
    let combined = bundle.combined_value().unwrap();
    let single = bundle.answers()[0].value;
    assert!(combined.is_finite());
    // Averaging shrinks the certified variance bound.
    assert!(
        bundle.combined_variance_bound().unwrap() < bundle.answers()[0].variance_bound,
        "bundle variance must beat a single answer"
    );
    let _ = single;
}

#[test]
fn tighter_accuracy_costs_more_network_and_more_money() {
    let pricing = InverseVariancePricing::new(1e8, ChebyshevVariance::new(8_000));

    let run = |alpha: f64, delta: f64| {
        let (_, network) = standard_setup(7);
        let mut broker = DataBroker::new(network, 7);
        let request = QueryRequest::new(
            RangeQuery::new(80.0, 120.0).unwrap(),
            Accuracy::new(alpha, delta).unwrap(),
        );
        broker.answer(&request).unwrap();
        let cost = broker.network().meter().snapshot();
        (cost.samples, pricing.price(alpha, delta))
    };
    let (loose_samples, loose_price) = run(0.2, 0.5);
    let (strict_samples, strict_price) = run(0.03, 0.9);
    assert!(strict_samples > loose_samples);
    assert!(strict_price > loose_price);
}

#[test]
fn dp_noise_distribution_matches_the_plan() {
    // Collect many answers with a fixed plan and verify the noise spread
    // matches the Laplace scale the plan promises.
    let (_, network) = standard_setup(11);
    let mut broker = DataBroker::new(network, 11);
    let query = RangeQuery::new(80.0, 120.0).unwrap();
    let epsilon = Epsilon::new(0.5).unwrap();
    let mut noises = Vec::new();
    let mut scale = 0.0;
    for _ in 0..4_000 {
        let a = broker.answer_with_epsilon(query, epsilon, 0.3).unwrap();
        noises.push(a.value - a.sample_estimate);
        scale = a.plan.noise_scale;
    }
    let mean = noises.iter().sum::<f64>() / noises.len() as f64;
    let var = noises.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / noises.len() as f64;
    let theory = 2.0 * scale * scale;
    assert!(mean.abs() < scale * 0.2, "noise mean {mean}");
    assert!(
        (var - theory).abs() / theory < 0.15,
        "noise variance {var} vs theory {theory}"
    );
}
