//! Integration tests for the extension toolkit: sketches, private
//! histograms/quantiles, audits, advanced composition, history-aware
//! pricing.

use prc::core::audit::{audit_answer, verify_answer};
use prc::core::estimator::{RangeCountEstimator, RankCounting};
use prc::core::histogram::private_histogram;
use prc::core::optimizer::NetworkShape;
use prc::core::quantile::{private_quantile, QuantileConfig};
use prc::dp::composition::AdvancedAccountant;
use prc::dp::mechanism::Sensitivity;
use prc::prelude::*;
use prc::sketch::distributed::{digest_partitions, Quantizer, SketchStation};
use rand::SeedableRng;

fn setup() -> (Dataset, Vec<Vec<f64>>) {
    let dataset = CityPulseGenerator::new(77).record_count(8_000).generate();
    let values = dataset.values(AirQualityIndex::Ozone);
    let parts = prc::data::partition::partition_values(&values, 20, PartitionStrategy::RoundRobin);
    (dataset, parts)
}

#[test]
fn sampling_and_sketching_agree_on_the_same_data() {
    // Two completely independent substrates must bracket/approximate the
    // same truth.
    let (_, parts) = setup();
    let quantizer = Quantizer::new(0.0, 200.0, 12);

    // Substrate A: the paper's sampling network.
    let mut network = FlatNetwork::from_partitions(parts.clone(), 5);
    network.collect_samples(0.4);

    // Substrate B: a q-digest per node.
    let mut station = SketchStation::new();
    for sketch in digest_partitions(&parts, &quantizer, 256) {
        station.ingest(sketch);
    }

    for (lo, hi) in [(60.0, 90.0), (80.0, 140.0), (0.0, 200.0)] {
        let a = quantizer.quantize(lo);
        let b = quantizer.quantize(hi);
        let truth = parts
            .iter()
            .flatten()
            .filter(|&&v| {
                let c = quantizer.quantize(v);
                c >= a && c <= b
            })
            .count() as f64;
        let bounds = station.range_count_bounds(&quantizer, a, b);
        assert!(bounds.contains(truth as u64), "sketch bounds miss truth");
        let sampled = RankCounting.estimate(
            network.station(),
            RangeQuery::new(
                quantizer.dequantize(a) - quantizer.cell_width() / 2.0,
                quantizer.dequantize(b) + quantizer.cell_width() / 2.0,
            )
            .unwrap(),
        );
        assert!(
            (sampled - truth).abs() < 0.1 * truth.max(500.0),
            "({lo},{hi}): sampled {sampled} vs truth {truth}"
        );
    }
}

#[test]
fn private_histogram_tracks_the_real_distribution() {
    let (dataset, parts) = setup();
    let mut network = FlatNetwork::from_partitions(parts, 9);
    network.collect_samples(0.4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let edges: Vec<f64> = (0..=8).map(|i| i as f64 * 25.0).collect();
    let histogram = private_histogram(
        &RankCounting,
        network.station(),
        &edges,
        Epsilon::new(2.0).unwrap(),
        Sensitivity::new(1.0 / 0.4).unwrap(),
        &mut rng,
    )
    .unwrap();
    // Each noisy bucket should track the truth within sampling + noise
    // slack.
    let values = dataset.values(AirQualityIndex::Ozone);
    let n = values.len() as f64;
    for i in 0..histogram.len() {
        let (lo, hi) = histogram.bucket_bounds(i);
        let truth = values
            .iter()
            .filter(|&&v| {
                if i == 0 {
                    v >= lo && v <= hi
                } else {
                    v > lo && v <= hi
                }
            })
            .count() as f64;
        let err = (histogram.counts()[i] - truth).abs();
        assert!(
            err < 0.05 * n,
            "bucket {i}: err {err} too large (truth {truth})"
        );
    }
    // And the total mass is close to n.
    assert!((histogram.total() - n).abs() < 0.05 * n);
}

#[test]
fn private_quantiles_run_off_the_broker_network() {
    let (dataset, parts) = setup();
    let mut network = FlatNetwork::from_partitions(parts, 13);
    network.collect_samples(0.5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let config = QuantileConfig {
        domain: (0.0, 200.0),
        steps: 20,
        epsilon: Epsilon::new(5.0).unwrap(),
        sensitivity: Sensitivity::new(2.0).unwrap(),
    };
    let values = dataset.values(AirQualityIndex::Ozone);
    for q in [0.25, 0.5, 0.75] {
        let result =
            private_quantile(&RankCounting, network.station(), q, &config, &mut rng).unwrap();
        let truth = prc::data::stats::quantile(&values, q).unwrap();
        assert!(
            (result.value - truth).abs() < 12.0,
            "q{q}: {} vs true {truth}",
            result.value
        );
    }
}

#[test]
fn every_broker_answer_survives_a_consumer_audit() {
    let (_, parts) = setup();
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(parts, 21), 21);
    for (alpha, delta) in [(0.05, 0.8), (0.1, 0.6), (0.2, 0.5)] {
        let answer = broker
            .answer(&QueryRequest::new(
                RangeQuery::new(70.0, 130.0).unwrap(),
                Accuracy::new(alpha, delta).unwrap(),
            ))
            .unwrap();
        let shape = NetworkShape::from_station(broker.network().station()).unwrap();
        assert!(
            verify_answer(&answer, shape).is_ok(),
            "audit failed for ({alpha}, {delta}): {:?}",
            audit_answer(&answer, shape)
        );
    }
}

#[test]
fn advanced_accountant_tightens_a_long_broker_session() {
    let (_, parts) = setup();
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(parts, 33), 33);
    let mut accountant = AdvancedAccountant::new();
    let request = QueryRequest::new(
        RangeQuery::new(70.0, 130.0).unwrap(),
        Accuracy::new(0.15, 0.5).unwrap(),
    );
    for _ in 0..200 {
        let answer = broker.answer(&request).unwrap();
        accountant.record(answer.plan.effective_epsilon);
    }
    assert_eq!(accountant.queries(), 200);
    let basic = accountant.basic_total();
    let best = accountant.best_total(1e-6);
    assert!(
        best.epsilon <= basic.epsilon,
        "best bound must never exceed basic"
    );
    // The per-query effective budgets here are tiny, so advanced
    // composition should win decisively on a 200-query session.
    assert!(
        best.epsilon < basic.epsilon,
        "expected advanced composition to win: basic {} vs best {}",
        basic.epsilon,
        best.epsilon
    );
}

#[test]
fn history_pricing_integrates_with_the_marketplace() {
    let (dataset, parts) = setup();
    let model = ChebyshevVariance::new(dataset.len());
    let posted = SqrtPrecisionPricing::new(1e4, model);
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(parts, 41), 41);
    broker.enable_pricing(Box::new(HistoryAwarePricing::new(posted, model)));

    // A repeat customer pays marginal prices; the total equals the posted
    // price of their accumulated precision.
    let request = QueryRequest::new(
        RangeQuery::new(70.0, 130.0).unwrap(),
        Accuracy::new(0.1, 0.6).unwrap(),
    );
    let mut total_paid = 0.0;
    for _ in 0..4 {
        total_paid += broker
            .answer_as("repeat-customer", &request)
            .unwrap()
            .price
            .unwrap();
    }
    let held = 4.0 / model.variance(0.1, 0.6);
    let posted_for_held = posted.price_of_precision(held);
    assert!(
        (total_paid - posted_for_held).abs() < 1e-6,
        "telescoping broke: paid {total_paid} vs posted {posted_for_held}"
    );
    let ledger = broker.pricing().unwrap().ledger();
    assert_eq!(ledger.len(), 4);
    // Marginal prices decrease for the concave family.
    let prices: Vec<f64> = ledger.records().iter().map(|r| r.price).collect();
    assert!(prices.windows(2).all(|w| w[1] < w[0]));
}
