//! Streaming/dynamic integration: outage-ridden streams, sliding-window
//! monitoring under failure, and dynamic node membership end to end.

use prc::core::estimator::{RangeCountEstimator, RankCounting};
use prc::core::monitor::{ContinuousMonitor, EpochResult, MonitorConfig};
use prc::data::stream::{SlidingWindow, StreamReplayer};
use prc::net::trace::Tracer;
use prc::prelude::*;

#[test]
fn monitor_survives_an_outage_ridden_stream() {
    // Sensor outages punch irregular gaps into the stream; the window and
    // monitor must keep functioning across them.
    let dataset = CityPulseGenerator::new(3)
        .record_count(4_000)
        .outages(0.01, 15.0)
        .generate();
    assert!(dataset.len() < 4_000, "outages must have dropped records");

    let mut replay = StreamReplayer::new(&dataset);
    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        query: RangeQuery::new(60.0, 140.0).unwrap(),
        accuracy: Accuracy::new(0.2, 0.5).unwrap(),
        index: AirQualityIndex::Ozone,
        window_seconds: 12 * 3_600,
        nodes: 6,
        session_budget: Epsilon::new(50.0).unwrap(),
        seed: 3,
    });
    let mut epochs = 0;
    while !replay.is_exhausted() && epochs < 8 {
        monitor.ingest(replay.advance_by(400));
        if monitor.window_size() > 0 {
            let result = monitor.answer_epoch().unwrap();
            assert!(result.answer.value.is_finite());
            epochs += 1;
        }
    }
    assert!(epochs >= 6, "only {epochs} epochs ran");
}

#[test]
fn sliding_window_tolerates_gap_larger_than_span() {
    // A gap longer than the window must fully flush it.
    let mut window = SlidingWindow::new(3_600);
    let mk = |ts: i64| prc::data::record::PollutionRecord {
        timestamp: prc::data::time::Timestamp(ts),
        sensor_id: 0,
        ozone: 1.0,
        particulate_matter: 1.0,
        carbon_monoxide: 1.0,
        sulfur_dioxide: 1.0,
        nitrogen_dioxide: 1.0,
    };
    window.ingest_all([mk(0), mk(300), mk(600)]);
    assert_eq!(window.len(), 3);
    // Jump 2 hours — far beyond the 1-hour span.
    window.ingest(mk(7_800));
    assert_eq!(window.len(), 1);
}

#[test]
fn dynamic_nodes_join_a_live_marketplace() {
    let dataset = CityPulseGenerator::new(11).record_count(4_000).generate();
    let values = dataset.values(AirQualityIndex::CarbonMonoxide);
    let (early, late) = values.split_at(3_000);
    let parts = prc::data::partition::partition_values(early, 10, PartitionStrategy::RoundRobin);

    let mut network = FlatNetwork::from_partitions(parts, 9);
    let tracer = Tracer::new(1_024);
    network.set_tracer(tracer.clone());
    network.collect_samples(0.4);
    let query = RangeQuery::new(40.0, 90.0).unwrap();
    let before = RankCounting.estimate(network.station(), query);

    // Two late-joining devices bring the remaining records.
    let (a, b) = late.split_at(late.len() / 2);
    network.add_node(a.to_vec(), 9);
    network.add_node(b.to_vec(), 9);
    network.collect_samples(0.4);
    let after = RankCounting.estimate(network.station(), query);

    let truth_before = early
        .iter()
        .filter(|&&v| (40.0..=90.0).contains(&v))
        .count() as f64;
    let truth_after = values
        .iter()
        .filter(|&&v| (40.0..=90.0).contains(&v))
        .count() as f64;
    assert!((before - truth_before).abs() < 0.15 * truth_before.max(200.0));
    assert!((after - truth_after).abs() < 0.15 * truth_after.max(200.0));
    assert!(after > before, "the estimate must grow with the population");

    // The trace shows exactly two extra deliveries in round 2.
    let events = tracer.events();
    let round_markers: Vec<_> = events
        .iter()
        .filter(|e| e.kind() == "round_completed")
        .collect();
    assert_eq!(round_markers.len(), 2);
    let second_round_deliveries = events
        .iter()
        .skip_while(|e| e.kind() != "round_completed")
        .skip(1)
        .filter(|e| e.kind() == "batch_delivered")
        .count();
    assert_eq!(
        second_round_deliveries, 2,
        "only the newcomers ship in round 2"
    );
}

#[test]
fn windowed_broker_answers_match_window_truth() {
    // Build datasets from window snapshots and verify the broker answers
    // against the *window's* truth, not the stream's.
    let dataset = CityPulseGenerator::new(21).record_count(2_000).generate();
    let mut replay = StreamReplayer::new(&dataset);
    let mut window = SlidingWindow::new(8 * 3_600);
    let mut checked = 0;
    for step in 0..5 {
        window.ingest_all(replay.advance_by(400));
        let snapshot = window.snapshot();
        let values = snapshot.values(AirQualityIndex::Ozone);
        let truth = values
            .iter()
            .filter(|&&v| (70.0..=130.0).contains(&v))
            .count() as f64;
        if truth < 10.0 {
            continue;
        }
        let network = FlatNetwork::from_dataset(
            &snapshot,
            AirQualityIndex::Ozone,
            5,
            PartitionStrategy::RoundRobin,
            21 + step,
        );
        let mut broker = DataBroker::new(network, 21 + step);
        // δ = 0.9: at most 10% of answers may exceed αn, with
        // exponentially decaying tails beyond it — 3αn is a safe test
        // bound (exceedance probability < 0.1%).
        let accuracy = Accuracy::new(0.2, 0.9).unwrap();
        let answer = broker
            .answer(&QueryRequest::new(
                RangeQuery::new(70.0, 130.0).unwrap(),
                accuracy,
            ))
            .unwrap();
        let allowance = accuracy.alpha() * snapshot.len() as f64;
        assert!(
            (answer.value - truth).abs() <= 3.0 * allowance + 30.0,
            "step {step}: answer {} vs window truth {truth} (allowance {allowance})",
            answer.value
        );
        checked += 1;
    }
    assert!(checked >= 3, "too few windows checked: {checked}");
}

/// Runs `epochs` monitor epochs of `per_epoch` replayed records each over
/// a `window_seconds` window on 8 nodes, and rebuilds every epoch from
/// public parts: a fresh flat network over the window's stable partition
/// (stream sequence number mod 8), seeded with `seed ^ epoch` and
/// collected at the answer's planned probability. The monitor's
/// pre-noise estimate must be RankCounting's on that station, bit for
/// bit, and the epoch's counters that network's. Returns the epochs.
fn assert_epochs_rebuild(window_seconds: i64, per_epoch: usize, epochs: usize) -> Vec<EpochResult> {
    const NODES: usize = 8;
    const SEED: u64 = 42;
    let query = RangeQuery::new(60.0, 140.0).expect("a valid range");
    let dataset = CityPulseGenerator::new(5)
        .record_count(per_epoch * epochs)
        .generate();
    let mut replay = StreamReplayer::new(&dataset);
    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        query,
        // Loose enough that a full window is sampled at p < 1.
        accuracy: Accuracy::new(0.6, 0.2).expect("a valid accuracy"),
        index: AirQualityIndex::Ozone,
        window_seconds,
        nodes: NODES,
        session_budget: Epsilon::new(1e6).expect("a positive budget"),
        seed: SEED,
    });
    let mut stream: Vec<f64> = Vec::new();
    let mut results = Vec::new();
    for epoch in 0..epochs as u64 {
        let records = replay.advance_by(per_epoch);
        stream.extend(records.iter().map(|r| r.value(AirQualityIndex::Ozone)));
        monitor.ingest(records);
        let result = monitor.answer_epoch().expect("the epoch is answered");

        // The window is the newest `window_size` records of the stream.
        let first = stream.len() - result.window_size;
        let mut parts = vec![Vec::new(); NODES];
        for (sequence, &value) in stream.iter().enumerate().skip(first) {
            parts[sequence % NODES].push(value);
        }
        let mut fresh = FlatNetwork::from_partitions(parts, SEED ^ epoch);
        let delivered = fresh.collect_samples(result.answer.plan.probability);
        let estimate = RankCounting.estimate(fresh.station(), query);
        assert_eq!(
            result.answer.sample_estimate.to_bits(),
            estimate.to_bits(),
            "epoch {epoch}: the sample estimate"
        );
        assert_eq!(result.stages.samples_collected, delivered as u64);
        assert_eq!(
            result.chargeable_messages,
            fresh.meter().snapshot().chargeable_messages(),
            "epoch {epoch}: chargeable messages"
        );
        results.push(result);
    }
    results
}

#[test]
fn monitor_epochs_rebuild_from_public_parts_on_a_sliding_window() {
    // Five records (25 minutes) per epoch into a six-hour window: the
    // early windows hold fewer records than nodes, the later ones slide
    // by far less than their length.
    let results = assert_epochs_rebuild(6 * 3_600, 5, 30);
    assert!(results.first().unwrap().window_size < 8);
    assert_eq!(results.last().unwrap().window_size, 72);
}

#[test]
fn monitor_epochs_rebuild_from_public_parts_when_a_batch_overruns_the_window() {
    // 200 records per epoch into a window of about 72: every epoch's
    // arrivals overrun it, and most of them never reach a node.
    let results = assert_epochs_rebuild(6 * 3_600, 200, 20);
    assert!(results.iter().all(|r| r.window_size <= 73));
}

#[test]
fn monitor_epoch_counters_count_one_epoch() {
    let results = assert_epochs_rebuild(6 * 3_600, 5, 30);
    let mut previous_window = None;
    for result in &results {
        assert_eq!(result.stages.collection_rounds, 1, "epoch {}", result.epoch);
        assert_eq!(result.stages.answers_released, 1, "epoch {}", result.epoch);
        // Once the window holds steady, so does the station's shape, and
        // the epoch's plan comes from the cache.
        let steady = previous_window == Some(result.window_size);
        assert_eq!(
            result.stages.plan_cache_hits,
            u64::from(steady),
            "epoch {}",
            result.epoch
        );
        previous_window = Some(result.window_size);
    }
    assert!(
        results
            .iter()
            .filter(|r| r.stages.plan_cache_hits == 1)
            .count()
            >= 10
    );
}
