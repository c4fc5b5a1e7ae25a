//! Equivalence suite for the staged `QuerySession` pipeline refactor.
//!
//! Every golden constant below is the exact bit pattern of an answer
//! released by the pre-refactor broker (captured from the commit before
//! the pipeline module existed, same seeds, same workloads). The staged
//! pipeline must release **byte-identical** values through every entry
//! point — `answer`, `answer_batch`, `answer_with_epsilon`, and the
//! monitor's `answer_epoch` — on both the flat and the tree network
//! drivers. Any drift here means the refactor changed an observable
//! release, which is a correctness bug, not a tolerance issue.
//!
//! The suite also pins the two behaviours the refactor *added*:
//! two-phase budgeting (a failed release rolls its hold back — the old
//! single-phase `spend` leaked it) and the priced end-to-end
//! transaction (quote → arbitrage certification → reserve → commit →
//! ledger settlement) with zero test-side glue.

use prc::prelude::*;

fn partitions(k: usize, per_node: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
        .collect()
}

fn request(l: f64, u: f64, a: f64, d: f64) -> QueryRequest {
    QueryRequest::new(
        RangeQuery::new(l, u).expect("test range is valid"),
        Accuracy::new(a, d).expect("test demand is valid"),
    )
}

fn guard(n: usize) -> Box<dyn ReuseGuard> {
    let model = ChebyshevVariance::new(n);
    Box::new(PostedPriceReuse::new(
        InverseVariancePricing::new(1e7, model),
        model,
    ))
}

/// Pre-refactor bits: three sequential `answer` calls, no cache.
/// Scenario: partitions(10, 1000), network seed 8, broker seed 8.
const GOLDEN_SEQ: [u64; 3] = [0x40a39db0382c6cd2, 0x40b33d6a1935f3ec, 0x409f4a4585aafe44];

/// Pre-refactor bits: cached sequence (hit on the repeat), guard(10_000).
/// Scenario: partitions(5, 2000), network seed 6, broker seed 6.
const GOLDEN_CACHED: [u64; 4] = [
    0x40a3c3921f4ab6ce,
    0x40a3c3921f4ab6ce,
    0x40b405c94e4b906f,
    0xc0ba60f611738c08,
];

/// Pre-refactor bits: batched engine with cache + duplicate deferral.
/// Scenario: partitions(8, 700), network seed 21, broker seed 21,
/// guard(5_600).
const GOLDEN_BATCH: [u64; 5] = [
    0x409c00d2d1f08450,
    0x409fe907be30fa29,
    0x40abd8ce9e6fd0a0,
    0x406b9d3a5a45b002,
    0x409fe907be30fa29,
];

/// Pre-refactor bits: batched engine, no cache.
/// Scenario: partitions(6, 700), network seed 9, broker seed 9.
const GOLDEN_BATCH_NOCACHE: [u64; 3] = [0x409ee18e2d273762, 0x40a0d5d8174fbb58, 0x40a31dc7f3a9131c];

/// Pre-refactor bits: fixed-ε hook interleaved with a demand answer.
/// Scenario: partitions(5, 1000), network seed 5, broker seed 5.
const GOLDEN_EPS: [u64; 4] = [
    0x40a3a8e384782938,
    0x40a770580c6a5fbd,
    0x40a6468e4f58fc5b,
    0x40a38a0fb0f3b798,
];

/// Pre-refactor bits: the same interleaving's head (seed 5), captured on
/// the retired threaded driver and now asserted on the tree driver.
const GOLDEN_EPS_THREADED: [u64; 2] = [0x40a3a8e384782938, 0x40a280c1bd0ebba8];

/// Pre-refactor bits: three monitor epochs over the CityPulse replay.
const GOLDEN_MONITOR_EPOCHS: [u64; 3] =
    [0x404e4fac71ed722b, 0x4050b59e1d561e52, 0x404b9f4f4e992208];

fn seq_requests() -> [QueryRequest; 3] {
    [
        request(0.0, 2_500.0, 0.1, 0.6),
        request(2_500.0, 7_500.0, 0.05, 0.8),
        request(1_000.0, 3_000.0, 0.08, 0.7),
    ]
}

fn batch_workload() -> Vec<QueryRequest> {
    vec![
        request(0.0, 2_000.0, 0.15, 0.5),
        request(1_000.0, 3_000.0, 0.08, 0.7),
        request(500.0, 3_500.0, 0.15, 0.5),
        request(-10.0, -1.0, 0.15, 0.5),
        request(1_000.0, 3_000.0, 0.08, 0.7), // duplicate of #1
    ]
}

#[test]
fn sequential_answers_match_pre_refactor_bits_flat() {
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(10, 1_000), 8), 8);
    let bits: Vec<u64> = seq_requests()
        .iter()
        .map(|r| broker.answer(r).unwrap().value.to_bits())
        .collect();
    assert_eq!(bits, GOLDEN_SEQ);
}

#[test]
fn sequential_answers_match_pre_refactor_bits_tree() {
    // The tree driver samples identically for the same seed, so broker
    // answers over it must carry the exact pre-refactor bits — there is
    // no per-driver special case anywhere in prc-core.
    let net = TreeNetwork::from_partitions(partitions(10, 1_000), 2, 8);
    let mut broker = DataBroker::new(net, 8);
    let bits: Vec<u64> = seq_requests()
        .iter()
        .map(|r| broker.answer(r).unwrap().value.to_bits())
        .collect();
    assert_eq!(bits, GOLDEN_SEQ);
}

#[test]
fn batched_answers_match_pre_refactor_bits_tree() {
    let net = TreeNetwork::from_partitions(partitions(8, 700), 3, 21);
    let mut broker = DataBroker::new(net, 21);
    broker.enable_answer_cache(guard(5_600));
    let report = broker.answer_batch(&batch_workload());
    let bits: Vec<u64> = report
        .answers
        .iter()
        .map(|r| r.as_ref().unwrap().value.to_bits())
        .collect();
    assert_eq!(bits, GOLDEN_BATCH);
}

#[test]
fn tree_broker_costs_exceed_flat_by_the_depth_multiplier() {
    // Identical answers (pinned above) — but the tree pays per hop:
    // every node's byte bill is exactly depth × its flat-driver bill.
    use prc::net::message::NodeId;

    let mut flat_broker =
        DataBroker::new(FlatNetwork::from_partitions(partitions(10, 1_000), 8), 8);
    let mut tree_broker =
        DataBroker::new(TreeNetwork::from_partitions(partitions(10, 1_000), 2, 8), 8);
    for r in seq_requests() {
        flat_broker.answer(&r).unwrap();
        tree_broker.answer(&r).unwrap();
    }
    let flat_bytes = flat_broker.network().meter().per_node_bytes();
    let tree_bytes = tree_broker.network().meter().per_node_bytes();
    for i in 0..10u32 {
        let depth = u64::from(tree_broker.network().depth(i as usize));
        assert_eq!(
            tree_bytes[&NodeId(i)],
            flat_bytes[&NodeId(i)] * depth,
            "node {i}: tree bytes must be exactly depth ({depth}) times flat bytes"
        );
    }
    let flat_cost = flat_broker.network().meter().snapshot();
    let tree_cost = tree_broker.network().meter().snapshot();
    assert!(tree_cost.messages > flat_cost.messages);
    assert_eq!(flat_cost.samples, tree_cost.samples);
}

#[test]
fn cached_answers_match_pre_refactor_bits() {
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(5, 2_000), 6), 6);
    broker.enable_answer_cache(guard(10_000));
    let sequence = [
        request(0.0, 2_500.0, 0.1, 0.6),
        request(0.0, 2_500.0, 0.1, 0.6), // cache hit
        request(2_500.0, 7_500.0, 0.05, 0.8),
        request(0.0, 2_500.0, 0.2, 0.5),
    ];
    let bits: Vec<u64> = sequence
        .iter()
        .map(|r| broker.answer(r).unwrap().value.to_bits())
        .collect();
    assert_eq!(bits, GOLDEN_CACHED);
    assert_eq!(broker.counters().cache_hits, 1);
}

#[test]
fn batched_answers_match_pre_refactor_bits_flat() {
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(8, 700), 21), 21);
    broker.enable_answer_cache(guard(5_600));
    let report = broker.answer_batch(&batch_workload());
    let bits: Vec<u64> = report
        .answers
        .iter()
        .map(|r| r.as_ref().unwrap().value.to_bits())
        .collect();
    assert_eq!(bits, GOLDEN_BATCH);
}

#[test]
fn uncached_batches_match_pre_refactor_bits() {
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(6, 700), 9), 9);
    let report = broker.answer_batch(&batch_workload()[..3]);
    let bits: Vec<u64> = report
        .answers
        .iter()
        .map(|r| r.as_ref().unwrap().value.to_bits())
        .collect();
    assert_eq!(bits, GOLDEN_BATCH_NOCACHE);
}

#[test]
fn fixed_epsilon_interleaving_matches_pre_refactor_bits_flat() {
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(5, 1_000), 5), 5);
    let q1 = RangeQuery::new(0.0, 2_500.0).unwrap();
    let q2 = RangeQuery::new(1_000.0, 4_000.0).unwrap();
    let bits = [
        broker
            .answer_with_epsilon(q1, Epsilon::new(2.0).unwrap(), 0.4)
            .unwrap()
            .value
            .to_bits(),
        broker
            .answer_with_epsilon(q2, Epsilon::new(0.5).unwrap(), 0.7)
            .unwrap()
            .value
            .to_bits(),
        broker
            .answer(&request(0.0, 2_500.0, 0.1, 0.6))
            .unwrap()
            .value
            .to_bits(),
        broker
            .answer_with_epsilon(q1, Epsilon::new(1.0).unwrap(), 0.9)
            .unwrap()
            .value
            .to_bits(),
    ];
    assert_eq!(bits, GOLDEN_EPS);
}

#[test]
fn fixed_epsilon_interleaving_matches_pre_refactor_bits_tree() {
    let net = TreeNetwork::from_partitions(partitions(5, 1_000), 2, 5);
    let mut broker = DataBroker::new(net, 5);
    let q1 = RangeQuery::new(0.0, 2_500.0).unwrap();
    let bits = [
        broker
            .answer_with_epsilon(q1, Epsilon::new(2.0).unwrap(), 0.4)
            .unwrap()
            .value
            .to_bits(),
        broker
            .answer(&request(0.0, 2_500.0, 0.1, 0.6))
            .unwrap()
            .value
            .to_bits(),
    ];
    assert_eq!(bits, GOLDEN_EPS_THREADED);
}

#[test]
fn monitor_epochs_match_pre_refactor_bits() {
    use prc::core::monitor::{ContinuousMonitor, MonitorConfig};
    use prc::data::stream::StreamReplayer;

    let dataset = CityPulseGenerator::new(5).record_count(2_000).generate();
    let mut replay = StreamReplayer::new(&dataset);
    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        query: RangeQuery::new(60.0, 140.0).unwrap(),
        accuracy: Accuracy::new(0.15, 0.5).unwrap(),
        index: AirQualityIndex::Ozone,
        window_seconds: 6 * 3_600,
        nodes: 8,
        session_budget: Epsilon::new(10.0).unwrap(),
        seed: 42,
    });
    let mut bits = Vec::new();
    for _ in 0..3 {
        monitor.ingest(replay.advance_by(200));
        bits.push(monitor.answer_epoch().unwrap().answer.value.to_bits());
    }
    assert_eq!(bits, GOLDEN_MONITOR_EPOCHS);
}

#[test]
fn fixed_epsilon_answers_carry_real_metadata_now() {
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(5, 1_000), 5), 5);
    let q = RangeQuery::new(0.0, 2_500.0).unwrap();
    let answer = broker
        .answer_with_epsilon(q, Epsilon::new(2.0).unwrap(), 0.4)
        .unwrap();
    // No fabricated (0.5, 0.5) demand, no NaN plan fields.
    assert_eq!(answer.accuracy, None);
    assert!(answer.plan.alpha_prime.is_finite());
    assert!(answer.plan.delta_prime.is_finite());
    assert!(answer.plan.tail_probability.is_finite());
    // The degenerate plan still renders a summary both the release and
    // the ledger can carry.
    let summary = answer.plan.summary();
    assert_eq!(summary.noise_variance, answer.plan.noise_variance());
    assert!(!summary.to_string().contains("NaN"));
}

#[test]
fn fixed_epsilon_answers_participate_in_the_cache() {
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(5, 1_000), 5), 5);
    broker.enable_answer_cache(guard(5_000));
    let q = RangeQuery::new(0.0, 2_500.0).unwrap();
    let eps = Epsilon::new(2.0).unwrap();
    let first = broker.answer_with_epsilon(q, eps, 0.4).unwrap();
    let repeat = broker.answer_with_epsilon(q, eps, 0.4).unwrap();
    assert_eq!(first.value.to_bits(), repeat.value.to_bits());
    assert_eq!(broker.counters().cache_hits, 1);
    // A different ε is a different product: answered fresh.
    let other = broker
        .answer_with_epsilon(q, Epsilon::new(1.0).unwrap(), 0.4)
        .unwrap();
    assert_ne!(other.value.to_bits(), first.value.to_bits());
    // Fixed-ε entries never satisfy (α, δ) demand lookups.
    let fresh = broker.answer(&request(0.0, 2_500.0, 0.1, 0.6)).unwrap();
    assert_ne!(fresh.value.to_bits(), first.value.to_bits());
}

#[test]
fn failed_releases_roll_their_budget_hold_back() {
    // SensitivityPolicy::Fixed(-1) survives planning but fails the noise
    // draw — the exact spot where the old single-phase spend leaked ε.
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(5, 1_000), 7), 7);
    broker.set_privacy_budget(Epsilon::new(4.0).unwrap());
    let config = OptimizerConfig {
        sensitivity: SensitivityPolicy::Fixed(-1.0),
        ..Default::default()
    };
    broker.set_optimizer_config(config);
    let q = RangeQuery::new(0.0, 2_500.0).unwrap();
    let err = broker.answer_with_epsilon(q, Epsilon::new(1.0).unwrap(), 0.4);
    assert!(err.is_err(), "negative noise scale must fail the draw");
    let accountant = broker.accountant().unwrap();
    assert_eq!(
        accountant.remaining().value(),
        4.0,
        "the failed release must not consume budget"
    );
    assert_eq!(accountant.spent().value(), 0.0);
    assert_eq!(accountant.reserved().value(), 0.0);
    assert_eq!(broker.counters().budget_rollbacks, 1);
    // The budget is genuinely intact: a valid request still succeeds.
    let valid = OptimizerConfig {
        sensitivity: SensitivityPolicy::Expected,
        ..Default::default()
    };
    broker.set_optimizer_config(valid);
    assert!(broker.answer(&request(0.0, 2_500.0, 0.1, 0.6)).is_ok());
}

#[test]
fn priced_end_to_end_transaction_settles_in_the_ledger() {
    // Quote → arbitrage certification → reserve → commit → settlement,
    // all through the broker's own pipeline; the test only inspects.
    let model = ChebyshevVariance::new(10_000);
    let engine = PostedPriceEngine::new(InverseVariancePricing::new(1e7, model), model);
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(10, 1_000), 8), 8);
    broker.set_privacy_budget(Epsilon::new(4.0).unwrap());
    broker.enable_pricing(Box::new(engine));

    let req = request(0.0, 2_500.0, 0.1, 0.6);
    let priced = broker.answer_as("alice", &req).unwrap();
    let expected_price = InverseVariancePricing::new(1e7, model).price(0.1, 0.6);
    assert_eq!(priced.price, Some(expected_price));
    assert_eq!(priced.settlement, Some(0));
    assert!(priced.answer.value.is_finite());

    // The budget hold was committed, not leaked or left reserved.
    let accountant = broker.accountant().unwrap();
    assert_eq!(accountant.operations(), 1);
    assert_eq!(accountant.reserved().value(), 0.0);
    assert!(accountant.spent().value() > 0.0);

    // The ledger carries the released answer's metadata.
    let engine = broker.pricing().unwrap();
    assert_eq!(engine.ledger().len(), 1);
    let record = &engine.ledger().records()[0];
    assert_eq!(record.buyer, "alice");
    assert_eq!(
        record.noise_variance,
        Some(priced.answer.plan.noise_variance())
    );
    assert_eq!(
        record.plan.as_deref(),
        Some(priced.answer.plan.summary().to_string().as_str())
    );
    assert!((record.price - expected_price).abs() < 1e-9);
    assert_eq!(broker.counters().settlements, 1);
}

#[test]
fn arbitrageable_demands_are_refused_before_any_budget_moves() {
    // LinearDeltaPricing is deliberately exploitable; the engine must
    // refuse the quote at Admit, before a hold or a collection happens.
    let model = ChebyshevVariance::new(10_000);
    let engine = PostedPriceEngine::new(LinearDeltaPricing::new(10.0), model);
    let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(10, 1_000), 8), 8);
    broker.set_privacy_budget(Epsilon::new(4.0).unwrap());
    broker.enable_pricing(Box::new(engine));

    let err = broker
        .answer_as("mallory", &request(0.0, 2_500.0, 0.05, 0.8))
        .unwrap_err();
    assert!(matches!(err, CoreError::Pricing(_)), "got {err:?}");
    let accountant = broker.accountant().unwrap();
    assert_eq!(accountant.spent().value(), 0.0);
    assert_eq!(accountant.reserved().value(), 0.0);
    assert_eq!(broker.counters().collection_rounds, 0);
    assert_eq!(broker.pricing().unwrap().ledger().len(), 0);
}

#[test]
fn unpriced_sessions_release_the_same_bits_as_priced_ones() {
    // Pricing is pure bookkeeping: it must not perturb the noise stream.
    let run = |priced: bool| {
        let mut broker = DataBroker::new(FlatNetwork::from_partitions(partitions(10, 1_000), 8), 8);
        if priced {
            let model = ChebyshevVariance::new(10_000);
            broker.enable_pricing(Box::new(PostedPriceEngine::new(
                InverseVariancePricing::new(1e7, model),
                model,
            )));
        }
        seq_requests()
            .iter()
            .map(|r| {
                if priced {
                    broker.answer_as("bob", r).unwrap().answer.value.to_bits()
                } else {
                    broker.answer(r).unwrap().value.to_bits()
                }
            })
            .collect::<Vec<u64>>()
    };
    assert_eq!(run(false), run(true));
    assert_eq!(run(true), GOLDEN_SEQ);
}

/// Stage counters after a fixed-ε request fails with `NoSamples` on a
/// cached, budgeted broker: the collection round ran and the cache was
/// consulted once, but nothing was released, held or rolled back.
/// Captured, like the next constant, while the fixed-ε hook still had
/// its own driver.
const GOLDEN_NO_SAMPLES_COUNTERS: StageCounters = StageCounters {
    collection_rounds: 1,
    samples_collected: 0,
    cache_hits: 0,
    cache_misses: 1,
    answers_released: 0,
    index_builds: 0,
    indexed_estimates: 0,
    plan_cache_hits: 0,
    gallop_steps: 0,
    settlements: 0,
    budget_rollbacks: 0,
};

/// Stage counters after the `GOLDEN_EPS` interleaving on a cached,
/// budgeted broker.
const GOLDEN_EPS_CACHED_COUNTERS: StageCounters = StageCounters {
    collection_rounds: 3,
    samples_collected: 4_492,
    cache_hits: 0,
    cache_misses: 4,
    answers_released: 4,
    index_builds: 0,
    indexed_estimates: 0,
    plan_cache_hits: 0,
    gallop_steps: 0,
    settlements: 0,
    budget_rollbacks: 0,
};

/// A broker over `partitions(5, 1_000)` with seed 5 — the `GOLDEN_EPS`
/// scenario — plus an answer cache and a privacy budget.
fn cached_budgeted_broker<N: Network>(network: N) -> DataBroker<RankCounting, N> {
    let mut broker = DataBroker::new(network, 5);
    broker.enable_answer_cache(guard(5_000));
    broker.set_privacy_budget(Epsilon::new(50.0).expect("test budget is valid"));
    broker
}

#[test]
fn fixed_epsilon_refuses_invalid_probabilities_before_any_state_moves() {
    let mut broker = cached_budgeted_broker(FlatNetwork::from_partitions(partitions(5, 1_000), 5));
    let q = RangeQuery::new(0.0, 2_500.0).unwrap();
    let eps = Epsilon::new(2.0).unwrap();
    // A prior release: a cache lookup for (q, ε) at any p ≤ 0.4 would hit.
    broker.answer_with_epsilon(q, eps, 0.4).unwrap();
    let counters = broker.counters();
    let accountant = broker.accountant().cloned();
    let cached = broker.cached_answers();
    let cost = broker.network().meter().snapshot();
    for p in [0.0, -0.0, f64::NAN, f64::NEG_INFINITY, f64::INFINITY, 1.5] {
        let err = broker.answer_with_epsilon(q, eps, p).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidProbability { .. }),
            "p = {p}: got {err:?}"
        );
        assert_eq!(broker.counters(), counters, "p = {p}: stage counters moved");
        assert_eq!(
            broker.accountant().cloned(),
            accountant,
            "p = {p}: budget moved"
        );
        assert_eq!(broker.cached_answers(), cached, "p = {p}: cache changed");
        assert_eq!(
            broker.network().meter().snapshot(),
            cost,
            "p = {p}: a round ran"
        );
    }
}

#[test]
fn fixed_epsilon_on_an_empty_or_dead_station_fails_with_no_samples() {
    let q = RangeQuery::new(0.0, 2_500.0).unwrap();
    let eps = Epsilon::new(2.0).unwrap();
    let mut all_dead = FailurePlan::none();
    for id in 0..5 {
        all_dead.kill_node(prc::net::message::NodeId(id));
    }
    let mut dead = FlatNetwork::from_partitions(partitions(5, 1_000), 5);
    dead.set_failure_plan(all_dead);
    let empty = FlatNetwork::from_partitions(vec![Vec::new(); 5], 5);
    for (name, network) in [("empty", empty), ("all-dead", dead)] {
        let mut broker = cached_budgeted_broker(network);
        let err = broker.answer_with_epsilon(q, eps, 0.4).unwrap_err();
        assert!(matches!(err, CoreError::NoSamples), "{name}: got {err:?}");
        let accountant = broker.accountant().unwrap();
        assert_eq!(accountant.spent().value(), 0.0, "{name}: spent");
        assert_eq!(accountant.reserved().value(), 0.0, "{name}: reserved");
        assert_eq!(
            broker.counters(),
            GOLDEN_NO_SAMPLES_COUNTERS,
            "{name}: stage counters"
        );
    }
}

#[test]
fn fixed_epsilon_interleaving_pins_counters_with_cache_and_budget() {
    let mut broker = cached_budgeted_broker(FlatNetwork::from_partitions(partitions(5, 1_000), 5));
    let q1 = RangeQuery::new(0.0, 2_500.0).unwrap();
    let q2 = RangeQuery::new(1_000.0, 4_000.0).unwrap();
    let bits = [
        broker
            .answer_with_epsilon(q1, Epsilon::new(2.0).unwrap(), 0.4)
            .unwrap()
            .value
            .to_bits(),
        broker
            .answer_with_epsilon(q2, Epsilon::new(0.5).unwrap(), 0.7)
            .unwrap()
            .value
            .to_bits(),
        broker
            .answer(&request(0.0, 2_500.0, 0.1, 0.6))
            .unwrap()
            .value
            .to_bits(),
        broker
            .answer_with_epsilon(q1, Epsilon::new(1.0).unwrap(), 0.9)
            .unwrap()
            .value
            .to_bits(),
    ];
    assert_eq!(bits, GOLDEN_EPS);
    assert_eq!(broker.counters(), GOLDEN_EPS_CACHED_COUNTERS);
    // One committed hold per fresh release; nothing was re-served.
    assert_eq!(broker.accountant().unwrap().operations(), 4);
}
