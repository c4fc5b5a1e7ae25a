//! Adversarial admission sweep: hostile bounds, edge accuracies, and
//! empty or all-dead stations through every public answer path.
//!
//! The inputs are NaN, ±∞ and −0.0 bounds, inverted ranges, α and δ at
//! and past the edges of `(0, 1)` (the smallest subnormal α and δ,
//! δ = 10⁻²⁰ and δ = 1 − 2⁻⁵³ included), and the same edges for the
//! fixed-ε hook's `(ε, p)`. They go through `answer`, a priced and cached `answer_as`
//! under a budget, `answer_batch`, `answer_with_epsilon` and the
//! monitor, on populated, empty and all-dead stations of the flat and
//! tree drivers. Every case must end in a typed error or a finite
//! release:
//!
//! * a release's `sample_estimate` is `RankCounting::estimate` on the
//!   broker's own station, bit for bit;
//! * an error moves neither the accountant's spent budget and operation
//!   count nor the pricing ledger, and no hold is left open;
//! * `[−∞, +∞]` releases the whole-station estimate: the population of
//!   every reporting node.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use prc::core::monitor::{ContinuousMonitor, MonitorConfig};
use prc::prelude::*;

const NODES: usize = 6;
const PER_NODE: usize = 40;
/// Values are `0..POPULATION`, spread round-robin over the nodes.
const POPULATION: usize = NODES * PER_NODE;

const MIN_SUBNORMAL: f64 = f64::from_bits(1);
const ONE_MINUS: f64 = 1.0 - f64::EPSILON / 2.0;
/// A confidence below 2⁻⁵³.
const TINY_DELTA: f64 = 1e-20;

/// Range bounds: NaN, both infinities, both zeros, the extreme finite
/// values, and two bounds inside the support.
const BOUNDS: [f64; 9] = [
    f64::NAN,
    f64::NEG_INFINITY,
    f64::MIN,
    -0.0,
    0.0,
    60.5,
    239.0,
    f64::MAX,
    f64::INFINITY,
];

/// `(α, δ)` demands: one ordinary, four valid extremes, four past the
/// edges of `(0, 1)`. At δ = 10⁻²⁰, `1 − τ` rounds to 1 in the plan's
/// tail mass `τ = δ/δ′`.
const ACCURACIES: [(f64, f64); 9] = [
    (0.1, 0.6),
    (MIN_SUBNORMAL, 0.6),
    (0.1, ONE_MINUS),
    (0.5, TINY_DELTA),
    (ONE_MINUS, MIN_SUBNORMAL),
    (0.0, 0.6),
    (1.0, 0.6),
    (0.1, 1.0),
    (f64::NAN, -0.0),
];

/// Fixed-ε `(ε, p)` pairs for `answer_with_epsilon`.
const FIXED: [(f64, f64); 8] = [
    (1.0, 0.4),
    (1.0, 1.0),
    (1.0, MIN_SUBNORMAL),
    (1.0, ONE_MINUS),
    (0.0, 0.4),
    (MIN_SUBNORMAL, 0.4),
    (f64::MAX, 0.4),
    (1.0, f64::NAN),
];

fn partitions(empty: bool) -> Vec<Vec<f64>> {
    (0..NODES)
        .map(|i| {
            if empty {
                Vec::new()
            } else {
                (0..PER_NODE).map(|j| (i + NODES * j) as f64).collect()
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Populated,
    Empty,
    AllDead,
}

const SHAPES: [Shape; 3] = [Shape::Populated, Shape::Empty, Shape::AllDead];

fn all_dead() -> FailurePlan {
    let mut plan = FailurePlan::none();
    for id in 0..NODES {
        plan.kill_node(prc::net::message::NodeId(id as u32));
    }
    plan
}

fn flat(shape: Shape, seed: u64) -> FlatNetwork {
    let mut network = FlatNetwork::from_partitions(partitions(shape == Shape::Empty), seed);
    if shape == Shape::AllDead {
        network.set_failure_plan(all_dead());
    }
    network
}

fn tree(shape: Shape, seed: u64) -> TreeNetwork {
    let mut network = TreeNetwork::from_partitions(partitions(shape == Shape::Empty), 2, seed);
    if shape == Shape::AllDead {
        network.set_failure_plan(all_dead());
    }
    network
}

/// A broker with a privacy budget; `market` adds posted-price pricing
/// and the answer cache.
fn broker<N: Network>(network: N, seed: u64, market: bool) -> DataBroker<RankCounting, N> {
    let mut broker = DataBroker::new(network, seed);
    broker.set_privacy_budget(Epsilon::new(2.0).expect("valid budget"));
    if market {
        let model = ChebyshevVariance::new(POPULATION);
        broker.enable_pricing(Box::new(PostedPriceEngine::new(
            InverseVariancePricing::new(1e7, model),
            model,
        )));
        broker.enable_answer_cache(Box::new(PostedPriceReuse::new(
            InverseVariancePricing::new(1e7, model),
            model,
        )));
    }
    broker
}

/// What an error must leave alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Books {
    spent_bits: u64,
    reserved_bits: u64,
    operations: u64,
    ledger: usize,
}

fn books<N: Network>(broker: &DataBroker<RankCounting, N>) -> Books {
    let accountant = broker
        .accountant()
        .expect("every sweep broker has a budget");
    Books {
        spent_bits: accountant.spent().value().to_bits(),
        reserved_bits: accountant.reserved().value().to_bits(),
        operations: accountant.operations(),
        ledger: broker.pricing().map_or(0, |engine| engine.ledger().len()),
    }
}

/// Checks a fresh outcome against the broker's books before the call.
fn check<N: Network>(
    label: &str,
    broker: &DataBroker<RankCounting, N>,
    before: Books,
    outcome: &Result<PrivateAnswer, CoreError>,
) {
    let after = books(broker);
    assert_eq!(after.reserved_bits, 0, "{label}: a hold is left open");
    match outcome {
        Ok(answer) => {
            assert!(
                answer.value.is_finite(),
                "{label}: non-finite release {}",
                answer.value
            );
            let reference = RankCounting.estimate(broker.network().station(), answer.query);
            assert_eq!(
                answer.sample_estimate.to_bits(),
                reference.to_bits(),
                "{label}: sample estimate {} is not the station's {reference}",
                answer.sample_estimate
            );
        }
        Err(error) => assert_eq!(after, before, "{label}: {error:?} moved the books"),
    }
}

/// How a sweep's cases ended.
#[derive(Debug, Default)]
struct Tally {
    releases: usize,
    cache_hits: usize,
    errors: usize,
}

impl Tally {
    fn add(&mut self, outcome: &Result<PrivateAnswer, CoreError>) {
        match outcome {
            Ok(_) => self.releases += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// A broker plus every answer it released, so a cache hit can be
/// matched to the fresh release it replays (whose station may since
/// have moved).
struct Probe<N: Network> {
    broker: DataBroker<RankCounting, N>,
    released: Vec<PrivateAnswer>,
}

impl<N: Network> Probe<N> {
    fn new(broker: DataBroker<RankCounting, N>) -> Self {
        Probe {
            broker,
            released: Vec::new(),
        }
    }

    fn run(
        &mut self,
        label: &str,
        tally: &mut Tally,
        call: impl FnOnce(&mut DataBroker<RankCounting, N>) -> Result<PrivateAnswer, CoreError>,
    ) {
        let before = books(&self.broker);
        let hits = self.broker.counters().cache_hits;
        let outcome = call(&mut self.broker);
        if self.broker.counters().cache_hits == hits {
            check(label, &self.broker, before, &outcome);
        } else {
            let answer = outcome.as_ref().expect("a cache hit is a release");
            let bits = |a: &PrivateAnswer| (a.value.to_bits(), a.sample_estimate.to_bits());
            assert!(
                self.released
                    .iter()
                    .any(|prior| bits(prior) == bits(answer)),
                "{label}: a cache hit released bits no fresh answer had"
            );
            assert_eq!(books(&self.broker).operations, before.operations, "{label}");
            tally.cache_hits += 1;
        }
        tally.add(&outcome);
        if let Ok(answer) = outcome {
            self.released.push(answer);
        }
    }
}

/// `RangeQuery::new` refuses exactly the NaN and inverted bounds, with
/// `InvalidRange`.
fn admit_range(l: f64, u: f64) -> Option<RangeQuery> {
    let query = RangeQuery::new(l, u);
    if l.is_nan() || u.is_nan() || l > u {
        assert!(
            matches!(query, Err(CoreError::InvalidRange { .. })),
            "[{l:?}, {u:?}] admitted"
        );
        return None;
    }
    Some(query.unwrap_or_else(|e| panic!("[{l:?}, {u:?}] refused: {e:?}")))
}

/// `Accuracy::new` refuses exactly the α or δ outside `(0, 1)`, with
/// `InvalidAccuracy`.
fn admit_accuracy(alpha: f64, delta: f64) -> Option<Accuracy> {
    let accuracy = Accuracy::new(alpha, delta);
    let inside = |v: f64| v > 0.0 && v < 1.0;
    if !inside(alpha) || !inside(delta) {
        assert!(
            matches!(accuracy, Err(CoreError::InvalidAccuracy { .. })),
            "(α={alpha:e}, δ={delta:e}) admitted"
        );
        return None;
    }
    Some(accuracy.unwrap_or_else(|e| panic!("(α={alpha:e}, δ={delta:e}) refused: {e:?}")))
}

/// Runs `case`, naming it in the failure message if it panics.
fn guarded(label: &str, case: impl FnOnce()) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(case)) {
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        panic!("{label}: {message}");
    }
}

/// Drives one demand through `answer`, `answer_as` (twice, so the
/// second can be a cache hit) and `answer_batch`.
fn sweep_demand<N: Network>(
    label: &str,
    make: &dyn Fn(u64) -> N,
    request: QueryRequest,
    tally: &mut Tally,
) {
    let mut plain = broker(make(11), 11, false);
    let before = books(&plain);
    let outcome = plain.answer(&request);
    check(&format!("{label} answer"), &plain, before, &outcome);
    tally.add(&outcome);

    let mut market = Probe::new(broker(make(12), 12, true));
    for buyer in ["alice", "bob"] {
        market.run(&format!("{label} answer_as({buyer})"), tally, |broker| {
            broker
                .answer_as(buyer, &request)
                .map(|priced| priced.answer)
        });
    }

    let mut batched = broker(make(13), 13, false);
    let before = books(&batched);
    let report = batched.answer_batch(&[request, request]);
    let released = report.released().count() as u64;
    let after = books(&batched);
    assert_eq!(
        after.operations - before.operations,
        released,
        "{label} answer_batch: commits differ from releases"
    );
    for (slot, outcome) in report.answers.iter().enumerate() {
        let expected = if released == 0 { before } else { after };
        check(
            &format!("{label} answer_batch[{slot}]"),
            &batched,
            expected,
            outcome,
        );
        tally.add(outcome);
    }
}

/// Drives one range through `answer_with_epsilon` at every fixed pair.
fn sweep_fixed<N: Network>(
    label: &str,
    make: &dyn Fn(u64) -> N,
    query: RangeQuery,
    tally: &mut Tally,
) {
    let mut probe = Probe::new(broker(make(14), 14, true));
    for (epsilon, p) in FIXED {
        let label = format!("{label} answer_with_epsilon(ε={epsilon:e}, p={p:e})");
        let epsilon = Epsilon::new(epsilon).expect("every fixed ε is valid");
        probe.run(&label, tally, |broker| {
            broker.answer_with_epsilon(query, epsilon, p)
        });
    }
}

fn sweep_station<N: Network>(driver: &str, make: &dyn Fn(u64) -> N, shape: Shape) -> Tally {
    let mut tally = Tally::default();
    for l in BOUNDS {
        for u in BOUNDS {
            let Some(query) = admit_range(l, u) else {
                continue;
            };
            let label = format!("{driver}/{shape:?} [{l:?}, {u:?}]");
            guarded(&label, || sweep_fixed(&label, make, query, &mut tally));
            for (alpha, delta) in ACCURACIES {
                let Some(accuracy) = admit_accuracy(alpha, delta) else {
                    continue;
                };
                let label = format!("{label} α={alpha:e} δ={delta:?}");
                guarded(&label, || {
                    let request = QueryRequest::new(query, accuracy);
                    sweep_demand(&label, make, request, &mut tally);
                });
            }
        }
    }
    tally
}

#[test]
fn every_edge_case_gets_a_typed_error_or_a_finite_release() {
    for shape in SHAPES {
        for tally in [
            sweep_station("flat", &|seed| flat(shape, seed), shape),
            sweep_station("tree", &|seed| tree(shape, seed), shape),
        ] {
            if shape == Shape::Populated {
                // The sweep reaches releases, cache hits and errors alike.
                assert!(tally.releases > 0 && tally.cache_hits > 0 && tally.errors > 0);
            } else {
                assert_eq!(tally.releases, 0, "{shape:?}: {tally:?}");
            }
        }
    }
}

#[test]
fn a_tiny_delta_is_answered_and_a_subnormal_one_is_refused_by_name() {
    let query = RangeQuery::new(60.5, 239.0).expect("valid range");
    let sell = |broker: &mut DataBroker, accuracy: Accuracy| {
        let request = QueryRequest::new(query, accuracy);
        broker
            .answer_as("alice", &request)
            .map(|priced| priced.answer)
    };
    for delta in [TINY_DELTA, 1e-300] {
        let mut priced = broker(flat(Shape::Populated, 11), 11, true);
        let accuracy = Accuracy::new(0.5, delta).expect("valid demand");
        let answer = sell(&mut priced, accuracy).unwrap_or_else(|e| panic!("δ={delta:e}: {e:?}"));
        assert!(answer.value.is_finite() && answer.plan.noise_scale.is_finite());
        assert!(answer.plan.epsilon.value() > 0.0, "δ={delta:e}");
    }
    // At the smallest subnormal δ every grid point's noise scale is
    // infinite. The station already samples at the rate a top-up would
    // reach, so the demand itself is refused, before any hold.
    let mut priced = broker(flat(Shape::Populated, 11), 11, true);
    let before = books(&priced);
    let accuracy = Accuracy::new(ONE_MINUS, MIN_SUBNORMAL).expect("valid demand");
    assert_eq!(
        sell(&mut priced, accuracy),
        Err(CoreError::InvalidAccuracy {
            alpha: ONE_MINUS,
            delta: MIN_SUBNORMAL,
        })
    );
    assert_eq!(books(&priced), before);
}

#[test]
fn the_unbounded_range_releases_the_whole_station_estimate() {
    let everything = RangeQuery::new(f64::NEG_INFINITY, f64::INFINITY).expect("valid range");
    let request = QueryRequest::new(everything, Accuracy::new(0.1, 0.6).expect("valid demand"));
    let mut flat = broker(flat(Shape::Populated, 3), 3, true);
    let mut tree = broker(tree(Shape::Populated, 3), 3, true);
    for answer in [
        flat.answer_as("alice", &request)
            .expect("flat release")
            .answer,
        tree.answer_as("alice", &request)
            .expect("tree release")
            .answer,
    ] {
        assert_eq!(
            answer.sample_estimate.to_bits(),
            (POPULATION as f64).to_bits()
        );
        assert!(answer.value.is_finite());
    }
    let fixed = flat
        .answer_with_epsilon(everything, Epsilon::new(1.0).expect("valid ε"), 0.4)
        .expect("fixed-ε release");
    assert_eq!(
        fixed.sample_estimate.to_bits(),
        (POPULATION as f64).to_bits()
    );
    let report = tree.answer_batch(&[request]);
    let batched = report.answers[0].as_ref().expect("batched release");
    assert_eq!(
        batched.sample_estimate.to_bits(),
        (POPULATION as f64).to_bits()
    );
}

#[test]
fn an_empty_window_moves_no_monitor_budget() {
    for l in BOUNDS {
        for u in BOUNDS {
            let Some(query) = admit_range(l, u) else {
                continue;
            };
            for (alpha, delta) in ACCURACIES {
                let Some(accuracy) = admit_accuracy(alpha, delta) else {
                    continue;
                };
                let budget = Epsilon::new(2.0).expect("valid budget");
                let mut monitor = ContinuousMonitor::new(MonitorConfig {
                    query,
                    accuracy,
                    index: AirQualityIndex::Ozone,
                    window_seconds: 3_600,
                    nodes: NODES,
                    session_budget: budget,
                    seed: 5,
                });
                let label = format!("[{l:?}, {u:?}] α={alpha:e} δ={delta:?}");
                let outcome = monitor.answer_epoch();
                assert!(
                    matches!(outcome, Err(CoreError::NoSamples)),
                    "{label}: {outcome:?}"
                );
                assert_eq!(monitor.epochs(), 0, "{label}");
                assert_eq!(
                    monitor.budget_remaining().value().to_bits(),
                    budget.value().to_bits(),
                    "{label}"
                );
            }
        }
    }
}

/// An edge value for `pick < edges.len()`, else an arbitrary bit
/// pattern (NaNs, subnormals and infinities included) or `ordinary`,
/// an everyday value drawn from the same bits.
fn pick(edges: &[f64], pick: usize, bits: u64, ordinary: fn(u64) -> f64) -> f64 {
    match pick.checked_sub(edges.len()) {
        None => edges[pick],
        Some(0) => f64::from_bits(bits),
        Some(_) => ordinary(bits),
    }
}

/// A bound near the support `[0, POPULATION)`.
fn near_support(bits: u64) -> f64 {
    (bits % 1_000) as f64 / 4.0 - 5.0
}

/// A value in `[0, 1)`.
fn unit_interval(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_hostile_demands_get_a_typed_error_or_a_finite_release(
        lower in 0usize..11,
        lower_bits in any::<u64>(),
        upper in 0usize..11,
        upper_bits in any::<u64>(),
        alpha_pick in 0usize..4,
        alpha_bits in any::<u64>(),
        delta_pick in 0usize..4,
        delta_bits in any::<u64>(),
        shape in 0usize..3,
        on_tree in any::<bool>(),
    ) {
        let l = pick(&BOUNDS, lower, lower_bits, near_support);
        let u = pick(&BOUNDS, upper, upper_bits, near_support);
        let unit = [MIN_SUBNORMAL, ONE_MINUS];
        let alpha = pick(&unit, alpha_pick, alpha_bits, unit_interval);
        let delta = pick(&unit, delta_pick, delta_bits, unit_interval);
        let shape = SHAPES[shape];
        let (Some(query), Some(accuracy)) = (admit_range(l, u), admit_accuracy(alpha, delta)) else {
            return Ok(());
        };
        let request = QueryRequest::new(query, accuracy);
        let label = format!("{shape:?} tree={on_tree} [{l:?}, {u:?}] α={alpha:e} δ={delta:e}");
        let mut tally = Tally::default();
        guarded(&label, || {
            if on_tree {
                sweep_demand(&label, &|seed| tree(shape, seed), request, &mut tally);
            } else {
                sweep_demand(&label, &|seed| flat(shape, seed), request, &mut tally);
            }
        });
        prop_assert!(shape == Shape::Populated || tally.releases == 0, "{label}: {tally:?}");
    }
}
