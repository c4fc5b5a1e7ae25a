//! A batch is its answers.
//!
//! `answer_batch` collects once per sampling-rate tier and then sends
//! each member through the same stages as `answer`. So on an identically
//! built broker, the batch must release exactly what the same requests
//! release one at a time with `answer`, taken in ascending order of
//! their required sampling rate with ties in input order: the same value
//! bits, the same error variants, and the same accountant (`spent()`
//! bits and `operations()`). The rate is `required_probability_clamped`
//! of the documented sampling target `(α/2, δ + (1 − δ)/2)`.
//!
//! Collection and index counters are not compared: one-at-a-time
//! answers re-run empty rounds on a station whose dead nodes lag the
//! target, and accrue the index policy per query instead of per tier.
//!
//! Stations are flat or tree, 1–64 nodes, optionally with nodes killed
//! before or after a first round, under each index policy. Request mixes
//! repeat ranges, span a few accuracy tiers (one of them refused at
//! admission), and run under a budget that some mixes exhaust. With the
//! answer cache on, each in-flight duplicate of a released answer is a
//! cache hit with its progenitor's bits.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use prc::core::accuracy::required_probability_clamped;
use prc::core::broker::IndexPolicy;
use prc::net::message::NodeId;
use prc::prelude::*;

/// Range endpoints as fractions of the value span.
const RANGES: [(f64, f64); 4] = [(0.0, 0.5), (0.25, 0.75), (0.1, 0.2), (-0.0, 1.0)];

/// Demands: four plannable tiers, and one whose sampling target rounds
/// onto `α′ = 0` and is refused with `InvalidAccuracy`.
fn demands() -> [Accuracy; 5] {
    let accuracy = |alpha: f64, delta: f64| Accuracy::new(alpha, delta).expect("valid demand");
    [
        accuracy(0.1, 0.6),
        accuracy(0.2, 0.5),
        accuracy(0.05, 0.8),
        accuracy(0.3, 0.7),
        accuracy(f64::from_bits(1), 0.6),
    ]
}

/// Index policies: both paths release the same bits, and `Always`
/// makes small stations answer through the index.
const POLICIES: [IndexPolicy; 3] = [
    IndexPolicy::Adaptive,
    IndexPolicy::Always,
    IndexPolicy::Never,
];

/// One generated station: its shape, its failures, the broker's budget
/// and its index policy.
#[derive(Debug)]
struct Scenario {
    nodes: usize,
    per_node: usize,
    tree: bool,
    kills: Vec<usize>,
    kill_after_first_round: bool,
    budget: Option<f64>,
    policy: IndexPolicy,
    seed: u64,
}

impl Scenario {
    /// Decodes the driver, the failures, the budget, the index policy and
    /// the seed from the bits of `word`. Half the stations lose no node.
    fn new(nodes: usize, per_node: usize, word: u64) -> Self {
        let kills = (0..(word >> 2 & 3).saturating_sub(1))
            .map(|slot| (word >> (8 + 6 * slot) & 63) as usize % nodes)
            .collect();
        let budget = (word >> 4 & 1 == 1).then(|| 0.005 + (word >> 32 & 0xff) as f64 / 600.0);
        Scenario {
            nodes,
            per_node,
            tree: word & 1 == 1,
            kills,
            kill_after_first_round: word >> 1 & 1 == 1,
            budget,
            policy: POLICIES[(word >> 20) as usize % POLICIES.len()],
            seed: word >> 40 & 1_023,
        }
    }

    /// Values dealt round-robin: node `i` holds `i, i + k, i + 2k, …`.
    fn partitions(&self) -> Vec<Vec<f64>> {
        (0..self.nodes)
            .map(|i| {
                (0..self.per_node)
                    .map(|j| (j * self.nodes + i) as f64)
                    .collect()
            })
            .collect()
    }

    fn population(&self) -> usize {
        self.nodes * self.per_node
    }

    /// One request per word: a range and a demand from the word's bits.
    fn requests(&self, ops: &[u64]) -> Vec<QueryRequest> {
        let span = self.population() as f64;
        let demands = demands();
        ops.iter()
            .map(|&op| {
                let (lower, upper) = RANGES[op as usize % RANGES.len()];
                QueryRequest::new(
                    RangeQuery::new(lower * span, upper * span).expect("valid range"),
                    demands[(op >> 8) as usize % demands.len()],
                )
            })
            .collect()
    }

    /// A broker over `network` with this scenario's failures, budget and
    /// index policy, and the answer cache when `cached`.
    fn broker<N: Network>(&self, mut network: N, cached: bool) -> DataBroker<RankCounting, N> {
        let mut plan = FailurePlan::none();
        for &node in &self.kills {
            plan.kill_node(NodeId(node as u32));
        }
        if self.kill_after_first_round {
            network.collect_samples(0.2);
        }
        network.set_failure_plan(plan);
        let mut broker = DataBroker::new(network, self.seed);
        broker.set_index_policy(self.policy);
        if let Some(budget) = self.budget {
            broker.set_privacy_budget(Epsilon::new(budget).expect("valid budget"));
        }
        if cached {
            let model = ChebyshevVariance::new(self.population());
            broker.enable_answer_cache(Box::new(PostedPriceReuse::new(
                InverseVariancePricing::new(1e7, model),
                model,
            )));
        }
        broker
    }
}

/// The order one-at-a-time answers take: ascending required rate, ties
/// in input order. A request without a rate is refused at admission and
/// moves nothing, so it may go anywhere; it goes last.
fn rate_order(requests: &[QueryRequest], k: usize, n: usize) -> Vec<usize> {
    let rate = |request: &QueryRequest| {
        let (alpha, delta) = (request.accuracy.alpha(), request.accuracy.delta());
        Accuracy::new(alpha / 2.0, delta + (1.0 - delta) / 2.0)
            .ok()
            .and_then(|target| required_probability_clamped(target, k, n).ok())
            .unwrap_or(f64::INFINITY)
    };
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| rate(&requests[a]).total_cmp(&rate(&requests[b])));
    order
}

/// What a comparison reads of one released answer or refusal.
fn outcome(result: &Result<PrivateAnswer, CoreError>) -> Result<[u64; 3], String> {
    match result {
        Ok(answer) => Ok([
            answer.value.to_bits(),
            answer.sample_estimate.to_bits(),
            answer.plan.effective_epsilon.value().to_bits(),
        ]),
        Err(error) => Err(format!("{:?}", std::mem::discriminant(error))),
    }
}

fn books<N: Network>(broker: &DataBroker<RankCounting, N>) -> Option<(u64, u64)> {
    broker.accountant().map(|accountant| {
        (
            accountant.spent().value().to_bits(),
            accountant.operations(),
        )
    })
}

/// Answers `requests` as one batch and one at a time in rate order, on
/// two brokers built alike, and compares what they release. Returns the
/// batch's report for further checks.
fn batch_matches_single_answers<N: Network>(
    scenario: &Scenario,
    network: impl Fn() -> N,
    requests: &[QueryRequest],
    cached: bool,
) -> Result<BatchReport, TestCaseError> {
    let mut batched = scenario.broker(network(), cached);
    let report = batched.answer_batch(requests);
    prop_assert_eq!(report.answers.len(), requests.len());

    let mut single = scenario.broker(network(), cached);
    let (k, n) = (
        single.network().node_count(),
        single.network().total_data_size(),
    );
    let mut answers: Vec<Option<Result<PrivateAnswer, CoreError>>> =
        requests.iter().map(|_| None).collect();
    for i in rate_order(requests, k, n) {
        answers[i] = Some(single.answer(&requests[i]));
    }
    for (i, (batch, one)) in report.answers.iter().zip(&answers).enumerate() {
        let one = one.as_ref().expect("every request answered once");
        prop_assert_eq!(outcome(batch), outcome(one), "request {}", i);
    }
    prop_assert_eq!(books(&batched), books(&single));
    prop_assert_eq!(report.stats.cache_hits, single.counters().cache_hits);
    Ok(report)
}

/// With the cache on, a later request with the same range and demand as
/// an earlier one that was released is a cache hit with the earlier
/// answer's bits, and those are all the batch's hits.
fn duplicates_are_cache_hits(
    requests: &[QueryRequest],
    report: &BatchReport,
) -> Result<(), TestCaseError> {
    let mut duplicates = 0;
    for (j, request) in requests.iter().enumerate() {
        let Some(i) = requests[..j].iter().position(|earlier| earlier == request) else {
            continue;
        };
        let Ok(first) = &report.answers[i] else {
            continue;
        };
        duplicates += 1;
        let again = report.answers[j].as_ref().map(|a| a.value.to_bits());
        prop_assert!(again == Ok(first.value.to_bits()), "request {}", j);
    }
    prop_assert_eq!(report.stats.cache_hits, duplicates);
    Ok(())
}

fn check(scenario: &Scenario, ops: &[u64]) -> Result<(), TestCaseError> {
    let requests = scenario.requests(ops);
    for cached in [false, true] {
        let report = if scenario.tree {
            let arity = 2 + scenario.seed as usize % 2;
            batch_matches_single_answers(
                scenario,
                || TreeNetwork::from_partitions(scenario.partitions(), arity, scenario.seed),
                &requests,
                cached,
            )?
        } else {
            batch_matches_single_answers(
                scenario,
                || FlatNetwork::from_partitions(scenario.partitions(), scenario.seed),
                &requests,
                cached,
            )?
        };
        if cached {
            duplicates_are_cache_hits(&requests, &report)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_batch_releases_what_its_requests_release_one_at_a_time(
        nodes in 1usize..65,
        per_node in 1usize..24,
        word in any::<u64>(),
        ops in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        check(&Scenario::new(nodes, per_node, word), &ops)?;
    }
}
