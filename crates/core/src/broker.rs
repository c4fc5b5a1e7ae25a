//! The data broker (§II-A): the entity that owns sample collection,
//! estimation, perturbation, and privacy accounting.
//!
//! The broker is generic over the network driver (any
//! [`prc_net::network::Network`]) and over the estimator. Besides the
//! one-request [`DataBroker::answer`] pipeline it offers
//! [`DataBroker::answer_batch`], which partitions a request batch by
//! required sampling rate, collects samples once per rate tier and then
//! answers each member as a single request would. Both serve repeat
//! requests from an arbitrage-consistent answer cache guarded by the
//! pricing layer ([`prc_pricing::reuse`]).
//!
//! # Query index
//!
//! When the estimator offers a [`QueryIndex`] (RankCounting's
//! [`crate::estimator::RankIndex`]), the broker keeps it together with
//! the identity and revision of the station it was built over. Before
//! every use the slot is checked against the station's current pair;
//! once a collection round moves the revision, the index is rebuilt from
//! scratch. A change made through [`DataBroker::network_mut`] moves the
//! same revision, and a network swapped in whole brings another station
//! identity, so neither leaves the old index serving. The plan cache and
//! the answer cache are stamped the same way.
//!
//! Whether to pay for the first build is decided by the [`IndexPolicy`]:
//! the default [`IndexPolicy::Adaptive`] runs a ski-rental accrual over
//! the observed query traffic (build once the scanning it has paid for
//! would have covered a build), while [`IndexPolicy::Always`] and
//! [`IndexPolicy::Never`] pin one path. Indexed and scanned paths are
//! **bit-identical** by construction, so the policy is unobservable in
//! released answers.

use std::collections::BTreeMap;

use prc_dp::budget::{BudgetAccountant, Epsilon};
// prc-lint: allow(B003, reason = "seeded noise-source RNG owned by the broker; every draw from it goes through prc-dp's draw_centered")
use rand::{rngs::StdRng, SeedableRng};

use prc_net::network::{FlatNetwork, Network};
use prc_pricing::engine::{PricingEngine, Quote};
use prc_pricing::reuse::{Demand, ReuseGuard};

use crate::error::CoreError;
use crate::estimator::engine::PlanCache;
use crate::estimator::{BuildAccrual, QueryIndex, RangeCountEstimator, RankCounting};
use crate::optimizer::{OptimizerConfig, PerturbationPlan};
use crate::pipeline::stages::Request;
use crate::pipeline::{drive, PricedAnswer};
use crate::query::{Accuracy, QueryRequest, RangeQuery};

/// Fraction of the customer's `α` the broker aims its sampling at.
const SAMPLING_ALPHA_FRACTION: f64 = 0.5;

/// Fraction of the customer's remaining confidence gap `1 − δ` the broker
/// claims when sampling.
const SAMPLING_DELTA_MARGIN: f64 = 0.5;

/// The internal accuracy the broker aims its sampling at for a customer
/// demand: strictly tighter than the demand, leaving the optimizer
/// headroom. It targets `α′ = α/2` and `δ′ = δ + (1 − δ)/2`.
///
/// # Errors
///
/// [`CoreError::InvalidAccuracy`], naming the customer's demand, when a
/// demand at the edge of `(0, 1)` scales onto `α′ = 0` or `δ′ = 1`.
pub(crate) fn sampling_target(accuracy: Accuracy) -> Result<Accuracy, CoreError> {
    let alpha = accuracy.alpha() * SAMPLING_ALPHA_FRACTION;
    let delta = accuracy.delta() + SAMPLING_DELTA_MARGIN * (1.0 - accuracy.delta());
    Accuracy::new(alpha, delta).map_err(|_| CoreError::InvalidAccuracy {
        alpha: accuracy.alpha(),
        delta: accuracy.delta(),
    })
}

/// One differentially private, (α, δ)-approximate answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivateAnswer {
    /// The queried range.
    pub query: RangeQuery,
    /// The accuracy the customer asked (and pays) for. `None` for answers
    /// released through the fixed-ε experiment hook
    /// ([`DataBroker::answer_with_epsilon`]), which bypasses the `(α, δ)`
    /// demand language entirely — there is no customer accuracy to record.
    pub accuracy: Option<Accuracy>,
    /// The released noisy count — the only value a customer may see.
    pub value: f64,
    /// Broker-side record of the pre-noise sample estimate. **Never
    /// release this to a customer** — it is kept for evaluation and
    /// auditing only.
    pub sample_estimate: f64,
    /// The perturbation plan that produced the answer.
    pub plan: PerturbationPlan,
    /// Upper bound on the released answer's variance: the estimator's
    /// sampling variance bound plus the Laplace noise variance.
    pub variance_bound: f64,
}

/// Per-stage counters accumulated across a broker's lifetime.
///
/// Every pipeline stage reports into these: sample collection (rounds and
/// delivered entries), the answer cache (hits and misses, counted only
/// while a reuse guard is installed), and the release stage. Message and
/// byte traffic lives in the network's [`prc_net::network::CostMeter`];
/// epoch-level consumers combine both views.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Collection rounds that actually topped the network up.
    pub collection_rounds: u64,
    /// Sample entries delivered to the base station by those rounds.
    pub samples_collected: u64,
    /// Requests served from the answer cache.
    pub cache_hits: u64,
    /// Cache lookups that had to fall through to the full pipeline.
    pub cache_misses: u64,
    /// Answers released (fresh and cached).
    pub answers_released: u64,
    /// Query-index builds, first builds and rebuilds after the station
    /// moved alike.
    pub index_builds: u64,
    /// Estimates answered through a query index instead of the scan.
    pub indexed_estimates: u64,
    /// Optimizer grid sweeps skipped because the plan cache held a
    /// memoized plan for the same accuracy target, rate tier, and
    /// station shape.
    pub plan_cache_hits: u64,
    /// Always `0`: no index reports search steps and no stage adds to
    /// it. It stays only because the end-to-end benchmark reads it, and
    /// goes with that benchmark's next revision.
    pub gallop_steps: u64,
    /// Priced transactions settled into the pricing engine's ledger.
    pub settlements: u64,
    /// Budget reservations rolled back because a later stage failed.
    pub budget_rollbacks: u64,
}

impl StageCounters {
    /// The work counted since `earlier`, an older snapshot of the same
    /// counters.
    pub(crate) fn since(self, earlier: StageCounters) -> StageCounters {
        StageCounters {
            collection_rounds: self.collection_rounds - earlier.collection_rounds,
            samples_collected: self.samples_collected - earlier.samples_collected,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            answers_released: self.answers_released - earlier.answers_released,
            index_builds: self.index_builds - earlier.index_builds,
            indexed_estimates: self.indexed_estimates - earlier.indexed_estimates,
            plan_cache_hits: self.plan_cache_hits - earlier.plan_cache_hits,
            gallop_steps: self.gallop_steps - earlier.gallop_steps,
            settlements: self.settlements - earlier.settlements,
            budget_rollbacks: self.budget_rollbacks - earlier.budget_rollbacks,
        }
    }
}

/// The outcome of one batched call: per-request results in input order.
/// The batch's stage work is read from [`DataBroker::counters`] like any
/// other call's.
#[derive(Debug)]
pub struct BatchReport {
    /// One result per input request, in input order.
    pub answers: Vec<Result<PrivateAnswer, CoreError>>,
}

impl BatchReport {
    /// The released answers, discarding per-request errors.
    pub fn released(&self) -> impl Iterator<Item = &PrivateAnswer> {
        self.answers.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// Answer-cache key: the queried range's bounds as exact bit patterns
/// ([`RangeQuery::new`] already reads a `−0.0` bound as `+0.0`, so one
/// range has one key).
pub(crate) type CacheKey = (u64, u64);

/// When the broker pays for a query-index build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IndexPolicy {
    /// Ski-rental: keep scanning while accruing the per-query saving an
    /// index would have delivered; build once the foregone saving covers
    /// the build cost ([`crate::estimator::BuildAccrual`]; 2-competitive
    /// for any query arrival sequence). The decision depends only on
    /// observed query counts and the station's shape — never on
    /// wall-clock time.
    #[default]
    Adaptive,
    /// Build an index whenever the estimator offers one.
    Always,
    /// Never build: every estimate runs the estimator's scan.
    Never,
}

/// The data broker: answers `Λ(α, δ)` requests over any [`Network`].
///
/// Every entry point — [`DataBroker::answer`], [`DataBroker::answer_as`],
/// [`DataBroker::answer_batch`], [`DataBroker::answer_with_epsilon`] — is
/// a thin wrapper over the staged [`crate::pipeline`]:
/// Admit (quote + cache) → Collect (sample top-up to a target strictly
/// tighter than the demand) → Reserve (plan + two-phase budget hold) →
/// Estimate → Perturb (`Lap(Δγ̂/ε)`) → Settle (commit, ledger); a fresh
/// answer is stored for reuse as it is released.
///
/// An optional [`BudgetAccountant`] enforces a total privacy cap across
/// queries (sequential composition of the *effective* budgets). An
/// optional answer cache ([`DataBroker::enable_answer_cache`]) re-serves
/// prior noisy answers when the pricing layer's [`ReuseGuard`] confirms
/// the reuse cannot undercut the posted price curve; re-releasing an
/// already-released value is privacy-free (post-processing), so cache
/// hits spend no budget.
#[derive(Debug)]
pub struct DataBroker<E = RankCounting, N = FlatNetwork> {
    pub(crate) network: N,
    pub(crate) estimator: E,
    pub(crate) optimizer_config: OptimizerConfig,
    pub(crate) accountant: Option<BudgetAccountant>,
    pub(crate) rng: StdRng,
    pub(crate) reuse_guard: Option<Box<dyn ReuseGuard>>,
    pub(crate) pricing: Option<Box<dyn PricingEngine>>,
    /// Released answers by range: each range's answers in ascending
    /// bits of their plan's `ε`, the first one stored for each `ε`. A
    /// range whose answers a collection round evicted keeps an empty
    /// list.
    pub(crate) cache: BTreeMap<CacheKey, Vec<PrivateAnswer>>,
    /// The station identity and retirement count the cached answers were
    /// drawn under; the cache empties when either moves.
    pub(crate) cache_stamp: (u64, u64),
    pub(crate) counters: StageCounters,
    /// The query index and the station identity and revision it was
    /// built at.
    pub(crate) index: Option<((u64, u64), Box<dyn QueryIndex>)>,
    pub(crate) index_policy: IndexPolicy,
    pub(crate) build_accrual: BuildAccrual,
    pub(crate) plan_cache: PlanCache,
}

impl<N: Network> DataBroker<RankCounting, N> {
    /// Creates a broker using the paper's RankCounting estimator.
    pub fn new(network: N, seed: u64) -> Self {
        DataBroker::with_estimator(network, RankCounting, seed)
    }
}

impl<E: RangeCountEstimator, N: Network> DataBroker<E, N> {
    /// Creates a broker with a custom estimator.
    pub fn with_estimator(network: N, estimator: E, seed: u64) -> Self {
        let station = network.station();
        let cache_stamp = (station.identity(), station.retirements());
        DataBroker {
            network,
            estimator,
            optimizer_config: OptimizerConfig::default(),
            accountant: None,
            rng: StdRng::seed_from_u64(seed ^ 0xb5ad_4ece_da1c_e2a9),
            reuse_guard: None,
            pricing: None,
            cache: BTreeMap::new(),
            cache_stamp,
            counters: StageCounters::default(),
            index: None,
            index_policy: IndexPolicy::default(),
            build_accrual: BuildAccrual::default(),
            plan_cache: PlanCache::default(),
        }
    }

    /// Replaces the index build policy (resetting the slot and any
    /// accrued build credit).
    pub fn set_index_policy(&mut self, policy: IndexPolicy) {
        self.index_policy = policy;
        self.build_accrual = BuildAccrual::default();
        self.index = None;
    }

    /// The current index build policy.
    pub fn index_policy(&self) -> IndexPolicy {
        self.index_policy
    }

    /// Replaces the optimizer configuration (discarding memoized plans:
    /// the grid sweep is a function of the config).
    pub fn set_optimizer_config(&mut self, config: OptimizerConfig) {
        self.optimizer_config = config;
        self.plan_cache.clear();
    }

    /// Installs a total privacy budget; subsequent answers spend their
    /// effective `ε′` against it.
    pub fn set_privacy_budget(&mut self, total: Epsilon) {
        self.accountant = Some(BudgetAccountant::new(total));
    }

    /// The privacy accountant, if a budget was installed.
    pub fn accountant(&self) -> Option<&BudgetAccountant> {
        self.accountant.as_ref()
    }

    /// Installs a pricing engine. With one installed,
    /// [`DataBroker::answer_as`] quotes every admitted request against the
    /// posted curve (refusing arbitrageable demands) and settles each
    /// released answer into the engine's ledger.
    pub fn enable_pricing(&mut self, engine: Box<dyn PricingEngine>) {
        self.pricing = Some(engine);
    }

    /// The pricing engine, if one is installed.
    pub fn pricing(&self) -> Option<&dyn PricingEngine> {
        self.pricing.as_deref()
    }

    /// Enables the answer cache behind a pricing-layer reuse guard.
    ///
    /// With a guard installed, [`DataBroker::answer`] and
    /// [`DataBroker::answer_batch`] re-serve a previously released answer
    /// for a request over the same range whenever the guard allows the
    /// reuse — i.e. the pricing layer confirms that handing out the
    /// stored answer at the new request's posted price cannot undercut
    /// the price curve. Without a guard (the default) every request runs
    /// the full pipeline. A resample of the network
    /// ([`prc_net::network::SensorNetwork::resample`]) retires every
    /// cached answer along with the sample it was drawn from.
    pub fn enable_answer_cache(&mut self, guard: Box<dyn ReuseGuard>) {
        self.reuse_guard = Some(guard);
    }

    /// Drops the reuse guard and clears all cached answers.
    pub fn disable_answer_cache(&mut self) {
        self.reuse_guard = None;
        self.cache.clear();
    }

    /// Number of answers currently cached.
    pub fn cached_answers(&self) -> usize {
        self.cache.values().map(Vec::len).sum()
    }

    /// Per-stage counters accumulated so far.
    pub fn counters(&self) -> StageCounters {
        self.counters
    }

    /// The underlying network (cost-meter and ground-truth access).
    pub fn network(&self) -> &N {
        &self.network
    }

    /// Mutable access to the underlying network (failure injection etc.).
    /// Replacing it outright is safe too: the new network's station has
    /// another identity, so the broker serves no index, plan or cached
    /// answer derived from the old one.
    pub fn network_mut(&mut self) -> &mut N {
        &mut self.network
    }

    /// Answers one request through the full two-phase pipeline, consulting
    /// the answer cache first when one is enabled.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InfeasibleAccuracy`] — even sampling everything
    ///   cannot meet the demand;
    /// * [`CoreError::Dp`] — the privacy budget is exhausted;
    /// * [`CoreError::NoSamples`] — the network delivered nothing (e.g.
    ///   every node dead).
    pub fn answer(&mut self, request: &QueryRequest) -> Result<PrivateAnswer, CoreError> {
        drive(self, None, Request::Demand(*request)).map(|priced| priced.answer)
    }

    /// Prices `request` for `buyer` without selling it: the quote Admit
    /// takes for [`DataBroker::answer_as`]. `None` without an engine.
    ///
    /// # Errors
    ///
    /// [`CoreError::Pricing`] when the engine refuses the demand.
    pub fn quote(
        &mut self,
        buyer: &str,
        request: &QueryRequest,
    ) -> Result<Option<Quote>, CoreError> {
        let (query, accuracy) = (request.query, request.accuracy);
        let range = [query.lower().to_bits(), query.upper().to_bits()];
        let demand = Demand::new(accuracy.alpha(), accuracy.delta());
        match self.pricing.as_deref_mut() {
            Some(engine) => Ok(Some(engine.quote_for(buyer, range, demand)?)),
            None => Ok(None),
        }
    }

    /// Answers one request as a *priced transaction* for a named buyer.
    ///
    /// Requires a pricing engine ([`DataBroker::enable_pricing`]): the
    /// Admit stage quotes the demand through [`DataBroker::quote`]
    /// (refusing invalid or arbitrageable demands before any budget is
    /// touched), and the Settle stage records the trade — buyer, range,
    /// price, and the released plan's [`crate::optimizer::PlanSummary`] —
    /// into the engine's ledger.
    ///
    /// # Errors
    ///
    /// Everything [`DataBroker::answer`] returns, plus
    /// [`CoreError::Pricing`] when the engine refuses the quote.
    pub fn answer_as(
        &mut self,
        buyer: &str,
        request: &QueryRequest,
    ) -> Result<PricedAnswer, CoreError> {
        drive(self, Some(buyer), Request::Demand(*request))
    }

    /// Answers a batch of requests, one collection round per rate tier.
    ///
    /// The batch is partitioned by each request's *required sampling
    /// rate*; rates are visited in ascending order (ties in input order),
    /// so every tier's queries are evaluated right after the single
    /// collection round that tops the network up to that tier (lower
    /// tiers are answered at their own, cheaper rate). Each member then
    /// runs the same cache lookup, planning, budget hold, estimate, noise
    /// draw and settlement as [`DataBroker::answer`], in that order, so
    /// without a cache the batch releases exactly what a sorted sequence
    /// of [`DataBroker::answer`] calls would.
    ///
    /// Per-request failures (infeasible accuracy, exhausted budget) land
    /// in that request's slot of [`BatchReport::answers`]; the rest of
    /// the batch proceeds.
    pub fn answer_batch(&mut self, requests: &[QueryRequest]) -> BatchReport {
        crate::pipeline::batch::run_batch(self, requests)
    }

    /// Experiment hook: answers with a *fixed* Laplace budget `ε` instead
    /// of the optimizer (used by the Fig. 5 / Fig. 6 reproductions, which
    /// sweep ε directly). Samples are topped up to `p` first; sensitivity
    /// follows the configured policy. The released answer carries
    /// `accuracy: None` — there is no `(α, δ)` demand to record — and a
    /// degenerate but fully finite [`PerturbationPlan`].
    ///
    /// # Errors
    ///
    /// Propagates sampling, sensitivity, and budget errors.
    pub fn answer_with_epsilon(
        &mut self,
        query: RangeQuery,
        epsilon: Epsilon,
        p: f64,
    ) -> Result<PrivateAnswer, CoreError> {
        let request = Request::Fixed {
            query,
            epsilon,
            probability: p,
        };
        drive(self, None, request).map(|priced| priced.answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::BasicCounting;
    use prc_net::failure::FailurePlan;
    use prc_net::message::NodeId;
    use prc_net::tree::TreeNetwork;
    use prc_pricing::functions::InverseVariancePricing;
    use prc_pricing::reuse::PostedPriceReuse;
    use prc_pricing::variance::ChebyshevVariance;

    fn partitions(k: usize, per_node: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|i| (0..per_node).map(|j| (i * per_node + j) as f64).collect())
            .collect()
    }

    fn network(k: usize, per_node: usize, seed: u64) -> FlatNetwork {
        FlatNetwork::from_partitions(partitions(k, per_node), seed)
    }

    fn request(l: f64, u: f64, a: f64, d: f64) -> QueryRequest {
        QueryRequest::new(RangeQuery::new(l, u).unwrap(), Accuracy::new(a, d).unwrap())
    }

    fn guard(n: usize) -> Box<dyn ReuseGuard> {
        let model = ChebyshevVariance::new(n);
        Box::new(PostedPriceReuse::new(
            InverseVariancePricing::new(1e7, model),
            model,
        ))
    }

    #[test]
    fn end_to_end_answer_meets_accuracy_often() {
        // Definition 2.2: |answer − truth| ≤ αn with probability ≥ δ.
        let n_total = 10_000.0;
        let req = request(2_000.0, 7_000.0, 0.05, 0.8);
        let truth = 5_001.0;
        let trials = 300;
        let mut hits = 0;
        for seed in 0..trials {
            let mut broker = DataBroker::new(network(10, 1_000, seed), seed);
            let answer = broker.answer(&req).unwrap();
            if (answer.value - truth).abs() <= 0.05 * n_total {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!(
            rate >= 0.8,
            "accuracy guarantee violated empirically: hit rate {rate}"
        );
    }

    #[test]
    fn answer_reports_consistent_plan() {
        let mut broker = DataBroker::new(network(8, 500, 3), 3);
        let req = request(100.0, 900.0, 0.1, 0.6);
        let answer = broker.answer(&req).unwrap();
        assert_eq!(answer.query, req.query);
        assert_eq!(answer.accuracy, Some(req.accuracy));
        assert!(answer.plan.alpha_prime < req.accuracy.alpha());
        assert!(answer.plan.delta_prime > req.accuracy.delta());
        assert!(answer.variance_bound > 0.0);
        assert!((answer.value - answer.sample_estimate).abs() < answer.plan.noise_scale * 60.0);
    }

    #[test]
    fn broker_tops_up_samples_on_demand() {
        let mut broker = DataBroker::new(network(5, 2_000, 1), 1);
        assert_eq!(broker.network().station().total_samples(), 0);
        let loose = request(0.0, 10_000.0, 0.2, 0.5);
        broker.answer(&loose).unwrap();
        let after_loose = broker.network().station().effective_probability();
        assert!(after_loose > 0.0);
        // A stricter query forces a higher sampling probability.
        let strict = request(0.0, 10_000.0, 0.03, 0.9);
        broker.answer(&strict).unwrap();
        let after_strict = broker.network().station().effective_probability();
        assert!(after_strict > after_loose);
        // The counters saw both collection rounds.
        let counters = broker.counters();
        assert!(counters.collection_rounds >= 2);
        assert!(counters.samples_collected > 0);
        assert_eq!(counters.answers_released, 2);
    }

    #[test]
    fn budget_accounting_blocks_overspend() {
        let mut broker = DataBroker::new(network(5, 2_000, 2), 2);
        let req = request(0.0, 5_000.0, 0.1, 0.6);
        // Learn the per-answer cost, then install a budget for ~2 answers.
        let probe = broker.answer(&req).unwrap();
        let per_query = probe.plan.effective_epsilon.value();
        broker.set_privacy_budget(Epsilon::new(per_query * 2.5).unwrap());
        broker.answer(&req).unwrap();
        broker.answer(&req).unwrap();
        let err = broker.answer(&req).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Dp(prc_dp::DpError::BudgetExhausted { .. })
        ));
        let acc = broker.accountant().unwrap();
        assert_eq!(acc.operations(), 2);
    }

    #[test]
    fn works_with_basic_counting_estimator() {
        let mut broker = DataBroker::with_estimator(network(5, 1_000, 4), BasicCounting, 4);
        let answer = broker.answer(&request(0.0, 2_500.0, 0.1, 0.6)).unwrap();
        assert!(answer.value.is_finite());
        // BasicCounting's variance bound dominates RankCounting's here.
        assert!(answer.variance_bound > 0.0);
    }

    #[test]
    fn fixed_epsilon_hook_controls_noise_scale() {
        let mut broker = DataBroker::new(network(5, 1_000, 5), 5);
        let q = RangeQuery::new(0.0, 2_500.0).unwrap();
        let answer = broker
            .answer_with_epsilon(q, Epsilon::new(2.0).unwrap(), 0.4)
            .unwrap();
        assert!((answer.plan.probability - 0.4).abs() < 1e-12);
        // Δ = 1/p = 2.5, b = Δ/ε = 1.25.
        assert!((answer.plan.noise_scale - 1.25).abs() < 1e-12);
        assert!(answer.plan.effective_epsilon.value() < 2.0);
        assert!(broker
            .answer_with_epsilon(q, Epsilon::new(1.0).unwrap(), 0.0)
            .is_err());
    }

    #[test]
    fn answers_are_noisy_but_centred() {
        let req = request(1_000.0, 3_000.0, 0.08, 0.6);
        let truth = 2_001.0;
        let trials = 400;
        let mut sum = 0.0;
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..trials {
            let mut broker = DataBroker::new(network(4, 1_000, seed + 100), seed + 100);
            let a = broker.answer(&req).unwrap();
            sum += a.value;
            distinct.insert(a.value.to_bits());
        }
        assert!(distinct.len() > trials as usize - 5, "answers must vary");
        let mean = sum / trials as f64;
        assert!(
            (mean - truth).abs() < 25.0,
            "released answers should be centred on the truth: mean {mean}"
        );
    }

    #[test]
    fn empty_network_data_errors() {
        let mut broker = DataBroker::new(FlatNetwork::from_partitions(vec![vec![]], 0), 0);
        let err = broker.answer(&request(0.0, 1.0, 0.1, 0.5)).unwrap_err();
        assert!(matches!(err, CoreError::NoSamples));
    }

    #[test]
    fn sampling_policy_targets_are_strictly_tighter() {
        let accuracy = Accuracy::new(0.1, 0.6).unwrap();
        let target = sampling_target(accuracy).unwrap();
        assert!(target.alpha() < accuracy.alpha());
        assert!(target.delta() > accuracy.delta());
    }

    #[test]
    fn a_plan_served_across_a_resample_equals_a_fresh_sweep() {
        use crate::optimizer::{optimize, NetworkShape};
        use prc_net::network::DataEdit;

        let mut broker = DataBroker::new(network(6, 400, 8), 8);
        let req = request(100.0, 1_500.0, 0.1, 0.6);
        broker.answer(&req).unwrap();
        // One value moves within node 0: a new sample at the same shape.
        broker.network_mut().resample(
            21,
            &[
                DataEdit::Remove(NodeId(0), 5.0),
                DataEdit::Insert(NodeId(0), 5.5),
            ],
        );
        let hits = broker.counters().plan_cache_hits;
        let served = broker.answer(&req).unwrap().plan;
        assert_eq!(broker.counters().plan_cache_hits, hits + 1, "a cache hit");
        let station = broker.network().station();
        let fresh = optimize(
            req.accuracy,
            station.effective_probability(),
            NetworkShape::from_station(station).unwrap(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let bits = |plan: PerturbationPlan| {
            [
                plan.alpha_prime,
                plan.delta_prime,
                plan.epsilon.value(),
                plan.effective_epsilon.value(),
                plan.sensitivity,
                plan.noise_scale,
                plan.probability,
                plan.tail_probability,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(served), bits(fresh));
    }

    #[test]
    fn edge_demands_are_refused_with_a_typed_error() {
        // Valid demands whose sampling target rounds onto the edge of
        // (0, 1): half the smallest α is 0, and closing half of the last
        // gap below 1 rounds δ′ up to 1.
        let smallest_alpha = Accuracy::new(f64::from_bits(1), 0.6).unwrap();
        let largest_delta = Accuracy::new(0.1, 1.0 - f64::EPSILON / 2.0).unwrap();
        for accuracy in [smallest_alpha, largest_delta] {
            let req = QueryRequest::new(RangeQuery::new(0.0, 2_500.0).unwrap(), accuracy);
            let mut broker = DataBroker::new(network(5, 1_000, 43), 43);
            broker.set_privacy_budget(Epsilon::new(1.0).unwrap());
            let single = broker.answer(&req);
            assert!(matches!(single, Err(CoreError::InvalidAccuracy { .. })));
            let report = broker.answer_batch(&[req]);
            assert!(matches!(
                report.answers[0],
                Err(CoreError::InvalidAccuracy { .. })
            ));
            assert_eq!(broker.accountant().unwrap().operations(), 0);
            assert_eq!(broker.counters(), StageCounters::default());
        }
    }

    #[test]
    fn broker_runs_over_tree_networks() {
        let net = TreeNetwork::from_partitions(partitions(6, 500), 2, 11);
        let mut broker = DataBroker::new(net, 11);
        let answer = broker.answer(&request(500.0, 2_500.0, 0.1, 0.6)).unwrap();
        assert!(answer.value.is_finite());
        assert_eq!(broker.network().node_count(), 6);
    }

    #[test]
    fn cache_serves_identical_requests_and_skips_budget() {
        let mut broker = DataBroker::new(network(5, 2_000, 6), 6);
        broker.enable_answer_cache(guard(10_000));
        let req = request(0.0, 5_000.0, 0.1, 0.6);
        let first = broker.answer(&req).unwrap();
        broker
            .set_privacy_budget(Epsilon::new(first.plan.effective_epsilon.value() * 0.5).unwrap());
        // A repeat request is served from cache: identical bits, no spend
        // against the (deliberately too small) budget.
        let second = broker.answer(&req).unwrap();
        assert_eq!(first.value.to_bits(), second.value.to_bits());
        assert_eq!(broker.accountant().unwrap().operations(), 0);
        assert_eq!(broker.counters().cache_hits, 1);
        assert_eq!(broker.cached_answers(), 1);
        // A different demand over the same range is answered fresh.
        let looser = request(0.0, 5_000.0, 0.2, 0.5);
        let third = broker.answer(&looser).unwrap();
        assert_ne!(third.value.to_bits(), first.value.to_bits());
        assert_eq!(broker.counters().cache_misses, 2);
        // Disabling clears the cache.
        broker.disable_answer_cache();
        assert_eq!(broker.cached_answers(), 0);
    }

    /// Allows every reuse it is asked about.
    #[derive(Debug)]
    struct AcceptAll;

    impl ReuseGuard for AcceptAll {
        fn allows_reuse(&self, _requested: Demand, _cached: Demand) -> bool {
            true
        }

        fn posted_price(&self, _requested: Demand) -> f64 {
            0.0
        }
    }

    #[test]
    fn cache_candidates_are_tried_in_ascending_epsilon_bits() {
        // Ranges below the data's support: no collection round evicts
        // them, so every answer stored stays stored.
        let mut broker = DataBroker::new(network(5, 1_000, 19), 19);
        broker.enable_answer_cache(guard(5_000));
        let tight = broker.answer(&request(-10.0, -1.0, 0.05, 0.8)).unwrap();
        let loose = broker.answer(&request(-10.0, -1.0, 0.2, 0.5)).unwrap();
        let bits = |answer: &PrivateAnswer| answer.plan.epsilon.value().to_bits();
        assert!(bits(&tight) > bits(&loose), "stored larger ε bits first");
        assert_eq!(broker.cached_answers(), 2);

        // Any demand may take either answer now; it gets the smaller ε
        // bits, and the hit stores nothing.
        broker.enable_answer_cache(Box::new(AcceptAll));
        let hits = broker.counters().cache_hits;
        let hit = broker.answer(&request(-10.0, -1.0, 0.1, 0.6)).unwrap();
        assert_eq!(hit, loose);
        assert_eq!(broker.counters().cache_hits, hits + 1);
        assert_eq!(broker.cached_answers(), 2);

        // A fixed-ε answer that misses only for its higher p is stored
        // under bits already held: the first answer at that ε stays.
        let q = RangeQuery::new(-20.0, -11.0).unwrap();
        let epsilon = Epsilon::new(1.5).unwrap();
        let p = broker.network().station().effective_probability();
        let first = broker.answer_with_epsilon(q, epsilon, p).unwrap();
        assert_eq!(broker.cached_answers(), 3);
        let higher = (p + 1.0) / 2.0;
        let second = broker.answer_with_epsilon(q, epsilon, higher).unwrap();
        assert_ne!(second.value.to_bits(), first.value.to_bits(), "a miss");
        assert_eq!(broker.cached_answers(), 3);
        assert_eq!(broker.answer_with_epsilon(q, epsilon, p).unwrap(), first);
    }

    #[test]
    fn answer_batch_matches_request_order_and_counts_stages() {
        let workload: Vec<QueryRequest> = vec![
            request(0.0, 2_500.0, 0.1, 0.6),
            request(2_500.0, 7_500.0, 0.05, 0.8),
            request(0.0, 2_500.0, 0.1, 0.6), // duplicate of #0
            request(5_000.0, 9_000.0, 0.2, 0.5),
        ];
        let mut broker = DataBroker::new(network(10, 1_000, 8), 8);
        broker.enable_answer_cache(guard(10_000));
        let report = broker.answer_batch(&workload);
        assert_eq!(report.answers.len(), 4);
        let counters = broker.counters();
        assert_eq!(counters.answers_released, 4);
        assert!(counters.collection_rounds >= 2);
        assert_eq!(counters.cache_hits, 1);
        assert!(counters.samples_collected > 0);
        assert!(broker.network().meter().snapshot().chargeable_messages() > 0);
        for (i, result) in report.answers.iter().enumerate() {
            let answer = result.as_ref().unwrap();
            assert_eq!(answer.query, workload[i].query, "slot {i} out of order");
        }
        // The duplicate was served the cached bits.
        let a0 = report.answers[0].as_ref().unwrap();
        let a2 = report.answers[2].as_ref().unwrap();
        assert_eq!(a0.value.to_bits(), a2.value.to_bits());
    }

    #[test]
    fn answer_batch_is_deterministic_across_drivers() {
        let workload: Vec<QueryRequest> = vec![
            request(0.0, 2_000.0, 0.15, 0.5),
            request(1_000.0, 3_000.0, 0.08, 0.7),
            request(500.0, 3_500.0, 0.15, 0.5),
        ];
        let run_flat = |seed: u64| {
            let mut broker =
                DataBroker::new(FlatNetwork::from_partitions(partitions(6, 700), seed), seed);
            broker
                .answer_batch(&workload)
                .answers
                .into_iter()
                .map(|r| r.unwrap().value.to_bits())
                .collect::<Vec<u64>>()
        };
        let run_tree = |seed: u64| {
            let net = TreeNetwork::from_partitions(partitions(6, 700), 2, seed);
            let mut broker = DataBroker::new(net, seed);
            broker
                .answer_batch(&workload)
                .answers
                .into_iter()
                .map(|r| r.unwrap().value.to_bits())
                .collect::<Vec<u64>>()
        };
        // Same seed: byte-identical answers, same driver or not.
        assert_eq!(run_flat(9), run_flat(9));
        assert_eq!(run_flat(9), run_tree(9));
        // Different seed: different noise.
        assert_ne!(run_flat(9), run_flat(10));
    }

    #[test]
    fn answer_batch_reports_per_request_budget_errors() {
        let mut broker = DataBroker::new(network(5, 2_000, 12), 12);
        let req = request(0.0, 5_000.0, 0.1, 0.6);
        let probe = broker.answer(&req).unwrap();
        let per_query = probe.plan.effective_epsilon.value();
        broker.set_privacy_budget(Epsilon::new(per_query * 1.5).unwrap());
        let report = broker.answer_batch(&[req; 3]);
        let ok = report.answers.iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok, 1, "budget covers exactly one fresh answer");
        assert!(report
            .answers
            .iter()
            .any(|r| matches!(r, Err(CoreError::Dp(_)))));
        assert_eq!(report.released().count(), 1);
    }

    #[test]
    fn answer_batch_on_empty_network_errors_every_slot() {
        let mut broker = DataBroker::new(FlatNetwork::from_partitions(vec![vec![]], 0), 0);
        let report = broker.answer_batch(&[request(0.0, 1.0, 0.1, 0.5)]);
        assert!(matches!(report.answers[0], Err(CoreError::NoSamples)));
        assert_eq!(broker.counters(), StageCounters::default());
    }

    #[test]
    fn indexed_batches_release_the_same_bits_as_scan_batches() {
        let workload: Vec<QueryRequest> = vec![
            request(0.0, 2_000.0, 0.15, 0.5),
            request(1_000.0, 3_000.0, 0.08, 0.7),
            request(500.0, 3_500.0, 0.15, 0.5),
            request(-10.0, -1.0, 0.15, 0.5),      // below support
            request(1_000.0, 3_000.0, 0.08, 0.7), // duplicate
        ];
        // A few nodes with many values each, and many nodes with a few
        // values each.
        for (nodes, per_node) in [(8, 700), (2_048, 4)] {
            let run = |policy: IndexPolicy| {
                let mut broker = DataBroker::new(network(nodes, per_node, 21), 21);
                broker.set_index_policy(policy);
                let report = broker.answer_batch(&workload);
                let bits: Vec<u64> = report
                    .answers
                    .iter()
                    .map(|r| r.as_ref().unwrap().value.to_bits())
                    .collect();
                (bits, broker.counters())
            };
            let (indexed_bits, indexed_counters) = run(IndexPolicy::Always);
            let (scan_bits, scan_counters) = run(IndexPolicy::Never);
            assert_eq!(indexed_bits, scan_bits, "index changed released bits");
            assert!(indexed_counters.index_builds >= 1);
            assert!(indexed_counters.indexed_estimates >= workload.len() as u64 - 1);
            assert_eq!(scan_counters.index_builds, 0);
            assert_eq!(scan_counters.indexed_estimates, 0);
        }
    }

    #[test]
    fn single_answers_use_the_index_and_match_scan() {
        let req = request(200.0, 3_300.0, 0.1, 0.6);
        let run = |policy: IndexPolicy| {
            let mut broker = DataBroker::new(network(6, 800, 33), 33);
            broker.set_index_policy(policy);
            let answer = broker.answer(&req).unwrap();
            (answer.value.to_bits(), broker.counters())
        };
        let (indexed, ic) = run(IndexPolicy::Always);
        let (scanned, sc) = run(IndexPolicy::Never);
        assert_eq!(indexed, scanned);
        assert_eq!(ic.index_builds, 1);
        assert_eq!(ic.indexed_estimates, 1);
        assert_eq!(sc.index_builds, 0);
        assert_eq!(sc.indexed_estimates, 0);
    }

    #[test]
    fn collection_rounds_rebuild_the_index() {
        let mut broker = DataBroker::new(network(5, 2_000, 7), 7);
        broker.set_index_policy(IndexPolicy::Always);
        broker.answer(&request(0.0, 10_000.0, 0.2, 0.5)).unwrap();
        let after_first = broker.counters();
        assert_eq!(after_first.index_builds, 1);
        // Same epoch: a second loose query reuses the built index.
        broker.answer(&request(0.0, 4_000.0, 0.2, 0.5)).unwrap();
        assert_eq!(broker.counters().index_builds, 1);
        assert_eq!(broker.counters().indexed_estimates, 2);
        // A stricter query forces a top-up; the moved station revision
        // rebuilds the index once before it answers.
        broker.answer(&request(0.0, 10_000.0, 0.03, 0.9)).unwrap();
        let after_strict = broker.counters();
        assert!(after_strict.collection_rounds > after_first.collection_rounds);
        assert_eq!(after_strict.index_builds, 2, "rebuilt once for the round");
        assert_eq!(after_strict.indexed_estimates, 3);
    }

    #[test]
    fn declined_rebuilds_fall_back_to_the_scan() {
        // A round that leaves the station heterogeneous (a dead node keeps
        // its old rate while the rest top up) declines the rebuild: the
        // next answer scans and releases the scan-only broker's bits.
        let req = request(0.0, 10_000.0, 0.2, 0.5);
        let run = |policy: IndexPolicy| {
            let mut broker = DataBroker::new(network(5, 2_000, 17), 17);
            broker.set_index_policy(policy);
            let first = broker.answer(&req).unwrap().value.to_bits();
            let mut plan = FailurePlan::none();
            plan.kill_node(NodeId(0));
            broker.network_mut().set_failure_plan(plan);
            broker.network_mut().collect_samples(0.9);
            assert!(broker.network().station().uniform_probability().is_none());
            let second = broker.answer(&req).unwrap().value.to_bits();
            ([first, second], broker.counters())
        };
        let (indexed, counters) = run(IndexPolicy::Always);
        let (scanned, _) = run(IndexPolicy::Never);
        assert_eq!(indexed, scanned);
        assert_eq!(counters.index_builds, 1, "the rebuild was declined");
        assert_eq!(counters.indexed_estimates, 1, "the second answer scanned");
    }

    #[test]
    fn small_stations_stay_on_the_scan_path() {
        // The adaptive default is a ski-rental: a lone query over a tiny
        // station never accrues enough foregone scan cost to pay for a
        // build, so the broker stays on the scan path.
        let mut broker = DataBroker::new(network(3, 50, 9), 9);
        assert_eq!(broker.index_policy(), IndexPolicy::Adaptive);
        broker.answer(&request(0.0, 100.0, 0.2, 0.5)).unwrap();
        assert_eq!(broker.counters().index_builds, 0);
        assert_eq!(broker.counters().indexed_estimates, 0);
    }

    #[test]
    fn adaptive_policy_buys_the_index_once_queries_amortize_it() {
        // Wide fan-out makes the per-query scan saving large relative to
        // the one-off build cost, so a big batch pays for the index up
        // front under the default cost model.
        let req = request(0.0, 10_000.0, 0.2, 0.5);
        let mut broker = DataBroker::new(network(64, 100, 13), 13);
        broker.answer(&req).unwrap();
        assert_eq!(broker.counters().index_builds, 0, "one query rents");
        let report = broker.answer_batch(&vec![req; 256]);
        assert!(report.answers.iter().all(Result::is_ok));
        assert_eq!(broker.counters().index_builds, 1, "a batch buys");
        assert!(broker.counters().indexed_estimates >= 256);
    }

    #[test]
    fn signed_zero_bounds_share_one_cache_entry() {
        // `[−0.0, u]` is the range `[+0.0, u]`: asked second at the same
        // demand, it is a cache hit that spends no ε, on either entry
        // point (in a batch, the first member's answer is already cached
        // when the second looks it up).
        let positive = request(0.0, 2_500.0, 0.1, 0.6);
        let negative = request(-0.0, 2_500.0, 0.1, 0.6);
        let fresh = || {
            let mut broker = DataBroker::new(network(5, 1_000, 41), 41);
            broker.enable_answer_cache(guard(5_000));
            broker.set_privacy_budget(Epsilon::new(100.0).unwrap());
            broker
        };
        let mut single = fresh();
        let first = single.answer(&positive).unwrap().value.to_bits();
        let second = single.answer(&negative).unwrap().value.to_bits();
        assert_eq!(second, first);

        let mut batched = fresh();
        let bits: Vec<u64> = batched
            .answer_batch(&[positive, negative])
            .answers
            .iter()
            .map(|r| r.as_ref().unwrap().value.to_bits())
            .collect();
        assert_eq!(bits, vec![first; 2]);

        for broker in [&single, &batched] {
            assert_eq!(broker.counters().cache_hits, 1);
            assert_eq!(broker.accountant().unwrap().operations(), 1);
        }
    }

    #[test]
    fn collection_deltas_evict_only_touched_cached_answers() {
        let mut broker = DataBroker::new(network(6, 800, 31), 31);
        broker.enable_answer_cache(guard(4_800));
        let touched = request(0.0, 4_000.0, 0.2, 0.5);
        let untouched = request(-10.0, -1.0, 0.2, 0.5);
        let first_touched = broker.answer(&touched).unwrap();
        let first_untouched = broker.answer(&untouched).unwrap();
        assert_eq!(broker.cached_answers(), 2);

        // A stricter query forces a top-up: every node's fresh samples
        // overlap the data's value range, so the in-range answer is
        // evicted while the below-support one survives the epoch.
        broker.answer(&request(0.0, 4_800.0, 0.03, 0.9)).unwrap();
        assert_eq!(broker.cached_answers(), 2, "the survivor and the new");
        let second_untouched = broker.answer(&untouched).unwrap();
        assert_eq!(
            second_untouched.value.to_bits(),
            first_untouched.value.to_bits(),
            "untouched range must survive as a cache hit"
        );
        assert_eq!(broker.counters().cache_hits, 1);
        let second_touched = broker.answer(&touched).unwrap();
        assert_ne!(
            second_touched.value.to_bits(),
            first_touched.value.to_bits(),
            "touched range must be re-answered fresh"
        );
        assert_eq!(broker.counters().cache_hits, 1);
    }

    #[test]
    fn surviving_cache_hits_stay_budget_free_across_rounds() {
        let mut broker = DataBroker::new(network(6, 800, 37), 37);
        broker.enable_answer_cache(guard(4_800));
        let untouched = request(-10.0, -1.0, 0.2, 0.5);
        let first = broker.answer(&untouched).unwrap();
        broker.answer(&request(0.0, 4_800.0, 0.03, 0.9)).unwrap();

        // Budget accounting is unchanged by eviction: the surviving
        // answer is re-served as post-processing, spending nothing even
        // against a budget too small for a fresh release.
        broker
            .set_privacy_budget(Epsilon::new(first.plan.effective_epsilon.value() * 0.1).unwrap());
        let replay = broker.answer(&untouched).unwrap();
        assert_eq!(replay.value.to_bits(), first.value.to_bits());
        assert_eq!(broker.accountant().unwrap().operations(), 0);
    }

    #[test]
    fn fixed_epsilon_hook_matches_bits_across_paths() {
        let q = RangeQuery::new(0.0, 2_500.0).unwrap();
        let run = |policy: IndexPolicy| {
            let mut broker = DataBroker::new(network(5, 1_000, 5), 5);
            broker.set_index_policy(policy);
            broker
                .answer_with_epsilon(q, Epsilon::new(2.0).unwrap(), 0.4)
                .unwrap()
                .value
                .to_bits()
        };
        assert_eq!(run(IndexPolicy::Always), run(IndexPolicy::Never));
    }

    #[test]
    fn estimators_without_an_index_never_build_one() {
        let mut broker = DataBroker::with_estimator(network(5, 1_000, 4), BasicCounting, 4);
        broker.set_index_policy(IndexPolicy::Always);
        broker.answer(&request(0.0, 2_500.0, 0.1, 0.6)).unwrap();
        assert_eq!(broker.counters().index_builds, 0);
        assert_eq!(broker.counters().indexed_estimates, 0);
    }
}
