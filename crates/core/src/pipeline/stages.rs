//! The six pipeline stages.
//!
//! Each stage is a named struct whose `run` consumes its typed input and
//! produces the next stage's typed input. Stages mutate only the broker
//! state they own — the same mutations, in the same order, as the
//! pre-pipeline entry points, which is what keeps every released answer
//! bit-identical across the refactor:
//!
//! * [`Admit`] — price quote, cache lookup, admission checks (no broker
//!   mutation beyond cache counters);
//! * [`Collect`] — sample top-up through
//!   [`prc_net::network::Network::top_up_delta`] (station mutation,
//!   answer-cache eviction);
//! * [`Reserve`] — perturbation planning and the two-phase budget
//!   **hold** (reserve now, commit or roll back later);
//! * [`Estimate`] — index-or-scan sample estimate (index build or
//!   rebuild);
//! * [`Perturb`] — the only stage that consumes broker randomness;
//! * [`Settle`] — budget commit, cache store, ledger settlement.
//!
//! A single request is either an `(α, δ)` demand or a fixed `(ε, p)`
//! experiment request; both kinds run the same stages, and only Admit's
//! checks, the cache match rule and Reserve's plan depend on the kind.

use prc_dp::budget::{Epsilon, Reservation};
use prc_dp::laplace::draw_centered;
use prc_net::message::NodeId;
use prc_net::network::Network;
use prc_pricing::engine::{Quote, Settlement};
use prc_pricing::reuse::Demand;

use crate::accuracy::required_probability_clamped;
use crate::broker::{
    sampling_target, CacheKey, DataBroker, IndexFingerprint, IndexPolicy, IndexState, PrivateAnswer,
};
use crate::error::CoreError;
use crate::estimator::engine::PlanCache;
use crate::estimator::RangeCountEstimator;
use crate::optimizer::{optimize, NetworkShape, PerturbationPlan, SensitivityPolicy};
use crate::pipeline::PricedAnswer;
use crate::query::{Accuracy, QueryRequest, RangeQuery};

/// What one single request asks for. Private: callers reach it through
/// [`crate::pipeline::QuerySession::run`] and
/// [`DataBroker::answer_with_epsilon`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Request {
    /// An `(α, δ)` demand, planned by the optimizer.
    Demand(QueryRequest),
    /// The fixed-ε experiment hook (Fig. 5 / Fig. 6): a Laplace budget
    /// `epsilon` at sampling probability `probability`, with no demand.
    Fixed {
        query: RangeQuery,
        epsilon: Epsilon,
        probability: f64,
    },
}

impl Request {
    /// The queried range.
    pub(crate) fn query(&self) -> RangeQuery {
        match self {
            Request::Demand(request) => request.query,
            Request::Fixed { query, .. } => *query,
        }
    }

    /// The customer accuracy (`None` for a fixed-ε request).
    pub(crate) fn accuracy(&self) -> Option<Accuracy> {
        match self {
            Request::Demand(request) => Some(request.accuracy),
            Request::Fixed { .. } => None,
        }
    }
}

/// Admission decision for one request.
#[derive(Debug)]
pub enum Admission {
    /// The cache already holds a reusable answer; skip straight to
    /// [`Settle`] (a re-release is post-processing: budget-free).
    Cached {
        /// The cached answer, bit-identical to its first release.
        answer: PrivateAnswer,
        /// The quote issued for this request, if the session is priced.
        quote: Option<Quote>,
    },
    /// No reusable answer; run the full pipeline.
    Fresh(Admitted),
}

/// A freshly admitted request, ready for [`Collect`].
#[derive(Debug)]
pub struct Admitted {
    /// Sampling probability the collection stage must reach.
    pub target_probability: f64,
    /// The quote issued for this request, if the session is priced.
    pub quote: Option<Quote>,
}

/// Stage 1 — Admit: quote the demand (priced sessions), consult the
/// answer cache, and validate that the network can be sampled at all.
#[derive(Debug)]
pub struct Admit<'r> {
    /// The incoming request.
    pub(crate) request: Request,
    /// The purchasing consumer, when the session is priced.
    pub(crate) buyer: Option<&'r str>,
}

impl Admit<'_> {
    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidProbability`] when a fixed-ε request's `p` is
    /// outside `(0, 1]` (checked before the cache is consulted);
    /// [`CoreError::Pricing`] when the engine refuses the demand (invalid
    /// or arbitrageable — checked *before* any budget or sample moves);
    /// [`CoreError::NoSamples`] when a demand meets an empty network;
    /// [`CoreError::InvalidAccuracy`] from the sampling-target solver.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Result<Admission, CoreError> {
        let quote = match self.request {
            Request::Demand(request) => match (&mut broker.pricing, self.buyer) {
                (Some(engine), Some(_)) => Some(engine.quote(Demand::new(
                    request.accuracy.alpha(),
                    request.accuracy.delta(),
                ))?),
                _ => None,
            },
            Request::Fixed { probability: p, .. } => {
                if !(0.0..=1.0).contains(&p) || p == 0.0 {
                    return Err(CoreError::InvalidProbability { value: p });
                }
                None
            }
        };
        if let Some(answer) = cache_lookup(broker, &self.request) {
            broker.counters.answers_released += 1;
            return Ok(Admission::Cached { answer, quote });
        }
        let target_probability = match self.request {
            Request::Demand(request) => {
                let k = broker.network.node_count();
                let n = broker.network.total_data_size();
                if n == 0 {
                    return Err(CoreError::NoSamples);
                }
                required_probability_clamped(sampling_target(request.accuracy)?, k, n)?
            }
            // An empty station fails later, at Reserve, after Collect.
            Request::Fixed { probability, .. } => probability,
        };
        Ok(Admission::Fresh(Admitted {
            target_probability,
            quote,
        }))
    }
}

/// Stage 2 — Collect: top the network up to the admitted target.
///
/// A round that actually collects reports its
/// [`RoundDelta`](prc_net::network::RoundDelta) — the exact set of
/// changed nodes — and the answer cache is delta-filtered by it: cached
/// answers whose range touches a changed node's value span are evicted,
/// while answers over untouched ranges survive the round (eviction
/// consumes no randomness and no budget — it only forces a fresh pipeline
/// run on the next request). The query index is left alone here:
/// `prepare_index` rebuilds it once the station's revision has moved.
#[derive(Debug)]
pub struct Collect {
    /// Sampling probability to reach.
    pub target_probability: f64,
}

impl Collect {
    /// Runs the stage (infallible: a short delivery simply leaves the
    /// achieved probability below target, which later stages re-check).
    pub fn run<E, N: Network>(self, broker: &mut DataBroker<E, N>) {
        if let Some(delta) = broker.network.top_up_delta(self.target_probability) {
            broker.counters.collection_rounds += 1;
            broker.counters.samples_collected += delta.delivered as u64;
            evict_touched_answers(broker, &delta.changed);
        }
    }
}

/// Evicts cached answers whose query range intersects a changed node's
/// value span, so only answers the round could not have affected keep
/// being re-served. A changed node without entries has no known span and
/// is treated as touching everything (conservative full clear).
pub(crate) fn evict_touched_answers<E, N: Network>(
    broker: &mut DataBroker<E, N>,
    changed: &[NodeId],
) {
    if broker.cache.is_empty() || changed.is_empty() {
        return;
    }
    let station = broker.network.station();
    let mut spans: Vec<(f64, f64)> = Vec::with_capacity(changed.len());
    for &node in changed {
        match station.node_sample(node).and_then(|s| s.value_span()) {
            Some(span) => spans.push(span),
            None => {
                broker.cache.clear();
                return;
            }
        }
    }
    broker.cache.retain(|&(lower_bits, upper_bits, _), _| {
        let lower = f64::from_bits(lower_bits);
        let upper = f64::from_bits(upper_bits);
        !spans.iter().any(|&(lo, hi)| lo <= upper && lower <= hi)
    });
}

/// A planned and budget-held request, ready for [`Estimate`].
///
/// `reservation` is a two-phase hold on the accountant: [`Settle`]
/// commits it after a successful release, `abort` rolls it back if any
/// later stage fails — the budget leak the old single-phase `spend` had
/// on failed answers cannot happen here.
#[derive(Debug)]
pub struct Reserved {
    /// The perturbation plan the answer will be released under.
    pub plan: PerturbationPlan,
    /// The budget hold (`None` when no accountant is installed).
    pub reservation: Option<Reservation>,
}

/// Stage 3 — Reserve: plan the perturbation and place a hold for its
/// effective `ε′` on the accountant. A demand's plan solves problem (3);
/// a fixed-ε request's plan is the degenerate one its `ε` and the
/// achieved probability determine.
#[derive(Debug)]
pub struct Reserve {
    /// The request to plan for.
    pub(crate) request: Request,
}

impl Reserve {
    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// [`CoreError::InfeasibleAccuracy`] when even a full top-up cannot
    /// meet a demand; [`CoreError::NoSamples`] on an empty station;
    /// [`CoreError::Dp`] from amplification or when the hold would
    /// overdraw the budget.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Result<Reserved, CoreError> {
        let plan = match self.request {
            Request::Demand(request) => plan_with_retry(broker, request.accuracy)?,
            Request::Fixed { epsilon, .. } => fixed_plan(broker, epsilon)?,
        };
        let reservation = reserve_effective(broker, plan.effective_epsilon)?;
        Ok(Reserved { plan, reservation })
    }
}

/// The fixed-ε plan: sensitivity from the configured policy at the
/// achieved probability, noise scale `Δ/ε`, and the amplified `ε′`.
fn fixed_plan<E, N: Network>(
    broker: &DataBroker<E, N>,
    epsilon: Epsilon,
) -> Result<PerturbationPlan, CoreError> {
    let shape = NetworkShape::from_station(broker.network.station())?;
    let achieved = broker.network.station().effective_probability();
    let sensitivity = match broker.optimizer_config.sensitivity {
        SensitivityPolicy::Expected => 1.0 / achieved,
        SensitivityPolicy::WorstCase => shape.max_node_population as f64,
        // Deliberately unvalidated: the experiment hook sweeps raw
        // values, and a bad one must fail at the noise draw — after
        // the hold — so the rollback path stays honest.
        SensitivityPolicy::Fixed(v) => v,
    };
    let effective = prc_dp::amplification::amplify(epsilon, achieved)?;
    // A degenerate but fully finite plan: the fixed-ε hook has no
    // intermediate accuracy split, so (α′, δ′) take their vacuous
    // values (no error bound claimed, confidence 1 that none is
    // exceeded) and the tail probability is 0.
    Ok(PerturbationPlan {
        alpha_prime: 0.0,
        delta_prime: 1.0,
        epsilon,
        effective_epsilon: effective,
        sensitivity,
        noise_scale: sensitivity / epsilon.value(),
        probability: achieved,
        tail_probability: 0.0,
    })
}

/// The pre-noise sample estimate.
#[derive(Debug, Clone, Copy)]
pub struct Estimated {
    /// The estimator's (or index's) range-count estimate.
    pub sample_estimate: f64,
}

/// Stage 4 — Estimate: answer the range count from the station's current
/// sample, through the epoch's query index when one is available
/// (bit-identical to the direct scan by the
/// [`crate::estimator::QueryIndex`] contract).
#[derive(Debug)]
pub struct Estimate {
    /// The queried range.
    pub query: RangeQuery,
}

impl Estimate {
    /// Runs the stage.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Estimated {
        prepare_index(broker, 1);
        let sample_estimate = match &broker.index {
            IndexState::Ready(_, index) => {
                broker.counters.indexed_estimates += 1;
                index.estimate(self.query)
            }
            _ => broker
                .estimator
                .estimate(broker.network.station(), self.query),
        };
        Estimated { sample_estimate }
    }
}

/// Stage 5 — Perturb: draw the Laplace noise and assemble the answer.
///
/// The only stage that consumes broker randomness; batch drivers run it
/// sequentially in input order so the noise stream is independent of any
/// estimator fan-out.
#[derive(Debug)]
pub struct Perturb {
    /// The queried range.
    pub query: RangeQuery,
    /// The customer accuracy (`None` for a fixed-ε request).
    pub accuracy: Option<Accuracy>,
    /// The plan to perturb under.
    pub plan: PerturbationPlan,
    /// The pre-noise estimate.
    pub sample_estimate: f64,
}

impl Perturb {
    /// Runs the stage against the station's current shape.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSamples`] on an empty station; [`CoreError::Dp`]
    /// when the plan's noise scale is not a positive finite number.
    pub fn run<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
    ) -> Result<PrivateAnswer, CoreError> {
        let shape = NetworkShape::from_station(broker.network.station())?;
        self.run_with_shape(broker, shape)
    }

    /// Runs the stage with a shape the caller already computed (the batch
    /// driver computes it once per tier).
    ///
    /// # Errors
    ///
    /// [`CoreError::Dp`] when the plan's noise scale is not a positive
    /// finite number.
    pub fn run_with_shape<E: RangeCountEstimator, N: Network>(
        self,
        broker: &mut DataBroker<E, N>,
        shape: NetworkShape,
    ) -> Result<PrivateAnswer, CoreError> {
        let noise = draw_centered(self.plan.noise_scale, &mut broker.rng)?;
        let variance_bound =
            broker
                .estimator
                .variance_bound(shape.k, shape.n, self.plan.probability)
                + self.plan.noise_variance();
        broker.counters.answers_released += 1;
        Ok(PrivateAnswer {
            query: self.query,
            accuracy: self.accuracy,
            value: self.sample_estimate + noise,
            sample_estimate: self.sample_estimate,
            plan: self.plan,
            variance_bound,
        })
    }
}

/// Stage 6 — Settle: commit the budget hold, store the answer for
/// reuse, and (priced sessions) record the sale in the engine's ledger.
#[derive(Debug)]
pub struct Settle<'r> {
    /// The released answer.
    pub answer: PrivateAnswer,
    /// The budget hold to commit (`None`: unbudgeted, or a cached hit).
    pub reservation: Option<Reservation>,
    /// The quote issued at admission, if the session is priced.
    pub quote: Option<Quote>,
    /// The purchasing consumer, when the session is priced.
    pub buyer: Option<&'r str>,
}

impl Settle<'_> {
    /// Runs the stage (infallible: everything that can refuse the
    /// transaction already has).
    pub fn run<E, N: Network>(self, broker: &mut DataBroker<E, N>) -> PricedAnswer {
        if let Some(hold) = self.reservation {
            if let Some(accountant) = &mut broker.accountant {
                accountant.commit(hold);
            }
        }
        cache_store(broker, &self.answer);
        let (price, settlement) = match (self.quote, self.buyer, &mut broker.pricing) {
            (Some(quote), Some(buyer), Some(engine)) => {
                let sequence = engine.settle(Settlement {
                    buyer,
                    demand: quote.demand,
                    price: quote.price,
                    plan: self.answer.plan.summary(),
                });
                broker.counters.settlements += 1;
                (Some(quote.price), Some(sequence))
            }
            (Some(quote), ..) => (Some(quote.price), None),
            _ => (None, None),
        };
        PricedAnswer {
            answer: self.answer,
            price,
            settlement,
        }
    }
}

/// Rolls a failed session's budget hold back, restoring the reserved
/// `ε′` to the accountant.
pub(crate) fn abort<E, N>(broker: &mut DataBroker<E, N>, reservation: Option<Reservation>) {
    if let Some(hold) = reservation {
        if let Some(accountant) = &mut broker.accountant {
            accountant.rollback(hold);
            broker.counters.budget_rollbacks += 1;
        }
    }
}

/// Places a hold for `epsilon` on the accountant, if one is installed.
pub(crate) fn reserve_effective<E, N>(
    broker: &mut DataBroker<E, N>,
    epsilon: Epsilon,
) -> Result<Option<Reservation>, CoreError> {
    match &mut broker.accountant {
        Some(accountant) => Ok(Some(accountant.reserve(epsilon)?)),
        None => Ok(None),
    }
}

/// Solves problem (3), topping up once more if the optimizer reports the
/// demand infeasible at the achieved probability.
pub(crate) fn plan_with_retry<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    accuracy: Accuracy,
) -> Result<PerturbationPlan, CoreError> {
    match plan(broker, accuracy) {
        Ok(plan) => Ok(plan),
        Err(CoreError::InfeasibleAccuracy {
            required_probability,
            ..
        }) => {
            Collect {
                target_probability: (required_probability * 1.05).min(1.0),
            }
            .run(broker);
            plan(broker, accuracy)
        }
        Err(e) => Err(e),
    }
}

/// Solves problem (3) at the currently achieved sampling probability,
/// memoizing the grid sweep in the broker's plan cache.
///
/// The cache key is the fingerprint of `(α, δ, p)`; everything else the
/// optimizer reads — the network shape and the achieved rate — is a
/// function of the station, so the cache synchronizes on the station's
/// revision stamp (the same stamp the query index rebuilds on) and a
/// stale epoch can never serve a plan. Budget state never enters the
/// sweep (holds are placed *after* planning), so no budget-side
/// invalidation is needed; config swaps clear the cache at the setter.
fn plan<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    accuracy: Accuracy,
) -> Result<PerturbationPlan, CoreError> {
    let station = broker.network.station();
    let p = station.effective_probability();
    if p <= 0.0 {
        return Err(CoreError::NoSamples);
    }
    let revision = station.revision();
    let key = PlanCache::fingerprint(accuracy, p);
    if let Some(plan) = broker.plan_cache.lookup(revision, key) {
        broker.counters.plan_cache_hits += 1;
        return Ok(plan);
    }
    let shape = NetworkShape::from_station(station)?;
    let plan = optimize(accuracy, p, shape, &broker.optimizer_config)?;
    broker.plan_cache.insert(revision, key, plan);
    Ok(plan)
}

/// Makes the index slot reflect the station's *current* state, about to
/// answer `upcoming_queries` estimates. After this returns, an
/// `IndexState::Ready` slot is safe to answer from.
///
/// In order:
///
/// 1. a live index built at the station's current revision is kept
///    as-is (only the revision is read);
/// 2. a live index whose revision moved is rebuilt from scratch; if the
///    estimator declines (e.g. the station lost its uniform rate), the
///    slot goes stale and falls through to 3;
/// 3. otherwise the [`IndexPolicy`] decides whether to build now: the
///    adaptive policy accrues the scanning cost of `upcoming_queries`
///    into its ski-rental meter and builds once scanning has foregone a
///    build's worth of savings.
pub(crate) fn prepare_index<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    upcoming_queries: u64,
) {
    let station = broker.network.station();
    let revision = station.revision();

    // 1 + 2: a live index is kept while the revision stands, rebuilt
    // once it moves.
    if let IndexState::Ready(built, _) = &broker.index {
        if *built == revision {
            return;
        }
        if let Some(index) = broker.estimator.build_index(station) {
            broker.counters.index_builds += 1;
            broker.index = IndexState::Ready(revision, index);
            return;
        }
        broker.index = IndexState::Stale;
    }

    let fingerprint: IndexFingerprint = (
        station.uniform_probability().map(f64::to_bits),
        station.total_samples(),
    );
    if let IndexState::Unavailable(f) = &broker.index {
        if *f == fingerprint {
            return;
        }
    }

    // 3: build-from-scratch decision.
    let entries = station.total_samples();
    let should_build = match broker.index_policy {
        IndexPolicy::Always => true,
        IndexPolicy::Never => false,
        IndexPolicy::Adaptive => {
            broker
                .build_accrual
                .observe(entries, station.data_bearing_count(), upcoming_queries);
            broker.build_accrual.should_build(entries)
        }
    };
    if !should_build {
        broker.index = IndexState::Stale;
        return;
    }
    broker.index = match broker.estimator.build_index(station) {
        Some(index) => {
            broker.counters.index_builds += 1;
            broker.build_accrual = crate::estimator::BuildAccrual::default();
            IndexState::Ready(revision, index)
        }
        None => IndexState::Unavailable(fingerprint),
    };
}

/// Looks a request up in the answer cache, if caching is enabled.
/// Candidates are the answers over the same range, matched per kind:
///
/// * a demand reuses a demand-path answer (one with a recorded accuracy)
///   when the guard decides re-serving it cannot undercut the posted
///   price curve;
/// * a fixed-ε request reuses a fixed-ε answer at the *same* ε, sampled
///   at least as hard as requested — there is no accuracy demand for a
///   guard to price, so the match is exact.
pub(crate) fn cache_lookup<E, N>(
    broker: &mut DataBroker<E, N>,
    request: &Request,
) -> Option<PrivateAnswer> {
    let guard = broker.reuse_guard.as_deref()?;
    let query = request.query();
    let mut candidates = broker
        .cache
        .range(cache_key(query, u64::MIN)..=cache_key(query, u64::MAX))
        .map(|(_, answer)| answer);
    let hit = match *request {
        Request::Demand(request) => {
            let requested = Demand::new(request.accuracy.alpha(), request.accuracy.delta());
            candidates.find(|answer| {
                answer.accuracy.is_some_and(|cached| {
                    guard.allows_reuse(requested, Demand::new(cached.alpha(), cached.delta()))
                })
            })
        }
        Request::Fixed {
            epsilon,
            probability,
            ..
        } => candidates.find(|answer| {
            answer.accuracy.is_none()
                && answer.plan.epsilon.value().to_bits() == epsilon.value().to_bits()
                && answer.plan.probability >= probability
        }),
    }
    .copied();
    if hit.is_some() {
        broker.counters.cache_hits += 1;
    } else {
        broker.counters.cache_misses += 1;
    }
    hit
}

/// Stores a freshly released answer for future reuse.
pub(crate) fn cache_store<E, N>(broker: &mut DataBroker<E, N>, answer: &PrivateAnswer) {
    if broker.reuse_guard.is_none() {
        return;
    }
    let key = cache_key(answer.query, answer.plan.epsilon.value().to_bits());
    broker.cache.entry(key).or_insert(*answer);
}

/// The answer-cache key of a range and a plan's Laplace budget bits
/// ([`RangeQuery::new`] already reads a `−0.0` bound as `+0.0`, so one
/// range has one entry).
fn cache_key(query: RangeQuery, epsilon_bits: u64) -> CacheKey {
    (
        query.lower().to_bits(),
        query.upper().to_bits(),
        epsilon_bits,
    )
}
