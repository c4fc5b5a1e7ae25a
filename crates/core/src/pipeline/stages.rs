//! The six pipeline stages, one function each.
//!
//! Each stage mutates only the broker state it owns — the same
//! mutations, in the same order, as the pre-pipeline entry points, which
//! is what keeps every released answer bit-identical across the
//! refactor:
//!
//! * [`admit`] — price quote or fixed-ε probability check (no broker
//!   mutation beyond the engine's quote);
//! * [`collect`] — sample top-up through
//!   [`prc_net::network::Network::top_up_delta`] (station mutation,
//!   answer-cache eviction);
//! * [`reserve`] — perturbation planning and the two-phase budget
//!   **hold** (reserve now, commit or roll back later);
//! * [`estimate`] — index-or-scan sample estimate (index build or
//!   rebuild);
//! * [`perturb`] — the only stage that consumes broker randomness;
//! * [`settle`] — budget commit, cache store, ledger settlement.
//!
//! A single request is either an `(α, δ)` demand or a fixed `(ε, p)`
//! experiment request; both kinds run the same stages, and only Admit's
//! checks, the cache match rule and Reserve's plan depend on the kind.
//! The drivers that compose the stages live in [`crate::pipeline`].

use prc_dp::budget::{Epsilon, Reservation};
use prc_dp::laplace::draw_centered;
use prc_net::message::NodeId;
use prc_net::network::Network;
use prc_pricing::engine::{Quote, Settlement};
use prc_pricing::reuse::Demand;

use crate::accuracy::required_probability_clamped;
use crate::broker::{sampling_target, CacheKey, DataBroker, IndexPolicy, PrivateAnswer};
use crate::error::CoreError;
use crate::estimator::engine::PlanCache;
use crate::estimator::RangeCountEstimator;
use crate::optimizer::{optimize, NetworkShape, PerturbationPlan, SensitivityPolicy};
use crate::pipeline::PricedAnswer;
use crate::query::{Accuracy, QueryRequest, RangeQuery};

/// What one request asks for: an `(α, δ)` demand from
/// [`DataBroker::answer`], [`DataBroker::answer_as`] or a batch, or a
/// fixed `(ε, p)` request from [`DataBroker::answer_with_epsilon`].
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

/// Stage 1 — Admit: quote the demand (priced requests), or check a
/// fixed-ε request's sampling probability. The driver then consults the
/// answer cache and, on a miss, the sampling rate the demand needs.
///
/// # Errors
///
/// [`CoreError::InvalidProbability`] when a fixed-ε request's `p` is
/// outside `(0, 1]` (checked before the cache is consulted);
/// [`CoreError::Pricing`] when the engine refuses the demand (invalid or
/// arbitrageable — checked *before* any budget or sample moves).
#[inline]
pub(crate) fn admit<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    request: &Request,
    buyer: Option<&str>,
) -> Result<Option<Quote>, CoreError> {
    match *request {
        Request::Demand(demand) => match buyer {
            Some(buyer) => broker.quote(buyer, &demand),
            None => Ok(None),
        },
        Request::Fixed { probability: p, .. } => {
            if !(0.0..=1.0).contains(&p) || p == 0.0 {
                return Err(CoreError::InvalidProbability { value: p });
            }
            Ok(None)
        }
    }
}

/// The sampling rate a demand needs: the rate that meets the broker's
/// sampling target for `accuracy` on this network.
///
/// # Errors
///
/// [`CoreError::NoSamples`] when the network holds no data;
/// [`CoreError::InvalidAccuracy`] from the sampling-target solver.
pub(crate) fn sampling_rate<E, N: Network>(
    broker: &DataBroker<E, N>,
    accuracy: Accuracy,
) -> Result<f64, CoreError> {
    let k = broker.network.node_count();
    let n = broker.network.total_data_size();
    if n == 0 {
        return Err(CoreError::NoSamples);
    }
    required_probability_clamped(sampling_target(accuracy)?, k, n)
}

/// Stage 2 — Collect: top the network up to `target_probability`
/// (infallible: a short delivery simply leaves the achieved probability
/// below target, which later stages re-check).
///
/// A round that actually collects reports its
/// [`RoundDelta`](prc_net::network::RoundDelta) — the exact set of
/// changed nodes — and the answer cache is delta-filtered by it: cached
/// answers whose range touches a changed node's value span are evicted,
/// while answers over untouched ranges survive the round (eviction
/// consumes no randomness and no budget — it only forces a fresh pipeline
/// run on the next request). The query index is left alone here:
/// `prepare_index` rebuilds it once the station's revision has moved.
#[inline]
pub(crate) fn collect<E, N: Network>(broker: &mut DataBroker<E, N>, target_probability: f64) {
    if let Some(delta) = broker.network.top_up_delta(target_probability) {
        broker.counters.collection_rounds += 1;
        broker.counters.samples_collected += delta.delivered as u64;
        evict_touched_answers(broker, &delta.changed);
    }
}

/// Evicts cached answers whose query range intersects a changed node's
/// value span, so only answers the round could not have affected keep
/// being re-served. A changed node without entries has no known span and
/// is treated as touching everything (conservative full clear).
fn evict_touched_answers<E, N: Network>(broker: &mut DataBroker<E, N>, changed: &[NodeId]) {
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

/// Stage 3 — Reserve: plan the perturbation and place a hold for its
/// effective `ε′` on the accountant, if one is installed. A demand's plan
/// solves problem (3); a fixed-ε request's plan is the degenerate one its
/// `ε` and the achieved probability determine.
///
/// The hold is two-phase: [`settle`] commits it after a successful
/// release, [`abort`] rolls it back if a later stage fails, so a failed
/// answer spends no ε.
///
/// # Errors
///
/// [`CoreError::InfeasibleAccuracy`] when even a full top-up cannot meet
/// a demand; [`CoreError::NoSamples`] on an empty station;
/// [`CoreError::Dp`] from amplification or when the hold would overdraw
/// the budget.
#[inline]
pub(crate) fn reserve<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    request: &Request,
) -> Result<(PerturbationPlan, Option<Reservation>), CoreError> {
    let plan = match *request {
        Request::Demand(demand) => plan_with_retry(broker, demand.accuracy)?,
        Request::Fixed { epsilon, .. } => fixed_plan(broker, epsilon)?,
    };
    let reservation = match &mut broker.accountant {
        Some(accountant) => Some(accountant.reserve(plan.effective_epsilon)?),
        None => None,
    };
    Ok((plan, reservation))
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

/// Stage 4 — Estimate: answer the range count from the station's current
/// sample, through the epoch's query index when one is available
/// (bit-identical to the direct scan by the
/// [`crate::estimator::QueryIndex`] contract). The result is the
/// pre-noise sample estimate. `accrues` is the number of queries this
/// estimate adds to the index policy's accrual (0 for a batch member:
/// its driver accrued the whole tier).
#[inline]
pub(crate) fn estimate<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    query: RangeQuery,
    accrues: u64,
) -> f64 {
    prepare_index(broker, accrues);
    match &broker.index {
        Some((_, index)) => {
            broker.counters.indexed_estimates += 1;
            index.estimate(query)
        }
        None => broker.estimator.estimate(broker.network.station(), query),
    }
}

/// Stage 5 — Perturb: draw the Laplace noise and assemble the answer
/// against the station's current shape.
///
/// The only stage that consumes broker randomness, so the noise stream
/// follows the order in which requests reach it.
///
/// # Errors
///
/// [`CoreError::NoSamples`] on an empty station; [`CoreError::Dp`] when
/// the plan's noise scale is not a positive finite number.
#[inline]
pub(crate) fn perturb<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    request: &Request,
    plan: PerturbationPlan,
    sample_estimate: f64,
) -> Result<PrivateAnswer, CoreError> {
    let shape = NetworkShape::from_station(broker.network.station())?;
    let noise = draw_centered(plan.noise_scale, &mut broker.rng)?;
    let variance_bound = broker
        .estimator
        .variance_bound(shape.k, shape.n, plan.probability)
        + plan.noise_variance();
    broker.counters.answers_released += 1;
    Ok(PrivateAnswer {
        query: request.query(),
        accuracy: request.accuracy(),
        value: sample_estimate + noise,
        sample_estimate,
        plan,
        variance_bound,
    })
}

/// Stage 6 — Settle: commit the budget hold (`None`: unbudgeted, or a
/// cached hit), store the answer for reuse, and (priced requests) record
/// the sale in the engine's ledger. Infallible: everything that can
/// refuse the transaction already has.
#[inline]
pub(crate) fn settle<E, N: Network>(
    broker: &mut DataBroker<E, N>,
    answer: PrivateAnswer,
    reservation: Option<Reservation>,
    quote: Option<Quote>,
    buyer: Option<&str>,
) -> PricedAnswer {
    if let Some(hold) = reservation {
        if let Some(accountant) = &mut broker.accountant {
            accountant.commit(hold);
        }
    }
    cache_store(broker, &answer);
    let (price, settlement) = match (quote, buyer, &mut broker.pricing) {
        (Some(quote), Some(buyer), Some(engine)) => {
            let query = answer.query;
            let sequence = engine.settle(Settlement {
                buyer,
                range: [query.lower().to_bits(), query.upper().to_bits()],
                demand: quote.demand,
                price: quote.price,
                plan: answer.plan.summary(),
            });
            broker.counters.settlements += 1;
            (Some(quote.price), Some(sequence))
        }
        (Some(quote), ..) => (Some(quote.price), None),
        _ => (None, None),
    };
    PricedAnswer {
        answer,
        price,
        settlement,
    }
}

/// Rolls a failed request's budget hold back, restoring the reserved
/// `ε′` to the accountant.
pub(crate) fn abort<E, N>(broker: &mut DataBroker<E, N>, reservation: Option<Reservation>) {
    if let Some(hold) = reservation {
        if let Some(accountant) = &mut broker.accountant {
            accountant.rollback(hold);
            broker.counters.budget_rollbacks += 1;
        }
    }
}

/// Solves problem (3), topping up once more if the optimizer reports the
/// demand infeasible at the achieved probability.
fn plan_with_retry<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    accuracy: Accuracy,
) -> Result<PerturbationPlan, CoreError> {
    match plan(broker, accuracy) {
        Ok(plan) => Ok(plan),
        Err(CoreError::InfeasibleAccuracy {
            required_probability,
            ..
        }) => {
            collect(broker, (required_probability * 1.05).min(1.0));
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
/// answer `upcoming_queries` estimates. After this returns, a filled
/// slot is safe to answer from.
///
/// In order:
///
/// 1. a live index built at the station's current revision is kept
///    as-is (only the revision is read);
/// 2. a live index whose revision moved is rebuilt from scratch; if the
///    estimator declines (e.g. the station lost its uniform rate), the
///    slot is emptied and falls through to 3;
/// 3. otherwise the [`IndexPolicy`] decides whether to build now: the
///    adaptive policy accrues the scanning cost of `upcoming_queries`
///    into its ski-rental meter and builds once scanning has foregone a
///    build's worth of savings.
#[inline]
pub(crate) fn prepare_index<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    upcoming_queries: u64,
) {
    let station = broker.network.station();
    let revision = station.revision();

    // 1 + 2: a live index is kept while the revision stands, rebuilt
    // once it moves.
    if let Some((built, _)) = &broker.index {
        if *built == revision {
            return;
        }
        if let Some(index) = broker.estimator.build_index(station) {
            broker.counters.index_builds += 1;
            broker.index = Some((revision, index));
            return;
        }
        broker.index = None;
    }

    // 3: build-from-scratch decision (the slot is empty here).
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
        return;
    }
    if let Some(index) = broker.estimator.build_index(station) {
        broker.counters.index_builds += 1;
        broker.build_accrual = crate::estimator::BuildAccrual::default();
        broker.index = Some((revision, index));
    }
}

/// Looks a request up in the answer cache, if caching is enabled, and
/// counts a hit as a released answer. Candidates are the answers over the
/// same range, matched per kind:
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
        broker.counters.answers_released += 1;
    } else {
        broker.counters.cache_misses += 1;
    }
    hit
}

/// Stores a freshly released answer for future reuse.
fn cache_store<E, N>(broker: &mut DataBroker<E, N>, answer: &PrivateAnswer) {
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
