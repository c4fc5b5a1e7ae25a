//! The batched driver: the same six stages as [`crate::pipeline`], run
//! on a per-tier schedule instead of per request.
//!
//! The batch is partitioned by each request's *required sampling rate*;
//! rates are visited in ascending order, so every tier's queries are
//! evaluated right after the single [`Collect`] round that tops the
//! network up to that tier (lower tiers are answered at their own,
//! cheaper rate — exactly what a sorted sequence of single sessions
//! would do). Within a tier, admission, planning, and budget holds run
//! sequentially in input order; the [`Estimate`] stage fans out over
//! the shared [`prc_runtime::Runtime`] pool against the shared
//! base-station sample when the tier declares enough boundary searches
//! to pay for the dispatch, and runs on the caller otherwise; the
//! [`Perturb`] stage then runs sequentially in input order, keeping the
//! whole batch deterministic in the broker's seed regardless of thread
//! scheduling. Each member's hold is committed at its [`Settle`] or
//! rolled back if its release fails.

use std::collections::BTreeMap;

use prc_dp::budget::Reservation;
use prc_net::network::Network;
use prc_pricing::reuse::Demand;
use prc_runtime::{CutoffPolicy, Runtime};

use crate::accuracy::required_probability_clamped;
use crate::broker::{
    sampling_target, BatchReport, BatchStats, DataBroker, IndexState, PrivateAnswer,
};
use crate::error::CoreError;
use crate::estimator::RangeCountEstimator;
use crate::optimizer::{NetworkShape, PerturbationPlan};
use crate::pipeline::stages::{
    abort, cache_lookup, plan_with_retry, prepare_index, reserve_effective, Collect, Perturb,
    Request, Settle,
};
use crate::pipeline::QuerySession;
use crate::query::QueryRequest;

/// A tier's Estimate stage fans out over the pool only when it declares
/// at least this many boundary searches: one per query through a ready
/// index, one per data-bearing node per query on the scan. Smaller tiers
/// run on the caller, where they finish before a dispatch would. Set
/// from the measured crossover in DESIGN.md §14.
pub(crate) const ESTIMATE_MIN_SEARCHES: usize = 4096;

/// The Estimate stage's cutoff policy, with `work` in boundary searches.
const ESTIMATE_CUTOFF: CutoffPolicy = CutoffPolicy::min_work(ESTIMATE_MIN_SEARCHES);

/// One tier member that survived admission and reservation, awaiting its
/// estimate and release.
struct Pending {
    slot: usize,
    plan: PerturbationPlan,
    reservation: Option<Reservation>,
}

/// Runs a batch of requests through the staged pipeline.
///
/// # Panics
///
/// Only to propagate an estimate worker's panic, re-raised through the
/// runtime's single panic path ([`Runtime::map_chunked`]), or if the
/// tier scheduler violates its own invariant and leaves a member's slot
/// unfilled.
pub fn run_batch<E, N>(broker: &mut DataBroker<E, N>, requests: &[QueryRequest]) -> BatchReport
where
    E: RangeCountEstimator + Sync,
    N: Network,
{
    let meter_before = broker.network.meter().snapshot();
    let counters_before = broker.counters;
    let mut fan_out_threads: u64 = 0;
    let mut answers: Vec<Option<Result<PrivateAnswer, CoreError>>> =
        requests.iter().map(|_| None).collect();

    let k = broker.network.node_count();
    let n = broker.network.total_data_size();
    let mut tiers: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    if n == 0 {
        answers.fill(Some(Err(CoreError::NoSamples)));
    } else {
        // Admit (batch half): partition by required sampling rate.
        for (i, request) in requests.iter().enumerate() {
            match sampling_target(request.accuracy)
                .and_then(|internal| required_probability_clamped(internal, k, n))
            {
                Ok(p) => tiers.entry(p.to_bits()).or_default().push(i),
                Err(e) => answers[i] = Some(Err(e)),
            }
        }
    }
    let rate_tiers = tiers.len() as u64;

    for (p_bits, members) in tiers {
        // Collect: one round per tier (ascending rates, so each round is
        // an incremental top-up).
        Collect {
            target_probability: f64::from_bits(p_bits),
        }
        .run(broker);

        // Admit (cache half) + Reserve: sequential, in input order,
        // because they mutate broker state.
        let mut pending: Vec<Pending> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();
        for &i in &members {
            let request = &requests[i];
            if let Some(hit) = cache_lookup(broker, &Request::Demand(*request)) {
                broker.counters.answers_released += 1;
                answers[i] = Some(Ok(hit));
                continue;
            }
            // A duplicate of an earlier in-flight request will be
            // servable from the cache once the tier releases; defer it
            // instead of planning (and paying for) it twice.
            if let Some(guard) = broker.reuse_guard.as_deref() {
                let requested = Demand::new(request.accuracy.alpha(), request.accuracy.delta());
                let duplicate = pending.iter().any(|member| {
                    let prior = &requests[member.slot];
                    prior.query == request.query
                        && guard.allows_reuse(
                            requested,
                            Demand::new(prior.accuracy.alpha(), prior.accuracy.delta()),
                        )
                });
                if duplicate {
                    deferred.push(i);
                    continue;
                }
            }
            let plan = match plan_with_retry(broker, request.accuracy) {
                Ok(plan) => plan,
                Err(e) => {
                    answers[i] = Some(Err(e));
                    continue;
                }
            };
            let reservation = match reserve_effective(broker, plan.effective_epsilon) {
                Ok(reservation) => reservation,
                Err(e) => {
                    answers[i] = Some(Err(e));
                    continue;
                }
            };
            pending.push(Pending {
                slot: i,
                plan,
                reservation,
            });
        }
        if pending.is_empty() && deferred.is_empty() {
            continue;
        }

        if !pending.is_empty() {
            // Estimate: fan out over the shared sample once the tier's
            // searches clear the cutoff. The station is immutable for the
            // rest of the tier, so worker threads share it; chunked
            // spawning keeps the result order (and therefore the released
            // answers) deterministic. With a query index ready for this
            // epoch, every worker answers through it — same bits as the
            // scan, `O(log S)` per query instead of `O(k log s)`.
            prepare_index(broker, pending.len() as u64);
            let station = broker.network.station();
            let estimator = &broker.estimator;
            let index = match &broker.index {
                IndexState::Ready(_, index) => Some(index.as_ref()),
                _ => None,
            };
            let searches = match index {
                Some(_) => pending.len(),
                None => pending.len().saturating_mul(station.data_bearing_count()),
            };
            let runtime = Runtime::global();
            let lanes = if ESTIMATE_CUTOFF.is_sequential(searches) {
                1
            } else {
                runtime.lanes_for(pending.len())
            };
            fan_out_threads = fan_out_threads.max(lanes as u64);
            // Chunk results flatten in submission order, so the released
            // answers are independent of worker count and scheduling.
            let estimates: Vec<f64> = runtime
                .map_chunked(&pending, searches, ESTIMATE_CUTOFF, |chunk| match index {
                    Some(index) => {
                        let queries: Vec<_> = chunk
                            .items
                            .iter()
                            .map(|member| requests[member.slot].query)
                            .collect();
                        index.estimate_batch(&queries).estimates
                    }
                    None => chunk
                        .items
                        .iter()
                        .map(|member| estimator.estimate(station, requests[member.slot].query))
                        .collect(),
                })
                .into_iter()
                .flatten()
                .collect();
            if index.is_some() {
                broker.counters.indexed_estimates += pending.len() as u64;
            }

            // Perturb + Settle: sequential in input order so the broker's
            // noise stream is independent of the fan-out. Each member's
            // hold commits with its release, or rolls back on failure.
            let shape = NetworkShape::from_station(broker.network.station());
            for (member, sample_estimate) in pending.into_iter().zip(estimates) {
                let result = shape.clone().and_then(|shape| {
                    Perturb {
                        query: requests[member.slot].query,
                        accuracy: Some(requests[member.slot].accuracy),
                        plan: member.plan,
                        sample_estimate,
                    }
                    .run_with_shape(broker, shape)
                });
                answers[member.slot] = Some(match result {
                    Ok(answer) => {
                        let settled = Settle {
                            answer,
                            reservation: member.reservation,
                            quote: None,
                            buyer: None,
                        }
                        .run(broker);
                        Ok(settled.answer)
                    }
                    Err(e) => {
                        abort(broker, member.reservation);
                        Err(e)
                    }
                });
            }
        }

        // Deferred duplicates now find their progenitor in the cache
        // (or, if it failed, re-run the pipeline and fail the same way).
        for i in deferred {
            let result = QuerySession::new(broker)
                .run(&requests[i])
                .map(|priced| priced.answer);
            answers[i] = Some(result);
        }
    }

    let meter_after = broker.network.meter().snapshot();
    let counters_after = broker.counters;
    BatchReport {
        answers: answers
            .into_iter()
            // prc-lint: allow(P002, reason = "loud invariant: every tier fills its members' slots; a silent Err would mask a scheduler bug")
            .map(|slot| slot.expect("every request resolved"))
            .collect(),
        stats: BatchStats {
            requests: requests.len() as u64,
            rate_tiers,
            collection_rounds: counters_after.collection_rounds - counters_before.collection_rounds,
            samples_collected: counters_after.samples_collected - counters_before.samples_collected,
            cache_hits: counters_after.cache_hits - counters_before.cache_hits,
            chargeable_messages: meter_after.chargeable_messages()
                - meter_before.chargeable_messages(),
            fan_out_threads,
            index_builds: counters_after.index_builds - counters_before.index_builds,
            indexed_estimates: counters_after.indexed_estimates - counters_before.indexed_estimates,
            plan_cache_hits: counters_after.plan_cache_hits - counters_before.plan_cache_hits,
        },
    }
}
