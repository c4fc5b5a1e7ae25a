//! The batched driver: one Collect per rate tier, then every member
//! through the single-request stages.
//!
//! The batch is partitioned by each request's *required sampling rate*;
//! rates are visited in ascending order, ties in input order, so every
//! tier is answered right after the single [`Collect`] round that tops
//! the network up to that tier (lower tiers are answered at their own,
//! cheaper rate). A tier accrues its size into the index policy once;
//! each member then runs the same answer-cache lookup and the same fresh
//! half ([`release`]) as a single request, so a batch is its answers:
//! the same bits a sorted sequence of single requests releases.

use prc_net::network::Network;

use crate::broker::{BatchReport, BatchStats, DataBroker, PrivateAnswer};
use crate::error::CoreError;
use crate::estimator::RangeCountEstimator;
use crate::pipeline::release;
use crate::pipeline::stages::{cache_lookup, prepare_index, sampling_rate, Collect, Request};
use crate::query::QueryRequest;

/// Runs a batch of requests through the staged pipeline.
pub(crate) fn run_batch<E, N>(
    broker: &mut DataBroker<E, N>,
    requests: &[QueryRequest],
) -> BatchReport
where
    E: RangeCountEstimator,
    N: Network,
{
    let meter_before = broker.network.meter().snapshot();
    let counters_before = broker.counters;

    // Admit (batch half): each request's rate; a request without one
    // resolves to its error here.
    let mut resolved: Vec<(usize, Result<PrivateAnswer, CoreError>)> =
        Vec::with_capacity(requests.len());
    let mut order: Vec<(u64, usize)> = Vec::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        match sampling_rate(broker, request.accuracy) {
            Ok(p) => order.push((p.to_bits(), i)),
            Err(e) => resolved.push((i, Err(e))),
        }
    }
    // Ascending rates (positive floats order like their bits), ties in
    // input order.
    order.sort_unstable();

    let mut rate_tiers = 0;
    let mut rest = order.as_slice();
    while let Some(&(p_bits, _)) = rest.first() {
        let (tier, tail) = rest.split_at(rest.partition_point(|&(bits, _)| bits == p_bits));
        rest = tail;
        rate_tiers += 1;
        Collect {
            target_probability: f64::from_bits(p_bits),
        }
        .run(broker);
        prepare_index(broker, tier.len() as u64);
        for &(_, i) in tier {
            let request = Request::Demand(requests[i]);
            let result = match cache_lookup(broker, &request) {
                Some(answer) => Ok(answer),
                None => release(broker, request, None, None, 0).map(|priced| priced.answer),
            };
            resolved.push((i, result));
        }
    }
    resolved.sort_unstable_by_key(|&(i, _)| i);

    let meter_after = broker.network.meter().snapshot();
    let counters_after = broker.counters;
    BatchReport {
        answers: resolved.into_iter().map(|(_, result)| result).collect(),
        stats: BatchStats {
            requests: requests.len() as u64,
            rate_tiers,
            collection_rounds: counters_after.collection_rounds - counters_before.collection_rounds,
            samples_collected: counters_after.samples_collected - counters_before.samples_collected,
            cache_hits: counters_after.cache_hits - counters_before.cache_hits,
            chargeable_messages: meter_after.chargeable_messages()
                - meter_before.chargeable_messages(),
            index_builds: counters_after.index_builds - counters_before.index_builds,
            indexed_estimates: counters_after.indexed_estimates - counters_before.indexed_estimates,
            plan_cache_hits: counters_after.plan_cache_hits - counters_before.plan_cache_hits,
        },
    }
}
