//! The staged query pipeline every broker entry point runs through.
//!
//! One request, six stages:
//!
//! ```text
//!  Admit ──► Collect ──► Reserve ──► Estimate ──► Perturb ──► Settle
//!  quote,    sample      plan +      index or     Laplace     commit,
//!  cache     top-up      budget      scan         noise,      ledger
//!  lookup                hold                     then the
//!    │                      │                     cache store
//!    │                      │                        │
//!    └─ cached hit ─────────┼────────────────────────┼──────► Settle
//!                           └─ any later failure ────┴──────► abort
//!                                                             (rollback)
//! ```
//!
//! The stage order differs from a naive reading in one deliberate way:
//! **Collect runs before Reserve**. The effective budget `ε′` of an
//! answer depends on the sampling probability actually achieved
//! (privacy amplification, Theorem 3.2), so the perturbation plan — and
//! therefore the amount to hold — can only be computed after the top-up.
//! Holding a provisional amount before collecting would either over-hold
//! (rejecting affordable queries) or change the committed arithmetic
//! (breaking bit-compatibility with the pre-pipeline broker).
//!
//! Budgeting is two-phase: Reserve places a [`prc_dp::budget::Reservation`]
//! hold, Settle commits it, and any failure between the two rolls it
//! back through the stages' `abort`, so a failed noise draw spends no ε.
//!
//! The answer cache is read once per request, by the driver's lookup,
//! and written once per fresh answer, by the fresh half right after
//! Perturb; Settle does not touch it, so a cache hit probes the map once
//! and writes nothing to it.
//!
//! Pricing rides the same stages: a sale ([`DataBroker::answer_as`])
//! quotes the demand at Admit through [`DataBroker::quote`] — refusing
//! invalid or arbitrageable demands before any budget or sample moves —
//! and settles the sale (buyer, range, price, the plan's
//! [`crate::optimizer::PlanSummary`]) into the engine's ledger at Settle,
//! as numbers: a sale formats no text and, after its buyer's first,
//! copies no string.
//!
//! There is one request path. A single request runs `drive`; a batch
//! ([`DataBroker::answer_batch`]) collects once per rate tier and then
//! sends each member through the same cache lookup and the same fresh
//! half, `release`. The six stage functions, `prepare_index`,
//! `cache_store` and `release` are `#[inline]`: a batch runs them once
//! per member, and without the hints those calls cost `bench_e2e`'s
//! `batch` workload about a seventh of its throughput (release build,
//! 2 vCPUs).

pub(crate) mod batch;
pub(crate) mod stages;

use prc_net::network::Network;
use prc_pricing::engine::Quote;

use crate::broker::{DataBroker, PrivateAnswer};
use crate::error::CoreError;
use crate::estimator::RangeCountEstimator;

use stages::{
    abort, admit, cache_lookup, cache_store, collect, estimate, perturb, reserve, sampling_rate,
    settle, Request,
};

/// A released answer plus the commercial half of its transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedAnswer {
    /// The released private answer.
    pub answer: PrivateAnswer,
    /// The price the engine quoted for the demand at Admit (priced
    /// requests only).
    pub price: Option<f64>,
    /// The ledger sequence number of the settled sale (priced requests
    /// with an installed engine only).
    pub settlement: Option<u64>,
}

/// The single-request driver behind [`DataBroker::answer`],
/// [`DataBroker::answer_as`] and [`DataBroker::answer_with_epsilon`]:
/// Admit, then either Settle a cached answer or Collect and `release` a
/// fresh one. `buyer` prices the request when an engine is installed.
///
/// # Errors
///
/// Any stage's error; on a failure after Reserve the budget hold is
/// rolled back before the error propagates.
pub(crate) fn drive<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    buyer: Option<&str>,
    request: Request,
) -> Result<PricedAnswer, CoreError> {
    let quote = admit(broker, &request, buyer)?;
    if let Some(answer) = cache_lookup(broker, &request) {
        return Ok(settle(broker, answer, None, quote, buyer));
    }
    let target_probability = match request {
        Request::Demand(demand) => sampling_rate(broker, demand.accuracy)?,
        // An empty station fails later, at Reserve, after Collect.
        Request::Fixed { probability, .. } => probability,
    };
    collect(broker, target_probability);
    release(broker, request, quote, buyer, 1)
}

/// The fresh half of every request, single or batched: Reserve →
/// Estimate → Perturb, the cache store, then Settle, rolling the hold
/// back if the release fails. `accrues` is the number of queries
/// Estimate adds to the index policy's accrual: 1 for a single request,
/// 0 for a batch member whose tier the batch driver already accrued.
///
/// # Errors
///
/// Reserve's and Perturb's errors; a Perturb failure rolls the hold back
/// first.
#[inline]
pub(crate) fn release<E: RangeCountEstimator, N: Network>(
    broker: &mut DataBroker<E, N>,
    request: Request,
    quote: Option<Quote>,
    buyer: Option<&str>,
    accrues: u64,
) -> Result<PricedAnswer, CoreError> {
    let (plan, reservation) = reserve(broker, &request)?;
    let sample_estimate = estimate(broker, request.query(), accrues);
    match perturb(broker, &request, plan, sample_estimate) {
        Ok(answer) => {
            cache_store(broker, &answer);
            Ok(settle(broker, answer, reservation, quote, buyer))
        }
        Err(e) => {
            abort(broker, reservation);
            Err(e)
        }
    }
}
