//! The staged query pipeline every broker entry point runs through.
//!
//! One request, one [`QuerySession`], six stages:
//!
//! ```text
//!  Admit ──► Collect ──► Reserve ──► Estimate ──► Perturb ──► Settle
//!  quote     sample      plan +      index or     Laplace     commit,
//!  cache     top-up      budget      scan         noise       cache,
//!  checks                hold                                 ledger
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
//! back through the stages' `abort` — a failed noise draw can no longer
//! leak budget the way the old single-phase `spend` did.
//!
//! Pricing rides the same stages: a priced session
//! ([`QuerySession::for_buyer`]) quotes the demand at Admit through
//! [`DataBroker::quote`] — refusing invalid or arbitrageable demands
//! before any budget or sample moves — and settles the sale (buyer,
//! range, price, the plan's [`crate::optimizer::PlanSummary`]) into the
//! engine's ledger at Settle, as numbers: a sale formats no text and,
//! after its buyer's first, copies no string.

pub mod batch;
pub mod stages;

use prc_net::network::Network;

use crate::broker::{DataBroker, PrivateAnswer};
use crate::error::CoreError;
use crate::estimator::RangeCountEstimator;
use crate::query::QueryRequest;

use stages::{
    abort, Admission, Admit, Collect, Estimate, Perturb, Request, Reserve, Reserved, Settle,
};

/// A released answer plus the commercial half of its transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedAnswer {
    /// The released private answer.
    pub answer: PrivateAnswer,
    /// The price the engine quoted for the demand at Admit (priced
    /// sessions only).
    pub price: Option<f64>,
    /// The ledger sequence number of the settled sale (priced sessions
    /// with an installed engine only).
    pub settlement: Option<u64>,
}

/// One request's pass through the staged pipeline.
///
/// Constructed over a broker (plain, via [`QuerySession::new`], or on
/// behalf of a named buyer via [`QuerySession::for_buyer`]) and consumed
/// by one driver, [`QuerySession::run`]. The fixed-ε experiment hook
/// ([`DataBroker::answer_with_epsilon`]) runs the same driver with a
/// fixed `(ε, p)` request in place of an `(α, δ)` demand. The batch
/// engine ([`batch::run_batch`]) composes the same stages with a
/// per-tier schedule instead of using a session per request.
#[derive(Debug)]
pub struct QuerySession<'b, E, N> {
    broker: &'b mut DataBroker<E, N>,
    buyer: Option<&'b str>,
}

impl<'b, E: RangeCountEstimator, N: Network> QuerySession<'b, E, N> {
    /// An unpriced session: no quote, no settlement.
    pub fn new(broker: &'b mut DataBroker<E, N>) -> Self {
        QuerySession {
            broker,
            buyer: None,
        }
    }

    /// A priced session for `buyer`; requires the broker to have a
    /// pricing engine installed for the quote/settle stages to engage.
    pub fn for_buyer(broker: &'b mut DataBroker<E, N>, buyer: &'b str) -> Self {
        QuerySession {
            broker,
            buyer: Some(buyer),
        }
    }

    /// Drives an `(α, δ)` request through all six stages.
    ///
    /// # Errors
    ///
    /// Any stage's error; on a failure after Reserve the budget hold is
    /// rolled back before the error propagates.
    pub fn run(self, request: &QueryRequest) -> Result<PricedAnswer, CoreError> {
        self.drive(Request::Demand(*request))
    }

    /// The single-request driver behind [`QuerySession::run`] and the
    /// fixed-ε hook: one request of either kind through all six stages.
    ///
    /// # Errors
    ///
    /// Any stage's error; on a failure after Reserve the budget hold is
    /// rolled back before the error propagates.
    pub(crate) fn drive(self, request: Request) -> Result<PricedAnswer, CoreError> {
        let broker = self.broker;
        let admitted = match (Admit {
            request,
            buyer: self.buyer,
        })
        .run(broker)?
        {
            Admission::Cached { answer, quote } => {
                return Ok(Settle {
                    answer,
                    reservation: None,
                    quote,
                    buyer: self.buyer,
                }
                .run(broker))
            }
            Admission::Fresh(admitted) => admitted,
        };
        Collect {
            target_probability: admitted.target_probability,
        }
        .run(broker);
        let Reserved { plan, reservation } = Reserve { request }.run(broker)?;
        let estimated = Estimate {
            query: request.query(),
        }
        .run(broker);
        let perturbed = Perturb {
            query: request.query(),
            accuracy: request.accuracy(),
            plan,
            sample_estimate: estimated.sample_estimate,
        }
        .run(broker);
        match perturbed {
            Ok(answer) => Ok(Settle {
                answer,
                reservation,
                quote: admitted.quote,
                buyer: self.buyer,
            }
            .run(broker)),
            Err(e) => {
                abort(broker, reservation);
                Err(e)
            }
        }
    }
}
