//! # prc-core — differentially private approximate range counting
//!
//! The primary contribution of *"Trading Private Range Counting over Big
//! IoT Data"* (Cai & He, ICDCS 2019), implemented end to end:
//!
//! 1. **Sampling-based (α, δ)-range counting** (§III-A): the
//!    [`estimator::RankCounting`] estimator uses each sampled element's
//!    local rank to estimate `γ(l, u, D)` without bias and with variance
//!    at most `8k/p²` (Theorems 3.1–3.2) — independent of the queried
//!    range width, unlike the [`estimator::BasicCounting`] baseline whose
//!    variance grows to `|D|(1−p)/p`. Theorem 3.3's sampling-probability
//!    calculus lives in [`accuracy`].
//! 2. **Optimal perturbation** (§III-B): [`optimizer`] solves the paper's
//!    optimization problem (3) — given a customer's accuracy demand
//!    `(α, δ)` and the sample rate `p`, it searches intermediate
//!    accuracies `(α′, δ′)` for the Laplace budget `ε` whose amplified
//!    effective budget `ε′ = ln(1 + p(e^ε − 1))` is smallest while the
//!    noisy answer still meets `(α, δ)`.
//! 3. **The broker pipeline** (§II-A): every [`broker::DataBroker`]
//!    entry point drives the staged [`pipeline`] session — Admit (price
//!    quote, cache), Collect (sample top-up), Reserve (plan + two-phase
//!    budget hold), Estimate, Perturb, Settle (commit, cache, ledger) —
//!    and returns a [`broker::PrivateAnswer`]; [`consumer`] provides the
//!    client side, including the averaging combinator adversaries use in
//!    arbitrage attacks (Eq. 4).
//!
//! Pricing lives in the sibling crate `prc-pricing` and is wired into
//! the broker through its [`prc_pricing::engine::PricingEngine`] seam:
//! [`broker::DataBroker::answer_as`] quotes at admission and settles
//! every released answer into the engine's ledger.
//!
//! ## Quick start
//!
//! ```
//! use prc_core::broker::DataBroker;
//! use prc_core::query::{Accuracy, QueryRequest, RangeQuery};
//! use prc_net::network::FlatNetwork;
//!
//! # fn main() -> Result<(), prc_core::CoreError> {
//! // 4 nodes, 1000 values each.
//! let partitions: Vec<Vec<f64>> = (0..4)
//!     .map(|i| (0..1000).map(|j| (i * 1000 + j) as f64).collect())
//!     .collect();
//! let network = FlatNetwork::from_partitions(partitions, 7);
//! let mut broker = DataBroker::new(network, 7);
//!
//! let request = QueryRequest::new(
//!     RangeQuery::new(500.0, 2500.0)?,
//!     Accuracy::new(0.05, 0.9)?,
//! );
//! let answer = broker.answer(&request)?;
//! assert!(answer.value.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod audit;
pub mod broker;
pub mod consumer;
pub mod error;
pub mod estimator;
pub mod exact;
pub mod histogram;
pub mod monitor;
pub mod optimizer;
pub mod pipeline;
pub mod quantile;
pub mod query;

pub use broker::{DataBroker, PrivateAnswer};
pub use error::CoreError;
pub use estimator::{BasicCounting, QueryIndex, RangeCountEstimator, RankCounting, RankIndex};
pub use optimizer::{OptimizerConfig, PerturbationPlan, PlanSummary, SensitivityPolicy};
pub use pipeline::{PricedAnswer, QuerySession};
pub use query::{Accuracy, QueryRequest, RangeQuery};
