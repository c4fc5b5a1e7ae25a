//! # prc — trading private range counting over big IoT data
//!
//! A from-scratch Rust reproduction of *"Trading Private Range Counting
//! over Big IoT Data"* (Zhipeng Cai and Zaobo He, ICDCS 2019): a data
//! marketplace that sells approximate, differentially private range
//! counts over distributed IoT data, priced to rule out arbitrage.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`data`] | `prc-data` | CityPulse-like pollution datasets, CSV I/O, partitioning |
//! | [`net`] | `prc-net` | sensor nodes, base station, one network type in flat/tree topologies, cost metering, failure injection |
//! | [`dp`] | `prc-dp` | Laplace release, exponential mechanism, budgets, amplification by sampling |
//! | [`core`] | `prc-core` | RankCounting estimator, (α, δ) calculus, perturbation optimizer, broker/consumer |
//! | [`pricing`] | `prc-pricing` | variance models, arbitrage-avoiding pricing, Theorem 4.2 checker, attack simulator |
//!
//! ## End-to-end example
//!
//! ```
//! use prc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Synthesize the CityPulse-like dataset and distribute it over 50 nodes.
//! let dataset = CityPulseGenerator::new(42).record_count(2_000).generate();
//! let network = FlatNetwork::from_dataset(
//!     &dataset,
//!     AirQualityIndex::Ozone,
//!     50,
//!     PartitionStrategy::RoundRobin,
//!     42,
//! );
//!
//! // 2. A broker sells (α, δ)-range counts at the canonical
//! //    arbitrage-avoiding price c/V(α, δ).
//! let mut broker = DataBroker::new(network, 42);
//! let model = ChebyshevVariance::new(dataset.len());
//! broker.enable_pricing(Box::new(PostedPriceEngine::new(
//!     InverseVariancePricing::new(1e7, model),
//!     model,
//! )));
//!
//! // 3. One sale: the demand is priced, then the private answer released.
//! let request = QueryRequest::new(RangeQuery::new(80.0, 120.0)?, Accuracy::new(0.08, 0.7)?);
//! let sale = broker.answer_as("analyst", &request)?;
//! let price = sale.price.ok_or("the engine prices every sale")?;
//! println!("answer {:.1} for {price:.2} credits", sale.answer.value);
//! assert!(sale.answer.value.is_finite() && price > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use prc_core as core;
pub use prc_data as data;
pub use prc_dp as dp;
pub use prc_net as net;
pub use prc_pricing as pricing;
pub use prc_sketch as sketch;

pub mod cli;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use prc_core::audit::{audit_answer, verify_answer};
    pub use prc_core::broker::{BatchReport, DataBroker, PrivateAnswer, StageCounters};
    pub use prc_core::consumer::AnswerBundle;
    pub use prc_core::estimator::{
        BasicCounting, QueryIndex, RangeCountEstimator, RankCounting, RankIndex,
    };
    pub use prc_core::histogram::{private_argmax_bucket, private_histogram, PrivateHistogram};
    pub use prc_core::optimizer::{
        optimize, NetworkShape, OptimizerConfig, PerturbationPlan, PlanSummary, SensitivityPolicy,
    };
    pub use prc_core::pipeline::PricedAnswer;
    pub use prc_core::quantile::{private_quantile, private_quantiles, QuantileConfig};
    pub use prc_core::query::{Accuracy, QueryRequest, RangeQuery};
    pub use prc_core::CoreError;
    pub use prc_data::generator::CityPulseGenerator;
    pub use prc_data::partition::PartitionStrategy;
    pub use prc_data::record::{AirQualityIndex, Dataset, PollutionRecord};
    pub use prc_dp::amplification::amplify;
    pub use prc_dp::budget::{BudgetAccountant, Epsilon};
    pub use prc_dp::composition::ApproxDp;
    pub use prc_dp::laplace::Laplace;
    pub use prc_dp::mechanism::Sensitivity;
    pub use prc_dp::renyi::RdpAccountant;
    pub use prc_net::energy::{EnergyModel, EnergyReport};
    pub use prc_net::failure::{FailurePlan, LossMode};
    pub use prc_net::network::{CostMeter, FlatNetwork, Network};
    pub use prc_net::tree::TreeNetwork;
    pub use prc_pricing::arbitrage::{certify, find_arbitrage, AttackConfig};
    pub use prc_pricing::engine::{PostedPriceEngine, PricingEngine, Quote, Settlement};
    pub use prc_pricing::functions::{
        InverseVariancePricing, LinearDeltaPricing, LogPrecisionPricing, PricingFunction,
        SqrtPrecisionPricing,
    };
    pub use prc_pricing::history::{HistoryAwarePricing, PrecisionPricing};
    pub use prc_pricing::ledger::TradeLedger;
    pub use prc_pricing::reuse::{Demand, PostedPriceReuse, ReuseGuard};
    pub use prc_pricing::variance::{ChebyshevVariance, VarianceModel};
    pub use prc_sketch::distributed::{Quantizer, SketchStation};
    pub use prc_sketch::{CountBounds, GkSummary, QDigest};
}
