//! # prc-pricing — arbitrage-avoiding pricing for traded aggregates
//!
//! Section IV of *"Trading Private Range Counting over Big IoT Data"*
//! (Cai & He, ICDCS 2019): a data broker sells `(α, δ)`-approximate
//! answers, and a malicious consumer may try to **arbitrage** — buy `m`
//! cheap high-variance answers to the same query and average them
//! (Eq. 4), reaching the variance of an expensive answer at a fraction of
//! its price. A pricing function `π(α, δ)` is *arbitrage-avoiding*
//! (Definition 2.3) when no such bundle is ever cheaper.
//!
//! This crate provides:
//!
//! * [`variance`] — the variance model `V(α, δ)` that links accuracy
//!   demands to answer variance (Lemma 4.1 shows an arbitrage-free price
//!   must factor through `V`);
//! * [`functions`] — a family of pricing functions: the canonical
//!   [`functions::InverseVariancePricing`] (`π = c/V`, the unique shape
//!   satisfying Theorem 4.2 as literally stated), the broader
//!   operationally-safe [`functions::SqrtPrecisionPricing`] and
//!   [`functions::LogPrecisionPricing`] families, and the deliberately
//!   broken [`functions::LinearDeltaPricing`] used to validate the attack
//!   machinery;
//! * [`theorem`] — a grid checker for the three properties of
//!   Theorem 4.2;
//! * [`arbitrage`] — an attack simulator implementing Definition 2.3
//!   operationally (uniform and mixed bundles, equal-weight averaging);
//! * [`reuse`] — the posted-curve guard deciding when a cached answer may
//!   be re-served without undercutting the price curve;
//! * [`ledger`] — trade bookkeeping for the broker: fixed-size sale
//!   records carrying each released answer's [`ledger::PlanSummary`];
//! * [`engine`] — the [`engine::PricingEngine`] seam the broker's query
//!   pipeline drives the whole transaction through (quote → release →
//!   settle);
//! * [`history`] — [`history::HistoryAwarePricing`], an engine charging
//!   each buyer the marginal price of the precision they already hold.
//!
//! ## Quick start
//!
//! ```
//! use prc_pricing::functions::{InverseVariancePricing, PricingFunction};
//! use prc_pricing::variance::{ChebyshevVariance, VarianceModel};
//!
//! let model = ChebyshevVariance::new(17_568);
//! let pricing = InverseVariancePricing::new(1e9, model);
//! // Stricter accuracy costs more.
//! assert!(pricing.price(0.01, 0.9) > pricing.price(0.1, 0.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrage;
pub mod engine;
pub mod error;
pub mod functions;
pub mod history;
pub mod ledger;
pub mod reuse;
pub mod theorem;
pub mod variance;

pub use arbitrage::{find_arbitrage, ArbitrageAttack, AttackConfig};
pub use engine::{PostedPriceEngine, PricingEngine, Quote, Settlement};
pub use error::PricingError;
pub use functions::{
    InverseVariancePricing, LinearDeltaPricing, LogPrecisionPricing, PricingFunction,
    SqrtPrecisionPricing,
};
pub use history::{HistoryAwarePricing, PrecisionPricing};
pub use ledger::{PlanSummary, TradeLedger};
pub use reuse::{Demand, PostedPriceReuse, ReuseGuard};
pub use variance::{ChebyshevVariance, VarianceModel};
