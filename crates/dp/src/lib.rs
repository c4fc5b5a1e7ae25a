//! # prc-dp — differential-privacy substrate
//!
//! Building blocks for the differentially private range-counting pipeline
//! of *"Trading Private Range Counting over Big IoT Data"* (Cai & He,
//! ICDCS 2019):
//!
//! * [`laplace`] — the Laplace distribution, its tail bound
//!   `Pr[|Lap(b)| ≤ t] = 1 − e^(−t/b)` that drives the paper's
//!   perturbation optimizer (§III-B), and [`laplace::draw_centered`], the
//!   one release path: every answer is `γ̂ + Lap(Δγ̂/ε)`;
//! * [`mechanism`] — the validated query [`Sensitivity`] `Δ`;
//! * [`exponential`] — the exponential mechanism, for private selection;
//! * [`budget`] — validated privacy budgets and the [`BudgetAccountant`],
//!   which charges every release by sequential composition against a cap;
//! * [`amplification`] — privacy amplification by sampling (the paper's
//!   Lemma 3.4, after Kasiviswanathan et al.): a mechanism that is
//!   ε-differentially private on a Bernoulli(p) sample of the data is
//!   `ln(1 − p + p·e^ε)`-differentially private on the full data;
//! * [`composition`] and [`renyi`] — `(ε, δ)` session bounds (advanced
//!   composition, Rényi accounting) for comparing accounting rules.
//!
//! ## Quick start
//!
//! ```
//! use prc_dp::budget::Epsilon;
//! use prc_dp::laplace::draw_centered;
//! use prc_dp::mechanism::Sensitivity;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), prc_dp::DpError> {
//! let (epsilon, sensitivity) = (Epsilon::new(1.0)?, Sensitivity::new(1.0)?);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let noisy = 42.0 + draw_centered(sensitivity.value() / epsilon.value(), &mut rng)?;
//! assert!(noisy.is_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amplification;
pub mod budget;
pub mod composition;
pub mod error;
pub mod exponential;
pub mod laplace;
pub mod mechanism;
pub mod renyi;

pub use budget::{BudgetAccountant, Epsilon};
pub use composition::ApproxDp;
pub use error::DpError;
pub use exponential::ExponentialMechanism;
pub use laplace::Laplace;
pub use mechanism::Sensitivity;
