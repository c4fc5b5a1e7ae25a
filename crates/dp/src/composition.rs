//! Composition theorems beyond naive summation, over approximate
//! differential privacy [`ApproxDp`].
//!
//! The [`crate::budget::BudgetAccountant`] applies basic (sequential)
//! composition — budgets add. This module adds the **advanced
//! composition** theorem (Dwork, Rothblum & Vadhan 2010; as stated in
//! Dwork & Roth, Thm 3.20): `k` adaptive `(ε, δ)`-DP mechanisms are
//! together
//!
//! ```text
//! ( ε·√(2k·ln(1/δ′)) + k·ε·(e^ε − 1),  k·δ + δ′ )-DP
//! ```
//!
//! for any slack `δ′ > 0` — a √k growth instead of the naive k.
//!
//! Both theorems compose mechanisms that each see the data afresh. The
//! broker's fresh answers are not such a stream: they are all drawn from
//! one shared Bernoulli(p) sample, so the sound order is to compose their
//! *base* budgets on that sample and amplify by sampling once, not to
//! compose the per-answer amplified budgets.

use crate::error::DpError;

/// An approximate differential-privacy guarantee `(ε, δ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxDp {
    /// The multiplicative budget ε.
    pub epsilon: f64,
    /// The additive failure probability δ.
    pub delta: f64,
}

impl ApproxDp {
    /// Creates a guarantee.
    ///
    /// # Errors
    ///
    /// Returns [`DpError::InvalidEpsilon`] unless `epsilon` is finite and
    /// non-negative, or [`DpError::InvalidProbability`] unless
    /// `delta ∈ [0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, DpError> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(DpError::InvalidEpsilon { value: epsilon });
        }
        if !(0.0..1.0).contains(&delta) {
            return Err(DpError::InvalidProbability {
                value: delta,
                expected: "in [0, 1)",
            });
        }
        Ok(ApproxDp { epsilon, delta })
    }
}

impl std::fmt::Display for ApproxDp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(ε={}, δ={})", self.epsilon, self.delta)
    }
}

/// Naive sequential composition of `k` repetitions of an `(ε, δ)`-DP
/// mechanism: `(k·ε, k·δ)`.
pub fn basic_composition(per_query: ApproxDp, k: u64) -> ApproxDp {
    ApproxDp {
        epsilon: per_query.epsilon * k as f64,
        delta: (per_query.delta * k as f64).min(1.0 - f64::EPSILON),
    }
}

/// Advanced composition of `k` repetitions of an `(ε, δ)`-DP mechanism
/// with slack `δ′`.
///
/// # Examples
///
/// ```
/// use prc_dp::composition::{advanced_composition, basic_composition, ApproxDp};
///
/// # fn main() -> Result<(), prc_dp::DpError> {
/// let per_query = ApproxDp::new(0.01, 0.0)?;
/// let basic = basic_composition(per_query, 10_000);
/// let advanced = advanced_composition(per_query, 10_000, 1e-6)?;
/// // √k beats k for long sessions of small queries.
/// assert!(advanced.epsilon < basic.epsilon / 10.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`DpError::InvalidProbability`] unless `delta_slack ∈ (0, 1)`.
pub fn advanced_composition(
    per_query: ApproxDp,
    k: u64,
    delta_slack: f64,
) -> Result<ApproxDp, DpError> {
    if !(0.0..1.0).contains(&delta_slack) || delta_slack == 0.0 {
        return Err(DpError::InvalidProbability {
            value: delta_slack,
            expected: "in (0, 1)",
        });
    }
    let e = per_query.epsilon;
    let k_f = k as f64;
    let epsilon = e * (2.0 * k_f * (1.0 / delta_slack).ln()).sqrt() + k_f * e * (e.exp() - 1.0);
    ApproxDp::new(
        epsilon,
        (per_query.delta * k_f + delta_slack).min(1.0 - f64::EPSILON),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_dp_validation() {
        assert!(ApproxDp::new(0.5, 1e-5).is_ok());
        assert!(ApproxDp::new(-0.1, 1e-5).is_err());
        assert!(ApproxDp::new(0.5, 1.0).is_err());
        assert!(ApproxDp::new(0.5, -0.1).is_err());
        assert!(ApproxDp::new(f64::NAN, 0.1).is_err());
        let p = ApproxDp::new(0.7, 0.0).unwrap();
        assert_eq!(p.delta, 0.0);
        assert_eq!(p.to_string(), "(ε=0.7, δ=0)");
    }

    #[test]
    fn basic_composition_scales_linearly() {
        let per = ApproxDp::new(0.1, 1e-6).unwrap();
        let total = basic_composition(per, 10);
        assert!((total.epsilon - 1.0).abs() < 1e-12);
        assert!((total.delta - 1e-5).abs() < 1e-15);
    }

    #[test]
    fn advanced_composition_beats_basic_for_many_small_queries() {
        let per = ApproxDp::new(0.01, 0.0).unwrap();
        let k = 10_000;
        let basic = basic_composition(per, k);
        let advanced = advanced_composition(per, k, 1e-6).unwrap();
        assert!(
            advanced.epsilon < basic.epsilon,
            "advanced {} should beat basic {}",
            advanced.epsilon,
            basic.epsilon
        );
        // √k scaling: roughly 0.01·√(2·10000·ln 1e6) ≈ 5.3 ≪ 100.
        assert!(advanced.epsilon < 7.0);
        assert!((advanced.delta - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn advanced_composition_loses_for_few_large_queries() {
        for (epsilon, k) in [(1.0, 2), (2.0, 3)] {
            let per = ApproxDp::new(epsilon, 0.0).unwrap();
            let basic = basic_composition(per, k);
            let advanced = advanced_composition(per, k, 1e-6).unwrap();
            assert!(
                advanced.epsilon > basic.epsilon,
                "ε={epsilon}, k={k}: advanced {} should lose to basic {}",
                advanced.epsilon,
                basic.epsilon
            );
            // Basic composition stays pure; advanced pays the slack.
            assert_eq!(basic.delta, 0.0);
            assert!(advanced.delta > 0.0);
        }
    }

    #[test]
    fn slack_validation() {
        let per = ApproxDp::new(0.1, 0.0).unwrap();
        assert!(advanced_composition(per, 5, 0.0).is_err());
        assert!(advanced_composition(per, 5, 1.0).is_err());
        assert!(advanced_composition(per, 5, -0.5).is_err());
    }
}
