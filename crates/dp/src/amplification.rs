//! Privacy amplification by sampling (the paper's Lemma 3.4).
//!
//! If a function `φ(·)` is `ε`-differentially private and `S(·)` draws
//! independent Bernoulli(p) samples, then the composition `φ(S(·))` is
//! `ε′`-differentially private with
//!
//! ```text
//! ε′ = ln(1 − p + p·e^ε)
//! ```
//!
//! (Kasiviswanathan, Lee, Nissim, Raskhodnikova & Smith, *What can we
//! learn privately?*, SICOMP 2011; restated as Lemma 3.4 in the paper.)
//!
//! The paper's optimizer minimizes exactly this effective budget, so this
//! module provides the map itself ([`amplify`]).

use crate::budget::Epsilon;
use crate::error::DpError;

/// Effective privacy budget of an `ε`-DP mechanism run on a Bernoulli(p)
/// sample: `ε′ = ln(1 − p + p·e^ε)`.
///
/// # Errors
///
/// Returns [`DpError::InvalidProbability`] unless `p ∈ [0, 1]`.
///
/// # Examples
///
/// ```
/// use prc_dp::amplification::amplify;
/// use prc_dp::budget::Epsilon;
///
/// # fn main() -> Result<(), prc_dp::DpError> {
/// let base = Epsilon::new(1.0)?;
/// let amplified = amplify(base, 0.1)?;
/// assert!(amplified.value() < base.value());
/// # Ok(())
/// # }
/// ```
pub fn amplify(epsilon: Epsilon, p: f64) -> Result<Epsilon, DpError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(DpError::InvalidProbability {
            value: p,
            expected: "in [0, 1]",
        });
    }
    // ln(1 + p(e^ε − 1)), computed via ln_1p/exp_m1 for numerical stability
    // at small ε.
    let amplified = (p * epsilon.value().exp_m1()).ln_1p();
    Epsilon::new(amplified)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn boundary_probabilities() {
        // p = 1: no sampling, no amplification.
        assert!((amplify(eps(1.5), 1.0).unwrap().value() - 1.5).abs() < 1e-12);
        // p = 0: nothing is ever sampled, perfect privacy.
        assert_eq!(amplify(eps(1.5), 0.0).unwrap().value(), 0.0);
    }

    #[test]
    fn amplification_strictly_tightens_budget() {
        for p in [0.01, 0.1, 0.5, 0.9] {
            for e in [0.1, 0.5, 1.0, 4.0] {
                let amplified = amplify(eps(e), p).unwrap().value();
                assert!(amplified < e, "p={p} ε={e}: {amplified}");
                assert!(amplified > 0.0);
            }
        }
    }

    #[test]
    fn monotone_in_both_arguments() {
        // Increasing p weakens amplification.
        let e = eps(1.0);
        let mut prev = 0.0;
        for p in [0.1, 0.2, 0.4, 0.8, 1.0] {
            let a = amplify(e, p).unwrap().value();
            assert!(a > prev);
            prev = a;
        }
        // Increasing ε increases ε′.
        let mut prev = 0.0;
        for e in [0.1, 0.5, 1.0, 2.0] {
            let a = amplify(eps(e), 0.3).unwrap().value();
            assert!(a > prev);
            prev = a;
        }
    }

    #[test]
    fn small_epsilon_limit_is_p_times_epsilon() {
        // For ε → 0, ε′ ≈ p·ε.
        let e = 1e-6;
        let p = 0.37;
        let a = amplify(eps(e), p).unwrap().value();
        assert!((a / e - p).abs() < 1e-4, "ratio {}", a / e);
    }

    #[test]
    fn amplify_rejects_bad_probability() {
        assert!(amplify(eps(1.0), -0.1).is_err());
        assert!(amplify(eps(1.0), 1.1).is_err());
        assert!(amplify(eps(1.0), f64::NAN).is_err());
    }

    #[test]
    fn amplified_budget_never_below_p_times_epsilon_over_e() {
        // Sanity envelope: p·ε·e^(-ε)·const < ε' ≤ min(ε, p·e^ε). Just check
        // the upper envelope used in the literature: ε' ≤ p·(e^ε − 1).
        for p in [0.1, 0.5] {
            for e in [0.1, 1.0, 3.0] {
                let a = amplify(eps(e), p).unwrap().value();
                assert!(a <= p * (e.exp() - 1.0) + 1e-12);
            }
        }
    }
}
