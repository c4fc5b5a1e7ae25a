//! The exponential mechanism (McSherry & Talwar 2007).
//!
//! Selects one candidate from a finite set with probability proportional
//! to `exp(ε·score/(2·Δu))`, where `Δu` is the score function's
//! sensitivity; the selection is `ε`-differentially private. A broker can
//! use it to privately select *which* answer to release — e.g. the most
//! popular queried range, or a private arg-max over histogram buckets
//! (see `prc-core::histogram`).

use rand::{Rng, RngExt};

use crate::budget::Epsilon;
use crate::error::DpError;
use crate::mechanism::Sensitivity;

/// The exponential mechanism over scored candidates.
///
/// # Examples
///
/// ```
/// use prc_dp::budget::Epsilon;
/// use prc_dp::exponential::ExponentialMechanism;
/// use prc_dp::mechanism::Sensitivity;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), prc_dp::DpError> {
/// let mechanism = ExponentialMechanism::new(Epsilon::new(5.0)?, Sensitivity::new(1.0)?)?;
/// let scores = [1.0, 9.0, 2.0];
/// let probabilities = mechanism.probabilities(&scores);
/// // The best-scoring candidate is selected most often.
/// assert!(probabilities[1] > probabilities[0] && probabilities[1] > probabilities[2]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let choice = mechanism.select(&scores, &mut rng);
/// assert!(choice < scores.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialMechanism {
    epsilon: Epsilon,
    score_sensitivity: Sensitivity,
}

impl ExponentialMechanism {
    /// Creates the mechanism with privacy budget `ε` and score
    /// sensitivity `Δu`.
    ///
    /// # Errors
    ///
    /// Returns [`DpError::InvalidEpsilon`] when `ε = 0`.
    pub fn new(epsilon: Epsilon, score_sensitivity: Sensitivity) -> Result<Self, DpError> {
        if epsilon.is_zero() {
            return Err(DpError::InvalidEpsilon {
                value: epsilon.value(),
            });
        }
        Ok(ExponentialMechanism {
            epsilon,
            score_sensitivity,
        })
    }

    /// Privacy budget consumed per selection.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The selection probabilities for the given scores (computed with
    /// max-shift for numerical stability).
    ///
    /// # Panics
    ///
    /// Panics if `scores` is empty or contains a non-finite score.
    pub fn probabilities(&self, scores: &[f64]) -> Vec<f64> {
        assert!(!scores.is_empty(), "need at least one candidate");
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "scores must be finite"
        );
        let scale = self.epsilon.value() / (2.0 * self.score_sensitivity.value());
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = scores.iter().map(|s| ((s - max) * scale).exp()).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// Selects the index of one candidate.
    ///
    /// # Panics
    ///
    /// Panics if `scores` is empty or contains a non-finite score.
    pub fn select<R: Rng + ?Sized>(&self, scores: &[f64], rng: &mut R) -> usize {
        let probabilities = self.probabilities(scores);
        let u: f64 = rng.random();
        let mut cumulative = 0.0;
        for (i, p) in probabilities.iter().enumerate() {
            cumulative += p;
            if u < cumulative {
                return i;
            }
        }
        probabilities.len() - 1 // floating-point guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mech(e: f64) -> ExponentialMechanism {
        ExponentialMechanism::new(Epsilon::new(e).unwrap(), Sensitivity::unit()).unwrap()
    }

    #[test]
    fn probabilities_sum_to_one_and_prefer_high_scores() {
        let m = mech(1.0);
        let p = m.probabilities(&[0.0, 1.0, 5.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn probability_ratio_matches_definition() {
        // Pr[a]/Pr[b] = exp(ε(u_a − u_b)/(2Δ)).
        let m = mech(2.0);
        let p = m.probabilities(&[3.0, 1.0]);
        let expected = (2.0f64 * (3.0 - 1.0) / 2.0).exp();
        assert!((p[0] / p[1] - expected).abs() < 1e-9);
    }

    #[test]
    fn large_epsilon_approaches_argmax() {
        let m = mech(200.0);
        let p = m.probabilities(&[0.0, 0.5, 1.0]);
        assert!(p[2] > 0.999);
    }

    #[test]
    fn tiny_epsilon_approaches_uniform() {
        let m = mech(1e-9);
        let p = m.probabilities(&[0.0, 10.0, 20.0]);
        for prob in p {
            assert!((prob - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn selection_frequencies_match_probabilities() {
        let m = mech(1.5);
        let scores = [1.0, 2.0, 4.0, 0.5];
        let probabilities = m.probabilities(&scores);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[m.select(&scores, &mut rng)] += 1;
        }
        for (count, p) in counts.iter().zip(probabilities) {
            let freq = *count as f64 / n as f64;
            assert!((freq - p).abs() < 0.006, "freq {freq} vs p {p}");
        }
    }

    #[test]
    fn numerically_stable_for_huge_scores() {
        let m = mech(1.0);
        let p = m.probabilities(&[1e8, 1e8 + 1.0]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[1] > p[0]);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panic() {
        mech(1.0).probabilities(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_scores_panic() {
        mech(1.0).probabilities(&[1.0, f64::NAN]);
    }

    #[test]
    fn zero_epsilon_rejected() {
        assert!(
            ExponentialMechanism::new(Epsilon::new(0.0).unwrap(), Sensitivity::unit()).is_err()
        );
    }
}
