//! The (α, δ) accuracy calculus of Theorem 3.3.
//!
//! For `k` nodes, population `n`, and sampling probability `p`, the
//! RankCounting estimator's global variance is at most `8k/p²`
//! (Theorem 3.2; [`crate::estimator::RankCounting`]'s `variance_bound`).
//! Chebyshev's inequality then gives
//!
//! ```text
//! Pr[|γ̂ − γ| ≤ αn] ≥ 1 − (8k/p²)/(αn)² ,
//! ```
//!
//! so the estimate is an (α, δ)-range counting whenever
//! `p ≥ (√(2k)/(αn)) · (2/√(1−δ))` (Theorem 3.3). This module provides
//! that bound, its inverse `δ′(p)` used by the optimizer, and the
//! Chebyshev helpers.

use crate::error::CoreError;
use crate::query::Accuracy;

/// Theorem 3.3: the minimum sampling probability under which RankCounting
/// is an (α, δ)-range counting — `p ≥ (√(2k)/(αn)) · (2/√(1−δ))`.
///
/// The returned value may exceed `1`, meaning the demand is unachievable
/// by sampling on this population (use
/// [`required_probability_clamped`] when a usable probability is wanted).
///
/// # Examples
///
/// ```
/// use prc_core::accuracy::required_probability;
/// use prc_core::query::Accuracy;
///
/// # fn main() -> Result<(), prc_core::CoreError> {
/// // The paper's Fig. 4 point: α = 0.055, δ = 0.5 over the full dataset.
/// let p = required_probability(Accuracy::new(0.055, 0.5)?, 50, 17_568)?;
/// assert!((p - 0.0293).abs() < 0.001);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] when `k = 0` or `n = 0`.
pub fn required_probability(accuracy: Accuracy, k: usize, n: usize) -> Result<f64, CoreError> {
    if k == 0 || n == 0 {
        return Err(CoreError::InvalidProbability { value: 0.0 });
    }
    let alpha = accuracy.alpha();
    let delta = accuracy.delta();
    Ok((2.0 * k as f64).sqrt() / (alpha * n as f64) * 2.0 / (1.0 - delta).sqrt())
}

/// [`required_probability`], clamped to `(0, 1]` (sampling everything is
/// always sufficient — the estimator is exact at `p = 1`).
///
/// # Errors
///
/// Propagates [`required_probability`]'s errors.
pub fn required_probability_clamped(
    accuracy: Accuracy,
    k: usize,
    n: usize,
) -> Result<f64, CoreError> {
    Ok(required_probability(accuracy, k, n)?.min(1.0))
}

/// The inverse of Theorem 3.3: the confidence `δ′` actually achieved at
/// error bound `α′` by samples collected with probability `p`:
/// `δ′ = 1 − 8k/(α′·n·p)²`.
///
/// **Full sampling is exact**: at `p = 1` every element is collected, the
/// RankCounting estimator degenerates to the exact count (zero variance),
/// and `δ′ = 1` for every `α′` — the Chebyshev bound would be needlessly
/// conservative there, which matters for small populations (e.g. sliding
/// windows).
///
/// May be negative (no guarantee at all); callers must check.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] unless `p ∈ (0, 1]`, and when
/// `k = 0` or `n = 0`.
pub fn achieved_delta(p: f64, alpha_prime: f64, k: usize, n: usize) -> Result<f64, CoreError> {
    if !(0.0..=1.0).contains(&p) || p == 0.0 {
        return Err(CoreError::InvalidProbability { value: p });
    }
    if k == 0 || n == 0 {
        return Err(CoreError::InvalidProbability { value: 0.0 });
    }
    if p >= 1.0 {
        return Ok(1.0);
    }
    let t = alpha_prime * n as f64 * p;
    Ok(1.0 - 8.0 * k as f64 / (t * t))
}

/// Chebyshev lower bound on `Pr[|X − E[X]| ≤ t]` for a variable of the
/// given variance: `max(0, 1 − variance/t²)`.
pub fn chebyshev_confidence(variance: f64, t: f64) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    (1.0 - variance / (t * t)).max(0.0)
}

/// Expected number of samples shipped network-wide at probability `p`:
/// `|S| = n·p`.
pub fn expected_sample_count(n: usize, p: f64) -> f64 {
    n as f64 * p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{RangeCountEstimator, RankCounting};

    fn acc(a: f64, d: f64) -> Accuracy {
        Accuracy::new(a, d).unwrap()
    }

    #[test]
    fn required_probability_matches_theorem_formula() {
        let k = 50;
        let n = 17_568;
        let a = acc(0.055, 0.5);
        let p = required_probability(a, k, n).unwrap();
        let by_hand = (2.0_f64 * 50.0).sqrt() / (0.055 * 17_568.0) * 2.0 / 0.5_f64.sqrt();
        assert!((p - by_hand).abs() < 1e-15);
    }

    #[test]
    fn theorem_3_3_selfconsistency() {
        // At p = required_probability, Chebyshev with Var = 8k/p² yields
        // exactly confidence δ.
        let k = 20;
        let n = 10_000;
        let a = acc(0.05, 0.7);
        let p = required_probability(a, k, n).unwrap();
        let var = RankCounting.variance_bound(k, n, p);
        let conf = chebyshev_confidence(var, a.absolute_error(n));
        assert!((conf - a.delta()).abs() < 1e-9, "confidence {conf}");
        // achieved_delta agrees.
        let d = achieved_delta(p.min(1.0), a.alpha(), k, n).unwrap();
        assert!((d - a.delta()).abs() < 1e-9, "delta {d}");
    }

    #[test]
    fn achieved_delta_is_monotone_in_p_and_alpha() {
        let k = 10;
        let n = 5_000;
        let base = achieved_delta(0.2, 0.05, k, n).unwrap();
        assert!(achieved_delta(0.4, 0.05, k, n).unwrap() > base);
        assert!(achieved_delta(0.2, 0.1, k, n).unwrap() > base);
    }

    #[test]
    fn full_sampling_is_certain() {
        // p = 1 collects everything; the estimator is exact, so the
        // sampling stage achieves δ′ = 1 at any α′.
        assert_eq!(achieved_delta(1.0, 0.001, 100, 50).unwrap(), 1.0);
        assert_eq!(achieved_delta(1.0, 0.9, 1, 1_000_000).unwrap(), 1.0);
        // Just below full sampling the Chebyshev bound still applies.
        assert!(achieved_delta(0.999, 0.001, 100, 50).unwrap() < 1.0);
    }

    #[test]
    fn achieved_delta_can_be_negative() {
        // Tiny p, tiny alpha: no guarantee.
        let d = achieved_delta(0.01, 0.001, 100, 1_000).unwrap();
        assert!(d < 0.0);
    }

    #[test]
    fn required_probability_can_exceed_one_and_is_clamped() {
        // Very strict demand on a tiny population.
        let a = acc(0.01, 0.99);
        let raw = required_probability(a, 100, 1_000).unwrap();
        assert!(raw > 1.0);
        assert_eq!(required_probability_clamped(a, 100, 1_000).unwrap(), 1.0);
    }

    #[test]
    fn stricter_demands_need_more_samples() {
        let k = 10;
        let n = 100_000;
        let loose = required_probability(acc(0.1, 0.5), k, n).unwrap();
        let tighter_alpha = required_probability(acc(0.05, 0.5), k, n).unwrap();
        let tighter_delta = required_probability(acc(0.1, 0.9), k, n).unwrap();
        assert!(tighter_alpha > loose);
        assert!(tighter_delta > loose);
    }

    #[test]
    fn required_probability_decays_with_population() {
        // The Fig. 4 shape: p ∝ 1/n.
        let a = acc(0.055, 0.5);
        let k = 50;
        let p1 = required_probability(a, k, 2_000).unwrap();
        let p2 = required_probability(a, k, 4_000).unwrap();
        assert!((p1 / p2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_shapes_are_rejected() {
        let a = acc(0.1, 0.5);
        assert!(required_probability(a, 0, 100).is_err());
        assert!(required_probability(a, 10, 0).is_err());
        assert!(achieved_delta(0.0, 0.1, 10, 100).is_err());
        assert!(achieved_delta(1.5, 0.1, 10, 100).is_err());
        assert!(achieved_delta(0.5, 0.1, 0, 100).is_err());
    }

    #[test]
    fn chebyshev_edge_cases() {
        assert_eq!(chebyshev_confidence(100.0, 0.0), 0.0);
        assert_eq!(chebyshev_confidence(100.0, -1.0), 0.0);
        assert_eq!(chebyshev_confidence(100.0, 5.0), 0.0); // bound ≤ 0 clamps
        assert!((chebyshev_confidence(100.0, 20.0) - 0.75).abs() < 1e-12);
        assert_eq!(chebyshev_confidence(0.0, 1.0), 1.0);
    }

    #[test]
    fn variance_bound_and_sample_count() {
        assert_eq!(expected_sample_count(1_000, 0.25), 250.0);
    }
}
