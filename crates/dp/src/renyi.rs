//! Rényi differential privacy (RDP) accounting (Mironov, CSF 2017).
//!
//! A mechanism is `(α, ρ)`-RDP when the Rényi divergence of order `α`
//! between its output distributions on neighbouring datasets is at most
//! `ρ`. RDP composes by *addition* at each order, and converts to
//! approximate DP via
//!
//! ```text
//! (ρ(α) + ln(1/δ)/(α − 1),  δ)-DP      for every α > 1,
//! ```
//!
//! so an accountant that tracks a grid of orders and minimizes over it
//! yields much tighter session budgets than basic composition — without
//! the per-query `δ` slack the advanced-composition theorem charges.
//!
//! The Laplace mechanism with scale ratio `t = Δ/b = ε` has the closed
//! form (Mironov, Table II)
//!
//! ```text
//! ρ(α) = (1/(α−1)) · ln[ (α/(2α−1))·e^{t(α−1)} + ((α−1)/(2α−1))·e^{−tα} ]
//! ```
//!
//! with `ρ(1)` (the KL limit) `= t + e^{−t} − 1`.

use crate::budget::Epsilon;
use crate::composition::ApproxDp;
use crate::error::DpError;

/// The default grid of Rényi orders tracked by the accountant.
pub const DEFAULT_ORDERS: [f64; 15] = [
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
];

/// Rényi divergence of order `alpha` for the Laplace mechanism with
/// privacy parameter `epsilon = Δ/b`.
///
/// # Panics
///
/// Panics unless `alpha > 1` and `epsilon` is finite and non-negative.
pub fn laplace_rdp(epsilon: f64, alpha: f64) -> f64 {
    assert!(alpha > 1.0, "Renyi order must exceed 1, got {alpha}");
    assert!(
        epsilon.is_finite() && epsilon >= 0.0,
        "epsilon must be finite and non-negative"
    );
    if epsilon == 0.0 {
        return 0.0;
    }
    let t = epsilon;
    let a = alpha;
    // ln[(a/(2a−1))·e^{t(a−1)} + ((a−1)/(2a−1))·e^{−ta}] / (a−1), computed
    // in log space to stay stable for large t(a−1).
    let log_term1 = (a / (2.0 * a - 1.0)).ln() + t * (a - 1.0);
    let log_term2 = ((a - 1.0) / (2.0 * a - 1.0)).ln() - t * a;
    let log_sum = log_add_exp(log_term1, log_term2);
    log_sum / (a - 1.0)
}

/// `ln(e^a + e^b)` computed stably.
fn log_add_exp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// An RDP accountant over a fixed grid of orders.
///
/// Record each Laplace spend with [`RdpAccountant::record_laplace`]; the
/// session's `(ε, δ)` guarantee at any moment is
/// [`RdpAccountant::to_approx_dp`].
///
/// # Examples
///
/// ```
/// use prc_dp::budget::Epsilon;
/// use prc_dp::renyi::RdpAccountant;
///
/// # fn main() -> Result<(), prc_dp::DpError> {
/// let mut accountant = RdpAccountant::default();
/// for _ in 0..1_000 {
///     accountant.record_laplace(Epsilon::new(0.01)?);
/// }
/// let session = accountant.to_approx_dp(1e-6)?;
/// // Far tighter than the naive Σε = 10.
/// assert!(session.epsilon < 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RdpAccountant {
    orders: Vec<f64>,
    /// Accumulated divergence at each order.
    rho: Vec<f64>,
    queries: u64,
}

impl Default for RdpAccountant {
    fn default() -> Self {
        RdpAccountant::new(&DEFAULT_ORDERS)
    }
}

impl RdpAccountant {
    /// Creates an accountant over the given Rényi orders.
    ///
    /// # Panics
    ///
    /// Panics when `orders` is empty or any order is ≤ 1.
    pub fn new(orders: &[f64]) -> Self {
        assert!(!orders.is_empty(), "need at least one Renyi order");
        assert!(
            orders.iter().all(|&a| a > 1.0),
            "every Renyi order must exceed 1"
        );
        RdpAccountant {
            orders: orders.to_vec(),
            rho: vec![0.0; orders.len()],
            queries: 0,
        }
    }

    /// The tracked orders.
    pub fn orders(&self) -> &[f64] {
        &self.orders
    }

    /// Number of recorded queries.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Records one Laplace-mechanism release with pure-DP budget `ε = Δ/b`.
    pub fn record_laplace(&mut self, epsilon: Epsilon) {
        for (rho, &alpha) in self.rho.iter_mut().zip(&self.orders) {
            *rho += laplace_rdp(epsilon.value(), alpha);
        }
        self.queries += 1;
    }

    /// Converts the accumulated divergence to an `(ε, δ)` guarantee,
    /// minimizing over the tracked orders.
    ///
    /// # Errors
    ///
    /// Returns [`DpError::InvalidProbability`] unless `delta ∈ (0, 1)`.
    pub fn to_approx_dp(&self, delta: f64) -> Result<ApproxDp, DpError> {
        if !(0.0..1.0).contains(&delta) || delta == 0.0 {
            return Err(DpError::InvalidProbability {
                value: delta,
                expected: "in (0, 1)",
            });
        }
        let log_inv_delta = (1.0 / delta).ln();
        let epsilon = self
            .rho
            .iter()
            .zip(&self.orders)
            .map(|(&rho, &alpha)| rho + log_inv_delta / (alpha - 1.0))
            .fold(f64::INFINITY, f64::min);
        ApproxDp::new(epsilon, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::{advanced_composition, basic_composition};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn rdp_curve_is_sane() {
        // ρ(α) is non-negative, zero at ε = 0, and bounded by ε (the
        // α → ∞ / pure-DP limit for the Laplace mechanism... actually the
        // max-divergence bound): ρ(α) ≤ ε always.
        for e in [0.01, 0.1, 1.0, 4.0] {
            for a in DEFAULT_ORDERS {
                let rho = laplace_rdp(e, a);
                assert!(rho >= 0.0, "ρ negative at ε={e}, α={a}");
                assert!(rho <= e + 1e-12, "ρ {rho} exceeds ε {e} at α={a}");
            }
        }
        assert_eq!(laplace_rdp(0.0, 2.0), 0.0);
    }

    #[test]
    fn rdp_is_monotone_in_order_and_epsilon() {
        // ρ(α) is non-decreasing in α and increasing in ε.
        let e = 0.5;
        let mut prev = 0.0;
        for a in [1.5, 2.0, 4.0, 16.0, 128.0] {
            let rho = laplace_rdp(e, a);
            assert!(rho >= prev - 1e-12, "not monotone at α={a}");
            prev = rho;
        }
        assert!(laplace_rdp(1.0, 4.0) > laplace_rdp(0.1, 4.0));
    }

    #[test]
    fn known_value_at_alpha_two() {
        // At α = 2: ρ = ln[(2/3)e^t + (1/3)e^{−2t}].
        let t = 0.7f64;
        let expected = ((2.0 / 3.0) * t.exp() + (1.0 / 3.0) * (-2.0 * t).exp()).ln();
        assert!((laplace_rdp(t, 2.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn single_query_conversion_is_close_to_pure_dp() {
        // One ε-DP Laplace release: the RDP bound at δ should not be much
        // worse than ε itself (and can be better for tiny ε? no — for one
        // query pure DP is ε; RDP conversion adds slack).
        let mut acc = RdpAccountant::default();
        acc.record_laplace(eps(1.0));
        let converted = acc.to_approx_dp(1e-6).unwrap();
        assert!(
            converted.epsilon >= 0.2,
            "suspiciously small: {}",
            converted.epsilon
        );
        assert!(converted.epsilon <= 2.0, "too lossy: {}", converted.epsilon);
    }

    #[test]
    fn rdp_beats_basic_and_advanced_on_long_sessions() {
        let per_query = 0.01;
        let k = 10_000u64;
        let delta = 1e-6;

        let mut acc = RdpAccountant::default();
        for _ in 0..k {
            acc.record_laplace(eps(per_query));
        }
        let rdp = acc.to_approx_dp(delta).unwrap();

        let basic = basic_composition(ApproxDp::new(per_query, 0.0).unwrap(), k);
        let advanced =
            advanced_composition(ApproxDp::new(per_query, 0.0).unwrap(), k, delta).unwrap();

        assert!(
            rdp.epsilon < advanced.epsilon,
            "RDP {} should beat advanced {}",
            rdp.epsilon,
            advanced.epsilon
        );
        assert!(rdp.epsilon < basic.epsilon);
        assert_eq!(acc.queries(), k);
    }

    #[test]
    fn composition_is_additive_per_order() {
        let mut one = RdpAccountant::new(&[2.0, 8.0]);
        one.record_laplace(eps(0.3));
        let mut two = one.clone();
        two.record_laplace(eps(0.3));
        for i in 0..2 {
            assert!((two.rho[i] - 2.0 * one.rho[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn smaller_delta_costs_more_epsilon() {
        let mut acc = RdpAccountant::default();
        for _ in 0..100 {
            acc.record_laplace(eps(0.05));
        }
        let loose = acc.to_approx_dp(1e-3).unwrap();
        let tight = acc.to_approx_dp(1e-9).unwrap();
        assert!(tight.epsilon > loose.epsilon);
    }

    #[test]
    fn conversion_validates_delta() {
        let acc = RdpAccountant::default();
        assert!(acc.to_approx_dp(0.0).is_err());
        assert!(acc.to_approx_dp(1.0).is_err());
        assert!(acc.to_approx_dp(-0.5).is_err());
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn order_one_panics() {
        let _ = laplace_rdp(0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_orders_panic() {
        let _ = RdpAccountant::new(&[]);
    }

    #[test]
    fn log_add_exp_is_stable() {
        // Huge magnitude difference must not overflow.
        assert!((log_add_exp(1000.0, -1000.0) - 1000.0).abs() < 1e-12);
        assert!((log_add_exp(0.0, 0.0) - 2.0f64.ln()).abs() < 1e-12);
    }
}
