//! Property-based tests for the differential-privacy substrate.

use proptest::prelude::*;

use prc_dp::amplification::amplify;
use prc_dp::budget::{BudgetAccountant, Epsilon};
use prc_dp::composition::{advanced_composition, basic_composition, ApproxDp};
use prc_dp::laplace::{required_epsilon, Laplace};
use prc_dp::renyi::laplace_rdp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CDF is monotone and quantile inverts it for arbitrary parameters.
    #[test]
    fn laplace_cdf_quantile_consistency(
        loc in -1e4f64..1e4,
        scale in 1e-3f64..1e3,
        q in 0.001f64..0.999,
        x in -1e5f64..1e5,
        y in -1e5f64..1e5,
    ) {
        let d = Laplace::new(loc, scale).unwrap();
        let (small, large) = (x.min(y), x.max(y));
        prop_assert!(d.cdf(small) <= d.cdf(large) + 1e-15);
        prop_assert!((d.cdf(d.quantile(q)) - q).abs() < 1e-9);
        prop_assert!(d.pdf(x) >= 0.0);
    }

    /// The central probability equals the CDF difference everywhere.
    #[test]
    fn laplace_central_probability_identity(
        scale in 1e-3f64..1e3,
        t in 0.0f64..1e4,
    ) {
        let d = Laplace::centered(scale).unwrap();
        let direct = d.central_probability(t);
        let via_cdf = d.cdf(t) - d.cdf(-t);
        prop_assert!((direct - via_cdf).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&direct));
    }

    /// required_epsilon is the exact inverse of the tail bound.
    #[test]
    fn required_epsilon_is_tight(
        sensitivity in 1e-3f64..1e3,
        t in 1e-3f64..1e4,
        prob in 0.01f64..0.99,
    ) {
        let eps = required_epsilon(sensitivity, t, prob).unwrap();
        let d = Laplace::centered(sensitivity / eps).unwrap();
        prop_assert!((d.central_probability(t) - prob).abs() < 1e-9);
    }

    /// Amplification never loosens the budget.
    #[test]
    fn amplification_properties(e in 1e-4f64..10.0, p in 0.001f64..1.0) {
        let eps = Epsilon::new(e).unwrap();
        let amplified = amplify(eps, p).unwrap();
        prop_assert!(amplified.value() <= e + 1e-12);
    }

    /// The budget accountant never over- or under-spends.
    #[test]
    fn accountant_conservation(
        total in 0.1f64..100.0,
        spends in proptest::collection::vec(0.001f64..5.0, 1..40),
    ) {
        let mut acc = BudgetAccountant::new(Epsilon::new(total).unwrap());
        let mut accepted = 0.0;
        for &s in &spends {
            if let Ok(hold) = acc.reserve(Epsilon::new(s).unwrap()) {
                acc.commit(hold);
                accepted += s;
            }
        }
        prop_assert!((acc.spent().value() - accepted).abs() < 1e-9);
        prop_assert!(acc.spent().value() <= total + 1e-6);
        prop_assert!((acc.remaining().value() - (total - accepted).max(0.0)).abs() < 1e-6);
    }

    /// Advanced composition always returns a valid guarantee and is
    /// invariant to how the δ budget splits.
    #[test]
    fn advanced_composition_is_well_formed(
        e in 0.0005f64..0.5,
        k in 1u64..5_000,
        slack_exp in 3u32..9,
    ) {
        let slack = 10f64.powi(-(slack_exp as i32));
        let per = ApproxDp::new(e, 0.0).unwrap();
        let advanced = advanced_composition(per, k, slack).unwrap();
        prop_assert!(advanced.epsilon > 0.0);
        prop_assert!((advanced.delta - slack).abs() < 1e-12);
        // Never better than √(2k ln(1/δ))·ε alone (the first term).
        let floor = e * (2.0 * k as f64 * (1.0 / slack).ln()).sqrt();
        prop_assert!(advanced.epsilon >= floor - 1e-9);
        let basic = basic_composition(per, k);
        prop_assert!((basic.epsilon - e * k as f64).abs() < 1e-9);
    }

    /// The Laplace RDP curve is sandwiched between 0 and ε and is
    /// monotone in the order.
    #[test]
    fn rdp_curve_envelope(e in 0.001f64..8.0, a1 in 1.01f64..64.0, a2 in 1.01f64..64.0) {
        let (lo, hi) = (a1.min(a2), a1.max(a2));
        let r_lo = laplace_rdp(e, lo);
        let r_hi = laplace_rdp(e, hi);
        prop_assert!(r_lo >= 0.0 && r_hi <= e + 1e-9);
        prop_assert!(r_lo <= r_hi + 1e-9, "ρ not monotone: {r_lo} > {r_hi}");
    }
}
