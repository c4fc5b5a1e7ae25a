//! Grid checker for the three properties of Theorem 4.2.
//!
//! Theorem 4.2 states that `π(α, δ)` is arbitrage-avoiding iff:
//!
//! 1. `π(α, δ) = ψ(V(α, δ))` — price factors through the variance;
//! 2. for every `Δδ ≥ 0`:
//!    `(π(α, δ+Δδ) − π(α, δ))/π(α, δ+Δδ) ≥ (V(α, δ) − V(α, δ+Δδ))/V(α, δ)`;
//! 3. for every `Δα ≥ 0`:
//!    `(π(α, δ) − π(α+Δα, δ))/π(α, δ) ≤ (V(α+Δα, δ) − V(α, δ))/V(α+Δα, δ)`.
//!
//! Properties 2 and 3 are relative-difference bounds; algebraically they
//! say the product `π·V` is non-increasing in `V` along the δ axis and
//! non-decreasing in `V` along the α axis — jointly pinning
//! `π·V = const`, i.e. `π = c/V`. The checker evaluates all three
//! properties over a rectangular grid and reports every violation.

use crate::functions::PricingFunction;
use crate::variance::VarianceModel;

/// Which of Theorem 4.2's properties a grid point violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TheoremProperty {
    /// Property 1: price is not a function of the variance alone.
    VarianceDetermined,
    /// Property 2: the δ-axis relative-difference bound.
    DeltaAxis,
    /// Property 3: the α-axis relative-difference bound.
    AlphaAxis,
}

/// One recorded violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoremViolation {
    /// The violated property.
    pub property: TheoremProperty,
    /// The base grid point `(α, δ)`.
    pub at: (f64, f64),
    /// The comparison point `(α′, δ′)`.
    pub versus: (f64, f64),
    /// `lhs − rhs` of the violated inequality (sign indicates direction).
    pub slack: f64,
}

/// Grid configuration for the checker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoremCheckConfig {
    /// Number of grid points along each axis.
    pub grid: usize,
    /// Inclusive parameter range checked for α.
    pub alpha_range: (f64, f64),
    /// Inclusive parameter range checked for δ.
    pub delta_range: (f64, f64),
    /// Numerical tolerance on the inequalities.
    pub tolerance: f64,
}

impl Default for TheoremCheckConfig {
    fn default() -> Self {
        TheoremCheckConfig {
            grid: 12,
            alpha_range: (0.05, 0.8),
            delta_range: (0.05, 0.9),
            tolerance: 1e-9,
        }
    }
}

fn grid_points(range: (f64, f64), count: usize) -> Vec<f64> {
    assert!(count >= 2, "grid needs at least two points");
    (0..count)
        .map(|i| range.0 + (range.1 - range.0) * i as f64 / (count - 1) as f64)
        .collect()
}

/// Checks all three properties of Theorem 4.2 over a grid, returning every
/// violation found (empty means the function passes the literal theorem).
///
/// # Examples
///
/// ```
/// use prc_pricing::functions::InverseVariancePricing;
/// use prc_pricing::theorem::{check_theorem_4_2, TheoremCheckConfig};
/// use prc_pricing::variance::ChebyshevVariance;
///
/// let model = ChebyshevVariance::new(17_568);
/// let pricing = InverseVariancePricing::new(1e9, model);
/// let violations = check_theorem_4_2(&pricing, &model, &TheoremCheckConfig::default());
/// assert!(violations.is_empty(), "π = c/V satisfies the literal theorem");
/// ```
pub fn check_theorem_4_2<F, M>(
    pricing: &F,
    model: &M,
    config: &TheoremCheckConfig,
) -> Vec<TheoremViolation>
where
    F: PricingFunction,
    M: VarianceModel,
{
    let alphas = grid_points(config.alpha_range, config.grid);
    let deltas = grid_points(config.delta_range, config.grid);
    let tol = config.tolerance;
    let mut violations = Vec::new();

    // Property 1: equal variance must mean equal price. For each pair of
    // alphas and each delta, solve for the delta' on the second alpha
    // that matches the variance, and compare prices.
    for (ai, &a1) in alphas.iter().enumerate() {
        for &a2 in &alphas[ai + 1..] {
            for &d1 in &deltas {
                let v = model.variance(a1, d1);
                let d2 = model.delta_for_variance(a2, v);
                if d2 <= 0.0 || d2 >= 1.0 {
                    continue; // no matching point on this axis
                }
                let p1 = pricing.price(a1, d1);
                let p2 = pricing.price(a2, d2);
                let scale = p1.abs().max(p2.abs()).max(1e-300);
                if (p1 - p2).abs() / scale > tol.max(1e-9) {
                    violations.push(TheoremViolation {
                        property: TheoremProperty::VarianceDetermined,
                        at: (a1, d1),
                        versus: (a2, d2),
                        slack: p1 - p2,
                    });
                }
            }
        }
    }

    // Property 2: δ-axis relative differences.
    for &a in &alphas {
        for (di, &d0) in deltas.iter().enumerate() {
            for &d1 in &deltas[di + 1..] {
                let p0 = pricing.price(a, d0);
                let p1 = pricing.price(a, d1);
                let v0 = model.variance(a, d0);
                let v1 = model.variance(a, d1);
                let lhs = (p1 - p0) / p1;
                let rhs = (v0 - v1) / v0;
                if lhs < rhs - tol {
                    violations.push(TheoremViolation {
                        property: TheoremProperty::DeltaAxis,
                        at: (a, d0),
                        versus: (a, d1),
                        slack: lhs - rhs,
                    });
                }
            }
        }
    }

    // Property 3: α-axis relative differences.
    for &d in &deltas {
        for (ai, &a0) in alphas.iter().enumerate() {
            for &a1 in &alphas[ai + 1..] {
                let p0 = pricing.price(a0, d);
                let p1 = pricing.price(a1, d);
                let v0 = model.variance(a0, d);
                let v1 = model.variance(a1, d);
                let lhs = (p0 - p1) / p0;
                let rhs = (v1 - v0) / v1;
                if lhs > rhs + tol {
                    violations.push(TheoremViolation {
                        property: TheoremProperty::AlphaAxis,
                        at: (a0, d),
                        versus: (a1, d),
                        slack: lhs - rhs,
                    });
                }
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{InverseVariancePricing, LinearDeltaPricing, SqrtPrecisionPricing};
    use crate::variance::ChebyshevVariance;

    fn model() -> ChebyshevVariance {
        ChebyshevVariance::new(17_568)
    }

    #[test]
    fn inverse_variance_passes_all_properties() {
        let pricing = InverseVariancePricing::new(1e8, model());
        let violations = check_theorem_4_2(&pricing, &model(), &TheoremCheckConfig::default());
        assert!(
            violations.is_empty(),
            "π = c/V must pass the literal theorem: {violations:?}"
        );
    }

    #[test]
    fn sqrt_precision_fails_exactly_the_delta_axis() {
        let pricing = SqrtPrecisionPricing::new(1e4, model());
        let violations = check_theorem_4_2(&pricing, &model(), &TheoremCheckConfig::default());
        assert!(!violations.is_empty(), "c/√V must fail the literal theorem");
        assert!(
            violations
                .iter()
                .all(|v| v.property == TheoremProperty::DeltaAxis),
            "c/√V should violate only Property 2, got {:?}",
            violations
                .iter()
                .map(|v| v.property)
                .collect::<std::collections::HashSet<_>>()
        );
    }

    #[test]
    fn linear_delta_fails_property_one() {
        let pricing = LinearDeltaPricing::new(10.0);
        let violations = check_theorem_4_2(&pricing, &model(), &TheoremCheckConfig::default());
        assert!(violations
            .iter()
            .any(|v| v.property == TheoremProperty::VarianceDetermined));
    }

    #[test]
    fn scaled_inverse_variance_still_passes() {
        // The theorem is invariant under positive scaling of ψ.
        for c in [1e-3, 1.0, 1e12] {
            let pricing = InverseVariancePricing::new(c, model());
            assert!(
                check_theorem_4_2(&pricing, &model(), &TheoremCheckConfig::default()).is_empty(),
                "c={c}"
            );
        }
    }

    #[test]
    fn grid_points_cover_range() {
        let g = grid_points((0.0, 1.0), 5);
        assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn degenerate_grid_panics() {
        let _ = grid_points((0.0, 1.0), 1);
    }
}
