//! The arbitrage attack simulator (Definition 2.3, Example 4.1).
//!
//! An adversary who wants a `Λ(α, δ)` answer may instead buy a *bundle*
//! `{Λ(α₁, δ₁), …, Λ(α_m, δ_m)}` of strictly cheaper (higher-variance)
//! answers to the same range and average them with equal weights
//! (Eq. 4); the averaged result has variance `(1/m²)·Σ V(αᵢ, δᵢ)`. The
//! bundle is an **arbitrage** when it reaches the target's variance at a
//! strictly lower total price.
//!
//! [`find_arbitrage`] searches both *uniform* bundles (m identical
//! purchases — the classic attack of Example 4.1) and random
//! *mixed-variance* bundles, and reports every winning attack it finds.
//! An empty result certifies the pricing function against this attack
//! class on the probed targets.

// prc-lint: allow(B003, reason = "seeded attack-simulator randomness; not privacy noise")
use rand::{rngs::StdRng, RngExt, SeedableRng};

use crate::functions::PricingFunction;
use crate::variance::VarianceModel;

/// One successful arbitrage found by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbitrageAttack {
    /// The accuracy the adversary actually wanted.
    pub target: (f64, f64),
    /// Posted price of the target answer.
    pub target_price: f64,
    /// Variance of the target answer.
    pub target_variance: f64,
    /// The accuracies bought instead.
    pub bundle: Vec<(f64, f64)>,
    /// Total price of the bundle.
    pub bundle_cost: f64,
    /// Variance of the equal-weight average of the bundle.
    pub bundle_variance: f64,
}

impl ArbitrageAttack {
    /// The adversary's saving, `target_price − bundle_cost`.
    pub fn saving(&self) -> f64 {
        self.target_price - self.bundle_cost
    }
}

/// Search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Largest bundle size `m` tried.
    pub max_bundle_size: usize,
    /// Number of candidate accuracies probed per axis for uniform bundles.
    pub candidate_grid: usize,
    /// Number of random mixed bundles tried per (target, m) pair.
    pub mixed_trials: usize,
    /// RNG seed for the mixed-bundle search.
    pub seed: u64,
    /// Required relative saving before a bundle counts as arbitrage
    /// (guards against floating-point ties).
    pub min_relative_saving: f64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            max_bundle_size: 12,
            candidate_grid: 24,
            mixed_trials: 64,
            seed: 0x5eed,
            min_relative_saving: 1e-9,
        }
    }
}

/// Searches for arbitrage against `pricing` on each target accuracy.
///
/// Candidate purchases are drawn from the economically sensible region
/// `αᵢ ≥ α, δᵢ ≤ δ` (strictly cheaper single answers, per
/// Definition 2.3) and a bundle qualifies only if its averaged variance
/// is at most the target's.
///
/// # Examples
///
/// ```
/// use prc_pricing::arbitrage::{find_arbitrage, AttackConfig};
/// use prc_pricing::functions::{InverseVariancePricing, LinearDeltaPricing};
/// use prc_pricing::variance::ChebyshevVariance;
///
/// let model = ChebyshevVariance::new(10_000);
/// let targets = [(0.05, 0.8)];
/// // The canonical price resists the attack…
/// let safe = InverseVariancePricing::new(1e6, model);
/// assert!(find_arbitrage(&safe, &model, &targets, &AttackConfig::default()).is_empty());
/// // …while a price that ignores the variance is exploited.
/// let broken = LinearDeltaPricing::new(10.0);
/// assert!(!find_arbitrage(&broken, &model, &targets, &AttackConfig::default()).is_empty());
/// ```
pub fn find_arbitrage<F, M>(
    pricing: &F,
    model: &M,
    targets: &[(f64, f64)],
    config: &AttackConfig,
) -> Vec<ArbitrageAttack>
where
    F: PricingFunction,
    M: VarianceModel,
{
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut attacks = Vec::new();

    for &(alpha, delta) in targets {
        let target_price = pricing.price(alpha, delta);
        let target_variance = model.variance(alpha, delta);

        // Candidate cheaper accuracies: α′ ∈ [α, α_max], δ′ ∈ (0, δ].
        let candidates = candidate_accuracies(alpha, delta, config.candidate_grid);

        // Uniform bundles: buy the same candidate m times; the average
        // has variance V(candidate)/m.
        for &(ca, cd) in &candidates {
            let cv = model.variance(ca, cd);
            let cp = pricing.price(ca, cd);
            for m in 2..=config.max_bundle_size {
                let combined_variance = cv / m as f64;
                if combined_variance > target_variance {
                    continue;
                }
                let bundle_cost = cp * m as f64;
                if bundle_cost < target_price * (1.0 - config.min_relative_saving) {
                    attacks.push(ArbitrageAttack {
                        target: (alpha, delta),
                        target_price,
                        target_variance,
                        bundle: vec![(ca, cd); m],
                        bundle_cost,
                        bundle_variance: combined_variance,
                    });
                }
            }
        }

        // Mixed bundles: random multisets of candidates.
        if !candidates.is_empty() {
            for m in 2..=config.max_bundle_size {
                for _ in 0..config.mixed_trials {
                    let bundle: Vec<(f64, f64)> = (0..m)
                        .map(|_| candidates[rng.random_range(0..candidates.len())])
                        .collect();
                    let total_variance: f64 =
                        bundle.iter().map(|&(a, d)| model.variance(a, d)).sum();
                    let combined_variance = total_variance / (m * m) as f64;
                    if combined_variance > target_variance {
                        continue;
                    }
                    let bundle_cost: f64 = bundle.iter().map(|&(a, d)| pricing.price(a, d)).sum();
                    if bundle_cost < target_price * (1.0 - config.min_relative_saving) {
                        attacks.push(ArbitrageAttack {
                            target: (alpha, delta),
                            target_price,
                            target_variance,
                            bundle,
                            bundle_cost,
                            bundle_variance: combined_variance,
                        });
                    }
                }
            }
        }
    }

    attacks
}

/// Certifies a pricing function against the simulator's attack class.
///
/// # Errors
///
/// Returns the attacks found, if any.
pub fn certify<F, M>(
    pricing: &F,
    model: &M,
    targets: &[(f64, f64)],
    config: &AttackConfig,
) -> Result<(), Vec<ArbitrageAttack>>
where
    F: PricingFunction,
    M: VarianceModel,
{
    let attacks = find_arbitrage(pricing, model, targets, config);
    if attacks.is_empty() {
        Ok(())
    } else {
        Err(attacks)
    }
}

/// Grid of strictly-cheaper accuracies `(α′ ≥ α, δ′ ≤ δ)` excluding the
/// target itself.
fn candidate_accuracies(alpha: f64, delta: f64, grid: usize) -> Vec<(f64, f64)> {
    let alpha_hi = 0.95_f64.max(alpha + 1e-6).min(0.99);
    let delta_lo = 0.01_f64.min(delta / 2.0).max(1e-4);
    let mut out = Vec::new();
    for i in 0..grid {
        let a = alpha + (alpha_hi - alpha) * i as f64 / grid.max(1) as f64;
        for j in 0..grid {
            let d = delta_lo + (delta - delta_lo) * j as f64 / grid.max(1) as f64;
            if a >= alpha && d <= delta && (a, d) != (alpha, delta) && a < 1.0 && d > 0.0 {
                out.push((a, d));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{
        InverseVariancePricing, LinearDeltaPricing, LogPrecisionPricing, SqrtPrecisionPricing,
    };
    use crate::variance::ChebyshevVariance;

    fn model() -> ChebyshevVariance {
        ChebyshevVariance::new(17_568)
    }

    fn targets() -> Vec<(f64, f64)> {
        vec![(0.02, 0.9), (0.05, 0.8), (0.1, 0.5), (0.3, 0.6)]
    }

    #[test]
    fn inverse_variance_is_attack_free() {
        let pricing = InverseVariancePricing::new(1e9, model());
        assert!(certify(&pricing, &model(), &targets(), &AttackConfig::default()).is_ok());
    }

    #[test]
    fn sqrt_precision_is_attack_free_operationally() {
        // c/√V fails the literal Theorem 4.2 checker but no equal-weight
        // averaging bundle beats it — the operational guarantee holds.
        let pricing = SqrtPrecisionPricing::new(1e5, model());
        assert!(certify(&pricing, &model(), &targets(), &AttackConfig::default()).is_ok());
    }

    #[test]
    fn log_precision_is_attack_free_operationally() {
        let pricing = LogPrecisionPricing::new(100.0, model());
        assert!(certify(&pricing, &model(), &targets(), &AttackConfig::default()).is_ok());
    }

    #[test]
    fn broken_pricing_is_attacked() {
        let pricing = LinearDeltaPricing::new(10.0);
        let attacks = find_arbitrage(&pricing, &model(), &targets(), &AttackConfig::default());
        assert!(
            !attacks.is_empty(),
            "the broken function must be exploitable"
        );
        for attack in &attacks {
            // Every reported attack must really be one.
            assert!(attack.bundle_variance <= attack.target_variance + 1e-9);
            assert!(attack.bundle_cost < attack.target_price);
            assert!(attack.saving() > 0.0);
            assert!(attack.bundle.len() >= 2);
            // All purchases are individually cheaper accuracies.
            for &(a, d) in &attack.bundle {
                assert!(a >= attack.target.0);
                assert!(d <= attack.target.1);
            }
        }
    }

    #[test]
    fn reported_attacks_replay_correctly() {
        // Recompute each attack's numbers from scratch.
        let pricing = LinearDeltaPricing::new(3.0);
        let m = model();
        let attacks = find_arbitrage(&pricing, &m, &[(0.05, 0.9)], &AttackConfig::default());
        assert!(!attacks.is_empty());
        for attack in attacks.iter().take(20) {
            let cost: f64 = attack
                .bundle
                .iter()
                .map(|&(a, d)| pricing.price(a, d))
                .sum();
            assert!((cost - attack.bundle_cost).abs() < 1e-9);
            let var: f64 = attack
                .bundle
                .iter()
                .map(|&(a, d)| m.variance(a, d))
                .sum::<f64>()
                / (attack.bundle.len() * attack.bundle.len()) as f64;
            assert!((var - attack.bundle_variance).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let pricing = LinearDeltaPricing::new(10.0);
        let a = find_arbitrage(&pricing, &model(), &targets(), &AttackConfig::default());
        let b = find_arbitrage(&pricing, &model(), &targets(), &AttackConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn candidates_are_strictly_cheaper_region() {
        let c = candidate_accuracies(0.1, 0.6, 8);
        assert!(!c.is_empty());
        for (a, d) in c {
            assert!((0.1..1.0).contains(&a));
            assert!(d <= 0.6 && d > 0.0);
        }
    }
}
