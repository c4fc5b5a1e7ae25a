//! The optimal-perturbation problem (§III-B, Eq. 3).
//!
//! Given a customer demand `(α, δ)`, sample rate `p`, and network shape
//! `(k, n)`, the broker must pick an intermediate accuracy `(α′, δ′)` for
//! the sampling stage and a Laplace budget `ε` for the noise stage so that
//! the *composed* answer still meets `(α, δ)`, while the **effective**
//! privacy budget after amplification by sampling,
//! `ε′ = ln(1 + p(e^ε − 1))` (Lemma 3.4), is as small as possible:
//!
//! ```text
//! min  ε′ = ln(1 + p(e^ε − 1))
//! s.t. δ′ = 1 − 8k/(α′·n·p)²            (all samples at rate p are used)
//!      α′ ≤ α,   δ ≤ δ′
//!      Pr[|Lap(Δγ̂/ε)| ≤ (α − α′)n] ≥ δ/δ′
//! ```
//!
//! The tail constraint gives the closed form
//! `ε(α′) = Δγ̂/((α−α′)n) · ln(δ′/(δ′−δ))`; the solver sweeps a discrete
//! grid of `α′ ∈ (0, α)` in ascending order and keeps the minimum: the
//! first error ends the sweep, and the strict `<` keeps the lowest grid
//! point on `ε′` ties.
//!
//! **Direction of the tail constraint.** The paper prints the constraint
//! as `Pr[|Lap(ε)| ≤ (α−α′)n] ≤ δ/δ′`, but its own derivation (and the
//! closed form above) requires `≥` — the noise must be *small enough*
//! with probability at least `δ/δ′` so that `δ′ · Pr[noise small] ≥ δ`.
//! We implement the mathematically consistent direction; see DESIGN.md §3.
//!
//! **Sensitivity.** The sampled estimator's worst-case sensitivity is
//! `n_i`, which would destroy utility; the paper adopts the *expected*
//! sensitivity `Δγ̂ = 1/p`. Both are available via [`SensitivityPolicy`].

use prc_dp::amplification::amplify;
use prc_dp::budget::Epsilon;
use prc_dp::laplace::required_epsilon;
use prc_net::base_station::BaseStation;

use crate::accuracy::achieved_delta;
use crate::error::CoreError;
use crate::query::Accuracy;

pub use prc_pricing::ledger::PlanSummary;

/// How the broker estimates the sensitivity `Δγ̂` of the sampled estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensitivityPolicy {
    /// The paper's choice: the expected sensitivity `1/p`.
    Expected,
    /// The conservative choice: the largest node population `max_i n_i`
    /// (an adversarial record could shift a node's estimate by up to its
    /// whole population).
    WorstCase,
    /// A caller-supplied constant.
    Fixed(f64),
}

/// Shape of the network the optimizer plans for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkShape {
    /// Number of nodes `k`.
    pub k: usize,
    /// Global population `n = |D|`.
    pub n: usize,
    /// Largest per-node population `max_i n_i` (used by
    /// [`SensitivityPolicy::WorstCase`]).
    pub max_node_population: usize,
}

impl NetworkShape {
    /// A shape with `max_node_population` defaulted to `⌈n/k⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `n == 0`.
    pub fn new(k: usize, n: usize) -> Self {
        assert!(k > 0 && n > 0, "network shape must be non-empty");
        NetworkShape {
            k,
            n,
            max_node_population: n.div_ceil(k),
        }
    }

    /// Reads the exact shape from a base station's sample state, in
    /// `O(1)` (the station memoizes its aggregates per revision).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSamples`] when no node has reported.
    pub fn from_station(station: &BaseStation) -> Result<Self, CoreError> {
        let k = station.node_count();
        let n = station.total_population();
        if k == 0 || n == 0 {
            return Err(CoreError::NoSamples);
        }
        Ok(NetworkShape {
            k,
            n,
            max_node_population: station.max_population(),
        })
    }
}

/// Configuration of the grid-search solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Number of `α′` grid points swept inside `(0, α)`.
    pub grid_points: usize,
    /// Sensitivity policy for `Δγ̂`.
    pub sensitivity: SensitivityPolicy,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            grid_points: 200,
            sensitivity: SensitivityPolicy::Expected,
        }
    }
}

/// The optimizer's output: everything the broker needs to perturb one
/// answer, plus the diagnostics the experiments report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbationPlan {
    /// Chosen intermediate error bound `α′ < α`.
    pub alpha_prime: f64,
    /// Confidence `δ′ > δ` achieved by sampling at `α′`.
    pub delta_prime: f64,
    /// Laplace budget `ε` spent on the sample.
    pub epsilon: Epsilon,
    /// Effective budget `ε′ = ln(1 + p(e^ε − 1))` after amplification —
    /// the quantity the optimizer minimizes and the privacy level the
    /// released answer actually enjoys.
    pub effective_epsilon: Epsilon,
    /// Sensitivity `Δγ̂` used to scale the noise.
    pub sensitivity: f64,
    /// Laplace noise scale `b = Δγ̂/ε`.
    pub noise_scale: f64,
    /// Sampling probability the plan assumes.
    pub probability: f64,
    /// Required central noise mass `τ = δ/δ′` at tolerance `(α − α′)n`.
    pub tail_probability: f64,
}

impl PerturbationPlan {
    /// Variance of the Laplace noise this plan injects: `2b²`.
    pub fn noise_variance(&self) -> f64 {
        2.0 * self.noise_scale * self.noise_scale
    }

    /// The plan's release-facing digest: the one place the noise
    /// variance, budgets, and scale are derived for consumers (the
    /// pricing ledger stores it in each settlement record instead of
    /// re-deriving formulas).
    pub fn summary(&self) -> PlanSummary {
        PlanSummary {
            epsilon: self.epsilon.value(),
            effective_epsilon: self.effective_epsilon.value(),
            sensitivity: self.sensitivity,
            noise_scale: self.noise_scale,
            noise_variance: self.noise_variance(),
            probability: self.probability,
        }
    }
}

/// Resolves the sensitivity value for a policy.
fn resolve_sensitivity(
    policy: SensitivityPolicy,
    p: f64,
    shape: NetworkShape,
) -> Result<f64, CoreError> {
    let value = match policy {
        SensitivityPolicy::Expected => 1.0 / p,
        SensitivityPolicy::WorstCase => shape.max_node_population as f64,
        SensitivityPolicy::Fixed(v) => v,
    };
    if !value.is_finite() || value <= 0.0 {
        return Err(CoreError::Dp(prc_dp::DpError::InvalidSensitivity { value }));
    }
    Ok(value)
}

/// Evaluates one grid point `α′`, returning the plan when feasible.
///
/// # Errors
///
/// Returns [`CoreError::InvalidProbability`] for `p ∉ (0, 1]` and
/// propagates sensitivity errors; infeasible grid points return `Ok(None)`.
pub fn plan_for_alpha_prime(
    alpha_prime: f64,
    accuracy: Accuracy,
    p: f64,
    shape: NetworkShape,
    config: &OptimizerConfig,
) -> Result<Option<PerturbationPlan>, CoreError> {
    let alpha = accuracy.alpha();
    let delta = accuracy.delta();
    if !(alpha_prime > 0.0 && alpha_prime < alpha) {
        return Ok(None);
    }
    let delta_prime = achieved_delta(p, alpha_prime, shape.k, shape.n)?;
    if delta_prime <= delta {
        return Ok(None);
    }
    // τ = δ/δ′ is the central mass the noise must keep within (α−α′)n.
    let tau = delta / delta_prime;
    let tolerance = (alpha - alpha_prime) * shape.n as f64;
    let sensitivity = resolve_sensitivity(config.sensitivity, p, shape)?;
    let eps_value = required_epsilon(sensitivity, tolerance, tau)?;
    let noise_scale = sensitivity / eps_value;
    // A subnormal ε gives an infinite noise scale, which no draw can use.
    if eps_value <= 0.0 || !eps_value.is_finite() || !noise_scale.is_finite() {
        return Ok(None);
    }
    let epsilon = Epsilon::new(eps_value)?;
    let effective_epsilon = amplify(epsilon, p)?;
    Ok(Some(PerturbationPlan {
        alpha_prime,
        delta_prime,
        epsilon,
        effective_epsilon,
        sensitivity,
        noise_scale,
        probability: p,
        tail_probability: tau,
    }))
}

/// Solves the paper's optimization problem (3): sweeps `α′` over a grid in
/// `(0, α)` and returns the feasible plan with the smallest effective
/// budget `ε′`.
///
/// # Examples
///
/// ```
/// use prc_core::optimizer::{optimize, NetworkShape, OptimizerConfig};
/// use prc_core::query::Accuracy;
///
/// # fn main() -> Result<(), prc_core::CoreError> {
/// let shape = NetworkShape::new(50, 17_568);
/// let plan = optimize(Accuracy::new(0.08, 0.6)?, 0.4, shape, &OptimizerConfig::default())?;
/// // The two-phase split is strict, and amplification tightened the budget.
/// assert!(plan.alpha_prime < 0.08 && plan.delta_prime > 0.6);
/// assert!(plan.effective_epsilon < plan.epsilon);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`CoreError::InvalidProbability`] — `p ∉ (0, 1]`;
/// * [`CoreError::InfeasibleAccuracy`] — no grid point satisfies the
///   constraints; the error carries the sampling probability that would
///   make the demand feasible so the broker can top up;
/// * [`CoreError::InvalidAccuracy`] — no grid point is feasible although
///   `p` already reaches that probability, so no top-up can help.
pub fn optimize(
    accuracy: Accuracy,
    p: f64,
    shape: NetworkShape,
    config: &OptimizerConfig,
) -> Result<PerturbationPlan, CoreError> {
    if !(0.0..=1.0).contains(&p) || p == 0.0 {
        return Err(CoreError::InvalidProbability { value: p });
    }
    let alpha = accuracy.alpha();
    let grid_points = config.grid_points.max(2);
    let mut best: Option<PerturbationPlan> = None;
    for j in 1..=grid_points {
        let alpha_prime = alpha * j as f64 / (grid_points + 1) as f64;
        if let Some(plan) = plan_for_alpha_prime(alpha_prime, accuracy, p, shape, config)? {
            if best
                .as_ref()
                .is_none_or(|b| plan.effective_epsilon < b.effective_epsilon)
            {
                best = Some(plan);
            }
        }
    }
    best.ok_or_else(|| {
        // Feasibility needs δ′(α′) > δ for some α′ < α; report the p that
        // achieves δ′ = (1+δ)/2 at α′ = 0.9α, a comfortably feasible point.
        let required = Accuracy::new(0.9 * alpha, (1.0 + accuracy.delta()) / 2.0)
            .ok()
            .and_then(|target| {
                crate::accuracy::required_probability_clamped(target, shape.k, shape.n).ok()
            })
            .unwrap_or(1.0);
        // A top-up to a rate the station already has cannot help.
        if required <= p {
            return CoreError::InvalidAccuracy {
                alpha,
                delta: accuracy.delta(),
            };
        }
        CoreError::InfeasibleAccuracy {
            available_probability: p,
            required_probability: required,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prc_dp::laplace::Laplace;

    fn acc(a: f64, d: f64) -> Accuracy {
        Accuracy::new(a, d).unwrap()
    }

    fn shape() -> NetworkShape {
        NetworkShape::new(50, 17_568)
    }

    #[test]
    fn optimal_plan_satisfies_every_constraint() {
        let accuracy = acc(0.08, 0.6);
        let p = 0.4;
        let plan = optimize(accuracy, p, shape(), &OptimizerConfig::default()).unwrap();

        // α′ < α and δ′ > δ.
        assert!(plan.alpha_prime > 0.0 && plan.alpha_prime < accuracy.alpha());
        assert!(plan.delta_prime > accuracy.delta() && plan.delta_prime <= 1.0);

        // δ′ consistency with Theorem 3.3's inverse.
        let d = achieved_delta(p, plan.alpha_prime, 50, 17_568).unwrap();
        assert!((d - plan.delta_prime).abs() < 1e-12);

        // The Laplace tail constraint holds with equality at the optimum.
        let noise = Laplace::centered(plan.noise_scale).unwrap();
        let tolerance = (accuracy.alpha() - plan.alpha_prime) * 17_568.0;
        let mass = noise.central_probability(tolerance);
        assert!(
            (mass - plan.tail_probability).abs() < 1e-9,
            "mass {mass} vs τ {}",
            plan.tail_probability
        );
        // Composition: δ′ · τ ≥ δ.
        assert!(plan.delta_prime * mass >= accuracy.delta() - 1e-9);

        // Amplification consistency.
        let amplified = amplify(plan.epsilon, p).unwrap();
        assert!((amplified.value() - plan.effective_epsilon.value()).abs() < 1e-12);
        assert!(plan.effective_epsilon.value() < plan.epsilon.value());

        // Expected sensitivity = 1/p.
        assert!((plan.sensitivity - 1.0 / p).abs() < 1e-12);
        assert!(plan.noise_variance() > 0.0);
    }

    #[test]
    fn optimum_beats_arbitrary_feasible_points() {
        let accuracy = acc(0.1, 0.5);
        let p = 0.3;
        let config = OptimizerConfig::default();
        let best = optimize(accuracy, p, shape(), &config).unwrap();
        for frac in [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95] {
            let alpha_prime = accuracy.alpha() * frac;
            if let Some(plan) =
                plan_for_alpha_prime(alpha_prime, accuracy, p, shape(), &config).unwrap()
            {
                assert!(
                    best.effective_epsilon.value() <= plan.effective_epsilon.value() + 1e-9,
                    "grid point {frac} beat the optimum"
                );
            }
        }
    }

    #[test]
    fn more_samples_allow_stronger_privacy() {
        let accuracy = acc(0.08, 0.6);
        let config = OptimizerConfig::default();
        let low = optimize(accuracy, 0.2, shape(), &config).unwrap();
        let high = optimize(accuracy, 0.6, shape(), &config).unwrap();
        assert!(
            high.effective_epsilon.value() < low.effective_epsilon.value(),
            "p=0.6 should yield smaller ε′ than p=0.2 ({} vs {})",
            high.effective_epsilon,
            low.effective_epsilon
        );
    }

    #[test]
    fn looser_accuracy_allows_stronger_privacy() {
        let config = OptimizerConfig::default();
        let p = 0.4;
        let strict = optimize(acc(0.05, 0.8), p, shape(), &config).unwrap();
        let loose = optimize(acc(0.2, 0.5), p, shape(), &config).unwrap();
        assert!(loose.effective_epsilon.value() < strict.effective_epsilon.value());
    }

    #[test]
    fn infeasible_demand_reports_required_probability() {
        // Tiny p cannot satisfy a strict demand.
        let accuracy = acc(0.02, 0.95);
        let err = optimize(accuracy, 0.01, shape(), &OptimizerConfig::default()).unwrap_err();
        match err {
            CoreError::InfeasibleAccuracy {
                available_probability,
                required_probability,
            } => {
                assert_eq!(available_probability, 0.01);
                assert!(required_probability > 0.01);
                // Topping up to the hinted probability must make the
                // demand feasible.
                let plan = optimize(
                    accuracy,
                    required_probability,
                    shape(),
                    &OptimizerConfig::default(),
                );
                assert!(plan.is_ok(), "hinted probability still infeasible");
            }
            other => panic!("expected InfeasibleAccuracy, got {other:?}"),
        }
    }

    #[test]
    fn invalid_probability_is_rejected() {
        let accuracy = acc(0.1, 0.5);
        for p in [0.0, -0.1, 1.5, f64::NAN] {
            assert!(matches!(
                optimize(accuracy, p, shape(), &OptimizerConfig::default()),
                Err(CoreError::InvalidProbability { .. })
            ));
        }
    }

    #[test]
    fn worst_case_sensitivity_needs_more_noise() {
        let accuracy = acc(0.1, 0.5);
        let p = 0.4;
        let expected = optimize(
            accuracy,
            p,
            shape(),
            &OptimizerConfig {
                sensitivity: SensitivityPolicy::Expected,
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        let worst = optimize(
            accuracy,
            p,
            shape(),
            &OptimizerConfig {
                sensitivity: SensitivityPolicy::WorstCase,
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        // Same tolerance must be met, so worst-case sensitivity forces a
        // larger ε (weaker privacy).
        assert!(worst.epsilon.value() > expected.epsilon.value());
        assert!(worst.sensitivity > expected.sensitivity);
    }

    #[test]
    fn fixed_sensitivity_policy() {
        let accuracy = acc(0.1, 0.5);
        let plan = optimize(
            accuracy,
            0.4,
            shape(),
            &OptimizerConfig {
                sensitivity: SensitivityPolicy::Fixed(3.0),
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plan.sensitivity, 3.0);
        let bad = optimize(
            accuracy,
            0.4,
            shape(),
            &OptimizerConfig {
                sensitivity: SensitivityPolicy::Fixed(-1.0),
                ..OptimizerConfig::default()
            },
        );
        assert!(bad.is_err());
    }

    #[test]
    fn finer_grids_never_hurt() {
        let accuracy = acc(0.08, 0.6);
        let p = 0.4;
        let coarse = optimize(
            accuracy,
            p,
            shape(),
            &OptimizerConfig {
                grid_points: 10,
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        let fine = optimize(
            accuracy,
            p,
            shape(),
            &OptimizerConfig {
                grid_points: 2_000,
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        assert!(fine.effective_epsilon.value() <= coarse.effective_epsilon.value() + 1e-9);
    }

    #[test]
    fn large_grid_sweep_is_bit_identical_to_the_inline_reference() {
        let accuracy = acc(0.08, 0.6);
        let p = 0.4;
        let grid_points = 1_024;
        let config = OptimizerConfig {
            grid_points,
            ..OptimizerConfig::default()
        };
        let plan = optimize(accuracy, p, shape(), &config).unwrap();
        // Reference: the plain loop over the same grid.
        let mut best: Option<PerturbationPlan> = None;
        for j in 1..=grid_points {
            let alpha_prime = accuracy.alpha() * j as f64 / (grid_points + 1) as f64;
            if let Some(candidate) =
                plan_for_alpha_prime(alpha_prime, accuracy, p, shape(), &config).unwrap()
            {
                let better = best
                    .as_ref()
                    .is_none_or(|b| candidate.effective_epsilon < b.effective_epsilon);
                if better {
                    best = Some(candidate);
                }
            }
        }
        let reference = best.unwrap();
        assert_eq!(plan.alpha_prime.to_bits(), reference.alpha_prime.to_bits());
        assert_eq!(
            plan.effective_epsilon.value().to_bits(),
            reference.effective_epsilon.value().to_bits()
        );
        assert_eq!(plan.noise_scale.to_bits(), reference.noise_scale.to_bits());
    }

    #[test]
    fn large_grid_sweep_reports_infeasibility() {
        let accuracy = acc(0.02, 0.95);
        let config = OptimizerConfig {
            grid_points: 1_024,
            ..OptimizerConfig::default()
        };
        let err = optimize(accuracy, 0.01, shape(), &config).unwrap_err();
        assert!(matches!(err, CoreError::InfeasibleAccuracy { .. }));
    }

    #[test]
    fn network_shape_constructors() {
        let s = NetworkShape::new(3, 10);
        assert_eq!(s.max_node_population, 4);
        let s = NetworkShape::new(5, 10);
        assert_eq!(s.max_node_population, 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_shape_panics() {
        let _ = NetworkShape::new(0, 10);
    }

    #[test]
    fn shape_from_station() {
        use prc_net::message::{NodeId, SampleMessage};
        let mut station = BaseStation::new();
        assert!(matches!(
            NetworkShape::from_station(&station),
            Err(CoreError::NoSamples)
        ));
        station.ingest(SampleMessage {
            node_id: NodeId(0),
            population_size: 30,
            probability: 0.2,
            entries: vec![],
        });
        station.ingest(SampleMessage {
            node_id: NodeId(1),
            population_size: 70,
            probability: 0.2,
            entries: vec![],
        });
        let shape = NetworkShape::from_station(&station).unwrap();
        assert_eq!(shape.k, 2);
        assert_eq!(shape.n, 100);
        assert_eq!(shape.max_node_population, 70);
    }

    #[test]
    fn plan_summary_is_consistent_with_the_plan() {
        let plan = PerturbationPlan {
            alpha_prime: 0.05,
            delta_prime: 0.8,
            epsilon: Epsilon::new(1.5).unwrap(),
            effective_epsilon: Epsilon::new(0.9).unwrap(),
            sensitivity: 2.5,
            noise_scale: 2.5 / 1.5,
            probability: 0.4,
            tail_probability: 0.75,
        };
        let summary = plan.summary();
        assert_eq!(summary.noise_variance, plan.noise_variance());
        assert_eq!(summary.epsilon, 1.5);
        assert_eq!(summary.effective_epsilon, 0.9);
        assert_eq!(summary.probability, 0.4);
        let rendered = summary.to_string();
        assert!(rendered.contains("ε=1.5"));
        assert!(rendered.contains("p=0.4"));
    }
}
