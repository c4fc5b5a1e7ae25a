//! The Laplace (double-exponential) distribution.
//!
//! The paper's perturbation step adds `Lap(Δγ̂/ε)` noise to the sampled
//! range count (§III-B). The optimizer additionally needs the tail bound
//! `Pr[|Lap(b)| ≤ t] = 1 − e^(−t/b)` and its inverses, which are exposed
//! here as [`Laplace::central_probability`], [`Laplace::scale_for_tail`],
//! and [`required_epsilon`].

use rand::{Rng, RngExt};

use crate::error::DpError;

/// A Laplace distribution with location `μ` and scale `b > 0`.
///
/// Density: `f(x) = exp(−|x − μ|/b) / (2b)`; variance `2b²`.
///
/// # Examples
///
/// ```
/// use prc_dp::laplace::Laplace;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), prc_dp::DpError> {
/// let noise = Laplace::centered(2.0)?;
/// assert_eq!(noise.variance(), 8.0);
/// // Pr[|Lap(2)| ≤ 4] = 1 − e^(−2).
/// assert!((noise.central_probability(4.0) - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let sample = noise.sample(&mut rng);
/// assert!(sample.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Laplace {
    location: f64,
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DpError::InvalidScale`] unless `scale` is finite and positive.
    pub fn new(location: f64, scale: f64) -> Result<Self, DpError> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(DpError::InvalidScale { value: scale });
        }
        if !location.is_finite() {
            return Err(DpError::InvalidScale { value: location });
        }
        Ok(Laplace { location, scale })
    }

    /// A zero-centred Laplace distribution.
    ///
    /// # Errors
    ///
    /// Returns [`DpError::InvalidScale`] unless `scale` is finite and positive.
    pub fn centered(scale: f64) -> Result<Self, DpError> {
        Laplace::new(0.0, scale)
    }

    /// The location parameter `μ`.
    pub fn location(&self) -> f64 {
        self.location
    }

    /// The scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The variance `2b²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (-(x - self.location).abs() / self.scale).exp() / (2.0 * self.scale)
    }

    /// Cumulative distribution `Pr[X ≤ x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.location) / self.scale;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }

    /// Quantile (inverse CDF) at probability `q ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            q > 0.0 && q < 1.0,
            "quantile probability must be in (0,1), got {q}"
        );
        if q < 0.5 {
            self.location + self.scale * (2.0 * q).ln()
        } else {
            self.location - self.scale * (2.0 - 2.0 * q).ln()
        }
    }

    /// `Pr[|X − μ| ≤ t] = 1 − e^(−t/b)` — the central (two-sided) mass.
    ///
    /// Returns `0` for negative `t`.
    pub fn central_probability(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        1.0 - (-t / self.scale).exp()
    }

    /// The scale `b` for which `Pr[|Lap(b)| ≤ t] = prob`.
    ///
    /// # Errors
    ///
    /// Returns [`DpError::InvalidProbability`] unless `prob ∈ (0, 1)`, and
    /// [`DpError::InvalidScale`] unless `t` is finite and positive.
    pub fn scale_for_tail(t: f64, prob: f64) -> Result<f64, DpError> {
        if !(0.0..1.0).contains(&prob) || prob == 0.0 {
            return Err(DpError::InvalidProbability {
                value: prob,
                expected: "in (0, 1)",
            });
        }
        if !t.is_finite() || t <= 0.0 {
            return Err(DpError::InvalidScale { value: t });
        }
        Ok(-t / (1.0 - prob).ln())
    }

    /// Draws one sample using inverse-CDF sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u uniform in (-0.5, 0.5]; sign(u) * ln(1 - 2|u|) inverts the CDF.
        let u: f64 = rng.random::<f64>() - 0.5;
        let magnitude = -(1.0 - 2.0 * u.abs()).ln() * self.scale;
        if u < 0.0 {
            self.location - magnitude
        } else {
            self.location + magnitude
        }
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Draws one zero-centred `Lap(scale)` noise value.
///
/// This is the workspace's sanctioned noise-draw entry point: callers
/// outside `prc-dp` must route every Laplace draw through it (enforced
/// by `prc-lint` rules B001/B002) so the draw site stays adjacent to the
/// budget accounting that justifies it. Identical in distribution — and
/// in the consumed RNG stream — to `Laplace::centered(scale)?.sample(rng)`.
///
/// # Errors
///
/// Returns [`DpError::InvalidScale`] unless `scale` is finite and positive.
pub fn draw_centered<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> Result<f64, DpError> {
    Ok(Laplace::centered(scale)?.sample(rng))
}

/// `Pr[|Lap(scale)| ≤ t]` without constructing a distribution at the
/// call site.
///
/// Companion to [`draw_centered`] for callers (the plan auditor) that
/// only need the tail bound of a centred Laplace; keeps `Laplace`
/// construction inside `prc-dp` (rule B002).
///
/// # Errors
///
/// Returns [`DpError::InvalidScale`] unless `scale` is finite and positive.
pub fn central_probability(scale: f64, t: f64) -> Result<f64, DpError> {
    Ok(Laplace::centered(scale)?.central_probability(t))
}

/// Minimum `ε` such that `Lap(sensitivity/ε)` satisfies
/// `Pr[|noise| ≤ t] ≥ prob`.
///
/// This is the closed form used by the paper's optimizer:
/// `ε ≥ (Δ/t) · ln(1/(1 − prob))`.
///
/// # Errors
///
/// Returns [`DpError::InvalidProbability`] unless `prob ∈ [0, 1)`;
/// [`DpError::InvalidScale`] unless `t` is finite and positive;
/// [`DpError::InvalidSensitivity`] unless `sensitivity` is finite and positive.
pub fn required_epsilon(sensitivity: f64, t: f64, prob: f64) -> Result<f64, DpError> {
    if !(0.0..1.0).contains(&prob) {
        return Err(DpError::InvalidProbability {
            value: prob,
            expected: "in [0, 1)",
        });
    }
    if !t.is_finite() || t <= 0.0 {
        return Err(DpError::InvalidScale { value: t });
    }
    if !sensitivity.is_finite() || sensitivity <= 0.0 {
        return Err(DpError::InvalidSensitivity { value: sensitivity });
    }
    // Where 1 − prob rounds to 1, −ln(1 − prob) equals prob to double
    // precision, while the closed form would read 0.
    let keep = 1.0 - prob;
    let log_term = if keep == 1.0 { prob } else { (1.0 / keep).ln() };
    Ok(sensitivity / t * log_term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_scale() {
        assert!(Laplace::new(0.0, 1.0).is_ok());
        assert!(matches!(
            Laplace::new(0.0, 0.0),
            Err(DpError::InvalidScale { .. })
        ));
        assert!(Laplace::new(0.0, -1.0).is_err());
        assert!(Laplace::new(0.0, f64::NAN).is_err());
        assert!(Laplace::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn pdf_integrates_to_one_numerically() {
        let d = Laplace::new(1.0, 2.0).unwrap();
        let mut total = 0.0;
        let step = 0.01;
        let mut x = -60.0;
        while x < 60.0 {
            total += d.pdf(x) * step;
            x += step;
        }
        assert!((total - 1.0).abs() < 1e-3, "integral {total}");
    }

    #[test]
    fn cdf_properties() {
        let d = Laplace::new(0.0, 1.0).unwrap();
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!(d.cdf(-30.0) < 1e-12);
        assert!(d.cdf(30.0) > 1.0 - 1e-12);
        // CDF is monotone.
        let mut prev = 0.0;
        let mut x = -10.0;
        while x <= 10.0 {
            let c = d.cdf(x);
            assert!(c >= prev);
            prev = c;
            x += 0.1;
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Laplace::new(3.0, 0.7).unwrap();
        for q in [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let x = d.quantile(q);
            assert!((d.cdf(x) - q).abs() < 1e-12, "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn quantile_rejects_out_of_range() {
        Laplace::new(0.0, 1.0).unwrap().quantile(1.0);
    }

    #[test]
    fn central_probability_matches_cdf_difference() {
        let d = Laplace::new(0.0, 2.0).unwrap();
        for t in [0.1, 0.5, 1.0, 4.0, 10.0] {
            let direct = d.central_probability(t);
            let via_cdf = d.cdf(t) - d.cdf(-t);
            assert!((direct - via_cdf).abs() < 1e-12, "t={t}");
        }
        assert_eq!(d.central_probability(-1.0), 0.0);
    }

    #[test]
    fn scale_for_tail_round_trips() {
        let t = 5.0;
        let prob = 0.8;
        let b = Laplace::scale_for_tail(t, prob).unwrap();
        let d = Laplace::centered(b).unwrap();
        assert!((d.central_probability(t) - prob).abs() < 1e-12);
    }

    #[test]
    fn scale_for_tail_validates() {
        assert!(Laplace::scale_for_tail(1.0, 0.0).is_err());
        assert!(Laplace::scale_for_tail(1.0, 1.0).is_err());
        assert!(Laplace::scale_for_tail(0.0, 0.5).is_err());
        assert!(Laplace::scale_for_tail(-2.0, 0.5).is_err());
    }

    #[test]
    fn required_epsilon_satisfies_tail_bound() {
        // The minimal epsilon must achieve exactly the requested central mass.
        let sensitivity = 2.5;
        let t = 40.0;
        let prob = 0.9;
        let eps = required_epsilon(sensitivity, t, prob).unwrap();
        let d = Laplace::centered(sensitivity / eps).unwrap();
        assert!((d.central_probability(t) - prob).abs() < 1e-12);
        // A smaller epsilon (more noise) must fail the bound.
        let d_less = Laplace::centered(sensitivity / (eps * 0.9)).unwrap();
        assert!(d_less.central_probability(t) < prob);
    }

    #[test]
    fn required_epsilon_zero_prob_is_zero() {
        // prob = 0 needs no noise control at all.
        assert_eq!(required_epsilon(1.0, 1.0, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn required_epsilon_stays_positive_below_the_rounding_of_one_minus_prob() {
        // 1 − 1e-20 rounds to 1, so ln(1/(1 − prob)) reads 0 there.
        let eps = required_epsilon(2.0, 4.0, 1e-20).unwrap();
        assert_eq!(eps, 0.5 * 1e-20);
        let subnormal = required_epsilon(1.0, 1.0, f64::from_bits(1)).unwrap();
        assert_eq!(subnormal.to_bits(), 1);
    }

    #[test]
    fn required_epsilon_validates() {
        assert!(required_epsilon(1.0, 1.0, 1.0).is_err());
        assert!(required_epsilon(1.0, 1.0, -0.1).is_err());
        assert!(required_epsilon(1.0, 0.0, 0.5).is_err());
        assert!(required_epsilon(0.0, 1.0, 0.5).is_err());
        assert!(required_epsilon(f64::NAN, 1.0, 0.5).is_err());
    }

    #[test]
    fn sampler_moments_match_theory() {
        let d = Laplace::new(5.0, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 400_000;
        let samples = d.sample_n(&mut rng, n);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!(
            (var - d.variance()).abs() / d.variance() < 0.02,
            "var {var}"
        );
    }

    #[test]
    fn sampler_matches_cdf_empirically() {
        // Kolmogorov–Smirnov style check at a few fixed points.
        let d = Laplace::new(0.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples = d.sample_n(&mut rng, n);
        for x in [-3.0, -1.0, 0.0, 0.5, 2.0] {
            let empirical = samples.iter().filter(|&&s| s <= x).count() as f64 / n as f64;
            assert!(
                (empirical - d.cdf(x)).abs() < 0.005,
                "x={x}: empirical {empirical} vs {}",
                d.cdf(x)
            );
        }
    }

    #[test]
    fn sampler_tail_matches_central_probability() {
        let d = Laplace::centered(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let n = 200_000;
        let samples = d.sample_n(&mut rng, n);
        for t in [0.5, 1.0, 3.0] {
            let empirical = samples.iter().filter(|&&s| s.abs() <= t).count() as f64 / n as f64;
            assert!(
                (empirical - d.central_probability(t)).abs() < 0.005,
                "t={t}"
            );
        }
    }

    #[test]
    fn variance_formula() {
        assert_eq!(Laplace::centered(3.0).unwrap().variance(), 18.0);
    }

    #[test]
    fn draw_centered_matches_construct_then_sample_bit_for_bit() {
        // The sanctioned entry point must consume the RNG stream exactly
        // like the two-step form, so routing call sites through it never
        // moves released bits.
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let d = Laplace::centered(1.75).unwrap();
        for _ in 0..1_000 {
            let a = draw_centered(1.75, &mut rng_a).unwrap();
            let b = d.sample(&mut rng_b);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn draw_centered_rejects_bad_scales() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(draw_centered(0.0, &mut rng).is_err());
        assert!(draw_centered(-1.0, &mut rng).is_err());
        assert!(draw_centered(f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn free_central_probability_matches_method() {
        let d = Laplace::centered(2.0).unwrap();
        for t in [0.0, 0.5, 4.0] {
            assert_eq!(
                central_probability(2.0, t).unwrap(),
                d.central_probability(t)
            );
        }
        assert!(central_probability(0.0, 1.0).is_err());
    }
}
