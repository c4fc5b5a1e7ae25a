//! Query sensitivity.
//!
//! The paper perturbs a sampled count as `γ̂ + Lap(Δγ̂/ε)` (§III-B, after
//! Dwork, McSherry, Nissim & Smith, TCC 2006). [`Sensitivity`] is the
//! validated `Δ` of that noise scale; the draw itself is
//! [`crate::laplace::draw_centered`], and
//! [`crate::exponential::ExponentialMechanism`] scores candidates with it.

use crate::error::DpError;

/// A validated query sensitivity: a finite, positive `Δγ`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Sensitivity(f64);

impl Sensitivity {
    /// Wraps a raw sensitivity.
    ///
    /// # Errors
    ///
    /// Returns [`DpError::InvalidSensitivity`] unless `value` is finite
    /// and positive.
    pub fn new(value: f64) -> Result<Self, DpError> {
        if !value.is_finite() || value <= 0.0 {
            return Err(DpError::InvalidSensitivity { value });
        }
        Ok(Sensitivity(value))
    }

    /// The raw sensitivity value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Sensitivity of an exact counting query (one record changes the
    /// count by at most one).
    pub fn unit() -> Self {
        Sensitivity(1.0)
    }
}

impl std::fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Δ={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_validation() {
        assert!(Sensitivity::new(1.0).is_ok());
        assert!(Sensitivity::new(0.0).is_err());
        assert!(Sensitivity::new(-2.0).is_err());
        assert!(Sensitivity::new(f64::NAN).is_err());
        assert_eq!(Sensitivity::unit().value(), 1.0);
        assert_eq!(Sensitivity::new(2.0).unwrap().to_string(), "Δ=2");
    }
}
