//! Queries and accuracy demands.

use crate::error::CoreError;

/// A closed range `[l, u]` of data values (Definition 2.1).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RangeQuery {
    l: f64,
    u: f64,
}

impl RangeQuery {
    /// Creates a range query.
    ///
    /// A `−0.0` bound is stored as `+0.0`: both select the same values,
    /// so every range-keyed map (answer cache, purchase history) sees
    /// one range.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidRange`] when a bound is NaN or `l > u`.
    pub fn new(l: f64, u: f64) -> Result<Self, CoreError> {
        if l.is_nan() || u.is_nan() || l > u {
            return Err(CoreError::InvalidRange { l, u });
        }
        let canonical = |bound: f64| if bound == 0.0 { 0.0 } else { bound };
        Ok(RangeQuery {
            l: canonical(l),
            u: canonical(u),
        })
    }

    /// The lower bound `l`.
    pub fn lower(&self) -> f64 {
        self.l
    }

    /// The upper bound `u`.
    pub fn upper(&self) -> f64 {
        self.u
    }

    /// The width `u − l`.
    pub fn width(&self) -> f64 {
        self.u - self.l
    }

    /// True when `value ∈ [l, u]`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.l && value <= self.u
    }
}

impl std::fmt::Display for RangeQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.l, self.u)
    }
}

/// An (α, δ) accuracy demand (Definition 2.2): the returned count must be
/// within `α·|D|` of the truth with probability at least `δ`.
///
/// Both parameters must lie strictly inside `(0, 1)`: the boundary values
/// make the paper's closed forms degenerate (`α = 0` demands exactness,
/// `δ = 1` demands certainty — neither is achievable by sampling plus
/// unbounded noise).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Accuracy {
    alpha: f64,
    delta: f64,
}

impl Accuracy {
    /// Creates an accuracy demand.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidAccuracy`] unless both `alpha` and
    /// `delta` lie in `(0, 1)`.
    pub fn new(alpha: f64, delta: f64) -> Result<Self, CoreError> {
        let ok = |v: f64| v.is_finite() && v > 0.0 && v < 1.0;
        if !ok(alpha) || !ok(delta) {
            return Err(CoreError::InvalidAccuracy { alpha, delta });
        }
        Ok(Accuracy { alpha, delta })
    }

    /// The relative error bound `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The confidence level `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The absolute error bound `α·n` for a population of size `n`.
    pub fn absolute_error(&self, n: usize) -> f64 {
        self.alpha * n as f64
    }

    /// True when `self` is at least as strict as `other` in both
    /// parameters (smaller `α`, larger `δ`).
    pub fn at_least_as_strict_as(&self, other: &Accuracy) -> bool {
        self.alpha <= other.alpha && self.delta >= other.delta
    }
}

impl std::fmt::Display for Accuracy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(α={}, δ={})", self.alpha, self.delta)
    }
}

/// A customer request `Λ(α, δ)` for one range-counting aggregation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueryRequest {
    /// The value range to count.
    pub query: RangeQuery,
    /// The accuracy the customer pays for.
    pub accuracy: Accuracy,
}

impl QueryRequest {
    /// Bundles a range and an accuracy demand.
    pub fn new(query: RangeQuery, accuracy: Accuracy) -> Self {
        QueryRequest { query, accuracy }
    }
}

impl std::fmt::Display for QueryRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Λ{} over {}", self.accuracy, self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_query_validation() {
        assert!(RangeQuery::new(1.0, 2.0).is_ok());
        assert!(RangeQuery::new(2.0, 2.0).is_ok()); // point query
        assert!(RangeQuery::new(3.0, 1.0).is_err());
        assert!(RangeQuery::new(f64::NAN, 1.0).is_err());
        assert!(RangeQuery::new(1.0, f64::NAN).is_err());
        // Infinite bounds are allowed (count everything below/above).
        assert!(RangeQuery::new(f64::NEG_INFINITY, f64::INFINITY).is_ok());
    }

    #[test]
    fn range_query_accessors() {
        let q = RangeQuery::new(1.0, 4.0).unwrap();
        assert_eq!(q.lower(), 1.0);
        assert_eq!(q.upper(), 4.0);
        assert_eq!(q.width(), 3.0);
        assert!(q.contains(1.0));
        assert!(q.contains(4.0));
        assert!(!q.contains(4.5));
        assert_eq!(q.to_string(), "[1, 4]");
        // A `−0.0` bound is stored as `+0.0`.
        let zero = RangeQuery::new(-0.0, -0.0).unwrap();
        assert_eq!(zero.lower().to_bits(), 0.0f64.to_bits());
        assert_eq!(zero.upper().to_bits(), 0.0f64.to_bits());
        assert_eq!(zero.to_string(), "[0, 0]");
    }

    #[test]
    fn accuracy_validation() {
        assert!(Accuracy::new(0.05, 0.9).is_ok());
        for (a, d) in [
            (0.0, 0.5),
            (1.0, 0.5),
            (0.5, 0.0),
            (0.5, 1.0),
            (-0.1, 0.5),
            (0.5, 1.5),
            (f64::NAN, 0.5),
        ] {
            assert!(Accuracy::new(a, d).is_err(), "({a}, {d}) should fail");
        }
    }

    #[test]
    fn accuracy_helpers() {
        let a = Accuracy::new(0.05, 0.9).unwrap();
        assert_eq!(a.absolute_error(1000), 50.0);
        let stricter = Accuracy::new(0.03, 0.95).unwrap();
        assert!(stricter.at_least_as_strict_as(&a));
        assert!(!a.at_least_as_strict_as(&stricter));
        assert!(a.at_least_as_strict_as(&a));
        assert_eq!(a.to_string(), "(α=0.05, δ=0.9)");
    }

    #[test]
    fn request_display() {
        let r = QueryRequest::new(
            RangeQuery::new(0.0, 10.0).unwrap(),
            Accuracy::new(0.1, 0.8).unwrap(),
        );
        assert_eq!(r.to_string(), "Λ(α=0.1, δ=0.8) over [0, 10]");
    }
}
