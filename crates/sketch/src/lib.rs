//! # prc-sketch — deterministic quantile sketches
//!
//! The paper's RankCounting estimator answers range counts from a
//! *random sample*; the classic deterministic alternative (the lineage of
//! its related-work §VI — mergeable summaries for quantiles and range
//! counts) is a *sketch* with a hard error guarantee:
//!
//! * [`qdigest::QDigest`] — the q-digest of Shrivastava et al.: a
//!   compressed binary-tree summary over an integer domain. Mergeable
//!   (ideal for aggregation trees), size `O(k·log σ)`, and every rank
//!   query comes with **certified lower/upper bounds** whose width is at
//!   most `n·log σ / k`.
//! * [`gk::GkSummary`] — the Greenwald–Khanna streaming summary: insertion
//!   time `O(log(εn))`-ish with size `O((1/ε)·log(εn))` and rank error
//!   `± εn`. Not mergeable, but perfect as a per-node summary queried in
//!   place.
//! * [`distributed`] — a base-station protocol: every node ships one
//!   sketch; range counts are answered by summing per-node bounds, with
//!   byte-level communication accounting comparable to `prc-net`'s.
//!
//! The `ablation_sketch` binary in `prc-bench` compares this substrate
//! against the paper's sampling approach on communication vs. accuracy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod gk;
pub mod qdigest;

pub use distributed::SketchStation;
pub use gk::GkSummary;
pub use qdigest::QDigest;

/// A certified interval `[lower, upper]` containing a true count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountBounds {
    /// Certified lower bound.
    pub lower: u64,
    /// Certified upper bound.
    pub upper: u64,
}

impl CountBounds {
    /// The midpoint estimate.
    pub fn estimate(&self) -> f64 {
        (self.lower + self.upper) as f64 / 2.0
    }

    /// The maximum absolute error of [`CountBounds::estimate`].
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) as f64 / 2.0
    }

    /// Sums two bounds (counts over disjoint data add).
    pub fn merge(&self, other: &CountBounds) -> CountBounds {
        CountBounds {
            lower: self.lower + other.lower,
            upper: self.upper + other.upper,
        }
    }

    /// True when `value` lies inside the bounds.
    pub fn contains(&self, value: u64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_arithmetic() {
        let a = CountBounds {
            lower: 10,
            upper: 20,
        };
        let b = CountBounds { lower: 5, upper: 6 };
        assert_eq!(a.estimate(), 15.0);
        assert_eq!(a.half_width(), 5.0);
        let c = a.merge(&b);
        assert_eq!(
            c,
            CountBounds {
                lower: 15,
                upper: 26
            }
        );
        assert!(a.contains(10) && a.contains(20) && !a.contains(21));
    }
}
