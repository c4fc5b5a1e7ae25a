// prc-lint-fixture: path = crates/core/src/estimator/engine/boundary.rs
//! Boundary resolution as it must be written: a pure function of the
//! sorted values and the query — no clock, no randomness — so every
//! driver resolves identical positions.

pub fn lower_rank(values: &[f64], lower: f64) -> usize {
    values.partition_point(|&v| v < lower)
}
