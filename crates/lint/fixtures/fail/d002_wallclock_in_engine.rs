// prc-lint-fixture: path = crates/core/src/estimator/engine/boundary.rs
//! A wall-clock read inside the query engine: D002. Resolved boundary
//! positions must be a pure function of (values, query).

pub fn resolve_deadline() -> std::time::Instant {
    std::time::Instant::now()
}
