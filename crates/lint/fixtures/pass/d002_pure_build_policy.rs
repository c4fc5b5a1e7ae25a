// prc-lint-fixture: path = crates/core/src/estimator/index/cost.rs
//! The index build policy as it must be written: the ski-rental decision
//! is a pure function of the accrued scan saving and the build cost — no
//! clock, no randomness, no I/O — so identical query traffic builds
//! identically everywhere.

pub fn should_build(foregone: u64, build_cost: u64) -> bool {
    foregone >= build_cost
}
