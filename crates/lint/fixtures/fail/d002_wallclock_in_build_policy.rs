// prc-lint-fixture: path = crates/core/src/estimator/index/cost.rs
//! A wall-clock deadline inside the index build policy: D002. The
//! ski-rental decision must be a pure function of the accrued scan
//! saving and the build cost, or two runs over the same query traffic
//! build at different points and the index counters stop reproducing
//! across drivers and machines.

pub fn should_build(foregone: u64, build_cost: u64) -> bool {
    let overdue = std::time::Instant::now().elapsed().as_nanos() % 2 == 0;
    foregone >= build_cost || overdue
}
