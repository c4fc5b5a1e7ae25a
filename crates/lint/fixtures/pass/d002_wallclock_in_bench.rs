// prc-lint-fixture: path = crates/bench/src/bin/bench_rank_index.rs
//! Wall-clock timing is fine in the benchmark harness.

pub fn timed() -> std::time::Duration {
    let start = std::time::Instant::now();
    start.elapsed()
}
