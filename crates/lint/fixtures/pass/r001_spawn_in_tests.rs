// prc-lint-fixture: path = tests/cost_meter_stress.rs
//! Thread creation in test code: a stress test may spawn threads to
//! hammer a shared value (R001 covers library code only).

fn hammer(counter: &std::sync::atomic::AtomicU64) {
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        }
    });
}
