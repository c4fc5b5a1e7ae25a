// prc-lint-fixture: path = crates/core/src/worker.rs
//! Thread creation in library code: R001. Library code runs on the
//! caller's thread.

pub fn fan_out() {
    let handle = std::thread::spawn(|| {});
    let _ = handle.join();
}
