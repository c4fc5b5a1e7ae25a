//! `prc-runtime` — what is left of the workspace's former worker pool.
//!
//! Every answer path runs on the caller's thread. This crate keeps only
//! the surface the end-to-end benchmark reads: the lane count it
//! reports as a host fact, and pool counters that always read zero.
//! Both go with that benchmark's next revision.

#![warn(missing_docs)]

use std::sync::OnceLock;
use std::thread::available_parallelism;

/// Pool activity counters. Nothing is dispatched, so every field reads
/// zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Map/reduce calls dispatched.
    pub tasks_run: u64,
    /// Chunks executed by worker threads.
    pub chunks: u64,
    /// Calls that stayed on the calling thread.
    pub sequential_fallbacks: u64,
    /// Worker panics captured.
    pub worker_panics: u64,
}

/// The host's lane count, resolved once per process.
#[derive(Debug)]
pub struct Runtime {
    workers: usize,
}

impl Runtime {
    /// The process-wide instance.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| Runtime {
            workers: default_workers(),
        })
    }

    /// `PRC_THREADS` if set to a positive integer (clamped to at most
    /// 128), else the available parallelism clamped to 1..=8.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Always [`RuntimeCounters::default`].
    #[must_use]
    pub fn counters(&self) -> RuntimeCounters {
        RuntimeCounters::default()
    }
}

fn default_workers() -> usize {
    let from_env = std::env::var("PRC_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    match from_env {
        Some(n) => n.min(128),
        None => available_parallelism().map_or(1, usize::from).clamp(1, 8),
    }
}
