//! `prc-runtime` — the workspace's deterministic structured-concurrency
//! executor (DESIGN.md §14).
//!
//! Every parallel site in the workspace — the optimizer grid sweep and
//! the batch pipeline's estimate fan-out — runs on
//! one persistent [`Runtime`] pool through two order-stable entry
//! points, [`Runtime::map_chunked`] and [`Runtime::reduce_ordered`].
//! The contract has four clauses:
//!
//! * **Determinism** — inputs are split into contiguous chunks and
//!   results are assembled in submission order, so the output is a pure
//!   function of the input, bit-identical for any worker count
//!   (including the sequential one-chunk fallback) and any scheduling.
//! * **One panic path** — each chunk runs under `catch_unwind`; the
//!   first panic payload is captured and re-raised via
//!   [`std::panic::resume_unwind`] on the calling thread *after every
//!   sibling chunk has finished*, so no borrowed data is left in use and
//!   no worker is leaked. Workers survive task panics.
//! * **One cutoff policy** — [`CutoffPolicy`] subsumes the per-site
//!   constants that used to gate each fan-out; below threshold the call
//!   runs as a single chunk on the calling thread, with identical
//!   results.
//! * **Observability** — [`RuntimeCounters`] report tasks run, chunks
//!   executed, sequential fallbacks, and captured worker panics.
//!
//! Worker count resolves, in order: [`Builder::workers`] override, the
//! `PRC_THREADS` environment variable, then
//! [`std::thread::available_parallelism`] clamped to 1..=8 (the historic
//! per-site behavior). Most callers share the process-wide
//! [`Runtime::global`] pool; tests build private pools to sweep worker
//! counts.

mod counters;
mod cutoff;
mod pool;

pub use counters::RuntimeCounters;
pub use cutoff::CutoffPolicy;

use std::sync::OnceLock;

use pool::{lock, Pool, ScopedTask};

/// One contiguous chunk of a parallel map, in input order.
#[derive(Debug)]
pub struct Chunk<'a, T> {
    /// The chunk's items, a contiguous subslice of the input.
    pub items: &'a [T],
    /// Index of `items[0]` within the full input slice.
    pub offset: usize,
    /// Chunk ordinal (0-based, ascending with `offset`).
    pub index: usize,
}

/// Configures a [`Runtime`] before construction.
#[derive(Debug, Default)]
pub struct Builder {
    workers: Option<usize>,
}

impl Builder {
    /// Overrides the worker count (clamped to at least 1), taking
    /// precedence over `PRC_THREADS` and the hardware default.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Builder {
        self.workers = Some(workers.max(1));
        self
    }

    /// Builds the runtime, spawning its worker threads.
    #[must_use]
    pub fn build(self) -> Runtime {
        let workers = self.workers.unwrap_or_else(default_workers);
        Runtime {
            pool: Pool::new(workers),
        }
    }
}

/// `PRC_THREADS` if set to a positive integer (clamped to 1..=128).
fn env_workers() -> Option<usize> {
    let raw = std::env::var("PRC_THREADS").ok()?;
    let parsed = raw.trim().parse::<usize>().ok()?;
    if parsed == 0 {
        None
    } else {
        Some(parsed.min(128))
    }
}

/// Worker-count default: `PRC_THREADS`, else available parallelism
/// clamped to 1..=8 (the clamp every refactored site used).
fn default_workers() -> usize {
    env_workers().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .clamp(1, 8)
    })
}

/// A persistent, deterministic worker pool.
///
/// See the crate docs for the contract. Dropping a `Runtime` drains its
/// queue and joins its workers; the shared [`Runtime::global`] pool
/// lives for the process.
pub struct Runtime {
    pool: Pool,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.worker_count())
            .finish()
    }
}

impl Runtime {
    /// Starts configuring a private pool (tests, benches).
    #[must_use]
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// The process-wide shared pool, built on first use from
    /// `PRC_THREADS` / available parallelism.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| Runtime::builder().build())
    }

    /// Number of pool worker threads.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }

    /// Chunk lanes a parallel call over `len` items would use: one per
    /// worker, never more than the items, never less than one. This is
    /// what the broker reports as its fan-out width.
    #[must_use]
    pub fn lanes_for(&self, len: usize) -> usize {
        self.worker_count().min(len).max(1)
    }

    /// A snapshot of this pool's activity counters.
    #[must_use]
    pub fn counters(&self) -> RuntimeCounters {
        self.pool.counters().snapshot()
    }

    /// Maps contiguous chunks of `items` in parallel, returning the
    /// per-chunk results in submission (= input) order.
    ///
    /// `work` declares the call's total work in the caller's own units;
    /// `cutoff` decides whether that is worth a fan-out. Below the
    /// cutoff — or on a single-worker pool, or a single-item input — the
    /// whole input runs as one chunk on the calling thread. Either way
    /// the result is a pure function of `items` and `f`; callers whose
    /// `f` uses [`Chunk::offset`] / [`Chunk::index`] only for
    /// position-dependent labeling (dense indices, global offsets)
    /// remain bit-identical across worker counts.
    ///
    /// # Panics
    ///
    /// Re-raises (via [`std::panic::resume_unwind`]) the first panic
    /// captured from a chunk, after every sibling chunk has finished —
    /// the runtime's single panic path. The dispatch itself does not
    /// panic.
    pub fn map_chunked<T, R, F>(
        &self,
        items: &[T],
        work: usize,
        cutoff: CutoffPolicy,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(Chunk<'_, T>) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let lanes = self.lanes_for(items.len());
        if lanes <= 1 || cutoff.is_sequential(work) {
            self.pool.counters().record_sequential();
            return vec![f(Chunk {
                items,
                offset: 0,
                index: 0,
            })];
        }
        let chunk_len = items.len().div_ceil(lanes);
        let slots: Vec<std::sync::Mutex<Option<R>>> = items
            .chunks(chunk_len)
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(slots.len());
        for ((index, part), slot) in items.chunks(chunk_len).enumerate().zip(&slots) {
            let f = &f;
            tasks.push(Box::new(move || {
                let result = f(Chunk {
                    items: part,
                    offset: index * chunk_len,
                    index,
                });
                *lock(slot) = Some(result);
            }));
        }
        self.pool.counters().record_parallel(tasks.len() as u64);
        self.pool.run_batch(tasks);
        collect_slots(slots)
    }

    /// Maps chunks in parallel, then folds the per-chunk results on the
    /// calling thread in submission order: the parallel shape of every
    /// ordered reduction (argmin sweeps, first-error propagation).
    /// Because the fold runs sequentially over in-order results, any
    /// left-fold the caller could write over a sequential scan gives the
    /// same answer here, bit for bit.
    ///
    /// # Panics
    ///
    /// Re-raises the first captured chunk panic, exactly like
    /// [`Runtime::map_chunked`]; the fold runs only when no chunk
    /// panicked.
    pub fn reduce_ordered<T, R, A, F, G>(
        &self,
        items: &[T],
        work: usize,
        cutoff: CutoffPolicy,
        map: F,
        init: A,
        fold: G,
    ) -> A
    where
        T: Sync,
        R: Send,
        F: Fn(Chunk<'_, T>) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        self.map_chunked(items, work, cutoff, map)
            .into_iter()
            .fold(init, fold)
    }
}

/// Unwraps the per-chunk result slots after a completed batch.
fn collect_slots<R>(slots: Vec<std::sync::Mutex<Option<R>>>) -> Vec<R> {
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                // prc-lint: allow(P002, reason = "loud invariant: run_batch returns normally only after every chunk stored its result; a panicking chunk re-raised before this point")
                .expect("chunk result missing after batch completion")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunked_preserves_input_order() {
        let rt = Runtime::builder().workers(4).build();
        let items: Vec<usize> = (0..103).collect();
        let chunks = rt.map_chunked(&items, usize::MAX, CutoffPolicy::always_parallel(), |c| {
            (c.index, c.offset, c.items.to_vec())
        });
        let mut flat = Vec::new();
        for (i, (index, offset, part)) in chunks.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*offset, flat.len());
            flat.extend_from_slice(part);
        }
        assert_eq!(flat, items);
    }

    #[test]
    fn sequential_cutoff_is_bit_identical() {
        let rt = Runtime::builder().workers(4).build();
        let items: Vec<u64> = (0..1_000).map(|i| i * 7 + 3).collect();
        let sum = |c: Chunk<'_, u64>| c.items.iter().sum::<u64>();
        let parallel: u64 = rt
            .map_chunked(&items, items.len(), CutoffPolicy::min_work(1), sum)
            .into_iter()
            .sum();
        let sequential: u64 = rt
            .map_chunked(&items, items.len(), CutoffPolicy::min_work(usize::MAX), sum)
            .into_iter()
            .sum();
        assert_eq!(parallel, sequential);
        let counters = rt.counters();
        assert_eq!(counters.sequential_fallbacks, 1);
        assert_eq!(counters.tasks_run, 2);
        assert!(counters.chunks >= 2);
    }

    #[test]
    fn reduce_ordered_folds_in_submission_order() {
        let rt = Runtime::builder().workers(5).build();
        let items: Vec<usize> = (0..41).collect();
        let folded = rt.reduce_ordered(
            &items,
            usize::MAX,
            CutoffPolicy::always_parallel(),
            |c| c.items.to_vec(),
            Vec::new(),
            |mut acc: Vec<usize>, part| {
                acc.extend(part);
                acc
            },
        );
        assert_eq!(folded, items);
    }

    #[test]
    fn first_panic_payload_is_preserved_and_workers_survive() {
        let rt = Runtime::builder().workers(2).build();
        let items: Vec<usize> = (0..8).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.map_chunked(&items, usize::MAX, CutoffPolicy::always_parallel(), |c| {
                if c.items.contains(&3) {
                    panic!("boom at chunk {}", c.index);
                }
                c.items.len()
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("payload is the original panic message");
        assert!(message.starts_with("boom at chunk"), "got {message:?}");
        assert!(rt.counters().worker_panics >= 1);
        // The pool is still alive and correct after the panic.
        let total: usize = rt
            .map_chunked(&items, usize::MAX, CutoffPolicy::always_parallel(), |c| {
                c.items.len()
            })
            .into_iter()
            .sum();
        assert_eq!(total, items.len());
    }

    #[test]
    fn empty_input_returns_no_chunks() {
        let rt = Runtime::builder().workers(2).build();
        let items: Vec<u8> = Vec::new();
        let out = rt.map_chunked(&items, usize::MAX, CutoffPolicy::always_parallel(), |c| {
            c.items.len()
        });
        assert!(out.is_empty());
        assert_eq!(rt.counters().tasks_run, 0);
    }

    #[test]
    fn builder_worker_override_wins() {
        let rt = Runtime::builder().workers(3).build();
        assert_eq!(rt.worker_count(), 3);
        assert_eq!(rt.lanes_for(0), 1);
        assert_eq!(rt.lanes_for(2), 2);
        assert_eq!(rt.lanes_for(100), 3);
    }
}
