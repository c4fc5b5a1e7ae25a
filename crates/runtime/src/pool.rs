//! The persistent worker pool: shared task queue, per-batch completion
//! latch, and the scoped-task lifetime erasure that makes pool reuse
//! possible.
//!
//! # Why an unsafe core exists
//!
//! A spawn-per-call executor (`std::thread::scope`) can run tasks that
//! borrow the caller's stack because the scope's join happens inside the
//! borrowed region. A *persistent* pool cannot express that in safe
//! Rust: its queue outlives every call, so queued closures must be
//! `'static`. [`Pool::run_batch`] therefore erases each task's lifetime
//! (`Box<dyn FnOnce() + Send + 'scope>` → `… + 'static`) and restores
//! the scope discipline manually.
//!
//! # Safety argument
//!
//! The erasure is sound because an erased task can never be observed —
//! run *or* dropped — after `run_batch` returns:
//!
//! 1. Every erased task is wrapped so that its last action is
//!    [`Batch::finish`]; by that point the caller's closure (and every
//!    `'scope` borrow it held) has already been consumed and dropped,
//!    and only the wrapper's owned `Arc<Batch>` survives.
//! 2. `run_batch` blocks — helping drain the queue, then waiting on the
//!    latch — until `finish` has been called once per task, so the
//!    borrows outlive every execution.
//! 3. Tasks leave the queue only by being executed: workers drain the
//!    queue before honoring shutdown, and [`Pool::drop`] joins every
//!    worker, so a queued task is never dropped unrun by a thread that
//!    could outlive the borrow.
//!
//! The calling thread *helps* execute queued tasks while it waits. That
//! keeps a single-worker pool live (the caller is the second lane), and
//! makes nested `run_batch` calls from inside a task deadlock-free: any
//! thread that would block first empties the queue, so queued work
//! always progresses.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::counters::AtomicCounters;

/// A queued unit of work after lifetime erasure.
type RawTask = Box<dyn FnOnce() + Send + 'static>;

/// A not-yet-erased unit of work borrowing the caller's scope.
pub(crate) type ScopedTask<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// Locks a mutex, ignoring poison: every guarded value here (queue,
/// latch state) is valid after any interruption, and panics are already
/// routed through the batch latch — propagating poison would turn one
/// captured worker panic into a second, payload-less one.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<VecDeque<RawTask>>,
    /// Signalled when work is pushed or shutdown begins.
    work_ready: Condvar,
    shutdown: AtomicBool,
    counters: AtomicCounters,
}

/// Completion latch for one `run_batch` call.
struct Batch {
    state: Mutex<BatchState>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
}

struct BatchState {
    remaining: usize,
    /// First captured panic payload, re-raised by the submitter after
    /// all siblings finish — the runtime's single panic path.
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

impl Batch {
    fn new(tasks: usize) -> Batch {
        Batch {
            state: Mutex::new(BatchState {
                remaining: tasks,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Marks one task finished, keeping the first panic payload. This is
    /// the last point a wrapped task touches any state; see the module
    /// safety argument.
    fn finish(&self, panic: Option<Box<dyn std::any::Any + Send + 'static>>) {
        let mut state = lock(&self.state);
        if let Some(payload) = panic {
            state.panic.get_or_insert(payload);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }
}

/// The persistent worker pool behind a [`crate::Runtime`].
pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` threads (at least one), parked on the queue.
    pub(crate) fn new(workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: AtomicCounters::default(),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Pool { shared, workers }
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.workers.len()
    }

    pub(crate) fn counters(&self) -> &AtomicCounters {
        &self.shared.counters
    }

    /// Runs `tasks` to completion — the calling thread helps drain the
    /// queue — then re-raises the first captured panic payload via
    /// [`std::panic::resume_unwind`].
    ///
    /// This is the erasure boundary (see the module docs): the `'scope`
    /// borrows inside `tasks` stay alive for the whole call because this
    /// function does not return until the latch has counted every task
    /// finished.
    pub(crate) fn run_batch(&self, tasks: Vec<ScopedTask<'_>>) {
        if tasks.is_empty() {
            return;
        }
        let batch = Arc::new(Batch::new(tasks.len()));
        {
            let mut queue = lock(&self.shared.queue);
            for task in tasks {
                let latch = Arc::clone(&batch);
                let shared = Arc::clone(&self.shared);
                let wrapped: ScopedTask<'_> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    let panic = match result {
                        Ok(()) => None,
                        Err(payload) => {
                            shared.counters.record_panic();
                            Some(payload)
                        }
                    };
                    // `task` and its `'scope` borrows are dropped by now;
                    // only the owned `latch`/`shared` Arcs survive.
                    latch.finish(panic);
                });
                // SAFETY: the erased box borrows data that outlives this
                // call. It is executed to completion before `run_batch`
                // returns (the latch below blocks until every task called
                // `finish`, and `finish` is the wrapper's final touch of
                // the environment), and it cannot be dropped unrun
                // (workers drain the queue before exiting; `Pool::drop`
                // joins them). See the module-level safety argument.
                let erased: RawTask =
                    unsafe { std::mem::transmute::<ScopedTask<'_>, RawTask>(wrapped) };
                queue.push_back(erased);
            }
        }
        self.shared.work_ready.notify_all();
        self.help_until_done(&batch);
        let payload = lock(&batch.state).panic.take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Executes queued tasks until `batch` completes, waiting on the
    /// latch only while the queue is empty.
    fn help_until_done(&self, batch: &Batch) {
        loop {
            let task = lock(&self.shared.queue).pop_front();
            if let Some(task) = task {
                task();
                continue;
            }
            let state = lock(&batch.state);
            if state.remaining == 0 {
                return;
            }
            // The queue was empty a moment ago, so every task of this
            // batch is already claimed by a worker (or done) — `done` is
            // the only signal that matters for us. The timeout bounds
            // how long a helping opportunity (another batch refilling
            // the queue, e.g. a nested fan-out) goes unnoticed.
            drop(
                batch
                    .done
                    .wait_timeout(state, std::time::Duration::from_millis(1)),
            );
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it and parks
        // on `work_ready` while holding that lock, so it either sees the
        // flag or is already parked when `notify_all` fires. A store
        // outside the lock can land between its check and its park, and
        // the lost wakeup leaves the join below waiting forever.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            // A worker panic has already been captured and re-raised by
            // its batch; teardown join errors carry nothing new.
            drop(handle.join());
        }
    }
}

/// A worker: drain the queue, park on `work_ready`, exit on shutdown
/// only once the queue is empty.
fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Wrapped tasks never unwind (they `catch_unwind` internally),
        // so one batch's panic cannot kill the lane another batch needs.
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Builds and drops pools of 1..=8 workers hundreds of times, some
    /// right after spawn (workers racing to their first park), some after
    /// a batch. A lost shutdown wakeup hangs a drop; the watchdog turns
    /// that hang into a failure.
    #[test]
    fn pools_always_shut_down() {
        let (done, finished) = mpsc::channel();
        let churn = std::thread::spawn(move || {
            for round in 0..40 {
                for workers in 1..=8 {
                    let pool = Pool::new(workers);
                    if round % 2 == 1 {
                        let tasks: Vec<ScopedTask<'_>> = (0..workers)
                            .map(|_| Box::new(|| {}) as ScopedTask<'_>)
                            .collect();
                        pool.run_batch(tasks);
                    }
                    drop(pool);
                }
            }
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(120)).is_ok(),
            "a pool drop hung: a worker missed the shutdown wakeup"
        );
        churn.join().expect("pool churn thread panicked");
    }
}
