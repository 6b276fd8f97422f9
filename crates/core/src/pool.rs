//! The sweep's worker pool.
//!
//! The evaluation sweep ([`crate::sweep`]) flattens its scenario grid into
//! thousands of independent compile+simulate checks, submitted in
//! canonical order. This module executes them on N workers without any
//! external dependency (the build environment has no crates.io access, so
//! no `rayon`/`crossbeam`):
//!
//! * **One shared FIFO** — submitted tasks land in a single queue behind
//!   one mutex; an idle worker pops the front. There are no private
//!   per-worker queues, so a slow task (one hostile completion) never
//!   strands queued work behind it: every other worker keeps popping.
//! * **Parking** — a worker that finds the queue empty and still open
//!   waits on a condvar; each submission wakes one worker and closing the
//!   queue wakes them all.
//! * **Check stacks** — workers come from the guard's
//!   `spawn_check_thread`, so a deadline-free check runs inline on the
//!   worker that takes it.
//! * **Panic isolation** — each task runs under
//!   [`catch_harness_fault`], the same
//!   machinery that guards individual checks, so a panicking task yields
//!   an `Err(message)` result instead of killing its worker.
//!
//! Results are delivered over a channel as `(index, Result<R, String>)`
//! pairs in *completion* order; the sweep's merge loop puts them back in
//! submission order, so the journal and reports see a byte-identical
//! stream regardless of worker count or scheduling.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::guard::{catch_harness_fault, spawn_check_thread};

/// A unit of work: produces an `R`, tagged with its submission index.
type Task<R> = Box<dyn FnOnce() -> R + Send + 'static>;

/// The shared task queue.
struct Queue<R> {
    /// Submitted tasks not yet taken by a worker, in submission order.
    tasks: VecDeque<(usize, Task<R>)>,
    /// Cleared when the pool handle is dropped (which shutdown and
    /// [`WorkerPool::abandon`] both do); workers exit once the queue is
    /// closed and empty.
    open: bool,
}

/// State shared between the pool handle and its workers.
struct Shared<R> {
    queue: Mutex<Queue<R>>,
    /// Notified on submission and on close.
    ready: Condvar,
}

impl<R> Shared<R> {
    /// Locks the queue, ignoring poisoning: no code panics while holding
    /// the lock (tasks run outside it, under [`catch_harness_fault`]).
    fn lock(&self) -> MutexGuard<'_, Queue<R>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A fixed-size pool producing `(index, Result<R, String>)` results.
/// `Err` carries the panic message of a task that faulted.
pub struct WorkerPool<R: Send + 'static> {
    shared: Arc<Shared<R>>,
    workers: Vec<JoinHandle<()>>,
    results: Receiver<(usize, Result<R, String>)>,
}

impl<R: Send + 'static> WorkerPool<R> {
    /// Spawns a pool with `workers` worker threads (clamped to ≥ 1), each
    /// with a check-sized stack.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
        });
        let (tx, rx) = channel();
        let handles = (0..workers.max(1))
            .map(|id| {
                let shared = Arc::clone(&shared);
                let tx: Sender<(usize, Result<R, String>)> = tx.clone();
                spawn_check_thread(format!("vgen-pool-{id}"), move || worker_loop(&shared, &tx))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            results: rx,
        }
    }

    /// Submits a task tagged with `index`. Tasks may complete in any
    /// order; the result carries `index` back.
    pub fn submit(&self, index: usize, task: impl FnOnce() -> R + Send + 'static) {
        self.shared.lock().tasks.push_back((index, Box::new(task)));
        self.shared.ready.notify_one();
    }

    /// Receives the next completed result, waiting up to `timeout`.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<(usize, Result<R, String>), RecvTimeoutError> {
        self.results.recv_timeout(timeout)
    }

    /// Closes the queue and joins every worker. Queued tasks are drained
    /// (and their results delivered) before workers exit; callers that
    /// only want completed work should receive all expected results
    /// first. Dropping the pool does the same.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Teardown without joining, for a cancelled or stalled sweep: discards
    /// every queued-but-unstarted task, closes the queue and drops the
    /// worker handles. Joining (as shutdown and `Drop` do) would block
    /// forever on a worker wedged in a hard-hung check, so the workers are
    /// left to finish the task in hand and exit on their own; a wedged one
    /// is leaked. Results sent after the pool is gone land on a closed
    /// channel and are discarded.
    pub fn abandon(mut self) {
        self.shared.lock().tasks.clear();
        // Dropping the handles detaches the threads; Drop then closes the
        // queue and finds no worker to join.
        self.workers.clear();
    }
}

impl<R: Send + 'static> Drop for WorkerPool<R> {
    fn drop(&mut self) {
        self.shared.lock().open = false;
        self.shared.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker main loop: pop the front task and run it, until the queue is
/// closed and empty.
fn worker_loop<R: Send>(shared: &Shared<R>, results: &Sender<(usize, Result<R, String>)>) {
    loop {
        let (index, task) = {
            let mut queue = shared.lock();
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if !queue.open {
                    return;
                }
                queue = shared.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        // catch_harness_fault keeps a panicking task from killing the
        // worker and suppresses the default panic report, exactly as for
        // guarded checks.
        let outcome = catch_harness_fault(task);
        // A closed channel means the pool handle is gone; keep draining.
        let _ = results.send((index, outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Drains `expect` results from the pool, sorted back into
    /// submission order; each index must arrive exactly once.
    fn collect_ordered(pool: &WorkerPool<usize>, expect: usize) -> Vec<Result<usize, String>> {
        let mut out: Vec<(usize, Result<usize, String>)> = (0..expect)
            .map(|_| {
                pool.recv_timeout(Duration::from_secs(30))
                    .expect("pool result")
            })
            .collect();
        out.sort_by_key(|(idx, _)| *idx);
        assert!(out.iter().enumerate().all(|(i, (idx, _))| i == *idx));
        out.into_iter().map(|(_, res)| res).collect()
    }

    #[test]
    fn runs_all_tasks_once() {
        let pool = WorkerPool::new(4);
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 0..200 {
            let hits = Arc::clone(&hits);
            pool.submit(i, move || {
                hits.fetch_add(1, Ordering::SeqCst);
                i * 3
            });
        }
        let out = collect_ordered(&pool, 200);
        pool.shutdown();
        assert_eq!(hits.load(Ordering::SeqCst), 200);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().expect("task ok"), &(i * 3));
        }
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = WorkerPool::new(1);
        for i in 0..10 {
            pool.submit(i, move || i);
        }
        let out = collect_ordered(&pool, 10);
        assert_eq!(out.len(), 10);
        assert!(out.iter().enumerate().all(|(i, r)| r == &Ok(i)));
    }

    #[test]
    fn panicking_task_yields_error_not_dead_worker() {
        let pool = WorkerPool::new(2);
        pool.submit(0, || 1usize);
        pool.submit(1, || panic!("task exploded"));
        pool.submit(2, || 3usize);
        let out = collect_ordered(&pool, 3);
        pool.shutdown();
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Err("task exploded".to_string()));
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    fn uneven_task_costs_are_balanced() {
        // One long task plus many short ones: while one worker is pinned
        // on the long task, the others drain the shared queue, so every
        // short result arrives before the long one is released.
        let pool = WorkerPool::new(4);
        let (latch_tx, latch_rx) = channel::<()>();
        pool.submit(0, move || {
            // Blocks until the latch sender is dropped.
            let _ = latch_rx.recv();
            0
        });
        for i in 1..64 {
            pool.submit(i, move || i);
        }
        let mut short: Vec<usize> = (1..64)
            .map(|_| {
                let (idx, res) = pool
                    .recv_timeout(Duration::from_secs(30))
                    .expect("short result while the long task is pinned");
                assert_eq!(res, Ok(idx));
                idx
            })
            .collect();
        short.sort_unstable();
        assert_eq!(short, (1..64).collect::<Vec<_>>());
        drop(latch_tx);
        let last = pool
            .recv_timeout(Duration::from_secs(30))
            .expect("long result");
        assert_eq!(last, (0, Ok(0)));
        pool.shutdown();
    }

    #[test]
    fn abandon_starts_no_queued_task() {
        let pool = WorkerPool::new(1);
        let (started_tx, started_rx) = channel();
        let (latch_tx, latch_rx) = channel::<()>();
        pool.submit(0, move || {
            started_tx.send(()).expect("test thread listening");
            // Blocks until the latch sender is dropped.
            let _ = latch_rx.recv();
            0
        });
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 1..=16 {
            let hits = Arc::clone(&hits);
            pool.submit(i, move || {
                hits.fetch_add(1, Ordering::SeqCst);
                i
            });
        }
        started_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("first task started");
        pool.abandon();
        // The queued closures, and their clones of `hits`, are gone: no
        // worker can start them any more.
        assert_eq!(Arc::strong_count(&hits), 1);
        drop(latch_tx);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let pool = WorkerPool::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 0..50 {
            let hits = Arc::clone(&hits);
            pool.submit(i, move || {
                hits.fetch_add(1, Ordering::SeqCst);
                i
            });
        }
        pool.shutdown(); // drains before exiting
        assert_eq!(hits.load(Ordering::SeqCst), 50);
    }
}
