//! A hand-rolled work-stealing thread pool and the deterministic reorder
//! buffer that turns its out-of-order results back into canonical order.
//!
//! The evaluation sweep ([`crate::sweep`]) flattens its scenario grid into
//! thousands of independent compile+simulate checks. This module executes
//! them on N workers without any external dependency (the build
//! environment has no crates.io access, so no `rayon`/`crossbeam`):
//!
//! * **Shared injector** — submitted tasks land in a global FIFO.
//! * **Per-worker deques** — each worker refills its local deque from the
//!   injector in batches (amortising injector-lock traffic) and pops work
//!   from the front of its own deque.
//! * **Stealing** — a worker whose deque and the injector are both empty
//!   steals from the *back* of a sibling's deque, so stragglers (one slow
//!   hostile completion) don't leave the rest of the pool idle.
//! * **Parking** — idle workers block on a condvar; submission and
//!   shutdown notify it. Waits use a timeout so a steal opportunity that
//!   arises without a submission (a sibling refilling its deque) is never
//!   missed for long.
//! * **Check stacks** — workers come from the guard's
//!   `spawn_check_thread`, so a deadline-free check runs inline on the
//!   worker that takes it.
//! * **Panic isolation** — each task runs under
//!   [`catch_harness_fault`](crate::guard::catch_harness_fault), the same
//!   machinery that guards individual checks, so a panicking task yields
//!   an `Err(message)` result instead of killing its worker (and silently
//!   losing every task still queued on that worker's deque).
//!
//! Results are delivered over a channel as `(index, Result<R, String>)`
//! pairs in *completion* order; [`ReorderBuffer`] restores submission
//! order so downstream consumers (journal writer, report aggregation) see
//! a byte-identical stream regardless of worker count or scheduling.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::guard::{catch_harness_fault, spawn_check_thread};

/// A unit of work: produces an `R`, tagged with its submission index.
type Task<R> = Box<dyn FnOnce() -> R + Send + 'static>;

/// A deque of indexed tasks, guarded for cross-thread access.
type TaskDeque<R> = Mutex<VecDeque<(usize, Task<R>)>>;

/// How many tasks a worker moves from the injector to its own deque per
/// refill (at most; the injector is split fairly when it holds fewer).
const REFILL_BATCH: usize = 8;

/// Idle-worker park timeout. A net under the condvar: steal opportunities
/// created *without* a submission (a sibling refilling its local deque)
/// are discovered at worst one timeout later even if a wakeup is missed.
const PARK_TIMEOUT: Duration = Duration::from_millis(20);

/// Locks a mutex, ignoring poisoning: pool state stays usable even if a
/// thread panicked while holding the lock (tasks themselves are run under
/// [`catch_harness_fault`], so this is belt and braces).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// State shared between the pool handle and its workers.
struct Shared<R> {
    /// Global FIFO of submitted tasks.
    injector: TaskDeque<R>,
    /// Per-worker deques. Owner pops the front; thieves pop the back.
    locals: Vec<TaskDeque<R>>,
    /// Parking lot for idle workers.
    park: Mutex<()>,
    /// Notified on submission, refill and shutdown.
    wake: Condvar,
    /// Set once by [`WorkerPool::shutdown`] (or drop); workers drain all
    /// remaining work and then exit.
    shutdown: AtomicBool,
}

impl<R> Shared<R> {
    /// Whether any queue (injector or local deque) still holds a task.
    fn has_work(&self) -> bool {
        if !lock_unpoisoned(&self.injector).is_empty() {
            return true;
        }
        self.locals.iter().any(|l| !lock_unpoisoned(l).is_empty())
    }
}

/// A fixed-size work-stealing pool producing `(index, Result<R, String>)`
/// results. `Err` carries the panic message of a task that faulted.
pub struct WorkerPool<R: Send + 'static> {
    shared: Arc<Shared<R>>,
    workers: Vec<JoinHandle<()>>,
    results: Receiver<(usize, Result<R, String>)>,
}

impl<R: Send + 'static> WorkerPool<R> {
    /// Spawns a pool with `workers` worker threads (clamped to ≥ 1), each
    /// with a check-sized stack.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let (tx, rx) = channel();
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                let tx: Sender<(usize, Result<R, String>)> = tx.clone();
                spawn_check_thread(format!("vgen-pool-{id}"), move || {
                    worker_loop(id, &shared, &tx)
                })
                .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            results: rx,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Submits a task tagged with `index`. Tasks may complete in any
    /// order; feed results through a [`ReorderBuffer`] keyed on `index`
    /// to restore submission order.
    pub fn submit(&self, index: usize, task: impl FnOnce() -> R + Send + 'static) {
        lock_unpoisoned(&self.shared.injector).push_back((index, Box::new(task)));
        // Notify under the park lock so a worker between its has_work
        // re-check and its wait can never miss this submission.
        let _guard = lock_unpoisoned(&self.shared.park);
        self.shared.wake.notify_all();
    }

    /// Receives the next completed result, waiting up to `timeout`.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<(usize, Result<R, String>), RecvTimeoutError> {
        self.results.recv_timeout(timeout)
    }

    /// Signals shutdown and joins every worker. Queued tasks are drained
    /// (and their results delivered) before workers exit; callers that
    /// only want completed work should receive all expected results
    /// first.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    /// Signals shutdown and *abandons* the workers: every join handle is
    /// dropped without joining. This is the sweep's stall-degradation
    /// escape hatch — when at least one worker is known to be wedged in a
    /// hard-hung check, joining (as [`WorkerPool::shutdown`] and `Drop`
    /// do) would block forever. Healthy workers still drain their queues
    /// and exit on their own; the wedged thread is leaked.
    pub fn detach(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = lock_unpoisoned(&self.shared.park);
            self.shared.wake.notify_all();
        }
        vgen_obs::counter_add("pool.detach", 1);
        // Dropping the handles detaches the threads; Drop then finds an
        // empty worker list and joins nothing.
        self.workers.drain(..).for_each(drop);
    }

    /// Cancellation teardown: discards every queued-but-unstarted task,
    /// signals shutdown, and abandons the workers without joining. Unlike
    /// [`WorkerPool::detach`] (which lets healthy workers drain their
    /// queues), this clears the injector and every local deque first, so
    /// a cancelled sweep stops burning CPU after at most the tasks
    /// already in flight. In-flight results sent after the handle is
    /// dropped land on a closed channel and are discarded by the workers.
    pub fn abort(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        lock_unpoisoned(&self.shared.injector).clear();
        for local in self.shared.locals.iter() {
            lock_unpoisoned(local).clear();
        }
        {
            let _guard = lock_unpoisoned(&self.shared.park);
            self.shared.wake.notify_all();
        }
        vgen_obs::counter_add("pool.abort", 1);
        self.workers.drain(..).for_each(drop);
    }

    fn shutdown_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            // Pairing the notify with the park lock closes the window
            // where a worker checks the flag and parks just before the
            // store becomes visible.
            let _guard = lock_unpoisoned(&self.shared.park);
            self.shared.wake.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<R: Send + 'static> Drop for WorkerPool<R> {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Finds the next task for worker `id`: own deque front, then an injector
/// refill, then a steal from a sibling's back.
fn find_task<R>(id: usize, shared: &Shared<R>) -> Option<(usize, Task<R>)> {
    if let Some(t) = lock_unpoisoned(&shared.locals[id]).pop_front() {
        return Some(t);
    }
    if let Some(t) = refill_from_injector(id, shared) {
        return Some(t);
    }
    steal(id, shared)
}

/// Moves up to [`REFILL_BATCH`] tasks from the injector into worker
/// `id`'s deque, returning the first. When more than one task was moved,
/// parked siblings are woken so they can steal the surplus.
fn refill_from_injector<R>(id: usize, shared: &Shared<R>) -> Option<(usize, Task<R>)> {
    let mut batch = {
        let mut injector = lock_unpoisoned(&shared.injector);
        let take = REFILL_BATCH.min(injector.len());
        injector.drain(..take).collect::<VecDeque<_>>()
    };
    let first = batch.pop_front()?;
    vgen_obs::counter_add("pool.refill", 1);
    if !batch.is_empty() {
        lock_unpoisoned(&shared.locals[id]).extend(batch);
        shared.wake.notify_all();
    }
    Some(first)
}

/// Steals one task from the back of another worker's deque, scanning
/// victims starting after `id` so contention spreads across the pool.
fn steal<R>(id: usize, shared: &Shared<R>) -> Option<(usize, Task<R>)> {
    let n = shared.locals.len();
    for off in 1..n {
        let victim = (id + off) % n;
        if let Some(t) = lock_unpoisoned(&shared.locals[victim]).pop_back() {
            vgen_obs::counter_add("pool.steal", 1);
            return Some(t);
        }
    }
    None
}

/// Worker main loop: run tasks until shutdown is signalled *and* every
/// queue is drained.
fn worker_loop<R: Send>(
    id: usize,
    shared: &Shared<R>,
    results: &Sender<(usize, Result<R, String>)>,
) {
    loop {
        if let Some((index, task)) = find_task(id, shared) {
            vgen_obs::counter_add("pool.task", 1);
            // catch_harness_fault keeps a panicking task from killing the
            // worker (which would strand everything left on its deque)
            // and suppresses the default panic report, exactly as for
            // guarded checks.
            let outcome = catch_harness_fault(task);
            // A closed channel means the pool handle is gone; keep
            // draining so sibling state stays consistent.
            let _ = results.send((index, outcome));
            continue;
        }
        let guard = lock_unpoisoned(&shared.park);
        // Re-check under the park lock: a submit/refill between our last
        // scan and taking the lock would otherwise have its notification
        // missed.
        if shared.has_work() {
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = shared.wake.wait_timeout(guard, PARK_TIMEOUT);
    }
}

/// Restores submission order over an out-of-order result stream.
///
/// Results tagged `start, start+1, start+2, …` are pushed as they arrive;
/// [`pop_ready`](ReorderBuffer::pop_ready) yields them strictly in index
/// order, holding back anything whose predecessors are still outstanding.
/// This is what makes a parallel sweep's journal lines and report bytes
/// independent of worker count and completion order.
#[derive(Debug)]
pub struct ReorderBuffer<T> {
    next: usize,
    pending: BTreeMap<usize, T>,
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer expecting `start` as the first index.
    pub fn new(start: usize) -> Self {
        ReorderBuffer {
            next: start,
            pending: BTreeMap::new(),
        }
    }

    /// Inserts a completed result.
    ///
    /// # Panics
    ///
    /// On an index that was already emitted or is already pending — a
    /// duplicated work item is a harness bug that must not silently skew
    /// aggregates.
    pub fn push(&mut self, index: usize, value: T) {
        assert!(
            index >= self.next,
            "reorder buffer: index {index} already emitted (next = {})",
            self.next
        );
        let clash = self.pending.insert(index, value).is_some();
        assert!(!clash, "reorder buffer: duplicate index {index}");
    }

    /// Removes and returns the next in-order result, if it has arrived.
    pub fn pop_ready(&mut self) -> Option<T> {
        let value = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(value)
    }

    /// Index the next [`pop_ready`](ReorderBuffer::pop_ready) will yield.
    pub fn next_index(&self) -> usize {
        self.next
    }

    /// Number of results held back waiting for predecessors.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Drains `expect` results from the pool, reordered to submission
    /// order.
    fn collect_ordered(pool: &WorkerPool<usize>, expect: usize) -> Vec<Result<usize, String>> {
        let mut rb = ReorderBuffer::new(0);
        let mut out = Vec::with_capacity(expect);
        while out.len() < expect {
            let (idx, res) = pool
                .recv_timeout(Duration::from_secs(30))
                .expect("pool result");
            rb.push(idx, res);
            while let Some(r) = rb.pop_ready() {
                out.push(r);
            }
        }
        assert_eq!(rb.pending_len(), 0);
        out
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
        // One long task plus many short ones: with stealing, the short
        // tasks finish on other workers while one worker is pinned.
        let pool = WorkerPool::new(4);
        pool.submit(0, || {
            std::thread::sleep(Duration::from_millis(50));
            0
        });
        for i in 1..64 {
            pool.submit(i, move || i);
        }
        let out = collect_ordered(&pool, 64);
        pool.shutdown();
        assert_eq!(out.len(), 64);
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

    #[test]
    fn reorder_buffer_restores_order() {
        let mut rb = ReorderBuffer::new(0);
        rb.push(2, "c");
        rb.push(0, "a");
        assert_eq!(rb.pop_ready(), Some("a"));
        assert_eq!(rb.pop_ready(), None); // 1 still missing
        rb.push(1, "b");
        assert_eq!(rb.pop_ready(), Some("b"));
        assert_eq!(rb.pop_ready(), Some("c"));
        assert_eq!(rb.pop_ready(), None);
        assert_eq!(rb.next_index(), 3);
    }

    #[test]
    fn reorder_buffer_honours_start_offset() {
        let mut rb = ReorderBuffer::new(5);
        rb.push(6, 60);
        assert_eq!(rb.pop_ready(), None);
        rb.push(5, 50);
        assert_eq!(rb.pop_ready(), Some(50));
        assert_eq!(rb.pop_ready(), Some(60));
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn reorder_buffer_rejects_duplicates() {
        let mut rb = ReorderBuffer::new(0);
        rb.push(1, ());
        rb.push(1, ());
    }

    #[test]
    #[should_panic(expected = "already emitted")]
    fn reorder_buffer_rejects_reemission() {
        let mut rb = ReorderBuffer::new(0);
        rb.push(0, ());
        let _ = rb.pop_ready();
        rb.push(0, ());
    }
}
