//! # vgen-obs
//!
//! Zero-dependency structured tracing and metrics for the VGen pipeline.
//!
//! The evaluation sweep pushes thousands of completions through
//! generate → parse → lint → elaborate → simulate; this crate answers
//! *where the time goes* without perturbing what the sweep produces:
//!
//! * **Spans** — [`span`] returns an RAII guard that records a named,
//!   monotonic-clock-stamped interval when dropped. Nested spans nest in
//!   the trace; every span also feeds a per-stage duration
//!   [`Histogram`].
//! * **Counters and maxima** — [`counter_add`] accumulates event counts
//!   (cache hits, scheduler steps, harness faults); [`gauge_max`] tracks a
//!   high-water mark (scheduler queue depth).
//! * **Lanes** — every recording thread gets a *lane* (a `tid` in the
//!   Chrome trace). Helper threads (the guard's cached check threads)
//!   [adopt](adopt_lane) the lane of the worker whose job they run, so a
//!   worker's checks render as one coherent timeline instead of one row
//!   per checker.
//!
//! ## Recording architecture
//!
//! Instrumentation writes only to a **thread-local** `ThreadRecorder`:
//! a bounded span buffer plus small name-keyed counter/histogram tables.
//! The hot path takes no lock and touches no shared cache line. When a
//! thread exits (or [`collect`] runs, for the calling thread) its recorder
//! drains into a global, mutex-guarded accumulator — one lock acquisition
//! per thread lifetime, not per event. [`collect`] then snapshots the
//! accumulator into an immutable [`ObsReport`] for the export sinks
//! ([`trace`] for Chrome `trace_event` JSON, [`summary`] for the metrics
//! table).
//!
//! ## Determinism
//!
//! Nothing here feeds back into pipeline output: recording is write-only
//! from the pipeline's perspective, and the sweep's reports/journals are
//! produced from its records alone. Enabling tracing therefore cannot
//! change a byte of report or journal output — a property CI enforces.
//!
//! When disabled (the default), every entry point is a single relaxed
//! atomic load and an early return.
//!
//! ```
//! vgen_obs::enable();
//! {
//!     let _s = vgen_obs::span("parse");
//!     vgen_obs::counter_add("parse.calls", 1);
//! }
//! let report = vgen_obs::collect();
//! assert_eq!(report.counters["parse.calls"], 1);
//! assert_eq!(report.hists["parse"].count, 1);
//! ```

#![warn(missing_docs)]

pub mod cancel;
pub mod hist;
pub mod json;
pub mod prom;
pub mod snapshot;
pub mod summary;
pub mod trace;

pub use cancel::CancelToken;
pub use snapshot::Snapshot;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use hist::Histogram;

/// Cap on buffered span events per thread between flushes; spans past the
/// cap are counted as dropped (histograms and counters are never dropped —
/// they are fixed-size regardless of sample count).
const MAX_EVENTS_PER_THREAD: usize = 1 << 18;

/// Cap on span events held in the global accumulator; a runaway sweep
/// degrades to a truncated trace plus an accurate dropped-count, never
/// unbounded memory.
const MAX_TOTAL_EVENTS: usize = 4 << 20;

/// How often a live thread drains its aggregates into the global
/// accumulator mid-session (checked at span close, so an idle thread
/// never wakes just to flush). Keeps [`snapshot`] fresh without putting a
/// lock on the per-span hot path.
const FLUSH_INTERVAL_NS: u64 = 100_000_000;

/// One completed span: a named interval on a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (`"parse"`, `"simulate"`, …).
    pub name: &'static str,
    /// Lane (Chrome trace `tid`) the span ran on.
    pub lane: u32,
    /// Start, in nanoseconds of the process-wide monotonic clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-lane busy-time totals, maintained incrementally as spans close so
/// pool utilization can be computed without scanning the event buffer
/// (whose spans may have been dropped under the caps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneBusy {
    /// Nanoseconds this lane spent inside `check` spans.
    pub check_ns: u64,
    /// Nanoseconds this lane spent inside any span (including `check`).
    pub busy_ns: u64,
}

/// Everything one recording session produced, snapshotted by [`collect`].
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Completed spans, in per-thread arrival order (not globally sorted).
    pub events: Vec<SpanEvent>,
    /// Spans discarded because a buffer cap was hit.
    pub dropped_events: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// High-water marks by name.
    pub maxima: BTreeMap<&'static str, u64>,
    /// Span-duration histograms by stage name (nanoseconds).
    pub hists: BTreeMap<&'static str, Histogram>,
    /// Busy-time totals by lane id.
    pub lane_busy: BTreeMap<u32, LaneBusy>,
    /// Lane names, indexed by lane id.
    pub lanes: Vec<String>,
    /// Monotonic-clock nanoseconds when [`enable`] ran.
    pub session_start_ns: u64,
    /// Monotonic-clock nanoseconds when [`collect`] ran.
    pub session_end_ns: u64,
}

impl ObsReport {
    /// Session wall time in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.session_end_ns.saturating_sub(self.session_start_ns)
    }
}

/// The global accumulator threads drain into.
#[derive(Default)]
struct Accumulator {
    events: Vec<SpanEvent>,
    dropped: u64,
    counters: BTreeMap<&'static str, u64>,
    maxima: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    lane_busy: BTreeMap<u32, LaneBusy>,
}

impl Accumulator {
    fn absorb(&mut self, rec: &mut ThreadRecorder) {
        self.dropped += rec.dropped;
        rec.dropped = 0;
        let room = MAX_TOTAL_EVENTS.saturating_sub(self.events.len());
        if rec.events.len() > room {
            self.dropped += (rec.events.len() - room) as u64;
            rec.events.truncate(room);
        }
        self.events.append(&mut rec.events);
        for (name, n) in rec.counters.drain(..) {
            *self.counters.entry(name).or_insert(0) += n;
        }
        for (name, v) in rec.maxima.drain(..) {
            let slot = self.maxima.entry(name).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (name, h) in rec.hists.drain(..) {
            self.hists.entry(name).or_default().merge(&h);
        }
        if rec.busy_ns > 0 {
            let slot = self.lane_busy.entry(rec.lane).or_default();
            slot.busy_ns += rec.busy_ns;
            slot.check_ns += rec.check_ns;
            rec.busy_ns = 0;
            rec.check_ns = 0;
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
static SESSION_START_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Generation counter bumped by [`enable`]: recorders stamped with an older
/// session are *discarded* on drop/flush instead of polluting the new
/// session (a detached hard-timeout checker may wake long after its run).
static SESSION: AtomicU64 = AtomicU64::new(0);
/// Monotone id handed out by [`snapshot`]; reset by [`enable`].
static SNAPSHOT_EPOCH: AtomicU64 = AtomicU64::new(0);

fn accumulator() -> &'static Mutex<Accumulator> {
    static ACC: OnceLock<Mutex<Accumulator>> = OnceLock::new();
    ACC.get_or_init(Mutex::default)
}

fn lanes() -> &'static Mutex<Vec<String>> {
    static LANES: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    LANES.get_or_init(Mutex::default)
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Nanoseconds since a fixed, process-wide monotonic epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Small name-keyed tables: with ~a dozen distinct names per thread a
/// linear scan beats hashing and keeps the hot path allocation-free after
/// warm-up.
fn bump(table: &mut Vec<(&'static str, u64)>, name: &'static str, n: u64, max: bool) {
    for (k, v) in table.iter_mut() {
        if *k == name {
            if max {
                *v = (*v).max(n);
            } else {
                *v += n;
            }
            return;
        }
    }
    table.push((name, n));
}

/// Per-thread recording buffers. Created lazily on a thread's first
/// instrumentation hit while enabled; drained into the global accumulator
/// when the thread exits.
struct ThreadRecorder {
    lane: u32,
    /// [`SESSION`] generation this recorder belongs to; stale recorders
    /// are discarded instead of drained.
    session: u64,
    events: Vec<SpanEvent>,
    dropped: u64,
    counters: Vec<(&'static str, u64)>,
    maxima: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Histogram)>,
    busy_ns: u64,
    check_ns: u64,
    /// Monotonic deadline for the next periodic self-flush; 0 = unarmed.
    next_flush_ns: u64,
}

impl ThreadRecorder {
    fn new(lane: u32) -> Self {
        ThreadRecorder {
            lane,
            session: SESSION.load(Ordering::Relaxed),
            events: Vec::new(),
            dropped: 0,
            counters: Vec::new(),
            maxima: Vec::new(),
            hists: Vec::new(),
            busy_ns: 0,
            check_ns: 0,
            next_flush_ns: 0,
        }
    }

    fn push_span(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if self.events.len() < MAX_EVENTS_PER_THREAD {
            self.events.push(SpanEvent {
                name,
                lane: self.lane,
                start_ns,
                dur_ns,
            });
        } else {
            self.dropped += 1;
        }
        self.busy_ns += dur_ns;
        if name == "check" {
            self.check_ns += dur_ns;
        }
        let mut found = false;
        for (k, h) in self.hists.iter_mut() {
            if *k == name {
                h.record(dur_ns);
                found = true;
                break;
            }
        }
        if !found {
            let mut h = Histogram::new();
            h.record(dur_ns);
            self.hists.push((name, h));
        }
        // Periodic self-flush so live snapshots see long-running threads.
        // Armed lazily from span timestamps: no extra clock reads, and an
        // idle thread never takes the accumulator lock.
        let end_ns = start_ns.saturating_add(dur_ns);
        if self.next_flush_ns == 0 {
            self.next_flush_ns = end_ns.saturating_add(FLUSH_INTERVAL_NS);
        } else if end_ns >= self.next_flush_ns {
            self.next_flush_ns = end_ns.saturating_add(FLUSH_INTERVAL_NS);
            lock_unpoisoned(accumulator()).absorb(self);
        }
    }
}

impl Drop for ThreadRecorder {
    fn drop(&mut self) {
        // A recorder from an earlier session (a detached checker waking
        // after `enable` restarted recording) must not bleed into the
        // current one.
        if self.session == SESSION.load(Ordering::Relaxed) {
            lock_unpoisoned(accumulator()).absorb(self);
        }
    }
}

/// Registers a fresh lane named after the current thread.
fn register_lane() -> u32 {
    let lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map(|n| n.to_string())
        .unwrap_or_else(|| format!("thread-{lane}"));
    let mut names = lock_unpoisoned(lanes());
    while names.len() <= lane as usize {
        names.push(String::new());
    }
    names[lane as usize] = name;
    lane
}

thread_local! {
    static RECORDER: RefCell<Option<ThreadRecorder>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's recorder, creating it (on a fresh lane) on
/// first use. `None` if the thread-local is already torn down.
fn with_recorder<T>(f: impl FnOnce(&mut ThreadRecorder) -> T) -> Option<T> {
    RECORDER
        .try_with(|cell| {
            let mut slot = cell.borrow_mut();
            let stale = slot
                .as_ref()
                .is_some_and(|rec| rec.session != SESSION.load(Ordering::Relaxed));
            if stale {
                // Replacing drops the stale recorder, whose Drop discards
                // it (wrong session) rather than draining it.
                *slot = None;
            }
            let rec = slot.get_or_insert_with(|| ThreadRecorder::new(register_lane()));
            f(rec)
        })
        .ok()
}

/// Whether a recording session is active.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a recording session: clears any previously collected data and
/// enables all instrumentation.
///
/// Call from a quiet point (before spawning instrumented workers): threads
/// still buffering data from an earlier session would bleed into this one.
pub fn enable() {
    ENABLED.store(false, Ordering::SeqCst);
    // Drop (and thereby flush) the calling thread's recorder *before*
    // clearing the accumulator, so stale data cannot leak into the new
    // session.
    RECORDER.with(|cell| *cell.borrow_mut() = None);
    *lock_unpoisoned(accumulator()) = Accumulator::default();
    lock_unpoisoned(lanes()).clear();
    NEXT_LANE.store(0, Ordering::Relaxed);
    // Invalidate recorders still alive on other threads: their stamped
    // session no longer matches, so they discard instead of draining.
    SESSION.fetch_add(1, Ordering::SeqCst);
    SNAPSHOT_EPOCH.store(0, Ordering::Relaxed);
    SESSION_START_NS.store(now_ns(), Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Drains the calling thread's recorder into the global accumulator
/// without ending the session or retiring the recorder's lane.
///
/// Call at points where buffered data must become visible to concurrent
/// [`snapshot()`] readers *now* — e.g. before a supervisor detaches a
/// hard-timed-out checker thread.
pub fn flush() {
    if !is_enabled() {
        return;
    }
    let _ = RECORDER.try_with(|cell| {
        if let Some(rec) = cell.borrow_mut().as_mut() {
            if rec.session == SESSION.load(Ordering::Relaxed) {
                lock_unpoisoned(accumulator()).absorb(rec);
            }
        }
    });
}

/// Takes a live, epoch-stamped [`Snapshot`] of the current session without
/// ending it.
///
/// Flushes the calling thread's buffers first, then clones the
/// accumulator's *aggregates* (counters, maxima, histograms, lane busy
/// time) — never the span event buffer, so the cost is independent of how
/// many spans the session has produced. Other threads' buffers become
/// visible through their periodic self-flush (every ~100 ms of recorded
/// span time), so two snapshots an interval apart see live rates via
/// [`Snapshot::delta`].
pub fn snapshot() -> Snapshot {
    flush();
    let epoch = SNAPSHOT_EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
    let (counters, maxima, hists, lane_busy, dropped) = {
        let acc = lock_unpoisoned(accumulator());
        (
            acc.counters.clone(),
            acc.maxima.clone(),
            acc.hists.clone(),
            acc.lane_busy.clone(),
            acc.dropped,
        )
    };
    Snapshot {
        epoch,
        start_ns: SESSION_START_NS.load(Ordering::Relaxed),
        at_ns: now_ns(),
        counters,
        maxima,
        hists,
        lane_busy,
        lanes: lock_unpoisoned(lanes()).clone(),
        dropped_events: dropped,
    }
}

/// The id the most recent [`snapshot()`] was stamped with (0 before the
/// first snapshot of a session).
pub fn epoch() -> u64 {
    SNAPSHOT_EPOCH.load(Ordering::Relaxed)
}

/// Ends the session and returns everything recorded.
///
/// Call after instrumented worker threads have been joined — a thread's
/// buffers drain into the global accumulator when it exits, and `collect`
/// only drains the *calling* thread's buffers itself.
pub fn collect() -> ObsReport {
    ENABLED.store(false, Ordering::SeqCst);
    // Flush the calling thread's recorder by dropping it.
    RECORDER.with(|cell| *cell.borrow_mut() = None);
    let mut acc = lock_unpoisoned(accumulator());
    let acc = std::mem::take(&mut *acc);
    ObsReport {
        events: acc.events,
        dropped_events: acc.dropped,
        counters: acc.counters,
        maxima: acc.maxima,
        hists: acc.hists,
        lane_busy: acc.lane_busy,
        lanes: lock_unpoisoned(lanes()).clone(),
        session_start_ns: SESSION_START_NS.load(Ordering::Relaxed),
        session_end_ns: now_ns(),
    }
}

/// RAII span guard: records `[creation, drop)` under `name` when dropped.
/// Inert (and allocation-free) when tracing is disabled.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur = now_ns().saturating_sub(self.start_ns);
        with_recorder(|rec| rec.push_span(self.name, self.start_ns, dur));
    }
}

/// Opens a span named `name` on the current thread's lane.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let active = is_enabled();
    SpanGuard {
        name,
        start_ns: if active { now_ns() } else { 0 },
        active,
    }
}

/// Adds `n` to the counter `name`.
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    with_recorder(|rec| bump(&mut rec.counters, name, n, false));
}

/// Raises the high-water mark `name` to at least `v`.
#[inline]
pub fn gauge_max(name: &'static str, v: u64) {
    if !is_enabled() {
        return;
    }
    with_recorder(|rec| bump(&mut rec.maxima, name, v, true));
}

/// The current thread's lane id (assigning one if needed). Cheap and 0
/// when tracing is disabled.
pub fn current_lane() -> u32 {
    if !is_enabled() {
        return 0;
    }
    with_recorder(|rec| rec.lane).unwrap_or(0)
}

/// Makes the current thread record onto `lane` instead of a fresh lane —
/// used by helper threads (the guard's cached check threads) so the
/// spans of each job land on the timeline of the worker that sent it.
///
/// Call at the start of every job, before its first instrumentation hit.
/// A thread that already has a recorder is re-stamped to `lane`: anything
/// it still buffers is drained onto its old lane first, so busy time stays
/// with the lane that earned it. A recorder left over from an earlier
/// session is replaced, and its buffers are discarded, not drained.
pub fn adopt_lane(lane: u32) {
    if !is_enabled() {
        return;
    }
    let _ = RECORDER.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some(rec) if rec.session == SESSION.load(Ordering::Relaxed) => {
                if rec.lane != lane {
                    // Span events carry their lane already; only the busy
                    // totals are attributed to `rec.lane` when drained.
                    if rec.busy_ns > 0 {
                        lock_unpoisoned(accumulator()).absorb(rec);
                    }
                    rec.lane = lane;
                }
            }
            // Replacing a stale recorder drops it, and its Drop discards
            // it (wrong session).
            _ => *slot = Some(ThreadRecorder::new(lane)),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Global-state tests must not interleave.
    static SESSION_LOCK: StdMutex<()> = StdMutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SESSION_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_instrumentation_is_inert() {
        let _g = serial();
        assert!(!is_enabled());
        let s = span("noop");
        drop(s);
        counter_add("noop", 5);
        gauge_max("noop", 5);
        enable();
        let report = collect();
        assert!(report.events.is_empty(), "{:?}", report.events);
        assert!(report.counters.is_empty());
    }

    #[test]
    fn session_records_spans_counters_maxima() {
        let _g = serial();
        enable();
        {
            let _outer = span("outer");
            let _inner = span("inner");
            counter_add("hits", 2);
            counter_add("hits", 3);
            gauge_max("depth", 7);
            gauge_max("depth", 4);
        }
        let report = collect();
        assert_eq!(report.counters["hits"], 5);
        assert_eq!(report.maxima["depth"], 7);
        let names: Vec<&str> = report.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"));
        // The inner span closed first and nests inside the outer one.
        let outer = report.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = report.events.iter().find(|e| e.name == "inner").unwrap();
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        assert!(report.wall_ns() > 0);
    }

    #[test]
    fn worker_threads_flush_on_exit_and_adopt_lanes() {
        let _g = serial();
        enable();
        let parent_lane = current_lane();
        std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| {
                let _s = span("worker-span");
            })
            .unwrap()
            .join()
            .unwrap();
        std::thread::spawn(move || {
            adopt_lane(parent_lane);
            let _s = span("adopted-span");
        })
        .join()
        .unwrap();
        let report = collect();
        let worker = report
            .events
            .iter()
            .find(|e| e.name == "worker-span")
            .expect("worker span flushed at thread exit");
        assert_ne!(worker.lane, parent_lane);
        assert_eq!(
            report.lanes[worker.lane as usize], "obs-test-worker",
            "lane named after its thread"
        );
        let adopted = report
            .events
            .iter()
            .find(|e| e.name == "adopted-span")
            .expect("adopted span flushed");
        assert_eq!(
            adopted.lane, parent_lane,
            "helper thread adopted parent lane"
        );
    }

    #[test]
    fn sessions_are_isolated() {
        let _g = serial();
        enable();
        counter_add("first", 1);
        let first = collect();
        assert_eq!(first.counters["first"], 1);
        enable();
        counter_add("second", 1);
        let second = collect();
        assert!(!second.counters.contains_key("first"));
        assert_eq!(second.counters["second"], 1);
    }

    #[test]
    fn snapshot_sees_live_data_without_ending_session() {
        let _g = serial();
        enable();
        counter_add("live.hits", 3);
        {
            let _s = span("live-stage");
        }
        let a = snapshot();
        assert_eq!(a.epoch, 1);
        assert_eq!(a.counters["live.hits"], 3);
        assert_eq!(a.hists["live-stage"].count, 1);
        assert!(is_enabled(), "snapshot must not end the session");
        counter_add("live.hits", 2);
        let b = snapshot();
        assert_eq!(b.epoch, 2);
        assert_eq!(b.counters["live.hits"], 5);
        let d = b.delta(&a);
        assert_eq!(d.counters["live.hits"], 2);
        // The flushed thread keeps recording on the same lane afterwards.
        let report = collect();
        assert_eq!(report.counters["live.hits"], 5);
        assert_eq!(report.hists["live-stage"].count, 1);
    }

    #[test]
    fn lane_busy_tracks_span_time_across_flushes() {
        let _g = serial();
        enable();
        let lane = current_lane();
        {
            let _s = span("check");
        }
        {
            let _s = span("parse");
        }
        let snap = snapshot();
        let busy = snap.lane_busy[&lane];
        assert!(busy.busy_ns >= busy.check_ns);
        assert!(busy.check_ns > 0, "check span feeds check_ns");
        // More work after the snapshot accumulates on the same lane.
        {
            let _s = span("check");
        }
        let report = collect();
        assert!(report.lane_busy[&lane].check_ns >= busy.check_ns);
        assert_eq!(report.hists["check"].count, 2);
    }

    #[test]
    fn stale_session_recorders_are_discarded() {
        let _g = serial();
        enable();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            // Record something in the *first* session, then outlive it.
            let _s = span("stale-span");
            drop(_s);
            counter_add("stale.count", 1);
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            // Session has been restarted: this thread's recorder is stale.
            // Both paths must discard, not pollute the new session.
            counter_add("fresh.count", 1);
            flush();
        });
        ready_rx.recv().unwrap();
        enable(); // restart: invalidates the worker's recorder
        go_tx.send(()).unwrap();
        h.join().unwrap();
        let report = collect();
        assert!(
            !report.counters.contains_key("stale.count"),
            "stale recorder bled into new session: {:?}",
            report.counters
        );
        // fresh.count was recorded against a *new* recorder in the new
        // session (with_recorder replaces stale ones), so it must survive.
        assert_eq!(report.counters["fresh.count"], 1);
        assert!(report.events.iter().all(|e| e.name != "stale-span"));
    }

    #[test]
    fn adopt_lane_restamps_a_reused_thread() {
        let _g = serial();
        enable();
        // One long-lived helper thread runs every job, as a cached check
        // thread does, and acknowledges each one.
        type Job = Box<dyn FnOnce() + Send>;
        let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            for job in job_rx {
                job();
                ack_tx.send(()).unwrap();
            }
        });
        let run = |job: Job| {
            job_tx.send(job).unwrap();
            ack_rx.recv().unwrap();
        };
        let lane_a = current_lane();
        let lane_b = std::thread::spawn(current_lane).join().unwrap();
        assert_ne!(lane_a, lane_b);

        // Job 1 leaves its busy time buffered: re-stamping must drain it
        // onto lane A before the thread moves to lane B.
        run(Box::new(move || {
            adopt_lane(lane_a);
            let _s = span("job-a");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }));
        run(Box::new(move || {
            adopt_lane(lane_b);
            {
                let _s = span("job-b");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            flush();
        }));
        // Job 3 buffers data and is still holding it when the session
        // restarts below.
        run(Box::new(move || {
            adopt_lane(lane_a);
            let _s = span("stale-span");
            drop(_s);
            counter_add("stale.count", 1);
        }));
        let first = collect();
        let event = |report: &ObsReport, name: &str| {
            report
                .events
                .iter()
                .find(|e| e.name == name)
                .cloned()
                .unwrap_or_else(|| panic!("{name} missing: {:?}", report.events))
        };
        let a = event(&first, "job-a");
        let b = event(&first, "job-b");
        assert_eq!(a.lane, lane_a, "job 1's span is on lane A");
        assert_eq!(b.lane, lane_b, "job 2's span is on lane B");
        assert_eq!(first.lane_busy[&lane_a].busy_ns, a.dur_ns);
        assert_eq!(first.lane_busy[&lane_b].busy_ns, b.dur_ns);

        enable();
        let lane_c = current_lane();
        run(Box::new(move || {
            adopt_lane(lane_c);
            {
                let _s = span("fresh-span");
            }
            flush();
        }));
        drop(job_tx);
        helper.join().unwrap();
        let second = collect();
        assert!(
            !second.counters.contains_key("stale.count"),
            "stale recorder was drained into the new session: {:?}",
            second.counters
        );
        assert!(second.events.iter().all(|e| e.name != "stale-span"));
        let fresh = event(&second, "fresh-span");
        assert_eq!(fresh.lane, lane_c);
        assert_eq!(second.lane_busy.len(), 1, "{:?}", second.lane_busy);
        assert_eq!(second.lane_busy[&lane_c].busy_ns, fresh.dur_ns);
    }
}
