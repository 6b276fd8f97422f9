//! Fault isolation and deadline supervision for the checking pipeline.
//!
//! The parser, elaborator and simulator are all exercised with arbitrary
//! model output. Two failure shapes threaten a sweep:
//!
//! * **Panics** — a bug anywhere in that stack (an unchecked index, an
//!   arithmetic overflow) would abort an entire evaluation on a single
//!   hostile completion. [`catch_harness_fault`] maps any panic to
//!   [`CheckOutcome::HarnessFault`], so one bad candidate costs one record.
//! * **Stalls** — a completion that is *legal under every budget* but
//!   merely slow (a zero-delay oscillator sized just under the step cap, a
//!   near-token-cap parse) wedges a worker for seconds to minutes.
//!   [`supervised_check_completion`] runs the check under a [`CheckPolicy`]
//!   with an optional wall-clock deadline, escalating through a state
//!   machine:
//!
//!   1. **budgets** — the step/size/token caps from PR 1 bound memory and
//!      classify genuinely infinite work; they never read a clock.
//!   2. **cancel** — a [`CancelToken`] armed with the deadline is threaded
//!      through parse/elaborate/simulate; when it trips, the stage unwinds
//!      cooperatively and the outcome is a *soft timeout*.
//!   3. **watchdog** — a check with a deadline runs on a cached check
//!      thread while the caller waits `deadline + grace` for its result.
//!      Cooperative exit lands here.
//!   4. **detach** — no result inside the grace period means the check
//!      thread is hard-hung (stuck outside any poll site). It is detached —
//!      abandoned, never joined, and not back among the idle threads until
//!      its check returns, so no later check is handed to it — and the
//!      outcome is a *hard timeout*. The calling worker continues
//!      immediately; the pool never loses a worker to a hang.
//!   5. **retry** — timeouts are transient by nature (machine load, cache
//!      state), so the policy may retry them with exponential backoff
//!      before the record is finalized. Panics are deterministic and are
//!      never retried.
//!
//! ## Where a check runs
//!
//! A check needs a known 8 MiB stack (`CHECK_STACK_BYTES`), so that
//! classification never depends on how much stack its caller has left.
//! Threads spawned through [`spawn_check_thread`] have one and are marked
//! as such: sweep pool workers, the daemon's connection threads (a `check`
//! that arrives while nothing else of its connection is in flight runs on
//! its connection's thread) and the cached threads below. With no
//! deadline, a check asked for on a marked thread runs right there, under
//! [`catch_harness_fault`]. Every other check — one with a deadline (it
//! needs a watchdog) or one from an unmarked caller (a test thread, the
//! benchmark's trace replay) — is handed off to a process-wide cache of
//! idle marked threads ([`run_on_check_thread`]), which the daemon also
//! runs the requests it hands off on.
//!
//! While a guarded check is running, the default "thread panicked at ..."
//! report is suppressed (per thread) so sweeps don't spray backtraces; the
//! panic message is preserved in the outcome instead.

use std::cell::Cell;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, Once};
use std::thread::JoinHandle;
use std::time::Duration;

use vgen_obs::CancelToken;
use vgen_problems::{Problem, PromptLevel};
use vgen_sim::SimConfig;

use crate::chaos::{ChaosSite, ChaosSpec};
use crate::check::{
    assemble, check_source_cancellable, CheckOutcome, CheckResult, LintCounts, TimeoutKind,
};

thread_local! {
    /// Set while a guarded closure runs on this thread.
    static QUIET: Cell<bool> = const { Cell::new(false) };
    /// Set for the life of a thread spawned by [`spawn_check_thread`].
    static CHECK_STACK: Cell<bool> = const { Cell::new(false) };
}

static INSTALL_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that stays silent while a
/// guarded check is running on the panicking thread and defers to the
/// previous hook otherwise.
fn install_quiet_hook() {
    INSTALL_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, converting any panic into `Err(message)`.
///
/// The default panic report is suppressed for the duration; the payload
/// (the `panic!` message, when it is a string) is returned instead. Calls
/// nest: an inner call leaves the report suppressed for the rest of the
/// outer one.
pub fn catch_harness_fault<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    let was_quiet = QUIET.with(|q| q.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(was_quiet));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Stack size of every thread a check may run on. The parser's caps on
/// nesting ([`vgen_verilog::parser::MAX_NEST_DEPTH`]) and expression depth
/// ([`vgen_verilog::parser::MAX_EXPR_DEPTH`]) are sized so the worst legal
/// input fits in a fraction of this even in unoptimised builds.
const CHECK_STACK_BYTES: usize = 8 * 1024 * 1024;

/// Spawns a thread named `name` with the 8 MiB stack a check needs,
/// marked so that deadline-free checks run inline on it. The only place
/// the mark is set.
///
/// # Errors
///
/// The OS refused to spawn the thread.
pub fn spawn_check_thread<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> io::Result<JoinHandle<T>> {
    std::thread::Builder::new()
        .name(name)
        .stack_size(CHECK_STACK_BYTES)
        .spawn(move || {
            CHECK_STACK.with(|m| m.set(true));
            f()
        })
}

/// Whether the calling thread came from [`spawn_check_thread`].
fn on_check_thread() -> bool {
    CHECK_STACK.with(Cell::get)
}

/// How one check is supervised: deadline, grace period, retry budget and
/// fault injection. The [`Default`] policy has no deadline and no chaos —
/// behaviourally identical to the unsupervised guard, and what every
/// determinism-gated CI run uses (wall-clock timeouts are inherently
/// nondeterministic; see `DESIGN.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckPolicy {
    /// Wall-clock deadline per check attempt. `None` disables supervision:
    /// the guard blocks until the check finishes, as before.
    pub timeout: Option<Duration>,
    /// Extra wait past the deadline for the cooperative cancel to unwind
    /// before the watchdog declares a hard hang and detaches the thread.
    pub grace: Duration,
    /// How many times a timed-out attempt is retried before the timeout is
    /// recorded. Panics are never retried.
    pub retries: u32,
    /// Base backoff between retries; doubles per attempt.
    pub backoff: Duration,
    /// Deterministic fault injection (see [`crate::chaos`]).
    pub chaos: ChaosSpec,
}

impl Default for CheckPolicy {
    fn default() -> Self {
        CheckPolicy {
            timeout: None,
            grace: Duration::from_millis(200),
            retries: 0,
            backoff: Duration::from_millis(25),
            chaos: ChaosSpec::default(),
        }
    }
}

/// [`check_completion`](crate::check::check_completion) with fault
/// isolation under a [`CheckPolicy`]. The check runs with a known 8 MiB
/// stack — inline when the caller is a sweep pool worker or another
/// thread with that stack, on a cached check thread otherwise — so
/// classification never depends on how much stack the *caller* happens to
/// have left, and a panic anywhere in the assemble/parse/elaborate/simulate
/// stack yields [`CheckOutcome::HarnessFault`] instead of unwinding into
/// the caller. The policy adds wall-clock deadline supervision (soft/hard
/// timeout classification, see the module docs), bounded retry for
/// timeouts, and deterministic fault injection; `CheckPolicy::default()`
/// has none of them.
///
/// The completion is assembled once, under [`catch_harness_fault`], and
/// the assembled source is what [`supervised_check_source`] checks and
/// keys its chaos sites on.
///
/// An attempt with a deadline always runs on a cached check thread, with
/// the calling thread as its watchdog; a hard-hung check thread is not
/// reused until its check returns.
///
/// `problem` is `&'static` because on a hard hang the check thread is
/// detached and may touch its inputs long after this call returns —
/// borrowed data must therefore live forever (problems do: they come from
/// the static problem table) or be owned by the thread (the source is
/// copied in).
///
/// ```
/// use vgen_core::guard::{supervised_check_completion, CheckPolicy};
/// use vgen_problems::{problem, PromptLevel};
/// use vgen_sim::SimConfig;
///
/// let p = problem(2).expect("problem");
/// let r = supervised_check_completion(
///     p,
///     PromptLevel::Low,
///     "endmodule",
///     SimConfig::default(),
///     &CheckPolicy::default(),
/// );
/// assert!(!r.outcome.passed());
/// ```
pub fn supervised_check_completion(
    problem: &'static Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
    policy: &CheckPolicy,
) -> CheckResult {
    let (source, (outcome, lint)) =
        match catch_harness_fault(|| assemble(problem, level, completion)) {
            Ok(source) => {
                let verdict = supervised_check_source(problem, &source, config, policy);
                (source, verdict)
            }
            Err(msg) => (String::new(), fault(msg)),
        };
    CheckResult {
        outcome,
        source,
        lint,
    }
}

/// [`supervised_check_completion`] for a source that is already assembled
/// (with [`assemble`]): the outcome and lint tallies of checking it.
///
/// A pure function of `(problem, source, config, policy)`: every chaos
/// site fires on the source, so two completions that assemble to the same
/// source get the same result, faults included. The sweep's dedup cache
/// relies on that.
pub fn supervised_check_source(
    problem: &'static Problem,
    source: &str,
    config: SimConfig,
    policy: &CheckPolicy,
) -> (CheckOutcome, Option<LintCounts>) {
    let mut attempt: u32 = 0;
    loop {
        let verdict = attempt_check(&THREADS, problem, source, config, policy, attempt);
        if matches!(verdict.0, CheckOutcome::Timeout(_)) {
            vgen_obs::counter_add("guard.timeout", 1);
            if attempt < policy.retries {
                vgen_obs::counter_add("guard.retry", 1);
                let backoff = policy.backoff.saturating_mul(1u32 << attempt.min(6));
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
                continue;
            }
        }
        return verdict;
    }
}

/// Runs `work` on an idle cached check thread, spawning one when none is
/// free. The thread has an 8 MiB stack, so a deadline-free check `work`
/// asks for runs inline on it. The thread is idle again only once `work`
/// returns, so `work` may block (on a slow client's socket, say) without
/// delaying anyone else's task. A thread whose `work` never returns is
/// never reused; one whose `work` panics dies.
///
/// # Errors
///
/// No thread was idle and the OS refused to spawn one.
pub fn run_on_check_thread(work: impl FnOnce() + Send + 'static) -> io::Result<()> {
    THREADS.run(work, |()| {})
}

/// Work for a cached thread. It returns its announcement, which the thread
/// runs only after it is back among the idle threads.
type Task = Box<dyn FnOnce() -> Box<dyn FnOnce()> + Send>;

/// Most idle threads the cache keeps — about the most tasks a process runs
/// at once (one per sweep worker under a deadline, or per in-flight daemon
/// request). A burst wider than this spawns extra threads, which exit when
/// they come back to a full list.
const IDLE_THREADS: usize = 8;

/// Idle check threads, each reached through the sending end of its task
/// channel.
struct ThreadCache {
    idle: Mutex<Vec<mpsc::Sender<Task>>>,
    /// Threads this cache has spawned (what `guard.thread_spawn` counts).
    spawned: AtomicU64,
}

/// The process-wide cache behind [`run_on_check_thread`] and every
/// handed-off check.
static THREADS: ThreadCache = ThreadCache::new();

impl ThreadCache {
    const fn new() -> Self {
        ThreadCache {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
        }
    }

    fn idle(&self) -> MutexGuard<'_, Vec<mpsc::Sender<Task>>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `work` on an idle thread (spawning one when none is free),
    /// then `then(result)` on the same thread once it is idle again — so
    /// whoever `then` wakes finds the thread reusable. `then` must not
    /// block: while it runs, the thread is already listed as idle, and the
    /// next task handed to it would wait behind it.
    fn run<R: 'static>(
        &'static self,
        work: impl FnOnce() -> R + Send + 'static,
        then: impl FnOnce(R) + Send + 'static,
    ) -> io::Result<()> {
        let task: Task = Box::new(move || {
            let result = work();
            Box::new(move || then(result))
        });
        let idle = self.idle().pop();
        let thread = match idle {
            Some(thread) => thread,
            None => self.spawn()?,
        };
        // An idle thread is blocked on its channel, so this only fails if
        // it died.
        thread
            .send(task)
            .map_err(|_| io::Error::other("check thread died"))
    }

    fn spawn(&'static self) -> io::Result<mpsc::Sender<Task>> {
        let (thread, tasks) = mpsc::channel::<Task>();
        // The thread holds a sender to itself, which it puts on the idle
        // list after each task, and which keeps it waiting there. The join
        // handle is dropped: a hard-hung thread may not return for a long
        // time.
        let me = thread.clone();
        spawn_check_thread("vgen-check".into(), move || {
            for task in &tasks {
                let announce = task();
                let kept = self.give_back(me.clone());
                announce();
                if !kept {
                    break;
                }
            }
        })?;
        self.spawned.fetch_add(1, Ordering::Relaxed);
        vgen_obs::counter_add("guard.thread_spawn", 1);
        Ok(thread)
    }

    /// Puts a thread whose task has returned back on the idle list; `false`
    /// when the list is full and the thread should exit.
    fn give_back(&self, thread: mpsc::Sender<Task>) -> bool {
        let mut idle = self.idle();
        let kept = idle.len() < IDLE_THREADS;
        if kept {
            idle.push(thread);
        }
        kept
    }
}

/// What a check yields: its outcome and lint tallies.
type Verdict = (CheckOutcome, Option<LintCounts>);

/// What a check attempt yields: its verdict, or the message of a panic
/// caught inside it.
type Caught = Result<Verdict, String>;

/// One supervised attempt. With no deadline on a thread from
/// [`spawn_check_thread`] the check runs inline; otherwise it is handed
/// off to a cached check thread.
fn attempt_check(
    cache: &'static ThreadCache,
    problem: &'static Problem,
    source: &str,
    config: SimConfig,
    policy: &CheckPolicy,
    attempt: u32,
) -> Verdict {
    // Injected soft timeout: synthesized before any work, without reading
    // a clock — deterministic in (seed, source, attempt) so chaos runs
    // byte-compare across jobs counts, dedup settings and kill/resume.
    if policy.chaos.fires_check_timeout(source.as_bytes(), attempt) {
        vgen_obs::counter_add("guard.chaos", 1);
        return (CheckOutcome::Timeout(TimeoutKind::Soft), None);
    }
    let caught = if policy.timeout.is_none() && on_check_thread() {
        run_check(
            problem,
            source,
            config,
            &CancelToken::unlimited(),
            &policy.chaos,
        )
    } else {
        hand_off(cache, problem, source, config, policy)
    };
    caught.unwrap_or_else(fault)
}

/// The verdict of a check that panicked with `msg`.
fn fault(msg: String) -> Verdict {
    vgen_obs::counter_add("guard.fault", 1);
    (CheckOutcome::HarnessFault(msg), None)
}

/// Runs one check, with its chaos injection, under [`catch_harness_fault`].
fn run_check(
    problem: &'static Problem,
    source: &str,
    config: SimConfig,
    cancel: &CancelToken,
    chaos: &ChaosSpec,
) -> Caught {
    catch_harness_fault(|| {
        if chaos
            .fires(ChaosSite::CheckPanic, source.as_bytes())
            .is_some()
        {
            panic!("chaos: injected checker panic");
        }
        if let Some(ms) = chaos.fires(ChaosSite::CheckDelayMs, source.as_bytes()) {
            // A real, uncancellable stall — exercises the hard-timeout
            // detach path.
            std::thread::sleep(Duration::from_millis(ms));
        }
        check_source_cancellable(problem, source, config, cancel)
    })
}

/// Hands one check to a cached check thread and waits for its result up
/// to deadline + grace.
fn hand_off(
    cache: &'static ThreadCache,
    problem: &'static Problem,
    source: &str,
    config: SimConfig,
    policy: &CheckPolicy,
) -> Caught {
    let cancel = policy
        .timeout
        .map_or_else(CancelToken::unlimited, CancelToken::with_deadline);
    // Everything the check needs is owned (or `'static`), because a
    // hard-hung thread outlives this call.
    let work = {
        let (source, cancel, chaos) = (source.to_string(), cancel.clone(), policy.chaos.clone());
        // The check records onto the lane of whichever worker handed it
        // off, so a sweep's trace shows one timeline per worker rather
        // than one per check thread.
        let lane = vgen_obs::current_lane();
        move || {
            vgen_obs::adopt_lane(lane);
            let caught = run_check(problem, &source, config, &cancel, &chaos);
            // Drain this thread's obs buffers after every check: the
            // thread is long-lived, so nothing else would drain them until
            // it exits, and after a hard timeout the caller has already
            // moved on — flushing at the cancel point keeps the partial
            // stage spans a hard-timed-out check did complete.
            vgen_obs::flush();
            caught
        }
    };
    let (result_tx, result) = mpsc::channel();
    let sent = cache.run(work, move |caught| {
        // Nobody is waiting after a hard timeout.
        let _ = result_tx.send(caught);
    });
    if let Err(e) = sent {
        return Err(format!("cannot spawn checker thread: {e}"));
    }
    vgen_obs::counter_add("guard.handoff", 1);
    let answer = match policy.timeout {
        None => result
            .recv()
            .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        Some(t) => result.recv_timeout(t + policy.grace),
    };
    match answer {
        Ok(caught) => caught,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Hard hang: the deadline armed the token at `t`, the grace
            // period passed, and the check never reached a poll site.
            // Detach it: the thread is not back on the idle list until
            // its check returns; the worker moves on.
            cancel.cancel();
            vgen_obs::counter_add("guard.hard_timeout", 1);
            // Make the verdict visible to live snapshots before the worker
            // moves on — the detached thread may hold its lane hostage for
            // a long time.
            vgen_obs::flush();
            Ok((CheckOutcome::Timeout(TimeoutKind::Hard), None))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err("checker thread died".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::FaultKind;
    use vgen_problems::problem;

    fn p() -> &'static Problem {
        problem(2).expect("problem")
    }

    #[test]
    fn passthrough_on_success() {
        assert_eq!(catch_harness_fault(|| 42), Ok(42));
    }

    #[test]
    fn panic_becomes_error_message() {
        let r = catch_harness_fault(|| -> u32 { panic!("boom {}", 7) });
        assert_eq!(r, Err("boom 7".to_string()));
    }

    #[test]
    fn str_payloads_are_captured() {
        let r = catch_harness_fault(|| -> u32 { panic!("static message") });
        assert_eq!(r, Err("static message".to_string()));
    }

    #[test]
    fn normal_checks_are_unaffected() {
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &CheckPolicy::default(),
        );
        assert!(r.outcome.passed());
    }

    #[test]
    fn guard_is_reentrant_across_calls() {
        for _ in 0..3 {
            assert!(catch_harness_fault(|| -> u32 { panic!("again") }).is_err());
            assert_eq!(catch_harness_fault(|| 1), Ok(1));
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let policy = CheckPolicy {
            timeout: Some(Duration::from_secs(60)),
            ..CheckPolicy::default()
        };
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert!(r.outcome.passed(), "got {:?}", r.outcome);
    }

    #[test]
    fn injected_panic_is_a_panic_fault() {
        let policy = CheckPolicy {
            chaos: ChaosSpec::parse("check.panic%1", 0).unwrap(),
            ..CheckPolicy::default()
        };
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert_eq!(
            r.outcome,
            CheckOutcome::HarnessFault("chaos: injected checker panic".into())
        );
        assert_eq!(r.outcome.fault_kind(), Some(FaultKind::Panic));
    }

    #[test]
    fn injected_timeout_is_clockless_and_soft() {
        let policy = CheckPolicy {
            chaos: ChaosSpec::parse("check.timeout%1", 0).unwrap(),
            ..CheckPolicy::default()
        };
        // No policy.timeout: the injected timeout never arms a deadline.
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert_eq!(r.outcome, CheckOutcome::Timeout(TimeoutKind::Soft));
        assert_eq!(r.outcome.fault_kind(), Some(FaultKind::SoftTimeout));
    }

    #[test]
    fn attempt_limited_injection_heals_on_retry() {
        // Fires on attempt 0 only; one retry reaches the real outcome.
        let no_retry = CheckPolicy {
            chaos: ChaosSpec::parse("check.timeout:1%1", 0).unwrap(),
            ..CheckPolicy::default()
        };
        let policy = CheckPolicy {
            backoff: Duration::ZERO,
            retries: 1,
            ..no_retry.clone()
        };
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert!(r.outcome.passed(), "retry must heal: {:?}", r.outcome);
        // Without the retry budget the injected timeout is recorded.
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &no_retry,
        );
        assert_eq!(r.outcome, CheckOutcome::Timeout(TimeoutKind::Soft));
    }

    #[test]
    fn detached_checker_flushes_stages_at_cancel_point() {
        // Regression: a hard-timed-out checker used to drain its obs
        // buffers only at thread exit — which could land after collect(),
        // silently losing every span of a `guard.hard_timeout` run. The
        // checker now flushes at its cancel point and the supervisor
        // flushes before detaching, so partial stage coverage survives.
        vgen_obs::enable();
        let policy = CheckPolicy {
            chaos: ChaosSpec::parse("check.delay:400%1", 0).unwrap(),
            ..deadline(50)
        };
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert_eq!(r.outcome, CheckOutcome::Timeout(TimeoutKind::Hard));
        // The supervisor flushed before detaching: the verdict counter is
        // visible to a live snapshot immediately, mid-hang.
        let snap = vgen_obs::snapshot();
        assert!(
            snap.counters
                .get("guard.hard_timeout")
                .copied()
                .unwrap_or(0)
                >= 1,
            "hard-timeout counter must be snapshot-visible: {:?}",
            snap.counters
        );
        // Wait out the injected stall so the detached checker wakes, runs
        // its cancelled check, and flushes at the cancel point.
        std::thread::sleep(Duration::from_millis(1200));
        let report = vgen_obs::collect();
        let stage_samples: u64 = report.hists.values().map(|h| h.count).sum();
        assert!(
            stage_samples > 0,
            "detached checker must flush partial stage spans, got hists {:?}",
            report.hists.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn hard_hang_is_detached_within_grace() {
        // An injected 2 s uncancellable sleep against a 50 ms deadline and
        // 100 ms grace: the watchdog must detach and return hard-timeout
        // long before the sleep finishes.
        let policy = CheckPolicy {
            chaos: ChaosSpec::parse("check.delay:2000%1", 0).unwrap(),
            ..deadline(50)
        };
        let start = std::time::Instant::now();
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert_eq!(r.outcome, CheckOutcome::Timeout(TimeoutKind::Hard));
        assert_eq!(r.outcome.fault_kind(), Some(FaultKind::HardTimeout));
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "watchdog must not wait out the hang"
        );
        // The caller's thread keeps working: a fresh check succeeds while
        // the abandoned one is still asleep.
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &CheckPolicy::default(),
        );
        assert!(r.outcome.passed());
    }

    const GOOD: &str = "assign y = a & b;\nendmodule";

    /// One attempt on `cache`, a test-private cache, so the spawn counts
    /// below are exact even while other tests use the process-wide one.
    fn check_on(cache: &'static ThreadCache, policy: &CheckPolicy) -> CheckOutcome {
        let source = assemble(p(), PromptLevel::Low, GOOD);
        attempt_check(cache, p(), &source, SimConfig::default(), policy, 0).0
    }

    fn spawned(cache: &ThreadCache) -> u64 {
        cache.spawned.load(Ordering::Relaxed)
    }

    fn deadline(ms: u64) -> CheckPolicy {
        CheckPolicy {
            timeout: Some(Duration::from_millis(ms)),
            grace: Duration::from_millis(100),
            ..CheckPolicy::default()
        }
    }

    #[test]
    fn nested_catch_keeps_the_outer_report_quiet() {
        let inside = catch_harness_fault(|| {
            assert!(catch_harness_fault(|| -> u32 { panic!("inner") }).is_err());
            QUIET.with(Cell::get)
        });
        assert_eq!(inside, Ok(true), "the inner catch un-silenced the outer");
        assert!(!QUIET.with(Cell::get));
    }

    #[test]
    fn checks_on_a_check_thread_run_inline_unless_they_have_a_deadline() {
        static CACHE: ThreadCache = ThreadCache::new();
        let marked = spawn_check_thread("guard-test".into(), || {
            assert!(check_on(&CACHE, &CheckPolicy::default()).passed());
            assert_eq!(spawned(&CACHE), 0, "a deadline-free check ran inline");
            assert!(check_on(&CACHE, &deadline(60_000)).passed());
            assert_eq!(spawned(&CACHE), 1, "a check with a deadline was handed off");
        });
        marked.expect("spawn").join().expect("checks passed");
        // This (test) thread is unmarked, so even a deadline-free check is
        // handed off — to the now-idle thread.
        assert!(!on_check_thread());
        assert!(check_on(&CACHE, &CheckPolicy::default()).passed());
        assert_eq!(spawned(&CACHE), 1);
    }

    #[test]
    fn sequential_checks_reuse_one_thread() {
        static CACHE: ThreadCache = ThreadCache::new();
        for _ in 0..5 {
            assert!(check_on(&CACHE, &CheckPolicy::default()).passed());
        }
        assert_eq!(spawned(&CACHE), 1);
        assert_eq!(CACHE.idle().len(), 1);
    }

    #[test]
    fn a_thread_survives_a_caught_panic() {
        static CACHE: ThreadCache = ThreadCache::new();
        let panicky = CheckPolicy {
            chaos: ChaosSpec::parse("check.panic%1", 0).unwrap(),
            ..CheckPolicy::default()
        };
        assert_eq!(
            check_on(&CACHE, &panicky),
            CheckOutcome::HarnessFault("chaos: injected checker panic".into())
        );
        assert_eq!(CACHE.idle().len(), 1, "the panicked thread is back");
        assert_eq!(
            check_on(&CACHE, &CheckPolicy::default()),
            CheckOutcome::Pass
        );
        assert_eq!(spawned(&CACHE), 1, "the same thread ran both checks");
    }

    #[test]
    fn a_hard_hung_thread_is_not_reused() {
        static CACHE: ThreadCache = ThreadCache::new();
        let hang = CheckPolicy {
            chaos: ChaosSpec::parse("check.delay:2000%1", 0).unwrap(),
            ..deadline(50)
        };
        let start = std::time::Instant::now();
        assert_eq!(
            check_on(&CACHE, &hang),
            CheckOutcome::Timeout(TimeoutKind::Hard)
        );
        assert_eq!(CACHE.idle().len(), 0, "the hung thread is not idle");
        assert_eq!(
            check_on(&CACHE, &CheckPolicy::default()),
            CheckOutcome::Pass
        );
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "the next check must not wait for the hung thread"
        );
        assert_eq!(spawned(&CACHE), 2, "the next check spawned a fresh thread");
        assert_eq!(CACHE.idle().len(), 1);
    }

    #[test]
    fn racing_callers_spawn_at_most_one_thread_each() {
        static CACHE: ThreadCache = ThreadCache::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert!(check_on(&CACHE, &CheckPolicy::default()).passed());
                    }
                });
            }
        });
        assert!(spawned(&CACHE) <= 8, "spawned {}", spawned(&CACHE));
        assert_eq!(CACHE.idle().len() as u64, spawned(&CACHE));
    }

    #[test]
    fn idle_list_never_grows_past_its_cap() {
        static CACHE: ThreadCache = ThreadCache::new();
        let burst = IDLE_THREADS + 4;
        // Every task holds its thread until all of them run at once.
        let gate = std::sync::Arc::new(std::sync::Barrier::new(burst + 1));
        let (done_tx, done) = mpsc::channel();
        for _ in 0..burst {
            let gate = std::sync::Arc::clone(&gate);
            let done_tx = done_tx.clone();
            let work = move || {
                gate.wait();
                on_check_thread()
            };
            CACHE
                .run(work, move |marked| done_tx.send(marked).unwrap())
                .expect("run a task");
        }
        gate.wait();
        for _ in 0..burst {
            assert!(done.recv().expect("task done"), "cached threads are marked");
        }
        assert_eq!(spawned(&CACHE), burst as u64);
        assert_eq!(CACHE.idle().len(), IDLE_THREADS);
    }
}
