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
//!   3. **watchdog** — the guard waits `deadline + grace` for the checker
//!      thread's result. Cooperative exit lands here.
//!   4. **detach** — no result inside the grace period means the checker is
//!      hard-hung (stuck outside any poll site). The thread is detached —
//!      abandoned, never joined, and retired from the checker pool so no
//!      later check is handed to it — and the outcome is a *hard timeout*.
//!      The calling worker continues immediately; the pool never loses a
//!      worker to a hang.
//!   5. **retry** — timeouts are transient by nature (machine load, cache
//!      state), so the policy may retry them with exponential backoff
//!      before the record is finalized. Panics are deterministic and are
//!      never retried.
//!
//! While a guarded check is running, the default "thread panicked at ..."
//! report is suppressed (per thread) so sweeps don't spray backtraces; the
//! panic message is preserved in the outcome instead.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, Once};
use std::time::Duration;

use vgen_obs::CancelToken;
use vgen_problems::{Problem, PromptLevel};
use vgen_sim::SimConfig;

use crate::chaos::{ChaosSite, ChaosSpec};
use crate::check::{check_completion_cancellable, CheckOutcome, CheckResult, TimeoutKind};

thread_local! {
    /// Set while a guarded closure runs on this thread.
    static QUIET: Cell<bool> = const { Cell::new(false) };
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
/// (the `panic!` message, when it is a string) is returned instead.
pub fn catch_harness_fault<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
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

/// Stack size of every pooled checker thread. The parser's recursion
/// guard ([`vgen_verilog::parser::MAX_NEST_DEPTH`]) is sized so the worst
/// legal nesting fits in a fraction of this even in unoptimised builds.
const CHECK_STACK_BYTES: usize = 8 * 1024 * 1024;

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

impl CheckPolicy {
    /// Returns the policy with the per-attempt deadline replaced.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Returns the policy with the retry budget replaced.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Returns the policy with the chaos spec replaced.
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = chaos;
        self
    }
}

/// [`check_completion`](crate::check::check_completion) with fault
/// isolation and the default (deadline-less) [`CheckPolicy`]: the check
/// runs on a pooled checker thread with a known [8 MiB
/// stack](CHECK_STACK_BYTES) — so classification never depends on how much
/// stack the *caller* happens to have left — and a panic anywhere in the
/// assemble/parse/elaborate/simulate stack yields
/// [`CheckOutcome::HarnessFault`] instead of unwinding into the caller.
///
/// ```
/// use vgen_core::guard::guarded_check_completion;
/// use vgen_problems::{problem, PromptLevel};
/// use vgen_sim::SimConfig;
///
/// let p = problem(2).expect("problem");
/// let r = guarded_check_completion(p, PromptLevel::Low, "endmodule", SimConfig::default());
/// assert!(!r.outcome.passed());
/// ```
pub fn guarded_check_completion(
    problem: &'static Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
) -> CheckResult {
    supervised_check_completion(problem, level, completion, config, &CheckPolicy::default())
}

/// [`guarded_check_completion`] under an explicit [`CheckPolicy`]: adds
/// wall-clock deadline supervision (soft/hard timeout classification, see
/// the module docs), bounded retry for timeouts, and deterministic fault
/// injection.
///
/// Checker threads are long-lived and shared process-wide: a check takes
/// an idle one (spawning one only when none is free) and hands it back
/// once it has answered, panic or not. A hard-hung checker is never
/// handed back.
///
/// `problem` is `&'static` because on a hard hang the checker thread is
/// detached and may touch its inputs long after this call returns —
/// borrowed data must therefore live forever (problems do: they come from
/// the static problem table) or be owned by the thread (the completion is
/// copied in).
pub fn supervised_check_completion(
    problem: &'static Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
    policy: &CheckPolicy,
) -> CheckResult {
    let mut attempt: u32 = 0;
    loop {
        let result = attempt_check(
            &CHECKERS, problem, level, completion, config, policy, attempt,
        );
        if matches!(result.outcome, CheckOutcome::Timeout(_)) {
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
        return result;
    }
}

/// What a checker sends back for one job: the check's result, or the
/// message of a panic caught inside it.
type Caught = Result<CheckResult, String>;

/// One check for a pooled checker. Everything it needs is owned (or
/// `'static`), because a hard-hung checker outlives the call that sent it.
struct Job {
    problem: &'static Problem,
    level: PromptLevel,
    completion: String,
    config: SimConfig,
    cancel: CancelToken,
    chaos: ChaosSpec,
    /// The caller's obs lane: a pooled checker records onto the lane of
    /// whichever worker sent the job, so a sweep's trace shows one
    /// timeline per worker rather than one per checker.
    lane: u32,
}

impl Job {
    /// Runs on the checker thread. Panics stay inside
    /// [`catch_harness_fault`], so the thread survives them.
    fn run(self) -> Caught {
        vgen_obs::adopt_lane(self.lane);
        let caught = catch_harness_fault(|| {
            if self
                .chaos
                .fires(ChaosSite::CheckPanic, self.completion.as_bytes())
                .is_some()
            {
                panic!("chaos: injected checker panic");
            }
            if let Some(ms) = self
                .chaos
                .fires(ChaosSite::CheckDelayMs, self.completion.as_bytes())
            {
                // A real, uncancellable stall — exercises the hard-
                // timeout detach path.
                std::thread::sleep(Duration::from_millis(ms));
            }
            check_completion_cancellable(
                self.problem,
                self.level,
                &self.completion,
                self.config,
                &self.cancel,
            )
        });
        // Drain this thread's obs buffers after every job: the thread is
        // long-lived, so nothing else would drain them until it exits, and
        // after a hard timeout the caller has already moved on — flushing
        // at the cancel point keeps the partial stage spans a
        // hard-timed-out check did complete.
        vgen_obs::flush();
        caught
    }
}

/// A long-lived `vgen-check` thread with a known
/// [8 MiB stack](CHECK_STACK_BYTES), reached through its two channels.
/// Dropping the handle closes the job channel, so the thread exits once
/// the job it is running (if any) returns.
struct Checker {
    jobs: mpsc::Sender<Job>,
    results: mpsc::Receiver<Caught>,
}

impl Checker {
    fn spawn() -> std::io::Result<Checker> {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (result_tx, results) = mpsc::channel();
        // The join handle is dropped: a checker is never joined, since a
        // hard-hung one may not return for a long time, and one that dies
        // shows up as a closed result channel.
        std::thread::Builder::new()
            .name("vgen-check".into())
            .stack_size(CHECK_STACK_BYTES)
            .spawn(move || {
                for job in job_rx {
                    if result_tx.send(job.run()).is_err() {
                        // Detached after a hard timeout: nobody is waiting.
                        break;
                    }
                }
            })?;
        Ok(Checker { jobs, results })
    }
}

/// Most idle checkers the pool keeps — about the most checks a process
/// runs at once (one per sweep worker). A burst wider than this spawns
/// extra checkers, which exit when they come back to a full list.
const IDLE_CHECKERS: usize = 8;

/// Idle checker threads, shared by every caller in the process.
struct CheckerPool {
    idle: Mutex<Vec<Checker>>,
    /// Checkers this pool has spawned (what `guard.checker_spawn` counts).
    spawned: AtomicU64,
}

/// The process-wide pool behind [`supervised_check_completion`].
static CHECKERS: CheckerPool = CheckerPool::new();

impl CheckerPool {
    const fn new() -> Self {
        CheckerPool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
        }
    }

    fn idle(&self) -> MutexGuard<'_, Vec<Checker>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An idle checker, or a freshly spawned one if none is free.
    fn take(&self) -> std::io::Result<Checker> {
        if let Some(checker) = self.idle().pop() {
            return Ok(checker);
        }
        let checker = Checker::spawn()?;
        self.spawned.fetch_add(1, Ordering::Relaxed);
        vgen_obs::counter_add("guard.checker_spawn", 1);
        Ok(checker)
    }

    /// Returns a checker that has answered its job. Only such checkers
    /// come back: a hard-hung or dead one is dropped, never reused.
    fn give_back(&self, checker: Checker) {
        let mut idle = self.idle();
        if idle.len() < IDLE_CHECKERS {
            idle.push(checker);
        }
    }
}

/// One supervised attempt on a pooled checker thread with a known 8 MiB
/// stack: send the job, wait for its result up to deadline + grace,
/// classify.
fn attempt_check(
    pool: &CheckerPool,
    problem: &'static Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
    policy: &CheckPolicy,
    attempt: u32,
) -> CheckResult {
    // Injected soft timeout: synthesized before any work, without reading
    // a clock — deterministic in (seed, completion, attempt) so chaos runs
    // byte-compare across jobs counts and kill/resume.
    if policy
        .chaos
        .fires_check_timeout(completion.as_bytes(), attempt)
    {
        vgen_obs::counter_add("guard.chaos", 1);
        return no_verdict(CheckOutcome::Timeout(TimeoutKind::Soft));
    }

    let cancel = match policy.timeout {
        Some(t) => CancelToken::with_deadline(t),
        None => CancelToken::unlimited(),
    };
    let checker = match pool.take() {
        Ok(c) => c,
        Err(e) => {
            vgen_obs::counter_add("guard.fault", 1);
            return no_verdict(CheckOutcome::HarnessFault(format!(
                "cannot spawn checker thread: {e}"
            )));
        }
    };
    let job = Job {
        problem,
        level,
        completion: completion.to_string(),
        config,
        cancel: cancel.clone(),
        chaos: policy.chaos.clone(),
        lane: vgen_obs::current_lane(),
    };
    let answer = match policy.timeout {
        // The checker is alive while idle, so this only fires if it died.
        _ if checker.jobs.send(job).is_err() => Err(mpsc::RecvTimeoutError::Disconnected),
        // Unsupervised: block until the check finishes.
        None => checker
            .results
            .recv()
            .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        Some(t) => checker.results.recv_timeout(t + policy.grace),
    };
    match answer {
        Ok(Ok(r)) => {
            pool.give_back(checker);
            r
        }
        // A caught panic: the checker survived it and is reusable.
        Ok(Err(msg)) => {
            pool.give_back(checker);
            vgen_obs::counter_add("guard.fault", 1);
            no_verdict(CheckOutcome::HarnessFault(msg))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Hard hang: the deadline armed the token at `t`, the grace
            // period passed, and the checker never reached a poll site.
            // Detach it: drop the handle without joining, so it leaves the
            // pool for good and exits whenever its job returns; the worker
            // moves on.
            cancel.cancel();
            vgen_obs::counter_add("guard.hard_timeout", 1);
            // Make the verdict visible to live snapshots before the worker
            // moves on — the detached thread may hold its lane hostage for
            // a long time.
            vgen_obs::flush();
            drop(checker);
            no_verdict(CheckOutcome::Timeout(TimeoutKind::Hard))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            vgen_obs::counter_add("guard.fault", 1);
            no_verdict(CheckOutcome::HarnessFault(
                "checker thread died".to_string(),
            ))
        }
    }
}

/// A [`CheckResult`] for outcomes that never produced a candidate verdict
/// (faults and timeouts): no source, no lint.
fn no_verdict(outcome: CheckOutcome) -> CheckResult {
    CheckResult {
        outcome,
        source: String::new(),
        lint: None,
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
        let r = guarded_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
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
        let policy = CheckPolicy::default().with_timeout(Some(Duration::from_secs(60)));
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
        let chaos = ChaosSpec::parse("check.panic%1", 0).unwrap();
        let policy = CheckPolicy::default().with_chaos(chaos);
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
        let chaos = ChaosSpec::parse("check.timeout%1", 0).unwrap();
        let policy = CheckPolicy::default().with_chaos(chaos);
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
        let chaos = ChaosSpec::parse("check.timeout:1%1", 0).unwrap();
        let policy = CheckPolicy {
            backoff: Duration::ZERO,
            ..CheckPolicy::default()
        }
        .with_chaos(chaos.clone())
        .with_retries(1);
        let r = supervised_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
            &policy,
        );
        assert!(r.outcome.passed(), "retry must heal: {:?}", r.outcome);
        // Without the retry budget the injected timeout is recorded.
        let no_retry = CheckPolicy::default().with_chaos(chaos);
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
        let chaos = ChaosSpec::parse("check.delay:400%1", 0).unwrap();
        let policy = CheckPolicy {
            timeout: Some(Duration::from_millis(50)),
            grace: Duration::from_millis(100),
            ..CheckPolicy::default()
        }
        .with_chaos(chaos);
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
        let chaos = ChaosSpec::parse("check.delay:2000%1", 0).unwrap();
        let policy = CheckPolicy {
            timeout: Some(Duration::from_millis(50)),
            grace: Duration::from_millis(100),
            ..CheckPolicy::default()
        }
        .with_chaos(chaos);
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
        let r = guarded_check_completion(
            p(),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
        );
        assert!(r.outcome.passed());
    }

    const GOOD: &str = "assign y = a & b;\nendmodule";

    /// One attempt on a private pool, so the spawn counts below are
    /// exact even while other tests use the process-wide pool.
    fn check_on(pool: &CheckerPool, policy: &CheckPolicy) -> CheckResult {
        attempt_check(
            pool,
            p(),
            PromptLevel::Low,
            GOOD,
            SimConfig::default(),
            policy,
            0,
        )
    }

    fn spawned(pool: &CheckerPool) -> u64 {
        pool.spawned.load(Ordering::Relaxed)
    }

    #[test]
    fn sequential_checks_reuse_one_checker() {
        let pool = CheckerPool::new();
        for _ in 0..5 {
            assert!(check_on(&pool, &CheckPolicy::default()).outcome.passed());
        }
        assert_eq!(spawned(&pool), 1);
        assert_eq!(pool.idle().len(), 1);
    }

    #[test]
    fn a_checker_survives_a_caught_panic() {
        let pool = CheckerPool::new();
        let panicky =
            CheckPolicy::default().with_chaos(ChaosSpec::parse("check.panic%1", 0).unwrap());
        assert_eq!(
            check_on(&pool, &panicky).outcome,
            CheckOutcome::HarnessFault("chaos: injected checker panic".into())
        );
        assert_eq!(pool.idle().len(), 1, "the panicked checker is back");
        let r = check_on(&pool, &CheckPolicy::default());
        assert_eq!(r.outcome, CheckOutcome::Pass);
        assert_eq!(spawned(&pool), 1, "the same checker ran both checks");
    }

    #[test]
    fn a_hard_hung_checker_is_never_reused() {
        let pool = CheckerPool::new();
        let hang = CheckPolicy {
            timeout: Some(Duration::from_millis(50)),
            grace: Duration::from_millis(100),
            ..CheckPolicy::default()
        }
        .with_chaos(ChaosSpec::parse("check.delay:2000%1", 0).unwrap());
        let start = std::time::Instant::now();
        assert_eq!(
            check_on(&pool, &hang).outcome,
            CheckOutcome::Timeout(TimeoutKind::Hard)
        );
        assert_eq!(pool.idle().len(), 0, "the hung checker left the pool");
        let r = check_on(&pool, &CheckPolicy::default());
        assert_eq!(r.outcome, CheckOutcome::Pass);
        assert!(
            start.elapsed() < Duration::from_millis(1500),
            "the next check must not wait for the hung checker"
        );
        assert_eq!(spawned(&pool), 2, "the next check spawned a fresh checker");
        assert_eq!(pool.idle().len(), 1);
    }

    #[test]
    fn racing_callers_spawn_at_most_one_checker_each() {
        let pool = CheckerPool::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert!(check_on(&pool, &CheckPolicy::default()).outcome.passed());
                    }
                });
            }
        });
        assert!(spawned(&pool) <= 8, "spawned {}", spawned(&pool));
        assert_eq!(pool.idle().len() as u64, spawned(&pool));
    }

    #[test]
    fn idle_list_never_grows_past_its_cap() {
        let pool = CheckerPool::new();
        for _ in 0..IDLE_CHECKERS + 4 {
            pool.give_back(Checker::spawn().expect("spawn a checker"));
        }
        assert_eq!(pool.idle().len(), IDLE_CHECKERS);
    }
}
