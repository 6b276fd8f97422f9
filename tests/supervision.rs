//! Deadline supervision end-to-end: slow-but-legal completions classify as
//! timeouts under a tight deadline and as ordinary verdicts without one;
//! injected hard stalls are detached by the watchdog; retries heal
//! transient timeouts; a stalled worker pool degrades to hard-timeout
//! *records* instead of aborting the sweep; and the process-wide cache of
//! check threads survives panics, hard hangs and stalls.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use vgen::core::check::CheckOutcome;
use vgen::core::{
    run_engine_sweep, supervised_check_completion, ChaosSpec, CheckPolicy, FaultKind, SweepHooks,
    SweepOptions, TimeoutKind,
};
use vgen::lm::engine::{Completion, CompletionEngine};
use vgen::lm::mutate::slow_corpus;
use vgen::problems::{problem, Problem, PromptLevel};
use vgen::sim::SimConfig;

/// Every test here runs checks on the process-wide cache of check threads,
/// and one counts the cache's spawns in a `vgen-obs` session, which sees
/// every thread: the tests must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn slow_corpus_times_out_softly_under_a_tight_deadline() {
    let _serial = serial();
    let p = problem(2).expect("problem 2 (and_gate) exists");
    let policy = CheckPolicy::default().with_timeout(Some(Duration::from_millis(5)));
    for (op, completion) in slow_corpus() {
        let result = supervised_check_completion(
            p,
            PromptLevel::Low,
            &completion,
            SimConfig::default(),
            &policy,
        );
        match result.outcome {
            // Soft: the cancel token is polled in every pipeline stage, so
            // the checker unwinds cooperatively well inside the grace
            // window — the watchdog never has to abandon the thread.
            CheckOutcome::Timeout(TimeoutKind::Soft) => {}
            other => panic!("slow entry {op:?} gave {other:?}, expected a soft timeout"),
        }
    }
}

#[test]
fn slow_corpus_passes_within_budgets_without_a_deadline() {
    let _serial = serial();
    // Every slow entry implements a correct AND gate and is sized to stay
    // inside the default parser/elaborator/simulator budgets; with no
    // deadline configured each one must therefore *pass* — slowness alone
    // is not a fault.
    let p = problem(2).expect("problem 2 exists");
    let policy = CheckPolicy::default();
    for (op, completion) in slow_corpus() {
        let result = supervised_check_completion(
            p,
            PromptLevel::Low,
            &completion,
            SimConfig::default(),
            &policy,
        );
        assert!(
            matches!(result.outcome, CheckOutcome::Pass),
            "slow entry {op:?} gave {:?}, expected Pass (did it blow a budget?)",
            result.outcome
        );
    }
}

#[test]
fn injected_hard_stall_is_detached_and_classified() {
    let _serial = serial();
    // chaos `check.delay:600%1` makes the checker thread sleep 600 ms
    // before doing any work — a stall the cancel token cannot interrupt.
    // With a 25 ms deadline and the default 200 ms grace, the watchdog
    // must detach the thread and classify the attempt as a *hard* timeout
    // in ~225 ms, not wait out the full sleep.
    let p = problem(2).expect("problem 2 exists");
    let policy = CheckPolicy::default()
        .with_timeout(Some(Duration::from_millis(25)))
        .with_chaos(ChaosSpec::parse("check.delay:600%1", 0).expect("valid spec"));
    let start = std::time::Instant::now();
    let result = supervised_check_completion(
        p,
        PromptLevel::Low,
        "assign y = a & b;\nendmodule\n",
        SimConfig::default(),
        &policy,
    );
    let elapsed = start.elapsed();
    assert!(
        matches!(result.outcome, CheckOutcome::Timeout(TimeoutKind::Hard)),
        "expected a hard timeout, got {:?}",
        result.outcome
    );
    assert!(
        elapsed < Duration::from_millis(550),
        "watchdog waited out the stall instead of detaching ({elapsed:?})"
    );
}

#[test]
fn injected_soft_timeout_heals_on_retry() {
    let _serial = serial();
    // `check.timeout:1%1` fires a synthetic soft timeout on attempt 0 for
    // every completion, and never on later attempts. Without retries the
    // timeout is recorded; with one retry the second attempt runs the real
    // check and passes.
    let p = problem(2).expect("problem 2 exists");
    let chaos = ChaosSpec::parse("check.timeout:1%1", 0).expect("valid spec");
    let good = "assign y = a & b;\nendmodule\n";

    let no_retry = CheckPolicy::default().with_chaos(chaos.clone());
    let r = supervised_check_completion(p, PromptLevel::Low, good, SimConfig::default(), &no_retry);
    assert!(
        matches!(r.outcome, CheckOutcome::Timeout(TimeoutKind::Soft)),
        "expected the injected timeout to be recorded, got {:?}",
        r.outcome
    );

    let one_retry = CheckPolicy::default().with_chaos(chaos).with_retries(1);
    let r =
        supervised_check_completion(p, PromptLevel::Low, good, SimConfig::default(), &one_retry);
    assert!(
        matches!(r.outcome, CheckOutcome::Pass),
        "expected the retry to heal the injected timeout, got {:?}",
        r.outcome
    );
}

/// An engine producing distinct passing completions (no dedup collapse).
struct DistinctEngine {
    cursor: usize,
}

impl CompletionEngine for DistinctEngine {
    fn name(&self) -> String {
        "supervision-distinct".into()
    }

    fn generate(
        &mut self,
        _problem: &Problem,
        _level: PromptLevel,
        _temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        (0..n)
            .map(|_| {
                self.cursor += 1;
                Completion {
                    text: format!("assign y = a & b; // v{}\nendmodule\n", self.cursor),
                    latency_s: 0.001,
                }
            })
            .collect()
    }
}

#[test]
fn stalled_worker_pool_degrades_to_hard_timeout_records() {
    let _serial = serial();
    // Every check sleeps 700 ms (chaos check.delay, no per-check deadline)
    // while the merge loop only waits 150 ms for a result: the pool is
    // declared stalled, every outstanding item is recorded as a hard
    // timeout, and the sweep still *completes* with a full-length run.
    let cfg = vgen::core::EvalConfig {
        temperatures: vec![0.5],
        ns: vec![6],
        levels: vec![PromptLevel::Low],
        problem_ids: vec![2],
        sim: SimConfig::default(),
    };
    let opts = SweepOptions {
        policy: CheckPolicy::default()
            .with_chaos(ChaosSpec::parse("check.delay:700%1", 0).expect("valid spec")),
        stall_timeout: Some(Duration::from_millis(150)),
        jobs: 2,
        ..SweepOptions::default()
    };
    let (run, _stats) = run_engine_sweep(
        &mut DistinctEngine { cursor: 0 },
        &cfg,
        None,
        &opts,
        &SweepHooks::default(),
    )
    .expect("a stalled pool must degrade, not abort the sweep");
    assert_eq!(run.records.len(), 6, "every grid item must be recorded");
    assert!(
        run.fault_count() >= 1,
        "expected at least one stall record, got none"
    );
    assert_eq!(
        run.fault_count(),
        run.fault_count_of(FaultKind::HardTimeout),
        "stall records must be classified as hard timeouts"
    );

    // A follow-up sweep in the same process, while the abandoned workers
    // are still stuck in their checks, passes normally.
    let (run, _stats) = run_engine_sweep(
        &mut DistinctEngine { cursor: 0 },
        &cfg,
        None,
        &SweepOptions {
            jobs: 2,
            ..SweepOptions::default()
        },
        &SweepHooks::default(),
    )
    .expect("follow-up sweep");
    assert_eq!(run.records.len(), 6);
    assert!(
        run.records.iter().all(|r| r.passed && !r.fault),
        "follow-up sweep must pass: {:?}",
        run.records
    );
}

#[test]
fn chaos_sweep_on_pooled_checkers_keeps_its_verdicts() {
    let _serial = serial();
    // Forty distinct passing completions on four workers. A fifth of the
    // checks panic, and some stall 1.5 s past a 200 ms deadline into a
    // hard timeout.
    let cfg = vgen::core::EvalConfig {
        temperatures: vec![0.5],
        ns: vec![40],
        levels: vec![PromptLevel::Low],
        problem_ids: vec![2],
        sim: SimConfig::default(),
    };
    let jobs = 4;
    let (clean, _stats) = run_engine_sweep(
        &mut DistinctEngine { cursor: 0 },
        &cfg,
        None,
        &SweepOptions {
            jobs,
            ..SweepOptions::default()
        },
        &SweepHooks::default(),
    )
    .expect("clean sweep");
    let opts = SweepOptions {
        policy: CheckPolicy {
            timeout: Some(Duration::from_millis(200)),
            grace: Duration::from_millis(100),
            ..CheckPolicy::default()
        }
        .with_chaos(ChaosSpec::parse("check.panic%5;check.delay:1500%13", 0).expect("valid spec")),
        jobs,
        ..SweepOptions::default()
    };
    vgen::obs::enable();
    let (chaos, stats) = run_engine_sweep(
        &mut DistinctEngine { cursor: 0 },
        &cfg,
        None,
        &opts,
        &SweepHooks::default(),
    )
    .expect("chaos sweep");
    let obs = vgen::obs::collect();

    assert_eq!(chaos.records.len(), clean.records.len());
    for (i, (c, k)) in chaos.records.iter().zip(&clean.records).enumerate() {
        if !c.fault {
            assert_eq!(c, k, "record {i} differs from the clean run");
        }
    }
    let panics = chaos.fault_count_of(FaultKind::Panic);
    let hard = chaos.fault_count_of(FaultKind::HardTimeout);
    assert!(
        panics >= 1 && hard >= 1,
        "{panics} panics, {hard} hard timeouts"
    );
    assert_eq!(chaos.fault_count(), panics + hard);
    let counter = |name: &str| obs.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("guard.hard_timeout"), hard as u64);
    // Every attempt has a deadline, so every one is handed off to a
    // cached check thread. Each worker holds one such thread at a time,
    // and only a hard timeout keeps one from coming back idle.
    assert_eq!(
        counter("guard.handoff"),
        stats.checks_run as u64 + counter("guard.retry"),
        "one hand-off per deadline attempt"
    );
    assert!(
        counter("guard.thread_spawn") <= jobs as u64 + counter("guard.hard_timeout"),
        "{} thread spawns for {jobs} workers and {hard} hard timeouts",
        counter("guard.thread_spawn")
    );
}
