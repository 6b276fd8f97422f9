//! The deterministic chaos harness: seeded fault injection must compose
//! with the sweep's determinism guarantees. Injected faults are keyed by
//! *content* (assembled source, journal line, canonical item position),
//! never by clocks or occurrence counters, so a chaos sweep's final report
//! and journal are byte-identical across worker counts and across
//! kill/resume — the property CI's chaos-smoke job rechecks end to end.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use vgen::core::{
    render_eval_summary, run_engine_sweep, ChaosSpec, CheckPolicy, EvalConfig, EvalRun, Record,
    SweepHooks, SweepOptions, SweepStats,
};
use vgen::lm::engine::{Completion, CompletionEngine};
use vgen::problems::{Problem, PromptLevel};
use vgen::sim::SimConfig;

/// Deterministic engine producing distinct passing completions, so chaos
/// rules keyed by completion text see plenty of distinct keys.
struct DistinctEngine {
    cursor: usize,
}

impl CompletionEngine for DistinctEngine {
    fn name(&self) -> String {
        "chaos-distinct".into()
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

fn cfg() -> EvalConfig {
    EvalConfig {
        temperatures: vec![0.5],
        ns: vec![12],
        levels: vec![PromptLevel::Low],
        problem_ids: vec![1, 2],
        sim: SimConfig::default(),
    }
}

/// The clockless chaos mix used by the determinism tests: injected checker
/// panics, pool-task panics, and synthetic soft timeouts that heal on
/// first retry. No `check.delay` — that site reads the wall clock and is
/// reserved for the watchdog tests.
fn clockless_chaos() -> ChaosSpec {
    ChaosSpec::parse("check.panic%3;check.timeout:1%5;task.panic%7", 42).expect("valid spec")
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vgen-chaos-harness");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}-{}.log", std::process::id()))
}

fn chaos_opts(jobs: usize) -> SweepOptions {
    SweepOptions {
        policy: CheckPolicy {
            chaos: clockless_chaos(),
            retries: 1,
            ..CheckPolicy::default()
        },
        jobs,
        ..SweepOptions::default()
    }
}

fn sweep(tag: &str, opts: &SweepOptions) -> (EvalRun, SweepStats, Vec<u8>) {
    let path = journal_path(tag);
    let _ = std::fs::remove_file(&path);
    let (run, stats) = run_engine_sweep(
        &mut DistinctEngine { cursor: 0 },
        &cfg(),
        Some((&path, false)),
        opts,
        &SweepHooks::default(),
    )
    .expect("chaos sweep");
    let journal = std::fs::read(&path).expect("journal bytes");
    let _ = std::fs::remove_file(&path);
    (run, stats, journal)
}

#[test]
fn chaos_run_is_byte_identical_across_worker_counts() {
    let (baseline, _, baseline_journal) = sweep("jobs-1", &chaos_opts(1));
    // The seed/denominator mix must actually inject something, or this
    // test proves nothing.
    assert!(
        baseline.fault_count() > 0,
        "chaos mix injected no faults — adjust seed or denominators"
    );
    for jobs in [2usize, 4] {
        let (run, _, journal) = sweep(&format!("jobs-{jobs}"), &chaos_opts(jobs));
        assert_eq!(run, baseline, "chaos run diverged at jobs={jobs}");
        assert_eq!(
            journal, baseline_journal,
            "chaos journal bytes diverged at jobs={jobs}"
        );
        assert_eq!(
            render_eval_summary(&run, "j"),
            render_eval_summary(&baseline, "j"),
            "rendered chaos reports diverged at jobs={jobs}"
        );
    }
}

#[test]
fn killed_chaos_run_resumes_to_identical_bytes() {
    // Reference: one uninterrupted chaos run.
    let (full, _, full_journal) = sweep("resume-full", &chaos_opts(4));

    // Simulate a SIGKILL mid-write: keep the header, ten complete record
    // lines, and a torn prefix of the eleventh (no trailing newline).
    let text = String::from_utf8(full_journal.clone()).expect("utf8 journal");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > 12,
        "journal too short to truncate: {}",
        lines.len()
    );
    let mut torn = lines[..11].join("\n");
    torn.push('\n');
    torn.push_str(&lines[11][..lines[11].len() / 2]);
    let path = journal_path("resume-torn");
    std::fs::write(&path, &torn).expect("write torn journal");

    // Resume under the same chaos spec at a different worker count.
    let (resumed, stats) = run_engine_sweep(
        &mut DistinctEngine { cursor: 0 },
        &cfg(),
        Some((&path, true)),
        &chaos_opts(2),
        &SweepHooks::default(),
    )
    .expect("resumed chaos sweep");
    let resumed_journal = std::fs::read(&path).expect("journal bytes");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        stats.resumed_records, 10,
        "resume cursor must sit at the valid prefix"
    );
    assert_eq!(
        stats.repaired_lines, 1,
        "the torn tail line must be counted as repaired"
    );
    assert_eq!(resumed, full, "kill/resume changed the chaos run");
    assert_eq!(
        resumed_journal, full_journal,
        "kill/resume changed the journal bytes"
    );
}

#[test]
fn injected_torn_write_crashes_then_resumes_to_a_clean_report() {
    // Reference: the same sweep with no chaos at all.
    let (clean, _, clean_journal) = sweep(
        "torn-clean",
        &SweepOptions {
            jobs: 2,
            ..SweepOptions::default()
        },
    );

    // journal.torn tears one record line down to its first 25 bytes and
    // fails the writer, which surfaces as an I/O error from the sweep —
    // exactly what a process dying mid-write leaves behind.
    let torn_spec = ChaosSpec::parse("journal.torn:25%7", 1).expect("valid spec");
    let path = journal_path("torn-crash");
    let _ = std::fs::remove_file(&path);
    let opts = SweepOptions {
        policy: CheckPolicy {
            chaos: torn_spec,
            ..CheckPolicy::default()
        },
        jobs: 2,
        ..SweepOptions::default()
    };
    // The failed write stops the journal, not the sweep: every record is
    // still checked and observed before the error is returned.
    let observed = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&observed);
    let hooks = SweepHooks {
        observer: Some(Arc::new(move |rec: &Record, _, _| {
            sink.lock().expect("observer lock").push(rec.clone());
        })),
        ..SweepHooks::default()
    };
    let err = run_engine_sweep(
        &mut DistinctEngine { cursor: 0 },
        &cfg(),
        Some((&path, false)),
        &opts,
        &hooks,
    )
    .expect_err("the injected torn write must fail the journaled sweep");
    assert!(
        err.to_string().contains("torn"),
        "unexpected error from torn write: {err}"
    );
    assert_eq!(
        *observed.lock().expect("observer lock"),
        clean.records,
        "the observer must see every record after the torn write"
    );

    // Recovery + resume (chaos off, as after an operator restart) must
    // converge to exactly the clean run's journal and report.
    let (resumed, stats) = run_engine_sweep(
        &mut DistinctEngine { cursor: 0 },
        &cfg(),
        Some((&path, true)),
        &SweepOptions {
            jobs: 2,
            ..SweepOptions::default()
        },
        &SweepHooks::default(),
    )
    .expect("resume after torn write");
    let resumed_journal = std::fs::read(&path).expect("journal bytes");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        stats.repaired_lines, 1,
        "the torn line must be dropped by recovery"
    );
    assert_eq!(
        resumed, clean,
        "torn-write resume diverged from the clean run"
    );
    assert_eq!(
        resumed_journal, clean_journal,
        "torn-write resume left different journal bytes"
    );
}
