//! Concurrency coverage for the parallel sweep executor: the full
//! hostile corpus (parser bombs, elaborator blow-ups, simulator hangs —
//! see `vgen-lm::mutate`) pushed through the shared-queue worker pool at every
//! worker count from 1 to 8.
//!
//! What this asserts, per the determinism contract of
//! `vgen-core::sweep`:
//!
//! * **no deadlock** — every run completes (a wedged pool would hang the
//!   merge loop past its stall timeout and fail);
//! * **no lost or duplicated work items** — every record is compared
//!   against an independent oracle (a plain loop of
//!   `supervised_check_completion` calls, sharing no executor code), and every
//!   record stream must equal the one-worker stream field for field, so a
//!   dropped, repeated or reordered item is a test failure, not a
//!   statistical blip;
//! * **identical `HarnessFault` counts** across worker counts — fault
//!   classification must not depend on scheduling;
//! * **stack independence** — a caller with a small stack gets the same
//!   outcomes as the pool's workers, because its checks are handed off to
//!   a thread with a check-sized stack.

use std::io;
use std::path::Path;

use vgen::core::check::{assemble, CheckResult, LintCounts};
use vgen::core::synthcheck::synth_sweep;
use vgen::core::{
    run_engine_sweep, supervised_check_completion, CheckPolicy, EvalConfig, EvalRun, FaultKind,
    Record, SweepHooks, SweepOptions,
};
use vgen::lm::engine::{Completion, CompletionEngine};
use vgen::lm::mutate::hostile_corpus;
use vgen::problems::{problem, Problem, PromptLevel};
use vgen::sim::SimConfig;
use vgen::verilog::parser::MAX_NEST_DEPTH;

/// An engine that answers every query with the next entry of its corpus
/// (cyclically). Generation happens in the sweep's serial phase, so the
/// cursor order — and therefore every completion — is identical across
/// worker counts.
struct HostileEngine {
    corpus: Vec<String>,
    cursor: usize,
}

impl HostileEngine {
    fn new() -> Self {
        Self::with(hostile_corpus().into_iter().map(|(_, text)| text).collect())
    }

    fn with(corpus: Vec<String>) -> Self {
        HostileEngine { corpus, cursor: 0 }
    }
}

impl CompletionEngine for HostileEngine {
    fn name(&self) -> String {
        "hostile-stress".into()
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
                let text = self.corpus[self.cursor % self.corpus.len()].clone();
                self.cursor += 1;
                Completion {
                    text,
                    latency_s: 0.001,
                }
            })
            .collect()
    }
}

/// One sweep of `engine` over `cfg` on `jobs` workers.
fn sweep(
    engine: &mut HostileEngine,
    cfg: &EvalConfig,
    journal: Option<(&Path, bool)>,
    jobs: usize,
) -> io::Result<EvalRun> {
    let opts = SweepOptions {
        jobs,
        ..SweepOptions::default()
    };
    run_engine_sweep(engine, cfg, journal, &opts, &SweepHooks::default()).map(|(run, _)| run)
}

/// A grid that keeps every worker busy with the corpus's first 30 entries
/// (the operator chains among them): 3 problems × 1 level × 1 temperature
/// × 10 completions = 30 checks.
fn stress_cfg() -> EvalConfig {
    EvalConfig {
        temperatures: vec![0.3],
        ns: vec![10],
        levels: vec![PromptLevel::Low],
        problem_ids: vec![1, 2, 3],
        sim: SimConfig::default(),
    }
}

/// Where a record sits in the grid (problem, level, temperature, n) and
/// what it says about its candidate (compiled, passed, fault kind, lint
/// counts).
type Verdict = (
    (u8, PromptLevel, f64, usize),
    (bool, bool, Option<FaultKind>, Option<LintCounts>),
);

fn record_verdict(r: &Record) -> Verdict {
    (
        (r.problem_id, r.level, r.temperature, r.n),
        (r.compiled, r.passed, r.fault_kind, r.lint.clone()),
    )
}

fn check_verdict(cell: (u8, PromptLevel, f64, usize), r: CheckResult) -> Verdict {
    let o = &r.outcome;
    (cell, (o.compiled(), o.passed(), o.fault_kind(), r.lint))
}

/// The oracle: the grid's completions in canonical order (problems, then
/// levels, temperatures and n), each checked by a direct
/// `supervised_check_completion` call on the test thread.
fn oracle(cfg: &EvalConfig) -> Vec<Verdict> {
    let mut engine = HostileEngine::new();
    let mut out = Vec::new();
    for &pid in &cfg.problem_ids {
        let p = problem(pid).expect("problem");
        for &level in &cfg.levels {
            for &t in &cfg.temperatures {
                for &n in &cfg.ns {
                    for c in engine.generate(p, level, t, n) {
                        out.push(check_verdict(
                            (pid, level, t, n),
                            supervised_check_completion(
                                p,
                                level,
                                &c.text,
                                cfg.sim,
                                &CheckPolicy::default(),
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn hostile_sweep_is_identical_across_worker_counts() {
    let cfg = stress_cfg();
    let expected = oracle(&cfg);
    assert_eq!(expected.len(), 30, "grid must flatten to 30 items");
    let expected_faults = expected
        .iter()
        .filter(|(_, (_, _, fault, _))| fault.is_some())
        .count();
    let one_worker = sweep(&mut HostileEngine::new(), &cfg, None, 1)
        .unwrap_or_else(|e| panic!("one-worker sweep stalled: {e}"));
    // Every worker count in the stress band, not a random sample: 1..=8
    // covers pool sizes below, at, and far above this machine's core
    // count, which is what randomized draws from the same range would
    // probe.
    for jobs in 1..=8usize {
        let par = sweep(&mut HostileEngine::new(), &cfg, None, jobs)
            .unwrap_or_else(|e| panic!("parallel sweep deadlocked/stalled at jobs={jobs}: {e}"));
        assert_eq!(
            par.records.len(),
            expected.len(),
            "lost or duplicated work items at jobs={jobs}"
        );
        let got: Vec<Verdict> = par.records.iter().map(record_verdict).collect();
        assert_eq!(
            got, expected,
            "records diverged from the oracle at jobs={jobs}"
        );
        assert_eq!(
            par, one_worker,
            "records diverged from the one-worker sweep at jobs={jobs}"
        );
        assert_eq!(
            par.fault_count(),
            expected_faults,
            "HarnessFault count changed at jobs={jobs}"
        );
    }
}

/// The and-gate body nested as deep as the parser accepts: a `begin`/`end`
/// nest one level short of exceeding [`MAX_NEST_DEPTH`]. Parsing it takes
/// more than a test thread's 2 MiB in an unoptimised build, so the probe
/// runs on an 8 MiB stack.
fn deepest_legal_nest(p: &'static Problem) -> String {
    let nest = |k: usize| {
        format!(
            "reg q;\nalways @* {}q = a & b;{}\nassign y = q;\nendmodule\n",
            "begin ".repeat(k),
            " end".repeat(k)
        )
    };
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(move || {
            let parses = |k| vgen::verilog::parse(&assemble(p, PromptLevel::Low, &nest(k))).is_ok();
            let deepest = (1..=MAX_NEST_DEPTH)
                .take_while(|&k| parses(k))
                .last()
                .expect("a shallow nest parses");
            assert!(!parses(deepest + 1), "the nest stops short of the cap");
            nest(deepest)
        })
        .expect("spawn the probe")
        .join()
        .expect("probe the nesting cap")
}

#[test]
fn small_stack_callers_match_the_pool() {
    let p = problem(2).expect("problem 2 exists");
    let mut corpus: Vec<String> = hostile_corpus().into_iter().map(|(_, text)| text).collect();
    corpus.push(deepest_legal_nest(p));
    let cfg = EvalConfig {
        temperatures: vec![0.3],
        ns: vec![corpus.len()],
        levels: vec![PromptLevel::Low],
        problem_ids: vec![2],
        sim: SimConfig::default(),
    };
    let pooled =
        sweep(&mut HostileEngine::with(corpus.clone()), &cfg, None, 2).expect("pooled sweep");
    let expected: Vec<Verdict> = pooled.records.iter().map(record_verdict).collect();
    assert!(
        expected
            .last()
            .is_some_and(|(_, (_, passed, _, _))| *passed),
        "the deepest nest passes"
    );
    // Far too small to run a check inline in an unoptimised build: the
    // guard must hand every check off.
    let cell = (2, PromptLevel::Low, 0.3, corpus.len());
    let small = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            corpus
                .iter()
                .map(|text| {
                    let r = supervised_check_completion(
                        p,
                        PromptLevel::Low,
                        text,
                        SimConfig::default(),
                        &CheckPolicy::default(),
                    );
                    check_verdict(cell, r)
                })
                .collect::<Vec<Verdict>>()
        })
        .expect("spawn a small-stack caller")
        .join()
        .expect("the small-stack caller survived");
    assert_eq!(small, expected);
}

#[test]
fn hostile_journaled_parallel_run_resumes_cleanly() {
    let dir = std::env::temp_dir().join("vgen-parallel-stress");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("hostile-{}.log", std::process::id()));
    let cfg = stress_cfg();
    let full = sweep(&mut HostileEngine::new(), &cfg, Some((&path, false)), 6)
        .expect("full hostile journaled run");
    // Tear the journal mid-stream and resume at a different worker count.
    let text = std::fs::read_to_string(&path).expect("journal text");
    let kept: Vec<&str> = text.lines().take(8).collect();
    std::fs::write(&path, kept.join("\n")).expect("truncate");
    let resumed = sweep(&mut HostileEngine::new(), &cfg, Some((&path, true)), 2)
        .expect("resumed hostile journaled run");
    assert_eq!(resumed, full);
    let _ = std::fs::remove_file(&path);
}

/// The synthesis tier checks under the guard and synthesizes under the
/// panic catch, so every hostile completion costs at most its own tiers:
/// the sweep finishes and counts the whole corpus.
#[test]
fn hostile_corpus_runs_through_the_synthesis_tier() {
    let corpus: Vec<String> = hostile_corpus().into_iter().map(|(_, text)| text).collect();
    let cfg = EvalConfig {
        temperatures: vec![0.3],
        ns: vec![corpus.len()],
        levels: vec![PromptLevel::Low],
        problem_ids: vec![2],
        sim: SimConfig::default(),
    };
    let tally = synth_sweep(&mut HostileEngine::with(corpus.clone()), &cfg);
    assert_eq!(tally.total, corpus.len());
    assert!(tally.synthesizable <= tally.compiled);
    assert!(tally.functional <= tally.compiled);
}
