//! The benchmark's inputs and the outputs they must produce, all derived
//! from the workload seed.
//!
//! Inputs are the paper grid (`EvalConfig::paper_n10`: 17 problems × L/M/H
//! × 5 temperatures × n = 10) for each of the 11 evaluated model rows. The
//! expected outputs are computed here without the sweep executor: every
//! distinct completion goes through the unsupervised `check_completion`
//! once, and each row's journal is rebuilt record by record from those
//! verdicts. A served or one-shot sweep is correct when its journal bytes
//! equal these, which covers the worker pool, the dedup cache, the
//! supervision guard and the journal writer.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use vgen::core::check::{check_completion, CheckOutcome, CheckResult};
use vgen::core::{config_fingerprint, journal_header, EvalConfig, Record};
use vgen::corpus::CorpusSource;
use vgen::lm::{CompletionEngine, FamilyEngine, ModelId};
use vgen::problems::{Problem, PromptLevel};
use vgen::serve::{parse_request, EvalRequest, Json, Request};
use vgen::sim::SimConfig;

use crate::stats::fnv1a;

/// Worker threads per eval request; at most `nproc` on the 2-core hosts
/// the benchmark is sized for.
pub const EVAL_JOBS: usize = 2;

/// One distinct completion (by problem, prompt level and text) and the
/// verdict it must get.
pub struct Candidate {
    pub problem: &'static Problem,
    pub level: PromptLevel,
    pub text: String,
    pub expected: CheckResult,
}

/// One model row of the grid.
pub struct Row {
    pub model: ModelId,
    /// Records a complete sweep of the row journals.
    pub records: usize,
    /// Records whose candidate passes its testbench.
    pub passed: usize,
    /// FNV-1a 64 of the journal a correct sweep writes.
    pub digest: u64,
    /// The row's distinct candidates (indices into [`Grid::candidates`]):
    /// what a deduplicating sweep checks.
    pub candidates: Vec<usize>,
    /// Time spent in `FamilyEngine::generate` over the row's cells by a
    /// fresh engine, which builds its mutant banks on the way.
    pub generate: Duration,
    /// The same calls again on the same engine, banks already built: the
    /// sampling alone.
    pub sample: Duration,
}

/// Every row of the grid at one seed, plus the candidates of all rows,
/// deduplicated across rows.
pub struct Grid {
    pub seed: u64,
    pub rows: Vec<Row>,
    pub candidates: Vec<Candidate>,
}

impl Grid {
    /// Generates the first `rows` model rows at `seed` and checks every
    /// distinct candidate once.
    pub fn build(seed: u64, rows: usize) -> Grid {
        let config = EvalConfig::paper_n10();
        let fingerprint = config_fingerprint(&config);
        // The grid's cells in the sweep's canonical (journal) order.
        let mut cells = Vec::new();
        for &id in &config.problem_ids {
            let problem = vgen::problems::problem(id).expect("paper grid ids are in the table");
            for &level in &config.levels {
                for &temperature in &config.temperatures {
                    for &n in &config.ns {
                        cells.push((problem, level, temperature, n));
                    }
                }
            }
        }
        let mut index: HashMap<(u8, PromptLevel, String), usize> = HashMap::new();
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut out = Vec::new();
        for model in ModelId::all_evaluated().into_iter().take(rows) {
            let mut engine = FamilyEngine::new(model, CorpusSource::GithubOnly, seed);
            let mut journal = journal_header(fingerprint, &engine.name(), None);
            journal.push('\n');
            let mut row = Row {
                model,
                records: 0,
                passed: 0,
                digest: 0,
                candidates: Vec::new(),
                generate: Duration::ZERO,
                sample: Duration::ZERO,
            };
            let mut seen = HashSet::new();
            for &(problem, level, temperature, n) in &cells {
                let started = Instant::now();
                let completions = engine.generate(problem, level, temperature, n);
                row.generate += started.elapsed();
                for completion in completions {
                    let key = (problem.id, level, completion.text);
                    let at = match index.get(&key) {
                        Some(&at) => at,
                        None => {
                            let expected =
                                check_completion(problem, level, &key.2, SimConfig::default());
                            candidates.push(Candidate {
                                problem,
                                level,
                                text: key.2.clone(),
                                expected,
                            });
                            index.insert(key, candidates.len() - 1);
                            candidates.len() - 1
                        }
                    };
                    if seen.insert(at) {
                        row.candidates.push(at);
                    }
                    let expected = &candidates[at].expected;
                    let fault_kind = expected.outcome.fault_kind();
                    let record = Record {
                        problem_id: problem.id,
                        difficulty: problem.difficulty,
                        level,
                        temperature,
                        n,
                        compiled: expected.outcome.compiled(),
                        passed: expected.outcome.passed(),
                        fault: fault_kind.is_some(),
                        fault_kind,
                        latency_s: completion.latency_s,
                        lint: expected.lint.clone(),
                    };
                    journal.push_str(&record.to_journal_line());
                    journal.push('\n');
                    row.records += 1;
                    row.passed += usize::from(record.passed);
                }
            }
            row.digest = fnv1a(journal.as_bytes());
            let started = Instant::now();
            for &(problem, level, temperature, n) in &cells {
                black_box(engine.generate(problem, level, temperature, n));
            }
            row.sample = started.elapsed();
            out.push(row);
        }
        Grid {
            seed,
            rows: out,
            candidates,
        }
    }
}

/// The `outcome` tag a `check` response carries for a verdict.
pub fn outcome_tag(outcome: &CheckOutcome) -> &'static str {
    match outcome {
        CheckOutcome::Pass => "pass",
        CheckOutcome::FunctionalFail => "functional_fail",
        CheckOutcome::SimulationFail(_) => "simulation_fail",
        CheckOutcome::CompileFail(_) => "compile_fail",
        CheckOutcome::HarnessFault(_) => "harness_fault",
        CheckOutcome::Timeout(_) => "timeout",
    }
}

/// The protocol line of an `eval` request for one full-grid row. The
/// one-shot child and the in-process replay parse this same line, so
/// every path runs the identical request.
pub fn eval_line(id: u64, model: ModelId, seed: u64, journal: &str, jobs: usize) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Num(id as f64)),
        ("cmd".into(), Json::str("eval")),
        ("journal".into(), Json::str(journal)),
        ("model".into(), Json::str(model.family.name())),
        (
            "tuning".into(),
            Json::str(model.tuning.tag().to_ascii_lowercase()),
        ),
        ("full".into(), Json::Bool(true)),
        ("jobs".into(), Json::Num(jobs as f64)),
        ("seed".into(), Json::Num(seed as f64)),
        ("dedup".into(), Json::Bool(true)),
        ("fsync".into(), Json::str("never")),
    ])
    .render()
}

/// [`eval_line`] parsed as the daemon parses it, for in-process calls.
pub fn eval_request(model: ModelId, seed: u64, journal: &str, jobs: usize) -> Box<EvalRequest> {
    let line = eval_line(1, model, seed, journal, jobs);
    let Ok(Request::Eval(req)) = parse_request(&line).map(|e| e.body) else {
        unreachable!("eval_line renders an eval request")
    };
    req
}

/// The protocol line of a `check` request for one candidate.
pub fn check_line(id: u64, c: &Candidate) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Num(id as f64)),
        ("cmd".into(), Json::str("check")),
        ("problem".into(), Json::Num(f64::from(c.problem.id))),
        ("level".into(), Json::str(c.level.tag())),
        ("source".into(), Json::str(c.text.as_str())),
    ])
    .render()
}

/// Whether a `check` response payload carries the candidate's expected
/// verdict and lint tallies.
pub fn check_payload_matches(payload: &Json, c: &Candidate) -> bool {
    let lint = payload.get("lint");
    let count = |key: &str| lint.and_then(|l| l.get(key)).and_then(Json::as_u64);
    let lint_ok = match &c.expected.lint {
        Some(l) => {
            count("errors") == Some(u64::from(l.errors))
                && count("warnings") == Some(u64::from(l.warnings))
        }
        None => lint.is_none(),
    };
    payload.get("outcome").and_then(Json::as_str) == Some(outcome_tag(&c.expected.outcome))
        && lint_ok
}
