//! The generate phase of a sweep: walk the grid in canonical order, query
//! the engine for every cell, and flatten the completions into work items
//! keyed for the dedup cache. The executor ([`crate::sweep`]) checks them.

use std::collections::HashMap;

use vgen_lm::engine::{Completion, CompletionEngine};
use vgen_problems::{problem, Difficulty, Problem, PromptLevel};

use crate::check::{assemble, FaultKind, LintCounts};
use crate::journal::fnv1a;
use crate::sweep::{EvalConfig, Record};

/// One flattened unit of work: a single completion to check. Its index in
/// the generated vector is its canonical position in the grid walk.
pub(crate) struct WorkItem {
    pub(crate) problem: &'static Problem,
    pub(crate) level: PromptLevel,
    pub(crate) temperature: f64,
    pub(crate) n: usize,
    pub(crate) completion: Completion,
}

/// The per-sample fields of a work item, its grid coordinates and
/// latency, from which each of its records is built.
#[derive(Clone, Copy)]
pub(crate) struct ItemMeta {
    problem_id: u8,
    difficulty: Difficulty,
    level: PromptLevel,
    temperature: f64,
    n: usize,
    latency_s: f64,
}

impl WorkItem {
    pub(crate) fn meta(&self) -> ItemMeta {
        ItemMeta {
            problem_id: self.problem.id,
            difficulty: self.problem.difficulty,
            level: self.level,
            temperature: self.temperature,
            n: self.n,
            latency_s: self.completion.latency_s,
        }
    }
}

impl ItemMeta {
    /// This item's record with the given check outcome.
    pub(crate) fn record(
        &self,
        compiled: bool,
        passed: bool,
        fault_kind: Option<FaultKind>,
        lint: Option<LintCounts>,
    ) -> Record {
        Record {
            problem_id: self.problem_id,
            difficulty: self.difficulty,
            level: self.level,
            temperature: self.temperature,
            n: self.n,
            compiled,
            passed,
            fault: fault_kind.is_some(),
            fault_kind,
            latency_s: self.latency_s,
            lint,
        }
    }

    /// The record of a check that produced no verdict of its own.
    pub(crate) fn fault_record(&self, kind: FaultKind) -> Record {
        self.record(false, false, Some(kind), None)
    }

    /// This item's record with every outcome field taken from `leader`'s:
    /// the record a fresh check of the same source would have produced.
    pub(crate) fn replay(&self, leader: &Record) -> Record {
        let lint = leader.lint.clone();
        self.record(leader.compiled, leader.passed, leader.fault_kind, lint)
    }
}

/// The dedup cache's key: problem id and the FNV-1a hash of the assembled
/// source. A check is a pure function of (problem, assembled source) for
/// the sweep's fixed `config.sim` and policy, so these are the only check
/// inputs that can change an outcome. Completions that differ only in what
/// assembly drops (the prompt level of a whole-module completion, text
/// after its `endmodule`) share a key.
pub(crate) type SourceKey = (u8, u64);

/// What a sweep assembles each distinct completion to, at most once: the
/// [`SourceKey`] of every (problem, prompt level, text hash) seen so far.
#[derive(Default)]
pub(crate) struct SourceKeys(HashMap<(u8, PromptLevel, u64), SourceKey>);

impl SourceKeys {
    /// The item's source key, plus its assembled source when this is the
    /// first item with its (problem, level, text).
    pub(crate) fn of(&mut self, item: &WorkItem) -> (SourceKey, Option<String>) {
        let text = (
            item.problem.id,
            item.level,
            fnv1a(item.completion.text.as_bytes()),
        );
        if let Some(&key) = self.0.get(&text) {
            return (key, None);
        }
        let source = assemble(item.problem, item.level, &item.completion.text);
        let key = (item.problem.id, fnv1a(source.as_bytes()));
        self.0.insert(text, key);
        (key, Some(source))
    }
}

/// Walks the grid in its (deterministic) canonical order, querying the
/// engine for every cell and flattening every completion into a
/// [`WorkItem`]. The engine is always queried for every cell — even cells
/// whose records will be reused from a journal — so the engine's RNG
/// stream is identical across a fresh run and a resumed one, and across
/// worker counts.
///
/// The engine is first [prepared](CompletionEngine::prepare) for the
/// grid's problems on up to `jobs` threads; the walk itself stays on the
/// calling thread.
pub(crate) fn generate_items(
    engine: &mut dyn CompletionEngine,
    config: &EvalConfig,
    jobs: usize,
) -> Vec<WorkItem> {
    let problems: Vec<&'static Problem> = config
        .problem_ids
        .iter()
        .map(|&pid| problem(pid).unwrap_or_else(|| panic!("unknown problem id {pid}")))
        .collect();
    engine.prepare(&problems, jobs);
    let mut items = Vec::new();
    for prob in problems {
        for &level in &config.levels {
            for &t in &config.temperatures {
                for &n in &config.ns {
                    for completion in engine.generate(prob, level, t, n) {
                        items.push(WorkItem {
                            problem: prob,
                            level,
                            temperature: t,
                            n,
                            completion,
                        });
                    }
                }
            }
        }
    }
    items
}
