//! Extension experiment: the *synthesis* check.
//!
//! The paper's introduction motivates syntax, **synthesis** and functional
//! checks (its §I, citing the Copilot security study), but its evaluation
//! only reports compile and functional rates. With a real synthesis
//! backend available (`vgen-synth`), this module adds the missing middle
//! tier: a completion is *synthesizable* when it compiles **and** lowers to
//! a netlist with no error diagnostics (no latches, no timing controls, no
//! memories, single drivers).
//!
//! [`synth_sweep`] checks a grid with the sweep executor, [`run_engine`],
//! then synthesizes each distinct compiled source once; [`check_tiers`]
//! checks and synthesizes one source.

use std::collections::HashMap;
use std::sync::mpsc;

use vgen_lm::engine::{Completion, CompletionEngine};
use vgen_problems::{Problem, PromptLevel};
use vgen_sim::SimConfig;

use crate::check::{assemble, CheckOutcome};
use crate::guard::{
    catch_harness_fault, run_on_check_thread, supervised_check_source, CheckPolicy,
};
use crate::sweep::{run_engine, EvalConfig};

/// Pass counts for the three-tier check of one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthTally {
    /// Total completions checked.
    pub total: usize,
    /// Completions that compile (parse + elaborate).
    pub compiled: usize,
    /// Completions that also synthesize latch-free.
    pub synthesizable: usize,
    /// Completions that also pass the testbench.
    pub functional: usize,
}

impl SynthTally {
    /// Compile rate.
    pub fn compile_rate(&self) -> f64 {
        ratio(self.compiled, self.total)
    }

    /// Synthesis rate.
    pub fn synth_rate(&self) -> f64 {
        ratio(self.synthesizable, self.total)
    }

    /// Functional rate.
    pub fn functional_rate(&self) -> f64 {
        ratio(self.functional, self.total)
    }
}

fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Runs the three-tier check (compile / synthesize / function) for an
/// engine over a grid. Problem 10 (RAM) is excluded from the synthesis
/// tier (memories are outside the netlist backend) but still counted for
/// compile/functional.
pub fn synth_sweep(engine: &mut dyn CompletionEngine, config: &EvalConfig) -> SynthTally {
    let mut recorder = SourceRecorder {
        engine,
        sources: Vec::new(),
    };
    let run = run_engine(&mut recorder, config);
    // Generation order is the records' canonical order.
    let mut copies: HashMap<String, usize> = HashMap::new();
    for (rec, source) in run.records.iter().zip(recorder.sources) {
        if rec.compiled && rec.problem_id != 10 {
            *copies.entry(source).or_default() += 1;
        }
    }
    let synthesizable = on_check_thread(move || {
        let synthesized = copies
            .iter()
            .filter(|(source, _)| synthesizes(source) == Ok(true));
        synthesized.map(|(_, n)| n).sum()
    })
    .unwrap_or(0);
    SynthTally {
        total: run.records.len(),
        compiled: run.records.iter().filter(|r| r.compiled).count(),
        synthesizable,
        functional: run.records.iter().filter(|r| r.passed).count(),
    }
}

/// An engine that also keeps each completion's assembled source, in
/// generation order.
struct SourceRecorder<'a> {
    engine: &'a mut dyn CompletionEngine,
    sources: Vec<String>,
}

impl CompletionEngine for SourceRecorder<'_> {
    fn name(&self) -> String {
        self.engine.name()
    }

    fn generate(
        &mut self,
        prob: &Problem,
        level: PromptLevel,
        temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        let completions = self.engine.generate(prob, level, temperature, n);
        let sources = completions.iter().map(|c| assemble(prob, level, &c.text));
        self.sources.extend(sources);
        completions
    }
}

/// The three tiers of one assembled source: its check outcome, and whether
/// it synthesizes (`Ok(false)` when it did not compile, `Err` with the
/// message of a panic in synthesis).
///
/// Both run on a cached check thread, so they get a check's 8 MiB stack
/// whatever the caller's: the check under the guard
/// ([`supervised_check_source`] with the default policy), synthesis under
/// [`catch_harness_fault`]. A panic costs the candidate the tier it
/// panicked in; with no thread to run on, the outcome is a harness fault.
pub fn check_tiers(
    prob: &'static Problem,
    source: &str,
    sim: SimConfig,
) -> (CheckOutcome, Result<bool, String>) {
    let source = source.to_string();
    on_check_thread(move || {
        let (outcome, _) = supervised_check_source(prob, &source, sim, &CheckPolicy::default());
        let synth = if outcome.compiled() {
            synthesizes(&source)
        } else {
            Ok(false)
        };
        (outcome, synth)
    })
    .unwrap_or_else(|e| (CheckOutcome::HarnessFault(e), Ok(false)))
}

/// Whether `source` synthesizes, or the message of a panic in synthesis.
fn synthesizes(source: &str) -> Result<bool, String> {
    catch_harness_fault(|| vgen_synth::synthesize_source(source).is_ok())
}

/// Runs `work` on a cached check thread and waits for its result; `Err`
/// when no thread could run it.
fn on_check_thread<T: Send + 'static>(
    work: impl FnOnce() -> T + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    run_on_check_thread(move || {
        let _ = tx.send(work());
    })
    .map_err(|e| format!("cannot spawn checker thread: {e}"))?;
    rx.recv().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use vgen_corpus::CorpusSource;
    use vgen_lm::{FamilyEngine, ModelFamily, ModelId, Tuning};
    use vgen_problems::{problem, PromptLevel};
    use vgen_sim::SimConfig;

    fn codegen(seed: u64) -> FamilyEngine {
        FamilyEngine::new(
            ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
            CorpusSource::GithubOnly,
            seed,
        )
    }

    /// The walk `synth_sweep` replaced: every completion checked and
    /// synthesized on its own through `check_tiers`, with no dedup. Also
    /// returns how many distinct (problem, source) pairs the grid holds.
    fn per_completion_tiers(
        engine: &mut dyn CompletionEngine,
        config: &EvalConfig,
    ) -> (SynthTally, usize) {
        let mut tally = SynthTally::default();
        let mut distinct = HashSet::new();
        for &pid in &config.problem_ids {
            let prob = problem(pid).expect("known problem");
            for &level in &config.levels {
                for &t in &config.temperatures {
                    for &n in &config.ns {
                        for c in engine.generate(prob, level, t, n) {
                            let source = assemble(prob, level, &c.text);
                            let (outcome, synth) = check_tiers(prob, &source, config.sim);
                            tally.total += 1;
                            tally.compiled += usize::from(outcome.compiled());
                            tally.functional += usize::from(outcome.passed());
                            tally.synthesizable += usize::from(pid != 10 && synth == Ok(true));
                            distinct.insert((pid, source));
                        }
                    }
                }
            }
        }
        (tally, distinct.len())
    }

    #[test]
    fn dedup_leaves_the_tiers_unchanged() {
        // Every prompt level, so whole-module completions repeat across
        // levels; problem 10 is compiled and checked but never synthesized.
        let cfg = EvalConfig {
            temperatures: vec![0.1, 0.7],
            ns: vec![5],
            levels: PromptLevel::ALL.to_vec(),
            problem_ids: vec![2, 4, 10, 12],
            sim: SimConfig::default(),
        };
        for seed in [0x51A7, 7] {
            let swept = synth_sweep(&mut codegen(seed), &cfg);
            let (walked, distinct) = per_completion_tiers(&mut codegen(seed), &cfg);
            assert_eq!(swept, walked, "seed {seed}");
            assert!(distinct < walked.total, "seed {seed}: no duplicates");
            assert!(walked.synthesizable > 0, "seed {seed}");
        }
    }

    #[test]
    fn tiers_are_ordered() {
        let mut engine = FamilyEngine::new(
            ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
            CorpusSource::GithubOnly,
            21,
        );
        let cfg = EvalConfig {
            temperatures: vec![0.1],
            ns: vec![6],
            levels: vec![PromptLevel::Low],
            problem_ids: vec![1, 2, 6, 15],
            sim: SimConfig::default(),
        };
        let t = synth_sweep(&mut engine, &cfg);
        assert!(t.total > 0);
        // compile ⊇ synthesizable ⊇ functional (for non-RAM problems the
        // reference solutions all synthesize, so functional ⊆ synth).
        assert!(t.compiled <= t.total);
        assert!(t.synthesizable <= t.compiled);
        assert!(t.functional <= t.compiled);
        assert!(t.compiled > 0);
        assert!(t.synthesizable > 0);
    }

    #[test]
    fn reference_solutions_hit_all_tiers() {
        // Hand-check one correct completion through the tiers.
        let p = problem(6).expect("p6");
        let src = p.reference_source();
        assert!(vgen_synth::synthesize_source(&src).is_ok());
    }
}
