//! Extension experiment: the *synthesis* check.
//!
//! The paper's introduction motivates syntax, **synthesis** and functional
//! checks (its §I, citing the Copilot security study), but its evaluation
//! only reports compile and functional rates. With a real synthesis
//! backend available (`vgen-synth`), this module adds the missing middle
//! tier: a completion is *synthesizable* when it compiles **and** lowers to
//! a netlist with no error diagnostics (no latches, no timing controls, no
//! memories, single drivers).

use std::sync::mpsc;

use vgen_lm::engine::CompletionEngine;
use vgen_problems::{problem, Problem};
use vgen_sim::SimConfig;

use crate::check::{assemble, CheckOutcome};
use crate::guard::{
    catch_harness_fault, run_on_check_thread, supervised_check_source, CheckPolicy,
};
use crate::sweep::EvalConfig;

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
    let mut tally = SynthTally::default();
    for &pid in &config.problem_ids {
        let prob = problem(pid).unwrap_or_else(|| panic!("unknown problem id {pid}"));
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
                    }
                }
            }
        }
    }
    tally
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
    let (tx, rx) = mpsc::channel();
    let source = source.to_string();
    let sent = run_on_check_thread(move || {
        let (outcome, _) = supervised_check_source(prob, &source, sim, &CheckPolicy::default());
        let synth = if outcome.compiled() {
            catch_harness_fault(|| vgen_synth::synthesize_source(&source).is_ok())
        } else {
            Ok(false)
        };
        let _ = tx.send((outcome, synth));
    });
    match sent.map(|()| rx.recv()) {
        Ok(Ok(tiers)) => tiers,
        Ok(Err(e)) => (CheckOutcome::HarnessFault(e.to_string()), Ok(false)),
        Err(e) => (
            CheckOutcome::HarnessFault(format!("cannot spawn checker thread: {e}")),
            Ok(false),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgen_corpus::CorpusSource;
    use vgen_lm::{FamilyEngine, ModelFamily, ModelId, Tuning};
    use vgen_problems::PromptLevel;
    use vgen_sim::SimConfig;

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
