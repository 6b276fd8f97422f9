//! Fault-injection harness: every hostile completion in the adversarial
//! corpus must come back with a *classified* outcome — a compile failure, a
//! simulation failure, a functional failure, or (in principle) a pass — and
//! never a harness panic, a hang, or a `HarnessFault`.
//!
//! This is the end-to-end proof behind the resource limits in the parser
//! (token/recursion caps), the elaborator (width/memory/instance budgets)
//! and the simulator (time/step/output budgets): hostile inputs are treated
//! as bad *candidates*, not as checker crashes.

use vgen::core::check::CheckOutcome;
use vgen::core::{supervised_check_completion, CheckPolicy};
use vgen::lm::mutate::{hostile_corpus, HostileOp};
use vgen::problems::{problem, PromptLevel};
use vgen::sim::SimConfig;

/// A tight budget so even the flood/loop entries finish in well under a
/// second each.
fn bounded() -> SimConfig {
    SimConfig::default()
        .with_max_time(100_000)
        .with_max_steps(500_000)
        .with_max_output_bytes(1 << 16)
}

#[test]
fn hostile_corpus_is_always_classified() {
    let p = problem(2).expect("problem 2 (and_gate) exists");
    let corpus = hostile_corpus();
    assert!(corpus.len() >= 20, "corpus too small: {}", corpus.len());

    for (op, completion) in &corpus {
        let result = supervised_check_completion(
            p,
            PromptLevel::Low,
            completion,
            bounded(),
            &CheckPolicy::default(),
        );
        match &result.outcome {
            CheckOutcome::HarnessFault(msg) => {
                panic!("hostile input {op:?} crashed the harness: {msg}\n---\n{completion}");
            }
            CheckOutcome::Timeout(kind) => {
                // No deadline is configured here, so nothing may time out.
                panic!("hostile input {op:?} timed out ({kind:?}) without a deadline");
            }
            // Any classified outcome is acceptable: hostile inputs are
            // *candidates*, and bad candidates are allowed to fail.
            CheckOutcome::Pass
            | CheckOutcome::CompileFail(_)
            | CheckOutcome::SimulationFail(_)
            | CheckOutcome::FunctionalFail => {}
        }
    }
}

#[test]
fn resource_attacks_are_rejected_not_passed() {
    // The pure resource-exhaustion entries must be *rejected* (they cannot
    // plausibly implement an AND gate), not silently passed.
    let p = problem(2).expect("problem 2 exists");
    for (op, completion) in hostile_corpus() {
        let rejected_kinds = matches!(
            op,
            HostileOp::HugeVector
                | HostileOp::HugeMemory
                | HostileOp::TokenFlood
                | HostileOp::UnterminatedString
                | HostileOp::InstanceBomb
                | HostileOp::ReplicationBomb
        );
        if !rejected_kinds {
            continue;
        }
        let result = supervised_check_completion(
            p,
            PromptLevel::Low,
            &completion,
            bounded(),
            &CheckPolicy::default(),
        );
        assert!(
            !matches!(result.outcome, CheckOutcome::Pass),
            "resource attack {op:?} was classified as Pass"
        );
    }
}

#[test]
fn infinite_loops_hit_a_budget_not_the_wall_clock() {
    let p = problem(2).expect("problem 2 exists");
    for (op, completion) in hostile_corpus() {
        if !matches!(op, HostileOp::InfiniteLoop | HostileOp::DisplayFlood) {
            continue;
        }
        let start = std::time::Instant::now();
        let result = supervised_check_completion(
            p,
            PromptLevel::Low,
            &completion,
            bounded(),
            &CheckPolicy::default(),
        );
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "{op:?} took {elapsed:?} — budget did not bound the run"
        );
        assert!(
            !matches!(result.outcome, CheckOutcome::HarnessFault(_)),
            "{op:?} faulted the harness"
        );
    }
}
