//! Linked-vs-concatenated equivalence for the functional check.
//!
//! The checker elaborates a candidate's parsed `SourceFile` together with
//! the problem's testbench, parsed once per process. Before that it parsed
//! the text `"{source}\n{testbench}"` for every check. The two must give
//! the same `(outcome, lint)` for every candidate, `CompileFail` detail
//! strings included, so the concatenated check is kept here as an oracle.

use vgen::core::check::{check_source_cancellable, CheckOutcome, LintCounts};
use vgen::lm::family::build_bank;
use vgen::lm::mutate::{semantic_mutants, syntax_mutants};
use vgen::obs::CancelToken;
use vgen::problems::{extended_problems, problem, problems, Problem, PASS_MARKER};
use vgen::sim::{SimConfig, StopReason};
use vgen::verilog::lexer::tokenize;
use vgen::verilog::parser::MAX_TOKENS;

/// The check as it was before linking: parse, lint, elaborate the DUT,
/// then parse and simulate the candidate and testbench joined as one text.
fn concatenated_check(problem: &Problem, source: &str) -> (CheckOutcome, Option<LintCounts>) {
    let file = match vgen::verilog::parse(source) {
        Ok(f) => f,
        Err(e) => return (CheckOutcome::CompileFail(e.to_string()), None),
    };
    let lint = Some(LintCounts::from_report(&vgen::lint::lint_file(&file)));
    if file.module(problem.module_name).is_none() {
        let detail = format!(
            "completion does not define module `{}`",
            problem.module_name
        );
        return (CheckOutcome::CompileFail(detail), lint);
    }
    if let Err(e) = vgen::sim::elab::elaborate(&file, problem.module_name) {
        return (CheckOutcome::CompileFail(e.to_string()), lint);
    }
    let full = format!("{source}\n{}", problem.testbench);
    let outcome = match vgen::sim::simulate(&full, Some("tb"), SimConfig::default()) {
        Ok(out) if !out.reason.is_clean() => match out.reason {
            StopReason::RuntimeError(m) => CheckOutcome::SimulationFail(m),
            other => CheckOutcome::SimulationFail(format!("{other:?}")),
        },
        Ok(out) if out.stdout.contains(PASS_MARKER) => CheckOutcome::Pass,
        Ok(_) => CheckOutcome::FunctionalFail,
        Err(e) => CheckOutcome::CompileFail(e.to_string()),
    };
    (outcome, lint)
}

/// Checks `source` both ways and returns the (equal) result.
fn assert_same(problem: &Problem, source: &str) -> (CheckOutcome, Option<LintCounts>) {
    let linked = check_source_cancellable(
        problem,
        source,
        SimConfig::default(),
        &CancelToken::unlimited(),
    );
    let oracle = concatenated_check(problem, source);
    assert_eq!(
        linked, oracle,
        "problem {}: linked and concatenated checks disagree on:\n{source}",
        problem.id
    );
    linked
}

#[test]
fn linked_check_matches_concatenated_on_every_bank() {
    let mut outcomes = [0usize; 4];
    for p in problems().iter().chain(extended_problems()) {
        let reference = p.reference_source();
        let mut candidates = p.all_solutions();
        for seed in [42u64, 7] {
            let bank = build_bank(p, seed ^ u64::from(p.id), 10);
            candidates.extend(bank.functional_fail);
            candidates.extend(bank.syntax_fail);
            // Unfiltered mutants too: these reach elaboration errors and
            // simulation failures the verified bank pools screen out.
            candidates.extend(
                semantic_mutants(&reference, seed, 12)
                    .into_iter()
                    .map(|m| m.0),
            );
            candidates.extend(syntax_mutants(&reference, seed, 6).into_iter().map(|m| m.0));
        }
        for c in &candidates {
            let idx = match assert_same(p, c).0 {
                CheckOutcome::Pass => 0,
                CheckOutcome::FunctionalFail => 1,
                CheckOutcome::SimulationFail(_) => 2,
                _ => 3,
            };
            outcomes[idx] += 1;
        }
    }
    // The sweep exercised passing, failing and uncompilable candidates.
    assert!(
        outcomes[0] > 0 && outcomes[1] > 0 && outcomes[3] > 0,
        "{outcomes:?}"
    );
}

fn and_gate() -> &'static Problem {
    problem(2).expect("problem 2 is the AND gate")
}

const AND_GATE: &str = "module and_gate(input a, input b, output y);\nassign y = a & b;\nendmodule";

#[test]
fn candidate_defining_its_own_tb_wins() {
    // Module lookup runs candidate first, so this `tb` shadows the
    // testbench's and passes without exercising the gate.
    let src = format!(
        "module and_gate(input a, input b, output y);\nassign y = a | b;\nendmodule\n\
         module tb;\ninitial begin $display(\"{PASS_MARKER}\"); $finish; end\nendmodule"
    );
    assert_eq!(assert_same(and_gate(), &src).0, CheckOutcome::Pass);
}

#[test]
fn candidate_ending_in_a_line_comment_or_directive() {
    for tail in [
        "// trailing comment",
        "`define WIDTH 8",
        "`timescale 1ns/1ps",
        "`",
    ] {
        let src = format!("{AND_GATE}\n{tail}");
        assert_eq!(
            assert_same(and_gate(), &src).0,
            CheckOutcome::Pass,
            "{tail}"
        );
        let src = format!("{AND_GATE} {tail}");
        assert_eq!(
            assert_same(and_gate(), &src).0,
            CheckOutcome::Pass,
            "{tail}"
        );
    }
}

#[test]
fn candidate_instantiating_a_testbench_module() {
    // The DUT itself: fails its own compile check before any linking.
    let dut =
        "module and_gate(input a, input b, output y);\ntb inner();\nassign y = a & b;\nendmodule";
    assert!(matches!(
        assert_same(and_gate(), dut).0,
        CheckOutcome::CompileFail(_)
    ));
    // A helper nothing instantiates: resolvable only once linked, and
    // never elaborated.
    let helper = format!("{AND_GATE}\nmodule helper;\ntb inner();\nendmodule");
    assert_eq!(assert_same(and_gate(), &helper).0, CheckOutcome::Pass);
    // A candidate `tb` that instantiates the testbench's module by its own
    // name recurses until the depth cap.
    let recursive = format!("{AND_GATE}\nmodule tb;\ntb again();\nendmodule");
    assert!(matches!(
        assert_same(and_gate(), &recursive).0,
        CheckOutcome::CompileFail(_)
    ));
}

#[test]
fn multi_module_candidate() {
    let src =
        "module and_gate(input a, input b, output y);\nand2 u0(.p(a), .q(b), .r(y));\nendmodule\n\
               module and2(input p, input q, output r);\nassign r = p & q;\nendmodule";
    assert_eq!(assert_same(and_gate(), src).0, CheckOutcome::Pass);
    let broken =
        "module and_gate(input a, input b, output y);\nand2 u0(.p(a), .q(b), .r(y));\nendmodule\n\
                  module and2(input p, input q, output r);\nassign r = p | q;\nendmodule";
    assert_eq!(
        assert_same(and_gate(), broken).0,
        CheckOutcome::FunctionalFail
    );
}

/// An AND gate whose source lexes to exactly `tokens` tokens (end of
/// input included), padded with null statements.
fn and_gate_with_tokens(tokens: usize) -> String {
    let head = "module and_gate(input a, input b, output y);\nassign y = a & b;\ninitial begin\n";
    let tail = "\nend\nendmodule";
    let base = tokenize(&format!("{head}{tail}")).expect("lexes").len();
    let src = format!("{head}{}{tail}", ";".repeat(tokens - base));
    assert_eq!(tokenize(&src).expect("lexes").len(), tokens);
    src
}

#[test]
fn joined_token_cap_matches_concatenated_parse() {
    let p = and_gate();
    let tb_tokens = tokenize(p.testbench).expect("testbench lexes").len();
    // The joined stream holds the candidate's tokens but one end of input.
    let fits = MAX_TOKENS + 1 - tb_tokens;
    for tokens in [fits - 1, fits, fits + 1, fits + 2, MAX_TOKENS] {
        let src = and_gate_with_tokens(tokens);
        let (outcome, lint) = assert_same(p, &src);
        assert!(
            lint.is_some(),
            "{tokens} tokens: the candidate alone parses"
        );
        if tokens <= fits {
            assert_eq!(outcome, CheckOutcome::Pass, "{tokens} tokens");
        } else {
            let CheckOutcome::CompileFail(detail) = outcome else {
                panic!("{tokens} tokens: expected the joined cap to fire, got {outcome:?}");
            };
            assert!(
                detail.starts_with(&format!(
                    "parse error: input exceeds {MAX_TOKENS} tokens at byte "
                )),
                "{detail}"
            );
        }
    }
    // One more and the candidate alone is over the cap.
    let (outcome, lint) = assert_same(p, &and_gate_with_tokens(MAX_TOKENS + 1));
    assert!(matches!(outcome, CheckOutcome::CompileFail(_)) && lint.is_none());
}
