//! Candidate checking: truncation, assembly, compile check, functional
//! check (paper Fig. 1 step ⑧), plus a semantic lint pass
//! ([`vgen_lint`]) over every candidate that parses.

use vgen_lint::{LintReport, Rule};
use vgen_obs::CancelToken;
use vgen_problems::{Problem, PromptLevel, PASS_MARKER};
use vgen_sim::{SimConfig, StopReason};
use vgen_verilog::truncate::{assemble_candidate, truncate_completion};
use vgen_verilog::Parsed;

/// How a check's wall-clock deadline was enforced when it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutKind {
    /// The [`CancelToken`] tripped and the pipeline unwound cooperatively
    /// within the grace period.
    Soft,
    /// The check thread did not answer within deadline + grace — it was
    /// detached and abandoned by the watchdog (see [`crate::guard`]).
    Hard,
}

/// Why a record carries no candidate verdict. `None` of these say anything
/// about the candidate's correctness; sweeps tally them separately and
/// exclude them from pass/compile rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The harness panicked ([`CheckOutcome::HarnessFault`]).
    Panic,
    /// Soft timeout ([`CheckOutcome::Timeout`] with [`TimeoutKind::Soft`]).
    SoftTimeout,
    /// Hard timeout ([`CheckOutcome::Timeout`] with [`TimeoutKind::Hard`]).
    HardTimeout,
}

/// Why a candidate failed (or that it didn't).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Compiled and passed the testbench.
    Pass,
    /// Compiled but the testbench reported errors or never printed the
    /// pass marker.
    FunctionalFail,
    /// Compiled but simulation ended abnormally (hang, runtime error).
    SimulationFail(String),
    /// Failed to parse or elaborate.
    CompileFail(String),
    /// The checking harness itself panicked — a bug in the harness, not a
    /// property of the candidate. See [`crate::guard`].
    HarnessFault(String),
    /// The check exceeded its wall-clock deadline. Like a harness fault,
    /// this says nothing about the candidate (the budget-legal work was
    /// merely slow on this machine at this moment), so it carries no
    /// verdict.
    Timeout(TimeoutKind),
}

impl CheckOutcome {
    /// Whether the candidate compiled. A harness fault or timeout tells us
    /// nothing about the candidate, so neither counts as compiled.
    pub fn compiled(&self) -> bool {
        !matches!(
            self,
            CheckOutcome::CompileFail(_) | CheckOutcome::HarnessFault(_) | CheckOutcome::Timeout(_)
        )
    }

    /// Whether the candidate is functionally correct.
    pub fn passed(&self) -> bool {
        matches!(self, CheckOutcome::Pass)
    }

    /// The fault classification for no-verdict outcomes, `None` for real
    /// verdicts.
    pub fn fault_kind(&self) -> Option<FaultKind> {
        match self {
            CheckOutcome::HarnessFault(_) => Some(FaultKind::Panic),
            CheckOutcome::Timeout(TimeoutKind::Soft) => Some(FaultKind::SoftTimeout),
            CheckOutcome::Timeout(TimeoutKind::Hard) => Some(FaultKind::HardTimeout),
            _ => None,
        }
    }
}

/// Lint tallies for one checked candidate — the compact form of a
/// [`LintReport`] carried on [`CheckResult`] and journaled per record.
///
/// Spans and messages are dropped (they are reproducible by re-linting the
/// source); what the sweep aggregates are counts per severity and rule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintCounts {
    /// Error-severity diagnostics.
    pub errors: u32,
    /// Warning-severity diagnostics.
    pub warnings: u32,
    /// Per-rule diagnostic counts in [`Rule::ALL`] order, zero-count rules
    /// omitted.
    pub per_rule: Vec<(Rule, u32)>,
}

impl LintCounts {
    /// Condenses a full report into counts.
    pub fn from_report(report: &LintReport) -> Self {
        LintCounts {
            errors: report.error_count(),
            warnings: report.warning_count(),
            per_rule: report.per_rule(),
        }
    }

    /// Whether no rule fired at all.
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && self.warnings == 0
    }

    /// Diagnostics from behavioural-hazard rules ([`Rule::is_hazard`]) —
    /// the count that sends a passing record to the hazardous-pass bucket.
    pub fn hazard_count(&self) -> u32 {
        self.per_rule
            .iter()
            .filter(|(r, _)| r.is_hazard())
            .map(|(_, n)| n)
            .sum()
    }
}

/// The result of checking one completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Outcome classification.
    pub outcome: CheckOutcome,
    /// The assembled candidate source that was checked (empty only when
    /// assembling the completion panicked).
    pub source: String,
    /// Lint tallies for the candidate. `None` when there was nothing to
    /// lint: the source failed to parse, or the harness faulted before the
    /// lint stage ran.
    pub lint: Option<LintCounts>,
}

/// Assembles a raw completion into a full candidate source.
///
/// Completions from the paper's flow are module *bodies* appended to the
/// prompt (after truncation at `endmodule`). The calibrated family engine
/// instead emits whole modules; those are detected by their leading
/// `module` keyword and used directly (after the same truncation).
pub fn assemble(problem: &Problem, level: PromptLevel, completion: &str) -> String {
    let trimmed = completion.trim_start();
    // Skip leading comment lines when detecting full-source completions.
    let mut rest = trimmed;
    while let Some(line_end) = rest.find('\n') {
        let line = rest[..line_end].trim_start();
        if line.starts_with("//") || line.is_empty() {
            rest = &rest[line_end + 1..];
        } else {
            break;
        }
    }
    if starts_with_module_keyword(rest) {
        truncate_completion(trimmed).to_string()
    } else {
        assemble_candidate(problem.prompt(level), completion)
    }
}

/// Whether `s` (after leading whitespace) begins with the `module` keyword
/// proper — not an identifier such as `module_helper` that merely shares
/// the prefix.
fn starts_with_module_keyword(s: &str) -> bool {
    match s.trim_start().strip_prefix("module") {
        Some(rest) => !matches!(
            rest.chars().next(),
            Some(c) if c.is_alphanumeric() || c == '_' || c == '$'
        ),
        None => false,
    }
}

/// Checks one completion end to end: assemble, compile (parse +
/// elaborate), lint, then simulate against the problem's testbench.
pub fn check_completion(
    problem: &Problem,
    level: PromptLevel,
    completion: &str,
    config: SimConfig,
) -> CheckResult {
    let source = assemble(problem, level, completion);
    let (outcome, lint) =
        check_source_cancellable(problem, &source, config, &CancelToken::unlimited());
    CheckResult {
        outcome,
        source,
        lint,
    }
}

/// Checks an already-assembled candidate source under a cooperative
/// [`CancelToken`]: the outcome, plus lint tallies whenever the source
/// parses (even if it later fails elaboration or simulation — the lint
/// rules are total over any parsed AST). One parse per candidate is
/// shared by lint, elaboration and simulation against the once-per-process
/// testbench parse, and the
/// [guard](crate::guard::supervised_check_source) covers the lint stage
/// too. The token is threaded through the parser, elaborator and
/// scheduler; once it trips, whichever stage is running unwinds and the
/// outcome becomes [`CheckOutcome::Timeout`] ([`TimeoutKind::Soft`])
/// instead of a verdict.
pub fn check_source_cancellable(
    problem: &Problem,
    source: &str,
    config: SimConfig,
    cancel: &CancelToken,
) -> (CheckOutcome, Option<LintCounts>) {
    // Compile check: the DUT alone must parse and elaborate.
    let parsed = match vgen_verilog::parse_with_cancel(source, cancel) {
        Ok(p) => p,
        Err(e) if e.cancelled => return (CheckOutcome::Timeout(TimeoutKind::Soft), None),
        Err(e) => return (CheckOutcome::CompileFail(e.to_string()), None),
    };
    // Lint stage: every parsed candidate gets tallies, so "compiled but
    // hazardous" and even "unelaboratable but racy" both leave a trace.
    let lint = Some(LintCounts::from_report(&vgen_lint::lint_file(&parsed.file)));
    let outcome = check_parsed(problem, source, &parsed, config, cancel);
    (outcome, lint)
}

/// The elaborate + simulate stages, after parse and lint.
///
/// The functional check simulates the candidate's parse linked with the
/// problem's testbench, parsed once per process
/// ([`vgen_problems::simulate_with_testbench`]): exactly what simulating
/// the text `"{source}\n{testbench}"` gives, without parsing either again.
fn check_parsed(
    problem: &Problem,
    source: &str,
    parsed: &Parsed,
    config: SimConfig,
    cancel: &CancelToken,
) -> CheckOutcome {
    let file = &parsed.file;
    if file.module(problem.module_name).is_none() {
        return CheckOutcome::CompileFail(format!(
            "completion does not define module `{}`",
            problem.module_name
        ));
    }
    match vgen_sim::elab::elaborate_with_cancel(&[file], problem.module_name, cancel) {
        Err(e) if e.cancelled => return CheckOutcome::Timeout(TimeoutKind::Soft),
        Err(e) => return CheckOutcome::CompileFail(e.to_string()),
        Ok(_) => {}
    }
    // Functional check: simulate DUT + testbench.
    match vgen_problems::simulate_with_testbench(problem, source, parsed, config, cancel) {
        Ok(out) => {
            if !out.reason.is_clean() {
                return match out.reason {
                    StopReason::Cancelled => CheckOutcome::Timeout(TimeoutKind::Soft),
                    StopReason::RuntimeError(m) => CheckOutcome::SimulationFail(m),
                    other => CheckOutcome::SimulationFail(format!("{other:?}")),
                };
            }
            if out.stdout.contains(PASS_MARKER) {
                CheckOutcome::Pass
            } else {
                CheckOutcome::FunctionalFail
            }
        }
        Err(vgen_sim::SimError::Parse(e)) if e.cancelled => {
            CheckOutcome::Timeout(TimeoutKind::Soft)
        }
        Err(vgen_sim::SimError::Elab(e)) if e.cancelled => CheckOutcome::Timeout(TimeoutKind::Soft),
        Err(e) => CheckOutcome::CompileFail(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgen_problems::problems;

    fn p(id: u8) -> &'static Problem {
        vgen_problems::problem(id).expect("problem id")
    }

    #[test]
    fn reference_bodies_pass() {
        for prob in problems() {
            let r = check_completion(
                prob,
                PromptLevel::Low,
                prob.reference_body,
                SimConfig::default(),
            );
            assert_eq!(
                r.outcome,
                CheckOutcome::Pass,
                "problem {} reference must pass",
                prob.id
            );
        }
    }

    #[test]
    fn garbage_fails_compile() {
        let r = check_completion(
            p(2),
            PromptLevel::Low,
            "assign y = a &;&& b\nendmodule",
            SimConfig::default(),
        );
        assert!(matches!(r.outcome, CheckOutcome::CompileFail(_)));
        assert!(!r.outcome.compiled());
    }

    #[test]
    fn wrong_logic_fails_functionally() {
        let r = check_completion(
            p(2),
            PromptLevel::Low,
            "assign y = a | b;\nendmodule",
            SimConfig::default(),
        );
        assert_eq!(r.outcome, CheckOutcome::FunctionalFail);
        assert!(r.outcome.compiled());
        assert!(!r.outcome.passed());
    }

    #[test]
    fn empty_body_compiles_but_fails() {
        let r = check_completion(p(2), PromptLevel::Low, "endmodule", SimConfig::default());
        assert_eq!(r.outcome, CheckOutcome::FunctionalFail);
    }

    #[test]
    fn full_source_completion_detected() {
        let full = p(2).reference_source();
        let r = check_completion(p(2), PromptLevel::High, &full, SimConfig::default());
        assert_eq!(r.outcome, CheckOutcome::Pass);
        // Source must not contain a duplicated module header.
        assert_eq!(r.source.matches("module and_gate").count(), 1);
    }

    #[test]
    fn full_source_with_leading_comments_detected() {
        let full = format!("// a chatty preamble\n\n{}", p(2).reference_source());
        let r = check_completion(p(2), PromptLevel::Low, &full, SimConfig::default());
        assert_eq!(r.outcome, CheckOutcome::Pass);
    }

    #[test]
    fn trailing_junk_is_truncated() {
        let with_junk = format!(
            "{}\nmodule scratch(input unused_x);\nendmodule\n",
            p(2).reference_source()
        );
        let r = check_completion(p(2), PromptLevel::Low, &with_junk, SimConfig::default());
        assert_eq!(r.outcome, CheckOutcome::Pass);
        assert!(!r.source.contains("scratch"));
    }

    #[test]
    fn module_prefixed_identifier_is_not_full_source() {
        // `module_helper ...` shares a prefix with the `module` keyword but
        // is an identifier; the completion must be treated as a body and
        // appended to the prompt, not mistaken for a whole module.
        let completion = "module_helper u0(y, a, b);\nendmodule";
        let src = assemble(p(2), PromptLevel::Low, completion);
        assert!(
            src.contains("module and_gate"),
            "completion must be appended to the prompt:\n{src}"
        );
        assert!(starts_with_module_keyword("module and_gate(input a);"));
        assert!(starts_with_module_keyword("  module m;"));
        assert!(!starts_with_module_keyword("module_helper u0();"));
        assert!(!starts_with_module_keyword("modulex"));
    }

    #[test]
    fn wrong_module_name_is_compile_fail() {
        let r = check_completion(
            p(2),
            PromptLevel::Low,
            "module wrong_name(input a, output y); assign y = a; endmodule",
            SimConfig::default(),
        );
        assert!(matches!(r.outcome, CheckOutcome::CompileFail(_)));
    }

    #[test]
    fn clean_pass_has_clean_lint() {
        let r = check_completion(
            p(2),
            PromptLevel::Low,
            "assign y = a & b;\nendmodule",
            SimConfig::default(),
        );
        assert_eq!(r.outcome, CheckOutcome::Pass);
        let lint = r.lint.expect("parsed source carries lint tallies");
        assert!(lint.is_clean(), "reference-style AND gate: {lint:?}");
        assert_eq!(lint.hazard_count(), 0);
    }

    #[test]
    fn hazardous_pass_carries_lint_counts() {
        // Functionally correct (the assign drives `y` exactly like the
        // reference), but the dead side-computation reads `b` from a
        // sensitivity list that only mentions `a` — a passing candidate
        // that still lands in the hazardous bucket.
        let r = check_completion(
            p(2),
            PromptLevel::Low,
            "reg t;\nalways @(a) t = a & b;\nassign y = a & b;\nendmodule",
            SimConfig::default(),
        );
        assert_eq!(r.outcome, CheckOutcome::Pass);
        let lint = r.lint.expect("lint tallies");
        assert!(
            lint.per_rule
                .iter()
                .any(|(rule, _)| *rule == vgen_lint::Rule::IncompleteSensitivity),
            "expected incomplete-sensitivity: {lint:?}"
        );
        assert!(lint.hazard_count() > 0);
    }

    #[test]
    fn unparsable_source_has_no_lint() {
        let r = check_completion(
            p(2),
            PromptLevel::Low,
            "assign y = a &;&& b\nendmodule",
            SimConfig::default(),
        );
        assert!(matches!(r.outcome, CheckOutcome::CompileFail(_)));
        assert_eq!(r.lint, None);
    }

    #[test]
    fn compile_fail_after_parse_still_lints() {
        // Parses, but defines the wrong module name: the lint stage still
        // ran over the AST.
        let (outcome, lint) = check_source_cancellable(
            p(2),
            "module wrong_name(input a, output y);\nassign y = a;\nendmodule",
            SimConfig::default(),
            &CancelToken::unlimited(),
        );
        assert!(matches!(outcome, CheckOutcome::CompileFail(_)));
        assert!(lint.is_some());
    }

    #[test]
    fn hang_is_simulation_fail() {
        // An always block with no event control spins forever within t=0.
        let r = check_completion(
            p(2),
            PromptLevel::Low,
            "reg spin;\nalways spin = ~spin;\nassign y = a & b;\nendmodule",
            SimConfig::default()
                .with_max_time(1000)
                .with_max_steps(50_000),
        );
        assert!(
            matches!(r.outcome, CheckOutcome::SimulationFail(_)),
            "got {:?}",
            r.outcome
        );
    }
}
