//! Lint diagnostics: rule identities, severities, and rendering.
//!
//! Every finding is a [`Diagnostic`] carrying the rule that fired, its
//! severity, a source [`Span`] and a message. Rendering resolves spans to
//! `file:line:col` through [`LineMap`] and prints a rustc-style snippet;
//! [`diagnostics_json`] serialises the same data machine-readably so a
//! tool-assisted generation loop can feed findings back to a model.

use std::fmt;

use vgen_obs::json::escape;
use vgen_verilog::span::{LineMap, Span};

/// The lint rules, in canonical (report) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// One net with two whole-signal structural drivers (two continuous
    /// assigns, two always blocks, or a mix).
    MultiDrivenNet,
    /// A cycle of combinational dependencies with no register breaking it.
    CombLoop,
    /// The same signal assigned with both `=` and `<=` in procedural code.
    MixedAssignStyles,
    /// A combinational block leaves a signal unassigned on some path.
    InferredLatch,
    /// A `case` in a combinational block with no `default` and no provably
    /// full label coverage.
    MissingDefault,
    /// A level-sensitive block reads signals missing from its
    /// sensitivity list.
    IncompleteSensitivity,
    /// An assignment whose right-hand side is provably wider than its
    /// target (silent truncation).
    WidthMismatch,
    /// A part-select or replication of zero width.
    ZeroWidth,
    /// A signal that is read but has no driver.
    UndrivenSignal,
    /// A signal that is never read.
    UnusedSignal,
}

impl Rule {
    /// All rules in canonical order.
    pub const ALL: [Rule; 10] = [
        Rule::MultiDrivenNet,
        Rule::CombLoop,
        Rule::MixedAssignStyles,
        Rule::InferredLatch,
        Rule::MissingDefault,
        Rule::IncompleteSensitivity,
        Rule::WidthMismatch,
        Rule::ZeroWidth,
        Rule::UndrivenSignal,
        Rule::UnusedSignal,
    ];

    /// Stable kebab-case identifier (used in reports, journals and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Rule::MultiDrivenNet => "multi-driven-net",
            Rule::CombLoop => "comb-loop",
            Rule::MixedAssignStyles => "mixed-assign-styles",
            Rule::InferredLatch => "inferred-latch",
            Rule::MissingDefault => "missing-default",
            Rule::IncompleteSensitivity => "incomplete-sensitivity",
            Rule::WidthMismatch => "width-mismatch",
            Rule::ZeroWidth => "zero-width",
            Rule::UndrivenSignal => "undriven-signal",
            Rule::UnusedSignal => "unused-signal",
        }
    }

    /// Looks a rule up by its [`Rule::name`].
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Whether this rule describes a behavioural hazard — something that
    /// can make a testbench-passing design misbehave in real hardware
    /// (races, latches, feedback, truncation). The hygiene rules
    /// ([`Rule::UndrivenSignal`], [`Rule::UnusedSignal`]) flag dead code,
    /// not hazards, and are excluded from the eval sweep's
    /// passed-but-hazardous bucket.
    pub fn is_hazard(self) -> bool {
        !matches!(self, Rule::UndrivenSignal | Rule::UnusedSignal)
    }

    /// The severity this rule fires at.
    ///
    /// Error severity is reserved for hazards that are structurally broken
    /// regardless of intent (conflicting drivers, combinational feedback);
    /// everything that *could* be deliberate — latches, truncation, unused
    /// signals — stays a warning. See DESIGN.md, "Lint severity model".
    pub fn severity(self) -> Severity {
        match self {
            Rule::MultiDrivenNet | Rule::CombLoop => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Tolerable hazard; the design may still be intentional.
    Warning,
    /// Structurally broken; no plausible intent produces this.
    Error,
}

impl Severity {
    /// Lower-case tag used in rendered output and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// Severity (normally [`Rule::severity`]).
    pub severity: Severity,
    /// Source location of the finding.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic at the rule's default severity.
    pub fn new(rule: Rule, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            span,
            message: message.into(),
        }
    }

    /// Renders the diagnostic rustc-style against its source:
    ///
    /// ```text
    /// warning[inferred-latch]: `q` is not assigned on every path
    ///   --> cand.v:3:1
    ///    |
    ///  3 | always @* if (en) q = d;
    ///    | ^^^^^^^^^
    /// ```
    pub fn render(&self, file: &str, src: &str) -> String {
        let map = LineMap::new(src);
        let (start, end) = map.span_line_cols(self.span);
        let mut out = format!(
            "{}[{}]: {}\n  --> {file}:{start}\n",
            self.severity, self.rule, self.message
        );
        // Source snippet: the first line of the span, with a caret run
        // under the spanned columns (clamped to that line).
        let line_begin = map.line_start(start.line).unwrap_or(0) as usize;
        let line_text = src[line_begin..].lines().next().unwrap_or("");
        let gutter = format!("{:>4}", start.line);
        let blank = " ".repeat(gutter.len());
        let caret_start = (start.col as usize).saturating_sub(1).min(line_text.len());
        let span_cols = if end.line == start.line {
            (end.col.saturating_sub(start.col) as usize).max(1)
        } else {
            line_text.len().saturating_sub(caret_start).max(1)
        };
        let carets = "^".repeat(span_cols.min(line_text.len().saturating_sub(caret_start).max(1)));
        out.push_str(&format!(
            "{blank} |\n{gutter} | {line_text}\n{blank} | {}{carets}\n",
            " ".repeat(caret_start)
        ));
        out
    }
}

/// Serialises diagnostics as a JSON array (hand-rolled; no serde in this
/// environment). Spans are emitted both as byte offsets and as resolved
/// line/column so downstream tools need no source access.
pub fn diagnostics_json(diags: &[Diagnostic], file: &str, src: &str) -> String {
    let map = LineMap::new(src);
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        let (start, end) = map.span_line_cols(d.span);
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"rule\": \"{}\", \"severity\": \"{}\", \
             \"line\": {}, \"col\": {}, \"end_line\": {}, \"end_col\": {}, \
             \"start\": {}, \"end\": {}, \"message\": \"{}\"}}",
            escape(file),
            d.rule,
            d.severity,
            start.line,
            start.col,
            end.line,
            end.col,
            d.span.start,
            d.span.end,
            escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn severity_model_is_two_tier() {
        assert_eq!(Rule::MultiDrivenNet.severity(), Severity::Error);
        assert_eq!(Rule::CombLoop.severity(), Severity::Error);
        assert_eq!(Rule::InferredLatch.severity(), Severity::Warning);
        assert!(Severity::Error > Severity::Warning);
    }

    #[test]
    fn render_points_at_the_span() {
        let src = "module m;\nassign y = a;\nendmodule\n";
        let d = Diagnostic::new(
            Rule::UndrivenSignal,
            Span::new(21, 22),
            "`a` is read but never driven",
        );
        let text = d.render("m.v", src);
        assert!(text.contains("warning[undriven-signal]"), "{text}");
        assert!(text.contains("--> m.v:2:12"), "{text}");
        assert!(text.contains("assign y = a;"), "{text}");
        assert!(text.lines().last().expect("caret line").contains('^'));
    }

    #[test]
    fn render_survives_spans_past_line_end() {
        let d = Diagnostic::new(Rule::CombLoop, Span::new(0, 500), "loop");
        let text = d.render("m.v", "assign y = y;\n");
        assert!(text.contains("error[comb-loop]"));
    }

    #[test]
    fn json_escapes_and_resolves() {
        let src = "assign y = \"x\";\n";
        let d = Diagnostic::new(Rule::WidthMismatch, Span::new(0, 6), "bad \"quote\"");
        let json = diagnostics_json(&[d], "a\\b.v", src);
        assert!(json.contains("\"rule\": \"width-mismatch\""), "{json}");
        assert!(json.contains("\\\"quote\\\""), "{json}");
        assert!(json.contains("a\\\\b.v"), "{json}");
        assert!(json.contains("\"line\": 1"));
        assert_eq!(diagnostics_json(&[], "f", ""), "[]");
    }
}
