//! Completion truncation, mirroring the paper's §IV evaluation setup:
//! "LLM-produced code completions ... are truncated at keywords `end` and
//! `endmodule`".
//!
//! LLMs keep generating after the module closes (a new module, prose, more
//! code), so the harness cuts the completion after the first `endmodule`
//! token. If the completion never closes the module, an `endmodule` can be
//! appended when assembling, matching how VGen salvages unterminated
//! completions.

use crate::lexer::Lexer;
use crate::token::{Keyword, TokenKind};

/// Cuts `completion` after the first `endmodule` token (inclusive).
///
/// Tokenisation is lossy: if the text stops lexing (e.g. an unterminated
/// string), everything before the garbage is kept. Comments do not count —
/// only a real `endmodule` token truncates.
///
/// ```
/// use vgen_verilog::truncate::truncate_completion;
/// let c = "assign y = a;\nendmodule\nmodule junk; endmodule";
/// assert_eq!(truncate_completion(c), "assign y = a;\nendmodule");
/// ```
pub fn truncate_completion(completion: &str) -> &str {
    truncate_at_endmodule(completion).0
}

/// [`truncate_completion`], plus whether the cut text holds an `endmodule`
/// token — which it does exactly when the cut happened. One scan, which
/// stops at the first `endmodule` or lexical error.
fn truncate_at_endmodule(completion: &str) -> (&str, bool) {
    let mut lexer = Lexer::new(completion);
    while let Ok(t) = lexer.next_token() {
        match t.kind {
            TokenKind::Keyword(Keyword::Endmodule) => {
                return (&completion[..t.span.end as usize], true)
            }
            TokenKind::Eof => break,
            _ => {}
        }
    }
    (completion, false)
}

/// Joins a prompt and raw completion into a compilable source candidate.
///
/// The completion is truncated with [`truncate_completion`]; if the result
/// still contains no `endmodule`, one is appended on its own line (the
/// prompt always opens a module, so an unterminated completion would
/// otherwise always fail to compile for a trivial reason).
pub fn assemble_candidate(prompt: &str, completion: &str) -> String {
    let (body, has_endmodule) = truncate_at_endmodule(completion);
    let mut out = String::with_capacity(prompt.len() + body.len() + 16);
    out.push_str(prompt);
    if !prompt.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(body);
    if !has_endmodule {
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push_str("endmodule");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-scan assembly [`assemble_candidate`] replaced: lex the whole
    /// completion to truncate it, then lex the cut body again to look for
    /// `endmodule`.
    fn assemble_two_scans(prompt: &str, completion: &str) -> String {
        let tokens = Lexer::new(completion).tokenize_lossy();
        let body = tokens
            .iter()
            .find(|t| t.kind == TokenKind::Keyword(Keyword::Endmodule))
            .map_or(completion, |t| &completion[..t.span.end as usize]);
        let mut out = String::with_capacity(prompt.len() + body.len() + 16);
        out.push_str(prompt);
        if !prompt.ends_with('\n') {
            out.push('\n');
        }
        out.push_str(body);
        let has_endmodule = Lexer::new(body)
            .tokenize_lossy()
            .iter()
            .any(|t| t.kind == TokenKind::Keyword(Keyword::Endmodule));
        if !has_endmodule {
            if !out.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("endmodule");
        }
        out
    }

    /// Pieces the generated completions are spliced from: `endmodule` in
    /// and out of comments, strings and longer identifiers, plus openers
    /// that never close.
    const FRAGMENTS: &[&str] = &[
        "endmodule",
        "endmodule_x",
        "xendmodule",
        "endmodule$",
        "\\endmodule ",
        "end",
        "module m;",
        "assign y = a;",
        "\"",
        "\"endmodule\"",
        "//",
        "// endmodule",
        "/*",
        "*/",
        "/* endmodule */",
        "`define X endmodule",
        "`",
        "4'b1x",
        "8'h",
        "#",
        "\n",
        " ",
        "\t",
        "é",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn one_scan_assembly_matches_two_scans(
            picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..24),
            noise in ".{0,6}",
            newline in any::<bool>(),
        ) {
            let mut completion: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            completion.push_str(&noise);
            let prompt = if newline { "module m(input a, output y);\n" } else { "module m;" };
            prop_assert_eq!(
                assemble_candidate(prompt, &completion),
                assemble_two_scans(prompt, &completion),
                "completion {:?}", completion
            );
        }

        #[test]
        fn one_scan_assembly_matches_two_scans_on_noise(completion in ".{0,40}") {
            prop_assert_eq!(
                assemble_candidate("module m;", &completion),
                assemble_two_scans("module m;", &completion)
            );
        }
    }

    #[test]
    fn truncates_after_first_endmodule() {
        let c = "always @(a) y = a;\nendmodule\n// trailing prose\nmodule x;";
        assert_eq!(truncate_completion(c), "always @(a) y = a;\nendmodule");
    }

    #[test]
    fn keeps_text_without_endmodule() {
        let c = "assign y = a;";
        assert_eq!(truncate_completion(c), c);
    }

    #[test]
    fn endmodule_in_comment_does_not_truncate() {
        let c = "// endmodule in comment\nassign y = a;\nendmodule";
        assert_eq!(truncate_completion(c), c);
    }

    #[test]
    fn endmodule_in_identifier_does_not_truncate() {
        let c = "assign endmodule_like = a;\nendmodule";
        assert_eq!(truncate_completion(c), c);
    }

    #[test]
    fn assemble_appends_missing_endmodule() {
        let src = assemble_candidate("module m(input a, output y);", "assign y = a;");
        assert!(src.ends_with("endmodule"));
        assert!(crate::parser::syntax_check(&src).is_ok());
    }

    #[test]
    fn assemble_does_not_duplicate_endmodule() {
        let src = assemble_candidate("module m(input a, output y);", "assign y = a;\nendmodule");
        assert_eq!(src.matches("endmodule").count(), 1);
        assert!(crate::parser::syntax_check(&src).is_ok());
    }

    #[test]
    fn assemble_cuts_second_module() {
        let src = assemble_candidate(
            "module m(input a, output y);",
            "assign y = a;\nendmodule\nmodule extra(input b); endmodule",
        );
        assert!(!src.contains("extra"));
    }

    #[test]
    fn lossy_truncation_on_garbage() {
        let c = "assign y = a; \"unterminated";
        // No endmodule found before the lex error; text returned unchanged.
        assert_eq!(truncate_completion(c), c);
    }
}
