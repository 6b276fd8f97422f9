//! The problems' testbenches, parsed once per process, and the functional
//! check's simulation of a candidate against one.
//!
//! Every candidate of a problem is checked against the same testbench
//! text. Rather than parse `"{source}\n{testbench}"` per check, the
//! candidate's own parse is linked with the shared testbench parse and
//! elaborated as one design (DESIGN.md, "Parsed-testbench memo and linked
//! elaboration").

use std::sync::{Mutex, OnceLock};

use vgen_obs::CancelToken;
use vgen_sim::{SimConfig, SimError, SimOutput, Simulator};
use vgen_verilog::parser::MAX_TOKENS;
use vgen_verilog::{ParseError, Parsed, Span};

use crate::Problem;

/// One memo entry per testbench text. Checkers that race on a testbench
/// share the slot, so they wait for one parse instead of each parsing it.
type TestbenchSlot = &'static OnceLock<Parsed>;

/// The process-wide testbench memo. Never evicted: its keys are the
/// testbenches of the static catalog, so it stays that small, and its
/// slots are leaked to hand out `'static` parses.
static TESTBENCH_MEMO: Mutex<Vec<(&'static str, TestbenchSlot)>> = Mutex::new(Vec::new());

/// `testbench` parsed, once per process: every candidate of a problem is
/// checked against the same testbench text, so its AST is shared rather
/// than re-parsed per check. Each parse counts one `check.tb_parse`.
///
/// Keyed by the address of the text: catalog testbenches are string
/// literals, so one testbench is one key. Equal text at another address
/// only costs a second entry holding an identical parse.
///
/// # Panics
///
/// If `testbench` does not parse. Testbenches are part of the harness, and
/// every catalog testbench parses.
pub fn parsed_testbench(testbench: &'static str) -> &'static Parsed {
    let slot = {
        // Each update is one push, which leaves the memo valid, so a
        // poisoned lock is safe to recover.
        let mut memo = TESTBENCH_MEMO.lock().unwrap_or_else(|e| e.into_inner());
        match memo.iter().find(|(k, _)| std::ptr::eq(*k, testbench)) {
            Some((_, slot)) => *slot,
            None => {
                let slot: TestbenchSlot = Box::leak(Box::default());
                memo.push((testbench, slot));
                slot
            }
        }
    };
    slot.get_or_init(|| {
        vgen_obs::counter_add("check.tb_parse", 1);
        vgen_verilog::parse_with_cancel(testbench, &CancelToken::unlimited())
            .unwrap_or_else(|e| panic!("testbench does not parse: {}", e.render(testbench)))
    })
}

/// Parses, elaborates and simulates the text `"{source}\n{testbench}"`
/// from top `tb`, given `candidate`, the parse of `source`, and without
/// parsing either text again: the candidate's modules are linked with the
/// memoized testbench's, candidate first, so a module name resolves as it
/// would in the joined text.
///
/// The result equals [`vgen_sim::simulate_with_cancel`] on the joined
/// text, errors included; only the points where `cancel` is polled
/// differ. The one parse error that text can hit, exceeding [`MAX_TOKENS`]
/// when the candidate alone does not, is reproduced with its joined-text
/// offset.
///
/// # Errors
///
/// [`SimError::Parse`] when the joined token stream exceeds
/// [`MAX_TOKENS`]; [`SimError::Elab`] when the linked design does not
/// elaborate (or `cancel` trips first).
pub fn simulate_with_testbench(
    problem: &Problem,
    source: &str,
    candidate: &Parsed,
    config: SimConfig,
    cancel: &CancelToken,
) -> Result<SimOutput, SimError> {
    let tb = parsed_testbench(problem.testbench);
    // The candidate's end-of-input token is not part of the joined stream.
    if candidate.tokens - 1 + tb.tokens > MAX_TOKENS {
        return Err(SimError::Parse(joined_token_overflow(
            source,
            problem.testbench,
            candidate.tokens,
        )));
    }
    let design = vgen_sim::elab::elaborate_with_cancel(&[&candidate.file, &tb.file], "tb", cancel)?;
    Ok(Simulator::with_config(design, config)
        .cancelled_by(cancel.clone())
        .run())
}

/// The error parsing `"{source}\n{testbench}"` reports when the joined
/// token stream exceeds [`MAX_TOKENS`] although each text alone fits: the
/// cap lands on a testbench token, reported at its offset in the joined
/// text. Only this rare path lexes the testbench again.
fn joined_token_overflow(source: &str, testbench: &str, source_tokens: usize) -> ParseError {
    let tb_tokens = vgen_verilog::lexer::tokenize(testbench).expect("the testbench parsed");
    let at = tb_tokens[MAX_TOKENS - (source_tokens - 1)].span.start as usize + source.len() + 1;
    ParseError::new(
        format!("input exceeds {MAX_TOKENS} tokens"),
        Span::point(at as u32),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extended_problems, problems};

    #[test]
    fn memoized_testbench_equals_a_fresh_parse() {
        for p in problems().iter().chain(extended_problems()) {
            let memo = parsed_testbench(p.testbench);
            let fresh = vgen_verilog::parse_with_cancel(p.testbench, &CancelToken::unlimited())
                .expect("testbench parses");
            assert_eq!(*memo, fresh, "problem {}", p.id);
            assert!(
                std::ptr::eq(memo, parsed_testbench(p.testbench)),
                "problem {}: a second lookup must return the memoized parse",
                p.id
            );
        }
    }
}
