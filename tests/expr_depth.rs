//! The parser's expression-depth cap against every stage that recurses
//! over an expression tree, and the call-height cap against the stages that
//! follow user-function calls. Each cap is sized so that, at the cap, each
//! stage needs less than half of the 8 MiB stack a check runs on, in an
//! unoptimised build too; these tests run each stage at the cap on a 4 MiB
//! thread to hold it to that.

use vgen::core::check::{check_completion, CheckOutcome};
use vgen::problems::{problem, PromptLevel};
use vgen::sim::SimConfig;
use vgen::verilog::ast::Item;
use vgen::verilog::parser::{MAX_CALL_HEIGHT, MAX_EXPR_DEPTH};

/// Half the stack of a check thread.
const HALF_A_CHECK_STACK: usize = 4 << 20;

/// The deepest expressions the parser accepts, one per loop-built shape:
/// left-associative operator chains and a select chain.
fn deepest_expressions() -> Vec<String> {
    let mut out: Vec<String> = ["^", "+", "&&", "==", "<<"]
        .iter()
        .map(|op| vec!["a"; MAX_EXPR_DEPTH].join(&format!(" {op} ")))
        .collect();
    out.push(format!("a{}", "[0]".repeat(MAX_EXPR_DEPTH - 1)));
    out
}

/// Runs `stage` on a thread with half a check's stack. An overflow aborts
/// the test binary, which fails the test.
fn on_half_a_check_stack<T: Send + 'static>(stage: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(HALF_A_CHECK_STACK)
        .spawn(stage)
        .expect("spawn a stage thread")
        .join()
        .expect("the stage ran to completion")
}

#[test]
fn every_stage_fits_in_half_a_check_stack_at_the_depth_cap() {
    for expr in deepest_expressions() {
        let module = format!("module m(input [3:0] a, output y);\nassign y = {expr};\nendmodule\n");
        let file = vgen::verilog::parse(&module)
            .unwrap_or_else(|e| panic!("the cap admits its own depth: {}", e.message));
        let tree = file.clone();
        on_half_a_check_stack(move || {
            vgen::lint::lint_file(&tree);
            vgen::verilog::pretty::pretty_file(&tree);
            drop(tree);
        });
        let src = module.clone();
        on_half_a_check_stack(move || vgen::synth::synthesize_source(&src).map(|_| ()).ok());
        let tb = format!(
            "module top;\nreg [3:0] a;\nwire y;\nassign y = {expr};\n\
             initial begin a = 4'b0101; #1 $display(\"%b\", y); end\nendmodule\n"
        );
        let simulated =
            on_half_a_check_stack(move || vgen::sim::simulate(&tb, None, SimConfig::default()));
        // A select of a select does not elaborate; every operator chain
        // runs.
        assert!(simulated.is_ok() || expr.contains('['), "{simulated:?}");
        let body = format!("assign y = {expr};\nendmodule\n");
        let outcome = on_half_a_check_stack(move || {
            let p = problem(2).expect("problem 2 exists");
            check_completion(p, PromptLevel::Low, &body, SimConfig::default()).outcome
        });
        assert!(
            !matches!(outcome, CheckOutcome::HarnessFault(_)),
            "{outcome:?}"
        );
    }
}

/// A module of `calls` user functions, each calling the next, called from
/// both a continuous assignment and an initial block. With `tall_head`,
/// the first body buries its call at the bottom of a [`MAX_EXPR_DEPTH`]
/// tall expression.
fn call_chain(calls: usize, tall_head: bool) -> String {
    let mut src = String::from("module m(input a, input b, output y);\n");
    for i in 0..calls {
        let rhs = match (i + 1 < calls, i == 0 && tall_head) {
            (false, _) => "x".to_string(),
            (true, false) => format!("f{}(x)", i + 1),
            (true, true) => format!("f{}(x){}", i + 1, " ^ x".repeat(MAX_EXPR_DEPTH - 2)),
        };
        src.push_str(&format!(
            "function f{i}; input x; begin f{i} = {rhs}; end endfunction\n"
        ));
    }
    src.push_str("reg r;\ninitial r = f0(1'b1);\nassign y = f0(a & b);\nendmodule\n");
    src
}

/// What a call to `f0` charges against the cap: every function's height.
fn chain_height(src: &str) -> usize {
    let file = vgen::verilog::parse(src).unwrap_or_else(|e| panic!("{}", e.message));
    let functions = file.modules[0].items.iter().filter_map(|item| match item {
        Item::Function(f) => Some(f.height()),
        _ => None,
    });
    functions.sum()
}

#[test]
fn nested_calls_fit_in_half_a_check_stack_up_to_the_call_cap() {
    let refusal = format!("function calls nested deeper than {MAX_CALL_HEIGHT} levels");
    for tall_head in [false, true] {
        let longest = (2..)
            .take_while(|&calls| chain_height(&call_chain(calls, tall_head)) <= MAX_CALL_HEIGHT)
            .last()
            .expect("a two-call chain fits");
        for (calls, fits) in [(longest, true), (longest + 1, false)] {
            let src = call_chain(calls, tall_head);
            let tb = src.clone();
            let simulated = on_half_a_check_stack(move || {
                vgen::sim::simulate(&tb, None, SimConfig::default()).map(|out| out.reason)
            })
            .expect("the chain elaborates");
            let synthesized = on_half_a_check_stack(move || {
                vgen::synth::synthesize_source(&src)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            });
            let context = format!("{calls} calls, tall head {tall_head}");
            let sim_refused = format!("{simulated:?}").contains(&refusal);
            assert_eq!(sim_refused, !fits, "{context}: {simulated:?}");
            match synthesized {
                Ok(()) => assert!(fits, "{context}: synthesized past the cap"),
                Err(e) => assert!(!fits && e.contains(&refusal), "{context}: {e}"),
            }
        }
    }
}
