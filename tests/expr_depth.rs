//! The parser's expression-depth cap against every stage that recurses
//! over an expression tree. The cap is sized so that, at the deepest tree
//! the parser accepts, each stage needs less than half of the 8 MiB stack
//! a check runs on, in an unoptimised build too; these tests run each stage
//! at the cap on a 4 MiB thread to hold it to that.

use vgen::core::check::{check_completion, CheckOutcome};
use vgen::problems::{problem, PromptLevel};
use vgen::sim::SimConfig;
use vgen::verilog::parser::MAX_EXPR_DEPTH;

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
