//! Resource limits of lowering: a hostile module is refused with a
//! diagnostic, never by overflowing the stack, and the verdict depends on
//! the module alone.

use vgen_synth::lower::MAX_RESOLVE_DEPTH;
use vgen_synth::synthesize_source;

/// A module whose longest chain is `nets` nets: the input `b`, then
/// `nets - 2` wires each read by the next, then the output `y`. With
/// `reversed`, the wire names count up from `b` instead of down from `y`;
/// with `comb`, each wire is driven by an `always @*` block.
fn chain(nets: usize, reversed: bool, comb: bool) -> String {
    let wires = nets - 2;
    let name = |k: usize| {
        let i = if reversed { wires - 1 - k } else { k };
        format!("c{i}")
    };
    let mut src = String::from("module m(input a, input b, output y);\n");
    for k in 0..wires {
        let (c, rhs) = if k + 1 < wires {
            (name(k), format!("{} ^ a", name(k + 1)))
        } else {
            (name(k), "b".to_string())
        };
        if comb {
            src.push_str(&format!("reg {c};\nalways @* {c} = {rhs};\n"));
        } else {
            src.push_str(&format!("wire {c};\nassign {c} = {rhs};\n"));
        }
    }
    src.push_str(&format!("assign y = {};\nendmodule\n", name(0)));
    src
}

/// Runs `f` on an 8 MiB stack, the size a guarded check runs on.
fn on_check_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

fn synthesizes(src: &str) -> Result<(), String> {
    synthesize_source(src)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

#[test]
fn chains_up_to_the_limit_synthesize_and_longer_ones_are_refused() {
    on_check_stack(|| {
        for reversed in [false, true] {
            for comb in [false, true] {
                let at = chain(MAX_RESOLVE_DEPTH, reversed, comb);
                assert_eq!(synthesizes(&at), Ok(()), "reversed {reversed} comb {comb}");
                let past = chain(MAX_RESOLVE_DEPTH + 1, reversed, comb);
                let err = synthesizes(&past).expect_err("refused");
                assert!(err.contains("combinational chain longer than"), "{err}");
            }
        }
    });
}

#[test]
fn the_verdict_does_not_vary_from_run_to_run() {
    // Lowering keeps its state in hash maps seeded afresh on every run;
    // none of that may change the verdict.
    on_check_stack(|| {
        let (at, past) = (
            chain(MAX_RESOLVE_DEPTH, false, false),
            chain(200, false, false),
        );
        for _ in 0..50 {
            assert_eq!(synthesizes(&at), Ok(()));
            assert!(synthesizes(&past).is_err());
        }
    });
}

#[test]
fn a_chain_past_the_limit_is_refused_not_overflowed() {
    // Eight times the limit overflows an 8 MiB stack in an unoptimised
    // build without it.
    let err = on_check_stack(|| synthesizes(&chain(8 * MAX_RESOLVE_DEPTH, false, false)))
        .expect_err("refused");
    assert!(err.contains("combinational chain longer than"), "{err}");
}
