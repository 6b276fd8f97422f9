//! Lowering resolves nets from a work list, not by recursion: a long chain
//! of nets synthesizes on a small stack, a long combinational ring is
//! refused as a loop rather than by overflowing the stack, and the verdict
//! depends on the module alone. A net or port declared wider than
//! `MAX_SIGNAL_BITS` is refused before anything of its width is allocated.

use vgen_synth::synthesize_source;
use vgen_verilog::value::MAX_SIGNAL_BITS;

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

/// A module whose `wires` wires form one combinational ring, each read by
/// the next, with the output `y` reading the ring.
fn ring(wires: usize) -> String {
    let mut src = String::from("module m(input a, output y);\n");
    for k in 0..wires {
        let next = (k + 1) % wires;
        src.push_str(&format!("wire c{k};\nassign c{k} = c{next} ^ a;\n"));
    }
    src.push_str("assign y = c0;\nendmodule\n");
    src
}

/// Runs `f` on a thread with a `mib` MiB stack.
fn on_stack<T: Send + 'static>(mib: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(mib << 20)
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
fn every_chain_shape_synthesizes_at_a_thousand_nets_on_a_small_stack() {
    // 1,024 nets: eight times the chain the recursive resolver refused.
    on_stack(4, || {
        for reversed in [false, true] {
            for comb in [false, true] {
                let src = chain(1024, reversed, comb);
                assert_eq!(synthesizes(&src), Ok(()), "reversed {reversed} comb {comb}");
            }
        }
    });
}

#[test]
fn a_twenty_thousand_net_chain_synthesizes() {
    let netlist = on_stack(8, || {
        synthesize_source(&chain(20_000, false, false))
            .map(|r| r.netlist)
            .map_err(|e| e.to_string())
    })
    .expect("synthesizes");
    assert_eq!(netlist.inputs.len(), 2);
    assert_eq!(netlist.outputs.len(), 1);
}

#[test]
fn a_twenty_thousand_net_ring_is_refused_as_a_loop() {
    let err = on_stack(8, || synthesizes(&ring(20_000))).expect_err("refused");
    assert!(err.contains("combinational loop through `c"), "{err}");
}

#[test]
fn the_verdict_does_not_vary_from_run_to_run() {
    // Lowering keeps its state in hash maps seeded afresh on every run;
    // none of that may change the verdict or which loop is reported.
    on_stack(8, || {
        let (long, loop_) = (chain(1024, true, true), ring(200));
        let refusal = synthesizes(&loop_).expect_err("refused");
        for _ in 0..50 {
            assert_eq!(synthesizes(&long), Ok(()));
            assert_eq!(synthesizes(&loop_), Err(refusal.clone()));
        }
    });
}

/// A module with a wire, or with `port` an output, declared `[msb:0]`.
fn wide(msb: &str, port: bool) -> String {
    if port {
        format!("module m(input a, output [{msb}:0] y);\nassign y = a;\nendmodule\n")
    } else {
        format!("module m(input a, output y);\nwire [{msb}:0] w;\nassign y = a;\nendmodule\n")
    }
}

#[test]
fn nets_and_ports_past_the_signal_width_cap_are_refused() {
    let limit = format!("exceeds the {MAX_SIGNAL_BITS}-bit limit");
    for port in [false, true] {
        let at_cap = (MAX_SIGNAL_BITS - 1).to_string();
        assert_eq!(synthesizes(&wide(&at_cap, port)), Ok(()), "port {port}");
        // One bit past the cap, and a range whose width would not fit in
        // memory (it used to abort the process allocating it).
        for msb in [MAX_SIGNAL_BITS.to_string(), "64'h7FFFFFFFFFFFFFFF".into()] {
            let err = synthesizes(&wide(&msb, port)).expect_err("refused");
            assert!(err.contains(&limit), "port {port} msb {msb}: {err}");
        }
    }
}
