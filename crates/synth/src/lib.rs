//! # vgen-synth
//!
//! Synthesizability checking and RTL synthesis for the VGen benchmark — the
//! third check in the lineage of this paper ("syntax, synthesis, and
//! functional checks", §I): a completion is *synthesizable* when
//! [`synthesize`] can lower it to a word-level netlist with no error
//! diagnostics.
//!
//! The backend performs the classic recipe: driver collection, symbolic
//! execution of combinational blocks into mux trees (with latch
//! detection), D-flip-flop extraction for single-clock edge-triggered
//! blocks (with async-reset peeling), constant loop unrolling and user
//! function inlining. [`NetlistSim`] executes the netlist cycle-by-cycle,
//! which the test-suite uses to prove synthesized netlists equivalent to
//! the event-driven simulator.
//!
//! ```
//! use vgen_synth::{synthesize, NetlistSim};
//! use vgen_verilog::value::LogicVec;
//!
//! let file = vgen_verilog::parse(
//!     "module ha(input a, b, output sum, carry);
//!      assign sum = a ^ b;
//!      assign carry = a & b;
//!      endmodule",
//! )?;
//! let result = synthesize(&file.modules[0])?;
//! let mut sim = NetlistSim::new(result.netlist);
//! sim.set_input("a", LogicVec::from_bool(true));
//! sim.set_input("b", LogicVec::from_bool(true));
//! sim.settle();
//! assert_eq!(sim.output("carry").to_u64(), Some(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod eval;
pub mod lower;
pub mod netlist;

pub use eval::NetlistSim;
pub use lower::{synthesize, Diagnostic, Severity, SynthError, SynthResult};
pub use netlist::{levelize_deps, Cell, Levelization, Net, NetId, Netlist};

/// Convenience: parses `src` and synthesizes its first module.
///
/// # Errors
///
/// Returns a boxed error for parse failures or [`SynthError`] for
/// non-synthesizable constructs.
pub fn synthesize_source(src: &str) -> Result<SynthResult, Box<dyn std::error::Error>> {
    let file = vgen_verilog::parse(src)?;
    Ok(synthesize(&file.modules[0])?)
}
