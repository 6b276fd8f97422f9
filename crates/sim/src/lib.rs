//! # vgen-sim
//!
//! An event-driven, four-state Verilog simulator for the subset exercised by
//! the VGen benchmark — the stand-in for Icarus Verilog (`iverilog` + `vvp`)
//! in the paper's evaluation pipeline.
//!
//! Pipeline: [`vgen_verilog::parse`] → [`elab::elaborate`] → [`Simulator`].
//! The convenience function [`simulate`] runs all three.
//!
//! ```
//! use vgen_sim::{simulate, SimConfig};
//!
//! let src = "
//! module counter(input clk, input reset, output reg [3:0] q);
//!   always @(posedge clk) begin
//!     if (reset) q <= 4'd1;
//!     else if (q == 4'd12) q <= 4'd1;
//!     else q <= q + 4'd1;
//!   end
//! endmodule
//! module tb;
//!   reg clk, reset; wire [3:0] q;
//!   counter dut(.clk(clk), .reset(reset), .q(q));
//!   always #5 clk = ~clk;
//!   initial begin
//!     clk = 0; reset = 1;
//!     #12 reset = 0;
//!     repeat (3) @(posedge clk);
//!     $display(\"q=%0d\", q);
//!     $finish;
//!   end
//! endmodule";
//! let out = simulate(src, Some("tb"), SimConfig::default())?;
//! assert_eq!(out.stdout.trim(), "q=3");
//! # Ok::<(), vgen_sim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod design;
pub mod elab;
pub mod interp;
pub mod sched;
pub mod systasks;
pub mod vcd;

pub use design::Design;
pub use elab::ElabError;
pub use interp::{RuntimeError, State};
pub use sched::{SimConfig, SimOutput, Simulator, StopReason};

/// An error from the parse or elaborate stages of [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The source failed to parse.
    Parse(vgen_verilog::ParseError),
    /// The source parsed but failed elaboration.
    Elab(ElabError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Parse(e) => write!(f, "parse error: {e}"),
            SimError::Elab(e) => write!(f, "elaboration error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<vgen_verilog::ParseError> for SimError {
    fn from(e: vgen_verilog::ParseError) -> Self {
        SimError::Parse(e)
    }
}

impl From<ElabError> for SimError {
    fn from(e: ElabError) -> Self {
        SimError::Elab(e)
    }
}

/// Parses, elaborates and simulates `src` in one call.
///
/// `top` selects the root module; `None` uses the *last* module in the file
/// (testbenches conventionally come after the DUT).
///
/// # Errors
///
/// Returns [`SimError`] if parsing or elaboration fails. Runtime problems
/// (hangs, `$finish`, unknown tasks) are reported in the returned
/// [`SimOutput::reason`] instead.
pub fn simulate(src: &str, top: Option<&str>, config: SimConfig) -> Result<SimOutput, SimError> {
    simulate_with_cancel(src, top, config, &vgen_obs::CancelToken::unlimited())
}

/// [`simulate`] under a cooperative [`vgen_obs::CancelToken`], threaded
/// through all three stages: the parser and elaborator return a
/// `cancelled` error once it trips, and the scheduler stops with
/// [`StopReason::Cancelled`].
pub fn simulate_with_cancel(
    src: &str,
    top: Option<&str>,
    config: SimConfig,
    cancel: &vgen_obs::CancelToken,
) -> Result<SimOutput, SimError> {
    let file = vgen_verilog::parse_with_cancel(src, cancel)?.file;
    let top_name = match top {
        Some(t) => t.to_string(),
        None => file
            .modules
            .last()
            .expect("parser guarantees >=1 module")
            .name
            .clone(),
    };
    let design = elab::elaborate_with_cancel(&[&file], &top_name, cancel)?;
    Ok(Simulator::with_config(design, config)
        .cancelled_by(cancel.clone())
        .run())
}
