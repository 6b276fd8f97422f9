//! # vgen
//!
//! A complete Rust reproduction of *"Benchmarking Large Language Models for
//! Automated Verilog RTL Code Generation"* (Thakur et al., DATE 2023) — the
//! VGen benchmark — including every substrate the paper depends on:
//!
//! * [`verilog`] — Verilog-2005 subset front-end (lexer, parser, AST,
//!   four-state values, pretty-printer, completion truncation),
//! * [`sim`] — event-driven four-state simulator (the Icarus Verilog
//!   stand-in),
//! * [`corpus`] — the §III-A training-corpus pipeline (filters,
//!   MinHash/Jaccard dedup, textbook cleaning, sliding windows),
//! * [`lm`] — BPE + n-gram train/sample pipeline, the Table I model
//!   registry, the mutation engine and the calibrated family model,
//! * [`problems`] — the 17-problem benchmark with L/M/H prompts and
//!   self-checking testbenches,
//! * [`core`] — the evaluation framework: compile/functional checks,
//!   Pass@(scenario·n), parameter sweeps and table/figure reports,
//! * [`lint`] — semantic static analysis (races, latches, combinational
//!   loops, width hazards) surfacing passed-but-hazardous completions,
//! * [`obs`] — zero-dependency structured tracing and metrics (spans,
//!   counters, histograms) with Chrome-trace and summary exports,
//! * [`serve`] — the long-lived eval service: a line-delimited JSON
//!   protocol over unix socket or stdio, with per-request supervision
//!   and cancellation.
//!
//! ```
//! use vgen::core::check::{check_completion, CheckOutcome};
//! use vgen::problems::{problem, PromptLevel};
//! use vgen::sim::SimConfig;
//!
//! let p = problem(5).expect("half adder");
//! let r = check_completion(
//!     p,
//!     PromptLevel::Medium,
//!     "assign sum = a ^ b;\nassign carry = a & b;\nendmodule",
//!     SimConfig::default(),
//! );
//! assert_eq!(r.outcome, CheckOutcome::Pass);
//! ```

#![warn(missing_docs)]

pub use vgen_core as core;
pub use vgen_corpus as corpus;
pub use vgen_lint as lint;
pub use vgen_lm as lm;
pub use vgen_obs as obs;
pub use vgen_problems as problems;
pub use vgen_serve as serve;
pub use vgen_sim as sim;
pub use vgen_synth as synth;
pub use vgen_verilog as verilog;
