//! # vgen-core
//!
//! The VGen evaluation framework — the paper's primary contribution: an
//! automated pipeline that takes LLM completions for the 17-problem Verilog
//! benchmark, truncates/assembles them (§IV), checks compilation (parse +
//! elaborate, standing in for `iverilog`), simulates them against
//! hand-written testbenches, and reports Pass@(scenario·n) across the
//! temperature / completions / prompt-detail grid of §IV-B.
//!
//! ```
//! use vgen_core::check::{check_completion, CheckOutcome};
//! use vgen_problems::{problem, PromptLevel};
//! use vgen_sim::SimConfig;
//!
//! let and_gate = problem(2).expect("problem 2 exists");
//! let result = check_completion(
//!     and_gate,
//!     PromptLevel::Low,
//!     "assign y = a & b;\nendmodule",
//!     SimConfig::default(),
//! );
//! assert_eq!(result.outcome, CheckOutcome::Pass);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod check;
pub mod experiments;
pub mod guard;
pub mod metrics;
pub mod pool;
pub mod report;
pub mod sweep;
pub mod synthcheck;

pub use chaos::{ChaosSite, ChaosSpec};
pub use check::{check_completion, CheckOutcome, CheckResult, FaultKind, TimeoutKind};
pub use experiments::{evaluate_all_models, evaluate_model};
pub use guard::{
    catch_harness_fault, supervised_check_completion, supervised_check_source, CheckPolicy,
};
pub use metrics::Tally;
pub use pool::{ReorderBuffer, WorkerPool};
pub use report::{
    headline_stats, render_eval_summary, render_fault_summary, sweep_stats_json, Headline, ModelRun,
};
pub use sweep::{
    config_fingerprint, journal_header, read_journal_recovering, run_engine, run_engine_sweep,
    EvalConfig, EvalRun, FsyncPolicy, Record, RecordObserver, RecoveryReport, SweepHooks,
    SweepOptions, SweepStats, UnsupportedJournalVersion,
};
