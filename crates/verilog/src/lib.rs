//! # vgen-verilog
//!
//! Front-end for the Verilog-2005 subset used by the VGen benchmark
//! reproduction: lexer, parser, AST, four-state value domain, pretty-printer
//! and the completion-truncation rule from the paper's evaluation setup.
//!
//! This crate stands in for the parsing half of Icarus Verilog in the
//! original paper's pipeline: a completion "compiles" iff [`parse`] accepts
//! it (see `vgen-sim` for elaboration checks and simulation).
//!
//! ## Quick example
//!
//! ```
//! use vgen_verilog::{parse, pretty::pretty_file};
//!
//! let src = "module half_adder(input a, b, output sum, carry);
//!            assign sum = a ^ b;
//!            assign carry = a & b;
//!            endmodule";
//! let file = parse(src)?;
//! assert_eq!(file.modules[0].name, "half_adder");
//! println!("{}", pretty_file(&file));
//! # Ok::<(), vgen_verilog::error::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod number;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod truncate;
pub mod value;

pub use ast::{Module, SourceFile};
pub use error::ParseError;
pub use parser::{parse, parse_with_cancel, syntax_check, Parsed};
pub use span::Span;
pub use value::{Logic, LogicVec, ZeroWidthError};
