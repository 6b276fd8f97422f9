//! `vgen-serve` — the long-lived evaluation service.
//!
//! The one-shot CLI pays full process startup (and a cold dedup cache)
//! per sweep. This crate turns the eval pipeline into a daemon: a
//! [`Service`] facade that the `vgen serve` daemon (and `vgen eval`
//! itself) call, a line-delimited JSON protocol ([`proto`]) over the
//! workspace's one strict parser/renderer ([`Json`], from
//! `vgen_obs::json`), and a unix-socket/stdio transport ([`daemon`]).
//!
//! Invariant held everywhere: a sweep routed through the service — at any
//! jobs count, over either transport — produces reports and journals
//! byte-identical to the one-shot CLI path, because both run the same
//! core sweep executor with the same options.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod service;

pub use client::{request_over_unix, ClientOutcome};
pub use daemon::{serve_stdio, serve_unix, DaemonOptions};
pub use proto::{
    parse_request, render_event, CheckRequest, EvalRequest, Event, LintRequest, Request,
    RequestEnvelope, SimRequest,
};
pub use service::{EvalOutcome, EventSink, NullSink, Service};
pub use vgen_obs::json::Json;
