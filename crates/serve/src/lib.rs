//! `vgen-serve` — the long-lived evaluation service.
//!
//! The one-shot CLI pays full process startup (and a cold dedup cache)
//! per sweep. This crate turns the eval pipeline into a daemon: a
//! [`Service`] facade that the `vgen serve` daemon (and `vgen eval`
//! itself) call, a line-delimited JSON protocol ([`proto`]) over the
//! workspace's one strict parser/renderer ([`Json`], from
//! `vgen_obs::json`), a unix-socket/stdio transport ([`daemon`]), and a
//! per-shard journal layout with a deterministic merge ([`shard`]).
//!
//! Invariant held everywhere: a sweep routed through the service — at any
//! shard count, any jobs count, either transport — produces reports and
//! journals byte-identical to the one-shot CLI path. The generation phase
//! runs per shard over the *full* grid (cells are filtered after
//! generation, and the family engine is order-independent anyway), the
//! check phase is sharded round-robin, and the merge reconstructs the
//! exact single-journal byte stream.

pub mod client;
pub mod daemon;
pub mod proto;
pub mod service;
pub mod shard;

pub use client::{request_over_unix, ClientOutcome};
pub use daemon::{serve_stdio, serve_unix, DaemonOptions};
pub use proto::{
    parse_request, render_event, CheckRequest, EvalRequest, Event, LintRequest, Request,
    RequestEnvelope, SimRequest,
};
pub use service::{EvalOutcome, EventSink, NullSink, Service};
pub use shard::{
    canonical_prefix, discover_shard_files, remove_shard_files, seed_shard_journals,
    shard_journal_path, write_journal, CanonicalPrefix,
};
pub use vgen_obs::json::Json;
