//! The line-delimited JSON protocol.
//!
//! One request per line, one JSON object per event line back. Grammar
//! (see DESIGN.md "Service architecture" for the full field tables):
//!
//! ```text
//! request  = { "id": uint, "cmd": "eval" | "check" | "lint" | "sim"
//!                        | "cancel" | "ping" | "shutdown"
//!                        | "metrics" | "subscribe", ...params }
//! response = { "id": uint, "event": "accepted" | "progress" | "metrics"
//!                        | "log" | "done" | "cancelled" | "error", ... }
//! ```
//!
//! Every response carries the `id` of the request it answers; a request
//! produces exactly one terminal event (`done`, `cancelled` or `error`),
//! preceded by any number of `accepted`/`progress`/`metrics`/`log`
//! events. Unknown request fields are ignored (forward compatibility);
//! unknown commands get an `error` event, not a dropped connection.

use vgen_obs::json::Json;

/// A parsed request line: the client-chosen id plus the command body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    pub id: u64,
    pub body: Request,
}

/// Every command the service understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Eval(Box<EvalRequest>),
    Check(CheckRequest),
    Lint(LintRequest),
    Sim(SimRequest),
    /// Cancel the in-flight request with id `target` on this connection.
    Cancel {
        target: u64,
    },
    /// One-shot live metrics: a `done` event whose payload is the current
    /// epoch-stamped snapshot (JSON) plus its Prometheus text exposition.
    Metrics,
    /// Streamed metrics: one `metrics` event per `interval_ms` until
    /// `count` frames have been sent (`0` = until cancelled), then `done`.
    Subscribe {
        interval_ms: u64,
        count: u64,
    },
    Ping,
    /// Stop accepting connections and exit once in-flight work unwinds.
    Shutdown,
}

/// Parameters of an `eval` request — the full sweep grid plus execution
/// options, mirroring the `vgen eval` CLI flags.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRequest {
    /// Journal path; required (resume keys off it).
    pub journal: String,
    pub resume: bool,
    /// Model name as in `ModelId` display form, e.g. `CodeGen-16B`.
    pub model: String,
    /// `ft` (fine-tuned) or `pt` (pretrained).
    pub tuning: String,
    /// Paper-scale grid (`paper_n10`) instead of the quick grid.
    pub full: bool,
    /// Worker threads; `0` = auto.
    pub jobs: usize,
    pub dedup: bool,
    /// Per-check wall-clock timeout in seconds.
    pub check_timeout: Option<f64>,
    pub retries: u32,
    /// Chaos spec string (`site:rate[:param]`, comma-separated).
    pub chaos: Option<String>,
    pub chaos_seed: u64,
    /// `never`, `every-record`, or `interval:N`.
    pub fsync: String,
    /// Collect `vgen-obs` metrics for this request and stream a final
    /// `metrics` event.
    pub metrics: bool,
    /// Engine RNG seed.
    pub seed: u64,
    /// Emit a `progress` event every N fresh records.
    pub progress_every: u64,
    /// Grid overrides (default: the quick / paper grid for `full`).
    pub problems: Option<Vec<u8>>,
    pub temperatures: Option<Vec<f64>>,
    pub ns: Option<Vec<usize>>,
    /// Prompt levels as a tag string, e.g. `"LMH"`, `"L"`.
    pub levels: Option<String>,
}

impl Default for EvalRequest {
    fn default() -> Self {
        EvalRequest {
            journal: String::new(),
            resume: false,
            model: "CodeGen-16B".to_string(),
            tuning: "ft".to_string(),
            full: false,
            jobs: 1,
            dedup: true,
            check_timeout: None,
            retries: 0,
            chaos: None,
            chaos_seed: 0,
            fsync: "never".to_string(),
            metrics: false,
            seed: 42,
            progress_every: 1,
            problems: None,
            temperatures: None,
            ns: None,
            levels: None,
        }
    }
}

/// Parameters of a `check` request: score one completion against one
/// problem's testbench.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRequest {
    pub problem: u8,
    /// Prompt level tag: `L`, `M`, or `H`.
    pub level: String,
    pub source: String,
    pub check_timeout: Option<f64>,
}

/// Parameters of a `lint` request.
#[derive(Debug, Clone, PartialEq)]
pub struct LintRequest {
    pub source: String,
    /// Display name used in diagnostics.
    pub name: String,
}

/// Parameters of a `sim` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    pub source: String,
    pub top: Option<String>,
    pub max_time: Option<u64>,
}

/// Every event the service emits.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The request parsed and started executing.
    Accepted { cmd: &'static str },
    /// A fresh record landed: `done`/`total` count the whole request;
    /// `outcome` classifies the record (`pass`/`fail`/`fault`).
    Progress {
        done: usize,
        total: usize,
        outcome: &'static str,
    },
    /// A `vgen-obs` metrics snapshot (object payload): the final one for
    /// an `eval --metrics` request, or one frame of a `subscribe` stream.
    Metrics { metrics: Json },
    /// Human-readable side information (resume counts, merge notes).
    Log { message: String },
    /// Terminal success; `payload` is command-specific.
    Done { payload: Json },
    /// Terminal for a cancelled request: how far it got.
    CancelledAt { done: usize, total: usize },
    /// Terminal failure.
    Error { message: String },
}

impl Event {
    /// Whether this event ends its request's stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Done { .. } | Event::CancelledAt { .. } | Event::Error { .. }
        )
    }
}

/// Renders one event as a single protocol line (no trailing newline).
pub fn render_event(id: u64, event: &Event) -> String {
    let mut members: Vec<(String, Json)> = vec![("id".to_string(), Json::Num(id as f64))];
    let tag = |members: &mut Vec<(String, Json)>, t: &str| {
        members.push(("event".to_string(), Json::str(t)));
    };
    match event {
        Event::Accepted { cmd } => {
            tag(&mut members, "accepted");
            members.push(("cmd".to_string(), Json::str(*cmd)));
        }
        Event::Progress {
            done,
            total,
            outcome,
        } => {
            tag(&mut members, "progress");
            members.push(("done".to_string(), Json::Num(*done as f64)));
            members.push(("total".to_string(), Json::Num(*total as f64)));
            members.push(("outcome".to_string(), Json::str(*outcome)));
        }
        Event::Metrics { metrics } => {
            tag(&mut members, "metrics");
            members.push(("metrics".to_string(), metrics.clone()));
        }
        Event::Log { message } => {
            tag(&mut members, "log");
            members.push(("message".to_string(), Json::str(message.clone())));
        }
        Event::Done { payload } => {
            tag(&mut members, "done");
            members.push(("payload".to_string(), payload.clone()));
        }
        Event::CancelledAt { done, total } => {
            tag(&mut members, "cancelled");
            members.push(("done".to_string(), Json::Num(*done as f64)));
            members.push(("total".to_string(), Json::Num(*total as f64)));
        }
        Event::Error { message } => {
            tag(&mut members, "error");
            members.push(("message".to_string(), Json::str(message.clone())));
        }
    }
    Json::Obj(members).render()
}

fn str_field(obj: &Json, key: &str, default: &str) -> Result<String, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default.to_string()),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

fn bool_field(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| format!("`{key}` must be a bool")),
    }
}

fn uint_field(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message: JSON syntax errors, missing/ill-typed
/// fields, or an unknown `cmd`.
pub fn parse_request(line: &str) -> Result<RequestEnvelope, String> {
    let v = Json::parse(line)?;
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("missing or invalid `id`")?;
    let cmd = v.get("cmd").and_then(Json::as_str).ok_or("missing `cmd`")?;
    let body = match cmd {
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        "metrics" => Request::Metrics,
        "subscribe" => Request::Subscribe {
            interval_ms: uint_field(&v, "interval_ms", 1000)?.max(10),
            count: uint_field(&v, "count", 0)?,
        },
        "cancel" => Request::Cancel {
            target: v
                .get("target")
                .and_then(Json::as_u64)
                .ok_or("`cancel` needs a `target` request id")?,
        },
        "eval" => {
            let d = EvalRequest::default();
            let journal = str_field(&v, "journal", "")?;
            if journal.is_empty() {
                return Err("`eval` needs a `journal` path".to_string());
            }
            let problems = match v.get("problems") {
                None | Some(Json::Null) => None,
                Some(Json::Arr(items)) => Some(
                    items
                        .iter()
                        .map(|x| {
                            x.as_u64()
                                .and_then(|n| u8::try_from(n).ok())
                                .ok_or("`problems` entries must be small integers")
                        })
                        .collect::<Result<Vec<u8>, _>>()?,
                ),
                Some(_) => return Err("`problems` must be an array".to_string()),
            };
            let temperatures = match v.get("temperatures") {
                None | Some(Json::Null) => None,
                Some(Json::Arr(items)) => Some(
                    items
                        .iter()
                        .map(|x| x.as_f64().ok_or("`temperatures` entries must be numbers"))
                        .collect::<Result<Vec<f64>, _>>()?,
                ),
                Some(_) => return Err("`temperatures` must be an array".to_string()),
            };
            let ns = match v.get("ns") {
                None | Some(Json::Null) => None,
                Some(Json::Arr(items)) => Some(
                    items
                        .iter()
                        .map(|x| x.as_usize().ok_or("`ns` entries must be integers"))
                        .collect::<Result<Vec<usize>, _>>()?,
                ),
                Some(_) => return Err("`ns` must be an array".to_string()),
            };
            let levels = match v.get("levels") {
                None | Some(Json::Null) => None,
                Some(x) => Some(
                    x.as_str()
                        .ok_or("`levels` must be a tag string like \"LMH\"")?
                        .to_string(),
                ),
            };
            let check_timeout = match v.get("check_timeout") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_f64().ok_or("`check_timeout` must be a number")?),
            };
            let chaos = match v.get("chaos") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_str().ok_or("`chaos` must be a string")?.to_string()),
            };
            Request::Eval(Box::new(EvalRequest {
                journal,
                resume: bool_field(&v, "resume", d.resume)?,
                model: str_field(&v, "model", &d.model)?,
                tuning: str_field(&v, "tuning", &d.tuning)?,
                full: bool_field(&v, "full", d.full)?,
                jobs: uint_field(&v, "jobs", d.jobs as u64)? as usize,
                dedup: bool_field(&v, "dedup", d.dedup)?,
                check_timeout,
                retries: uint_field(&v, "retries", u64::from(d.retries))? as u32,
                chaos,
                chaos_seed: uint_field(&v, "chaos_seed", d.chaos_seed)?,
                fsync: str_field(&v, "fsync", &d.fsync)?,
                metrics: bool_field(&v, "metrics", d.metrics)?,
                seed: uint_field(&v, "seed", d.seed)?,
                progress_every: uint_field(&v, "progress_every", d.progress_every)?.max(1),
                problems,
                temperatures,
                ns,
                levels,
            }))
        }
        "check" => Request::Check(CheckRequest {
            problem: u8::try_from(uint_field(&v, "problem", 0)?)
                .map_err(|_| "`problem` out of range")?,
            level: str_field(&v, "level", "L")?,
            source: v
                .get("source")
                .and_then(Json::as_str)
                .ok_or("`check` needs `source` text")?
                .to_string(),
            check_timeout: match v.get("check_timeout") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_f64().ok_or("`check_timeout` must be a number")?),
            },
        }),
        "lint" => Request::Lint(LintRequest {
            source: v
                .get("source")
                .and_then(Json::as_str)
                .ok_or("`lint` needs `source` text")?
                .to_string(),
            name: str_field(&v, "name", "<request>")?,
        }),
        "sim" => Request::Sim(SimRequest {
            source: v
                .get("source")
                .and_then(Json::as_str)
                .ok_or("`sim` needs `source` text")?
                .to_string(),
            top: match v.get("top") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_str().ok_or("`top` must be a string")?.to_string()),
            },
            max_time: match v.get("max_time") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_u64().ok_or("`max_time` must be an integer")?),
            },
        }),
        other => return Err(format!("unknown cmd `{other}`")),
    };
    Ok(RequestEnvelope { id, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_eval() {
        let env = parse_request(r#"{"id":1,"cmd":"eval","journal":"/tmp/x.log"}"#).expect("parse");
        assert_eq!(env.id, 1);
        let Request::Eval(e) = env.body else {
            panic!("not eval")
        };
        assert_eq!(e.journal, "/tmp/x.log");
        assert_eq!(e.jobs, 1);
        assert!(e.dedup);

        let env = parse_request(
            r#"{"id":9,"cmd":"eval","journal":"j","jobs":2,"resume":true,
                "model":"CodeGen-2B","tuning":"pt","dedup":false,
                "problems":[1,2,6],"temperatures":[0.1,0.7],"ns":[5],"levels":"LM",
                "check_timeout":2.5,"retries":1,"chaos":"check.delay:0.5:20","chaos_seed":7,
                "metrics":true,"seed":13,"progress_every":10}"#,
        )
        .expect("full parse");
        let Request::Eval(e) = env.body else {
            panic!("not eval")
        };
        assert_eq!(e.jobs, 2);
        assert_eq!(e.problems.as_deref(), Some(&[1u8, 2, 6][..]));
        assert_eq!(e.levels.as_deref(), Some("LM"));
        assert_eq!(e.check_timeout, Some(2.5));
        assert_eq!(e.chaos.as_deref(), Some("check.delay:0.5:20"));
        assert!(!e.dedup);
        assert!(e.metrics);
    }

    #[test]
    fn parses_metrics_and_subscribe() {
        let env = parse_request(r#"{"id":3,"cmd":"metrics"}"#).expect("parse");
        assert_eq!(env.body, Request::Metrics);

        let env = parse_request(r#"{"id":4,"cmd":"subscribe"}"#).expect("parse");
        assert_eq!(
            env.body,
            Request::Subscribe {
                interval_ms: 1000,
                count: 0
            }
        );

        let env = parse_request(r#"{"id":5,"cmd":"subscribe","interval_ms":250,"count":8}"#)
            .expect("parse");
        assert_eq!(
            env.body,
            Request::Subscribe {
                interval_ms: 250,
                count: 8
            }
        );
        // Sub-10ms intervals are clamped: a zero interval would busy-spin.
        let env = parse_request(r#"{"id":6,"cmd":"subscribe","interval_ms":0}"#).expect("parse");
        assert_eq!(
            env.body,
            Request::Subscribe {
                interval_ms: 10,
                count: 0
            }
        );
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"cmd":"ping"}"#).is_err(), "missing id");
        assert!(parse_request(r#"{"id":1,"cmd":"warp"}"#).is_err());
        assert!(
            parse_request(r#"{"id":1,"cmd":"eval"}"#).is_err(),
            "journal required"
        );
        assert!(parse_request(r#"{"id":1,"cmd":"cancel"}"#).is_err());
    }

    #[test]
    fn events_render_as_single_valid_json_lines() {
        let events = [
            Event::Accepted { cmd: "eval" },
            Event::Progress {
                done: 3,
                total: 30,
                outcome: "pass",
            },
            Event::Log {
                message: "resumed 7 record(s)".to_string(),
            },
            Event::Done {
                payload: Json::parse(r#"{"records":30}"#).expect("payload"),
            },
            Event::CancelledAt { done: 5, total: 30 },
            Event::Error {
                message: "nope \"quoted\"\nline".to_string(),
            },
        ];
        for e in &events {
            let line = render_event(42, e);
            assert!(!line.contains('\n'), "one line: {line}");
            let v = Json::parse(&line).expect("valid JSON");
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(42));
            assert!(v.get("event").is_some());
        }
        assert!(events.iter().filter(|e| e.is_terminal()).count() == 3);
    }
}
