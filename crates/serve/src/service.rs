//! The library-level `Service`: every operation the daemon (and the CLI,
//! which is a thin client of this API) can execute.
//!
//! The eval path is the heart: it runs the core sweep executor
//! ([`vgen_core::run_engine_sweep`]) unchanged, streaming each
//! record as a progress event. Byte-identical reports and journals versus
//! the one-shot CLI path, at any jobs count, is the invariant the parity
//! tests and the `serve-smoke` CI job hold.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vgen_core::{
    render_eval_summary, run_engine_sweep, supervised_check_completion, sweep_stats_json,
    ChaosSpec, CheckOutcome, CheckPolicy, EvalConfig, EvalRun, FsyncPolicy, Record, SweepHooks,
    SweepOptions, SweepStats,
};
use vgen_corpus::CorpusSource;
use vgen_lm::{Completion, CompletionEngine, FamilyEngine, ModelFamily, ModelId, Tuning};
use vgen_obs::json::Json;
use vgen_obs::CancelToken;
use vgen_problems::{Problem, PromptLevel};
use vgen_sim::SimConfig;

use crate::proto::{CheckRequest, EvalRequest, Event, LintRequest, SimRequest};

/// Receives the event stream of one request. Implementations must be
/// cheap and non-blocking-ish: events are emitted from worker threads
/// mid-sweep.
pub trait EventSink: Send + Sync {
    /// One protocol event. Terminal events are emitted by the transport
    /// layer, not the service; the service only streams the intermediate
    /// ones.
    fn event(&self, event: &Event);
}

/// Drops every event.
pub struct NullSink;

impl EventSink for NullSink {
    fn event(&self, _event: &Event) {}
}

/// What an eval request produced.
#[derive(Debug)]
pub struct EvalOutcome {
    /// The full run. `None` when cancelled.
    pub run: Option<EvalRun>,
    /// The rendered stdout report — byte-identical to the one-shot CLI's.
    /// `None` when cancelled.
    pub report: Option<String>,
    /// Sweep stats.
    pub stats: SweepStats,
    /// Records completed (the last progress count when cancelled).
    pub done: usize,
    /// Grid size: the record count a complete run produces.
    pub total: usize,
    /// Whether the request was cancelled before completion.
    pub cancelled: bool,
    /// The obs report, when `metrics` was requested.
    pub obs: Option<vgen_obs::ObsReport>,
}

/// The stateless service facade. Cancellation is per-request: callers
/// pass a token and keep it to trip later (the daemon holds a registry of
/// in-flight tokens keyed by request id).
#[derive(Debug, Default)]
pub struct Service;

fn parse_levels(tags: &str) -> Result<Vec<PromptLevel>, String> {
    let mut levels = Vec::new();
    for c in tags.chars() {
        let level = match c {
            'L' | 'l' => PromptLevel::Low,
            'M' | 'm' => PromptLevel::Medium,
            'H' | 'h' => PromptLevel::High,
            other => return Err(format!("bad level tag `{other}` (use L, M, H)")),
        };
        if !levels.contains(&level) {
            levels.push(level);
        }
    }
    if levels.is_empty() {
        return Err("`levels` must name at least one of L, M, H".to_string());
    }
    Ok(levels)
}

fn parse_level_one(tag: &str) -> Result<PromptLevel, String> {
    match tag {
        "L" | "l" | "low" => Ok(PromptLevel::Low),
        "M" | "m" | "medium" => Ok(PromptLevel::Medium),
        "H" | "h" | "high" => Ok(PromptLevel::High),
        other => Err(format!("bad level `{other}` (use L, M or H)")),
    }
}

/// Resolves an eval request into the engine, grid config and sweep
/// options — the exact translation the CLI used to do inline.
fn resolve_eval(req: &EvalRequest) -> Result<(FamilyEngine, EvalConfig, SweepOptions), String> {
    let tuning = match req.tuning.as_str() {
        "ft" | "fine-tuned" => Tuning::FineTuned,
        "pt" | "pretrained" => Tuning::Pretrained,
        other => return Err(format!("bad tuning `{other}` (use ft or pt)")),
    };
    let family = ModelFamily::ALL
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(&req.model))
        .ok_or_else(|| {
            let known: Vec<&str> = ModelFamily::ALL.iter().map(|f| f.name()).collect();
            format!(
                "unknown model `{}` (one of: {})",
                req.model,
                known.join(", ")
            )
        })?;
    if tuning == Tuning::FineTuned && !family.supports_fine_tuning() {
        return Err(format!(
            "{} cannot be fine-tuned (the paper evaluates it pre-trained only); use tuning `pt`",
            family.name()
        ));
    }
    let mut config = if req.full {
        EvalConfig::paper_n10()
    } else {
        EvalConfig::quick()
    };
    if let Some(ids) = &req.problems {
        if ids.is_empty() {
            return Err("`problems` must not be empty".to_string());
        }
        for &id in ids {
            if vgen_problems::problem(id).is_none() {
                return Err(format!("unknown problem id {id}"));
            }
        }
        config.problem_ids = ids.clone();
    }
    if let Some(ts) = &req.temperatures {
        if ts.is_empty() || ts.iter().any(|t| !t.is_finite()) {
            return Err("`temperatures` must be non-empty finite numbers".to_string());
        }
        config.temperatures = ts.clone();
    }
    if let Some(ns) = &req.ns {
        if ns.is_empty() || ns.contains(&0) {
            return Err("`ns` must be non-empty positive counts".to_string());
        }
        config.ns = ns.clone();
    }
    if let Some(tags) = &req.levels {
        config.levels = parse_levels(tags)?;
    }
    let mut policy = CheckPolicy::default();
    if let Some(secs) = req.check_timeout {
        if !(secs > 0.0 && secs.is_finite()) {
            return Err(format!("bad check_timeout `{secs}` (positive seconds)"));
        }
        policy.timeout = Some(Duration::from_secs_f64(secs));
    }
    policy.retries = req.retries;
    if let Some(spec) = &req.chaos {
        policy.chaos = ChaosSpec::parse(spec, req.chaos_seed)?;
    }
    let opts = SweepOptions {
        jobs: req.jobs,
        dedup: req.dedup,
        policy,
        fsync: FsyncPolicy::parse(&req.fsync)?,
        stall_timeout: None,
    };
    let engine = FamilyEngine::new(
        ModelId::new(family, tuning),
        CorpusSource::GithubOnly,
        req.seed,
    );
    Ok((engine, config, opts))
}

/// The record count a complete run over `config` produces. The family
/// engine returns exactly `n` completions per cell, so the grid size is
/// closed-form.
fn grid_total(config: &EvalConfig) -> usize {
    config.problem_ids.len()
        * config.levels.len()
        * config.temperatures.len()
        * config.ns.iter().sum::<usize>()
}

/// The `outcome` tag a record carries on its progress event.
fn record_outcome(rec: &Record) -> &'static str {
    if rec.fault {
        "fault"
    } else if rec.passed {
        "pass"
    } else {
        "fail"
    }
}

/// A family engine whose mutant banks are fetched lazily, each on the
/// sweep's thread when generation first needs it, at any `jobs`: the
/// same completions, with [`CompletionEngine::prepare`] left a no-op.
///
/// The daemon runs its evals through it. Its process-wide bank memo
/// builds each bank once per daemon, so a prebuild on helper threads could
/// only speed the first request at a seed, and by however much a free
/// core happens to be there when the helpers start; built lazily, that
/// request costs the same every time.
struct LazyBanks<'a>(&'a mut FamilyEngine);

impl CompletionEngine for LazyBanks<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn generate(
        &mut self,
        problem: &Problem,
        level: PromptLevel,
        temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        self.0.generate(problem, level, temperature, n)
    }
}

/// The sweep behind [`Service::eval`]: every fresh record becomes a
/// progress event (each `progress_every`-th one, and the last).
fn run_sweep(
    req: &EvalRequest,
    engine: &mut dyn CompletionEngine,
    config: &EvalConfig,
    opts: &SweepOptions,
    cancel: &CancelToken,
    sink: &Arc<dyn EventSink>,
) -> Result<EvalOutcome, String> {
    let total = grid_total(config);
    let every = req.progress_every.max(1) as usize;
    // The last `done` observed, which a cancelled outcome reports.
    let done_at = Arc::new(AtomicUsize::new(0));
    let hooks = SweepHooks {
        observer: Some({
            let sink = Arc::clone(sink);
            let done_at = Arc::clone(&done_at);
            Arc::new(move |rec: &Record, done, _total| {
                done_at.store(done, Ordering::SeqCst);
                if done.is_multiple_of(every) || done == total {
                    sink.event(&Event::Progress {
                        done,
                        total,
                        outcome: record_outcome(rec),
                    });
                }
            })
        }),
        cancel: Some(cancel.clone()),
    };
    match run_engine_sweep(
        engine,
        config,
        Some((Path::new(&req.journal), req.resume)),
        opts,
        &hooks,
    ) {
        Ok((run, stats)) => {
            let done = run.records.len();
            let report = render_eval_summary(&run, &req.journal);
            Ok(EvalOutcome {
                run: Some(run),
                report: Some(report),
                stats,
                done,
                total,
                cancelled: false,
                obs: None,
            })
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(EvalOutcome {
            run: None,
            report: None,
            stats: SweepStats::default(),
            done: done_at.load(Ordering::SeqCst),
            total,
            cancelled: true,
            obs: None,
        }),
        Err(e) => Err(e.to_string()),
    }
}

impl Service {
    /// Runs a full eval sweep: journaled, streaming progress to `sink`,
    /// honouring `cancel` between checks.
    ///
    /// # Errors
    ///
    /// Invalid parameters, journal conflicts, or I/O — as a rendered
    /// message (the transport turns it into an `error` event). A
    /// *cancelled* request is not an error: it yields an outcome with
    /// `cancelled: true`.
    pub fn eval(
        &self,
        req: &EvalRequest,
        cancel: &CancelToken,
        sink: &Arc<dyn EventSink>,
    ) -> Result<EvalOutcome, String> {
        self.eval_with(req, cancel, sink, true)
    }

    /// [`eval`](Self::eval) as the daemon serves it: the same records,
    /// report and sidecars, with every mutant bank built lazily on the
    /// request's own thread instead of prebuilt on its `jobs` threads
    /// (see `LazyBanks`).
    ///
    /// # Errors
    ///
    /// As [`eval`](Self::eval).
    pub fn serve_eval(
        &self,
        req: &EvalRequest,
        cancel: &CancelToken,
        sink: &Arc<dyn EventSink>,
    ) -> Result<EvalOutcome, String> {
        self.eval_with(req, cancel, sink, false)
    }

    /// [`eval`](Self::eval), with the mutant banks prebuilt on the
    /// sweep's `jobs` threads or, without `prebuild_banks`, fetched lazily.
    fn eval_with(
        &self,
        req: &EvalRequest,
        cancel: &CancelToken,
        sink: &Arc<dyn EventSink>,
        prebuild_banks: bool,
    ) -> Result<EvalOutcome, String> {
        let (mut engine, config, opts) = resolve_eval(req)?;
        let journal = Path::new(&req.journal);
        if !req.resume
            && std::fs::metadata(journal)
                .map(|m| m.len() > 0)
                .unwrap_or(false)
        {
            return Err(format!(
                "journal `{}` already exists; pass resume to continue it \
                 or remove the file to start over",
                req.journal
            ));
        }
        // A metrics request *owns* the obs session only when no longer-
        // lived session is already running: inside the daemon, recording
        // is enabled for the daemon's lifetime (feeding the live
        // `metrics`/`subscribe` endpoints), and restarting it here would
        // clobber every concurrent request's data. In that case the
        // request's own metrics event is the snapshot *delta* over its
        // execution window instead of a collected report.
        let owns_session = req.metrics && !vgen_obs::is_enabled();
        if owns_session {
            vgen_obs::enable();
        }
        let live_before = (req.metrics && !owns_session).then(vgen_obs::snapshot);
        let outcome = if prebuild_banks {
            run_sweep(req, &mut engine, &config, &opts, cancel, sink)
        } else {
            run_sweep(
                req,
                &mut LazyBanks(&mut engine),
                &config,
                &opts,
                cancel,
                sink,
            )
        };
        let obs = owns_session.then(vgen_obs::collect);
        let mut outcome = outcome?;
        if let Some(report) = &obs {
            let metrics = Json::parse(&vgen_obs::summary::metrics_json(report))
                .unwrap_or_else(|_| Json::Obj(Vec::new()));
            sink.event(&Event::Metrics { metrics });
        } else if let Some(before) = live_before {
            let delta = vgen_obs::snapshot().delta(&before);
            let metrics = Json::parse(&vgen_obs::summary::snapshot_json(&delta))
                .unwrap_or_else(|_| Json::Obj(Vec::new()));
            sink.event(&Event::Metrics { metrics });
        }
        outcome.obs = obs;
        // The stats sidecar is written for complete runs only, exactly as
        // the one-shot CLI always did.
        if !outcome.cancelled {
            let stats_path = format!("{}.stats.json", req.journal);
            std::fs::write(&stats_path, sweep_stats_json(&outcome.stats))
                .map_err(|e| format!("cannot write `{stats_path}`: {e}"))?;
        }
        Ok(outcome)
    }

    /// Checks one completion against one problem, under per-request
    /// supervision.
    ///
    /// # Errors
    ///
    /// Invalid parameters, as a rendered message.
    pub fn check(&self, req: &CheckRequest) -> Result<Json, String> {
        let problem = vgen_problems::problem(req.problem)
            .ok_or(format!("unknown problem id {}", req.problem))?;
        let level = parse_level_one(&req.level)?;
        let mut policy = CheckPolicy::default();
        if let Some(secs) = req.check_timeout {
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(format!("bad check_timeout `{secs}`"));
            }
            policy.timeout = Some(Duration::from_secs_f64(secs));
        }
        let result =
            supervised_check_completion(problem, level, &req.source, SimConfig::default(), &policy);
        let (outcome, detail) = match &result.outcome {
            CheckOutcome::Pass => ("pass", None),
            CheckOutcome::FunctionalFail => ("functional_fail", None),
            CheckOutcome::SimulationFail(m) => ("simulation_fail", Some(m.clone())),
            CheckOutcome::CompileFail(m) => ("compile_fail", Some(m.clone())),
            CheckOutcome::HarnessFault(m) => ("harness_fault", Some(m.clone())),
            CheckOutcome::Timeout(k) => ("timeout", Some(format!("{k:?}"))),
        };
        let mut members = vec![
            ("problem".to_string(), Json::Num(f64::from(req.problem))),
            ("outcome".to_string(), Json::str(outcome)),
            (
                "passed".to_string(),
                Json::Bool(result.outcome == CheckOutcome::Pass),
            ),
        ];
        if let Some(d) = detail {
            members.push(("detail".to_string(), Json::Str(d)));
        }
        if let Some(lint) = &result.lint {
            members.push((
                "lint".to_string(),
                Json::Obj(vec![
                    ("errors".to_string(), Json::Num(f64::from(lint.errors))),
                    ("warnings".to_string(), Json::Num(f64::from(lint.warnings))),
                ]),
            ));
        }
        Ok(Json::Obj(members))
    }

    /// Lints one source text.
    ///
    /// # Errors
    ///
    /// Parse failures, as a rendered message.
    pub fn lint(&self, req: &LintRequest) -> Result<Json, String> {
        let report = vgen_lint::lint_source(&req.source)
            .map_err(|e| e.render_named(&req.name, &req.source))?;
        let diagnostics = Json::parse(&report.to_json(&req.name, &req.source))
            .unwrap_or_else(|_| Json::Arr(Vec::new()));
        Ok(Json::Obj(vec![
            (
                "errors".to_string(),
                Json::Num(f64::from(report.error_count())),
            ),
            (
                "warnings".to_string(),
                Json::Num(f64::from(report.warning_count())),
            ),
            ("diagnostics".to_string(), diagnostics),
        ]))
    }

    /// Simulates one source text under the standard resource budgets.
    ///
    /// # Errors
    ///
    /// Parse/elaboration failures, as a rendered message.
    pub fn sim(&self, req: &SimRequest, cancel: &CancelToken) -> Result<Json, String> {
        let mut config = SimConfig::default();
        if let Some(t) = req.max_time {
            config.max_time = t;
        }
        let out = vgen_sim::simulate_with_cancel(&req.source, req.top.as_deref(), config, cancel)
            .map_err(|e| e.to_string())?;
        Ok(Json::Obj(vec![
            ("stdout".to_string(), Json::Str(out.stdout)),
            ("time".to_string(), Json::Num(out.time as f64)),
            ("steps".to_string(), Json::Num(out.steps as f64)),
            ("reason".to_string(), Json::str(format!("{:?}", out.reason))),
        ]))
    }
}
