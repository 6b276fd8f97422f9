//! The library-level `Service`: every operation the daemon (and the CLI,
//! which is a thin client of this API) can execute.
//!
//! The eval path is the heart: it reuses the core sweep executor
//! ([`vgen_core::run_engine_sweep_sharded`]) unchanged for a single
//! shard, and for `shards > 1` runs one executor per shard — each with
//! its own freshly built engine (the family engine derives every cell's
//! RNG from `(seed, model, problem, level, temperature, n)`, so
//! regenerating per shard is byte-identical to generating once) — then
//! merges the per-shard journals back into the exact single-journal byte
//! stream. Byte-identical reports and journals versus the one-shot CLI
//! path, at any shard and jobs count, is the invariant the parity tests
//! and the `serve-smoke` CI job hold.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vgen_core::{
    config_fingerprint, render_eval_summary, run_engine_sweep_sharded, supervised_check_completion,
    sweep_stats_json, ChaosSpec, CheckOutcome, CheckPolicy, EvalConfig, EvalRun, FsyncPolicy,
    Record, ShardSpec, SweepHooks, SweepOptions, SweepStats,
};
use vgen_corpus::CorpusSource;
use vgen_lm::{CompletionEngine, FamilyEngine, ModelFamily, ModelId, Tuning};
use vgen_obs::json::Json;
use vgen_obs::CancelToken;
use vgen_problems::PromptLevel;
use vgen_sim::SimConfig;

use crate::proto::{CheckRequest, EvalRequest, Event, LintRequest, SimRequest};
use crate::shard;

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
    /// The full run (merged across shards). `None` when cancelled.
    pub run: Option<EvalRun>,
    /// The rendered stdout report — byte-identical to the one-shot CLI's.
    /// `None` when cancelled.
    pub report: Option<String>,
    /// Aggregate sweep stats (summed across shards).
    pub stats: SweepStats,
    /// Records completed (merged canonical prefix length when cancelled).
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

/// Everything needed to build one engine instance (per shard).
#[derive(Clone, Copy)]
struct EngineParams {
    model: ModelId,
    seed: u64,
}

impl EngineParams {
    fn build(&self) -> FamilyEngine {
        FamilyEngine::new(self.model, CorpusSource::GithubOnly, self.seed)
    }
}

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

/// Resolves an eval request into the engine parameters, grid config and
/// sweep options — the exact translation the CLI used to do inline.
fn resolve_eval(req: &EvalRequest) -> Result<(EngineParams, EvalConfig, SweepOptions), String> {
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
        progress: false, // streaming progress goes through the sink
        dedup: req.dedup,
        policy,
        fsync: FsyncPolicy::parse(&req.fsync)?,
        stall_timeout: None,
    };
    Ok((
        EngineParams {
            model: ModelId::new(family, tuning),
            seed: req.seed,
        },
        config,
        opts,
    ))
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

/// A progress observer shared by every shard of one request: global done
/// counter, per-`progress_every` events.
struct ProgressFan {
    sink: Arc<dyn EventSink>,
    done: AtomicUsize,
    total: usize,
    every: usize,
}

impl ProgressFan {
    fn emit(&self, done: usize, shard: Option<u32>, outcome: Option<&'static str>) {
        if done.is_multiple_of(self.every) || done == self.total {
            self.sink.event(&Event::Progress {
                done,
                total: self.total,
                shard,
                outcome,
            });
        }
    }

    /// Sharded ticks: each shard thread bumps the shared counter.
    fn tick(&self, shard: Option<u32>, outcome: Option<&'static str>) {
        let done = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        self.emit(done, shard, outcome);
    }

    /// Single-shard ticks: the executor already counts resumed records
    /// into `done`, so we adopt its figure instead of re-counting.
    fn tick_at(&self, done: usize, outcome: Option<&'static str>) {
        self.done.store(done, Ordering::SeqCst);
        self.emit(done, None, outcome);
    }
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

impl Service {
    /// Runs a full eval sweep: single- or multi-shard, journaled,
    /// streaming progress to `sink`, honouring `cancel` between checks.
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
        let (params, config, opts) = resolve_eval(req)?;
        if req.shards == 0 {
            return Err("`shards` must be at least 1".to_string());
        }
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
        let outcome = if req.shards <= 1 {
            self.eval_single(req, params, &config, &opts, cancel, sink)
        } else {
            self.eval_sharded(req, params, &config, &opts, cancel, sink)
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

    fn eval_single(
        &self,
        req: &EvalRequest,
        params: EngineParams,
        config: &EvalConfig,
        opts: &SweepOptions,
        cancel: &CancelToken,
        sink: &Arc<dyn EventSink>,
    ) -> Result<EvalOutcome, String> {
        let journal = Path::new(&req.journal);
        let mut engine = params.build();
        // A previous sharded run may have left shard journals behind;
        // resuming unsharded folds their canonical prefix into the main
        // journal first (shard-count changes compose, satellite
        // requirement), then re-checks everything past it.
        if req.resume {
            let fp = config_fingerprint(config);
            let name = engine.name();
            let shard_files = shard::discover_shard_files(journal).map_err(|e| e.to_string())?;
            if !shard_files.is_empty() {
                let prefix =
                    shard::canonical_prefix(journal, &name, fp).map_err(|e| e.to_string())?;
                sink.event(&Event::Log {
                    message: format!(
                        "folded {} shard journal(s) into a {}-record canonical prefix",
                        prefix.shard_files,
                        prefix.records.len()
                    ),
                });
                shard::write_journal(journal, &name, fp, None, &prefix.records)
                    .map_err(|e| e.to_string())?;
                shard::remove_shard_files(journal).map_err(|e| e.to_string())?;
            }
        }
        let total = grid_total(config);
        let fan = Arc::new(ProgressFan {
            sink: Arc::clone(sink),
            done: AtomicUsize::new(0),
            total,
            every: req.progress_every.max(1) as usize,
        });
        let hooks = SweepHooks {
            observer: Some({
                let fan = Arc::clone(&fan);
                Arc::new(move |rec: &Record, done, _total| {
                    fan.tick_at(done, Some(record_outcome(rec)));
                })
            }),
            cancel: Some(cancel.clone()),
        };
        match run_engine_sweep_sharded(
            &mut engine,
            config,
            Some((journal, req.resume)),
            opts,
            ShardSpec::single(),
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
                done: fan.done.load(Ordering::SeqCst),
                total,
                cancelled: true,
                obs: None,
            }),
            Err(e) => Err(e.to_string()),
        }
    }

    fn eval_sharded(
        &self,
        req: &EvalRequest,
        params: EngineParams,
        config: &EvalConfig,
        opts: &SweepOptions,
        cancel: &CancelToken,
        sink: &Arc<dyn EventSink>,
    ) -> Result<EvalOutcome, String> {
        let journal = Path::new(&req.journal);
        let count = req.shards;
        let fp = config_fingerprint(config);
        let name = params.build().name();
        // Resume: fold whatever survives on disk — main journal and shard
        // files of any count — into the canonical prefix, then deal it
        // back out to this run's shard count. Fresh: the guard above
        // ensured the main journal is absent/empty; stale shard files are
        // removed by the seeding step.
        let prefix = if req.resume {
            let prefix = shard::canonical_prefix(journal, &name, fp).map_err(|e| e.to_string())?;
            if prefix.shard_files > 0 || !prefix.records.is_empty() {
                sink.event(&Event::Log {
                    message: format!(
                        "resuming from a {}-record canonical prefix ({} shard journal(s) on disk)",
                        prefix.records.len(),
                        prefix.shard_files
                    ),
                });
            }
            prefix.records
        } else {
            Vec::new()
        };
        // When the on-disk shard files already form exactly this run's
        // group, reuse them as-is: each is a valid per-shard prefix, and
        // skipping the re-seed keeps records *beyond* the canonical prefix
        // (shards progress unevenly, so the slowest shard's gap would
        // otherwise truncate the others' completed work). Any other layout
        // — different count, partial group, stale extras — is re-dealt
        // from the merged prefix.
        let files = shard::discover_shard_files(journal).map_err(|e| e.to_string())?;
        let same_group = files.len() == count as usize && files.iter().all(|&(_, _, n)| n == count);
        if !(req.resume && same_group) {
            shard::seed_shard_journals(journal, &name, fp, &prefix, count)
                .map_err(|e| e.to_string())?;
        }

        let total = grid_total(config);
        let fan = Arc::new(ProgressFan {
            sink: Arc::clone(sink),
            done: AtomicUsize::new(prefix.len()),
            total,
            every: req.progress_every.max(1) as usize,
        });
        // One executor per shard, on its own thread, with its own engine.
        let results: Vec<Result<(EvalRun, SweepStats), io::Error>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for index in 0..count {
                let shard_path = shard::shard_journal_path(journal, index, count);
                let fan = Arc::clone(&fan);
                let cancel = cancel.clone();
                let opts = opts.clone();
                let config = config.clone();
                handles.push(scope.spawn(move || {
                    let mut engine = params.build();
                    let hooks = SweepHooks {
                        observer: Some(Arc::new(move |rec: &Record, _done, _total| {
                            fan.tick(Some(index), Some(record_outcome(rec)));
                        })),
                        cancel: Some(cancel),
                    };
                    run_engine_sweep_sharded(
                        &mut engine,
                        &config,
                        // Seeded above, so every shard run is a resume of
                        // its (possibly empty) prefix.
                        Some((&shard_path, true)),
                        &opts,
                        ShardSpec { index, count },
                        &hooks,
                    )
                }));
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(io::Error::other("shard thread panicked")))
                })
                .collect()
        });

        let mut stats = SweepStats::default();
        let mut cancelled = false;
        let mut first_error: Option<String> = None;
        for r in &results {
            match r {
                Ok((_, s)) => {
                    stats.checks_run += s.checks_run;
                    stats.cache_hits += s.cache_hits;
                    stats.resumed_records += s.resumed_records;
                    stats.repaired_lines += s.repaired_lines;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => cancelled = true,
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e.to_string());
                    }
                }
            }
        }

        // Merge whatever landed. On a complete merge the shard files are
        // folded into the main journal (byte-identical to a one-shot run)
        // and deleted; otherwise the merged prefix is written to the main
        // journal for visibility but the shard files stay — they hold
        // beyond-prefix records a later resume can still use.
        let merged = shard::canonical_prefix(journal, &name, fp).map_err(|e| e.to_string())?;
        let complete = merged.records.len() == total && first_error.is_none() && !cancelled;
        shard::write_journal(journal, &name, fp, None, &merged.records)
            .map_err(|e| e.to_string())?;
        if complete {
            shard::remove_shard_files(journal).map_err(|e| e.to_string())?;
        }
        if let Some(e) = first_error {
            return Err(format!("shard failed: {e}"));
        }
        if cancelled {
            return Ok(EvalOutcome {
                run: None,
                report: None,
                stats: SweepStats::default(),
                done: merged.records.len(),
                total,
                cancelled: true,
                obs: None,
            });
        }
        if merged.records.len() != total {
            return Err(format!(
                "merge reconstructed {} of {} record(s) — shard journals incomplete",
                merged.records.len(),
                total
            ));
        }
        let run = EvalRun {
            engine: name,
            records: merged.records,
        };
        let report = render_eval_summary(&run, &req.journal);
        let done = run.records.len();
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
