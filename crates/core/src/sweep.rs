//! The sweep executor: checks every completion of the paper grid (prompt
//! level × temperature × completions-per-prompt, §IV-B), as walked by the
//! `generate` module, through the compile/simulate pipeline.
//!
//! Every check runs under the panic guard ([`crate::guard`]), so a harness
//! bug on one hostile completion costs one [`Record`] (marked `fault`),
//! not the sweep. Long sweeps can additionally journal each record to disk
//! as it is produced ([`run_engine_sweep`]'s `journal` argument, format
//! and I/O in [`crate::journal`]) and resume after a crash or kill without
//! repeating completed checks.
//!
//! ## Execution model
//!
//! A sweep runs in two phases (see DESIGN.md, "Parallel execution
//! model"):
//!
//! 1. **Generate** (serial, on the calling thread): the engine is first
//!    [prepared](CompletionEngine::prepare) for the grid's problems on up
//!    to [`SweepOptions::jobs`] threads (the family engine builds its
//!    missing mutant banks there), then queried for every grid cell in
//!    canonical order, and the completions become a vector of independent
//!    work items. Serial queries keep the engine's RNG stream identical
//!    across worker counts and across fresh vs resumed runs.
//! 2. **Check** (pooled at any `--jobs`): each work item is one
//!    compile+simulate check, dispatched to a [`WorkerPool`] of
//!    [`SweepOptions::jobs`] workers sharing one FIFO queue, which run
//!    each check inline. The merging thread, the one thread that takes
//!    results off the pool, walks the positions with one emission cursor:
//!    a result that arrives ahead of the cursor waits by position until
//!    the cursor reaches it. Each record goes to the journal (one flush
//!    per record), the hooks and the run in canonical order, so journal
//!    lines, reports and Pass@k aggregates are byte-identical regardless
//!    of worker count or completion order, and a killed run leaves a
//!    contiguous-prefix journal that `--resume` continues.
//!
//! ## Dedup cache
//!
//! A check depends only on the problem and the *assembled* source
//! ([`crate::check::assemble`]): the prompt level matters only through
//! assembly, and a whole-module completion assembles to the same source
//! at every level, as does a copy with different junk after its
//! `endmodule`. So with [`SweepOptions::dedup`] on, the first item (in
//! canonical order) for each (problem, source hash) is checked as a
//! *leader*, and every later item with that key is a *follower*: when the
//! cursor reaches it, it copies the outcome fields of the record already
//! emitted at its leader's lower position. The key is computed on the
//! submitting thread, assembling each distinct (problem, level, text)
//! once, and a leader's assembled source travels with it to the worker.
//! Chaos sites in the guard are keyed on the assembled source too, so a
//! replayed fault is the fault a fresh check of the follower would have
//! hit, and reports and journals are byte-identical with the cache on or
//! off.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use vgen_lm::engine::CompletionEngine;
use vgen_problems::{Difficulty, PromptLevel};
use vgen_sim::SimConfig;

use vgen_lint::Rule;

use crate::chaos::{ChaosSite, ChaosSpec};
use crate::check::{FaultKind, LintCounts};
use crate::generate::{generate_items, ItemMeta, SourceKey, SourceKeys, WorkItem};
use crate::guard::{supervised_check_completion, supervised_check_source, CheckPolicy};
use crate::journal::{config_fingerprint, FsyncPolicy, Journal};
use crate::metrics::Tally;
use crate::pool::WorkerPool;

/// The paper's temperature grid (§IV-B).
pub const PAPER_TEMPERATURES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 1.0];

/// The paper's completions-per-prompt grid (§IV-B).
pub const PAPER_NS: [usize; 3] = [1, 10, 25];

/// Grid configuration for one evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Sampling temperatures to sweep.
    pub temperatures: Vec<f64>,
    /// Completions-per-prompt values to sweep.
    pub ns: Vec<usize>,
    /// Prompt detail levels to sweep.
    pub levels: Vec<PromptLevel>,
    /// Problems to include (1-based ids).
    pub problem_ids: Vec<u8>,
    /// Simulator limits per functional check.
    pub sim: SimConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            temperatures: PAPER_TEMPERATURES.to_vec(),
            ns: PAPER_NS.to_vec(),
            levels: PromptLevel::ALL.to_vec(),
            problem_ids: (1..=17).collect(),
            sim: SimConfig::default(),
        }
    }
}

impl EvalConfig {
    /// The paper's headline setting: all problems/levels, n = 10 only.
    pub fn paper_n10() -> Self {
        EvalConfig {
            ns: vec![10],
            ..Self::default()
        }
    }

    /// A reduced grid for quick tests: one temperature, small n.
    pub fn quick() -> Self {
        EvalConfig {
            temperatures: vec![0.1],
            ns: vec![4],
            ..Self::default()
        }
    }
}

/// One checked completion.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Problem id (1-based).
    pub problem_id: u8,
    /// Problem difficulty.
    pub difficulty: Difficulty,
    /// Prompt detail level.
    pub level: PromptLevel,
    /// Sampling temperature used.
    pub temperature: f64,
    /// The n this record was generated under.
    pub n: usize,
    /// Whether the candidate compiled.
    pub compiled: bool,
    /// Whether it passed the testbench.
    pub passed: bool,
    /// Whether the check failed to produce a verdict on this candidate —
    /// a harness panic or a check deadline; [`Record::fault_kind`] says
    /// which. Fault records count against neither compile nor functional
    /// rates.
    pub fault: bool,
    /// Classification of the no-verdict cause when `fault` is set, `None`
    /// for ordinary records.
    pub fault_kind: Option<FaultKind>,
    /// Simulated inference latency.
    pub latency_s: f64,
    /// Lint tallies for the candidate ([`crate::check::CheckResult::lint`]).
    /// `None` when the candidate never parsed or when the harness faulted.
    pub lint: Option<LintCounts>,
}

/// All records from evaluating one engine over a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRun {
    /// Engine display name.
    pub engine: String,
    /// Per-completion records.
    pub records: Vec<Record>,
}

/// Execution options for a sweep: worker count, dedup, per-check
/// supervision and journal durability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads of the sweep's pool; `0` means "use
    /// [`SweepOptions::auto_jobs`]". Each worker runs its checks inline
    /// (handing each off only under a deadline, see [`crate::guard`]),
    /// and results are merged back into canonical order, so any value
    /// produces byte-identical reports and journals.
    pub jobs: usize,
    /// Completion-dedup cache (on by default): completions that assemble
    /// to the same source for the same problem are compiled and simulated
    /// once, and every duplicate replays the cached outcome. Checks are
    /// deterministic in those inputs, so reports and journals are
    /// byte-identical with the cache on or off.
    pub dedup: bool,
    /// Per-check supervision: wall-clock deadline, retry budget and chaos
    /// injection ([`CheckPolicy`]). The default has no deadline and no
    /// chaos — bit-exact historical behaviour, and what determinism-gated
    /// CI uses (wall-clock timeouts are inherently nondeterministic).
    pub policy: CheckPolicy,
    /// When the sweep fsyncs its journal file ([`FsyncPolicy`]); ignored
    /// for unjournaled runs.
    pub fsync: FsyncPolicy,
    /// How long the merge loop waits for any single pool result
    /// before declaring the pool stalled and degrading: every outstanding
    /// item is recorded as a hard-timeout fault and the pool's threads are
    /// abandoned, so a wedged worker costs records, not the sweep. `None`
    /// uses a 300 s backstop — per-check supervision (`policy.timeout`)
    /// is the intended first line of defence; this field mostly exists so
    /// tests can exercise the stall path quickly.
    pub stall_timeout: Option<Duration>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 1,
            dedup: true,
            policy: CheckPolicy::default(),
            fsync: FsyncPolicy::Never,
            stall_timeout: None,
        }
    }
}

impl SweepOptions {
    /// The default worker count: the machine's available parallelism.
    pub fn auto_jobs() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The worker count this configuration resolves to.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            Self::auto_jobs()
        } else {
            self.jobs
        }
    }
}

/// Shared callback invoked for each fresh [`Record`] with
/// `(record, done, total)`; see [`SweepHooks::observer`].
pub type RecordObserver = std::sync::Arc<dyn Fn(&Record, usize, usize) + Send + Sync>;

/// Per-run hooks a caller (the eval service) can attach to a sweep without
/// perturbing its byte-determinism: a record observer for streaming
/// progress, and a cancellation token checked between checks.
#[derive(Clone, Default)]
pub struct SweepHooks {
    /// Called once per freshly produced record, in canonical order, with
    /// `(record, done, total)` where `done`/`total` count the grid's
    /// records, resumed ones included. Not called for records replayed
    /// from a resumed journal.
    pub observer: Option<RecordObserver>,
    /// Cooperative cancellation: polled on every merge-loop wakeup (at
    /// least every 50 ms). When it fires, the sweep stops issuing
    /// work, finishes the journal cleanly (a valid resumable prefix) and
    /// returns [`io::ErrorKind::Interrupted`].
    pub cancel: Option<vgen_obs::CancelToken>,
}

impl SweepHooks {
    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(vgen_obs::CancelToken::poll)
    }

    fn observe(&self, rec: &Record, done: usize, total: usize) {
        // Live-progress counters for the metrics plane. Write-only from
        // the sweep's perspective: recording cannot change a byte of
        // report or journal output.
        vgen_obs::counter_add("sweep.items_done", 1);
        if rec.fault {
            vgen_obs::counter_add("sweep.items_fault", 1);
        } else if rec.passed {
            vgen_obs::counter_add("sweep.items_pass", 1);
        } else {
            vgen_obs::counter_add("sweep.items_fail", 1);
        }
        // The observing thread (the sweep's caller, running the merge
        // loop) records no spans, so its periodic self-flush never arms;
        // drain per record so live snapshots track progress. No-op when
        // recording is off, one uncontended lock otherwise.
        vgen_obs::flush();
        if let Some(obs) = &self.observer {
            obs(rec, done, total);
        }
    }
}

impl std::fmt::Debug for SweepHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepHooks")
            .field("observer", &self.observer.as_ref().map(|_| "Fn"))
            .field("cancel", &self.cancel)
            .finish()
    }
}

/// Checks one work item under the supervision policy's guard, deadline
/// and retry budget, and builds its record. `source` is the item's
/// assembled source when the sweep has already assembled it (to key the
/// dedup cache); otherwise the check assembles the completion itself.
fn check_item(
    item: &WorkItem,
    source: Option<String>,
    sim: SimConfig,
    policy: &CheckPolicy,
) -> Record {
    let _span = vgen_obs::span("check");
    let (outcome, lint) = match source {
        Some(source) => supervised_check_source(item.problem, &source, sim, policy),
        None => {
            let result = supervised_check_completion(
                item.problem,
                item.level,
                &item.completion.text,
                sim,
                policy,
            );
            (result.outcome, result.lint)
        }
    };
    item.meta().record(
        outcome.compiled(),
        outcome.passed(),
        outcome.fault_kind(),
        lint,
    )
}

/// Whether the injected pool-task panic ([`ChaosSite::TaskPanic`]) fires
/// for the item at canonical position `pos`. Keyed by position, not by
/// worker, so chaos runs stay byte-identical across `--jobs`.
fn task_panic_fires(chaos: &ChaosSpec, pos: usize) -> bool {
    !chaos.is_empty()
        && chaos
            .fires(ChaosSite::TaskPanic, &(pos as u64).to_le_bytes())
            .is_some()
}

/// How the merge loop fills one canonical position.
#[derive(Clone, Copy)]
enum Step {
    /// A submitted check (a dedup leader, or any item with dedup off):
    /// wait for its result.
    Check,
    /// A dedup follower: replay the record already emitted at its
    /// leader's (lower) position.
    Replay(usize),
}

/// Keeps the result for position `at` until the cursor, now at `cursor`,
/// reaches it.
///
/// # Panics
///
/// On a second result for a position, or one for a position already
/// emitted: a duplicated work item must never silently skew Pass@k.
fn hold(arrived: &mut HashMap<usize, Record>, cursor: usize, at: usize, rec: Record) {
    let fresh = at >= cursor && arrived.insert(at, rec).is_none();
    assert!(fresh, "sweep merge: duplicate result for position {at}");
}

/// Records a hard-timeout fault for every `Check` position from `cursor`
/// on that has no result yet (`plan` starts at position `first`), and
/// returns how many it recorded.
fn fill_stalled(
    plan: &[(ItemMeta, Step)],
    first: usize,
    cursor: usize,
    arrived: &mut HashMap<usize, Record>,
) -> u64 {
    let mut owed = 0;
    for (at, (meta, step)) in plan.iter().enumerate().skip(cursor - first) {
        if matches!(step, Step::Check) {
            arrived.entry(first + at).or_insert_with(|| {
                owed += 1;
                meta.fault_record(FaultKind::HardTimeout)
            });
        }
    }
    owed
}

/// Execution statistics from one sweep. Deliberately *not* part of
/// [`EvalRun`]: reports and determinism comparisons are over records only,
/// which is what keeps output byte-identical across cache and job settings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Completions actually compiled and simulated this run.
    pub checks_run: usize,
    /// Completions replayed from the dedup cache.
    pub cache_hits: usize,
    /// Records reused from a resumed journal (the resume cursor).
    pub resumed_records: usize,
    /// Journal lines dropped by recovery on resume: the first torn or
    /// corrupt line and everything after it.
    pub repaired_lines: usize,
}

impl SweepStats {
    /// Fraction of this run's checks served from the cache (0 when the
    /// run was empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.checks_run + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Runs an engine over the grid, checking every completion on one pool
/// worker.
///
/// J1-Large skips n = 25 upstream (the engine name containing "J1" is not
/// inspected here — pass a config without 25 for that model, as the bench
/// binaries do, mirroring §IV-B).
pub fn run_engine(engine: &mut dyn CompletionEngine, config: &EvalConfig) -> EvalRun {
    let opts = SweepOptions::default();
    run_engine_sweep(engine, config, None, &opts, &SweepHooks::default())
        .expect("in-memory serial sweep cannot fail")
        .0
}

/// Default for [`SweepOptions::stall_timeout`]: how long the merge loop
/// waits for a single pool result before declaring the pool stalled and
/// degrading to stall records. Every check is bounded by the parser,
/// elaborator and simulator resource budgets, so a healthy pool delivers
/// results orders of magnitude faster than this even in debug builds.
const RESULT_TIMEOUT: Duration = Duration::from_secs(300);

/// The sweep executor: generate phase, optional journal (with resume),
/// and a pooled check phase merged deterministically. See the module docs
/// for the execution model. Returns the run and its [`SweepStats`]
/// (checks executed vs dedup-cache hits); [`run_engine`] is the in-memory
/// serial shorthand.
///
/// With `journal = Some((path, resume))`, every record is appended to a
/// line-oriented journal at `path` as it is produced; when `resume` is
/// true and `path` already holds a journal for the same engine and
/// config, the checks for records already journaled are skipped and those
/// records reused verbatim. The engine is still queried for every grid
/// cell on resume, so a resumed run produces byte-identical records to an
/// uninterrupted one.
///
/// [`SweepHooks::observer`] streams each fresh record;
/// [`SweepHooks::cancel`] stops the sweep between checks, leaving the
/// journal a valid resumable prefix.
///
/// # Errors
///
/// I/O errors reading/writing the journal;
/// [`io::ErrorKind::InvalidData`] when resuming against a journal whose
/// engine name or config fingerprint does not match, or that is
/// unsupported; [`io::ErrorKind::Interrupted`] when the cancel token
/// fires (the journal is finished cleanly first). A stalled worker pool
/// is *not* an error: the outstanding items are recorded as hard-timeout
/// faults and the sweep completes.
pub fn run_engine_sweep(
    engine: &mut dyn CompletionEngine,
    config: &EvalConfig,
    journal: Option<(&Path, bool)>,
    opts: &SweepOptions,
    hooks: &SweepHooks,
) -> io::Result<(EvalRun, SweepStats)> {
    let name = engine.name();
    let mut stats = SweepStats::default();
    let (mut journal, mut prior) = match journal {
        Some((path, resume)) => {
            let fp = config_fingerprint(config);
            let (journal, prior, recovery) =
                Journal::open(path, resume, &name, fp, opts.fsync, &opts.policy.chaos)?;
            stats.repaired_lines = recovery.dropped_lines;
            (Some(journal), prior)
        }
        None => (None, Vec::new()),
    };

    let items = generate_items(engine, config, opts.effective_jobs());
    let total = items.len();
    // Advertise the grid to the metrics plane; resumed records count as
    // done without re-observation.
    vgen_obs::counter_add("sweep.items_total", total as u64);
    // The fingerprint pins the grid, so a well-formed journal never holds
    // more than `total` records; clamp anyway so a hand-edited journal
    // cannot push the resume cursor past the grid.
    prior.truncate(total);
    let done_prior = prior.len();
    vgen_obs::counter_add("sweep.items_done", done_prior as u64);
    // This thread may push no spans of its own (it mostly waits on the
    // pool), so drain the totals to the accumulator now rather than at
    // thread exit — live snapshots need them up front.
    vgen_obs::flush();
    stats.resumed_records = done_prior;
    let mut records = prior;
    // The dedup cache is never seeded from resumed (prior) records:
    // duplicates of prior completions simply get checked again.
    let use_cache = opts.dedup;
    let mut interrupted = false;

    // The plan: one step per position from `done_prior` on, each with the
    // item's own grid coordinates and latency. Leader/follower dedup (see
    // the module docs): the first item (in canonical order) for each
    // source key is submitted to the pool as its leader; every later item
    // with that key replays the leader's record. Leaders are picked in
    // canonical order, so hit counts — and every record — are identical
    // across `--jobs` values.
    let pool: WorkerPool<Record> = WorkerPool::new(opts.effective_jobs());
    let sim = config.sim;
    let mut plan: Vec<(ItemMeta, Step)> = Vec::with_capacity(total - done_prior);
    let mut source_keys = SourceKeys::default();
    let mut leader_of: HashMap<SourceKey, usize> = HashMap::new();
    for (pos, item) in items.into_iter().enumerate().skip(done_prior) {
        let mut source = None;
        if use_cache {
            let (key, assembled) = source_keys.of(&item);
            match leader_of.entry(key) {
                Entry::Occupied(leader) => {
                    plan.push((item.meta(), Step::Replay(*leader.get())));
                    stats.cache_hits += 1;
                    vgen_obs::counter_add("dedup.hit", 1);
                    continue;
                }
                Entry::Vacant(slot) => {
                    slot.insert(pos);
                }
            }
            // A text seen before maps to a key that already has a leader,
            // so a new leader's source was assembled just now.
            source = assembled;
        }
        plan.push((item.meta(), Step::Check));
        let policy = opts.policy.clone();
        pool.submit(pos, move || {
            if task_panic_fires(&policy.chaos, pos) {
                panic!("chaos: injected pool-task panic");
            }
            check_item(&item, source, sim, &policy)
        });
        stats.checks_run += 1;
    }
    let stall_timeout = opts.stall_timeout.unwrap_or(RESULT_TIMEOUT);
    // With a cancel token attached, wait in short slices so cancellation
    // latency is bounded by the slice, not the stall window; without one,
    // a single long wait per result.
    let slice = if hooks.cancel.is_some() {
        Duration::from_millis(50).min(stall_timeout)
    } else {
        stall_timeout
    };
    // Check results that arrived ahead of the cursor, by position.
    let mut arrived: HashMap<usize, Record> = HashMap::new();
    let mut stalled = false;
    // When the merge loop last made progress; the stall window runs from
    // here.
    let mut waited = Instant::now();
    // The emission cursor is `records.len()`: it walks the positions in
    // canonical order and sends each record to the journal, the hooks and
    // the run. A follower's leader sits at a lower position, so its record
    // is already in `records`; a check waits until its result arrives.
    while records.len() < total {
        let pos = records.len();
        let (meta, step) = plan[pos - done_prior];
        let rec = match step {
            Step::Replay(leader) => meta.replay(&records[leader]),
            Step::Check => match arrived.remove(&pos) {
                Some(rec) => rec,
                None if hooks.cancelled() => {
                    interrupted = true;
                    break;
                }
                None => {
                    match pool.recv_timeout(slice) {
                        // The per-check guard already converts checker
                        // panics into fault records, so `Err` only comes from
                        // a task that panicked in pool plumbing around the
                        // check. It still costs exactly one fault record,
                        // like any harness fault.
                        Ok((at, result)) => {
                            let rec = result.unwrap_or_else(|_panic_msg| {
                                plan[at - done_prior].0.fault_record(FaultKind::Panic)
                            });
                            hold(&mut arrived, pos, at, rec);
                            waited = Instant::now();
                        }
                        // No result arrived within the stall window: at
                        // least one worker is wedged in a check that escaped
                        // per-check supervision. Degrade instead of aborting:
                        // every check still owed a result becomes a
                        // hard-timeout stall *record*, so the sweep completes
                        // and `--resume` sees a coherent journal.
                        Err(_) if waited.elapsed() >= stall_timeout => {
                            let owed = fill_stalled(&plan, done_prior, pos, &mut arrived);
                            vgen_obs::counter_add("pool.stall", owed);
                            eprintln!(
                                "[eval] worker pool stalled; recording {owed} outstanding \
                                 check(s) as hard timeouts"
                            );
                            stalled = true;
                        }
                        Err(_) => {}
                    }
                    continue;
                }
            },
        };
        if let Some(journal) = &mut journal {
            journal.append(&rec);
        }
        hooks.observe(&rec, pos + 1, total);
        records.push(rec);
        waited = Instant::now();
    }
    if interrupted || stalled {
        // Abandon the pool with its remaining queue discarded: a cancelled
        // request must not keep burning CPU on checks nobody will read, a
        // stalled one has already recorded every outstanding item, and
        // joining a wedged worker would hang the sweep right back. On
        // cancel, everything contiguously completed is already recorded,
        // so the journal stays a valid resumable prefix.
        pool.abandon();
    } else {
        pool.shutdown();
    }

    // A failed journal write outranks a cancel. Either way, everything
    // appended before it is a valid contiguous prefix for --resume.
    if let Some(journal) = journal {
        journal.finish()?;
    }
    if interrupted {
        vgen_obs::counter_add("sweep.cancelled", 1);
        return Err(io::Error::new(
            io::ErrorKind::Interrupted,
            format!(
                "sweep cancelled after {} of {} record(s)",
                records.len(),
                total
            ),
        ));
    }
    debug_assert_eq!(records.len(), total, "every work item produced a record");
    Ok((
        EvalRun {
            engine: name,
            records,
        },
        stats,
    ))
}

impl EvalRun {
    /// Tallies records matching a predicate. Harness-fault records are
    /// excluded: they say nothing about the candidate, so counting them
    /// would skew compile/functional rates.
    pub fn tally(&self, keep: impl Fn(&Record) -> bool) -> Tally {
        let mut t = Tally::default();
        for r in self.records.iter().filter(|r| !r.fault && keep(r)) {
            t.record(r.compiled, r.passed);
        }
        t
    }

    /// Number of records where the harness itself faulted.
    pub fn fault_count(&self) -> usize {
        self.records.iter().filter(|r| r.fault).count()
    }

    /// Number of fault records of one [`FaultKind`].
    pub fn fault_count_of(&self, kind: FaultKind) -> usize {
        self.records
            .iter()
            .filter(|r| r.fault_kind == Some(kind))
            .count()
    }

    /// Fault records that were timeouts (soft or hard) rather than panics.
    pub fn timeout_count(&self) -> usize {
        self.fault_count_of(FaultKind::SoftTimeout) + self.fault_count_of(FaultKind::HardTimeout)
    }

    /// Temperatures present in the run.
    pub fn temperatures(&self) -> Vec<f64> {
        let mut ts: Vec<f64> = Vec::new();
        for r in &self.records {
            if !ts.iter().any(|t| (*t - r.temperature).abs() < 1e-12) {
                ts.push(r.temperature);
            }
        }
        ts.sort_by(|a, b| a.partial_cmp(b).expect("no NaN temps"));
        ts
    }

    /// Best-temperature *compile* rate for a difficulty at a given n —
    /// a Table III cell ("the t for each model for which their completions
    /// were most successful").
    pub fn best_compile(&self, difficulty: Difficulty, n: usize) -> f64 {
        self.temperatures()
            .into_iter()
            .map(|t| {
                self.tally(|r| {
                    r.difficulty == difficulty && r.n == n && (r.temperature - t).abs() < 1e-12
                })
                .compile_rate()
            })
            .fold(0.0, f64::max)
    }

    /// Best-temperature *functional* rate for (difficulty, level) at n —
    /// a Table IV cell.
    pub fn best_functional(&self, difficulty: Difficulty, level: PromptLevel, n: usize) -> f64 {
        self.temperatures()
            .into_iter()
            .map(|t| {
                self.tally(|r| {
                    r.difficulty == difficulty
                        && r.level == level
                        && r.n == n
                        && (r.temperature - t).abs() < 1e-12
                })
                .functional_rate()
            })
            .fold(0.0, f64::max)
    }

    /// Mean inference latency in seconds (Table IV time column).
    pub fn mean_latency(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.latency_s).sum::<f64>() / self.records.len() as f64
    }

    /// Total error-severity lint diagnostics across all records.
    pub fn lint_error_total(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| r.lint.as_ref())
            .map(|l| l.errors as u64)
            .sum()
    }

    /// Total warning-severity lint diagnostics across all records.
    pub fn lint_warning_total(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| r.lint.as_ref())
            .map(|l| l.warnings as u64)
            .sum()
    }

    /// Per-rule lint totals in [`Rule::ALL`] order, zero-count rules
    /// omitted.
    pub fn lint_rule_totals(&self) -> Vec<(Rule, u64)> {
        Rule::ALL
            .into_iter()
            .filter_map(|rule| {
                let n: u64 = self
                    .records
                    .iter()
                    .filter_map(|r| r.lint.as_ref())
                    .flat_map(|l| &l.per_rule)
                    .filter(|(r, _)| *r == rule)
                    .map(|(_, n)| *n as u64)
                    .sum();
                (n > 0).then_some((rule, n))
            })
            .collect()
    }

    /// Records that passed the testbench *and* tripped a behavioural-hazard
    /// lint rule ([`crate::check::LintCounts::hazard_count`]) — the paper's
    /// pass/fail split hides these; functionally "correct" RTL carrying a
    /// race, latch, loop or truncation.
    pub fn hazardous_pass_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.passed && r.lint.as_ref().is_some_and(|l| l.hazard_count() > 0))
            .count()
    }

    /// Records that passed the testbench (regardless of lint findings).
    pub fn pass_count(&self) -> usize {
        self.records.iter().filter(|r| r.passed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{read_journal_recovering, UnsupportedJournalVersion};
    use vgen_corpus::CorpusSource;
    use vgen_lm::{FamilyEngine, ModelFamily, ModelId, Tuning};

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            temperatures: vec![0.1, 0.7],
            ns: vec![5],
            levels: vec![PromptLevel::Low],
            problem_ids: vec![1, 2, 6],
            sim: SimConfig::default(),
        }
    }

    fn cg16_ft_engine() -> FamilyEngine {
        FamilyEngine::new(
            ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
            CorpusSource::GithubOnly,
            42,
        )
    }

    #[test]
    fn run_produces_full_grid() {
        let mut engine = cg16_ft_engine();
        let run = run_engine(&mut engine, &small_cfg());
        // 3 problems × 1 level × 2 temps × 5 completions.
        assert_eq!(run.records.len(), 30);
        assert_eq!(run.temperatures(), vec![0.1, 0.7]);
    }

    #[test]
    fn best_temperature_is_cold() {
        let mut engine = cg16_ft_engine();
        let cfg = EvalConfig {
            ns: vec![20],
            problem_ids: vec![1, 2, 3, 4],
            levels: vec![PromptLevel::Medium],
            temperatures: vec![0.1, 1.0],
            sim: SimConfig::default(),
        };
        let run = run_engine(&mut engine, &cfg);
        let cold = run
            .tally(|r| (r.temperature - 0.1).abs() < 1e-9)
            .functional_rate();
        let hot = run
            .tally(|r| (r.temperature - 1.0).abs() < 1e-9)
            .functional_rate();
        assert!(cold > hot, "cold sampling should beat hot: {cold} vs {hot}");
        assert!(run.best_functional(Difficulty::Basic, PromptLevel::Medium, 20) >= cold);
    }

    #[test]
    fn fine_tuned_beats_pretrained() {
        let cfg = EvalConfig {
            temperatures: vec![0.1],
            ns: vec![10],
            levels: vec![PromptLevel::Low],
            problem_ids: vec![1, 2, 3, 4],
            sim: SimConfig::default(),
        };
        let mut ft = cg16_ft_engine();
        let mut pt = FamilyEngine::new(
            ModelId::new(ModelFamily::CodeGen16B, Tuning::Pretrained),
            CorpusSource::GithubOnly,
            42,
        );
        let ft_run = run_engine(&mut ft, &cfg);
        let pt_run = run_engine(&mut pt, &cfg);
        assert!(ft_run.tally(|_| true).compile_rate() > pt_run.tally(|_| true).compile_rate());
    }

    #[test]
    fn per_problem_breakdown_covers_ids() {
        let mut engine = cg16_ft_engine();
        let run = run_engine(&mut engine, &small_cfg());
        for pid in small_cfg().problem_ids {
            assert!(
                run.tally(|r| r.problem_id == pid).total > 0,
                "problem {pid}"
            );
        }
    }

    #[test]
    fn latency_is_positive() {
        let mut engine = cg16_ft_engine();
        let run = run_engine(&mut engine, &small_cfg());
        assert!(run.mean_latency() > 0.0);
    }

    /// One sweep of `engine` over `cfg` on `jobs` workers, with no hooks.
    fn sweep(
        engine: &mut dyn CompletionEngine,
        cfg: &EvalConfig,
        journal: Option<(&Path, bool)>,
        jobs: usize,
    ) -> io::Result<EvalRun> {
        let opts = SweepOptions {
            jobs,
            ..SweepOptions::default()
        };
        run_engine_sweep(engine, cfg, journal, &opts, &SweepHooks::default()).map(|(run, _)| run)
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "vgen-journal-test-{}-{tag}.log",
            std::process::id()
        ))
    }

    #[test]
    fn journaled_run_matches_plain_run() {
        let path = temp_journal("plain");
        let cfg = small_cfg();
        let plain = run_engine(&mut cg16_ft_engine(), &cfg);
        let journaled =
            sweep(&mut cg16_ft_engine(), &cfg, Some((&path, false)), 1).expect("journaled run");
        assert_eq!(plain, journaled);
        // And the journal itself replays to the same records.
        let (name, fp, recs, _) = read_journal_recovering(&path).expect("read back");
        assert_eq!(name, plain.engine);
        assert_eq!(fp, config_fingerprint(&cfg));
        assert_eq!(recs, plain.records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_journal_resumes_to_identical_totals() {
        let path = temp_journal("resume");
        let cfg = small_cfg();
        let full = sweep(&mut cg16_ft_engine(), &cfg, Some((&path, false)), 1).expect("full run");
        // Simulate a kill partway through: keep the header, the first 11
        // records, and a torn 12th line.
        let text = std::fs::read_to_string(&path).expect("journal text");
        let mut kept: Vec<&str> = text.lines().take(12).collect();
        kept.push("2,B,L,0.1"); // torn final write
        std::fs::write(&path, kept.join("\n")).expect("truncate");
        let resumed =
            sweep(&mut cg16_ft_engine(), &cfg, Some((&path, true)), 1).expect("resumed run");
        assert_eq!(resumed, full);
        assert_eq!(
            resumed.tally(|_| true).functional_rate(),
            full.tally(|_| true).functional_rate()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let path = temp_journal("mismatch");
        let cfg = small_cfg();
        sweep(&mut cg16_ft_engine(), &cfg, Some((&path, false)), 1).expect("seed journal");
        let mut other = cfg.clone();
        other.temperatures = vec![0.5];
        let err =
            sweep(&mut cg16_ft_engine(), &other, Some((&path, true)), 1).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parallel_records_match_serial_records() {
        let cfg = small_cfg();
        let serial = run_engine(&mut cg16_ft_engine(), &cfg);
        for jobs in [2, 4, 7] {
            let par = sweep(&mut cg16_ft_engine(), &cfg, None, jobs).expect("parallel sweep");
            assert_eq!(serial, par, "jobs={jobs} diverged from serial");
        }
    }

    #[test]
    fn parallel_journal_is_byte_identical_to_serial_journal() {
        let cfg = small_cfg();
        let p1 = temp_journal("bytes-serial");
        let p4 = temp_journal("bytes-parallel");
        let serial =
            sweep(&mut cg16_ft_engine(), &cfg, Some((&p1, false)), 1).expect("serial journaled");
        let par =
            sweep(&mut cg16_ft_engine(), &cfg, Some((&p4, false)), 4).expect("parallel journaled");
        assert_eq!(serial, par);
        let b1 = std::fs::read(&p1).expect("serial journal bytes");
        let b4 = std::fs::read(&p4).expect("parallel journal bytes");
        assert_eq!(b1, b4, "journals must be byte-identical across jobs");
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p4);
    }

    #[test]
    fn killed_parallel_journal_resumes_to_identical_totals() {
        let path = temp_journal("parallel-resume");
        let cfg = small_cfg();
        let full =
            sweep(&mut cg16_ft_engine(), &cfg, Some((&path, false)), 4).expect("full parallel run");
        // Simulate a kill partway through: header, 9 records, torn line.
        let text = std::fs::read_to_string(&path).expect("journal text");
        let mut kept: Vec<&str> = text.lines().take(10).collect();
        kept.push("1,B,L,0.7"); // torn final write
        std::fs::write(&path, kept.join("\n")).expect("truncate");
        let resumed = sweep(&mut cg16_ft_engine(), &cfg, Some((&path, true)), 3)
            .expect("resumed parallel run");
        assert_eq!(resumed, full);
        // The resumed journal replays to the full record set.
        let (_, _, recs, _) = read_journal_recovering(&path).expect("read back");
        assert_eq!(recs, full.records);
        let _ = std::fs::remove_file(&path);
    }

    /// Strips the last `n` comma-separated fields off a journal line.
    fn strip_fields(line: &str, n: usize) -> String {
        let mut s = line.to_string();
        for _ in 0..n {
            s.truncate(s.rfind(',').expect("enough fields"));
        }
        s
    }

    #[test]
    fn pre_v3_journal_resume_fails_fast_with_a_rerun_hint() {
        let path = temp_journal("pre-v3");
        let cfg = small_cfg();
        sweep(&mut cg16_ft_engine(), &cfg, Some((&path, false)), 1).expect("full run");
        let text = std::fs::read_to_string(&path).expect("journal text");
        for (version, stripped) in [("1", 3), ("2", 2)] {
            // Downgrade the on-disk journal: old magic in the header, record
            // lines in that version's shorter field layout.
            let mut lines = text.lines();
            let header = lines
                .next()
                .expect("header")
                .replace("vgen-journal-v3", &format!("vgen-journal-v{version}"));
            let mut old = vec![header];
            old.extend(lines.take(11).map(|l| strip_fields(l, stripped)));
            std::fs::write(&path, old.join("\n")).expect("write old journal");
            let err = sweep(&mut cg16_ft_engine(), &cfg, Some((&path, true)), 1)
                .expect_err("old journals must not resume");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let typed = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<UnsupportedJournalVersion>())
                .expect("typed version error");
            assert_eq!(typed.version, version);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("v{version}")) && msg.contains("without --resume"),
                "error must name the version and say to re-run: {msg}"
            );
            // Failing fast leaves the old journal untouched.
            assert_eq!(
                std::fs::read_to_string(&path).expect("old journal"),
                old.join("\n")
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_record_line_is_dropped_on_recovery() {
        let path = temp_journal("torn-v3");
        let cfg = small_cfg();
        let full = sweep(&mut cg16_ft_engine(), &cfg, Some((&path, false)), 1).expect("full run");
        let text = std::fs::read_to_string(&path).expect("journal text");
        let lines: Vec<&str> = text.lines().collect();
        // Tear a record line before its last two fields.
        let mut kept: Vec<String> = lines[..5].iter().map(|s| s.to_string()).collect();
        kept.push(strip_fields(lines[5], 2));
        std::fs::write(&path, kept.join("\n")).expect("truncate");
        let (_, _, recs, report) = read_journal_recovering(&path).expect("read torn journal");
        assert_eq!(recs.len(), 4, "torn line and everything after dropped");
        assert_eq!(report.kept, 4);
        assert_eq!(report.dropped_lines, 1);
        let resumed =
            sweep(&mut cg16_ft_engine(), &cfg, Some((&path, true)), 1).expect("resumed run");
        assert_eq!(resumed, full);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_middle_line_truncates_to_longest_valid_prefix() {
        let path = temp_journal("bitrot");
        let cfg = small_cfg();
        let full = sweep(&mut cg16_ft_engine(), &cfg, Some((&path, false)), 1).expect("full run");
        let text = std::fs::read_to_string(&path).expect("journal text");
        let mut lines: Vec<String> = text.lines().map(|s| s.to_string()).collect();
        let total_records = lines.len() - 1;
        // Corrupt one byte in the middle of record 7 (line 8): recovery
        // must keep records 1-6 and drop everything from the corrupt line
        // on, even though the lines after it are intact.
        let mut bytes = lines[7].clone().into_bytes();
        bytes[3] ^= 0x01;
        lines[7] = String::from_utf8(bytes).expect("still utf-8");
        std::fs::write(&path, lines.join("\n")).expect("rewrite");
        let (_, _, recs, report) = read_journal_recovering(&path).expect("recovering read");
        assert_eq!(recs.len(), 6);
        assert_eq!(report.kept, 6);
        assert_eq!(report.dropped_lines, total_records - 6);
        assert_eq!(&recs[..], &full.records[..6]);
        // And a resume from the repaired prefix completes correctly.
        let resumed =
            sweep(&mut cg16_ft_engine(), &cfg, Some((&path, true)), 1).expect("resumed run");
        assert_eq!(resumed, full);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_produces_lint_tallies() {
        let mut engine = cg16_ft_engine();
        let run = run_engine(&mut engine, &small_cfg());
        // Every parsed candidate carries tallies; the family engine's
        // compile rate is well below 1.0, so both kinds must appear.
        assert!(run.records.iter().any(|r| r.lint.is_some()));
        assert!(run.records.iter().any(|r| r.lint.is_none()));
        assert!(
            run.records.iter().all(|r| !r.compiled || r.lint.is_some()),
            "every compiled candidate must have been linted"
        );
        assert!(run.hazardous_pass_count() <= run.pass_count());
        let per_rule_total: u64 = run.lint_rule_totals().iter().map(|(_, n)| n).sum();
        assert_eq!(
            per_rule_total,
            run.lint_error_total() + run.lint_warning_total()
        );
    }

    #[test]
    fn jobs_zero_resolves_to_available_parallelism() {
        assert!(SweepOptions::auto_jobs() >= 1);
        let jobs = |jobs| SweepOptions {
            jobs,
            ..SweepOptions::default()
        };
        assert_eq!(jobs(0).effective_jobs(), SweepOptions::auto_jobs());
        assert_eq!(jobs(3).effective_jobs(), 3);
        assert_eq!(SweepOptions::default().effective_jobs(), 1);
    }

    #[test]
    fn resume_rejects_mismatched_engine() {
        let path = temp_journal("engine");
        let cfg = small_cfg();
        sweep(&mut cg16_ft_engine(), &cfg, Some((&path, false)), 1).expect("seed journal");
        let mut other = FamilyEngine::new(
            ModelId::new(ModelFamily::CodeGen16B, Tuning::Pretrained),
            CorpusSource::GithubOnly,
            42,
        );
        let err = sweep(&mut other, &cfg, Some((&path, true)), 1).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observer_streams_every_fresh_record_in_order() {
        let cfg = small_cfg();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        let hooks = SweepHooks {
            observer: Some(std::sync::Arc::new(move |rec: &Record, done, total| {
                sink.lock()
                    .expect("observer lock")
                    .push((rec.clone(), done, total));
            })),
            cancel: None,
        };
        for jobs in [1, 3] {
            seen.lock().expect("observer lock").clear();
            let opts = SweepOptions {
                jobs,
                ..SweepOptions::default()
            };
            let (run, _) = run_engine_sweep(&mut cg16_ft_engine(), &cfg, None, &opts, &hooks)
                .expect("observed run");
            let events = seen.lock().expect("observer lock");
            assert_eq!(events.len(), run.records.len(), "jobs {jobs}");
            for (i, (rec, done, total)) in events.iter().enumerate() {
                assert_eq!(rec, &run.records[i]);
                assert_eq!(*done, i + 1);
                assert_eq!(*total, run.records.len());
            }
        }
    }

    fn passing_record() -> Record {
        Record {
            problem_id: 2,
            difficulty: Difficulty::Basic,
            level: PromptLevel::Low,
            temperature: 0.1,
            n: 1,
            compiled: true,
            passed: true,
            fault: false,
            fault_kind: None,
            latency_s: 0.5,
            lint: None,
        }
    }

    #[test]
    #[should_panic(expected = "duplicate result for position 3")]
    fn merge_rejects_a_second_result_for_a_position() {
        let mut arrived = HashMap::new();
        hold(&mut arrived, 1, 3, passing_record());
        hold(&mut arrived, 1, 3, passing_record());
    }

    #[test]
    #[should_panic(expected = "duplicate result for position 0")]
    fn merge_rejects_a_result_behind_the_cursor() {
        hold(&mut HashMap::new(), 1, 0, passing_record());
    }

    #[test]
    fn cancelled_sweep_leaves_resumable_prefix() {
        let path = temp_journal("cancel");
        let cfg = small_cfg();
        let full = sweep(&mut cg16_ft_engine(), &cfg, Some((&path, false)), 1).expect("full");
        let _ = std::fs::remove_file(&path);
        let token = vgen_obs::CancelToken::unlimited();
        let trip = token.clone();
        let hooks = SweepHooks {
            observer: Some(std::sync::Arc::new(move |_: &Record, done, _| {
                if done >= 7 {
                    trip.cancel();
                }
            })),
            cancel: Some(token),
        };
        let err = run_engine_sweep(
            &mut cg16_ft_engine(),
            &cfg,
            Some((&path, false)),
            &SweepOptions::default(),
            &hooks,
        )
        .expect_err("cancelled sweep");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let (_, _, recs, _) = read_journal_recovering(&path).expect("read cancelled journal");
        assert!(
            !recs.is_empty() && recs.len() < full.records.len(),
            "partial prefix, got {} of {}",
            recs.len(),
            full.records.len()
        );
        assert_eq!(recs[..], full.records[..recs.len()]);
        // Resume completes the cancelled run to byte-identical records.
        let resumed = sweep(&mut cg16_ft_engine(), &cfg, Some((&path, true)), 1).expect("resume");
        assert_eq!(resumed, full);
        let _ = std::fs::remove_file(&path);
    }
}
