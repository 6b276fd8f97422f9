//! The experiment runner: queries an engine over the full parameter grid
//! (prompt level × temperature × completions-per-prompt, §IV-B) and checks
//! every completion through the compile/simulate pipeline.
//!
//! Every check runs under the panic guard ([`crate::guard`]), so a harness
//! bug on one hostile completion costs one [`Record`] (marked `fault`),
//! not the sweep. Long sweeps can additionally journal each record to disk
//! as it is produced ([`run_engine_sweep`]'s `journal` argument) and
//! resume after a crash or kill without repeating completed checks.
//!
//! ## Execution model
//!
//! A sweep runs in two phases (see DESIGN.md, "Parallel execution
//! model"):
//!
//! 1. **Generate** (always serial, on the calling thread): the grid is
//!    walked in canonical order and the engine is queried for every cell,
//!    flattening the scenario×temperature×completion grid into a vector
//!    of independent work items. Serial generation keeps the engine's RNG
//!    stream identical across worker counts and across fresh vs resumed
//!    runs.
//! 2. **Check** (pooled at any `--jobs`): each work item is one
//!    compile+simulate check. Items are dispatched to a
//!    [`WorkerPool`] of
//!    [`SweepOptions::jobs`] workers sharing one FIFO queue, which run
//!    each check inline, and
//!    results flow through a [`ReorderBuffer`]
//!    back into canonical order, so journal lines, reports and Pass@k
//!    aggregates are byte-identical regardless of worker count or
//!    completion order. Journal lines are written by a single dedicated
//!    writer thread, in order, one flush per record — a killed run at any
//!    worker count therefore leaves a contiguous-prefix journal, and
//!    `--resume` composes unchanged.
//!
//! ## Dedup cache
//!
//! A check depends only on the problem and the *assembled* source
//! ([`assemble`]): the prompt level matters only through assembly, and a
//! whole-module completion assembles to the same source at every level,
//! as does a copy with different junk after its `endmodule`. So with
//! [`SweepOptions::dedup`] on, the first item (in canonical order) for
//! each (problem, source hash) is checked as a *leader*, and every later
//! item with that key is a *follower* that replays the leader's outcome.
//! The key is computed on the submitting thread, assembling each distinct
//! (problem, level, text) once, and a leader's assembled source travels
//! with it to the worker. Chaos sites in the guard are keyed on the
//! assembled source too, so a replayed fault is the fault a fresh check
//! of the follower would have hit, and reports and journals are
//! byte-identical with the cache on or off.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use vgen_lm::engine::{Completion, CompletionEngine};
use vgen_problems::{problem, Difficulty, Problem, PromptLevel};
use vgen_sim::SimConfig;

use vgen_lint::Rule;

use crate::chaos::{ChaosSite, ChaosSpec};
use crate::check::{assemble, FaultKind, LintCounts};
use crate::guard::{supervised_check_completion, supervised_check_source, CheckPolicy};
use crate::metrics::Tally;
use crate::pool::{ReorderBuffer, WorkerPool};

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

impl Record {
    /// Serialises the record as one v3 journal line: nine verdict fields,
    /// the lint tallies (`-` when absent), the fault-kind tag (`-` for
    /// records carrying a real verdict), and a lowercase-hex
    /// FNV-1a checksum of everything before it. The checksum is what lets
    /// recovery distinguish "line the dead process wrote whole" from "line
    /// torn or bit-rotted after the fact" without trusting field counts.
    pub fn to_journal_line(&self) -> String {
        let prefix = format!(
            "{},{},{},{},{},{},{},{},{},{},{}",
            self.problem_id,
            difficulty_tag(self.difficulty),
            self.level.tag(),
            self.temperature,
            self.n,
            self.compiled as u8,
            self.passed as u8,
            self.fault as u8,
            self.latency_s,
            match &self.lint {
                Some(l) => l.to_journal_field(),
                None => "-".to_string(),
            },
            match self.fault_kind {
                Some(k) => k.journal_tag(),
                None => "-",
            },
        );
        format!("{prefix},{:08x}", fnv1a(prefix.as_bytes()) & 0xffff_ffff)
    }

    /// Parses a journal line produced by [`Record::to_journal_line`].
    /// Returns `None` on any malformed field, a checksum mismatch, or a line
    /// truncated by a kill mid-write.
    pub fn from_journal_line(line: &str) -> Option<Record> {
        let line = line.trim_end();
        let mut it = line.split(',');
        let mut rec = Record {
            problem_id: it.next()?.parse().ok()?,
            difficulty: parse_difficulty_tag(it.next()?)?,
            level: parse_level_tag(it.next()?)?,
            temperature: it.next()?.parse().ok()?,
            n: it.next()?.parse().ok()?,
            compiled: parse_flag(it.next()?)?,
            passed: parse_flag(it.next()?)?,
            fault: parse_flag(it.next()?)?,
            latency_s: it.next()?.parse().ok()?,
            fault_kind: None,
            lint: None,
        };
        let lint_field = it.next()?;
        if lint_field != "-" {
            rec.lint = Some(LintCounts::from_journal_field(lint_field)?);
        }
        rec.fault_kind = FaultKind::from_journal_tag(it.next()?)?;
        let sum = it.next()?;
        if it.next().is_some() {
            return None; // trailing fields: not ours
        }
        // The checksum covers every byte before its own comma.
        let prefix = &line[..line.len() - sum.len() - 1];
        if sum != format!("{:08x}", fnv1a(prefix.as_bytes()) & 0xffff_ffff) {
            return None;
        }
        if rec.fault != rec.fault_kind.is_some() {
            return None; // flag and kind must agree
        }
        Some(rec)
    }
}

fn difficulty_tag(d: Difficulty) -> &'static str {
    match d {
        Difficulty::Basic => "B",
        Difficulty::Intermediate => "I",
        Difficulty::Advanced => "A",
    }
}

fn parse_difficulty_tag(s: &str) -> Option<Difficulty> {
    match s {
        "B" => Some(Difficulty::Basic),
        "I" => Some(Difficulty::Intermediate),
        "A" => Some(Difficulty::Advanced),
        _ => None,
    }
}

fn parse_level_tag(s: &str) -> Option<PromptLevel> {
    PromptLevel::ALL.into_iter().find(|l| l.tag() == s)
}

fn parse_flag(s: &str) -> Option<bool> {
    match s {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// All records from evaluating one engine over a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRun {
    /// Engine display name.
    pub engine: String,
    /// Per-completion records.
    pub records: Vec<Record>,
}

/// When the journal writer calls fsync (`File::sync_data`) on the journal
/// file. Independent of the per-record *flush*, which always happens: a
/// flushed-but-unsynced journal survives a process kill (the contiguous-
/// prefix invariant holds), while fsync is about surviving power loss or a
/// host crash, where the page cache dies with the kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync — the historical behaviour and the default. A `kill -9`
    /// loses nothing; an OS crash may lose the unsynced tail (which
    /// recovery then truncates away).
    #[default]
    Never,
    /// fsync after every record: maximal durability, one device round-trip
    /// per check.
    EveryRecord,
    /// fsync every `n` records, and once more when the run finishes.
    Interval(u32),
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `never`, `every`, or `interval:N` (N ≥ 1).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed spec.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "never" => Ok(FsyncPolicy::Never),
            "every" => Ok(FsyncPolicy::EveryRecord),
            _ => match s.strip_prefix("interval:").map(str::parse) {
                Some(Ok(n)) if n >= 1 => Ok(FsyncPolicy::Interval(n)),
                _ => Err(format!(
                    "bad fsync policy `{s}` (expected never, every, or interval:N)"
                )),
            },
        }
    }
}

/// Execution options for a sweep: worker count, dedup, per-check
/// supervision and journal durability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads of the sweep's pool; `0` means "use
    /// [`SweepOptions::auto_jobs`]". Each worker runs its checks inline
    /// (handing each off only under a deadline, see [`crate::guard`]),
    /// and results are merged through a deterministic reorder buffer, so
    /// any value produces byte-identical reports and journals.
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
    /// When the journal writer fsyncs the journal file
    /// ([`FsyncPolicy`]); ignored for unjournaled runs.
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
        // The observing thread (the sweep's caller, draining the reorder
        // buffer) records no spans, so its periodic self-flush never arms;
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

/// One flattened unit of work: a single completion to check. Its index in
/// the generated vector is its canonical position in the grid walk.
struct WorkItem {
    problem: &'static Problem,
    level: PromptLevel,
    temperature: f64,
    n: usize,
    completion: Completion,
}

/// The slice of a work item needed to synthesise a fault record if the
/// pool reports that its task panicked outside the per-check guard.
#[derive(Clone, Copy)]
struct ItemMeta {
    problem_id: u8,
    difficulty: Difficulty,
    level: PromptLevel,
    temperature: f64,
    n: usize,
    latency_s: f64,
}

impl WorkItem {
    fn meta(&self) -> ItemMeta {
        ItemMeta {
            problem_id: self.problem.id,
            difficulty: self.problem.difficulty,
            level: self.level,
            temperature: self.temperature,
            n: self.n,
            latency_s: self.completion.latency_s,
        }
    }
}

impl ItemMeta {
    fn fault_record(&self, kind: FaultKind) -> Record {
        Record {
            problem_id: self.problem_id,
            difficulty: self.difficulty,
            level: self.level,
            temperature: self.temperature,
            n: self.n,
            compiled: false,
            passed: false,
            fault: true,
            fault_kind: Some(kind),
            latency_s: self.latency_s,
            lint: None,
        }
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
    let fault_kind = outcome.fault_kind();
    Record {
        problem_id: item.problem.id,
        difficulty: item.problem.difficulty,
        level: item.level,
        temperature: item.temperature,
        n: item.n,
        compiled: outcome.compiled(),
        passed: outcome.passed(),
        fault: fault_kind.is_some(),
        fault_kind,
        latency_s: item.completion.latency_s,
        lint,
    }
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

/// The dedup cache's key: problem id and the FNV-1a hash of the assembled
/// source. A check is a pure function of (problem, assembled source) for
/// the sweep's fixed `config.sim` and policy, so these are the only check
/// inputs that can change an outcome. Completions that differ only in what
/// assembly drops (the prompt level of a whole-module completion, text
/// after its `endmodule`) share a key.
type SourceKey = (u8, u64);

/// What a sweep assembles each distinct completion to, at most once: the
/// [`SourceKey`] of every (problem, prompt level, text hash) seen so far.
#[derive(Default)]
struct SourceKeys(HashMap<(u8, PromptLevel, u64), SourceKey>);

impl SourceKeys {
    /// The item's source key, plus its assembled source when this is the
    /// first item with its (problem, level, text).
    fn of(&mut self, item: &WorkItem) -> (SourceKey, Option<String>) {
        let text = (
            item.problem.id,
            item.level,
            fnv1a(item.completion.text.as_bytes()),
        );
        if let Some(&key) = self.0.get(&text) {
            return (key, None);
        }
        let source = assemble(item.problem, item.level, &item.completion.text);
        let key = (item.problem.id, fnv1a(source.as_bytes()));
        self.0.insert(text, key);
        (key, Some(source))
    }
}

/// The outcome fields of one checked completion as stored in the dedup
/// cache. Per-sample fields (grid coordinates, latency) come from the
/// duplicate's own [`ItemMeta`] at replay time, so a replayed [`Record`] is
/// identical to what a fresh check of the same source would have produced.
/// Harness faults are cached too: the guard makes them deterministic per
/// assembled source.
#[derive(Clone)]
struct CachedCheck {
    compiled: bool,
    passed: bool,
    fault: bool,
    fault_kind: Option<FaultKind>,
    lint: Option<LintCounts>,
}

impl CachedCheck {
    fn of(rec: &Record) -> CachedCheck {
        CachedCheck {
            compiled: rec.compiled,
            passed: rec.passed,
            fault: rec.fault,
            fault_kind: rec.fault_kind,
            lint: rec.lint.clone(),
        }
    }

    fn replay(&self, meta: ItemMeta) -> Record {
        Record {
            problem_id: meta.problem_id,
            difficulty: meta.difficulty,
            level: meta.level,
            temperature: meta.temperature,
            n: meta.n,
            compiled: self.compiled,
            passed: self.passed,
            fault: self.fault,
            fault_kind: self.fault_kind,
            latency_s: meta.latency_s,
            lint: self.lint.clone(),
        }
    }
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

/// The generate phase: walks the grid in its (deterministic) canonical
/// order, querying the engine for every cell and flattening every
/// completion into a [`WorkItem`]. The engine is always queried for every
/// cell — even cells whose records will be reused from a journal — so the
/// engine's RNG stream is identical across a fresh run and a resumed one,
/// and across worker counts.
fn generate_items(engine: &mut dyn CompletionEngine, config: &EvalConfig) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for &pid in &config.problem_ids {
        let prob = problem(pid).unwrap_or_else(|| panic!("unknown problem id {pid}"));
        for &level in &config.levels {
            for &t in &config.temperatures {
                for &n in &config.ns {
                    for completion in engine.generate(prob, level, t, n) {
                        items.push(WorkItem {
                            problem: prob,
                            level,
                            temperature: t,
                            n,
                            completion,
                        });
                    }
                }
            }
        }
    }
    items
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

/// Journal format marker (first token of the header line), the only
/// format this build reads or writes: record lines carry twelve fields —
/// nine verdict fields, lint tallies, a fault-kind tag and a per-record
/// checksum.
const JOURNAL_MAGIC: &str = "vgen-journal-v3";

/// A journal whose header declares a format other than v3: an older one
/// (v1/v2, from builds before lint tallies and per-record checksums) or a
/// newer one. Returned inside an [`io::Error`] of kind
/// [`io::ErrorKind::InvalidData`]; `err.get_ref()` downcasts to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedJournalVersion {
    /// The version digits the header declared (`"1"`, `"2"`, `"9"`, …).
    pub version: String,
}

impl std::fmt::Display for UnsupportedJournalVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ver = &self.version;
        write!(
            f,
            "journal declares format v{ver}, but this build reads v3 only; sweeps are \
             deterministic, so delete the journal and re-run without --resume to \
             regenerate it"
        )
    }
}

impl std::error::Error for UnsupportedJournalVersion {}

/// FNV-1a, used for the config fingerprint in journal headers.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable fingerprint of the evaluation grid (and sim limits) a journal
/// was produced under. A resume against a journal whose fingerprint does
/// not match the current config is rejected rather than silently mixing
/// records from different grids.
pub fn config_fingerprint(config: &EvalConfig) -> u64 {
    let mut s = String::new();
    for t in &config.temperatures {
        s.push_str(&format!("t{t};"));
    }
    for n in &config.ns {
        s.push_str(&format!("n{n};"));
    }
    for l in &config.levels {
        s.push_str(&format!("l{};", l.tag()));
    }
    for p in &config.problem_ids {
        s.push_str(&format!("p{p};"));
    }
    s.push_str(&format!(
        "sim{}:{}:{}",
        config.sim.max_time, config.sim.max_steps, config.sim.max_output_bytes
    ));
    fnv1a(s.as_bytes())
}

/// Renders the header line a current-format (v3) journal starts with.
/// The executor writes `shard: None`. `Some((i, n))` puts a `shard=i/n`
/// tag between fingerprint and engine, which [`read_journal_recovering`]
/// refuses as a malformed fingerprint.
pub fn journal_header(fp: u64, engine: &str, shard: Option<(u32, u32)>) -> String {
    match shard {
        Some((i, n)) => {
            format!("# {JOURNAL_MAGIC} fingerprint={fp:016x} shard={i}/{n} engine={engine}")
        }
        None => format!("# {JOURNAL_MAGIC} fingerprint={fp:016x} engine={engine}"),
    }
}

/// What [`read_journal_recovering`] had to do to make sense of a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Well-formed records kept — the longest valid prefix.
    pub kept: usize,
    /// Lines dropped after the valid prefix: the first torn/corrupt line
    /// and everything after it. `0` for a clean journal.
    pub dropped_lines: usize,
}

/// Reads a journal file: header validation plus its longest valid prefix
/// of records. Returns `(engine_name, config_fingerprint, records,
/// report)`, where the [`RecoveryReport`] says how many records form that
/// prefix and how many trailing lines were dropped as torn or corrupt.
/// Recovery never trusts anything after the first bad line — a checksum
/// mismatch means the tail can no longer be attributed to the canonical
/// record stream, so resuming re-checks it instead.
///
/// # Errors
///
/// I/O errors, or [`io::ErrorKind::InvalidData`] if the header is missing,
/// malformed, or declares a journal format other than v3 (wrapping an
/// [`UnsupportedJournalVersion`]).
pub fn read_journal_recovering(
    path: &Path,
) -> io::Result<(String, u64, Vec<Record>, RecoveryReport)> {
    // Read raw bytes, not lines-of-String: a crash (or bit rot) can leave
    // arbitrary garbage in the tail, and a non-UTF-8 line must be treated
    // as the first corrupt line — truncating the journal there — rather
    // than failing the whole read.
    let bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty journal"));
    }
    let mut segments: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    // A well-formed journal ends in a newline; the split's trailing empty
    // segment is not a line.
    if segments.last().is_some_and(|s| s.is_empty()) {
        segments.pop();
    }
    let mut lines = segments.into_iter();
    let header = lines
        .next()
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "not a vgen journal"))?;
    let rest = if let Some(r) = header.strip_prefix(&format!("# {JOURNAL_MAGIC} fingerprint=")) {
        r
    } else if let Some(r) = header.strip_prefix("# vgen-journal-v") {
        // Any other format: refuse loudly rather than misparse its records
        // as torn lines and silently re-run the whole grid over them.
        let version = r.chars().take_while(char::is_ascii_digit).collect();
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            UnsupportedJournalVersion { version },
        ));
    } else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a vgen journal",
        ));
    };
    let (fp_hex, engine) = rest
        .split_once(" engine=")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed journal header"))?;
    // A shard-tagged header (`shard=i/n` between fingerprint and engine)
    // holds a fraction of the grid; it fails here as a malformed
    // fingerprint rather than resuming as if it were the whole run.
    let fp = u64::from_str_radix(fp_hex, 16)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "malformed journal fingerprint"))?;
    let mut records = Vec::new();
    let mut dropped = 0usize;
    let mut valid_prefix = true;
    for raw in lines {
        if valid_prefix {
            // A line that is not UTF-8 is corrupt by definition; one that
            // is gets the full field/checksum validation.
            match std::str::from_utf8(raw)
                .ok()
                .and_then(Record::from_journal_line)
            {
                Some(r) => {
                    records.push(r);
                    continue;
                }
                // A torn final line is expected after a kill; everything
                // from here on is untrusted and only counted.
                None => valid_prefix = false,
            }
        }
        dropped += 1;
    }
    let report = RecoveryReport {
        kept: records.len(),
        dropped_lines: dropped,
    };
    Ok((engine.to_string(), fp, records, report))
}

/// Default for [`SweepOptions::stall_timeout`]: how long the merge loop
/// waits for a single pool result before declaring the pool stalled and
/// degrading to stall records. Every check is bounded by the parser,
/// elaborator and simulator resource budgets, so a healthy pool delivers
/// results orders of magnitude faster than this even in debug builds.
const RESULT_TIMEOUT: Duration = Duration::from_secs(300);

/// The dedicated journal writer: all journal lines — from every worker —
/// funnel through this one thread, in canonical order, one flush per
/// record. Serialising writes here (rather than locking the file in each
/// worker) keeps the on-disk journal a torn-line-free, contiguous prefix
/// of the canonical record stream, which is exactly the invariant
/// `--resume` relies on.
struct JournalWriter {
    tx: Option<std::sync::mpsc::Sender<String>>,
    handle: std::thread::JoinHandle<io::Result<()>>,
}

impl JournalWriter {
    fn spawn(mut file: std::fs::File, fsync: FsyncPolicy, chaos: ChaosSpec) -> Self {
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let handle = std::thread::Builder::new()
            .name("vgen-journal".into())
            .spawn(move || {
                let mut since_sync = 0u32;
                for line in rx {
                    if let Some(prefix) = chaos.fires(ChaosSite::JournalTorn, line.as_bytes()) {
                        // Injected torn write followed by a crash: persist
                        // only a prefix of the line (synced, so it is
                        // really on disk) and fail the writer the way a
                        // dying process would.
                        let cut = (prefix as usize).min(line.len());
                        file.write_all(&line.as_bytes()[..cut])?;
                        file.flush()?;
                        let _ = file.sync_data();
                        vgen_obs::counter_add("journal.torn", 1);
                        return Err(io::Error::other("chaos: injected torn journal write"));
                    }
                    writeln!(file, "{line}")?;
                    file.flush()?;
                    vgen_obs::counter_add("journal.write", 1);
                    match fsync {
                        FsyncPolicy::Never => {}
                        FsyncPolicy::EveryRecord => {
                            file.sync_data()?;
                            vgen_obs::counter_add("journal.fsync", 1);
                        }
                        FsyncPolicy::Interval(n) => {
                            since_sync += 1;
                            if since_sync >= n.max(1) {
                                since_sync = 0;
                                file.sync_data()?;
                                vgen_obs::counter_add("journal.fsync", 1);
                            }
                        }
                    }
                }
                if matches!(fsync, FsyncPolicy::Interval(_)) {
                    // Sync the tail the interval hasn't covered yet.
                    file.sync_data()?;
                    vgen_obs::counter_add("journal.fsync", 1);
                }
                Ok(())
            })
            .expect("spawn journal writer");
        JournalWriter {
            tx: Some(tx),
            handle,
        }
    }

    /// Queues one record line. Errors surface in [`JournalWriter::finish`].
    fn write(&self, line: String) {
        if let Some(tx) = &self.tx {
            // A send error means the writer already failed; the I/O error
            // itself is reported by finish().
            let _ = tx.send(line);
        }
    }

    /// Closes the stream and joins the writer, propagating any I/O error.
    fn finish(mut self) -> io::Result<()> {
        drop(self.tx.take());
        self.handle
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("journal writer panicked")))
    }
}

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
    let fp = config_fingerprint(config);
    let mut prior: Vec<Record> = Vec::new();
    let mut writer: Option<JournalWriter> = None;
    let mut stats = SweepStats::default();
    if let Some((path, resume)) = journal {
        if resume && path.exists() {
            let (jname, jfp, recs, recovery) = read_journal_recovering(path)?;
            if jname != name {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journal is for engine `{jname}`, not `{name}`"),
                ));
            }
            if jfp != fp {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journal config fingerprint {jfp:016x} != {fp:016x}"),
                ));
            }
            stats.repaired_lines = recovery.dropped_lines;
            if recovery.dropped_lines > 0 {
                vgen_obs::counter_add("journal.repair", recovery.dropped_lines as u64);
            }
            prior = recs;
        }
        // (Re)write header + surviving records; on resume this also
        // truncates any torn trailing suffix left by a kill.
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", journal_header(fp, &name, None))?;
        for r in &prior {
            writeln!(f, "{}", r.to_journal_line())?;
        }
        f.flush()?;
        writer = Some(JournalWriter::spawn(
            f,
            opts.fsync,
            opts.policy.chaos.clone(),
        ));
    }

    let items = generate_items(engine, config);
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

    // Dispatch to the worker pool, merge back into canonical order through
    // the reorder buffer.
    let metas: Vec<ItemMeta> = items.iter().skip(done_prior).map(WorkItem::meta).collect();
    let pool: WorkerPool<Record> = WorkerPool::new(opts.effective_jobs());
    let sim = config.sim;
    // Leader/follower dedup (see the module docs): the first item (in
    // canonical order) for each source key is submitted as its leader;
    // later duplicates are parked under the leader's position and replayed
    // when its result arrives. Leaders are picked in canonical order, so
    // hit counts — and every record — are identical across `--jobs` values.
    let mut source_keys = SourceKeys::default();
    let mut leader_of: HashMap<SourceKey, usize> = HashMap::new();
    let mut followers: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut outstanding: BTreeSet<usize> = BTreeSet::new();
    let mut submitted = 0usize;
    for (pos, item) in items.into_iter().enumerate().skip(done_prior) {
        let mut source = None;
        if use_cache {
            let (key, assembled) = source_keys.of(&item);
            match leader_of.entry(key) {
                Entry::Occupied(leader) => {
                    followers.entry(*leader.get()).or_default().push(pos);
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
        let policy = opts.policy.clone();
        outstanding.insert(pos);
        pool.submit(pos, move || {
            if task_panic_fires(&policy.chaos, pos) {
                panic!("chaos: injected pool-task panic");
            }
            check_item(&item, source, sim, &policy)
        });
        submitted += 1;
    }
    stats.checks_run = submitted;
    let stall_timeout = opts.stall_timeout.unwrap_or(RESULT_TIMEOUT);
    // With a cancel token attached, wait in short slices so cancellation
    // latency is bounded by the slice, not the stall window; without one,
    // a single long wait per result.
    let slice = if hooks.cancel.is_some() {
        Duration::from_millis(50).min(stall_timeout)
    } else {
        stall_timeout
    };
    let mut reorder = ReorderBuffer::new(done_prior);
    let mut stalled = false;
    // Records leave the reorder buffer in canonical order, to the journal,
    // the hooks and the run.
    let mut emit = |rec: Record| {
        if let Some(w) = &writer {
            w.write(rec.to_journal_line());
        }
        hooks.observe(&rec, records.len() + 1, total);
        records.push(rec);
    };
    'recv: for _received in 0..submitted {
        let waited = Instant::now();
        let (pos, result) = loop {
            if hooks.cancelled() {
                interrupted = true;
                break 'recv;
            }
            match pool.recv_timeout(slice) {
                Ok(r) => break r,
                Err(_) if waited.elapsed() >= stall_timeout => {
                    stalled = true;
                    break 'recv;
                }
                Err(_) => {}
            }
        };
        outstanding.remove(&pos);
        let rec = match result {
            Ok(r) => r,
            // The per-check guard already converts checker panics into
            // fault records, so this arm only fires if the task panicked in
            // pool plumbing around the check. It still costs exactly one
            // fault record, like any harness fault.
            Err(_panic_msg) => metas[pos - done_prior].fault_record(FaultKind::Panic),
        };
        // Replay the leader's outcome into its parked duplicates. Duplicate
        // positions are always greater than the leader's, so pushing them
        // here keeps the reorder buffer contiguous.
        if let Some(dups) = followers.remove(&pos) {
            let cached = CachedCheck::of(&rec);
            for dup in dups {
                reorder.push(dup, cached.replay(metas[dup - done_prior]));
            }
        }
        reorder.push(pos, rec);
        while let Some(rec) = reorder.pop_ready() {
            emit(rec);
        }
    }
    if stalled {
        // No result arrived within the stall window: at least one worker is
        // wedged in a check that escaped per-check supervision. Degrade
        // instead of aborting — every item still owed a result becomes a
        // hard-timeout stall *record*, so the sweep completes and
        // `--resume` sees a coherent journal.
        vgen_obs::counter_add("pool.stall", outstanding.len() as u64);
        eprintln!(
            "[eval] worker pool stalled; recording {} outstanding check(s) as hard timeouts",
            outstanding.len()
        );
        for pos in std::mem::take(&mut outstanding) {
            let rec = metas[pos - done_prior].fault_record(FaultKind::HardTimeout);
            if let Some(dups) = followers.remove(&pos) {
                let cached = CachedCheck::of(&rec);
                for dup in dups {
                    reorder.push(dup, cached.replay(metas[dup - done_prior]));
                }
            }
            reorder.push(pos, rec);
        }
        while let Some(rec) = reorder.pop_ready() {
            emit(rec);
        }
    }
    if !interrupted {
        debug_assert_eq!(reorder.pending_len(), 0, "reorder buffer drained");
        debug_assert!(followers.is_empty(), "every follower replayed");
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

    if interrupted {
        // Finish the journal writer cleanly first: everything already
        // recorded stays a valid contiguous prefix for --resume.
        if let Some(w) = writer {
            w.finish()?;
        }
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
    if let Some(w) = writer {
        w.finish()?;
    }
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

    /// Functional pass rate per problem id (the §VI per-problem analysis).
    pub fn per_problem_functional(&self, n: usize) -> Vec<(u8, Tally)> {
        let mut ids: Vec<u8> = self.records.iter().map(|r| r.problem_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|pid| (pid, self.tally(|r| r.problem_id == pid && r.n == n)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let per = run.per_problem_functional(5);
        assert_eq!(per.len(), 3);
        assert_eq!(per[0].0, 1);
        assert!(per.iter().all(|(_, t)| t.total > 0));
    }

    #[test]
    fn latency_is_positive() {
        let mut engine = cg16_ft_engine();
        let run = run_engine(&mut engine, &small_cfg());
        assert!(run.mean_latency() > 0.0);
    }

    #[test]
    fn record_journal_roundtrip() {
        let mut rec = Record {
            problem_id: 7,
            difficulty: Difficulty::Intermediate,
            level: PromptLevel::High,
            temperature: 0.3,
            n: 25,
            compiled: true,
            passed: false,
            fault: false,
            fault_kind: None,
            latency_s: 1.625,
            lint: None,
        };
        let line = rec.to_journal_line();
        assert!(
            line.contains(",-,-,"),
            "absent lint and fault kind serialise as `-`: {line}"
        );
        assert_eq!(Record::from_journal_line(&line), Some(rec.clone()));
        rec.lint = Some(LintCounts {
            errors: 1,
            warnings: 2,
            per_rule: vec![(Rule::CombLoop, 1), (Rule::InferredLatch, 2)],
        });
        let line = rec.to_journal_line();
        assert_eq!(Record::from_journal_line(&line), Some(rec.clone()));
        // Fault records carry their kind through the journal.
        rec.compiled = false;
        rec.passed = false;
        rec.lint = None;
        rec.fault = true;
        for kind in [
            FaultKind::Panic,
            FaultKind::SoftTimeout,
            FaultKind::HardTimeout,
        ] {
            rec.fault_kind = Some(kind);
            let line = rec.to_journal_line();
            assert!(line.contains(kind.journal_tag()), "{line}");
            assert_eq!(Record::from_journal_line(&line), Some(rec.clone()));
        }
        assert_eq!(Record::from_journal_line("garbage"), None);
        assert_eq!(Record::from_journal_line("7,I,H,0.3"), None);
        assert_eq!(Record::from_journal_line(""), None);
    }

    #[test]
    fn corrupt_v3_line_fails_its_checksum() {
        let rec = Record {
            problem_id: 7,
            difficulty: Difficulty::Intermediate,
            level: PromptLevel::High,
            temperature: 0.3,
            n: 25,
            compiled: true,
            passed: true,
            fault: false,
            fault_kind: None,
            latency_s: 1.625,
            lint: Some(LintCounts::default()),
        };
        let line = rec.to_journal_line();
        assert_eq!(Record::from_journal_line(&line), Some(rec));
        // Flip any single byte of the payload: the checksum must catch it.
        let checksum_start = line.len() - 8;
        for i in 0..checksum_start {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x01;
            if let Ok(corrupt) = String::from_utf8(bytes) {
                assert_ne!(
                    Record::from_journal_line(&corrupt),
                    Record::from_journal_line(&line),
                    "flipping byte {i} went unnoticed: {corrupt}"
                );
            }
        }
        // A fault flag that disagrees with the kind field is rejected even
        // if someone recomputes the checksum over the inconsistent line.
        let forged_prefix = "7,I,H,0.3,25,0,0,1,1.625,-,-";
        let forged = format!(
            "{forged_prefix},{:08x}",
            fnv1a(forged_prefix.as_bytes()) & 0xffff_ffff
        );
        assert_eq!(Record::from_journal_line(&forged), None);
    }

    #[test]
    fn pre_v3_record_lines_are_rejected() {
        let line = Record {
            problem_id: 7,
            difficulty: Difficulty::Intermediate,
            level: PromptLevel::High,
            temperature: 0.3,
            n: 25,
            compiled: true,
            passed: false,
            fault: false,
            fault_kind: None,
            latency_s: 1.625,
            lint: None,
        }
        .to_journal_line();
        // The nine-field v1 and ten-field v2 shapes are what a v3 line
        // torn after its ninth or tenth comma looks like.
        assert_eq!(Record::from_journal_line(&strip_fields(&line, 3)), None);
        assert_eq!(Record::from_journal_line(&strip_fields(&line, 2)), None);
        assert!(Record::from_journal_line(&line).is_some());
    }

    #[test]
    fn fingerprint_depends_on_grid() {
        let a = config_fingerprint(&small_cfg());
        let mut other = small_cfg();
        other.problem_ids.push(9);
        assert_ne!(a, config_fingerprint(&other));
        assert_eq!(a, config_fingerprint(&small_cfg()));
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
    fn unknown_journal_version_is_a_clear_error() {
        let path = temp_journal("future-version");
        std::fs::write(
            &path,
            "# vgen-journal-v9 fingerprint=0000000000000000 engine=x\n",
        )
        .expect("write future journal");
        let err = read_journal_recovering(&path).expect_err("must reject");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("v9") && msg.contains("--resume"),
            "error must name the version and a way out: {msg}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every"), Ok(FsyncPolicy::EveryRecord));
        assert_eq!(
            FsyncPolicy::parse("interval:64"),
            Ok(FsyncPolicy::Interval(64))
        );
        for bad in ["", "sometimes", "interval:0", "interval:x", "interval:"] {
            assert!(FsyncPolicy::parse(bad).is_err(), "accepted `{bad}`");
        }
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
