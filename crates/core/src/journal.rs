//! The sweep journal: the one on-disk format a sweep writes and resumes
//! from, and its I/O.
//!
//! A journal is a header line (`# vgen-journal-v3 fingerprint=… engine=…`)
//! followed by one line per [`Record`], in canonical order. Each record line
//! carries twelve comma-separated fields: nine verdict fields, the lint
//! tallies, a fault-kind tag and an FNV-1a checksum of everything before
//! it. Recovery ([`read_journal_recovering`]) keeps the longest prefix of
//! lines that parse and checksum; everything from the first bad line on is
//! re-checked on resume.
//!
//! A sweep holds one `Journal` and appends each record on the merging
//! thread as the emission cursor passes it. Appends are buffered and
//! written as one burst (`Journal::flush`) when the sweep is about to
//! wait for a check, when a burst reaches 256 records, when the sweep
//! ends, and after every record its [`FsyncPolicy`] syncs after, so the
//! file is always a contiguous prefix of the canonical record stream at
//! any worker count.
//! Opening writes the header (and, on resume, the kept records) to a
//! sibling `<journal>.tmp` and renames it over the journal, so a crash
//! while the file is rewritten leaves the old journal whole.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use vgen_lint::Rule;
use vgen_problems::{Difficulty, PromptLevel};

use crate::chaos::{ChaosSite, ChaosSpec};
use crate::check::{FaultKind, LintCounts};
use crate::sweep::{EvalConfig, Record};

/// Journal format marker (first token of the header line), the only
/// format this build reads or writes.
const JOURNAL_MAGIC: &str = "vgen-journal-v3";

/// FNV-1a 64: the config fingerprint, the per-record checksum and the
/// sweep's dedup key.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
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
                Some(l) => lint_field(l),
                None => "-".to_string(),
            },
            fault_tag(self.fault_kind),
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
            difficulty: untag(Difficulty::ALL, difficulty_tag, it.next()?)?,
            level: untag(PromptLevel::ALL, PromptLevel::tag, it.next()?)?,
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
            rec.lint = Some(parse_lint_field(lint_field)?);
        }
        rec.fault_kind = untag(FAULT_KINDS, fault_tag, it.next()?)?;
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

/// Parses a tag field by finding the value the writer gives that tag, so
/// reading and writing cannot drift apart. `None` means a torn line.
fn untag<T: Copy>(
    all: impl IntoIterator<Item = T>,
    tag: fn(T) -> &'static str,
    s: &str,
) -> Option<T> {
    all.into_iter().find(|&v| tag(v) == s)
}

fn difficulty_tag(d: Difficulty) -> &'static str {
    match d {
        Difficulty::Basic => "B",
        Difficulty::Intermediate => "I",
        Difficulty::Advanced => "A",
    }
}

fn parse_flag(s: &str) -> Option<bool> {
    match s {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

const FAULT_KINDS: [Option<FaultKind>; 4] = [
    None,
    Some(FaultKind::Panic),
    Some(FaultKind::SoftTimeout),
    Some(FaultKind::HardTimeout),
];

/// The fault-kind field: `-` for a record with a verdict, else one token.
fn fault_tag(kind: Option<FaultKind>) -> &'static str {
    match kind {
        None => "-",
        Some(FaultKind::Panic) => "panic",
        Some(FaultKind::SoftTimeout) => "soft",
        Some(FaultKind::HardTimeout) => "hard",
    }
}

/// The lint-tally field: `errors:warnings[:rule=count|rule=count|...]`.
/// Contains no comma, so it nests inside the comma-separated record line.
fn lint_field(counts: &LintCounts) -> String {
    let mut out = format!("{}:{}", counts.errors, counts.warnings);
    if !counts.per_rule.is_empty() {
        out.push(':');
        let rules: Vec<String> = counts
            .per_rule
            .iter()
            .map(|(r, n)| format!("{}={n}", r.name()))
            .collect();
        out.push_str(&rules.join("|"));
    }
    out
}

/// Parses a [`lint_field`]. Returns `None` on any malformed piece,
/// including a per-rule sum that disagrees with the severity totals (a
/// torn journal write).
fn parse_lint_field(s: &str) -> Option<LintCounts> {
    let mut it = s.splitn(3, ':');
    let errors: u32 = it.next()?.parse().ok()?;
    let warnings: u32 = it.next()?.parse().ok()?;
    let mut per_rule = Vec::new();
    if let Some(rules) = it.next() {
        let mut prev: Option<Rule> = None;
        for part in rules.split('|') {
            let (name, count) = part.split_once('=')?;
            let rule = Rule::from_name(name)?;
            let n: u32 = count.parse().ok()?;
            if n == 0 || prev.is_some_and(|p| p >= rule) {
                return None; // zero counts and out-of-order rules are never written
            }
            prev = Some(rule);
            per_rule.push((rule, n));
        }
    }
    let total: u32 = per_rule.iter().map(|(_, n)| n).sum();
    if total != errors.checked_add(warnings)? {
        return None;
    }
    Some(LintCounts {
        errors,
        warnings,
        per_rule,
    })
}

/// When a sweep calls fsync (`File::sync_data`) on its journal.
/// Independent of the burst *write*, which always happens: a written-but-
/// unsynced journal survives a process kill (the contiguous-prefix
/// invariant holds), while fsync is about surviving power loss or a host
/// crash, where the page cache dies with the kernel. A record the policy
/// syncs after ends its burst, so it is written and synced before the
/// next record is appended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync — the historical behaviour and the default. A `kill -9`
    /// loses at most the current burst's records, which no daemon
    /// progress event has announced yet and which `--resume` re-checks; an
    /// OS crash may lose the unsynced tail (which recovery then truncates
    /// away).
    #[default]
    Never,
    /// fsync after every record: maximal durability, one write and one
    /// device round-trip per check.
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

/// What [`read_journal_recovering`] had to do to make sense of a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Well-formed records kept — the longest valid prefix.
    pub kept: usize,
    /// Lines dropped after the valid prefix: the first torn/corrupt line
    /// and everything after it. `0` for a clean journal.
    pub dropped_lines: usize,
}

fn invalid(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
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
        return Err(invalid("empty journal"));
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
        .ok_or_else(|| invalid("not a vgen journal"))?;
    let rest = if let Some(r) = header.strip_prefix(&format!("# {JOURNAL_MAGIC} fingerprint=")) {
        r
    } else if let Some(r) = header.strip_prefix("# vgen-journal-v") {
        // Any other format: refuse loudly rather than misparse its records
        // as torn lines and silently re-run the whole grid over them.
        let version = r.chars().take_while(char::is_ascii_digit).collect();
        return Err(invalid(UnsupportedJournalVersion { version }));
    } else {
        return Err(invalid("not a vgen journal"));
    };
    let (fp_hex, engine) = rest
        .split_once(" engine=")
        .ok_or_else(|| invalid("malformed journal header"))?;
    // A shard-tagged header (`shard=i/n` between fingerprint and engine)
    // holds a fraction of the grid; it fails here as a malformed
    // fingerprint rather than resuming as if it were the whole run.
    let fp =
        u64::from_str_radix(fp_hex, 16).map_err(|_| invalid("malformed journal fingerprint"))?;
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

/// An open journal a sweep appends its records to, one line per record.
/// Appended lines are buffered until [`Journal::flush`] writes them as one
/// burst (or the fsync policy syncs after a record, which writes its
/// burst first). It keeps the first write error and writes nothing after
/// it, so the file stays a contiguous prefix of the record stream;
/// [`Journal::finish`] reports that error.
pub(crate) struct Journal {
    file: File,
    fsync: FsyncPolicy,
    chaos: ChaosSpec,
    since_sync: u32,
    /// Lines appended since the last burst was written.
    burst: Vec<u8>,
    error: Option<io::Error>,
}

impl Journal {
    /// Opens the journal at `path` for a sweep of `engine` over the grid
    /// fingerprinted `fp`. With `resume` and an existing file, that file
    /// must be a v3 journal of the same engine and fingerprint; its valid
    /// prefix is returned with the [`RecoveryReport`]. The file is then
    /// replaced by the header plus that prefix, which drops a torn tail:
    /// they are written to `<path>.tmp`, which is renamed over `path` and
    /// appended to from then on. Unless the policy is
    /// [`FsyncPolicy::Never`], the temp file is synced before the rename
    /// and its directory after it.
    pub(crate) fn open(
        path: &Path,
        resume: bool,
        engine: &str,
        fp: u64,
        fsync: FsyncPolicy,
        chaos: &ChaosSpec,
    ) -> io::Result<(Journal, Vec<Record>, RecoveryReport)> {
        let mut prior = Vec::new();
        let mut recovery = RecoveryReport::default();
        if resume && path.exists() {
            let (jname, jfp, recs, report) = read_journal_recovering(path)?;
            if jname != engine {
                return Err(invalid(format!(
                    "journal is for engine `{jname}`, not `{engine}`"
                )));
            }
            if jfp != fp {
                return Err(invalid(format!(
                    "journal config fingerprint {jfp:016x} != {fp:016x}"
                )));
            }
            if report.dropped_lines > 0 {
                vgen_obs::counter_add("journal.repair", report.dropped_lines as u64);
            }
            (prior, recovery) = (recs, report);
        }
        let mut text = journal_header(fp, engine, None);
        text.push('\n');
        for r in &prior {
            text.push_str(&r.to_journal_line());
            text.push('\n');
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.flush()?;
        if fsync != FsyncPolicy::Never {
            file.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        if fsync != FsyncPolicy::Never {
            // Records synced later land in the renamed file, so the rename
            // must be durable too.
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        let journal = Journal {
            file,
            fsync,
            chaos: chaos.clone(),
            since_sync: 0,
            burst: Vec::new(),
            error: None,
        };
        Ok((journal, prior, recovery))
    }

    /// Appends one record line to the current burst, unless an earlier
    /// write failed.
    pub(crate) fn append(&mut self, rec: &Record) {
        if self.error.is_none() {
            self.error = self.append_line(rec.to_journal_line()).err();
        }
    }

    /// Writes the current burst with one write, unless an earlier write
    /// failed.
    pub(crate) fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.write_burst().err();
        }
    }

    fn append_line(&mut self, line: String) -> io::Result<()> {
        if let Some(prefix) = self.chaos.fires(ChaosSite::JournalTorn, line.as_bytes()) {
            // Injected torn write followed by a crash: persist the burst
            // so far and only a prefix of this line (synced, so it is
            // really on disk) and fail the journal the way a dying
            // process would.
            let cut = (prefix as usize).min(line.len());
            self.burst.extend_from_slice(&line.as_bytes()[..cut]);
            self.write_burst()?;
            let _ = self.file.sync_data();
            vgen_obs::counter_add("journal.torn", 1);
            return Err(io::Error::other("chaos: injected torn journal write"));
        }
        self.burst.extend_from_slice(line.as_bytes());
        self.burst.push(b'\n');
        vgen_obs::counter_add("journal.write", 1);
        match self.fsync {
            FsyncPolicy::Never => Ok(()),
            FsyncPolicy::EveryRecord => self.sync(),
            FsyncPolicy::Interval(n) => {
                self.since_sync += 1;
                if self.since_sync < n.max(1) {
                    return Ok(());
                }
                self.since_sync = 0;
                self.sync()
            }
        }
    }

    fn write_burst(&mut self) -> io::Result<()> {
        if !self.burst.is_empty() {
            self.file.write_all(&self.burst)?;
            self.burst.clear();
        }
        Ok(())
    }

    /// Writes the current burst and syncs it.
    fn sync(&mut self) -> io::Result<()> {
        self.write_burst()?;
        self.file.sync_data()?;
        vgen_obs::counter_add("journal.fsync", 1);
        Ok(())
    }

    /// Ends the journal: writes the last burst, then returns the first
    /// write error if there was one, else runs the final sync an interval
    /// policy owes for its uncovered tail.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.flush();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if matches!(self.fsync, FsyncPolicy::Interval(_)) {
            self.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgen_sim::SimConfig;

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            temperatures: vec![0.1, 0.7],
            ns: vec![5],
            levels: vec![PromptLevel::Low],
            problem_ids: vec![1, 2, 6],
            sim: SimConfig::default(),
        }
    }

    fn sample_record() -> Record {
        Record {
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
    }

    #[test]
    fn record_journal_roundtrip() {
        let mut rec = sample_record();
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
            assert!(line.contains(fault_tag(Some(kind))), "{line}");
            assert_eq!(Record::from_journal_line(&line), Some(rec.clone()));
        }
        assert_eq!(Record::from_journal_line("garbage"), None);
        assert_eq!(Record::from_journal_line("7,I,H,0.3"), None);
        assert_eq!(Record::from_journal_line(""), None);
    }

    #[test]
    fn corrupt_v3_line_fails_its_checksum() {
        let rec = Record {
            passed: true,
            lint: Some(LintCounts::default()),
            ..sample_record()
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
        let line = sample_record().to_journal_line();
        let fields: Vec<&str> = line.split(',').collect();
        // The nine-field v1 and ten-field v2 shapes are what a v3 line
        // torn after its ninth or tenth comma looks like.
        assert_eq!(Record::from_journal_line(&fields[..9].join(",")), None);
        assert_eq!(Record::from_journal_line(&fields[..10].join(",")), None);
        assert!(Record::from_journal_line(&line).is_some());
    }

    #[test]
    fn lint_field_roundtrip() {
        let cases = [
            LintCounts::default(),
            LintCounts {
                errors: 2,
                warnings: 1,
                per_rule: vec![(Rule::MultiDrivenNet, 2), (Rule::IncompleteSensitivity, 1)],
            },
        ];
        for c in cases {
            let field = lint_field(&c);
            assert!(!field.contains(','), "journal field must stay comma-free");
            assert_eq!(parse_lint_field(&field), Some(c));
        }
        // Malformed pieces: garbage, torn sums, unknown rules, bad order.
        for bad in [
            "",
            "x:0",
            "1:0", // totals claim 1, rules claim 0
            "0:1:unknown-rule=1",
            "0:2:unused-signal=1|inferred-latch=1", // out of canonical order
            "0:1:unused-signal=0",
            "1:0:multi-driven-net=1|multi-driven-net=1",
        ] {
            assert_eq!(parse_lint_field(bad), None, "accepted `{bad}`");
        }
    }

    #[test]
    fn fingerprint_depends_on_grid() {
        let a = config_fingerprint(&small_cfg());
        let mut other = small_cfg();
        other.problem_ids.push(9);
        assert_ne!(a, config_fingerprint(&other));
        assert_eq!(a, config_fingerprint(&small_cfg()));
    }

    #[test]
    fn unknown_journal_version_is_a_clear_error() {
        let path = std::env::temp_dir().join(format!(
            "vgen-journal-unit-{}-future.log",
            std::process::id()
        ));
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

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "vgen-journal-unit-{}-{tag}.log",
            std::process::id()
        ))
    }

    /// `n` distinct records.
    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record {
                latency_s: i as f64 / 8.0,
                ..sample_record()
            })
            .collect()
    }

    fn header_line() -> String {
        journal_header(7, "e", None) + "\n"
    }

    #[test]
    fn appends_reach_the_file_when_their_burst_is_written() {
        let path = temp_journal("burst");
        let (mut journal, _, _) = Journal::open(
            &path,
            false,
            "e",
            7,
            FsyncPolicy::Never,
            &ChaosSpec::default(),
        )
        .expect("open journal");
        let recs = records(3);
        let mut expected = header_line();
        for rec in &recs {
            journal.append(rec);
            assert_eq!(std::fs::read_to_string(&path).ok(), Some(expected.clone()));
        }
        for rec in &recs {
            expected.push_str(&rec.to_journal_line());
            expected.push('\n');
        }
        journal.flush();
        assert_eq!(std::fs::read_to_string(&path).ok(), Some(expected.clone()));
        journal.append(&recs[0]);
        journal.finish().expect("clean finish");
        expected.push_str(&recs[0].to_journal_line());
        expected.push('\n');
        assert_eq!(std::fs::read_to_string(&path).ok(), Some(expected));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_append_writes_its_burst_before_the_torn_prefix() {
        let path = temp_journal("torn");
        let chaos = ChaosSpec::parse("journal.torn:9%4", 2).expect("valid spec");
        let (mut journal, _, _) =
            Journal::open(&path, false, "e", 7, FsyncPolicy::Never, &chaos).expect("open journal");
        let recs = records(40);
        let line = |rec: &Record| rec.to_journal_line();
        let tear = recs
            .iter()
            .position(|rec| {
                chaos
                    .fires(ChaosSite::JournalTorn, line(rec).as_bytes())
                    .is_some()
            })
            .expect("the tear fires on one of the records");
        assert!(tear >= 2, "the torn line has a burst before it");
        // One burst: nothing is written until the tear.
        for rec in &recs {
            journal.append(rec);
        }
        let err = journal.finish().expect_err("the tear fails the journal");
        assert!(err.to_string().contains("torn"), "{err}");
        let mut expected = header_line();
        for rec in &recs[..tear] {
            expected.push_str(&line(rec));
            expected.push('\n');
        }
        expected.push_str(&line(&recs[tear])[..9]);
        assert_eq!(std::fs::read_to_string(&path).ok(), Some(expected));
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
}
