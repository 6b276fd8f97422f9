//! Property-based coverage for crash-safe journal recovery: corrupt any
//! single byte of a v3 journal's record region, or truncate it at any
//! offset, and recovery must keep exactly the longest valid prefix —
//! after which `--resume` reconstructs a run and journal byte-identical
//! to the uninterrupted one. The per-record checksum is what makes this
//! hold for *any* corruption, not just newline-aligned truncation.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use vgen::core::{
    config_fingerprint, journal_header, read_journal_recovering, run_engine_sweep, EvalConfig,
    EvalRun, SweepHooks, SweepOptions,
};
use vgen::lm::engine::{Completion, CompletionEngine};
use vgen::problems::{Problem, PromptLevel};
use vgen::sim::SimConfig;

/// Deterministic engine with a small mixed palette so records span
/// pass / functional-fail / compile-fail outcomes.
struct PaletteEngine {
    cursor: usize,
}

impl CompletionEngine for PaletteEngine {
    fn name(&self) -> String {
        "journal-recovery".into()
    }

    fn generate(
        &mut self,
        _problem: &Problem,
        _level: PromptLevel,
        _temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        let palette = [
            "assign y = a & b;\nendmodule\n",
            "assign y = a | b;\nendmodule\n",
            "assign y = a & ;\nendmodule\n",
        ];
        (0..n)
            .map(|_| {
                let text = palette[self.cursor % palette.len()].to_string();
                self.cursor += 1;
                Completion {
                    text,
                    latency_s: 0.001,
                }
            })
            .collect()
    }
}

fn cfg() -> EvalConfig {
    EvalConfig {
        temperatures: vec![0.3],
        ns: vec![5],
        levels: vec![PromptLevel::Low],
        problem_ids: vec![1, 2],
        sim: SimConfig::default(),
    }
}

fn scratch_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vgen-journal-recovery");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}-{}.log", std::process::id()))
}

/// The uninterrupted reference run: its `EvalRun`, the journal's bytes,
/// and the byte length of the header line (including its newline).
fn reference() -> &'static (EvalRun, Vec<u8>, usize) {
    static REF: OnceLock<(EvalRun, Vec<u8>, usize)> = OnceLock::new();
    REF.get_or_init(|| {
        let path = scratch_path("reference");
        let _ = std::fs::remove_file(&path);
        let (run, _) = run_engine_sweep(
            &mut PaletteEngine { cursor: 0 },
            &cfg(),
            Some((&path, false)),
            &SweepOptions::default(),
            &SweepHooks::default(),
        )
        .expect("reference sweep");
        let bytes = std::fs::read(&path).expect("journal bytes");
        let _ = std::fs::remove_file(&path);
        let header_len = bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("journal has a header line")
            + 1;
        (run, bytes, header_len)
    })
}

/// Complete record lines strictly before byte `offset`: every newline in
/// `bytes[..offset]` terminates one line, minus one for the header.
fn records_before(bytes: &[u8], offset: usize) -> usize {
    bytes[..offset].iter().filter(|&&b| b == b'\n').count() - 1
}

/// Resumes from whatever `damaged` holds and checks the rebuilt run and
/// rewritten journal match the reference exactly.
fn resume_matches_reference(
    tag: &str,
    damaged: &[u8],
    expect_kept: usize,
) -> Result<(), TestCaseError> {
    let (full_run, full_bytes, _) = reference();
    let path = scratch_path(tag);
    std::fs::write(&path, damaged).expect("write damaged journal");

    let (_, _, recs, _) = read_journal_recovering(&path).expect("recovery must not error");
    prop_assert_eq!(
        recs.len(),
        expect_kept,
        "recovery kept {} records, expected the longest valid prefix of {}",
        recs.len(),
        expect_kept
    );

    let (resumed, stats) = run_engine_sweep(
        &mut PaletteEngine { cursor: 0 },
        &cfg(),
        Some((&path, true)),
        &SweepOptions::default(),
        &SweepHooks::default(),
    )
    .expect("resume from damaged journal");
    let resumed_bytes = std::fs::read(&path).expect("journal bytes");
    let _ = std::fs::remove_file(&path);

    prop_assert_eq!(stats.resumed_records, expect_kept);
    prop_assert_eq!(&resumed, full_run, "resumed run diverged from reference");
    prop_assert_eq!(
        &resumed_bytes,
        full_bytes,
        "resumed journal bytes diverged from reference"
    );
    Ok(())
}

/// A journal whose header carries a `shard=i/n` tag (between fingerprint
/// and engine) holds only a fraction of the grid. Resume refuses it as a
/// malformed header and leaves the file exactly as it was.
#[test]
fn shard_tagged_journal_is_refused_on_resume_and_left_unmodified() {
    let (_, bytes, header_len) = reference();
    let header = journal_header(
        config_fingerprint(&cfg()),
        &PaletteEngine { cursor: 0 }.name(),
        Some((1, 3)),
    );
    let mut tagged = format!("{header}\n").into_bytes();
    tagged.extend_from_slice(&bytes[*header_len..]);
    let path = scratch_path("shard-tagged");
    std::fs::write(&path, &tagged).expect("write tagged journal");

    let err = run_engine_sweep(
        &mut PaletteEngine { cursor: 0 },
        &cfg(),
        Some((&path, true)),
        &SweepOptions::default(),
        &SweepHooks::default(),
    )
    .expect_err("a shard-tagged journal must not resume");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("malformed journal fingerprint"),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&path).expect("journal bytes"),
        tagged,
        "a refused journal must be left unmodified"
    );
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #[test]
    fn any_corrupted_byte_truncates_to_longest_valid_prefix(
        raw_offset in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let (_, bytes, header_len) = reference();
        // Corrupt one byte anywhere in the record region (the header is
        // covered by the unknown-version and fingerprint checks instead).
        let offset = header_len + raw_offset % (bytes.len() - header_len);
        let mut damaged = bytes.clone();
        damaged[offset] ^= flip;
        // The checksum pins every byte of its line, so recovery must keep
        // exactly the records whose lines end before the corrupted one.
        let kept = records_before(&damaged, offset);
        resume_matches_reference("corrupt-byte", &damaged, kept)?;
    }

    #[test]
    fn any_truncation_point_resumes_to_the_reference(
        raw_offset in any::<usize>(),
    ) {
        let (_, bytes, header_len) = reference();
        // Cut the journal anywhere after the header — mid-line cuts model
        // a process killed between write() and the trailing newline.
        let cut = header_len + raw_offset % (bytes.len() - header_len + 1);
        let damaged = &bytes[..cut];
        // A cut landing exactly before a line's newline leaves a complete
        // tail line whose checksum still verifies — recovery keeps it.
        let tail_complete = cut < bytes.len() && bytes[cut] == b'\n';
        let kept = records_before(damaged, cut) + usize::from(tail_complete);
        resume_matches_reference("truncate", damaged, kept)?;
    }
}
