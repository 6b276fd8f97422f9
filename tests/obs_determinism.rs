//! Tracing must be a pure observer: enabling `--trace`/`--metrics` cannot
//! change a byte of the report or the journal, at any worker count. These
//! tests run the CLI end to end (each invocation is its own process, so
//! the obs globals never interfere across cases) and also validate the
//! exported artifacts themselves.

use std::path::PathBuf;
use std::process::Command;

fn vgen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vgen"))
}

/// Runs a journaled sweep in its own directory (so the `journal:` line of
/// the report is identical across runs). Returns (stdout, journal bytes,
/// sweep dir).
fn sweep(dir_tag: &str, jobs: &str, extra: &[&str]) -> (Vec<u8>, Vec<u8>, PathBuf) {
    let dir = std::env::temp_dir().join("vgen-obs-tests").join(dir_tag);
    std::fs::create_dir_all(&dir).expect("create sweep dir");
    let journal = dir.join("sweep.log");
    let _ = std::fs::remove_file(&journal);
    let mut args = vec!["eval", "--journal", "sweep.log", "--jobs", jobs];
    args.extend_from_slice(extra);
    let out = vgen().args(&args).current_dir(&dir).output().expect("run");
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&journal).expect("journal exists");
    (out.stdout, bytes, dir)
}

/// Every pipeline stage the trace must cover (the instrumentation
/// contract; CI greps for the same list).
const STAGES: &[&str] = &[
    "generate",
    "parse",
    "lint",
    "elaborate",
    "simulate",
    "check",
];

#[test]
fn traced_runs_are_byte_identical_to_untraced_at_any_jobs() {
    let (plain1, journal_plain1, _) = sweep("plain-j1", "1", &[]);
    let (plain4, journal_plain4, _) = sweep("plain-j4", "4", &[]);
    let (traced1, journal_traced1, _) =
        sweep("traced-j1", "1", &["--trace", "trace.json", "--metrics"]);
    let (traced4, journal_traced4, _) =
        sweep("traced-j4", "4", &["--trace", "trace.json", "--metrics"]);
    assert_eq!(
        plain1, traced1,
        "tracing changed the stdout report at --jobs 1"
    );
    assert_eq!(
        plain4, traced4,
        "tracing changed the stdout report at --jobs 4"
    );
    assert_eq!(plain1, plain4, "report differs across --jobs");
    assert_eq!(
        journal_plain1, journal_traced1,
        "tracing changed the journal at --jobs 1"
    );
    assert_eq!(
        journal_plain4, journal_traced4,
        "tracing changed the journal at --jobs 4"
    );
    assert_eq!(
        journal_plain1, journal_plain4,
        "journal differs across --jobs"
    );
}

/// Every fsync policy journals the same bytes at any worker count, and
/// `journal.fsync` counts what the policy asks for: no sync, one per
/// record, or one per three records plus the final sync of the tail.
#[test]
fn fsync_policies_write_identical_journals_and_count_their_syncs() {
    let (_, reference, _) = sweep("fsync-reference", "1", &[]);
    let records = reference.iter().filter(|&&b| b == b'\n').count() - 1;
    let policies = [
        ("never", 0),
        ("every", records),
        ("interval:3", records / 3 + 1),
    ];
    for (i, (policy, syncs)) in policies.into_iter().enumerate() {
        for jobs in ["1", "4"] {
            let tag = format!("fsync-{i}-j{jobs}");
            let flags = ["--fsync", policy, "--metrics"];
            let (_, journal, dir) = sweep(&tag, jobs, &flags);
            assert!(
                journal == reference,
                "--fsync {policy} --jobs {jobs} changed the journal"
            );
            let metrics = std::fs::read_to_string(dir.join("sweep.log.metrics.json"))
                .expect("metrics sidecar");
            let metrics = vgen::obs::json::Json::parse(&metrics).expect("metrics JSON");
            let counted = metrics
                .get("counters")
                .expect("counters")
                .get("journal.fsync")
                .map_or(Some(0), |n| n.as_usize());
            assert_eq!(
                counted,
                Some(syncs),
                "journal.fsync under --fsync {policy} --jobs {jobs}"
            );
        }
    }
}

#[test]
fn trace_json_is_valid_and_covers_every_stage() {
    let (_, _, dir) = sweep("trace-content", "4", &["--trace", "trace.json"]);
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace written");
    assert!(
        vgen::obs::json::Json::parse(&trace).is_ok(),
        "trace is not well-formed JSON"
    );
    assert!(trace.contains("\"traceEvents\""));
    for stage in STAGES {
        assert!(
            trace.contains(&format!("\"name\": \"{stage}\"")),
            "trace is missing stage `{stage}`"
        );
    }
    // Worker lanes are named after their threads. Pooled checker threads
    // record onto the lane of the worker that sent each check, so they
    // never get a lane of their own.
    assert!(trace.contains("vgen-pool-0"), "missing worker lane name");
    assert!(
        !trace.contains("vgen-check"),
        "a checker thread got its own lane"
    );
}

#[test]
fn metrics_sidecars_are_valid_json() {
    let (_, _, dir) = sweep("metrics-content", "2", &["--metrics"]);
    let metrics = std::fs::read_to_string(dir.join("sweep.log.metrics.json")).expect("metrics");
    assert!(vgen::obs::json::Json::parse(&metrics).is_ok(), "{metrics}");
    for stage in STAGES {
        assert!(
            metrics.contains(&format!("\"{stage}\"")),
            "metrics missing stage `{stage}`"
        );
    }
    assert!(metrics.contains("\"p99_ns\""));
    assert!(metrics.contains("\"utilization\""));
    // The 17 mutant banks are built on the calling thread and a helper,
    // each exactly once, and the mutants the helper renders are counted
    // as a serial sweep counts them.
    assert!(
        metrics.contains("\"lm.bank_build\": 17,"),
        "each bank must be built exactly once: {metrics}"
    );
    let renders = |metrics: &str| {
        vgen::obs::json::Json::parse(metrics)
            .expect("metrics JSON")
            .get("counters")
            .and_then(|c| c.get("lm.mutant_render")?.as_usize())
    };
    let (_, _, serial) = sweep("metrics-serial", "1", &["--metrics"]);
    let serial = std::fs::read_to_string(serial.join("sweep.log.metrics.json")).expect("metrics");
    assert!(renders(&serial).is_some_and(|n| n > 0), "{serial}");
    assert_eq!(renders(&metrics), renders(&serial));
    // With no deadline, both workers run every check inline: none
    // crosses threads, so `guard.handoff` is 0 and never listed.
    assert!(
        !metrics.contains("\"guard.handoff\""),
        "a default-policy sweep handed a check off: {metrics}"
    );
    let stats = std::fs::read_to_string(dir.join("sweep.log.stats.json")).expect("stats");
    assert!(vgen::obs::json::Json::parse(&stats).is_ok(), "{stats}");
    assert!(stats.contains("\"checks_run\""));
    assert!(stats.contains("\"cache_hits\""));
    assert!(stats.contains("\"hit_rate\""));
}

/// The obs-smoke CI sweep's flags: injected soft timeouts that heal on
/// retry. The trace and both sidecars of such a run must parse under the
/// strict RFC 8259 parser.
#[test]
fn chaos_run_trace_and_sidecars_are_valid_json() {
    let flags = [
        "--chaos",
        "check.timeout:1%5",
        "--chaos-seed",
        "7",
        "--retries",
        "1",
        "--trace",
        "trace.json",
        "--metrics",
    ];
    let (_, _, dir) = sweep("chaos-artifacts", "4", &flags);
    for file in [
        "trace.json",
        "sweep.log.metrics.json",
        "sweep.log.stats.json",
    ] {
        let text = std::fs::read_to_string(dir.join(file)).expect(file);
        if let Err(e) = vgen::obs::json::Json::parse(&text) {
            panic!("{file} is not well-formed JSON: {e}");
        }
    }
    let metrics = std::fs::read_to_string(dir.join("sweep.log.metrics.json")).expect("metrics");
    assert!(
        metrics.contains("\"guard.chaos\""),
        "the chaos run injected no faults: {metrics}"
    );
}

#[test]
fn metrics_flag_prints_summary_to_stderr_not_stdout() {
    let dir = std::env::temp_dir().join("vgen-obs-tests").join("stderr");
    std::fs::create_dir_all(&dir).expect("create sweep dir");
    let _ = std::fs::remove_file(dir.join("sweep.log"));
    let out = vgen()
        .args(["eval", "--journal", "sweep.log", "--jobs", "2", "--metrics"])
        .current_dir(&dir)
        .output()
        .expect("run");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stderr.contains("vgen-obs metrics"), "{stderr}");
    assert!(stderr.contains("p99"), "{stderr}");
    assert!(
        !stdout.contains("vgen-obs metrics"),
        "metrics leaked into the deterministic stdout report"
    );
}
