//! `obs_overhead` — cost of the tracing layer on a real sweep.
//!
//! Runs the same evaluation sweep with tracing off and on, interleaved,
//! and takes the overhead as the median over reps of each adjacent pair's
//! time ratio: the two samples of a pair share the host's slow phases, and
//! the median drops the odd pair a scheduling hiccup skews. It verifies
//! the traced run produced byte-identical records, validates the exported
//! Chrome trace (well-formed JSON covering every pipeline stage) and
//! writes the measured overhead to `BENCH_obs.json`.
//!
//! A third measured variant runs traced *while a background thread drains
//! live snapshots* every few milliseconds — the daemon's `subscribe` path
//! at a far higher frequency than any real subscriber — so the snapshot
//! drain's cost is fenced separately from plain tracing.
//!
//! ```text
//! cargo run --release -p vgen-bench --bin obs_overhead -- --quick
//! cargo run --release -p vgen-bench --bin obs_overhead -- --quick --gate
//! ```
//!
//! `--gate` exits non-zero when either measured overhead (tracing, or
//! tracing + snapshot drain) exceeds [`OVERHEAD_BUDGET_PCT`] — the CI
//! regression fence for the observability layer's "near-zero cost"
//! promise.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vgen_bench::write_artifact;
use vgen_core::{run_engine, EvalConfig, EvalRun};
use vgen_corpus::CorpusSource;
use vgen_lm::{FamilyEngine, ModelFamily, ModelId, Tuning};
use vgen_problems::PromptLevel;
use vgen_sim::SimConfig;

/// Maximum tolerated slowdown from enabling tracing, in percent.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Back-to-back sweeps in one timed sample. One quick sweep takes about
/// 20 ms on a 2-vCPU host, where 1 ms of scheduler jitter alone is 5%;
/// five of them make a sample of ≈100 ms, so the budget measures tracing
/// rather than noise.
const SWEEPS_PER_SAMPLE: usize = 5;

/// Stages the exported trace must cover (the instrumentation contract).
const STAGES: &[&str] = &[
    "generate",
    "parse",
    "lint",
    "elaborate",
    "simulate",
    "check",
];

fn engine() -> FamilyEngine {
    FamilyEngine::new(
        ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
        CorpusSource::GithubOnly,
        42,
    )
}

/// The swept grid. After the warm-up the mutant banks come from the memo,
/// so a sweep is sampling and checks only; each timed sample repeats it
/// [`SWEEPS_PER_SAMPLE`] times.
fn config(quick: bool) -> EvalConfig {
    if quick {
        EvalConfig {
            temperatures: vec![0.1, 0.5],
            ns: vec![10],
            levels: PromptLevel::ALL.to_vec(),
            problem_ids: (1..=17).collect(),
            sim: SimConfig::default(),
        }
    } else {
        EvalConfig::paper_n10()
    }
}

/// [`SWEEPS_PER_SAMPLE`] identical sweeps, each with a fresh engine;
/// returns the last run.
fn sweeps(cfg: &EvalConfig) -> EvalRun {
    let sweep = || run_engine(&mut engine(), cfg);
    (1..SWEEPS_PER_SAMPLE).fold(sweep(), |_, _| sweep())
}

/// One timed sample. When `traced`, a fresh obs session wraps the sample
/// and the collected report is returned alongside.
fn run_once(cfg: &EvalConfig, traced: bool) -> (EvalRun, f64, Option<vgen_obs::ObsReport>) {
    if traced {
        vgen_obs::enable();
    }
    let start = Instant::now();
    let run = sweeps(cfg);
    let secs = start.elapsed().as_secs_f64();
    let report = traced.then(vgen_obs::collect);
    (run, secs, report)
}

/// A traced sample with a background subscriber draining a live snapshot
/// every ~5ms — far more often than any real `subscribe` interval. Returns
/// the run, the wall time, and the number of snapshots drained.
fn run_snapshotted(cfg: &EvalConfig) -> (EvalRun, f64, u64) {
    vgen_obs::enable();
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut drained = 0u64;
            let mut last = vgen_obs::snapshot();
            while !stop.load(Ordering::Relaxed) {
                let snap = vgen_obs::snapshot();
                let _ = snap.delta(&last);
                last = snap;
                drained += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            drained
        })
    };
    let start = Instant::now();
    let run = sweeps(cfg);
    let secs = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let drained = drainer.join().expect("snapshot drainer");
    let _ = vgen_obs::collect();
    (run, secs, drained)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let reps = if quick { 5 } else { 3 };
    let cfg = config(quick);

    // Warm-up: fault in code pages and the problem/corpus statics, and fill
    // the mutant-bank memo, so the first measured rep isn't paying one-time
    // costs.
    let (baseline_run, _, _) = run_once(&cfg, false);

    // Interleave plain/traced/snapshotted samples so clock drift and slow
    // phases of the host hit all three sides of a rep alike.
    let mut plain = Vec::with_capacity(reps);
    let mut traced = Vec::with_capacity(reps);
    let mut snapshotted = Vec::with_capacity(reps);
    let mut snapshots_drained = 0u64;
    let mut last_report = None;
    for _ in 0..reps {
        let (run, secs, _) = run_once(&cfg, false);
        assert_eq!(run, baseline_run, "untraced runs disagree");
        plain.push(secs);
        let (run, secs, report) = run_once(&cfg, true);
        assert_eq!(
            run, baseline_run,
            "tracing changed the records — determinism broken"
        );
        traced.push(secs);
        last_report = report;
        let (run, secs, drained) = run_snapshotted(&cfg);
        assert_eq!(
            run, baseline_run,
            "live snapshot drains changed the records — determinism broken"
        );
        snapshotted.push(secs);
        snapshots_drained = snapshots_drained.max(drained);
    }

    // Self-validate the export path on the final traced report.
    let report = last_report.expect("traced rep ran");
    let trace = vgen_obs::trace::chrome_trace_json(&report);
    assert!(
        vgen_obs::json::Json::parse(&trace).is_ok(),
        "trace export is not well-formed JSON"
    );
    for stage in STAGES {
        assert!(
            trace.contains(&format!("\"name\": \"{stage}\"")),
            "trace is missing stage `{stage}`"
        );
        assert!(
            report.hists.contains_key(stage),
            "no duration histogram for stage `{stage}`"
        );
    }

    let overhead_pct = (median_ratio(&traced, &plain) - 1.0) * 100.0;
    let snapshot_overhead_pct = (median_ratio(&snapshotted, &plain) - 1.0) * 100.0;
    let (plain, traced, snapshotted) = (median(plain), median(traced), median(snapshotted));
    let checks = baseline_run.records.len();
    println!(
        "obs_overhead: {checks} records, {reps} interleaved samples of \
         {SWEEPS_PER_SAMPLE} sweeps, medians: \
         plain {plain:.4}s, traced {traced:.4}s, overhead {overhead_pct:+.2}%"
    );
    println!(
        "snapshot drain: {snapshotted:.4}s ({snapshot_overhead_pct:+.2}%), \
         {snapshots_drained} snapshots drained"
    );
    println!(
        "trace: {} span events, {} stages, {} dropped",
        report.events.len(),
        report.hists.len(),
        report.dropped_events
    );

    let json = render_json(
        quick,
        checks,
        reps,
        plain,
        traced,
        overhead_pct,
        snapshotted,
        snapshot_overhead_pct,
        &report,
    );
    write_artifact("BENCH_obs.json", &json);
    if let Some(path) = out_path {
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if gate && overhead_pct > OVERHEAD_BUDGET_PCT {
        eprintln!(
            "FAIL: tracing overhead {overhead_pct:.2}% exceeds the \
             {OVERHEAD_BUDGET_PCT:.0}% budget"
        );
        std::process::exit(1);
    }
    if gate && snapshot_overhead_pct > OVERHEAD_BUDGET_PCT {
        eprintln!(
            "FAIL: snapshot-drain overhead {snapshot_overhead_pct:.2}% exceeds \
             the {OVERHEAD_BUDGET_PCT:.0}% budget"
        );
        std::process::exit(1);
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// The median over reps of `side[i] / plain[i]`: each ratio compares two
/// samples taken back to back.
fn median_ratio(side: &[f64], plain: &[f64]) -> f64 {
    median(side.iter().zip(plain).map(|(s, p)| s / p).collect())
}

/// Hand-rolled JSON (no serde in this environment): a stable, diffable
/// shape for the overhead trajectory. `stage_coverage` and `span_events`
/// are deterministic for a fixed workload, so `bench_gate` can hold them
/// as ratio floors; the overhead percentages are machine-dependent and
/// fenced absolutely by `--gate` here instead.
#[allow(clippy::too_many_arguments)]
fn render_json(
    quick: bool,
    checks: usize,
    reps: usize,
    plain: f64,
    traced: f64,
    overhead_pct: f64,
    snapshotted: f64,
    snapshot_overhead_pct: f64,
    report: &vgen_obs::ObsReport,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"obs_overhead\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"records\": {checks},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"sweeps_per_sample\": {SWEEPS_PER_SAMPLE},\n"));
    out.push_str(&format!("  \"plain_seconds\": {plain:.6},\n"));
    out.push_str(&format!("  \"traced_seconds\": {traced:.6},\n"));
    out.push_str(&format!("  \"overhead_pct\": {overhead_pct:.3},\n"));
    out.push_str(&format!("  \"snapshot_seconds\": {snapshotted:.6},\n"));
    out.push_str(&format!(
        "  \"snapshot_overhead_pct\": {snapshot_overhead_pct:.3},\n"
    ));
    out.push_str(&format!("  \"budget_pct\": {OVERHEAD_BUDGET_PCT:.1},\n"));
    out.push_str(&format!("  \"stage_coverage\": {},\n", report.hists.len()));
    out.push_str(&format!("  \"span_events\": {},\n", report.events.len()));
    out.push_str(&format!(
        "  \"dropped_events\": {},\n",
        report.dropped_events
    ));
    out.push_str(&format!(
        "  \"stages\": [{}]\n",
        report
            .hists
            .keys()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("}\n");
    out
}
