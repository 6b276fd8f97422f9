//! `sweep_scaling` — serial vs N-worker sweep throughput.
//!
//! Runs the same evaluation sweep at worker counts 1, 2 and 4 (plus the
//! machine's available parallelism when that is higher), measures
//! checks/second for the check phase, verifies that every parallel run
//! produced records identical to the serial baseline, and writes the
//! trajectory to `BENCH_sweep.json` under `target/experiments/` (and, for
//! CI artifact pickup, to a `--out` path if given).
//!
//! ```text
//! cargo run --release -p vgen-bench --bin sweep_scaling            # full grid
//! cargo run --release -p vgen-bench --bin sweep_scaling -- --quick # CI smoke
//! ```

use std::time::Instant;

use vgen_bench::write_artifact;
use vgen_core::{run_engine, run_engine_sweep, EvalConfig, EvalRun, SweepHooks, SweepOptions};
use vgen_corpus::CorpusSource;
use vgen_lm::{FamilyEngine, ModelFamily, ModelId, Tuning};
use vgen_problems::PromptLevel;
use vgen_sim::SimConfig;

/// One measured point of the scaling curve.
struct Sample {
    jobs: usize,
    seconds: f64,
    checks_per_sec: f64,
    speedup: f64,
}

fn engine() -> FamilyEngine {
    FamilyEngine::new(
        ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
        CorpusSource::GithubOnly,
        42,
    )
}

fn config(quick: bool) -> EvalConfig {
    if quick {
        EvalConfig {
            temperatures: vec![0.1],
            ns: vec![4],
            levels: vec![PromptLevel::Low],
            problem_ids: (1..=17).collect(),
            sim: SimConfig::default(),
        }
    } else {
        EvalConfig {
            temperatures: vec![0.1, 0.5],
            ns: vec![10],
            levels: PromptLevel::ALL.to_vec(),
            problem_ids: (1..=17).collect(),
            sim: SimConfig::default(),
        }
    }
}

/// Times one sweep at `jobs` workers, returning the run and its wall time
/// (best of `reps`, so a stray scheduling hiccup doesn't skew a point).
fn measure(cfg: &EvalConfig, jobs: usize, reps: usize) -> (EvalRun, f64) {
    let mut best = f64::INFINITY;
    let mut run = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let opts = SweepOptions {
            jobs,
            ..SweepOptions::default()
        };
        let (r, _) = run_engine_sweep(&mut engine(), cfg, None, &opts, &SweepHooks::default())
            .expect("sweep");
        best = best.min(start.elapsed().as_secs_f64());
        run = Some(r);
    }
    (run.expect("at least one rep"), best)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let reps = if quick { 1 } else { 3 };
    let cfg = config(quick);
    let avail = SweepOptions::auto_jobs();
    let mut job_counts = vec![1usize, 2, 4];
    if avail > 4 {
        job_counts.push(avail);
    }

    println!("sweep_scaling: {} available core(s), reps={reps}", avail);
    // Warm-up: the first sweep in a process builds the mutant banks, which
    // every later sweep takes from the memo. Untimed, so the serial point
    // does not pay for them alone.
    run_engine(&mut engine(), &cfg);
    let (baseline_run, baseline_secs) = measure(&cfg, 1, reps);
    let total_checks = baseline_run.records.len();
    let mut samples = Vec::new();
    for &jobs in &job_counts {
        let (run, secs) = if jobs == 1 {
            (baseline_run.clone(), baseline_secs)
        } else {
            measure(&cfg, jobs, reps)
        };
        assert_eq!(
            run, baseline_run,
            "jobs={jobs} produced different records than serial — determinism broken"
        );
        let sample = Sample {
            jobs,
            seconds: secs,
            checks_per_sec: total_checks as f64 / secs,
            speedup: baseline_secs / secs,
        };
        println!(
            "  jobs={:<2}  {:>8.3}s  {:>8.1} checks/s  speedup {:.2}x",
            sample.jobs, sample.seconds, sample.checks_per_sec, sample.speedup
        );
        samples.push(sample);
    }

    let json = render_json(quick, avail, total_checks, &samples);
    write_artifact("BENCH_sweep.json", &json);
    if let Some(path) = out_path {
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Hand-rolled JSON (no serde in this environment): a stable, diffable
/// shape for the perf trajectory.
fn render_json(quick: bool, avail: usize, total_checks: usize, samples: &[Sample]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"sweep_scaling\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"available_parallelism\": {avail},\n"));
    out.push_str(&format!("  \"total_checks\": {total_checks},\n"));
    let max_speedup = samples.iter().map(|s| s.speedup).fold(0.0, f64::max);
    out.push_str(&format!("  \"max_parallel_speedup\": {max_speedup:.3},\n"));
    out.push_str("  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"jobs\": {}, \"seconds\": {:.6}, \"checks_per_sec\": {:.2}, \"speedup_vs_serial\": {:.3}}}{}\n",
            s.jobs,
            s.seconds,
            s.checks_per_sec,
            s.speedup,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
