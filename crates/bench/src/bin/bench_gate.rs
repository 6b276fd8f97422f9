//! `bench_gate` — bench-regression tracking for CI.
//!
//! Compares a fresh `BENCH_sim.json` / `BENCH_sweep.json` (produced by
//! `sim_throughput --quick` and `sweep_scaling --quick`) — and, when
//! available, `BENCH_obs.json` from `obs_overhead --quick` — against
//! baseline copies checked into the repository root, and fails when any
//! tracked metric regresses by more than the tolerance (default 15%).
//!
//! Only **machine-independent** metrics are gated — ratios and
//! deterministic counts, never absolute wall-clock throughput, so the gate
//! holds on any runner:
//!
//! * `min_speedup_64b`   — packed vs. per-bit vector-op speedup floor
//! * `min_speedup_wide`  — packed vs. per-bit floor over >64-bit vectors
//! * `hit_rate`          — dedup-cache hit rate over the repeated sweep
//! * `total_checks`      — sweep catalog size (shrinkage = silent coverage loss)
//! * `max_parallel_speedup` — best sweep speedup over serial across job
//!   counts; skipped with a warning when the measuring host reports a
//!   single core (a 1-core runner serializes every parallel sweep, so the
//!   ratio is noise — the ROADMAP bench-trajectory note)
//! * `stage_coverage` — pipeline stages with duration histograms in the
//!   obs artifact (shrinkage = an instrumented stage went dark)
//! * `span_events` — trace span events captured over the fixed workload
//!
//! The obs artifact pair is optional: when `--obs`/`--baseline-obs` are
//! not passed and the default files are absent, its gates are skipped with
//! a warning (jobs that don't run `obs_overhead` stay green). Explicitly
//! passed paths must exist. The machine-dependent overhead percentages in
//! the same artifact are fenced absolutely by `obs_overhead --gate`, not
//! here — a ratio floor has no meaning for a lower-is-better percentage.
//!
//! Each artifact is parsed once with the workspace's strict JSON parser;
//! a malformed artifact fails the gate at once, reported with the parse
//! error. Gated values are looked up by dotted key path: `hit_rate` sits
//! under `dedup_cache`, every other gated key is top-level.
//!
//! A metric missing from the **fresh** artifact fails the gate (the bench
//! stopped producing it). A metric missing from the **baseline** only
//! warns and is skipped: that is the normal state right after a new metric
//! is introduced, before the baselines are next refreshed.
//!
//! ```text
//! bench_gate --sim FRESH_sim.json --sweep FRESH_sweep.json \
//!            --baseline-sim BENCH_baseline_sim.json \
//!            --baseline-sweep BENCH_baseline_sweep.json \
//!            [--obs FRESH_obs.json --baseline-obs BENCH_baseline_obs.json] \
//!            [--tolerance 0.15]
//! ```

use std::process::ExitCode;

use vgen_obs::json::Json;

/// The number at `path` in `doc`: object keys joined by `.`.
fn metric(doc: &Json, path: &str) -> Option<f64> {
    path.split('.').try_fold(doc, |v, key| v.get(key))?.as_f64()
}

/// Parses the artifact read from `path`. A malformed artifact fails the
/// gate at once, reported with the parse error.
fn parse(path: &str, text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| {
        eprintln!("FAIL {path}: not valid JSON: {e}");
        std::process::exit(1);
    })
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// True when parallel-speedup metrics are meaningless on the measuring
/// host: a 1-core runner serializes every "parallel" sweep, so
/// `speedup_vs_serial` is pure scheduling noise. Gating it there produces
/// false regressions, so those metrics are skipped with a warning instead.
fn single_core_host(fresh_sweep: &Json) -> bool {
    metric(fresh_sweep, "available_parallelism").is_none_or(|p| p <= 1.0)
}

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Reads an artifact that the invocation may legitimately lack: a missing
/// file behind an *explicitly passed* path is an invocation error, but a
/// missing file at the default path just means that bench didn't run —
/// warn and skip its gates.
fn read_optional(path: &str, explicit: bool) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) if explicit => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            std::process::exit(2);
        }
        Err(_) => {
            eprintln!("warn: no {path}, skipping its gates (bench not run)");
            None
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let required = |name: &str, default: &str| {
        let path = flag(&args, name).unwrap_or(default);
        parse(path, &read(path))
    };
    let fresh_sim = required("--sim", "target/experiments/BENCH_sim.json");
    let fresh_sweep = required("--sweep", "target/experiments/BENCH_sweep.json");
    let base_sim = required("--baseline-sim", "BENCH_baseline_sim.json");
    let base_sweep = required("--baseline-sweep", "BENCH_baseline_sweep.json");
    let optional = |name: &str, default: &str| {
        let path = flag(&args, name).unwrap_or(default);
        read_optional(path, flag(&args, name).is_some()).map(|text| parse(path, &text))
    };
    let fresh_obs = optional("--obs", "target/experiments/BENCH_obs.json");
    let base_obs = optional("--baseline-obs", "BENCH_baseline_obs.json");
    let tolerance: f64 = flag(&args, "--tolerance")
        .map(|t| t.parse().expect("--tolerance takes a fraction like 0.15"))
        .unwrap_or(0.15);

    // (label, fresh artifact, baseline artifact, key path, parallel-only)
    let mut gates: Vec<(&str, &Json, &Json, &str, bool)> = vec![
        (
            "min_speedup_64b",
            &fresh_sim,
            &base_sim,
            "min_speedup_64b",
            false,
        ),
        (
            "min_speedup_wide",
            &fresh_sim,
            &base_sim,
            "min_speedup_wide",
            false,
        ),
        (
            "dedup_hit_rate",
            &fresh_sim,
            &base_sim,
            "dedup_cache.hit_rate",
            false,
        ),
        (
            "sweep_total_checks",
            &fresh_sweep,
            &base_sweep,
            "total_checks",
            false,
        ),
        (
            "sweep_parallel_speedup",
            &fresh_sweep,
            &base_sweep,
            "max_parallel_speedup",
            true,
        ),
    ];
    if let (Some(fresh), Some(base)) = (&fresh_obs, &base_obs) {
        gates.push(("obs_stage_coverage", fresh, base, "stage_coverage", false));
        gates.push(("obs_span_events", fresh, base, "span_events", false));
    }

    let skip_parallel = single_core_host(&fresh_sweep);
    let mut failures = 0usize;
    for (label, fresh, base, key, parallel_only) in gates {
        if parallel_only && skip_parallel {
            eprintln!(
                "warn {label}: measuring host reports 1 core, \
                 skipping parallel-speedup metric \"{key}\""
            );
            continue;
        }
        let Some(now) = metric(fresh, key) else {
            eprintln!("FAIL {label}: metric \"{key}\" missing from fresh artifact");
            failures += 1;
            continue;
        };
        let Some(then) = metric(base, key) else {
            eprintln!(
                "warn {label}: metric \"{key}\" not in baseline yet, skipping \
                 (refresh baselines to start gating it)"
            );
            continue;
        };
        let floor = then * (1.0 - tolerance);
        let delta = if then != 0.0 {
            (now - then) / then * 100.0
        } else {
            0.0
        };
        if now < floor {
            eprintln!(
                "FAIL {label}: {now:.3} is {delta:+.1}% vs baseline {then:.3} \
                 (floor {floor:.3} at {:.0}% tolerance)",
                tolerance * 100.0
            );
            failures += 1;
        } else {
            println!("ok   {label}: {now:.3} vs baseline {then:.3} ({delta:+.1}%)");
        }
    }

    if failures == 0 {
        println!("bench_gate: all tracked metrics within tolerance");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_gate: {failures} metric(s) regressed beyond tolerance");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        Json::parse(text).expect("test artifact")
    }

    #[test]
    fn metric_follows_key_paths() {
        let json = doc(r#"{"a": 1.5, "nested": {"b": -2}, "sci": 1.2e3, "s": "x"}"#);
        assert_eq!(metric(&json, "a"), Some(1.5));
        assert_eq!(metric(&json, "nested.b"), Some(-2.0));
        assert_eq!(metric(&json, "b"), None, "only top-level keys match");
        assert_eq!(metric(&json, "sci"), Some(1200.0));
        assert_eq!(metric(&json, "missing"), None);
        assert_eq!(metric(&json, "s"), None);
        assert_eq!(metric(&json, "a.b"), None);
    }

    #[test]
    fn single_core_host_detection() {
        assert!(single_core_host(&doc(r#"{"available_parallelism": 1}"#)));
        assert!(!single_core_host(&doc(r#"{"available_parallelism": 8}"#)));
        // Artifacts that predate the field are treated as 1-core: better
        // to skip the parallel gate than to fail on a missing metric.
        assert!(single_core_host(&doc(r#"{"total_checks": 68}"#)));
    }
}
