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

/// Pulls the number following `"key":` out of hand-rolled JSON. All gated
/// keys are unique within their artifact, so a flat scan is exact.
fn metric(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
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
fn single_core_host(fresh_sweep: &str) -> bool {
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
    let fresh_sim = read(flag(&args, "--sim").unwrap_or("target/experiments/BENCH_sim.json"));
    let fresh_sweep = read(flag(&args, "--sweep").unwrap_or("target/experiments/BENCH_sweep.json"));
    let base_sim = read(flag(&args, "--baseline-sim").unwrap_or("BENCH_baseline_sim.json"));
    let base_sweep = read(flag(&args, "--baseline-sweep").unwrap_or("BENCH_baseline_sweep.json"));
    let fresh_obs = read_optional(
        flag(&args, "--obs").unwrap_or("target/experiments/BENCH_obs.json"),
        flag(&args, "--obs").is_some(),
    );
    let base_obs = read_optional(
        flag(&args, "--baseline-obs").unwrap_or("BENCH_baseline_obs.json"),
        flag(&args, "--baseline-obs").is_some(),
    );
    let tolerance: f64 = flag(&args, "--tolerance")
        .map(|t| t.parse().expect("--tolerance takes a fraction like 0.15"))
        .unwrap_or(0.15);

    // (label, fresh artifact, baseline artifact, key, parallel-only)
    let mut gates: Vec<(&str, &str, &str, &str, bool)> = vec![
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
        ("dedup_hit_rate", &fresh_sim, &base_sim, "hit_rate", false),
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

    #[test]
    fn metric_extracts_numbers() {
        let json = r#"{"a": 1.5, "nested": {"b": -2}, "sci": 1.2e3, "s": "x"}"#;
        assert_eq!(metric(json, "a"), Some(1.5));
        assert_eq!(metric(json, "b"), Some(-2.0));
        assert_eq!(metric(json, "sci"), Some(1200.0));
        assert_eq!(metric(json, "missing"), None);
        assert_eq!(metric(json, "s"), None);
    }

    #[test]
    fn single_core_host_detection() {
        assert!(single_core_host(r#"{"available_parallelism": 1}"#));
        assert!(!single_core_host(r#"{"available_parallelism": 8}"#));
        // Artifacts that predate the field are treated as 1-core: better
        // to skip the parallel gate than to fail on a missing metric.
        assert!(single_core_host(r#"{"total_checks": 68}"#));
    }
}
