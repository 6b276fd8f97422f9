//! `series` runs every workload at a range of seeds, one fresh process per
//! run, and records each run's result as one JSON line. `compare` reads two
//! such files and judges every (workload, metric) pair against the bounds
//! in `BENCHMARK.json`.

use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

use vgen::serve::Json;

use crate::stats::{median, quartiles};
use crate::{Args, Workload};

/// Per-layer units whose values the program computes exactly: they must
/// repeat bit for bit at the same seed.
const EXACT_UNITS: [&str; 4] = ["count", "count/run", "count/record", "ratio"];

/// Runs every workload at every seed in `--seeds A-B` and writes one line
/// per run to `--out`:
/// `{"workload", "seed", "trace", "result"[, "decomposition"]}`.
pub fn series(args: &Args) -> Result<ExitCode, String> {
    let seeds = args.get("seeds").ok_or("series needs --seeds A-B")?;
    let (first, last) = seeds
        .split_once('-')
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .ok_or(format!("bad --seeds `{seeds}` (use A-B)"))?;
    let out = args.get("out").ok_or("series needs --out FILE")?;
    let seconds = args.get("seconds").unwrap_or("10");
    let trace = args.get("trace").unwrap_or("0");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let mut file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut all_ok = true;
    for seed in first..=last {
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", seconds, "--trace", trace])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit());
            if let Some(vgen) = args.get("vgen") {
                cmd.args(["--vgen", vgen]);
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let parsed = |line: &str| Json::parse(line).unwrap_or(Json::Null);
            let mut record = vec![
                ("workload".to_string(), Json::str(w.name())),
                ("seed".to_string(), Json::Num(seed as f64)),
                (
                    "trace".to_string(),
                    Json::Num(if trace == "1" { 1.0 } else { 0.0 }),
                ),
                (
                    "result".to_string(),
                    parsed(stdout.lines().last().unwrap_or("")),
                ),
            ];
            if let Some(d) = stdout.lines().find(|l| l.starts_with("{\"decomposition\"")) {
                record.push(("decomposition".to_string(), parsed(d)));
            }
            writeln!(file, "{}", Json::Obj(record).render())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            all_ok &= output.status.success();
            eprintln!("[series] {} seed {seed}: {}", w.name(), output.status);
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One recorded run.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    result: Json,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = Json::parse(l).map_err(|e| format!("{path}: {e}"))?;
            Ok(Run {
                workload: v
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .into(),
                seed: v.get("seed").and_then(Json::as_u64).unwrap_or(0),
                trace: v.get("trace").and_then(Json::as_u64) == Some(1),
                result: v.get("result").cloned().unwrap_or(Json::Null),
            })
        })
        .collect()
}

fn metric_value(run: &Run, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Median, first and third quartile, and the quartile distance as a share
/// of the median.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let m = median(values);
    let (q1, q3) = if values.len() > 1 {
        quartiles(values)
    } else {
        (m, m)
    };
    (m, q1, q3, (q3 - q1) / m.abs())
}

/// Prints, for each workload and metric, both sides' medians and quartiles
/// and a verdict: end-to-end metrics are `within`, `worse`, `better` or
/// `unresolved` (a spread wider than the bound) against the spec's bound;
/// exact per-layer metrics must be `equal` seed by seed.
pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: vgen_bench compare A.jsonl B.jsonl [--spec BENCHMARK.json]".into());
    };
    let spec_path = args.get("spec").unwrap_or("BENCHMARK.json");
    let spec = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read {spec_path}: {e}"))
        .and_then(|t| Json::parse(&t))?;
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let list = |key: &str| match spec.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => Vec::new(),
    };
    let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let mut clean = true;
    for side in [&runs_a, &runs_b] {
        let bad = side
            .iter()
            .filter(|r| r.result.get("correct").and_then(Json::as_bool) != Some(true))
            .count();
        if bad > 0 {
            println!("{bad} run(s) not correct");
            clean = false;
        }
    }
    println!(
        "{:<13} {:<32} {:>12} {:>25} {:>12} {:>25} {:>8} verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A (spread)",
        "median B",
        "quartiles B (spread)",
        "change"
    );
    for w in list("workloads") {
        let workload = text(&w, "name");
        let pick = |runs: &[Run], trace: bool, name: &str| -> Vec<(u64, f64)> {
            runs.iter()
                .filter(|r| r.workload == workload && r.trace == trace)
                .filter_map(|r| Some((r.seed, metric_value(r, name)?)))
                .collect()
        };
        for metric in list("end_to_end") {
            let name = text(&metric, "name");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower_is_better = text(&metric, "better") == "lower";
            let va: Vec<f64> = pick(&runs_a, false, &name)
                .into_iter()
                .map(|p| p.1)
                .collect();
            let vb: Vec<f64> = pick(&runs_b, false, &name)
                .into_iter()
                .map(|p| p.1)
                .collect();
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<13} {name:<32} missing");
                clean = false;
                continue;
            }
            let (ma, q1a, q3a, sa) = summary(&va);
            let (mb, q1b, q3b, sb) = summary(&vb);
            let change = (mb - ma) / ma;
            let worse = if lower_is_better { change } else { -change };
            let verdict = if sa > bound || sb > bound {
                "unresolved"
            } else if worse > bound {
                "worse"
            } else if worse < -bound {
                "better"
            } else {
                "within"
            };
            clean &= matches!(verdict, "within" | "better");
            println!(
                "{workload:<13} {name:<32} {ma:>12.6} {:>25} {mb:>12.6} {:>25} {:>7.2}% {verdict} (bound {:.0}%)",
                format!("{q1a:.6}..{q3a:.6} ({:.1}%)", 100.0 * sa),
                format!("{q1b:.6}..{q3b:.6} ({:.1}%)", 100.0 * sb),
                100.0 * change,
                100.0 * bound
            );
        }
        for metric in list("per_layer") {
            let name = text(&metric, "name");
            let pa = pick(&runs_a, true, &name);
            let pb = pick(&runs_b, true, &name);
            if pa.is_empty() || pb.is_empty() {
                continue;
            }
            let va: Vec<f64> = pa.iter().map(|p| p.1).collect();
            let vb: Vec<f64> = pb.iter().map(|p| p.1).collect();
            let (ma, mb) = (median(&va), median(&vb));
            let verdict = if EXACT_UNITS.contains(&text(&metric, "unit").as_str()) {
                let same = pa
                    .iter()
                    .all(|(s, v)| pb.iter().all(|(t, w)| s != t || v == w));
                clean &= same;
                if same {
                    "equal"
                } else {
                    "differs"
                }
            } else {
                "(no bound)"
            };
            println!(
                "{workload:<13} {name:<32} {ma:>12.4} {:>25} {mb:>12.4} {:>25} {:>8} {verdict}",
                "", "", ""
            );
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
