//! `vgen_bench`: the end-to-end benchmark of the vgen evaluation system,
//! with a per-layer replay trace. See README.md for workloads, metrics and
//! how to read the output.
//!
//! ```text
//! vgen_bench --workload cold_grid|warm_grid|check_stream [--seed N] [--seconds S]
//!            [--trace 0|1] [--smoke] [--vgen PATH]
//! vgen_bench series --seeds A-B --out FILE [--seconds S] [--trace 0|1]
//! vgen_bench compare A.jsonl B.jsonl [--spec BENCHMARK.json]
//! ```

mod client;
mod compare;
mod grid;
mod pins;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use vgen::serve::Json;

use grid::Grid;
use workloads::Plan;

/// `--name value` flags (and bare `--smoke`) plus positional arguments.
pub struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg.clone());
                continue;
            };
            let value = if name == "smoke" {
                String::new()
            } else {
                it.next().ok_or(format!("--{name} needs a value"))?.clone()
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Args { flags, positional })
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} `{v}`")),
        }
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdGrid,
    WarmGrid,
    CheckStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdGrid,
        Workload::WarmGrid,
        Workload::CheckStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdGrid => "cold_grid",
            Workload::WarmGrid => "warm_grid",
            Workload::CheckStream => "check_stream",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or(format!(
                "unknown workload `{name}` (cold_grid, warm_grid or check_stream)"
            ))
    }

    /// The latency percentile reported as `latency_tail_ms`: the highest
    /// with at least ten samples beyond it in a run (≥ 55 rows per grid run,
    /// thousands of checks per stream run).
    fn tail_percentile(self) -> f64 {
        match self {
            Workload::ColdGrid | Workload::WarmGrid => 80.0,
            Workload::CheckStream => 99.0,
        }
    }
}

/// The run's working directory for journals and sockets, inside the build
/// directory of the checkout. The process works inside it (so socket paths
/// stay short) and removes it when done.
struct WorkDir {
    path: PathBuf,
    home: PathBuf,
}

impl WorkDir {
    fn enter() -> Result<WorkDir, String> {
        let home = std::env::current_dir().map_err(|e| e.to_string())?;
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
        let path = home
            .join(target)
            .join("vgen_bench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&path)
            .and_then(|()| std::env::set_current_dir(&path))
            .map_err(|e| format!("cannot use {}: {e}", path.display()))?;
        Ok(WorkDir { path, home })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.home);
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn vgen_binary(args: &Args) -> Result<PathBuf, String> {
    let path = match args.get("vgen") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate self: {e}"))?
            .with_file_name("vgen"),
    };
    std::fs::canonicalize(&path).map_err(|e| format!("no vgen binary at {}: {e}", path.display()))
}

/// One workload run: builds the inputs and expected outputs, measures,
/// prints every metric and, last, the result object.
fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = Workload::parse(args.get("workload").ok_or("missing --workload")?)?;
    // Protocol numbers are JSON doubles, exact up to 2^53.
    let seed = args.num("seed", 42u64)? % (1 << 53);
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (0 or 1)")),
    };
    let smoke = args.has("smoke");
    let plan = Plan {
        seconds: args.num("seconds", 10.0)?,
        rows: if smoke { 2 } else { 11 },
        checks: if smoke { 200 } else { usize::MAX },
        max_rounds: if smoke { 1 } else { usize::MAX },
    };
    let vgen = vgen_binary(args)?;
    let grid = Grid::build(seed, plan.rows);
    for row in &grid.rows {
        println!(
            "seed {seed} row {}: {} records, {} passed, {} distinct, journal fnv1a {:#018x}",
            row.model,
            row.records,
            row.passed,
            row.candidates.len(),
            row.digest
        );
    }
    let pin_mismatches = pins::mismatches(&grid);
    let work = WorkDir::enter()?;
    let (attempted, failed, metrics) = if trace {
        let t = trace::trace(&grid, workload, &plan, &vgen)?;
        println!("{}", t.decomposition.render());
        (t.attempted, t.failed, t.metrics)
    } else {
        let m = match workload {
            Workload::ColdGrid => workloads::cold_grid(&grid, &plan)?,
            Workload::WarmGrid => workloads::warm_grid(&grid, &plan, &vgen)?,
            Workload::CheckStream => workloads::check_stream(&grid, &plan, &vgen)?,
        };
        (m.attempted, m.failed, m.metrics(workload.tail_percentile()))
    };
    drop(work);
    let failed = failed + pin_mismatches;
    let correct = failed == 0;
    for m in &metrics {
        println!("{} {} = {} {}", workload.name(), m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(correct, attempted, failed, &metrics).render()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Json {
    let metrics = metrics
        .iter()
        .map(|m| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::str(m.unit)),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        Args::parse(&raw).and_then(|args| match args.positional.first().map(String::as_str) {
            None => run(&args),
            Some("child-eval") => workloads::child_eval(&args).map(|()| ExitCode::SUCCESS),
            Some("series") => compare::series(&args),
            Some("compare") => compare::compare(&args),
            Some(other) => Err(format!("unknown command `{other}`")),
        });
    outcome.unwrap_or_else(|e| {
        eprintln!("vgen_bench: {e}");
        ExitCode::from(2)
    })
}
