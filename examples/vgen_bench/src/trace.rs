//! `--trace 1`: the per-layer replay.
//!
//! Replays the run's inputs through each layer's public function,
//! in-process and on one thread (rows at one job), timing every call from
//! here. Per candidate, every timed call runs back to back, in an order
//! shuffled per candidate. Noise on a shared host then hits all of a
//! candidate's calls alike, and neither cache warmth nor the clean-up of
//! the previous call's threads favours one call, so differences such as
//! guard = supervised − check stay meaningful. Row walls are split with the
//! spans the program already records (`generate`, `check`), read from the
//! same run. Every replayed verdict and journal must equal the expected
//! one, so the replay cannot drift from the pipeline.
//!
//! The first repetition times every call and every row, so that each
//! per-layer metric has a value. Later repetitions re-time only what the
//! workload's decomposition splits, and each metric is the median of the
//! repetitions that timed it.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vgen::core::check::{assemble, check_completion};
use vgen::core::{supervised_check_completion, CheckPolicy, EvalConfig};
use vgen::lm::family::build_bank;
use vgen::obs::{CancelToken, ObsReport};
use vgen::problems::PASS_MARKER;
use vgen::serve::{parse_request, CheckRequest, EventSink, Json, NullSink, Request, Service};
use vgen::sim::elab::elaborate;
use vgen::sim::{SimConfig, Simulator};
use vgen::verilog::parse;

use crate::client::{Conn, Daemon};
use crate::grid::{check_line, check_payload_matches, eval_request, outcome_tag, Candidate, Grid};
use crate::stats::{median, shuffle};
use crate::workloads::{take_journal_digest, Plan};
use crate::{Metric, Workload};

/// The stages of `check_completion`, in call order, named `layer.stage`.
const STAGES: [&str; 7] = [
    "core.assemble",
    "verilog.parse",
    "lint.lint",
    "sim.elab",
    "verilog.parse_tb",
    "sim.elab_tb",
    "sim.run",
];

/// `FamilyEngine`'s verified-pool size per bank.
const BANK_SIZE: usize = 10;

/// The calls a candidate is timed through.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Call {
    /// The stages of `check_completion`, one public call at a time.
    Replay,
    Check,
    Supervised,
    Service,
    /// `Service::check` with `vgen-obs` recording on.
    ServiceRecorded,
    /// A `check` request over the wire, send to terminal event.
    Wire,
}

/// What one repetition times: the bank builds and in-process rows or not,
/// and the calls each candidate goes through.
#[derive(Clone, Copy)]
struct Scope {
    rows: bool,
    calls: &'static [Call],
}

impl Scope {
    const FULL: Scope = Scope {
        rows: true,
        calls: &[
            Call::Replay,
            Call::Check,
            Call::Supervised,
            Call::Service,
            Call::ServiceRecorded,
            Call::Wire,
        ],
    };

    /// What the workload's decomposition splits: grid rows into banks,
    /// sampling and the check path up to the guard; a wire check down to
    /// the same stages.
    fn of(workload: Workload) -> Scope {
        match workload {
            Workload::ColdGrid | Workload::WarmGrid => Scope {
                rows: true,
                calls: &[Call::Replay, Call::Check, Call::Supervised],
            },
            Workload::CheckStream => Scope {
                rows: false,
                calls: Scope::FULL.calls,
            },
        }
    }

    fn has(self, call: Call) -> bool {
        self.calls.contains(&call)
    }
}

/// What a trace run reports.
pub struct Trace {
    pub metrics: Vec<Metric>,
    /// The workload's decomposition of its wall into layers.
    pub decomposition: Json,
    pub attempted: usize,
    pub failed: usize,
}

/// Verified operations so far.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

/// Running stopwatch: each call returns the nanoseconds since the last.
struct Lap(Instant);

impl Lap {
    fn next(&mut self) -> u64 {
        let now = Instant::now();
        let ns = (now - self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

/// Runs one candidate through the stages of `check_completion`, one public
/// call at a time, adding each stage's time to `ns`. Returns the verdict's
/// tag and the simulator's step count when simulation ran.
fn replay(c: &Candidate, ns: &mut [u64; STAGES.len()]) -> (&'static str, Option<u64>) {
    let mut lap = Lap(Instant::now());
    let source = assemble(c.problem, c.level, &c.text);
    ns[0] += lap.next();
    let file = parse(&source);
    ns[1] += lap.next();
    let Ok(file) = file else {
        return ("compile_fail", None);
    };
    black_box(vgen::lint::lint_file(&file));
    ns[2] += lap.next();
    let dut = file
        .module(c.problem.module_name)
        .map(|_| elaborate(&file, c.problem.module_name));
    ns[3] += lap.next();
    if !matches!(dut, Some(Ok(_))) {
        return ("compile_fail", None);
    }
    let full = format!("{source}\n{}", c.problem.testbench);
    let tb = parse(&full);
    ns[4] += lap.next();
    let Ok(tb) = tb else {
        return ("compile_fail", None);
    };
    let design = elaborate(&tb, "tb");
    ns[5] += lap.next();
    let Ok(design) = design else {
        return ("compile_fail", None);
    };
    let out = Simulator::with_config(design, SimConfig::default()).run();
    ns[6] += lap.next();
    let tag = if !out.reason.is_clean() {
        "simulation_fail"
    } else if out.stdout.contains(PASS_MARKER) {
        "pass"
    } else {
        "functional_fail"
    };
    (tag, Some(out.steps))
}

/// Builds the 17 mutant banks one engine builds, seeded as `FamilyEngine`
/// seeds them.
fn build_banks(seed: u64) {
    for &id in &EvalConfig::paper_n10().problem_ids {
        let p = vgen::problems::problem(id).expect("paper grid ids are in the table");
        black_box(build_bank(p, seed ^ u64::from(id), BANK_SIZE));
    }
}

fn span_ms(report: &ObsReport, name: &str) -> f64 {
    report.hists.get(name).map_or(0.0, |h| h.sum as f64 / 1e6)
}

fn span_count(report: &ObsReport, name: &str) -> u64 {
    report.hists.get(name).map_or(0, |h| h.count)
}

/// One row through `Service::eval`, with the program's spans recorded.
struct RowRun {
    wall_ms: f64,
    generate_ms: f64,
    check_ms: f64,
    parse_calls: u64,
    simulate_calls: u64,
}

fn run_row(grid: &Grid, i: usize, tally: &mut Tally) -> Result<RowRun, String> {
    let row = &grid.rows[i];
    let journal = format!("trace-{i}.log");
    let req = eval_request(row.model, grid.seed, &journal, 1);
    let sink: Arc<dyn EventSink> = Arc::new(NullSink);
    vgen::obs::enable();
    let (outcome, ns) = timed(|| Service.eval(&req, &CancelToken::unlimited(), &sink));
    let report = vgen::obs::collect();
    outcome?;
    tally.check(take_journal_digest(&journal) == Some(row.digest));
    Ok(RowRun {
        wall_ms: ns as f64 / 1e6,
        generate_ms: span_ms(&report, "generate"),
        check_ms: span_ms(&report, "check"),
        parse_calls: span_count(&report, "parse"),
        simulate_calls: span_count(&report, "simulate"),
    })
}

/// Nanoseconds one candidate spent in each timed call; 0 for calls out of
/// the repetition's scope.
#[derive(Clone, Default)]
struct Times {
    stages: [u64; STAGES.len()],
    check: u64,
    supervised: u64,
    service: u64,
    service_recorded: u64,
    wire: u64,
}

/// Times one candidate through `calls`, in an order shuffled by `id`.
/// `conn` is needed only for [`Call::Wire`]. Returns the simulator's step
/// count when the replay simulated.
fn time_candidate(
    c: &Candidate,
    request: &CheckRequest,
    mut conn: Option<&mut Conn>,
    id: u64,
    calls: &[Call],
    tally: &mut Tally,
) -> Result<(Times, Option<u64>), String> {
    let mut order = calls.to_vec();
    shuffle(&mut order, id);
    let mut t = Times::default();
    let mut steps = None;
    for call in order {
        match call {
            Call::Replay => {
                let (tag, ran) = replay(c, &mut t.stages);
                tally.check(tag == outcome_tag(&c.expected.outcome));
                steps = ran;
            }
            Call::Check => {
                t.check = timed(|| {
                    black_box(check_completion(
                        c.problem,
                        c.level,
                        &c.text,
                        SimConfig::default(),
                    ))
                })
                .1;
            }
            Call::Supervised => {
                t.supervised = timed(|| {
                    black_box(supervised_check_completion(
                        c.problem,
                        c.level,
                        &c.text,
                        SimConfig::default(),
                        &CheckPolicy::default(),
                    ))
                })
                .1;
            }
            Call::Service => t.service = timed(|| black_box(Service.check(request))).1,
            Call::ServiceRecorded => {
                vgen::obs::enable();
                t.service_recorded = timed(|| black_box(Service.check(request))).1;
                vgen::obs::collect();
            }
            Call::Wire => {
                let conn = conn
                    .as_deref_mut()
                    .expect("a scope with wire calls starts a daemon");
                let line = check_line(id, c);
                let (event, ns) = timed(|| conn.call(id, &line));
                tally.check(
                    event?
                        .get("payload")
                        .is_some_and(|p| check_payload_matches(p, c)),
                );
                t.wire = ns;
            }
        }
    }
    Ok((t, steps))
}

/// One repetition of the timed replays in its scope. The trace repeats
/// them while its time budget lasts.
struct Rep {
    scope: Scope,
    /// The 17 bank builds, when the scope has rows.
    bank_ms: Option<f64>,
    rows: Vec<RowRun>,
    /// Per candidate.
    times: Vec<Times>,
    /// Simulator steps summed over the replays that simulated, and their
    /// count.
    steps: (u64, u64),
}

fn measure_rep(
    grid: &Grid,
    requests: &[CheckRequest],
    vgen: &Path,
    scope: Scope,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let mut bank_ms = None;
    let mut rows = Vec::new();
    if scope.rows {
        bank_ms = Some(timed(|| build_banks(grid.seed)).1 as f64 / 1e6);
        for i in 0..grid.rows.len() {
            rows.push(run_row(grid, i, tally)?);
        }
    }
    let mut daemon = if scope.has(Call::Wire) {
        Some(Daemon::start(vgen, "trace.sock")?)
    } else {
        None
    };
    let mut times = Vec::with_capacity(grid.candidates.len());
    let mut steps = (0, 0);
    for (k, (c, request)) in grid.candidates.iter().zip(requests).enumerate() {
        let conn = daemon.as_mut().map(|(_, conn)| conn);
        let (t, ran) = time_candidate(c, request, conn, k as u64 + 1, scope.calls, tally)?;
        if let Some(s) = ran {
            steps.0 += s;
            steps.1 += 1;
        }
        times.push(t);
    }
    if let Some((daemon, conn)) = daemon {
        daemon.shutdown(conn)?;
    }
    Ok(Rep {
        scope,
        bank_ms,
        rows,
        times,
        steps,
    })
}

/// The timed per-layer metrics of one repetition (`None` where out of its
/// scope), and the workload's decomposition: named layers and the wall
/// they split.
struct RepValues {
    metrics: Vec<(String, Option<f64>, &'static str)>,
    layers: Vec<(String, f64)>,
    wall_ms: f64,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), x| (s + x, n + 1));
    sum / f64::from(n)
}

fn rep_values(grid: &Grid, rep: &Rep, workload: Workload) -> RepValues {
    let times = &rep.times;
    // Mean over candidates of one timed call, in microseconds.
    let mean_us = |f: &dyn Fn(&Times) -> u64| mean(times.iter().map(|t| f(t) as f64)) / 1e3;
    let stage_us: Vec<f64> = (0..STAGES.len())
        .map(|s| mean_us(&|t| t.stages[s]))
        .collect();
    let check_us = mean_us(&|t| t.check);
    let supervised_us = mean_us(&|t| t.supervised);
    let service_us = mean_us(&|t| t.service);
    let wire_us = mean_us(&|t| t.wire);
    let sample_ms = |row: &crate::grid::Row| row.sample.as_secs_f64() * 1e3;
    let has = |call| rep.scope.has(call);

    let named = [
        ("lm.bank_build_ms", rep.bank_ms, "ms"),
        (
            "lm.sample_ms",
            Some(mean(grid.rows.iter().map(sample_ms))),
            "ms",
        ),
        ("core.check_us", Some(check_us), "us"),
        (
            "core.check_unattributed_us",
            Some(check_us - stage_us.iter().sum::<f64>()),
            "us",
        ),
        ("core.guard_us", Some(supervised_us - check_us), "us"),
        (
            "core.sweep_other_ms",
            rep.scope.rows.then(|| {
                mean(
                    rep.rows
                        .iter()
                        .map(|r| r.wall_ms - r.generate_ms - r.check_ms),
                )
            }),
            "ms",
        ),
        (
            "serve.service_check_us",
            has(Call::Service).then_some(service_us - supervised_us),
            "us",
        ),
        (
            "serve.wire_us",
            has(Call::Wire).then_some(wire_us - service_us),
            "us",
        ),
        (
            "obs.check_overhead_pct",
            has(Call::ServiceRecorded)
                .then(|| 100.0 * (mean_us(&|t| t.service_recorded) / service_us - 1.0)),
            "%",
        ),
    ];
    let mut metrics: Vec<(String, Option<f64>, &'static str)> = named
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), value, unit))
        .collect();
    for (name, us) in STAGES.iter().zip(&stage_us) {
        metrics.push((format!("{name}_us"), Some(*us), "us"));
    }

    let (layers, wall_ms) = match workload {
        Workload::ColdGrid | Workload::WarmGrid => {
            // Each row's `check` span time is split in the proportions its
            // candidates showed in the replay; its `generate` span is the
            // bank builds plus sampling.
            let mut layers: Vec<(String, f64)> = Vec::new();
            let share = 1.0 / grid.rows.len() as f64;
            let mut add = |name: &str, ms: f64| match layers.iter_mut().find(|l| l.0 == name) {
                Some(l) => l.1 += ms * share,
                None => layers.push((name.to_string(), ms * share)),
            };
            for (row, run) in grid.rows.iter().zip(&rep.rows) {
                let sum = |f: &dyn Fn(&Times) -> u64| {
                    row.candidates
                        .iter()
                        .map(|&c| f(&times[c]) as f64)
                        .sum::<f64>()
                };
                let supervised = sum(&|t| t.supervised);
                add("lm.bank_build", run.generate_ms - sample_ms(row));
                add("lm.sample", sample_ms(row));
                for (s, name) in STAGES.iter().enumerate() {
                    add(name, run.check_ms * sum(&|t| t.stages[s]) / supervised);
                }
                add(
                    "core.guard",
                    run.check_ms * (supervised - sum(&|t| t.check)) / supervised,
                );
            }
            (layers, mean(rep.rows.iter().map(|r| r.wall_ms)))
        }
        Workload::CheckStream => {
            let mut layers = vec![
                ("serve.wire".to_string(), (wire_us - service_us) / 1e3),
                (
                    "serve.service_check".to_string(),
                    (service_us - supervised_us) / 1e3,
                ),
                ("core.guard".to_string(), (supervised_us - check_us) / 1e3),
            ];
            for (name, us) in STAGES.iter().zip(&stage_us) {
                layers.push((name.to_string(), us / 1e3));
            }
            (layers, wire_us / 1e3)
        }
    };
    RepValues {
        metrics,
        layers,
        wall_ms,
    }
}

/// One decomposition: every named layer's share of `wall_ms`, plus the
/// `unattributed` rest. Returns the JSON and the unattributed share in %.
fn decompose(workload: Workload, wall_ms: f64, layers: &[(String, f64)]) -> (Json, f64) {
    let unattributed = wall_ms - layers.iter().map(|(_, ms)| ms).sum::<f64>();
    let row = |name: &str, ms: f64| {
        Json::Obj(vec![
            ("layer".into(), Json::str(name)),
            ("ms".into(), Json::Num(ms)),
            ("share".into(), Json::Num(ms / wall_ms)),
        ])
    };
    let mut rows: Vec<Json> = layers.iter().map(|(name, ms)| row(name, *ms)).collect();
    rows.push(row("unattributed", unattributed));
    let json = Json::Obj(vec![(
        "decomposition".into(),
        Json::Obj(vec![
            ("workload".into(), Json::str(workload.name())),
            ("wall_ms".into(), Json::Num(wall_ms)),
            ("layers".into(), Json::Arr(rows)),
        ]),
    )]);
    (json, 100.0 * unattributed / wall_ms)
}

pub fn trace(grid: &Grid, workload: Workload, plan: &Plan, vgen: &Path) -> Result<Trace, String> {
    let started = Instant::now();
    let mut tally = Tally::default();
    let requests: Vec<CheckRequest> = grid
        .candidates
        .iter()
        .map(|c| {
            let Ok(Request::Check(req)) = parse_request(&check_line(1, c)).map(|e| e.body) else {
                unreachable!("check_line renders a check request")
            };
            req
        })
        .collect();
    vgen::obs::enable();
    build_banks(grid.seed);
    let bank_parse_calls = span_count(&vgen::obs::collect(), "parse");

    let mut reps = vec![measure_rep(grid, &requests, vgen, Scope::FULL, &mut tally)?];
    while plan.another_round(reps.len(), started) {
        let scope = Scope::of(workload);
        reps.push(measure_rep(grid, &requests, vgen, scope, &mut tally)?);
    }
    // Counts must repeat exactly from one repetition to the next.
    let row_counts = |r: &Rep| {
        let parse: u64 = r.rows.iter().map(|x| x.parse_calls).sum();
        let simulate: u64 = r.rows.iter().map(|x| x.simulate_calls).sum();
        (parse, simulate)
    };
    for r in &reps[1..] {
        tally.check(r.steps == reps[0].steps);
        if r.scope.rows {
            tally.check(row_counts(r) == row_counts(&reps[0]));
        }
    }
    let (parse, simulate) = row_counts(&reps[0]);
    let (steps, runs) = reps[0].steps;

    // Each timed value is its median over repetitions.
    let values: Vec<RepValues> = reps.iter().map(|r| rep_values(grid, r, workload)).collect();
    let median_of =
        |f: &dyn Fn(&RepValues) -> f64| median(&values.iter().map(f).collect::<Vec<_>>());
    let layers: Vec<(String, f64)> = values[0]
        .layers
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.clone(), median_of(&|v| v.layers[i].1)))
        .collect();
    let wall_ms = median_of(&|v| v.wall_ms);
    let (decomposition, unattributed_pct) = decompose(workload, wall_ms, &layers);
    // The first repetition has every metric; each is the median of the
    // repetitions that timed it.
    let mut metrics: Vec<Metric> = values[0]
        .metrics
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let timed: Vec<f64> = values.iter().filter_map(|v| v.metrics[i].1).collect();
            Metric::new(name.clone(), median(&timed), unit)
        })
        .collect();
    let records: usize = grid.rows.iter().map(|r| r.records).sum();
    let distinct: usize = grid.rows.iter().map(|r| r.candidates.len()).sum();
    metrics.extend([
        Metric::new("lm.bank_parse_calls", bank_parse_calls as f64, "count"),
        Metric::new(
            "core.dedup_hit_ratio",
            1.0 - distinct as f64 / records as f64,
            "ratio",
        ),
        Metric::new("sim.steps_per_run", steps as f64 / runs as f64, "count/run"),
        Metric::new(
            "verilog.parse_calls_per_record",
            parse as f64 / records as f64,
            "count/record",
        ),
        Metric::new(
            "sim.simulate_calls_per_record",
            simulate as f64 / records as f64,
            "count/record",
        ),
        Metric::new("decomp.wall_ms", wall_ms, "ms"),
        Metric::new("decomp.unattributed_pct", unattributed_pct, "%"),
    ]);
    Ok(Trace {
        metrics,
        decomposition,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}
