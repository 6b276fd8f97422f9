//! The three timed workloads. Each is a closed loop from this one process:
//! the next request goes out only when the previous one has finished, over
//! one connection (or to one child process) at a time.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use vgen::lm::ModelId;
use vgen::obs::CancelToken;
use vgen::serve::{Event, EventSink, Json, Service};

use crate::client::{peak_rss_kb, Daemon};
use crate::grid::{check_line, check_payload_matches, eval_line, eval_request, Grid, EVAL_JOBS};
use crate::stats::{fnv1a, median, percentile, shuffle};
use crate::{Args, Metric};

/// How much a run does: rows of the grid, candidates per check round, and
/// when to stop starting rounds.
pub struct Plan {
    pub seconds: f64,
    pub rows: usize,
    pub checks: usize,
    pub max_rounds: usize,
}

impl Plan {
    /// Whether to start round `done` (0-based): always the first, then
    /// while the time budget lasts.
    pub fn another_round(&self, done: usize, started: Instant) -> bool {
        done == 0 || (done < self.max_rounds && started.elapsed().as_secs_f64() < self.seconds)
    }
}

/// What one timed run observed.
#[derive(Default)]
pub struct Measurement {
    pub attempted: usize,
    pub failed: usize,
    /// Work units (records or checks) per second of request wall, one
    /// value per round.
    rates: Vec<f64>,
    /// Wall time of every request.
    latencies: Vec<Duration>,
    /// Set-up time of every process that served requests: a daemon's until
    /// it answers `ping`, a `cold_grid` child's until its first record.
    setups: Vec<Duration>,
    /// Peak resident set of every process that served requests, in MiB.
    /// Reported as the smallest: daemons doing identical work differ by
    /// about 1 MiB, depending on how many malloc arenas their threads made.
    peak_rss_mb: Vec<f64>,
}

impl Measurement {
    /// The end-to-end metrics; `tail` is the latency percentile reported
    /// as `latency_tail_ms`.
    pub fn metrics(&self, tail: f64) -> Vec<Metric> {
        let ms: Vec<f64> = self
            .latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let setups: Vec<f64> = self.setups.iter().map(Duration::as_secs_f64).collect();
        let min_rss = self.peak_rss_mb.iter().copied().reduce(f64::min);
        vec![
            Metric::new("throughput_per_s", median(&self.rates), "1/s"),
            Metric::new("latency_p50_ms", percentile(&ms, 50.0), "ms"),
            Metric::new("latency_tail_ms", percentile(&ms, tail), "ms"),
            Metric::new("peak_rss_mb", min_rss.unwrap_or(0.0), "MiB"),
            Metric::new("setup_s", median(&setups), "s"),
        ]
    }

    fn record(&mut self, latency: Duration, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
        self.latencies.push(latency);
    }
}

/// Digest of a journal written by the system under test; the journal and
/// its stats sidecar are removed afterwards.
pub fn take_journal_digest(journal: &str) -> Option<u64> {
    let bytes = std::fs::read(journal).ok();
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(format!("{journal}.stats.json"));
    bytes.map(|b| fnv1a(&b))
}

/// `cold_grid`: every row is a fresh process running one full-grid eval,
/// as a one-shot CLI sweep is.
pub fn cold_grid(grid: &Grid, plan: &Plan) -> Result<Measurement, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let mut m = Measurement::default();
    let started = Instant::now();
    let mut round = 0;
    while plan.another_round(round, started) {
        let (mut records, mut wall) = (0, Duration::ZERO);
        for (i, row) in grid.rows.iter().enumerate() {
            let journal = format!("cold-{round}-{i}.log");
            let spawned = Instant::now();
            let mut child = Command::new(&exe)
                .args(["child-eval", "--row", &i.to_string()])
                .args(["--seed", &grid.seed.to_string(), "--journal", &journal])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot spawn child eval: {e}"))?;
            let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
            let mut first = String::new();
            let _ = out.read_line(&mut first);
            let setup = spawned.elapsed();
            let mut report = String::new();
            let _ = out.read_to_string(&mut report);
            let status = child
                .wait()
                .map_err(|e| format!("cannot wait for child eval: {e}"))?;
            let latency = spawned.elapsed();
            let report = Json::parse(report.trim()).unwrap_or(Json::Null);
            let field = |key: &str| report.get(key).and_then(Json::as_u64);
            let ok = status.success()
                && first.trim() == FIRST_RECORD
                && field("records") == Some(row.records as u64)
                && take_journal_digest(&journal) == Some(row.digest);
            m.record(latency, ok);
            m.setups.push(setup);
            m.peak_rss_mb
                .extend(field("peak_rss_kb").map(|kb| kb as f64 / 1024.0));
            records += row.records;
            wall += latency;
        }
        m.rates.push(records as f64 / wall.as_secs_f64());
        round += 1;
    }
    Ok(m)
}

/// The line a `cold_grid` child prints when its sweep reports its first
/// record.
const FIRST_RECORD: &str = "first-record";

/// Prints [`FIRST_RECORD`] on the first progress event, which the sweep
/// sends once its first record is done: after the process has started,
/// opened its journal, generated the grid (building every mutant bank) and
/// checked one candidate. Later events are dropped.
struct FirstRecordSink(Once);

impl EventSink for FirstRecordSink {
    fn event(&self, event: &Event) {
        if matches!(event, Event::Progress { .. }) {
            self.0.call_once(|| {
                let mut stdout = std::io::stdout().lock();
                let _ = writeln!(stdout, "{FIRST_RECORD}").and_then(|()| stdout.flush());
            });
        }
    }
}

/// The child process of `cold_grid`: runs one row's eval through
/// `Service::eval`, announces its first record, and reports its record
/// count and peak RSS.
pub fn child_eval(args: &Args) -> Result<(), String> {
    let row: usize = args.num("row", 0)?;
    let seed: u64 = args.num("seed", 42)?;
    let journal = args.get("journal").ok_or("child-eval needs --journal")?;
    let model = *ModelId::all_evaluated()
        .get(row)
        .ok_or(format!("no model row {row}"))?;
    let req = eval_request(model, seed, journal, EVAL_JOBS);
    let sink: Arc<dyn EventSink> = Arc::new(FirstRecordSink(Once::new()));
    let outcome = Service.eval(&req, &CancelToken::unlimited(), &sink)?;
    let report = Json::Obj(vec![
        ("records".into(), Json::Num(outcome.done as f64)),
        (
            "peak_rss_kb".into(),
            Json::Num(peak_rss_kb("/proc/self/status")? as f64),
        ),
    ]);
    println!("{}", report.render());
    Ok(())
}

/// `warm_grid`: one fresh daemon per round serves every row in turn over
/// one connection.
pub fn warm_grid(grid: &Grid, plan: &Plan, vgen: &Path) -> Result<Measurement, String> {
    let mut m = Measurement::default();
    let started = Instant::now();
    let mut round = 0;
    while plan.another_round(round, started) {
        let (daemon, mut conn) = Daemon::start(vgen, &format!("warm-{round}.sock"))?;
        m.setups.push(daemon.setup);
        let (mut records, mut wall) = (0, Duration::ZERO);
        for (i, row) in grid.rows.iter().enumerate() {
            let journal = format!("warm-{round}-{i}.log");
            let id = i as u64 + 1;
            let request = eval_line(id, row.model, grid.seed, &journal, EVAL_JOBS);
            let sent = Instant::now();
            let event = conn.call(id, &request)?;
            let latency = sent.elapsed();
            let done_records = event
                .get("payload")
                .and_then(|p| p.get("records"))
                .and_then(Json::as_u64);
            let ok = event.get("event").and_then(Json::as_str) == Some("done")
                && done_records == Some(row.records as u64)
                && take_journal_digest(&journal) == Some(row.digest);
            m.record(latency, ok);
            records += row.records;
            wall += latency;
        }
        m.rates.push(records as f64 / wall.as_secs_f64());
        m.peak_rss_mb.push(daemon.peak_rss_kb()? as f64 / 1024.0);
        daemon.shutdown(conn)?;
        round += 1;
    }
    Ok(m)
}

/// The order `check_stream` sends the grid's distinct candidates in: a
/// seeded shuffle, cut to the plan's check count.
fn check_order(grid: &Grid, plan: &Plan) -> Vec<usize> {
    let mut order: Vec<usize> = (0..grid.candidates.len()).collect();
    shuffle(&mut order, grid.seed);
    order.truncate(plan.checks);
    order
}

/// `check_stream`: one fresh daemon per round answers one `check` per
/// distinct candidate, so nothing repeats within a daemon's lifetime.
pub fn check_stream(grid: &Grid, plan: &Plan, vgen: &Path) -> Result<Measurement, String> {
    let order = check_order(grid, plan);
    let requests: Vec<String> = order
        .iter()
        .enumerate()
        .map(|(k, &c)| check_line(k as u64 + 1, &grid.candidates[c]))
        .collect();
    let mut m = Measurement::default();
    let started = Instant::now();
    let mut round = 0;
    while plan.another_round(round, started) {
        let (daemon, mut conn) = Daemon::start(vgen, &format!("checks-{round}.sock"))?;
        m.setups.push(daemon.setup);
        let begun = Instant::now();
        for (k, (&c, request)) in order.iter().zip(&requests).enumerate() {
            let sent = Instant::now();
            let event = conn.call(k as u64 + 1, request)?;
            let latency = sent.elapsed();
            let ok = event.get("event").and_then(Json::as_str) == Some("done")
                && event
                    .get("payload")
                    .is_some_and(|p| check_payload_matches(p, &grid.candidates[c]));
            m.record(latency, ok);
        }
        m.rates
            .push(order.len() as f64 / begun.elapsed().as_secs_f64());
        m.peak_rss_mb.push(daemon.peak_rss_kb()? as f64 / 1024.0);
        daemon.shutdown(conn)?;
        round += 1;
    }
    Ok(m)
}
