//! The service invariant, end to end: an eval routed through
//! [`vgen_serve::Service`] — at any shard count and any jobs count —
//! produces reports and journals byte-identical to
//! the single-shard path, a killed/cancelled run resumes to the same
//! bytes (even across a shard-count change), and a wedged request
//! degrades to timeout records instead of an error.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use vgen_obs::CancelToken;
use vgen_serve::{EvalRequest, Event, EventSink, NullSink, Service};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vgen-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

/// A small but non-trivial grid: 2 problems x 2 levels x 1 temp x n=3.
fn small_req(journal: &Path) -> EvalRequest {
    EvalRequest {
        journal: journal.to_string_lossy().into_owned(),
        problems: Some(vec![5, 7]),
        levels: Some("LM".to_string()),
        temperatures: Some(vec![0.5]),
        ns: Some(vec![3]),
        ..EvalRequest::default()
    }
}

fn run(req: &EvalRequest) -> (String, String) {
    let outcome = Service
        .eval(req, &CancelToken::unlimited(), &sink_null())
        .expect("eval");
    assert!(!outcome.cancelled, "run unexpectedly cancelled");
    let journal_bytes = std::fs::read_to_string(&req.journal).expect("journal");
    (outcome.report.expect("report"), journal_bytes)
}

fn sink_null() -> Arc<dyn EventSink> {
    Arc::new(NullSink)
}

/// Reports (modulo the embedded journal path) across shard/jobs
/// combinations, and journal bytes, must all match the baseline.
#[test]
fn sharded_service_runs_are_byte_identical_to_single_shard() {
    let dir = tempdir("parity");
    let base_journal = dir.join("base.log");
    let mut base_req = small_req(&base_journal);
    base_req.jobs = 1;
    let (base_report, base_bytes) = run(&base_req);
    let base_report = base_report.replace(&base_req.journal, "J");
    for (shards, jobs) in [(1u32, 2usize), (2, 1), (2, 2), (4, 1), (4, 3)] {
        let journal = dir.join(format!("s{shards}j{jobs}.log"));
        let mut req = small_req(&journal);
        req.shards = shards;
        req.jobs = jobs;
        let (report, bytes) = run(&req);
        assert_eq!(
            report.replace(&req.journal, "J"),
            base_report,
            "report diverged at shards={shards} jobs={jobs}"
        );
        assert_eq!(
            bytes, base_bytes,
            "journal diverged at shards={shards} jobs={jobs}"
        );
        // Complete runs fold everything into the main journal.
        assert!(
            vgen_serve::discover_shard_files(&journal)
                .expect("discover")
                .is_empty(),
            "shard files must be cleaned up after a complete run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An observer that trips the cancel token after a fixed number of
/// progress events.
struct CancelAfter {
    cancel: CancelToken,
    after: usize,
    seen: AtomicUsize,
}

impl EventSink for CancelAfter {
    fn event(&self, event: &Event) {
        if matches!(event, Event::Progress { .. })
            && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.after
        {
            self.cancel.cancel();
        }
    }
}

/// Cancelling a sharded run mid-flight leaves journals a later run — with
/// a *different* shard count — resumes to the exact bytes of an
/// uninterrupted run.
#[test]
fn cancelled_sharded_run_resumes_across_a_shard_count_change() {
    let dir = tempdir("cancel-resume");
    let ref_journal = dir.join("ref.log");
    let (ref_report, ref_bytes) = run(&small_req(&ref_journal));
    let ref_report = ref_report.replace(&*ref_journal.to_string_lossy(), "J");

    let journal = dir.join("sweep.log");
    let mut req = small_req(&journal);
    req.shards = 3;
    let cancel = CancelToken::unlimited();
    let sink: Arc<dyn EventSink> = Arc::new(CancelAfter {
        cancel: cancel.clone(),
        after: 4,
        seen: AtomicUsize::new(0),
    });
    let outcome = Service.eval(&req, &cancel, &sink).expect("cancelled eval");
    assert!(outcome.cancelled, "expected a cancelled outcome");
    assert!(
        outcome.done < outcome.total,
        "cancellation must land mid-run ({} of {})",
        outcome.done,
        outcome.total
    );

    let mut resume = small_req(&journal);
    resume.shards = 2;
    resume.resume = true;
    let outcome = Service
        .eval(&resume, &CancelToken::unlimited(), &sink_null())
        .expect("resumed eval");
    assert!(!outcome.cancelled);
    assert_eq!(
        outcome
            .report
            .expect("report")
            .replace(&*journal.to_string_lossy(), "J"),
        ref_report
    );
    assert_eq!(
        std::fs::read_to_string(&journal).expect("journal"),
        ref_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wedged request — every check delayed past a tiny deadline — degrades
/// to timeout records and still completes, rather than erroring or
/// hanging. This is the per-request supervision the daemon relies on.
#[test]
fn wedged_request_degrades_to_timeout_records() {
    let dir = tempdir("wedge");
    let journal = dir.join("wedge.log");
    let mut req = small_req(&journal);
    req.problems = Some(vec![5]);
    req.levels = Some("L".to_string());
    req.ns = Some(vec![2]);
    req.jobs = 2;
    req.chaos = Some("check.delay:200%1".to_string());
    req.check_timeout = Some(0.02);
    let outcome = Service
        .eval(&req, &CancelToken::unlimited(), &sink_null())
        .expect("wedged eval completes");
    assert!(!outcome.cancelled);
    assert_eq!(outcome.done, outcome.total);
    let report = outcome.report.expect("report");
    assert!(
        report.contains("timeout") || report.contains("fault"),
        "report should surface the degraded checks:\n{report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The event stream carries monotonically increasing progress and a
/// terminal record count matching the grid.
#[test]
fn progress_events_cover_the_whole_grid() {
    struct Collect(Mutex<Vec<(usize, usize)>>);
    impl EventSink for Collect {
        fn event(&self, event: &Event) {
            if let Event::Progress { done, total, .. } = event {
                self.0.lock().expect("lock").push((*done, *total));
            }
        }
    }
    let dir = tempdir("progress");
    let journal = dir.join("p.log");
    let mut req = small_req(&journal);
    req.shards = 2;
    req.jobs = 2;
    let sink = Arc::new(Collect(Mutex::new(Vec::new())));
    let outcome = Service
        .eval(
            &req,
            &CancelToken::unlimited(),
            &(Arc::clone(&sink) as Arc<dyn EventSink>),
        )
        .expect("eval");
    let events = sink.0.lock().expect("lock");
    assert_eq!(events.len(), outcome.total, "one progress event per record");
    let dones: Vec<usize> = events.iter().map(|&(d, _)| d).collect();
    let mut sorted = dones.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (1..=outcome.total).collect::<Vec<_>>());
    assert!(events.iter().all(|&(_, t)| t == outcome.total));
    let _ = std::fs::remove_dir_all(&dir);
}
