//! The live metrics plane, end to end over the unix transport: a
//! subscriber sees epoch-monotone snapshots with non-decreasing sweep
//! progress while a sharded eval runs, and a one-shot `metrics` request
//! answers with the full payload (snapshot JSON + request table +
//! Prometheus text that passes the strict line validator), both while the
//! sweep is in flight and after it.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vgen_serve::{serve_unix, DaemonOptions, Json};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vgen-live-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

/// Connects to the daemon socket, retrying while it starts up.
fn connect(socket: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return s,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot connect: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Sends one request line and streams its events as they arrive, up to
/// (and including) the terminal one, from the returned reader thread.
fn stream(socket: &Path, request: &str) -> (mpsc::Receiver<Json>, JoinHandle<()>) {
    let stream = connect(socket);
    let mut write_half = stream.try_clone().expect("clone stream");
    writeln!(write_half, "{request}").expect("send request");
    let (events, received) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stream).lines() {
            let line = line.expect("read event line");
            if line.trim().is_empty() {
                continue;
            }
            let parsed = Json::parse(&line).expect("event line parses");
            let terminal = matches!(
                parsed.get("event").and_then(Json::as_str),
                Some("done" | "error" | "cancelled")
            );
            if events.send(parsed).is_err() || terminal {
                break;
            }
        }
    });
    (received, reader)
}

/// Sends one request line and returns every event up to (and including)
/// the terminal one.
fn roundtrip(socket: &Path, request: &str) -> Vec<Json> {
    let (events, reader) = stream(socket, request);
    let events = events.iter().collect();
    reader.join().expect("event reader");
    events
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn subscriber_sees_monotone_snapshots_during_a_sharded_sweep() {
    let dir = tempdir("subscribe");
    let socket = dir.join("daemon.sock");
    let journal = dir.join("sweep.log");

    let daemon = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            serve_unix(&socket, &DaemonOptions::default()).expect("daemon exits cleanly")
        })
    };

    // Subscriber first, so its frames bracket the eval below. The chaos
    // delay stretches each check by 100ms, keeping the sweep in flight for
    // several 50ms frames.
    let (subscriber, subscriber_reader) = stream(
        &socket,
        r#"{"id": 7, "cmd": "subscribe", "interval_ms": 50, "count": 12}"#,
    );

    let eval_request = format!(
        concat!(
            r#"{{"id": 1, "cmd": "eval", "journal": "{}", "problems": [5, 7], "#,
            r#""levels": "LM", "temperatures": [0.5], "ns": [3], "shards": 2, "#,
            r#""jobs": 2, "chaos": "check.delay:100%1", "check_timeout": 5.0}}"#
        ),
        journal.display()
    );
    let eval = {
        let socket = socket.clone();
        std::thread::spawn(move || roundtrip(&socket, &eval_request))
    };

    // The first frame that shows the sweep part-way through triggers a
    // one-shot `metrics` request, answered while the eval is in flight.
    let mut frames = Vec::new();
    let mut mid_sweep = None;
    for frame in subscriber.iter() {
        if let (None, Some(m)) = (&mid_sweep, frame.get("metrics")) {
            let done = counter(m, "sweep.items_done");
            if 0 < done && done < counter(m, "sweep.items_total") {
                mid_sweep = Some(roundtrip(&socket, r#"{"id": 4, "cmd": "metrics"}"#));
            }
        }
        frames.push(frame);
    }
    subscriber_reader.join().expect("subscriber reader");
    let eval_events = eval.join().expect("eval client thread");
    let terminal = eval_events.last().expect("eval terminal event");
    assert_eq!(
        terminal.get("event").and_then(Json::as_str),
        Some("done"),
        "eval must complete: {}",
        terminal.render()
    );

    let metrics_frames: Vec<&Json> = frames
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("metrics"))
        .map(|e| e.get("metrics").expect("metrics payload"))
        .collect();
    assert_eq!(metrics_frames.len(), 12, "one frame per interval");
    let last = frames.last().expect("subscribe terminal");
    assert_eq!(last.get("event").and_then(Json::as_str), Some("done"));
    assert_eq!(
        last.get("payload")
            .and_then(|p| p.get("frames"))
            .and_then(Json::as_u64),
        Some(12)
    );

    let epochs: Vec<u64> = metrics_frames
        .iter()
        .map(|m| m.get("epoch").and_then(Json::as_u64).expect("epoch"))
        .collect();
    assert!(
        epochs.windows(2).all(|w| w[0] < w[1]),
        "epochs must be strictly increasing: {epochs:?}"
    );
    let done: Vec<u64> = metrics_frames
        .iter()
        .map(|m| counter(m, "sweep.items_done"))
        .collect();
    assert!(
        done.windows(2).all(|w| w[0] <= w[1]),
        "items done must be non-decreasing: {done:?}"
    );
    assert!(
        *done.last().expect("frames") > 0,
        "the sweep must be visible in the stream: {done:?}"
    );

    // The mid-sweep snapshot: the sweep is visible in it, and its
    // exposition is well-formed.
    let events = mid_sweep.expect("a frame caught the sweep in flight");
    assert_eq!(events.len(), 1, "metrics is a single terminal event");
    assert_eq!(events[0].get("event").and_then(Json::as_str), Some("done"));
    let payload = events[0].get("payload").expect("metrics payload");
    assert!(payload.get("epoch").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let counters = payload.get("counters").expect("counters");
    for name in ["serve.requests", "sweep.items_done", "sweep.items_total"] {
        assert!(counters.get(name).is_some(), "counter {name} missing");
    }
    assert!(counter(payload, "sweep.items_done") >= 1);
    assert!(
        matches!(payload.get("requests"), Some(Json::Arr(r)) if !r.is_empty()),
        "the in-flight eval is in the request table: {}",
        payload.render()
    );
    assert!(payload.get("stages").is_some(), "per-stage histograms");
    let prom = payload
        .get("prom")
        .and_then(Json::as_str)
        .expect("prom exposition");
    vgen_obs::prom::validate(prom).expect("exposition passes the strict validator");
    for needle in [
        "vgen_sweep_items_done_total",
        "vgen_stage_duration_seconds_bucket",
    ] {
        assert!(prom.contains(needle), "exposition lacks {needle}:\n{prom}");
    }

    // One-shot snapshot after the sweep: full payload, valid exposition.
    let events = roundtrip(&socket, r#"{"id": 2, "cmd": "metrics"}"#);
    assert_eq!(events.len(), 1, "metrics is a single terminal event");
    let payload = events[0].get("payload").expect("metrics payload");
    assert!(payload.get("epoch").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert_eq!(counter(payload, "sweep.items_total"), 12);
    assert_eq!(counter(payload, "sweep.items_done"), 12);
    assert!(counter(payload, "serve.requests") >= 1);
    assert!(
        matches!(payload.get("requests"), Some(Json::Arr(_))),
        "payload carries the in-flight request table"
    );
    let prom = payload
        .get("prom")
        .and_then(Json::as_str)
        .expect("prom exposition");
    vgen_obs::prom::validate(prom).expect("exposition passes the strict validator");
    assert!(
        prom.contains("vgen_sweep_items_done_total 12"),
        "sweep progress must appear as a counter sample:\n{prom}"
    );

    let shutdown = roundtrip(&socket, r#"{"id": 3, "cmd": "shutdown"}"#);
    assert_eq!(
        shutdown[0].get("event").and_then(Json::as_str),
        Some("done")
    );
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}
