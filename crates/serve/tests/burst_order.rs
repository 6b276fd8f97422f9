//! Progress over the unix transport, burst by burst: an eval's progress
//! lines count every record exactly once and in order, none announces a
//! record its journal does not hold yet, and a torn journal write leaves
//! the same bytes on disk as an unbuffered journal would.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vgen_core::{ChaosSite, ChaosSpec};
use vgen_serve::{serve_unix, DaemonOptions, Json};

/// Serializes the daemons of this file: each owns the process-wide
/// recording session while it runs.
static DAEMON: Mutex<()> = Mutex::new(());

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vgen-burst-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

/// A daemon on `socket`, served from its own thread until shut down.
struct Daemon {
    socket: PathBuf,
    thread: std::thread::JoinHandle<()>,
}

impl Daemon {
    fn start(socket: &Path) -> Daemon {
        let thread = {
            let socket = socket.to_path_buf();
            std::thread::spawn(move || {
                serve_unix(&socket, &DaemonOptions::default()).expect("daemon exits cleanly")
            })
        };
        Daemon {
            socket: socket.to_path_buf(),
            thread,
        }
    }

    /// Sends `request` on a fresh connection and calls `on_event` with
    /// every event up to and including the terminal one, which it returns.
    fn call(&self, request: &str, mut on_event: impl FnMut(&Json)) -> Json {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut stream = loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => break s,
                Err(e) => {
                    assert!(Instant::now() < deadline, "cannot connect: {e}");
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        };
        writeln!(stream, "{request}").expect("send request");
        for line in BufReader::new(stream).lines() {
            let line = line.expect("read event line");
            let event = Json::parse(&line).expect("event line parses");
            on_event(&event);
            if matches!(
                event.get("event").and_then(Json::as_str),
                Some("done" | "error" | "cancelled")
            ) {
                return event;
            }
        }
        panic!("connection closed before a terminal event");
    }

    fn shut_down(self) {
        let answer = self.call(r#"{"id": 99, "cmd": "shutdown"}"#, |_| {});
        assert_eq!(answer.get("event").and_then(Json::as_str), Some("done"));
        self.thread.join().expect("daemon thread");
    }
}

/// An eval of a 72-record grid (3 problems x 3 levels x 2 temperatures x
/// n = 4) at `jobs` 2 with every check delayed 2 ms, plus `chaos`.
fn eval_line(journal: &Path, chaos: &str) -> String {
    format!(
        concat!(
            r#"{{"id": 1, "cmd": "eval", "journal": "{}", "problems": [2, 5, 7], "#,
            r#""levels": "LMH", "temperatures": [0.1, 0.5], "ns": [4], "jobs": 2, "#,
            r#""chaos": "check.delay:2%1{}", "chaos_seed": 1}}"#
        ),
        journal.display(),
        chaos
    )
}

const GRID: usize = 72;

/// Record lines in the journal at `path` (every line but the header).
fn journaled(path: &Path) -> usize {
    let bytes = std::fs::read(path).expect("journal exists");
    bytes.iter().filter(|&&b| b == b'\n').count() - 1
}

#[test]
fn progress_counts_every_record_once_and_never_runs_ahead_of_the_journal() {
    let _serial = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempdir("order");
    let daemon = Daemon::start(&dir.join("daemon.sock"));
    let journal = dir.join("sweep.log");
    let mut dones = Vec::new();
    let answer = daemon.call(&eval_line(&journal, ""), |event| {
        if event.get("event").and_then(Json::as_str) != Some("progress") {
            return;
        }
        let done = event.get("done").and_then(Json::as_usize).expect("done");
        let held = journaled(&journal);
        assert!(
            held >= done,
            "progress announced record {done} with {held} journaled"
        );
        dones.push(done);
    });
    assert_eq!(
        answer.get("event").and_then(Json::as_str),
        Some("done"),
        "{}",
        answer.render()
    );
    assert_eq!(dones, (1..=GRID).collect::<Vec<_>>());
    assert_eq!(journaled(&journal), GRID);
    daemon.shut_down();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_journal_write_leaves_the_unbuffered_bytes() {
    let _serial = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tempdir("torn");
    let daemon = Daemon::start(&dir.join("daemon.sock"));
    let clean = dir.join("clean.log");
    let answer = daemon.call(&eval_line(&clean, ""), |_| {});
    assert_eq!(answer.get("event").and_then(Json::as_str), Some("done"));
    let torn = dir.join("torn.log");
    let answer = daemon.call(&eval_line(&torn, ";journal.torn:25%7"), |_| {});
    assert_eq!(answer.get("event").and_then(Json::as_str), Some("error"));
    daemon.shut_down();

    // Written one line at a time, the journal holds every line before the
    // first one the tear fires on, then that line's first 25 bytes. At this
    // seed the tear fires on the tenth record, a dedup follower, which the
    // cursor emits in the same burst as the ninth: the burst's buffered
    // lines must reach the file before the torn prefix.
    let spec = ChaosSpec::parse("journal.torn:25%7", 1).expect("valid spec");
    let clean = std::fs::read_to_string(&clean).expect("clean journal");
    let mut expected = String::new();
    let mut tore = false;
    for (i, line) in clean.lines().enumerate() {
        if i > 0
            && spec
                .fires(ChaosSite::JournalTorn, line.as_bytes())
                .is_some()
        {
            expected.push_str(&line[..25.min(line.len())]);
            tore = true;
            break;
        }
        expected.push_str(line);
        expected.push('\n');
    }
    assert!(tore, "the tear fires on some record of the grid");
    let torn = std::fs::read_to_string(&torn).expect("torn journal");
    assert_eq!(torn, expected);
    let _ = std::fs::remove_dir_all(&dir);
}
