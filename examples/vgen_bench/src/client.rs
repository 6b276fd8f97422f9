//! Driving a real `vgen serve` process: start it, talk to it over one
//! unix-socket connection, read its memory high-water mark, stop it.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vgen::serve::Json;

/// How long a daemon may take to answer its first `ping` or to exit after
/// `shutdown` before the benchmark gives up on it.
const PATIENCE: Duration = Duration::from_secs(20);

/// The event tags that end a request's stream, as they appear on the wire.
const TERMINAL_EVENTS: [&str; 3] = [
    "\"event\":\"done\"",
    "\"event\":\"error\"",
    "\"event\":\"cancelled\"",
];

/// A running `vgen serve --socket` child. Dropping it kills the process
/// if it is still running and waits for it.
pub struct Daemon {
    child: Child,
    /// From spawn until the first `ping` was answered.
    pub setup: Duration,
}

/// One client connection speaking the line-delimited JSON protocol.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Daemon {
    /// Spawns `vgen serve --socket socket`, connects (retrying until the
    /// socket is bound) and waits for the answer to a `ping`.
    pub fn start(vgen: &Path, socket: &str) -> Result<(Daemon, Conn), String> {
        let spawned = Instant::now();
        let child = Command::new(vgen)
            .args(["serve", "--socket", socket])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", vgen.display()))?;
        let mut daemon = Daemon {
            child,
            setup: Duration::ZERO,
        };
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) if spawned.elapsed() > PATIENCE => {
                    return Err(format!("daemon socket {socket} never came up: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let mut conn = Conn::new(stream)?;
        let pong = conn.call(0, r#"{"id":0,"cmd":"ping"}"#)?;
        if pong.get("event").and_then(Json::as_str) != Some("done") {
            return Err(format!("daemon answered ping with {}", pong.render()));
        }
        daemon.setup = spawned.elapsed();
        Ok((daemon, conn))
    }

    /// The daemon's peak resident set so far, in KiB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        peak_rss_kb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` on `conn`, closes it and waits for the process to
    /// exit cleanly.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        conn.call(0, r#"{"id":0,"cmd":"shutdown"}"#)?;
        drop(conn);
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and reads events until the terminal event
    /// of request `id`, which it returns. Progress events are skipped
    /// without being parsed, so a long eval costs the client little.
    pub fn call(&mut self, id: u64, request: &str) -> Result<Json, String> {
        let mut bytes = Vec::with_capacity(request.len() + 1);
        bytes.extend_from_slice(request.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("cannot send request {id}: {e}"))?;
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("cannot read response to request {id}: {e}"))?;
            if n == 0 {
                return Err(format!("daemon closed the connection during request {id}"));
            }
            if !TERMINAL_EVENTS.iter().any(|tag| self.line.contains(tag)) {
                continue;
            }
            let event = Json::parse(self.line.trim_end())
                .map_err(|e| format!("malformed response line: {e}"))?;
            if event.get("id").and_then(Json::as_u64) == Some(id) {
                return Ok(event);
            }
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in KiB.
pub fn peak_rss_kb(status_path: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(status_path)
        .map_err(|e| format!("cannot read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {status_path}"))
}
