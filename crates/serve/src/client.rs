//! A minimal scriptable client for the unix-socket transport: send one
//! request line, stream events until the terminal one, report the
//! outcome. This is what `vgen client` wraps, and what the `serve-smoke`
//! CI job drives.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use vgen_obs::json::Json;

/// The terminal result of one request.
#[derive(Debug)]
pub struct ClientOutcome {
    /// Whether the request ended in `done` (vs `error`/`cancelled`).
    pub ok: bool,
    /// The `report` string of an eval payload, when present — printed to
    /// stdout verbatim so shell pipelines can byte-compare it against the
    /// one-shot CLI.
    pub report: Option<String>,
    /// The full terminal event line, for scripted consumers.
    pub terminal: String,
}

/// Connects (retrying while the daemon starts up), sends `request_line`,
/// and streams every event line to `events` until a terminal event
/// arrives.
///
/// # Errors
///
/// Connection failures after the retry window, I/O errors, or a
/// connection that closes before any terminal event.
pub fn request_over_unix(
    socket: &Path,
    request_line: &str,
    events: &mut dyn Write,
) -> io::Result<ClientOutcome> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let stream = loop {
        match UnixStream::connect(socket) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("cannot connect to {}: {e}", socket.display()),
                    ));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    let mut write_half = stream.try_clone()?;
    writeln!(write_half, "{request_line}")?;
    write_half.flush()?;

    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(events, "{line}")?;
        let parsed = match Json::parse(&line) {
            Ok(v) => v,
            Err(_) => continue, // not ours to validate; keep streaming
        };
        let event = parsed.get("event").and_then(Json::as_str).unwrap_or("");
        match event {
            "done" => {
                let report = parsed
                    .get("payload")
                    .and_then(|p| p.get("report"))
                    .and_then(Json::as_str)
                    .map(str::to_string);
                return Ok(ClientOutcome {
                    ok: true,
                    report,
                    terminal: line,
                });
            }
            "error" | "cancelled" => {
                return Ok(ClientOutcome {
                    ok: false,
                    report: None,
                    terminal: line,
                });
            }
            _ => {}
        }
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "connection closed before a terminal event",
    ))
}
