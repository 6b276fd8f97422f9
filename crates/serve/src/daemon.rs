//! The transport layer: a unix-socket daemon and a stdio single-client
//! loop, both speaking the line-delimited JSON protocol of [`crate::proto`].
//!
//! Each connection is served on its own thread, spawned with the stack a
//! check needs ([`spawn_check_thread`]). Supervision is per-request: every
//! eval/lint/sim/subscribe runs off the connection's reader, on a cached
//! check thread ([`run_on_check_thread`], reused across requests), with
//! its own [`CancelToken`] held in a per-connection registry. A `cancel`
//! request (or a dropped connection) can trip one request without
//! touching the others, and a wedged request degrades inside the sweep
//! executor (timeout records, detached workers) without wedging the
//! daemon's accept loop. A `check` is never registered, so no `cancel`
//! can reach it: one that arrives while nothing else of its connection is
//! in flight runs on the reader itself, which saves a thread hand-off per
//! check; one that arrives behind other work is handed off like the rest,
//! so the reader stays free to read that work's `cancel`.
//!
//! The daemon also owns a process-wide `vgen-obs` recording session for
//! its lifetime, feeding the live metrics plane: `metrics` answers with
//! one epoch-stamped snapshot (JSON + Prometheus text), `subscribe`
//! streams one per interval, and a `LiveState` table tracks every
//! in-flight request's progress (done counts, pass/fail/fault tallies)
//! from the same progress events clients see. Recording is
//! write-only from the pipeline's view, so a served run stays
//! byte-identical to an unserved one.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vgen_core::guard::{run_on_check_thread, spawn_check_thread};
use vgen_obs::json::Json;
use vgen_obs::CancelToken;

use crate::proto::{parse_request, render_event, Event, Request, RequestEnvelope};
use crate::service::{EventSink, Service};

/// Daemon knobs.
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// Log accepted connections and requests to stderr.
    pub verbose: bool,
}

/// A writer shared by every request thread of one connection. Each event
/// is one line. [`send`](Self::send) writes its line after any queued
/// ones with one `write_all` under the lock, so lines never interleave;
/// [`queue`](Self::queue) holds a progress line back until the end of its
/// burst ([`flush`](Self::flush)) or the connection's next `send`, so a
/// burst of progress lines costs one write.
struct LineWriter<W: Write + Send> {
    inner: Mutex<Lines<W>>,
}

/// A connection's output and the lines queued for it.
struct Lines<W> {
    out: W,
    queued: Vec<u8>,
}

impl<W: Write + Send> LineWriter<W> {
    fn new(out: W) -> Self {
        LineWriter {
            inner: Mutex::new(Lines {
                out,
                queued: Vec::new(),
            }),
        }
    }

    fn lines(&self) -> MutexGuard<'_, Lines<W>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Writes `line`, after every queued line, with one write.
    fn send(&self, line: &str) {
        let mut lines = self.lines();
        lines.push(line);
        lines.write_queued();
    }

    /// Queues `line` for the next [`flush`](Self::flush) or
    /// [`send`](Self::send).
    fn queue(&self, line: &str) {
        self.lines().push(line);
    }

    /// Writes every queued line with one write.
    fn flush(&self) {
        self.lines().write_queued();
    }

    /// [`send`](Self::send)s a handed-off request's terminal event,
    /// uncounting the request under the same lock just before the write:
    /// a client that has read `line` finds the count already down, and a
    /// close that takes this lock once the count is 0 waits for the write.
    fn send_last(&self, line: &str, request: HandedOff) {
        let mut lines = self.lines();
        drop(request);
        lines.push(line);
        lines.write_queued();
    }
}

impl<W: Write> Lines<W> {
    fn push(&mut self, line: &str) {
        self.queued.extend_from_slice(line.as_bytes());
        self.queued.push(b'\n');
    }

    fn write_queued(&mut self) {
        if self.queued.is_empty() {
            return;
        }
        // A client that hung up mid-request is not an error worth
        // propagating: the request keeps running (its journal is the
        // durable output), the events just go nowhere.
        let _ = self
            .out
            .write_all(&self.queued)
            .and_then(|()| self.out.flush());
        self.queued.clear();
    }
}

/// Adapts a [`LineWriter`] into the per-request [`EventSink`] the service
/// streams through. Owns the writer handle, because the sweep's record
/// observer holds the sink for the whole request. Progress events are
/// queued until their burst ends; every other event is sent at once.
struct WireSink<W: Write + Send> {
    writer: Arc<LineWriter<W>>,
    id: u64,
}

impl<W: Write + Send> EventSink for WireSink<W> {
    fn event(&self, event: &Event) {
        let line = render_event(self.id, event);
        if matches!(event, Event::Progress { .. }) {
            self.writer.queue(&line);
        } else {
            self.writer.send(&line);
        }
    }

    fn flush(&self) {
        self.writer.flush();
    }
}

/// The daemon-wide shutdown latch. The unix daemon's accept loop blocks in
/// `accept`, so [`Shutdown::request`] also connects once to the daemon's
/// own socket: that returns `accept`, and the loop sees the flag.
#[derive(Default)]
struct Shutdown {
    flag: AtomicBool,
    /// The listening socket to wake; `None` for the stdio session.
    wake: Option<PathBuf>,
}

impl Shutdown {
    fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(socket) = &self.wake {
            // The accept loop drops this connection unserved.
            let _ = UnixStream::connect(socket);
        }
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// In-flight requests of one connection: id → cancel token.
type Registry = Arc<Mutex<HashMap<u64, CancelToken>>>;

/// A request's entry in its connection's [`Registry`]: a fresh token,
/// registered on creation and unregistered on drop.
struct Registered<'a> {
    registry: &'a Registry,
    id: u64,
    token: CancelToken,
}

impl<'a> Registered<'a> {
    /// Registers request `id`; refuses it with the terminal event to send
    /// when a request with that id is already in flight on the connection,
    /// whose entry stays as it is.
    fn new(registry: &'a Registry, id: u64) -> Result<Self, Event> {
        let token = CancelToken::unlimited();
        let mut map = registry.lock().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(&id) {
            let message = format!("request id {id} is already in flight");
            return Err(Event::Error { message });
        }
        map.insert(id, token.clone());
        Ok(Registered {
            registry,
            id,
            token,
        })
    }
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        let mut map = self.registry.lock().unwrap_or_else(|e| e.into_inner());
        map.remove(&self.id);
    }
}

/// The requests one connection has handed off its reader and not yet
/// answered. Close waits for the count to reach 0 (and for the last
/// answer's write), and a `check` runs on the reader only while it is 0.
#[derive(Default)]
struct InFlight {
    count: Mutex<usize>,
    answered: Condvar,
}

impl InFlight {
    fn count(&self) -> MutexGuard<'_, usize> {
        self.count.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counts one hand-off until the returned guard is dropped: as the
    /// request's terminal event is written ([`LineWriter::send_last`]), or
    /// with a task that never ran.
    fn begin(self: &Arc<Self>) -> HandedOff {
        *self.count() += 1;
        HandedOff(Arc::clone(self))
    }

    fn is_empty(&self) -> bool {
        *self.count() == 0
    }

    fn wait_empty(&self) {
        let mut count = self.count();
        while *count > 0 {
            count = self.answered.wait(count).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// One request counted in its connection's [`InFlight`].
struct HandedOff(Arc<InFlight>);

impl Drop for HandedOff {
    fn drop(&mut self) {
        let mut count = self.0.count();
        *count -= 1;
        if *count == 0 {
            self.0.answered.notify_all();
        }
    }
}

/// One in-flight request as the live metrics plane sees it.
struct LiveRequest {
    conn: u64,
    id: u64,
    cmd: &'static str,
    started: Instant,
    done: usize,
    total: usize,
    pass: u64,
    fail: u64,
    fault: u64,
}

/// Daemon-global table of in-flight work, shared by every connection —
/// what `metrics`/`subscribe` report under `"requests"`. Fed from the
/// same progress events clients receive, so it costs the sweep nothing
/// extra.
#[derive(Clone, Default)]
struct LiveState(Arc<Mutex<Vec<LiveRequest>>>);

impl LiveState {
    fn begin(&self, conn: u64, id: u64, cmd: &'static str) {
        let mut reqs = self.0.lock().unwrap_or_else(|e| e.into_inner());
        reqs.push(LiveRequest {
            conn,
            id,
            cmd,
            started: Instant::now(),
            done: 0,
            total: 0,
            pass: 0,
            fail: 0,
            fault: 0,
        });
        vgen_obs::counter_add("serve.requests", 1);
        vgen_obs::gauge_max("serve.active", reqs.len() as u64);
        drop(reqs);
        // An eval's request thread records no spans of its own while the
        // sweep runs, so nothing would arm its periodic self-flush — drain
        // it now so the counters are visible to snapshots immediately, not
        // when the request ends.
        vgen_obs::flush();
    }

    fn end(&self, conn: u64, id: u64) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|r| !(r.conn == conn && r.id == id));
    }

    /// Folds one progress event into the request's live row.
    fn observe(&self, conn: u64, id: u64, event: &Event) {
        let Event::Progress {
            done,
            total,
            outcome,
        } = event
        else {
            return;
        };
        let mut reqs = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let Some(req) = reqs.iter_mut().find(|r| r.conn == conn && r.id == id) else {
            return;
        };
        req.done = (*done).max(req.done);
        req.total = *total;
        match *outcome {
            "pass" => req.pass += 1,
            "fault" => req.fault += 1,
            _ => req.fail += 1,
        }
    }

    /// Renders the table as the `"requests"` JSON array.
    fn render(&self) -> Json {
        let reqs = self.0.lock().unwrap_or_else(|e| e.into_inner());
        Json::Arr(
            reqs.iter()
                .map(|r| {
                    let elapsed_s = r.started.elapsed().as_secs_f64();
                    let mut members = vec![
                        ("id".to_string(), Json::Num(r.id as f64)),
                        ("conn".to_string(), Json::Num(r.conn as f64)),
                        ("cmd".to_string(), Json::str(r.cmd)),
                        ("elapsed_s".to_string(), Json::Num(elapsed_s)),
                        ("done".to_string(), Json::Num(r.done as f64)),
                        ("total".to_string(), Json::Num(r.total as f64)),
                        ("pass".to_string(), Json::Num(r.pass as f64)),
                        ("fail".to_string(), Json::Num(r.fail as f64)),
                        ("fault".to_string(), Json::Num(r.fault as f64)),
                    ];
                    if r.done > 0 && r.total > r.done {
                        let eta = elapsed_s * (r.total - r.done) as f64 / r.done as f64;
                        members.push(("eta_s".to_string(), Json::Num(eta)));
                    }
                    Json::Obj(members)
                })
                .collect(),
        )
    }
}

/// Builds the `metrics`/`subscribe` payload: the current epoch-stamped
/// snapshot as JSON (same shape as the `<journal>.metrics.json` sidecar —
/// one render path), the in-flight request table, and the Prometheus text
/// exposition — all through the RFC 8259-validated JSON machinery.
fn metrics_payload(live: &LiveState) -> Json {
    let snap = vgen_obs::snapshot();
    let mut members = match Json::parse(&vgen_obs::summary::snapshot_json(&snap)) {
        Ok(Json::Obj(m)) => m,
        _ => Vec::new(),
    };
    members.push(("requests".to_string(), live.render()));
    members.push(("prom".to_string(), Json::Str(vgen_obs::prom::render(&snap))));
    Json::Obj(members)
}

/// An [`EventSink`] that feeds each event to the [`LiveState`] table
/// before putting it on the wire.
struct TallySink<W: Write + Send> {
    inner: WireSink<W>,
    live: LiveState,
    conn: u64,
}

impl<W: Write + Send> EventSink for TallySink<W> {
    fn event(&self, event: &Event) {
        self.live.observe(self.conn, self.inner.id, event);
        self.inner.event(event);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

fn respond<W: Write + Send>(writer: &LineWriter<W>, id: u64, event: &Event) {
    writer.send(&render_event(id, event));
}

/// Runs one request and returns its terminal event; the events before it
/// (acceptance, progress, subscription frames) it writes itself.
/// Blocking; callers decide where to run it.
fn run_request<W: Write + Send + 'static>(
    envelope: RequestEnvelope,
    writer: &Arc<LineWriter<W>>,
    registry: &Registry,
    shutdown: &Shutdown,
    live: &LiveState,
    conn: u64,
) -> Event {
    let id = envelope.id;
    let done = |payload| Event::Done { payload };
    let finish =
        |result: Result<Json, String>| result.map_or_else(|message| Event::Error { message }, done);
    match envelope.body {
        Request::Ping => done(Json::str("pong")),
        Request::Shutdown => {
            shutdown.request();
            done(Json::str("shutting down"))
        }
        Request::Cancel { target } => {
            let registry = registry.lock().unwrap_or_else(|e| e.into_inner());
            match registry.get(&target) {
                Some(token) => {
                    token.cancel();
                    done(Json::str("cancelled"))
                }
                None => Event::Error {
                    message: format!("no in-flight request with id {target}"),
                },
            }
        }
        Request::Metrics => done(metrics_payload(live)),
        Request::Subscribe { interval_ms, count } => {
            let cancel = match Registered::new(registry, id) {
                Ok(cancel) => cancel,
                Err(refusal) => return refusal,
            };
            respond(writer, id, &Event::Accepted { cmd: "subscribe" });
            let interval = Duration::from_millis(interval_ms);
            let mut frames: u64 = 0;
            let stopped = 'stream: loop {
                // Sleep in short chunks so per-subscriber cancel and
                // daemon shutdown cut the stream promptly.
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if cancel.token.poll() || shutdown.is_set() {
                        break 'stream true;
                    }
                    let chunk = (interval - slept).min(Duration::from_millis(50));
                    std::thread::sleep(chunk);
                    slept += chunk;
                }
                respond(
                    writer,
                    id,
                    &Event::Metrics {
                        metrics: metrics_payload(live),
                    },
                );
                frames += 1;
                if count != 0 && frames >= count {
                    break false;
                }
            };
            if stopped {
                Event::CancelledAt {
                    done: frames as usize,
                    total: count as usize,
                }
            } else {
                done(Json::Obj(vec![(
                    "frames".to_string(),
                    Json::Num(frames as f64),
                )]))
            }
        }
        Request::Eval(req) => {
            let cancel = match Registered::new(registry, id) {
                Ok(cancel) => cancel,
                Err(refusal) => return refusal,
            };
            respond(writer, id, &Event::Accepted { cmd: "eval" });
            live.begin(conn, id, "eval");
            let sink: Arc<dyn EventSink> = Arc::new(TallySink {
                inner: WireSink {
                    writer: Arc::clone(writer),
                    id,
                },
                live: live.clone(),
                conn,
            });
            let result = Service.serve_eval(&req, &cancel.token, &sink);
            live.end(conn, id);
            match result {
                Ok(outcome) if outcome.cancelled => Event::CancelledAt {
                    done: outcome.done,
                    total: outcome.total,
                },
                Ok(outcome) => {
                    let mut members = vec![
                        ("records".to_string(), Json::Num(outcome.done as f64)),
                        ("total".to_string(), Json::Num(outcome.total as f64)),
                        (
                            "checks_run".to_string(),
                            Json::Num(outcome.stats.checks_run as f64),
                        ),
                        (
                            "cache_hits".to_string(),
                            Json::Num(outcome.stats.cache_hits as f64),
                        ),
                        (
                            "resumed_records".to_string(),
                            Json::Num(outcome.stats.resumed_records as f64),
                        ),
                    ];
                    if let Some(report) = outcome.report {
                        members.push(("report".to_string(), Json::Str(report)));
                    }
                    done(Json::Obj(members))
                }
                Err(message) => Event::Error { message },
            }
        }
        Request::Check(req) => {
            respond(writer, id, &Event::Accepted { cmd: "check" });
            finish(Service.check(&req))
        }
        Request::Lint(req) => {
            respond(writer, id, &Event::Accepted { cmd: "lint" });
            finish(Service.lint(&req))
        }
        Request::Sim(req) => {
            let cancel = match Registered::new(registry, id) {
                Ok(cancel) => cancel,
                Err(refusal) => return refusal,
            };
            respond(writer, id, &Event::Accepted { cmd: "sim" });
            finish(Service.sim(&req, &cancel.token))
        }
    }
}

/// Longest request line the daemon reads, newline excluded. Real requests
/// are at most a few KiB (an eval spec, or one completion's source text);
/// the cap bounds what a client that never sends a newline can make the
/// daemon buffer.
const MAX_REQUEST_LINE: usize = 4 << 20;

/// Serves one connection: reads request lines, hands long-running
/// requests to cached check threads (keeping the reader free so `cancel`
/// works on the same connection), until EOF, shutdown, or a line longer
/// than [`MAX_REQUEST_LINE`] (answered with one `line_too_long` error).
/// A `check` that arrives while no handed-off request is in flight runs on
/// the calling thread, inline when that thread came from
/// [`spawn_check_thread`]. Returns once every request it started has
/// answered.
fn serve_connection<R, W>(
    reader: R,
    writer: Arc<LineWriter<W>>,
    shutdown: Arc<Shutdown>,
    live: LiveState,
    conn: u64,
) where
    R: io::Read,
    W: Write + Send + 'static,
{
    let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
    let in_flight = Arc::new(InFlight::default());
    let mut reader = BufReader::new(reader);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Reading one byte past the cap is enough to tell an overlong line
        // from a maximal one without buffering the rest of it.
        match (&mut reader)
            .take(MAX_REQUEST_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_LINE {
            let message = format!(
                "line_too_long: request line exceeds {MAX_REQUEST_LINE} bytes; closing connection"
            );
            respond(&writer, 0, &Event::Error { message });
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            let message = "request line is not valid UTF-8".to_string();
            respond(&writer, 0, &Event::Error { message });
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line) {
            Ok(envelope) => {
                let id = envelope.id;
                let handed_off = match envelope.body {
                    Request::Check(_) => !in_flight.is_empty(),
                    Request::Eval(_)
                    | Request::Sim(_)
                    | Request::Lint(_)
                    | Request::Subscribe { .. } => true,
                    Request::Ping
                    | Request::Metrics
                    | Request::Cancel { .. }
                    | Request::Shutdown => false,
                };
                if handed_off {
                    let work = {
                        let writer = Arc::clone(&writer);
                        let registry = Arc::clone(&registry);
                        let shutdown = Arc::clone(&shutdown);
                        let live = live.clone();
                        let counted = in_flight.begin();
                        move || {
                            let event =
                                run_request(envelope, &writer, &registry, &shutdown, &live, conn);
                            // The thread outlives the request: drain what
                            // it recorded now, not at thread exit.
                            vgen_obs::flush();
                            // Written before the thread is idle again: a
                            // client that stops reading stalls this thread
                            // only, never a task handed to it next.
                            writer.send_last(&render_event(id, &event), counted);
                        }
                    };
                    if let Err(e) = run_on_check_thread(work) {
                        let message = format!("cannot start request thread: {e}");
                        respond(&writer, id, &Event::Error { message });
                    }
                } else {
                    let event = run_request(envelope, &writer, &registry, &shutdown, &live, conn);
                    // The reader outlives the request too.
                    vgen_obs::flush();
                    respond(&writer, id, &event);
                    if shutdown.is_set() {
                        break;
                    }
                }
            }
            Err(message) => {
                // A malformed line has no usable id; answer on id 0 so the
                // client at least sees why nothing else will arrive.
                respond(&writer, 0, &Event::Error { message });
            }
        }
    }
    // Connection closed: trip every in-flight request so abandoned sweeps
    // stop burning the pool (their journals keep the completed prefix).
    for token in registry.lock().unwrap_or_else(|e| e.into_inner()).values() {
        token.cancel();
    }
    in_flight.wait_empty();
    // The last answer is written under the writer's lock once its request
    // is uncounted: wait for that write.
    drop(writer.lines());
}

/// Runs the daemon on a unix socket at `socket`. Returns when a client
/// sends `shutdown` (or on a bind error). A stale socket file from a
/// previous (possibly killed) daemon is removed before binding — the
/// journals, not the socket, are the durable state.
///
/// # Errors
///
/// Binding or accept-loop I/O errors.
pub fn serve_unix(socket: &Path, opts: &DaemonOptions) -> io::Result<()> {
    match std::fs::remove_file(socket) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(socket)?;
    // Daemon-lifetime recording session: the live metrics plane drains it
    // via snapshots; nothing collects it until shutdown.
    vgen_obs::enable();
    // Every connection records onto this thread's lane: a lane outlives
    // its thread, so a lane per connection would grow the daemon's
    // snapshots and memory with every connection it ever served.
    let lane = vgen_obs::current_lane();
    let live = LiveState::default();
    let next_conn = AtomicU64::new(1);
    let shutdown = Arc::new(Shutdown {
        flag: AtomicBool::new(false),
        wake: Some(socket.to_path_buf()),
    });
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    if opts.verbose {
        eprintln!("[serve] listening on {}", socket.display());
    }
    loop {
        let (stream, _) = listener.accept()?;
        // A `shutdown` request sets the flag, then connects here to wake
        // this loop.
        if shutdown.is_set() {
            break;
        }
        if opts.verbose {
            eprintln!("[serve] connection accepted");
        }
        let shutdown = Arc::clone(&shutdown);
        let live = live.clone();
        let conn = next_conn.fetch_add(1, Ordering::Relaxed);
        let spawned = spawn_check_thread(format!("vgen-conn-{conn}"), move || {
            vgen_obs::adopt_lane(lane);
            let write_half: UnixStream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            };
            let writer = Arc::new(LineWriter::new(write_half));
            serve_connection(stream, writer, shutdown, live, conn);
        });
        match spawned {
            Ok(thread) => conns.push(thread),
            // The refused closure took the stream with it, so the
            // connection is closed; the daemon serves on.
            Err(e) => eprintln!("[serve] cannot start a connection thread: {e}"),
        }
        conns.retain(|h| !h.is_finished());
    }
    for c in conns {
        let _ = c.join();
    }
    let _ = vgen_obs::collect();
    let _ = std::fs::remove_file(socket);
    if opts.verbose {
        eprintln!("[serve] shut down");
    }
    Ok(())
}

/// Runs a single-client session over stdin/stdout — the zero-setup
/// transport (`vgen serve --stdio`), also what a supervisor that manages
/// its own process tree would use. The session runs on a connection
/// thread of its own, as every unix-socket connection does.
///
/// # Errors
///
/// The OS refused to spawn the session's thread.
pub fn serve_stdio() -> io::Result<()> {
    vgen_obs::enable();
    let session = spawn_check_thread("vgen-conn-0".into(), || {
        let writer = Arc::new(LineWriter::new(io::stdout()));
        let shutdown = Arc::new(Shutdown::default());
        serve_connection(io::stdin(), writer, shutdown, LiveState::default(), 0);
    });
    if let Err(panic) = session?.join() {
        std::panic::resume_unwind(panic);
    }
    let _ = vgen_obs::collect();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Serves one connection on a connection thread, as `serve_unix` does.
    fn spawn_connection<R, W>(reader: R, writer: Arc<LineWriter<W>>) -> std::thread::JoinHandle<()>
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        spawn_check_thread("vgen-conn-test".into(), move || {
            serve_connection(
                reader,
                writer,
                Arc::new(Shutdown::default()),
                LiveState::default(),
                0,
            );
        })
        .expect("spawn a connection thread")
    }

    /// Serves one in-memory connection and waits for it to close.
    fn serve_in_memory<R, W>(reader: R, writer: &Arc<LineWriter<W>>)
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        spawn_connection(reader, Arc::clone(writer))
            .join()
            .expect("connection served");
    }

    #[test]
    fn overlong_request_line_is_refused_and_closes_the_connection() {
        let writer = Arc::new(LineWriter::new(Vec::new()));
        // A newline-less stream one byte over the cap, followed by a valid
        // request that must never be read.
        let flood = io::repeat(b'x').take(MAX_REQUEST_LINE as u64 + 1);
        let reader = flood.chain(&b"\n{\"id\":1,\"cmd\":\"ping\"}\n"[..]);
        serve_in_memory(reader, &writer);
        let out = writer.lines().out.clone();
        let out = String::from_utf8(out).expect("utf-8 events");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "exactly one event: {out}");
        let event = Json::parse(lines[0]).expect("event is JSON");
        assert_eq!(event.get("event").and_then(Json::as_str), Some("error"));
        let message = event
            .get("message")
            .and_then(Json::as_str)
            .expect("message");
        assert!(message.starts_with("line_too_long"), "{message}");
    }

    #[test]
    fn request_line_at_the_cap_is_read() {
        let writer = Arc::new(LineWriter::new(Vec::new()));
        // A ping padded with trailing spaces to exactly the cap.
        let mut line = br#"{"id":3,"cmd":"ping"}"#.to_vec();
        line.resize(MAX_REQUEST_LINE, b' ');
        line.push(b'\n');
        serve_in_memory(io::Cursor::new(line), &writer);
        let out = writer.lines().out.clone();
        let out = String::from_utf8(out).expect("utf-8 events");
        assert!(!out.contains("line_too_long"), "{out}");
        assert!(out.contains("\"id\":3"), "{out}");
    }

    /// Feeds `lines` to one in-memory connection and returns its event
    /// lines.
    fn serve_lines(lines: &[Vec<u8>]) -> Vec<String> {
        let mut input = Vec::new();
        for line in lines {
            input.extend_from_slice(line);
            input.push(b'\n');
        }
        let writer = Arc::new(LineWriter::new(Vec::new()));
        serve_in_memory(io::Cursor::new(input), &writer);
        let out = writer.lines().out.clone();
        String::from_utf8(out)
            .expect("utf-8 events")
            .lines()
            .map(str::to_string)
            .collect()
    }

    /// What the daemon owes one request line.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Owed {
        /// A blank line: skipped unanswered.
        Nothing,
        /// One `error` event.
        Error,
        /// One `done` event.
        Done,
        /// A request that starts a thread or stops the connection; the
        /// property leaves these out.
        Work,
    }

    fn owed(line: &[u8]) -> Owed {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Ok(text) = std::str::from_utf8(line) else {
            return Owed::Error;
        };
        if text.trim().is_empty() {
            return Owed::Nothing;
        }
        match parse_request(text).map(|envelope| envelope.body) {
            // No request is in flight, so every cancel is refused.
            Err(_) | Ok(Request::Cancel { .. }) => Owed::Error,
            Ok(Request::Ping | Request::Metrics) => Owed::Done,
            Ok(_) => Owed::Work,
        }
    }

    /// Requests that, mutated or not, never start a sweep.
    const LIGHT: [&[u8]; 3] = [
        br#"{"id":1,"cmd":"ping"}"#,
        br#"{"id":2,"cmd":"cancel","target":9}"#,
        br#"{"id":3,"cmd":"subscribe","count":0}"#,
    ];

    /// Applies `(position, byte, op)` edits to `seed`: op 0 overwrites a
    /// byte, 1 inserts one, 2 deletes one. Newlines become spaces, so the
    /// result stays one line.
    fn mutate(seed: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
        let mut line = seed.to_vec();
        for &(at, byte, op) in edits {
            let byte = if byte == b'\n' { b' ' } else { byte };
            match op {
                0 if !line.is_empty() => {
                    let at = at % line.len();
                    line[at] = byte;
                }
                1 => line.insert(at % (line.len() + 1), byte),
                _ if !line.is_empty() => {
                    line.remove(at % line.len());
                }
                _ => {}
            }
        }
        line
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Every line a client sends, however hostile, gets exactly one
        /// well-formed answer (an `error` event when it is rejected) and
        /// panics nothing.
        #[test]
        fn every_hostile_line_gets_one_well_formed_answer(
            noise in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
                0..6,
            ),
            mutants in proptest::collection::vec(
                (
                    0usize..3,
                    proptest::collection::vec(
                        (
                            proptest::prelude::any::<usize>(),
                            proptest::prelude::any::<u8>(),
                            0u8..3,
                        ),
                        1..4,
                    ),
                ),
                0..10,
            ),
        ) {
            let mut lines: Vec<Vec<u8>> = noise
                .into_iter()
                .map(|l| l.into_iter().map(|b| if b == b'\n' { b' ' } else { b }).collect())
                .collect();
            lines.extend(mutants.iter().map(|(seed, edits)| mutate(LIGHT[*seed], edits)));
            lines.retain(|l| owed(l) != Owed::Work);
            let expected: Vec<Owed> = lines.iter().map(|l| owed(l)).filter(|o| *o != Owed::Nothing).collect();
            let answers = serve_lines(&lines);
            proptest::prop_assert_eq!(answers.len(), expected.len(), "{:?}", answers);
            for (answer, owed) in answers.iter().zip(expected) {
                let event = Json::parse(answer);
                proptest::prop_assert!(event.is_ok(), "not JSON: {}", answer);
                let event = event.expect("checked");
                let kind = event.get("event").and_then(Json::as_str);
                proptest::prop_assert_eq!(kind, Some(if owed == Owed::Error { "error" } else { "done" }), "{}", answer);
            }
        }
    }

    #[test]
    fn non_rfc_numbers_and_bytes_are_refused_with_an_error() {
        let lines: Vec<Vec<u8>> = [
            &br#"{"id":01,"cmd":"ping"}"#[..],
            br#"{"id":1.,"cmd":"ping"}"#,
            b"{\"id\":1,\"cmd\":\"p\xffing\"}",
            br#"{"id":4,"cmd":"ping"}"#,
        ]
        .iter()
        .map(|l| l.to_vec())
        .collect();
        let answers = serve_lines(&lines);
        assert_eq!(answers.len(), 4, "{answers:?}");
        for answer in &answers[..3] {
            let event = Json::parse(answer).expect("event is JSON");
            assert_eq!(event.get("event").and_then(Json::as_str), Some("error"));
            assert_eq!(event.get("id").and_then(Json::as_u64), Some(0));
        }
        assert_eq!(answers[3], r#"{"id":4,"event":"done","payload":"pong"}"#);
    }

    /// Keeps the bytes of every `write` call it gets.
    #[derive(Default)]
    struct CountingWrite(Vec<Vec<u8>>);

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A wire sink for request 5 over a counting writer.
    fn counting_sink() -> WireSink<CountingWrite> {
        WireSink {
            writer: Arc::new(LineWriter::new(CountingWrite::default())),
            id: 5,
        }
    }

    fn writes(sink: &WireSink<CountingWrite>) -> Vec<String> {
        let lines = sink.writer.lines();
        lines
            .out
            .0
            .iter()
            .map(|w| String::from_utf8(w.clone()).expect("utf-8 events"))
            .collect()
    }

    fn progress(done: usize) -> Event {
        Event::Progress {
            done,
            total: 9,
            outcome: "pass",
        }
    }

    /// The bytes a sequence of events puts on the wire, one line each.
    fn wire_text(events: &[Event]) -> String {
        events
            .iter()
            .map(|event| render_event(5, event) + "\n")
            .collect()
    }

    #[test]
    fn a_non_progress_event_is_one_write() {
        let sink = counting_sink();
        let accepted = Event::Accepted { cmd: "eval" };
        sink.event(&accepted);
        assert_eq!(writes(&sink), [wire_text(&[accepted])]);
    }

    #[test]
    fn a_burst_of_progress_lines_is_one_write_at_its_end() {
        let sink = counting_sink();
        let burst: Vec<Event> = (1..=4).map(progress).collect();
        for event in &burst {
            sink.event(event);
        }
        assert!(writes(&sink).is_empty(), "progress waits for its burst end");
        sink.flush();
        assert_eq!(writes(&sink), [wire_text(&burst)]);
        sink.flush();
        assert_eq!(writes(&sink).len(), 1, "an empty burst writes nothing");
    }

    #[test]
    fn a_send_writes_the_queued_lines_first_in_order() {
        let sink = counting_sink();
        let done = Event::Done {
            payload: Json::str("ok"),
        };
        for event in [progress(1), progress(2), done.clone()] {
            sink.event(&event);
        }
        assert_eq!(
            writes(&sink),
            [wire_text(&[progress(1), progress(2), done])]
        );
    }

    /// Serializes the tests that count, spawn or hold threads of the
    /// process-wide thread cache, so no count sees another test's threads.
    static THREAD_CACHE: Mutex<()> = Mutex::new(());

    fn check_line(id: u64) -> String {
        format!(
            r#"{{"id":{id},"cmd":"check","problem":2,"source":"assign y = a & b;\nendmodule"}}"#
        )
    }

    /// A check of problem 2 that passes after a long zero-delay spin.
    fn slow_check_line(id: u64) -> String {
        let (_, source) = vgen_lm::mutate::slow_corpus()
            .into_iter()
            .find(|(op, _)| *op == vgen_lm::mutate::SlowOp::SpinNearStepCap)
            .expect("a spin in the slow corpus");
        Json::Obj(vec![
            ("id".to_string(), Json::Num(id as f64)),
            ("cmd".to_string(), Json::str("check")),
            ("problem".to_string(), Json::Num(2.0)),
            ("source".to_string(), Json::Str(source)),
        ])
        .render()
    }

    /// Serves the daemon end of a socket pair on a connection thread, as
    /// `serve_unix` does; returns the client end and that thread.
    fn serve_pair() -> (UnixStream, std::thread::JoinHandle<()>) {
        let (client, server) = UnixStream::pair().expect("socket pair");
        let write_half = server.try_clone().expect("clone the daemon end");
        let daemon = spawn_connection(server, Arc::new(LineWriter::new(write_half)));
        (client, daemon)
    }

    /// Reads the next event off `events` as `(id, kind, event)`.
    fn next_event(events: &mut io::Lines<BufReader<UnixStream>>) -> (u64, String, Json) {
        let line = events.next().expect("an event").expect("event text");
        let event = Json::parse(&line).expect("event is JSON");
        let id = event.get("id").and_then(Json::as_u64).expect("an id");
        let kind = event.get("event").and_then(Json::as_str).expect("a kind");
        (id, kind.to_string(), event)
    }

    /// Drives one connection with `client` in a recording session of its
    /// own, then closes it; returns what the session recorded.
    fn recorded_connection(
        client: impl FnOnce(&mut UnixStream, &mut io::Lines<BufReader<UnixStream>>),
    ) -> vgen_obs::ObsReport {
        vgen_obs::enable();
        let (mut stream, daemon) = serve_pair();
        let mut events = BufReader::new(stream.try_clone().expect("clone the client end")).lines();
        client(&mut stream, &mut events);
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("close the request side");
        daemon.join().expect("connection served");
        vgen_obs::collect()
    }

    /// Asserts that `obs` recorded every check of a run of `checks` on the
    /// connection's own thread: no thread spawned or handed a check.
    fn assert_checked_on_the_connection_thread(obs: &vgen_obs::ObsReport, checks: u64) {
        let counter = |name: &str| obs.counters.get(name).copied().unwrap_or(0);
        assert_eq!(counter("guard.thread_spawn"), 0, "{:?}", obs.counters);
        assert_eq!(counter("guard.handoff"), 0, "{:?}", obs.counters);
        assert!(
            obs.hists.get("parse").map_or(0, |h| h.count) >= checks,
            "every check was recorded"
        );
    }

    #[test]
    fn closed_loop_checks_run_on_the_connection_thread() {
        let _serial = THREAD_CACHE.lock().unwrap_or_else(|e| e.into_inner());
        let obs = recorded_connection(|client, events| {
            for id in 1..=500 {
                writeln!(client, "{}", check_line(id)).expect("send a check");
                assert_eq!(next_event(events).1, "accepted");
                let (_, kind, done) = next_event(events);
                assert_eq!(kind, "done");
                let outcome = done.get("payload").and_then(|p| p.get("outcome"));
                assert_eq!(outcome.and_then(Json::as_str), Some("pass"));
            }
        });
        assert_checked_on_the_connection_thread(&obs, 500);
    }

    #[test]
    fn pipelined_checks_are_answered_in_order_on_the_connection_thread() {
        let _serial = THREAD_CACHE.lock().unwrap_or_else(|e| e.into_inner());
        let obs = recorded_connection(|client, events| {
            let batch: String = (1..=50).map(|id| check_line(id) + "\n").collect();
            client
                .write_all(batch.as_bytes())
                .expect("send 50 checks in one write");
            for id in 1..=50 {
                assert_eq!(next_event(events).0, id);
                let (answered, kind, done) = next_event(events);
                assert_eq!((answered, kind.as_str()), (id, "done"));
                let outcome = done.get("payload").and_then(|p| p.get("outcome"));
                assert_eq!(outcome.and_then(Json::as_str), Some("pass"));
            }
        });
        assert_checked_on_the_connection_thread(&obs, 50);
    }

    /// A check that arrives while a subscription is in flight is handed
    /// off, so the reader answers a `cancel` sent behind it first; once
    /// nothing is in flight, a check runs on the reader again, so a `ping`
    /// sent behind it waits for it.
    #[test]
    fn a_check_behind_in_flight_work_is_handed_off_and_the_next_one_is_not() {
        let _serial = THREAD_CACHE.lock().unwrap_or_else(|e| e.into_inner());
        let (mut client, daemon) = serve_pair();
        let mut events = BufReader::new(client.try_clone().expect("clone the client end")).lines();
        writeln!(
            client,
            r#"{{"id":1,"cmd":"subscribe","interval_ms":60000}}"#
        )
        .expect("subscribe");
        assert_eq!(next_event(&mut events).0, 1);
        writeln!(client, "{}", slow_check_line(2)).expect("send a slow check");
        assert_eq!(next_event(&mut events).0, 2, "the check is accepted");
        writeln!(client, r#"{{"id":3,"cmd":"cancel","target":1}}"#).expect("cancel");
        let mut order = Vec::new();
        while order.len() < 3 {
            let (id, kind, _) = next_event(&mut events);
            order.push((id, kind));
        }
        let at = |id: u64| order.iter().position(|(i, _)| *i == id).expect("answered");
        assert!(at(3) < at(2), "the cancel is answered first: {order:?}");
        assert!(order.contains(&(1, "cancelled".to_string())), "{order:?}");
        assert!(order.contains(&(3, "done".to_string())), "{order:?}");

        // Both requests were uncounted before their last events were
        // written, so a check sent now runs on the reader.
        let batch = format!("{}\n{{\"id\":5,\"cmd\":\"ping\"}}\n", slow_check_line(4));
        client
            .write_all(batch.as_bytes())
            .expect("send a check and a ping");
        let answers: Vec<(u64, String)> = (0..3)
            .map(|_| {
                let (id, kind, _) = next_event(&mut events);
                (id, kind)
            })
            .collect();
        let expected =
            [(4, "accepted"), (4, "done"), (5, "done")].map(|(id, kind)| (id, kind.to_string()));
        assert_eq!(answers, expected, "the ping waits for the check");
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("close the request side");
        daemon.join().expect("connection served");
    }

    /// A 10,000-term operator chain used to overflow the check thread's
    /// stack and end the daemon; now it is a compile failure that names the
    /// parser's depth cap, and the connection serves on.
    #[test]
    fn a_deep_operator_chain_is_a_compile_failure_and_the_daemon_serves_on() {
        let (mut client, daemon) = serve_pair();
        let mut events = BufReader::new(client.try_clone().expect("clone the client end")).lines();
        let mut next = || {
            let line = events.next().expect("an event").expect("event text");
            Json::parse(&line).expect("event is JSON")
        };
        let chain = vec!["a"; 10_000].join(" ^ ");
        writeln!(
            client,
            r#"{{"id":1,"cmd":"check","problem":2,"source":"assign y = {chain};\nendmodule"}}"#
        )
        .expect("send the check");
        assert_eq!(next().get("event").and_then(Json::as_str), Some("accepted"));
        let done = next();
        let payload = done.get("payload").expect("a payload");
        assert_eq!(
            payload.get("outcome").and_then(Json::as_str),
            Some("compile_fail")
        );
        let detail = payload
            .get("detail")
            .and_then(Json::as_str)
            .expect("detail");
        let refusal = format!(
            "expression deeper than {} levels",
            vgen_verilog::parser::MAX_EXPR_DEPTH
        );
        assert!(detail.contains(&refusal), "{detail}");
        writeln!(client, r#"{{"id":2,"cmd":"ping"}}"#).expect("send a ping");
        let pong = next();
        assert_eq!(pong.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(pong.get("payload").and_then(Json::as_str), Some("pong"));
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("close the request side");
        daemon.join().expect("connection served");
    }

    /// A second request with the id of one in flight is refused, and the
    /// first stays registered: cancellable by its id, and tripped when the
    /// connection closes.
    #[test]
    fn a_duplicate_request_id_is_refused_and_the_first_stays_registered() {
        let _serial = THREAD_CACHE.lock().unwrap_or_else(|e| e.into_inner());
        let (mut client, daemon) = serve_pair();
        let mut events = BufReader::new(client.try_clone().expect("clone the client end")).lines();
        let mut next = || {
            let line = events.next().expect("an event").expect("event text");
            Json::parse(&line).expect("event is JSON")
        };
        let kind = |event: &Json| {
            event
                .get("event")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let subscribe = |id: u64| format!(r#"{{"id":{id},"cmd":"subscribe","interval_ms":60000}}"#);
        for (id, close) in [(7, false), (8, true)] {
            writeln!(client, "{}", subscribe(id)).expect("subscribe");
            let accepted = next();
            assert_eq!(
                kind(&accepted).as_deref(),
                Some("accepted"),
                "{}",
                accepted.render()
            );
            writeln!(client, "{}", subscribe(id)).expect("subscribe again");
            let refused = next();
            assert_eq!(refused.get("id").and_then(Json::as_u64), Some(id));
            let message = refused.get("message").and_then(Json::as_str);
            let expected = format!("request id {id} is already in flight");
            assert_eq!(message, Some(expected.as_str()), "{}", refused.render());
            if close {
                client
                    .shutdown(std::net::Shutdown::Write)
                    .expect("close the request side");
            } else {
                writeln!(client, r#"{{"id":9,"cmd":"cancel","target":{id}}}"#).expect("cancel");
            }
            // The cancel answer and the subscription's end, in either order.
            let mut ends: Vec<(u64, String)> = (0..if close { 1 } else { 2 })
                .map(|_| {
                    let event = next();
                    let id = event.get("id").and_then(Json::as_u64).expect("an id");
                    (id, kind(&event).expect("an event kind"))
                })
                .collect();
            ends.sort();
            let mut expected = vec![(id, "cancelled".to_string())];
            if !close {
                expected.push((9, "done".to_string()));
            }
            assert_eq!(ends, expected);
        }
        daemon.join().expect("connection served");
    }

    /// A client that stops reading at its first answer: writing a `done`
    /// event reports on `stalled`, then blocks until `release` is dropped.
    struct StalledClient {
        stalled: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    }

    impl Write for StalledClient {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            const DONE: &[u8] = br#""event":"done""#;
            if buf.windows(DONE.len()).any(|w| w == DONE) {
                let _ = self.stalled.send(());
                let _ = self.release.recv();
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_client_that_stops_reading_stalls_no_other_connection() {
        let _serial = THREAD_CACHE.lock().unwrap_or_else(|e| e.into_inner());
        let patience = Duration::from_secs(60);
        // Connection A pipelines three checks and never reads an answer.
        let (stalled_tx, stalled) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let pipelined: String = (1..=3).map(|id| check_line(id) + "\n").collect();
        let a = std::thread::spawn(move || {
            let writer = Arc::new(LineWriter::new(StalledClient {
                stalled: stalled_tx,
                release: release_rx,
            }));
            serve_connection(
                pipelined.as_bytes(),
                writer,
                Arc::new(Shutdown::default()),
                LiveState::default(),
                1,
            );
        });
        stalled
            .recv_timeout(patience)
            .expect("connection A blocks writing an answer");

        // Connection B: a check, then a sweep with a deadline on every
        // check, each answered while A is stalled.
        let (mut client, b) = serve_pair();
        let lines = BufReader::new(client.try_clone().expect("clone the client end"));
        let (line_tx, events) = mpsc::channel();
        std::thread::spawn(move || {
            for line in lines.lines().map_while(Result::ok) {
                if line_tx.send(line).is_err() {
                    break;
                }
            }
        });
        let answer = |id: f64| loop {
            let line = events
                .recv_timeout(patience)
                .expect("connection B is answered while A is stalled");
            let event = Json::parse(&line).expect("event is JSON");
            let kind = event.get("event").and_then(Json::as_str);
            if event.get("id").and_then(Json::as_f64) == Some(id)
                && !matches!(kind, Some("accepted" | "progress"))
            {
                return event;
            }
        };
        writeln!(client, "{}", check_line(10)).expect("send a check");
        let done = answer(10.0);
        let outcome = done.get("payload").and_then(|p| p.get("outcome"));
        assert_eq!(
            outcome.and_then(Json::as_str),
            Some("pass"),
            "{}",
            done.render()
        );

        let journal = std::env::temp_dir().join(format!("vgen-stall-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let eval = Json::Obj(vec![
            ("id".to_string(), Json::Num(11.0)),
            ("cmd".to_string(), Json::str("eval")),
            (
                "journal".to_string(),
                Json::str(journal.to_string_lossy().into_owned()),
            ),
            (
                "problems".to_string(),
                Json::Arr(vec![Json::Num(2.0), Json::Num(3.0)]),
            ),
            ("ns".to_string(), Json::Arr(vec![Json::Num(1.0)])),
            ("temperatures".to_string(), Json::Arr(vec![Json::Num(0.1)])),
            ("levels".to_string(), Json::str("LMH")),
            ("jobs".to_string(), Json::Num(2.0)),
            ("check_timeout".to_string(), Json::Num(10.0)),
        ]);
        writeln!(client, "{}", eval.render()).expect("send an eval");
        let done = answer(11.0);
        let _ = std::fs::remove_file(&journal);
        let report = done
            .get("payload")
            .and_then(|p| p.get("report"))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("a report: {}", done.render()));
        assert!(report.contains("check timeouts:  0"), "{report}");

        client
            .shutdown(std::net::Shutdown::Write)
            .expect("close B's request side");
        b.join().expect("connection B served");
        drop(release);
        a.join().expect("connection A served once released");
    }
}
