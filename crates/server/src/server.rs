//! The TCP listener, admission control and per-session request loop.
//!
//! One OS thread per admitted session, which is the right shape here:
//! sessions are the concurrency — each query runs on its session's own
//! thread, against its own MVCC snapshot — so a session thread spends its
//! life either blocked on the socket or inside one query. Admission control bounds the thread
//! count — a connection beyond [`ServerConfig::max_connections`] gets an
//! explicit `Hello { admitted: false }` frame and a closed socket, never
//! a silent hang.
//!
//! Shutdown is cooperative and draining: [`ServerHandle::shutdown`] sets
//! a flag, the accept loop stops admitting, and every session finishes
//! the request it is currently serving (including one whose frame is
//! mid-flight on the wire, up to a grace period) before its thread
//! exits. `shutdown` returns only after the accept thread has joined all
//! session threads, so when it returns no query is still running.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use xomatiq_obs::trace::{self, TraceCtx};
use xomatiq_obs::{Counter, Gauge, Histogram};
use xomatiq_relstore::{Database, Session, Value};

use crate::proto::{Request, Response, MAX_FRAME_LEN};

/// How long a session sleeps in the socket read before re-checking the
/// shutdown flag. Small enough that shutdown feels immediate, large
/// enough that idle sessions cost nothing measurable.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// After shutdown begins, how long a session waits for a client to
/// finish sending a frame it has already started.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Maximum concurrently admitted sessions; connections beyond this
    /// are rejected with a busy frame.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            max_connections: 64,
        }
    }
}

/// State shared between the accept loop, session threads and the handle.
struct Shared {
    db: Arc<Database>,
    shutdown: AtomicBool,
    active: AtomicUsize,
    rejected: AtomicU64,
    max_connections: usize,
    metrics: Metrics,
}

/// Obs handles, resolved once at startup so the per-request path never
/// touches the registry's name map.
struct Metrics {
    accepted: Counter,
    rejected_total: Counter,
    requests: Counter,
    active_sessions: Gauge,
    rejected_gauge: Gauge,
    latency_ns: Histogram,
}

impl Metrics {
    fn new() -> Metrics {
        let reg = xomatiq_obs::global();
        Metrics {
            accepted: reg.counter("server.connections.accepted"),
            rejected_total: reg.counter("server.connections.rejected"),
            requests: reg.counter("server.requests"),
            active_sessions: reg.gauge("server.sessions.active"),
            rejected_gauge: reg.gauge("server.connections.rejected_current"),
            latency_ns: reg.histogram("server.request.latency_ns"),
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

/// Starts a server over `db` and returns once the listener is bound —
/// clients may connect immediately.
pub fn start(db: Arc<Database>, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        db,
        shutdown: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        rejected: AtomicU64::new(0),
        max_connections: config.max_connections.max(1),
        metrics: Metrics::new(),
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("xomatiq-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The bound listen address (the real port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently admitted (connected and not yet closed).
    pub fn active_sessions(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Connections rejected by admission control since startup.
    pub fn rejected_connections(&self) -> u64 {
        self.shared.rejected.load(Ordering::SeqCst)
    }

    /// Signals shutdown and blocks until every in-flight request has
    /// completed and every session thread has exited.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut sessions: Vec<thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                sessions.retain(|t| !t.is_finished());
                handle_accept(stream, &shared, &mut sessions);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Listener errors (EMFILE and friends) are not fatal to
            // existing sessions; back off and keep trying.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
    for t in sessions {
        let _ = t.join();
    }
}

fn handle_accept(
    mut stream: TcpStream,
    shared: &Arc<Shared>,
    sessions: &mut Vec<thread::JoinHandle<()>>,
) {
    let _ = stream.set_nodelay(true);
    // Admission: claim a slot optimistically, back out if over the limit.
    let prev = shared.active.fetch_add(1, Ordering::SeqCst);
    if prev >= shared.max_connections {
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        shared.metrics.rejected_total.inc();
        shared.metrics.rejected_gauge.add(1);
        let _ = stream.write_all(&Response::Hello { admitted: false }.encode());
        let _ = stream.flush();
        return;
    }
    shared.metrics.accepted.inc();
    shared
        .metrics
        .active_sessions
        .set(shared.active.load(Ordering::SeqCst) as i64);
    let session_shared = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name("xomatiq-session".to_string())
        .spawn(move || {
            run_session(stream, &session_shared);
            session_shared.active.fetch_sub(1, Ordering::SeqCst);
            session_shared
                .metrics
                .active_sessions
                .set(session_shared.active.load(Ordering::SeqCst) as i64);
        });
    match spawned {
        Ok(t) => sessions.push(t),
        Err(_) => {
            // Could not spawn a thread: treat like a rejection.
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            shared.metrics.rejected_total.inc();
        }
    }
}

/// What one shutdown-aware frame read produced.
enum FrameRead {
    /// A complete frame body (opcode + payload).
    Frame(Vec<u8>),
    /// The peer closed the connection between frames.
    Eof,
    /// Shutdown was requested while the connection was idle (no frame
    /// in progress) or a mid-flight frame outlived the drain grace.
    Shutdown,
}

/// Reads one frame, polling the socket with a short timeout so the
/// shutdown flag is observed. A frame whose first byte has arrived is
/// allowed to finish even during shutdown — that is the "drain" half of
/// graceful shutdown — but only within [`DRAIN_GRACE`] of the flag.
fn read_frame_draining(stream: &mut TcpStream, shared: &Shared) -> io::Result<FrameRead> {
    let mut drain_deadline: Option<Instant> = None;
    let check = |started: bool, deadline: &mut Option<Instant>| -> Option<FrameRead> {
        if !shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if !started {
            return Some(FrameRead::Shutdown);
        }
        let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
        (Instant::now() >= d).then_some(FrameRead::Shutdown)
    };

    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(FrameRead::Eof)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if let Some(out) = check(filled > 0, &mut drain_deadline) {
                    return Ok(out);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    let mut body = vec![0u8; len];
    filled = 0;
    while filled < len {
        match stream.read(&mut body[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                if let Some(out) = check(true, &mut drain_deadline) {
                    return Ok(out);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(body))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One connection's lifetime: greet, then serve request frames until the
/// client says goodbye, disconnects, errors fatally, or shutdown drains
/// it. Session state (prepared statements) lives on the stack, so every
/// exit path — including a killed client — cleans up by simply returning.
fn run_session(mut stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    if stream
        .write_all(&Response::Hello { admitted: true }.encode())
        .and_then(|()| stream.flush())
        .is_err()
    {
        return;
    }
    let mut session = Session::new(Arc::clone(&shared.db));
    loop {
        let body = match read_frame_draining(&mut stream, shared) {
            Ok(FrameRead::Frame(body)) => body,
            Ok(FrameRead::Eof) | Ok(FrameRead::Shutdown) | Err(_) => return,
        };
        let request = match Request::decode(&body) {
            Ok(r) => r,
            Err(e) => {
                // A malformed frame means the stream is unsynchronized;
                // report and hang up rather than guessing at boundaries.
                let resp = Response::Error {
                    code: "proto".to_string(),
                    message: e.to_string(),
                };
                let _ = stream.write_all(&resp.encode());
                return;
            }
        };
        // Unwrap a trace envelope: the client-chosen id becomes this
        // request's trace root, so every span the engine opens below —
        // parse, plan, exec, even the WAL group-commit flush on another
        // session's thread — links into the client's trace.
        let (trace_id, request) = match request {
            Request::Traced { trace_id, inner } => (Some(trace_id), *inner),
            other => (None, other),
        };
        let goodbye = matches!(request, Request::Goodbye);
        shared.metrics.requests.inc();
        let started = Instant::now();
        let response = match trace_id {
            Some(id) => {
                let _trace = trace::scope(TraceCtx::with_trace_id(id));
                let inner = {
                    let _root = trace::span("server.request");
                    handle_request(&mut session, request)
                };
                Response::Traced {
                    trace_id: id,
                    inner: Box::new(inner),
                }
            }
            None => handle_request(&mut session, request),
        };
        shared
            .metrics
            .latency_ns
            .record(started.elapsed().as_nanos() as u64);
        if stream
            .write_all(&response.encode())
            .and_then(|()| stream.flush())
            .is_err()
        {
            return;
        }
        if goodbye {
            return;
        }
    }
}

/// Pure request → response dispatch; everything fallible becomes an
/// [`Response::Error`] carrying the engine's stable error code.
fn handle_request(session: &mut Session, request: Request) -> Response {
    match request {
        Request::Query { sql, params } => run_to_response(session.run_sql(&sql, params)),
        Request::Prepare { sql } => match session.prepare(&sql) {
            Ok(handle) => Response::Prepared {
                stmt_id: handle.id,
                param_count: handle.param_count as u32,
            },
            Err(e) => error_response(&e),
        },
        Request::Execute { stmt_id, params } => run_to_response(session.execute(stmt_id, params)),
        Request::CloseStmt { stmt_id } => Response::Closed {
            existed: session.close_stmt(stmt_id),
        },
        Request::Explain { sql, analyze } => match session.explain(&sql, analyze) {
            Ok(body) => Response::Text { body },
            Err(e) => error_response(&e),
        },
        Request::Ping => Response::Pong,
        Request::Metrics => Response::Text {
            body: xomatiq_obs::global().snapshot().render_text(),
        },
        Request::MetricsJson => Response::Text {
            body: xomatiq_obs::global().snapshot().render_json(),
        },
        Request::Goodbye => Response::Bye,
        // The session loop unwraps envelopes before dispatch; one that
        // reaches here (wrappers do not nest) is a protocol violation.
        Request::Traced { .. } => Response::Error {
            code: "proto".to_string(),
            message: "unexpected nested trace wrapper".to_string(),
        },
    }
}

fn run_to_response(
    outcome: Result<xomatiq_relstore::QueryOutcome, xomatiq_relstore::RelError>,
) -> Response {
    match outcome {
        Ok(out) => {
            let rs = out.rows;
            if rs.columns().is_empty() {
                Response::Affected {
                    count: rs.affected() as u64,
                }
            } else {
                let columns = rs.columns().to_vec();
                let rows: Vec<Vec<Value>> = rs.into_rows();
                Response::Rows { columns, rows }
            }
        }
        Err(e) => error_response(&e),
    }
}

fn error_response(e: &xomatiq_relstore::RelError) -> Response {
    Response::Error {
        code: e.code().to_string(),
        message: e.to_string(),
    }
}
