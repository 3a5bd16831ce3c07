//! End-to-end serving-layer behaviour over real TCP sockets: snapshot
//! isolation across concurrent sessions, session-scoped prepared
//! statements, admission-control rejection, draining shutdown, and
//! cleanup after an abruptly killed client.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use xomatiq_relstore::{Database, Value};
use xomatiq_server::{proto, start, Client, ClientError, QueryReply, ServerConfig};

fn serve(db: Arc<Database>, max_connections: usize) -> xomatiq_server::ServerHandle {
    start(
        db,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections,
        },
    )
    .expect("start server")
}

/// Polls until `cond` holds or the deadline passes.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

/// ≥ 8 concurrent TCP clients each repeatedly read `MIN(v)` and `MAX(v)`
/// while a ninth session keeps running a whole-table `UPDATE ... v + 1`.
/// Under MVCC snapshot pinning every read sees one committed state, so
/// the two aggregates must always agree — a torn read would surface as
/// `min != max`.
#[test]
fn concurrent_sessions_see_snapshot_consistent_results() {
    let db = Arc::new(Database::in_memory());
    db.query("CREATE TABLE counters (id INT, v INT)")
        .run()
        .unwrap();
    for i in 0..200i64 {
        db.query("INSERT INTO counters VALUES (?, 0)")
            .bind(i)
            .run()
            .unwrap();
    }
    let server = serve(db, 16);
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let writer_stop = Arc::clone(&stop);
    let writer = thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let mut updates = 0u64;
        while !writer_stop.load(Ordering::Relaxed) {
            match c.query("UPDATE counters SET v = v + 1", vec![]).unwrap() {
                QueryReply::Affected(n) => assert_eq!(n, 200),
                other => panic!("expected affected count, got {other:?}"),
            }
            updates += 1;
        }
        c.goodbye().unwrap();
        updates
    });

    let readers: Vec<_> = (0..8)
        .map(|_| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..25 {
                    let reply = c
                        .query("SELECT MIN(v), MAX(v) FROM counters", vec![])
                        .unwrap();
                    let rows = reply.rows();
                    assert_eq!(rows.len(), 1);
                    assert_eq!(
                        rows[0][0], rows[0][1],
                        "snapshot torn: min and max diverged under a concurrent writer"
                    );
                }
                c.goodbye().unwrap();
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader");
    }
    stop.store(true, Ordering::Relaxed);
    let updates = writer.join().expect("writer");
    assert!(
        updates > 0,
        "writer never committed during the readers' run"
    );
}

#[test]
fn prepared_statements_are_session_scoped() {
    let db = Arc::new(Database::in_memory());
    db.query("CREATE TABLE t (a INT, s TEXT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 'one')").run().unwrap();
    let server = serve(db, 8);

    let mut a = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    let (stmt, param_count) = a.prepare("SELECT s FROM t WHERE a = ?").unwrap();
    assert_eq!(param_count, 1);

    // The owning session executes its handle fine.
    let reply = a.execute(stmt, vec![Value::Int(1)]).unwrap();
    assert_eq!(reply.rows()[0][0], Value::Text("one".into()));

    // The same id from another session is rejected, not cross-served.
    match b.execute(stmt, vec![Value::Int(1)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "bind"),
        other => panic!("expected a server bind error, got {other:?}"),
    }
    // And the rejection did not poison B's session.
    b.ping().unwrap();

    // Closing is also session-scoped: A can, then the handle is gone.
    assert!(a.close_stmt(stmt).unwrap());
    assert!(matches!(
        a.execute(stmt, vec![Value::Int(1)]),
        Err(ClientError::Server { .. })
    ));

    a.goodbye().unwrap();
    b.goodbye().unwrap();
}

#[test]
fn over_limit_connections_are_rejected_cleanly() {
    let db = Arc::new(Database::in_memory());
    let server = serve(db, 2);
    let addr = server.local_addr();

    let mut c1 = Client::connect(addr).unwrap();
    let c2 = Client::connect(addr).unwrap();
    // Third connection: explicit busy frame, not a hang or a reset.
    match Client::connect(addr) {
        Err(ClientError::Busy) => {}
        other => panic!("expected busy rejection, got {other:?}"),
    }
    assert_eq!(server.rejected_connections(), 1);
    assert_eq!(server.active_sessions(), 2);
    // The admitted sessions were unaffected by the rejection.
    c1.ping().unwrap();

    // A slot frees on goodbye and a new connection is admitted.
    c2.goodbye().unwrap();
    wait_for("slot to free", || server.active_sessions() < 2);
    let c3 = Client::connect(addr).unwrap();
    c3.goodbye().unwrap();
    c1.goodbye().unwrap();
}

/// Shutdown must drain: a query in flight when `shutdown` is called
/// completes and its response reaches the client.
#[test]
fn graceful_shutdown_drains_in_flight_queries() {
    let db = Arc::new(Database::in_memory());
    db.query("CREATE TABLE n (i INT)").run().unwrap();
    for i in 0..1200i64 {
        db.query("INSERT INTO n VALUES (?)").bind(i).run().unwrap();
    }
    let mut server = serve(db, 8);
    let addr = server.local_addr();

    let started = Arc::new(AtomicBool::new(false));
    let started_flag = Arc::clone(&started);
    let worker = thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        started_flag.store(true, Ordering::SeqCst);
        // A cross join big enough to still be running when shutdown hits.
        c.query(
            "SELECT COUNT(*) FROM n a, n b WHERE a.i + b.i = 1199",
            vec![],
        )
    });

    wait_for("query to start", || started.load(Ordering::SeqCst));
    thread::sleep(Duration::from_millis(30));
    server.shutdown();
    // shutdown() returning means all session threads exited — and the
    // in-flight query's answer must have been delivered first.
    let reply = worker
        .join()
        .expect("client thread")
        .expect("drained query");
    assert_eq!(reply.rows()[0][0], Value::Int(1200));

    // After shutdown the listener is gone.
    assert!(Client::connect(addr).is_err());
}

/// A client that vanishes mid-session (and even mid-request) must leave
/// no session state behind: the slot frees, and new sessions still work.
#[test]
fn killed_client_leaks_no_session_state() {
    let db = Arc::new(Database::in_memory());
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (7)").run().unwrap();
    let server = serve(db, 3);
    let addr = server.local_addr();

    // Kill one client between requests, holding prepared statements.
    let mut idle = Client::connect(addr).unwrap();
    idle.prepare("SELECT a FROM t WHERE a = ?").unwrap();
    wait_for("both sessions up", || server.active_sessions() >= 1);
    drop(idle); // socket closes with no goodbye

    // Kill another one mid-request: write a query frame, then vanish
    // before reading the response.
    let mut raw = TcpStream::connect(addr).unwrap();
    let hello = proto::read_frame(&mut &raw).unwrap().expect("hello frame");
    assert!(matches!(
        proto::Response::decode(&hello).unwrap(),
        proto::Response::Hello { admitted: true }
    ));
    let req = proto::Request::Query {
        sql: "SELECT COUNT(*) FROM t a, t b".to_string(),
        params: vec![],
    };
    raw.write_all(&req.encode()).unwrap();
    raw.flush().unwrap();
    drop(raw);

    // Both slots must come back without any explicit cleanup call.
    wait_for("killed sessions to be reaped", || {
        server.active_sessions() == 0
    });

    // The server is fully usable afterwards, up to its connection limit.
    let mut fresh: Vec<Client> = (0..3).map(|_| Client::connect(addr).unwrap()).collect();
    let reply = fresh[0].query("SELECT a FROM t", vec![]).unwrap();
    assert_eq!(reply.rows()[0][0], Value::Int(7));
    for c in fresh.drain(..) {
        c.goodbye().unwrap();
    }
}

/// The `METRICS` command returns the deterministic obs rendering and the
/// serving-layer instruments show up in it.
#[test]
fn metrics_command_reports_server_instruments() {
    let db = Arc::new(Database::in_memory());
    let server = serve(db, 4);
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.ping().unwrap();
    let text = c.metrics().unwrap();
    assert!(text.contains("server.connections.accepted counter"));
    assert!(text.contains("server.requests counter"));
    assert!(text.contains("server.request.latency_ns histogram"));
    assert!(text.contains("server.sessions.active gauge"));
    // EXPLAIN travels as text too.
    c.query("CREATE TABLE e (x INT)", vec![]).unwrap();
    let plan = c.explain("SELECT x FROM e WHERE x = 1", false).unwrap();
    assert!(!plan.is_empty());
    c.goodbye().unwrap();
}

/// Opcode `0x08` once carried a session setting; the server now has none,
/// so the frame is malformed like any unknown opcode: the session gets a
/// `proto` error and is hung up, nothing panics, and the server goes on
/// serving fresh connections.
#[test]
fn retired_set_opcode_is_a_malformed_frame() {
    let db = Arc::new(Database::in_memory());
    let server = serve(db, 2);
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).unwrap();
    let hello = proto::read_frame(&mut &raw).unwrap().expect("hello frame");
    assert!(matches!(
        proto::Response::decode(&hello).unwrap(),
        proto::Response::Hello { admitted: true }
    ));
    // A length-prefixed body: opcode 0x08, then `workers` and `4` as
    // length-prefixed strings.
    let mut body = vec![0x08];
    for s in ["workers", "4"] {
        body.extend_from_slice(&(s.len() as u32).to_le_bytes());
        body.extend_from_slice(s.as_bytes());
    }
    raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&body).unwrap();
    raw.flush().unwrap();
    let reply = proto::read_frame(&mut &raw).unwrap().expect("error frame");
    match proto::Response::decode(&reply).unwrap() {
        proto::Response::Error { code, message } => {
            assert_eq!(code, "proto");
            assert!(message.contains("unknown request opcode 0x8"), "{message}");
        }
        other => panic!("expected a proto error, got {other:?}"),
    }
    // The server hung up on the unsynchronized stream.
    assert!(proto::read_frame(&mut &raw).unwrap().is_none());
    wait_for("the session to be reaped", || server.active_sessions() == 0);

    let mut fresh = Client::connect(addr).unwrap();
    fresh.ping().unwrap();
    fresh.goodbye().unwrap();
}
