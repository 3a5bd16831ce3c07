//! The observability surface as seen from SQL: system virtual tables,
//! the flight recorder, request tracing, and the read-only contract.
//!
//! Everything here goes through `db.query(...)` on purpose — the whole
//! point of `sys_*` tables is that the engine's own telemetry answers to
//! the same planner, executor, filters and joins as user data.

use std::sync::Arc;

use xomatiq_obs::trace::{self, TraceCtx};
use xomatiq_obs::MemoryTraceSink;
use xomatiq_relstore::vtab::trace_id_text;
use xomatiq_relstore::{
    Column, DataType, Database, DatabaseOptions, Session, TableSchema, Value, VirtualTableProvider,
};

/// A database whose flight recorder flags everything as slow, so the
/// profile-capture path runs on every statement.
fn recording_db() -> Database {
    let db = Database::in_memory_with_options(DatabaseOptions {
        slow_query_ns: 0,
        ..DatabaseOptions::default()
    });
    db.query("CREATE TABLE t (a INT, s TEXT)").run().unwrap();
    for i in 0..20i64 {
        db.query("INSERT INTO t VALUES (?, ?)")
            .bind(i)
            .bind(format!("row{i}"))
            .run()
            .unwrap();
    }
    db
}

fn int_at(out: &xomatiq_relstore::QueryOutcome, row: usize, col: usize) -> i64 {
    match &out.rows.rows()[row][col] {
        Value::Int(v) => *v,
        other => panic!("expected Int, got {other:?}"),
    }
}

#[test]
fn sys_metrics_answers_to_like_filters() {
    let db = recording_db();
    db.query("SELECT COUNT(*) FROM t").run().unwrap();
    let out = db
        .query("SELECT name, item, value FROM sys_metrics WHERE name LIKE 'relstore.%'")
        .run()
        .unwrap();
    assert!(
        !out.rows.rows().is_empty(),
        "engine metrics should be visible through sys_metrics"
    );
    // Histograms fan out into count/sum/quantile/bucket item rows.
    let out = db
        .query("SELECT item FROM sys_metrics WHERE kind = 'histogram' AND item = 'count'")
        .run()
        .unwrap();
    assert!(!out.rows.rows().is_empty());
}

#[test]
fn sys_queries_remembers_statements_and_profiles_join() {
    let db = recording_db();
    db.query("SELECT COUNT(*) FROM t WHERE a < 10")
        .run()
        .unwrap();
    // Everything is "slow" at threshold 0, so the scan above carries a
    // per-operator profile reachable by joining the two system tables.
    let out = db
        .query(
            "SELECT q.query_id, p.op, p.rows_out FROM sys_queries q \
             JOIN sys_profiles p ON q.query_id = p.query_id \
             WHERE q.slow = 1 ORDER BY p.total_ns DESC",
        )
        .run()
        .unwrap();
    assert!(
        !out.rows.rows().is_empty(),
        "slow queries must expose their operator profile via sys_profiles"
    );
    // The recorder remembers the normalized SQL of past statements.
    let out = db
        .query("SELECT COUNT(*) FROM sys_queries WHERE sql LIKE '%count(*) from t%'")
        .run()
        .unwrap();
    assert!(int_at(&out, 0, 0) >= 1);
}

#[test]
fn sys_queries_reports_plan_cache_outcomes() {
    let db = recording_db();
    db.query("SELECT a FROM t WHERE a = 7").run().unwrap();
    db.query("SELECT a FROM t WHERE a = 7").run().unwrap();
    let out = db
        .query(
            "SELECT cache_hit, COUNT(*) FROM sys_queries \
             WHERE sql = 'select a from t where a = 7' GROUP BY cache_hit ORDER BY cache_hit",
        )
        .run()
        .unwrap();
    let rows = out.rows.rows();
    assert_eq!(rows.len(), 2, "one miss then one hit, got {rows:?}");
    assert_eq!(rows[0][0], Value::Int(0));
    assert_eq!(rows[1][0], Value::Int(1));
}

#[test]
fn system_statements_bypass_the_plan_cache() {
    let db = recording_db();
    // If this plan were cached, the second run would execute against the
    // first run's materialized overlay — and could not see the record the
    // first run itself deposited.
    let first = db.query("SELECT COUNT(*) FROM sys_queries").run().unwrap();
    let second = db.query("SELECT COUNT(*) FROM sys_queries").run().unwrap();
    assert!(
        int_at(&second, 0, 0) > int_at(&first, 0, 0),
        "each sys_queries scan must see a fresh recorder snapshot"
    );
    // And no sys_ statement ever reports a plan-cache hit.
    let out = db
        .query("SELECT COUNT(*) FROM sys_queries WHERE sql LIKE '%sys_%' AND cache_hit = 1")
        .run()
        .unwrap();
    assert_eq!(int_at(&out, 0, 0), 0);
}

#[test]
fn system_tables_are_read_only() {
    let db = recording_db();
    for sql in [
        "INSERT INTO sys_queries VALUES (1)",
        "DELETE FROM sys_metrics",
        "UPDATE sys_sessions SET queries = 0",
        "DROP TABLE sys_metrics",
        "CREATE TABLE sys_mine (a INT)",
        "CREATE INDEX idx ON sys_queries (query_id)",
    ] {
        let err = db.query(sql).run().unwrap_err();
        assert_eq!(err.code(), "read_only", "{sql} should be rejected");
    }
}

#[test]
fn sys_segments_joins_against_user_tables() {
    let db = recording_db();
    let out = db
        .query(
            "SELECT segment_id, column_name, rows, min_value, max_value FROM sys_segments \
             WHERE table_name = 't' AND column_name = 'a'",
        )
        .run()
        .unwrap();
    assert!(!out.rows.rows().is_empty());
    // Zone-map bounds for the Int column cover the inserted range.
    for row in out.rows.rows() {
        assert_eq!(row[1], Value::Text("a".into()));
    }
    // A user-table join: which segments hold the row with a = 0?
    let out = db
        .query(
            "SELECT COUNT(*) FROM sys_segments s JOIN t ON s.table_name = 't' \
             WHERE t.a = 0 AND s.column_name = 'a'",
        )
        .run()
        .unwrap();
    assert!(int_at(&out, 0, 0) >= 1);
}

#[test]
fn sys_sessions_tracks_live_sessions() {
    let db = Arc::new(recording_db());
    let mut session = Session::new(Arc::clone(&db));
    session.prepare("SELECT a FROM t WHERE a = ?").unwrap();
    session.run_sql("SELECT COUNT(*) FROM t", vec![]).unwrap();
    let id = i64::try_from(session.id()).unwrap();
    let out = db
        .query("SELECT session_id, prepared, queries FROM sys_sessions WHERE session_id = ?")
        .bind(id)
        .run()
        .unwrap();
    let rows = out.rows.rows();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(id));
    assert_eq!(rows[0][1], Value::Int(1));
    assert_eq!(rows[0][2], Value::Int(1));
    drop(session);
    let out = db
        .query("SELECT COUNT(*) FROM sys_sessions WHERE session_id = ?")
        .bind(id)
        .run()
        .unwrap();
    assert_eq!(int_at(&out, 0, 0), 0, "dropped sessions disappear");
}

#[test]
fn a_supplied_trace_id_lands_in_sys_queries_and_the_trace_tree() {
    let db = recording_db();
    let sink = Arc::new(MemoryTraceSink::new());
    trace::set_trace_sink(Some(sink.clone()));
    let trace_id = 0xabcd_1234_u64;
    {
        let _scope = trace::scope(TraceCtx::with_trace_id(trace_id));
        db.query("SELECT COUNT(*) FROM t WHERE a < 5")
            .run()
            .unwrap();
    }
    trace::set_trace_sink(None);
    // Every span of the statement carries the supplied trace id…
    let spans = sink.trace(trace_id);
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"relstore.query"), "spans: {names:?}");
    assert!(names.contains(&"relstore.query.parse"), "spans: {names:?}");
    assert!(
        names.contains(&"relstore.query.plan"),
        "plan span missing: {names:?}"
    );
    assert!(
        names.contains(&"relstore.query.exec"),
        "exec span missing: {names:?}"
    );
    // …including the per-operator spans mirrored from the slow profile.
    assert!(
        names
            .iter()
            .any(|n| n.starts_with("Scan") || n.starts_with("Agg")),
        "operator spans missing: {names:?}"
    );
    // …and sys_queries reports the same id as 16-digit hex text.
    let out = db
        .query("SELECT COUNT(*) FROM sys_queries WHERE trace_id = ?")
        .bind(trace_id_text(trace_id))
        .run()
        .unwrap();
    assert_eq!(int_at(&out, 0, 0), 1);
}

struct Answers;

impl VirtualTableProvider for Answers {
    fn name(&self) -> &str {
        "sys_answers"
    }

    fn schema(&self) -> TableSchema {
        TableSchema::new("sys_answers", vec![Column::new("n", DataType::Int)])
    }

    fn rows(&self, _db: &Database) -> Vec<Vec<Value>> {
        vec![vec![Value::Int(42)]]
    }
}

struct BadName;

impl VirtualTableProvider for BadName {
    fn name(&self) -> &str {
        "answers"
    }

    fn schema(&self) -> TableSchema {
        TableSchema::new("answers", vec![Column::new("n", DataType::Int)])
    }

    fn rows(&self, _db: &Database) -> Vec<Vec<Value>> {
        Vec::new()
    }
}

#[test]
fn custom_providers_register_under_the_sys_prefix_only() {
    let db = recording_db();
    db.register_virtual_table(Box::new(Answers)).unwrap();
    let out = db.query("SELECT n FROM sys_answers").run().unwrap();
    assert_eq!(out.rows.rows(), &[vec![Value::Int(42)]]);
    assert!(db.register_virtual_table(Box::new(BadName)).is_err());
}

#[test]
fn disabled_recorder_keeps_sys_queries_empty() {
    let db = Database::in_memory_with_options(DatabaseOptions {
        flight_recorder_capacity: 0,
        ..DatabaseOptions::default()
    });
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    db.query("SELECT COUNT(*) FROM t").run().unwrap();
    let out = db.query("SELECT COUNT(*) FROM sys_queries").run().unwrap();
    assert_eq!(int_at(&out, 0, 0), 0);
}
