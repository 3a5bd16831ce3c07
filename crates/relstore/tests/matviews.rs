//! Materialized views: delta-wise maintenance over committed transactions.
//!
//! Every test compares a view's stored contents against a from-scratch
//! recompute of its defining query, because that is the subsystem's whole
//! contract: after any sequence of committed DML, `SELECT * FROM view`
//! and running the definition directly must be indistinguishable.

use std::collections::BTreeMap;
use std::path::PathBuf;

use xomatiq_relstore::{Database, FaultConfig, FaultyIo, Value};

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xomatiq-matview-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.wal", std::process::id()));
    for suffix in ["", ".old", ".ckpt", ".ckpt.tmp"] {
        let mut p = path.as_os_str().to_os_string();
        p.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
    path
}

/// Sorted multiset of a query's rows, rendered; view contents and direct
/// recompute must agree on this exactly (order within the view is not
/// part of the contract — only the multiset is).
fn rows_of(db: &Database, sql: &str) -> Vec<Vec<String>> {
    let out = db.query(sql).run().unwrap();
    let mut rows: Vec<Vec<String>> = out
        .rows
        .rows()
        .iter()
        .map(|r| r.iter().map(render_value).collect())
        .collect();
    rows.sort();
    rows
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "∅".to_string(),
        Value::Float(f) => format!("{f:.9}"),
        other => other.to_string(),
    }
}

fn assert_view_matches(db: &Database, view: &str, definition: &str) {
    assert_eq!(
        rows_of(db, &format!("SELECT * FROM {view}")),
        rows_of(db, definition),
        "view {view} diverged from its definition"
    );
}

fn sys_views_row(db: &Database, view: &str) -> BTreeMap<String, String> {
    let out = db
        .query("SELECT * FROM sys_views WHERE view_name = ?")
        .bind(view)
        .run()
        .unwrap();
    let row = out.rows.rows().first().cloned().unwrap_or_default();
    out.rows
        .columns()
        .iter()
        .zip(row)
        .map(|(c, v)| (c.clone(), v.to_string()))
        .collect()
}

// ---------------------------------------------------------------------------
// Synchronous (REFRESH ON COMMIT) maintenance
// ---------------------------------------------------------------------------

#[test]
fn on_commit_filter_view_tracks_inserts_updates_deletes() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT, grp TEXT, v INT)")
        .run()
        .unwrap();
    for i in 0..40i64 {
        db.query("INSERT INTO t VALUES (?, ?, ?)")
            .bind(i)
            .bind(if i % 3 == 0 { "a" } else { "b" })
            .bind(i * 7 % 11)
            .run()
            .unwrap();
    }
    let def = "SELECT id, v * 2 AS dbl FROM t WHERE v > 3";
    db.query(&format!(
        "CREATE MATERIALIZED VIEW big REFRESH ON COMMIT AS {def}"
    ))
    .run()
    .unwrap();
    assert_view_matches(&db, "big", def);

    // Rows migrate across the predicate boundary in both directions.
    db.query("UPDATE t SET v = v + 5 WHERE id < 10")
        .run()
        .unwrap();
    assert_view_matches(&db, "big", def);
    db.query("UPDATE t SET v = 0 WHERE id >= 30").run().unwrap();
    assert_view_matches(&db, "big", def);
    db.query("DELETE FROM t WHERE v > 8").run().unwrap();
    assert_view_matches(&db, "big", def);
    db.query("INSERT INTO t VALUES (100, 'a', 9), (101, 'b', 1)")
        .run()
        .unwrap();
    assert_view_matches(&db, "big", def);
}

#[test]
fn on_commit_join_view_tracks_both_sides() {
    let db = Database::in_memory();
    db.query("CREATE TABLE orders (id INT, cust INT, total INT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE customers (id INT, name TEXT)")
        .run()
        .unwrap();
    for i in 0..8i64 {
        db.query("INSERT INTO customers VALUES (?, ?)")
            .bind(i)
            .bind(format!("c{i}"))
            .run()
            .unwrap();
    }
    for i in 0..30i64 {
        db.query("INSERT INTO orders VALUES (?, ?, ?)")
            .bind(i)
            .bind(i % 10) // custs 8..9 dangle
            .bind(i * 13 % 97)
            .run()
            .unwrap();
    }
    let def = "SELECT o.id, c.name, o.total FROM orders o \
               JOIN customers c ON o.cust = c.id WHERE o.total > 20";
    db.query(&format!(
        "CREATE MATERIALIZED VIEW cust_orders REFRESH ON COMMIT AS {def}"
    ))
    .run()
    .unwrap();
    assert_view_matches(&db, "cust_orders", def);

    // Left-side churn: new orders, moved orders, deleted orders.
    db.query("INSERT INTO orders VALUES (200, 3, 50)")
        .run()
        .unwrap();
    db.query("UPDATE orders SET cust = 8 WHERE id < 5")
        .run()
        .unwrap();
    db.query("DELETE FROM orders WHERE total > 80")
        .run()
        .unwrap();
    assert_view_matches(&db, "cust_orders", def);

    // Right-side churn: a customer vanishes (drops all its matches), a
    // rename flows through, a previously-dangling cust id appears.
    db.query("DELETE FROM customers WHERE id = 3")
        .run()
        .unwrap();
    db.query("UPDATE customers SET name = 'renamed' WHERE id = 4")
        .run()
        .unwrap();
    db.query("INSERT INTO customers VALUES (9, 'late')")
        .run()
        .unwrap();
    assert_view_matches(&db, "cust_orders", def);
}

#[test]
fn on_commit_aggregate_view_handles_minmax_retraction() {
    let db = Database::in_memory();
    db.query("CREATE TABLE m (grp TEXT, v INT)").run().unwrap();
    for i in 0..30i64 {
        db.query("INSERT INTO m VALUES (?, ?)")
            .bind(if i % 2 == 0 { "x" } else { "y" })
            .bind(i)
            .run()
            .unwrap();
    }
    let def = "SELECT grp, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, \
               MAX(v) AS hi, AVG(v) AS mean FROM m GROUP BY grp";
    db.query(&format!(
        "CREATE MATERIALIZED VIEW agg REFRESH ON COMMIT AS {def}"
    ))
    .run()
    .unwrap();
    assert_view_matches(&db, "agg", def);

    // Retract the current max of group x (29 stays in y): forces the
    // per-group rescan path for MAX while SUM/COUNT stay additive.
    db.query("DELETE FROM m WHERE v = 28").run().unwrap();
    assert_view_matches(&db, "agg", def);
    // Retract the min of both groups at once.
    db.query("DELETE FROM m WHERE v < 2").run().unwrap();
    assert_view_matches(&db, "agg", def);
    // A group disappears entirely, then reappears.
    db.query("DELETE FROM m WHERE grp = 'y'").run().unwrap();
    assert_view_matches(&db, "agg", def);
    db.query("INSERT INTO m VALUES ('y', 1000)").run().unwrap();
    assert_view_matches(&db, "agg", def);
    // Non-extreme updates keep accumulators additive.
    db.query("UPDATE m SET v = v + 1 WHERE v < 20")
        .run()
        .unwrap();
    assert_view_matches(&db, "agg", def);
}

#[test]
fn on_commit_global_aggregate_tracks_empty_table() {
    let db = Database::in_memory();
    db.query("CREATE TABLE g (v INT)").run().unwrap();
    let def = "SELECT COUNT(*) AS n, SUM(v) AS s FROM g";
    db.query(&format!(
        "CREATE MATERIALIZED VIEW tot REFRESH ON COMMIT AS {def}"
    ))
    .run()
    .unwrap();
    // The global group exists even over an empty table: COUNT 0, SUM NULL.
    assert_view_matches(&db, "tot", def);
    db.query("INSERT INTO g VALUES (5), (7)").run().unwrap();
    assert_view_matches(&db, "tot", def);
    db.query("DELETE FROM g WHERE v > 0").run().unwrap();
    assert_view_matches(&db, "tot", def);
}

#[test]
fn multi_statement_batch_maintains_views_atomically() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT, v INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 10), (2, 20)")
        .run()
        .unwrap();
    let def = "SELECT id, v FROM t WHERE v > 5";
    db.query(&format!(
        "CREATE MATERIALIZED VIEW f REFRESH ON COMMIT AS {def}"
    ))
    .run()
    .unwrap();
    // One transaction whose statements interact: the view must reflect
    // the net effect, not the per-statement intermediates.
    db.execute_batch(&[
        "INSERT INTO t VALUES (3, 30)",
        "UPDATE t SET v = 1 WHERE id = 3",
        "DELETE FROM t WHERE id = 1",
        "INSERT INTO t VALUES (4, 40)",
    ])
    .unwrap();
    assert_view_matches(&db, "f", def);
}

#[test]
fn minmax_over_signed_zeros_matches_recompute_in_either_order() {
    // The zeros are one key under `=`, but MIN/MAX must still pick the
    // same one however the values arrived: -0.0 is the smaller.
    for zeros in [["-0.0", "0.0"], ["0.0", "-0.0"]] {
        let db = Database::in_memory();
        db.query("CREATE TABLE t (id INT, g INT, f FLOAT)")
            .run()
            .unwrap();
        let def = "SELECT g, MIN(f) AS lo, MAX(f) AS hi FROM t GROUP BY g";
        db.query(&format!(
            "CREATE MATERIALIZED VIEW v REFRESH ON COMMIT AS {def}"
        ))
        .run()
        .unwrap();
        for (id, f) in zeros.iter().enumerate() {
            db.query(&format!("INSERT INTO t VALUES ({id}, 1, {f})"))
                .run()
                .unwrap();
        }
        assert_view_matches(&db, "v", def);
        let both = vec!["1", "-0.000000000", "0.000000000"];
        assert_eq!(rows_of(&db, "SELECT * FROM v"), vec![both]);
        // Retracting the larger zero leaves only the smaller.
        let positive = zeros.iter().position(|f| *f == "0.0").unwrap();
        db.query(&format!("DELETE FROM t WHERE id = {positive}"))
            .run()
            .unwrap();
        assert_view_matches(&db, "v", def);
        let negative = vec!["1", "-0.000000000", "-0.000000000"];
        assert_eq!(rows_of(&db, "SELECT * FROM v"), vec![negative]);
    }
}

#[test]
fn global_minmax_over_an_emptied_table_is_null() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (v INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (3)").run().unwrap();
    let def = "SELECT COUNT(*) AS n, MIN(v) AS lo, MAX(v) AS hi FROM t";
    db.query(&format!(
        "CREATE MATERIALIZED VIEW v REFRESH ON COMMIT AS {def}"
    ))
    .run()
    .unwrap();
    db.query("DELETE FROM t").run().unwrap();
    assert_view_matches(&db, "v", def);
    db.query("INSERT INTO t VALUES (5)").run().unwrap();
    assert_view_matches(&db, "v", def);
}

#[test]
fn join_views_never_evaluate_pairs_that_did_not_coexist() {
    // Deleting t's row and zeroing u's divisor are each valid, but the old
    // t row next to the new u row divides by zero. Maintenance must not
    // evaluate that pair, whether the two changes share a transaction
    // (ON COMMIT) or a deferred log.
    let defs = [
        "SELECT t.k FROM t JOIN u ON t.k = u.k WHERE t.x / u.y > 0",
        "SELECT COUNT(*) AS n FROM t JOIN u ON t.k = u.k WHERE t.x / u.y > 0",
    ];
    for (i, def) in defs.iter().enumerate() {
        for on_commit in [true, false] {
            let db = Database::in_memory();
            db.query("CREATE TABLE t (k INT, x INT)").run().unwrap();
            db.query("CREATE TABLE u (k INT, y INT)").run().unwrap();
            db.query("INSERT INTO t VALUES (1, 1)").run().unwrap();
            db.query("INSERT INTO u VALUES (1, 1)").run().unwrap();
            let policy = if on_commit { "REFRESH ON COMMIT " } else { "" };
            db.query(&format!("CREATE MATERIALIZED VIEW v {policy}AS {def}"))
                .run()
                .unwrap();
            if on_commit {
                db.execute_batch(&["DELETE FROM t WHERE k = 1", "UPDATE u SET y = 0"])
                    .unwrap();
            } else {
                db.query("DELETE FROM t WHERE k = 1").run().unwrap();
                db.query("UPDATE u SET y = 0").run().unwrap();
                db.query("REFRESH MATERIALIZED VIEW v").run().unwrap();
                assert_eq!(sys_views_row(&db, "v")["incremental_refreshes"], "1");
            }
            assert_view_matches(&db, "v", def);
            // A pair that does coexist still fails, like the recompute.
            let insert = db.query("INSERT INTO t VALUES (1, 1)").run();
            let failed = if on_commit {
                insert.is_err()
            } else {
                insert.unwrap();
                db.query("REFRESH MATERIALIZED VIEW v").run().is_err()
            };
            assert!(failed, "view {i}: t(1,1) ⋈ u(1,0) must fail maintenance");
        }
    }
}

// ---------------------------------------------------------------------------
// Deferred refresh and the bounded delta log
// ---------------------------------------------------------------------------

#[test]
fn deferred_view_stays_stale_until_refresh() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT, v INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 10), (2, 20)")
        .run()
        .unwrap();
    let def = "SELECT id, v FROM t WHERE v > 5";
    db.query(&format!("CREATE MATERIALIZED VIEW lazy AS {def}"))
        .run()
        .unwrap();
    assert_view_matches(&db, "lazy", def);

    db.query("INSERT INTO t VALUES (3, 30)").run().unwrap();
    // Still the creation-time contents...
    assert_eq!(rows_of(&db, "SELECT * FROM lazy").len(), 2);
    let info = sys_views_row(&db, "lazy");
    assert_eq!(info["refresh_policy"], "deferred");
    assert_eq!(info["pending_delta_rows"], "1");

    // ...until REFRESH drains the delta log incrementally.
    db.query("REFRESH MATERIALIZED VIEW lazy").run().unwrap();
    assert_view_matches(&db, "lazy", def);
    let info = sys_views_row(&db, "lazy");
    assert_eq!(info["pending_delta_rows"], "0");
    assert_eq!(info["incremental_refreshes"], "1");
}

#[test]
fn refresh_full_recomputes_and_counts_as_fallback() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT, v INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 10)").run().unwrap();
    db.query("CREATE MATERIALIZED VIEW lazy AS SELECT id, v FROM t")
        .run()
        .unwrap();
    db.query("INSERT INTO t VALUES (2, 20)").run().unwrap();
    db.query("REFRESH MATERIALIZED VIEW lazy FULL")
        .run()
        .unwrap();
    assert_view_matches(&db, "lazy", "SELECT id, v FROM t");
    let info = sys_views_row(&db, "lazy");
    assert_eq!(info["fallback_refreshes"], "1");
    assert_eq!(info["pending_delta_rows"], "0");
}

#[test]
fn delta_log_overflow_falls_back_to_full_recompute() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT, v INT)").run().unwrap();
    db.query("CREATE MATERIALIZED VIEW lazy AS SELECT id, v FROM t WHERE v >= 0")
        .run()
        .unwrap();
    // Blow past the 4096-event cap in a handful of batched commits.
    for batch in 0..5i64 {
        let rows: Vec<String> = (0..1000)
            .map(|i| format!("({}, {})", batch * 1000 + i, i))
            .collect();
        db.query(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .run()
            .unwrap();
    }
    let info = sys_views_row(&db, "lazy");
    assert_eq!(info["delta_log_overflow"], "1");
    assert_eq!(info["pending_delta_rows"], "0", "overflowed log is dropped");

    // A plain REFRESH silently takes the full-recompute path.
    db.query("REFRESH MATERIALIZED VIEW lazy").run().unwrap();
    assert_view_matches(&db, "lazy", "SELECT id, v FROM t WHERE v >= 0");
    let info = sys_views_row(&db, "lazy");
    assert_eq!(info["delta_log_overflow"], "0");
    assert_eq!(info["fallback_refreshes"], "1");
    assert_eq!(info["incremental_refreshes"], "0");
}

/// The pending log and its cap count row images, not statements or
/// rows touched: an UPDATE is a retraction plus an assertion.
#[test]
fn pending_delta_log_counts_row_images() {
    let pending = |db: &Database| sys_views_row(db, "lazy")["pending_delta_rows"].clone();
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT, v INT)").run().unwrap();
    db.query("CREATE MATERIALIZED VIEW lazy AS SELECT id, v FROM t")
        .run()
        .unwrap();
    db.query("INSERT INTO t VALUES (-1, 0), (-2, 0)")
        .run()
        .unwrap();
    assert_eq!(pending(&db), "2");
    db.query("UPDATE t SET v = 1 WHERE id = -1").run().unwrap();
    assert_eq!(pending(&db), "4");
    db.query("DELETE FROM t WHERE id = -2").run().unwrap();
    assert_eq!(pending(&db), "5");
    let drained = db.query("REFRESH MATERIALIZED VIEW lazy").run().unwrap();
    assert_eq!(drained.rows.affected(), 5);

    // 2 048 updated rows are exactly the 4 096 images the log holds...
    let rows: Vec<String> = (0..2047).map(|i| format!("({i}, 0)")).collect();
    db.query(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .run()
        .unwrap();
    db.query("REFRESH MATERIALIZED VIEW lazy").run().unwrap();
    db.query("UPDATE t SET v = v + 1").run().unwrap();
    let info = sys_views_row(&db, "lazy");
    assert_eq!(info["pending_delta_rows"], "4096");
    assert_eq!(info["delta_log_overflow"], "0");
    // ...and one more image overflows it.
    db.query("INSERT INTO t VALUES (5000, 0)").run().unwrap();
    let info = sys_views_row(&db, "lazy");
    assert_eq!(info["pending_delta_rows"], "0");
    assert_eq!(info["delta_log_overflow"], "1");
    db.query("REFRESH MATERIALIZED VIEW lazy").run().unwrap();
    assert_view_matches(&db, "lazy", "SELECT id, v FROM t");
}

#[test]
fn refresh_with_nothing_pending_is_a_noop() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT)").run().unwrap();
    db.query("CREATE MATERIALIZED VIEW lazy AS SELECT id FROM t")
        .run()
        .unwrap();
    db.query("REFRESH MATERIALIZED VIEW lazy").run().unwrap();
    let info = sys_views_row(&db, "lazy");
    assert_eq!(info["incremental_refreshes"], "0");
    assert_eq!(info["fallback_refreshes"], "0");
}

// ---------------------------------------------------------------------------
// DDL guards
// ---------------------------------------------------------------------------

#[test]
fn view_ddl_guards() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1)").run().unwrap();
    db.query("CREATE MATERIALIZED VIEW v AS SELECT id FROM t")
        .run()
        .unwrap();

    // Views are read-only to DML.
    for sql in [
        "INSERT INTO v VALUES (9)",
        "UPDATE v SET id = 9",
        "DELETE FROM v",
    ] {
        let err = db.query(sql).run().unwrap_err().to_string();
        assert!(err.contains("materialized view"), "{sql}: {err}");
    }
    // Wrong DROP flavor in both directions.
    let err = db.query("DROP TABLE v").run().unwrap_err().to_string();
    assert!(err.contains("DROP MATERIALIZED VIEW"), "{err}");
    let err = db
        .query("DROP MATERIALIZED VIEW t")
        .run()
        .unwrap_err()
        .to_string();
    assert!(err.contains("not a materialized view"), "{err}");
    // A base table with dependents cannot be dropped from under them.
    let err = db.query("DROP TABLE t").run().unwrap_err().to_string();
    assert!(err.contains('v'), "{err}");
    // No secondary indexes on views; maintenance writes bypass index hooks.
    let err = db
        .query("CREATE INDEX vi ON v (id)")
        .run()
        .unwrap_err()
        .to_string();
    assert!(err.contains("materialized view"), "{err}");
    // No views over views.
    let err = db
        .query("CREATE MATERIALIZED VIEW vv AS SELECT id FROM v")
        .run()
        .unwrap_err()
        .to_string();
    assert!(err.contains("views over views"), "{err}");

    // DROP MATERIALIZED VIEW releases the name and the dependency.
    db.query("DROP MATERIALIZED VIEW v").run().unwrap();
    db.query("DROP TABLE t").run().unwrap();
}

// ---------------------------------------------------------------------------
// Queries over views: plain planner/executor, visible access path
// ---------------------------------------------------------------------------

#[test]
fn explain_over_view_shows_its_table_scan_access_path() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT, v INT)").run().unwrap();
    for i in 0..20i64 {
        db.query("INSERT INTO t VALUES (?, ?)")
            .bind(i)
            .bind(i)
            .run()
            .unwrap();
    }
    db.query("CREATE MATERIALIZED VIEW v REFRESH ON COMMIT AS SELECT id, v FROM t WHERE v > 3")
        .run()
        .unwrap();
    // The view is an ordinary table to the planner: EXPLAIN renders a
    // scan of the view's backing table, not of its base tables.
    let tree = db
        .query("SELECT id FROM v WHERE id < 10")
        .explain()
        .unwrap();
    let rendered = tree.render();
    assert!(rendered.contains("Scan v"), "{rendered}");
    assert!(!rendered.contains("Scan t"), "{rendered}");

    // And the typed EXPLAIN statement agrees with the builder.
    let out = db
        .query("EXPLAIN SELECT id FROM v WHERE id < 10")
        .run()
        .unwrap();
    let text: Vec<String> = out.rows.rows().iter().map(|r| r[0].to_string()).collect();
    assert!(
        text.iter().any(|l| l.contains("Scan v")),
        "EXPLAIN output: {text:?}"
    );
}

#[test]
fn views_work_across_all_executors() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (id INT, grp TEXT, v INT)")
        .run()
        .unwrap();
    for i in 0..200i64 {
        db.query("INSERT INTO t VALUES (?, ?, ?)")
            .bind(i)
            .bind(format!("g{}", i % 5))
            .bind(i)
            .run()
            .unwrap();
    }
    db.query(
        "CREATE MATERIALIZED VIEW sums REFRESH ON COMMIT AS \
         SELECT grp, SUM(v) AS s FROM t GROUP BY grp",
    )
    .run()
    .unwrap();
    db.query("DELETE FROM t WHERE id > 150 AND id < 180")
        .run()
        .unwrap();

    let sql = "SELECT grp, s FROM sums ORDER BY grp";
    let streaming = rows_of(&db, sql);
    let reference = {
        let out = db.query(sql).via_reference().run().unwrap();
        let mut rows: Vec<Vec<String>> = out
            .rows
            .rows()
            .iter()
            .map(|r| r.iter().map(render_value).collect())
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(streaming, reference);
}

// ---------------------------------------------------------------------------
// Durability: WAL replay, kill-and-restart, checkpoint images
// ---------------------------------------------------------------------------

#[test]
fn views_rebuild_on_restart() {
    let path = wal_path("views-rebuild");
    let def = "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY grp";
    {
        let db = Database::open(&path).unwrap();
        db.query("CREATE TABLE t (grp TEXT, v INT)").run().unwrap();
        for i in 0..50i64 {
            db.query("INSERT INTO t VALUES (?, ?)")
                .bind(if i % 2 == 0 { "a" } else { "b" })
                .bind(i)
                .run()
                .unwrap();
        }
        db.query(&format!(
            "CREATE MATERIALIZED VIEW agg REFRESH ON COMMIT AS {def}"
        ))
        .run()
        .unwrap();
        db.query("DELETE FROM t WHERE v > 40").run().unwrap();
        db.query("CREATE MATERIALIZED VIEW doomed AS SELECT grp FROM t")
            .run()
            .unwrap();
        db.query("DROP MATERIALIZED VIEW doomed").run().unwrap();
    }
    let db = Database::open(&path).unwrap();
    assert_view_matches(&db, "agg", def);
    let info = sys_views_row(&db, "agg");
    assert_eq!(info["refresh_policy"], "on_commit");
    // Recovery rebuilds contents from scratch — that is a fallback refresh.
    assert_eq!(info["fallback_refreshes"], "1");
    // The dropped view stayed dropped.
    let err = db.query("SELECT * FROM doomed").run().unwrap_err();
    assert!(err.to_string().contains("doomed"), "{err}");
    // And maintenance still runs after recovery.
    db.query("INSERT INTO t VALUES ('a', 1000)").run().unwrap();
    assert_view_matches(&db, "agg", def);
}

#[test]
fn kill_and_restart_leaves_views_consistent_with_recovered_base() {
    // Fsyncs start failing mid-run; whatever prefix of commits survives
    // in the log, the rebuilt view must match a recompute over exactly
    // that recovered base state.
    let def = "SELECT id, v FROM t WHERE v > 10";
    let io = FaultyIo::new(0xB10_F00D, FaultConfig::none());
    {
        let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
        db.query("CREATE TABLE t (id INT, v INT)").run().unwrap();
        db.query(&format!(
            "CREATE MATERIALIZED VIEW big REFRESH ON COMMIT AS {def}"
        ))
        .run()
        .unwrap();
        io.set_config(FaultConfig {
            fsync_fail_in: 9,
            ..FaultConfig::none()
        });
        for i in 0..200i64 {
            let res = db
                .query("INSERT INTO t VALUES (?, ?)")
                .bind(i)
                .bind(i)
                .run();
            if res.is_err() {
                break; // the log handle is poisoned; "kill" the process
            }
        }
    }
    io.crash();
    io.set_config(FaultConfig::none());
    let (db, report) = Database::open_with_io(Box::new(io)).unwrap();
    assert!(
        report.replay_errors.is_empty(),
        "{:?}",
        report.replay_errors
    );
    assert_view_matches(&db, "big", def);
}

#[test]
fn checkpoint_image_carries_view_definitions_not_contents() {
    let path = wal_path("views-ckpt");
    let def = "SELECT id FROM t WHERE id > 2";
    {
        let db = Database::open(&path).unwrap();
        db.query("CREATE TABLE t (id INT)").run().unwrap();
        for i in 0..10i64 {
            db.query("INSERT INTO t VALUES (?)").bind(i).run().unwrap();
        }
        db.query(&format!(
            "CREATE MATERIALIZED VIEW v REFRESH ON COMMIT AS {def}"
        ))
        .run()
        .unwrap();
        db.checkpoint().unwrap();
        // Post-checkpoint mutations land in the fresh log tail.
        db.query("DELETE FROM t WHERE id > 7").run().unwrap();
    }
    let db = Database::open(&path).unwrap();
    assert_view_matches(&db, "v", def);
    db.query("INSERT INTO t VALUES (100)").run().unwrap();
    assert_view_matches(&db, "v", def);
}
