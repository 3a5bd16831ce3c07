//! Durability tests: committed work survives reopen; uncommitted and torn
//! tails do not; compaction preserves state; concurrent readers see
//! consistent snapshots during writes.

use std::path::PathBuf;
use std::sync::Arc;

use xomatiq_relstore::wal::{Wal, WalRecord};
use xomatiq_relstore::{Database, FaultConfig, FaultyIo, Value};

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xomatiq-db-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn seed(db: &Database) {
    db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
    db.query("CREATE INDEX idx_a ON t (a)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
        .run()
        .unwrap();
}

#[test]
fn committed_data_survives_reopen() {
    let path = wal_path("reopen");
    {
        let db = Database::open(&path).unwrap();
        seed(&db);
        db.query("UPDATE t SET b = 'TWO' WHERE a = 2")
            .run()
            .unwrap();
        db.query("DELETE FROM t WHERE a = 3").run().unwrap();
    } // drop = process exit
    let db = Database::open(&path).unwrap();
    let rs = db
        .query("SELECT a, b FROM t ORDER BY a")
        .run()
        .unwrap()
        .rows;
    assert_eq!(
        rs.rows(),
        &[
            vec![Value::Int(1), Value::Text("one".into())],
            vec![Value::Int(2), Value::Text("TWO".into())],
        ]
    );
    // Indexes are rebuilt and used after recovery.
    assert!(db
        .query("SELECT b FROM t WHERE a = 1")
        .planned()
        .unwrap()
        .plan
        .uses_index());
    let via_index = db.query("SELECT b FROM t WHERE a = 1").run().unwrap().rows;
    assert_eq!(via_index.rows()[0][0], Value::Text("one".into()));
}

#[test]
fn ddl_survives_reopen() {
    let path = wal_path("ddl");
    {
        let db = Database::open(&path).unwrap();
        seed(&db);
        db.query("CREATE KEYWORD INDEX kw_b ON t (b)")
            .run()
            .unwrap();
        db.query("CREATE TABLE gone (x INT)").run().unwrap();
        db.query("DROP TABLE gone").run().unwrap();
    }
    let db = Database::open(&path).unwrap();
    assert_eq!(db.table_names(), vec!["t".to_string()]);
    let rs = db
        .query("SELECT a FROM t WHERE CONTAINS(b, 'two')")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 1);
}

#[test]
fn torn_tail_loses_only_the_last_transaction() {
    let path = wal_path("torn");
    {
        let db = Database::open(&path).unwrap();
        seed(&db);
        db.query("INSERT INTO t VALUES (99, 'late')").run().unwrap();
    }
    // Corrupt the last few bytes, as if the machine died mid-append.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let db = Database::open(&path).unwrap();
    // The torn commit record kills transaction 99's insert; earlier commits
    // are intact.
    let rs = db.query("SELECT COUNT(*) FROM t").run().unwrap().rows;
    assert_eq!(rs.rows()[0][0], Value::Int(3));
}

#[test]
fn failed_batch_leaves_no_trace_after_reopen() {
    let path = wal_path("batch");
    {
        let db = Database::open(&path).unwrap();
        seed(&db);
        let result = db.execute_batch(&[
            "INSERT INTO t VALUES (50, 'fifty')",
            "INSERT INTO missing VALUES (1)",
        ]);
        assert!(result.is_err());
        // Successful batch afterwards.
        db.execute_batch(&["INSERT INTO t VALUES (60, 'sixty')"])
            .unwrap();
    }
    let db = Database::open(&path).unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t WHERE a = 50")
            .run()
            .unwrap()
            .rows
            .rows()[0][0],
        Value::Int(0)
    );
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t WHERE a = 60")
            .run()
            .unwrap()
            .rows
            .rows()[0][0],
        Value::Int(1)
    );
}

#[test]
fn compaction_preserves_state_and_shrinks_log() {
    let path = wal_path("compact");
    {
        let db = Database::open(&path).unwrap();
        seed(&db);
        // Churn: many updates that compaction should collapse.
        for i in 0..50 {
            db.query(&format!("UPDATE t SET b = 'v{i}' WHERE a = 1"))
                .run()
                .unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        db.checkpoint().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(
            after < before,
            "compaction should shrink the log ({before} -> {after})"
        );
    }
    let db = Database::open(&path).unwrap();
    let rs = db.query("SELECT b FROM t WHERE a = 1").run().unwrap().rows;
    assert_eq!(rs.rows()[0][0], Value::Text("v49".into()));
    assert_eq!(db.row_count("t").unwrap(), 3);
    // Writes continue to work after compaction + reopen.
    db.query("INSERT INTO t VALUES (4, 'four')").run().unwrap();
    assert_eq!(db.row_count("t").unwrap(), 4);
}

#[test]
fn row_ids_do_not_collide_after_recovery() {
    let path = wal_path("rowids");
    {
        let db = Database::open(&path).unwrap();
        db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
        db.query("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .run()
            .unwrap();
        db.query("DELETE FROM t WHERE a = 1").run().unwrap();
    }
    let db = Database::open(&path).unwrap();
    db.query("INSERT INTO t VALUES (3, 'z')").run().unwrap();
    let rs = db.query("SELECT a FROM t ORDER BY a").run().unwrap().rows;
    assert_eq!(rs.rows().len(), 2);
}

#[test]
fn concurrent_readers_during_writes() {
    let db = Arc::new(Database::in_memory());
    db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
    db.query("INSERT INTO t VALUES (0, 'seed')").run().unwrap();

    let writers: Vec<_> = (0..4)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..50 {
                    db.query(&format!(
                        "INSERT INTO t VALUES ({}, 'w{w}i{i}')",
                        w * 1000 + i
                    ))
                    .run()
                    .unwrap();
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for _ in 0..100 {
                    let rs = db
                        .query("SELECT COUNT(*), MIN(a) FROM t")
                        .run()
                        .unwrap()
                        .rows;
                    // The seed row is always visible; counts only grow.
                    assert_eq!(rs.rows()[0][1], Value::Int(0));
                }
            })
        })
        .collect();
    for h in writers.into_iter().chain(readers) {
        h.join().unwrap();
    }
    assert_eq!(db.row_count("t").unwrap(), 201);
}

#[test]
fn in_memory_mode_has_no_wal_side_effects() {
    let db = Database::in_memory();
    seed(&db);
    db.checkpoint().unwrap(); // no-op, must not fail
    assert_eq!(db.row_count("t").unwrap(), 3);
}

/// Hand-writes a log with two interleaved transactions where only one
/// commits: replay must apply exactly the committed one. (The live engine
/// never interleaves — `commit_tx` writes Begin..Commit under one lock —
/// but recovery has to be correct for any log an older writer, a partial
/// copy, or a future concurrent writer could leave behind.)
#[test]
fn interleaved_transactions_replay_only_the_committed_one() {
    use xomatiq_relstore::table::RowId;
    use xomatiq_relstore::{Column, DataType, TableSchema};

    let path = wal_path("interleaved");
    let mut wal = Wal::open(&path).unwrap();
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Text),
        ],
    );
    let ins = |tx: u64, id: u64, a: i64, b: &str| WalRecord::Insert {
        tx,
        table: "t".into(),
        row_id: RowId(id),
        row: vec![Value::Int(a), Value::Text(b.into())],
    };
    wal.append(&WalRecord::CreateTable { schema });
    wal.append(&WalRecord::Begin { tx: 1 });
    wal.append(&WalRecord::Begin { tx: 2 });
    wal.append(&ins(1, 0, 10, "uncommitted"));
    wal.append(&ins(2, 1, 20, "committed"));
    wal.append(&ins(1, 2, 11, "uncommitted"));
    wal.append(&ins(2, 3, 21, "committed"));
    wal.append(&WalRecord::Commit { tx: 2 });
    // tx 1 never commits: crash before its Commit record.
    wal.sync().unwrap();
    drop(wal);

    let (db, report) = Database::open_with_report(&path).unwrap();
    let rs = db
        .query("SELECT a, b FROM t ORDER BY a")
        .run()
        .unwrap()
        .rows;
    assert_eq!(
        rs.rows(),
        &[
            vec![Value::Int(20), Value::Text("committed".into())],
            vec![Value::Int(21), Value::Text("committed".into())],
        ]
    );
    assert_eq!(report.transactions_applied, 1);
    assert_eq!(report.transactions_dropped, vec![1]);
}

/// Two interleaved transactions touching the same row: replay applies
/// each transaction's operations at its *Commit* record, so the later
/// commit wins regardless of the order the operations were appended.
#[test]
fn interleaved_commits_apply_in_commit_order() {
    use xomatiq_relstore::table::RowId;
    use xomatiq_relstore::{Column, DataType, TableSchema};

    let path = wal_path("commit-order");
    let mut wal = Wal::open(&path).unwrap();
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Text),
        ],
    );
    wal.append(&WalRecord::CreateTable { schema });
    // Snapshot-style seed row (no Begin: applied directly).
    wal.append(&WalRecord::Insert {
        tx: 0,
        table: "t".into(),
        row_id: RowId(0),
        row: vec![Value::Int(1), Value::Text("seed".into())],
    });
    let upd = |tx: u64, b: &str| WalRecord::Update {
        tx,
        table: "t".into(),
        row_id: RowId(0),
        row: vec![Value::Int(1), Value::Text(b.into())],
    };
    wal.append(&WalRecord::Begin { tx: 1 });
    wal.append(&WalRecord::Begin { tx: 2 });
    // Appended tx1-first, but tx2 commits first: commit order must rule.
    wal.append(&upd(1, "second commit"));
    wal.append(&upd(2, "first commit"));
    wal.append(&WalRecord::Commit { tx: 2 });
    wal.append(&WalRecord::Commit { tx: 1 });
    wal.sync().unwrap();
    drop(wal);

    let (db, report) = Database::open_with_report(&path).unwrap();
    let rs = db.query("SELECT b FROM t WHERE a = 1").run().unwrap().rows;
    assert_eq!(rs.rows()[0][0], Value::Text("second commit".into()));
    assert_eq!(report.transactions_applied, 2);
    assert!(report.transactions_dropped.is_empty());
}

#[test]
fn mid_log_corruption_recovers_the_prefix_and_reports_it() {
    let path = wal_path("midlog");
    {
        let db = Database::open(&path).unwrap();
        seed(&db);
        db.query("INSERT INTO t VALUES (4, 'four')").run().unwrap();
        db.query("INSERT INTO t VALUES (5, 'five')").run().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    // Flip a byte 60% of the way in: inside the tail transactions but
    // well past the schema and first inserts.
    let mut corrupted = bytes.clone();
    let at = bytes.len() * 6 / 10;
    corrupted[at] ^= 0x40;
    std::fs::write(&path, &corrupted).unwrap();

    let (db, report) = Database::open_with_report(&path).unwrap();
    let report_corruption = report.corruption.expect("corruption reported");
    assert!(report_corruption.offset <= at as u64);
    assert!(report.truncated_bytes > 0);
    // The surviving rows are a prefix of the committed history.
    let n = db
        .query("SELECT COUNT(*) FROM t")
        .run()
        .unwrap()
        .rows
        .rows()[0][0]
        .as_int()
        .unwrap();
    assert!((0..=5).contains(&n), "unexpected row count {n}");
    // The database stays writable, and the repair is durable: reopening
    // again reports a clean log.
    db.query("INSERT INTO t VALUES (100, 'after')")
        .run()
        .unwrap();
    drop(db);
    let (_, second) = Database::open_with_report(&path).unwrap();
    assert!(second.corruption.is_none());
}

#[test]
fn fsync_failure_poisons_the_database_until_reopen() {
    let io = FaultyIo::new(11, FaultConfig::none());
    let (db, report) = Database::open_with_io(Box::new(io.clone())).unwrap();
    assert!(report.is_clean());
    db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 'acked')").run().unwrap();

    io.set_config(FaultConfig {
        fsync_fail_in: 1,
        ..FaultConfig::none()
    });
    let err = db
        .query("INSERT INTO t VALUES (2, 'lost')")
        .run()
        .expect_err("fsync failure must surface");
    assert!(err.to_string().contains("poisoned"), "{err}");
    // The failed insert is also rolled back in memory: memory and log
    // agree on what exists.
    assert_eq!(db.row_count("t").unwrap(), 1);
    // Fail-fast from now on, even though the disk recovered.
    io.set_config(FaultConfig::none());
    assert!(db
        .query("INSERT INTO t VALUES (3, 'still-poisoned')")
        .run()
        .is_err());
    // Reads are unaffected.
    assert_eq!(
        db.query("SELECT b FROM t").run().unwrap().rows.rows()[0][0],
        Value::Text("acked".into())
    );

    // Crash + reopen over the same disk: exactly the acked row survives.
    io.crash();
    let (db2, report2) = Database::open_with_io(Box::new(io)).unwrap();
    assert_eq!(db2.row_count("t").unwrap(), 1);
    // Recovery repaired whatever partial bytes the failed fsync left.
    db2.query("INSERT INTO t VALUES (4, 'fresh')")
        .run()
        .unwrap();
    assert_eq!(db2.row_count("t").unwrap(), 2);
    let _ = report2;
}

/// A commit that cannot be made durable leaves no trace on the write
/// side, whatever kind it was — so a retry is never answered out of the
/// failed attempt's leftovers (`"u" already exists`, `unknown table "t"`):
/// every later write gets the poison error, and readers keep the last
/// durable state.
#[test]
fn a_failed_commit_of_any_kind_leaves_the_write_side_at_the_last_durable_state() {
    let write = |db: &Database, stmts: &[&str]| match stmts {
        [one] => db.query(one).run().map(|_| ()),
        many => db.execute_batch(many).map(|_| ()),
    };
    let failing: [&[&str]; 5] = [
        &["CREATE TABLE u (x INT)"],
        &["DROP TABLE t"],
        &["CREATE MATERIALIZED VIEW mv REFRESH ON COMMIT AS SELECT a FROM t"],
        &["INSERT INTO t VALUES (4, 'four')"],
        &[
            "INSERT INTO t VALUES (4, 'four')",
            "DELETE FROM t WHERE a = 1",
        ],
    ];
    for first in failing {
        let io = FaultyIo::new(11, FaultConfig::none());
        let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
        seed(&db);
        io.set_config(FaultConfig {
            fsync_fail_in: 1,
            ..FaultConfig::none()
        });
        let err = write(&db, first).expect_err("fsync failure must surface");
        assert!(err.to_string().contains("poisoned"), "{first:?}: {err}");
        io.set_config(FaultConfig::none());

        // Retries of the failed statement, statements naming what it
        // would have created or dropped, and statements that would fail
        // on their own merits: all refused the same way, twice over.
        for _ in 0..2 {
            for later in failing.iter().copied().chain([
                &["CREATE TABLE v (x INT)"] as &[&str],
                &["CREATE TABLE t (a INT)"],
                &["INSERT INTO u VALUES (1)"],
                &["INSERT INTO missing VALUES (1)"],
                &["CREATE INDEX idx_b ON t (b)"],
                &["DROP INDEX idx_a"],
                &["DROP MATERIALIZED VIEW mv"],
            ]) {
                let err = write(&db, later).expect_err("poisoned database accepts no writes");
                assert!(
                    err.to_string().contains("poisoned"),
                    "after failed {first:?}, {later:?} answered: {err}"
                );
            }
        }
        assert!(db.checkpoint().is_err());
        assert_eq!(db.table_names(), vec!["t".to_string()], "{first:?}");
        assert_eq!(db.row_count("t").unwrap(), 3, "{first:?}");
        assert!(db
            .query("SELECT b FROM t WHERE a = 1")
            .planned()
            .unwrap()
            .plan
            .uses_index());

        io.crash();
        let (db2, _) = Database::open_with_io(Box::new(io)).unwrap();
        assert_eq!(db2.table_names(), vec!["t".to_string()], "{first:?}");
        assert_eq!(db2.row_count("t").unwrap(), 3, "{first:?}");
        db2.query("CREATE TABLE u (x INT)").run().unwrap();
    }
}

#[test]
fn compaction_works_over_a_custom_io_backend() {
    let io = FaultyIo::new(5, FaultConfig::none());
    let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
    seed(&db);
    for i in 0..20 {
        db.query(&format!("UPDATE t SET b = 'v{i}' WHERE a = 1"))
            .run()
            .unwrap();
    }
    let before = io.len();
    db.checkpoint().unwrap();
    assert!(io.len() < before, "compaction should shrink the log");
    drop(db);
    let (db2, report) = Database::open_with_io(Box::new(io)).unwrap();
    assert!(report.is_clean());
    assert_eq!(
        db2.query("SELECT b FROM t WHERE a = 1")
            .run()
            .unwrap()
            .rows
            .rows()[0][0],
        Value::Text("v19".into())
    );
    assert_eq!(db2.row_count("t").unwrap(), 3);
}
