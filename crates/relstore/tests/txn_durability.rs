//! Transaction-layer tests: MVCC snapshot isolation, non-blocking
//! readers, group-commit failure semantics, checkpoint/rotation crash
//! windows, and background maintenance.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use xomatiq_relstore::wal::WalRecord;
use xomatiq_relstore::{
    Column, Database, FaultConfig, FaultyIo, SlowIo, TableSchema, Value, WalIo,
};

fn wal_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("xomatiq-txn-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.wal", std::process::id()));
    for suffix in ["", ".old", ".ckpt", ".ckpt.tmp"] {
        let mut p = path.as_os_str().to_os_string();
        p.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
    path
}

fn sibling(path: &std::path::Path, suffix: &str) -> PathBuf {
    let mut p = path.as_os_str().to_os_string();
    p.push(suffix);
    PathBuf::from(p)
}

/// Frames a record exactly as the log does: `len | fnv1a(payload) | payload`.
fn frame(buf: &mut Vec<u8>, record: &WalRecord) {
    fn fnv1a(bytes: &[u8]) -> u32 {
        let mut hash: u32 = 0x811c_9dc5;
        for b in bytes {
            hash ^= u32::from(*b);
            hash = hash.wrapping_mul(0x0100_0193);
        }
        hash
    }
    let payload: Bytes = record.encode();
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&fnv1a(&payload).to_be_bytes());
    buf.extend_from_slice(&payload);
}

// ---------------------------------------------------------------------------
// MVCC snapshot isolation
// ---------------------------------------------------------------------------

#[test]
fn snapshot_query_sees_pre_update_rows_across_executors() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
    for i in 0..50i64 {
        db.query("INSERT INTO t VALUES (?, ?)")
            .bind(i)
            .bind(format!("v{i}"))
            .run()
            .unwrap();
    }
    let sql = "SELECT a, b FROM t ORDER BY a";
    // Pin two snapshots (streaming, reference) BEFORE the bulk update...
    let q_stream = db.query(sql);
    let q_reference = db.query(sql).via_reference();
    // ...then overwrite every row.
    db.query("UPDATE t SET b = 'changed'").run().unwrap();

    let streamed = q_stream.run().unwrap().rows;
    let reference = q_reference.run().unwrap().rows;
    assert_eq!(streamed.len(), 50);
    for (i, row) in streamed.rows().iter().enumerate() {
        assert_eq!(row[1], Value::Text(format!("v{i}")), "row {i} mutated");
    }
    // Byte-identical across both executors.
    assert_eq!(streamed, reference);

    // A query pinned AFTER the update sees the new state.
    let fresh = db.query(sql).run().unwrap().rows;
    for row in fresh.rows() {
        assert_eq!(row[1], Value::Text("changed".into()));
    }
}

#[test]
fn readers_never_block_on_inflight_writer() {
    // Every fsync takes ~300ms, so a commit is in flight for a long,
    // observable window.
    let io = FaultyIo::new(21, FaultConfig::none());
    let slow = SlowIo::new(Box::new(io), Duration::from_millis(300));
    let (db, _) = Database::open_with_io(Box::new(slow)).unwrap();
    let db = Arc::new(db);
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1)").run().unwrap();

    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let start = Instant::now();
            db.query("INSERT INTO t VALUES (2)").run().unwrap();
            start.elapsed()
        })
    };
    // Give the writer time to apply its insert and enter the flush.
    std::thread::sleep(Duration::from_millis(80));
    let start = Instant::now();
    let rows = db.query("SELECT a FROM t ORDER BY a").run().unwrap().rows;
    let read_elapsed = start.elapsed();
    // The reader returned the pre-commit snapshot, fast, while the
    // writer was still waiting on its fsync.
    assert_eq!(rows.rows(), &[vec![Value::Int(1)]]);
    assert!(
        read_elapsed < Duration::from_millis(200),
        "read took {read_elapsed:?} — blocked on the in-flight writer?"
    );
    let write_elapsed = writer.join().unwrap();
    assert!(
        write_elapsed >= Duration::from_millis(250),
        "writer finished in {write_elapsed:?} — SlowIo not in the path?"
    );
    // Once the commit is durable the new row is visible.
    assert_eq!(db.row_count("t").unwrap(), 2);
}

// ---------------------------------------------------------------------------
// Group commit failure semantics
// ---------------------------------------------------------------------------

#[test]
fn group_commit_failure_poisons_every_waiter() {
    let io = FaultyIo::new(13, FaultConfig::none());
    let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (0)").run().unwrap();
    let db = Arc::new(db);

    // From here every fsync fails: whichever flush batch forms, every
    // transaction in it (and everything queued behind it) must observe
    // the failure.
    io.set_config(FaultConfig {
        fsync_fail_in: 1,
        ..FaultConfig::none()
    });
    let barrier = Arc::new(Barrier::new(4));
    let workers: Vec<_> = (1..=4i64)
        .map(|i| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                db.query("INSERT INTO t VALUES (?)").bind(i).run()
            })
        })
        .collect();
    for w in workers {
        let result = w.join().unwrap();
        let err = result.expect_err("a commit in a failed batch must error");
        assert!(err.to_string().contains("poison"), "{err}");
    }
    // Nothing from the failed batch is visible, and the database refuses
    // further commits even though the disk has recovered...
    assert_eq!(db.row_count("t").unwrap(), 1);
    io.set_config(FaultConfig::none());
    assert!(db.query("INSERT INTO t VALUES (9)").run().is_err());
    // ...until reopened.
    drop(db);
    let (db2, _) = Database::open_with_io(Box::new(io)).unwrap();
    assert_eq!(db2.row_count("t").unwrap(), 1);
    db2.query("INSERT INTO t VALUES (9)").run().unwrap();
    assert_eq!(db2.row_count("t").unwrap(), 2);
}

// ---------------------------------------------------------------------------
// Checkpoint / rotation crash windows
// ---------------------------------------------------------------------------

#[test]
fn checkpoint_truncates_log_and_keeps_one_generation() {
    let path = wal_path("rotate");
    let db = Database::open(&path).unwrap();
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    for i in 0..30i64 {
        db.query("INSERT INTO t VALUES (?)").bind(i).run().unwrap();
    }
    let before = std::fs::metadata(&path).unwrap().len();
    db.checkpoint().unwrap();
    let after = std::fs::metadata(&path).unwrap().len();
    assert!(
        after < before,
        "active log should shrink: {before} -> {after}"
    );
    assert!(sibling(&path, ".ckpt").exists());
    assert!(sibling(&path, ".old").exists());
    let first_old = std::fs::metadata(sibling(&path, ".old")).unwrap().len();

    // A second checkpoint replaces (not accumulates) the rotated
    // generation: exactly one `.old` ever exists.
    for i in 30..40i64 {
        db.query("INSERT INTO t VALUES (?)").bind(i).run().unwrap();
    }
    db.checkpoint().unwrap();
    let second_old = std::fs::metadata(sibling(&path, ".old")).unwrap().len();
    assert!(second_old < first_old, "old generation was not replaced");
    drop(db);

    let (db2, report) = Database::open_with_report(&path).unwrap();
    assert!(report.checkpoint_csn > 0);
    assert_eq!(report.transactions_applied, 0); // nothing after the checkpoint
    assert_eq!(db2.row_count("t").unwrap(), 40);
}

#[test]
fn stale_checkpoint_image_without_rotation_is_skipped_not_reapplied() {
    // Simulate a crash between writing the checkpoint image and rotating
    // the log: the image covers a prefix of commits that are ALL still in
    // the active log. Recovery must skip the covered prefix by CSN — not
    // apply those commits twice.
    let io = FaultyIo::new(31, FaultConfig::none());
    let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
    db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap(); // CSN 1
    for i in 0..3i64 {
        db.query("INSERT INTO t VALUES (?, ?)")
            .bind(i)
            .bind(format!("v{i}"))
            .run()
            .unwrap(); // CSNs 2, 3, 4
    }
    drop(db);

    // Hand-craft the image a checkpoint at CSN 3 would have written
    // (schema + the first two rows + the completeness footer).
    let schema = TableSchema::new(
        "t",
        vec![
            Column::new("a", xomatiq_relstore::DataType::Int),
            Column::new("b", xomatiq_relstore::DataType::Text),
        ],
    );
    let mut image = Vec::new();
    frame(&mut image, &WalRecord::CreateTable { schema });
    for i in 0..2u64 {
        frame(
            &mut image,
            &WalRecord::Insert {
                tx: 0,
                table: "t".into(),
                row_id: xomatiq_relstore::table::RowId(i),
                row: vec![Value::Int(i as i64), Value::Text(format!("v{i}"))],
            },
        );
    }
    frame(&mut image, &WalRecord::Checkpoint { csn: 3 });
    let mut side_writer = io.clone();
    side_writer.put_side(&image).unwrap();

    let (db2, report) = Database::open_with_io(Box::new(io)).unwrap();
    assert_eq!(report.checkpoint_csn, 3);
    // CSNs 1..=3 were image-covered and skipped; only CSN 4 replayed.
    assert_eq!(report.transactions_skipped, 3);
    assert_eq!(report.transactions_applied, 1);
    assert_eq!(db2.row_count("t").unwrap(), 3);
    let rows = db2
        .query("SELECT a, b FROM t ORDER BY a")
        .run()
        .unwrap()
        .rows;
    for (i, row) in rows.rows().iter().enumerate() {
        assert_eq!(row[0], Value::Int(i as i64));
        assert_eq!(row[1], Value::Text(format!("v{i}")));
    }
}

#[test]
fn missing_rotation_marker_is_repaired_on_open() {
    // Simulate a crash after rotation but before the fresh log's leading
    // Checkpoint marker: a valid image beside a completely empty log.
    let io = FaultyIo::new(37, FaultConfig::none());
    let schema = TableSchema::new("t", vec![Column::new("a", xomatiq_relstore::DataType::Int)]);
    let mut image = Vec::new();
    frame(&mut image, &WalRecord::CreateTable { schema });
    for i in 0..2u64 {
        frame(
            &mut image,
            &WalRecord::Insert {
                tx: 0,
                table: "t".into(),
                row_id: xomatiq_relstore::table::RowId(i),
                row: vec![Value::Int(i as i64)],
            },
        );
    }
    frame(&mut image, &WalRecord::Checkpoint { csn: 3 });
    let mut side_writer = io.clone();
    side_writer.put_side(&image).unwrap();

    let (db, report) = Database::open_with_io(Box::new(io.clone())).unwrap();
    assert_eq!(report.checkpoint_csn, 3);
    assert_eq!(db.row_count("t").unwrap(), 2);
    // Open repaired the marker, so commits made now are counted from the
    // checkpoint's CSN — the next recovery replays them instead of
    // mistaking them for image-covered history.
    db.query("INSERT INTO t VALUES (10)").run().unwrap();
    db.query("INSERT INTO t VALUES (11)").run().unwrap();
    drop(db);
    let (db2, report2) = Database::open_with_io(Box::new(io)).unwrap();
    assert_eq!(report2.checkpoint_csn, 3);
    assert_eq!(report2.transactions_applied, 2);
    assert_eq!(report2.transactions_skipped, 0);
    assert_eq!(db2.row_count("t").unwrap(), 4);
}

#[test]
fn corrupted_checkpoint_image_fails_loudly_to_full_replay() {
    let io = FaultyIo::new(41, FaultConfig::none());
    let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    for i in 0..5i64 {
        db.query("INSERT INTO t VALUES (?)").bind(i).run().unwrap();
    }
    // A checkpoint image exists but the log has NOT been rotated (the
    // pre-rotation crash window), then the image rots on disk.
    let mut image = Vec::new();
    frame(&mut image, &WalRecord::Checkpoint { csn: 1 });
    let mut side_writer = io.clone();
    side_writer.put_side(&image).unwrap();
    io.corrupt_side(4, 0xff);
    drop(db);

    let (db2, report) = Database::open_with_io(Box::new(io)).unwrap();
    // The damage is reported loudly and recovery falls back to replaying
    // the full, un-rotated log — nothing is lost.
    assert!(
        report
            .replay_errors
            .iter()
            .any(|e| e.contains("checkpoint image")),
        "expected a loud image complaint, got {:?}",
        report.replay_errors
    );
    assert_eq!(report.checkpoint_csn, 0);
    assert_eq!(db2.row_count("t").unwrap(), 5);
}

// ---------------------------------------------------------------------------
// Background maintenance
// ---------------------------------------------------------------------------

#[test]
fn compact_segments_reclaims_tombstones_and_preserves_queries() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
    for i in 0..200i64 {
        db.query("INSERT INTO t VALUES (?, ?)")
            .bind(i)
            .bind(format!("v{i}"))
            .run()
            .unwrap();
    }
    db.query("DELETE FROM t WHERE a < 150").run().unwrap();
    let rewritten = db.compact_segments();
    assert!(rewritten >= 1, "tombstone-heavy segment not compacted");
    // Contents, order and row identity are untouched.
    let rows = db.query("SELECT a FROM t ORDER BY a").run().unwrap().rows;
    let got: Vec<i64> = rows.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    let want: Vec<i64> = (150..200).collect();
    assert_eq!(got, want);
    // And the table keeps working for further DML.
    db.query("INSERT INTO t VALUES (999, 'after')")
        .run()
        .unwrap();
    assert_eq!(db.row_count("t").unwrap(), 51);
}

#[test]
fn background_maintenance_checkpoints_and_survives_crash() {
    let io = FaultyIo::new(47, FaultConfig::none());
    let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
    let db = Arc::new(db);
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    for i in 0..50i64 {
        db.query("INSERT INTO t VALUES (?)").bind(i).run().unwrap();
    }
    db.query("DELETE FROM t WHERE a < 40").run().unwrap();

    db.start_maintenance(Duration::from_millis(20));
    // Wait until the maintenance thread has taken at least one checkpoint.
    let deadline = Instant::now() + Duration::from_secs(5);
    while io.side_bytes().is_none() {
        assert!(Instant::now() < deadline, "maintenance never checkpointed");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Writes keep working while maintenance runs in the background.
    db.query("INSERT INTO t VALUES (100)").run().unwrap();
    db.stop_maintenance();
    drop(db);

    // Crash: whatever instant this lands on, recovery reproduces exactly
    // the acknowledged state.
    io.crash();
    let (db2, report) = Database::open_with_io(Box::new(io)).unwrap();
    assert!(report.checkpoint_csn > 0, "checkpoint not recorded");
    let rows = db2.query("SELECT a FROM t ORDER BY a").run().unwrap().rows;
    let got: Vec<i64> = rows.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    let mut want: Vec<i64> = (40..50).collect();
    want.push(100);
    assert_eq!(got, want);
}
