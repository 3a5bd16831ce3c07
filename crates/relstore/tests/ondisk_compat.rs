//! On-disk compatibility pins: the bytes the write path produces, and the
//! bytes an older build left behind, must not move under a refactor.
//!
//! Both tests run [`script`] — every kind of logged statement (table, index
//! and view DDL, a single DML statement, a multi-statement batch,
//! UPDATE/DELETE through an index, a checkpoint, then a log tail) with
//! table names spelled in mixed case, because the log records the
//! statement's spelling.

use xomatiq_relstore::{Database, FaultConfig, FaultyIo};

fn run(db: &Database, sql: &str) {
    db.query(sql).run().unwrap_or_else(|e| panic!("{sql}: {e}"));
}

fn script(db: &Database) {
    run(db, "CREATE TABLE Gene (id INT, name TEXT, score FLOAT)");
    run(db, "CREATE INDEX idx_gene_id ON Gene (id)");
    run(db, "CREATE KEYWORD INDEX kw_gene_name ON Gene (name)");
    run(db, "CREATE TABLE Link (gene_id INT, target TEXT)");
    run(
        db,
        "INSERT INTO Gene VALUES (1, 'alpha kinase', 0.5), (2, 'beta ketone', 1.5), \
         (3, 'gamma', NULL)",
    );
    db.execute_batch(&[
        "INSERT INTO Link VALUES (1, 'EC 1.1.1.1'), (2, 'EC 2.2.2.2'), (2, 'EC 3.3.3.3')",
        "INSERT INTO gene VALUES (4, 'delta', 4.0)",
        "UPDATE Gene SET score = score + 1 WHERE id = 2",
        "DELETE FROM link WHERE gene_id = 1",
    ])
    .unwrap();
    run(db, "UPDATE Gene SET name = 'GAMMA ray' WHERE id = 3");
    run(db, "DELETE FROM Gene WHERE id = 1");
    run(
        db,
        "CREATE MATERIALIZED VIEW gene_links REFRESH ON COMMIT AS \
         SELECT g.id, g.name, l.target FROM Gene g JOIN Link l ON g.id = l.gene_id",
    );
    run(
        db,
        "CREATE MATERIALIZED VIEW score_sum AS SELECT COUNT(*) AS n, MAX(id) AS top FROM Gene",
    );
    run(db, "INSERT INTO Link VALUES (4, 'EC 4.4.4.4')");
    run(db, "UPDATE Gene SET score = 9.0 WHERE id = 4");
    db.checkpoint().unwrap();
    run(db, "INSERT INTO Gene VALUES (5, 'epsilon', 5.5)");
    db.execute_batch(&[
        "UPDATE Gene SET name = 'EPSILON' WHERE id = 5",
        "DELETE FROM Link WHERE gene_id = 2",
    ])
    .unwrap();
    run(db, "CREATE TABLE Scratch (x INT)");
    run(db, "CREATE INDEX idx_scratch ON Scratch (x)");
    run(db, "DROP INDEX idx_scratch");
    run(db, "DROP TABLE Scratch");
    run(db, "DROP MATERIALIZED VIEW score_sum");
    run(db, "DELETE FROM Gene WHERE id = 3");
}

/// Everything a reader can see, in a fixed order.
fn dump(db: &Database) -> Vec<String> {
    let mut out = vec![format!("tables: {:?}", db.table_names())];
    for sql in [
        "SELECT id, name, score FROM Gene ORDER BY id",
        "SELECT gene_id, target FROM Link ORDER BY gene_id, target",
        "SELECT id, name, target FROM gene_links ORDER BY id, target",
    ] {
        out.push(db.query(sql).run().unwrap().rows.to_table());
    }
    out
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The active log, the checkpoint image and the rotated pre-checkpoint
/// log hash to the values the parent commit (`d86a64a`) produced for the
/// same script.
#[test]
fn write_path_bytes_match_the_recorded_golden_hashes() {
    let io = FaultyIo::new(7, FaultConfig::none());
    let (db, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
    script(&db);
    let got = [
        ("active log", io.durable_bytes()),
        (
            "checkpoint image",
            io.side_bytes().expect("checkpoint taken"),
        ),
        (
            "rotated log",
            io.rotated_bytes().expect("checkpoint rotated"),
        ),
    ]
    .map(|(what, bytes)| (what, bytes.len(), fnv1a64(&bytes)));
    assert_eq!(got, GOLDEN, "(what, byte length, fnv1a-64)");
}

/// Recorded by running this test at `d86a64a`.
const GOLDEN: [(&str, usize, u64); 3] = [
    ("active log", 493, 14833333417246752640),
    ("checkpoint image", 753, 4733944801661386093),
    ("rotated log", 1332, 15173865551903137353),
];

/// `tests/fixtures/parent.wal` + `parent.wal.ckpt` were written by
/// `d86a64a` running [`script`] over `Database::open`. They must open
/// here with nothing to report and the rows the script leaves behind.
#[test]
fn log_and_image_written_by_the_parent_commit_recover_cleanly() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = std::env::temp_dir().join(format!("xomatiq-compat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["parent.wal", "parent.wal.ckpt"] {
        std::fs::copy(fixtures.join(name), dir.join(name)).unwrap();
    }
    let (db, report) = Database::open_with_report(&dir.join("parent.wal")).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert!(report.checkpoint_csn > 0, "image not used: {report:?}");
    assert!(report.transactions_applied > 0, "tail not replayed");

    let fresh = Database::in_memory();
    script(&fresh);
    assert_eq!(dump(&db), dump(&fresh));
    assert_eq!(db.row_count("Gene").unwrap(), 3);
    assert_eq!(db.row_count("gene_links").unwrap(), 1);

    // The recovered database keeps writing to the old log.
    run(&db, "INSERT INTO Gene VALUES (6, 'zeta', 6.5)");
    drop(db);
    let (again, report) = Database::open_with_report(&dir.join("parent.wal")).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(again.row_count("Gene").unwrap(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}
