//! Segment rebuild under WAL replay.
//!
//! PR-1's fault-schedule machinery proved that recovery yields a prefix of
//! the acked statements; these tests extend that to the segmented column
//! store: the segment layout rebuilt by replay must present rows in the
//! exact document order (ascending row id) the pre-crash store had, the
//! rebuild must be deterministic (two recoveries from the same log bytes
//! agree row for row), and zone maps rebuilt from replayed data must keep
//! pruning correctly.

use proptest::prelude::*;
use xomatiq_relstore::{Database, FaultConfig, FaultyIo, Value};

/// Document-order state: (a, b) pairs WITHOUT an ORDER BY, so the scan
/// order itself — row id order across every rebuilt segment — is under
/// test, not just the multiset of rows.
fn doc_order_state(db: &Database) -> Vec<(Option<i64>, String)> {
    let out = db.query("SELECT a, b FROM t").run().unwrap();
    out.rows
        .rows()
        .iter()
        .map(|r| {
            (
                r[0].as_int(),
                match &r[1] {
                    Value::Text(s) => s.clone(),
                    other => other.to_string(),
                },
            )
        })
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    Insert { a: i64, b: String },
    UpdateWhere { threshold: i64, b: String },
    DeleteWhere { threshold: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0i64..100, "[a-z]{1,8}").prop_map(|(a, b)| Op::Insert { a, b }),
        1 => (0i64..100, "[a-z]{1,8}")
            .prop_map(|(threshold, b)| Op::UpdateWhere { threshold, b }),
        1 => (0i64..100).prop_map(|threshold| Op::DeleteWhere { threshold }),
    ]
}

impl Op {
    fn sql(&self) -> String {
        match self {
            Op::Insert { a, b } => format!("INSERT INTO t VALUES ({a}, '{b}')"),
            Op::UpdateWhere { threshold, b } => {
                format!("UPDATE t SET b = '{b}' WHERE a < {threshold}")
            }
            Op::DeleteWhere { threshold } => format!("DELETE FROM t WHERE a > {threshold}"),
        }
    }
}

/// Cases per property: the file's default, or `PROPTEST_CASES` when set
/// (the nightly stress job raises it to 1024).
fn prop_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(48)))]

    /// Fault-schedule crash + recovery: the rebuilt segment store must
    /// present a document-order prefix of the acked statements, and the
    /// rebuild must be deterministic across recoveries of the same bytes.
    #[test]
    fn segment_rebuild_preserves_document_order_under_faults(
        seed in 0u64..u64::MAX,
        ops in prop::collection::vec(op_strategy(), 1..20),
        torn_write_in in 0u32..6,
        bit_flip_in in 0u32..6,
        fsync_fail_in in 0u32..6,
    ) {
        let cfg = FaultConfig {
            torn_write_in,
            bit_flip_in,
            fsync_fail_in,
            read_fail_in: 0,
        };
        // Faults off for the schema, on for the DML tail.
        let io = FaultyIo::new(seed, FaultConfig::none());
        let (db, report) = Database::open_with_io(Box::new(io.clone())).unwrap();
        prop_assert!(report.is_clean());
        db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
        io.set_config(cfg);

        let mut acked = Vec::new();
        for op in &ops {
            if db.query(&op.sql()).run().is_ok() {
                acked.push(op.clone());
            }
        }

        io.crash();
        io.set_config(FaultConfig::none());
        let (recovered, _) = Database::open_with_io(Box::new(io.clone())).unwrap();
        let got = doc_order_state(&recovered);

        // Document-order prefix states of the acked statements: the
        // rebuilt store must match one of them *in order*, which pins the
        // splice/revive logic of replay, not just row content.
        let oracle = Database::in_memory();
        oracle.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
        let mut prefix_states = Vec::with_capacity(acked.len() + 1);
        prefix_states.push(doc_order_state(&oracle));
        for op in &acked {
            oracle.query(&op.sql()).run().unwrap();
            prefix_states.push(doc_order_state(&oracle));
        }
        prop_assert!(
            prefix_states.contains(&got),
            "rebuilt store is not a document-order prefix of acked ops: {got:?}"
        );

        // Determinism: recovering the same log again yields the same
        // rows in the same order.
        let (again, _) = Database::open_with_io(Box::new(io)).unwrap();
        prop_assert_eq!(doc_order_state(&again), got);
    }
}

#[test]
fn replay_across_segment_boundaries_keeps_order_and_zone_maps() {
    // 2 600 rows span three production-capacity segments; holes and
    // updates dirty the middle one, then a clean reopen replays the log.
    let dir = std::env::temp_dir().join("xomatiq-storage-recovery");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("segments-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let before = {
        let db = Database::open(&path).unwrap();
        db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
        let stmts: Vec<String> = (0..2_600)
            .map(|i| format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
            .collect();
        let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
        db.execute_batch(&refs).unwrap();
        db.query("DELETE FROM t WHERE a >= 1100 AND a < 1300")
            .run()
            .unwrap();
        db.query("UPDATE t SET b = 'patched' WHERE a >= 2048 AND a < 2060")
            .run()
            .unwrap();
        doc_order_state(&db)
    };

    let recovered = Database::open(&path).unwrap();
    assert_eq!(doc_order_state(&recovered), before);

    // Zone maps are rebuilt during replay: a selective range over the
    // first segment must prune the later ones.
    let out = recovered
        .query("SELECT a FROM t WHERE a BETWEEN 10 AND 20")
        .with_stats()
        .run()
        .unwrap();
    assert_eq!(out.rows.rows().len(), 11);
    let stats = out.stats.unwrap();
    assert!(
        stats.segments_pruned >= 1,
        "expected replayed zone maps to prune segments: {stats:?}"
    );
    let _ = std::fs::remove_file(&path);
}
