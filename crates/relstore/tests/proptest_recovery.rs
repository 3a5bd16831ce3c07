//! Crash-recovery property tests.
//!
//! The invariant behind the paper's "crash recovery features of an RDBMS"
//! claim (§2.2): after a crash at ANY byte position in the log, recovery
//! yields the state produced by a prefix of the committed statements —
//! never a torn write, never a half-applied transaction, and always a
//! prefix (no committed statement disappears while a later one survives).

use proptest::prelude::*;
use xomatiq_relstore::{Database, FaultConfig, FaultyIo, Value};

/// A randomly generated DML statement against a fixed single-table schema.
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

/// The observable state: sorted (a, b) pairs.
fn state_of(db: &Database) -> Vec<(i64, String)> {
    let rs = db
        .query("SELECT a, b FROM t ORDER BY a, b")
        .run()
        .unwrap()
        .rows;
    rs.rows()
        .iter()
        .map(|r| {
            (
                r[0].as_int().unwrap(),
                match &r[1] {
                    Value::Text(s) => s.clone(),
                    other => other.to_string(),
                },
            )
        })
        .collect()
}

/// A log path of `property`'s own: case `i` of every property draws the
/// same `tag` (seeding is per case, not per test), and the properties
/// run on parallel threads.
fn wal_path(property: &str, tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xomatiq-recovery-prop");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{property}-{}-{tag}.wal", std::process::id()))
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(24)))]

    /// Crash at an arbitrary byte cut: the recovered state must equal the
    /// state after some prefix of the committed statements.
    #[test]
    fn crash_at_any_point_recovers_a_committed_prefix(
        ops in prop::collection::vec(op_strategy(), 1..25),
        cut_ratio in 0.0f64..1.0,
        tag in 0u64..u64::MAX,
    ) {
        let path = wal_path("crash", tag);
        let _ = std::fs::remove_file(&path);
        {
            let db = Database::open(&path).unwrap();
            db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
            for op in &ops {
                db.query(&op.sql()).run().unwrap();
            }
        }
        // All possible prefix states (computed on fresh in-memory engines).
        let mut prefix_states = Vec::with_capacity(ops.len() + 1);
        {
            let oracle = Database::in_memory();
            oracle.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
            prefix_states.push(state_of(&oracle));
            for op in &ops {
                oracle.query(&op.sql()).run().unwrap();
                prefix_states.push(state_of(&oracle));
            }
        }
        // Crash: truncate the log at an arbitrary point AFTER the schema
        // records (cutting the CREATE TABLE would legitimately lose the
        // table; we want to exercise the DML tail).
        let bytes = std::fs::read(&path).unwrap();
        let schema_end = {
            // Find the end of the first record (CREATE TABLE): length
            // prefix + checksum + payload.
            let len = u32::from_be_bytes(bytes[0..4].try_into().unwrap()) as usize;
            8 + len
        };
        let cut = schema_end
            + ((bytes.len() - schema_end) as f64 * cut_ratio) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let recovered = Database::open(&path).unwrap();
        let got = state_of(&recovered);
        prop_assert!(
            prefix_states.contains(&got),
            "recovered state is not a committed prefix: {got:?}"
        );
        // And the database remains writable after recovery.
        recovered.query("INSERT INTO t VALUES (999, 'post')").run().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// No crash: reopening yields exactly the final state.
    #[test]
    fn clean_reopen_recovers_everything(
        ops in prop::collection::vec(op_strategy(), 1..25),
        tag in 0u64..u64::MAX,
    ) {
        let path = wal_path("reopen", tag);
        let _ = std::fs::remove_file(&path);
        let expected = {
            let db = Database::open(&path).unwrap();
            db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
            for op in &ops {
                db.query(&op.sql()).run().unwrap();
            }
            state_of(&db)
        };
        let recovered = Database::open(&path).unwrap();
        prop_assert_eq!(state_of(&recovered), expected);
        let _ = std::fs::remove_file(&path);
    }

    /// Compaction commutes with recovery: compact + reopen = reopen.
    #[test]
    fn compaction_preserves_state(
        ops in prop::collection::vec(op_strategy(), 1..25),
        tag in 0u64..u64::MAX,
    ) {
        let path = wal_path("checkpoint", tag);
        let _ = std::fs::remove_file(&path);
        let expected = {
            let db = Database::open(&path).unwrap();
            db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
            for op in &ops {
                db.query(&op.sql()).run().unwrap();
            }
            db.checkpoint().unwrap();
            state_of(&db)
        };
        let recovered = Database::open(&path).unwrap();
        prop_assert_eq!(state_of(&recovered), expected);
        let _ = std::fs::remove_file(&path);
    }
}

// The fault-schedule property: run an arbitrary workload against a disk
// that tears writes, flips bits and fails fsyncs on a seeded schedule,
// crash, recover — and the recovered state must be a prefix of the
// statements that were *acknowledged*, recovery must never panic, and it
// must always produce a recovery report. 120 cases so CI exercises well
// over the 100-schedule floor.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(120)))]

    #[test]
    fn any_fault_schedule_recovers_an_acked_prefix(
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
        // Faults off while the schema is set up; every DML after that
        // runs on the faulty schedule.
        let io = FaultyIo::new(seed, FaultConfig::none());
        let (db, report) = Database::open_with_io(Box::new(io.clone())).unwrap();
        prop_assert!(report.is_clean());
        db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
        io.set_config(cfg);

        let mut acked = Vec::new();
        let mut acked_mutations = 0usize;
        let mut failed = false;
        for op in &ops {
            match db.query(&op.sql()).run().map(|o| o.rows) {
                Ok(rs) => {
                    // A no-op DML (zero rows matched) writes nothing and
                    // may legitimately succeed on a poisoned log; any
                    // *mutation* acked after a failure is a durability
                    // lie.
                    prop_assert!(
                        !failed || rs.affected() == 0,
                        "a mutation was acked after a sync failure; the \
                         log handle should have been poisoned"
                    );
                    if rs.affected() > 0 {
                        acked_mutations += 1;
                    }
                    acked.push(op.clone());
                }
                Err(_) => failed = true,
            }
        }

        // Crash: unsynced cache is gone; recover with a healthy disk.
        io.crash();
        io.set_config(FaultConfig::none());
        let (recovered, report) = Database::open_with_io(Box::new(io)).unwrap();

        // Every state reachable by a prefix of the acked statements.
        let oracle = Database::in_memory();
        oracle.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
        let mut prefix_states = Vec::with_capacity(acked.len() + 1);
        prefix_states.push(state_of(&oracle));
        for op in &acked {
            oracle.query(&op.sql()).run().unwrap();
            prefix_states.push(state_of(&oracle));
        }
        let got = state_of(&recovered);
        prop_assert!(
            prefix_states.contains(&got),
            "recovered state is not a prefix of the acked statements:\n\
             got      {got:?}\nreport   {report:?}"
        );
        // Never a silently-lost transaction: every acked mutation is a
        // committed transaction on the log, so (applied + dropped) must
        // account for all of them — unless corruption cut the log, which
        // the report then says explicitly.
        prop_assert!(
            report.transactions_applied + report.transactions_dropped.len() >= acked_mutations
                || report.corruption.is_some(),
            "acked transactions unaccounted for: {report:?}"
        );
        // And the recovered database is immediately writable.
        recovered.query("INSERT INTO t VALUES (999, 'post')").run().unwrap();
    }
}
