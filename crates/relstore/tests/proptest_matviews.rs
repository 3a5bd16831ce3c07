//! Differential property tests for incremental materialized views.
//!
//! The oracle is brutal and simple: after ANY sequence of committed DML,
//! a view's stored contents must be identical to recomputing its
//! defining query from scratch — and that equality must hold under every
//! executor (streaming, reference). Every view shape
//! runs the same signed-delta algebra, so the views cover what it rests
//! on: row views over one table, an equi-join, a theta join and a
//! self-join; `*`, `t.*` and bare column names over a join whose `ON` and
//! `WHERE` both carry conjuncts; aggregates over one table and over a join, with MIN/MAX
//! retraction and rescans; a float column whose zeros differ only in
//! sign (netting must keep `-0.0 → 0.0` as an update); and transactions
//! whose statements touch the same rows more than once.

use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use xomatiq_relstore::{Database, Value};

/// Cases per property: the file's default, or `PROPTEST_CASES` when set
/// (the nightly stress job raises it to 1024).
fn prop_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The float column's domain: both zeros, one non-zero, NULL.
const FLOATS: [&str; 4] = ["-0.0", "0.0", "1.5", "NULL"];

#[derive(Debug, Clone)]
enum Op {
    InsertT {
        id: i64,
        grp: i64,
        v: i64,
        f: usize,
    },
    InsertU {
        id: i64,
        w: i64,
    },
    UpdateT {
        threshold: i64,
        add: i64,
    },
    MoveT {
        from_grp: i64,
        to_grp: i64,
    },
    FlipZeros,
    DeleteT {
        threshold: i64,
    },
    DeleteU {
        id: i64,
    },
    /// One transaction: insert-then-delete of a row, a double update of
    /// one row, and an update of both sides of a joined pair.
    Batch {
        fresh: i64,
        twice: i64,
        pair: i64,
    },
}

impl Op {
    fn statements(&self) -> Vec<String> {
        match self {
            Op::InsertT { id, grp, v, f } => {
                vec![format!(
                    "INSERT INTO t VALUES ({id}, 'g{grp}', {v}, {})",
                    FLOATS[*f]
                )]
            }
            Op::InsertU { id, w } => vec![format!("INSERT INTO u VALUES ({id}, {w})")],
            Op::UpdateT { threshold, add } => {
                vec![format!("UPDATE t SET v = v + {add} WHERE v > {threshold}")]
            }
            Op::MoveT { from_grp, to_grp } => {
                vec![format!(
                    "UPDATE t SET grp = 'g{to_grp}' WHERE grp = 'g{from_grp}'"
                )]
            }
            Op::FlipZeros => vec!["UPDATE t SET f = -f WHERE f = 0.0".to_string()],
            Op::DeleteT { threshold } => vec![format!("DELETE FROM t WHERE v > {threshold}")],
            Op::DeleteU { id } => vec![format!("DELETE FROM u WHERE id = {id}")],
            Op::Batch { fresh, twice, pair } => vec![
                format!("INSERT INTO t VALUES ({fresh}, 'g0', 30, 0.0)"),
                format!("DELETE FROM t WHERE id = {fresh}"),
                format!("UPDATE t SET v = v + 7, f = -f WHERE id = {twice}"),
                format!("UPDATE t SET v = v - 3, f = -f WHERE id = {twice}"),
                format!("UPDATE t SET v = v + 1 WHERE id = {pair}"),
                format!("UPDATE u SET w = w + 1 WHERE id = {pair}"),
            ],
        }
    }

    fn run(&self, db: &Database) {
        let stmts = self.statements();
        if let [one] = stmts.as_slice() {
            db.query(one).run().unwrap();
        } else {
            let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
            db.execute_batch(&refs).unwrap();
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0i64..40, 0i64..4, -20i64..60, 0usize..FLOATS.len())
            .prop_map(|(id, grp, v, f)| Op::InsertT { id, grp, v, f }),
        2 => (0i64..40, 0i64..50).prop_map(|(id, w)| Op::InsertU { id, w }),
        2 => (-10i64..50, -15i64..15).prop_map(|(threshold, add)| Op::UpdateT { threshold, add }),
        1 => (0i64..4, 0i64..4).prop_map(|(from_grp, to_grp)| Op::MoveT { from_grp, to_grp }),
        1 => Just(Op::FlipZeros),
        2 => (-10i64..50).prop_map(|threshold| Op::DeleteT { threshold }),
        1 => (0i64..40).prop_map(|id| Op::DeleteU { id }),
        1 => (0i64..40, 0i64..40, 0i64..40)
            .prop_map(|(fresh, twice, pair)| Op::Batch { fresh, twice, pair }),
    ]
}

/// Every view shape, plus a deferred twin of the aggregate.
const VIEWS: &[(&str, &str, &str)] = &[
    (
        "v_filter",
        "REFRESH ON COMMIT",
        "SELECT id, v + 1 AS vv, f FROM t WHERE v > 10",
    ),
    (
        "v_join",
        "REFRESH ON COMMIT",
        "SELECT t.id, t.v, t.f, u.w FROM t JOIN u ON t.id = u.id WHERE u.w > 5",
    ),
    (
        "v_theta",
        "REFRESH ON COMMIT",
        "SELECT t.id, u.id AS uid, t.f FROM t JOIN u ON t.v < u.w",
    ),
    (
        "v_self",
        "REFRESH ON COMMIT",
        "SELECT a.id, b.id AS bid, b.f FROM t a JOIN t b ON a.grp = b.grp",
    ),
    (
        "v_agg",
        "REFRESH ON COMMIT",
        "SELECT grp, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, \
         AVG(v) AS mean, MIN(f) AS flo, MAX(f) AS fhi FROM t GROUP BY grp",
    ),
    (
        "v_join_agg",
        "REFRESH ON COMMIT",
        "SELECT t.grp, COUNT(*) AS n, SUM(u.w) AS s, MIN(t.f) AS lo, MAX(t.f) AS hi \
         FROM t JOIN u ON t.id = u.id GROUP BY t.grp",
    ),
    (
        "v_star",
        "REFRESH ON COMMIT",
        "SELECT * FROM t WHERE v > 10",
    ),
    (
        "v_names",
        "REFRESH ON COMMIT",
        "SELECT u.*, grp, v FROM t JOIN u ON t.id = u.id AND v < w WHERE f IS NOT NULL",
    ),
    (
        "v_lazy",
        "",
        "SELECT grp, COUNT(*) AS n, MAX(v) AS hi FROM t GROUP BY grp",
    ),
];

fn setup(db: &Database) {
    db.query("CREATE TABLE t (id INT, grp TEXT, v INT, f FLOAT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE u (id INT, w INT)").run().unwrap();
    for (name, policy, def) in VIEWS {
        db.query(&format!(
            "CREATE MATERIALIZED VIEW {name} {policy} AS {def}"
        ))
        .run()
        .unwrap();
    }
}

fn render(v: &Value) -> String {
    match v {
        Value::Null => "∅".to_string(),
        // AVG emits floats; fixed formatting makes "byte-identical"
        // well-defined across executors, and it prints -0.0's sign.
        Value::Float(f) => format!("{f:.9}"),
        other => other.to_string(),
    }
}

enum Exec {
    Streaming,
    Reference,
}

fn rows_via(db: &Database, sql: &str, exec: &Exec) -> Vec<Vec<String>> {
    let q = db.query(sql);
    let q = match exec {
        Exec::Streaming => q,
        Exec::Reference => q.via_reference(),
    };
    let out = q.run().unwrap();
    let mut rows: Vec<Vec<String>> = out
        .rows
        .rows()
        .iter()
        .map(|r| r.iter().map(render).collect())
        .collect();
    rows.sort();
    rows
}

/// Asserts every view's contents equal a from-scratch recompute of its
/// definition, under both executors.
fn check_all_views(db: &Database) -> Result<(), TestCaseError> {
    for (name, _, def) in VIEWS {
        for exec in [Exec::Streaming, Exec::Reference] {
            let stored = rows_via(db, &format!("SELECT * FROM {name}"), &exec);
            let truth = rows_via(db, def, &exec);
            prop_assert_eq!(&stored, &truth, "view {} diverged from recompute", name);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(32)))]

    /// Sequential random DML: every committed statement flows through
    /// the on-commit pipelines; the deferred view is refreshed at
    /// checkpoints. Every view must match recompute at every
    /// checkpoint and at the end.
    #[test]
    fn random_dml_keeps_views_identical_to_recompute(
        ops in prop::collection::vec(op_strategy(), 1..40),
        checkpoint_every in 5usize..12,
    ) {
        let db = Database::in_memory();
        setup(&db);
        for (i, op) in ops.iter().enumerate() {
            op.run(&db);
            if i.is_multiple_of(checkpoint_every) {
                db.query("REFRESH MATERIALIZED VIEW v_lazy").run().unwrap();
                check_all_views(&db)?;
            }
        }
        db.query("REFRESH MATERIALIZED VIEW v_lazy").run().unwrap();
        check_all_views(&db)?;
    }

    /// Concurrent committers: several threads race interleaved DML
    /// through the group-commit queue. Whatever interleaving the lock
    /// imposes, each commit maintained the views against exactly the
    /// state it committed over — so at quiescence views equal recompute.
    #[test]
    fn concurrent_committers_keep_views_identical_to_recompute(
        per_thread in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..12), 2..=4),
    ) {
        let db = Arc::new(Database::in_memory());
        setup(&db);
        let barrier = Arc::new(Barrier::new(per_thread.len()));
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|ops| {
                let db = Arc::clone(&db);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for op in ops {
                        op.run(&db);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        db.query("REFRESH MATERIALIZED VIEW v_lazy").run().unwrap();
        check_all_views(&db)?;
    }
}
