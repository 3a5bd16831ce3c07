//! Morsel-parallel execution and the prepared-statement plan cache.
//!
//! The parallel executor is an optimization, never a semantic change: the
//! differential property test below requires the morsel-parallel, streaming
//! and reference executors to agree row for row — same rows, same order,
//! same duplicates — at 1, 2 and 4 workers, and the morsel-parallel and
//! sequential runs to report field-for-field identical `ExecStats`, with
//! tiny morsels (1–8 rows) so multi-morsel paths get exercised even on
//! small generated tables, plus one shared three-segment table so morsels
//! straddle segment boundaries and zone maps (on and off) have segments to
//! prune. The
//! plan cache likewise must be observable only as speed: hits return the
//! identical `Arc`'d plan, DDL invalidates it, the LRU bound evicts, and
//! bad parameter bindings fail with typed `bind` errors before execution.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use xomatiq_relstore::{Database, DatabaseOptions, RelError, Value};

/// A database whose parallel executor kicks in aggressively: 4 workers and
/// `morsel_size`-row morsels, so even ~50-row proptest tables span several
/// morsels.
fn parallel_options(morsel_size: usize) -> DatabaseOptions {
    DatabaseOptions {
        workers: 4,
        morsel_size,
        ..DatabaseOptions::default()
    }
}

fn build_db(t_rows: &[(i64, i64, String)], u_rows: &[(i64, String)]) -> Database {
    build_db_with(8, t_rows, u_rows)
}

fn build_db_with(
    morsel_size: usize,
    t_rows: &[(i64, i64, String)],
    u_rows: &[(i64, String)],
) -> Database {
    let db = Database::in_memory_with_options(parallel_options(morsel_size));
    db.query("CREATE TABLE t (a INT, b INT, s TEXT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE u (a INT, name TEXT)").run().unwrap();
    db.query("CREATE INDEX idx_t_a ON t (a)").run().unwrap();
    db.query("CREATE KEYWORD INDEX kw_t_s ON t (s)")
        .run()
        .unwrap();
    let insert_t = db.prepare("INSERT INTO t VALUES (?, ?, ?)").unwrap();
    for (a, b, s) in t_rows {
        db.query_prepared(&insert_t)
            .bind(*a)
            .bind(*b)
            .bind(s.as_str())
            .run()
            .unwrap();
    }
    let insert_u = db.prepare("INSERT INTO u VALUES (?, ?)").unwrap();
    for (a, name) in u_rows {
        db.query_prepared(&insert_u)
            .bind(*a)
            .bind(name.as_str())
            .run()
            .unwrap();
    }
    db
}

fn t_row_strategy() -> impl Strategy<Value = (i64, i64, String)> {
    (
        0i64..12,
        0i64..6,
        prop::sample::select(vec![
            "alpha beta".to_string(),
            "beta gamma".to_string(),
            "cdc6 protein".to_string(),
            "plain".to_string(),
            "100% beta".to_string(),
            // Quote-bearing data: exercises '' escapes in literals the
            // queries below compare against.
            "o'hara beta".to_string(),
            "5'-utr region".to_string(),
        ]),
    )
}

fn u_row_strategy() -> impl Strategy<Value = (i64, String)> {
    (
        0i64..12,
        prop::sample::select(vec!["x".to_string(), "y".to_string(), "z".to_string()]),
    )
}

/// A three-segment `w(k INT, g INT, s TEXT)` (2 500 rows, `k` ascending so
/// zone maps can prune on it; a deleted stretch leaves dead slots inside
/// the first segment) plus a small `v(g INT, name TEXT)` to join against,
/// with 100-row morsels: the last morsel of every segment is ragged.
/// Built once; only `parallel_matches_streaming_and_reference` touches it
/// (it toggles the database-wide pruning switch).
fn segmented_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let db = Database::in_memory_with_options(parallel_options(100));
        db.query("CREATE TABLE w (k INT, g INT, s TEXT)")
            .run()
            .unwrap();
        db.query("CREATE TABLE v (g INT, name TEXT)").run().unwrap();
        let mut stmts: Vec<String> = (0..2_500)
            .map(|k| format!("INSERT INTO w VALUES ({k}, {}, 'row {k}')", k % 7))
            .collect();
        stmts.extend((0..5).map(|g| format!("INSERT INTO v VALUES ({g}, 'g{g}')")));
        let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
        db.execute_batch(&refs).unwrap();
        db.query("DELETE FROM w WHERE k >= 150 AND k < 420")
            .run()
            .unwrap();
        db
    })
}

/// Same SQL at 1, 2 and 4 workers plus the reference interpreter:
/// identical ordered output everywhere, and identical executor counters
/// between the sequential and every morsel-parallel run.
fn assert_all_agree(db: &Database, sql: &str) -> Result<(), TestCaseError> {
    let run = |workers: usize| {
        let out = db
            .query(sql)
            .with_workers(workers)
            .with_stats()
            .run()
            .unwrap();
        (out.rows, out.stats.unwrap())
    };
    let (sequential, seq_stats) = run(1);
    for workers in [2usize, 4] {
        let (parallel, par_stats) = run(workers);
        // `ExecStats` is plain counters: struct equality is equality of
        // every field, and the failure message prints both sides.
        prop_assert_eq!(
            seq_stats,
            par_stats,
            "stats diverged at {} workers on {}",
            workers,
            sql
        );
        prop_assert_eq!(
            sequential.columns(),
            parallel.columns(),
            "columns diverged at {} workers on {}",
            workers,
            sql
        );
        prop_assert_eq!(
            sequential.rows(),
            parallel.rows(),
            "rows diverged at {} workers on {}",
            workers,
            sql
        );
    }
    let reference = db.query(sql).via_reference().run().unwrap().rows;
    prop_assert_eq!(
        sequential.rows(),
        reference.rows(),
        "reference diverged on {}",
        sql
    );
    Ok(())
}

/// Integers clustered around the ±2^53 exactness boundary plus extremes.
fn big_int_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        (-4i64..=4).prop_map(|d| (1i64 << 53) + d),
        (-4i64..=4).prop_map(|d| -(1i64 << 53) + d),
        Just(i64::MAX),
        Just(i64::MIN),
        any::<i64>(),
        -10i64..10,
    ]
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(32)))]

    #[test]
    fn parallel_matches_streaming_and_reference(
        t_rows in prop::collection::vec(t_row_strategy(), 0..60),
        u_rows in prop::collection::vec(u_row_strategy(), 0..20),
        point in 0i64..12,
        limit in 0u64..15,
        morsel_size in 1usize..=8,
        pruning in any::<bool>(),
        lo in 0i64..2_500,
        width in 0i64..1_500,
    ) {
        let db = build_db_with(morsel_size, &t_rows, &u_rows);
        db.set_zone_map_pruning(pruning);
        let queries = [
            // Parallel-eligible shapes: scan, filter chains, projection.
            "SELECT a, b, s FROM t".to_string(),
            format!("SELECT a, b FROM t WHERE a = {point}"),
            format!("SELECT a + b, s FROM t WHERE a >= {point} AND b < 4"),
            "SELECT a FROM t WHERE CONTAINS(s, 'beta')".to_string(),
            "SELECT DISTINCT b FROM t".to_string(),
            // Fused project-filter-scan (bare columns, fully sargable
            // predicate), a partly sargable chain, and both under DISTINCT.
            format!("SELECT a, b FROM t WHERE b < 4 AND a >= {point}"),
            format!("SELECT DISTINCT a, b FROM t WHERE b < 4 AND a >= {point}"),
            format!("SELECT a, s FROM t WHERE a >= {point} AND s LIKE '%beta%'"),
            format!("SELECT DISTINCT a + b FROM t WHERE a >= {point}"),
            // Escaped-quote literal predicates through the parallel path.
            "SELECT a, b FROM t WHERE s = 'o''hara beta'".to_string(),
            "SELECT a FROM t WHERE s = '5''-utr region'".to_string(),
            // Parallel hash join (build side u, probe side t) + residual.
            "SELECT t.a, t.b, u.name FROM t, u WHERE t.a = u.a".to_string(),
            "SELECT DISTINCT t.s FROM t, u WHERE t.a = u.a".to_string(),
            "SELECT t.a, u.name FROM t, u WHERE t.a = u.a AND t.b > 2".to_string(),
            "SELECT DISTINCT t.b, u.name FROM t, u WHERE t.a = u.a".to_string(),
            // Partial-aggregate trees, grouped and global.
            "SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a ORDER BY a".to_string(),
            "SELECT COUNT(*), MIN(a), MAX(b), AVG(b) FROM t".to_string(),
            "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b".to_string(),
            format!("SELECT COUNT(*), MAX(a) FROM t WHERE a < {point}"),
            "SELECT DISTINCT COUNT(*) FROM t GROUP BY a".to_string(),
            "SELECT DISTINCT MIN(b) FROM t".to_string(),
            // Order-requiring plans: the planner must fall back to the
            // sequential executor and still agree everywhere.
            format!("SELECT a, b FROM t ORDER BY b DESC, a LIMIT {limit}"),
            format!("SELECT a, b FROM t LIMIT {limit}"),
            format!("SELECT u.name, COUNT(*) FROM t, u WHERE t.a = u.a GROUP BY u.name ORDER BY u.name LIMIT {limit}"),
        ];
        for sql in &queries {
            assert_all_agree(&db, sql)?;
        }

        // The same shapes over three segments: a range on the clustered
        // key prunes whole segments (or none, with pruning off), morsels
        // straddle segment ends, and some morsels hold only dead slots.
        let wide = segmented_db();
        wide.set_zone_map_pruning(pruning);
        let hi = lo + width;
        let wide_queries = [
            format!("SELECT k, s FROM w WHERE k >= {lo} AND k < {hi}"),
            format!("SELECT k + g, s FROM w WHERE k >= {lo} AND k < {hi} AND s LIKE '%7%'"),
            format!("SELECT DISTINCT g FROM w WHERE k >= {lo} AND k < {hi}"),
            format!("SELECT w.k, v.name FROM w, v WHERE w.g = v.g AND w.k >= {lo} AND w.k < {hi}"),
            format!("SELECT DISTINCT w.g FROM w, v WHERE w.g = v.g AND w.k >= {lo} AND w.k < {hi}"),
            format!("SELECT g, COUNT(*), SUM(k) FROM w WHERE k >= {lo} AND k < {hi} GROUP BY g"),
            format!("SELECT COUNT(*), MIN(k), MAX(k) FROM w WHERE k >= {lo} AND k < {hi}"),
            format!("SELECT DISTINCT COUNT(*) FROM w WHERE k >= {lo} AND k < {hi} GROUP BY g"),
            "SELECT g, COUNT(*) FROM w GROUP BY g".to_string(),
        ];
        for sql in &wide_queries {
            assert_all_agree(wide, sql)?;
        }
    }

    #[test]
    fn big_int_float_compare_agrees_at_every_worker_count(
        vals in prop::collection::vec(big_int_strategy(), 1..50),
    ) {
        // The ±2^53 fix must hold identically on the morsel-parallel
        // executor (which runs the vectorized segment kernels) as on the
        // streaming and reference paths.
        let db = Database::in_memory_with_options(parallel_options(8));
        db.query("CREATE TABLE big (v INT)").run().unwrap();
        let insert = db.prepare("INSERT INTO big VALUES (?)").unwrap();
        for v in &vals {
            db.query_prepared(&insert).bind(*v).run().unwrap();
        }
        for sql in [
            "SELECT v FROM big WHERE v > 9007199254740992.0",
            "SELECT v FROM big WHERE v = 9007199254740992.0",
            "SELECT v FROM big WHERE v <= -9007199254740991.5",
            "SELECT COUNT(*) FROM big WHERE v < 9223372036854775808.0",
        ] {
            assert_all_agree(&db, sql)?;
        }
    }

    #[test]
    fn parallel_matches_on_errors(
        t_rows in prop::collection::vec(t_row_strategy(), 1..30),
        filler in prop::collection::vec(t_row_strategy(), 24..60),
        early in prop::option::of(0usize..8),
        late in 0usize..8,
    ) {
        // Runtime errors (e.g. SUM over text) must surface identically —
        // and deterministically — no matter how many workers raced.
        let db = build_db(&t_rows, &[]);
        for sql in ["SELECT SUM(s) FROM t", "SELECT a + s FROM t"] {
            prop_assert!(assert_same_outcome(&db, sql)?.is_err(), "{}", sql);
        }

        // Position matters: `a + b` overflows only on poisoned rows, and
        // the message names the row's `a`. One poisoned row always sits in
        // the last morsel (a = 2); optionally another in the first
        // (a = 1). The sequential run stops at the first in scan order —
        // the late one only when it is alone — and so must every parallel
        // run, whichever worker hits its failure first.
        let mut rows = filler;
        let late_at = rows.len() - 1 - late;
        rows[late_at] = (2, i64::MAX, "late".to_string());
        if let Some(early_at) = early {
            rows[early_at] = (1, i64::MAX, "early".to_string());
        }
        let db = build_db(&rows, &[(1, "x".to_string()), (2, "y".to_string())]);
        let first_bad = if early.is_some() { "1 Add" } else { "2 Add" };
        for sql in [
            "SELECT a + b FROM t",
            "SELECT s FROM t WHERE a + b > 0",
            "SELECT a + b, COUNT(*) FROM t GROUP BY a + b",
            "SELECT DISTINCT a + b FROM t",
            "SELECT t.a + t.b, u.name FROM t, u WHERE t.a = u.a",
        ] {
            let err = assert_same_outcome(&db, sql)?.expect_err("a poisoned row overflows");
            prop_assert!(err.contains(first_bad), "{}: {}", sql, err);
        }
    }
}

/// Same SQL sequentially and at 2 and 4 workers: the same rows, or the
/// same error. Returns the (shared) outcome.
fn assert_same_outcome(
    db: &Database,
    sql: &str,
) -> Result<Result<xomatiq_relstore::ResultSet, String>, TestCaseError> {
    let run = |workers: usize| {
        db.query(sql)
            .with_workers(workers)
            .run()
            .map(|out| out.rows)
            .map_err(|e| e.to_string())
    };
    let sequential = run(1);
    for workers in [2usize, 4] {
        prop_assert_eq!(
            &sequential,
            &run(workers),
            "{} workers diverged on {}",
            workers,
            sql
        );
    }
    Ok(sequential)
}

#[test]
fn explain_reports_parallelism() {
    let db = Database::in_memory_with_options(parallel_options(8));
    db.query("CREATE TABLE t (a INT, b INT)").run().unwrap();
    let explain = |sql: &str| db.query(sql).explain().unwrap().render();
    // Scan/filter/aggregate shapes fan out across the configured workers.
    let plan = explain("SELECT a FROM t WHERE b > 0");
    assert!(plan.contains("parallel=4"), "{plan}");
    let agg = explain("SELECT b, COUNT(*) FROM t GROUP BY b");
    assert!(agg.contains("parallel=4"), "{agg}");
    // Order-contract shapes must advertise the sequential fallback.
    let sorted = explain("SELECT a FROM t ORDER BY a");
    assert!(sorted.contains("parallel=1"), "{sorted}");
    let limited = explain("SELECT a FROM t LIMIT 3");
    assert!(limited.contains("parallel=1"), "{limited}");
    // The typed tree carries the worker count directly, too.
    let tree = db.query("SELECT a FROM t WHERE b > 0").explain().unwrap();
    assert_eq!(tree.workers, 4);
}

#[test]
fn parallel_execution_counts_workers() {
    let db = Database::in_memory_with_options(parallel_options(8));
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    let stmts: Vec<String> = (0..100)
        .map(|i| format!("INSERT INTO t VALUES ({i})"))
        .collect();
    let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
    db.execute_batch(&refs).unwrap();
    let before = xomatiq_obs::global()
        .counter("relstore.exec.parallel_workers")
        .value();
    let out = db.query("SELECT COUNT(*) FROM t").run().unwrap();
    assert_eq!(out.rows.rows(), &[vec![xomatiq_relstore::Value::Int(100)]]);
    let after = xomatiq_obs::global()
        .counter("relstore.exec.parallel_workers")
        .value();
    // The registry is process-global, so concurrent tests may add more —
    // but at least this query's 4 workers must have been recorded.
    assert!(after >= before + 4, "before {before}, after {after}");
}

#[test]
fn plan_cache_hit_returns_same_plan() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 2)").run().unwrap();
    let sql = "SELECT a FROM t WHERE b = 2";
    let first = db.query(sql).planned().unwrap();
    let second = db.query(sql).planned().unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "second lookup must hit the cache"
    );
    // Normalization folds case and whitespace into the same entry.
    let renormalized = db
        .query("select  a  FROM t\n WHERE b = 2")
        .planned()
        .unwrap();
    assert!(Arc::ptr_eq(&first, &renormalized));
    // Different bound values are distinct entries (the literal is planned).
    let hit = db.query("SELECT a FROM t WHERE b = ?").bind(2i64);
    let other = db.query("SELECT a FROM t WHERE b = ?").bind(3i64);
    assert!(!Arc::ptr_eq(
        &hit.planned().unwrap(),
        &other.planned().unwrap()
    ));
}

/// End-to-end regression for the quote-escape cache-key fix: queries that
/// differ only *inside* a `''`-escaped literal must not share a cached
/// plan, while case/whitespace differences *outside* literals still must.
#[test]
fn plan_cache_distinguishes_escaped_literals() {
    let db = Database::in_memory();
    db.query("CREATE TABLE people (s TEXT)").run().unwrap();
    let insert = db.prepare("INSERT INTO people VALUES (?)").unwrap();
    for name in ["O'Hara", "O'hara"] {
        db.query_prepared(&insert).bind(name).run().unwrap();
    }

    let upper = db
        .query("SELECT s FROM people WHERE s = 'O''Hara'")
        .planned()
        .unwrap();
    let lower = db
        .query("select s from people where s = 'O''hara'")
        .planned()
        .unwrap();
    assert!(
        !Arc::ptr_eq(&upper, &lower),
        "different literals must not share a plan-cache entry"
    );
    // And each query returns its own row, never the other literal's.
    let got = |sql: &str| -> Vec<String> {
        db.query(sql)
            .run()
            .unwrap()
            .rows
            .rows()
            .iter()
            .map(|r| r[0].as_text().unwrap().to_string())
            .collect()
    };
    assert_eq!(got("SELECT s FROM people WHERE s = 'O''Hara'"), ["O'Hara"]);
    assert_eq!(got("select s from people where s = 'O''hara'"), ["O'hara"]);

    // Equal modulo case/whitespace outside the literal: one entry.
    let renorm = db
        .query("select  S  from PEOPLE\nwhere s = 'O''Hara'")
        .planned()
        .unwrap();
    assert!(
        Arc::ptr_eq(&upper, &renorm),
        "case/whitespace outside literals must still normalize together"
    );
}

#[test]
fn ddl_invalidates_plan_cache() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b INT)").run().unwrap();
    let sql = "SELECT a FROM t WHERE a = 5";
    let cold = db.query(sql).planned().unwrap();
    assert!(!cold.plan.uses_index());
    // CREATE INDEX must clear the cache: a stale cached plan would keep
    // full-scanning forever.
    db.query("CREATE INDEX idx_t_a ON t (a)").run().unwrap();
    let fresh = db.query(sql).planned().unwrap();
    assert!(!Arc::ptr_eq(&cold, &fresh), "DDL must invalidate the cache");
    assert!(
        fresh.plan.uses_index(),
        "replanned query must use the index"
    );
}

#[test]
fn stale_builder_cannot_reinsert_a_plan_over_a_dropped_index() {
    // A `Query` pins its snapshot when it is built. Run after a DROP INDEX,
    // it still (correctly) plans and runs against the pre-drop snapshot —
    // but the plan it caches must never serve a post-drop snapshot.
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b INT)").run().unwrap();
    db.query("CREATE INDEX t_a ON t (a)").run().unwrap();
    db.query("INSERT INTO t VALUES (7, 70), (8, 80)")
        .run()
        .unwrap();
    let sql = "SELECT b FROM t WHERE a = 7";
    let stale = db.query(sql);
    db.query("DROP INDEX t_a").run().unwrap();
    assert_eq!(stale.run().unwrap().rows.rows(), [[Value::Int(70)]]);
    let fresh = db.query(sql).run();
    assert_eq!(fresh.unwrap().rows.rows(), [[Value::Int(70)]]);
    assert!(!db.query(sql).planned().unwrap().plan.uses_index());
}

#[test]
fn stale_builder_cannot_reinsert_a_plan_over_a_reshaped_table() {
    // Same race, with the table recreated under swapped column positions:
    // a cached plan carries positions, so serving the stale one would read
    // column `b`'s slot for `a`.
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 2)").run().unwrap();
    let sql = "SELECT a FROM t";
    let stale = db.query(sql);
    db.query("DROP TABLE t").run().unwrap();
    db.query("CREATE TABLE t (b INT, a INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (10, 20)").run().unwrap();
    assert_eq!(stale.run().unwrap().rows.rows(), [[Value::Int(1)]]);
    assert_eq!(db.query(sql).run().unwrap().rows.rows(), [[Value::Int(20)]]);
}

#[test]
fn plan_cache_evicts_lru_and_respects_capacity() {
    let db = Database::in_memory_with_options(DatabaseOptions {
        plan_cache_capacity: 2,
        ..DatabaseOptions::default()
    });
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    let q1 = "SELECT a FROM t WHERE a = 1";
    let q2 = "SELECT a FROM t WHERE a = 2";
    let q3 = "SELECT a FROM t WHERE a = 3";
    let p1 = db.query(q1).planned().unwrap();
    db.query(q2).planned().unwrap();
    // Touch q1 so q2 becomes the least recently used entry...
    assert!(Arc::ptr_eq(&p1, &db.query(q1).planned().unwrap()));
    // ...then overflow the 2-entry cache: q2 is evicted, q1 survives.
    db.query(q3).planned().unwrap();
    assert!(Arc::ptr_eq(&p1, &db.query(q1).planned().unwrap()));

    // Capacity 0 disables caching entirely.
    let off = Database::in_memory_with_options(DatabaseOptions {
        plan_cache_capacity: 0,
        ..DatabaseOptions::default()
    });
    off.query("CREATE TABLE t (a INT)").run().unwrap();
    let a = off.query(q1).planned().unwrap();
    let b = off.query(q1).planned().unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
}

#[test]
fn prepared_binds_are_typed() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, s TEXT)").run().unwrap();
    db.query("INSERT INTO t VALUES (7, 'seven')").run().unwrap();

    let select = db.prepare("SELECT s FROM t WHERE a = ? AND s = ?").unwrap();
    assert_eq!(select.param_count(), 2);

    // Happy path: text that coerces to INT is accepted for an INT column.
    let out = db
        .query_prepared(&select)
        .bind(" 7 ")
        .bind("seven")
        .run()
        .unwrap();
    assert_eq!(out.rows.len(), 1);

    // Uncoercible bind for an INT-typed parameter fails before execution.
    let err = db
        .query_prepared(&select)
        .bind("not-a-number")
        .bind("seven")
        .run()
        .unwrap_err();
    assert_eq!(err.code(), "bind", "{err}");

    // Arity is checked both ways.
    let err = db.query_prepared(&select).bind(7i64).run().unwrap_err();
    assert!(matches!(err, RelError::Bind(_)), "{err}");
    assert!(err.to_string().contains("2 parameter(s), 1 bound"), "{err}");
    let err = db
        .query_prepared(&select)
        .bind(7i64)
        .bind("seven")
        .bind(0i64)
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("2 parameter(s), 3 bound"), "{err}");
}

#[test]
fn prepared_reuse_survives_data_changes() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    let insert = db.prepare("INSERT INTO t VALUES (?)").unwrap();
    for i in 0..10i64 {
        db.query_prepared(&insert).bind(i).run().unwrap();
    }
    let count = db.prepare("SELECT COUNT(*) FROM t WHERE a < ?").unwrap();
    let n = |bound: i64| -> i64 {
        let out = db.query_prepared(&count).bind(bound).run().unwrap();
        out.rows.rows()[0][0].as_int().unwrap()
    };
    assert_eq!(n(5), 5);
    db.query_prepared(&insert).bind(0i64).run().unwrap();
    assert_eq!(n(5), 6, "prepared SELECT must see fresh data");
    assert_eq!(n(100), 11);
}
