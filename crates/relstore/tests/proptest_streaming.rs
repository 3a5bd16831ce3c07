//! Streaming-vs-reference executor equivalence.
//!
//! The streaming executor ([`xomatiq_relstore::exec`]) is an optimization,
//! never a semantic change: for any plan the planner can produce, its
//! output must match the retained materializing interpreter
//! ([`xomatiq_relstore::exec_reference`]) row for row, *including order* —
//! same rows, same duplicates, same tie-breaking under Top-K.

use proptest::prelude::*;
use xomatiq_relstore::{Database, Value};

/// One database with two joinable tables, `t` (fact-like) and `u`
/// (dimension-like), optionally indexed so index scans get exercised too.
fn build_db(t_rows: &[(i64, i64, String)], u_rows: &[(i64, String)]) -> Database {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b INT, s TEXT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE u (a INT, name TEXT)").run().unwrap();
    db.query("CREATE INDEX idx_t_a ON t (a)").run().unwrap();
    db.query("CREATE KEYWORD INDEX kw_t_s ON t (s)")
        .run()
        .unwrap();
    for (a, b, s) in t_rows {
        // The pool includes strings containing single quotes, so the
        // SQL-literal path ('' escaping) is exercised on every insert.
        let lit = s.replace('\'', "''");
        db.query(&format!("INSERT INTO t VALUES ({a}, {b}, '{lit}')"))
            .run()
            .unwrap();
    }
    for (a, name) in u_rows {
        db.query(&format!("INSERT INTO u VALUES ({a}, '{name}')"))
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
            // LIKE metacharacters *in the data*: a literal '%' aligned
            // with a pattern '%' once matched as a literal and broke
            // wildcard resume (see expr::like_match).
            "100% beta".to_string(),
            "%odd beta".to_string(),
            "under_score".to_string(),
            // Single quotes *in the data*: these must survive the ''
            // escape through insert, equality predicates and the plan
            // cache's normalize_sql (which once risked de-syncing on
            // them — see query.rs).
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

/// Both executors, same SQL, same database: identical ordered output.
fn assert_same(db: &Database, sql: &str) -> Result<(), TestCaseError> {
    let streaming = db.query(sql).run().unwrap().rows;
    let reference = db.query(sql).via_reference().run().unwrap().rows;
    prop_assert_eq!(
        streaming.columns(),
        reference.columns(),
        "columns diverged on {}",
        sql
    );
    prop_assert_eq!(
        streaming.rows(),
        reference.rows(),
        "rows diverged on {}",
        sql
    );
    Ok(())
}

/// Integers clustered where Int↔Float comparison precision matters:
/// the ±2^53 boundary (beyond which f64 cannot represent every i64) and
/// the extremes, mixed with small values so predicates stay selective.
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(48)))]

    #[test]
    fn streaming_matches_reference(
        t_rows in prop::collection::vec(t_row_strategy(), 0..50),
        u_rows in prop::collection::vec(u_row_strategy(), 0..20),
        point in 0i64..12,
        limit in 0u64..15,
        offset in 0u64..8,
    ) {
        let db = build_db(&t_rows, &u_rows);
        let queries = [
            // Plain and filtered scans (index and full).
            "SELECT a, b, s FROM t".to_string(),
            format!("SELECT a, b FROM t WHERE a = {point}"),
            format!("SELECT a, b FROM t WHERE a >= {point} AND b < 4"),
            "SELECT a, b FROM t WHERE CONTAINS(s, 'beta')".to_string(),
            // LIKE over data containing '%'/'_' literals.
            "SELECT a, s FROM t WHERE s LIKE '%beta'".to_string(),
            "SELECT a, s FROM t WHERE s LIKE '100%'".to_string(),
            "SELECT a FROM t WHERE s LIKE '%under_score%'".to_string(),
            "SELECT a, s FROM t WHERE s NOT LIKE '%a%'".to_string(),
            format!("SELECT a FROM t WHERE s LIKE '%beta%' ORDER BY a LIMIT {limit}"),
            // Escaped-quote literal in a predicate: lexer and
            // normalize_sql must agree on where the string ends.
            "SELECT a, b FROM t WHERE s = 'o''hara beta'".to_string(),
            "SELECT a FROM t WHERE s = '5''-utr region' ORDER BY a".to_string(),
            // Projection with expressions.
            "SELECT a + b, s FROM t WHERE b > 1".to_string(),
            // Limit/offset without sort (document order).
            format!("SELECT a, b FROM t LIMIT {limit}"),
            format!("SELECT a, b FROM t LIMIT {limit} OFFSET {offset}"),
            format!("SELECT a FROM t OFFSET {offset}"),
            // Sort, and Sort fused with Limit into Top-K (ties abound:
            // `a` repeats, so stability differences would show here).
            "SELECT a, b FROM t ORDER BY a".to_string(),
            "SELECT b, a FROM t ORDER BY b DESC, a".to_string(),
            format!("SELECT a, b FROM t ORDER BY a LIMIT {limit}"),
            format!("SELECT a, s FROM t ORDER BY a DESC LIMIT {limit} OFFSET {offset}"),
            format!("SELECT a FROM t ORDER BY b LIMIT {limit}"),
            // Distinct (blocks fusion) and distinct + order + limit.
            "SELECT DISTINCT a FROM t".to_string(),
            format!("SELECT DISTINCT a FROM t ORDER BY a LIMIT {limit}"),
            format!("SELECT DISTINCT b FROM t ORDER BY b DESC LIMIT {limit} OFFSET {offset}"),
            // Hash join, semi-join (DISTINCT + existence-only table),
            // and a cross join kept small by filters.
            "SELECT t.a, t.b, u.name FROM t, u WHERE t.a = u.a".to_string(),
            format!("SELECT t.a, u.name FROM t, u WHERE t.a = u.a ORDER BY t.b LIMIT {limit}"),
            "SELECT DISTINCT t.s FROM t, u WHERE t.a = u.a".to_string(),
            format!("SELECT t.a, u.a FROM t, u WHERE t.b < 2 AND u.a = {point}"),
            // Aggregates above a join and above a filter.
            "SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a ORDER BY a".to_string(),
            "SELECT COUNT(*), MIN(a), MAX(b), AVG(b) FROM t".to_string(),
            format!("SELECT u.name, COUNT(*) FROM t, u WHERE t.a = u.a GROUP BY u.name ORDER BY u.name LIMIT {limit}"),
        ];
        for sql in &queries {
            assert_same(&db, sql)?;
        }
    }

    #[test]
    fn streaming_matches_reference_on_errors(
        t_rows in prop::collection::vec(t_row_strategy(), 1..20),
    ) {
        // Both executors must also fail identically (e.g. SUM over text).
        let db = build_db(&t_rows, &[]);
        for sql in ["SELECT SUM(s) FROM t", "SELECT a + s FROM t"] {
            let streaming = db.query(sql).run();
            let reference = db.query(sql).via_reference().run();
            prop_assert_eq!(streaming.is_err(), reference.is_err(), "{}", sql);
        }
    }

    #[test]
    fn big_int_float_comparisons_match_reference(
        vals in prop::collection::vec(big_int_strategy(), 1..40),
    ) {
        // Int↔Float comparisons used to round the integer through f64,
        // collapsing neighbours beyond ±2^53. The scalar path, the
        // vectorized kernels (full scans) and the zone maps (pruned
        // scans) must all perform the exact comparison now — and agree
        // with the reference interpreter on every executor-visible shape.
        let db = Database::in_memory();
        db.query("CREATE TABLE big (v INT)").run().unwrap();
        for v in &vals {
            db.query("INSERT INTO big VALUES (?)").bind(*v).run().unwrap();
        }
        // 2^53 = 9007199254740992 is the last exactly-representable
        // neighbourhood; 2^63 rounds to exactly 9223372036854775808.0.
        for sql in [
            "SELECT v FROM big WHERE v > 9007199254740992.0 ORDER BY v",
            "SELECT v FROM big WHERE v = 9007199254740992.0 ORDER BY v",
            "SELECT v FROM big WHERE v < 9007199254740992.0 ORDER BY v",
            "SELECT v FROM big WHERE v >= 9007199254740991.5 ORDER BY v",
            "SELECT v FROM big WHERE v <= -9007199254740991.5 ORDER BY v",
            "SELECT v FROM big WHERE v < 9223372036854775808.0 ORDER BY v",
            "SELECT v FROM big WHERE v >= -9223372036854775808.0 ORDER BY v",
            "SELECT COUNT(*) FROM big WHERE v > 0.5",
        ] {
            assert_same(&db, sql)?;
        }
    }

    #[test]
    fn topk_equals_sort_then_limit_semantics(
        t_rows in prop::collection::vec(t_row_strategy(), 0..50),
        limit in 0u64..12,
        offset in 0u64..6,
    ) {
        // Independent of the reference executor: the fused Top-K must
        // agree with materializing the full sorted output and slicing it.
        let db = build_db(&t_rows, &[]);
        let fused = db
            .query(&format!("SELECT a, b FROM t ORDER BY a, b DESC LIMIT {limit} OFFSET {offset}")).run()
            .unwrap().rows;
        let full = db
            .query("SELECT a, b FROM t ORDER BY a, b DESC").run()
            .unwrap().rows;
        let expect: Vec<Vec<Value>> = full
            .rows()
            .iter()
            .skip(offset as usize)
            .take(limit as usize)
            .cloned()
            .collect();
        prop_assert_eq!(fused.rows(), &expect[..]);
    }
}
