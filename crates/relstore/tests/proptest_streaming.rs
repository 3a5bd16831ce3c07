//! Streaming-vs-reference executor equivalence.
//!
//! The streaming executor ([`xomatiq_relstore::exec`]) is an optimization,
//! never a semantic change: for any plan the planner can produce, its
//! output must match the retained materializing interpreter
//! ([`xomatiq_relstore::exec_reference`]) row for row, *including order* —
//! same rows, same duplicates, same tie-breaking under Top-K — and fail
//! where it fails: at the first poisoned row in scan order.

use std::sync::OnceLock;

use proptest::prelude::*;
use xomatiq_relstore::{Database, Value};

/// One database with two joinable tables, `t` (fact-like) and `u`
/// (dimension-like), indexed so index scans get exercised too.
fn build_db(t_rows: &[(i64, i64, String)], u_rows: &[(i64, String)]) -> Database {
    build_db_with(t_rows, u_rows, true)
}

/// [`build_db`], with `u` left unindexed when `index_u` is false: joins
/// against it then hash-join two scans, keyed on nothing.
fn build_db_with(
    t_rows: &[(i64, i64, String)],
    u_rows: &[(i64, String)],
    index_u: bool,
) -> Database {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b INT, s TEXT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE u (a INT, name TEXT)").run().unwrap();
    db.query("CREATE INDEX idx_t_a ON t (a)").run().unwrap();
    if index_u {
        db.query("CREATE INDEX idx_u_a ON u (a)").run().unwrap();
    }
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

/// A three-segment `w(k INT, g INT, s TEXT)` (2 500 rows, `k` ascending so
/// zone maps can prune on it; a deleted stretch leaves dead slots inside
/// the first segment) plus a small `v(g INT, name TEXT)` to join against.
/// Built once; only `scan_shapes_match_reference` touches it (it toggles
/// the database-wide pruning switch).
fn segmented_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let db = Database::in_memory();
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
            // Point filters on one side of an equi-join on indexed keys:
            // the shapes under which a join passes its keys sideways.
            "SELECT t.a, t.b, u.name FROM t, u WHERE t.a = u.a AND u.name = 'x'".to_string(),
            format!("SELECT t.b, u.name FROM t, u WHERE t.a = u.a AND t.a = {point}"),
            format!("SELECT DISTINCT t.s FROM t, u WHERE t.a = u.a AND u.name = 'y' ORDER BY t.s LIMIT {limit}"),
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
    fn key_passing_matches_reference(
        t_rows in prop::collection::vec(t_row_strategy(), 0..18),
        u_rows in prop::collection::vec(u_row_strategy(), 0..16),
        point in 0i64..12,
    ) {
        // Sized so that the planner passes keys on every case: `t` holds
        // every `a` in 0..12 and at most 30 rows, `u` at most 29 rows.
        // `u`'s 13 padding rows are its only 'x' rows, with keys `t`
        // lacks: the 'x' side passes 13 keys where `t` takes at most 12
        // (its distinct `a`s), so that read falls back to a full scan.
        let mut t_rows = t_rows;
        t_rows.extend((0..12).map(|a| (a, a % 6, "plain".to_string())));
        let mut u_rows: Vec<(i64, String)> = u_rows
            .into_iter()
            .map(|(a, name)| (a, if name == "x" { "z".into() } else { name }))
            .collect();
        u_rows.extend((20..33).map(|a| (a, "x".to_string())));
        let db = build_db(&t_rows, &u_rows);
        let passes = |sql: &str, into: &str| -> Result<(), TestCaseError> {
            let plan = db.query(sql).explain().unwrap().render();
            prop_assert!(plan.contains(&format!("passes keys to {into}")), "{}", plan);
            Ok(())
        };
        let probes = |sql: &str| db.query(sql).with_stats().run().unwrap().stats.unwrap().index_probes;
        // Into the left leaf: the keys of `u`'s filtered rows.
        let keyed = "SELECT t.a, t.b, u.name FROM t, u WHERE t.a = u.a AND u.name = 'y'";
        passes(keyed, "left")?;
        assert_same(&db, keyed)?;
        let y_keys: std::collections::BTreeSet<i64> =
            u_rows.iter().filter(|(_, n)| n == "y").map(|(a, _)| *a).collect();
        prop_assert_eq!(probes(keyed), y_keys.len() as u64);
        // Over the run-time bound: the leaf scans as planned, no probe.
        let over = "SELECT t.a, t.b, u.name FROM t, u WHERE t.a = u.a AND u.name = 'x'";
        passes(over, "left")?;
        assert_same(&db, over)?;
        prop_assert_eq!(probes(over), 0);
        // Into the right leaf: `t`'s point probe runs first.
        let sql = format!("SELECT t.b, u.name FROM t, u WHERE t.a = u.a AND t.a = {point}");
        passes(&sql, "right")?;
        assert_same(&db, &sql)?;
        prop_assert_eq!(probes(&sql), 2);
        // An error met while the left side runs first is raised where the
        // plain join raises it.
        let sql = format!(
            "SELECT t.b, u.name FROM t, u WHERE 6 / (t.b - 2) = u.a AND t.a = {point}"
        );
        passes(&sql, "right")?;
        let streaming = db.query(&sql).run().map(|r| r.rows.rows().to_vec());
        let reference = db.query(&sql).via_reference().run().map(|r| r.rows.rows().to_vec());
        prop_assert_eq!(format!("{:?}", streaming), format!("{:?}", reference), "{}", sql);
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
    fn scan_shapes_match_reference(
        t_rows in prop::collection::vec(t_row_strategy(), 0..60),
        u_rows in prop::collection::vec(u_row_strategy(), 0..20),
        point in 0i64..12,
        limit in 0u64..15,
        pruning in any::<bool>(),
        lo in 0i64..2_500,
        width in 0i64..1_500,
    ) {
        // Scans, filter chains and projections over full-scan leaves,
        // hash joins of two scans, and aggregates over both, with
        // zone-map pruning on and off.
        let db = build_db_with(&t_rows, &u_rows, false);
        db.set_zone_map_pruning(pruning);
        let queries = [
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
            // Escaped-quote literal predicates.
            "SELECT a, b FROM t WHERE s = 'o''hara beta'".to_string(),
            "SELECT a FROM t WHERE s = '5''-utr region'".to_string(),
            // Hash join (build side u, probe side t) + residual.
            "SELECT t.a, t.b, u.name FROM t, u WHERE t.a = u.a".to_string(),
            "SELECT DISTINCT t.s FROM t, u WHERE t.a = u.a".to_string(),
            "SELECT t.a, u.name FROM t, u WHERE t.a = u.a AND t.b > 2".to_string(),
            "SELECT DISTINCT t.b, u.name FROM t, u WHERE t.a = u.a".to_string(),
            // Aggregates, grouped and global.
            "SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a ORDER BY a".to_string(),
            "SELECT COUNT(*), MIN(a), MAX(b), AVG(b) FROM t".to_string(),
            "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b".to_string(),
            format!("SELECT COUNT(*), MAX(a) FROM t WHERE a < {point}"),
            "SELECT DISTINCT COUNT(*) FROM t GROUP BY a".to_string(),
            "SELECT DISTINCT MIN(b) FROM t".to_string(),
            // Order-requiring plans.
            format!("SELECT a, b FROM t ORDER BY b DESC, a LIMIT {limit}"),
            format!("SELECT a, b FROM t LIMIT {limit}"),
            format!("SELECT u.name, COUNT(*) FROM t, u WHERE t.a = u.a GROUP BY u.name ORDER BY u.name LIMIT {limit}"),
        ];
        for sql in &queries {
            assert_same(&db, sql)?;
        }

        // The same shapes over three segments: a range on the clustered
        // key prunes whole segments (or none, with pruning off), and the
        // first segment holds dead slots.
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
            assert_same(wide, sql)?;
        }
    }

    #[test]
    fn errors_name_the_first_poisoned_row(
        t_rows in prop::collection::vec(t_row_strategy(), 1..30),
        filler in prop::collection::vec(t_row_strategy(), 24..60),
        early in prop::option::of(0usize..8),
        late in 0usize..8,
    ) {
        let db = build_db_with(&t_rows, &[], false);
        for sql in ["SELECT SUM(s) FROM t", "SELECT a + s FROM t"] {
            prop_assert!(db.query(sql).run().is_err(), "{}", sql);
        }

        // Position matters: `a + b` overflows only on poisoned rows, and
        // the message names the row's `a`. One poisoned row always sits
        // near the end (a = 2); optionally another near the start
        // (a = 1). A run stops at the first in scan order — the late one
        // only when it is alone — and the reference stops at the same.
        let mut rows = filler;
        let late_at = rows.len() - 1 - late;
        rows[late_at] = (2, i64::MAX, "late".to_string());
        if let Some(early_at) = early {
            rows[early_at] = (1, i64::MAX, "early".to_string());
        }
        let db = build_db_with(&rows, &[(1, "x".to_string()), (2, "y".to_string())], false);
        let first_bad = if early.is_some() { "1 Add" } else { "2 Add" };
        for sql in [
            "SELECT a + b FROM t",
            "SELECT s FROM t WHERE a + b > 0",
            "SELECT a + b, COUNT(*) FROM t GROUP BY a + b",
            "SELECT DISTINCT a + b FROM t",
            "SELECT t.a + t.b, u.name FROM t, u WHERE t.a = u.a",
        ] {
            let err = db.query(sql).run().expect_err("a poisoned row overflows").to_string();
            prop_assert!(err.contains(first_bad), "{}: {}", sql, err);
            let reference = db.query(sql).via_reference().run();
            let reference = reference.map(|_| ()).map_err(|e| e.to_string());
            prop_assert_eq!(reference, Err(err), "{}", sql);
        }
    }

    #[test]
    fn big_int_float_scans_match_reference(
        vals in prop::collection::vec(big_int_strategy(), 1..50),
    ) {
        // The ±2^53 comparisons in scan order (the vectorized segment
        // kernels, no sort on top), against the reference.
        let db = Database::in_memory();
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
            assert_same(&db, sql)?;
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
