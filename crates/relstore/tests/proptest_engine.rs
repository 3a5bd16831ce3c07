//! Engine property tests.
//!
//! The central invariant: the planner's access-path choice is an
//! optimization, never a semantic change — indexed and unindexed executions
//! of the same query over the same data return identical row multisets.

use proptest::prelude::*;
use xomatiq_relstore::{Database, Value};

/// One generated row of `t (a INT, b INT, s TEXT, f FLOAT)`; `f` is
/// already spelled as SQL (`NULL`, `-0.0`, `1.5`, ...).
type TwinRow = (i64, i64, String, &'static str);

/// Builds two databases with identical data; one fully indexed.
fn twin_dbs(rows: &[TwinRow]) -> (Database, Database) {
    let plain = Database::in_memory();
    let indexed = Database::in_memory();
    for db in [&plain, &indexed] {
        db.query("CREATE TABLE t (a INT, b INT, s TEXT, f FLOAT)")
            .run()
            .unwrap();
    }
    for ddl in [
        "CREATE INDEX idx_a ON t (a)",
        "CREATE INDEX idx_ab ON t (a, b)",
        "CREATE KEYWORD INDEX kw_s ON t (s)",
        "CREATE INDEX idx_f ON t (f)",
        "CREATE INDEX idx_fb ON t (f, b)",
    ] {
        indexed.query(ddl).run().unwrap();
    }
    for (a, b, s, f) in rows {
        let sql = format!("INSERT INTO t VALUES ({a}, {b}, '{s}', {f})");
        plain.query(&sql).run().unwrap();
        indexed.query(&sql).run().unwrap();
    }
    (plain, indexed)
}

fn sorted_rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let mut rows = db.query(sql).run().unwrap().rows.into_rows();
    rows.sort_by(|x, y| {
        for (a, b) in x.iter().zip(y.iter()) {
            let ord = a.total_cmp(b);
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// The float spellings rows and literals draw from: both zeros, NULL, and
/// values an integer literal can and cannot equal.
const FLOATS: [&str; 8] = ["NULL", "-0.0", "0.0", "0.5", "1.0", "1.5", "2.0", "-1.0"];

fn row_strategy() -> impl Strategy<Value = TwinRow> {
    (
        0i64..20,
        0i64..10,
        prop::sample::select(vec![
            "alpha beta".to_string(),
            "beta gamma".to_string(),
            "cdc6 protein".to_string(),
            "ketone group".to_string(),
            "plain".to_string(),
        ]),
        prop::sample::select(FLOATS.to_vec()),
    )
}

/// One conjunct over `a`, `b` or `f`: a comparison or a `BETWEEN` against
/// integer and float literals alike, so conjunctions of them repeat and
/// contradict each other on a column and mix Int/Float comparisons.
fn conjunct_strategy() -> impl Strategy<Value = String> {
    let literal = || {
        prop_oneof![
            (-1i64..6).prop_map(|i| i.to_string()),
            prop::sample::select(FLOATS[1..].to_vec()).prop_map(str::to_string),
        ]
    };
    (
        prop::sample::select(vec!["a", "b", "f"]),
        prop::sample::select(vec!["=", "<>", "<", "<=", ">", ">=", "BETWEEN"]),
        literal(),
        literal(),
    )
        .prop_map(|(col, op, x, y)| match op {
            "BETWEEN" => format!("{col} BETWEEN {x} AND {y}"),
            op => format!("{col} {op} {x}"),
        })
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(64)))]

    #[test]
    fn index_never_changes_results(
        rows in prop::collection::vec(row_strategy(), 0..60),
        point in 0i64..20,
        lo in 0i64..10,
        width in 0i64..10,
        wheres in prop::collection::vec(prop::collection::vec(conjunct_strategy(), 1..4), 4),
    ) {
        let (plain, indexed) = twin_dbs(&rows);
        let hi = lo + width;
        let mut queries = vec![
            format!("a = {point}"),
            format!("a = {point} AND b BETWEEN {lo} AND {hi}"),
            format!("a >= {lo} AND a <= {hi}"),
            "CONTAINS(s, 'cdc6')".to_string(),
            "CONTAINS(s, 'beta gamma')".to_string(),
            // What decides which conjuncts an index may enforce alone:
            // repeated and contradictory conjuncts on one column ...
            format!("a = {point} AND a = {lo}"),
            format!("a = {lo} AND a = {lo} AND b = {width}"),
            format!("a > {lo} AND a > {width}"),
            format!("a BETWEEN {lo} AND {hi} AND a > {width}"),
            // ... a composite index's prefix plus a range ...
            format!("a = {point} AND b >= {lo} AND b < {hi}"),
            format!("f = 1.0 AND b > {lo} AND b <= {hi}"),
            // ... and float keys: both zeros, Int against Float, NULLs.
            "f = 0.0".to_string(),
            "f = 0".to_string(),
            "f = -0.0".to_string(),
            "f >= 0 AND f <= 0.0".to_string(),
            format!("f = {width} AND b = {lo}"),
            "f IS NULL AND a < 10".to_string(),
        ];
        queries.extend(wheres.iter().map(|conjuncts| conjuncts.join(" AND ")));
        let compare = |filter: &str| {
            let sql = format!("SELECT a, b, s, f FROM t WHERE {filter}");
            let sql = sql.trim_end_matches(" WHERE ");
            prop_assert_eq!(
                sorted_rows(&plain, sql),
                sorted_rows(&indexed, sql),
                "diverged on {}", sql
            );
            Ok(())
        };
        for filter in &queries {
            compare(filter)?;
        }
        // And the indexed side actually used an index for the point query.
        let point_sql = format!("SELECT a FROM t WHERE a = {point}");
        let used_index = indexed.query(&point_sql).planned().unwrap().plan.uses_index();
        prop_assert!(used_index);

        // DML finds its rows through the same access paths: the same
        // statements leave both twins (and the indexed twin's indexes)
        // in the same state.
        let dml = [
            format!("UPDATE t SET b = b + 1, f = 0.0 WHERE {}", queries[queries.len() - 1]),
            format!("DELETE FROM t WHERE {}", queries[queries.len() - 2]),
            format!("UPDATE t SET a = a + 1 WHERE a = {point} AND b >= {lo}"),
            "DELETE FROM t WHERE f = 0".to_string(),
        ];
        for sql in &dml {
            let affected = |db: &Database| db.query(sql).run().unwrap().rows.affected();
            prop_assert_eq!(affected(&plain), affected(&indexed), "diverged on {}", sql);
            compare("")?;
            for filter in &queries {
                compare(filter)?;
            }
        }
    }

    #[test]
    fn order_by_sorts_totally(rows in prop::collection::vec(row_strategy(), 0..60)) {
        let (db, _) = twin_dbs(&rows);
        let rs = db.query("SELECT a, b FROM t ORDER BY a, b DESC").run().unwrap().rows;
        let out = rs.rows();
        for w in out.windows(2) {
            let (x, y) = (&w[0], &w[1]);
            let a_cmp = x[0].total_cmp(&y[0]);
            prop_assert!(a_cmp.is_le());
            if a_cmp.is_eq() {
                prop_assert!(x[1].total_cmp(&y[1]).is_ge());
            }
        }
    }

    #[test]
    fn count_matches_row_count(rows in prop::collection::vec(row_strategy(), 0..60)) {
        let (db, _) = twin_dbs(&rows);
        let rs = db.query("SELECT COUNT(*) FROM t").run().unwrap().rows;
        prop_assert_eq!(rs.rows()[0][0].clone(), Value::Int(rows.len() as i64));
    }

    #[test]
    fn distinct_is_a_set(rows in prop::collection::vec(row_strategy(), 0..60)) {
        let (db, _) = twin_dbs(&rows);
        let rs = db.query("SELECT DISTINCT a FROM t").run().unwrap().rows;
        let mut seen = std::collections::HashSet::new();
        for row in rs.rows() {
            prop_assert!(seen.insert(row[0].clone()), "duplicate in DISTINCT output");
        }
        let expected: std::collections::HashSet<i64> = rows.iter().map(|r| r.0).collect();
        prop_assert_eq!(seen.len(), expected.len());
    }

    #[test]
    fn group_by_partitions_rows(rows in prop::collection::vec(row_strategy(), 1..60)) {
        let (db, _) = twin_dbs(&rows);
        let rs = db.query("SELECT a, COUNT(*) FROM t GROUP BY a").run().unwrap().rows;
        let total: i64 = rs.rows().iter().map(|r| r[1].as_int().unwrap()).sum();
        prop_assert_eq!(total, rows.len() as i64);
    }

    #[test]
    fn delete_then_count_consistent(
        rows in prop::collection::vec(row_strategy(), 0..40),
        cut in 0i64..20,
    ) {
        let (_, db) = twin_dbs(&rows);
        let expect_remaining = rows.iter().filter(|r| r.0 >= cut).count();
        db.query(&format!("DELETE FROM t WHERE a < {cut}")).run().unwrap();
        prop_assert_eq!(db.row_count("t").unwrap(), expect_remaining);
        // Index agrees with the table after the deletes.
        let via_index = db
            .query(&format!("SELECT COUNT(*) FROM t WHERE a = {cut}")).run()
            .unwrap().rows;
        let expected = rows.iter().filter(|r| r.0 == cut).count() as i64;
        prop_assert_eq!(via_index.rows()[0][0].clone(), Value::Int(expected));
    }
}
