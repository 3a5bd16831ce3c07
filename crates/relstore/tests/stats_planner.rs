//! Integration tests for the statistics-driven cost-based planner:
//! `ANALYZE`, `sys_table_stats`, stats-generation plan-cache
//! invalidation, the typed `EXPLAIN`/`EXPLAIN ANALYZE` surface, and a
//! plan-quality property (the chosen join order stays within 10× of the
//! best enumerated alternative).

use std::sync::Arc;

use proptest::prelude::*;
use xomatiq_relstore::{Database, OpProfile, Value};

/// Builds the three-table star used across these tests: `small` (a few
/// dimension rows), `big` (a wide dimension), and `facts` referencing
/// both. Chosen so that joining `facts` to `small` first is far cheaper
/// than the textual FROM order (`facts ⋈ big` first).
fn star_db(facts: i64, big: i64) -> Database {
    let db = Database::in_memory();
    db.query("CREATE TABLE small (id INT, tag TEXT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE big (id INT, payload TEXT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE facts (sid INT, bid INT)")
        .run()
        .unwrap();
    let mut stmts = Vec::new();
    for i in 0..20i64 {
        stmts.push(format!("INSERT INTO small VALUES ({i}, 't{i}')"));
    }
    for i in 0..big {
        stmts.push(format!("INSERT INTO big VALUES ({}, 'p{i}')", i % 500));
    }
    for i in 0..facts {
        stmts.push(format!(
            "INSERT INTO facts VALUES ({}, {})",
            i % 20,
            i % 500
        ));
    }
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    db.execute_batch(&refs).unwrap();
    db
}

const STAR_QUERY: &str = "SELECT COUNT(*) FROM facts f \
     JOIN big b ON f.bid = b.id \
     JOIN small s ON f.sid = s.id \
     WHERE s.id < 2";

/// Total rows produced across every operator of a profile — the
/// "rows processed" measure the plan-quality bound is stated in.
fn rows_processed(p: &OpProfile) -> u64 {
    p.rows_out + p.children.iter().map(rows_processed).sum::<u64>()
}

fn profiled_work(db: &Database, sql: &str) -> u64 {
    let out = db.query(sql).with_profile().run().unwrap();
    rows_processed(&out.profile.unwrap())
}

#[test]
fn analyze_reports_table_count_and_populates_sys_table_stats() {
    let db = star_db(1000, 1000);
    // Nothing analyzed yet: the stats table is empty.
    let empty = db.query("SELECT * FROM sys_table_stats").run().unwrap();
    assert!(empty.rows.rows().is_empty());

    let out = db.query("ANALYZE TABLE facts").run().unwrap();
    assert_eq!(out.rows.affected(), 1);
    let out = db.query("ANALYZE").run().unwrap();
    assert_eq!(out.rows.affected(), 3);

    let rows = db
        .query(
            "SELECT column_name, row_count, ndv, null_frac FROM sys_table_stats \
             WHERE table_name = 'facts' ORDER BY column_name",
        )
        .run()
        .unwrap();
    let rows = rows.rows.rows().to_vec();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Value::Text("bid".into()));
    assert_eq!(rows[0][1], Value::Int(1000));
    // 1000 facts cycle through 500 bid / 20 sid values; the sketch is
    // exact-ish at these cardinalities.
    let bid_ndv = match rows[0][2] {
        Value::Int(n) => n,
        ref v => panic!("ndv should be an int, got {v:?}"),
    };
    assert!((450..=550).contains(&bid_ndv), "bid ndv={bid_ndv}");
    assert_eq!(rows[1][0], Value::Text("sid".into()));
    assert_eq!(rows[1][2], Value::Int(20));
    assert_eq!(rows[0][3], Value::Float(0.0));

    // min/max come back rendered as text.
    let minmax = db
        .query(
            "SELECT min_value, max_value FROM sys_table_stats \
             WHERE table_name = 'facts' AND column_name = 'sid'",
        )
        .run()
        .unwrap();
    assert_eq!(minmax.rows.rows()[0][0], Value::Text("0".into()));
    assert_eq!(minmax.rows.rows()[0][1], Value::Text("19".into()));
}

#[test]
fn analyze_of_missing_table_is_an_error() {
    let db = Database::in_memory();
    assert!(db.query("ANALYZE TABLE nope").run().is_err());
}

#[test]
fn analyze_bumps_generation_and_invalidates_cached_plans() {
    let db = star_db(1000, 1000);
    let sql = "SELECT COUNT(*) FROM facts WHERE sid = 3";

    // Warm the cache and prove hits share the cached Arc.
    let p1 = db.query(sql).planned().unwrap();
    let p1_again = db.query(sql).planned().unwrap();
    assert!(
        Arc::ptr_eq(&p1, &p1_again),
        "second lookup must be a cache hit"
    );

    db.query("ANALYZE").run().unwrap();

    // The regression this pins: a plan costed under the old statistics
    // generation must never be served after ANALYZE.
    let p2 = db.query(sql).planned().unwrap();
    assert!(
        !Arc::ptr_eq(&p1, &p2),
        "ANALYZE must invalidate previously cached plans"
    );
    // And the freshly planned query carries real estimates now.
    assert!(p2.estimate.rows.is_some());

    // Generation is visible through sys_table_stats and bumps per ANALYZE.
    let gen = |db: &Database| -> i64 {
        let out = db
            .query("SELECT stats_generation FROM sys_table_stats LIMIT 1")
            .run()
            .unwrap();
        match out.rows.rows()[0][0] {
            Value::Int(g) => g,
            ref v => panic!("generation should be an int, got {v:?}"),
        }
    };
    let g1 = gen(&db);
    db.query("ANALYZE").run().unwrap();
    let g2 = gen(&db);
    assert!(
        g2 > g1,
        "re-ANALYZE must bump the generation ({g1} -> {g2})"
    );
}

#[test]
fn stats_flip_join_order_and_cut_rows_processed() {
    let db = star_db(20_000, 5_000);
    let cold_plan = db.query(STAR_QUERY).explain().unwrap().render();
    let cold_work = profiled_work(&db, STAR_QUERY);
    let expected = db.query(STAR_QUERY).run().unwrap();

    db.query("ANALYZE").run().unwrap();
    let warm_plan = db.query(STAR_QUERY).explain().unwrap().render();
    let warm_work = profiled_work(&db, STAR_QUERY);
    let got = db.query(STAR_QUERY).run().unwrap();

    assert_ne!(
        cold_plan, warm_plan,
        "statistics should change the join order"
    );
    assert_eq!(
        got.rows.rows(),
        expected.rows.rows(),
        "same answer either way"
    );
    assert!(
        warm_work * 2 <= cold_work,
        "cost-based order should process ≤ half the rows: cold={cold_work} warm={warm_work}"
    );
}

#[test]
fn explain_of_unbound_placeholder_renders_instead_of_erroring() {
    let db = star_db(1000, 1000);
    db.query("ANALYZE").run().unwrap();

    // Ad-hoc SQL with an unbound `?`.
    let tree = db
        .query("SELECT COUNT(*) FROM facts WHERE sid = ?")
        .explain()
        .unwrap();
    let text = tree.render();
    assert!(text.contains("facts"), "{text}");

    // A prepared statement explained before any values are bound.
    let prepared = db
        .prepare("SELECT * FROM facts f JOIN small s ON f.sid = s.id WHERE s.id < ?")
        .unwrap();
    let tree = db.query_prepared(&prepared).explain().unwrap();
    assert!(tree.root.estimated_rows.is_some());
    // Binding the parameter still works and narrows the estimate (a
    // bound literal uses real range selectivity, an unbound `?` the
    // placeholder default).
    let bound = db.query_prepared(&prepared).bind(2i64).explain().unwrap();
    assert!(bound.root.estimated_rows.is_some());
}

#[test]
fn explain_analyze_shows_estimated_and_actual_rows() {
    let db = star_db(1000, 1000);
    db.query("ANALYZE").run().unwrap();

    // The classic string surface gains an `est=` annotation per operator.
    let text = db
        .query("SELECT COUNT(*) FROM facts WHERE sid < 5")
        .with_profile()
        .run()
        .unwrap()
        .render_analysis()
        .unwrap();
    assert!(text.contains("est="), "{text}");
    assert!(text.contains("rows_out="), "{text}");

    // The typed surface carries both numbers per node.
    let tree = db
        .query("SELECT COUNT(*) FROM facts WHERE sid < 5")
        .explain_analyzed()
        .unwrap();
    assert!(tree.root.actual_rows.is_some());
    assert!(tree.root.estimated_rows.is_some());
    let scan = {
        let mut node = &tree.root;
        while let Some(child) = node.children.first() {
            node = child;
        }
        node
    };
    // The leaf pushes `sid < 5` down, emitting 250 of 1000 rows, and its
    // estimate is of those same rows: the predicate's range selectivity
    // over the analyzed row count.
    assert_eq!(scan.actual_rows, Some(250));
    let est = scan.estimated_rows.unwrap();
    assert!((125.0..=500.0).contains(&est), "est={est}");
}

/// A table's predicate is counted once in its cardinality estimate,
/// whichever operator enforces it. An index used to apply its conjuncts to
/// its own estimate and the filter above it applied the whole predicate
/// again (`a = 5`: 200 actual rows, estimated 2), which is what cost-based
/// join ordering reads.
#[test]
fn a_predicate_enforced_by_an_index_is_estimated_once() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b INT, c INT)")
        .run()
        .unwrap();
    db.query("CREATE INDEX t_a ON t (a)").run().unwrap();
    // `a` and `b` independent: a cycles over 100 values, b over 10.
    let stmts: Vec<String> = (0..20_000i64)
        .map(|i| {
            format!(
                "INSERT INTO t VALUES ({}, {}, {i})",
                i % 100,
                (i / 100) % 10
            )
        })
        .collect();
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    db.execute_batch(&refs).unwrap();
    db.query("ANALYZE").run().unwrap();
    for (predicate, indexed) in [("a = 5", true), ("a = 5 AND b = 3", true), ("b = 3", false)] {
        let sql = format!("SELECT c + 0 FROM t WHERE {predicate}");
        assert_eq!(db.query(&sql).planned().unwrap().plan.uses_index(), indexed);
        let tree = db.query(&sql).explain_analyzed().unwrap();
        // The node handing the table's filtered rows to the projection.
        let filtered = &tree.root.children[0];
        let actual = filtered.actual_rows.unwrap() as f64;
        let est = filtered.estimated_rows.unwrap();
        assert!(
            est <= actual * 2.0 && actual <= est * 2.0,
            "{predicate}: estimated {est} rows, actual {actual}\n{}",
            tree.render()
        );
    }
}

#[test]
fn churn_past_threshold_rebuilds_stats_lazily() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    let stmts: Vec<String> = (0..20)
        .map(|i| format!("INSERT INTO t VALUES ({i})"))
        .collect();
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    db.execute_batch(&refs).unwrap();
    db.query("ANALYZE TABLE t").run().unwrap();

    let snap = |db: &Database| -> (i64, i64, i64) {
        let out = db
            .query("SELECT row_count, ndv, stats_generation FROM sys_table_stats WHERE table_name = 't'")
            .run()
            .unwrap();
        let row = &out.rows.rows()[0];
        match (&row[0], &row[1], &row[2]) {
            (Value::Int(rc), Value::Int(ndv), Value::Int(g)) => (*rc, *ndv, *g),
            other => panic!("unexpected row {other:?}"),
        }
    };
    let (rc, ndv, g1) = snap(&db);
    assert_eq!(rc, 20);
    assert_eq!(ndv, 20);

    // Churn ≥ max(analyzed_rows / 5, 16) triggers an automatic rescan:
    // after 20 more inserts the column stats catch up without ANALYZE.
    let stmts: Vec<String> = (20..40)
        .map(|i| format!("INSERT INTO t VALUES ({i})"))
        .collect();
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    db.execute_batch(&refs).unwrap();
    let (rc, ndv, g2) = snap(&db);
    assert_eq!(rc, 40);
    assert!(
        (36..=44).contains(&ndv),
        "ndv should track the rescan, got {ndv}"
    );
    assert!(g2 > g1, "lazy rebuild must bump the generation");
}

#[test]
fn row_counts_stay_exact_without_analyze_rebuild() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1)").run().unwrap();
    db.query("INSERT INTO t VALUES (2)").run().unwrap();
    db.query("ANALYZE TABLE t").run().unwrap();
    db.query("INSERT INTO t VALUES (3)").run().unwrap();
    db.query("DELETE FROM t WHERE a = 1").run().unwrap();
    let out = db
        .query("SELECT row_count FROM sys_table_stats WHERE table_name = 't' LIMIT 1")
        .run()
        .unwrap();
    assert_eq!(out.rows.rows()[0][0], Value::Int(2));
}

// ---------------------------------------------------------------------------
// Plan quality: the cost-based order vs. every enumerated FROM order
// ---------------------------------------------------------------------------

fn chain_db(rows: &[Vec<i64>; 3]) -> Database {
    let db = Database::in_memory();
    let mut stmts = Vec::new();
    for (t, vals) in rows.iter().enumerate() {
        db.query(&format!("CREATE TABLE r{t} (k INT)"))
            .run()
            .unwrap();
        for v in vals {
            stmts.push(format!("INSERT INTO r{t} VALUES ({v})"));
        }
    }
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    db.execute_batch(&refs).unwrap();
    db
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(12)))]

    /// The cost-based join order never processes more than 10× the rows
    /// of the *best* FROM-order alternative. Alternatives are enumerated
    /// on an unanalyzed twin database, where the planner preserves the
    /// textual order — that is exactly what the cost model replaced.
    #[test]
    fn chosen_join_order_within_10x_of_best_alternative(
        sizes in (1usize..50, 1usize..50, 1usize..50),
        moduli in (1i64..12, 1i64..12, 1i64..12),
    ) {
        let sizes = [sizes.0, sizes.1, sizes.2];
        let moduli = [moduli.0, moduli.1, moduli.2];
        let tables: [Vec<i64>; 3] = std::array::from_fn(|t| {
            (0..sizes[t] as i64).map(|i| i % moduli[t]).collect()
        });
        let analyzed = chain_db(&tables);
        analyzed.query("ANALYZE").run().unwrap();
        let textual = chain_db(&tables);

        let query_for = |order: [usize; 3]| {
            let [a, b, c] = order;
            format!(
                "SELECT COUNT(*) FROM r{a} JOIN r{b} ON r{a}.k = r{b}.k \
                 JOIN r{c} ON r{b}.k = r{c}.k"
            )
        };
        let orders = [
            [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
        ];
        let best = orders
            .iter()
            .map(|&o| profiled_work(&textual, &query_for(o)))
            .min()
            .unwrap()
            .max(1);
        let chosen = profiled_work(&analyzed, &query_for([0, 1, 2]));
        prop_assert!(
            chosen <= best * 10,
            "chosen order processed {chosen} rows; best alternative {best}"
        );
    }
}
