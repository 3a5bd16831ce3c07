//! Streaming-executor behaviour: O(k) materialization bounds for
//! `LIMIT`/Top-K pushdown, plan-shape assertions, and the aggregate-layer
//! regression tests (integer SUM precision and overflow).

use xomatiq_relstore::{Database, ExecStats, ResultSet, Value};

/// Runs `sql` and returns its rows together with the executor counters.
fn query_with_stats(db: &Database, sql: &str) -> (ResultSet, ExecStats) {
    let out = db.query(sql).with_stats().run().unwrap();
    (out.rows, out.stats.unwrap())
}

/// A database with one `n`-row table `big(a INT, b TEXT)`.
fn big_db(n: i64) -> Database {
    let db = Database::in_memory();
    db.query("CREATE TABLE big (a INT, b TEXT)").run().unwrap();
    let stmts: Vec<String> = (0..n)
        .map(|i| format!("INSERT INTO big VALUES ({i}, 'row{i}')"))
        .collect();
    let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
    db.execute_batch(&refs).unwrap();
    db
}

#[test]
fn limit_over_scan_stops_pulling_and_buffers_nothing() {
    let db = big_db(10_000);
    let (rs, stats) = query_with_stats(&db, "SELECT a FROM big LIMIT 10");
    assert_eq!(rs.rows().len(), 10);
    // The limit satisfies itself from the first 10 rows: the scan never
    // visits the other 9 990, and no operator buffers anything.
    assert_eq!(stats.rows_scanned, 10, "{stats:?}");
    assert_eq!(stats.buffered_peak, 0, "{stats:?}");
    assert_eq!(stats.rows_emitted, 10);
    // No index exists, so the access path must not report probes.
    assert_eq!(stats.index_probes, 0, "{stats:?}");
    assert_eq!(stats.keyword_postings_read, 0, "{stats:?}");

    // OFFSET still only pulls offset + limit rows.
    let (rs, stats) = query_with_stats(&db, "SELECT a FROM big LIMIT 10 OFFSET 25");
    assert_eq!(rs.rows()[0][0], Value::Int(25));
    assert_eq!(stats.rows_scanned, 35, "{stats:?}");
    assert_eq!(stats.buffered_peak, 0, "{stats:?}");
}

#[test]
fn filtered_limit_stops_at_the_kth_match() {
    let db = big_db(10_000);
    let (rs, stats) = query_with_stats(&db, "SELECT a FROM big WHERE a >= 100 LIMIT 5");
    assert_eq!(rs.rows().len(), 5);
    // `a >= 100` is sargable, so the scan runs segment-at-a-time: the
    // kernel pre-filters the whole first segment (1 024 rows, segment
    // capacity) and the limit is satisfied before a second segment is
    // touched. Pre-columnar this was 105 (100 misses + 5 matches row by
    // row); the accounting is now segment-granular but still O(k) in
    // segments rather than O(n) in rows.
    assert_eq!(stats.rows_scanned, 1024, "{stats:?}");
    assert_eq!(stats.buffered_peak, 0, "{stats:?}");
    assert_eq!(stats.segments_pruned, 0, "{stats:?}");
}

#[test]
fn topk_buffers_only_k_rows() {
    let db = big_db(10_000);
    assert!(db
        .query("SELECT a FROM big ORDER BY a DESC LIMIT 5")
        .explain()
        .unwrap()
        .render()
        .contains("TopK"),);
    let (rs, stats) = query_with_stats(&db, "SELECT a FROM big ORDER BY a DESC LIMIT 5");
    let got: Vec<i64> = rs.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(got, vec![9999, 9998, 9997, 9996, 9995]);
    // Top-K must read everything but retain only the k best rows.
    assert_eq!(stats.rows_scanned, 10_000, "{stats:?}");
    assert_eq!(stats.buffered_peak, 5, "{stats:?}");
    assert_eq!(stats.index_probes, 0, "{stats:?}");
}

#[test]
fn index_scan_probes_once_and_reads_only_matches() {
    // The O(k) bound for point lookups: with 10 000 rows and an index on
    // `a`, an equality query must touch one row via one probe.
    let db = big_db(10_000);
    db.query("CREATE INDEX idx_big_a ON big (a)").run().unwrap();
    assert!(db
        .query("SELECT b FROM big WHERE a = 4321")
        .explain()
        .unwrap()
        .render()
        .contains("IndexScan"));
    let (rs, stats) = query_with_stats(&db, "SELECT b FROM big WHERE a = 4321");
    assert_eq!(rs.rows().len(), 1);
    assert_eq!(stats.index_probes, 1, "{stats:?}");
    assert_eq!(stats.rows_scanned, 1, "{stats:?}");
    assert_eq!(stats.keyword_postings_read, 0, "{stats:?}");

    // Index maintenance (inserts, an in-place update of an existing key,
    // deletes) must not change the observable counters of the same query.
    db.query("INSERT INTO big VALUES (20000, 'churn')")
        .run()
        .unwrap();
    db.query("UPDATE big SET b = 'still row 9' WHERE a = 9")
        .run()
        .unwrap();
    db.query("DELETE FROM big WHERE a = 20000").run().unwrap();
    let (rs, stats2) = query_with_stats(&db, "SELECT b FROM big WHERE a = 4321");
    assert_eq!(rs.rows().len(), 1);
    assert_eq!(stats2.index_probes, stats.index_probes, "{stats2:?}");
    assert_eq!(stats2.rows_scanned, stats.rows_scanned, "{stats2:?}");
    assert_eq!(stats2.buffered_peak, stats.buffered_peak, "{stats2:?}");
}

#[test]
fn keyword_scan_counts_probe_and_postings() {
    let db = Database::in_memory();
    db.query("CREATE TABLE docs (id INT, body TEXT)")
        .run()
        .unwrap();
    db.query("CREATE KEYWORD INDEX kw_body ON docs (body)")
        .run()
        .unwrap();
    for i in 0..1_000 {
        let body = if i % 100 == 0 {
            "rare keyword"
        } else {
            "filler"
        };
        db.query(&format!("INSERT INTO docs VALUES ({i}, '{body}')"))
            .run()
            .unwrap();
    }
    let (rs, stats) = query_with_stats(&db, "SELECT id FROM docs WHERE CONTAINS(body, 'rare')");
    assert_eq!(rs.rows().len(), 10);
    // One inverted-index lookup; the posting list carries exactly the 10
    // matching row ids, and only those rows are fetched.
    assert_eq!(stats.index_probes, 1, "{stats:?}");
    assert_eq!(stats.keyword_postings_read, 10, "{stats:?}");
    assert_eq!(stats.rows_scanned, 10, "{stats:?}");
}

#[test]
fn topk_with_offset_buffers_offset_plus_k() {
    let db = big_db(1_000);
    let (rs, stats) = query_with_stats(&db, "SELECT a FROM big ORDER BY a LIMIT 3 OFFSET 7");
    let got: Vec<i64> = rs.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(got, vec![7, 8, 9]);
    assert_eq!(stats.buffered_peak, 10, "{stats:?}");
}

#[test]
fn topk_limit_zero_pulls_nothing() {
    let db = big_db(1_000);
    let (rs, stats) = query_with_stats(&db, "SELECT a FROM big ORDER BY a LIMIT 0");
    assert!(rs.rows().is_empty());
    assert_eq!(stats.rows_scanned, 0, "{stats:?}");
    assert_eq!(stats.buffered_peak, 0, "{stats:?}");
}

#[test]
fn full_sort_still_buffers_everything() {
    // Sanity check on the counter itself: an unfused ORDER BY (no LIMIT)
    // is a genuine pipeline breaker.
    let db = big_db(1_000);
    let (rs, stats) = query_with_stats(&db, "SELECT a FROM big ORDER BY a");
    assert_eq!(rs.rows().len(), 1_000);
    assert_eq!(stats.buffered_peak, 1_000, "{stats:?}");
}

#[test]
fn topk_ties_keep_stable_input_order() {
    // Rows with equal sort keys must come out in insertion order, exactly
    // as a stable full sort would emit them.
    let db = Database::in_memory();
    db.query("CREATE TABLE t (grp INT, tag TEXT)")
        .run()
        .unwrap();
    for (g, tag) in [(1, "a"), (0, "b"), (1, "c"), (0, "d"), (1, "e"), (0, "f")] {
        db.query(&format!("INSERT INTO t VALUES ({g}, '{tag}')"))
            .run()
            .unwrap();
    }
    let rs = db
        .query("SELECT tag FROM t ORDER BY grp LIMIT 4")
        .run()
        .unwrap()
        .rows;
    let got: Vec<&str> = rs
        .rows()
        .iter()
        .map(|r| match &r[0] {
            Value::Text(s) => s.as_str(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(got, vec!["b", "d", "f", "a"]);
}

#[test]
fn hash_join_probe_side_streams() {
    // Join a large probe side against a small build side under a limit:
    // only the build side (plus matches) may be buffered.
    let db = Database::in_memory();
    db.query("CREATE TABLE facts (id INT, val TEXT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE dims (id INT, name TEXT)")
        .run()
        .unwrap();
    let stmts: Vec<String> = (0..5_000)
        .map(|i| format!("INSERT INTO facts VALUES ({}, 'v{i}')", i % 100))
        .collect();
    let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
    db.execute_batch(&refs).unwrap();
    for i in 0..100 {
        db.query(&format!("INSERT INTO dims VALUES ({i}, 'n{i}')"))
            .run()
            .unwrap();
    }
    let (rs, stats) = query_with_stats(
        &db,
        "SELECT f.val, d.name FROM facts f, dims d WHERE f.id = d.id LIMIT 10",
    );
    assert_eq!(rs.rows().len(), 10);
    // The build side holds 100 rows; the probe (facts) must not be
    // materialized, and the limit stops the probe after ~10 rows.
    assert!(stats.buffered_peak <= 110, "{stats:?}");
    assert!(stats.rows_scanned < 200, "{stats:?}");
}

#[test]
fn sum_of_large_ints_is_exact() {
    // Seed regression: SUM accumulated all-int groups in f64 and cast
    // back, so totals beyond 2^53 silently lost precision — this exact
    // query returned 1024 instead of 806.
    let db = Database::in_memory();
    db.query("CREATE TABLE t (v INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (9223372036854775806)")
        .run()
        .unwrap();
    db.query("INSERT INTO t VALUES (-9223372036854775000)")
        .run()
        .unwrap();
    let rs = db.query("SELECT SUM(v) FROM t").run().unwrap().rows;
    assert_eq!(rs.rows()[0][0], Value::Int(806));
}

#[test]
fn sum_overflow_is_a_typed_error() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (v INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (9223372036854775807)")
        .run()
        .unwrap();
    db.query("INSERT INTO t VALUES (1)").run().unwrap();
    let err = db.query("SELECT SUM(v) FROM t").run().unwrap_err();
    assert!(
        err.to_string().contains("integer overflow"),
        "unexpected error: {err}"
    );
    // AVG over the same data stays in float land and still works.
    assert!(db.query("SELECT AVG(v) FROM t").run().is_ok());
}

#[test]
fn arithmetic_overflow_surfaces_through_sql() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (v INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (9223372036854775807)")
        .run()
        .unwrap();
    let err = db.query("SELECT v + 1 FROM t").run().unwrap_err();
    assert!(err.to_string().contains("integer overflow"), "{err}");
    // i64::MIN / -1 must error, not panic (seed aborted the process here).
    db.query("CREATE TABLE m (v INT)").run().unwrap();
    db.query("INSERT INTO m VALUES (-9223372036854775807)")
        .run()
        .unwrap();
    db.query("UPDATE m SET v = v - 1").run().unwrap();
    let err = db.query("SELECT v / -1 FROM m").run().unwrap_err();
    assert!(err.to_string().contains("integer overflow"), "{err}");
}

#[test]
fn stats_are_sane_for_aggregates_and_distinct() {
    let db = big_db(500);
    // Aggregation buffers its groups; COUNT over one global group.
    let (rs, stats) = query_with_stats(&db, "SELECT COUNT(*) FROM big");
    assert_eq!(rs.rows()[0][0], Value::Int(500));
    assert_eq!(stats.rows_scanned, 500);
    // DISTINCT over a unique column retains every row key.
    let (rs, stats) = query_with_stats(&db, "SELECT DISTINCT a FROM big");
    assert_eq!(rs.rows().len(), 500);
    assert_eq!(stats.buffered_peak, 500);
}
