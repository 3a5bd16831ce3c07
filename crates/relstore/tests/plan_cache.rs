//! The prepared-statement plan cache.
//!
//! The plan cache must be observable only as speed: hits return the
//! identical `Arc`'d plan, DDL invalidates it, the LRU bound evicts, and
//! bad parameter bindings fail with typed `bind` errors before execution.

use std::sync::Arc;

use xomatiq_relstore::{Database, DatabaseOptions, RelError, Value};

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
