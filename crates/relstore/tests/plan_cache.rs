//! The prepared-statement plan cache.
//!
//! The plan cache must be observable only as speed: hits return the
//! identical `Arc`'d plan, DDL invalidates it, the LRU bound evicts, and
//! bad parameter bindings fail with typed `bind` errors before execution.

use std::sync::Arc;

use proptest::prelude::*;
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
    // Different bound values of one class share the cached plan, and
    // each is bound into its own copy of it.
    let hit = db.query("SELECT a FROM t WHERE b = ?").bind(2i64);
    let other = db.query("SELECT a FROM t WHERE b = ?").bind(3i64);
    assert!(!Arc::ptr_eq(
        &hit.planned().unwrap(),
        &other.planned().unwrap()
    ));
}

/// Whether the statement `db` ran last was served by a cached plan, as
/// the flight recorder saw it.
fn ran_from_cache(db: &Database) -> bool {
    let records = db.flight_recorder().snapshot();
    records.last().expect("a statement ran").cache_hit
}

/// End-to-end regression for the quote-escape cache-key fix: queries that
/// differ only *inside* a `''`-escaped literal share a shape, and so a
/// cached plan, yet each must bind its own literal — never the other's —
/// while case/whitespace differences *outside* literals still normalize
/// together.
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
        "different literals must not share a bound plan"
    );
    assert_ne!(upper, lower, "each plan binds its own literal");
    // And each query returns its own row, never the other literal's, the
    // second one from the shape's cached plan.
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
    assert!(ran_from_cache(&db), "the two statements share a shape");

    // Equal modulo case/whitespace outside the literal: one entry, and
    // the same bound plan.
    let renorm = db
        .query("select  S  from PEOPLE\nwhere s = 'O''Hara'")
        .planned()
        .unwrap();
    assert_eq!(
        upper, renorm,
        "case/whitespace outside literals must still normalize together"
    );
    assert_eq!(
        got("select  S  from PEOPLE\nwhere s = 'O''Hara'"),
        ["O'Hara"]
    );
    assert!(ran_from_cache(&db));
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

#[test]
fn dml_keeps_its_literals_and_binds_its_own_params() {
    // Only a SELECT runs as its shape: a DML statement's literals stay in
    // place, and its own `?`s take the bound values in order.
    let db = Database::in_memory();
    db.query("CREATE TABLE t (s TEXT, a INT)").run().unwrap();
    db.query("INSERT INTO t VALUES ('lit', ?)")
        .bind(7i64)
        .run()
        .unwrap();
    db.query("UPDATE t SET a = ? WHERE s = 'lit'")
        .bind(8i64)
        .run()
        .unwrap();
    let out = db.query("SELECT s, a FROM t").run().unwrap();
    assert_eq!(out.rows.rows(), [[Value::from("lit"), Value::Int(8)]]);
    let err = db
        .query("SELECT s FROM t WHERE s = 'lit' AND a = ?")
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("1 parameter(s), 0 bound"), "{err}");
}

/// One value a slot of a generated statement holds.
fn slot_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(0.0)),
        Just(Value::Float(-0.0)),
        (-3i64..15).prop_map(Value::Int),
        (-6i32..30).prop_map(|h| Value::Float(f64::from(h) / 2.0)),
        prop::sample::select(vec![
            "",
            "'",
            "O'Hara",
            "o'hara beta",
            "--",
            "-- x",
            "sys_queries",
            "beta",
            "alpha beta",
            "absent",
            "cdc6 protein",
            "x",
            "y",
            "%beta%",
            "w1",
            "plain",
        ])
        .prop_map(Value::from),
    ]
}

/// A statement shape from the streaming property's shapes, its slots
/// written `{0}`, `{1}`, `{2}`; `z` is the `ANALYZE`d table.
const SHAPES: &[&str] = &[
    "SELECT a, b FROM t WHERE a = {0}",
    "SELECT a, b FROM t WHERE a >= {0} AND b < {1}",
    "SELECT a, b FROM t WHERE CONTAINS(s, {0})",
    "SELECT a, s FROM t WHERE s LIKE {0} ORDER BY a LIMIT 5",
    "SELECT a, b FROM t WHERE s = {0} OR s = {1}",
    "SELECT a + b, s FROM t WHERE b > {0} AND s <> {1}",
    "SELECT a, f FROM t WHERE f = {0}",
    "SELECT a, f FROM t WHERE f < {0} AND a BETWEEN {1} AND {2} ORDER BY a",
    "SELECT {0}, a FROM t WHERE s = {1}",
    "SELECT t.a, t.b, u.name FROM t, u WHERE t.a = u.a AND u.name = {0}",
    "SELECT t.b, u.name FROM t, u WHERE t.a = u.a AND t.a = {0}",
    "SELECT DISTINCT t.s FROM t, u WHERE t.a = u.a AND u.name = {0} ORDER BY t.s LIMIT 4",
    "SELECT u.name, COUNT(*) FROM t, u WHERE t.a = u.a AND t.s <> {0} GROUP BY u.name ORDER BY u.name",
    "SELECT k, x FROM z WHERE k = {0}",
    "SELECT k, w FROM z WHERE k > {0} AND w <> {1}",
    "SELECT z.k, t.s FROM z, t WHERE z.k = t.a AND z.x <= {0} AND t.s = {1}",
];

/// `t`, `u` and `z` over the generated rows, with a plan cache of
/// `capacity`. `t.f` is indexed and holds NaN and both zeros; `z` alone
/// carries `ANALYZE` statistics, so plans over it may depend on values.
fn shapes_db(
    capacity: usize,
    t_rows: &[(i64, i64, String, Value)],
    u_rows: &[(i64, String)],
) -> Database {
    let db = Database::in_memory_with_options(DatabaseOptions {
        plan_cache_capacity: capacity,
        ..DatabaseOptions::default()
    });
    for ddl in [
        "CREATE TABLE t (a INT, b INT, s TEXT, f FLOAT)",
        "CREATE TABLE u (a INT, name TEXT)",
        "CREATE TABLE z (k INT, x FLOAT, w TEXT)",
        "CREATE INDEX idx_t_a ON t (a)",
        "CREATE INDEX idx_t_f ON t (f)",
        "CREATE INDEX idx_u_a ON u (a)",
        "CREATE INDEX idx_z_k ON z (k)",
        "CREATE KEYWORD INDEX kw_t_s ON t (s)",
    ] {
        db.query(ddl).run().unwrap();
    }
    let insert_t = db.prepare("INSERT INTO t VALUES (?, ?, ?, ?)").unwrap();
    for (a, b, s, f) in t_rows {
        let q = db
            .query_prepared(&insert_t)
            .bind(*a)
            .bind(*b)
            .bind(s.as_str());
        q.bind_value(f.clone()).run().unwrap();
    }
    for (a, name) in u_rows {
        let q = db.query("INSERT INTO u VALUES (?, ?)").bind(*a);
        q.bind(name.as_str()).run().unwrap();
    }
    for k in 0..12i64 {
        let q = db.query("INSERT INTO z VALUES (?, ?, ?)").bind(k);
        q.bind(k as f64 / 2.0)
            .bind(format!("w{}", k % 3))
            .run()
            .unwrap();
    }
    db.query("ANALYZE TABLE z").run().unwrap();
    db
}

/// A shape's statement for `values`: slot `i` is written as a literal
/// when `literal[i]` (a NaN, which SQL cannot spell, is bound instead),
/// else as a `?` whose value is bound.
fn statement(shape: &str, values: &[Value], literal: &[bool]) -> (String, Vec<Value>) {
    let mut sql = shape.to_string();
    let mut params = Vec::new();
    for (i, (v, lit)) in values.iter().zip(literal).enumerate() {
        let slot = format!("{{{i}}}");
        let Some(at) = sql.find(&slot) else {
            continue;
        };
        let text = match v {
            Value::Float(f) if f.is_nan() => None,
            Value::Float(f) if *lit => Some(format!("{f:?}")),
            Value::Text(s) if *lit => Some(format!("'{}'", s.replace('\'', "''"))),
            Value::Null | Value::Int(_) if *lit => Some(v.to_string()),
            _ => None,
        };
        // Parameters bind in text order: count the `?`s before the slot.
        let before = sql[..at].matches('?').count();
        if text.is_none() {
            params.insert(before, v.clone());
        }
        sql.replace_range(at..at + slot.len(), text.as_deref().unwrap_or("?"));
    }
    (sql, params)
}

/// The plan-cache class of what slot `i` of a statement holds, or its
/// literal text when that stays in the statement's shape.
fn key_part(v: &Value, literal: bool) -> String {
    match v {
        Value::Float(f) if f.is_nan() => "nan".into(),
        Value::Text(_) => "text".into(),
        other if literal => other.to_string(),
        Value::Null => "null".into(),
        Value::Int(_) => "int".into(),
        Value::Float(_) => "float".into(),
    }
}

fn run_on(db: &Database, sql: &str, params: &[Value], reference: bool) -> String {
    let mut q = db.query(sql);
    for p in params {
        q = q.bind_value(p.clone());
    }
    let q = if reference { q.via_reference() } else { q };
    format!("{:?}", q.run().map(|out| out.rows.rows().to_vec()))
}

fn planned_on(db: &Database, sql: &str, params: &[Value]) -> xomatiq_relstore::PlannedQuery {
    let mut q = db.query(sql);
    for p in params {
        q = q.bind_value(p.clone());
    }
    (*q.planned().unwrap()).clone()
}

fn prop_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(64)))]

    /// A shape planned once serves other values: each run — the first,
    /// and the second with other values — returns exactly what the same
    /// statement returns, in the same order, planned fresh on a
    /// database without a plan cache and run on the reference
    /// interpreter, and its bound plan is the fresh plan. The second run
    /// is served from the cache exactly when its shape and classes are
    /// the first's and the plan holds for the class (any plan not over
    /// the `ANALYZE`d table does).
    #[test]
    fn shape_cache_matches_fresh_plans(
        shape in prop::sample::select(SHAPES.to_vec()),
        t_rows in prop::collection::vec(
            (0i64..12, 0i64..6, prop::sample::select(vec![
                "alpha beta", "beta gamma", "cdc6 protein", "plain", "100% beta",
                "o'hara beta", "O'Hara", "--", "sys_queries", "",
            ]).prop_map(str::to_string), slot_value()),
            0..30,
        ),
        u_rows in prop::collection::vec(
            (0i64..12, prop::sample::select(vec!["x", "y", "z", "O'Hara"]).prop_map(str::to_string)),
            0..12,
        ),
        first in prop::collection::vec(slot_value(), 3),
        second in prop::collection::vec(slot_value(), 3),
        literal in prop::collection::vec(any::<bool>(), 3),
    ) {
        let t_rows: Vec<_> = t_rows
            .into_iter()
            .map(|(a, b, s, f)| (a, b, s, Value::Float(f.as_f64().unwrap_or(1.5))))
            .collect();
        let cached = shapes_db(128, &t_rows, &u_rows);
        let fresh = shapes_db(0, &t_rows, &u_rows);
        let slots = (0..3).filter(|i| shape.contains(&format!("{{{i}}}"))).count();
        let key = |values: &[Value]| -> Vec<String> {
            (0..slots).map(|i| key_part(&values[i], literal[i])).collect()
        };
        let same_key = key(&first) == key(&second);
        let by_value = shape.contains(" z");
        for (run, values) in [&first, &second, &first].into_iter().enumerate() {
            let (sql, params) = statement(shape, values, &literal);
            let recorded = cached.flight_recorder().snapshot().len();
            let got = run_on(&cached, &sql, &params, false);
            // A run that fails is not recorded, so it says nothing here.
            let records = cached.flight_recorder().snapshot();
            let hit = records.last().filter(|_| records.len() > recorded).map(|r| r.cache_hit);
            prop_assert_eq!(&got, &run_on(&fresh, &sql, &params, false), "{} {:?}", sql, params);
            prop_assert_eq!(&got, &run_on(&cached, &sql, &params, true), "{} {:?}", sql, params);
            prop_assert_eq!(planned_on(&cached, &sql, &params), planned_on(&fresh, &sql, &params));
            match (run, hit) {
                (_, None) => {}
                (0, Some(hit)) => prop_assert!(!hit, "nothing is cached yet: {}", sql),
                (1, Some(hit)) if !same_key => prop_assert!(!hit, "a new key hit: {}", sql),
                (1, Some(hit)) if !by_value => prop_assert!(hit, "a generic plan missed: {}", sql),
                // The first values again: under the class, or under the
                // values for a plan that holds for them only.
                (2, Some(hit)) => prop_assert!(hit, "a cached plan missed: {}", sql),
                _ => {}
            }
        }
    }
}
