//! End-to-end SQL tests against the [`Database`] facade.

use xomatiq_relstore::sql::ast::{BinOp, Expr, Statement};
use xomatiq_relstore::sql::parser::parse_statement;
use xomatiq_relstore::{Database, RelError, Value};

fn seeded() -> Database {
    let db = Database::in_memory();
    db.query("CREATE TABLE enzymes (ec TEXT, description TEXT, sites INT, mass FLOAT)")
        .run()
        .unwrap();
    let rows = [
        ("1.1.1.1", "Alcohol dehydrogenase", 4, 141.0),
        ("1.14.17.3", "Peptidylglycine monooxygenase", 2, 108.3),
        ("2.7.7.7", "DNA polymerase", 10, 109.5),
        ("3.1.1.1", "Carboxylesterase ketone pathway", 1, 60.0),
        ("4.2.1.1", "Carbonic anhydrase ketone group", 3, 29.0),
    ];
    for (ec, d, s, m) in rows {
        db.query(&format!(
            "INSERT INTO enzymes VALUES ('{ec}', '{d}', {s}, {m})"
        ))
        .run()
        .unwrap();
    }
    db
}

#[test]
fn select_with_predicates() {
    let db = seeded();
    let rs = db
        .query("SELECT ec FROM enzymes WHERE sites > 2 ORDER BY ec")
        .run()
        .unwrap()
        .rows;
    let ecs: Vec<&str> = rs.rows().iter().map(|r| r[0].as_text().unwrap()).collect();
    assert_eq!(ecs, vec!["1.1.1.1", "2.7.7.7", "4.2.1.1"]);
}

#[test]
fn projection_names_and_aliases() {
    let db = seeded();
    let rs = db
        .query("SELECT ec AS enzyme_commission, sites * 2 AS doubled FROM enzymes LIMIT 1")
        .run()
        .unwrap()
        .rows;
    assert_eq!(
        rs.columns(),
        &["enzyme_commission".to_string(), "doubled".to_string()]
    );
    assert_eq!(rs.rows()[0][1], Value::Int(8));
}

#[test]
fn contains_without_index_falls_back_to_scan() {
    let db = seeded();
    let rs = db
        .query("SELECT ec FROM enzymes WHERE CONTAINS(description, 'ketone') ORDER BY ec")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 2);
}

#[test]
fn contains_with_keyword_index_matches_scan_results() {
    let db = seeded();
    let scan = db
        .query("SELECT ec FROM enzymes WHERE CONTAINS(description, 'ketone') ORDER BY ec")
        .run()
        .unwrap()
        .rows;
    db.query("CREATE KEYWORD INDEX kw_desc ON enzymes (description)")
        .run()
        .unwrap();
    let indexed = db
        .query("SELECT ec FROM enzymes WHERE CONTAINS(description, 'ketone') ORDER BY ec")
        .run()
        .unwrap()
        .rows;
    assert_eq!(scan.rows(), indexed.rows());
    let plan = db
        .query("SELECT ec FROM enzymes WHERE CONTAINS(description, 'ketone')")
        .planned()
        .unwrap();
    assert!(plan.plan.uses_index(), "{}", plan.plan.explain());
}

#[test]
fn btree_index_equality_and_range() {
    let db = seeded();
    db.query("CREATE INDEX idx_sites ON enzymes (sites)")
        .run()
        .unwrap();
    let rs = db
        .query("SELECT ec FROM enzymes WHERE sites = 10")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Text("2.7.7.7".into()));
    let range = db
        .query("SELECT ec FROM enzymes WHERE sites BETWEEN 2 AND 4 ORDER BY sites")
        .run()
        .unwrap()
        .rows;
    assert_eq!(range.rows().len(), 3);
    assert!(db
        .query("SELECT ec FROM enzymes WHERE sites = 10")
        .planned()
        .unwrap()
        .plan
        .uses_index());
}

#[test]
fn join_across_tables() {
    let db = seeded();
    db.query("CREATE TABLE refs (ec TEXT, db_name TEXT, acc TEXT)")
        .run()
        .unwrap();
    db.query(
        "INSERT INTO refs VALUES ('1.14.17.3', 'SWISSPROT', 'P10731'), \
         ('1.14.17.3', 'PROSITE', 'PDOC00080'), ('2.7.7.7', 'SWISSPROT', 'P00001')",
    )
    .run()
    .unwrap();
    let rs = db
        .query(
            "SELECT e.description, r.acc FROM enzymes e JOIN refs r ON e.ec = r.ec \
             WHERE r.db_name = 'SWISSPROT' ORDER BY r.acc",
        )
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 2);
    assert_eq!(rs.rows()[0][1], Value::Text("P00001".into()));
    assert_eq!(
        rs.rows()[1][0],
        Value::Text("Peptidylglycine monooxygenase".into())
    );
}

#[test]
fn three_way_join() {
    let db = seeded();
    db.query("CREATE TABLE a (k INT, v TEXT)").run().unwrap();
    db.query("CREATE TABLE b (k INT, w TEXT)").run().unwrap();
    db.query("INSERT INTO a VALUES (1, 'x'), (2, 'y')")
        .run()
        .unwrap();
    db.query("INSERT INTO b VALUES (1, 'p'), (1, 'q'), (2, 'r')")
        .run()
        .unwrap();
    let rs = db
        .query(
            "SELECT a.v, b.w, e.ec FROM a, b, enzymes e \
             WHERE a.k = b.k AND e.sites = a.k ORDER BY b.w",
        )
        .run()
        .unwrap()
        .rows;
    // a.k=1 joins b rows p,q; enzymes with sites=1 → 3.1.1.1. a.k=2 joins r; sites=2 → 1.14.17.3.
    assert_eq!(rs.rows().len(), 3);
}

#[test]
fn aggregates_and_group_by() {
    let db = seeded();
    let rs = db
        .query("SELECT COUNT(*), SUM(sites), MIN(mass), MAX(mass), AVG(sites) FROM enzymes")
        .run()
        .unwrap()
        .rows;
    let row = &rs.rows()[0];
    assert_eq!(row[0], Value::Int(5));
    assert_eq!(row[1], Value::Int(20));
    assert_eq!(row[2], Value::Float(29.0));
    assert_eq!(row[3], Value::Float(141.0));
    assert_eq!(row[4], Value::Float(4.0));

    db.query("CREATE TABLE refs (ec TEXT, db_name TEXT)")
        .run()
        .unwrap();
    db.query("INSERT INTO refs VALUES ('a', 'SP'), ('b', 'SP'), ('c', 'PROSITE')")
        .run()
        .unwrap();
    let grouped = db
        .query("SELECT db_name, COUNT(*) AS n FROM refs GROUP BY db_name ORDER BY n DESC")
        .run()
        .unwrap()
        .rows;
    assert_eq!(grouped.rows()[0][0], Value::Text("SP".into()));
    assert_eq!(grouped.rows()[0][1], Value::Int(2));
    assert_eq!(grouped.rows()[1][1], Value::Int(1));
}

#[test]
fn aggregate_over_empty_input() {
    let db = seeded();
    let rs = db
        .query("SELECT COUNT(*), SUM(sites) FROM enzymes WHERE sites > 999")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Int(0));
    assert_eq!(rs.rows()[0][1], Value::Null);
}

#[test]
fn distinct_limit_offset() {
    let db = seeded();
    db.query("CREATE TABLE t (x INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1), (2), (2), (3), (3), (3)")
        .run()
        .unwrap();
    let rs = db
        .query("SELECT DISTINCT x FROM t ORDER BY x")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 3);
    let page = db
        .query("SELECT DISTINCT x FROM t ORDER BY x LIMIT 1 OFFSET 1")
        .run()
        .unwrap()
        .rows;
    assert_eq!(page.rows(), &[vec![Value::Int(2)]]);
}

#[test]
fn update_and_delete() {
    let db = seeded();
    let n = db
        .query("UPDATE enzymes SET sites = sites + 100 WHERE mass < 100")
        .run()
        .unwrap()
        .rows
        .affected();
    assert_eq!(n, 2);
    let rs = db
        .query("SELECT COUNT(*) FROM enzymes WHERE sites > 100")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows()[0][0], Value::Int(2));
    let deleted = db
        .query("DELETE FROM enzymes WHERE sites > 100")
        .run()
        .unwrap()
        .rows
        .affected();
    assert_eq!(deleted, 2);
    assert_eq!(db.row_count("enzymes").unwrap(), 3);
}

#[test]
fn update_maintains_indexes() {
    let db = seeded();
    db.query("CREATE INDEX idx_sites ON enzymes (sites)")
        .run()
        .unwrap();
    db.query("UPDATE enzymes SET sites = 77 WHERE ec = '1.1.1.1'")
        .run()
        .unwrap();
    let rs = db
        .query("SELECT ec FROM enzymes WHERE sites = 77")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 1);
    let old = db
        .query("SELECT ec FROM enzymes WHERE sites = 4")
        .run()
        .unwrap()
        .rows;
    assert!(old.rows().is_empty());
}

#[test]
fn delete_maintains_keyword_index() {
    let db = seeded();
    db.query("CREATE KEYWORD INDEX kw ON enzymes (description)")
        .run()
        .unwrap();
    db.query("DELETE FROM enzymes WHERE ec = '3.1.1.1'")
        .run()
        .unwrap();
    let rs = db
        .query("SELECT ec FROM enzymes WHERE CONTAINS(description, 'ketone')")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Text("4.2.1.1".into()));
}

#[test]
fn error_paths() {
    let db = seeded();
    assert!(db.query("SELECT * FROM missing").run().is_err());
    assert!(db.query("SELECT nope FROM enzymes").run().is_err());
    assert!(db.query("INSERT INTO enzymes VALUES (1)").run().is_err());
    assert!(db.query("CREATE TABLE enzymes (x INT)").run().is_err());
    assert!(db
        .query("DELETE FROM enzymes WHERE nope = 1")
        .run()
        .is_err());
    assert!(db.query("UPDATE enzymes SET nope = 1").run().is_err());
    assert!(db.query("garbage statement").run().is_err());
}

#[test]
fn explain_shows_access_path() {
    let db = seeded();
    let explain = || {
        db.query("SELECT ec FROM enzymes WHERE sites = 4")
            .explain()
            .unwrap()
            .render()
    };
    let before = explain();
    assert!(before.contains("Scan enzymes"), "{before}");
    db.query("CREATE INDEX idx_sites ON enzymes (sites)")
        .run()
        .unwrap();
    let after = explain();
    assert!(after.contains("IndexScan enzymes"), "{after}");
    assert!(after.contains("idx_sites"), "{after}");
}

#[test]
fn result_set_table_rendering() {
    let db = seeded();
    let rs = db
        .query("SELECT ec, sites FROM enzymes WHERE sites = 10")
        .run()
        .unwrap()
        .rows;
    let table = rs.to_table();
    assert!(table.contains("| ec "), "{table}");
    assert!(table.contains("2.7.7.7"), "{table}");
    assert!(table.contains("(1 rows)"), "{table}");
}

#[test]
fn batch_is_atomic() {
    let db = seeded();
    let before = db.row_count("enzymes").unwrap();
    // Second statement fails (arity) — the first insert must roll back.
    let err = db.execute_batch(&[
        "INSERT INTO enzymes VALUES ('9.9.9.9', 'New enzyme', 1, 1.0)",
        "INSERT INTO enzymes VALUES ('bad')",
    ]);
    assert!(err.is_err());
    assert_eq!(db.row_count("enzymes").unwrap(), before);
    // A good batch applies fully.
    let n = db
        .execute_batch(&[
            "INSERT INTO enzymes VALUES ('9.9.9.9', 'New enzyme', 1, 1.0)",
            "DELETE FROM enzymes WHERE ec = '1.1.1.1'",
        ])
        .unwrap();
    assert_eq!(n, 2);
    assert_eq!(db.row_count("enzymes").unwrap(), before);
}

#[test]
fn batch_rejects_ddl() {
    let db = seeded();
    assert!(db.execute_batch(&["CREATE TABLE z (a INT)"]).is_err());
}

fn insert(table: &str, row: Vec<Value>) -> Statement {
    Statement::Insert {
        table: table.into(),
        rows: vec![row.into_iter().map(Expr::Literal).collect()],
    }
}

fn max_csn(db: &Database) -> i64 {
    let rs = db
        .query("SELECT MAX(csn) FROM sys_segments")
        .run()
        .unwrap()
        .rows;
    rs.rows()[0][0].as_int().unwrap()
}

#[test]
fn built_statements_apply_atomically() {
    let db = seeded();
    let before = db.row_count("enzymes").unwrap();
    let good = || {
        insert(
            "enzymes",
            vec![
                "9.9.9.9".into(),
                "New".into(),
                Value::Int(1),
                Value::Float(-0.0),
            ],
        )
    };
    let csn = max_csn(&db);
    // The second statement has the wrong arity: nothing applies, and the
    // failed batch takes no CSN, so the next commit takes `csn + 1`.
    let err = db.execute_statements(vec![good(), insert("enzymes", vec!["bad".into()])]);
    assert!(err.is_err());
    assert_eq!(db.row_count("enzymes").unwrap(), before);
    let delete = Statement::Delete {
        table: "enzymes".into(),
        filter: Some(Expr::binary(
            BinOp::Eq,
            Expr::col(None, "ec"),
            Expr::lit("1.1.1.1"),
        )),
    };
    assert_eq!(db.execute_statements(vec![good(), delete]).unwrap(), 2);
    assert_eq!(max_csn(&db), csn + 1);
    let rs = db
        .query("SELECT mass FROM enzymes WHERE ec = '9.9.9.9'")
        .run()
        .unwrap()
        .rows;
    assert_eq!(format!("{:?}", rs.rows()[0][0]), "Float(-0.0)");
}

#[test]
fn built_statements_are_refused_like_parsed_ones() {
    let db = seeded();
    db.query("CREATE MATERIALIZED VIEW v AS SELECT ec FROM enzymes")
        .run()
        .unwrap();
    let ddl = parse_statement("CREATE TABLE z (a INT)").unwrap();
    assert!(matches!(
        db.execute_statements(vec![ddl]),
        Err(RelError::Internal(_))
    ));
    for (table, sql) in [
        ("v", "INSERT INTO v VALUES ('x')"),
        ("sys_metrics", "INSERT INTO sys_metrics VALUES ('x')"),
    ] {
        let built = db
            .execute_statements(vec![insert(table, vec!["x".into()])])
            .unwrap_err();
        let parsed = db.execute_batch(&[sql]).unwrap_err();
        assert!(matches!(built, RelError::ReadOnly(_)), "{built}");
        assert_eq!(built.to_string(), parsed.to_string());
    }
    assert!(db.table_names().iter().all(|t| t != "z"));
}

#[test]
fn null_handling_in_queries() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 'x'), (NULL, 'y'), (3, NULL)")
        .run()
        .unwrap();
    assert_eq!(
        db.query("SELECT b FROM t WHERE a IS NULL")
            .run()
            .unwrap()
            .rows
            .rows()
            .len(),
        1
    );
    assert_eq!(
        db.query("SELECT b FROM t WHERE a IS NOT NULL")
            .run()
            .unwrap()
            .rows
            .rows()
            .len(),
        2
    );
    // NULL never equals anything.
    assert_eq!(
        db.query("SELECT b FROM t WHERE a = NULL")
            .run()
            .unwrap()
            .rows
            .rows()
            .len(),
        0
    );
    // NULLs sort first under the engine's total order.
    let rs = db.query("SELECT a FROM t ORDER BY a").run().unwrap().rows;
    assert_eq!(rs.rows()[0][0], Value::Null);
}

#[test]
fn join_skips_null_keys() {
    let db = Database::in_memory();
    db.query("CREATE TABLE l (k INT)").run().unwrap();
    db.query("CREATE TABLE r (k INT)").run().unwrap();
    db.query("INSERT INTO l VALUES (1), (NULL)").run().unwrap();
    db.query("INSERT INTO r VALUES (1), (NULL)").run().unwrap();
    let rs = db
        .query("SELECT l.k FROM l JOIN r ON l.k = r.k")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Int(1));
}

#[test]
fn like_and_in_queries() {
    let db = seeded();
    let rs = db
        .query("SELECT ec FROM enzymes WHERE description LIKE '%anhydrase%'")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 1);
    let rs2 = db
        .query("SELECT ec FROM enzymes WHERE ec IN ('1.1.1.1', '2.7.7.7') ORDER BY ec")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs2.rows().len(), 2);
}

#[test]
fn count_distinct() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (x INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1), (1), (2), (NULL)")
        .run()
        .unwrap();
    let rs = db
        .query("SELECT COUNT(DISTINCT x), COUNT(x), COUNT(*) FROM t")
        .run()
        .unwrap()
        .rows;
    assert_eq!(
        rs.rows()[0],
        vec![Value::Int(2), Value::Int(3), Value::Int(4)]
    );
}

#[test]
fn drop_table_and_index() {
    let db = seeded();
    db.query("CREATE INDEX idx ON enzymes (ec)").run().unwrap();
    db.query("DROP INDEX idx").run().unwrap();
    assert!(db.query("DROP INDEX idx").run().is_err());
    db.query("DROP TABLE enzymes").run().unwrap();
    assert!(db.query("SELECT * FROM enzymes").run().is_err());
}

#[test]
fn matches_regular_expressions() {
    let db = Database::in_memory();
    db.query("CREATE TABLE seqs (acc TEXT, seq TEXT)")
        .run()
        .unwrap();
    db.query(
        "INSERT INTO seqs VALUES \
         ('P1', 'MKNVTLAGRA'), ('P2', 'MKNPTLAGRA'), ('P3', 'GGTATAAAGG')",
    )
    .run()
    .unwrap();
    // N-glycosylation-style motif: N, not P, then S/T.
    let rs = db
        .query("SELECT acc FROM seqs WHERE MATCHES(seq, 'N[^P][ST]')")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Text("P1".into()));
    // TATA box.
    let tata = db
        .query("SELECT acc FROM seqs WHERE MATCHES(seq, 'TATA[AT]A')")
        .run()
        .unwrap()
        .rows;
    assert_eq!(tata.rows()[0][0], Value::Text("P3".into()));
    // Anchors and alternation.
    let both = db
        .query("SELECT COUNT(*) FROM seqs WHERE MATCHES(seq, '^MK(N|G)')")
        .run()
        .unwrap()
        .rows;
    assert_eq!(both.rows()[0][0], Value::Int(2));
    // Bad pattern surfaces as an error.
    assert!(db
        .query("SELECT acc FROM seqs WHERE MATCHES(seq, '(')")
        .run()
        .is_err());
}

#[test]
fn semi_join_matches_plain_distinct_results() {
    let db = Database::in_memory();
    db.query("CREATE TABLE docs (id INT, name TEXT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE words (doc INT, w TEXT)")
        .run()
        .unwrap();
    db.query("INSERT INTO docs VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .run()
        .unwrap();
    // doc 1 has three matching words (would multiply without semi-join),
    // doc 2 has one, doc 3 has none.
    db.query("INSERT INTO words VALUES (1, 'x'), (1, 'x'), (1, 'x'), (2, 'x'), (3, 'y')")
        .run()
        .unwrap();
    let sql = "SELECT DISTINCT d.name FROM docs d, words w \
               WHERE d.id = w.doc AND w.w = 'x' ORDER BY d.name";
    let plan = db.query(sql).planned().unwrap();
    assert!(
        plan.plan.explain().contains("HashSemiJoin"),
        "{}",
        plan.plan.explain()
    );
    let rs = db.query(sql).run().unwrap().rows;
    let names: Vec<&str> = rs.rows().iter().map(|r| r[0].as_text().unwrap()).collect();
    assert_eq!(names, vec!["a", "b"]);
}

#[test]
fn order_by_multiple_keys_and_directions() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 'z'), (1, 'a'), (2, 'm'), (2, 'b')")
        .run()
        .unwrap();
    let rs = db
        .query("SELECT a, b FROM t ORDER BY a DESC, b ASC")
        .run()
        .unwrap()
        .rows;
    let got: Vec<(i64, &str)> = rs
        .rows()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_text().unwrap()))
        .collect();
    assert_eq!(got, vec![(2, "b"), (2, "m"), (1, "a"), (1, "z")]);
}

#[test]
fn order_by_a_bare_name_sorts_by_the_output_column_of_that_name() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, k INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 3), (2, 2), (3, 1)")
        .run()
        .unwrap();
    let firsts = |sql: &str| -> Vec<i64> {
        let rs = db.query(sql).run().unwrap().rows;
        rs.rows().iter().map(|r| r[0].as_int().unwrap()).collect()
    };
    // `k` and `a` name both an output and an input column; as in
    // PostgreSQL and SQLite, the output column wins.
    assert_eq!(
        firsts("SELECT a AS k, k AS a FROM t ORDER BY k"),
        vec![1, 2, 3]
    );
    assert_eq!(
        firsts("SELECT a AS k, k AS a FROM t ORDER BY a"),
        vec![3, 2, 1]
    );
    // A qualified name is always the input column.
    assert_eq!(
        firsts("SELECT a AS k, k AS a FROM t ORDER BY t.k"),
        vec![3, 2, 1]
    );
    // The first output column of that name wins.
    assert_eq!(
        firsts("SELECT k AS x, a AS x FROM t ORDER BY x DESC"),
        vec![3, 2, 1]
    );
}

/// One naming mistake is one error, whichever entry point reads it: a
/// `SELECT` and the same `SELECT` as a materialized view fail with the
/// same kind, and `prepare` still succeeds but types no parameter of a
/// statement that can never run.
#[test]
fn one_naming_mistake_is_one_error() {
    use std::mem::discriminant;
    use xomatiq_relstore::RelError;

    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b INT)").run().unwrap();
    db.query("CREATE TABLE u (a INT, c TEXT)").run().unwrap();
    let cases = [
        (
            "unknown qualifier",
            "SELECT t.a FROM t tt",
            RelError::UnknownTable(String::new()),
        ),
        (
            "unknown t.*",
            "SELECT tt.* FROM t",
            RelError::UnknownTable(String::new()),
        ),
        (
            "duplicate alias",
            "SELECT x.a FROM t x, u x",
            RelError::Parse(String::new()),
        ),
        (
            "ambiguous bare column",
            "SELECT a FROM t, u",
            RelError::AmbiguousColumn(String::new()),
        ),
        (
            "unknown column",
            "SELECT t.zz FROM t",
            RelError::UnknownColumn(String::new()),
        ),
    ];
    for (mistake, select, kind) in cases {
        let err = db.query(select).run().unwrap_err();
        assert_eq!(
            discriminant(&err),
            discriminant(&kind),
            "{mistake}: {err:?}"
        );
        let view = db
            .query(&format!("CREATE MATERIALIZED VIEW v AS {select}"))
            .run()
            .unwrap_err();
        assert_eq!(
            discriminant(&view),
            discriminant(&kind),
            "{mistake}: {view:?}"
        );
        // `b` names one column of `t`; the mistake elsewhere leaves it untyped.
        let prepared = db.prepare(&format!("{select} WHERE b = ?")).unwrap();
        assert_eq!(prepared.param_types(), &[None], "{mistake}");
    }
}

#[test]
fn limit_and_offset_edges() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1), (2), (3)")
        .run()
        .unwrap();
    assert!(db
        .query("SELECT a FROM t LIMIT 0")
        .run()
        .unwrap()
        .rows
        .rows()
        .is_empty());
    assert_eq!(
        db.query("SELECT a FROM t LIMIT 99")
            .run()
            .unwrap()
            .rows
            .rows()
            .len(),
        3
    );
    assert!(db
        .query("SELECT a FROM t ORDER BY a OFFSET 5")
        .run()
        .unwrap()
        .rows
        .rows()
        .is_empty());
    let page = db
        .query("SELECT a FROM t ORDER BY a LIMIT 1 OFFSET 2")
        .run()
        .unwrap()
        .rows;
    assert_eq!(page.rows()[0][0], Value::Int(3));
}

#[test]
fn min_max_over_text_and_avg_of_ints() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (name TEXT, n INT)").run().unwrap();
    db.query("INSERT INTO t VALUES ('beta', 1), ('alpha', 2), ('gamma', 4)")
        .run()
        .unwrap();
    let rs = db
        .query("SELECT MIN(name), MAX(name), AVG(n) FROM t")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows()[0][0], Value::Text("alpha".into()));
    assert_eq!(rs.rows()[0][1], Value::Text("gamma".into()));
    assert_eq!(rs.rows()[0][2], Value::Float(7.0 / 3.0));
    // SUM over text errors out rather than silently coercing.
    assert!(db.query("SELECT SUM(name) FROM t").run().is_err());
}

#[test]
fn group_by_with_having_like_filter_via_nested_semantics() {
    // No HAVING in the subset; the equivalent is filtering rows first.
    let db = Database::in_memory();
    db.query("CREATE TABLE t (k TEXT, v INT)").run().unwrap();
    db.query("INSERT INTO t VALUES ('a', 1), ('a', 5), ('b', 2), ('b', 3), ('c', 10)")
        .run()
        .unwrap();
    let rs = db
        .query("SELECT k, SUM(v) AS total FROM t WHERE v < 10 GROUP BY k ORDER BY k")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.rows().len(), 2);
    assert_eq!(rs.rows()[0], vec![Value::Text("a".into()), Value::Int(6)]);
    assert_eq!(rs.rows()[1], vec![Value::Text("b".into()), Value::Int(5)]);
}

#[test]
fn update_with_swapped_column_references() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, b INT)").run().unwrap();
    db.query("INSERT INTO t VALUES (1, 10)").run().unwrap();
    // Assignments all read the PRE-update row.
    db.query("UPDATE t SET a = b, b = a").run().unwrap();
    let rs = db.query("SELECT a, b FROM t").run().unwrap().rows;
    assert_eq!(rs.rows()[0], vec![Value::Int(10), Value::Int(1)]);
}

#[test]
fn composite_index_prefix_and_range_consistency() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (p TEXT, o INT, v TEXT)")
        .run()
        .unwrap();
    for p in ["x", "y"] {
        for o in 0..20 {
            db.query(&format!("INSERT INTO t VALUES ('{p}', {o}, '{p}{o}')"))
                .run()
                .unwrap();
        }
    }
    let baseline = db
        .query("SELECT v FROM t WHERE p = 'x' AND o BETWEEN 5 AND 9 ORDER BY o")
        .run()
        .unwrap()
        .rows;
    db.query("CREATE INDEX i ON t (p, o)").run().unwrap();
    let indexed = db
        .query("SELECT v FROM t WHERE p = 'x' AND o BETWEEN 5 AND 9 ORDER BY o")
        .run()
        .unwrap()
        .rows;
    assert_eq!(baseline.rows(), indexed.rows());
    assert_eq!(indexed.rows().len(), 5);
    assert!(db
        .query("SELECT v FROM t WHERE p = 'x' AND o BETWEEN 5 AND 9")
        .planned()
        .unwrap()
        .plan
        .uses_index());
}

#[test]
fn dml_uses_indexes_for_sargable_filters() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (doc INT, v TEXT)").run().unwrap();
    for d in 0..50 {
        for i in 0..4 {
            db.query(&format!("INSERT INTO t VALUES ({d}, 'd{d}i{i}')"))
                .run()
                .unwrap();
        }
    }
    db.query("CREATE INDEX idx_doc ON t (doc)").run().unwrap();
    // Indexed DELETE removes exactly the matching rows.
    assert_eq!(
        db.query("DELETE FROM t WHERE doc = 7")
            .run()
            .unwrap()
            .rows
            .affected(),
        4
    );
    assert_eq!(db.row_count("t").unwrap(), 196);
    // Indexed UPDATE touches exactly the matching rows and maintains the
    // index (a follow-up indexed SELECT sees the change).
    assert_eq!(
        db.query("UPDATE t SET v = 'changed' WHERE doc = 9")
            .run()
            .unwrap()
            .rows
            .affected(),
        4
    );
    let rs = db
        .query("SELECT v FROM t WHERE doc = 9")
        .run()
        .unwrap()
        .rows;
    assert!(rs
        .rows()
        .iter()
        .all(|r| r[0] == Value::Text("changed".into())));
    // Residual (non-sargable) parts of the filter still apply.
    assert_eq!(
        db.query("DELETE FROM t WHERE doc = 9 AND v LIKE 'nope%'")
            .run()
            .unwrap()
            .rows
            .affected(),
        0
    );
    assert_eq!(
        db.query("DELETE FROM t WHERE doc = 9 AND v = 'changed'")
            .run()
            .unwrap()
            .rows
            .affected(),
        4
    );
}

/// SQL `=` equates `-0.0` and `0.0`, so everything keyed on values — a
/// B-tree probe, a hash join (streaming and reference), `DISTINCT` and
/// `GROUP BY` — must too: the answer cannot depend on whether an index
/// exists or on which join operator the planner picked.
#[test]
fn the_two_float_zeros_are_one_key_everywhere() {
    let db = Database::in_memory();
    db.query("CREATE TABLE t (f FLOAT)").run().unwrap();
    db.query("CREATE TABLE u (g FLOAT)").run().unwrap();
    for zero in [-0.0f64, 0.0] {
        db.query("INSERT INTO t VALUES (?)")
            .bind(zero)
            .run()
            .unwrap();
    }
    db.query("INSERT INTO u VALUES (0.0)").run().unwrap();
    let count = |sql: &str, reference: bool| {
        let query = db.query(sql);
        let query = if reference {
            query.via_reference()
        } else {
            query
        };
        query.run().unwrap().rows.len()
    };
    // The float and the integer spelling of zero, by scan and by index.
    let float_zero = "SELECT f FROM t WHERE f = 0.0";
    let int_zero = "SELECT f FROM t WHERE f = 0";
    assert_eq!((count(float_zero, false), count(int_zero, false)), (2, 2));
    db.query("CREATE INDEX t_f ON t (f)").run().unwrap();
    assert!(db.query(float_zero).planned().unwrap().plan.uses_index());
    assert_eq!((count(float_zero, false), count(int_zero, false)), (2, 2));
    // The same join as a hash join and as the equivalent nested loop.
    let hash = "SELECT t.f FROM t, u WHERE t.f = u.g";
    let nested = "SELECT t.f FROM t, u WHERE t.f <= u.g AND t.f >= u.g";
    let explain = db.query(hash).explain().unwrap().render();
    assert!(explain.contains("HashJoin"), "{explain}");
    assert_eq!(count(nested, false), 2);
    assert_eq!(count(hash, false), 2, "streaming hash join");
    assert_eq!(count(hash, true), 2, "reference hash join");
    assert_eq!(count("SELECT DISTINCT f FROM t", false), 1);
    assert_eq!(count("SELECT COUNT(*) FROM t GROUP BY f", false), 1);
}
