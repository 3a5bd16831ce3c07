//! `EXPLAIN ANALYZE` behaviour: golden profile tree over a known plan,
//! per-operator row accounting, the self-time-sums-to-total invariant the
//! issue pins at ±10%, the SQL-level `EXPLAIN [ANALYZE]` statements, and
//! the plans-exactly-once regression.

use std::sync::{Arc, RwLock, RwLockReadGuard};

use xomatiq_obs::trace::{self, TraceCtx};
use xomatiq_obs::MemoryTraceSink;
use xomatiq_relstore::{Database, OpProfile, PlanExplainNode, Value};

/// The metrics registry is process-global and every test here plans
/// queries. Tests hold this shared; the one test that asserts an exact
/// `relstore.plan.latency` delta holds it exclusively.
static PLANNING: RwLock<()> = RwLock::new(());

fn planning() -> RwLockReadGuard<'static, ()> {
    PLANNING.read().unwrap_or_else(|e| e.into_inner())
}

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

/// Replaces the (nondeterministic) time fields so profile renders can be
/// compared against a golden string.
fn normalize(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|l| !l.starts_with("(total:"))
        .map(|l| match l.find(" self=") {
            Some(i) => format!("{} self=_]", &l[..i]),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn golden_profile_over_three_operator_plan() {
    let _planning = planning();
    let db = big_db(1_000);
    let analyzed = db
        .query("SELECT a FROM big WHERE a < 3")
        .with_profile()
        .run()
        .unwrap();
    assert_eq!(analyzed.rows.rows().len(), 3);
    let rendered = analyzed.render_analysis().unwrap();
    let got = normalize(&rendered);
    // `a < 3` is sargable and the projection is a bare column, so the
    // whole query is one leaf: the kernel enforces the predicate, nothing
    // is left for a residual, and the survivors come out already
    // projected. The true scan volume (and the zone-map outcome) lives in
    // the footer counters.
    let want = "Scan big AS big pushed=[big.a < 3] residual=[] project=[a]  \
                [rows_in=3 rows_out=3 self=_]";
    assert_eq!(got, want);

    // A predicate the kernels cannot take stays with the leaf as its
    // residual, and a computed item keeps the Project above it.
    let analyzed = db
        .query("SELECT a + 1 FROM big WHERE a < 3 AND b LIKE 'row%'")
        .with_profile()
        .run()
        .unwrap();
    let want = "\
Project [col0]  [rows_in=3 rows_out=3 self=_]
  Scan big AS big pushed=[] residual=[((big.a < 3) AND (big.b LIKE 'row%'))] cols=[a, b]  \
     [rows_in=3 rows_out=3 self=_]";
    assert_eq!(normalize(&analyzed.render_analysis().unwrap()), want);
    // The footer carries the executor counters.
    assert!(rendered.contains("rows scanned: 1000"), "{rendered}");
    assert!(rendered.contains("segments pruned: 0"), "{rendered}");
}

#[test]
fn filter_join_topk_times_sum_to_total_within_ten_percent() {
    let _planning = planning();
    // The acceptance-criteria query shape: filter + hash join + Top-K.
    let db = Database::in_memory();
    db.query("CREATE TABLE facts (id INT, v INT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE dims (id INT, name TEXT)")
        .run()
        .unwrap();
    let stmts: Vec<String> = (0..20_000)
        .map(|i| format!("INSERT INTO facts VALUES ({}, {i})", i % 64))
        .collect();
    let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
    db.execute_batch(&refs).unwrap();
    for i in 0..64 {
        db.query(&format!("INSERT INTO dims VALUES ({i}, 'n{i}')"))
            .run()
            .unwrap();
    }
    let sql = "SELECT f.v, d.name FROM facts f, dims d \
               WHERE f.id = d.id AND f.v < 10000 \
               ORDER BY f.v DESC LIMIT 5";
    let analyzed = db.query(sql).with_profile().run().unwrap();
    assert_eq!(analyzed.rows.rows().len(), 5);
    assert_eq!(analyzed.rows.rows()[0][0], Value::Int(9999));
    let profile = analyzed.profile.as_ref().unwrap();

    // The profile tree contains the three interesting operators, each
    // with rows-in/rows-out accounted.
    let rendered = analyzed.render_analysis().unwrap();
    assert!(rendered.contains("TopK 5 OFFSET 0"), "{rendered}");
    assert!(rendered.contains("HashJoin"), "{rendered}");
    assert!(rendered.contains("pushed=[f.v < 10000]"), "{rendered}");
    let mut stack = vec![profile];
    let mut ops = 0usize;
    while let Some(node) = stack.pop() {
        ops += 1;
        // Streaming operators can't produce more than they consume
        // (leaves report rows_in == rows_out by definition).
        assert!(
            node.rows_out <= node.rows_in.max(1),
            "{}: rows_in={} rows_out={}",
            node.op,
            node.rows_in,
            node.rows_out
        );
        assert!(node.elapsed_ns <= node.total_ns, "{}", node.op);
        stack.extend(node.children.iter());
    }
    assert!(ops >= 5, "expected a filter+join+topk tree, got {rendered}");

    // Exclusive per-operator times must sum (within ±10%) to the total
    // measured execution time.
    let sum = profile.tree_elapsed_ns() as f64;
    let total = analyzed.exec_ns.unwrap() as f64;
    assert!(
        (sum - total).abs() <= total * 0.10,
        "per-operator sum {sum}ns vs total {total}ns drifts more than 10%:\n{rendered}"
    );
}

#[test]
fn explain_statement_matches_query_explain() {
    let _planning = planning();
    let db = big_db(10);
    let rs = db
        .query("EXPLAIN SELECT a FROM big LIMIT 2")
        .run()
        .unwrap()
        .rows;
    assert_eq!(rs.columns(), ["plan"]);
    let lines: Vec<String> = rs
        .rows()
        .iter()
        .map(|r| match &r[0] {
            Value::Text(s) => s.clone(),
            other => panic!("{other:?}"),
        })
        .collect();
    let explain = db
        .query("SELECT a FROM big LIMIT 2")
        .explain()
        .unwrap()
        .render();
    let want: Vec<&str> = explain.lines().collect();
    assert_eq!(lines, want);
}

#[test]
fn explain_analyze_statement_reports_rows_and_total() {
    let _planning = planning();
    let db = big_db(100);
    let rs = db
        .query("EXPLAIN ANALYZE SELECT a FROM big WHERE a >= 90")
        .run()
        .unwrap()
        .rows;
    let text: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
    let joined = text.join("\n");
    assert!(joined.contains("rows_out=10"), "{joined}");
    assert!(joined.contains("(total:"), "{joined}");
    // EXPLAIN ANALYZE of DML is rejected at parse time.
    let err = db
        .query("EXPLAIN ANALYZE DELETE FROM big")
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("SELECT"), "{err}");
}

#[test]
fn analyze_reports_index_and_keyword_counters() {
    let _planning = planning();
    let db = Database::in_memory();
    db.query("CREATE TABLE t (a INT, s TEXT)").run().unwrap();
    db.query("CREATE INDEX idx_a ON t (a)").run().unwrap();
    db.query("CREATE KEYWORD INDEX kw_s ON t (s)")
        .run()
        .unwrap();
    for i in 0..100 {
        let s = if i % 10 == 0 { "needle here" } else { "hay" };
        db.query(&format!("INSERT INTO t VALUES ({i}, '{s}')"))
            .run()
            .unwrap();
    }
    let analyzed = db
        .query("SELECT a FROM t WHERE a = 42")
        .with_profile()
        .run()
        .unwrap();
    let stats = analyzed.stats.unwrap();
    assert_eq!(stats.index_probes, 1);
    assert_eq!(stats.rows_scanned, 1);
    assert!(analyzed
        .render_analysis()
        .unwrap()
        .contains("index probes: 1"));

    let analyzed = db
        .query("SELECT a FROM t WHERE CONTAINS(s, 'needle')")
        .with_profile()
        .run()
        .unwrap();
    let stats = analyzed.stats.unwrap();
    assert_eq!(stats.index_probes, 1);
    assert_eq!(stats.keyword_postings_read, 10);
}

/// `EXPLAIN ANALYZE` is the run: a profiled execution opens the same
/// cursors over the same plan as a plain one, so it reports the same rows
/// and the same counters,
/// and the leaf it prints is the leaf `EXPLAIN` prints. (Profiled runs
/// used to skip the fused scan and print a `Filter` that "re-confirmed"
/// rows a kernel had already selected.)
#[test]
fn a_profiled_run_is_the_plain_run() {
    let _planning = planning();
    let db = Database::in_memory();
    db.query("CREATE TABLE big (a INT, b INT, s TEXT)")
        .run()
        .unwrap();
    db.query("CREATE TABLE dims (id INT, name TEXT)")
        .run()
        .unwrap();
    db.query("CREATE INDEX dims_id ON dims (id)").run().unwrap();
    let mut stmts: Vec<String> = (0..3_000)
        .map(|i| format!("INSERT INTO big VALUES ({i}, {}, 'row{i}')", i % 7))
        .collect();
    stmts.extend((0..7).map(|i| format!("INSERT INTO dims VALUES ({i}, 'dim{i}')")));
    let refs: Vec<&str> = stmts.iter().map(|s| s.as_str()).collect();
    db.execute_batch(&refs).unwrap();

    fn explained_leaves(node: &PlanExplainNode, out: &mut Vec<String>) {
        if node.children.is_empty() {
            out.push(node.op.clone());
        }
        node.children.iter().for_each(|c| explained_leaves(c, out));
    }
    fn profiled_leaves(node: &OpProfile, out: &mut Vec<String>) {
        if node.children.is_empty() {
            out.push(node.op.clone());
        }
        node.children.iter().for_each(|c| profiled_leaves(c, out));
    }
    for (sql, leaf) in [
        // Fused-eligible: kernels enforce everything, bare columns fold.
        (
            "SELECT a, b FROM big WHERE b = 3 AND a < 50",
            "Scan big AS big pushed=[big.b = 3, big.a < 50] residual=[] project=[a, b]",
        ),
        // A conjunct no kernel takes: the whole predicate is the residual.
        (
            "SELECT a + 0, s FROM big WHERE a < 500 AND s LIKE '%7%'",
            "Scan big AS big pushed=[] residual=[((big.a < 500) AND (big.s LIKE '%7%'))] \
             cols=[a, s]",
        ),
        // An index leaf on the build side of a join.
        (
            "SELECT g.a, d.name FROM big g, dims d WHERE g.b = d.id AND d.id = 3",
            "IndexScan dims AS d USING dims_id exact(1 cols) pushed=[] residual=[] \
             cols=[id, name]",
        ),
        // An aggregate over a full scan.
        (
            "SELECT b, COUNT(*) FROM big GROUP BY b",
            "Scan big AS big pushed=[] residual=[] cols=[b]",
        ),
    ] {
        let profiled = db.query(sql).with_profile().run().unwrap();
        let plain = db.query(sql).with_stats().run().unwrap();
        assert_eq!(plain.rows, profiled.rows, "{sql}");
        assert_eq!(plain.stats, profiled.stats, "{sql}");
        let (mut explained, mut ran) = (Vec::new(), Vec::new());
        explained_leaves(&db.query(sql).explain().unwrap().root, &mut explained);
        profiled_leaves(profiled.profile.as_ref().unwrap(), &mut ran);
        assert_eq!(explained, ran, "{sql}");
        assert!(ran.iter().any(|l| l == leaf), "{sql}: {ran:?}");
    }
}

/// Regression: `explain_analyzed` used to plan the statement twice — once
/// for the tree it returned and once more inside the profiled run — so a
/// single call recorded two plan latency samples and two plan spans, and
/// could annotate a tree built from a different plan than the one that
/// ran.
#[test]
fn explain_analyzed_plans_once_and_annotates_the_plan_that_ran() {
    let _exclusive = PLANNING.write().unwrap_or_else(|e| e.into_inner());
    let db = big_db(200);
    let sql = "SELECT a FROM big WHERE a < 50 ORDER BY a DESC LIMIT 7";
    let plan_latency = xomatiq_obs::global().histogram("relstore.plan.latency");
    let sink = Arc::new(MemoryTraceSink::new());
    trace::set_trace_sink(Some(sink.clone()));
    let trace_id = 0x51de_c0de_u64;
    let before = plan_latency.count();
    let tree = {
        let _scope = trace::scope(TraceCtx::with_trace_id(trace_id));
        db.query(sql).explain_analyzed().unwrap()
    };
    let planned = plan_latency.count() - before;
    trace::set_trace_sink(None);
    assert_eq!(planned, 1, "one call must record one plan latency sample");
    let plan_spans = sink
        .trace(trace_id)
        .iter()
        .filter(|s| s.name == "relstore.query.plan")
        .count();
    assert_eq!(plan_spans, 1, "one call must emit one plan span");

    // The tree is the executed plan's: running the same statement under
    // the profiler yields the same operator labels, node for node, and
    // every node of the tree carries the observed row count.
    fn labels(node: &PlanExplainNode, out: &mut Vec<String>) {
        assert!(node.actual_rows.is_some(), "{} has no actuals", node.op);
        out.push(node.op.clone());
        node.children.iter().for_each(|c| labels(c, out));
    }
    let mut tree_labels = Vec::new();
    labels(&tree.root, &mut tree_labels);
    let profile = db.query(sql).with_profile().run().unwrap().profile.unwrap();
    let mut profile_labels = Vec::new();
    let mut stack = vec![&profile];
    while let Some(node) = stack.pop() {
        profile_labels.push(node.op.clone());
        stack.extend(node.children.iter().rev());
    }
    assert_eq!(tree_labels, profile_labels);
    assert_eq!(tree.root.actual_rows, Some(7));
}

/// `with_profile` and `via_reference` each choose how the plan runs;
/// asking for both is a typed bind error, not a silent preference for
/// one.
#[test]
fn conflicting_execution_modes_are_rejected() {
    let _planning = planning();
    let db = big_db(10);
    let sql = "SELECT a FROM big";
    for conflicted in [
        db.query(sql).with_profile().via_reference(),
        db.query(sql).via_reference().with_profile(),
    ] {
        let err = conflicted.run().unwrap_err();
        assert_eq!(err.code(), "bind", "{err}");
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }
    // Repeating one is not a conflict.
    let out = db.query(sql).with_profile().with_profile().run().unwrap();
    assert_eq!(out.rows.len(), 10);
    // And a conflicted builder leaves nothing half-done behind it.
    assert_eq!(db.query(sql).run().unwrap().rows.len(), 10);
}
