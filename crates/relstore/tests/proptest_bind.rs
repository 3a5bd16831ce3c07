//! The bind stage, checked on its own.
//!
//! [`bind_expr`] is the one place a column name becomes a row position,
//! and it is shared by the streaming executor, the reference oracle, view
//! analysis and DML — so the differential suites cannot catch it being
//! wrong (both sides would agree). The property below pits it against an
//! independent model of name resolution over random multi-alias schemas
//! (duplicate column names across aliases, mixed case, qualified and
//! unqualified references); the hand-written cases pin, per plan node
//! that carries expressions, *which* row each expression is bound to.
//! (A view's equi-join keys, each bound to its own side's row, are pinned
//! by `equi_keys_bind_to_their_own_side` in `view.rs`'s unit tests, next
//! to the crate-private analysis they belong to.)

use proptest::prelude::*;
use xomatiq_relstore::bind::{bind_expr, bind_plan, ColumnBinding, RowSchema};
use xomatiq_relstore::expr::eval;
use xomatiq_relstore::plan::{Access, Plan, ProjectItem};
use xomatiq_relstore::schema::{Catalog, Column, TableSchema};
use xomatiq_relstore::sql::ast::{AggFunc, BinOp, Expr};
use xomatiq_relstore::{DataType, RelError, Value};

const ALIASES: [&str; 5] = ["n0", "N1", "n2", "e", "E"];
const NAMES: [&str; 6] = ["id", "ID", "start", "Stop", "val", "doc_id"];

fn pick(pool: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::sample::select(pool.iter().map(|s| s.to_string()).collect::<Vec<_>>())
}

/// A reference spelled in either case, so `N1.START` meets `n1.start`.
fn recase(s: String, upper: bool) -> String {
    if upper {
        s.to_ascii_uppercase()
    } else {
        s.to_ascii_lowercase()
    }
}

fn schema_strategy() -> impl Strategy<Value = RowSchema> {
    prop::collection::vec((pick(&ALIASES), pick(&NAMES)), 1..12).prop_map(|cols| {
        RowSchema::new(
            cols.into_iter()
                .map(|(table, name)| ColumnBinding { table, name })
                .collect(),
        )
    })
}

fn reference_strategy() -> impl Strategy<Value = (Option<String>, String)> {
    (
        prop::option::of((pick(&ALIASES), any::<bool>())),
        pick(&NAMES),
        any::<bool>(),
    )
        .prop_map(|(alias, name, upper)| (alias.map(|(a, up)| recase(a, up)), recase(name, upper)))
}

/// Name resolution written the obvious way: count the case-insensitive
/// matches. The error payloads are the texts the engine has always
/// produced for these references.
fn model(schema: &RowSchema, table: Option<&str>, name: &str) -> Result<usize, RelError> {
    let full = match table {
        Some(t) => format!("{t}.{name}"),
        None => name.to_string(),
    };
    let hits: Vec<usize> = (0..schema.len())
        .filter(|&i| {
            let b = &schema.columns()[i];
            b.name.to_lowercase() == name.to_lowercase()
                && table.is_none_or(|t| b.table.to_lowercase() == t.to_lowercase())
        })
        .collect();
    match hits.as_slice() {
        [] => Err(RelError::UnknownColumn(full)),
        [i] => Ok(*i),
        _ => Err(RelError::AmbiguousColumn(full)),
    }
}

fn prop_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(256)))]

    #[test]
    fn binder_assigns_the_ordinal_name_resolution_would(
        schema in schema_strategy(),
        refs in prop::collection::vec(reference_strategy(), 1..5),
    ) {
        let row: Vec<Value> = (0..schema.len() as i64).map(Value::Int).collect();
        let mut expected_first_error = None;
        for (table, name) in &refs {
            let expected = model(&schema, table.as_deref(), name);
            prop_assert_eq!(&schema.resolve(table.as_deref(), name), &expected);
            let bound = bind_expr(&Expr::col(table.as_deref(), name), &schema);
            match &expected {
                Ok(i) => {
                    let b = &schema.columns()[*i];
                    prop_assert_eq!(
                        bound.as_ref(),
                        Ok(&Expr::Column {
                            table: Some(b.table.clone()),
                            name: b.name.clone(),
                            ordinal: Some(*i),
                        })
                    );
                    prop_assert_eq!(eval(&bound.unwrap(), &row), Ok(Value::Int(*i as i64)));
                }
                Err(e) => {
                    prop_assert_eq!(bound.as_ref(), Err(e));
                    expected_first_error.get_or_insert(e.clone());
                }
            }
        }
        // The same references buried in one tree: binding reaches every
        // leaf, and fails with the first bad reference in tree order.
        let tree = Expr::InList {
            expr: Box::new(Expr::lit(0i64)),
            list: refs
                .iter()
                .map(|(t, n)| Expr::binary(BinOp::Add, Expr::col(t.as_deref(), n), Expr::lit(0i64)))
                .collect(),
            negated: false,
        };
        match (bind_expr(&tree, &schema), expected_first_error) {
            (Ok(bound), None) => prop_assert_eq!(eval(&bound, &row).is_ok(), true),
            (Err(got), Some(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(false, "bound {:?}, expected error {:?}", got, want),
        }
    }
}

// ---- one hand-written case per plan node that carries expressions ----

/// `l(a, k)` and `r(k, b, a)`: `k` and `a` exist on both sides, so the
/// ordinal of `r.k` differs between the right row (0) and a joined row (2).
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let int = |n: &str| Column::new(n, DataType::Int);
    cat.create_table(TableSchema::new("l", vec![int("a"), int("k")]))
        .unwrap();
    cat.create_table(TableSchema::new("r", vec![int("k"), int("b"), int("a")]))
        .unwrap();
    cat
}

fn scan(table: &str) -> Box<Plan> {
    Box::new(Plan::from(Access::new(table, table, None)))
}

fn col(table: &str, name: &str) -> Expr {
    Expr::col(Some(table), name)
}

fn eq(l: Expr, r: Expr) -> Expr {
    Expr::binary(BinOp::Eq, l, r)
}

/// The ordinals of `expr`'s column references, in tree order.
fn ordinals(expr: &Expr) -> Vec<Option<usize>> {
    match expr {
        Expr::Column { ordinal, .. } => vec![*ordinal],
        other => other.children().into_iter().flat_map(ordinals).collect(),
    }
}

fn names(schema: &RowSchema) -> Vec<String> {
    schema
        .columns()
        .iter()
        .map(|b| format!("{}.{}", b.table, b.name))
        .collect()
}

#[test]
fn filter_binds_to_its_input_row() {
    let mut plan = Plan::Filter {
        input: scan("r"),
        predicate: eq(Expr::col(None, "B"), col("R", "a")),
    };
    let out = bind_plan(&mut plan, &catalog()).unwrap();
    let Plan::Filter { predicate, .. } = &plan else {
        unreachable!()
    };
    assert_eq!(ordinals(predicate), [Some(1), Some(2)]);
    assert_eq!(names(&out), ["r.k", "r.b", "r.a"]);
}

#[test]
fn leaf_predicate_binds_to_the_table_row_under_its_alias() {
    let predicate = eq(Expr::col(None, "B"), col("X", "a"));
    let mut plan = Plan::from(Access::new("r", "x", Some(predicate)));
    let out = bind_plan(&mut plan, &catalog()).unwrap();
    let Plan::Access(leaf) = &plan else {
        unreachable!()
    };
    // The whole predicate and the not-yet-split residual are both bound,
    // and the leaf now knows its table's column names.
    assert_eq!(
        ordinals(leaf.predicate.as_ref().unwrap()),
        [Some(1), Some(2)]
    );
    assert_eq!(leaf.residual, leaf.predicate);
    assert_eq!(leaf.columns, ["k", "b", "a"]);
    assert_eq!(names(&out), ["x.k", "x.b", "x.a"]);
    // The table's own name is not in scope once aliased.
    let mut bad = Plan::from(Access::new(
        "r",
        "x",
        Some(eq(col("r", "a"), col("x", "a"))),
    ));
    assert_eq!(
        bind_plan(&mut bad, &catalog()),
        Err(RelError::UnknownColumn("r.a".into()))
    );
}

#[test]
fn nested_loop_condition_binds_to_the_joined_row() {
    let mut plan = Plan::NestedLoopJoin {
        left: scan("l"),
        right: scan("r"),
        condition: Some(eq(col("l", "k"), col("r", "k"))),
    };
    let out = bind_plan(&mut plan, &catalog()).unwrap();
    let Plan::NestedLoopJoin { condition, .. } = &plan else {
        unreachable!()
    };
    assert_eq!(ordinals(condition.as_ref().unwrap()), [Some(1), Some(2)]);
    assert_eq!(names(&out), ["l.a", "l.k", "r.k", "r.b", "r.a"]);
    // Unqualified `k` is ambiguous across the two sides.
    let mut bad = Plan::NestedLoopJoin {
        left: scan("l"),
        right: scan("r"),
        condition: Some(eq(Expr::col(None, "k"), Expr::lit(1i64))),
    };
    assert_eq!(
        bind_plan(&mut bad, &catalog()),
        Err(RelError::AmbiguousColumn("k".into()))
    );
}

fn hash_join(semi: bool) -> Plan {
    Plan::HashJoin {
        left: scan("l"),
        right: scan("r"),
        left_keys: vec![col("l", "k")],
        right_keys: vec![col("r", "k")],
        residual: Some(eq(col("l", "a"), col("r", "a"))),
        semi,
    }
}

#[test]
fn hash_join_keys_bind_per_side_and_residual_to_the_joined_row() {
    for semi in [false, true] {
        let mut plan = hash_join(semi);
        let out = bind_plan(&mut plan, &catalog()).unwrap();
        let Plan::HashJoin {
            left_keys,
            right_keys,
            residual,
            ..
        } = &plan
        else {
            unreachable!()
        };
        assert_eq!(ordinals(&left_keys[0]), [Some(1)]);
        // Position in the *right* row, not the joined one.
        assert_eq!(ordinals(&right_keys[0]), [Some(0)]);
        assert_eq!(ordinals(residual.as_ref().unwrap()), [Some(0), Some(4)]);
        if semi {
            assert_eq!(names(&out), ["l.a", "l.k"]);
        } else {
            assert_eq!(names(&out), ["l.a", "l.k", "r.k", "r.b", "r.a"]);
        }
    }
    // A key naming the other side's column does not bind.
    let Plan::HashJoin {
        left,
        right,
        left_keys,
        ..
    } = hash_join(false)
    else {
        unreachable!()
    };
    let mut crossed = Plan::HashJoin {
        left,
        right,
        left_keys,
        right_keys: vec![col("l", "k")],
        residual: None,
        semi: false,
    };
    assert_eq!(
        bind_plan(&mut crossed, &catalog()),
        Err(RelError::UnknownColumn("l.k".into()))
    );
}

#[test]
fn project_binds_items_and_renames_its_output() {
    let mut plan = Plan::Project {
        input: Box::new(hash_join(true)),
        items: vec![ProjectItem {
            expr: Expr::binary(BinOp::Add, col("l", "k"), col("l", "a")),
            name: "total".into(),
        }],
        visible: 1,
    };
    let out = bind_plan(&mut plan, &catalog()).unwrap();
    let Plan::Project { items, .. } = &plan else {
        unreachable!()
    };
    assert_eq!(ordinals(&items[0].expr), [Some(1), Some(0)]);
    assert_eq!(names(&out), [".total"]);
    // Above a semi join the right side is gone.
    let mut gone = Plan::Project {
        input: Box::new(hash_join(true)),
        items: vec![ProjectItem {
            expr: col("r", "b"),
            name: "b".into(),
        }],
        visible: 1,
    };
    assert_eq!(
        bind_plan(&mut gone, &catalog()),
        Err(RelError::UnknownColumn("r.b".into()))
    );
}

#[test]
fn aggregate_binds_group_keys_and_arguments() {
    let mut plan = Plan::Limit {
        input: Box::new(Plan::Aggregate {
            input: scan("r"),
            group_by: vec![col("r", "b")],
            items: vec![
                ProjectItem {
                    expr: col("r", "b"),
                    name: "b".into(),
                },
                ProjectItem {
                    expr: Expr::Aggregate {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(col("r", "a"))),
                        distinct: false,
                    },
                    name: "sum".into(),
                },
            ],
            visible: 2,
        }),
        limit: Some(1),
        offset: 0,
    };
    let out = bind_plan(&mut plan, &catalog()).unwrap();
    let Plan::Limit { input, .. } = &plan else {
        unreachable!()
    };
    let Plan::Aggregate {
        group_by, items, ..
    } = &**input
    else {
        unreachable!()
    };
    assert_eq!(ordinals(&group_by[0]), [Some(1)]);
    assert_eq!(ordinals(&items[0].expr), [Some(1)]);
    assert_eq!(ordinals(&items[1].expr), [Some(2)]);
    assert_eq!(names(&out), [".b", ".sum"]);
}
