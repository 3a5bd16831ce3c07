//! Language property test: every query the AST can express prints to text
//! that parses back to the identical AST (the GUI's "Translate Query"
//! output is therefore always a faithful serialization).

use proptest::prelude::*;
use xomatiq_xml::LabelPath;
use xomatiq_xquery::ast::{
    AttrPredicate, Binding, CompOp, Comparison, Condition, FlwrQuery, LetBinding, Literal, Operand,
    PathExpr, ReturnItem,
};
use xomatiq_xquery::parse_query;

const NAMES: &[&str] = &["db_entry", "enzyme_id", "qualifier", "reference", "seq"];
const VARS: &[&str] = &["a", "b", "c"];
const WORDS: &[&str] = &["ketone", "cdc6", "EC number", "1.14.17.3", "copper zinc"];

fn path_expr() -> impl Strategy<Value = PathExpr> {
    (
        0..VARS.len(),
        prop::collection::vec((0..NAMES.len(), any::<bool>()), 0..3),
        prop::option::of((0..NAMES.len(), 0..WORDS.len())),
        prop::option::of(1u32..5),
        prop::option::of(0..NAMES.len()),
    )
        .prop_map(|(var, steps, predicate, position, attribute)| {
            let steps = if steps.is_empty() {
                None
            } else {
                let text: String = steps
                    .iter()
                    .map(|(n, desc)| format!("{}{}", if *desc { "//" } else { "/" }, NAMES[*n]))
                    .collect();
                Some(LabelPath::parse(&text).expect("constructed to be valid"))
            };
            // Predicates only make sense on a path with steps.
            let has_steps = steps.is_some();
            PathExpr {
                var: VARS[var].to_string(),
                steps,
                predicate: predicate.filter(|_| has_steps).map(|(n, v)| AttrPredicate {
                    name: NAMES[n].to_string(),
                    value: WORDS[v].to_string(),
                }),
                position: position.filter(|_| has_steps),
                attribute: attribute
                    .filter(|_| has_steps)
                    .map(|n| NAMES[n].to_string()),
            }
        })
}

fn condition(depth: u32) -> BoxedStrategy<Condition> {
    let leaf = prop_oneof![
        (path_expr(), 0..WORDS.len(), any::<bool>()).prop_map(|(target, kw, any)| {
            // A bare-variable target is normalized to `any` by the parser.
            let any = any || (target.steps.is_none() && target.attribute.is_none());
            Condition::Contains {
                target,
                keyword: WORDS[kw].to_string(),
                any,
            }
        }),
        (path_expr(), 0..WORDS.len()).prop_map(|(target, p)| Condition::Matches {
            target,
            pattern: WORDS[p].to_string(),
        }),
        (path_expr(), comparison_op(), operand())
            .prop_map(|(left, op, right)| { Condition::Compare(Comparison { left, op, right }) }),
        (path_expr(), path_expr(), any::<bool>()).prop_map(|(mut left, mut right, before)| {
            // BEFORE/AFTER applies to elements only.
            left.attribute = None;
            right.attribute = None;
            Condition::Order {
                left,
                right,
                before,
            }
        }),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = condition(depth - 1);
    prop_oneof![
        4 => leaf,
        1 => (inner.clone(), condition(depth - 1))
            .prop_map(|(a, b)| Condition::And(Box::new(a), Box::new(b))),
        1 => (inner.clone(), condition(depth - 1))
            .prop_map(|(a, b)| Condition::Or(Box::new(a), Box::new(b))),
        1 => inner.prop_map(|c| Condition::Not(Box::new(c))),
    ]
    .boxed()
}

fn comparison_op() -> impl Strategy<Value = CompOp> {
    prop::sample::select(vec![
        CompOp::Eq,
        CompOp::Ne,
        CompOp::Lt,
        CompOp::Le,
        CompOp::Gt,
        CompOp::Ge,
    ])
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        path_expr().prop_map(Operand::Path),
        (0..WORDS.len()).prop_map(|w| Operand::Literal(Literal::Text(WORDS[w].to_string()))),
        any::<i32>().prop_map(|i| Operand::Literal(Literal::Int(i64::from(i)))),
    ]
}

fn query() -> impl Strategy<Value = FlwrQuery> {
    (
        1..=VARS.len(),
        prop::collection::vec((0..VARS.len(), path_expr()), 0..2),
        prop::option::of(condition(2)),
        prop::collection::vec((prop::option::of("[A-Z][a-z_]{1,8}"), path_expr()), 1..4),
        prop::option::of("[a-z]{2,8}"),
    )
        .prop_map(|(n_bindings, lets, where_clause, returns, wrapper)| {
            let bindings = (0..n_bindings)
                .map(|i| Binding {
                    var: VARS[i].to_string(),
                    collection: format!("collection_{i}"),
                    path: LabelPath::parse(&format!("/root_{i}")).expect("valid"),
                })
                .collect();
            // LET variable names must not collide with FOR variables.
            let lets = lets
                .into_iter()
                .enumerate()
                .map(|(i, (_, target))| LetBinding {
                    var: format!("let{i}"),
                    target,
                })
                .collect();
            FlwrQuery {
                bindings,
                lets,
                where_clause,
                return_items: returns
                    .into_iter()
                    .map(|(alias, path)| ReturnItem { alias, path })
                    .collect(),
                wrapper,
            }
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(128)))]

    #[test]
    fn display_parse_round_trip(q in query()) {
        let printed = q.to_string();
        let reparsed = parse_query(&printed)
            .unwrap_or_else(|e| panic!("printed query failed to parse: {e}\n{printed}"));
        prop_assert_eq!(reparsed, q, "round trip diverged for:\n{}", printed);
    }
}
