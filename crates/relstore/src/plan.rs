//! Query plans.
//!
//! The planner compiles a parsed `SELECT` into a tree of these operators;
//! the executor interprets the tree. The shapes mirror what the paper's
//! §3.2 describes observing in Oracle's plans: index-driven access paths
//! chosen "by meticulous analysis of the query plans", hash joins for the
//! cross-database equi-joins of Figure 11, and filtered scans elsewhere.
//!
//! Every table is read by one leaf, [`Plan::Access`], and everything about
//! *how* it is read is a field of that leaf, decided once by the planner:
//! the method, which conjuncts the segment kernels enforce, which are left
//! to a per-row residual, and which columns are materialized. The
//! executors decide none of it again, and [`Plan::describe`] prints all of
//! it — the plan `EXPLAIN` shows is the plan that runs.

use std::ops::Bound;

use crate::segment::{CmpOp, SimplePred};
use crate::sql::ast::{Expr, OrderKey};
use crate::value::Value;

/// How an index scan locates rows.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexAccess {
    /// Equality on the first `values.len()` key columns (full key or prefix).
    Exact(Vec<Value>),
    /// Equality on `prefix`, then a range over the next key column.
    Range {
        /// Exact values for the leading key columns.
        prefix: Vec<Value>,
        /// Lower bound on the next key column.
        lower: Bound<Value>,
        /// Upper bound on the next key column.
        upper: Bound<Value>,
    },
}

/// How an [`Access`] leaf finds its candidate rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum AccessMethod {
    /// Every live row of the table, in insertion (document) order. At run
    /// time zone maps may skip segments no pushed predicate can match.
    #[default]
    Full,
    /// A B-tree index probe; the rows come back in insertion order.
    Index {
        /// Index name.
        index: String,
        /// How the index is probed.
        access: IndexAccess,
    },
    /// An inverted keyword index lookup (serves `CONTAINS`).
    Keyword {
        /// Index name.
        index: String,
        /// The keyword(s) looked up.
        keyword: String,
    },
}

/// Which columns an [`Access`] leaf materializes, and in what layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum LeafOutput {
    /// Table layout, every column — a leaf no pruning rule has visited.
    #[default]
    All,
    /// Table layout with only these columns materialized (ascending table
    /// positions); the rest come out `NULL`, which nothing above reads.
    Pruned(Vec<usize>),
    /// Exactly these columns, in this order: a bare-column `Project`
    /// folded into the leaf.
    Projected(Vec<usize>),
}

/// The one way a plan reads a table: method, predicate split and column
/// set, all decided by the planner (`planner::choose_access` and
/// `planner::prune_columns`).
///
/// Invariant: on the rows `method` yields, `pushed` ∧ `residual` accepts
/// exactly the rows `predicate` accepts, and raises exactly the errors it
/// raises. [`Access::new`] starts with the whole predicate as the
/// residual, so a leaf no rule has visited already runs correctly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Access {
    /// Table name.
    pub table: String,
    /// Binding alias.
    pub alias: String,
    /// The table's column names in schema order, filled in by
    /// [`crate::bind::bind_plan`]; what `describe` names columns by.
    pub columns: Vec<String>,
    /// How candidate rows are found.
    pub method: AccessMethod,
    /// The table's whole predicate, bound to table positions. The
    /// reference interpreter evaluates this and nothing else, so the
    /// oracle stays independent of the split below.
    pub predicate: Option<Expr>,
    /// Conjuncts the segment kernels (and zone maps) enforce row-exactly.
    pub pushed: Vec<SimplePred>,
    /// What is left to evaluate per surviving row.
    pub residual: Option<Expr>,
    /// The columns materialized, and their layout.
    pub output: LeafOutput,
}

impl Access {
    /// A full scan of `table` under `alias` keeping the rows `predicate`
    /// accepts, before any planner rule has looked at it.
    pub fn new(table: &str, alias: &str, predicate: Option<Expr>) -> Access {
        Access {
            table: table.to_string(),
            alias: alias.to_string(),
            residual: predicate.clone(),
            predicate,
            ..Access::default()
        }
    }

    fn describe(&self) -> String {
        let Access { table, alias, .. } = self;
        let head = match &self.method {
            AccessMethod::Full => format!("Scan {table} AS {alias}"),
            AccessMethod::Index { index, access } => {
                let how = match access {
                    IndexAccess::Exact(values) => format!("exact({} cols)", values.len()),
                    IndexAccess::Range { prefix, .. } => {
                        format!("range(prefix {} cols)", prefix.len())
                    }
                };
                format!("IndexScan {table} AS {alias} USING {index} {how}")
            }
            AccessMethod::Keyword { index, keyword } => {
                format!("KeywordScan {table} AS {alias} USING {index} FOR {keyword:?}")
            }
        };
        let name = |col: &usize| match self.columns.get(*col) {
            Some(name) => name.clone(),
            None => format!("#{col}"),
        };
        let names = |cols: &[usize]| cols.iter().map(name).collect::<Vec<_>>().join(", ");
        let pushed: Vec<String> = self
            .pushed
            .iter()
            .map(|p| {
                let lit = match &p.lit {
                    Value::Text(text) => format!("'{text}'"),
                    other => other.to_string(),
                };
                format!("{alias}.{} {} {lit}", name(&p.col), p.op.symbol())
            })
            .collect();
        let residual = self.residual.as_ref().map_or(String::new(), |expr| {
            crate::view::render_expr(expr).unwrap_or_else(|_| "?".into())
        });
        let output = match &self.output {
            LeafOutput::All => "cols=[*]".to_string(),
            LeafOutput::Pruned(cols) => format!("cols=[{}]", names(cols)),
            LeafOutput::Projected(cols) => format!("project=[{}]", names(cols)),
        };
        format!(
            "{head} pushed=[{}] residual=[{residual}] {output}",
            pushed.join(", ")
        )
    }
}

impl CmpOp {
    /// The operator as SQL spells it.
    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One output column of a projection: expression plus output name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectItem {
    /// The expression to evaluate.
    pub expr: Expr,
    /// The name the column carries in the result set.
    pub name: String,
}

/// A plan operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// The leaf: one table read, with its single-table predicate.
    Access(Box<Access>),
    /// Predicate filter over a non-leaf input (a leaf carries its own).
    Filter {
        /// Input operator.
        input: Box<Plan>,
        /// Rows are kept when this evaluates to true.
        predicate: Expr,
    },
    /// Nested-loop join with an optional residual condition.
    NestedLoopJoin {
        /// Left (outer) input.
        left: Box<Plan>,
        /// Right (inner) input.
        right: Box<Plan>,
        /// Optional join condition (cross join when absent).
        condition: Option<Expr>,
    },
    /// Hash join on equi-key expressions, with an optional residual filter.
    /// With `semi`, the join only tests existence: each left row is emitted
    /// at most once and the right side's columns are dropped — sound under
    /// `SELECT DISTINCT` when nothing downstream references the right side
    /// (the planner checks both).
    HashJoin {
        /// Left input (probe side by default).
        left: Box<Plan>,
        /// Right input (build side by default).
        right: Box<Plan>,
        /// Key expressions over the left schema.
        left_keys: Vec<Expr>,
        /// Key expressions over the right schema.
        right_keys: Vec<Expr>,
        /// Extra condition checked on joined rows.
        residual: Option<Expr>,
        /// Existence-only semi-join (see type docs).
        semi: bool,
    },
    /// Projection. `visible` marks how many leading items the user asked
    /// for; the remainder are hidden sort keys appended by the planner.
    Project {
        /// Input operator.
        input: Box<Plan>,
        /// Output expressions, visible ones first.
        items: Vec<ProjectItem>,
        /// How many leading items the user asked for.
        visible: usize,
    },
    /// Grouped aggregation producing one row per group; items may contain
    /// aggregate calls.
    Aggregate {
        /// Input operator.
        input: Box<Plan>,
        /// Grouping key expressions (empty = one global group).
        group_by: Vec<Expr>,
        /// Output expressions, possibly containing aggregate calls.
        items: Vec<ProjectItem>,
        /// How many leading items the user asked for.
        visible: usize,
    },
    /// Sort by projected column positions.
    Sort {
        /// Input operator.
        input: Box<Plan>,
        /// Sort keys over the projected row.
        keys: Vec<SortKey>,
    },
    /// Fused `Sort` + `Limit`: retains only the top `offset + limit` rows
    /// in a bounded heap instead of sorting the full input. Chosen by the
    /// planner whenever an `ORDER BY … LIMIT` has no intervening
    /// `DISTINCT`; semantics (including stable tie order) are identical
    /// to `Limit(Sort(input))`.
    TopK {
        /// Input operator.
        input: Box<Plan>,
        /// Sort keys over the projected row.
        keys: Vec<SortKey>,
        /// Maximum rows to return.
        limit: u64,
        /// Rows to skip after sorting.
        offset: u64,
    },
    /// Duplicate elimination over the first `visible` columns.
    Distinct {
        /// Input operator.
        input: Box<Plan>,
        /// Number of leading columns considered for uniqueness.
        visible: usize,
    },
    /// Row-count limiting.
    Limit {
        /// Input operator.
        input: Box<Plan>,
        /// Maximum rows to return (`None` = unlimited).
        limit: Option<u64>,
        /// Rows to skip first.
        offset: u64,
    },
}

impl From<Access> for Plan {
    fn from(access: Access) -> Plan {
        Plan::Access(Box::new(access))
    }
}

/// A sort key: projected column position plus direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column position in the projected row.
    pub column: usize,
    /// Descending order.
    pub descending: bool,
}

impl Plan {
    /// A one-line-per-operator rendering for plan inspection (the moral
    /// equivalent of `EXPLAIN`, which §3.2 leans on for index design).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.describe());
        out.push('\n');
        for child in self.children() {
            child.explain_into(depth + 1, out);
        }
    }

    /// The one-line label of this operator (the line `explain` prints for
    /// it, without children) — shared with the `EXPLAIN ANALYZE` profile
    /// rendering so both views stay in sync.
    pub fn describe(&self) -> String {
        match self {
            Plan::Access(access) => access.describe(),
            Plan::Filter { .. } => "Filter".to_string(),
            Plan::NestedLoopJoin { .. } => "NestedLoopJoin".to_string(),
            Plan::HashJoin {
                left_keys, semi, ..
            } => {
                let kind = if *semi { "HashSemiJoin" } else { "HashJoin" };
                format!("{kind} ({} keys)", left_keys.len())
            }
            Plan::Project { items, visible, .. } => format!(
                "Project [{}]{}",
                items
                    .iter()
                    .take(*visible)
                    .map(|i| i.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
                if items.len() > *visible {
                    " (+hidden sort keys)"
                } else {
                    ""
                },
            ),
            Plan::Aggregate {
                group_by,
                items,
                visible,
                ..
            } => format!(
                "Aggregate groups={} [{}]",
                group_by.len(),
                items
                    .iter()
                    .take(*visible)
                    .map(|i| i.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
            Plan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
            Plan::TopK {
                keys,
                limit,
                offset,
                ..
            } => format!("TopK {limit} OFFSET {offset} ({} keys)", keys.len()),
            Plan::Distinct { .. } => "Distinct".to_string(),
            Plan::Limit { limit, offset, .. } => format!("Limit {limit:?} OFFSET {offset}"),
        }
    }

    /// This operator's inputs, in plan (and `explain`) order.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Access(_) => Vec::new(),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Limit { input, .. } => vec![input],
            Plan::NestedLoopJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Whether any operator in the tree is an index or keyword scan —
    /// used by tests and the index-ablation bench to assert access paths.
    pub fn uses_index(&self) -> bool {
        match self {
            Plan::Access(access) => access.method != AccessMethod::Full,
            _ => self.children().into_iter().any(Plan::uses_index),
        }
    }
}

/// Estimated cardinalities for one plan operator, kept as a parallel tree
/// whose children line up with [`Plan::children`]. `None` means the
/// planner had no basis for a number (e.g. a virtual-table overlay with
/// no tracked row count).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEstimate {
    /// Estimated output rows of this operator.
    pub rows: Option<f64>,
    /// Cumulative estimated rows *processed* by this subtree (scans,
    /// probes, builds and intermediate results) — the planner's cost
    /// unit, also used for the parallel-execution cutover.
    pub cost: Option<f64>,
    /// Child estimates, in [`Plan::children`] order.
    pub children: Vec<PlanEstimate>,
}

impl PlanEstimate {
    /// An all-unknown estimate tree matching `plan`'s shape.
    pub fn unknown(plan: &Plan) -> PlanEstimate {
        PlanEstimate {
            rows: None,
            cost: None,
            children: plan.children().into_iter().map(Self::unknown).collect(),
        }
    }
}

/// The planner's output: a bound plan (see [`crate::bind`]) plus its
/// result header.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The operator tree.
    pub plan: Plan,
    /// The number of user-visible output columns (hidden sort keys follow).
    pub visible: usize,
    /// The names of those `visible` columns — the result set's header.
    pub columns: Vec<String>,
    /// Estimated cardinality per operator, parallel to `plan`.
    pub estimate: PlanEstimate,
}

/// Re-exported for planner convenience.
pub type OrderKeys = Vec<OrderKey>;

/// The typed `EXPLAIN` surface: one node per plan operator carrying the
/// operator label, the planner's row estimate and — after an analyzed run
/// — the observed row count and exclusive wall-time. Built by
/// [`crate::Query::explain`] / [`crate::Query::explain_analyzed`];
/// [`PlanExplain::render`] produces the text form the shell and the wire
/// protocol's EXPLAIN frame print.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplain {
    /// The root operator.
    pub root: PlanExplainNode,
    /// Workers the morsel-parallel executor would use for this plan shape
    /// (1 when the plan must run on the streaming executor).
    pub workers: usize,
}

/// One operator of a [`PlanExplain`] tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplainNode {
    /// Operator label, identical to [`Plan::describe`].
    pub op: String,
    /// The planner's estimated output rows, when it had a basis.
    pub estimated_rows: Option<f64>,
    /// Rows the operator actually produced (analyzed runs only).
    pub actual_rows: Option<u64>,
    /// Exclusive (self) wall-time in nanoseconds (analyzed runs only).
    pub self_time_ns: Option<u64>,
    /// Child operators, in plan order.
    pub children: Vec<PlanExplainNode>,
}

impl PlanExplain {
    /// Builds the explain tree for a planned query (no actuals).
    pub fn from_planned(planned: &PlannedQuery, workers: usize) -> PlanExplain {
        fn node(plan: &Plan, est: &PlanEstimate) -> PlanExplainNode {
            let unknown = PlanEstimate::unknown(plan);
            let children = plan.children();
            // A malformed estimate tree degrades to unknowns, never panics.
            let ests = if est.children.len() == children.len() {
                &est.children
            } else {
                &unknown.children
            };
            PlanExplainNode {
                op: plan.describe(),
                estimated_rows: est.rows,
                actual_rows: None,
                self_time_ns: None,
                children: children
                    .into_iter()
                    .zip(ests)
                    .map(|(p, e)| node(p, e))
                    .collect(),
            }
        }
        PlanExplain {
            root: node(&planned.plan, &planned.estimate),
            workers,
        }
    }

    /// Copies observed row counts and self-times from an executed
    /// profile into matching operators (matched by label and shape).
    pub fn attach_profile(&mut self, profile: &crate::exec::OpProfile) {
        fn walk(node: &mut PlanExplainNode, prof: &crate::exec::OpProfile) {
            if node.op != prof.op {
                return;
            }
            node.actual_rows = Some(prof.rows_out);
            node.self_time_ns = Some(prof.elapsed_ns);
            if node.children.len() == prof.children.len() {
                for (c, p) in node.children.iter_mut().zip(&prof.children) {
                    walk(c, p);
                }
            }
        }
        walk(&mut self.root, profile);
    }

    /// Renders the tree as indented text, one operator per line, followed
    /// by the `parallel=N` summary line — the same shape the string
    /// `EXPLAIN` surface always printed, now with row estimates (and,
    /// when analyzed, actual rows and self-times) appended per operator.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(0, &mut out);
        out.push_str(&format!("parallel={}\n", self.workers));
        out
    }
}

impl PlanExplainNode {
    fn render_into(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.op);
        let mut parts: Vec<String> = Vec::new();
        if let Some(rows) = self.actual_rows {
            parts.push(format!("rows={rows}"));
        }
        if let Some(est) = self.estimated_rows {
            parts.push(format!("est={est:.0}"));
        }
        if let Some(ns) = self.self_time_ns {
            parts.push(format!("self={}", crate::exec::format_ns(ns)));
        }
        if !parts.is_empty() {
            out.push_str("  [");
            out.push_str(&parts.join(" "));
            out.push(']');
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(table: &str) -> Plan {
        Plan::from(Access::new(table, table, None))
    }

    #[test]
    fn explain_renders_tree() {
        let plan = Plan::Limit {
            input: Box::new(Plan::Filter {
                input: Box::new(scan("t")),
                predicate: Expr::lit(1i64),
            }),
            limit: Some(5),
            offset: 0,
        };
        let text = plan.explain();
        assert!(text.contains("Limit Some(5) OFFSET 0"));
        assert!(text.contains("  Filter"));
        assert!(text.contains("    Scan t AS t"));
    }

    #[test]
    fn explain_renders_topk() {
        let plan = Plan::TopK {
            input: Box::new(scan("t")),
            keys: vec![SortKey {
                column: 0,
                descending: true,
            }],
            limit: 3,
            offset: 2,
        };
        let text = plan.explain();
        assert!(text.contains("TopK 3 OFFSET 2 (1 keys)"));
        assert!(text.contains("  Scan t AS t"));
        assert!(!plan.uses_index());
    }

    #[test]
    fn uses_index_detects_access_paths() {
        assert!(!scan("t").uses_index());
        let idx = Plan::from(Access {
            method: AccessMethod::Index {
                index: "i".into(),
                access: IndexAccess::Exact(vec![Value::Int(1)]),
            },
            ..Access::new("t", "t", None)
        });
        assert!(idx.uses_index());
        let join = Plan::NestedLoopJoin {
            left: Box::new(scan("t")),
            right: Box::new(idx),
            condition: None,
        };
        assert!(join.uses_index());
    }

    #[test]
    fn the_leaf_label_says_what_went_where() {
        let residual = Expr::Like {
            expr: Box::new(Expr::col(Some("e"), "s")),
            pattern: Box::new(Expr::lit("x%")),
            negated: false,
        };
        let leaf = Access {
            columns: vec!["a".into(), "b".into(), "s".into()],
            method: AccessMethod::Index {
                index: "i".into(),
                access: IndexAccess::Exact(vec![Value::Int(1)]),
            },
            pushed: vec![SimplePred {
                col: 1,
                op: CmpOp::Lt,
                lit: Value::Int(7),
            }],
            residual: Some(residual),
            output: LeafOutput::Pruned(vec![0, 2]),
            ..Access::new("t", "e", None)
        };
        assert_eq!(
            Plan::from(leaf.clone()).describe(),
            "IndexScan t AS e USING i exact(1 cols) pushed=[e.b < 7] \
             residual=[(e.s LIKE 'x%')] cols=[a, s]"
        );
        let folded = Access {
            method: AccessMethod::Full,
            residual: None,
            output: LeafOutput::Projected(vec![2, 0]),
            ..leaf
        };
        assert_eq!(
            Plan::from(folded).describe(),
            "Scan t AS e pushed=[e.b < 7] residual=[] project=[s, a]"
        );
    }
}
