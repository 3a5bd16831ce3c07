//! The query planner.
//!
//! Compiles a parsed [`SelectStmt`] into a [`PlannedQuery`] in five
//! stages — **qualify** (step 1), **order** (steps 2–4), **build**
//! (step 5), **bind** (step 6) and the **leaf rules** (steps 7–9).
//! Planning mirrors the paper's workflow of shaping indexes until the
//! optimizer picks them (§3.2):
//!
//! 1. `Scope::new` checks the statement's tables and aliases, and
//!    `qualify` binds to the scope's row, in this order: the `WHERE`
//!    conjuncts, then each `ON` clause's, then the select list, then
//!    `GROUP BY` — the stage view analysis and `prepare` share; an
//!    `ORDER BY` key that is a bare name of a select item sorts by that
//!    item, anything else binds like the rest;
//! 2. the conjuncts are partitioned by the tables they mention;
//! 3. each table becomes one leaf ([`Access`]) carrying the conjuncts that
//!    mention only that table — a full scan for now;
//! 4. tables join left-deep, preferring tables connected to the joined
//!    set by an equi-join conjunct (hash join) so unrelated tables do not
//!    cross-product early; nested loops otherwise. When every table in a
//!    component carries `ANALYZE`d statistics the order is *cost-based*:
//!    seeds and join steps are chosen to minimize estimated intermediate
//!    rows, which also places the smaller estimated input on the hash
//!    join's build side. Without statistics the original greedy
//!    connectivity order is kept;
//! 5. aggregation, projection (with hidden sort-key columns), sorting,
//!    `DISTINCT` and `LIMIT` complete the tree;
//! 6. [`bind_plan`] rewrites every column reference the finished tree
//!    carries into a position in its operator's input row — past this
//!    point nothing looks a column up by name;
//! 7. `choose_access` decides how each leaf is read: one classifier
//!    (`sargs_of`) looks at each conjunct of the leaf's bound predicate,
//!    and from that single reading the rule picks the method — a keyword
//!    index for a `CONTAINS`, else the B-tree index with the longest
//!    equality prefix (plus an optional range on the next column), else a
//!    full scan — and splits the predicate into what the method already
//!    guarantees (dropped), what the segment kernels enforce (`pushed`)
//!    and what is left to evaluate per row (`residual`);
//! 8. `pass_keys` lets a hash join pass one side's join keys sideways
//!    to the other side's leaf, when that leaf has an index led by its
//!    join-key columns and the passed keys are estimated to read far
//!    fewer of its rows than its planned method (`KEY_PASS_MARGIN`);
//! 9. `prune_columns` walks the tree once from the root and gives every
//!    leaf — under joins too — the set of columns anything above it
//!    reads, folding a bare-column `Project` directly over a
//!    residual-free leaf into the leaf's output layout.
//!
//! The executors take all of that as given: nothing downstream picks an
//! index, compiles a predicate or computes a column mask.
//!
//! Alongside the operator tree, the planner emits a [`PlanEstimate`] for
//! every node — cardinalities derived from the [`StatsCatalog`]'s row
//! counts, min/max bounds, null fractions and NDV sketches (see
//! `Estimator` for the selectivity model). A leaf's predicate is counted
//! once: `rows = table rows × selectivity(predicate)` whatever the method;
//! the method only changes the cost. Unbound `?` parameters get
//! placeholder selectivities, so prepared statements can be explained
//! before binding.

use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;

use crate::bind::{bind_plan, qualify, Qualified, Scope};
use crate::error::RelResult;
use crate::plan::{
    Access, AccessMethod, IndexAccess, KeyPass, LeafOutput, Plan, PlanEstimate, PlannedQuery,
    ProjectItem, Side, SortKey,
};
use crate::schema::Catalog;
use crate::segment::{CmpOp, SimplePred};
use crate::sql::ast::{BinOp, Expr, SelectStmt};
use crate::stats::{IndexCounts, StatsCatalog};
use crate::value::Value;

/// Plans a `SELECT` statement against the catalog, using `stats` and the
/// indexes' exact distinct-prefix `counts` for cardinality estimation,
/// cost-based join ordering and sideways key passing.
pub fn plan_select(
    stmt: &SelectStmt,
    catalog: &Catalog,
    stats: &StatsCatalog,
    counts: &dyn IndexCounts,
) -> RelResult<PlannedQuery> {
    let scope = Scope::new(stmt.tables(), catalog)?;
    let Qualified {
        mut items,
        conjuncts,
        group_by,
    } = qualify(stmt, &scope)?;

    // Partition conjuncts by the set of aliases they touch.
    let mut single: BTreeMap<String, Vec<Expr>> = BTreeMap::new();
    let mut multi: Vec<Expr> = Vec::new();
    for c in conjuncts {
        let aliases = aliases_in(&c);
        if aliases.len() == 1 {
            let alias = aliases.into_iter().next().expect("one alias");
            single.entry(alias).or_default().push(c);
        } else {
            multi.push(c);
        }
    }

    // One leaf per table, carrying the table's own conjuncts.
    let mut alias_map: BTreeMap<String, String> = BTreeMap::new();
    let mut inputs: Vec<(String, Plan)> = Vec::new();
    for t in scope.tables() {
        let alias = t.alias.to_ascii_lowercase();
        alias_map.insert(alias.clone(), t.table.clone());
        // `choose_access` splits the predicate once it is bound; until
        // then nothing runs this leaf, so it carries no residual copy.
        let leaf = Access {
            predicate: single.remove(&alias).map(and_all),
            ..Access::new(&t.table, &t.alias, None)
        };
        inputs.push((alias, Plan::from(leaf)));
    }

    let visible = items.len();
    let columns = items.iter().map(|i| i.name.clone()).collect();
    let is_aggregate = !group_by.is_empty() || items.iter().any(|i| i.expr.has_aggregate());

    // Sort keys. A bare name that names an output column sorts by the
    // first such column, even when an input column has the same name (as
    // in PostgreSQL and SQLite); any other key reuses a visible item it
    // equals, or else is appended as a hidden item.
    let mut sort_keys: Vec<SortKey> = Vec::new();
    for key in &stmt.order_by {
        let output = match &key.expr {
            Expr::Column {
                table: None, name, ..
            } => items[..visible]
                .iter()
                .position(|i| i.name.eq_ignore_ascii_case(name)),
            _ => None,
        };
        let column = match output {
            Some(pos) => pos,
            None => {
                let bound = scope.bind(&key.expr)?;
                items
                    .iter()
                    .position(|i| i.expr == bound)
                    .unwrap_or_else(|| {
                        let name = format!("__sort_{}", items.len());
                        items.push(ProjectItem { expr: bound, name });
                        items.len() - 1
                    })
            }
        };
        sort_keys.push(SortKey {
            column,
            descending: key.descending,
        });
    }

    // Aliases whose columns are visible to anything above the join tree.
    // Everything above it evaluates against `items` (hidden sort keys
    // included) and `group_by`, all fully resolved by now, so these two
    // collections are exactly the visibility set. A table outside it whose
    // only role is existence-testing can join as a semi-join under
    // DISTINCT.
    let mut output_aliases: HashSet<String> = HashSet::new();
    for item in &items {
        output_aliases.extend(aliases_in(&item.expr));
    }
    for e in &group_by {
        output_aliases.extend(aliases_in(e));
    }

    // Join ordering (the planner-side half of §3.2's "meticulous analysis
    // of the query plans"): tables are first partitioned into connected
    // components of the multi-table-conjunct graph; each component builds
    // a left-deep plan preferring equi-join-connected tables (hash
    // joins), and only the fully *reduced* components are then crossed.
    // Crossing reduced components instead of raw tables keeps queries
    // with independent bindings — the Figure 8 keyword search — from
    // materializing table-sized cross products.
    //
    // When every table in a component has ANALYZEd statistics, the
    // component's members are reordered cost-based before construction:
    // each candidate seed is completed greedily by minimal estimated
    // join output, and the cheapest completion (by total estimated rows
    // processed) wins. The construction loop below then consumes the
    // members in exactly that order.
    let estimator = Estimator {
        catalog,
        stats,
        aliases: &alias_map,
        counts: Some(counts),
        residuals: true,
    };
    let components = connected_components(inputs, &multi);
    let mut component_plans: Vec<Plan> = Vec::new();
    for mut remaining in components {
        order_component(&mut remaining, &multi, &estimator);
        let (first_alias, mut plan) = remaining.remove(0);
        let mut joined: HashSet<String> = HashSet::from([first_alias]);
        while !remaining.is_empty() {
            let next_pos = remaining
                .iter()
                .position(|(alias, _)| {
                    multi
                        .iter()
                        .any(|c| equi_join_keys(c, &joined, alias).is_some())
                })
                .unwrap_or(0);
            let (alias, right) = remaining.remove(next_pos);
            let alias_key = alias.clone();
            // Find equi-join conjuncts connecting the joined set to `alias`.
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            let mut rest = Vec::new();
            for c in std::mem::take(&mut multi) {
                if let Some((lk, rk)) = equi_join_keys(&c, &joined, &alias) {
                    left_keys.push(lk);
                    right_keys.push(rk);
                } else {
                    rest.push(c);
                }
            }
            multi = rest;
            joined.insert(alias);
            // Conjuncts now fully contained in the joined set become
            // residuals of this join step.
            let mut residuals = Vec::new();
            let mut still_pending = Vec::new();
            for c in std::mem::take(&mut multi) {
                if aliases_in(&c).iter().all(|a| joined.contains(a)) {
                    residuals.push(c);
                } else {
                    still_pending.push(c);
                }
            }
            multi = still_pending;
            let residual = if residuals.is_empty() {
                None
            } else {
                Some(and_all(residuals))
            };
            // Semi-join eligibility: under DISTINCT, a table referenced by
            // nothing downstream (projection, ordering, grouping, residual
            // or pending conjuncts) only tests existence; multiplying rows
            // by its matches would be collapsed by DISTINCT anyway.
            let semi = stmt.distinct
                && residual.is_none()
                && !output_aliases.contains(&alias_key)
                && !multi.iter().any(|c| aliases_in(c).contains(&alias_key));
            plan = if left_keys.is_empty() {
                Plan::NestedLoopJoin {
                    left: Box::new(plan),
                    right: Box::new(right),
                    condition: residual,
                }
            } else {
                // Build-side invariant: the executor buffers the *right*
                // input of a HashJoin. Left-deep construction guarantees
                // that input is always a single table's leaf, never an
                // intermediate join result,
                // so build memory is bounded by one base table while the
                // growing join product streams through as the probe.
                // Within that bound the cost-based reorder above already
                // placed the smallest estimated inputs on the build side
                // (when statistics exist).
                Plan::HashJoin {
                    left: Box::new(plan),
                    right: Box::new(right),
                    left_keys,
                    right_keys,
                    residual,
                    semi,
                    pass: None,
                }
            };
        }
        component_plans.push(plan);
    }
    // Cross the reduced components. Any conjuncts still pending span
    // components without being equi-joins; the final cross carries them
    // as its condition.
    let mut component_iter = component_plans.into_iter();
    let mut plan = component_iter.next().expect("at least one component");
    let mut components_left = component_iter.len();
    for right in component_iter {
        components_left -= 1;
        let condition = if components_left == 0 && !multi.is_empty() {
            Some(and_all(std::mem::take(&mut multi)))
        } else {
            None
        };
        plan = Plan::NestedLoopJoin {
            left: Box::new(plan),
            right: Box::new(right),
            condition,
        };
    }
    // Anything left over (possible only for single-component queries with
    // non-equi multi-table conjuncts) goes into a top filter.
    if !multi.is_empty() {
        plan = Plan::Filter {
            input: Box::new(plan),
            predicate: and_all(multi),
        };
    }

    plan = if is_aggregate {
        Plan::Aggregate {
            input: Box::new(plan),
            group_by,
            items,
            visible,
        }
    } else {
        Plan::Project {
            input: Box::new(plan),
            items,
            visible,
        }
    };
    // Fuse `ORDER BY … LIMIT k` into a bounded Top-K instead of a full
    // sort. DISTINCT blocks the fusion: it runs between Sort and Limit,
    // so the limit cannot be pushed below it.
    match stmt.limit {
        Some(limit) if !sort_keys.is_empty() && !stmt.distinct => {
            plan = Plan::TopK {
                input: Box::new(plan),
                keys: sort_keys,
                limit,
                offset: stmt.offset.unwrap_or(0),
            };
        }
        _ => {
            if !sort_keys.is_empty() {
                plan = Plan::Sort {
                    input: Box::new(plan),
                    keys: sort_keys,
                };
            }
            if stmt.distinct {
                plan = Plan::Distinct {
                    input: Box::new(plan),
                    visible,
                };
            }
            if stmt.limit.is_some() || stmt.offset.is_some() {
                plan = Plan::Limit {
                    input: Box::new(plan),
                    limit: stmt.limit,
                    offset: stmt.offset.unwrap_or(0),
                };
            }
        }
    }
    bind_plan(&mut plan, catalog)?;
    let everything = vec![true; width(&plan)];
    finish_leaves(&mut plan, everything, &estimator);
    let estimate = estimator.estimate(&plan);
    Ok(PlannedQuery {
        plan,
        visible,
        columns,
        estimate,
    })
}

pub(crate) fn split_conjuncts(expr: Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

fn and_all(mut exprs: Vec<Expr>) -> Expr {
    let mut acc = exprs.remove(0);
    for e in exprs {
        acc = Expr::binary(BinOp::And, acc, e);
    }
    acc
}

/// Partitions the table inputs into connected components of the
/// multi-table-conjunct graph, preserving declaration order within and
/// across components.
fn connected_components(inputs: Vec<(String, Plan)>, multi: &[Expr]) -> Vec<Vec<(String, Plan)>> {
    // Union-find over alias names.
    let aliases: Vec<String> = inputs.iter().map(|(a, _)| a.clone()).collect();
    let index: BTreeMap<&str, usize> = aliases
        .iter()
        .enumerate()
        .map(|(i, a)| (a.as_str(), i))
        .collect();
    let mut parent: Vec<usize> = (0..aliases.len()).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for c in multi {
        let touched: Vec<usize> = aliases_in(c)
            .into_iter()
            .filter_map(|a| index.get(a.as_str()).copied())
            .collect();
        for pair in touched.windows(2) {
            let (ra, rb) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
            if ra != rb {
                parent[rb] = ra;
            }
        }
    }
    let mut groups: Vec<(usize, Vec<(String, Plan)>)> = Vec::new();
    for (i, input) in inputs.into_iter().enumerate() {
        let root = find(&mut parent, i);
        match groups.iter_mut().find(|(r, _)| *r == root) {
            Some((_, members)) => members.push(input),
            None => groups.push((root, vec![input])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// The lowercase aliases referenced by an expression.
fn aliases_in(expr: &Expr) -> HashSet<String> {
    fn walk(expr: &Expr, out: &mut HashSet<String>) {
        if let Expr::Column { table: Some(t), .. } = expr {
            out.insert(t.to_ascii_lowercase());
        }
        for child in expr.children() {
            walk(child, out);
        }
    }
    let mut out = HashSet::new();
    walk(expr, &mut out);
    out
}

/// If `c` is `lhs = rhs` with one side referencing only `joined` aliases
/// and the other only `new_alias`, returns `(left_key, right_key)`.
pub(crate) fn equi_join_keys(
    c: &Expr,
    joined: &HashSet<String>,
    new_alias: &str,
) -> Option<(Expr, Expr)> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    let la = aliases_in(left);
    let ra = aliases_in(right);
    let only_joined = |s: &HashSet<String>| !s.is_empty() && s.iter().all(|a| joined.contains(a));
    let only_new = |s: &HashSet<String>| s.len() == 1 && s.contains(new_alias);
    if only_joined(&la) && only_new(&ra) {
        Some(((**left).clone(), (**right).clone()))
    } else if only_joined(&ra) && only_new(&la) {
        Some(((**right).clone(), (**left).clone()))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

/// Default selectivities used when statistics are missing — or when the
/// compared value is an unbound `?` parameter, which is what makes
/// `EXPLAIN` of a prepared statement meaningful before binding.
const DEFAULT_EQ_SEL: f64 = 0.1;
const DEFAULT_RANGE_SEL: f64 = 0.3;
const DEFAULT_SEL: f64 = 0.25;
const KEYWORD_SEL: f64 = 0.1;
const DEFAULT_JOIN_SEL: f64 = 0.1;
/// Selectivity floor keeping estimates nonzero so costs stay ordered.
const MIN_SEL: f64 = 1e-4;

/// The planner's cardinality model over the [`StatsCatalog`]:
///
/// * base rows — the maintained exact row count per table;
/// * `col = lit` — `1/NDV`, or the floor when `lit` falls outside the
///   column's min/max bounds;
/// * numeric ranges — the covered fraction of the `[min, max]` interval;
/// * `IS [NOT] NULL` — the measured null fraction;
/// * equi-joins — `|L|·|R| / max(NDV(l), NDV(r))` per key pair;
/// * everything else (and unbound parameters) — fixed defaults.
///
/// A table with no `ANALYZE`d column statistics still has exact index
/// counts ([`IndexCounts`]): an exact index probe binding `k` key columns
/// reads `rows / distinct_prefixes[k - 1]`, and a column that leads an
/// index takes its NDV from `distinct_prefixes[0]`. `ANALYZE` wins where
/// it ran.
#[derive(Clone, Copy)]
pub(crate) struct Estimator<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) stats: &'a StatsCatalog,
    /// Lowercase alias → table name for every table in scope.
    pub(crate) aliases: &'a BTreeMap<String, String>,
    /// The live indexes' distinct-prefix counts, when planning a query.
    pub(crate) counts: Option<&'a dyn IndexCounts>,
    /// Whether a hash join's residual filters its estimated rows.
    pub(crate) residuals: bool,
}

impl Estimator<'_> {
    fn table_rows(&self, table: &str) -> Option<f64> {
        Some(self.stats.table(table)?.row_count as f64)
    }

    /// `index`'s distinct-prefix counts, for a table without `ANALYZE`d
    /// column statistics.
    fn prefix_counts(&self, table: &str, index: &str) -> Option<&[usize]> {
        let stats = self.stats.table(table);
        if stats.is_some_and(crate::stats::TableStats::analyzed) {
            return None;
        }
        self.counts?.distinct_prefixes(index)
    }

    /// The fraction of `table` an exact probe of `index` binding `k` key
    /// columns returns, from the index's own counts.
    fn probe_fraction(&self, table: &str, index: &str, k: usize) -> Option<f64> {
        let distinct = *self.prefix_counts(table, index)?.get(k.checked_sub(1)?)?;
        (distinct > 0).then(|| 1.0 / distinct as f64)
    }

    /// Whether the table bound under `alias` has ANALYZEd column stats.
    fn alias_analyzed(&self, alias: &str) -> bool {
        self.aliases
            .get(&alias.to_ascii_lowercase())
            .and_then(|t| self.stats.table(t))
            .is_some_and(crate::stats::TableStats::analyzed)
    }

    /// Column statistics (plus the rows they were scanned over) for a
    /// simple column reference, when that table was analyzed.
    fn column_stats(&self, e: &Expr) -> Option<(u64, &crate::stats::ColumnStats)> {
        let Expr::Column {
            table: Some(alias),
            name,
            ..
        } = e
        else {
            return None;
        };
        let table = self.aliases.get(&alias.to_ascii_lowercase())?;
        let ts = self.stats.table(table)?;
        Some((ts.analyzed_rows, ts.column(name)?))
    }

    /// NDV of a join-key expression (simple columns only): from `ANALYZE`,
    /// else from the count of an index the column leads.
    fn key_ndv(&self, e: &Expr) -> Option<f64> {
        if let Some((_, col)) = self.column_stats(e) {
            return Some(col.ndv.max(1) as f64);
        }
        let Expr::Column {
            table: Some(alias),
            name,
            ..
        } = e
        else {
            return None;
        };
        let table = self.aliases.get(&alias.to_ascii_lowercase())?;
        let distinct = self
            .catalog
            .indexes_on(table)
            .into_iter()
            .filter(|def| !def.keyword && def.columns[0].eq_ignore_ascii_case(name))
            .find_map(|def| self.prefix_counts(table, &def.name)?.first().copied())?;
        Some(distinct.max(1) as f64)
    }

    /// Estimated selectivity of `predicate` in `[MIN_SEL, 1]`.
    fn selectivity(&self, predicate: &Expr) -> f64 {
        let raw = match predicate {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => self.selectivity(left) * self.selectivity(right),
            Expr::Binary {
                op: BinOp::Or,
                left,
                right,
            } => {
                let (l, r) = (self.selectivity(left), self.selectivity(right));
                l + r - l * r
            }
            Expr::Binary { op, left, right } if op.is_comparison() => {
                self.comparison_selectivity(*op, left, right)
            }
            Expr::Not(e) => 1.0 - self.selectivity(e),
            Expr::IsNull { expr, negated } => {
                let frac = match self.column_stats(expr) {
                    Some((rows, col)) => col.null_fraction(rows),
                    None => 0.05,
                };
                if *negated {
                    1.0 - frac
                } else {
                    frac
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let eq = self.eq_selectivity(expr, None);
                let sel = (eq * list.len() as f64).min(1.0);
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let sel = self.range_selectivity(
                    expr,
                    literal_value(low).map(Bound::Included),
                    literal_value(high).map(Bound::Included),
                );
                if *negated {
                    1.0 - sel
                } else {
                    sel
                }
            }
            Expr::Contains { .. } => KEYWORD_SEL,
            Expr::Like { .. } | Expr::Matches { .. } => DEFAULT_SEL,
            // A constant predicate filters everything or nothing; assume
            // the common `WHERE 1 = 1`-style tautology shape.
            Expr::Literal(_) => 1.0,
            _ => DEFAULT_SEL,
        };
        raw.clamp(MIN_SEL, 1.0)
    }

    /// `col <op> value` (either orientation). Unbound parameters get the
    /// same defaults as stats-less columns.
    fn comparison_selectivity(&self, op: BinOp, left: &Expr, right: &Expr) -> f64 {
        // Normalize to column-op-value.
        let (col, value, op) = if matches!(left, Expr::Column { .. }) {
            (left, right, op)
        } else if matches!(right, Expr::Column { .. }) {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => other,
            };
            (right, left, flipped)
        } else {
            return DEFAULT_SEL;
        };
        match op {
            BinOp::Eq => self.eq_selectivity(col, literal_value(value)),
            BinOp::Ne => 1.0 - self.eq_selectivity(col, literal_value(value)),
            BinOp::Lt => {
                self.range_selectivity(col, None, literal_value(value).map(Bound::Excluded))
            }
            BinOp::Le => {
                self.range_selectivity(col, None, literal_value(value).map(Bound::Included))
            }
            BinOp::Gt => {
                self.range_selectivity(col, literal_value(value).map(Bound::Excluded), None)
            }
            BinOp::Ge => {
                self.range_selectivity(col, literal_value(value).map(Bound::Included), None)
            }
            _ => DEFAULT_SEL,
        }
    }

    /// `col = value`: `1/NDV`, the floor when `value` lies outside the
    /// column's bounds, or the default without stats / with a parameter.
    fn eq_selectivity(&self, col: &Expr, value: Option<&Value>) -> f64 {
        let Some((_, stats)) = self.column_stats(col) else {
            return DEFAULT_EQ_SEL;
        };
        if let (Some(v), Some(min), Some(max)) = (value, &stats.min, &stats.max) {
            let below = v.compare(min).is_some_and(|o| o.is_lt());
            let above = v.compare(max).is_some_and(|o| o.is_gt());
            if below || above {
                return MIN_SEL;
            }
        }
        1.0 / stats.ndv.max(1) as f64
    }

    /// Fraction of the column's `[min, max]` interval a numeric range
    /// covers; the default for text columns or missing stats/bounds.
    fn range_selectivity(
        &self,
        col: &Expr,
        lower: Option<Bound<&Value>>,
        upper: Option<Bound<&Value>>,
    ) -> f64 {
        let Some((_, stats)) = self.column_stats(col) else {
            return DEFAULT_RANGE_SEL;
        };
        let (Some(min), Some(max)) = (&stats.min, &stats.max) else {
            return DEFAULT_RANGE_SEL;
        };
        let (Some(min), Some(max)) = (min.as_f64(), max.as_f64()) else {
            return DEFAULT_RANGE_SEL;
        };
        let bound_f64 = |b: &Option<Bound<&Value>>| match b {
            Some(Bound::Included(v)) | Some(Bound::Excluded(v)) => v.as_f64(),
            _ => None,
        };
        let lo = match (&lower, bound_f64(&lower)) {
            (None, _) => min,
            (Some(_), Some(v)) => v,
            (Some(_), None) => return DEFAULT_RANGE_SEL,
        };
        let hi = match (&upper, bound_f64(&upper)) {
            (None, _) => max,
            (Some(_), Some(v)) => v,
            (Some(_), None) => return DEFAULT_RANGE_SEL,
        };
        if max <= min {
            // Single-valued column: the range either covers it or not.
            return if lo <= min && hi >= max { 1.0 } else { MIN_SEL };
        }
        ((hi.min(max) - lo.max(min)) / (max - min)).clamp(0.0, 1.0)
    }

    /// Selectivity of one equi-join key pair: `1 / max(NDV_l, NDV_r)`.
    fn join_key_selectivity(&self, left_key: &Expr, right_key: &Expr) -> f64 {
        match (self.key_ndv(left_key), self.key_ndv(right_key)) {
            (Some(l), Some(r)) => 1.0 / l.max(r),
            (Some(n), None) | (None, Some(n)) => 1.0 / n,
            (None, None) => DEFAULT_JOIN_SEL,
        }
    }

    /// Estimated fraction of the table an index access returns.
    fn index_selectivity(&self, table: &str, index: &str, access: &IndexAccess) -> f64 {
        let Some(def) = self
            .catalog
            .indexes_on(table)
            .into_iter()
            .find(|d| d.name.eq_ignore_ascii_case(index))
        else {
            return DEFAULT_EQ_SEL;
        };
        let col_expr = |name: &str| Expr::Column {
            // Any alias of this table works: stats are per table.
            table: self
                .aliases
                .iter()
                .find(|(_, t)| t.eq_ignore_ascii_case(table))
                .map(|(a, _)| a.clone()),
            name: name.to_string(),
            ordinal: None,
        };
        if let IndexAccess::Exact(values) = access {
            if let Some(fraction) = self.probe_fraction(table, &def.name, values.len()) {
                return fraction;
            }
        }
        let (values, range) = match access {
            IndexAccess::Exact(values) => (values.as_slice(), None),
            IndexAccess::Range {
                prefix,
                lower,
                upper,
            } => (prefix.as_slice(), Some((lower, upper))),
        };
        let mut sel = 1.0;
        for (col, value) in def.columns.iter().zip(values) {
            sel *= self.eq_selectivity(&col_expr(col), Some(value));
        }
        if let (Some((lower, upper)), Some(col)) = (range, def.columns.get(values.len())) {
            fn as_opt(b: &Bound<Value>) -> Option<Bound<&Value>> {
                match b {
                    Bound::Included(v) => Some(Bound::Included(v)),
                    Bound::Excluded(v) => Some(Bound::Excluded(v)),
                    Bound::Unbounded => None,
                }
            }
            sel *= self.range_selectivity(&col_expr(col), as_opt(lower), as_opt(upper));
        }
        sel.clamp(MIN_SEL, 1.0)
    }

    /// Builds the estimate tree for a finished plan, bottom-up. `rows`
    /// stays `None` below tables with no tracked row count (virtual-table
    /// overlays), and costs accumulate estimated rows processed.
    pub(crate) fn estimate(&self, plan: &Plan) -> PlanEstimate {
        let children: Vec<PlanEstimate> = plan
            .children()
            .into_iter()
            .map(|c| self.estimate(c))
            .collect();
        let floor = |r: f64| r.max(1.0);
        let (rows, cost) = match plan {
            Plan::Access(access) => (self.leaf_rows(access), self.leaf_read(access)),
            Plan::Filter { predicate, .. } => {
                let input = &children[0];
                let rows = input.rows.map(|r| floor(r * self.selectivity(predicate)));
                (rows, add(input.cost, input.rows))
            }
            Plan::NestedLoopJoin { condition, .. } => {
                let (l, r) = (&children[0], &children[1]);
                let sel = condition.as_ref().map_or(1.0, |c| self.selectivity(c));
                let product = mul(l.rows, r.rows);
                let rows = product.map(|p| floor(p * sel));
                (rows, add(add(l.cost, r.cost), product))
            }
            Plan::HashJoin {
                left_keys,
                right_keys,
                residual,
                semi,
                ..
            } => {
                let (l, r) = (&children[0], &children[1]);
                let mut sel: f64 = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(lk, rk)| self.join_key_selectivity(lk, rk))
                    .product();
                if let (true, Some(res)) = (self.residuals, residual) {
                    sel *= self.selectivity(res);
                }
                let mut rows = mul(l.rows, r.rows).map(|p| floor(p * sel.max(MIN_SEL)));
                if *semi {
                    rows = match (rows, l.rows) {
                        (Some(o), Some(probe)) => Some(o.min(probe)),
                        (o, _) => o,
                    };
                }
                // Build the right side, probe with the left, emit `rows`.
                let cost = add(add(add(l.cost, r.cost), add(l.rows, r.rows)), rows);
                (rows, cost)
            }
            Plan::Project { .. } | Plan::Sort { .. } | Plan::Distinct { .. } => {
                let input = &children[0];
                (input.rows, add(input.cost, input.rows))
            }
            Plan::Aggregate { group_by, .. } => {
                let input = &children[0];
                let groups = group_by
                    .iter()
                    .map(|e| self.key_ndv(e))
                    .try_fold(1.0, |acc, ndv| ndv.map(|n| acc * n));
                let rows = if group_by.is_empty() {
                    Some(1.0)
                } else {
                    match (input.rows, groups) {
                        (Some(r), Some(g)) => Some(g.min(r).max(1.0)),
                        (r, _) => r,
                    }
                };
                (rows, add(input.cost, input.rows))
            }
            Plan::TopK { limit, offset, .. } => {
                let input = &children[0];
                let cap = (limit + offset) as f64;
                let rows = input.rows.map(|r| r.min(cap)).or(Some(cap));
                (
                    rows.map(|r| r.min(*limit as f64)),
                    add(input.cost, input.rows),
                )
            }
            Plan::Limit { limit, offset, .. } => {
                let input = &children[0];
                let rows = match limit {
                    Some(l) => Some(
                        input
                            .rows
                            .map_or(*l as f64, |r| (r - *offset as f64).max(0.0).min(*l as f64)),
                    ),
                    None => input.rows.map(|r| (r - *offset as f64).max(0.0)),
                };
                (rows, add(input.cost, rows))
            }
        };
        PlanEstimate {
            rows,
            cost,
            children,
        }
    }
}

impl Estimator<'_> {
    /// The method a leaf was planned with: a key-passing leaf falls back
    /// to it, and is sized by it.
    fn planned(access: &Access) -> &AccessMethod {
        match &access.method {
            AccessMethod::JoinKeys { planned, .. } => planned,
            method => method,
        }
    }

    /// The rows a leaf emits. The predicate counts once, whatever
    /// enforces it; only an exact probe sized by its index's own counts
    /// stands in for the `=` conjuncts that supplied its key.
    fn leaf_rows(&self, access: &Access) -> Option<f64> {
        let table = self.table_rows(&access.table)?;
        let Some(predicate) = &access.predicate else {
            return Some(table);
        };
        let mut sel = self.selectivity(predicate);
        if let AccessMethod::Index {
            index,
            access: IndexAccess::Exact(values),
        } = Self::planned(access)
        {
            if let Some(fraction) = self.probe_fraction(&access.table, index, values.len()) {
                let def = self
                    .catalog
                    .indexes_on(&access.table)
                    .into_iter()
                    .find(|d| d.name.eq_ignore_ascii_case(index));
                let bound: Vec<usize> = def
                    .iter()
                    .flat_map(|d| &d.columns[..values.len()])
                    .filter_map(|c| {
                        access
                            .columns
                            .iter()
                            .position(|n| n.eq_ignore_ascii_case(c))
                    })
                    .collect();
                let mut conjuncts = Vec::new();
                split_conjuncts(predicate.clone(), &mut conjuncts);
                sel = fraction;
                for conjunct in &conjuncts {
                    let binds_key = matches!(sargs_of(conjunct).as_deref(),
                        Some([SimplePred { col, op: CmpOp::Eq, .. }]) if bound.contains(col));
                    if !binds_key {
                        sel *= self.selectivity(conjunct);
                    }
                }
            }
        }
        Some((table * sel.clamp(MIN_SEL, 1.0)).max(1.0))
    }

    /// The rows a leaf reads by its planned method.
    fn leaf_read(&self, access: &Access) -> Option<f64> {
        let table = self.table_rows(&access.table)?;
        let fraction = match Self::planned(access) {
            AccessMethod::Full | AccessMethod::JoinKeys { .. } => return Some(table),
            AccessMethod::Index { index, access: how } => {
                self.index_selectivity(&access.table, index, how)
            }
            AccessMethod::Keyword { .. } => KEYWORD_SEL,
        };
        Some((table * fraction).max(1.0))
    }
}

/// `Some(a + b)` when both known.
fn add(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    Some(a? + b?)
}

/// `Some(a * b)` when both known.
fn mul(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    Some(a? * b?)
}

fn literal_value(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) if !v.is_null() => Some(v),
        _ => None,
    }
}

/// Cost-based reordering of one join component's members. Active only
/// when *every* member's table carries ANALYZEd statistics; otherwise the
/// declaration order (which the greedy connectivity loop consumes) is
/// kept. Each member is tried as the left-deep seed and the completion
/// proceeds greedily by minimal estimated join output; the completion
/// with the least total estimated rows processed wins. Because each
/// later member joins as the hash build side, picking small estimated
/// outputs also means building over the smallest estimated inputs.
fn order_component(members: &mut Vec<(String, Plan)>, multi: &[Expr], est: &Estimator<'_>) {
    if members.len() < 2 || !members.iter().all(|(alias, _)| est.alias_analyzed(alias)) {
        return;
    }
    let rows: Vec<f64> = members
        .iter()
        .map(|(_, plan)| est.estimate(plan).rows.unwrap_or(f64::MAX))
        .collect();
    // Estimated output of joining the current set (cardinality `cur`,
    // aliases `joined`) with member `i`.
    let join_out = |joined: &HashSet<String>, cur: f64, i: usize| -> f64 {
        let alias = &members[i].0;
        let mut sel = 1.0;
        let mut connected = false;
        for c in multi {
            if let Some((lk, rk)) = equi_join_keys(c, joined, alias) {
                connected = true;
                sel *= est.join_key_selectivity(&lk, &rk);
            }
        }
        if !connected {
            sel = DEFAULT_JOIN_SEL; // residual-filtered nested loop
        }
        (cur * rows[i] * sel).max(1.0)
    };
    let mut best: Option<(f64, Vec<usize>)> = None;
    for seed in 0..members.len() {
        let mut order = vec![seed];
        let mut joined: HashSet<String> = HashSet::from([members[seed].0.clone()]);
        let mut cur = rows[seed];
        let mut total = 0.0;
        while order.len() < members.len() {
            let mut next: Option<(f64, usize)> = None;
            let connectable = |i: usize| {
                multi
                    .iter()
                    .any(|c| equi_join_keys(c, &joined, &members[i].0).is_some())
            };
            let any_connectable = (0..members.len()).any(|i| !order.contains(&i) && connectable(i));
            for i in 0..members.len() {
                if order.contains(&i) || (any_connectable && !connectable(i)) {
                    continue;
                }
                let out = join_out(&joined, cur, i);
                if next.is_none_or(|(best_out, _)| out < best_out) {
                    next = Some((out, i));
                }
            }
            let (out, i) = next.expect("member left to join");
            // Build rows[i], probe cur, emit out.
            total += rows[i] + cur + out;
            cur = out;
            joined.insert(members[i].0.clone());
            order.push(i);
        }
        if best.as_ref().is_none_or(|(t, _)| total < *t) {
            best = Some((total, order));
        }
    }
    let (_, order) = best.expect("non-empty component");
    let mut taken: Vec<Option<(String, Plan)>> =
        std::mem::take(members).into_iter().map(Some).collect();
    *members = order
        .into_iter()
        .map(|i| taken[i].take().expect("each member used once"))
        .collect();
}

// ---------------------------------------------------------------------------
// The leaf rules: access path and column set
// ---------------------------------------------------------------------------

/// Runs the planner's last rules over a bound plan: every leaf gets its
/// access path, hash joins pass keys where that pays, and every leaf gets
/// its column set, where `needed` marks the columns of `plan`'s own output
/// that its consumer reads.
fn finish_leaves(plan: &mut Plan, needed: Vec<bool>, est: &Estimator<'_>) {
    fn each_leaf(plan: &mut Plan, rule: &mut dyn FnMut(&mut Access)) {
        match plan {
            Plan::Access(access) => rule(access),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Limit { input, .. } => each_leaf(input, rule),
            Plan::NestedLoopJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
                each_leaf(left, rule);
                each_leaf(right, rule);
            }
        }
    }
    each_leaf(plan, &mut |access| {
        choose_access(access, est.catalog, est.stats)
    });
    pass_keys(plan, est);
    prune_columns(plan, needed);
}

/// The leaf `UPDATE`/`DELETE` find their target rows with: `table`'s rows
/// matching `filter`, planned by the same rules as a query's leaves and
/// materializing only what its residual reads.
pub(crate) fn plan_access(
    table: &str,
    filter: Option<&Expr>,
    catalog: &Catalog,
    stats: &StatsCatalog,
) -> RelResult<Access> {
    let mut plan = Plan::from(Access::new(table, table, filter.cloned()));
    bind_plan(&mut plan, catalog)?;
    let nothing = vec![false; width(&plan)];
    let est = Estimator {
        catalog,
        stats,
        aliases: &BTreeMap::new(),
        counts: None,
        residuals: true,
    };
    finish_leaves(&mut plan, nothing, &est);
    match plan {
        Plan::Access(access) => Ok(*access),
        _ => unreachable!("the rules keep a leaf a leaf"),
    }
}

/// Whether evaluating `expr` can never return an error: only literals,
/// bound column references, comparisons, `AND`/`OR`/`NOT`,
/// `IS NULL`, `IN` and `BETWEEN`. Arithmetic (overflow, division),
/// `LIKE`/`CONTAINS`/`MATCHES` (type errors), parameters and aggregates
/// are all fallible. Kernels may pre-filter only under a predicate that is
/// infallible as a whole: early-dropping a row must not suppress an error
/// the reference executor would raise.
fn expr_infallible(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) => true,
        Expr::Column { ordinal, .. } => ordinal.is_some(),
        Expr::Binary { op, .. }
            if !(op.is_comparison() || matches!(op, BinOp::And | BinOp::Or)) =>
        {
            false
        }
        Expr::Binary { .. }
        | Expr::Not(_)
        | Expr::IsNull { .. }
        | Expr::InList { .. }
        | Expr::Between { .. } => expr.children().into_iter().all(expr_infallible),
        _ => false,
    }
}

/// The one conjunct classifier: what a conjunct of a leaf's bound
/// predicate says in the only vocabulary kernels, zone maps and B-tree
/// indexes share. `column <cmp> literal` (either orientation) is one
/// [`SimplePred`]; a non-negated `column BETWEEN literal AND literal` is
/// its `>=`/`<=` pair; anything else is `None`.
///
/// The kernels mirror [`Value::compare`] for every column/literal type
/// combination (cross-type and NULL comparisons drop everything, just as
/// three-valued logic drops false-or-unknown), so a conjunct that
/// classifies is enforced row-exactly by its kernels and needs no
/// re-evaluation.
fn sargs_of(conjunct: &Expr) -> Option<Vec<SimplePred>> {
    let column = |e: &Expr| match e {
        Expr::Column { ordinal, .. } => *ordinal,
        _ => None,
    };
    let pred = |col, op, lit: &Value| SimplePred {
        col,
        op,
        lit: lit.clone(),
    };
    match conjunct {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let op = match op {
                BinOp::Eq => CmpOp::Eq,
                BinOp::Ne => CmpOp::Ne,
                BinOp::Lt => CmpOp::Lt,
                BinOp::Le => CmpOp::Le,
                BinOp::Gt => CmpOp::Gt,
                _ => CmpOp::Ge,
            };
            match (&**left, &**right) {
                (col, Expr::Literal(lit)) => Some(vec![pred(column(col)?, op, lit)]),
                (Expr::Literal(lit), col) => Some(vec![pred(column(col)?, op.flip(), lit)]),
                _ => None,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match (&**low, &**high) {
            (Expr::Literal(lo), Expr::Literal(hi)) => {
                let col = column(expr)?;
                Some(vec![pred(col, CmpOp::Ge, lo), pred(col, CmpOp::Le, hi)])
            }
            _ => None,
        },
        _ => None,
    }
}

/// Rule: the access path. Reads each conjunct of the leaf's bound
/// predicate once ([`sargs_of`]), picks the method ([`choose_method`]),
/// and splits the predicate three ways: conjuncts the method enforces by
/// itself are dropped; the rest go to the kernels where they classify —
/// and only if the predicate as a whole is infallible — and to the
/// residual otherwise, in their original order.
fn choose_access(access: &mut Access, catalog: &Catalog, stats: &StatsCatalog) {
    let Some(predicate) = &access.predicate else {
        return;
    };
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate.clone(), &mut conjuncts);
    let sargs: Vec<_> = conjuncts.iter().map(sargs_of).collect();
    let (method, enforced) = choose_method(access, &conjuncts, &sargs, catalog, stats);
    access.method = method;
    split_predicate(access, &enforced);
}

/// Splits the leaf's predicate between the kernels (`pushed`) and the
/// `residual`, leaving out the conjuncts at the positions in `enforced`,
/// which the leaf's method guarantees by itself.
fn split_predicate(access: &mut Access, enforced: &[usize]) {
    let Some(predicate) = &access.predicate else {
        return;
    };
    let pushable = expr_infallible(predicate);
    let mut conjuncts = Vec::new();
    split_conjuncts(predicate.clone(), &mut conjuncts);
    let mut residual = Vec::new();
    access.pushed.clear();
    for (i, conjunct) in conjuncts.into_iter().enumerate() {
        match sargs_of(&conjunct) {
            _ if enforced.contains(&i) => {}
            Some(preds) if pushable => access.pushed.extend(preds),
            _ => residual.push(conjunct),
        }
    }
    access.residual = (!residual.is_empty()).then(|| and_all(residual));
}

/// How much cheaper reading a leaf under passed keys must look than its
/// planned read before a join passes it keys: the estimates behind both
/// sides are rough, a keyed read pays one B-tree probe per key besides
/// its rows, and the side that runs first is buffered whole. The exec
/// bench's `join/key_passing` rows put one key's probe at about the cost
/// of reading a few dozen rows in a scan (see CHANGES.md).
const KEY_PASS_MARGIN: f64 = 4.0;

/// Rule: sideways key passing. At each hash join, when one side `S` is
/// estimated so small that the other side's leaf `O` would read
/// `KEY_PASS_MARGIN` times fewer rows under `S`'s join keys than by its
/// planned method, `O` becomes an [`AccessMethod::JoinKeys`] leaf over an
/// index led by its join-key columns, and the join records the
/// [`KeyPass`]. `O` must be unable to raise an error (its predicate and
/// join keys are infallible), so reading fewer of its rows, or reading
/// them after `S`, changes nothing the join emits or raises. Where both
/// sides qualify, the larger saving wins.
fn pass_keys(plan: &mut Plan, est: &Estimator<'_>) {
    match plan {
        Plan::Access(_) => {}
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::TopK { input, .. }
        | Plan::Distinct { input, .. }
        | Plan::Limit { input, .. } => pass_keys(input, est),
        Plan::NestedLoopJoin { left, right, .. } => {
            pass_keys(left, est);
            pass_keys(right, est);
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            pass,
            ..
        } => {
            pass_keys(left, est);
            pass_keys(right, est);
            let into_left = est.key_pass(left, left_keys, right);
            let into_right = est.key_pass(right, right_keys, left);
            let (side, target, choice) = match (into_left, into_right) {
                (Some(l), Some(r)) if r.0 > l.0 => (Side::Right, right, r),
                (Some(l), _) => (Side::Left, left, l),
                (None, Some(r)) => (Side::Right, right, r),
                (None, None) => return,
            };
            let Plan::Access(leaf) = &mut **target else {
                unreachable!("only a leaf takes keys")
            };
            let (_, index, keys) = choice;
            let planned = std::mem::take(&mut leaf.method);
            leaf.method = AccessMethod::JoinKeys {
                index,
                columns: keys.len(),
                planned: Box::new(planned),
            };
            split_predicate(leaf, &[]);
            *pass = Some(KeyPass { into: side, keys });
        }
    }
}

impl Estimator<'_> {
    /// Whether the join should pass `source`'s keys to `target`: if so,
    /// the estimated rows saved, the index, and per leading index column
    /// the position of the join key (in `keys`, `target`'s side) that
    /// supplies it.
    fn key_pass(
        &self,
        target: &Plan,
        keys: &[Expr],
        source: &Plan,
    ) -> Option<(f64, String, Vec<usize>)> {
        let Plan::Access(leaf) = target else {
            return None;
        };
        let plannable = matches!(leaf.method, AccessMethod::Full | AccessMethod::Index { .. });
        let infallible =
            leaf.predicate.as_ref().is_none_or(expr_infallible) && keys.iter().all(expr_infallible);
        if !plannable || !infallible {
            return None;
        }
        let rows = self.table_rows(&leaf.table)?;
        let column = |name: &String| {
            let pos = leaf
                .columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(name))?;
            keys.iter()
                .position(|k| matches!(k, Expr::Column { ordinal: Some(o), .. } if *o == pos))
        };
        let (rows_per_key, index, positions) = self
            .catalog
            .indexes_on(&leaf.table)
            .into_iter()
            .filter(|def| !def.keyword)
            .filter_map(|def| {
                let positions: Vec<usize> = def.columns.iter().map_while(column).collect();
                let counts = self.counts?.distinct_prefixes(&def.name)?;
                let distinct = *counts.get(positions.len().checked_sub(1)?)?;
                Some((rows / distinct.max(1) as f64, def.name.clone(), positions))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))?;
        // Residuals are left out of the side that runs first: their
        // default selectivities compound over a join chain, while what
        // counts here, its distinct join keys, they seldom thin out.
        let unfiltered = Estimator {
            residuals: false,
            ..*self
        };
        let keyed = unfiltered.estimate(source).rows? * rows_per_key;
        let planned = self.leaf_read(leaf)?;
        (keyed * KEY_PASS_MARGIN <= planned).then_some((planned - keyed, index, positions))
    }
}

/// The cheapest method for a leaf, and the positions of the conjuncts it
/// enforces by itself: the `column = literal` conjuncts whose literals
/// became the key of an index probe. The index compares keys by
/// [`Value::total_cmp`], which equates exactly what SQL `=` equates as
/// long as the literal is neither NULL nor NaN, so those are never keys.
/// Range conjuncts bound a probe but stay in the predicate.
///
/// When the table carries `ANALYZE`d statistics, a partially-bound index
/// whose estimated selectivity would still return most of the table loses
/// to a plain scan.
fn choose_method(
    access: &Access,
    conjuncts: &[Expr],
    sargs: &[Option<Vec<SimplePred>>],
    catalog: &Catalog,
    stats: &StatsCatalog,
) -> (AccessMethod, Vec<usize>) {
    let indexes = catalog.indexes_on(&access.table);
    let position = |name: &String| {
        access
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    };

    // Keyword index first: a CONTAINS hit through the inverted index is the
    // paper's purpose-built fast path for keyword queries.
    for conjunct in conjuncts {
        let Expr::Contains { column, keyword } = conjunct else {
            continue;
        };
        let (Expr::Column { ordinal, .. }, Expr::Literal(Value::Text(keyword))) =
            (&**column, &**keyword)
        else {
            continue;
        };
        let on_column = indexes
            .iter()
            .find(|def| def.keyword && ordinal.is_some() && position(&def.columns[0]) == *ordinal);
        if let Some(def) = on_column {
            let method = AccessMethod::Keyword {
                index: def.name.clone(),
                keyword: keyword.clone(),
            };
            return (method, Vec::new());
        }
    }

    // What an index can use, per column: the literal of the last `=` (and
    // which conjunct supplied it), and the bounds of the range conjuncts,
    // a later one overriding an earlier one on the same side.
    let mut eq: BTreeMap<usize, (&Value, usize)> = BTreeMap::new();
    let mut ranges: BTreeMap<usize, (Bound<Value>, Bound<Value>)> = BTreeMap::new();
    for (i, preds) in sargs.iter().enumerate() {
        for pred in preds.iter().flatten() {
            if pred.lit.is_null() || matches!(pred.lit, Value::Float(f) if f.is_nan()) {
                continue;
            }
            match pred.op {
                CmpOp::Eq => {
                    eq.insert(pred.col, (&pred.lit, i));
                }
                CmpOp::Ne => {}
                op => {
                    let range = ranges
                        .entry(pred.col)
                        .or_insert((Bound::Unbounded, Bound::Unbounded));
                    let lit = pred.lit.clone();
                    match op {
                        CmpOp::Lt => range.1 = Bound::Excluded(lit),
                        CmpOp::Le => range.1 = Bound::Included(lit),
                        CmpOp::Gt => range.0 = Bound::Excluded(lit),
                        _ => range.0 = Bound::Included(lit),
                    }
                }
            }
        }
    }

    // Best B-tree index: longest equality prefix, range extension breaks ties.
    let mut best: Option<(usize, bool, &str, IndexAccess, Vec<usize>)> = None;
    for def in indexes.iter().filter(|def| !def.keyword) {
        let key: Vec<Option<usize>> = def.columns.iter().map(position).collect();
        let (mut prefix, mut enforced) = (Vec::new(), Vec::new());
        for (value, conjunct) in key.iter().map_while(|col| eq.get(&(*col)?)) {
            prefix.push((*value).clone());
            enforced.push(*conjunct);
        }
        let matched = prefix.len();
        let range = key.get(matched).and_then(|col| ranges.get(&(*col)?));
        if matched == 0 && range.is_none() {
            continue;
        }
        let better = best.as_ref().is_none_or(|(m, ranged, ..)| {
            matched > *m || (matched == *m && range.is_some() && !ranged)
        });
        if better {
            let how = match range.cloned() {
                Some((lower, upper)) => IndexAccess::Range {
                    prefix,
                    lower,
                    upper,
                },
                None => IndexAccess::Exact(prefix),
            };
            best = Some((matched, range.is_some(), &def.name, how, enforced));
        }
    }
    let Some((_, _, index, how, enforced)) = best else {
        return (AccessMethod::Full, Vec::new());
    };
    // Index-vs-scan cost check: a partially-bound composite index can be
    // less selective than it looks structurally. With statistics, estimate
    // the fraction of the table it returns; chasing an index for more than
    // half the table costs more than scanning it.
    let analyzed = stats
        .table(&access.table)
        .is_some_and(crate::stats::TableStats::analyzed);
    if analyzed {
        let aliases = BTreeMap::from([(access.alias.to_ascii_lowercase(), access.table.clone())]);
        let est = Estimator {
            catalog,
            stats,
            aliases: &aliases,
            counts: None,
            residuals: true,
        };
        if est.index_selectivity(&access.table, index, &how) > 0.5 {
            return (AccessMethod::Full, Vec::new());
        }
    }
    let method = AccessMethod::Index {
        index: index.to_string(),
        access: how,
    };
    (method, enforced)
}

/// The width of the rows `plan` emits.
fn width(plan: &Plan) -> usize {
    match plan {
        Plan::Access(access) => match &access.output {
            LeafOutput::Projected(cols) => cols.len(),
            _ => access.columns.len(),
        },
        Plan::Project { items, .. } | Plan::Aggregate { items, .. } => items.len(),
        Plan::HashJoin {
            left, semi: true, ..
        } => width(left),
        Plan::NestedLoopJoin { left, right, .. } | Plan::HashJoin { left, right, .. } => {
            width(left) + width(right)
        }
        Plan::Filter { input, .. }
        | Plan::Sort { input, .. }
        | Plan::TopK { input, .. }
        | Plan::Distinct { input, .. }
        | Plan::Limit { input, .. } => width(input),
    }
}

/// Marks every row position `expr` reads.
fn reads(expr: &Expr, needed: &mut [bool]) {
    match expr {
        Expr::Column {
            ordinal: Some(i), ..
        } => needed[*i] = true,
        other => other.children().into_iter().for_each(|e| reads(e, needed)),
    }
}

/// Rule: the column set. One pass from the root, carrying down which
/// columns of each operator's output its consumer reads (`needed`); an
/// operator adds what its own expressions read and splits the set between
/// its inputs, so every leaf — under any number of joins — learns exactly
/// the columns worth materializing. A `Project` of bare columns directly
/// over a leaf with no residual folds into the leaf, which then emits
/// rows in projected layout.
fn prune_columns(plan: &mut Plan, mut needed: Vec<bool>) {
    fn read_by<'e>(exprs: impl Iterator<Item = &'e Expr>, input: &Plan) -> Vec<bool> {
        let mut needed = vec![false; width(input)];
        exprs.for_each(|e| reads(e, &mut needed));
        needed
    }
    match plan {
        Plan::Access(access) => {
            if let Some(residual) = &access.residual {
                reads(residual, &mut needed);
            }
            let cols = (0..needed.len()).filter(|&c| needed[c]).collect();
            access.output = LeafOutput::Pruned(cols);
        }
        Plan::Project { input, items, .. } => {
            let bare: Option<Vec<usize>> = items
                .iter()
                .map(|item| match &item.expr {
                    Expr::Column { ordinal, .. } => *ordinal,
                    _ => None,
                })
                .collect();
            if let (Plan::Access(access), Some(cols)) = (&mut **input, bare) {
                if access.residual.is_none() {
                    let mut access = std::mem::take(access);
                    access.output = LeafOutput::Projected(cols);
                    *plan = Plan::Access(access);
                    return;
                }
            }
            let needed = read_by(items.iter().map(|i| &i.expr), input);
            prune_columns(input, needed);
        }
        Plan::Aggregate {
            input,
            group_by,
            items,
            ..
        } => {
            let exprs = group_by.iter().chain(items.iter().map(|i| &i.expr));
            let needed = read_by(exprs, input);
            prune_columns(input, needed);
        }
        Plan::Filter { input, predicate } => {
            reads(predicate, &mut needed);
            prune_columns(input, needed);
        }
        Plan::NestedLoopJoin {
            left,
            right,
            condition,
        } => {
            if let Some(condition) = condition {
                reads(condition, &mut needed);
            }
            let right_needed = needed.split_off(width(left));
            prune_columns(left, needed);
            prune_columns(right, right_needed);
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let left_width = width(left);
            // A semi join emits the left row only, but still reads both.
            needed.resize(left_width + width(right), false);
            if let Some(residual) = residual {
                reads(residual, &mut needed);
            }
            let mut right_needed = needed.split_off(left_width);
            left_keys.iter().for_each(|k| reads(k, &mut needed));
            right_keys.iter().for_each(|k| reads(k, &mut right_needed));
            prune_columns(left, needed);
            prune_columns(right, right_needed);
        }
        Plan::Sort { input, .. }
        | Plan::TopK { input, .. }
        | Plan::Distinct { input, .. }
        | Plan::Limit { input, .. } => prune_columns(input, needed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RelError;
    use crate::schema::{Column, IndexDef, TableSchema};
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse_statement;
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(TableSchema::new(
            "elements",
            vec![
                Column::new("doc_id", DataType::Int),
                Column::new("path", DataType::Text),
                Column::new("ord", DataType::Int),
                Column::new("val", DataType::Text),
            ],
        ))
        .unwrap();
        cat.create_table(TableSchema::new(
            "attrs",
            vec![
                Column::new("doc_id", DataType::Int),
                Column::new("aname", DataType::Text),
                Column::new("aval", DataType::Text),
            ],
        ))
        .unwrap();
        cat.create_index(IndexDef {
            name: "idx_path".into(),
            table: "elements".into(),
            columns: vec!["path".into(), "ord".into()],
            keyword: false,
        })
        .unwrap();
        cat.create_index(IndexDef {
            name: "kw_val".into(),
            table: "elements".into(),
            columns: vec!["val".into()],
            keyword: true,
        })
        .unwrap();
        cat
    }

    /// Index counts for planner tests, by index name.
    struct Counts(BTreeMap<String, Vec<usize>>);

    impl IndexCounts for Counts {
        fn distinct_prefixes(&self, index: &str) -> Option<&[usize]> {
            self.0.get(index).map(Vec::as_slice)
        }
    }

    const NO_COUNTS: Counts = Counts(BTreeMap::new());

    fn plan(sql: &str) -> PlannedQuery {
        let stmt = match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        plan_select(&stmt, &catalog(), &StatsCatalog::default(), &NO_COUNTS).unwrap()
    }

    /// The leftmost leaf.
    fn find_scan(plan: &Plan) -> &Access {
        match plan {
            Plan::Access(access) => access,
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Limit { input, .. } => find_scan(input),
            Plan::NestedLoopJoin { left, .. } | Plan::HashJoin { left, .. } => find_scan(left),
        }
    }

    #[test]
    fn full_scan_without_predicates() {
        let p = plan("SELECT val FROM elements");
        assert_eq!(find_scan(&p.plan).method, AccessMethod::Full);
        assert_eq!(p.visible, 1);
    }

    #[test]
    fn equality_picks_index() {
        let p = plan("SELECT val FROM elements WHERE path = '/a/b'");
        let leaf = find_scan(&p.plan);
        match &leaf.method {
            AccessMethod::Index {
                index,
                access: IndexAccess::Exact(values),
            } => {
                assert_eq!(index, "idx_path");
                assert_eq!(values, &vec![Value::Text("/a/b".into())]);
            }
            other => panic!("expected index scan, got {other:?}"),
        }
        // The probe enforces the conjunct that supplied its key: nothing
        // is left for the kernels or the residual, and the bare-column
        // projection folds into the leaf.
        assert!(
            leaf.pushed.is_empty() && leaf.residual.is_none(),
            "{leaf:?}"
        );
        assert_eq!(leaf.output, LeafOutput::Projected(vec![3]));
        assert!(leaf.predicate.is_some());
    }

    #[test]
    fn composite_equality_uses_both_columns() {
        let p = plan("SELECT val FROM elements WHERE path = '/a' AND ord = 3");
        match &find_scan(&p.plan).method {
            AccessMethod::Index {
                access: IndexAccess::Exact(values),
                ..
            } => {
                assert_eq!(values.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn range_after_prefix() {
        let p = plan("SELECT val FROM elements WHERE path = '/a' AND ord BETWEEN 2 AND 9");
        let leaf = find_scan(&p.plan);
        match &leaf.method {
            AccessMethod::Index {
                access:
                    IndexAccess::Range {
                        prefix,
                        lower,
                        upper,
                    },
                ..
            } => {
                assert_eq!(prefix.len(), 1);
                assert_eq!(*lower, Bound::Included(Value::Int(2)));
                assert_eq!(*upper, Bound::Included(Value::Int(9)));
            }
            other => panic!("{other:?}"),
        }
        // The range only bounds the probe; it stays with the kernels.
        let pushed: Vec<_> = leaf.pushed.iter().map(|p| (p.col, p.op)).collect();
        assert_eq!(pushed, [(2, CmpOp::Ge), (2, CmpOp::Le)]);
        assert!(leaf.residual.is_none(), "{leaf:?}");
    }

    #[test]
    fn contains_picks_keyword_index() {
        let p = plan("SELECT val FROM elements WHERE CONTAINS(val, 'cdc6')");
        let leaf = find_scan(&p.plan);
        match &leaf.method {
            AccessMethod::Keyword { index, keyword } => {
                assert_eq!(index, "kw_val");
                assert_eq!(keyword, "cdc6");
            }
            other => panic!("{other:?}"),
        }
        // CONTAINS is fallible and the index's tokens are not its
        // definition: it is re-checked per row.
        assert_eq!(leaf.residual, leaf.predicate);
    }

    #[test]
    fn a_probe_drops_only_the_conjunct_that_supplied_its_key() {
        let p = plan("SELECT val FROM elements WHERE path = '/a' AND path = '/b'");
        let leaf = find_scan(&p.plan);
        match &leaf.method {
            AccessMethod::Index {
                access: IndexAccess::Exact(values),
                ..
            } => assert_eq!(values, &vec![Value::Text("/b".into())]),
            other => panic!("{other:?}"),
        }
        // The other `=` still has to hold: it goes to the kernels.
        let pushed: Vec<_> = leaf.pushed.iter().map(|p| (p.col, &p.lit)).collect();
        assert_eq!(pushed, [(1, &Value::Text("/a".into()))]);
        assert!(leaf.residual.is_none(), "{leaf:?}");
        // NULL equals itself as an index key but nothing under SQL `=`:
        // it is never a key.
        let p = plan("SELECT val FROM elements WHERE path = NULL");
        assert_eq!(find_scan(&p.plan).method, AccessMethod::Full);
    }

    #[test]
    fn a_fallible_predicate_pushes_nothing() {
        let p = plan("SELECT val FROM elements WHERE path = '/a' AND ord > 2 AND val LIKE 'x%'");
        let leaf = find_scan(&p.plan);
        assert!(matches!(
            &leaf.method,
            AccessMethod::Index {
                access: IndexAccess::Range { .. },
                ..
            }
        ));
        // `LIKE` can raise, so no kernel may drop a row early; the probe
        // still enforces `path = '/a'`, and the rest is evaluated per row
        // in its original order.
        assert!(leaf.pushed.is_empty(), "{leaf:?}");
        let mut rest = Vec::new();
        split_conjuncts(leaf.residual.clone().unwrap(), &mut rest);
        assert_eq!(rest.len(), 2, "{rest:?}");
        assert!(matches!(rest[0], Expr::Binary { op: BinOp::Gt, .. }));
        assert!(matches!(rest[1], Expr::Like { .. }));
        assert_eq!(leaf.output, LeafOutput::Pruned(vec![2, 3]));
    }

    #[test]
    fn every_leaf_under_a_join_learns_its_columns() {
        let p = plan(
            "SELECT e.val FROM elements e, attrs a WHERE e.doc_id = a.doc_id AND a.aname = 'x'",
        );
        let Plan::Project { input, .. } = &p.plan else {
            panic!("{}", p.plan.explain());
        };
        let Plan::HashJoin { left, right, .. } = &**input else {
            panic!("{}", p.plan.explain());
        };
        let (Plan::Access(e), Plan::Access(a)) = (&**left, &**right) else {
            panic!("{}", p.plan.explain());
        };
        // `e` feeds the join key and the projection; `a` only the key —
        // its `aname = 'x'` is checked by a kernel, never materialized.
        assert_eq!(e.output, LeafOutput::Pruned(vec![0, 3]));
        assert_eq!(a.output, LeafOutput::Pruned(vec![0]));
        assert_eq!(a.pushed.len(), 1);
    }

    #[test]
    fn non_sargable_predicate_scans() {
        let p = plan("SELECT val FROM elements WHERE val LIKE '%x%'");
        assert_eq!(find_scan(&p.plan).method, AccessMethod::Full);
        assert!(!p.plan.uses_index());
    }

    #[test]
    fn equijoin_becomes_hash_join() {
        let p = plan(
            "SELECT e.val FROM elements e, attrs a WHERE e.doc_id = a.doc_id AND a.aname = 'x'",
        );
        fn has_hash(plan: &Plan) -> bool {
            match plan {
                Plan::HashJoin { .. } => true,
                Plan::Project { input, .. }
                | Plan::Filter { input, .. }
                | Plan::Sort { input, .. }
                | Plan::Limit { input, .. }
                | Plan::Distinct { input, .. }
                | Plan::Aggregate { input, .. } => has_hash(input),
                _ => false,
            }
        }
        assert!(has_hash(&p.plan), "{}", p.plan.explain());
    }

    #[test]
    fn explicit_join_on_condition() {
        let p = plan("SELECT e.val FROM elements e JOIN attrs a ON e.doc_id = a.doc_id");
        assert!(
            p.plan.explain().contains("HashJoin"),
            "{}",
            p.plan.explain()
        );
    }

    #[test]
    fn join_reordering_avoids_cross_products() {
        // Tables declared as (elements, attrs_like, elements2) where the
        // middle table connects to NEITHER directly, but elements joins
        // elements2: the planner must join the connected pair first.
        let p = plan(
            "SELECT e.val FROM elements e, attrs a, elements e2 \
             WHERE e.val = e2.val AND e2.doc_id = a.doc_id",
        );
        let text = p.plan.explain();
        // Every join in the tree must be a hash join — no cross product.
        assert!(!text.contains("NestedLoopJoin"), "{text}");
        assert_eq!(text.matches("HashJoin").count(), 2, "{text}");
    }

    #[test]
    fn independent_components_reduce_before_crossing() {
        // Two independent pairs: (e ⋈ a) × (e2 ⋈ a2). The cross must sit
        // ABOVE both hash joins, not between raw tables.
        let p = plan(
            "SELECT e.val FROM elements e, attrs a, elements e2, attrs a2 \
             WHERE e.doc_id = a.doc_id AND e2.doc_id = a2.doc_id",
        );
        match strip_to_join(&p.plan) {
            Plan::NestedLoopJoin { left, right, .. } => {
                assert!(
                    matches!(**left, Plan::HashJoin { .. }),
                    "{}",
                    p.plan.explain()
                );
                assert!(
                    matches!(**right, Plan::HashJoin { .. }),
                    "{}",
                    p.plan.explain()
                );
            }
            other => panic!("expected top-level cross, got {other:?}"),
        }
    }

    fn strip_to_join(plan: &Plan) -> &Plan {
        match plan {
            Plan::Project { input, .. }
            | Plan::Filter { input, .. }
            | Plan::Sort { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Distinct { input, .. }
            | Plan::Aggregate { input, .. } => strip_to_join(input),
            other => other,
        }
    }

    #[test]
    fn semi_join_under_distinct_for_existence_only_tables() {
        // `a` only tests existence: DISTINCT query, no projected/ordered
        // columns from it, equality join, no residual.
        let p = plan("SELECT DISTINCT e.val FROM elements e, attrs a WHERE e.doc_id = a.doc_id");
        assert!(
            p.plan.explain().contains("HashSemiJoin"),
            "{}",
            p.plan.explain()
        );
        // Without DISTINCT the multiplicity matters: plain hash join.
        let p2 = plan("SELECT e.val FROM elements e, attrs a WHERE e.doc_id = a.doc_id");
        assert!(
            !p2.plan.explain().contains("HashSemiJoin"),
            "{}",
            p2.plan.explain()
        );
        // A projected column from `a` forbids the semi-join.
        let p3 = plan(
            "SELECT DISTINCT e.val, a.aname FROM elements e, attrs a \
             WHERE e.doc_id = a.doc_id",
        );
        assert!(
            !p3.plan.explain().contains("HashSemiJoin"),
            "{}",
            p3.plan.explain()
        );
        // An ORDER BY reference also forbids it.
        let p4 = plan(
            "SELECT DISTINCT e.val FROM elements e, attrs a \
             WHERE e.doc_id = a.doc_id ORDER BY a.aname",
        );
        assert!(
            !p4.plan.explain().contains("HashSemiJoin"),
            "{}",
            p4.plan.explain()
        );
    }

    #[test]
    fn cross_join_is_nested_loop() {
        let p = plan("SELECT e.val FROM elements e, attrs a");
        assert!(
            p.plan.explain().contains("NestedLoopJoin"),
            "{}",
            p.plan.explain()
        );
    }

    #[test]
    fn unqualified_columns_resolve() {
        let p = plan("SELECT aname FROM elements e, attrs a WHERE aname = 'x'");
        assert_eq!(p.visible, 1);
    }

    #[test]
    fn ambiguous_column_rejected() {
        let stmt = match parse_statement("SELECT doc_id FROM elements e, attrs a").unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert!(matches!(
            plan_select(&stmt, &catalog(), &StatsCatalog::default(), &NO_COUNTS),
            Err(RelError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn unknown_column_and_table_rejected() {
        for sql in [
            "SELECT nope FROM elements",
            "SELECT e.nope FROM elements e",
            "SELECT x.val FROM elements e",
            "SELECT val FROM missing",
        ] {
            let stmt = match parse_statement(sql).unwrap() {
                Statement::Select(s) => s,
                _ => unreachable!(),
            };
            assert!(
                plan_select(&stmt, &catalog(), &StatsCatalog::default(), &NO_COUNTS).is_err(),
                "{sql}"
            );
        }
    }

    #[test]
    fn order_by_alias_and_hidden_key() {
        let p = plan("SELECT val AS v FROM elements ORDER BY v");
        assert!(p.plan.explain().contains("Sort"));
        // Hidden sort key case: order by a non-projected column.
        let p2 = plan("SELECT val FROM elements ORDER BY ord DESC");
        match &p2.plan {
            Plan::Sort { input, keys } => {
                assert_eq!(keys[0].column, 1); // hidden key appended after `val`
                assert!(keys[0].descending);
                // Both items are bare columns, so the projection folded
                // into the leaf: `val`, then the hidden `ord`.
                match input.as_ref() {
                    Plan::Access(leaf) => {
                        assert_eq!(p2.visible, 1);
                        assert_eq!(leaf.output, LeafOutput::Projected(vec![3, 2]));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_route_to_aggregate_node() {
        let p = plan("SELECT path, COUNT(*) FROM elements GROUP BY path");
        assert!(p.plan.explain().contains("Aggregate groups=1"));
        let p2 = plan("SELECT COUNT(*) FROM elements");
        assert!(p2.plan.explain().contains("Aggregate groups=0"));
    }

    #[test]
    fn wildcard_expansion() {
        let p = plan("SELECT * FROM elements e, attrs a");
        assert_eq!(p.visible, 7);
        let p2 = plan("SELECT a.* FROM elements e, attrs a");
        assert_eq!(p2.visible, 3);
    }

    #[test]
    fn order_by_limit_fuses_to_topk() {
        let p = plan("SELECT val FROM elements ORDER BY ord LIMIT 5 OFFSET 2");
        match &p.plan {
            Plan::TopK {
                keys,
                limit,
                offset,
                ..
            } => {
                assert_eq!(keys.len(), 1);
                assert_eq!(*limit, 5);
                assert_eq!(*offset, 2);
            }
            other => panic!("expected TopK, got {other:?}"),
        }
        // The ORDER-BY-select-alias fallback fuses too.
        let p2 = plan("SELECT val AS v FROM elements ORDER BY v LIMIT 3");
        assert!(
            p2.plan.explain().contains("TopK 3"),
            "{}",
            p2.plan.explain()
        );
    }

    #[test]
    fn distinct_blocks_topk_fusion() {
        // DISTINCT sits between Sort and Limit, so pushing the limit into
        // the sort would drop rows before duplicate elimination.
        let p = plan("SELECT DISTINCT val FROM elements ORDER BY val LIMIT 2");
        let text = p.plan.explain();
        assert!(!text.contains("TopK"), "{text}");
        assert!(text.contains("Sort"), "{text}");
        assert!(text.contains("Distinct"), "{text}");
        assert!(text.contains("Limit"), "{text}");
    }

    #[test]
    fn sort_without_limit_and_limit_without_sort_stay_unfused() {
        let p = plan("SELECT val FROM elements ORDER BY val");
        assert!(!p.plan.explain().contains("TopK"), "{}", p.plan.explain());
        let p2 = plan("SELECT val FROM elements LIMIT 5");
        assert!(!p2.plan.explain().contains("TopK"), "{}", p2.plan.explain());
        // OFFSET without LIMIT has no bound to push into the sort.
        let p3 = plan("SELECT val FROM elements ORDER BY val OFFSET 3");
        assert!(!p3.plan.explain().contains("TopK"), "{}", p3.plan.explain());
        assert!(p3.plan.explain().contains("Limit"), "{}", p3.plan.explain());
    }

    #[test]
    fn semi_join_eligibility_errors_propagate() {
        // Regression: computing semi-join eligibility used a lossy
        // `if let Ok(..)` re-resolution that swallowed UnknownColumn /
        // AmbiguousColumn errors from the select list, GROUP BY and
        // ORDER BY. Each of these must surface the error.
        for sql in [
            "SELECT DISTINCT e.nope FROM elements e, attrs a WHERE e.doc_id = a.doc_id",
            "SELECT DISTINCT e.val FROM elements e, attrs a \
             WHERE e.doc_id = a.doc_id GROUP BY e.nope",
            "SELECT DISTINCT e.val FROM elements e, attrs a \
             WHERE e.doc_id = a.doc_id ORDER BY e.nope",
            "SELECT DISTINCT doc_id FROM elements e, attrs a WHERE e.doc_id = a.doc_id",
        ] {
            let stmt = match parse_statement(sql).unwrap() {
                Statement::Select(s) => s,
                _ => unreachable!(),
            };
            let err =
                plan_select(&stmt, &catalog(), &StatsCatalog::default(), &NO_COUNTS).unwrap_err();
            assert!(
                matches!(
                    err,
                    RelError::UnknownColumn(_) | RelError::AmbiguousColumn(_)
                ),
                "{sql}: {err:?}"
            );
        }
        // Valid existence-only queries still get the semi-join.
        let p = plan("SELECT DISTINCT e.val FROM elements e, attrs a WHERE e.doc_id = a.doc_id");
        assert!(
            p.plan.explain().contains("HashSemiJoin"),
            "{}",
            p.plan.explain()
        );
    }

    /// A shredded collection without `ANALYZE`: 2 000 documents of 19
    /// nodes over 20 paths, indexed on `(path, val)` and `(doc_id)`; and
    /// the same nodes in `loose`, whose only index leads with `path`.
    fn shredded(sql: &str) -> PlannedQuery {
        let mut cat = Catalog::new();
        let mut stats = StatsCatalog::default();
        for table in ["nodes", "loose"] {
            let columns = ["doc_id", "path", "val"].map(|name| {
                let ty = if name == "doc_id" {
                    DataType::Int
                } else {
                    DataType::Text
                };
                Column::new(name, ty)
            });
            cat.create_table(TableSchema::new(table, columns.to_vec()))
                .unwrap();
            stats.table_mut(table).row_count = 38_000;
        }
        for (name, table, columns) in [
            ("nodes_path", "nodes", ["path", "val"].as_slice()),
            ("nodes_doc", "nodes", ["doc_id"].as_slice()),
            ("loose_path", "loose", ["path", "doc_id"].as_slice()),
        ] {
            cat.create_index(IndexDef {
                name: name.into(),
                table: table.into(),
                columns: columns.iter().map(|c| c.to_string()).collect(),
                keyword: false,
            })
            .unwrap();
        }
        let counts = Counts(BTreeMap::from([
            ("nodes_path".to_string(), vec![20, 30_000]),
            ("nodes_doc".to_string(), vec![2_000]),
            ("loose_path".to_string(), vec![20, 38_000]),
        ]));
        let stmt = match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("{other:?}"),
        };
        plan_select(&stmt, &cat, &stats, &counts).unwrap()
    }

    /// The FLWR point lookup's shape on `table`: a binding leaf, a
    /// `(path, val)` point probe and a RETURN path, joined on `doc_id`.
    fn point_lookup(table: &str) -> String {
        format!(
            "SELECT DISTINCT n2.val FROM {table} n0, {table} n1, {table} n2 \
             WHERE n0.path = '/e' AND n1.path = '/e/id' AND n1.val = '1.1.1.1' \
             AND n2.path = '/e/desc' AND n0.doc_id = n1.doc_id AND n0.doc_id = n2.doc_id"
        )
    }

    #[test]
    fn a_point_probe_passes_its_keys_to_indexed_leaves() {
        let p = shredded(&point_lookup("nodes"));
        let text = p.plan.explain();
        // n1's one key goes into n0, and the one joined row's key on into
        // n2: each reads one document's nodes, not one path's.
        assert!(
            text.contains("HashSemiJoin (1 keys) passes keys to left"),
            "{text}"
        );
        assert!(
            text.contains("HashJoin (1 keys) passes keys to right"),
            "{text}"
        );
        for alias in ["n0", "n2"] {
            let leaf = format!(
                "IndexScan nodes AS {alias} USING nodes_doc join keys(1 cols) \
                 else USING nodes_path exact(1 cols) pushed=[{alias}.path = "
            );
            assert!(text.contains(&leaf), "{text}");
        }
        assert!(
            text.contains("AS n1 USING nodes_path exact(2 cols)"),
            "{text}"
        );
        // Only the probe's own `=` conjuncts left the predicate: a keyed
        // leaf checks its whole predicate.
        assert_eq!(text.matches("pushed=[]").count(), 1, "{text}");
    }

    #[test]
    fn path_sized_leaves_pass_no_keys() {
        // Figure 11's shape: both sides read a whole path.
        let p = shredded(
            "SELECT a.val, b.val FROM nodes a, nodes b \
             WHERE a.path = '/e' AND b.path = '/e/desc' AND a.doc_id = b.doc_id",
        );
        let text = p.plan.explain();
        assert!(!text.contains("passes keys"), "{text}");
        assert!(!text.contains("join keys"), "{text}");
    }

    #[test]
    fn keys_pass_only_into_an_index_led_by_the_join_key() {
        let p = shredded(&point_lookup("loose"));
        let text = p.plan.explain();
        assert!(!text.contains("passes keys"), "{text}");
        // Nor on a key that only follows `path` in the index.
        let p = shredded(
            "SELECT DISTINCT b.val FROM nodes a, nodes b \
             WHERE a.path = '/e/id' AND a.val = '1.1.1.1' AND b.path = '/e' \
             AND a.val = b.val",
        );
        let text = p.plan.explain();
        assert!(!text.contains("passes keys"), "{text}");
    }

    #[test]
    fn duplicate_alias_rejected() {
        let stmt = match parse_statement("SELECT 1 FROM elements x, attrs x").unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert!(plan_select(&stmt, &catalog(), &StatsCatalog::default(), &NO_COUNTS).is_err());
    }
}
