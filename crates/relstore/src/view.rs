//! Incremental materialized views.
//!
//! A materialized view is a real table on the MVCC `Storage` root whose
//! contents are the result of a `SELECT` over one or two base tables,
//! kept current **delta-wise**: committed changes flow through one
//! maintenance algebra instead of recomputing the query. Every shape —
//! filter/project, inner join, aggregate over either — takes the same
//! three steps:
//!
//! 1. **Delta stream.** A change reads as signed row images (`before`
//!    retracted, `after` asserted). Over one table the qualifying images
//!    are the delta; over a join it is
//!    `Δ(A ⋈ B) = ΔA ⋈ B_new ⊕ A_new ⋈ ΔB ⊖ ΔA ⋈ ΔB`, which reads only
//!    the post-change tables, so no pre-change state is rebuilt. A
//!    self-join feeds the same change list to both sides.
//! 2. **One enumerator.** [`join`] pairs signed rows of one source with
//!    signed rows of the other — hashed on the equi key when the
//!    predicate has one — and keeps what passes the predicate. It serves
//!    the three terms, the full build and the MIN/MAX rescan; the last
//!    two are the all-insert stream of every source row.
//! 3. **One netting step.** Events net by `(left id, right id, row)`,
//!    rows compared by exact bits ([`net`]). Each id pair is left with
//!    at most its old content retracted and its new content asserted,
//!    and retractions come first. A predicate that fails to evaluate
//!    fails the round only if its event survives: the join terms also
//!    pair one side's old image with the other's new one, rows that never
//!    coexisted and that cancel here.
//!
//! Two sinks consume the net delta. Row views map `(left id, right id)`
//! to a view row: a retraction plus an assertion updates that row in
//! place, a lone retraction deletes it, a lone assertion inserts one.
//! Aggregate views fold into per-group accumulators: counts and integer
//! sums apply `±1`/`±x`; `MIN`/`MAX` keep the extreme and a tie count,
//! rescanning a group only when the last copy of its extreme is
//! retracted. Retractions first means a group count never goes
//! transiently negative and MIN/MAX never retract a value they have not
//! seen.
//!
//! Analysis reads the definition through the planner's own stages: one
//! [`Scope`] and [`qualify`] bind its names (so a naming mistake fails
//! as it would in a `SELECT`), its predicate is the `WHERE` conjuncts
//! then the `ON` conjuncts in the planner's order, and its hash key is
//! the planner's [`equi_join_keys`].
//!
//! Maintained results must be *byte-identical* to a from-scratch
//! recompute of the definition, so `CREATE MATERIALIZED VIEW` rejects
//! anything order- or representation-sensitive: `DISTINCT`, `ORDER BY`,
//! `LIMIT`/`OFFSET`, parameters, `DISTINCT` aggregates, `SUM`/`AVG` over
//! non-integer expressions (float addition is not associative), more than
//! two base tables, and non-aggregate select items that are not grounded
//! in the `GROUP BY` key.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

use crate::bind::{bind_expr, qualify, Qualified, Scope};
use crate::chunked::{CowLog, CowMap};
use crate::error::{RelError, RelResult};
use crate::expr::eval;
use crate::plan::ProjectItem;
use crate::planner::equi_join_keys;
use crate::schema::{Catalog, Column, TableSchema};
use crate::sql::ast::{AggFunc, BinOp, Expr, SelectItem, SelectStmt, TableRef};
use crate::storage::Change;
use crate::table::{Row, RowId, Table};
use crate::value::{DataType, Value};

/// Upper bound on a deferred view's pending delta log, in row images (an
/// update holds two). Beyond this the log is dropped and the next
/// `REFRESH` falls back to a full recompute (counted in
/// `fallback_refreshes`), keeping per-commit memory bounded.
const VIEW_DELTA_LOG_CAP: usize = 4096;

/// Row images a change list carries.
fn images<'c>(changes: impl IntoIterator<Item = &'c Change>) -> usize {
    changes
        .into_iter()
        .map(|c| usize::from(c.before.is_some()) + usize::from(c.after.is_some()))
        .sum()
}

/// The durable definition of a materialized view.
#[derive(Debug, Clone)]
pub(crate) struct ViewDef {
    /// View name (also the backing table's name).
    pub(crate) name: String,
    /// Synchronous maintenance on every commit vs deferred `REFRESH`.
    pub(crate) refresh_on_commit: bool,
    /// The defining query rendered back to SQL (WAL + `sys_views`).
    pub(crate) select_sql: String,
}

/// One aggregate call appearing in the select list.
#[derive(Debug, Clone)]
pub(crate) struct AggSpec {
    /// The full bound `Expr::Aggregate` node (substitution key).
    pub(crate) expr: Expr,
    /// The function.
    pub(crate) func: AggFunc,
    /// The bound argument (`None` for `COUNT(*)`).
    pub(crate) arg: Option<Expr>,
}

/// The analyzed, bound form of a view definition — everything the
/// maintenance pipeline needs, derived deterministically from the query
/// and the catalog at creation (and again on recovery). Every expression
/// is bound ([`bind_expr`]) to the *source row*: the one table's row, or
/// the left row followed by the right row of a join.
#[derive(Debug, Clone)]
pub(crate) struct ViewAnalysis {
    /// Source tables (one or two), each under its storage key (the
    /// lowercased table name).
    pub(crate) sources: Vec<TableRef>,
    /// Width of the source row.
    pub(crate) arity: usize,
    /// The `WHERE` conjuncts, then every `JOIN ... ON` conjunct, in
    /// evaluation order; a source row qualifies iff all are true.
    pub(crate) predicate: Vec<Expr>,
    /// Equi-join key pair `(left key, right key)` when one conjunct is
    /// `left_expr = right_expr` across the two sources. Unlike everything
    /// else here, each key is bound to *its own side's* row, because the
    /// probe scans evaluate it before any joined row exists.
    pub(crate) equi: Option<(Expr, Expr)>,
    /// Expanded, named output items.
    pub(crate) items: Vec<ProjectItem>,
    /// Bound `GROUP BY` expressions.
    pub(crate) group_by: Vec<Expr>,
    /// Distinct aggregate calls in the select list.
    pub(crate) aggs: Vec<AggSpec>,
    /// Whether this is an aggregate view (aggregates or `GROUP BY`).
    pub(crate) grouped: bool,
}

/// Live maintenance state of one view, kept on `Storage` next to the
/// backing table. Cheap to clone: the state and the pending log sit in
/// copy-on-write chunks ([`crate::chunked`]), and a commit copies only
/// the chunks it writes, like the B-tree indexes.
#[derive(Debug, Clone)]
pub(crate) struct ViewRuntime {
    /// The durable definition.
    pub(crate) def: ViewDef,
    /// The analyzed form.
    pub(crate) analysis: ViewAnalysis,
    /// Sink state (the row map or the group accumulators).
    pub(crate) state: ViewState,
    /// Deferred views: committed changes awaiting `REFRESH`.
    pub(crate) pending: CowLog<Change>,
    /// Row images in `pending` (`sys_views.pending_delta_rows`), kept
    /// as the log grows so that no commit re-walks it.
    pub(crate) pending_images: usize,
    /// The pending log overflowed [`VIEW_DELTA_LOG_CAP`]; the next
    /// refresh must recompute from scratch.
    pub(crate) overflowed: bool,
    /// CSN of the last refresh (commit CSN for `REFRESH ON COMMIT`).
    pub(crate) last_refresh_csn: u64,
    /// Completed delta-wise maintenance rounds.
    pub(crate) incremental_refreshes: u64,
    /// Full recomputes (creation, `REFRESH ... FULL`, overflow, recovery).
    pub(crate) fallback_refreshes: u64,
}

impl ViewRuntime {
    /// Tables this view reads, as storage keys.
    pub(crate) fn source_tables(&self) -> impl Iterator<Item = &str> {
        self.analysis.sources.iter().map(|s| s.table.as_str())
    }

    /// Whether this view reads `table` (spelled in any case).
    pub(crate) fn reads(&self, table: &str) -> bool {
        self.source_tables().any(|s| s.eq_ignore_ascii_case(table))
    }

    /// Deferred maintenance: appends the part of a committed change list
    /// that touches this view's sources to the pending log — or, past
    /// [`VIEW_DELTA_LOG_CAP`], drops the log so the next `REFRESH`
    /// recomputes from scratch.
    pub(crate) fn defer(&mut self, changes: &[Change]) {
        if self.overflowed {
            return;
        }
        let relevant: Vec<&Change> = changes.iter().filter(|c| self.reads(&c.table)).collect();
        let added = images(relevant.iter().copied());
        if self.pending_images + added > VIEW_DELTA_LOG_CAP {
            self.clear_pending();
            self.overflowed = true;
        } else {
            relevant
                .into_iter()
                .for_each(|c| self.pending.push(c.clone()));
            self.pending_images += added;
        }
    }

    /// Empties the pending log.
    pub(crate) fn clear_pending(&mut self) {
        self.pending = CowLog::default();
        self.pending_images = 0;
    }
}

/// Per-shape maintenance state.
#[derive(Debug, Clone)]
pub(crate) enum ViewState {
    /// Filter/project over one table or a join.
    Rows {
        /// `(left id, right id)` of a source row → its view rowid (no
        /// right id over one table).
        rows: CowMap<(u64, Option<u64>), u64>,
    },
    /// Aggregate view: group key → accumulators.
    Agg {
        /// Group states keyed by evaluated `GROUP BY` key.
        groups: CowMap<Vec<Value>, GroupState>,
    },
}

/// Sentinel for a group that has no view row yet.
const NO_ROW: u64 = u64::MAX;

/// Accumulators for one group.
#[derive(Debug, Clone)]
pub(crate) struct GroupState {
    /// Live source rows in the group.
    rows: i64,
    /// A member row the grounded (non-aggregate) items evaluate against.
    /// May outlive its base row: grounded items are functions of the
    /// group key, so every member yields the same bytes.
    rep: Row,
    /// One accumulator per [`ViewAnalysis::aggs`] slot.
    accs: Vec<AggAcc>,
    /// The group's row in the backing table ([`NO_ROW`] before emission).
    view_row: u64,
}

impl GroupState {
    fn new(a: &ViewAnalysis) -> GroupState {
        GroupState {
            rows: 0,
            rep: Vec::new(),
            accs: a.aggs.iter().map(AggAcc::fresh).collect(),
            view_row: NO_ROW,
        }
    }

    /// Folds `row` into the accumulators (`sign` +1 in, -1 out).
    fn add(&mut self, a: &ViewAnalysis, row: &[Value], sign: i64) -> RelResult<()> {
        if sign > 0 && self.rows == 0 {
            // (Re)starting group: adopt this member as the representative.
            self.rep = row.to_vec();
        }
        self.rows += sign;
        if self.rows < 0 {
            return Err(RelError::Internal(
                "materialized view: group row count went negative".into(),
            ));
        }
        for (acc, spec) in self.accs.iter_mut().zip(&a.aggs) {
            let v = match &spec.arg {
                Some(arg) => eval(arg, row)?,
                None => Value::Int(1),
            };
            acc.apply(v, sign)?;
        }
        Ok(())
    }
}

/// One aggregate accumulator.
#[derive(Debug, Clone)]
enum AggAcc {
    /// `COUNT(*)` — counts group rows (mirrors the executor, which counts
    /// rows rather than non-null arguments for the argless form).
    CountStar,
    /// `COUNT(expr)` — non-null argument count.
    Count {
        /// Count of non-null argument values.
        non_null: i64,
    },
    /// `SUM(int expr)` — exact i128 running total.
    SumInt {
        /// Running total.
        sum: i128,
        /// Count of non-null addends (0 ⇒ SQL NULL result).
        non_null: i64,
    },
    /// `AVG(int expr)` — exact i128 total, one division at emission.
    AvgInt {
        /// Running total.
        sum: i128,
        /// Count of non-null addends.
        non_null: i64,
    },
    /// `MIN`/`MAX` — current extreme plus a tie count; retracting the
    /// last copy of the extreme flags the group for a rescan.
    MinMax {
        /// `MAX` when set, else `MIN`.
        is_max: bool,
        /// Current extreme (`None` when no non-null values).
        extreme: Option<Value>,
        /// Live copies of the extreme.
        ties: i64,
        /// The extreme was retracted; values are unknown until rescan.
        stale: bool,
    },
}

impl AggAcc {
    fn fresh(spec: &AggSpec) -> AggAcc {
        match (spec.func, &spec.arg) {
            (AggFunc::Count, None) => AggAcc::CountStar,
            (AggFunc::Count, Some(_)) => AggAcc::Count { non_null: 0 },
            (AggFunc::Sum, _) => AggAcc::SumInt {
                sum: 0,
                non_null: 0,
            },
            (AggFunc::Avg, _) => AggAcc::AvgInt {
                sum: 0,
                non_null: 0,
            },
            (AggFunc::Min, _) => AggAcc::MinMax {
                is_max: false,
                extreme: None,
                ties: 0,
                stale: false,
            },
            (AggFunc::Max, _) => AggAcc::MinMax {
                is_max: true,
                extreme: None,
                ties: 0,
                stale: false,
            },
        }
    }

    fn needs_rescan(&self) -> bool {
        matches!(self, AggAcc::MinMax { stale: true, .. })
    }

    /// Folds one argument value in (`sign` +1) or out (`sign` -1).
    fn apply(&mut self, v: Value, sign: i64) -> RelResult<()> {
        match self {
            AggAcc::CountStar => {}
            AggAcc::Count { non_null } => {
                if !v.is_null() {
                    *non_null += sign;
                }
            }
            AggAcc::SumInt { sum, non_null } | AggAcc::AvgInt { sum, non_null } => match v {
                Value::Null => {}
                Value::Int(i) => {
                    *sum += sign as i128 * i as i128;
                    *non_null += sign;
                }
                other => {
                    return Err(RelError::Internal(format!(
                        "materialized view: non-integer value {other} in an integer aggregate"
                    )))
                }
            },
            AggAcc::MinMax {
                is_max,
                extreme,
                ties,
                stale,
            } => {
                if v.is_null() || *stale {
                    return Ok(()); // unknown state is rebuilt by the rescan
                }
                let better = |candidate: &Value, current: &Value| {
                    let ord = candidate.extreme_cmp(current);
                    if *is_max {
                        ord.is_gt()
                    } else {
                        ord.is_lt()
                    }
                };
                if sign > 0 {
                    match extreme {
                        None => {
                            *extreme = Some(v);
                            *ties = 1;
                        }
                        Some(cur) if better(&v, cur) => {
                            *extreme = Some(v);
                            *ties = 1;
                        }
                        Some(cur) if v.extreme_cmp(cur).is_eq() => *ties += 1,
                        Some(_) => {}
                    }
                } else {
                    match extreme {
                        Some(cur) if v.extreme_cmp(cur).is_eq() => {
                            *ties -= 1;
                            if *ties <= 0 {
                                *extreme = None;
                                *stale = true;
                            }
                        }
                        Some(cur) if better(&v, cur) => {
                            return Err(RelError::Internal(
                                "materialized view: retracted a value beyond the tracked extreme"
                                    .into(),
                            ));
                        }
                        Some(_) => {}
                        None => {
                            return Err(RelError::Internal(
                                "materialized view: retraction from an empty MIN/MAX state".into(),
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The aggregate's current value, exactly as the executor's
    /// `compute_aggregate` would produce it over the group's rows.
    fn value(&self, group_rows: i64) -> RelResult<Value> {
        match self {
            AggAcc::CountStar => Ok(Value::Int(group_rows)),
            AggAcc::Count { non_null } => Ok(Value::Int(*non_null)),
            AggAcc::SumInt { sum, non_null } => {
                if *non_null == 0 {
                    Ok(Value::Null)
                } else {
                    i64::try_from(*sum).map(Value::Int).map_err(|_| {
                        RelError::Eval(format!("integer overflow in SUM (total {sum})"))
                    })
                }
            }
            AggAcc::AvgInt { sum, non_null } => {
                if *non_null == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(*sum as f64 / *non_null as f64))
                }
            }
            AggAcc::MinMax { extreme, stale, .. } => {
                if *stale {
                    return Err(RelError::Internal(
                        "materialized view: MIN/MAX read before rescan".into(),
                    ));
                }
                Ok(extreme.clone().unwrap_or(Value::Null))
            }
        }
    }
}

// ---- analysis --------------------------------------------------------------

/// Validates and binds a view definition against the catalog, returning
/// the analysis and the backing table's schema.
pub(crate) fn analyze_view(
    name: &str,
    query: &SelectStmt,
    catalog: &Catalog,
) -> RelResult<(ViewAnalysis, TableSchema)> {
    let unsupported = |what: &str| {
        RelError::Eval(format!(
            "materialized view {name:?}: {what} is not supported (results would not be \
             reproducible delta-wise)"
        ))
    };
    if query.distinct {
        return Err(unsupported("SELECT DISTINCT"));
    }
    if !query.order_by.is_empty() {
        return Err(unsupported("ORDER BY"));
    }
    if query.limit.is_some() || query.offset.is_some() {
        return Err(unsupported("LIMIT/OFFSET"));
    }

    // One or two source tables, every name bound to their joined row.
    // Binding canonicalizes every column reference, which makes the
    // syntactic comparisons below (groundedness, equi-key detection,
    // aggregate slots) semantic.
    let scope = Scope::new(query.tables(), catalog)?;
    let sources: Vec<TableRef> = scope
        .tables()
        .map(|t| TableRef {
            table: t.table.to_ascii_lowercase(),
            alias: t.alias.clone(),
        })
        .collect();
    if sources.iter().any(|s| s.table.starts_with("sys_")) {
        return Err(unsupported("reading system tables"));
    }
    if sources.len() > 2 {
        return Err(unsupported("more than two base tables"));
    }
    let Qualified {
        items,
        conjuncts: predicate,
        group_by,
    } = qualify(query, &scope)?;
    let item_exprs = items.iter().map(|i| &i.expr);
    let exprs = predicate.iter().chain(item_exprs).chain(&group_by);
    exprs.clone().try_for_each(check_supported)?;
    if predicate.iter().any(Expr::has_aggregate) {
        return Err(unsupported("aggregates in WHERE/ON"));
    }
    if group_by.iter().any(Expr::has_aggregate) {
        return Err(unsupported("aggregates in GROUP BY"));
    }
    let mut seen = HashSet::new();
    if let Some(it) = items
        .iter()
        .find(|it| !seen.insert(it.name.to_ascii_lowercase()))
    {
        return Err(RelError::SchemaMismatch(format!(
            "materialized view {name:?}: duplicate output column {:?}; name it with AS",
            it.name
        )));
    }

    // The probe scans' hash key is the planner's equi-join key between the
    // two sources, each side re-bound to its own row.
    let equi = match sources.as_slice() {
        [l, r] => {
            let joined = HashSet::from([l.alias.to_ascii_lowercase()]);
            let right = r.alias.to_ascii_lowercase();
            match predicate
                .iter()
                .find_map(|c| equi_join_keys(c, &joined, &right))
            {
                Some((lk, rk)) => Some((
                    bind_expr(&lk, &scope.table_row(&l.alias)?)?,
                    bind_expr(&rk, &scope.table_row(&r.alias)?)?,
                )),
                None => None,
            }
        }
        _ => None,
    };

    let types: Vec<_> = scope.columns().map(|(_, c)| c.ty).collect();
    let grouped = !group_by.is_empty() || items.iter().any(|it| it.expr.has_aggregate());
    let mut aggs = Vec::new();
    if grouped {
        for it in &items {
            collect_aggs(&it.expr, &mut aggs);
            if !grounded(&it.expr, &group_by) {
                return Err(RelError::Eval(format!(
                    "materialized view {name:?}: output column {:?} is neither aggregated nor \
                     part of GROUP BY",
                    it.name
                )));
            }
        }
        for a in &aggs {
            match a.func {
                AggFunc::Sum | AggFunc::Avg => {
                    let arg = a.arg.as_ref().expect("SUM/AVG always has an argument");
                    if infer_type(arg, &types) != DataType::Int {
                        return Err(unsupported(
                            "SUM/AVG over non-integer expressions (float accumulation is \
                             order-sensitive)",
                        ));
                    }
                }
                AggFunc::Count | AggFunc::Min | AggFunc::Max => {}
            }
        }
    }

    let backing = TableSchema::new(
        name,
        items
            .iter()
            .map(|it| Column::new(&it.name, infer_type(&it.expr, &types)))
            .collect(),
    );
    let analysis = ViewAnalysis {
        sources,
        arity: types.len(),
        predicate,
        equi,
        items,
        group_by,
        aggs,
        grouped,
    };
    Ok((analysis, backing))
}

/// Rejects what a view definition may not contain anywhere in `expr`:
/// parameters, `DISTINCT` aggregates and nested aggregates.
fn check_supported(expr: &Expr) -> RelResult<()> {
    match expr {
        Expr::Param(_) => Err(RelError::Eval(
            "materialized view definitions cannot contain parameters".into(),
        )),
        Expr::Aggregate { distinct: true, .. } => Err(RelError::Eval(
            "materialized views do not support DISTINCT aggregates".into(),
        )),
        Expr::Aggregate { arg, .. } if arg.as_deref().is_some_and(Expr::has_aggregate) => {
            Err(RelError::Eval("nested aggregates are not allowed".into()))
        }
        other => other.children().into_iter().try_for_each(check_supported),
    }
}

/// Whether a non-aggregate part of a select item is a function of the
/// group key: syntactically equal to a `GROUP BY` expression, a literal,
/// an aggregate (computed separately), or composed of grounded children.
fn grounded(expr: &Expr, group_by: &[Expr]) -> bool {
    group_by.contains(expr)
        || match expr {
            Expr::Literal(_) | Expr::Aggregate { .. } => true,
            Expr::Column { .. } | Expr::Param(_) => false,
            other => other.children().into_iter().all(|e| grounded(e, group_by)),
        }
}

/// Registers every distinct aggregate call in `expr` as a slot.
fn collect_aggs(expr: &Expr, out: &mut Vec<AggSpec>) {
    if let Expr::Aggregate { func, arg, .. } = expr {
        if !out.iter().any(|s| &s.expr == expr) {
            out.push(AggSpec {
                expr: expr.clone(),
                func: *func,
                arg: arg.as_deref().cloned(),
            });
        }
        return;
    }
    for child in expr.children() {
        collect_aggs(child, out);
    }
}

/// Static type of a bound expression over representation-uniform
/// columns. Sound for the supported operator set: evaluation of an
/// `Int`-typed expression only ever yields `Int` or NULL, etc., which is
/// what makes backing-table coercion the identity.
fn infer_type(expr: &Expr, col_types: &[DataType]) -> DataType {
    match expr {
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int),
        Expr::Column { ordinal, .. } => ordinal
            .and_then(|i| col_types.get(i).copied())
            .unwrap_or(DataType::Int),
        Expr::Binary { op, left, right } => {
            if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                DataType::Int
            } else {
                let l = infer_type(left, col_types);
                let r = infer_type(right, col_types);
                if l == DataType::Float || r == DataType::Float {
                    DataType::Float
                } else {
                    DataType::Int
                }
            }
        }
        Expr::Neg(e) => match infer_type(e, col_types) {
            DataType::Float => DataType::Float,
            _ => DataType::Int,
        },
        Expr::Not(_)
        | Expr::IsNull { .. }
        | Expr::Like { .. }
        | Expr::InList { .. }
        | Expr::Between { .. }
        | Expr::Contains { .. }
        | Expr::Matches { .. }
        | Expr::Param(_) => DataType::Int,
        Expr::Aggregate { func, arg, .. } => match func {
            AggFunc::Count => DataType::Int,
            AggFunc::Sum => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Min | AggFunc::Max => arg
                .as_deref()
                .map(|a| infer_type(a, col_types))
                .unwrap_or(DataType::Int),
        },
    }
}

// ---- SQL rendering ---------------------------------------------------------

/// Renders a supported `SELECT` back to SQL text that re-parses to an
/// equivalent statement (WAL records and `sys_views.definition`).
pub(crate) fn render_select(q: &SelectStmt) -> RelResult<String> {
    let mut s = String::from("SELECT ");
    if q.distinct {
        s.push_str("DISTINCT ");
    }
    for (i, item) in q.items.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => s.push('*'),
            SelectItem::TableWildcard(t) => {
                s.push_str(t);
                s.push_str(".*");
            }
            SelectItem::Expr { expr, alias } => {
                s.push_str(&render_expr(expr)?);
                if let Some(a) = alias {
                    s.push_str(" AS ");
                    s.push_str(a);
                }
            }
        }
    }
    s.push_str(" FROM ");
    for (i, t) in q.from.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&t.table);
        if !t.alias.eq_ignore_ascii_case(&t.table) {
            s.push(' ');
            s.push_str(&t.alias);
        }
    }
    for j in &q.joins {
        s.push_str(" JOIN ");
        s.push_str(&j.table.table);
        if !j.table.alias.eq_ignore_ascii_case(&j.table.table) {
            s.push(' ');
            s.push_str(&j.table.alias);
        }
        s.push_str(" ON ");
        s.push_str(&render_expr(&j.on)?);
    }
    if let Some(f) = &q.filter {
        s.push_str(" WHERE ");
        s.push_str(&render_expr(f)?);
    }
    if !q.group_by.is_empty() {
        s.push_str(" GROUP BY ");
        for (i, e) in q.group_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&render_expr(e)?);
        }
    }
    if !q.order_by.is_empty() {
        s.push_str(" ORDER BY ");
        for (i, k) in q.order_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&render_expr(&k.expr)?);
            if k.descending {
                s.push_str(" DESC");
            }
        }
    }
    if let Some(n) = q.limit {
        s.push_str(&format!(" LIMIT {n}"));
    }
    if let Some(n) = q.offset {
        s.push_str(&format!(" OFFSET {n}"));
    }
    Ok(s)
}

fn render_value(v: &Value) -> RelResult<String> {
    Ok(match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => {
            if *i == i64::MIN {
                // `-9223372036854775808` does not lex (the magnitude
                // overflows before the sign applies).
                "(-9223372036854775807 - 1)".to_string()
            } else if *i < 0 {
                format!("(-{})", i.unsigned_abs())
            } else {
                format!("{i}")
            }
        }
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(RelError::Eval(format!(
                    "float literal {f} has no SQL spelling"
                )));
            }
            if *f < 0.0 {
                return Ok(format!("(0.0 - {})", render_float(-*f)));
            }
            render_float(*f)
        }
        Value::Text(t) => format!("'{}'", t.replace('\'', "''")),
    })
}

/// Rust's `Display` for f64 is the shortest round-tripping decimal and
/// never uses exponent notation, which the lexer cannot read; a trailing
/// `.0` keeps whole floats lexing as floats.
fn render_float(f: f64) -> String {
    let s = format!("{f}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

pub(crate) fn render_expr(expr: &Expr) -> RelResult<String> {
    Ok(match expr {
        Expr::Literal(v) => render_value(v)?,
        Expr::Param(_) => {
            return Err(RelError::Eval(
                "materialized view definitions cannot contain parameters".into(),
            ))
        }
        Expr::Column { table, name, .. } => match table {
            Some(t) => format!("{t}.{name}"),
            None => name.clone(),
        },
        Expr::Binary { op, left, right } => {
            let op = match op {
                BinOp::Eq => "=",
                BinOp::Ne => "<>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!("({} {op} {})", render_expr(left)?, render_expr(right)?)
        }
        Expr::Not(e) => format!("(NOT {})", render_expr(e)?),
        Expr::Neg(e) => format!("(-{})", render_expr(e)?),
        Expr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            render_expr(expr)?,
            if *negated { "NOT " } else { "" }
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "({} {}LIKE {})",
            render_expr(expr)?,
            if *negated { "NOT " } else { "" },
            render_expr(pattern)?
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let list = list
                .iter()
                .map(render_expr)
                .collect::<RelResult<Vec<_>>>()?
                .join(", ");
            format!(
                "({} {}IN ({list}))",
                render_expr(expr)?,
                if *negated { "NOT " } else { "" }
            )
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "({} {}BETWEEN {} AND {})",
            render_expr(expr)?,
            if *negated { "NOT " } else { "" },
            render_expr(low)?,
            render_expr(high)?
        ),
        Expr::Contains { column, keyword } => format!(
            "CONTAINS({}, {})",
            render_expr(column)?,
            render_expr(keyword)?
        ),
        Expr::Matches { column, pattern } => format!(
            "MATCHES({}, {})",
            render_expr(column)?,
            render_expr(pattern)?
        ),
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => {
            let name = format!("{func:?}").to_ascii_uppercase();
            let inner = match arg {
                None => "*".to_string(),
                Some(a) => render_expr(a)?,
            };
            format!(
                "{name}({}{inner})",
                if *distinct { "DISTINCT " } else { "" }
            )
        }
    })
}

// ---- evaluation helpers ----------------------------------------------------

/// Whether a source row passes every predicate conjunct (left to right,
/// stopping at the first false/NULL like `AND` short-circuiting).
fn passes(predicate: &[Expr], row: &[Value]) -> RelResult<bool> {
    for p in predicate {
        if !crate::expr::eval_predicate(p, row)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Projects one qualifying source row through the output items.
fn project(a: &ViewAnalysis, row: &[Value]) -> RelResult<Row> {
    a.items.iter().map(|it| eval(&it.expr, row)).collect()
}

/// A source row's evaluated `GROUP BY` key.
fn group_key(a: &ViewAnalysis, row: &[Value]) -> RelResult<Vec<Value>> {
    a.group_by.iter().map(|e| eval(e, row)).collect()
}

/// Substitutes each aggregate slot's computed value into `expr`, mirroring
/// the executor's `materialize_aggregates`.
fn substitute_aggs(expr: &Expr, aggs: &[AggSpec], computed: &[Value]) -> RelResult<Expr> {
    match expr {
        Expr::Aggregate { .. } => Ok(match aggs.iter().position(|s| &s.expr == expr) {
            Some(i) => Expr::Literal(computed[i].clone()),
            None => expr.clone(),
        }),
        other => other.try_map_children(|e| substitute_aggs(e, aggs, computed)),
    }
}

/// Emits a group's output row: aggregate slots become their accumulated
/// values, the rest evaluates against the representative (a NULL row for
/// the empty global group, matching the executor).
fn emit_group(a: &ViewAnalysis, g: &GroupState) -> RelResult<Row> {
    let computed: Vec<Value> = g
        .accs
        .iter()
        .map(|acc| acc.value(g.rows))
        .collect::<RelResult<_>>()?;
    let null_row;
    let rep: &[Value] = if g.rows == 0 {
        null_row = vec![Value::Null; a.arity];
        &null_row
    } else {
        &g.rep
    };
    a.items
        .iter()
        .map(|it| eval(&substitute_aggs(&it.expr, &a.aggs, &computed)?, rep))
        .collect()
}

/// The zero-rows state for a view's shape — the placeholder recovery
/// registers before its post-replay rebuild.
pub(crate) fn empty_state(a: &ViewAnalysis) -> ViewState {
    if a.grouped {
        ViewState::Agg {
            groups: CowMap::default(),
        }
    } else {
        ViewState::Rows {
            rows: CowMap::default(),
        }
    }
}

// ---- the delta stream ------------------------------------------------------

/// A signed row of one source: `(sign, row id, row)`. Delta images
/// borrow from the change list; scanned and joined rows are owned.
type Signed<'r> = (i64, u64, Cow<'r, [Value]>);

/// `sign` copies of a qualifying source row: the left (or only) source's
/// row `lid`, followed in a join by the right source's row `rid`.
#[derive(Debug)]
struct Event<'r> {
    sign: i64,
    lid: u64,
    rid: Option<u64>,
    row: Cow<'r, [Value]>,
    /// The predicate failed to evaluate on `row`. Raised only if the event
    /// survives netting: the join terms also pair a row's old image with
    /// the other side's new one, which never coexisted and cancels out.
    error: Option<RelError>,
}

/// The changes on source `slot` as signed images: each change retracts
/// its `before` and asserts its `after`, so an update is both under one
/// id.
fn signed_images<'c>(
    a: &ViewAnalysis,
    changes: impl Iterator<Item = &'c Change>,
    slot: usize,
) -> Vec<Signed<'c>> {
    let table = &a.sources[slot].table;
    changes
        .filter(|c| c.table.eq_ignore_ascii_case(table))
        .flat_map(|c| {
            let image = |sign, row: &'c Row| (sign, c.id.0, Cow::Borrowed(row.as_slice()));
            let retract = c.before.iter().map(move |r| image(-1, r));
            retract.chain(c.after.iter().map(move |r| image(1, r)))
        })
        .collect()
}

/// Source `slot`'s live rows, each asserted once.
fn live<'t>(
    a: &ViewAnalysis,
    tables: &'t BTreeMap<String, Table>,
    slot: usize,
) -> RelResult<impl Iterator<Item = Signed<'t>> + 't> {
    let key = &a.sources[slot].table;
    let table = tables
        .get(key)
        .ok_or_else(|| RelError::Internal(format!("view source table {key:?} missing")))?;
    Ok(table.scan().map(|(id, row)| (1, id.0, Cow::Owned(row))))
}

/// The one source-row enumerator. Pairs the signed rows of source `slot`
/// (`events`) with the signed rows of the other source (`other`) and
/// emits every concatenated source row that passes the predicate, or
/// fails to evaluate it ([`Event::error`]), signed by the product of its
/// two signs. The event side is hashed on the equi key when the predicate
/// has one (a NULL key joins nothing); without one every row keys as
/// NULL, which pairs each event with every other row. A one-table view has no other side: each qualifying event is
/// emitted as it is and `other` is not read. Rows come out in `other`'s
/// order, events in their own order within one `other` row; an empty
/// `events` reads nothing, and an empty `other` hashes nothing.
fn join<'r>(
    a: &ViewAnalysis,
    slot: usize,
    events: impl IntoIterator<Item = Signed<'r>>,
    other: impl IntoIterator<Item = Signed<'r>>,
    emit: &mut impl FnMut(Event<'r>) -> RelResult<()>,
) -> RelResult<()> {
    let mut qualified = |sign, lid, rid, row: Cow<'r, [Value]>| {
        let error = match passes(&a.predicate, &row) {
            Ok(false) => return Ok(()),
            Ok(true) => None,
            Err(e) => Some(e),
        };
        emit(Event {
            sign,
            lid,
            rid,
            row,
            error,
        })
    };
    if a.sources.len() == 1 {
        return events
            .into_iter()
            .try_for_each(|(sign, id, row)| qualified(sign, id, None, row));
    }
    // (event key, other key), each bound to its own side's row.
    let keys = a
        .equi
        .as_ref()
        .map(|(l, r)| if slot == 0 { (l, r) } else { (r, l) });
    let key_of = |key: Option<&Expr>, row: &[Value]| key.map_or(Ok(Value::Null), |k| eval(k, row));
    let mut other = other.into_iter().peekable();
    if other.peek().is_none() {
        return Ok(());
    }
    let mut build: HashMap<Value, Vec<Signed>> = HashMap::new();
    for event in events {
        let k = key_of(keys.map(|k| k.0), &event.2)?;
        if keys.is_none() || !k.is_null() {
            build.entry(k).or_default().push(event);
        }
    }
    if build.is_empty() {
        return Ok(());
    }
    for (osign, oid, orow) in other {
        let Some(hits) = build.get(&key_of(keys.map(|k| k.1), &orow)?) else {
            continue;
        };
        for (esign, eid, erow) in hits {
            let (lid, rid, left, right) = if slot == 0 {
                (*eid, oid, erow, &orow)
            } else {
                (oid, *eid, &orow, erow)
            };
            let row = left.iter().chain(right.iter()).cloned().collect();
            qualified(esign * osign, lid, Some(rid), Cow::Owned(row))?;
        }
    }
    Ok(())
}

/// Every qualifying source row, asserted once: the all-insert stream the
/// full build and the MIN/MAX rescan fold. A join hashes its right side
/// and scans its left, so rows come out left-major.
fn all_rows<'t>(
    a: &ViewAnalysis,
    tables: &'t BTreeMap<String, Table>,
    emit: &mut impl FnMut(Event<'t>) -> RelResult<()>,
) -> RelResult<()> {
    let last = a.sources.len() - 1;
    let (events, other) = (live(a, tables, last)?, live(a, tables, 0)?);
    let mut checked = |mut e: Event<'t>| e.error.take().map_or_else(|| emit(e), Err);
    join(a, last, events, other, &mut checked)
}

/// The net source-row delta of a change list over the post-change
/// `tables`: the qualifying images over one table, and
/// `Δ(A ⋈ B) = ΔA ⋈ B_new ⊕ A_new ⋈ ΔB ⊖ ΔA ⋈ ΔB` over a join — which
/// needs no pre-change state, and makes a self-join one more join whose
/// two deltas are the same list.
fn delta<'t, 'c: 't>(
    a: &ViewAnalysis,
    tables: &'t BTreeMap<String, Table>,
    changes: impl Iterator<Item = &'c Change> + Clone,
) -> RelResult<Vec<Event<'t>>> {
    let mut events = Vec::new();
    let mut emit = |e| {
        events.push(e);
        Ok(())
    };
    let da = signed_images(a, changes.clone(), 0);
    if a.sources.len() == 1 {
        join(a, 0, da, Vec::new(), &mut emit)?;
    } else {
        let db = signed_images(a, changes, 1);
        let db_negated: Vec<Signed> = db.iter().map(|(s, id, r)| (-s, *id, r.clone())).collect();
        join(a, 0, da.clone(), db_negated, &mut emit)?;
        join(a, 1, db, live(a, tables, 0)?, &mut emit)?;
        join(a, 0, da, live(a, tables, 1)?, &mut emit)?;
    }
    net(events)
}

/// Whether two rows hold the same bytes. `Value`'s own `Eq` equates
/// `-0.0` with `+0.0` (and `Int(2)` with `Float(2.0)`), so netting through
/// it would cancel an update between them and leave the old bytes in the
/// view.
fn same_bits(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Null, Value::Null)
            | (Value::Int(_), Value::Int(_))
            | (Value::Text(_), Value::Text(_)) => pair.0 == pair.1,
            _ => false,
        })
}

/// The one netting step: sums the events' signs per `(lid, rid, row)`,
/// rows compared by [`same_bits`], and drops what cancels. What remains is
/// per id pair at most the old content retracted and the new content
/// asserted; a net multiplicity beyond one means the stream is wrong, and
/// a surviving [`Event::error`] fails the round. The result lists every
/// retraction before every assertion, each half in id order.
fn net(mut events: Vec<Event<'_>>) -> RelResult<Vec<Event<'_>>> {
    // Sorting on the ids puts each id pair's few events in one run.
    events.sort_by_key(|e| (e.lid, e.rid));
    let mut count: Vec<i64> = events.iter().map(|e| e.sign).collect();
    let mut run = 0;
    for i in 0..events.len() {
        if (events[i].lid, events[i].rid) != (events[run].lid, events[run].rid) {
            run = i;
        }
        // Fold into the run's first copy of the same row, if any.
        if let Some(j) = (run..i).find(|&j| same_bits(&events[j].row, &events[i].row)) {
            count[j] += std::mem::take(&mut count[i]);
        }
    }
    let (mut retract, mut assert) = (Vec::new(), Vec::new());
    for (mut e, n) in events.into_iter().zip(count) {
        e.sign = n;
        if let Some(err) = e.error.take().filter(|_| n != 0) {
            return Err(err);
        }
        match n {
            0 => {}
            -1 => retract.push(e),
            1 => assert.push(e),
            n => {
                return Err(RelError::Internal(format!(
                    "materialized view: source row with net multiplicity {n}"
                )))
            }
        }
    }
    retract.append(&mut assert);
    Ok(retract)
}

// ---- the sinks -------------------------------------------------------------

/// Recomputes a view's contents and state from scratch into an empty
/// backing table (creation, `REFRESH ... FULL`, delta-log overflow, and
/// WAL recovery all land here): both sinks over the all-insert stream,
/// which needs no netting. The state is gathered in plain collections and
/// packed into its chunked map once, so no row pays a chunked lookup.
pub(crate) fn full_build(
    a: &ViewAnalysis,
    tables: &BTreeMap<String, Table>,
    view_table: &mut Table,
) -> RelResult<ViewState> {
    if !a.grouped {
        let mut rows = Vec::new();
        all_rows(a, tables, &mut |e| {
            let (vid, _) = view_table.insert(project(a, &e.row)?)?;
            rows.push(((e.lid, e.rid), vid.0));
            Ok(())
        })?;
        return Ok(ViewState::Rows {
            rows: CowMap::from_entries(rows),
        });
    }
    // Groups in first-touch order, which is the order their view rows take.
    let mut order = Vec::new();
    let mut groups = HashMap::new();
    all_rows(a, tables, &mut |e| {
        let g = match groups.entry(group_key(a, &e.row)?) {
            Entry::Occupied(g) => g.into_mut(),
            Entry::Vacant(g) => {
                order.push(g.key().clone());
                g.insert(GroupState::new(a))
            }
        };
        g.add(a, &e.row, 1)
    })?;
    let mut groups = CowMap::from_entries(groups);
    settle(a, &mut groups, order, view_table, tables)?;
    Ok(ViewState::Agg { groups })
}

/// Applies committed changes to a view: one transaction's change list on
/// commit, or a deferred view's pending log at `REFRESH`. `tables` is the
/// post-change base state; the view's own backing table is passed
/// detached so base lookups and view mutations can coexist.
pub(crate) fn apply_deltas<'c>(
    rt: &mut ViewRuntime,
    view_table: &mut Table,
    tables: &BTreeMap<String, Table>,
    changes: impl Iterator<Item = &'c Change> + Clone,
) -> RelResult<()> {
    let a = &rt.analysis;
    let delta = delta(a, tables, changes)?;
    if delta.is_empty() {
        return Ok(());
    }
    match &mut rt.state {
        ViewState::Rows { rows } => apply_rows(a, rows, view_table, delta),
        ViewState::Agg { groups } => {
            let touched = fold(a, groups, delta.iter().map(|e| (&*e.row, e.sign)))?;
            settle(a, groups, touched, view_table, tables)
        }
    }
}

/// The row sink over a net delta (retractions first). Per id pair, a
/// retraction and an assertion update the view row in place, keeping its
/// id; a lone retraction deletes it; a lone assertion inserts one.
fn apply_rows(
    a: &ViewAnalysis,
    rows: &mut CowMap<(u64, Option<u64>), u64>,
    view_table: &mut Table,
    delta: Vec<Event<'_>>,
) -> RelResult<()> {
    let mut freed = HashMap::new();
    for e in delta {
        let key = (e.lid, e.rid);
        if e.sign < 0 {
            let vid = rows.get(&key).ok_or_else(|| {
                RelError::Internal("materialized view: retracted a row it does not hold".into())
            })?;
            freed.insert(key, *vid);
            continue;
        }
        let out = project(a, &e.row)?;
        // An update keeps its view row and its map entry: the map is not
        // written, nor its chunk copied, for it.
        if let Some(vid) = freed.remove(&key) {
            view_table.update(RowId(vid), out)?;
        } else if rows.insert(key, view_table.insert(out)?.0 .0).is_some() {
            return Err(RelError::Internal(
                "materialized view: asserted a row it already holds".into(),
            ));
        }
    }
    for (key, vid) in freed {
        rows.remove(&key);
        view_table.delete(RowId(vid))?;
    }
    Ok(())
}

/// The aggregate sink: folds signed source rows into their groups'
/// accumulators (`sign` +1 in, -1 out). The rows are gathered per group
/// first, so a group is looked up in the chunked map once per round, not
/// once per row. Returns the groups folded into, in first-touch order.
fn fold<'r>(
    a: &ViewAnalysis,
    groups: &mut CowMap<Vec<Value>, GroupState>,
    rows: impl Iterator<Item = (&'r [Value], i64)>,
) -> RelResult<Vec<Vec<Value>>> {
    let (mut slots, mut order, mut batches) = (HashMap::new(), Vec::new(), Vec::new());
    for (row, sign) in rows {
        let key = group_key(a, row)?;
        let slot = *slots.entry(key).or_insert_with_key(|key| {
            order.push(key.clone());
            batches.push(Vec::new());
            order.len() - 1
        });
        batches[slot].push((row, sign));
    }
    for (key, batch) in order.iter().zip(batches) {
        if groups.get(key).is_none() {
            if batch[0].1 < 0 {
                return Err(RelError::Internal(
                    "materialized view: retraction from an unknown group".into(),
                ));
            }
            groups.insert(key.clone(), GroupState::new(a));
        }
        let g = groups.get_mut(key).expect("present or just inserted");
        for (row, sign) in batch {
            g.add(a, row, sign)?;
        }
    }
    Ok(order)
}

/// Finishes a round of [`fold`]s: drops the touched groups that emptied
/// (the global group stays and re-emits as the executor's empty-input
/// row), rebuilds the groups whose MIN/MAX extreme ran out with one pass
/// over the sources, and writes every remaining touched group's view row.
fn settle(
    a: &ViewAnalysis,
    groups: &mut CowMap<Vec<Value>, GroupState>,
    mut touched: Vec<Vec<Value>>,
    view_table: &mut Table,
    tables: &BTreeMap<String, Table>,
) -> RelResult<()> {
    if groups.is_empty() && a.group_by.is_empty() {
        // A global aggregate over no rows still emits one row.
        groups.insert(Vec::new(), GroupState::new(a));
        touched.push(Vec::new());
    }
    let mut rescan: HashSet<Vec<Value>> = HashSet::new();
    for key in &touched {
        let Some(g) = groups.get_mut(key) else {
            continue;
        };
        if g.rows == 0 && !a.group_by.is_empty() {
            if g.view_row != NO_ROW {
                view_table.delete(RowId(g.view_row))?;
            }
            groups.remove(key);
        } else if g.accs.iter().any(AggAcc::needs_rescan) {
            rescan.insert(key.clone());
        }
    }
    if !rescan.is_empty() {
        for key in &rescan {
            let g = groups.get_mut(key).expect("flagged group exists");
            *g = GroupState {
                view_row: g.view_row,
                ..GroupState::new(a)
            };
        }
        all_rows(a, tables, &mut |e| {
            let key = group_key(a, &e.row)?;
            match groups.get_mut(&key) {
                Some(g) if rescan.contains(&key) => g.add(a, &e.row, 1),
                _ => Ok(()),
            }
        })?;
    }
    for key in &touched {
        let Some(g) = groups.get_mut(key) else {
            continue;
        };
        let out = emit_group(a, g)?;
        if g.view_row == NO_ROW {
            g.view_row = view_table.insert(out)?.0 .0;
        } else {
            view_table.update(RowId(g.view_row), out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse_statement;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("s", DataType::Text),
            ],
        ))
        .unwrap();
        cat.create_table(TableSchema::new(
            "u",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
        ))
        .unwrap();
        cat
    }

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    fn analyze(sql: &str) -> RelResult<(ViewAnalysis, TableSchema)> {
        analyze_view("v", &select(sql), &catalog())
    }

    #[test]
    fn analysis_infers_backing_schema() {
        let (a, schema) = analyze("SELECT a, f, s, a + b AS ab, a * 1.5 AS x FROM t").unwrap();
        assert!(!a.grouped);
        let types: Vec<DataType> = schema.columns.iter().map(|c| c.ty).collect();
        assert_eq!(
            types,
            vec![
                DataType::Int,
                DataType::Float,
                DataType::Text,
                DataType::Int,
                DataType::Float,
            ]
        );
        assert_eq!(schema.columns[3].name, "ab");
    }

    #[test]
    fn analysis_finds_equi_key() {
        let (a, _) =
            analyze("SELECT t.a, u.name FROM t JOIN u ON t.b = u.id WHERE t.a > 0").unwrap();
        assert_eq!(a.sources.len(), 2);
        assert!(a.equi.is_some());
        assert_eq!(a.predicate.len(), 2);
        let (a2, _) = analyze("SELECT t.a, u.name FROM t, u WHERE u.id = t.b").unwrap();
        assert!(a2.equi.is_some());
    }

    #[test]
    fn equi_keys_bind_to_their_own_side() {
        fn ordinal(e: &Expr) -> Option<usize> {
            match e {
                Expr::Column { ordinal, .. } => *ordinal,
                _ => None,
            }
        }
        // `u.id` is column 0 of a `u` row but column 4 of a joined row
        // (`t` has four columns): the probe key must carry the former,
        // the predicate conjunct the latter.
        let (a, _) = analyze("SELECT t.a, u.name FROM t JOIN u ON u.id = t.b").unwrap();
        let (lkey, rkey) = a.equi.as_ref().unwrap();
        assert_eq!((ordinal(lkey), ordinal(rkey)), (Some(1), Some(0)));
        let Expr::Binary { left, right, .. } = &a.predicate[0] else {
            panic!("{:?}", a.predicate)
        };
        assert_eq!((ordinal(left), ordinal(right)), (Some(4), Some(1)));
        assert_eq!(a.arity, 6);
    }

    #[test]
    fn analysis_aggregate_shapes() {
        let (a, schema) =
            analyze("SELECT b, COUNT(*), SUM(a) AS total, AVG(a) AS mean FROM t GROUP BY b")
                .unwrap();
        assert!(a.grouped);
        assert_eq!(a.aggs.len(), 3);
        let types: Vec<DataType> = schema.columns.iter().map(|c| c.ty).collect();
        assert_eq!(
            types,
            vec![DataType::Int, DataType::Int, DataType::Int, DataType::Float]
        );
        // Composite items over grounded parts are accepted.
        analyze("SELECT b, SUM(a) + COUNT(*) AS k FROM t GROUP BY b").unwrap();
        analyze("SELECT b + 1 AS b1, MIN(s) FROM t GROUP BY b + 1").unwrap();
    }

    #[test]
    fn analysis_rejects_unsupported_shapes() {
        for bad in [
            "SELECT DISTINCT a FROM t",
            "SELECT a FROM t ORDER BY a",
            "SELECT a FROM t LIMIT 5",
            "SELECT a FROM t WHERE a = ?",
            "SELECT COUNT(DISTINCT a) FROM t",
            "SELECT SUM(f) FROM t", // float SUM is order-sensitive
            "SELECT AVG(f) FROM t",
            "SELECT a, COUNT(*) FROM t",      // ungrounded non-aggregate
            "SELECT a, a FROM t",             // duplicate output name
            "SELECT t1.a FROM t t1, t t2, u", // three sources
        ] {
            assert!(analyze(bad).is_err(), "{bad:?} should be rejected");
        }
        // MIN/MAX over floats and text stay allowed (comparison-based).
        analyze("SELECT MIN(f), MAX(s) FROM t").unwrap();
    }

    #[test]
    fn renderer_round_trips() {
        for sql in [
            "SELECT a, b AS bb FROM t WHERE (a > 1) AND (s LIKE '%x%')",
            "SELECT t.a, u.name FROM t JOIN u ON t.b = u.id",
            "SELECT b, COUNT(*), SUM(a) AS total FROM t GROUP BY b",
            "SELECT * FROM t WHERE a IN (1, 2, 3) AND b IS NOT NULL",
            "SELECT a FROM t WHERE s = 'it''s' AND f > 1.5 AND a BETWEEN 1 AND 9",
            "SELECT a FROM t WHERE CONTAINS(s, 'needle') OR MATCHES(s, '^x')",
            "SELECT a FROM t WHERE a = -3 AND f = 2.0 AND NOT (b = 1)",
        ] {
            let q = select(sql);
            let rendered = render_select(&q).unwrap();
            let reparsed = select(&rendered);
            let again = render_select(&reparsed).unwrap();
            assert_eq!(rendered, again, "unstable rendering for {sql:?}");
            // The re-parsed tree must analyze identically.
            let a1 = analyze_view("v", &q, &catalog());
            let a2 = analyze_view("v", &reparsed, &catalog());
            assert_eq!(a1.is_ok(), a2.is_ok(), "{sql:?}");
        }
    }

    #[test]
    fn renderer_keeps_whole_floats_floating() {
        let q = select("SELECT a FROM t WHERE f = 2.0");
        let rendered = render_select(&q).unwrap();
        assert!(rendered.contains("2.0"), "{rendered}");
        assert_eq!(select(&rendered), q);
    }

    #[test]
    fn netting_compares_rows_by_exact_bits() {
        let event = |sign, f: f64| Event {
            sign,
            lid: 7,
            rid: None,
            row: Cow::Owned(vec![Value::Int(1), Value::Float(f)]),
            error: None,
        };
        let signs = |events: &[Event]| -> Vec<(i64, u64)> {
            events
                .iter()
                .map(|e| (e.sign, e.row[1].as_f64().unwrap().to_bits()))
                .collect()
        };
        // -0.0 → 0.0 is an update: `Value`'s `Eq` would cancel the pair.
        let net_events = net(vec![event(-1, -0.0), event(1, 0.0)]).unwrap();
        assert_eq!(
            signs(&net_events),
            vec![(-1, (-0.0f64).to_bits()), (1, 0.0f64.to_bits())]
        );
        // Churn cancels, and retractions come first whatever the order.
        let net_events = net(vec![
            event(1, 1.5),
            event(1, 2.5),
            event(-1, 1.5),
            event(-1, 0.0),
        ])
        .unwrap();
        assert_eq!(
            signs(&net_events),
            vec![(-1, 0.0f64.to_bits()), (1, 2.5f64.to_bits())]
        );
        // One source row twice in the view is a broken stream.
        assert!(matches!(
            net(vec![event(1, 1.5), event(1, 1.5)]),
            Err(RelError::Internal(_))
        ));
        // A predicate error fails the round only if its event survives.
        let failed = |sign| Event {
            error: Some(RelError::Eval("division by zero".into())),
            ..event(sign, 1.5)
        };
        assert_eq!(net(vec![failed(-1), failed(1)]).unwrap().len(), 0);
        assert!(matches!(
            net(vec![failed(-1), event(1, 2.5)]),
            Err(RelError::Eval(_))
        ));
    }

    #[test]
    fn minmax_accumulator_retraction() {
        let spec = AggSpec {
            expr: Expr::Aggregate {
                func: AggFunc::Max,
                arg: Some(Box::new(Expr::col(None, "a"))),
                distinct: false,
            },
            func: AggFunc::Max,
            arg: Some(Expr::col(None, "a")),
        };
        let mut acc = AggAcc::fresh(&spec);
        acc.apply(Value::Int(5), 1).unwrap();
        acc.apply(Value::Int(9), 1).unwrap();
        acc.apply(Value::Int(9), 1).unwrap();
        assert_eq!(acc.value(3).unwrap(), Value::Int(9));
        acc.apply(Value::Int(9), -1).unwrap();
        assert!(!acc.needs_rescan()); // one copy of the extreme remains
        acc.apply(Value::Int(9), -1).unwrap();
        assert!(acc.needs_rescan()); // last copy retracted
    }
}
