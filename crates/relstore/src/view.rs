//! Incremental materialized views.
//!
//! A materialized view is a real table on the MVCC `Storage` root whose
//! contents are the result of a `SELECT` over one or two base tables,
//! kept current **delta-wise**: every committed transaction's
//! insert/delete/update deltas flow through a per-view maintenance
//! pipeline instead of recomputing the query. The supported shapes and
//! their delta algebra:
//!
//! * **Filter/project** over one table — each base delta maps row-wise:
//!   a qualifying insert appends one projected row, a delete retracts the
//!   row it produced (tracked by a base-rowid → view-rowid map).
//! * **Join** (two tables, inner) — `Δ(A ⋈ B) = ΔA ⋈ B ⊕ A_old ⋈ ΔB`.
//!   Rather than applying signed pair deltas directly, maintenance
//!   reconciles every *touched* `(left, right)` rowid pair against the
//!   post-commit base state, which makes same-transaction
//!   insert-then-delete and update churn trivially correct. Touched
//!   pairs are found with one probe scan of the opposite side per commit
//!   (hashed on the equi-join key when the predicate has one).
//! * **Aggregates** (`COUNT`/`SUM`/`MIN`/`MAX`/`AVG`, `GROUP BY`, over
//!   either source shape) — additive accumulators per group: counts and
//!   integer sums apply `±1`/`±x`; `MIN`/`MAX` keep the extreme and a tie
//!   count, falling back to a per-group rescan only when the last copy of
//!   the extreme is retracted.
//!
//! Maintained results must be *byte-identical* to a from-scratch
//! recompute of the definition, so `CREATE MATERIALIZED VIEW` rejects
//! anything order- or representation-sensitive: `DISTINCT`, `ORDER BY`,
//! `LIMIT`/`OFFSET`, parameters, `DISTINCT` aggregates, `SUM`/`AVG` over
//! non-integer expressions (float addition is not associative), more than
//! two base tables, and non-aggregate select items that are not grounded
//! in the `GROUP BY` key.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use crate::bind::{bind_expr, RowSchema};
use crate::error::{RelError, RelResult};
use crate::expr::eval;
use crate::planner::{derive_name, split_conjuncts};
use crate::schema::{Catalog, Column, TableSchema};
use crate::sql::ast::{AggFunc, BinOp, Expr, SelectItem, SelectStmt};
use crate::storage::Change;
use crate::table::{Row, RowId, Table};
use crate::value::{DataType, Value};

/// Upper bound on a deferred view's pending delta log, in row images (an
/// update holds two). Beyond this the log is dropped and the next
/// `REFRESH` falls back to a full recompute (counted in
/// `fallback_refreshes`), keeping per-commit memory bounded.
const VIEW_DELTA_LOG_CAP: usize = 4096;

/// Row images a change list carries.
fn images(changes: &[Change]) -> usize {
    changes
        .iter()
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

/// A source table binding of a view.
#[derive(Debug, Clone)]
pub(crate) struct SourceRef {
    /// Storage key (lowercased table name).
    pub(crate) table: String,
    /// Binding alias.
    pub(crate) alias: String,
}

/// One bound output column of a view.
#[derive(Debug, Clone)]
pub(crate) struct OutItem {
    /// Projection expression, bound to the concatenated source row.
    pub(crate) expr: Expr,
    /// Output column name.
    pub(crate) name: String,
    /// Inferred output type.
    pub(crate) ty: DataType,
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
    /// Source tables (one or two).
    pub(crate) sources: Vec<SourceRef>,
    /// Width of the source row.
    pub(crate) arity: usize,
    /// Conjuncts of (every `JOIN ... ON` plus `WHERE`), in evaluation
    /// order; a source row qualifies iff all are true.
    pub(crate) predicate: Vec<Expr>,
    /// Equi-join key pair `(left key, right key)` when one conjunct is
    /// `left_expr = right_expr` across the two sources. Unlike everything
    /// else here, each key is bound to *its own side's* row, because the
    /// probe scans evaluate it before any joined row exists.
    pub(crate) equi: Option<(Expr, Expr)>,
    /// Expanded output items.
    pub(crate) items: Vec<OutItem>,
    /// Bound `GROUP BY` expressions.
    pub(crate) group_by: Vec<Expr>,
    /// Distinct aggregate calls in the select list.
    pub(crate) aggs: Vec<AggSpec>,
    /// Whether this is an aggregate view (aggregates or `GROUP BY`).
    pub(crate) grouped: bool,
}

/// Live maintenance state of one view, kept on `Storage` next to the
/// backing table. Cheap to clone: the bulky parts sit behind `Arc` and
/// are copied on first write per commit, like the B-tree indexes.
#[derive(Debug, Clone)]
pub(crate) struct ViewRuntime {
    /// The durable definition.
    pub(crate) def: ViewDef,
    /// The analyzed form.
    pub(crate) analysis: ViewAnalysis,
    /// Operator state (row maps / pair maps / group accumulators).
    pub(crate) state: Arc<ViewState>,
    /// Deferred views: committed changes awaiting `REFRESH`.
    pub(crate) pending: Arc<Vec<Change>>,
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

    /// Row images in the pending log (`sys_views.pending_delta_rows`).
    pub(crate) fn pending_images(&self) -> usize {
        images(&self.pending)
    }

    /// Deferred maintenance: appends the part of a committed change list
    /// that touches this view's sources to the pending log — or, past
    /// [`VIEW_DELTA_LOG_CAP`], drops the log so the next `REFRESH`
    /// recomputes from scratch.
    pub(crate) fn defer(&mut self, changes: &[Change]) {
        if self.overflowed {
            return;
        }
        let relevant: Vec<Change> = changes
            .iter()
            .filter(|c| self.reads(&c.table))
            .cloned()
            .collect();
        if self.pending_images() + images(&relevant) > VIEW_DELTA_LOG_CAP {
            self.pending = Arc::new(Vec::new());
            self.overflowed = true;
        } else {
            Arc::make_mut(&mut self.pending).extend(relevant);
        }
    }
}

/// Per-shape maintenance state.
#[derive(Debug, Clone)]
pub(crate) enum ViewState {
    /// Filter/project over one table: base rowid → view rowid.
    Map {
        /// The row map.
        rows: HashMap<u64, u64>,
    },
    /// Filter/project over a join: surviving `(left, right)` rowid pairs.
    JoinMap {
        /// `(left id, right id)` → view rowid.
        pairs: HashMap<(u64, u64), u64>,
        /// Left id → right ids currently paired with it.
        by_left: HashMap<u64, Vec<u64>>,
        /// Right id → left ids currently paired with it.
        by_right: HashMap<u64, Vec<u64>>,
    },
    /// Aggregate view: group key → accumulators.
    Agg {
        /// Group states keyed by evaluated `GROUP BY` key.
        groups: HashMap<Vec<Value>, GroupState>,
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
                    let ord = candidate.total_cmp(current);
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
                        Some(cur) if v.total_cmp(cur).is_eq() => *ties += 1,
                        Some(_) => {}
                    }
                } else {
                    match extreme {
                        Some(cur) if v.total_cmp(cur).is_eq() => {
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

    // Sources: at most two tables across FROM and JOIN.
    let mut sources = Vec::new();
    let mut side_schemas = Vec::new();
    let mut col_types: Vec<DataType> = Vec::new();
    let refs = query
        .from
        .iter()
        .chain(query.joins.iter().map(|j| &j.table));
    for r in refs {
        let schema = catalog.table(&r.table)?;
        if r.table.to_ascii_lowercase().starts_with("sys_") {
            return Err(unsupported("reading system tables"));
        }
        if sources
            .iter()
            .any(|s: &SourceRef| s.alias.eq_ignore_ascii_case(&r.alias))
        {
            return Err(RelError::AmbiguousColumn(format!(
                "duplicate table alias {:?} in materialized view {name:?}",
                r.alias
            )));
        }
        sources.push(SourceRef {
            table: r.table.to_ascii_lowercase(),
            alias: r.alias.clone(),
        });
        side_schemas.push(RowSchema::for_table(
            &r.alias,
            schema.columns.iter().map(|c| c.name.clone()),
        ));
        col_types.extend(schema.columns.iter().map(|c| c.ty));
    }
    if sources.len() > 2 {
        return Err(unsupported("more than two base tables"));
    }
    let schema = match side_schemas.as_slice() {
        [one] => one.clone(),
        [l, r] => l.clone().join(r.clone()),
        _ => unreachable!("1 or 2 sources"),
    };

    // Binding canonicalizes every column reference, which makes the
    // syntactic comparisons below (groundedness, equi-key detection,
    // aggregate slots) semantic.
    let bind = |e: &Expr| check_supported(e).and_then(|()| bind_expr(e, &schema));

    // Predicate: every JOIN ... ON conjunct, then WHERE, bound and in
    // left-to-right order so short-circuit behaviour matches the executor.
    let mut predicate = Vec::new();
    for j in &query.joins {
        split_conjuncts(bind(&j.on)?, &mut predicate);
    }
    if let Some(f) = &query.filter {
        split_conjuncts(bind(f)?, &mut predicate);
    }
    for p in &predicate {
        if p.has_aggregate() {
            return Err(unsupported("aggregates in WHERE/ON"));
        }
    }

    // Equi-join key for the probe scans, each side re-bound to its own row.
    let equi = match find_equi_key(&predicate, &sources) {
        Some((l, r)) => Some((
            bind_expr(&l, &side_schemas[0])?,
            bind_expr(&r, &side_schemas[1])?,
        )),
        None => None,
    };

    // Output items: expand wildcards, derive names, bind, infer types.
    let mut items: Vec<OutItem> = Vec::new();
    let mut any_aggregate = false;
    for (pos, item) in query.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for b in schema.columns() {
                    items.push(OutItem {
                        expr: bind(&Expr::col(Some(&b.table), &b.name))?,
                        name: b.name.clone(),
                        ty: DataType::Int, // fixed up below
                    });
                }
            }
            SelectItem::TableWildcard(alias) => {
                if !sources.iter().any(|s| s.alias.eq_ignore_ascii_case(alias)) {
                    return Err(RelError::UnknownTable(alias.clone()));
                }
                for b in schema
                    .columns()
                    .iter()
                    .filter(|b| b.table.eq_ignore_ascii_case(alias))
                {
                    items.push(OutItem {
                        expr: bind(&Expr::col(Some(&b.table), &b.name))?,
                        name: b.name.clone(),
                        ty: DataType::Int,
                    });
                }
            }
            SelectItem::Expr { expr, alias } => {
                any_aggregate |= expr.has_aggregate();
                let name = alias.clone().unwrap_or_else(|| derive_name(expr, pos));
                items.push(OutItem {
                    expr: bind(expr)?,
                    name,
                    ty: DataType::Int,
                });
            }
        }
    }
    for it in &mut items {
        it.ty = infer_type(&it.expr, &col_types);
    }
    let mut seen = HashSet::new();
    for it in &items {
        if !seen.insert(it.name.to_ascii_lowercase()) {
            return Err(RelError::SchemaMismatch(format!(
                "materialized view {name:?}: duplicate output column {:?}; name it with AS",
                it.name
            )));
        }
    }

    // Group-by and aggregate slots.
    let group_by = query
        .group_by
        .iter()
        .map(|e| {
            if e.has_aggregate() {
                Err(unsupported("aggregates in GROUP BY"))
            } else {
                bind(e)
            }
        })
        .collect::<RelResult<Vec<_>>>()?;
    let grouped = any_aggregate || !group_by.is_empty();
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
                    if infer_type(arg, &col_types) != DataType::Int {
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

    let analysis = ViewAnalysis {
        sources,
        arity: schema.len(),
        predicate,
        equi,
        items,
        group_by,
        aggs,
        grouped,
    };
    let backing = TableSchema::new(
        name,
        analysis
            .items
            .iter()
            .map(|it| Column::new(&it.name, it.ty))
            .collect(),
    );
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

/// Which source slots a bound expression reads, plus whether it reads
/// any column at all.
fn sides(expr: &Expr, sources: &[SourceRef], acc: &mut (HashSet<usize>, bool)) {
    if let Expr::Column { table, .. } = expr {
        acc.1 = true;
        let slot = table.as_ref().and_then(|alias| {
            sources
                .iter()
                .position(|s| s.alias.eq_ignore_ascii_case(alias))
        });
        acc.0.extend(slot);
    }
    for child in expr.children() {
        sides(child, sources, acc);
    }
}

/// Finds an equi-join conjunct `left_side_expr = right_side_expr` to hash
/// the probe scans on.
fn find_equi_key(predicate: &[Expr], sources: &[SourceRef]) -> Option<(Expr, Expr)> {
    for p in predicate {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = p
        {
            let mut l = (HashSet::new(), false);
            let mut r = (HashSet::new(), false);
            sides(left, sources, &mut l);
            sides(right, sources, &mut r);
            let only = |acc: &(HashSet<usize>, bool), slot: usize| {
                acc.1 && acc.0.len() == 1 && acc.0.contains(&slot)
            };
            if only(&l, 0) && only(&r, 1) {
                return Some(((**left).clone(), (**right).clone()));
            }
            if only(&l, 1) && only(&r, 0) {
                return Some(((**right).clone(), (**left).clone()));
            }
        }
    }
    None
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

fn base_table<'a>(tables: &'a BTreeMap<String, Table>, key: &str) -> RelResult<&'a Table> {
    tables
        .get(key)
        .ok_or_else(|| RelError::Internal(format!("view source table {key:?} missing")))
}

/// Enumerates every qualifying source row (filter applied), concatenated
/// across the join when there are two sources, in a deterministic order.
fn for_each_source_row(
    a: &ViewAnalysis,
    tables: &BTreeMap<String, Table>,
    mut f: impl FnMut(u64, Option<u64>, &[Value]) -> RelResult<()>,
) -> RelResult<()> {
    match a.sources.len() {
        1 => {
            let t = base_table(tables, &a.sources[0].table)?;
            for (id, row) in t.scan() {
                if passes(&a.predicate, &row)? {
                    f(id.0, None, &row)?;
                }
            }
            Ok(())
        }
        2 => {
            let left = base_table(tables, &a.sources[0].table)?;
            let right = base_table(tables, &a.sources[1].table)?;
            if let Some((lkey, rkey)) = &a.equi {
                // Hash the right side on the equi key, probe with the left.
                let mut build: HashMap<Value, Vec<(u64, Row)>> = HashMap::new();
                for (rid, rrow) in right.scan() {
                    let k = eval(rkey, &rrow)?;
                    if !k.is_null() {
                        build.entry(k).or_default().push((rid.0, rrow));
                    }
                }
                for (lid, lrow) in left.scan() {
                    let k = eval(lkey, &lrow)?;
                    if k.is_null() {
                        continue;
                    }
                    if let Some(matches) = build.get(&k) {
                        for (rid, rrow) in matches {
                            let mut joined = lrow.clone();
                            joined.extend(rrow.iter().cloned());
                            if passes(&a.predicate, &joined)? {
                                f(lid.0, Some(*rid), &joined)?;
                            }
                        }
                    }
                }
            } else {
                for (lid, lrow) in left.scan() {
                    for (rid, rrow) in right.scan() {
                        let mut joined = lrow.clone();
                        joined.extend(rrow);
                        if passes(&a.predicate, &joined)? {
                            f(lid.0, Some(rid.0), &joined)?;
                        }
                    }
                }
            }
            Ok(())
        }
        n => Err(RelError::Internal(format!("view with {n} sources"))),
    }
}

/// The zero-rows state for a view's shape — the placeholder recovery
/// registers before its post-replay rebuild.
pub(crate) fn empty_state(a: &ViewAnalysis) -> ViewState {
    if a.grouped {
        ViewState::Agg {
            groups: HashMap::new(),
        }
    } else if a.sources.len() == 1 {
        ViewState::Map {
            rows: HashMap::new(),
        }
    } else {
        ViewState::JoinMap {
            pairs: HashMap::new(),
            by_left: HashMap::new(),
            by_right: HashMap::new(),
        }
    }
}

// ---- full build ------------------------------------------------------------

/// Recomputes a view's contents and state from scratch into an empty
/// backing table (creation, `REFRESH ... FULL`, delta-log overflow, and
/// WAL recovery all land here).
pub(crate) fn full_build(
    a: &ViewAnalysis,
    tables: &BTreeMap<String, Table>,
    view_table: &mut Table,
) -> RelResult<ViewState> {
    if a.grouped {
        let mut groups: HashMap<Vec<Value>, GroupState> = HashMap::new();
        let mut order: Vec<Vec<Value>> = Vec::new();
        for_each_source_row(a, tables, |_, _, row| {
            let key: Vec<Value> = a
                .group_by
                .iter()
                .map(|e| eval(e, row))
                .collect::<RelResult<_>>()?;
            let g = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                GroupState {
                    rows: 0,
                    rep: row.to_vec(),
                    accs: a.aggs.iter().map(AggAcc::fresh).collect(),
                    view_row: NO_ROW,
                }
            });
            apply_row_to_group(a, g, row, 1)
        })?;
        if groups.is_empty() && a.group_by.is_empty() {
            // A global aggregate over no rows still emits one row.
            order.push(Vec::new());
            groups.insert(
                Vec::new(),
                GroupState {
                    rows: 0,
                    rep: Vec::new(),
                    accs: a.aggs.iter().map(AggAcc::fresh).collect(),
                    view_row: NO_ROW,
                },
            );
        }
        for key in &order {
            let g = groups.get_mut(key).expect("group just inserted");
            let out = emit_group(a, g)?;
            g.view_row = view_table.insert(out)?.0;
        }
        Ok(ViewState::Agg { groups })
    } else if a.sources.len() == 1 {
        let mut rows = HashMap::new();
        for_each_source_row(a, tables, |id, _, row| {
            let out = project(a, row)?;
            rows.insert(id, view_table.insert(out)?.0);
            Ok(())
        })?;
        Ok(ViewState::Map { rows })
    } else {
        let mut pairs = HashMap::new();
        let mut by_left: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut by_right: HashMap<u64, Vec<u64>> = HashMap::new();
        for_each_source_row(a, tables, |lid, rid, row| {
            let rid = rid.expect("join enumeration yields both ids");
            let out = project(a, row)?;
            let vid = view_table.insert(out)?.0;
            pairs.insert((lid, rid), vid);
            by_left.entry(lid).or_default().push(rid);
            by_right.entry(rid).or_default().push(lid);
            Ok(())
        })?;
        Ok(ViewState::JoinMap {
            pairs,
            by_left,
            by_right,
        })
    }
}

/// Folds one source row into a group's accumulators.
fn apply_row_to_group(
    a: &ViewAnalysis,
    g: &mut GroupState,
    row: &[Value],
    sign: i64,
) -> RelResult<()> {
    if sign > 0 && g.rows == 0 {
        // (Re)starting group: adopt this member as the representative.
        g.rep = row.to_vec();
    }
    g.rows += sign;
    if g.rows < 0 {
        return Err(RelError::Internal(
            "materialized view: group row count went negative".into(),
        ));
    }
    for (acc, spec) in g.accs.iter_mut().zip(&a.aggs) {
        let v = match &spec.arg {
            Some(arg) => eval(arg, row)?,
            None => Value::Int(1),
        };
        acc.apply(v, sign)?;
    }
    Ok(())
}

// ---- delta maintenance -----------------------------------------------------

/// A change as signed row images: the old row retracted, then the new
/// row asserted (an update is both, under the same id).
fn signed(c: &Change) -> impl Iterator<Item = (i64, &Row)> {
    let retract = c.before.iter().map(|r| (-1, r));
    retract.chain(c.after.iter().map(|r| (1, r)))
}

/// Applies one committed transaction's change list to a view. `tables`
/// is the post-commit base state; the view's own backing table is passed
/// detached so base lookups and view mutations can coexist.
pub(crate) fn apply_deltas(
    rt: &mut ViewRuntime,
    view_table: &mut Table,
    tables: &BTreeMap<String, Table>,
    changes: &[Change],
) -> RelResult<()> {
    let a = &rt.analysis;
    let on_source = |slot: usize| -> Vec<&Change> {
        let source = a.sources.get(slot);
        changes
            .iter()
            .filter(|c| source.is_some_and(|s| s.table.eq_ignore_ascii_case(&c.table)))
            .collect()
    };
    let (d0, d1) = (on_source(0), on_source(1));
    if d0.is_empty() && d1.is_empty() {
        return Ok(());
    }
    let state = Arc::make_mut(&mut rt.state);
    match state {
        ViewState::Map { rows } => apply_map_deltas(a, rows, view_table, &d0),
        ViewState::JoinMap {
            pairs,
            by_left,
            by_right,
        } => apply_join_deltas(a, pairs, by_left, by_right, view_table, tables, &d0, &d1),
        ViewState::Agg { groups } => {
            let source_deltas = signed_source_deltas(a, tables, &d0, &d1)?;
            apply_agg_deltas(a, groups, view_table, tables, source_deltas)
        }
    }
}

/// Filter/project over one table: deltas map row-wise through the
/// predicate and projection, in commit order.
fn apply_map_deltas(
    a: &ViewAnalysis,
    rows: &mut HashMap<u64, u64>,
    view_table: &mut Table,
    d0: &[&Change],
) -> RelResult<()> {
    for c in d0 {
        if c.before.is_some() {
            if let Some(vid) = rows.remove(&c.id.0) {
                view_table.delete(RowId(vid))?;
            }
        }
        if let Some(row) = &c.after {
            if passes(&a.predicate, row)? {
                let out = project(a, row)?;
                let vid = view_table.insert(out)?.0;
                rows.insert(c.id.0, vid);
            }
        }
    }
    Ok(())
}

fn delta_ids(changes: &[&Change]) -> HashSet<u64> {
    changes.iter().map(|c| c.id.0).collect()
}

/// Join maintenance: compute the set of `(left, right)` pairs a commit
/// can have affected — existing pairs over a touched row, plus new
/// matches found by probing the opposite side once — then reconcile each
/// against the post-commit base state. State-based reconciliation makes
/// same-transaction churn (update = delete+insert, insert-then-delete)
/// correct without signed-multiset bookkeeping.
#[allow(clippy::too_many_arguments)]
fn apply_join_deltas(
    a: &ViewAnalysis,
    pairs: &mut HashMap<(u64, u64), u64>,
    by_left: &mut HashMap<u64, Vec<u64>>,
    by_right: &mut HashMap<u64, Vec<u64>>,
    view_table: &mut Table,
    tables: &BTreeMap<String, Table>,
    d0: &[&Change],
    d1: &[&Change],
) -> RelResult<()> {
    let left = base_table(tables, &a.sources[0].table)?;
    let right = base_table(tables, &a.sources[1].table)?;
    let touched_left = delta_ids(d0);
    let touched_right = delta_ids(d1);
    let mut touched: HashSet<(u64, u64)> = HashSet::new();

    // Pairs that already exist over a touched base row.
    for lid in &touched_left {
        if let Some(rids) = by_left.get(lid) {
            touched.extend(rids.iter().map(|rid| (*lid, *rid)));
        }
    }
    for rid in &touched_right {
        if let Some(lids) = by_right.get(rid) {
            touched.extend(lids.iter().map(|lid| (*lid, *rid)));
        }
    }

    // New matches: probe the opposite side once per commit, hashed on the
    // equi key when the predicate has one.
    if let Some((lkey, rkey)) = &a.equi {
        let mut probe: HashMap<Value, Vec<u64>> = HashMap::new();
        for lid in &touched_left {
            if let Some(lrow) = left.get(RowId(*lid)) {
                let k = eval(lkey, &lrow)?;
                if !k.is_null() {
                    probe.entry(k).or_default().push(*lid);
                }
            }
        }
        if !probe.is_empty() {
            for (rid, rrow) in right.scan() {
                let k = eval(rkey, &rrow)?;
                if let Some(lids) = probe.get(&k) {
                    touched.extend(lids.iter().map(|lid| (*lid, rid.0)));
                }
            }
        }
        let mut probe: HashMap<Value, Vec<u64>> = HashMap::new();
        for rid in &touched_right {
            if let Some(rrow) = right.get(RowId(*rid)) {
                let k = eval(rkey, &rrow)?;
                if !k.is_null() {
                    probe.entry(k).or_default().push(*rid);
                }
            }
        }
        if !probe.is_empty() {
            for (lid, lrow) in left.scan() {
                let k = eval(lkey, &lrow)?;
                if let Some(rids) = probe.get(&k) {
                    touched.extend(rids.iter().map(|rid| (lid.0, *rid)));
                }
            }
        }
    } else {
        // No equi key: every touched row pairs with the full other side.
        let live_left: Vec<u64> = touched_left
            .iter()
            .copied()
            .filter(|lid| left.get(RowId(*lid)).is_some())
            .collect();
        if !live_left.is_empty() {
            for (rid, _) in right.scan() {
                touched.extend(live_left.iter().map(|lid| (*lid, rid.0)));
            }
        }
        let live_right: Vec<u64> = touched_right
            .iter()
            .copied()
            .filter(|rid| right.get(RowId(*rid)).is_some())
            .collect();
        if !live_right.is_empty() {
            for (lid, _) in left.scan() {
                touched.extend(live_right.iter().map(|rid| (lid.0, *rid)));
            }
        }
    }

    for (lid, rid) in touched {
        let joined = match (left.get(RowId(lid)), right.get(RowId(rid))) {
            (Some(mut l), Some(r)) => {
                l.extend(r);
                if passes(&a.predicate, &l)? {
                    Some(l)
                } else {
                    None
                }
            }
            _ => None,
        };
        match (pairs.get(&(lid, rid)).copied(), joined) {
            (Some(vid), None) => {
                view_table.delete(RowId(vid))?;
                pairs.remove(&(lid, rid));
                if let Some(v) = by_left.get_mut(&lid) {
                    v.retain(|r| *r != rid);
                    if v.is_empty() {
                        by_left.remove(&lid);
                    }
                }
                if let Some(v) = by_right.get_mut(&rid) {
                    v.retain(|l| *l != lid);
                    if v.is_empty() {
                        by_right.remove(&rid);
                    }
                }
            }
            (Some(vid), Some(row)) => {
                view_table.update(RowId(vid), project(a, &row)?)?;
            }
            (None, Some(row)) => {
                let vid = view_table.insert(project(a, &row)?)?.0;
                pairs.insert((lid, rid), vid);
                by_left.entry(lid).or_default().push(rid);
                by_right.entry(rid).or_default().push(lid);
            }
            (None, None) => {}
        }
    }
    Ok(())
}

/// The commit's deltas as a signed multiset of qualifying source-schema
/// rows, for the aggregate pipeline. Single table: the images themselves.
/// Join: `ΔA ⋈ B_new ⊕ A_old ⋈ ΔB`, each term hashed on the equi key
/// when available.
fn signed_source_deltas(
    a: &ViewAnalysis,
    tables: &BTreeMap<String, Table>,
    d0: &[&Change],
    d1: &[&Change],
) -> RelResult<Vec<(i64, Row)>> {
    let mut out = Vec::new();
    if a.sources.len() == 1 {
        for (sign, row) in d0.iter().flat_map(|c| signed(c)) {
            if passes(&a.predicate, row)? {
                out.push((sign, row.clone()));
            }
        }
        return Ok(out);
    }

    let left = base_table(tables, &a.sources[0].table)?;
    let right = base_table(tables, &a.sources[1].table)?;

    // ΔA ⋈ B_new.
    join_delta_side(a, d0, right, /* delta_on_left */ true, None, &mut out)?;
    // A_old ⋈ ΔB: reconstruct the pre-commit left side from the current
    // one — skip every touched id, add back the pre-commit content of ids
    // whose first change had a `before` (an id whose first change is an
    // insert did not exist before the commit).
    let mut pre: HashMap<u64, Option<&Row>> = HashMap::new();
    for c in d0 {
        pre.entry(c.id.0).or_insert(c.before.as_ref());
    }
    let old_left: Vec<Row> = left
        .scan()
        .filter(|(id, _)| !pre.contains_key(&id.0))
        .map(|(_, row)| row)
        .chain(pre.values().flatten().map(|r| (*r).clone()))
        .collect();
    join_delta_side(a, d1, left, false, Some(&old_left), &mut out)?;
    Ok(out)
}

/// One term of the join delta: `delta ⋈ other`, where `other` is either
/// the live table or a reconstructed pre-commit row set.
fn join_delta_side(
    a: &ViewAnalysis,
    delta: &[&Change],
    other: &Table,
    delta_on_left: bool,
    other_rows_override: Option<&[Row]>,
    out: &mut Vec<(i64, Row)>,
) -> RelResult<()> {
    if delta.is_empty() {
        return Ok(());
    }
    let (delta_key, other_key) = match &a.equi {
        Some((l, r)) if delta_on_left => (Some(l), Some(r)),
        Some((l, r)) => (Some(r), Some(l)),
        None => (None, None),
    };
    let events: Vec<(i64, &Row)> = delta.iter().flat_map(|c| signed(c)).collect();
    let mut emit = |sign: i64, drow: &Row, orow: &Row| -> RelResult<()> {
        let joined: Row = if delta_on_left {
            drow.iter().chain(orow.iter()).cloned().collect()
        } else {
            orow.iter().chain(drow.iter()).cloned().collect()
        };
        if passes(&a.predicate, &joined)? {
            out.push((sign, joined));
        }
        Ok(())
    };
    match (delta_key, other_key) {
        (Some(dk), Some(ok)) => {
            let mut probe: HashMap<Value, Vec<(i64, &Row)>> = HashMap::new();
            for (sign, row) in &events {
                let k = eval(dk, row)?;
                if !k.is_null() {
                    probe.entry(k).or_default().push((*sign, row));
                }
            }
            let mut scan_other = |orow: &Row| -> RelResult<()> {
                let k = eval(ok, orow)?;
                if let Some(hits) = probe.get(&k) {
                    for (sign, drow) in hits {
                        emit(*sign, drow, orow)?;
                    }
                }
                Ok(())
            };
            match other_rows_override {
                Some(rows) => {
                    for r in rows {
                        scan_other(r)?;
                    }
                }
                None => {
                    for (_, r) in other.scan() {
                        scan_other(&r)?;
                    }
                }
            }
        }
        _ => match other_rows_override {
            Some(rows) => {
                for orow in rows {
                    for (sign, drow) in &events {
                        emit(*sign, drow, orow)?;
                    }
                }
            }
            None => {
                for (_, orow) in other.scan() {
                    for (sign, drow) in &events {
                        emit(*sign, drow, &orow)?;
                    }
                }
            }
        },
    }
    Ok(())
}

/// Applies signed source-row deltas to the group accumulators, rescans
/// groups whose MIN/MAX extreme was retracted, and re-emits every touched
/// group's view row.
fn apply_agg_deltas(
    a: &ViewAnalysis,
    groups: &mut HashMap<Vec<Value>, GroupState>,
    view_table: &mut Table,
    tables: &BTreeMap<String, Table>,
    signed: Vec<(i64, Row)>,
) -> RelResult<()> {
    let mut dirty: HashSet<Vec<Value>> = HashSet::new();
    for (sign, row) in signed {
        let key: Vec<Value> = a
            .group_by
            .iter()
            .map(|e| eval(e, &row))
            .collect::<RelResult<_>>()?;
        let g = match groups.get_mut(&key) {
            Some(g) => g,
            None => {
                if sign < 0 {
                    return Err(RelError::Internal(
                        "materialized view: retraction from an unknown group".into(),
                    ));
                }
                groups.entry(key.clone()).or_insert(GroupState {
                    rows: 0,
                    rep: row.clone(),
                    accs: a.aggs.iter().map(AggAcc::fresh).collect(),
                    view_row: NO_ROW,
                })
            }
        };
        apply_row_to_group(a, g, &row, sign)?;
        dirty.insert(key);
    }

    // Remove emptied groups (the global group persists and re-emits as
    // the executor's empty-input row).
    let mut rescan: HashSet<Vec<Value>> = HashSet::new();
    for key in &dirty {
        let Some(g) = groups.get(key) else { continue };
        if g.rows == 0 && !a.group_by.is_empty() {
            if g.view_row != NO_ROW {
                view_table.delete(RowId(g.view_row))?;
            }
            groups.remove(key);
        } else if g.rows > 0 && g.accs.iter().any(AggAcc::needs_rescan) {
            rescan.insert(key.clone());
        }
    }

    // One source pass rebuilds every flagged group exactly.
    if !rescan.is_empty() {
        for key in &rescan {
            let g = groups.get_mut(key).expect("flagged group exists");
            g.rows = 0;
            g.accs = a.aggs.iter().map(AggAcc::fresh).collect();
        }
        for_each_source_row(a, tables, |_, _, row| {
            let key: Vec<Value> = a
                .group_by
                .iter()
                .map(|e| eval(e, row))
                .collect::<RelResult<_>>()?;
            if rescan.contains(&key) {
                let g = groups.get_mut(&key).expect("flagged group exists");
                apply_row_to_group(a, g, row, 1)?;
            }
            Ok(())
        })?;
    }

    for key in &dirty {
        let Some(g) = groups.get_mut(key) else {
            continue;
        };
        let out = emit_group(a, g)?;
        if g.view_row == NO_ROW {
            g.view_row = view_table.insert(out)?.0;
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
