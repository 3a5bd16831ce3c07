//! The unified query API: the [`Query`] builder, prepared statements, the
//! plan cache, and typed row access.
//!
//! One entry point runs every statement, and every `SELECT` takes the
//! same two steps inside it — resolve (normalize, plan-cache lookup,
//! parse, plan, cache insert) and execute in one mode (streaming,
//! profiled, or the reference oracle):
//!
//! ```
//! use xomatiq_relstore::Database;
//!
//! let db = Database::in_memory();
//! db.query("CREATE TABLE t (a INT, b TEXT)").run().unwrap();
//! db.query("INSERT INTO t VALUES (?, ?)").bind(1i64).bind("x").run().unwrap();
//! let out = db.query("SELECT b FROM t WHERE a = ?").bind(1i64).with_stats().run().unwrap();
//! assert_eq!(out.rows.rows().len(), 1);
//! assert!(out.stats.is_some());
//! ```
//!
//! `SELECT` plans resolved through the builder go through a per-database
//! LRU plan cache keyed by a statement's *shape*: its normalized SQL with
//! every string literal lifted out and left as a `?`, plus the *class*
//! (the [`Value`] variant, NULL, or a NaN float) of each lifted literal
//! and bound parameter. A hit binds the values into the cached plan
//! ([`PlannedQuery::bind`]) and skips lexing, parsing and planning. On a
//! miss the shape is planned with its values in hand, each slot treated
//! exactly as the literal it holds — that is what lets `WHERE doc_id = ?`
//! use the same index selection as its literal counterpart. A plan whose
//! estimates read a slot's value beyond its class (against `ANALYZE`
//! bounds) is cached under its values too. DDL invalidates the whole
//! cache; hits, misses and evictions are published as
//! `relstore.plan.cache_{hit,miss,evict}`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use xomatiq_obs::trace;

use crate::bind::{qualify, Scope};
use crate::db::{Database, ResultSet};
use crate::error::{RelError, RelResult};
use crate::exec::{format_ns, run_plan, ExecStats, OpProfile};
use crate::metrics;
use crate::plan::{PlanExplain, PlannedQuery};
use crate::recorder::QueryRecord;
use crate::schema::Catalog;
use crate::sql::ast::{Expr, SelectItem, Statement, TableRef};
use crate::sql::parser::{parse_shape, parse_statement_with_params};
use crate::table::Row;
use crate::value::{DataType, Value};
use crate::vtab::SYS_PREFIX;

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Multiply-xor string hasher for the plan cache. Normalized-SQL keys run
/// hundreds of bytes, where SipHash's per-byte cost dominates the whole
/// hit path; this construction processes 8 bytes per multiply. The cache
/// is capacity-bounded, so hash-flooding resistance buys nothing here.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x517c_c1b7_2722_0a95;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().unwrap());
            self.0 = (self.0 ^ word).wrapping_mul(SEED);
        }
        let mut tail = 0u64;
        for (i, b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(*b) << (8 * i);
        }
        self.0 = (self.0 ^ tail).wrapping_mul(SEED);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<V> = HashMap<String, V, std::hash::BuildHasherDefault<FxHasher>>;

/// One cached plan plus the storage generation it was planned against.
struct CachedPlan {
    plan: Arc<PlannedQuery>,
    /// [`Storage::generation`](crate::db::Storage) of the snapshot the
    /// plan was built from. A lookup from a snapshot with a *different*
    /// generation misses (and evicts the entry), so DDL and `ANALYZE`
    /// provably invalidate every stale plan — even one inserted afterwards
    /// by a reader still pinned to the older snapshot.
    generation: u64,
    stamp: u64,
}

/// A capacity-bounded LRU cache of planned `SELECT`s, keyed by
/// [`cache_key`]. Owned by [`Database`] behind a mutex; every lookup is
/// checked against the querying snapshot's storage generation, which is
/// the cache's only invalidation mechanism.
pub(crate) struct PlanCache {
    capacity: usize,
    stamp: u64,
    entries: FxMap<CachedPlan>,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            stamp: 0,
            entries: FxMap::default(),
        }
    }

    /// Looks up a plan, refreshing its LRU stamp on a hit. An entry built
    /// under a different generation is treated as a miss and dropped — its
    /// catalog, column positions or costing may not be the snapshot's.
    pub(crate) fn get(&mut self, key: &str, generation: u64) -> Option<Arc<PlannedQuery>> {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.entries.get_mut(key) {
            Some(entry) if entry.generation == generation => {
                entry.stamp = stamp;
                Some(Arc::clone(&entry.plan))
            }
            Some(_) => {
                self.entries.remove(key);
                None
            }
            None => None,
        }
    }

    /// Inserts a plan, evicting the least-recently-used entry when full.
    pub(crate) fn insert(&mut self, key: String, plan: Arc<PlannedQuery>, generation: u64) {
        if self.capacity == 0 {
            return;
        }
        self.stamp += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
                metrics::engine().cache_evict.inc();
            }
        }
        self.entries.insert(
            key,
            CachedPlan {
                plan,
                generation,
                stamp: self.stamp,
            },
        );
    }

    /// Number of cached plans (used by tests).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Normalizes SQL for plan-cache keying: ASCII-lowercases and collapses
/// whitespace runs *outside* single-quoted string literals, and strips
/// `--` line comments the same way the lexer does. `SELECT  A` and
/// `select a` share a cache entry while `'CaSe'` keeps its meaning.
/// [`shape_of`] makes the same walk and also lifts the literals out.
///
/// The two tokenizer subtleties matter for key *correctness*, not just
/// hit rate:
/// - `''` inside a literal is an escaped quote, **not** a close-and-
///   reopen: the literal stays open, so `SELECT 'O''Hara'` and
///   `select 'O''hara'` (different literals) must never share a key.
/// - comments are dead text to the lexer, so they must be dead text to
///   the key too — otherwise `SELECT a -- x\nFROM t` and
///   `SELECT a -- x FROM t` (whose `FROM` is genuinely commented out,
///   a *different statement*) would collide once the newline is
///   collapsed to a space.
pub(crate) fn normalize_sql(sql: &str) -> String {
    normalize(sql, None).text
}

/// A statement's shape: its normalized SQL with each string literal
/// lifted out and left as a `?`, and the values of all its `?`s in text
/// order — lifted literals and bound parameters alike.
pub(crate) struct Shape {
    pub(crate) text: String,
    pub(crate) values: Vec<Value>,
    /// How many of the `?`s the statement itself wrote.
    pub(crate) explicit: usize,
    /// Whether every literal was closed; an open one never parses.
    terminated: bool,
}

/// The [`Shape`] of `sql`, its own `?`s taking `params` in order.
pub(crate) fn shape_of(sql: &str, params: &[Value]) -> Shape {
    normalize(sql, Some(params))
}

/// The walk behind [`normalize_sql`] and, with `lift`, [`shape_of`].
fn normalize(sql: &str, lift: Option<&[Value]>) -> Shape {
    // Bytes, not chars: every byte the walk looks at is ASCII, and a
    // UTF-8 sequence never contains one.
    let bytes = sql.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let (mut values, mut explicit, mut terminated) = (Vec::new(), 0, true);
    let (mut i, mut pending_space) = (0, false);
    while let Some(&b) = bytes.get(i) {
        if b == b'-' && bytes.get(i + 1) == Some(&b'-') {
            // `--` line comment: skip to the newline, which then counts
            // as ordinary whitespace (mirrors tokenize_sql).
            let rest = &bytes[i..];
            i += rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
            pending_space = true;
            continue;
        }
        i += 1;
        if b.is_ascii_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space && !out.is_empty() {
            out.push(b' ');
        }
        pending_space = false;
        if b == b'\'' {
            // String literal: copied verbatim, or lifted as its value. A
            // doubled quote is the `''` escape and keeps the literal open.
            let start = i;
            terminated = false;
            while let Some(&c) = bytes.get(i) {
                i += 1;
                if c == b'\'' {
                    if bytes.get(i) != Some(&b'\'') {
                        terminated = true;
                        break;
                    }
                    i += 1;
                }
            }
            let end = i - usize::from(terminated);
            match lift {
                Some(_) => {
                    out.push(b'?');
                    values.push(Value::Text(sql[start..end].replace("''", "'")));
                }
                None => out.extend_from_slice(&bytes[start - 1..i]),
            }
        } else {
            if let (Some(params), b'?') = (lift, b) {
                values.extend(params.get(explicit).cloned());
                explicit += 1;
            }
            out.push(b.to_ascii_lowercase());
        }
    }
    Shape {
        text: String::from_utf8(out).expect("the walk edits ASCII bytes only"),
        values,
        explicit,
        terminated,
    }
}

/// The cache key: the normalized shape, then after a `\0` one letter per
/// slot value naming its class — the only fact about a value a plan that
/// holds for its whole class reads: `choose_method` probes no index with
/// NULL or NaN, a keyword probe needs text, and the kernels dispatch on
/// the literal's type. A value-less key borrows the normalized SQL
/// unchanged, so the prepared-statement hit path never allocates.
pub(crate) fn cache_key<'a>(sql_norm: Cow<'a, str>, values: &[Value]) -> Cow<'a, str> {
    if values.is_empty() {
        return sql_norm;
    }
    let mut key = String::with_capacity(sql_norm.len() + 1 + values.len());
    key.push_str(&sql_norm);
    key.push('\0');
    key.extend(values.iter().map(|v| match v {
        Value::Null => 'n',
        Value::Int(_) => 'i',
        Value::Float(f) if f.is_nan() => 'N',
        Value::Float(_) => 'f',
        Value::Text(_) => 't',
    }));
    Cow::Owned(key)
}

/// The key of a plan that holds only for the values it was made for:
/// the class key, then each value rendered (`Debug`).
fn value_key(key: &str, values: &[Value]) -> String {
    let mut key = key.to_string();
    for v in values {
        key.push('\0');
        key.push_str(&format!("{v:?}"));
    }
    key
}

// ---------------------------------------------------------------------------
// Parameter substitution and type inference
// ---------------------------------------------------------------------------

fn check_count(expected: usize, got: usize) -> RelResult<()> {
    if expected == got {
        Ok(())
    } else {
        Err(RelError::Bind(format!(
            "statement takes {expected} parameter(s), {got} bound"
        )))
    }
}

/// Replaces every `?` placeholder of a DML statement with its bound value
/// as a literal; one without a value stays an [`Expr::Param`]. `SELECT`s
/// are planned with their values instead ([`PlannedQuery::bind`]).
pub(crate) fn substitute_params(stmt: &Statement, params: &[Value]) -> Statement {
    let bind = |e: &Expr| {
        let mut e = e.clone();
        e.bind_params(params);
        e
    };
    match stmt {
        Statement::Insert { table, rows } => Statement::Insert {
            table: table.clone(),
            rows: rows
                .iter()
                .map(|row| row.iter().map(bind).collect())
                .collect(),
        },
        Statement::Delete { table, filter } => Statement::Delete {
            table: table.clone(),
            filter: filter.as_ref().map(bind),
        },
        Statement::Update {
            table,
            assignments,
            filter,
        } => Statement::Update {
            table: table.clone(),
            assignments: assignments
                .iter()
                .map(|(c, e)| (c.clone(), bind(e)))
                .collect(),
            filter: filter.as_ref().map(bind),
        },
        other => other.clone(),
    }
}

/// Best-effort parameter type inference: a parameter compared against a
/// column (`col = ?`, `? < col`, `col BETWEEN ? AND ?`, `col IN (?, ?)`),
/// inserted into a column position, or assigned to a column, takes that
/// column's declared type, read through the statement's [`Scope`].
/// Parameters in other positions, and every parameter of a statement
/// whose names do not resolve, stay untyped and bind any value verbatim.
fn infer_param_types(stmt: &Statement, catalog: &Catalog, count: usize) -> Vec<Option<DataType>> {
    let mut types = vec![None; count];
    let own = |table: &String| {
        vec![TableRef {
            table: table.clone(),
            alias: table.clone(),
        }]
    };
    let (tables, exprs): (Vec<TableRef>, Vec<&Expr>) = match stmt {
        Statement::Select(s) => {
            let items = s.items.iter().filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            });
            let ons = s.joins.iter().map(|j| &j.on);
            (
                s.tables().cloned().collect(),
                items.chain(ons).chain(&s.filter).collect(),
            )
        }
        Statement::Insert { table, .. } => (own(table), Vec::new()),
        Statement::Delete { table, filter } => (own(table), filter.iter().collect()),
        Statement::Update { table, filter, .. } => (own(table), filter.iter().collect()),
        _ => return types,
    };
    // A statement whose names do not all resolve can never run, so it
    // types nothing; `prepare` still succeeds and the run reports the
    // mistake.
    let Ok(scope) = Scope::new(&tables, catalog) else {
        return types;
    };
    let resolves = match stmt {
        Statement::Select(s) => qualify(s, &scope).is_ok(),
        _ => exprs.iter().all(|e| scope.bind(e).is_ok()),
    };
    if !resolves {
        return types;
    }
    let mut set = |expr: &Expr, ty: Option<DataType>| {
        if let Expr::Param(i) = expr {
            types[*i] = types[*i].or(ty);
        }
    };
    match stmt {
        Statement::Insert { rows, .. } => {
            for row in rows {
                for (expr, (_, column)) in row.iter().zip(scope.columns()) {
                    set(expr, Some(column.ty));
                }
            }
        }
        Statement::Update { assignments, .. } => {
            for (col, expr) in assignments {
                set(expr, scope.type_of(None, col));
            }
        }
        _ => {}
    }
    for e in exprs {
        infer_expr(e, &scope, &mut types);
    }
    types
}

fn infer_expr(expr: &Expr, scope: &Scope, types: &mut [Option<DataType>]) {
    let mut note = |i: usize, table: &Option<String>, name: &str| {
        if types[i].is_none() {
            types[i] = scope.type_of(table.as_deref(), name);
        }
    };
    match expr {
        Expr::Binary { op, left, right } => {
            if op.is_comparison() {
                match (&**left, &**right) {
                    (Expr::Column { table, name, .. }, Expr::Param(i))
                    | (Expr::Param(i), Expr::Column { table, name, .. }) => note(*i, table, name),
                    _ => {}
                }
            }
            infer_expr(left, scope, types);
            infer_expr(right, scope, types);
        }
        Expr::Between {
            expr: e, low, high, ..
        } => {
            if let Expr::Column { table, name, .. } = &**e {
                for bound in [&**low, &**high] {
                    if let Expr::Param(i) = bound {
                        note(*i, table, name);
                    }
                }
            }
            infer_expr(e, scope, types);
            infer_expr(low, scope, types);
            infer_expr(high, scope, types);
        }
        Expr::InList { expr: e, list, .. } => {
            if let Expr::Column { table, name, .. } = &**e {
                for item in list {
                    if let Expr::Param(i) = item {
                        note(*i, table, name);
                    }
                }
            }
            infer_expr(e, scope, types);
            for item in list {
                infer_expr(item, scope, types);
            }
        }
        Expr::Like {
            expr: e, pattern, ..
        } => {
            if let Expr::Param(i) = &**pattern {
                if types[*i].is_none() {
                    types[*i] = Some(DataType::Text);
                }
            }
            infer_expr(e, scope, types);
            infer_expr(pattern, scope, types);
        }
        Expr::Contains { column, keyword }
        | Expr::Matches {
            column,
            pattern: keyword,
        } => {
            if let Expr::Param(i) = &**keyword {
                if types[*i].is_none() {
                    types[*i] = Some(DataType::Text);
                }
            }
            infer_expr(column, scope, types);
            infer_expr(keyword, scope, types);
        }
        Expr::Not(e) | Expr::Neg(e) => infer_expr(e, scope, types),
        Expr::IsNull { expr: e, .. } => infer_expr(e, scope, types),
        Expr::Aggregate { arg: Some(a), .. } => infer_expr(a, scope, types),
        Expr::Aggregate { arg: None, .. }
        | Expr::Literal(_)
        | Expr::Param(_)
        | Expr::Column { .. } => {}
    }
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

/// A statement parsed once and reusable with different bound parameters,
/// produced by [`Database::prepare`].
///
/// Parameter types are inferred at prepare time from the columns each
/// placeholder is compared against (or inserted into); at bind time every
/// value is coerced to its inferred type, and a value that does not
/// coerce fails with [`RelError::Bind`] before anything executes.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(crate) stmt: Statement,
    pub(crate) sql_norm: String,
    pub(crate) param_count: usize,
    pub(crate) param_types: Vec<Option<DataType>>,
}

impl Prepared {
    /// Number of `?` placeholders in the statement.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Inferred parameter types, one per placeholder; `None` means the
    /// placeholder's type could not be inferred and binds any value.
    pub fn param_types(&self) -> &[Option<DataType>] {
        &self.param_types
    }
}

// ---------------------------------------------------------------------------
// The Query builder
// ---------------------------------------------------------------------------

enum QuerySource<'a> {
    Sql(&'a str),
    Prepared(&'a Prepared),
    /// An already-parsed statement ([`Database::execute_statement`]):
    /// there is no SQL text to key the plan cache with.
    Parsed(Box<Statement>),
}

/// How a resolved `SELECT` plan is executed — the one knob
/// [`Query::with_profile`] and [`Query::via_reference`] each set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecMode {
    /// The streaming executor.
    Streaming,
    /// The streaming executor, every operator wrapped in the profiler.
    Profiled,
    /// The materializing reference interpreter.
    Reference,
}

/// A fluent, single entry point for executing statements:
/// `db.query(sql).bind(v).with_stats().run()`.
///
/// `SELECT`s resolved through the builder use the plan cache and run on
/// the streaming executor. Profiled runs ([`Query::with_profile`]) and
/// reference runs ([`Query::via_reference`]) choose *how* the plan runs
/// instead, so at most one of the two may be set — [`Query::run`]
/// rejects the combination with [`RelError::Bind`] rather than silently
/// honouring one of them.
pub struct Query<'a> {
    db: &'a Database,
    /// The MVCC snapshot this query is pinned to, captured when the
    /// builder was created: the state as of the last durable commit.
    /// Concurrent writers never change what this query sees.
    snapshot: Arc<crate::db::Storage>,
    source: QuerySource<'a>,
    params: Vec<Value>,
    with_stats: bool,
    mode: ExecMode,
    /// Set when both execution modifiers were requested.
    mode_conflict: bool,
}

/// What one [`Query::run`] produced.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The statement's result rows (or DML affected-count).
    pub rows: ResultSet,
    /// Executor counters, present when [`Query::with_stats`] or
    /// [`Query::with_profile`] was requested (SELECT only; the reference
    /// interpreter keeps none).
    pub stats: Option<ExecStats>,
    /// Per-operator profile, present when [`Query::with_profile`] was
    /// requested (SELECT only).
    pub profile: Option<OpProfile>,
    /// Plan execution wall-time in nanoseconds (excluding parse and plan
    /// time), present whenever a `SELECT` plan was executed.
    pub exec_ns: Option<u64>,
}

impl QueryOutcome {
    /// Renders a profiled run as `EXPLAIN ANALYZE` prints it: the
    /// annotated operator tree plus a summary footer. `None` unless the
    /// run was profiled.
    pub fn render_analysis(&self) -> Option<String> {
        let (profile, stats) = (self.profile.as_ref()?, self.stats.as_ref()?);
        Some(format!(
            "{}(total: {}, rows scanned: {}, rows emitted: {}, buffered peak: {}, \
             index probes: {}, keyword postings read: {}, segments pruned: {})\n",
            profile.render(),
            format_ns(self.exec_ns?),
            stats.rows_scanned,
            stats.rows_emitted,
            stats.buffered_peak,
            stats.index_probes,
            stats.keyword_postings_read,
            stats.segments_pruned,
        ))
    }
}

/// What [`Query::resolve`] looks a statement up by: see [`Query::keyed`].
type Keyed<'a> = (Option<Cow<'a, str>>, Vec<Value>, bool, bool);

/// A statement resolved to the point where it can run.
enum Resolved {
    /// A `SELECT` — bare, or the subject of an `EXPLAIN [ANALYZE]` — with
    /// its plan and the storage the plan must run against.
    Select {
        planned: Arc<PlannedQuery>,
        /// The pinned snapshot, overlaid with any system virtual tables
        /// the statement references.
        storage: Arc<crate::db::Storage>,
        cache_hit: bool,
        /// `Some(analyze)` when the statement was an `EXPLAIN [ANALYZE]`.
        explain: Option<bool>,
    },
    /// Anything else (DML, DDL), parameters substituted.
    Other(Box<Statement>),
}

impl<'a> Query<'a> {
    /// Binds the next `?` placeholder (placeholders bind left-to-right).
    pub fn bind(mut self, value: impl Into<Value>) -> Self {
        self.params.push(value.into());
        self
    }

    /// Binds a [`Value`] directly (useful for `Value::Null`).
    pub fn bind_value(mut self, value: Value) -> Self {
        self.params.push(value);
        self
    }

    /// Requests executor counters in the outcome (SELECT only).
    pub fn with_stats(mut self) -> Self {
        self.with_stats = true;
        self
    }

    fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode_conflict |= self.mode != ExecMode::Streaming && self.mode != mode;
        self.mode = mode;
        self
    }

    /// Requests a per-operator runtime profile (SELECT only; runs on the
    /// streaming executor, as `EXPLAIN ANALYZE` does).
    pub fn with_profile(self) -> Self {
        self.with_mode(ExecMode::Profiled)
    }

    /// Runs the statement on the materializing reference interpreter
    /// instead of the streaming executor (SELECT only) — the oracle the
    /// property suite compares against. It keeps no executor counters.
    pub fn via_reference(self) -> Self {
        self.with_mode(ExecMode::Reference)
    }

    /// The normalized SQL (when the source has SQL text), the values of
    /// the statement's `?` slots, whether the plan cache serves it, and
    /// whether the statement is to be parsed as its shape. A cacheable
    /// SQL `SELECT` is keyed on its [`Shape`], its literals lifted into the
    /// values; a prepared source keeps its literals and borrows its
    /// precomputed normalization — the hit path must not copy the SQL
    /// text. `lenient` tolerates a short parameter list (see
    /// [`Query::explain`]) and bypasses the cache.
    fn keyed(&self, lenient: bool) -> RelResult<Keyed<'a>> {
        let cacheable = !lenient && self.db.options().plan_cache_capacity > 0;
        let (norm, values, lifted) = match &self.source {
            QuerySource::Sql(sql) if cacheable => {
                let shape = shape_of(sql, &self.params);
                check_count(shape.explicit, self.params.len())?;
                // Only a `SELECT` runs as its shape; anything else is
                // parsed as written, its own `?`s its only slots.
                let lifted = shape.terminated && shape.text.starts_with("select");
                let values = if lifted {
                    shape.values
                } else {
                    self.params.clone()
                };
                (Some(Cow::Owned(shape.text)), values, lifted)
            }
            QuerySource::Sql(sql) => (
                Some(Cow::Owned(normalize_sql(sql))),
                self.params.clone(),
                false,
            ),
            QuerySource::Parsed(_) => (None, self.params.clone(), false),
            QuerySource::Prepared(p) => {
                if !lenient {
                    check_count(p.param_count, self.params.len())?;
                }
                let coerced = self
                    .params
                    .iter()
                    .zip(&p.param_types)
                    .enumerate()
                    .map(|(i, (v, ty))| match ty {
                        Some(ty) => v.clone().coerce(*ty).ok_or_else(|| {
                            RelError::Bind(format!(
                                "parameter ?{} ({v:?}) does not coerce to {ty}",
                                i + 1
                            ))
                        }),
                        None => Ok(v.clone()),
                    })
                    .collect::<RelResult<Vec<_>>>()?;
                let select = cacheable && matches!(p.stmt, Statement::Select(_));
                (Some(Cow::Borrowed(p.sql_norm.as_str())), coerced, select)
            }
        };
        let cached = lifted && norm.as_deref().is_some_and(|n| !may_reference_system(n));
        let lifted = lifted && matches!(self.source, QuerySource::Sql(_));
        Ok((norm, values, cached, lifted))
    }

    /// Parses the statement (as its shape when `lifted`) if the source
    /// has not, checking the number of bound parameters unless `lenient`.
    fn statement(&self, lifted: bool, lenient: bool) -> RelResult<Cow<'_, Statement>> {
        let (stmt, count) = match &self.source {
            QuerySource::Sql(sql) if lifted => return Ok(Cow::Owned(parse_shape(sql)?.0)),
            QuerySource::Sql(sql) => parse_statement_with_params(sql)?,
            QuerySource::Prepared(p) => return Ok(Cow::Borrowed(&p.stmt)),
            QuerySource::Parsed(stmt) => return Ok(Cow::Borrowed(stmt)),
        };
        if !lenient {
            check_count(count, self.params.len())?;
        }
        Ok(Cow::Owned(stmt))
    }

    /// The one way a statement becomes runnable: key → plan-cache lookup →
    /// parse → plan → cache insert, and for a `SELECT` the plan bound to
    /// the statement's values. Returns the normalized SQL (for the flight
    /// recorder) alongside.
    ///
    /// A warm cache skips parse and plan entirely: a plan made for other
    /// values of the same classes is bound to these. A plan tied to its
    /// values is looked up under them ([`value_key`]). The cache is
    /// bypassed, in both directions, by statements that reference system
    /// virtual tables (their contents change per query, so a cached plan
    /// would pin dead snapshot state), by `lenient` resolution (a plan
    /// with unbound `?`s must never serve a real run), by every statement
    /// but a `SELECT` (an `EXPLAIN` included), and by sources without SQL
    /// text.
    fn resolve(&self, lenient: bool) -> RelResult<(Option<Cow<'a, str>>, Resolved)> {
        let m = metrics::engine();
        let (norm, values, cached, lifted) = self.keyed(lenient)?;
        let generation = self.snapshot.generation;
        let bind = |plan: Arc<PlannedQuery>| match values.is_empty() {
            true => plan,
            false => Arc::new(plan.bind(&values)),
        };
        let key = norm
            .as_deref()
            .filter(|_| cached)
            .map(|norm| cache_key(Cow::Borrowed(norm), &values));
        let mut by_value = None;
        let hit = key.as_deref().and_then(|key| {
            let mut cache = self.db.plan_cache.lock();
            let hit = cache.get(key, generation);
            if hit.is_some() || values.is_empty() {
                return hit;
            }
            let specific = by_value.insert(value_key(key, &values));
            cache.get(specific, generation)
        });
        if let Some(plan) = hit {
            m.cache_hit.inc();
            trace_mark("relstore.query.cache_hit");
            let resolved = Resolved::Select {
                planned: bind(plan),
                storage: Arc::clone(&self.snapshot),
                cache_hit: true,
                explain: None,
            };
            return Ok((norm, resolved));
        }
        let stmt = {
            let _t = trace::span("relstore.query.parse");
            self.statement(lifted, lenient)?
        };
        let (select, explain) = match &*stmt {
            Statement::Select(select) => (select, None),
            Statement::Explain { analyze, inner } => match &**inner {
                Statement::Select(select) => (select, Some(*analyze)),
                _ => return Err(RelError::Parse("EXPLAIN supports SELECT only".into())),
            },
            other => {
                let stmt = substitute_params(other, &values);
                return Ok((norm, Resolved::Other(Box::new(stmt))));
            }
        };
        m.cache_miss.inc();
        trace_mark("relstore.query.cache_miss");
        let storage = self.db.storage_for_select(&self.snapshot, select)?;
        let (planned, specific) = self.db.plan_select_stmt(&storage, select, &values)?;
        let planned = Arc::new(planned);
        if let (Some(key), None) = (key, explain) {
            let key = match specific {
                false => key.into_owned(),
                true => by_value.unwrap_or_else(|| value_key(&key, &values)),
            };
            let mut cache = self.db.plan_cache.lock();
            cache.insert(key, Arc::clone(&planned), generation);
        }
        let resolved = Resolved::Select {
            planned: bind(planned),
            storage,
            cache_hit: false,
            explain,
        };
        Ok((norm, resolved))
    }

    /// Resolves the query's plan through the plan cache without executing
    /// it (SELECT only). A warm cache makes this skip parse and plan
    /// entirely — the path the bench's ≥100× cache-hit gate measures.
    pub fn planned(&self) -> RelResult<Arc<PlannedQuery>> {
        match self.resolve(false)?.1 {
            Resolved::Select {
                planned,
                explain: None,
                ..
            } => Ok(planned),
            _ => Err(RelError::Parse("only SELECT can be planned".into())),
        }
    }

    /// Plans the statement (without executing it) and returns the typed
    /// [`PlanExplain`] tree — estimated rows per
    /// operator; call [`render`](PlanExplain::render) for the classic
    /// indented text form. Accepts both a bare `SELECT` and an
    /// `EXPLAIN [ANALYZE] SELECT` wrapper.
    ///
    /// Unbound `?` placeholders are allowed here: they stay in the plan
    /// and are costed with placeholder (default) selectivities, so a
    /// prepared statement can be explained before any values are bound.
    pub fn explain(&self) -> RelResult<PlanExplain> {
        match self.resolve(true)?.1 {
            Resolved::Select { planned, .. } => Ok(PlanExplain::from_planned(&planned)),
            Resolved::Other(_) => Err(RelError::Parse("only SELECT can be explained".into())),
        }
    }

    /// Executes the statement under the profiler and returns the typed
    /// [`PlanExplain`] tree with *both*
    /// estimated and actual rows (plus per-operator self time) — the
    /// typed form of `EXPLAIN ANALYZE`. All placeholders must be bound,
    /// since the statement really runs (and is recorded like any other
    /// run); the profile is attached to the tree of the plan that ran.
    pub fn explain_analyzed(&self) -> RelResult<PlanExplain> {
        let (outcome, planned) = self.run_as(ExecMode::Profiled)?;
        let planned = planned.expect("a profiled run is a SELECT");
        let profile = outcome.profile.expect("profiled mode profiles");
        let mut tree = PlanExplain::from_planned(&planned);
        tree.attach_profile(&profile);
        Ok(tree)
    }

    /// Executes the statement. Every run carries a trace context — the
    /// thread's current one (e.g. rooted by the server from a
    /// client-supplied trace id) or a fresh root — and deposits one
    /// record in the flight recorder on completion.
    pub fn run(self) -> RelResult<QueryOutcome> {
        if self.mode_conflict {
            return Err(RelError::Bind(
                "with_profile and via_reference are mutually exclusive".into(),
            ));
        }
        Ok(self.run_as(self.mode)?.0)
    }

    /// Resolves, executes in `mode` and records the statement; also hands
    /// back the plan a `SELECT` ran.
    fn run_as(&self, mode: ExecMode) -> RelResult<(QueryOutcome, Option<Arc<PlannedQuery>>)> {
        let (_root, trace_id) = ensure_trace();
        let _qspan = trace::span("relstore.query");
        let started = Instant::now();
        let (norm, resolved) = self.resolve(false)?;
        let mut record = RecordArgs {
            db: self.db,
            trace_id,
            sql_norm: self
                .db
                .flight_recorder()
                .enabled()
                .then(|| norm.map(Cow::into_owned).unwrap_or_default()),
            started,
            rows: 0,
            cache_hit: false,
            select: None,
        };
        let text_outcome = |rows| QueryOutcome {
            rows,
            stats: None,
            profile: None,
            exec_ns: None,
        };
        let (planned, storage, cache_hit, explain) = match resolved {
            Resolved::Select {
                planned,
                storage,
                cache_hit,
                explain,
            } => (planned, storage, cache_hit, explain),
            Resolved::Other(stmt) => {
                if self.with_stats || mode != ExecMode::Streaming {
                    return Err(RelError::Parse(
                        "only SELECT takes with_stats, with_profile or via_reference".into(),
                    ));
                }
                let rows = self.db.execute_statement(*stmt)?;
                record.rows = rows.affected() as u64;
                record_statement(record);
                return Ok((text_outcome(rows), None));
            }
        };
        // An explicit profile request runs an `EXPLAIN`-wrapped SELECT as
        // the SELECT itself; otherwise `EXPLAIN ANALYZE` runs profiled and
        // returns the rendered analysis, and a plain `EXPLAIN` renders the
        // plan without running it.
        let explain = explain.filter(|_| mode != ExecMode::Profiled);
        if explain == Some(false) {
            let text = PlanExplain::from_planned(&planned).render();
            record_statement(record);
            return Ok((text_outcome(ResultSet::plan_text(&text)), Some(planned)));
        }
        let mode = match explain {
            Some(_) => ExecMode::Profiled,
            None => mode,
        };
        let mut outcome = self.db.run_planned_query(&storage, &planned, mode)?;
        record.rows = outcome.rows.len() as u64;
        record.cache_hit = cache_hit;
        record.select = Some((&outcome, &planned, &storage));
        record_statement(record);
        // The reference oracle keeps no counters worth reporting.
        if mode == ExecMode::Reference || !(self.with_stats || outcome.profile.is_some()) {
            outcome.stats = None;
        }
        if explain.is_some() {
            let text = outcome.render_analysis().expect("the run was profiled");
            outcome.rows = ResultSet::plan_text(&text);
        }
        Ok((outcome, Some(planned)))
    }
}

/// Conservative pre-parse filter for system-table references: normalized
/// SQL mentioning `sys_` anywhere bypasses the plan cache. Identifiers
/// are lowercased by normalization so every real reference matches; a
/// false positive (the prefix inside a string literal) merely skips the
/// cache for that statement.
fn may_reference_system(norm: &str) -> bool {
    norm.contains(SYS_PREFIX)
}

/// Adopts the thread's current trace context or roots a fresh trace.
/// Returns the guard holding the root scope open (`None` when adopted)
/// and the trace id this statement runs under.
fn ensure_trace() -> (Option<trace::ScopeGuard>, u64) {
    match trace::current() {
        Some(ctx) => (None, ctx.trace_id),
        None => {
            let ctx = trace::TraceCtx::root();
            let trace_id = ctx.trace_id;
            (Some(trace::scope(ctx)), trace_id)
        }
    }
}

/// Zero-length marker span under the current context (plan-cache
/// hit/miss outcomes).
fn trace_mark(name: &'static str) {
    if let Some(ctx) = trace::current() {
        trace::emit(name, ctx, 0);
    }
}

/// Emits one trace span per operator of a captured profile, preserving
/// the operator tree shape under `parent`.
fn emit_profile_spans(node: &OpProfile, trace_id: u64, parent: u64) {
    let id = trace::emit_with_parent(node.op.clone(), trace_id, parent, node.total_ns);
    for child in &node.children {
        emit_profile_spans(child, trace_id, id);
    }
}

struct RecordArgs<'a> {
    db: &'a Database,
    trace_id: u64,
    /// `None` when the recorder is disabled (spares the allocation).
    sql_norm: Option<String>,
    started: Instant,
    rows: u64,
    cache_hit: bool,
    /// An executed `SELECT`: its outcome (counters, any profile), plus the
    /// plan and pinned snapshot for re-profiling it should it turn out
    /// slow (MVCC guarantees the re-run sees identical rows).
    select: Option<(&'a QueryOutcome, &'a PlannedQuery, &'a crate::db::Storage)>,
}

/// Deposits one completed statement into the flight recorder. Statements
/// at or above the slow threshold keep a per-operator profile — either
/// the one the run produced, or one captured now by re-executing the
/// plan against the statement's own snapshot — and mirror it into the
/// trace tree as per-operator spans.
fn record_statement(args: RecordArgs<'_>) {
    let rec = args.db.flight_recorder();
    if !rec.enabled() {
        return;
    }
    let latency_ns = u64::try_from(args.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let slow = latency_ns >= rec.slow_ns();
    let profile = args
        .select
        .filter(|_| slow)
        .and_then(|(ran, planned, storage)| {
            ran.profile.clone().or_else(|| {
                let rerun = run_plan(&planned.plan, storage, true).ok()?;
                rerun.profile
            })
        });
    if let Some(p) = profile.as_ref() {
        if let Some(ctx) = trace::current() {
            emit_profile_spans(p, ctx.trace_id, ctx.span_id);
        }
    }
    let stats = args.select.and_then(|(ran, ..)| ran.stats);
    rec.record(QueryRecord {
        query_id: rec.next_query_id(),
        trace_id: args.trace_id,
        sql: args.sql_norm.unwrap_or_default(),
        rows: args.rows,
        latency_ns,
        cache_hit: args.cache_hit,
        segments_pruned: stats.map_or(0, |s| s.segments_pruned),
        slow,
        profile,
    });
}

impl Database {
    /// Starts a [`Query`] builder over one SQL statement — the unified
    /// entry point for every statement kind (SELECT, DML, DDL, EXPLAIN).
    pub fn query<'a>(&'a self, sql: &'a str) -> Query<'a> {
        self.query_source(QuerySource::Sql(sql))
    }

    /// Parses `sql` once into a reusable [`Prepared`] handle, inferring a
    /// type for each `?` placeholder from the catalog.
    pub fn prepare(&self, sql: &str) -> RelResult<Prepared> {
        let (stmt, param_count) = parse_statement_with_params(sql)?;
        let param_types = {
            let storage = self.snapshot();
            infer_param_types(&stmt, &storage.catalog, param_count)
        };
        Ok(Prepared {
            sql_norm: normalize_sql(sql),
            stmt,
            param_count,
            param_types,
        })
    }

    /// Starts a [`Query`] builder over a prepared statement.
    pub fn query_prepared<'a>(&'a self, prepared: &'a Prepared) -> Query<'a> {
        self.query_source(QuerySource::Prepared(prepared))
    }

    /// Starts a [`Query`] builder over an already-parsed statement.
    pub(crate) fn query_statement(&self, stmt: Statement) -> Query<'_> {
        self.query_source(QuerySource::Parsed(Box::new(stmt)))
    }

    fn query_source<'a>(&'a self, source: QuerySource<'a>) -> Query<'a> {
        Query {
            db: self,
            snapshot: self.snapshot(),
            source,
            params: Vec::new(),
            with_stats: false,
            mode: ExecMode::Streaming,
            mode_conflict: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Typed row access
// ---------------------------------------------------------------------------

/// A typed-access error from [`ResultRow::get`] / [`ResultRow::try_get`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ColumnError {
    /// The named column does not exist in the result set.
    NoSuchColumn(String),
    /// The cell is SQL NULL; use [`ResultRow::try_get`] for an `Option`.
    Null(String),
    /// The cell's runtime type does not convert to the requested type.
    TypeMismatch {
        /// The accessed column.
        column: String,
        /// The requested Rust type.
        expected: &'static str,
        /// The cell's actual runtime type.
        actual: &'static str,
    },
}

impl std::fmt::Display for ColumnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnError::NoSuchColumn(c) => write!(f, "no such column {c:?}"),
            ColumnError::Null(c) => write!(f, "column {c:?} is NULL"),
            ColumnError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(f, "column {column:?} is {actual}, requested {expected}"),
        }
    }
}

impl std::error::Error for ColumnError {}

fn value_type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Int(_) => "int",
        Value::Float(_) => "float",
        Value::Text(_) => "text",
    }
}

/// Conversion from a non-NULL [`Value`] cell, used by [`ResultRow::get`].
pub trait FromValue: Sized {
    /// Human-readable name of the requested type, used in error messages.
    const EXPECTED: &'static str;

    /// Converts from a non-NULL value; `None` on type mismatch.
    fn from_value(v: &Value) -> Option<Self>;
}

impl FromValue for i64 {
    const EXPECTED: &'static str = "int";

    fn from_value(v: &Value) -> Option<i64> {
        v.as_int()
    }
}

impl FromValue for f64 {
    const EXPECTED: &'static str = "float";

    fn from_value(v: &Value) -> Option<f64> {
        v.as_f64()
    }
}

impl FromValue for String {
    const EXPECTED: &'static str = "text";

    fn from_value(v: &Value) -> Option<String> {
        v.as_text().map(str::to_string)
    }
}

impl FromValue for Value {
    const EXPECTED: &'static str = "value";

    fn from_value(v: &Value) -> Option<Value> {
        Some(v.clone())
    }
}

/// One row of a [`ResultSet`] with name-based, typed column access.
#[derive(Debug, Clone)]
pub struct ResultRow {
    columns: Arc<[String]>,
    values: Row,
}

impl ResultRow {
    /// The result set's column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The row's cells in column order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consumes the row into its cells.
    pub fn into_values(self) -> Row {
        self.values
    }

    fn position(&self, column: &str) -> Result<usize, ColumnError> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(column))
            .ok_or_else(|| ColumnError::NoSuchColumn(column.to_string()))
    }

    /// Typed access to a non-NULL cell: `row.get::<i64>("doc_id")?`.
    /// NULL is an error here; use [`ResultRow::try_get`] to map NULL to
    /// `None` instead.
    pub fn get<T: FromValue>(&self, column: &str) -> Result<T, ColumnError> {
        let v = &self.values[self.position(column)?];
        if v.is_null() {
            return Err(ColumnError::Null(column.to_string()));
        }
        T::from_value(v).ok_or_else(|| ColumnError::TypeMismatch {
            column: column.to_string(),
            expected: T::EXPECTED,
            actual: value_type_name(v),
        })
    }

    /// Like [`ResultRow::get`], but NULL becomes `Ok(None)`.
    pub fn try_get<T: FromValue>(&self, column: &str) -> Result<Option<T>, ColumnError> {
        let v = &self.values[self.position(column)?];
        if v.is_null() {
            return Ok(None);
        }
        T::from_value(v)
            .map(Some)
            .ok_or_else(|| ColumnError::TypeMismatch {
                column: column.to_string(),
                expected: T::EXPECTED,
                actual: value_type_name(v),
            })
    }
}

/// Iterator over a [`ResultSet`]'s rows as [`ResultRow`]s.
pub struct ResultRows {
    columns: Arc<[String]>,
    rows: std::vec::IntoIter<Row>,
}

impl Iterator for ResultRows {
    type Item = ResultRow;

    fn next(&mut self) -> Option<ResultRow> {
        self.rows.next().map(|values| ResultRow {
            columns: Arc::clone(&self.columns),
            values,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for ResultRows {}

impl IntoIterator for ResultSet {
    type Item = ResultRow;
    type IntoIter = ResultRows;

    fn into_iter(self) -> ResultRows {
        let columns: Arc<[String]> = self.columns().to_vec().into();
        ResultRows {
            columns,
            rows: self.into_rows().into_iter(),
        }
    }
}

impl IntoIterator for &ResultSet {
    type Item = ResultRow;
    type IntoIter = ResultRows;

    fn into_iter(self) -> ResultRows {
        let columns: Arc<[String]> = self.columns().to_vec().into();
        ResultRows {
            columns,
            rows: self.rows().to_vec().into_iter(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_outside_strings() {
        assert_eq!(
            normalize_sql("SELECT  A\n FROM   T WHERE x = 'Ca  Se'"),
            "select a from t where x = 'Ca  Se'"
        );
        assert_eq!(normalize_sql("  SELECT 1  "), "select 1");
        // The '' escape keeps the literal open across the doubled quote.
        assert_eq!(normalize_sql("SELECT 'IT''S  A'"), "select 'IT''S  A'");
    }

    #[test]
    fn normalize_keeps_escaped_literals_distinct() {
        // Statements differing only inside literals share a shape and
        // differ in the values lifted out of it: everything after the
        // `''` escape is still *inside* the string and keeps its case and
        // spacing.
        let pairs = [
            ("SELECT 'O''Hara'", "select 'O''hara'"),
            ("SELECT 'O''Hara  X' FROM T", "SELECT 'O''Hara X' FROM T"),
            ("SELECT 'A''B''C'", "SELECT 'a''b''c'"),
            // A literal that is just one escaped quote, then diverging
            // content in a *second* literal.
            ("SELECT '''', 'UP'", "SELECT '''', 'up'"),
        ];
        for (a, b) in pairs {
            let (sa, sb) = (shape_of(a, &[]), shape_of(b, &[]));
            assert_eq!(sa.text, sb.text, "{a} vs {b}");
            assert_ne!(sa.values, sb.values, "{a} vs {b}");
        }
        assert_eq!(
            shape_of("SELECT '''', 'UP'", &[]).values,
            [Value::from("'"), Value::from("UP")]
        );
        // While the same statement differing only outside literals —
        // case, whitespace — still collapses onto one key.
        assert_eq!(
            normalize_sql("SELECT  'O''Hara'  FROM T"),
            normalize_sql("select 'O''Hara' from t")
        );
        assert_eq!(
            normalize_sql("SELECT 'IT''S  A' FROM t WHERE A=1"),
            normalize_sql("select 'IT''S  A' FROM T where a=1")
        );
    }

    #[test]
    fn normalize_strips_comments_like_the_lexer() {
        // Comments are invisible to the lexer, so they must be invisible
        // to the cache key.
        assert_eq!(
            normalize_sql("SELECT a -- it's fine\nFROM t"),
            "select a from t"
        );
        // The collision this prevents: with the comment kept, collapsing
        // the newline would merge a live FROM with a commented-out one.
        assert_ne!(
            normalize_sql("SELECT a -- x\nFROM t"),
            normalize_sql("SELECT a -- x FROM t")
        );
        assert_eq!(normalize_sql("SELECT a -- x FROM t"), "select a");
        // `--` inside a literal is data, not a comment.
        assert_eq!(normalize_sql("SELECT '--NoT'"), "select '--NoT'");
    }

    #[test]
    fn cache_key_distinguishes_param_types() {
        let a = cache_key(Cow::Borrowed("select 1"), &[Value::Int(3)]);
        let b = cache_key(Cow::Borrowed("select 1"), &[Value::Float(3.0)]);
        assert_ne!(a, b);
        // No params: the key is the normalized SQL itself, still borrowed.
        let key = cache_key(Cow::Borrowed("select 1"), &[]);
        assert_eq!(key, "select 1");
        assert!(matches!(key, Cow::Borrowed(_)));
    }

    fn scan_plan() -> Arc<PlannedQuery> {
        use crate::plan::{Access, Plan, PlanEstimate};
        let plan = Plan::from(Access::new("t", "t", None));
        let estimate = Arc::new(PlanEstimate::unknown(&plan));
        Arc::new(PlannedQuery {
            plan,
            visible: 1,
            columns: vec!["a".into()],
            estimate,
        })
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        cache.insert("a".into(), scan_plan(), 0);
        cache.insert("b".into(), scan_plan(), 0);
        assert!(cache.get("a", 0).is_some()); // refresh a; b is now LRU
        cache.insert("c".into(), scan_plan(), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b", 0).is_none());
        assert!(cache.get("a", 0).is_some());
        assert!(cache.get("c", 0).is_some());
    }

    #[test]
    fn plan_cache_rejects_stale_stats_generation() {
        let mut cache = PlanCache::new(4);
        cache.insert("q".into(), scan_plan(), 1);
        // Same generation: hit.
        assert!(cache.get("q", 1).is_some());
        // Newer generation (post-ANALYZE snapshot): miss, and the stale
        // entry is dropped rather than lingering at the old generation.
        assert!(cache.get("q", 2).is_none());
        assert_eq!(cache.len(), 0);
        // A plan inserted by a reader pinned to the old snapshot never
        // serves post-ANALYZE lookups.
        cache.insert("q".into(), scan_plan(), 1);
        assert!(cache.get("q", 2).is_none());
    }
}
