//! System virtual tables: the engine's own telemetry as relational data.
//!
//! A [`VirtualTableProvider`] turns live engine state into a schema plus
//! a batch of rows at query time. When a `SELECT` references a provider's
//! name, the query layer materializes the referenced providers into a
//! private copy-on-write overlay of the query's pinned MVCC snapshot
//! (see `Storage::overlay_virtual`), then plans and executes through the
//! ordinary planner and streaming executor — so filters, joins,
//! aggregates and `ORDER BY` all work unchanged against `sys_*` tables,
//! and joins between system tables and user tables are just joins.
//!
//! Semantics are *snapshot at query start*, not MVCC: a provider reads
//! whatever the telemetry source (metrics registry, flight recorder,
//! session registry, segment store) holds when the statement begins
//! planning, and the rows never change underneath the running query.
//! Two system tables referenced by one statement are captured together.
//! System tables are read-only (DML/DDL against a `sys_`-prefixed name is
//! rejected) and never enter the plan cache: their "contents" change with
//! every query, so a cached plan's snapshot would be stale by design.
//!
//! The builtin catalog:
//!
//! | table | grain |
//! |---|---|
//! | `sys_metrics` | one row per counter/gauge, several per histogram |
//! | `sys_queries` | one row per retained flight-recorder record |
//! | `sys_profiles` | one row per operator of each captured slow-query profile |
//! | `sys_segments` | one row per (table, segment, column) with zone-map bounds |
//! | `sys_sessions` | one row per live [`crate::Session`] |
//! | `sys_table_stats` | one row per (analyzed table, column) of optimizer statistics |
//! | `sys_views` | one row per materialized view with refresh telemetry |

use xomatiq_obs::MetricValue;

use crate::db::Database;
use crate::exec::OpProfile;
use crate::schema::{Column, TableSchema};
use crate::sql::ast::SelectStmt;
use crate::table::Row;
use crate::value::{DataType, Value};

/// Reserved name prefix for system tables.
pub const SYS_PREFIX: &str = "sys_";

/// Produces one virtual table: its schema and, on demand, its rows.
///
/// Implementations must be cheap enough to run per query (rows are
/// materialized each time the table is referenced) and must not call back
/// into `db.query(...)` — they read engine state directly.
pub trait VirtualTableProvider: Send + Sync {
    /// The table's name; must start with [`SYS_PREFIX`].
    fn name(&self) -> &str;
    /// The table's schema (column names and types).
    fn schema(&self) -> TableSchema;
    /// The table's rows as of now. Row arity/types must match `schema`.
    fn rows(&self, db: &Database) -> Vec<Row>;
}

/// The provider set a [`Database`] exposes (builtins plus registered).
pub(crate) struct VirtualTables {
    providers: Vec<Box<dyn VirtualTableProvider>>,
}

impl VirtualTables {
    /// The builtin `sys_*` catalog.
    pub(crate) fn builtin() -> VirtualTables {
        VirtualTables {
            providers: vec![
                Box::new(SysMetrics),
                Box::new(SysQueries),
                Box::new(SysProfiles),
                Box::new(SysSegments),
                Box::new(SysSessions),
                Box::new(SysTableStats),
                Box::new(SysViews),
            ],
        }
    }

    pub(crate) fn register(&mut self, provider: Box<dyn VirtualTableProvider>) {
        self.providers
            .retain(|p| !p.name().eq_ignore_ascii_case(provider.name()));
        self.providers.push(provider);
    }

    pub(crate) fn get(&self, name: &str) -> Option<&dyn VirtualTableProvider> {
        self.providers
            .iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
            .map(|p| p.as_ref())
    }

    /// Providers referenced by `select`'s FROM / JOIN clauses, deduped.
    pub(crate) fn referenced(&self, select: &SelectStmt) -> Vec<&dyn VirtualTableProvider> {
        let mut out: Vec<&dyn VirtualTableProvider> = Vec::new();
        let names = select
            .from
            .iter()
            .map(|t| t.table.as_str())
            .chain(select.joins.iter().map(|j| j.table.table.as_str()));
        for name in names {
            if let Some(p) = self.get(name) {
                if !out.iter().any(|q| q.name().eq_ignore_ascii_case(p.name())) {
                    out.push(p);
                }
            }
        }
        out
    }
}

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn flag(b: bool) -> Value {
    Value::Int(i64::from(b))
}

/// Trace ids travel as 16-digit lowercase hex text, the same form clients
/// print; `sys_queries.trace_id = '00ab…'` round-trips exactly.
pub fn trace_id_text(id: u64) -> String {
    format!("{id:016x}")
}

fn cols(spec: &[(&str, DataType)]) -> Vec<Column> {
    spec.iter().map(|(n, ty)| Column::new(n, *ty)).collect()
}

// ---------------------------------------------------------------------------
// sys_metrics
// ---------------------------------------------------------------------------

struct SysMetrics;

impl VirtualTableProvider for SysMetrics {
    fn name(&self) -> &str {
        "sys_metrics"
    }

    fn schema(&self) -> TableSchema {
        TableSchema::new(
            "sys_metrics",
            cols(&[
                ("name", DataType::Text),
                ("kind", DataType::Text),
                ("item", DataType::Text),
                ("value", DataType::Float),
            ]),
        )
    }

    fn rows(&self, _db: &Database) -> Vec<Row> {
        let snap = xomatiq_obs::global().snapshot();
        let mut rows = Vec::new();
        let mut push = |name: &str, kind: &str, item: &str, value: f64| {
            rows.push(vec![
                Value::Text(name.to_string()),
                Value::Text(kind.to_string()),
                Value::Text(item.to_string()),
                Value::Float(value),
            ]);
        };
        for (name, value) in &snap.entries {
            match value {
                MetricValue::Counter(v) => push(name, "counter", "value", *v as f64),
                MetricValue::Gauge(v) => push(name, "gauge", "value", *v as f64),
                MetricValue::Histogram(h) => {
                    push(name, "histogram", "count", h.count as f64);
                    push(name, "histogram", "sum", h.sum as f64);
                    for (q, item) in [(h.p50(), "p50"), (h.p99(), "p99"), (h.p999(), "p999")] {
                        if let Some(v) = q {
                            push(name, "histogram", item, v);
                        }
                    }
                    for (i, n) in h.buckets.iter().enumerate() {
                        match h.edges.get(i) {
                            Some(edge) => push(name, "histogram", &format!("le_{edge}"), *n as f64),
                            None => push(name, "histogram", "le_inf", *n as f64),
                        }
                    }
                }
            }
        }
        rows
    }
}

// ---------------------------------------------------------------------------
// sys_queries / sys_profiles (the flight recorder's SQL surface)
// ---------------------------------------------------------------------------

struct SysQueries;

impl VirtualTableProvider for SysQueries {
    fn name(&self) -> &str {
        "sys_queries"
    }

    fn schema(&self) -> TableSchema {
        TableSchema::new(
            "sys_queries",
            cols(&[
                ("query_id", DataType::Int),
                ("trace_id", DataType::Text),
                ("sql", DataType::Text),
                ("rows", DataType::Int),
                ("latency_ns", DataType::Int),
                ("cache_hit", DataType::Int),
                ("segments_pruned", DataType::Int),
                ("slow", DataType::Int),
            ]),
        )
    }

    fn rows(&self, db: &Database) -> Vec<Row> {
        db.flight_recorder()
            .snapshot()
            .into_iter()
            .map(|r| {
                vec![
                    int(r.query_id),
                    Value::Text(trace_id_text(r.trace_id)),
                    Value::Text(r.sql),
                    int(r.rows),
                    int(r.latency_ns),
                    flag(r.cache_hit),
                    int(r.segments_pruned),
                    flag(r.slow),
                ]
            })
            .collect()
    }
}

struct SysProfiles;

fn flatten_profile(query_id: u64, trace_id: u64, node: &OpProfile, depth: i64, out: &mut Vec<Row>) {
    out.push(vec![
        int(query_id),
        Value::Text(trace_id_text(trace_id)),
        Value::Int(depth),
        Value::Text(node.op.clone()),
        int(node.rows_in),
        int(node.rows_out),
        int(node.elapsed_ns),
        int(node.total_ns),
    ]);
    for child in &node.children {
        flatten_profile(query_id, trace_id, child, depth + 1, out);
    }
}

impl VirtualTableProvider for SysProfiles {
    fn name(&self) -> &str {
        "sys_profiles"
    }

    fn schema(&self) -> TableSchema {
        TableSchema::new(
            "sys_profiles",
            cols(&[
                ("query_id", DataType::Int),
                ("trace_id", DataType::Text),
                ("depth", DataType::Int),
                ("op", DataType::Text),
                ("rows_in", DataType::Int),
                ("rows_out", DataType::Int),
                ("self_ns", DataType::Int),
                ("total_ns", DataType::Int),
            ]),
        )
    }

    fn rows(&self, db: &Database) -> Vec<Row> {
        let mut rows = Vec::new();
        for rec in db.flight_recorder().snapshot() {
            if let Some(profile) = &rec.profile {
                flatten_profile(rec.query_id, rec.trace_id, profile, 0, &mut rows);
            }
        }
        rows
    }
}

// ---------------------------------------------------------------------------
// sys_segments
// ---------------------------------------------------------------------------

struct SysSegments;

impl VirtualTableProvider for SysSegments {
    fn name(&self) -> &str {
        "sys_segments"
    }

    fn schema(&self) -> TableSchema {
        TableSchema::new(
            "sys_segments",
            cols(&[
                ("table_name", DataType::Text),
                ("segment_id", DataType::Int),
                ("column_name", DataType::Text),
                ("rows", DataType::Int),
                ("tombstones", DataType::Int),
                ("null_count", DataType::Int),
                ("min_value", DataType::Text),
                ("max_value", DataType::Text),
                ("csn", DataType::Int),
            ]),
        )
    }

    fn rows(&self, db: &Database) -> Vec<Row> {
        let storage = db.snapshot();
        let mut rows = Vec::new();
        for schema in storage.catalog.tables() {
            let Ok(table) = storage.table(&schema.name) else {
                continue;
            };
            for (seg_id, seg) in table.store().segments().iter().enumerate() {
                // Highest commit that wrote into this segment (0 when all
                // rows predate MVCC stamps, e.g. replayed bootstrap data).
                let max_csn = (0..seg.len()).map(|s| seg.insert_csn_at(s)).max();
                for (col_idx, col) in schema.columns.iter().enumerate() {
                    let zone = seg.zone(col_idx);
                    let (min_v, max_v) = match zone.bounds() {
                        Some((min, max)) => {
                            (Value::Text(min.to_string()), Value::Text(max.to_string()))
                        }
                        None => (Value::Null, Value::Null),
                    };
                    rows.push(vec![
                        Value::Text(schema.name.clone()),
                        int(seg_id as u64),
                        Value::Text(col.name.clone()),
                        int(seg.len() as u64),
                        int((seg.len() - seg.live_count()) as u64),
                        Value::Int(i64::from(zone.null_count())),
                        min_v,
                        max_v,
                        int(max_csn.unwrap_or(0)),
                    ]);
                }
            }
        }
        rows
    }
}

// ---------------------------------------------------------------------------
// sys_table_stats
// ---------------------------------------------------------------------------

struct SysTableStats;

impl VirtualTableProvider for SysTableStats {
    fn name(&self) -> &str {
        "sys_table_stats"
    }

    fn schema(&self) -> TableSchema {
        TableSchema::new(
            "sys_table_stats",
            cols(&[
                ("table_name", DataType::Text),
                ("column_name", DataType::Text),
                ("row_count", DataType::Int),
                ("ndv", DataType::Int),
                ("null_frac", DataType::Float),
                ("min_value", DataType::Text),
                ("max_value", DataType::Text),
                ("stats_generation", DataType::Int),
            ]),
        )
    }

    /// One row per (analyzed table, column), read from the querying
    /// snapshot's [`crate::stats::StatsCatalog`] — so the rows are
    /// exactly the statistics the planner would use for this query.
    /// Tables never `ANALYZE`d contribute no rows.
    fn rows(&self, db: &Database) -> Vec<Row> {
        let storage = db.snapshot();
        let generation = storage.generation;
        let mut rows = Vec::new();
        for (table, stats) in storage.stats.analyzed_tables() {
            for col in &stats.columns {
                // Long text values (documents, flat-file bodies) would
                // swamp the rendered table; the bounds are only meant
                // for eyeballing ranges.
                let render = |v: &Option<Value>| match v {
                    Some(v) => {
                        let mut s = v.to_string();
                        if s.chars().count() > 48 {
                            s = s.chars().take(48).collect();
                            s.push('…');
                        }
                        Value::Text(s)
                    }
                    None => Value::Null,
                };
                rows.push(vec![
                    Value::Text(table.to_string()),
                    Value::Text(col.name.clone()),
                    int(stats.row_count),
                    int(col.ndv),
                    Value::Float(col.null_fraction(stats.analyzed_rows)),
                    render(&col.min),
                    render(&col.max),
                    int(generation),
                ]);
            }
        }
        rows
    }
}

// ---------------------------------------------------------------------------
// sys_views
// ---------------------------------------------------------------------------

struct SysViews;

impl VirtualTableProvider for SysViews {
    fn name(&self) -> &str {
        "sys_views"
    }

    fn schema(&self) -> TableSchema {
        TableSchema::new(
            "sys_views",
            cols(&[
                ("view_name", DataType::Text),
                ("definition", DataType::Text),
                ("refresh_policy", DataType::Text),
                ("last_refresh_csn", DataType::Int),
                ("pending_delta_rows", DataType::Int),
                ("delta_log_overflow", DataType::Int),
                ("incremental_refreshes", DataType::Int),
                ("fallback_refreshes", DataType::Int),
            ]),
        )
    }

    /// One row per materialized view, read from the querying snapshot —
    /// so `pending_delta_rows` counts exactly the committed deltas a
    /// `REFRESH` issued now would fold in. `delta_log_overflow = 1` means
    /// the bounded delta log spilled and the next refresh recomputes from
    /// scratch; the `incremental_refreshes` / `fallback_refreshes`
    /// counters say which path maintenance has actually been taking.
    fn rows(&self, db: &Database) -> Vec<Row> {
        let storage = db.snapshot();
        storage
            .views
            .values()
            .map(|rt| {
                vec![
                    Value::Text(rt.def.name.clone()),
                    Value::Text(rt.def.select_sql.clone()),
                    Value::Text(
                        if rt.def.refresh_on_commit {
                            "on_commit"
                        } else {
                            "deferred"
                        }
                        .to_string(),
                    ),
                    int(rt.last_refresh_csn),
                    int(rt.pending_images as u64),
                    flag(rt.overflowed),
                    int(rt.incremental_refreshes),
                    int(rt.fallback_refreshes),
                ]
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// sys_sessions
// ---------------------------------------------------------------------------

struct SysSessions;

impl VirtualTableProvider for SysSessions {
    fn name(&self) -> &str {
        "sys_sessions"
    }

    fn schema(&self) -> TableSchema {
        TableSchema::new(
            "sys_sessions",
            cols(&[
                ("session_id", DataType::Int),
                ("prepared", DataType::Int),
                ("queries", DataType::Int),
                ("uptime_ns", DataType::Int),
            ]),
        )
    }

    fn rows(&self, db: &Database) -> Vec<Row> {
        db.session_infos()
            .into_iter()
            .map(|s| {
                vec![
                    int(s.session_id),
                    int(s.prepared as u64),
                    int(s.queries),
                    int(s.uptime_ns),
                ]
            })
            .collect()
    }
}
