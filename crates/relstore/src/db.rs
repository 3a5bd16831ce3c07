//! The database facade: storage, SQL entry point, durability, concurrency.
//!
//! [`Database`] is what the rest of the workspace talks to — the stand-in
//! for the paper's Oracle 9i instance. It wraps [`Storage`] (catalog +
//! tables + indexes) in a reader/writer lock for mutations, publishes an
//! immutable copy-on-write snapshot of the committed state for readers,
//! and threads every mutation through a group-committed write-ahead log
//! before acknowledging it.
//!
//! # Transactions, snapshots and commit sequence numbers
//!
//! Every committed unit of work — one DML statement, one
//! [`Database::execute_batch`], or one autocommitted DDL statement — is
//! assigned the next **commit sequence number** (CSN) while it holds the
//! storage write lock, so CSN order, apply order and log order are the
//! same total order. Row versions carry the CSN that inserted and (for
//! tombstones) deleted them, stamped down in the segment store.
//!
//! Readers never block on writers: queries run against an
//! `Arc<Storage>` snapshot published at the *last durable commit*.
//! Cloning `Storage` is cheap — tables share their sealed segments via
//! `Arc`, indexes are `Arc`-wrapped, and writers clone-on-write only the
//! pieces a live snapshot still references. A query pinned to a snapshot
//! sees that CSN's state for its whole lifetime, whatever writers do
//! concurrently.
//!
//! # Group commit
//!
//! Committers enqueue their framed records into a shared buffer under the
//! storage write lock, release it, and wait. The first waiter whose CSN
//! is not yet durable becomes the **flush leader**: it takes the whole
//! buffer and makes it durable with a single append + fsync, then wakes
//! everyone. Concurrent committers therefore amortize one fsync across
//! the batch. If the flush fails, *every* transaction in the batch
//! observes the error, each rolls back its own in-memory effects, and the
//! database is poisoned — it refuses further commits until reopened.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use xomatiq_obs::trace;

use crate::bind::{bind_expr, RowSchema};
use crate::error::{RelError, RelResult};
use crate::exec::{index_leaf_ids, run_plan, ExecStats, PlanRun};
use crate::exec_parallel;
use crate::expr::{eval, eval_predicate};
use crate::index::BTreeIndex;
use crate::metrics;
use crate::plan::PlannedQuery;
use crate::planner::plan_select;
use crate::pool::{StopSignal, WorkerPool};
use crate::query::{ExecMode, PlanCache, QueryOutcome};
use crate::recorder::FlightRecorder;
use crate::schema::{Catalog, Column, IndexDef, TableSchema};
use crate::sql::ast::{Expr, SelectStmt, Statement, TableRef};
use crate::sql::parser::parse_statement;
use crate::stats::StatsCatalog;
use crate::table::{Row, RowId, Table};
use crate::text::KeywordIndex;
use crate::value::Value;
use crate::view::{self, DeltaEvent, ViewDef, ViewRuntime, VIEW_DELTA_LOG_CAP};
use crate::vtab::{VirtualTableProvider, VirtualTables, SYS_PREFIX};
use crate::wal::{frame_into, RecoveryReport, Wal, WalIo, WalRecord};

/// Segments whose dead-slot fraction exceeds this are rewritten by the
/// background compactor.
const COMPACT_DEAD_RATIO: f64 = 0.3;

/// A fresh [`Storage::generation`]: process-unique, so no two distinct
/// (catalog, statistics) states — of any snapshot of any database — can
/// ever carry the same tag.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // Relaxed: the counter only hands out distinct numbers; the states
    // they tag are published through the storage locks.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// In-memory state: catalog, tables and index structures.
///
/// `Storage` is cheaply `Clone`: tables share sealed segments through
/// `Arc`, and index structures are `Arc`-wrapped. A clone is an MVCC
/// snapshot — it sees the state as of the clone and is never affected by
/// later mutations of the original (which copy-on-write any shared piece
/// before changing it).
#[derive(Debug, Clone)]
pub struct Storage {
    /// Schemas and index definitions.
    pub catalog: Catalog,
    tables: BTreeMap<String, Table>,
    btree: BTreeMap<String, Arc<BTreeIndex>>,
    keyword: BTreeMap<String, Arc<KeywordIndex>>,
    /// Commit sequence number of the last commit applied to this state.
    /// Mutations are stamped with `csn + 1` (the CSN their commit will
    /// take); the commit itself bumps the counter.
    pub(crate) csn: u64,
    /// Whether scans may skip segments via zone maps (on by default;
    /// benches turn it off to measure the pruning win).
    zone_map_pruning: bool,
    /// Planner statistics (row counts, min/max, NDV sketches). Part of
    /// the snapshot: a pinned reader plans against the statistics of its
    /// own state, never a later `ANALYZE`'s.
    pub(crate) stats: StatsCatalog,
    /// Identity of everything a plan depends on: re-drawn whenever the
    /// catalog (tables, indexes, materialized views) or the column
    /// statistics change. Cached plans are tagged with it, so a plan is
    /// only ever served to a snapshot with the state it was bound and
    /// costed against.
    pub(crate) generation: u64,
    /// Materialized views, keyed like `tables` (each view also owns a
    /// backing entry in `tables`/`catalog` under the same key). Part of
    /// the snapshot: a pinned reader sees the view contents of its CSN.
    pub(crate) views: BTreeMap<String, ViewRuntime>,
}

impl Default for Storage {
    fn default() -> Storage {
        Storage {
            catalog: Catalog::default(),
            tables: BTreeMap::new(),
            btree: BTreeMap::new(),
            keyword: BTreeMap::new(),
            csn: 0,
            zone_map_pruning: true,
            stats: StatsCatalog::default(),
            generation: 0,
            views: BTreeMap::new(),
        }
    }
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Storage {
    /// Borrows a table.
    pub fn table(&self, name: &str) -> RelResult<&Table> {
        self.tables
            .get(&key(name))
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    fn table_mut(&mut self, name: &str) -> RelResult<&mut Table> {
        self.tables
            .get_mut(&key(name))
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    /// Borrows a B-tree index by name.
    pub fn btree_index(&self, name: &str) -> RelResult<&BTreeIndex> {
        self.btree
            .get(&key(name))
            .map(|idx| idx.as_ref())
            .ok_or_else(|| RelError::UnknownIndex(name.to_string()))
    }

    /// Borrows a keyword index by name.
    pub fn keyword_index(&self, name: &str) -> RelResult<&KeywordIndex> {
        self.keyword
            .get(&key(name))
            .map(|idx| idx.as_ref())
            .ok_or_else(|| RelError::UnknownIndex(name.to_string()))
    }

    /// Whether scans may consult zone maps to skip segments.
    pub fn zone_map_pruning(&self) -> bool {
        self.zone_map_pruning
    }

    /// Commit sequence number of the last commit this state includes.
    pub fn csn(&self) -> u64 {
        self.csn
    }

    /// A copy-on-write overlay of this snapshot with the given virtual
    /// tables materialized as ordinary (index-less) tables — the storage
    /// a `SELECT` referencing `sys_*` names runs against. The overlay
    /// shares every user segment with `self` via `Arc`, so building it
    /// costs only the virtual rows themselves.
    pub(crate) fn overlay_virtual(
        &self,
        tables: Vec<(TableSchema, Vec<Row>)>,
    ) -> RelResult<Storage> {
        let mut overlay = self.clone();
        for (schema, rows) in tables {
            let name = schema.name.clone();
            // A user table shadowed by a system name cannot exist (DDL
            // rejects the sys_ prefix), but replayed legacy state might:
            // the virtual table wins for the duration of the query.
            if overlay.catalog.has_table(&name) {
                overlay.drop_table(&name)?;
            }
            overlay.create_table(schema)?;
            for row in rows {
                overlay.insert(&name, row)?;
            }
        }
        Ok(overlay)
    }

    fn create_table(&mut self, schema: TableSchema) -> RelResult<()> {
        self.catalog.create_table(schema.clone())?;
        let name = key(&schema.name);
        self.tables.insert(name.clone(), Table::new(schema));
        // Start row-count tracking immediately; column statistics wait
        // for an ANALYZE.
        *self.stats.table_mut(&name) = crate::stats::TableStats::default();
        self.generation = next_generation();
        Ok(())
    }

    fn drop_table(&mut self, name: &str) -> RelResult<()> {
        // Record which indexes will disappear before mutating the catalog.
        let dropped: Vec<String> = self
            .catalog
            .indexes_on(name)
            .iter()
            .map(|d| key(&d.name))
            .collect();
        self.catalog.drop_table(name)?;
        self.tables.remove(&key(name));
        self.stats.remove(name);
        for idx in dropped {
            self.btree.remove(&idx);
            self.keyword.remove(&idx);
        }
        self.generation = next_generation();
        Ok(())
    }

    fn create_index(&mut self, def: IndexDef) -> RelResult<()> {
        self.catalog.create_index(def.clone())?;
        let table = self.table(&def.table)?;
        if def.keyword {
            let col = table
                .schema()
                .column_index(&def.columns[0])
                .expect("validated by catalog");
            let mut idx = KeywordIndex::new(col);
            for (id, row) in table.scan() {
                idx.insert(id, &row);
            }
            self.keyword.insert(key(&def.name), Arc::new(idx));
        } else {
            let cols: Vec<usize> = def
                .columns
                .iter()
                .map(|c| {
                    table
                        .schema()
                        .column_index(c)
                        .expect("validated by catalog")
                })
                .collect();
            let mut idx = BTreeIndex::new(cols);
            for (id, row) in table.scan() {
                idx.insert(id, &row);
            }
            self.btree.insert(key(&def.name), Arc::new(idx));
        }
        self.generation = next_generation();
        Ok(())
    }

    fn drop_index(&mut self, name: &str) -> RelResult<()> {
        self.catalog.drop_index(name)?;
        self.btree.remove(&key(name));
        self.keyword.remove(&key(name));
        self.generation = next_generation();
        Ok(())
    }

    fn insert(&mut self, table: &str, row: Row) -> RelResult<(RowId, Row)> {
        let stamp = self.csn + 1;
        let t = self.table_mut(table)?;
        t.set_stamp(stamp);
        let id = t.insert(row)?;
        let stored = t.get(id).expect("just inserted");
        self.index_insert(table, id, &stored);
        self.note_mutation(table, 1);
        Ok((id, stored))
    }

    fn insert_at(&mut self, table: &str, id: RowId, row: Row) -> RelResult<()> {
        let stamp = self.csn + 1;
        let t = self.table_mut(table)?;
        t.set_stamp(stamp);
        t.insert_at(id, row)?;
        let stored = t.get(id).expect("just inserted");
        self.index_insert(table, id, &stored);
        self.note_mutation(table, 1);
        Ok(())
    }

    fn delete(&mut self, table: &str, id: RowId) -> RelResult<Row> {
        let stamp = self.csn + 1;
        let t = self.table_mut(table)?;
        t.set_stamp(stamp);
        let old = t.delete(id)?;
        self.index_remove(table, id, &old);
        self.note_mutation(table, -1);
        Ok(old)
    }

    fn update(&mut self, table: &str, id: RowId, row: Row) -> RelResult<Row> {
        let stamp = self.csn + 1;
        let t = self.table_mut(table)?;
        t.set_stamp(stamp);
        let old = t.update(id, row)?;
        let new = t.get(id).expect("just updated");
        self.index_remove(table, id, &old);
        self.index_insert(table, id, &new);
        self.note_mutation(table, 0);
        Ok(old)
    }

    /// Tracks one row mutation against the planner statistics: the row
    /// count moves by `delta` exactly, and once enough churn accumulates
    /// the column statistics (if the table was analyzed) rebuild in place.
    fn note_mutation(&mut self, table: &str, delta: i64) {
        let rebuild = {
            let Some(stats) = self.stats.existing_mut(table) else {
                return;
            };
            stats.row_count = stats.row_count.saturating_add_signed(delta);
            stats.churn += 1;
            stats.needs_rebuild()
        };
        if rebuild {
            self.rebuild_stats(table);
        }
    }

    /// Rescans `table` into its statistics entry and draws a new
    /// generation (invalidating cached plans).
    pub(crate) fn rebuild_stats(&mut self, table: &str) {
        let Ok(t) = self.table(table) else { return };
        let schema = t.schema().clone();
        let rows: Vec<Row> = t.scan().map(|(_, row)| row).collect();
        if let Some(stats) = self.stats.existing_mut(table) {
            stats.rescan(&schema, rows.into_iter());
            self.generation = next_generation();
        }
    }

    /// Replaces this snapshot's column statistics in place (how `ANALYZE`
    /// reaches already-published snapshots). The snapshot may lag the
    /// state the statistics came from, so the combination is a new state
    /// and gets a generation of its own.
    fn patch_stats(&mut self, stats: StatsCatalog) {
        self.stats = stats;
        self.generation = next_generation();
    }

    fn index_insert(&mut self, table: &str, id: RowId, row: &[Value]) {
        let defs: Vec<String> = self
            .catalog
            .indexes_on(table)
            .into_iter()
            .map(|d| key(&d.name))
            .collect();
        for name in defs {
            if let Some(idx) = self.btree.get_mut(&name) {
                Arc::make_mut(idx).insert(id, row);
            }
            if let Some(idx) = self.keyword.get_mut(&name) {
                Arc::make_mut(idx).insert(id, row);
            }
        }
    }

    fn index_remove(&mut self, table: &str, id: RowId, row: &[Value]) {
        let defs: Vec<String> = self
            .catalog
            .indexes_on(table)
            .into_iter()
            .map(|d| key(&d.name))
            .collect();
        for name in defs {
            if let Some(idx) = self.btree.get_mut(&name) {
                Arc::make_mut(idx).remove(id, row);
            }
            if let Some(idx) = self.keyword.get_mut(&name) {
                Arc::make_mut(idx).remove(id, row);
            }
        }
    }

    /// Rows of `table` matching `filter` (all rows when `None`).
    ///
    /// DML gets the same index-driven access paths as queries: the
    /// filter's sargable conjuncts go through the planner's access-path
    /// selection, so `DELETE ... WHERE doc_id = 7` touches only the
    /// matching rows instead of scanning the table — which is what makes
    /// the Data Hounds' per-entry incremental updates cheaper than a full
    /// reload.
    fn matching_rows(&self, table: &str, filter: Option<&Expr>) -> RelResult<Vec<RowId>> {
        use crate::plan::Plan;
        let t = self.table(table)?;
        let Some(filter) = filter else {
            return Ok(t.scan().map(|(id, _)| id).collect());
        };
        if filter.has_aggregate() {
            return Err(RelError::Eval("aggregate in DML predicate".into()));
        }
        let filter = bind_expr(filter, &dml_schema(t))?;
        // Candidate row ids from the best index, else a full scan.
        let mut conjuncts = Vec::new();
        crate::planner::split_conjuncts(filter.clone(), &mut conjuncts);
        let table_ref = TableRef {
            table: table.to_string(),
            alias: table.to_string(),
        };
        let access =
            crate::planner::choose_access_path(&table_ref, &conjuncts, &self.catalog, &self.stats);
        let candidates: Vec<RowId> = match access {
            Plan::Scan { .. } => t.scan().map(|(id, _)| id).collect(),
            leaf => index_leaf_ids(&leaf, self)?,
        };
        // The full filter is re-checked on every candidate (index access
        // only covers the sargable prefix).
        let mut ids = Vec::with_capacity(candidates.len());
        for id in candidates {
            let Some(row) = t.get(id) else { continue };
            if eval_predicate(&filter, &row)? {
                ids.push(id);
            }
        }
        Ok(ids)
    }

    /// Whether `name` is a materialized view's backing table.
    pub fn is_view(&self, name: &str) -> bool {
        self.views.contains_key(&key(name))
    }

    /// Whether any materialized view reads `table` — the signal DML paths
    /// use to decide whether capturing delta events is worth the clones.
    fn views_watch(&self, table: &str) -> bool {
        let k = key(table);
        self.views
            .values()
            .any(|rt| rt.source_tables().any(|s| s == k))
    }

    /// Names of materialized views that read `table`.
    fn view_dependents(&self, table: &str) -> Vec<String> {
        let k = key(table);
        self.views
            .iter()
            .filter(|(_, rt)| rt.source_tables().any(|s| s == k))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Registers a materialized view from its durable definition: parses
    /// and re-analyzes the `SELECT` against the current catalog and
    /// creates the (empty) backing table. Contents are derived state —
    /// recovery full-builds every view after replay finishes.
    fn install_view(
        &mut self,
        name: &str,
        refresh_on_commit: bool,
        select_sql: &str,
    ) -> RelResult<()> {
        let Statement::Select(query) = parse_statement(select_sql)? else {
            return Err(RelError::Wal(format!(
                "view {name:?} definition is not a SELECT"
            )));
        };
        let (analysis, backing) = view::analyze_view(name, &query, &self.catalog)?;
        self.create_table(backing)?;
        let state = view::empty_state(&analysis);
        self.views.insert(
            key(name),
            ViewRuntime {
                def: ViewDef {
                    name: name.to_string(),
                    refresh_on_commit,
                    select_sql: select_sql.to_string(),
                },
                analysis,
                state: Arc::new(state),
                pending: Arc::new(Vec::new()),
                overflowed: false,
                last_refresh_csn: 0,
                incremental_refreshes: 0,
                fallback_refreshes: 0,
            },
        );
        Ok(())
    }

    /// From-scratch rebuild of one view's contents and state (creation,
    /// `REFRESH ... FULL`, overflow fallback, recovery). The backing
    /// table is replaced wholesale; `stamp` becomes the new rows' CSN.
    fn rebuild_view(&mut self, name: &str, stamp: u64) -> RelResult<()> {
        let k = key(name);
        let mut rt = self
            .views
            .remove(&k)
            .ok_or_else(|| RelError::Internal(format!("view {name:?} not registered")))?;
        let schema = self
            .catalog
            .table(name)
            .expect("view backing schema")
            .clone();
        let mut fresh = Table::new(schema);
        fresh.set_stamp(stamp);
        let result = view::full_build(&rt.analysis, &self.tables, &mut fresh);
        match result {
            Ok(state) => {
                rt.state = Arc::new(state);
                let rows = fresh.len() as u64;
                self.tables.insert(k.clone(), fresh);
                if let Some(s) = self.stats.existing_mut(&k) {
                    s.row_count = rows;
                }
                self.views.insert(k, rt);
                Ok(())
            }
            Err(e) => {
                // Leave the previous table and runtime in place.
                self.views.insert(k, rt);
                Err(e)
            }
        }
    }
}

/// Applies one committed batch of delta events to every affected view,
/// appending [`UndoOp::RestoreView`] entries so both failure paths —
/// maintenance error here, flush failure later — restore the views along
/// with the base tables. `csn` is the committing transaction's CSN.
fn maintain_views(
    storage: &mut Storage,
    deltas: &[DeltaEvent],
    csn: u64,
    undo: &mut Vec<UndoOp>,
) -> RelResult<()> {
    let affected: Vec<String> = storage
        .views
        .iter()
        .filter(|(_, rt)| rt.affected_by(deltas))
        .map(|(n, _)| n.clone())
        .collect();
    for name in affected {
        let mut rt = storage.views.remove(&name).expect("listed above");
        if rt.def.refresh_on_commit {
            let mut vt = storage
                .tables
                .remove(&name)
                .expect("view backing table exists");
            undo.push(UndoOp::RestoreView {
                name: name.clone(),
                table: Box::new(vt.clone()),
                runtime: Box::new(rt.clone()),
            });
            vt.set_stamp(csn);
            let res = view::apply_deltas(&mut rt, &mut vt, &storage.tables, deltas);
            let rows = vt.len() as u64;
            // Reinsert before surfacing any error so the caller's
            // rollback finds the entries to restore over.
            storage.tables.insert(name.clone(), vt);
            if let Some(s) = storage.stats.existing_mut(&name) {
                s.row_count = rows;
            }
            rt.last_refresh_csn = csn;
            rt.incremental_refreshes += 1;
            storage.views.insert(name, rt);
            res?;
        } else {
            undo.push(UndoOp::RestoreView {
                name: name.clone(),
                table: Box::new(storage.tables.get(&name).expect("view table").clone()),
                runtime: Box::new(rt.clone()),
            });
            let relevant: Vec<DeltaEvent> = deltas
                .iter()
                .filter(|d: &&DeltaEvent| rt.affected_by(std::slice::from_ref(*d)))
                .cloned()
                .collect();
            if !rt.overflowed {
                let pending = Arc::make_mut(&mut rt.pending);
                if pending.len() + relevant.len() > VIEW_DELTA_LOG_CAP {
                    // Bounded log: beyond the cap the deltas are dropped
                    // and the next REFRESH falls back to a full rebuild.
                    pending.clear();
                    rt.overflowed = true;
                } else {
                    pending.extend(relevant);
                }
            }
            storage.views.insert(name, rt);
        }
    }
    Ok(())
}

/// Shapes executor output into a [`ResultSet`], dropping the hidden
/// sort-key columns the planner appended after the first `visible` items.
fn select_result(planned: &PlannedQuery, rows: Vec<Row>) -> ResultSet {
    let visible = planned.visible;
    let rows = rows
        .into_iter()
        .map(|mut r| {
            r.truncate(visible);
            r
        })
        .collect();
    ResultSet::query(planned.columns.clone(), rows)
}

/// The result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    columns: Vec<String>,
    rows: Vec<Row>,
    affected: usize,
}

impl ResultSet {
    fn query(columns: Vec<String>, rows: Vec<Row>) -> Self {
        ResultSet {
            columns,
            rows,
            affected: 0,
        }
    }

    fn dml(affected: usize) -> Self {
        ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
            affected,
        }
    }

    /// Wraps rendered plan text as a one-column result set (one row per
    /// line), the shape `EXPLAIN [ANALYZE]` statements return.
    pub(crate) fn plan_text(text: &str) -> Self {
        ResultSet {
            columns: vec!["plan".to_string()],
            rows: text
                .lines()
                .map(|l| vec![Value::Text(l.to_string())])
                .collect(),
            affected: 0,
        }
    }

    /// Builds a query-shaped result set from column names and rows, for
    /// adapters that synthesize results outside the executor.
    pub fn from_parts(columns: Vec<String>, rows: Vec<Row>) -> ResultSet {
        ResultSet {
            columns,
            rows,
            affected: 0,
        }
    }

    /// Output column names (empty for DML/DDL).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Result rows (empty for DML/DDL).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows affected by DML (0 for queries).
    pub fn affected(&self) -> usize {
        self.affected
    }

    /// Consumes the result set into its rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Renders the result as an ASCII table — the "simple table format"
    /// result view of the paper's Figure 7(b).
    pub fn to_table(&self) -> String {
        if self.columns.is_empty() {
            return format!("({} rows affected)\n", self.affected);
        }
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out.push_str(&format!("({} rows)\n", self.rows.len()));
        out
    }
}

/// Shared state of the group-commit queue, guarded by
/// [`Durability::queue`].
struct CommitQueue {
    /// Framed `Begin .. Commit` bytes enqueued and awaiting flush.
    buf: Vec<u8>,
    /// Highest CSN whose frames have been enqueued (or already flushed).
    queued_csn: u64,
    /// Highest CSN known durable on disk.
    durable_csn: u64,
    /// Whether a flush leader is currently at the disk.
    flushing: bool,
    /// Sticky failure: once a flush or rotation fails, every later commit
    /// is refused with this message until the database is reopened.
    poisoned: Option<String>,
    /// Copy-on-write snapshot covering everything up to `queued_csn`,
    /// published to readers only once its covering flush succeeds — so
    /// readers never see state the log does not have.
    pending_snapshot: Option<Arc<Storage>>,
    /// Next transaction id to hand out.
    next_tx: u64,
    /// Bytes written to the active log since open/rotation (the
    /// `relstore.wal.bytes` gauge).
    log_bytes: u64,
    /// Trace contexts of the committers whose frames sit in `buf`. The
    /// flush leader takes them with the buffer and attaches one
    /// `relstore.wal.group_commit` span to each — which is how a commit
    /// flushed by *another session's* thread still shows up in its own
    /// request's trace tree.
    waiting_traces: Vec<trace::TraceCtx>,
}

/// Durable-mode machinery: the log plus the group-commit queue.
///
/// Lock order: the flush leader never holds the queue lock while taking
/// the wal lock (it drops one before the other); [`Database::checkpoint`]
/// nests queue → wal, which is safe because nothing nests wal → queue.
struct Durability {
    wal: Mutex<Wal>,
    queue: Mutex<CommitQueue>,
    cond: Condvar,
}

/// `Condvar::wait` with lock-poisoning flattened away (the engine holds
/// no invariants that a panicking peer could have broken mid-update).
fn cond_wait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(|e| e.into_inner())
}

fn poison_error(msg: &str) -> RelError {
    RelError::Wal(format!(
        "database poisoned by an earlier I/O failure (reopen to recover): {msg}"
    ))
}

/// Tuning knobs for a [`Database`].
#[derive(Debug, Clone)]
pub struct DatabaseOptions {
    /// Total workers available to parallel-eligible `SELECT` plans (the
    /// calling thread counts as one; `1` disables parallel execution).
    /// Defaults to the `XOMATIQ_WORKERS` environment variable if set,
    /// else the machine's available parallelism capped at 8.
    pub workers: usize,
    /// Rows per morsel handed to a worker by the parallel executor.
    pub morsel_size: usize,
    /// Maximum number of cached `SELECT` plans (`0` disables the cache).
    pub plan_cache_capacity: usize,
    /// Whether scans may skip segments via zone maps. On by default;
    /// benches disable it to measure the unpruned baseline.
    pub zone_map_pruning: bool,
    /// Statements at or above this latency are flagged slow in the
    /// flight recorder and re-profiled against their own snapshot to
    /// capture a per-operator profile (`sys_profiles`). The default
    /// (`u64::MAX`) keeps recording on but never triggers the profile
    /// capture, so the hot path pays nothing for it.
    pub slow_query_ns: u64,
    /// Recent-query records the flight recorder retains (`0` disables
    /// recording entirely; the default keeps the last 512).
    pub flight_recorder_capacity: usize,
}

impl Default for DatabaseOptions {
    fn default() -> DatabaseOptions {
        let workers = std::env::var("XOMATIQ_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get().min(8))
                    .unwrap_or(1)
            })
            .max(1);
        DatabaseOptions {
            workers,
            morsel_size: 1024,
            plan_cache_capacity: 128,
            zone_map_pruning: true,
            slow_query_ns: u64::MAX,
            flight_recorder_capacity: 512,
        }
    }
}

struct MaintenanceTask {
    stop: Arc<StopSignal>,
    handle: std::thread::JoinHandle<()>,
}

/// Registry entry for one live [`crate::Session`] (the `sys_sessions`
/// virtual table's backing state).
#[derive(Debug, Clone)]
pub(crate) struct SessionInfo {
    pub(crate) workers: Option<usize>,
    pub(crate) prepared: usize,
    pub(crate) queries: u64,
    pub(crate) started: Instant,
}

/// One `sys_sessions` row, flattened out of the registry.
pub(crate) struct SessionInfoSnapshot {
    pub(crate) session_id: u64,
    pub(crate) workers: Option<usize>,
    pub(crate) prepared: usize,
    pub(crate) queries: u64,
    pub(crate) uptime_ns: u64,
}

/// An embedded relational database.
pub struct Database {
    pub(crate) storage: RwLock<Storage>,
    /// The latest committed-and-durable state, served to readers without
    /// touching the storage write lock.
    snapshot: Mutex<Arc<Storage>>,
    durability: Option<Durability>,
    pub(crate) options: DatabaseOptions,
    pub(crate) pool: WorkerPool,
    pub(crate) plan_cache: Mutex<PlanCache>,
    maintenance: Mutex<Option<MaintenanceTask>>,
    /// Recent-query ring buffer (the `sys_queries` backing store).
    recorder: FlightRecorder,
    /// System virtual tables (builtins plus registered providers).
    vtabs: RwLock<VirtualTables>,
    /// Live sessions keyed by session id.
    sessions: Mutex<BTreeMap<u64, SessionInfo>>,
    next_session_id: std::sync::atomic::AtomicU64,
}

impl Database {
    fn assemble(
        mut storage: Storage,
        durability: Option<Durability>,
        options: DatabaseOptions,
    ) -> Database {
        storage.zone_map_pruning = options.zone_map_pruning;
        let pool = WorkerPool::new(options.workers);
        let plan_cache = Mutex::new(PlanCache::new(options.plan_cache_capacity));
        let snapshot = Mutex::new(Arc::new(storage.clone()));
        let recorder = FlightRecorder::new(options.flight_recorder_capacity, options.slow_query_ns);
        Database {
            storage: RwLock::new(storage),
            snapshot,
            durability,
            options,
            pool,
            plan_cache,
            maintenance: Mutex::new(None),
            recorder,
            vtabs: RwLock::new(VirtualTables::builtin()),
            sessions: Mutex::new(BTreeMap::new()),
            next_session_id: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Creates a volatile database (no durability).
    pub fn in_memory() -> Database {
        Database::in_memory_with_options(DatabaseOptions::default())
    }

    /// Creates a volatile database with explicit [`DatabaseOptions`].
    pub fn in_memory_with_options(options: DatabaseOptions) -> Database {
        Database::assemble(Storage::default(), None, options)
    }

    /// The options this database was built with.
    pub fn options(&self) -> &DatabaseOptions {
        &self.options
    }

    /// The slow-query flight recorder (see [`crate::recorder`]).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Registers (or replaces, by name) a system virtual table. The
    /// provider's name must start with `sys_`; it becomes queryable
    /// through the ordinary `db.query(...)` path immediately.
    pub fn register_virtual_table(&self, provider: Box<dyn VirtualTableProvider>) -> RelResult<()> {
        if !provider.name().to_ascii_lowercase().starts_with(SYS_PREFIX) {
            return Err(RelError::Internal(format!(
                "virtual table {:?} must use the {SYS_PREFIX:?} name prefix",
                provider.name()
            )));
        }
        self.vtabs.write().register(provider);
        Ok(())
    }

    /// Whether `name` resolves to a system virtual table (or reserves the
    /// `sys_` prefix without one registered — writes are refused either
    /// way, so the namespace stays free for future builtins).
    pub fn is_system_table(&self, name: &str) -> bool {
        name.to_ascii_lowercase().starts_with(SYS_PREFIX)
    }

    fn reject_system_write(&self, name: &str, action: &str) -> RelResult<()> {
        if self.is_system_table(name) {
            return Err(RelError::ReadOnly(format!(
                "cannot {action} {name:?}: the sys_ prefix is reserved for \
                 read-only system tables"
            )));
        }
        Ok(())
    }

    /// The storage a `SELECT` should run against: `base` itself unless
    /// the statement references system virtual tables, in which case a
    /// copy-on-write overlay with those tables materialized (snapshot
    /// semantics: telemetry is captured here, once, for the whole query).
    pub(crate) fn storage_for_select(
        &self,
        base: &Arc<Storage>,
        select: &SelectStmt,
    ) -> RelResult<Arc<Storage>> {
        let vtabs = self.vtabs.read();
        let referenced = vtabs.referenced(select);
        if referenced.is_empty() {
            return Ok(Arc::clone(base));
        }
        let tables: Vec<(TableSchema, Vec<Row>)> = referenced
            .iter()
            .map(|p| (p.schema(), p.rows(self)))
            .collect();
        drop(vtabs);
        Ok(Arc::new(base.overlay_virtual(tables)?))
    }

    // --- session registry (the `sys_sessions` backing store) ---

    pub(crate) fn register_session(&self) -> u64 {
        let id = self
            .next_session_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.sessions.lock().insert(
            id,
            SessionInfo {
                workers: None,
                prepared: 0,
                queries: 0,
                started: Instant::now(),
            },
        );
        id
    }

    pub(crate) fn unregister_session(&self, id: u64) {
        self.sessions.lock().remove(&id);
    }

    pub(crate) fn update_session(&self, id: u64, f: impl FnOnce(&mut SessionInfo)) {
        if let Some(info) = self.sessions.lock().get_mut(&id) {
            f(info);
        }
    }

    pub(crate) fn session_infos(&self) -> Vec<SessionInfoSnapshot> {
        self.sessions
            .lock()
            .iter()
            .map(|(id, info)| SessionInfoSnapshot {
                session_id: *id,
                workers: info.workers,
                prepared: info.prepared,
                queries: info.queries,
                uptime_ns: u64::try_from(info.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            })
            .collect()
    }

    /// The snapshot queries run against: the state as of the last durable
    /// (or, in memory-only mode, last applied) commit.
    pub(crate) fn snapshot(&self) -> Arc<Storage> {
        Arc::clone(&self.snapshot.lock())
    }

    fn publish(&self, snap: Arc<Storage>) {
        *self.snapshot.lock() = snap;
    }

    /// Toggles zone-map segment pruning at runtime (bench A/B runs).
    /// Disabling it only stops scans from *skipping* segments; the
    /// vectorized kernels still evaluate pushed-down conjuncts.
    pub fn set_zone_map_pruning(&self, enabled: bool) {
        let mut storage = self.storage.write();
        storage.zone_map_pruning = enabled;
        if let Some(d) = &self.durability {
            let mut q = d.queue.lock();
            if let Some(snap) = &mut q.pending_snapshot {
                Arc::make_mut(snap).zone_map_pruning = enabled;
            }
        }
        // Flip the flag on the published snapshot in place rather than
        // republishing the master state, which may hold commits that are
        // applied but not yet durable.
        let mut snap = self.snapshot.lock();
        Arc::make_mut(&mut snap).zone_map_pruning = enabled;
    }

    /// Opens a durable database whose write-ahead log lives at `path`,
    /// replaying any committed history found there.
    pub fn open(path: &Path) -> RelResult<Database> {
        Database::open_with_report(path).map(|(db, _)| db)
    }

    /// Like [`Database::open`], but also returns the [`RecoveryReport`]
    /// describing what replay found: the checkpoint restored, transactions
    /// applied or skipped, and any corruption truncated off the tail.
    pub fn open_with_report(path: &Path) -> RelResult<(Database, RecoveryReport)> {
        Database::from_wal(Wal::open(path)?)
    }

    /// Opens a durable database over an arbitrary [`WalIo`] backend —
    /// the entry point for fault-injection tests.
    pub fn open_with_io(io: Box<dyn WalIo>) -> RelResult<(Database, RecoveryReport)> {
        Database::from_wal(Wal::with_io(io))
    }

    fn from_wal(mut wal: Wal) -> RelResult<(Database, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        let mut storage = Storage::default();

        // Phase 1: restore the checkpoint image, if one exists and is
        // whole. Any damage — unreadable, torn (missing its trailing
        // marker), undecodable — falls back to replaying the log from
        // scratch; the image is an accelerator, never the only copy of
        // anything the active log still has.
        match wal.get_side() {
            Ok(Some(image)) => match load_checkpoint_image(&image) {
                Ok((loaded, k)) => {
                    storage = loaded;
                    report.checkpoint_csn = k;
                }
                Err(e) => report.replay_errors.push(format!(
                    "checkpoint image unusable ({e}); falling back to full log replay"
                )),
            },
            Ok(None) => {}
            Err(e) => report.replay_errors.push(format!(
                "checkpoint image unreadable ({e}); falling back to full log replay"
            )),
        }
        let base = report.checkpoint_csn;

        // Phase 2: scan the active log and replay the tail past `base`.
        let scan = wal.recover()?;
        report.records_scanned = scan.records.len();
        report.corruption = scan.corruption.clone();
        report.truncated_bytes = scan.total_len - scan.valid_len;
        let log_was_empty = scan.records.is_empty();
        let mut log_bytes = scan.valid_len;

        let mut max_tx = 0u64;
        // Buffer DML per transaction; apply at Commit, strictly in log
        // (= commit) order, so interleaved transactions replay exactly as
        // they were acknowledged. DDL is autocommitted (it is only ever
        // logged outside an open transaction).
        let mut open_txns: BTreeMap<u64, Vec<WalRecord>> = BTreeMap::new();
        // Position in the commit sequence. A rotated log leads with a
        // Checkpoint marker and counts from its CSN; an unrotated log
        // (crash between writing the image and rotating) counts from
        // zero, and every commit at or below `base` is already inside
        // the image — skipped, never re-applied.
        let mut replay_csn = 0u64;
        fn covered(replay_csn: u64, base: u64, report: &mut RecoveryReport) -> bool {
            let skip = replay_csn <= base;
            if skip {
                report.transactions_skipped += 1;
            }
            skip
        }
        for (i, record) in scan.records.into_iter().enumerate() {
            match record {
                WalRecord::Checkpoint { csn } => {
                    if i == 0 {
                        replay_csn = csn;
                    } else {
                        report.replay_errors.push(format!(
                            "stray mid-log checkpoint marker (csn {csn}) ignored"
                        ));
                    }
                }
                WalRecord::Begin { tx } => {
                    max_tx = max_tx.max(tx);
                    if open_txns.insert(tx, Vec::new()).is_some() {
                        report.replay_errors.push(format!(
                            "transaction {tx} restarted by a second Begin; \
                             earlier uncommitted operations discarded"
                        ));
                    }
                }
                WalRecord::Commit { tx } => {
                    replay_csn += 1;
                    match open_txns.remove(&tx) {
                        Some(ops) => {
                            if !covered(replay_csn, base, &mut report) {
                                match apply_txn(&mut storage, &ops) {
                                    Ok(()) => {
                                        storage.csn = replay_csn;
                                        report.transactions_applied += 1;
                                    }
                                    Err(e) => {
                                        report.transactions_dropped.push(tx);
                                        report
                                            .replay_errors
                                            .push(format!("transaction {tx} dropped: {e}"));
                                    }
                                }
                            }
                        }
                        None => report
                            .replay_errors
                            .push(format!("Commit for unknown transaction {tx} ignored")),
                    }
                }
                WalRecord::CreateTable { schema } => {
                    replay_csn += 1;
                    if !covered(replay_csn, base, &mut report) {
                        if let Err(e) = storage.create_table(schema) {
                            report.replay_errors.push(format!("CREATE TABLE: {e}"));
                        }
                    }
                }
                WalRecord::DropTable { name } => {
                    replay_csn += 1;
                    if !covered(replay_csn, base, &mut report) {
                        if let Err(e) = storage.drop_table(&name) {
                            report.replay_errors.push(format!("DROP TABLE: {e}"));
                        }
                    }
                }
                WalRecord::CreateIndex { def } => {
                    replay_csn += 1;
                    if !covered(replay_csn, base, &mut report) {
                        if let Err(e) = storage.create_index(def) {
                            report.replay_errors.push(format!("CREATE INDEX: {e}"));
                        }
                    }
                }
                WalRecord::DropIndex { name } => {
                    replay_csn += 1;
                    if !covered(replay_csn, base, &mut report) {
                        if let Err(e) = storage.drop_index(&name) {
                            report.replay_errors.push(format!("DROP INDEX: {e}"));
                        }
                    }
                }
                WalRecord::CreateView {
                    name,
                    refresh_on_commit,
                    select_sql,
                } => {
                    replay_csn += 1;
                    if !covered(replay_csn, base, &mut report) {
                        // Registers the definition and an empty backing
                        // table; contents are rebuilt after replay.
                        if let Err(e) = storage.install_view(&name, refresh_on_commit, &select_sql)
                        {
                            report
                                .replay_errors
                                .push(format!("CREATE MATERIALIZED VIEW: {e}"));
                        }
                    }
                }
                WalRecord::DropView { name } => {
                    replay_csn += 1;
                    if !covered(replay_csn, base, &mut report) {
                        storage.views.remove(&key(&name));
                        if let Err(e) = storage.drop_table(&name) {
                            report
                                .replay_errors
                                .push(format!("DROP MATERIALIZED VIEW: {e}"));
                        }
                    }
                }
                dml @ (WalRecord::Insert { .. }
                | WalRecord::Delete { .. }
                | WalRecord::Update { .. }) => {
                    let tx = match &dml {
                        WalRecord::Insert { tx, .. }
                        | WalRecord::Delete { tx, .. }
                        | WalRecord::Update { tx, .. } => *tx,
                        _ => unreachable!(),
                    };
                    match open_txns.get_mut(&tx) {
                        Some(ops) => ops.push(dml),
                        // An op without a Begin comes from a compacted
                        // snapshot; apply directly.
                        None => {
                            let mut throwaway = Vec::new();
                            if let Err(e) = apply_dml(&mut storage, &dml, &mut throwaway) {
                                report
                                    .replay_errors
                                    .push(format!("snapshot record unapplicable: {e}"));
                            }
                        }
                    }
                }
            }
        }
        // Whatever is still open never committed: the crash tail.
        for tx in open_txns.into_keys() {
            report.transactions_dropped.push(tx);
        }
        report.transactions_dropped.sort_unstable();
        storage.csn = storage.csn.max(base).max(replay_csn);

        // View contents are derived state: the log records definitions
        // only, never view-table DML, so every view is full-built here
        // against the recovered base tables — an implicit full refresh.
        // A deferred view's un-drained pending delta log does not survive
        // a restart (the rebuild subsumes it).
        let view_names: Vec<String> = storage.views.keys().cloned().collect();
        for name in view_names {
            match storage.rebuild_view(&name, storage.csn) {
                Ok(()) => {
                    let rt = storage.views.get_mut(&name).expect("just rebuilt");
                    rt.last_refresh_csn = storage.csn;
                    rt.fallback_refreshes += 1;
                }
                Err(e) => {
                    // A view whose bases did not survive replay (damaged
                    // log) is dropped rather than left lying.
                    storage.views.remove(&name);
                    let _ = storage.drop_table(&name);
                    report
                        .replay_errors
                        .push(format!("materialized view {name:?} dropped: {e}"));
                }
            }
        }

        // Statistics are memory-only and never logged: re-derive exact row
        // counts from the restored tables (checkpoint images and replayed
        // snapshot records bypass the counting mutation paths). Column
        // statistics wait for the next ANALYZE.
        let table_names: Vec<String> = storage.catalog.tables().map(|s| s.name.clone()).collect();
        for name in table_names {
            let rows = storage.table(&name).map(|t| t.len() as u64).unwrap_or(0);
            let entry = storage.stats.table_mut(&name);
            entry.row_count = rows;
            entry.churn = 0;
        }

        // A crash after rotation but before the fresh log's leading
        // marker leaves an empty, markerless log beside a valid image.
        // Repair by writing the marker now — otherwise the next recovery
        // would count this log's commits from zero and wrongly skip them
        // as image-covered.
        if base > 0 && log_was_empty {
            wal.append(&WalRecord::Checkpoint { csn: base });
            wal.sync()?;
            let mut marker = Vec::new();
            frame_into(&mut marker, &WalRecord::Checkpoint { csn: base });
            log_bytes = marker.len() as u64;
        }

        metrics::observe_recovery(&report);
        metrics::engine()
            .wal_bytes
            .set(i64::try_from(log_bytes).unwrap_or(i64::MAX));
        let durability = Durability {
            wal: Mutex::new(wal),
            queue: Mutex::new(CommitQueue {
                buf: Vec::new(),
                queued_csn: storage.csn,
                durable_csn: storage.csn,
                flushing: false,
                poisoned: None,
                pending_snapshot: None,
                next_tx: max_tx + 1,
                log_bytes,
                waiting_traces: Vec::new(),
            }),
            cond: Condvar::new(),
        };
        Ok((
            Database::assemble(storage, Some(durability), DatabaseOptions::default()),
            report,
        ))
    }

    /// Executes a pre-parsed statement.
    pub fn execute_statement(&self, stmt: Statement) -> RelResult<ResultSet> {
        match stmt {
            // SELECT and EXPLAIN have exactly one way to run: the `Query`
            // path (resolve, execute, record).
            stmt @ (Statement::Select(_) | Statement::Explain { .. }) => {
                Ok(self.query_statement(stmt).run()?.rows)
            }
            Statement::CreateTable { name, columns } => {
                self.reject_system_write(&name, "create table")?;
                let schema = TableSchema::new(
                    &name,
                    columns
                        .into_iter()
                        .map(|(n, ty)| Column { name: n, ty })
                        .collect(),
                );
                let mut storage = self.storage.write();
                storage.create_table(schema.clone())?;
                self.finish_ddl(storage, WalRecord::CreateTable { schema })
            }
            Statement::DropTable { name } => {
                self.reject_system_write(&name, "drop table")?;
                let mut storage = self.storage.write();
                if storage.is_view(&name) {
                    return Err(RelError::Eval(format!(
                        "{name:?} is a materialized view: use DROP MATERIALIZED VIEW"
                    )));
                }
                let dependents = storage.view_dependents(&name);
                if !dependents.is_empty() {
                    return Err(RelError::Eval(format!(
                        "cannot drop table {name:?}: materialized view(s) {dependents:?} \
                         read it (drop them first)"
                    )));
                }
                storage.drop_table(&name)?;
                self.finish_ddl(storage, WalRecord::DropTable { name })
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                keyword,
            } => {
                self.reject_system_write(&table, "index")?;
                let def = IndexDef {
                    name,
                    table,
                    columns,
                    keyword,
                };
                let mut storage = self.storage.write();
                if storage.is_view(&def.table) {
                    // View maintenance writes the backing table directly,
                    // bypassing the index-update hooks — an index would
                    // silently go stale.
                    return Err(RelError::Eval(format!(
                        "cannot index materialized view {:?}: view scans already read \
                         the materialized segments",
                        def.table
                    )));
                }
                storage.create_index(def.clone())?;
                self.finish_ddl(storage, WalRecord::CreateIndex { def })
            }
            Statement::DropIndex { name } => {
                let mut storage = self.storage.write();
                storage.drop_index(&name)?;
                self.finish_ddl(storage, WalRecord::DropIndex { name })
            }
            stmt @ (Statement::Insert { .. }
            | Statement::Delete { .. }
            | Statement::Update { .. }) => {
                let target = match &stmt {
                    Statement::Insert { table, .. }
                    | Statement::Delete { table, .. }
                    | Statement::Update { table, .. } => table,
                    _ => unreachable!(),
                };
                self.reject_system_write(target, "modify")?;
                self.execute_dml(stmt)
            }
            Statement::Analyze { table } => self.execute_analyze(table.as_deref()),
            Statement::CreateMaterializedView {
                name,
                refresh_on_commit,
                query,
            } => self.execute_create_view(&name, refresh_on_commit, query),
            Statement::DropMaterializedView { name } => {
                let mut storage = self.storage.write();
                if !storage.views.contains_key(&key(&name)) {
                    return Err(if storage.catalog.has_table(&name) {
                        RelError::Eval(format!("{name:?} is a table, not a materialized view"))
                    } else {
                        RelError::UnknownTable(name.clone())
                    });
                }
                storage.views.remove(&key(&name));
                storage.drop_table(&name)?;
                self.finish_ddl(storage, WalRecord::DropView { name })
            }
            Statement::RefreshMaterializedView { name, full } => {
                self.execute_refresh_view(&name, full)
            }
        }
    }

    /// `CREATE MATERIALIZED VIEW`: validates and analyzes the definition,
    /// materializes the initial contents, registers the maintenance
    /// runtime, and logs the definition (contents are derived state and
    /// are never logged — recovery rebuilds them from the base tables).
    fn execute_create_view(
        &self,
        name: &str,
        refresh_on_commit: bool,
        query: SelectStmt,
    ) -> RelResult<ResultSet> {
        self.reject_system_write(name, "create materialized view")?;
        let select_sql = view::render_select(&query)?;
        let mut storage = self.storage.write();
        for src in query
            .from
            .iter()
            .chain(query.joins.iter().map(|j| &j.table))
        {
            if storage.is_view(&src.table) {
                return Err(RelError::Eval(format!(
                    "materialized view {name:?} cannot read materialized view {:?} \
                     (views over views are not supported)",
                    src.table
                )));
            }
        }
        let (analysis, backing) = view::analyze_view(name, &query, &storage.catalog)?;
        storage.create_table(backing)?; // rejects name collisions
        let state = view::empty_state(&analysis);
        storage.views.insert(
            key(name),
            ViewRuntime {
                def: ViewDef {
                    name: name.to_string(),
                    refresh_on_commit,
                    select_sql: select_sql.clone(),
                },
                analysis,
                state: Arc::new(state),
                pending: Arc::new(Vec::new()),
                overflowed: false,
                last_refresh_csn: 0,
                incremental_refreshes: 0,
                fallback_refreshes: 0,
            },
        );
        let csn = storage.csn + 1;
        if let Err(e) = storage.rebuild_view(name, csn) {
            storage.views.remove(&key(name));
            let _ = storage.drop_table(name);
            return Err(e);
        }
        if let Some(rt) = storage.views.get_mut(&key(name)) {
            rt.last_refresh_csn = csn;
        }
        self.finish_ddl(
            storage,
            WalRecord::CreateView {
                name: name.to_string(),
                refresh_on_commit,
                select_sql,
            },
        )
    }

    /// `REFRESH MATERIALIZED VIEW [FULL]`: drains a deferred view's
    /// pending delta log through the maintenance pipeline — or, with
    /// `FULL` (or after the log overflowed), recomputes from scratch.
    ///
    /// Like `ANALYZE`, a refresh takes no CSN and writes no WAL: view
    /// contents are derived state, reconstructible from the definition.
    /// Publication follows the same pattern — patch the pending and
    /// published snapshots in place rather than republishing the master
    /// state, which may hold applied-but-not-yet-durable commits.
    fn execute_refresh_view(&self, name: &str, full: bool) -> RelResult<ResultSet> {
        let mut storage = self.storage.write();
        let k = key(name);
        let Some(rt0) = storage.views.get(&k) else {
            return Err(if storage.catalog.has_table(name) {
                RelError::Eval(format!("{name:?} is a table, not a materialized view"))
            } else {
                RelError::UnknownTable(name.to_string())
            });
        };
        let full_recompute = full || rt0.overflowed;
        let pending_rows = rt0.pending.len();
        if !full_recompute && pending_rows == 0 {
            return Ok(ResultSet::dml(0)); // nothing to drain
        }
        let csn = storage.csn;
        let affected;
        if full_recompute {
            storage.rebuild_view(name, csn)?;
            let rt = storage.views.get_mut(&k).expect("just rebuilt");
            rt.pending = Arc::new(Vec::new());
            rt.overflowed = false;
            rt.fallback_refreshes += 1;
            rt.last_refresh_csn = csn;
            affected = storage.table(name)?.len();
        } else {
            let mut rt = storage.views.remove(&k).expect("checked above");
            let mut vt = storage.tables.remove(&k).expect("view backing table");
            // Keep pre-drain clones so a maintenance error (e.g. an
            // evaluation error in a pending row) leaves the view intact.
            let vt_before = vt.clone();
            let rt_before = rt.clone();
            vt.set_stamp(csn);
            let pending = Arc::clone(&rt.pending);
            let res = view::apply_deltas(&mut rt, &mut vt, &storage.tables, &pending);
            match res {
                Ok(()) => {
                    rt.pending = Arc::new(Vec::new());
                    rt.incremental_refreshes += 1;
                    rt.last_refresh_csn = csn;
                    let rows = vt.len() as u64;
                    storage.tables.insert(k.clone(), vt);
                    if let Some(s) = storage.stats.existing_mut(&k) {
                        s.row_count = rows;
                    }
                    storage.views.insert(k.clone(), rt);
                }
                Err(e) => {
                    storage.tables.insert(k.clone(), vt_before);
                    storage.views.insert(k.clone(), rt_before);
                    return Err(e);
                }
            }
            affected = pending_rows;
        }
        // Publish the refreshed view to readers without a CSN, exactly
        // like ANALYZE publishes fresh statistics.
        let new_table = storage.tables.get(&k).expect("view table").clone();
        let new_rt = storage.views.get(&k).expect("view runtime").clone();
        let new_stats = storage.stats.clone();
        let patch = |snap: &mut Arc<Storage>| {
            let s = Arc::make_mut(snap);
            s.tables.insert(k.clone(), new_table.clone());
            s.views.insert(k.clone(), new_rt.clone());
            s.stats = new_stats.clone();
        };
        if let Some(d) = &self.durability {
            let mut q = d.queue.lock();
            if let Some(snap) = &mut q.pending_snapshot {
                patch(snap);
            }
        }
        {
            let mut snap = self.snapshot.lock();
            patch(&mut snap);
        }
        Ok(ResultSet::dml(affected))
    }

    /// `ANALYZE [TABLE <t>]`: scans the named table (or every table) into
    /// fresh column statistics, draws a new generation (invalidating
    /// cached plans) and publishes the statistics to current readers.
    ///
    /// Statistics are memory-only engine state, not data: they are never
    /// WAL-logged. After recovery, row counts are re-synced from the
    /// restored tables and column statistics wait for the next `ANALYZE`.
    fn execute_analyze(&self, table: Option<&str>) -> RelResult<ResultSet> {
        let mut storage = self.storage.write();
        let names: Vec<String> = match table {
            Some(t) => {
                storage.table(t)?; // fail with UnknownTable before mutating
                vec![t.to_string()]
            }
            None => storage.catalog.tables().map(|s| s.name.clone()).collect(),
        };
        for name in &names {
            let t = storage.table(name)?;
            let schema = t.schema().clone();
            let rows: Vec<Row> = t.scan().map(|(_, row)| row).collect();
            storage
                .stats
                .table_mut(name)
                .rescan(&schema, rows.into_iter());
        }
        storage.generation = next_generation();
        let stats = storage.stats.clone();
        // Publish like `set_zone_map_pruning`: patch any pending snapshot
        // and the published snapshot in place rather than republishing the
        // master state, which may hold applied-but-not-durable commits.
        if let Some(d) = &self.durability {
            let mut q = d.queue.lock();
            if let Some(snap) = &mut q.pending_snapshot {
                Arc::make_mut(snap).patch_stats(stats.clone());
            }
        }
        let mut snap = self.snapshot.lock();
        Arc::make_mut(&mut snap).patch_stats(stats);
        Ok(ResultSet::dml(names.len()))
    }

    /// Runs one DML statement as its own transaction. The in-memory state
    /// and the log move together: if the commit cannot be made durable,
    /// the in-memory mutation is rolled back before the error surfaces.
    fn execute_dml(&self, stmt: Statement) -> RelResult<ResultSet> {
        let mut storage = self.storage.write();
        match &stmt {
            Statement::Insert { table, .. }
            | Statement::Delete { table, .. }
            | Statement::Update { table, .. }
                if storage.is_view(table) =>
            {
                return Err(RelError::ReadOnly(format!(
                    "cannot modify materialized view {table:?}: its contents are \
                     maintained from its base tables"
                )));
            }
            _ => {}
        }
        let tx = self.begin_tx();
        let mut records = Vec::new();
        let mut undo = Vec::new();
        let mut deltas = Vec::new();
        let affected = match apply_batch_statement(
            &mut storage,
            stmt,
            tx,
            &mut records,
            &mut undo,
            &mut deltas,
        ) {
            Ok(n) => n,
            Err(e) => {
                rollback(&mut storage, undo);
                return Err(e);
            }
        };
        self.commit_applied(storage, tx, records, undo, deltas)
            .map(|()| ResultSet::dml(affected))
    }

    /// Executes a sequence of DML statements atomically: either every
    /// statement applies and a single commit record is fsynced, or none do.
    pub fn execute_batch(&self, statements: &[&str]) -> RelResult<usize> {
        let parsed: Vec<Statement> = statements
            .iter()
            .map(|s| parse_statement(s))
            .collect::<RelResult<_>>()?;
        for stmt in &parsed {
            if !matches!(
                stmt,
                Statement::Insert { .. } | Statement::Delete { .. } | Statement::Update { .. }
            ) {
                return Err(RelError::Internal(
                    "execute_batch accepts DML statements only".into(),
                ));
            }
        }
        let mut storage = self.storage.write();
        for stmt in &parsed {
            if let Statement::Insert { table, .. }
            | Statement::Delete { table, .. }
            | Statement::Update { table, .. } = stmt
            {
                if storage.is_view(table) {
                    return Err(RelError::ReadOnly(format!(
                        "cannot modify materialized view {table:?}: its contents are \
                         maintained from its base tables"
                    )));
                }
            }
        }
        let tx = self.begin_tx();
        let mut records = Vec::new();
        let mut undo: Vec<UndoOp> = Vec::new();
        let mut deltas: Vec<DeltaEvent> = Vec::new();
        let mut affected = 0usize;
        let result = (|| -> RelResult<()> {
            for stmt in parsed {
                affected += apply_batch_statement(
                    &mut storage,
                    stmt,
                    tx,
                    &mut records,
                    &mut undo,
                    &mut deltas,
                )?;
            }
            Ok(())
        })();
        // A batch that failed to apply is rolled back in memory before
        // anything reaches the log: no half-applied document, no state
        // the log does not have.
        if let Err(e) = result {
            rollback(&mut storage, undo);
            return Err(e);
        }
        self.commit_applied(storage, tx, records, undo, deltas)
            .map(|()| affected)
    }

    /// Completes an already-applied transaction: assigns its CSN and
    /// enqueues its frames under the write lock, releases the lock, then
    /// waits for a group-commit flush to cover it. On failure the
    /// transaction's own effects are rolled back before the error
    /// surfaces, so memory and log agree on what exists.
    fn commit_applied(
        &self,
        mut storage: RwLockWriteGuard<'_, Storage>,
        tx: u64,
        records: Vec<WalRecord>,
        mut undo: Vec<UndoOp>,
        deltas: Vec<DeltaEvent>,
    ) -> RelResult<()> {
        if records.is_empty() {
            return Ok(()); // no-op DML: nothing to log, nothing to publish
        }
        let csn = storage.csn + 1;
        // Maintain materialized views before framing anything: the
        // snapshot cloned below must already carry the maintained view
        // contents, and a maintenance failure must fail the whole commit
        // (REFRESH ON COMMIT is part of the transaction's contract).
        // Deferred views only append to their pending delta logs here.
        if !deltas.is_empty() && !storage.views.is_empty() {
            if let Err(e) = maintain_views(&mut storage, &deltas, csn, &mut undo) {
                rollback(&mut storage, undo);
                return Err(e);
            }
        }
        let Some(d) = &self.durability else {
            storage.csn = csn;
            self.publish(Arc::new(storage.clone()));
            return Ok(());
        };
        {
            let mut q = d.queue.lock();
            if let Some(msg) = &q.poisoned {
                let err = poison_error(msg);
                drop(q);
                rollback(&mut storage, undo);
                return Err(err);
            }
            frame_into(&mut q.buf, &WalRecord::Begin { tx });
            for r in &records {
                frame_into(&mut q.buf, r);
            }
            frame_into(&mut q.buf, &WalRecord::Commit { tx });
            storage.csn = csn;
            q.queued_csn = csn;
            q.pending_snapshot = Some(Arc::new(storage.clone()));
            if let Some(ctx) = trace::current() {
                q.waiting_traces.push(ctx);
            }
        }
        drop(storage);
        let wait = {
            let _t = trace::span("relstore.wal.commit_wait");
            self.wait_durable(csn)
        };
        match wait {
            Ok(()) => Ok(()),
            Err(e) => {
                // Never acknowledged: revert this transaction's in-memory
                // effects (best effort — the database is poisoned either
                // way, and reads keep serving the last durable snapshot).
                let mut storage = self.storage.write();
                rollback(&mut storage, undo);
                Err(e)
            }
        }
    }

    /// Completes an autocommitted DDL statement, which occupies one CSN
    /// just like a DML transaction (recovery counts it the same way).
    fn finish_ddl(
        &self,
        mut storage: RwLockWriteGuard<'_, Storage>,
        record: WalRecord,
    ) -> RelResult<ResultSet> {
        let csn = storage.csn + 1;
        let Some(d) = &self.durability else {
            storage.csn = csn;
            self.publish(Arc::new(storage.clone()));
            return Ok(ResultSet::dml(0));
        };
        {
            let mut q = d.queue.lock();
            if let Some(msg) = &q.poisoned {
                return Err(poison_error(msg));
            }
            frame_into(&mut q.buf, &record);
            storage.csn = csn;
            q.queued_csn = csn;
            q.pending_snapshot = Some(Arc::new(storage.clone()));
            if let Some(ctx) = trace::current() {
                q.waiting_traces.push(ctx);
            }
        }
        drop(storage);
        {
            let _t = trace::span("relstore.wal.commit_wait");
            self.wait_durable(csn)?;
        }
        Ok(ResultSet::dml(0))
    }

    /// Blocks until `csn` is durable (or the log is poisoned). The first
    /// waiter to find no flush in flight becomes the leader and flushes
    /// the whole queue with one append + fsync.
    fn wait_durable(&self, csn: u64) -> RelResult<()> {
        let d = self.durability.as_ref().expect("durable mode");
        let mut q = d.queue.lock();
        loop {
            if let Some(msg) = &q.poisoned {
                return Err(poison_error(msg));
            }
            if q.durable_csn >= csn {
                return Ok(());
            }
            if q.flushing {
                q = cond_wait(&d.cond, q);
                continue;
            }
            // Leader: take the whole batch and flush it outside the queue
            // lock, so later committers keep enqueueing into a fresh
            // buffer while the disk works.
            q.flushing = true;
            let buf = std::mem::take(&mut q.buf);
            let traces = std::mem::take(&mut q.waiting_traces);
            let top = q.queued_csn;
            let snap = q.pending_snapshot.take();
            drop(q);
            let start = Instant::now();
            let res = d.wal.lock().write_frames(&buf);
            let flush_ns = metrics::elapsed_ns(start);
            metrics::engine().wal_commit_ns.record(flush_ns);
            // One group-commit span per covered committer, attached to
            // the committer's own trace. This thread may belong to a
            // different session than most of `traces` — the whole point
            // of group commit — so the spans are emitted against the
            // captured contexts, not the thread-local one.
            for ctx in traces {
                trace::emit("relstore.wal.group_commit", ctx, flush_ns);
            }
            q = d.queue.lock();
            q.flushing = false;
            let outcome = self.apply_flush_outcome(&mut q, res, top, buf.len(), snap);
            d.cond.notify_all();
            outcome?;
        }
    }

    /// Records a flush's result in the queue: on success advances the
    /// durable horizon and publishes the covering snapshot; on failure
    /// poisons the database.
    fn apply_flush_outcome(
        &self,
        q: &mut CommitQueue,
        res: RelResult<()>,
        top: u64,
        bytes: usize,
        snap: Option<Arc<Storage>>,
    ) -> RelResult<()> {
        let m = metrics::engine();
        match res {
            Ok(()) => {
                q.durable_csn = q.durable_csn.max(top);
                q.log_bytes += bytes as u64;
                m.wal_bytes
                    .set(i64::try_from(q.log_bytes).unwrap_or(i64::MAX));
                if let Some(s) = snap {
                    self.publish(s);
                }
                Ok(())
            }
            Err(e) => {
                m.wal_fsync_failures.inc();
                q.poisoned = Some(e.to_string());
                Err(e)
            }
        }
    }

    fn begin_tx(&self) -> u64 {
        match &self.durability {
            Some(d) => {
                let mut q = d.queue.lock();
                let tx = q.next_tx;
                q.next_tx += 1;
                tx
            }
            None => 0,
        }
    }

    /// Checkpoints the database: writes a complete image of the current
    /// state to the side store (write-to-temp + atomic rename), rotates
    /// the log, and starts the fresh log with a marker recording the
    /// image's CSN. Recovery then loads the image and replays only the
    /// tail — replay work is bounded by writes since the last checkpoint,
    /// not by total history. A no-op in memory-only mode.
    ///
    /// Crash semantics: a crash before the rename keeps the previous
    /// image and the full log (nothing lost); after the rename but before
    /// rotation, recovery loads the new image and skips the log's
    /// image-covered prefix by CSN; after rotation but before the marker,
    /// recovery repairs the missing marker on open.
    pub fn checkpoint(&self) -> RelResult<()> {
        let Some(d) = &self.durability else {
            return Ok(()); // nothing to checkpoint in memory-only mode
        };
        // Exclusive over writers for the whole protocol: no commit can
        // enqueue while the image is cut, so `storage.csn` is exactly
        // the state the image captures.
        let storage = self.storage.write();
        let mut q = d.queue.lock();
        while q.flushing {
            q = cond_wait(&d.cond, q);
        }
        if let Some(msg) = &q.poisoned {
            return Err(poison_error(msg));
        }
        if !q.buf.is_empty() {
            // Drain the last queued frames inline. No new enqueuers can
            // appear (they need the storage write lock held here), and
            // leaving them would fold unacknowledged commits into the
            // image while their committers wait forever.
            let buf = std::mem::take(&mut q.buf);
            let top = q.queued_csn;
            let snap = q.pending_snapshot.take();
            let start = Instant::now();
            let res = d.wal.lock().write_frames(&buf);
            metrics::engine()
                .wal_commit_ns
                .record(metrics::elapsed_ns(start));
            let outcome = self.apply_flush_outcome(&mut q, res, top, buf.len(), snap);
            d.cond.notify_all();
            outcome?;
        }
        let k = storage.csn;
        // The image: DDL first, then every live row, then the footer
        // that certifies completeness. A torn or partial image fails the
        // footer check at recovery and falls back to full log replay.
        let mut image = Vec::new();
        // View backing tables are excluded: their CreateView record (at
        // the end, after the base rows it reads exist) re-creates the
        // table, and recovery rebuilds the contents from the bases.
        for schema in storage.catalog.tables() {
            if storage.is_view(&schema.name) {
                continue;
            }
            frame_into(
                &mut image,
                &WalRecord::CreateTable {
                    schema: schema.clone(),
                },
            );
        }
        for def in storage.catalog.indexes() {
            frame_into(&mut image, &WalRecord::CreateIndex { def: def.clone() });
        }
        for schema in storage.catalog.tables() {
            if storage.is_view(&schema.name) {
                continue;
            }
            let table = storage.table(&schema.name)?;
            for (id, row) in table.scan() {
                frame_into(
                    &mut image,
                    &WalRecord::Insert {
                        tx: 0,
                        table: schema.name.clone(),
                        row_id: id,
                        row,
                    },
                );
            }
        }
        for rt in storage.views.values() {
            frame_into(
                &mut image,
                &WalRecord::CreateView {
                    name: rt.def.name.clone(),
                    refresh_on_commit: rt.def.refresh_on_commit,
                    select_sql: rt.def.select_sql.clone(),
                },
            );
        }
        frame_into(&mut image, &WalRecord::Checkpoint { csn: k });
        let mut wal = d.wal.lock();
        // A failure before rotation loses nothing — the previous image
        // (if any) and the whole log are still in place — so it leaves
        // the database healthy rather than poisoned.
        wal.put_side(&image)
            .map_err(|e| RelError::Wal(format!("checkpoint image: {e}")))?;
        if let Err(e) = wal.rotate() {
            q.poisoned = Some(e.to_string());
            d.cond.notify_all();
            return Err(e);
        }
        // Lead the fresh log with the marker so replay counts commits
        // from `k` instead of zero.
        let mut marker = Vec::new();
        frame_into(&mut marker, &WalRecord::Checkpoint { csn: k });
        if let Err(e) = wal.write_frames(&marker) {
            q.poisoned = Some(e.to_string());
            d.cond.notify_all();
            return Err(e);
        }
        q.log_bytes = marker.len() as u64;
        let m = metrics::engine();
        m.wal_bytes
            .set(i64::try_from(q.log_bytes).unwrap_or(i64::MAX));
        m.checkpoint_csn.set(i64::try_from(k).unwrap_or(i64::MAX));
        Ok(())
    }

    /// Rewrites segments whose dead-slot (tombstone) fraction exceeds
    /// [`COMPACT_DEAD_RATIO`], reclaiming space and re-tightening the
    /// widen-only zone maps. Returns the number of segments rewritten or
    /// removed. Purely an in-memory reorganization: row ids, visible
    /// contents and the log are untouched, so a crash at any point during
    /// or after it recovers the same state.
    pub fn compact_segments(&self) -> usize {
        let mut storage = self.storage.write();
        let names: Vec<String> = storage.catalog.tables().map(|t| t.name.clone()).collect();
        let mut rewritten = 0;
        for name in names {
            if let Ok(t) = storage.table_mut(&name) {
                rewritten += t.compact_store(COMPACT_DEAD_RATIO);
            }
        }
        if rewritten > 0 {
            let publishable = match &self.durability {
                None => true,
                Some(d) => {
                    let q = d.queue.lock();
                    q.poisoned.is_none() && q.durable_csn == storage.csn
                }
            };
            // An applied-but-unflushed commit must not leak into the
            // published snapshot; in that window the compacted layout
            // simply rides out with the next successful flush instead.
            if publishable {
                self.publish(Arc::new(storage.clone()));
            }
        }
        rewritten
    }

    /// Starts the background maintenance thread: every `interval` it
    /// compacts tombstone-heavy segments and takes a checkpoint. Errors
    /// (e.g. a poisoned log) are swallowed — the next tick retries.
    /// Idempotent while a maintenance thread is already running.
    pub fn start_maintenance(self: &Arc<Database>, interval: Duration) {
        let mut slot = self.maintenance.lock();
        if slot.is_some() {
            return;
        }
        let stop = Arc::new(StopSignal::new());
        let signal = Arc::clone(&stop);
        let weak: Weak<Database> = Arc::downgrade(self);
        let handle = std::thread::Builder::new()
            .name("relstore-maintenance".into())
            .spawn(move || {
                while !signal.wait_timeout(interval) {
                    let Some(db) = weak.upgrade() else { break };
                    db.compact_segments();
                    let _ = db.checkpoint();
                }
            })
            .expect("spawn maintenance thread");
        *slot = Some(MaintenanceTask { stop, handle });
    }

    /// Stops and joins the maintenance thread, if one is running.
    pub fn stop_maintenance(&self) {
        let task = self.maintenance.lock().take();
        if let Some(task) = task {
            task.stop.stop();
            let _ = task.handle.join();
        }
    }

    /// Compacts the durable log so recovery time becomes proportional to
    /// live data rather than history. This *is* [`Database::checkpoint`]
    /// (image + rotation); a backend without a side store and rotation
    /// reports that as the checkpoint's `Unsupported` error. A no-op in
    /// memory-only mode.
    pub fn compact(&self) -> RelResult<()> {
        self.checkpoint()
    }

    /// Builds the typed explain tree for an already-planned query,
    /// annotating the worker count the morsel-parallel executor would use
    /// for this plan shape.
    pub(crate) fn plan_explain_tree(&self, planned: &PlannedQuery) -> crate::plan::PlanExplain {
        let workers = if exec_parallel::parallel_eligible(&planned.plan) {
            self.options.workers
        } else {
            1
        };
        crate::plan::PlanExplain::from_planned(planned, workers)
    }

    /// Plans one `SELECT` against a pinned snapshot, publishing plan
    /// latency (or an error count) to the global metrics registry.
    pub(crate) fn plan_select_stmt(
        &self,
        storage: &Storage,
        select: &SelectStmt,
    ) -> RelResult<PlannedQuery> {
        let m = metrics::engine();
        let _t = trace::span("relstore.query.plan");
        let plan_start = Instant::now();
        let result = plan_select(select, &storage.catalog, &storage.stats);
        match &result {
            Ok(_) => m.plan_ns.record(metrics::elapsed_ns(plan_start)),
            Err(_) => m.errors.inc(),
        }
        result
    }

    /// Executes a planned `SELECT` against a pinned snapshot in the given
    /// mode — across the worker pool when the mode asks for more than one
    /// worker and the plan shape and size allow it, under the
    /// per-operator profiler, or on the reference interpreter — and
    /// publishes per-query aggregates (row counters, exec latency) to the
    /// metrics registry. The outcome always carries the counters; the
    /// caller decides whether the user asked to see them.
    pub(crate) fn run_planned_query(
        &self,
        storage: &Storage,
        planned: &PlannedQuery,
        mode: ExecMode,
    ) -> RelResult<QueryOutcome> {
        let m = metrics::engine();
        let _t = trace::span("relstore.query.exec");
        let plan = &planned.plan;
        let result = (|| {
            let exec_start = Instant::now();
            let mut run = match mode {
                ExecMode::Workers(workers) => match exec_parallel::execute_plan_parallel(
                    plan,
                    storage,
                    &self.pool,
                    workers,
                    self.options.morsel_size,
                    planned.estimate.cost,
                ) {
                    Some(run) => {
                        m.parallel_workers.add(workers as u64);
                        run?
                    }
                    None => run_plan(plan, storage, false)?,
                },
                ExecMode::Profiled => run_plan(plan, storage, true)?,
                ExecMode::Reference => {
                    let rows = crate::exec_reference::execute_plan(plan, storage)?;
                    // The oracle keeps no counters beyond what it returned.
                    let stats = ExecStats {
                        rows_emitted: rows.len() as u64,
                        ..ExecStats::default()
                    };
                    PlanRun {
                        rows,
                        stats,
                        profile: None,
                    }
                }
            };
            let exec_ns = metrics::elapsed_ns(exec_start);
            m.exec_ns.record(exec_ns);
            if let Some(profile) = &mut run.profile {
                profile.annotate_estimates(&planned.estimate);
            }
            m.observe_query(&run.stats);
            Ok(QueryOutcome {
                rows: select_result(planned, run.rows),
                stats: Some(run.stats),
                profile: run.profile,
                exec_ns: Some(exec_ns),
            })
        })();
        if result.is_err() {
            m.errors.inc();
        }
        result
    }

    /// Number of rows currently in `table` (as of the latest snapshot).
    pub fn row_count(&self, table: &str) -> RelResult<usize> {
        Ok(self.snapshot().table(table)?.len())
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.snapshot()
            .catalog
            .tables()
            .map(|t| t.name.clone())
            .collect()
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        // Signal but never join: the maintenance thread's own temporary
        // Arc upgrade can be the last reference, which would run this
        // drop *on* the maintenance thread — joining it would deadlock.
        if let Some(task) = self.maintenance.get_mut().take() {
            task.stop.stop();
        }
    }
}

/// Rebuilds a [`Storage`] from a checkpoint image: framed DDL + `tx:0`
/// row records, certified complete by a trailing [`WalRecord::Checkpoint`]
/// footer. Any damage — truncation, bit-rot, a missing footer — is an
/// error; the caller falls back to full log replay.
fn load_checkpoint_image(image: &[u8]) -> Result<(Storage, u64), String> {
    let scan = crate::wal::scan_log(image);
    if let Some(c) = &scan.corruption {
        return Err(format!("torn at byte {}: {}", c.offset, c.reason));
    }
    let Some(WalRecord::Checkpoint { csn }) = scan.records.last() else {
        return Err("missing its trailing completeness marker".into());
    };
    let k = *csn;
    let mut storage = Storage::default();
    for record in &scan.records[..scan.records.len() - 1] {
        match record {
            WalRecord::CreateTable { schema } => storage
                .create_table(schema.clone())
                .map_err(|e| format!("CREATE TABLE: {e}"))?,
            WalRecord::CreateIndex { def } => storage
                .create_index(def.clone())
                .map_err(|e| format!("CREATE INDEX: {e}"))?,
            WalRecord::Insert { .. } => {
                let mut throwaway = Vec::new();
                apply_dml(&mut storage, record, &mut throwaway).map_err(|e| format!("row: {e}"))?;
            }
            WalRecord::CreateView {
                name,
                refresh_on_commit,
                select_sql,
            } => {
                // Definition only; the caller (recovery) rebuilds the
                // contents from the restored base tables after replay.
                storage
                    .install_view(name, *refresh_on_commit, select_sql)
                    .map_err(|e| format!("CREATE MATERIALIZED VIEW: {e}"))?;
            }
            other => return Err(format!("unexpected record {other:?}")),
        }
    }
    storage.csn = k;
    Ok((storage, k))
}

/// The row schema DML expressions bind against: the bare table as its
/// own alias.
fn dml_schema(t: &Table) -> RowSchema {
    let schema = t.schema();
    RowSchema::for_table(&schema.name, schema.columns.iter().map(|c| c.name.clone()))
}

/// Applies one replayed DML record, recording its inverse in `undo`.
fn apply_dml(storage: &mut Storage, record: &WalRecord, undo: &mut Vec<UndoOp>) -> RelResult<()> {
    match record {
        WalRecord::Insert {
            table, row_id, row, ..
        } => {
            storage.insert_at(table, *row_id, row.clone())?;
            undo.push(UndoOp::DeleteInserted {
                table: table.clone(),
                id: *row_id,
            });
            Ok(())
        }
        WalRecord::Delete { table, row_id, .. } => {
            let old = storage.delete(table, *row_id)?;
            undo.push(UndoOp::ReinsertDeleted {
                table: table.clone(),
                id: *row_id,
                row: old,
            });
            Ok(())
        }
        WalRecord::Update {
            table, row_id, row, ..
        } => {
            let old = storage.update(table, *row_id, row.clone())?;
            undo.push(UndoOp::RevertUpdated {
                table: table.clone(),
                id: *row_id,
                row: old,
            });
            Ok(())
        }
        other => Err(RelError::Wal(format!("unexpected DML record {other:?}"))),
    }
}

/// Applies one committed transaction's operations; on failure rolls back
/// whatever part already applied, so a dropped transaction leaves no
/// trace (all-or-nothing even during replay of a damaged log).
fn apply_txn(storage: &mut Storage, ops: &[WalRecord]) -> RelResult<()> {
    let mut undo = Vec::with_capacity(ops.len());
    for op in ops {
        if let Err(e) = apply_dml(storage, op, &mut undo) {
            rollback(storage, undo);
            return Err(e);
        }
    }
    Ok(())
}

/// Best-effort reverse replay of an undo log.
fn rollback(storage: &mut Storage, undo: Vec<UndoOp>) {
    for op in undo.into_iter().rev() {
        // Each undo op inverts an operation that succeeded, so failure
        // here is unreachable in practice; ignoring it keeps rollback
        // total (it must never panic or abort halfway).
        let _ = op.apply(storage);
    }
}

/// Inverse operation recorded while applying a batch, replayed on failure.
enum UndoOp {
    DeleteInserted {
        table: String,
        id: RowId,
    },
    ReinsertDeleted {
        table: String,
        id: RowId,
        row: Row,
    },
    RevertUpdated {
        table: String,
        id: RowId,
        row: Row,
    },
    /// Pre-maintenance snapshot of a materialized view (cheap COW clones),
    /// restored wholesale if the commit fails after maintenance ran.
    RestoreView {
        name: String,
        table: Box<Table>,
        runtime: Box<ViewRuntime>,
    },
}

impl UndoOp {
    fn apply(self, storage: &mut Storage) -> RelResult<()> {
        match self {
            UndoOp::DeleteInserted { table, id } => storage.delete(&table, id).map(|_| ()),
            UndoOp::ReinsertDeleted { table, id, row } => storage.insert_at(&table, id, row),
            UndoOp::RevertUpdated { table, id, row } => storage.update(&table, id, row).map(|_| ()),
            UndoOp::RestoreView {
                name,
                table,
                runtime,
            } => {
                let rows = table.len() as u64;
                storage.tables.insert(name.clone(), *table);
                storage.views.insert(name.clone(), *runtime);
                if let Some(s) = storage.stats.existing_mut(&name) {
                    s.row_count = rows;
                }
                Ok(())
            }
        }
    }
}

fn apply_batch_statement(
    storage: &mut Storage,
    stmt: Statement,
    tx: u64,
    records: &mut Vec<WalRecord>,
    undo: &mut Vec<UndoOp>,
    deltas: &mut Vec<DeltaEvent>,
) -> RelResult<usize> {
    match stmt {
        Statement::Insert { table, rows } => {
            let capture = storage.views_watch(&table);
            // VALUES sees no row: any column reference fails to bind.
            let empty = RowSchema::default();
            let count = rows.len();
            for row in rows {
                let values: Row = row
                    .into_iter()
                    .map(|e| match e {
                        // The common case needs neither binding nor a copy.
                        Expr::Literal(v) => Ok(v),
                        e => eval(&bind_expr(&e, &empty)?, &[]),
                    })
                    .collect::<RelResult<_>>()?;
                let (id, stored) = storage.insert(&table, values)?;
                if capture {
                    deltas.push(DeltaEvent::Insert {
                        table: key(&table),
                        id,
                        row: stored.clone(),
                    });
                }
                records.push(WalRecord::Insert {
                    tx,
                    table: table.clone(),
                    row_id: id,
                    row: stored,
                });
                undo.push(UndoOp::DeleteInserted {
                    table: table.clone(),
                    id,
                });
            }
            Ok(count)
        }
        Statement::Delete { table, filter } => {
            let capture = storage.views_watch(&table);
            let ids = storage.matching_rows(&table, filter.as_ref())?;
            for id in &ids {
                let old = storage.delete(&table, *id)?;
                if capture {
                    deltas.push(DeltaEvent::Delete {
                        table: key(&table),
                        id: *id,
                        row: old.clone(),
                    });
                }
                records.push(WalRecord::Delete {
                    tx,
                    table: table.clone(),
                    row_id: *id,
                });
                undo.push(UndoOp::ReinsertDeleted {
                    table: table.clone(),
                    id: *id,
                    row: old,
                });
            }
            Ok(ids.len())
        }
        Statement::Update {
            table,
            assignments,
            filter,
        } => {
            // Each assignment as (target position, bound value expression),
            // all reading the pre-update row.
            let t = storage.table(&table)?;
            let row_schema = dml_schema(t);
            let mut sets = Vec::with_capacity(assignments.len());
            for (col, expr) in &assignments {
                let pos = t
                    .schema()
                    .column_index(col)
                    .ok_or_else(|| RelError::UnknownColumn(format!("{table}.{col}")))?;
                sets.push((pos, bind_expr(expr, &row_schema)?));
            }
            let capture = storage.views_watch(&table);
            let ids = storage.matching_rows(&table, filter.as_ref())?;
            for id in &ids {
                let current = storage.table(&table)?.get(*id).expect("matched");
                let mut next = current.clone();
                for (pos, expr) in &sets {
                    next[*pos] = eval(expr, &current)?;
                }
                let old = storage.update(&table, *id, next)?;
                let stored = storage.table(&table)?.get(*id).expect("updated");
                if capture {
                    // An update is a retraction of the old row plus an
                    // assertion of the new one under the same id.
                    deltas.push(DeltaEvent::Delete {
                        table: key(&table),
                        id: *id,
                        row: old.clone(),
                    });
                    deltas.push(DeltaEvent::Insert {
                        table: key(&table),
                        id: *id,
                        row: stored.clone(),
                    });
                }
                records.push(WalRecord::Update {
                    tx,
                    table: table.clone(),
                    row_id: *id,
                    row: stored,
                });
                undo.push(UndoOp::RevertUpdated {
                    table: table.clone(),
                    id: *id,
                    row: old,
                });
            }
            Ok(ids.len())
        }
        _ => unreachable!("validated as DML"),
    }
}
