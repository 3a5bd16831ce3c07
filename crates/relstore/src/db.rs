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
use crate::view::{self, ViewDef, ViewRuntime};
use crate::vtab::{VirtualTableProvider, VirtualTables, SYS_PREFIX};
use crate::wal::{frame_change, frame_into, RecoveryReport, Wal, WalIo, WalRecord};

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
    pub(crate) zone_map_pruning: bool,
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

/// One row write of a transaction: the row at `id` of `table` went from
/// `before` to `after` (`None` = no row there). The ordered list of these
/// is all a transaction keeps: its WAL frames are encoded from it,
/// rollback walks it backwards, and view maintenance reads it as its
/// delta (an update retracts `before` and asserts `after`).
#[derive(Debug, Clone)]
pub(crate) struct Change {
    /// Table name, as the statement (or log record) spelled it.
    pub(crate) table: String,
    /// The row written.
    pub(crate) id: RowId,
    /// The row's content before the write.
    pub(crate) before: Option<Row>,
    /// The row's content after the write.
    pub(crate) after: Option<Row>,
}

impl Storage {
    /// Borrows a table.
    pub fn table(&self, name: &str) -> RelResult<&Table> {
        self.tables
            .get(&key(name))
            .ok_or_else(|| RelError::UnknownTable(name.to_string()))
    }

    pub(crate) fn table_mut(&mut self, name: &str) -> RelResult<&mut Table> {
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
                overlay.insert(&name, None, row)?;
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

    pub(crate) fn drop_table(&mut self, name: &str) -> RelResult<()> {
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

    /// Applies one DDL record — the only place a create or drop reaches
    /// the catalog. Live DDL, log replay and checkpoint-image load all
    /// come through here. `CreateView` registers the definition and an
    /// empty backing table; contents are derived state the caller builds
    /// ([`Storage::rebuild_view`]) once the base tables are in place.
    pub(crate) fn apply_ddl(&mut self, record: &WalRecord) -> RelResult<()> {
        match record {
            WalRecord::CreateTable { schema } => self.create_table(schema.clone()),
            WalRecord::DropTable { name } => self.drop_table(name),
            WalRecord::CreateIndex { def } => self.create_index(def.clone()),
            WalRecord::DropIndex { name } => self.drop_index(name),
            WalRecord::CreateView {
                name,
                refresh_on_commit,
                select_sql,
            } => self.install_view(name, *refresh_on_commit, select_sql),
            WalRecord::DropView { name } => {
                self.views.remove(&key(name));
                self.drop_table(name)
            }
            other => Err(RelError::Wal(format!("not a DDL record: {other:?}"))),
        }
    }

    /// Writes `row` into `table` — at `at` when replay or rollback
    /// addresses the slot, else at a fresh id.
    fn insert(&mut self, table: &str, at: Option<RowId>, row: Row) -> RelResult<Change> {
        let stamp = self.csn + 1;
        let t = self.table_mut(table)?;
        t.set_stamp(stamp);
        let id = match at {
            Some(id) => t.insert_at(id, row).map(|()| id)?,
            None => t.insert(row)?,
        };
        let stored = t.get(id).expect("just inserted");
        self.index_insert(table, id, &stored);
        self.note_mutation(table, 1);
        Ok(Change {
            table: table.to_string(),
            id,
            before: None,
            after: Some(stored),
        })
    }

    fn delete(&mut self, table: &str, id: RowId) -> RelResult<Change> {
        let stamp = self.csn + 1;
        let t = self.table_mut(table)?;
        t.set_stamp(stamp);
        let old = t.delete(id)?;
        self.index_remove(table, id, &old);
        self.note_mutation(table, -1);
        Ok(Change {
            table: table.to_string(),
            id,
            before: Some(old),
            after: None,
        })
    }

    fn update(&mut self, table: &str, id: RowId, row: Row) -> RelResult<Change> {
        let stamp = self.csn + 1;
        let t = self.table_mut(table)?;
        t.set_stamp(stamp);
        let old = t.update(id, row)?;
        let new = t.get(id).expect("just updated");
        self.index_remove(table, id, &old);
        self.index_insert(table, id, &new);
        self.note_mutation(table, 0);
        Ok(Change {
            table: table.to_string(),
            id,
            before: Some(old),
            after: Some(new),
        })
    }

    /// Applies one replayed row record (it addresses its slot by id).
    pub(crate) fn apply_row(&mut self, record: WalRecord) -> RelResult<Change> {
        match record {
            WalRecord::Insert {
                table, row_id, row, ..
            } => self.insert(&table, Some(row_id), row),
            WalRecord::Delete { table, row_id, .. } => self.delete(&table, row_id),
            WalRecord::Update {
                table, row_id, row, ..
            } => self.update(&table, row_id, row),
            other => Err(RelError::Wal(format!("not a row record: {other:?}"))),
        }
    }

    /// Applies one DML statement, appending its row writes to the
    /// transaction's change list; returns the rows affected. A failure
    /// partway leaves the writes made so far in `changes` for the
    /// caller's [`Storage::rollback`].
    pub(crate) fn apply_statement(
        &mut self,
        stmt: Statement,
        changes: &mut Vec<Change>,
    ) -> RelResult<usize> {
        let Some(target) = stmt.dml_target() else {
            return Err(RelError::Internal(
                "execute_batch accepts DML statements only".into(),
            ));
        };
        if self.is_view(target) {
            return Err(RelError::ReadOnly(format!(
                "cannot modify materialized view {target:?}: its contents are \
                 maintained from its base tables"
            )));
        }
        let start = changes.len();
        match stmt {
            Statement::Insert { table, rows } => {
                // VALUES sees no row: any column reference fails to bind.
                let empty = RowSchema::default();
                for row in rows {
                    let values: Row = row
                        .into_iter()
                        .map(|e| match e {
                            // The common case needs neither binding nor a copy.
                            Expr::Literal(v) => Ok(v),
                            e => eval(&bind_expr(&e, &empty)?, &[]),
                        })
                        .collect::<RelResult<_>>()?;
                    changes.push(self.insert(&table, None, values)?);
                }
            }
            Statement::Delete { table, filter } => {
                for id in self.matching_rows(&table, filter.as_ref())? {
                    changes.push(self.delete(&table, id)?);
                }
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                // Each assignment as (target position, bound value expression),
                // all reading the pre-update row.
                let t = self.table(&table)?;
                let row_schema = dml_schema(t);
                let mut sets = Vec::with_capacity(assignments.len());
                for (col, expr) in &assignments {
                    let pos = t
                        .schema()
                        .column_index(col)
                        .ok_or_else(|| RelError::UnknownColumn(format!("{table}.{col}")))?;
                    sets.push((pos, bind_expr(expr, &row_schema)?));
                }
                for id in self.matching_rows(&table, filter.as_ref())? {
                    let current = self.table(&table)?.get(id).expect("matched");
                    let mut next = current.clone();
                    for (pos, expr) in &sets {
                        next[*pos] = eval(expr, &current)?;
                    }
                    changes.push(self.update(&table, id, next)?);
                }
            }
            _ => unreachable!("checked above"),
        }
        Ok(changes.len() - start)
    }

    /// Best-effort reverse walk of a change list: every row goes back to
    /// its `before`.
    pub(crate) fn rollback(&mut self, changes: &[Change]) {
        for c in changes.iter().rev() {
            // Each step inverts a write that succeeded, so failure here is
            // unreachable in practice; ignoring it keeps rollback total
            // (it must never panic or abort halfway).
            let _ = match (&c.before, &c.after) {
                (Some(row), Some(_)) => self.update(&c.table, c.id, row.clone()),
                (Some(row), None) => self.insert(&c.table, Some(c.id), row.clone()),
                (None, _) => self.delete(&c.table, c.id),
            };
        }
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
    pub(crate) fn patch_stats(&mut self, stats: StatsCatalog) {
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

    /// Names of materialized views that read `table`.
    pub(crate) fn view_dependents(&self, table: &str) -> Vec<String> {
        self.views
            .iter()
            .filter(|(_, rt)| rt.reads(table))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Fails unless `name` is a materialized view.
    pub(crate) fn require_view(&self, name: &str) -> RelResult<()> {
        if self.is_view(name) {
            Ok(())
        } else if self.catalog.has_table(name) {
            Err(RelError::Eval(format!(
                "{name:?} is a table, not a materialized view"
            )))
        } else {
            Err(RelError::UnknownTable(name.to_string()))
        }
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
    /// table is replaced wholesale; `stamp` becomes the new rows' CSN. On
    /// failure the previous table and runtime stay in place.
    pub(crate) fn rebuild_view(&mut self, name: &str, stamp: u64) -> RelResult<()> {
        let k = key(name);
        let mut rt = self
            .views
            .get(&k)
            .ok_or_else(|| RelError::Internal(format!("view {name:?} not registered")))?
            .clone();
        let schema = self
            .catalog
            .table(name)
            .expect("view backing schema")
            .clone();
        let mut fresh = Table::new(schema);
        fresh.set_stamp(stamp);
        rt.state = Arc::new(view::full_build(&rt.analysis, &self.tables, &mut fresh)?);
        rt.last_refresh_csn = stamp;
        self.put_view(&k, fresh, rt);
        Ok(())
    }

    /// Installs a view's backing table and runtime under key `k`, keeping
    /// the tracked row count exact (view maintenance bypasses the counting
    /// row primitives).
    fn put_view(&mut self, k: &str, table: Table, rt: ViewRuntime) {
        if let Some(s) = self.stats.existing_mut(k) {
            s.row_count = table.len() as u64;
        }
        self.tables.insert(k.to_string(), table);
        self.views.insert(k.to_string(), rt);
    }

    /// Copies view `name` — contents, runtime, row count — from `from`:
    /// how a `REFRESH`, which takes no CSN, reaches snapshots that are
    /// already cut.
    pub(crate) fn adopt_view(&mut self, from: &Storage, name: &str) {
        let k = key(name);
        if let (Some(table), Some(rt)) = (from.tables.get(&k), from.views.get(&k)) {
            self.put_view(&k, table.clone(), rt.clone());
        }
    }

    /// Runs `f`; if it fails, puts the views keyed `names` back exactly as
    /// they were (cheap COW clones taken up front).
    fn restoring_views_on_error(
        &mut self,
        names: &[String],
        f: impl FnOnce(&mut Storage) -> RelResult<()>,
    ) -> RelResult<()> {
        let saved: Vec<(Table, ViewRuntime)> = names
            .iter()
            .map(|k| (self.tables[k].clone(), self.views[k].clone()))
            .collect();
        let result = f(self);
        if result.is_err() {
            for (k, (table, rt)) in names.iter().zip(saved) {
                self.put_view(k, table, rt);
            }
        }
        result
    }

    /// Runs `changes` through view `k`'s delta pipeline, stamping the view
    /// rows it touches `stamp`.
    fn apply_view_deltas(&mut self, k: &str, changes: &[Change], stamp: u64) -> RelResult<()> {
        let mut rt = self.views.remove(k).expect("registered view");
        let mut vt = self.tables.remove(k).expect("view backing table");
        vt.set_stamp(stamp);
        let result = view::apply_deltas(&mut rt, &mut vt, &self.tables, changes);
        rt.last_refresh_csn = stamp;
        rt.incremental_refreshes += 1;
        // Reinstall before surfacing any error, so the caller's restore
        // finds the entries to replace.
        self.put_view(k, vt, rt);
        result
    }

    /// Feeds a transaction's change list to every view that reads a
    /// changed table: `REFRESH ON COMMIT` views are maintained now (a
    /// failure fails the whole commit — synchronous refresh is part of
    /// the transaction's contract — and leaves every view untouched),
    /// deferred views append to their pending logs. `csn` is the
    /// committing transaction's CSN.
    pub(crate) fn maintain_views(&mut self, changes: &[Change], csn: u64) -> RelResult<()> {
        let affected: Vec<String> = self
            .views
            .iter()
            .filter(|(_, rt)| changes.iter().any(|c| rt.reads(&c.table)))
            .map(|(k, _)| k.clone())
            .collect();
        self.restoring_views_on_error(&affected, |s| {
            for k in &affected {
                let rt = s.views.get_mut(k).expect("listed above");
                if rt.def.refresh_on_commit {
                    s.apply_view_deltas(k, changes, csn)?;
                } else {
                    rt.defer(changes);
                }
            }
            Ok(())
        })
    }

    /// `REFRESH MATERIALIZED VIEW [FULL]`: drains a deferred view's
    /// pending log through the delta pipeline — or, with `full` (or after
    /// the log overflowed), recomputes from scratch. Returns the row
    /// images drained (rows rebuilt), `None` when there was nothing to do.
    pub(crate) fn refresh_view(&mut self, name: &str, full: bool) -> RelResult<Option<usize>> {
        self.require_view(name)?;
        let k = key(name);
        let csn = self.csn;
        let rt = &self.views[&k];
        let (pending, images) = (Arc::clone(&rt.pending), rt.pending_images());
        let refreshed = if full || rt.overflowed {
            self.rebuild_view(name, csn)?;
            self.views
                .get_mut(&k)
                .expect("just rebuilt")
                .fallback_refreshes += 1;
            self.tables[&k].len()
        } else if images == 0 {
            return Ok(None);
        } else {
            // A maintenance error (say, an evaluation error on a pending
            // row) leaves the view and its log intact.
            self.restoring_views_on_error(std::slice::from_ref(&k), |s| {
                s.apply_view_deltas(&k, &pending, csn)
            })?;
            images
        };
        let rt = self.views.get_mut(&k).expect("refreshed above");
        rt.pending = Arc::new(Vec::new());
        rt.overflowed = false;
        Ok(Some(refreshed))
    }

    /// `ANALYZE [TABLE <t>]`: rescans the named table (or every table)
    /// into fresh column statistics and draws a new generation
    /// (invalidating cached plans). Returns the number of tables scanned.
    pub(crate) fn analyze(&mut self, table: Option<&str>) -> RelResult<usize> {
        let names: Vec<String> = match table {
            Some(t) => {
                self.table(t)?; // fail with UnknownTable before mutating
                vec![t.to_string()]
            }
            None => self.catalog.tables().map(|s| s.name.clone()).collect(),
        };
        for name in &names {
            let t = self.table(name)?;
            let schema = t.schema().clone();
            let rows: Vec<Row> = t.scan().map(|(_, row)| row).collect();
            self.stats.table_mut(name).rescan(&schema, rows.into_iter());
        }
        self.generation = next_generation();
        Ok(names.len())
    }
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
pub(crate) struct CommitQueue {
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

/// What one commit makes durable.
pub(crate) enum Work {
    /// A DML transaction's row writes, framed `Begin .. Commit`.
    Rows(Vec<Change>),
    /// One autocommitted DDL record.
    Ddl(WalRecord),
}

/// Durable-mode machinery: the log plus the group-commit queue.
///
/// Lock order: the flush leader never holds the queue lock while taking
/// the wal lock (it drops one before the other); [`Database::checkpoint`]
/// nests queue → wal, which is safe because nothing nests wal → queue.
pub(crate) struct Durability {
    wal: Mutex<Wal>,
    queue: Mutex<CommitQueue>,
    cond: Condvar,
}

impl Durability {
    /// The machinery over a recovered log: everything up to `csn` is
    /// durable, `log_bytes` of it in the active log.
    pub(crate) fn new(wal: Wal, csn: u64, next_tx: u64, log_bytes: u64) -> Durability {
        Durability {
            wal: Mutex::new(wal),
            queue: Mutex::new(CommitQueue {
                buf: Vec::new(),
                queued_csn: csn,
                durable_csn: csn,
                flushing: false,
                poisoned: None,
                pending_snapshot: None,
                next_tx,
                log_bytes,
                waiting_traces: Vec::new(),
            }),
            cond: Condvar::new(),
        }
    }
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
    pub(crate) snapshot: Mutex<Arc<Storage>>,
    pub(crate) durability: Option<Durability>,
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
    pub(crate) fn assemble(
        storage: Storage,
        durability: Option<Durability>,
        options: DatabaseOptions,
    ) -> Database {
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

    pub(crate) fn publish(&self, snap: Arc<Storage>) {
        *self.snapshot.lock() = snap;
    }

    /// Toggles zone-map segment pruning at runtime (bench A/B runs).
    /// Disabling it only stops scans from *skipping* segments; the
    /// vectorized kernels still evaluate pushed-down conjuncts.
    pub fn set_zone_map_pruning(&self, enabled: bool) {
        let mut storage = self.storage.write();
        storage.zone_map_pruning = enabled;
        self.patch_snapshots(|s| s.zone_map_pruning = enabled);
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

    pub(crate) fn from_wal(mut wal: Wal) -> RelResult<(Database, RecoveryReport)> {
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
                                match apply_txn(&mut storage, ops) {
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
                other => match other.row_tx().map(|tx| open_txns.get_mut(&tx)) {
                    Some(Some(ops)) => ops.push(other),
                    // A row without a Begin comes from a compacted
                    // snapshot; apply directly.
                    Some(None) => {
                        if let Err(e) = storage.apply_row(other) {
                            report
                                .replay_errors
                                .push(format!("snapshot record unapplicable: {e}"));
                        }
                    }
                    // Everything else is autocommitted DDL, one CSN each.
                    // A view record registers the definition and an empty
                    // backing table; contents are rebuilt after replay.
                    None => {
                        replay_csn += 1;
                        if !covered(replay_csn, base, &mut report) {
                            if let Err(e) = storage.apply_ddl(&other) {
                                report.replay_errors.push(format!("{other:?}: {e}"));
                            }
                        }
                    }
                },
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
                    storage
                        .views
                        .get_mut(&name)
                        .expect("just rebuilt")
                        .fallback_refreshes += 1;
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
            log_bytes = wal.write_marker(base)?;
        }

        metrics::observe_recovery(&report);
        metrics::engine()
            .wal_bytes
            .set(i64::try_from(log_bytes).unwrap_or(i64::MAX));
        let durability = Durability::new(wal, storage.csn, max_tx + 1, log_bytes);
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
                self.execute_ddl(|_| Ok(WalRecord::CreateTable { schema }))
            }
            Statement::DropTable { name } => {
                self.reject_system_write(&name, "drop table")?;
                self.execute_ddl(|storage| {
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
                    Ok(WalRecord::DropTable { name })
                })
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                keyword,
            } => {
                self.reject_system_write(&table, "index")?;
                self.execute_ddl(|storage| {
                    if storage.is_view(&table) {
                        // View maintenance writes the backing table directly,
                        // bypassing the index-update hooks — an index would
                        // silently go stale.
                        return Err(RelError::Eval(format!(
                            "cannot index materialized view {table:?}: view scans already \
                             read the materialized segments"
                        )));
                    }
                    let def = IndexDef {
                        name,
                        table,
                        columns,
                        keyword,
                    };
                    Ok(WalRecord::CreateIndex { def })
                })
            }
            Statement::DropIndex { name } => {
                self.execute_ddl(|_| Ok(WalRecord::DropIndex { name }))
            }
            stmt @ (Statement::Insert { .. }
            | Statement::Delete { .. }
            | Statement::Update { .. }) => {
                let target = stmt.dml_target().expect("matched as DML");
                self.reject_system_write(target, "modify")?;
                self.execute_parsed_batch(vec![stmt]).map(ResultSet::dml)
            }
            Statement::CreateMaterializedView {
                name,
                refresh_on_commit,
                query,
            } => {
                self.reject_system_write(&name, "create materialized view")?;
                // Only the definition is logged: contents are derived
                // state, rebuilt from the base tables on recovery.
                let select_sql = view::render_select(&query)?;
                self.execute_ddl(|storage| {
                    let sources = query
                        .from
                        .iter()
                        .chain(query.joins.iter().map(|j| &j.table));
                    for src in sources {
                        if storage.is_view(&src.table) {
                            return Err(RelError::Eval(format!(
                                "materialized view {name:?} cannot read materialized view \
                                 {:?} (views over views are not supported)",
                                src.table
                            )));
                        }
                    }
                    Ok(WalRecord::CreateView {
                        name,
                        refresh_on_commit,
                        select_sql,
                    })
                })
            }
            Statement::DropMaterializedView { name } => self.execute_ddl(|storage| {
                storage.require_view(&name)?;
                Ok(WalRecord::DropView { name })
            }),
            Statement::RefreshMaterializedView { name, full } => {
                // Like ANALYZE, a refresh takes no CSN and writes no WAL
                // (view contents are derived state), so it reaches readers
                // the same way: patched into the snapshots already cut.
                let mut storage = self.storage.write();
                let Some(refreshed) = storage.refresh_view(&name, full)? else {
                    return Ok(ResultSet::dml(0)); // nothing to drain
                };
                self.patch_snapshots(|s| s.adopt_view(&storage, &name));
                Ok(ResultSet::dml(refreshed))
            }
            Statement::Analyze { table } => {
                // Statistics are memory-only engine state, not data: never
                // WAL-logged, no CSN. After recovery, row counts re-sync
                // from the restored tables and column statistics wait for
                // the next ANALYZE.
                let mut storage = self.storage.write();
                let analyzed = storage.analyze(table.as_deref())?;
                let stats = storage.stats.clone();
                self.patch_snapshots(|s| s.patch_stats(stats.clone()));
                Ok(ResultSet::dml(analyzed))
            }
        }
    }

    /// One autocommitted DDL statement: `build` checks the statement
    /// against the locked state and yields its log record, the record is
    /// applied, and the commit takes a CSN like any transaction.
    fn execute_ddl(
        &self,
        build: impl FnOnce(&Storage) -> RelResult<WalRecord>,
    ) -> RelResult<ResultSet> {
        let mut storage = self.begin_write()?;
        let record = build(&storage)?;
        // Applied to a copy-on-write clone that replaces the state only
        // once it applied whole, so a DDL that fails halfway (a view whose
        // first build hits an evaluation error) leaves nothing behind.
        let mut next = storage.clone();
        next.apply_ddl(&record)?;
        if let WalRecord::CreateView { name, .. } = &record {
            next.rebuild_view(name, next.csn + 1)?;
        }
        *storage = next;
        self.commit(storage, Work::Ddl(record))?;
        Ok(ResultSet::dml(0))
    }

    /// Runs DML statements as one transaction: either every statement
    /// applies and one commit is made durable, or none do — a batch that
    /// fails to apply is rolled back in memory before anything reaches
    /// the log. Returns the rows affected.
    fn execute_parsed_batch(&self, statements: Vec<Statement>) -> RelResult<usize> {
        let mut storage = self.begin_write()?;
        let mut changes = Vec::new();
        let mut affected = 0;
        for stmt in statements {
            match storage.apply_statement(stmt, &mut changes) {
                Ok(n) => affected += n,
                Err(e) => {
                    storage.rollback(&changes);
                    return Err(e);
                }
            }
        }
        self.commit(storage, Work::Rows(changes))?;
        Ok(affected)
    }

    /// Executes a sequence of DML statements atomically: either every
    /// statement applies and a single commit record is fsynced, or none do.
    pub fn execute_batch(&self, statements: &[&str]) -> RelResult<usize> {
        let parsed = statements
            .iter()
            .map(|s| parse_statement(s))
            .collect::<RelResult<_>>()?;
        self.execute_parsed_batch(parsed)
    }

    /// Takes the storage write lock for a logged write, refusing up front
    /// on a poisoned database — so a statement that can no longer commit
    /// is answered with the poison error, never with whatever it would
    /// have tripped over had it been applied.
    pub(crate) fn begin_write(&self) -> RelResult<RwLockWriteGuard<'_, Storage>> {
        let storage = self.storage.write();
        if let Some(d) = &self.durability {
            if let Some(msg) = &d.queue.lock().poisoned {
                return Err(poison_error(msg));
            }
        }
        Ok(storage)
    }

    /// Commits work already applied under `storage`'s write lock — the
    /// one place a CSN is taken. Synchronous views are maintained from
    /// the change list, the work is framed into the group-commit queue,
    /// the CSN is stamped and the covering snapshot stashed, all under
    /// the lock; then the lock is released and the commit waits for a
    /// flush to cover it. A commit that cannot be made durable leaves no
    /// trace in memory either.
    pub(crate) fn commit(
        &self,
        mut storage: RwLockWriteGuard<'_, Storage>,
        work: Work,
    ) -> RelResult<()> {
        let csn = storage.csn + 1;
        if let Work::Rows(changes) = &work {
            if changes.is_empty() {
                return Ok(()); // no-op DML: nothing to log, nothing to publish
            }
            // Before the snapshot is cut: it must already carry the
            // maintained view contents.
            if let Err(e) = storage.maintain_views(changes, csn) {
                storage.rollback(changes);
                return Err(e);
            }
        }
        storage.csn = csn;
        let snap = Arc::new(storage.clone());
        let Some(d) = &self.durability else {
            self.publish(snap);
            return Ok(());
        };
        {
            let mut q = d.queue.lock();
            match &work {
                Work::Ddl(record) => frame_into(&mut q.buf, record),
                Work::Rows(changes) => {
                    let tx = q.next_tx;
                    q.next_tx += 1;
                    frame_into(&mut q.buf, &WalRecord::Begin { tx });
                    for change in changes {
                        frame_change(&mut q.buf, tx, change);
                    }
                    frame_into(&mut q.buf, &WalRecord::Commit { tx });
                }
            }
            q.queued_csn = csn;
            // Readers see it only once its covering flush succeeds.
            q.pending_snapshot = Some(snap);
            if let Some(ctx) = trace::current() {
                q.waiting_traces.push(ctx);
            }
        }
        drop(storage);
        drop(work);
        let durable = {
            let _t = trace::span("relstore.wal.commit_wait");
            self.wait_durable(d, csn)
        };
        if durable.is_err() {
            // Never acknowledged, and the database is now poisoned:
            // nothing past the published snapshot can become durable any
            // more, so the write side goes back to exactly that state —
            // whatever this and any other doomed commit had applied.
            let last_durable = Storage::clone(&self.snapshot());
            *self.storage.write() = last_durable;
        }
        durable
    }

    /// Whether everything up to `csn` is durable (trivially so in
    /// memory-only mode) and the log still healthy.
    pub(crate) fn is_durable(&self, csn: u64) -> bool {
        self.durability.as_ref().is_none_or(|d| {
            let q = d.queue.lock();
            q.poisoned.is_none() && q.durable_csn == csn
        })
    }

    /// Blocks until `csn` is durable (or the log is poisoned). The first
    /// waiter to find no flush in flight becomes the leader and flushes
    /// the whole queue.
    fn wait_durable(&self, d: &Durability, csn: u64) -> RelResult<()> {
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
            let outcome;
            (q, outcome) = self.flush_queue(d, q);
            outcome?;
        }
    }

    /// Makes everything queued durable with one append + fsync and
    /// records the outcome: success advances the durable horizon and
    /// publishes the covering snapshot, failure poisons the database.
    /// The queue lock is released while the disk works, so later
    /// committers keep enqueueing into a fresh buffer.
    fn flush_queue<'a>(
        &self,
        d: &'a Durability,
        mut q: MutexGuard<'a, CommitQueue>,
    ) -> (MutexGuard<'a, CommitQueue>, RelResult<()>) {
        q.flushing = true;
        let buf = std::mem::take(&mut q.buf);
        let traces = std::mem::take(&mut q.waiting_traces);
        let top = q.queued_csn;
        let snap = q.pending_snapshot.take();
        drop(q);
        let start = Instant::now();
        let res = d.wal.lock().write_frames(&buf);
        let flush_ns = metrics::elapsed_ns(start);
        let m = metrics::engine();
        m.wal_commit_ns.record(flush_ns);
        // One group-commit span per covered committer, attached to the
        // committer's own trace. This thread may belong to a different
        // session than most of `traces` — the whole point of group commit
        // — so the spans are emitted against the captured contexts, not
        // the thread-local one.
        for ctx in traces {
            trace::emit("relstore.wal.group_commit", ctx, flush_ns);
        }
        let mut q = d.queue.lock();
        q.flushing = false;
        match &res {
            Ok(()) => {
                q.durable_csn = q.durable_csn.max(top);
                q.log_bytes += buf.len() as u64;
                m.wal_bytes
                    .set(i64::try_from(q.log_bytes).unwrap_or(i64::MAX));
                if let Some(s) = snap {
                    self.publish(s);
                }
            }
            Err(e) => {
                m.wal_fsync_failures.inc();
                q.poisoned = Some(e.to_string());
            }
        }
        d.cond.notify_all();
        (q, res)
    }

    /// Applies `patch` to the snapshots already cut from the write side —
    /// the pending one awaiting its flush and the published one — for
    /// state that takes no CSN (statistics, refreshed view contents, the
    /// pruning flag). Republishing the write side instead would leak
    /// commits that are applied but not yet durable. The caller holds the
    /// storage write lock and has patched the write side itself.
    pub(crate) fn patch_snapshots(&self, patch: impl Fn(&mut Storage)) {
        if let Some(d) = &self.durability {
            if let Some(snap) = &mut d.queue.lock().pending_snapshot {
                patch(Arc::make_mut(snap));
            }
        }
        patch(Arc::make_mut(&mut self.snapshot.lock()));
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
            // Drain the last queued frames first. No new enqueuers can
            // appear (they need the storage write lock held here), and
            // leaving them would fold unacknowledged commits into the
            // image while their committers wait forever.
            let outcome;
            (q, outcome) = self.flush_queue(d, q);
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
        match wal.write_marker(k) {
            Ok(bytes) => q.log_bytes = bytes,
            Err(e) => {
                q.poisoned = Some(e.to_string());
                d.cond.notify_all();
                return Err(e);
            }
        }
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
        // An applied-but-unflushed commit must not leak into the
        // published snapshot; in that window the compacted layout simply
        // rides out with the next successful flush instead.
        if rewritten > 0 && self.is_durable(storage.csn) {
            self.publish(Arc::new(storage.clone()));
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
    let mut scan = crate::wal::scan_log(image);
    if let Some(c) = &scan.corruption {
        return Err(format!("torn at byte {}: {}", c.offset, c.reason));
    }
    let Some(WalRecord::Checkpoint { csn }) = scan.records.pop() else {
        return Err("missing its trailing completeness marker".into());
    };
    let mut storage = Storage::default();
    for record in scan.records {
        match record {
            row @ WalRecord::Insert { .. } => {
                storage.apply_row(row).map_err(|e| format!("row: {e}"))?;
            }
            // View records carry the definition only; the caller
            // (recovery) rebuilds the contents after replay.
            ddl @ (WalRecord::CreateTable { .. }
            | WalRecord::CreateIndex { .. }
            | WalRecord::CreateView { .. }) => storage
                .apply_ddl(&ddl)
                .map_err(|e| format!("{ddl:?}: {e}"))?,
            other => return Err(format!("unexpected record {other:?}")),
        }
    }
    storage.csn = csn;
    Ok((storage, csn))
}

/// The row schema DML expressions bind against: the bare table as its
/// own alias.
fn dml_schema(t: &Table) -> RowSchema {
    let schema = t.schema();
    RowSchema::for_table(&schema.name, schema.columns.iter().map(|c| c.name.clone()))
}

/// Applies one committed transaction's row records; on failure rolls back
/// whatever part already applied, so a dropped transaction leaves no
/// trace (all-or-nothing even during replay of a damaged log).
fn apply_txn(storage: &mut Storage, ops: Vec<WalRecord>) -> RelResult<()> {
    let mut changes = Vec::with_capacity(ops.len());
    for op in ops {
        match storage.apply_row(op) {
            Ok(change) => changes.push(change),
            Err(e) => {
                storage.rollback(&changes);
                return Err(e);
            }
        }
    }
    Ok(())
}
