//! The MVCC storage root: catalog, tables, indexes, statistics and
//! materialized views, plus every way they change.
//!
//! Row writes go through three primitives that each return the [`Change`]
//! they made; DDL goes through [`Storage::apply_ddl`]. A `Storage` clone
//! is a copy-on-write snapshot, which is all MVCC needs here: the write
//! side lives behind [`Database`](crate::Database)'s lock, and readers
//! pin clones of it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bind::{bind_expr, RowSchema};
use crate::error::{RelError, RelResult};
use crate::exec::matching_ids;
use crate::expr::eval;
use crate::index::BTreeIndex;
use crate::schema::{Catalog, IndexDef, TableSchema};
use crate::sql::ast::{Expr, Statement};
use crate::sql::parser::parse_statement;
use crate::stats::StatsCatalog;
use crate::table::{Row, RowId, Table};
use crate::text::KeywordIndex;
use crate::value::Value;
use crate::view::{self, ViewDef, ViewRuntime};
use crate::wal::WalRecord;

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

    /// `table`, set to stamp what is written next with the CSN the pending
    /// commit will take.
    fn stamped_mut(&mut self, table: &str) -> RelResult<&mut Table> {
        let stamp = self.csn + 1;
        let t = self.table_mut(table)?;
        t.set_stamp(stamp);
        Ok(t)
    }

    /// Writes `row` into `table` — at `at` when replay or rollback
    /// addresses the slot, else at a fresh id.
    fn insert(&mut self, table: &str, at: Option<RowId>, row: Row) -> RelResult<Change> {
        let t = self.stamped_mut(table)?;
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
        let t = self.stamped_mut(table)?;
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
        let t = self.stamped_mut(table)?;
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
    /// DML reads its table exactly as a query would: the planner's leaf
    /// rules pick the access path and split the filter, and the leaf
    /// cursor selects the ids — so `DELETE ... WHERE doc_id = 7` touches
    /// only the matching rows instead of scanning the table, which is what
    /// makes the Data Hounds' per-entry incremental updates cheaper than a
    /// full reload.
    fn matching_rows(&self, table: &str, filter: Option<&Expr>) -> RelResult<Vec<RowId>> {
        self.table(table)?;
        if filter.is_some_and(Expr::has_aggregate) {
            return Err(RelError::Eval("aggregate in DML predicate".into()));
        }
        let access = crate::planner::plan_access(table, filter, &self.catalog, &self.stats)?;
        matching_ids(&access, self)
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

/// The row schema DML expressions bind against: the bare table as its
/// own alias.
fn dml_schema(t: &Table) -> RowSchema {
    let schema = t.schema();
    RowSchema::for_table(&schema.name, schema.columns.iter().map(|c| c.name.clone()))
}
