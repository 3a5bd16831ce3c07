//! The database facade: SQL entry point, options, result sets.
//!
//! [`Database`] is what the rest of the workspace talks to — the stand-in
//! for the paper's Oracle 9i instance. It holds the write side of
//! [`Storage`] (catalog, tables, indexes, views: `storage.rs`) behind a
//! reader/writer lock, publishes an immutable copy-on-write snapshot of
//! the last durable state for readers, and sends every logged write down
//! one path (`commit.rs`); `recovery.rs` rebuilds all of it from the log.
//!
//! # Snapshots and commit sequence numbers
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
//! # The write path
//!
//! A write statement takes the storage write lock (refused up front if
//! the database is poisoned) and applies itself to the write side. DML
//! yields the transaction's **change list** — one `Change { table, id,
//! before, after }` per row written — which is all the transaction
//! keeps: a statement that fails partway is undone by walking the list
//! backwards, synchronous materialized views read it as their delta, and
//! the WAL frames are encoded from it. DDL builds its log record first
//! and applies *that* (the same `Storage::apply_ddl` replay uses) to a
//! copy-on-write clone that replaces the write side only once it applied
//! whole.
//!
//! Either way the work then goes through the one `commit`: maintain
//! views, frame into the shared commit queue, stamp the CSN, stash the
//! covering snapshot, release the lock, wait. The first waiter whose CSN
//! is not yet durable becomes the **flush leader**: it takes the whole
//! queue and makes it durable with a single append + fsync, publishes the
//! covering snapshot and wakes everyone, so concurrent committers
//! amortize one fsync across the batch. If the flush fails, *every*
//! transaction in the batch observes the error and the database is
//! poisoned — it refuses further writes until reopened — and the write
//! side is reset to the last published snapshot, the only state that can
//! still be durable.
//!
//! State that takes no CSN — `ANALYZE` statistics, `REFRESH`ed view
//! contents, the zone-map pruning flag — is patched into the snapshots
//! already cut (`patch_snapshots`) instead of being republished.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Condvar, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use xomatiq_obs::trace;

use crate::colstore::COMPACT_DEAD_RATIO;
use crate::commit::{Durability, Work};
use crate::error::{RelError, RelResult};
use crate::exec::{run_plan, ExecStats, PlanRun};
use crate::metrics;
use crate::plan::PlannedQuery;
use crate::planner::plan_select;
use crate::query::{ExecMode, PlanCache, QueryOutcome};
use crate::recorder::FlightRecorder;
use crate::schema::{Column, IndexDef, TableSchema};
use crate::sql::ast::{SelectStmt, Statement};
use crate::sql::parser::parse_statement;
pub use crate::storage::Storage;
use crate::table::Row;
use crate::value::Value;
use crate::view;
use crate::vtab::{VirtualTableProvider, VirtualTables, SYS_PREFIX};
use crate::wal::{RecoveryReport, Wal, WalIo, WalRecord};

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

/// Tuning knobs for a [`Database`].
#[derive(Debug, Clone)]
pub struct DatabaseOptions {
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
        DatabaseOptions {
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

/// A one-shot stop flag with timed waits. The maintenance thread sleeps
/// on it between passes and wakes as soon as [`StopSignal::stop`] fires,
/// so shutdown never has to wait out a full interval.
#[derive(Debug, Default)]
struct StopSignal {
    stopped: std::sync::Mutex<bool>,
    changed: Condvar,
}

impl StopSignal {
    /// Trips the flag and wakes every waiter.
    fn stop(&self) {
        *self.stopped.lock().expect("stop signal poisoned") = true;
        self.changed.notify_all();
    }

    /// Sleeps up to `timeout`, returning early — with `true` — if the
    /// signal stops. `false` means the timeout elapsed.
    fn wait_timeout(&self, timeout: Duration) -> bool {
        let stopped = self.stopped.lock().expect("stop signal poisoned");
        let (stopped, _) = self
            .changed
            .wait_timeout_while(stopped, timeout, |stopped| !*stopped)
            .expect("stop signal poisoned");
        *stopped
    }
}

/// Registry entry for one live [`crate::Session`] (the `sys_sessions`
/// virtual table's backing state).
#[derive(Debug, Clone)]
pub(crate) struct SessionInfo {
    pub(crate) prepared: usize,
    pub(crate) queries: u64,
    pub(crate) started: Instant,
}

/// One `sys_sessions` row, flattened out of the registry.
pub(crate) struct SessionInfoSnapshot {
    pub(crate) session_id: u64,
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
        let plan_cache = Mutex::new(PlanCache::new(options.plan_cache_capacity));
        let snapshot = Mutex::new(Arc::new(storage.clone()));
        let recorder = FlightRecorder::new(options.flight_recorder_capacity, options.slow_query_ns);
        Database {
            storage: RwLock::new(storage),
            snapshot,
            durability,
            options,
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

    /// Publishes `snap` to readers and hands back the snapshot it
    /// supersedes, for the caller to free once it holds no lock: freeing
    /// its copies must not stall readers pinning a snapshot or committers
    /// queued behind a lock.
    #[must_use = "free the superseded snapshot once no lock is held"]
    pub(crate) fn publish(&self, snap: Arc<Storage>) -> Arc<Storage> {
        std::mem::replace(&mut *self.snapshot.lock(), snap)
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
            | Statement::Update { .. }) => self.execute_statements(vec![stmt]).map(ResultSet::dml),
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
                    for src in query.tables() {
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
        let next = {
            let _s = xomatiq_obs::span!("relstore.commit.apply_ns");
            let mut next = storage.clone();
            next.apply_ddl(&record)?;
            if let WalRecord::CreateView { name, .. } = &record {
                next.rebuild_view(name, next.csn + 1)?;
            }
            next
        };
        *storage = next;
        self.commit(storage, Work::Ddl(record))?;
        Ok(ResultSet::dml(0))
    }

    /// Runs DML statements that are already built as one transaction:
    /// either every statement applies and one commit is made durable, or
    /// none do — a batch that fails to apply is rolled back in memory
    /// before anything reaches the log, and takes no CSN. A statement that
    /// is not DML, or that writes a materialized view or a `sys_` table,
    /// fails the batch. Returns the rows affected.
    ///
    /// An `INSERT` whose rows are [`Expr::Literal`](crate::sql::ast::Expr)
    /// values is the typed row form: its values are stored as they are,
    /// with no SQL text formatted or parsed on the way.
    pub fn execute_statements(&self, statements: Vec<Statement>) -> RelResult<usize> {
        for target in statements.iter().filter_map(Statement::dml_target) {
            self.reject_system_write(target, "modify")?;
        }
        let mut storage = self.begin_write()?;
        let mut changes = Vec::new();
        let mut affected = 0;
        let apply = xomatiq_obs::span!("relstore.commit.apply_ns");
        for stmt in statements {
            match storage.apply_statement(stmt, &mut changes) {
                Ok(n) => affected += n,
                Err(e) => {
                    storage.rollback(&changes);
                    return Err(e);
                }
            }
        }
        drop(apply);
        self.commit(storage, Work::Rows(changes))?;
        Ok(affected)
    }

    /// Parses a sequence of DML statements and runs them atomically
    /// through [`Database::execute_statements`].
    pub fn execute_batch(&self, statements: &[&str]) -> RelResult<usize> {
        let parsed = statements
            .iter()
            .map(|s| parse_statement(s))
            .collect::<RelResult<_>>()?;
        self.execute_statements(parsed)
    }

    /// Rewrites segments whose dead-slot (tombstone) fraction exceeds
    /// `COMPACT_DEAD_RATIO`, reclaiming space and re-tightening the
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
                rewritten += t.compact_store(COMPACT_DEAD_RATIO, false);
            }
        }
        // An applied-but-unflushed commit must not leak into the
        // published snapshot; in that window the compacted layout simply
        // rides out with the next successful flush instead.
        if rewritten > 0 && self.is_durable(storage.csn) {
            let superseded = self.publish(Arc::new(storage.clone()));
            drop(storage);
            drop(superseded);
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
        let stop = Arc::new(StopSignal::default());
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

    /// Plans one `SELECT`, whose `?` slots hold `values`, against a pinned
    /// snapshot (see [`plan_select`]), publishing plan latency (or an
    /// error count) to the global metrics registry.
    pub(crate) fn plan_select_stmt(
        &self,
        storage: &Storage,
        select: &SelectStmt,
        values: &[Value],
    ) -> RelResult<(PlannedQuery, bool)> {
        let m = metrics::engine();
        let _t = trace::span("relstore.query.plan");
        let plan_start = Instant::now();
        let (catalog, stats) = (&storage.catalog, &storage.stats);
        let result = plan_select(select, catalog, stats, storage, values);
        match &result {
            Ok(_) => m.plan_ns.record(metrics::elapsed_ns(plan_start)),
            Err(_) => m.errors.inc(),
        }
        result
    }

    /// Executes a planned `SELECT` against a pinned snapshot in the given
    /// mode — on the streaming executor, under its per-operator profiler,
    /// or on the reference interpreter — and
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
                ExecMode::Streaming => run_plan(plan, storage, false)?,
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

    /// Names of all indexes.
    pub fn index_names(&self) -> Vec<String> {
        let storage = self.snapshot();
        storage.catalog.indexes().map(|i| i.name.clone()).collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_signal_wakes_waiters_early() {
        let signal = Arc::new(StopSignal::default());
        // Timeout path: nothing stopped it.
        assert!(!signal.wait_timeout(Duration::from_millis(1)));
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || signal.wait_timeout(Duration::from_secs(60)))
        };
        signal.stop();
        assert!(waiter.join().unwrap());
        // Stopped signals return immediately.
        assert!(signal.wait_timeout(Duration::from_secs(60)));
    }
}
