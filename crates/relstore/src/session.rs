//! Session-scoped query surface: the state a wire-protocol connection
//! owns on top of a shared [`Database`].
//!
//! A [`Session`] holds what must *not* leak between concurrent clients —
//! prepared statements addressed by small integer handles, and
//! session-local settings such as the worker count — while everything
//! worth sharing (the plan cache, the MVCC storage root, indexes) stays
//! in the `Database` it wraps. Dropping a session drops its prepared
//! statements; nothing else needs cleanup, which is what makes an
//! abruptly-killed connection safe: the server just drops the value.
//!
//! Every query run through a session pins an MVCC snapshot at build time
//! (see [`Database::query`]), so two sessions interleaving reads and
//! writes each see a consistent committed state, never a torn one.

use std::collections::HashMap;
use std::sync::Arc;

use crate::db::Database;
use crate::error::{RelError, RelResult};
use crate::query::{Prepared, QueryOutcome};
use crate::value::Value;

/// A prepared-statement handle as returned to a session client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmtHandle {
    /// Session-scoped statement id; meaningless in any other session.
    pub id: u32,
    /// Number of `?` placeholders the statement takes.
    pub param_count: usize,
}

/// Per-connection state over a shared [`Database`]. See the module docs.
///
/// Each session registers itself with the database on construction and
/// unregisters on drop, which is what `sys_sessions` rows are made of.
pub struct Session {
    db: Arc<Database>,
    id: u64,
    prepared: HashMap<u32, Prepared>,
    next_stmt_id: u32,
    workers: Option<usize>,
}

impl Session {
    /// A fresh session over `db` with no prepared statements and the
    /// database's default worker count.
    pub fn new(db: Arc<Database>) -> Session {
        let id = db.register_session();
        Session {
            db,
            id,
            prepared: HashMap::new(),
            next_stmt_id: 1,
            workers: None,
        }
    }

    /// The database-assigned session id (the `sys_sessions.session_id`
    /// this session shows up under).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared database this session runs against.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Overrides the worker count for every subsequent query in this
    /// session (`None` restores the database default).
    pub fn set_workers(&mut self, workers: Option<usize>) {
        self.workers = workers.map(|w| w.max(1));
        let workers = self.workers;
        self.db.update_session(self.id, |s| s.workers = workers);
    }

    /// The session's worker override, if any.
    pub fn workers(&self) -> Option<usize> {
        self.workers
    }

    /// Number of live prepared statements (used by tests and `METRICS`).
    pub fn prepared_count(&self) -> usize {
        self.prepared.len()
    }

    /// Runs one SQL statement with positional parameters, honoring the
    /// session's worker override. The query pins its MVCC snapshot here.
    pub fn run_sql(&self, sql: &str, params: Vec<Value>) -> RelResult<QueryOutcome> {
        let mut q = self.db.query(sql);
        for p in params {
            q = q.bind_value(p);
        }
        if let Some(w) = self.workers {
            q = q.with_workers(w);
        }
        self.db.update_session(self.id, |s| s.queries += 1);
        q.run()
    }

    /// Parses and types `sql` once, returning a handle valid only within
    /// this session.
    pub fn prepare(&mut self, sql: &str) -> RelResult<StmtHandle> {
        let prepared = self.db.prepare(sql)?;
        let handle = StmtHandle {
            id: self.next_stmt_id,
            param_count: prepared.param_count(),
        };
        self.next_stmt_id += 1;
        self.prepared.insert(handle.id, prepared);
        let live = self.prepared.len();
        self.db.update_session(self.id, |s| s.prepared = live);
        Ok(handle)
    }

    /// Executes a previously prepared statement with bound parameters.
    /// An id this session never issued (or already closed) is a typed
    /// error — notably including ids issued by *other* sessions.
    pub fn execute(&self, id: u32, params: Vec<Value>) -> RelResult<QueryOutcome> {
        let prepared = self.prepared.get(&id).ok_or_else(|| {
            RelError::Bind(format!("no prepared statement #{id} in this session"))
        })?;
        let mut q = self.db.query_prepared(prepared);
        for p in params {
            q = q.bind_value(p);
        }
        if let Some(w) = self.workers {
            q = q.with_workers(w);
        }
        self.db.update_session(self.id, |s| s.queries += 1);
        q.run()
    }

    /// Drops a prepared statement; `false` if the id was not live.
    pub fn close_stmt(&mut self, id: u32) -> bool {
        let removed = self.prepared.remove(&id).is_some();
        let live = self.prepared.len();
        self.db.update_session(self.id, |s| s.prepared = live);
        removed
    }

    /// Renders the plan tree (or, with `analyze`, runs the query and
    /// renders the per-operator profile) for a `SELECT`. The non-analyze
    /// path renders the typed [`PlanExplain`](crate::plan::PlanExplain)
    /// tree from [`crate::query::Query::explain`].
    pub fn explain(&self, sql: &str, analyze: bool) -> RelResult<String> {
        if analyze {
            let out = self.db.query(sql).with_profile().run()?;
            Ok(out.render_analysis().expect("a profiled run has a profile"))
        } else {
            Ok(self.db.query(sql).explain()?.render())
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.db.unregister_session(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_rows() -> Arc<Database> {
        let db = Arc::new(Database::in_memory());
        db.query("CREATE TABLE t (a INT, s TEXT)").run().unwrap();
        for i in 0..5i64 {
            db.query("INSERT INTO t VALUES (?, ?)")
                .bind(i)
                .bind(format!("row{i}"))
                .run()
                .unwrap();
        }
        db
    }

    #[test]
    fn prepared_handles_are_session_scoped() {
        let db = db_with_rows();
        let mut s1 = Session::new(Arc::clone(&db));
        let mut s2 = Session::new(Arc::clone(&db));
        let h1 = s1.prepare("SELECT s FROM t WHERE a = ?").unwrap();
        assert_eq!(h1.param_count, 1);
        // Same id space, different statements: no cross-talk.
        let h2 = s2.prepare("SELECT a FROM t WHERE s = ?").unwrap();
        assert_eq!(h1.id, h2.id);
        let out = s1.execute(h1.id, vec![Value::Int(3)]).unwrap();
        assert_eq!(out.rows.rows()[0][0], Value::Text("row3".into()));
        let out = s2.execute(h2.id, vec![Value::Text("row3".into())]).unwrap();
        assert_eq!(out.rows.rows()[0][0], Value::Int(3));
        // A handle the session never issued fails with a bind error.
        let err = s1.execute(99, vec![]).unwrap_err();
        assert_eq!(err.code(), "bind");
        // Closing invalidates.
        assert!(s1.close_stmt(h1.id));
        assert!(!s1.close_stmt(h1.id));
        assert!(s1.execute(h1.id, vec![Value::Int(3)]).is_err());
    }

    #[test]
    fn run_sql_binds_and_honors_workers() {
        let db = db_with_rows();
        let mut s = Session::new(db);
        s.set_workers(Some(2));
        assert_eq!(s.workers(), Some(2));
        let out = s
            .run_sql("SELECT COUNT(*) FROM t WHERE a < ?", vec![Value::Int(3)])
            .unwrap();
        assert_eq!(out.rows.rows()[0][0], Value::Int(3));
        s.set_workers(Some(0)); // clamps to 1
        assert_eq!(s.workers(), Some(1));
    }
}
