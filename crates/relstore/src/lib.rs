#![warn(missing_docs)]

//! # xomatiq-relstore
//!
//! An embedded relational engine — the stand-in for the commercial RDBMS
//! (Oracle 9i) underneath the paper's Data Hounds warehouse.
//!
//! The paper's architecture leans on four properties of the relational
//! substrate (§2.2): the ability to store and process large volumes of
//! tuples, mature query processing ("all of the power of relational
//! database systems"), meticulous index support (§3.2), and "the
//! concurrency access and crash recovery features of an RDBMS". This crate
//! implements each of them from scratch:
//!
//! * [`value`] / [`schema`] — typed values (the paper distinguishes string
//!   from numeric data because "common queries often require to compare
//!   these numeric types across large datasets"), columns, table schemas
//!   and a catalog.
//! * [`table`] / [`colstore`] / [`segment`] — an append-only segmented
//!   column store with stable, insertion-ordered row ids, per-segment
//!   zone maps for scan pruning, and vectorized predicate kernels.
//! * [`index`] — composite-key B-tree secondary indexes with point and
//!   range scans.
//! * [`text`] — an inverted keyword index supporting the paper's
//!   "efficient keyword-based searches in the relational database system".
//! * [`sql`] — a SQL subset (lexer, parser, AST) covering everything the
//!   XQ2SQL translator emits: `SELECT` (joins, `WHERE`, `ORDER BY`,
//!   `LIMIT`, `DISTINCT`, aggregates), DML and DDL.
//! * [`expr`], [`plan`], [`planner`], [`bind`], [`exec`] — expression
//!   evaluation, logical plans, an index-selecting planner whose last
//!   stage binds every column name to a row position, and the executor
//!   (filtered scans, index scans, nested-loop and hash joins, sort).
//! * [`wal`] / [`db`] — a write-ahead log with crash recovery, and the
//!   [`Database`] facade combining all of the above behind reader/writer
//!   locking.
//!
//! * [`query`] — the unified [`Query`] builder
//!   (`db.query(sql).bind(v).with_stats().run()`), prepared statements,
//!   the LRU plan cache, and typed row access ([`ResultRow`]).
//! * [`session`] — the per-connection [`Session`] state (prepared-
//!   statement handles) the wire-protocol server builds on.
//! * [`vtab`] / [`recorder`] — the introspection layer: `sys_*` system
//!   virtual tables over live engine telemetry, and the slow-query
//!   flight recorder behind `sys_queries` / `sys_profiles`.
//! * [`stats`] — per-table row counts, min/max, null fractions and NDV
//!   sketches (collected by `ANALYZE`, maintained incrementally) that
//!   drive the planner's cardinality estimates and the typed
//!   [`PlanExplain`] tree `EXPLAIN` renders.
//!
//! ```
//! use xomatiq_relstore::Database;
//!
//! let db = Database::in_memory();
//! db.query("CREATE TABLE enzymes (ec TEXT, description TEXT, sites INT)").run().unwrap();
//! db.query("INSERT INTO enzymes VALUES (?, ?, ?)")
//!     .bind("1.14.17.3")
//!     .bind("Peptidylglycine monooxygenase.")
//!     .bind(5i64)
//!     .run()
//!     .unwrap();
//! let out = db.query("SELECT ec FROM enzymes WHERE sites > ?").bind(2i64).run().unwrap();
//! assert_eq!(out.rows.rows().len(), 1);
//! for row in out.rows {
//!     let ec: String = row.get("ec").unwrap();
//!     assert_eq!(ec, "1.14.17.3");
//! }
//! ```

pub mod bind;
pub(crate) mod chunked;
pub mod colstore;
pub(crate) mod commit;
pub mod db;
pub mod error;
pub mod exec;
pub mod exec_reference;
pub mod expr;
pub mod index;
pub(crate) mod metrics;
pub mod plan;
pub mod planner;
pub mod query;
pub mod recorder;
pub(crate) mod recovery;
pub mod regex;
pub mod schema;
pub mod segment;
pub mod session;
pub mod sql;
pub mod stats;
pub(crate) mod storage;
pub mod table;
pub mod text;
pub mod value;
pub(crate) mod view;
pub mod vtab;
pub mod wal;

pub use db::{Database, DatabaseOptions, ResultSet};
pub use error::{RelError, RelResult};
pub use exec::{format_ns, ExecStats, OpProfile};
pub use plan::{PlanEstimate, PlanExplain, PlanExplainNode, PlannedQuery};
pub use query::{ColumnError, FromValue, Prepared, Query, QueryOutcome, ResultRow, ResultRows};
pub use recorder::{FlightRecorder, QueryRecord};
pub use schema::{Column, TableSchema};
pub use session::{Session, StmtHandle};
pub use stats::{ColumnStats, NdvSketch, StatsCatalog, TableStats};
pub use value::{DataType, Value};
pub use vtab::VirtualTableProvider;
pub use wal::{Corruption, FaultConfig, FaultyIo, RecoveryReport, SlowIo, StdFileIo, WalIo};
