#![warn(missing_docs)]

//! # xomatiq-server
//!
//! The network front door for the XomatiQ engine: a TCP server speaking
//! a length-prefixed binary protocol, serving many concurrent sessions
//! over one shared [`Database`](xomatiq_relstore::Database).
//!
//! The paper frames XomatiQ as the query interface of gRNA serving many
//! researchers against warehoused EMBL/Swiss-Prot/ENZYME data (§3); up
//! to now the engine was embedded-only. This crate adds the missing
//! serving layer while keeping the engine in charge of everything hard:
//! each connection is a thin [`Session`](xomatiq_relstore::Session) over
//! the shared plan cache and MVCC snapshots, and the sessions are the
//! concurrency: each runs its queries on its own thread.
//!
//! * [`proto`] — the frame codec ([`Request`], [`Response`]).
//! * [`server`] — listener, admission control, session threads,
//!   draining shutdown ([`start`], [`ServerConfig`], [`ServerHandle`]).
//! * [`client`] — a blocking [`Client`] used by the shell's `--connect`
//!   mode, the tests and the load generator.
//!
//! ```no_run
//! use std::sync::Arc;
//! use xomatiq_relstore::Database;
//! use xomatiq_server::{start, Client, ServerConfig};
//!
//! let db = Arc::new(Database::in_memory());
//! let server = start(db, ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() }).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.query("CREATE TABLE t (a INT)", vec![]).unwrap();
//! client.goodbye().unwrap();
//! ```

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, ClientResult, QueryReply};
pub use proto::{Request, Response, MAX_FRAME_LEN};
pub use server::{start, ServerConfig, ServerHandle};
