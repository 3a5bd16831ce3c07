//! A small blocking client for the wire protocol — what the shell's
//! `--connect` mode, the integration tests and the load generator use.

use std::fmt;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

use xomatiq_relstore::Value;

use crate::proto::{read_frame, Request, Response};

/// What a client-side request can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read or write).
    Io(io::Error),
    /// The server rejected the connection at admission control.
    Busy,
    /// The server answered with an error response; the session survives.
    Server {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable description.
        message: String,
    },
    /// The server sent something the protocol does not allow here.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Busy => write!(f, "server busy: connection rejected"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// A query's outcome as seen over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// A `SELECT`'s columns and rows.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Row-major values.
        rows: Vec<Vec<Value>>,
    },
    /// A DML/DDL affected-row count.
    Affected(u64),
}

impl QueryReply {
    /// The rows, or an empty slice for DML/DDL.
    pub fn rows(&self) -> &[Vec<Value>] {
        match self {
            QueryReply::Rows { rows, .. } => rows,
            QueryReply::Affected(_) => &[],
        }
    }
}

/// A connected session. One request is in flight at a time; every method
/// writes a frame and blocks for its response.
///
/// With [`Client::set_trace`] armed, every request travels inside a
/// [`Request::Traced`] envelope carrying that id; the server roots its
/// spans under it, and `sys_queries.trace_id` reports it back as hex.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    trace_id: Option<u64>,
}

impl Client {
    /// Connects and waits for the greeting frame. [`ClientError::Busy`]
    /// means admission control turned the connection away.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            trace_id: None,
        };
        match client.read_response()? {
            Response::Hello { admitted: true } => Ok(client),
            Response::Hello { admitted: false } => Err(ClientError::Busy),
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// Arms (or clears) the trace id attached to every subsequent
    /// request on this client.
    pub fn set_trace(&mut self, trace_id: Option<u64>) {
        self.trace_id = trace_id;
    }

    /// The currently armed trace id, if any.
    pub fn trace_id(&self) -> Option<u64> {
        self.trace_id
    }

    fn roundtrip(&mut self, request: Request) -> ClientResult<Response> {
        let request = match self.trace_id {
            Some(trace_id) => Request::Traced {
                trace_id,
                inner: Box::new(request),
            },
            None => request,
        };
        self.stream.write_all(&request.encode())?;
        self.stream.flush()?;
        let resp = match self.read_response()? {
            Response::Traced { trace_id, inner } => {
                if self.trace_id != Some(trace_id) {
                    return Err(ClientError::Protocol(format!(
                        "trace id mismatch: sent {:?}, got {trace_id}",
                        self.trace_id
                    )));
                }
                *inner
            }
            other => other,
        };
        match resp {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    fn read_response(&mut self) -> ClientResult<Response> {
        let body = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        Response::decode(&body).map_err(ClientError::Io)
    }

    /// Runs one SQL statement with positional parameters.
    pub fn query(&mut self, sql: &str, params: Vec<Value>) -> ClientResult<QueryReply> {
        let resp = self.roundtrip(Request::Query {
            sql: sql.to_string(),
            params,
        })?;
        reply_from(resp)
    }

    /// Prepares a statement; returns `(stmt_id, param_count)`.
    pub fn prepare(&mut self, sql: &str) -> ClientResult<(u32, usize)> {
        match self.roundtrip(Request::Prepare {
            sql: sql.to_string(),
        })? {
            Response::Prepared {
                stmt_id,
                param_count,
            } => Ok((stmt_id, param_count as usize)),
            other => Err(unexpected("Prepared", &other)),
        }
    }

    /// Executes a prepared statement by handle.
    pub fn execute(&mut self, stmt_id: u32, params: Vec<Value>) -> ClientResult<QueryReply> {
        let resp = self.roundtrip(Request::Execute { stmt_id, params })?;
        reply_from(resp)
    }

    /// Closes a prepared statement; `true` if the handle existed.
    pub fn close_stmt(&mut self, stmt_id: u32) -> ClientResult<bool> {
        match self.roundtrip(Request::CloseStmt { stmt_id })? {
            Response::Closed { existed } => Ok(existed),
            other => Err(unexpected("Closed", &other)),
        }
    }

    /// `EXPLAIN` (or `EXPLAIN ANALYZE`) rendering for a `SELECT`.
    pub fn explain(&mut self, sql: &str, analyze: bool) -> ClientResult<String> {
        match self.roundtrip(Request::Explain {
            sql: sql.to_string(),
            analyze,
        })? {
            Response::Text { body } => Ok(body),
            other => Err(unexpected("Text", &other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> ClientResult<()> {
        match self.roundtrip(Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// The server's deterministic metrics snapshot (text rendering).
    pub fn metrics(&mut self) -> ClientResult<String> {
        match self.roundtrip(Request::Metrics)? {
            Response::Text { body } => Ok(body),
            other => Err(unexpected("Text", &other)),
        }
    }

    /// The server's metrics snapshot as a JSON document.
    pub fn metrics_json(&mut self) -> ClientResult<String> {
        match self.roundtrip(Request::MetricsJson)? {
            Response::Text { body } => Ok(body),
            other => Err(unexpected("Text", &other)),
        }
    }

    /// Ends the session gracefully, waiting for the server's `Bye`.
    pub fn goodbye(mut self) -> ClientResult<()> {
        match self.roundtrip(Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(unexpected("Bye", &other)),
        }
    }
}

fn reply_from(resp: Response) -> ClientResult<QueryReply> {
    match resp {
        Response::Rows { columns, rows } => Ok(QueryReply::Rows { columns, rows }),
        Response::Affected { count } => Ok(QueryReply::Affected(count)),
        other => Err(unexpected("Rows or Affected", &other)),
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
