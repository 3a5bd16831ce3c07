//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `[u32 LE body length][u8 opcode][payload]`; the length
//! counts the opcode byte plus the payload. Inside payloads:
//!
//! * integers are little-endian fixed width,
//! * strings are `u32 LE byte length` + UTF-8 bytes,
//! * values are a one-byte tag (`0` null, `1` int + `i64`, `2` float +
//!   `f64` bits, `3` text + string),
//! * sequences are `u32 LE count` + elements.
//!
//! The first frame on a connection always travels server→client: a
//! [`Response::Hello`] carrying either a welcome or a "server busy"
//! rejection, so an admission decision never looks like a hang. After
//! that the client speaks [`Request`] frames and receives exactly one
//! [`Response`] frame per request, in order. There is no pipelining —
//! sessions are single-statement-at-a-time, matching the shell.
//!
//! Frames are capped at [`MAX_FRAME_LEN`]; a peer announcing a larger
//! body is treated as malformed and the connection is dropped rather
//! than letting a bad length prefix drive an unbounded allocation.

use std::io::{self, Read, Write};

use xomatiq_relstore::Value;

/// Hard upper bound on a frame body (opcode + payload), 64 MiB.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Client→server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one SQL statement with positional parameters.
    Query {
        /// Statement text.
        sql: String,
        /// Positional bind values, left to right.
        params: Vec<Value>,
    },
    /// Parse and type a statement for later [`Request::Execute`].
    Prepare {
        /// Statement text with `?` placeholders.
        sql: String,
    },
    /// Execute a statement prepared in this session.
    Execute {
        /// Handle from [`Response::Prepared`].
        stmt_id: u32,
        /// Positional bind values.
        params: Vec<Value>,
    },
    /// Drop a prepared statement.
    CloseStmt {
        /// Handle from [`Response::Prepared`].
        stmt_id: u32,
    },
    /// Render the plan (`analyze = false`) or run-and-profile
    /// (`analyze = true`) for a `SELECT`.
    Explain {
        /// Statement text.
        sql: String,
        /// `EXPLAIN ANALYZE` when true.
        analyze: bool,
    },
    /// Liveness probe.
    Ping,
    /// Deterministic metrics snapshot (the `obs` text rendering).
    Metrics,
    /// Graceful end of session; the server answers [`Response::Bye`].
    Goodbye,
    /// Metrics snapshot rendered as JSON (the `obs` JSON rendering).
    MetricsJson,
    /// Any other request, carrying a client-chosen trace id. The server
    /// adopts the id as the request's trace root and echoes it back in a
    /// [`Response::Traced`] wrapper, which is what lets a client join its
    /// own spans with the server's in one trace tree. Wrappers do not
    /// nest.
    Traced {
        /// Client-chosen trace id (any nonzero u64; 0 is legal but
        /// indistinguishable from "untraced" in most sinks).
        trace_id: u64,
        /// The request to serve under that trace.
        inner: Box<Request>,
    },
}

/// Server→client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Greeting frame sent immediately on accept.
    Hello {
        /// `true` means admitted; `false` means the connection limit is
        /// reached and the server closes the socket after this frame.
        admitted: bool,
    },
    /// A query's result rows.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Row-major values.
        rows: Vec<Vec<Value>>,
    },
    /// A DML/DDL statement's affected-row count.
    Affected {
        /// Rows inserted/updated/deleted (0 for DDL).
        count: u64,
    },
    /// A request failed; the session stays usable.
    Error {
        /// Stable machine-readable code (`RelError::code` or `proto`).
        code: String,
        /// Human-readable description.
        message: String,
    },
    /// A statement was prepared.
    Prepared {
        /// Session-scoped handle for [`Request::Execute`].
        stmt_id: u32,
        /// Number of `?` placeholders.
        param_count: u32,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// Free-form text payload (EXPLAIN output, metrics rendering, SET ack).
    Text {
        /// The text.
        body: String,
    },
    /// Answer to [`Request::CloseStmt`].
    Closed {
        /// Whether the handle existed.
        existed: bool,
    },
    /// Answer to [`Request::Goodbye`]; the server closes after sending it.
    Bye,
    /// The response to a [`Request::Traced`], echoing the trace id so the
    /// client can correlate without bookkeeping.
    Traced {
        /// The trace id from the request.
        trace_id: u64,
        /// The wrapped response. Wrappers do not nest.
        inner: Box<Response>,
    },
}

// --- payload primitives ----------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(2);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
    }
}

fn put_values(buf: &mut Vec<u8>, vs: &[Value]) {
    put_u32(buf, vs.len() as u32);
    for v in vs {
        put_value(buf, v);
    }
}

/// A cursor over a frame payload with typed, bounds-checked reads.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| malformed("payload truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid UTF-8 in string"))
    }

    fn value(&mut self) -> io::Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(f64::from_bits(self.u64()?)),
            3 => Value::Text(self.str()?),
            tag => return Err(malformed(&format!("unknown value tag {tag}"))),
        })
    }

    /// Everything left in the payload (used for nested frame bodies).
    fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn values(&mut self) -> io::Result<Vec<Value>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed("trailing bytes in payload"))
        }
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed frame: {what}"),
    )
}

// --- frame encode/decode ---------------------------------------------------

impl Request {
    fn opcode(&self) -> u8 {
        match self {
            Request::Query { .. } => 0x01,
            Request::Prepare { .. } => 0x02,
            Request::Execute { .. } => 0x03,
            Request::CloseStmt { .. } => 0x04,
            Request::Explain { .. } => 0x05,
            Request::Ping => 0x06,
            Request::Metrics => 0x07,
            Request::Goodbye => 0x09,
            Request::Traced { .. } => 0x0a,
            Request::MetricsJson => 0x0b,
        }
    }

    /// Serializes this request as one frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            Request::Query { sql, params } => {
                put_str(&mut payload, sql);
                put_values(&mut payload, params);
            }
            Request::Prepare { sql } => put_str(&mut payload, sql),
            Request::Execute { stmt_id, params } => {
                put_u32(&mut payload, *stmt_id);
                put_values(&mut payload, params);
            }
            Request::CloseStmt { stmt_id } => put_u32(&mut payload, *stmt_id),
            Request::Explain { sql, analyze } => {
                put_str(&mut payload, sql);
                payload.push(u8::from(*analyze));
            }
            Request::Ping | Request::Metrics | Request::MetricsJson | Request::Goodbye => {}
            Request::Traced { trace_id, inner } => {
                payload.extend_from_slice(&trace_id.to_le_bytes());
                // Nested body = the inner frame minus its length prefix.
                payload.extend_from_slice(&inner.encode()[4..]);
            }
        }
        frame(self.opcode(), payload)
    }

    /// Parses a frame body (opcode + payload) into a request.
    pub fn decode(body: &[u8]) -> io::Result<Request> {
        let mut c = Cursor::new(body);
        let op = c.u8()?;
        let req = match op {
            0x01 => Request::Query {
                sql: c.str()?,
                params: c.values()?,
            },
            0x02 => Request::Prepare { sql: c.str()? },
            0x03 => Request::Execute {
                stmt_id: c.u32()?,
                params: c.values()?,
            },
            0x04 => Request::CloseStmt { stmt_id: c.u32()? },
            0x05 => Request::Explain {
                sql: c.str()?,
                analyze: c.u8()? != 0,
            },
            0x06 => Request::Ping,
            0x07 => Request::Metrics,
            0x09 => Request::Goodbye,
            0x0a => {
                let trace_id = c.u64()?;
                let inner = Request::decode(c.rest())?;
                if matches!(inner, Request::Traced { .. }) {
                    return Err(malformed("nested trace wrapper"));
                }
                Request::Traced {
                    trace_id,
                    inner: Box::new(inner),
                }
            }
            0x0b => Request::MetricsJson,
            op => return Err(malformed(&format!("unknown request opcode {op:#x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    fn opcode(&self) -> u8 {
        match self {
            Response::Hello { .. } => 0x81,
            Response::Rows { .. } => 0x82,
            Response::Affected { .. } => 0x83,
            Response::Error { .. } => 0x84,
            Response::Prepared { .. } => 0x85,
            Response::Pong => 0x86,
            Response::Text { .. } => 0x87,
            Response::Closed { .. } => 0x88,
            Response::Bye => 0x89,
            Response::Traced { .. } => 0x8a,
        }
    }

    /// Serializes this response as one frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            Response::Hello { admitted } => payload.push(u8::from(*admitted)),
            Response::Rows { columns, rows } => {
                put_u32(&mut payload, columns.len() as u32);
                for c in columns {
                    put_str(&mut payload, c);
                }
                put_u32(&mut payload, rows.len() as u32);
                for row in rows {
                    put_values(&mut payload, row);
                }
            }
            Response::Affected { count } => payload.extend_from_slice(&count.to_le_bytes()),
            Response::Error { code, message } => {
                put_str(&mut payload, code);
                put_str(&mut payload, message);
            }
            Response::Prepared {
                stmt_id,
                param_count,
            } => {
                put_u32(&mut payload, *stmt_id);
                put_u32(&mut payload, *param_count);
            }
            Response::Pong | Response::Bye => {}
            Response::Text { body } => put_str(&mut payload, body),
            Response::Closed { existed } => payload.push(u8::from(*existed)),
            Response::Traced { trace_id, inner } => {
                payload.extend_from_slice(&trace_id.to_le_bytes());
                payload.extend_from_slice(&inner.encode()[4..]);
            }
        }
        frame(self.opcode(), payload)
    }

    /// Parses a frame body (opcode + payload) into a response.
    pub fn decode(body: &[u8]) -> io::Result<Response> {
        let mut c = Cursor::new(body);
        let op = c.u8()?;
        let resp = match op {
            0x81 => Response::Hello {
                admitted: c.u8()? != 0,
            },
            0x82 => {
                let ncols = c.u32()? as usize;
                let mut columns = Vec::with_capacity(ncols.min(1024));
                for _ in 0..ncols {
                    columns.push(c.str()?);
                }
                let nrows = c.u32()? as usize;
                let mut rows = Vec::with_capacity(nrows.min(1024));
                for _ in 0..nrows {
                    rows.push(c.values()?);
                }
                Response::Rows { columns, rows }
            }
            0x83 => Response::Affected { count: c.u64()? },
            0x84 => Response::Error {
                code: c.str()?,
                message: c.str()?,
            },
            0x85 => Response::Prepared {
                stmt_id: c.u32()?,
                param_count: c.u32()?,
            },
            0x86 => Response::Pong,
            0x87 => Response::Text { body: c.str()? },
            0x88 => Response::Closed {
                existed: c.u8()? != 0,
            },
            0x89 => Response::Bye,
            0x8a => {
                let trace_id = c.u64()?;
                let inner = Response::decode(c.rest())?;
                if matches!(inner, Response::Traced { .. }) {
                    return Err(malformed("nested trace wrapper"));
                }
                Response::Traced {
                    trace_id,
                    inner: Box::new(inner),
                }
            }
            op => return Err(malformed(&format!("unknown response opcode {op:#x}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

fn frame(opcode: u8, payload: Vec<u8>) -> Vec<u8> {
    let body_len = 1 + payload.len();
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(opcode);
    out.extend_from_slice(&payload);
    out
}

/// Writes one already-encoded frame to `w`.
pub fn write_frame(w: &mut impl Write, encoded: &[u8]) -> io::Result<()> {
    w.write_all(encoded)?;
    w.flush()
}

/// Reads one frame body (opcode + payload) from `r`, blocking until it
/// arrives. `Ok(None)` means the peer closed cleanly before a new frame
/// began.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(malformed(&format!("frame length {len} out of range")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Query {
                sql: "SELECT 'O''Hara' FROM t WHERE a = ?".into(),
                params: vec![
                    Value::Null,
                    Value::Int(i64::MAX),
                    Value::Float(-0.0),
                    Value::Text("x''y".into()),
                ],
            },
            Request::Prepare { sql: "".into() },
            Request::Execute {
                stmt_id: 7,
                params: vec![],
            },
            Request::CloseStmt { stmt_id: u32::MAX },
            Request::Explain {
                sql: "SELECT 1".into(),
                analyze: true,
            },
            Request::Ping,
            Request::Metrics,
            Request::Goodbye,
            Request::MetricsJson,
            Request::Traced {
                trace_id: 0xdead_beef_cafe_f00d,
                inner: Box::new(Request::Query {
                    sql: "SELECT 1".into(),
                    params: vec![Value::Int(9)],
                }),
            },
        ];
        for req in reqs {
            let frame = req.encode();
            let body = read_frame(&mut &frame[..]).unwrap().unwrap();
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Hello { admitted: false },
            Response::Rows {
                columns: vec!["a".into(), "b".into()],
                rows: vec![
                    vec![Value::Int(1), Value::Text("x".into())],
                    vec![Value::Null, Value::Float(2.5)],
                ],
            },
            Response::Affected { count: 42 },
            Response::Error {
                code: "bind".into(),
                message: "oops".into(),
            },
            Response::Prepared {
                stmt_id: 3,
                param_count: 2,
            },
            Response::Pong,
            Response::Text {
                body: "plan\ntree".into(),
            },
            Response::Closed { existed: true },
            Response::Bye,
            Response::Traced {
                trace_id: 7,
                inner: Box::new(Response::Rows {
                    columns: vec!["n".into()],
                    rows: vec![vec![Value::Int(1)]],
                }),
            },
        ];
        for resp in resps {
            let frame = resp.encode();
            let body = read_frame(&mut &frame[..]).unwrap().unwrap();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Unknown opcode.
        assert!(Request::decode(&[0x7f]).is_err());
        assert!(Response::decode(&[0x01]).is_err());
        // Truncated payload.
        assert!(Request::decode(&[0x01, 5, 0, 0, 0, b'S']).is_err());
        // Trailing garbage.
        let mut frame = Request::Ping.encode();
        frame[0] += 1; // lengthen the body
        frame.push(0xee);
        let body = read_frame(&mut &frame[..]).unwrap().unwrap();
        assert!(Request::decode(&body).is_err());
        // A trace wrapper may not nest another trace wrapper.
        let nested = Request::Traced {
            trace_id: 1,
            inner: Box::new(Request::Ping),
        };
        let mut body = vec![0x0a];
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&nested.encode()[4..]);
        assert!(Request::decode(&body).is_err());
        // Oversized length prefix.
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        let mut buf = huge.to_vec();
        buf.push(0x06);
        assert!(read_frame(&mut &buf[..]).is_err());
        // Clean EOF before a frame begins.
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None);
        // NaN floats survive (bit-exact transport).
        let req = Request::Query {
            sql: "q".into(),
            params: vec![Value::Float(f64::NAN)],
        };
        let body = read_frame(&mut &req.encode()[..]).unwrap().unwrap();
        match Request::decode(&body).unwrap() {
            Request::Query { params, .. } => match params[0] {
                Value::Float(f) => assert!(f.is_nan()),
                ref v => panic!("expected float, got {v:?}"),
            },
            r => panic!("expected query, got {r:?}"),
        }
    }
}
