//! Write-ahead logging and crash recovery.
//!
//! One of the paper's stated reasons for shredding XML into an RDBMS is to
//! "exploit the concurrency access and crash recovery features of an RDBMS"
//! (§2.2). This module supplies the recovery half: every mutation is
//! encoded as a [`WalRecord`], framed with a length and an FNV-1a checksum,
//! and appended to a log file before it is acknowledged. Recovery replays
//! the log, applying DDL immediately and buffering DML until its `Commit`
//! record — so a crash mid-transaction loses exactly the uncommitted tail,
//! and a torn final record (crash mid-write) is detected by the checksum
//! and discarded.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{RelError, RelResult};
use crate::schema::{IndexDef, TableSchema};
use crate::storage::Change;
use crate::table::RowId;
use crate::value::{DataType, Value};

/// A logged operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Transaction start.
    Begin {
        /// Transaction id.
        tx: u64,
    },
    /// Transaction commit; buffered operations become durable.
    Commit {
        /// Transaction id.
        tx: u64,
    },
    /// DDL: create a table.
    CreateTable {
        /// The created table's schema.
        schema: TableSchema,
    },
    /// DDL: drop a table.
    DropTable {
        /// Table name.
        name: String,
    },
    /// DDL: create an index.
    CreateIndex {
        /// The index definition.
        def: IndexDef,
    },
    /// DDL: drop an index.
    DropIndex {
        /// Index name.
        name: String,
    },
    /// DML: insert `row` into `table` at `row_id`.
    Insert {
        /// Owning transaction.
        tx: u64,
        /// Target table.
        table: String,
        /// Assigned row id.
        row_id: RowId,
        /// The inserted values.
        row: Vec<Value>,
    },
    /// DML: delete the row at `row_id`.
    Delete {
        /// Owning transaction.
        tx: u64,
        /// Target table.
        table: String,
        /// Deleted row id.
        row_id: RowId,
    },
    /// DML: replace the row at `row_id` with `row`.
    Update {
        /// Owning transaction.
        tx: u64,
        /// Target table.
        table: String,
        /// Updated row id.
        row_id: RowId,
        /// The replacement values.
        row: Vec<Value>,
    },
    /// DDL: create a materialized view. Only the definition is logged —
    /// view *contents* are derived state, rebuilt from the base tables on
    /// recovery rather than replayed.
    CreateView {
        /// View name (also its backing table's name).
        name: String,
        /// Synchronous (`REFRESH ON COMMIT`) vs deferred maintenance.
        refresh_on_commit: bool,
        /// The defining `SELECT`, rendered back to SQL.
        select_sql: String,
    },
    /// DDL: drop a materialized view.
    DropView {
        /// View name.
        name: String,
    },
    /// Checkpoint marker. As the trailing record of a checkpoint image it
    /// certifies the image is complete; as the leading record of a fresh
    /// (rotated) log it tells recovery how many commit sequence numbers
    /// the checkpoint already covers, so replay counts from `csn` instead
    /// of zero.
    Checkpoint {
        /// Commit sequence number the checkpoint state includes.
        csn: u64,
    },
}

const TAG_BEGIN: u8 = 0x01;
const TAG_COMMIT: u8 = 0x02;
const TAG_CHECKPOINT: u8 = 0x03;
const TAG_CREATE_TABLE: u8 = 0x10;
const TAG_DROP_TABLE: u8 = 0x11;
const TAG_CREATE_INDEX: u8 = 0x12;
const TAG_DROP_INDEX: u8 = 0x13;
const TAG_CREATE_VIEW: u8 = 0x14;
const TAG_DROP_VIEW: u8 = 0x15;
const TAG_INSERT: u8 = 0x20;
const TAG_DELETE: u8 = 0x21;
const TAG_UPDATE: u8 = 0x22;

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c9dc5;
    for b in bytes {
        hash ^= u32::from(*b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> RelResult<String> {
    if buf.remaining() < 4 {
        return Err(RelError::Wal("truncated string length".into()));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(RelError::Wal("truncated string payload".into()));
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| RelError::Wal("invalid UTF-8".into()))
}

fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(2);
            buf.put_f64(*f);
        }
        Value::Text(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
    }
}

fn get_value(buf: &mut Bytes) -> RelResult<Value> {
    if !buf.has_remaining() {
        return Err(RelError::Wal("truncated value tag".into()));
    }
    match buf.get_u8() {
        0 => Ok(Value::Null),
        1 => {
            if buf.remaining() < 8 {
                return Err(RelError::Wal("truncated int".into()));
            }
            Ok(Value::Int(buf.get_i64()))
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(RelError::Wal("truncated float".into()));
            }
            Ok(Value::Float(buf.get_f64()))
        }
        3 => Ok(Value::Text(get_str(buf)?)),
        t => Err(RelError::Wal(format!("unknown value tag {t}"))),
    }
}

fn put_row(buf: &mut BytesMut, row: &[Value]) {
    buf.put_u32(row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

fn get_row(buf: &mut Bytes) -> RelResult<Vec<Value>> {
    if buf.remaining() < 4 {
        return Err(RelError::Wal("truncated row length".into()));
    }
    let n = buf.get_u32() as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(get_value(buf)?);
    }
    Ok(row)
}

/// The payload shared by the three row records (`Delete` carries no row).
fn put_dml(buf: &mut BytesMut, tag: u8, tx: u64, table: &str, id: RowId, row: Option<&[Value]>) {
    buf.put_u8(tag);
    buf.put_u64(tx);
    put_str(buf, table);
    buf.put_u64(id.0);
    if let Some(row) = row {
        put_row(buf, row);
    }
}

fn put_schema(buf: &mut BytesMut, schema: &TableSchema) {
    put_str(buf, &schema.name);
    buf.put_u32(schema.columns.len() as u32);
    for col in &schema.columns {
        put_str(buf, &col.name);
        buf.put_u8(match col.ty {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Text => 2,
        });
    }
}

fn get_schema(buf: &mut Bytes) -> RelResult<TableSchema> {
    let name = get_str(buf)?;
    if buf.remaining() < 4 {
        return Err(RelError::Wal("truncated column count".into()));
    }
    let n = buf.get_u32() as usize;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let col_name = get_str(buf)?;
        if !buf.has_remaining() {
            return Err(RelError::Wal("truncated column type".into()));
        }
        let ty = match buf.get_u8() {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Text,
            t => return Err(RelError::Wal(format!("unknown column type tag {t}"))),
        };
        columns.push(crate::schema::Column { name: col_name, ty });
    }
    Ok(TableSchema { name, columns })
}

impl WalRecord {
    /// The owning transaction of a row record (`None` for every other
    /// record).
    pub(crate) fn row_tx(&self) -> Option<u64> {
        match self {
            WalRecord::Insert { tx, .. }
            | WalRecord::Delete { tx, .. }
            | WalRecord::Update { tx, .. } => Some(*tx),
            _ => None,
        }
    }

    /// Serializes the record payload (without framing).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        match self {
            WalRecord::Begin { tx } => {
                buf.put_u8(TAG_BEGIN);
                buf.put_u64(*tx);
            }
            WalRecord::Commit { tx } => {
                buf.put_u8(TAG_COMMIT);
                buf.put_u64(*tx);
            }
            WalRecord::Checkpoint { csn } => {
                buf.put_u8(TAG_CHECKPOINT);
                buf.put_u64(*csn);
            }
            WalRecord::CreateTable { schema } => {
                buf.put_u8(TAG_CREATE_TABLE);
                put_schema(&mut buf, schema);
            }
            WalRecord::DropTable { name } => {
                buf.put_u8(TAG_DROP_TABLE);
                put_str(&mut buf, name);
            }
            WalRecord::CreateIndex { def } => {
                buf.put_u8(TAG_CREATE_INDEX);
                put_str(&mut buf, &def.name);
                put_str(&mut buf, &def.table);
                buf.put_u32(def.columns.len() as u32);
                for c in &def.columns {
                    put_str(&mut buf, c);
                }
                buf.put_u8(u8::from(def.keyword));
            }
            WalRecord::DropIndex { name } => {
                buf.put_u8(TAG_DROP_INDEX);
                put_str(&mut buf, name);
            }
            WalRecord::CreateView {
                name,
                refresh_on_commit,
                select_sql,
            } => {
                buf.put_u8(TAG_CREATE_VIEW);
                put_str(&mut buf, name);
                buf.put_u8(u8::from(*refresh_on_commit));
                put_str(&mut buf, select_sql);
            }
            WalRecord::DropView { name } => {
                buf.put_u8(TAG_DROP_VIEW);
                put_str(&mut buf, name);
            }
            WalRecord::Insert {
                tx,
                table,
                row_id,
                row,
            } => put_dml(&mut buf, TAG_INSERT, *tx, table, *row_id, Some(row)),
            WalRecord::Delete { tx, table, row_id } => {
                put_dml(&mut buf, TAG_DELETE, *tx, table, *row_id, None)
            }
            WalRecord::Update {
                tx,
                table,
                row_id,
                row,
            } => put_dml(&mut buf, TAG_UPDATE, *tx, table, *row_id, Some(row)),
        }
        buf.freeze()
    }

    /// Deserializes a record payload.
    pub fn decode(mut buf: Bytes) -> RelResult<WalRecord> {
        if !buf.has_remaining() {
            return Err(RelError::Wal("empty record".into()));
        }
        let tag = buf.get_u8();
        let need_u64 = |buf: &mut Bytes| -> RelResult<u64> {
            if buf.remaining() < 8 {
                Err(RelError::Wal("truncated u64".into()))
            } else {
                Ok(buf.get_u64())
            }
        };
        match tag {
            TAG_BEGIN => Ok(WalRecord::Begin {
                tx: need_u64(&mut buf)?,
            }),
            TAG_COMMIT => Ok(WalRecord::Commit {
                tx: need_u64(&mut buf)?,
            }),
            TAG_CHECKPOINT => Ok(WalRecord::Checkpoint {
                csn: need_u64(&mut buf)?,
            }),
            TAG_CREATE_TABLE => Ok(WalRecord::CreateTable {
                schema: get_schema(&mut buf)?,
            }),
            TAG_DROP_TABLE => Ok(WalRecord::DropTable {
                name: get_str(&mut buf)?,
            }),
            TAG_CREATE_INDEX => {
                let name = get_str(&mut buf)?;
                let table = get_str(&mut buf)?;
                if buf.remaining() < 4 {
                    return Err(RelError::Wal("truncated index columns".into()));
                }
                let n = buf.get_u32() as usize;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    columns.push(get_str(&mut buf)?);
                }
                if !buf.has_remaining() {
                    return Err(RelError::Wal("truncated index kind".into()));
                }
                let keyword = buf.get_u8() != 0;
                Ok(WalRecord::CreateIndex {
                    def: IndexDef {
                        name,
                        table,
                        columns,
                        keyword,
                    },
                })
            }
            TAG_DROP_INDEX => Ok(WalRecord::DropIndex {
                name: get_str(&mut buf)?,
            }),
            TAG_CREATE_VIEW => {
                let name = get_str(&mut buf)?;
                if !buf.has_remaining() {
                    return Err(RelError::Wal("truncated view refresh policy".into()));
                }
                let refresh_on_commit = buf.get_u8() != 0;
                let select_sql = get_str(&mut buf)?;
                Ok(WalRecord::CreateView {
                    name,
                    refresh_on_commit,
                    select_sql,
                })
            }
            TAG_DROP_VIEW => Ok(WalRecord::DropView {
                name: get_str(&mut buf)?,
            }),
            TAG_INSERT => {
                let tx = need_u64(&mut buf)?;
                let table = get_str(&mut buf)?;
                let row_id = RowId(need_u64(&mut buf)?);
                let row = get_row(&mut buf)?;
                Ok(WalRecord::Insert {
                    tx,
                    table,
                    row_id,
                    row,
                })
            }
            TAG_DELETE => {
                let tx = need_u64(&mut buf)?;
                let table = get_str(&mut buf)?;
                let row_id = RowId(need_u64(&mut buf)?);
                Ok(WalRecord::Delete { tx, table, row_id })
            }
            TAG_UPDATE => {
                let tx = need_u64(&mut buf)?;
                let table = get_str(&mut buf)?;
                let row_id = RowId(need_u64(&mut buf)?);
                let row = get_row(&mut buf)?;
                Ok(WalRecord::Update {
                    tx,
                    table,
                    row_id,
                    row,
                })
            }
            t => Err(RelError::Wal(format!("unknown record tag {t}"))),
        }
    }
}

/// The fault plane: every byte the log reads or writes goes through this
/// trait. Production uses [`StdFileIo`]; tests inject [`FaultyIo`] to
/// exercise torn writes, bit-flips, failed fsyncs and read errors without
/// touching a real disk.
pub trait WalIo: Send + std::fmt::Debug {
    /// Appends `bytes` at the end of the log (OS cache; not yet durable).
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes every appended byte durable.
    fn fsync(&mut self) -> io::Result<()>;
    /// Reads the entire log as currently visible.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Discards every byte past `len` (corrupt-tail repair).
    fn truncate_to(&mut self, len: u64) -> io::Result<()>;

    /// Atomically replaces the checkpoint side store with `bytes`:
    /// after a success the next [`WalIo::get_side`] returns exactly
    /// `bytes`; after a failure it returns whatever it returned before
    /// (write-to-temp + rename semantics — never a torn mix).
    fn put_side(&mut self, _bytes: &[u8]) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "checkpoint side store unsupported by this backend",
        ))
    }

    /// Reads the checkpoint side store (`None` when absent).
    fn get_side(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(None)
    }

    /// Rotates the active log: the current contents move aside as the
    /// single retained previous generation (replacing any earlier one)
    /// and the active log restarts empty.
    fn rotate(&mut self) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "log rotation unsupported by this backend",
        ))
    }
}

/// Appends `suffix` to a path's file name (`db.wal` → `db.wal.ckpt`),
/// keeping the original extension intact.
fn sibling_path(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Production [`WalIo`]: a real append-only file, with the checkpoint
/// image in a `<path>.ckpt` sibling and one rotated generation in
/// `<path>.old`.
#[derive(Debug)]
pub struct StdFileIo {
    file: File,
    path: PathBuf,
}

impl StdFileIo {
    /// Opens (creating if absent) the log file at `path`.
    pub fn open(path: &Path) -> io::Result<StdFileIo> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(path)?;
        Ok(StdFileIo {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Best-effort fsync of the directory holding the log, making the
    /// renames in [`WalIo::put_side`] / [`WalIo::rotate`] durable. Some
    /// filesystems reject directory fsync; the rename itself is still
    /// atomic, so errors are ignored.
    fn sync_dir(&self) {
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
}

impl WalIo for StdFileIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn fsync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut raw = Vec::new();
        self.file.read_to_end(&mut raw)?;
        Ok(raw)
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn put_side(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = sibling_path(&self.path, ".ckpt.tmp");
        let side = sibling_path(&self.path, ".ckpt");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        // The atomic-rename guarantee: a crash before this line leaves
        // the previous checkpoint untouched; after it, the new image is
        // fully in place. There is no in-between.
        std::fs::rename(&tmp, &side)?;
        self.sync_dir();
        Ok(())
    }

    fn get_side(&mut self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(sibling_path(&self.path, ".ckpt")) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        std::fs::rename(&self.path, sibling_path(&self.path, ".old"))?;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&self.path)?;
        self.sync_dir();
        Ok(())
    }
}

/// How often [`FaultyIo`] injects each fault kind: a fault fires roughly
/// once every N operations of its kind (0 = never). All draws come from
/// one seeded generator, so a given seed always produces the same
/// schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// 1-in-N appends stop partway through and report an error.
    pub torn_write_in: u32,
    /// 1-in-N appends silently flip one bit of the written bytes.
    pub bit_flip_in: u32,
    /// 1-in-N fsyncs fail; only a prefix of the cached bytes reaches the
    /// durable store and the rest of the cache is lost (the kernel may
    /// drop dirty pages after a failed fsync).
    pub fsync_fail_in: u32,
    /// 1-in-N reads fail outright.
    pub read_fail_in: u32,
}

impl FaultConfig {
    /// A configuration that injects nothing.
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn one_in(state: &mut u64, n: u32) -> bool {
    n != 0 && splitmix(state).is_multiple_of(u64::from(n))
}

#[derive(Debug)]
struct FaultyState {
    /// Bytes that survive a crash.
    durable: Vec<u8>,
    /// Appended but not yet fsynced bytes (simulated OS cache).
    cache: Vec<u8>,
    /// Checkpoint side store (always durable once written: `put_side`
    /// models write-to-temp + atomic rename).
    side: Option<Vec<u8>>,
    /// The single retained previous log generation.
    rotated: Option<Vec<u8>>,
    rng: u64,
    cfg: FaultConfig,
}

/// Deterministic fault-injecting [`WalIo`] over an in-memory disk.
///
/// Clones share the disk and the fault schedule, so a test can keep a
/// handle while the [`Wal`] owns another: crash the disk, inspect the
/// durable bytes, or flip bits at rest.
#[derive(Debug, Clone)]
pub struct FaultyIo {
    state: Arc<Mutex<FaultyState>>,
}

impl FaultyIo {
    /// A fresh empty disk with the given fault schedule seed.
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultyIo {
        FaultyIo {
            state: Arc::new(Mutex::new(FaultyState {
                durable: Vec::new(),
                cache: Vec::new(),
                side: None,
                rotated: None,
                rng: seed,
                cfg,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultyState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Simulates a crash: everything not fsynced is gone.
    pub fn crash(&self) {
        self.lock().cache.clear();
    }

    /// Replaces the fault schedule (e.g. disable faults for recovery).
    pub fn set_config(&self, cfg: FaultConfig) {
        self.lock().cfg = cfg;
    }

    /// The bytes that would survive a crash.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.lock().durable.clone()
    }

    /// Total visible log length (durable + cached).
    pub fn len(&self) -> u64 {
        let s = self.lock();
        (s.durable.len() + s.cache.len()) as u64
    }

    /// Whether the visible log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flips bits of the durable byte at `offset` (corruption at rest).
    pub fn corrupt_durable(&self, offset: u64, mask: u8) {
        let mut s = self.lock();
        if let Some(b) = s.durable.get_mut(offset as usize) {
            *b ^= mask;
        }
    }

    /// The checkpoint side store's current contents, if any.
    pub fn side_bytes(&self) -> Option<Vec<u8>> {
        self.lock().side.clone()
    }

    /// The single retained rotated log generation, if any.
    pub fn rotated_bytes(&self) -> Option<Vec<u8>> {
        self.lock().rotated.clone()
    }

    /// Flips bits of the checkpoint side byte at `offset` (a torn or
    /// damaged checkpoint image at rest).
    pub fn corrupt_side(&self, offset: u64, mask: u8) {
        let mut s = self.lock();
        if let Some(b) = s.side.as_mut().and_then(|v| v.get_mut(offset as usize)) {
            *b ^= mask;
        }
    }
}

impl WalIo for FaultyIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.lock();
        let s = &mut *s;
        if one_in(&mut s.rng, s.cfg.torn_write_in) {
            let cut = (splitmix(&mut s.rng) as usize) % (bytes.len() + 1);
            s.cache.extend_from_slice(&bytes[..cut]);
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected torn write: {cut} of {} bytes", bytes.len()),
            ));
        }
        if !bytes.is_empty() && one_in(&mut s.rng, s.cfg.bit_flip_in) {
            let mut corrupted = bytes.to_vec();
            let at = (splitmix(&mut s.rng) as usize) % corrupted.len();
            let bit = (splitmix(&mut s.rng) % 8) as u8;
            corrupted[at] ^= 1 << bit;
            s.cache.extend_from_slice(&corrupted);
            return Ok(()); // silent corruption: the write "succeeds"
        }
        s.cache.extend_from_slice(bytes);
        Ok(())
    }

    fn fsync(&mut self) -> io::Result<()> {
        let mut s = self.lock();
        let s = &mut *s;
        if one_in(&mut s.rng, s.cfg.fsync_fail_in) {
            let keep = (splitmix(&mut s.rng) as usize) % (s.cache.len() + 1);
            let kept: Vec<u8> = s.cache.drain(..keep).collect();
            s.durable.extend_from_slice(&kept);
            s.cache.clear();
            return Err(io::Error::other("injected fsync failure"));
        }
        let cache = std::mem::take(&mut s.cache);
        s.durable.extend_from_slice(&cache);
        Ok(())
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let mut s = self.lock();
        let s = &mut *s;
        if one_in(&mut s.rng, s.cfg.read_fail_in) {
            return Err(io::Error::other("injected read failure"));
        }
        let mut raw = s.durable.clone();
        raw.extend_from_slice(&s.cache);
        Ok(raw)
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        let mut s = self.lock();
        let len = len as usize;
        if len <= s.durable.len() {
            s.durable.truncate(len);
            s.cache.clear();
        } else {
            let keep = len - s.durable.len();
            s.cache.truncate(keep);
        }
        Ok(())
    }

    fn put_side(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut s = self.lock();
        let s = &mut *s;
        // Models write-to-temp + atomic rename: a failure (drawn from the
        // fsync schedule — it is a durability operation) leaves the
        // previous image fully intact, never a torn mix.
        if one_in(&mut s.rng, s.cfg.fsync_fail_in) {
            return Err(io::Error::other("injected checkpoint write failure"));
        }
        s.side = Some(bytes.to_vec());
        Ok(())
    }

    fn get_side(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut s = self.lock();
        let s = &mut *s;
        if s.side.is_some() && one_in(&mut s.rng, s.cfg.read_fail_in) {
            return Err(io::Error::other("injected checkpoint read failure"));
        }
        Ok(s.side.clone())
    }

    fn rotate(&mut self) -> io::Result<()> {
        let mut s = self.lock();
        let s = &mut *s;
        // Rotation is a rename: atomic, but it can still fail outright
        // (drawn from the fsync schedule), leaving the log unmoved.
        if one_in(&mut s.rng, s.cfg.fsync_fail_in) {
            return Err(io::Error::other("injected rotation failure"));
        }
        s.rotated = Some(std::mem::take(&mut s.durable));
        s.cache.clear();
        Ok(())
    }
}

/// A [`WalIo`] decorator that sleeps on every fsync, modelling a slow
/// disk. Used by the group-commit bench and the reader-vs-writer tests:
/// with fsyncs pinned at a known latency, commit batching and non-blocking
/// snapshot reads become deterministic, observable effects.
#[derive(Debug)]
pub struct SlowIo {
    inner: Box<dyn WalIo>,
    fsync_delay: std::time::Duration,
}

impl SlowIo {
    /// Wraps `inner`, delaying every fsync by `fsync_delay`.
    pub fn new(inner: Box<dyn WalIo>, fsync_delay: std::time::Duration) -> SlowIo {
        SlowIo { inner, fsync_delay }
    }
}

impl WalIo for SlowIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(bytes)
    }

    fn fsync(&mut self) -> io::Result<()> {
        std::thread::sleep(self.fsync_delay);
        self.inner.fsync()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate_to(len)
    }

    fn put_side(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.put_side(bytes)
    }

    fn get_side(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.get_side()
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.inner.rotate()
    }
}

/// Where and why a log scan stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Byte offset of the first bad frame.
    pub offset: u64,
    /// Human-readable cause (truncated frame, checksum mismatch, ...).
    pub reason: String,
}

/// The result of scanning a raw log image.
#[derive(Debug, Clone, Default)]
pub struct LogScan {
    /// Every record up to (not including) the first bad frame.
    pub records: Vec<WalRecord>,
    /// Byte offset of each record's frame, parallel to `records`.
    pub offsets: Vec<u64>,
    /// Length of the valid prefix; everything past it is garbage.
    pub valid_len: u64,
    /// Total length of the scanned image.
    pub total_len: u64,
    /// The first bad frame, if the log did not end cleanly.
    pub corruption: Option<Corruption>,
}

/// What recovery found and did. Returned by
/// [`Database::open_with_report`](crate::db::Database::open_with_report):
/// the caller learns exactly which transactions were replayed and which
/// were dropped, instead of recovery failing (or worse, panicking) on a
/// damaged log.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Intact records found in the log.
    pub records_scanned: usize,
    /// Committed transactions fully applied.
    pub transactions_applied: usize,
    /// Transactions present in the log but not applied: uncommitted
    /// (crash before commit) or unapplicable (log inconsistency).
    pub transactions_dropped: Vec<u64>,
    /// Non-fatal replay problems, one message each.
    pub replay_errors: Vec<String>,
    /// The first bad frame, if corruption cut the log short.
    pub corruption: Option<Corruption>,
    /// Bytes discarded past the last intact frame.
    pub truncated_bytes: u64,
    /// CSN of the checkpoint image recovery restored (0 = none: no
    /// checkpoint existed, or it was torn and full replay ran instead).
    pub checkpoint_csn: u64,
    /// Committed transactions present in the log but already covered by
    /// the restored checkpoint, so not replayed. `transactions_applied`
    /// counts only the tail actually replayed.
    pub transactions_skipped: usize,
}

impl RecoveryReport {
    /// True when the whole log was intact and every committed transaction
    /// applied cleanly.
    pub fn is_clean(&self) -> bool {
        self.corruption.is_none()
            && self.transactions_dropped.is_empty()
            && self.replay_errors.is_empty()
    }
}

/// Frames cannot plausibly exceed this; a larger length prefix means the
/// length field itself is corrupt.
const MAX_FRAME: usize = 64 << 20;

/// Scans a raw log image, collecting records up to the first bad frame.
/// Never fails: damage is reported in [`LogScan::corruption`].
pub fn scan_log(raw: &[u8]) -> LogScan {
    let mut scan = LogScan {
        total_len: raw.len() as u64,
        ..LogScan::default()
    };
    let mut pos = 0usize;
    let corrupt = |pos: usize, reason: &str| Corruption {
        offset: pos as u64,
        reason: reason.to_string(),
    };
    while pos < raw.len() {
        if pos + 8 > raw.len() {
            scan.corruption = Some(corrupt(pos, "truncated frame header"));
            break;
        }
        let len = u32::from_be_bytes(raw[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(raw[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let start = pos + 8;
        if len > MAX_FRAME {
            scan.corruption = Some(corrupt(pos, "implausible frame length"));
            break;
        }
        if start + len > raw.len() {
            scan.corruption = Some(corrupt(pos, "truncated frame payload"));
            break;
        }
        let payload = &raw[start..start + len];
        if fnv1a(payload) != crc {
            scan.corruption = Some(corrupt(pos, "checksum mismatch"));
            break;
        }
        match WalRecord::decode(Bytes::copy_from_slice(payload)) {
            Ok(record) => {
                scan.records.push(record);
                scan.offsets.push(pos as u64);
            }
            Err(e) => {
                scan.corruption = Some(corrupt(pos, &format!("undecodable record: {e}")));
                break;
            }
        }
        pos = start + len;
    }
    scan.valid_len = pos as u64;
    scan
}

/// Framing: `len u32 | crc u32 | payload`.
fn frame_payload(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.reserve(8 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(&fnv1a(payload).to_be_bytes());
    buf.extend_from_slice(payload);
}

pub(crate) fn frame_into(buf: &mut Vec<u8>, record: &WalRecord) {
    frame_payload(buf, &record.encode());
}

/// Frames one row write of transaction `tx` straight from the borrowed
/// change — byte for byte the [`WalRecord::Insert`], [`WalRecord::Delete`]
/// or [`WalRecord::Update`] it amounts to.
pub(crate) fn frame_change(buf: &mut Vec<u8>, tx: u64, change: &Change) {
    let (tag, row) = match (&change.before, &change.after) {
        (None, after) => (TAG_INSERT, after.as_deref()),
        (Some(_), None) => (TAG_DELETE, None),
        (Some(_), Some(row)) => (TAG_UPDATE, Some(&row[..])),
    };
    let mut payload = BytesMut::with_capacity(64);
    put_dml(&mut payload, tag, tx, &change.table, change.id, row);
    frame_payload(buf, &payload);
}

/// An append-only write-ahead log over a [`WalIo`].
///
/// A failed sync **poisons** the handle: the on-disk suffix is in an
/// unknown state, so instead of risking interleaved garbage every later
/// sync fails fast until the database is reopened (which repairs the
/// tail).
#[derive(Debug)]
pub struct Wal {
    io: Box<dyn WalIo>,
    /// Records appended since the last [`Wal::sync`].
    pending: Vec<u8>,
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the log file at `path`.
    pub fn open(path: &Path) -> RelResult<Wal> {
        let io = StdFileIo::open(path)
            .map_err(|e| RelError::Wal(format!("open {}: {e}", path.display())))?;
        Ok(Wal::with_io(Box::new(io)))
    }

    /// A log over an arbitrary [`WalIo`] (fault injection, in-memory).
    pub fn with_io(io: Box<dyn WalIo>) -> Wal {
        Wal {
            io,
            pending: Vec::new(),
            poisoned: false,
        }
    }

    /// Whether an earlier I/O failure poisoned this handle.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Buffers one framed record until the next [`Wal::sync`].
    pub fn append(&mut self, record: &WalRecord) {
        frame_into(&mut self.pending, record);
    }

    /// Writes the buffered records and fsyncs (`Wal::write_frames` over
    /// the buffer, which is consumed either way).
    pub fn sync(&mut self) -> RelResult<()> {
        let pending = std::mem::take(&mut self.pending);
        self.write_frames(&pending)
    }

    /// Writes pre-framed bytes and fsyncs — the durability point. The
    /// group-commit flush hands in a whole batch of framed transactions;
    /// one append + one fsync makes them all durable together.
    ///
    /// On failure the handle is poisoned: the tail of the log may hold a
    /// partial frame, and appending more would bury it mid-log.
    pub(crate) fn write_frames(&mut self, frames: &[u8]) -> RelResult<()> {
        if self.poisoned {
            return Err(RelError::Wal(
                "log poisoned by an earlier I/O failure; reopen the database".into(),
            ));
        }
        if frames.is_empty() {
            return Ok(());
        }
        let result = self.io.append(frames).and_then(|()| self.io.fsync());
        if let Err(e) = result {
            self.poisoned = true;
            return Err(RelError::Wal(format!("sync: {e} (log poisoned)")));
        }
        Ok(())
    }

    /// Leads a fresh log — just rotated by a checkpoint, or found empty
    /// beside a valid image by recovery — with the marker that tells
    /// replay to count commits from `csn`. Returns the bytes written.
    pub(crate) fn write_marker(&mut self, csn: u64) -> RelResult<u64> {
        let mut marker = Vec::new();
        frame_into(&mut marker, &WalRecord::Checkpoint { csn });
        self.write_frames(&marker)?;
        Ok(marker.len() as u64)
    }

    /// Atomically replaces the checkpoint side store. A failure leaves
    /// the previous image (and the active log) fully intact, so it does
    /// *not* poison the handle.
    pub(crate) fn put_side(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.io.put_side(bytes)
    }

    /// Reads the checkpoint side store (`None` when absent).
    pub(crate) fn get_side(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.io.get_side()
    }

    /// Rotates the active log aside as the retained previous generation.
    /// Poisons the handle on failure: the log's identity is then unknown.
    pub(crate) fn rotate(&mut self) -> RelResult<()> {
        if self.poisoned {
            return Err(RelError::Wal(
                "log poisoned by an earlier I/O failure; reopen the database".into(),
            ));
        }
        if let Err(e) = self.io.rotate() {
            self.poisoned = true;
            return Err(RelError::Wal(format!("rotate: {e} (log poisoned)")));
        }
        Ok(())
    }

    /// Reads the log, keeps the longest intact prefix, and physically
    /// truncates anything after the first bad frame so later appends
    /// land on a clean tail. Never fails on *corruption* — only on I/O
    /// errors reading or repairing the log.
    pub fn recover(&mut self) -> RelResult<LogScan> {
        let raw = self
            .io
            .read_all()
            .map_err(|e| RelError::Wal(format!("read log: {e}")))?;
        let scan = scan_log(&raw);
        if scan.valid_len < scan.total_len {
            self.io
                .truncate_to(scan.valid_len)
                .map_err(|e| RelError::Wal(format!("truncate corrupt tail: {e}")))?;
        }
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("xomatiq-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                schema: TableSchema::new(
                    "t",
                    vec![
                        Column::new("a", DataType::Int),
                        Column::new("b", DataType::Text),
                    ],
                ),
            },
            WalRecord::CreateIndex {
                def: IndexDef {
                    name: "i".into(),
                    table: "t".into(),
                    columns: vec!["a".into()],
                    keyword: false,
                },
            },
            WalRecord::Begin { tx: 1 },
            WalRecord::Insert {
                tx: 1,
                table: "t".into(),
                row_id: RowId(0),
                row: vec![Value::Int(7), Value::Text("seven".into())],
            },
            WalRecord::Update {
                tx: 1,
                table: "t".into(),
                row_id: RowId(0),
                row: vec![Value::Null, Value::Float(2.5)],
            },
            WalRecord::Delete {
                tx: 1,
                table: "t".into(),
                row_id: RowId(0),
            },
            WalRecord::Commit { tx: 1 },
            WalRecord::Checkpoint { csn: 42 },
            WalRecord::DropIndex { name: "i".into() },
            WalRecord::DropTable { name: "t".into() },
        ]
    }

    /// Opens the log at `path` and returns every intact record.
    fn read_back(path: &Path) -> Vec<WalRecord> {
        Wal::open(path).unwrap().recover().unwrap().records
    }

    #[test]
    fn records_encode_decode_round_trip() {
        for record in sample_records() {
            let encoded = record.encode();
            let decoded = WalRecord::decode(encoded).unwrap();
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn append_sync_read_back() {
        let path = tmp("roundtrip");
        let mut wal = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append(&r);
        }
        wal.sync().unwrap();
        assert_eq!(read_back(&path), sample_records());
    }

    #[test]
    fn unsynced_records_are_not_durable() {
        let path = tmp("unsynced");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Begin { tx: 9 });
        // No sync: nothing on disk yet.
        assert!(read_back(&path).is_empty());
        // Dropped unsynced: still nothing on disk.
        drop(wal);
        assert!(read_back(&path).is_empty());
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        assert!(read_back(&path).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Begin { tx: 1 });
        wal.append(&WalRecord::Commit { tx: 1 });
        wal.sync().unwrap();
        // Simulate a crash mid-append by truncating the file.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        let scan = wal.recover().unwrap();
        assert_eq!(scan.records, vec![WalRecord::Begin { tx: 1 }]);
        assert!(scan.corruption.is_some());
        // The bad tail is physically gone: a second recovery is clean.
        let scan2 = Wal::open(&path).unwrap().recover().unwrap();
        assert_eq!(scan2.records, vec![WalRecord::Begin { tx: 1 }]);
        assert!(scan2.corruption.is_none());
    }

    #[test]
    fn mid_log_corruption_truncates_at_first_bad_frame() {
        let path = tmp("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Begin { tx: 1 });
        wal.append(&WalRecord::Commit { tx: 1 });
        wal.sync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the first record.
        bytes[9] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let scan = Wal::open(&path).unwrap().recover().unwrap();
        assert!(scan.records.is_empty());
        let corruption = scan.corruption.expect("corruption reported");
        assert_eq!(corruption.offset, 0);
        assert_eq!(corruption.reason, "checksum mismatch");
        assert_eq!(scan.valid_len, 0);
        // Both records are gone (the second sat after the bad frame), and
        // the file was repaired down to the valid prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn scan_log_reports_implausible_length() {
        let mut raw = Vec::new();
        frame_into(&mut raw, &WalRecord::Begin { tx: 1 });
        let first = raw.len();
        raw.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd length
        raw.extend_from_slice(&[0u8; 4]);
        let scan = scan_log(&raw);
        assert_eq!(scan.records, vec![WalRecord::Begin { tx: 1 }]);
        assert_eq!(scan.valid_len, first as u64);
        assert_eq!(
            scan.corruption.unwrap().reason,
            "implausible frame length".to_string()
        );
    }

    #[test]
    fn failed_sync_poisons_the_handle() {
        let io = FaultyIo::new(7, FaultConfig::none());
        let mut wal = Wal::with_io(Box::new(io.clone()));
        wal.append(&WalRecord::Begin { tx: 1 });
        wal.sync().unwrap();
        // Every fsync fails from here on.
        io.set_config(FaultConfig {
            fsync_fail_in: 1,
            ..FaultConfig::none()
        });
        wal.append(&WalRecord::Commit { tx: 1 });
        assert!(wal.sync().is_err());
        assert!(wal.is_poisoned());
        // Later syncs fail fast even after faults are disabled: the tail
        // state is unknown until recovery.
        io.set_config(FaultConfig::none());
        wal.append(&WalRecord::Begin { tx: 2 });
        let err = wal.sync().unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
    }

    #[test]
    fn faulty_io_schedule_is_deterministic() {
        let cfg = FaultConfig {
            torn_write_in: 3,
            bit_flip_in: 4,
            fsync_fail_in: 5,
            read_fail_in: 0,
        };
        let run = |seed: u64| {
            let mut io = FaultyIo::new(seed, cfg);
            let mut outcomes = Vec::new();
            for i in 0..32u64 {
                outcomes.push(io.append(&i.to_be_bytes()).is_ok());
                outcomes.push(io.fsync().is_ok());
            }
            (outcomes, io.durable_bytes())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn faulty_io_crash_drops_unsynced_bytes() {
        let io = FaultyIo::new(1, FaultConfig::none());
        let mut handle = io.clone();
        handle.append(b"durable").unwrap();
        handle.fsync().unwrap();
        handle.append(b"lost").unwrap();
        io.crash();
        assert_eq!(handle.read_all().unwrap(), b"durable");
    }

    #[test]
    fn std_file_io_side_store_round_trips_atomically() {
        let path = tmp("side");
        let mut io = StdFileIo::open(&path).unwrap();
        assert_eq!(io.get_side().unwrap(), None);
        io.put_side(b"image-one").unwrap();
        assert_eq!(io.get_side().unwrap().unwrap(), b"image-one");
        // Replacement is whole-image: no torn mix of old and new.
        io.put_side(b"image-two-longer").unwrap();
        assert_eq!(io.get_side().unwrap().unwrap(), b"image-two-longer");
        // No stray temp file left behind.
        assert!(!sibling_path(&path, ".ckpt.tmp").exists());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sibling_path(&path, ".ckpt"));
    }

    #[test]
    fn std_file_io_rotation_keeps_one_generation() {
        let path = tmp("rotate");
        let mut io = StdFileIo::open(&path).unwrap();
        io.append(b"gen-one").unwrap();
        io.fsync().unwrap();
        io.rotate().unwrap();
        assert_eq!(io.read_all().unwrap(), b"");
        assert_eq!(
            std::fs::read(sibling_path(&path, ".old")).unwrap(),
            b"gen-one"
        );
        io.append(b"gen-two").unwrap();
        io.fsync().unwrap();
        io.rotate().unwrap();
        // Only the latest previous generation is retained.
        assert_eq!(
            std::fs::read(sibling_path(&path, ".old")).unwrap(),
            b"gen-two"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(sibling_path(&path, ".old"));
    }

    #[test]
    fn faulty_io_side_store_fails_atomically() {
        let io = FaultyIo::new(3, FaultConfig::none());
        let mut handle = io.clone();
        handle.put_side(b"good").unwrap();
        io.set_config(FaultConfig {
            fsync_fail_in: 1,
            ..FaultConfig::none()
        });
        assert!(handle.put_side(b"never-lands").is_err());
        // The failed write left the previous image fully intact.
        assert_eq!(io.side_bytes().unwrap(), b"good");
        io.set_config(FaultConfig::none());
        handle.rotate().unwrap();
        assert_eq!(handle.read_all().unwrap(), b"");
        // The side store survives rotation and crashes.
        io.crash();
        assert_eq!(io.side_bytes().unwrap(), b"good");
    }

    #[test]
    fn slow_io_delegates_everything() {
        let faulty = FaultyIo::new(5, FaultConfig::none());
        let mut io = SlowIo::new(
            Box::new(faulty.clone()),
            std::time::Duration::from_millis(1),
        );
        io.append(b"abc").unwrap();
        io.fsync().unwrap();
        assert_eq!(io.read_all().unwrap(), b"abc");
        io.put_side(b"side").unwrap();
        assert_eq!(io.get_side().unwrap().unwrap(), b"side");
        io.rotate().unwrap();
        assert_eq!(io.read_all().unwrap(), b"");
        assert_eq!(faulty.rotated_bytes().unwrap(), b"abc");
    }

    #[test]
    fn unicode_and_empty_strings_survive() {
        let record = WalRecord::Insert {
            tx: 0,
            table: "enzymes".into(),
            row_id: RowId(3),
            row: vec![Value::Text("αβγ – café".into()), Value::Text(String::new())],
        };
        assert_eq!(WalRecord::decode(record.encode()).unwrap(), record);
    }
}
