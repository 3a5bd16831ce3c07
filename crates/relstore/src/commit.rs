//! The commit path: the group-commit queue, the one `commit` every
//! transaction and DDL statement goes through, the flush that makes a
//! batch durable, and checkpointing.

use std::sync::{Arc, Condvar};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard, RwLockWriteGuard};
use xomatiq_obs::trace;

use crate::db::Database;
use crate::error::{RelError, RelResult};
use crate::metrics;
use crate::storage::{Change, Storage};
use crate::wal::{frame_change, frame_into, Wal, WalRecord};

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
/// Lock order: storage write lock → `queue` → (`wal` | published
/// snapshot). [`Database::flush_queue`] drops the queue lock while it
/// holds the wal lock; [`Database::checkpoint`] nests queue → wal, which
/// is safe because nothing takes the queue lock while holding the wal
/// lock, and nothing takes the storage lock while holding either.
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

impl Database {
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
            let maintained = {
                let _s = xomatiq_obs::span!("relstore.commit.views_ns");
                storage.maintain_views(changes, csn)
            };
            if let Err(e) = maintained {
                storage.rollback(changes);
                return Err(e);
            }
        }
        storage.csn = csn;
        let snap = {
            let _s = xomatiq_obs::span!("relstore.commit.snapshot_ns");
            if let Work::Rows(changes) = &work {
                storage.reclaim_dead_slots(changes);
            }
            Arc::new(storage.clone())
        };
        let Some(d) = &self.durability else {
            let _s = xomatiq_obs::span!("relstore.commit.publish_ns");
            let _superseded = self.publish(snap);
            drop(storage); // before `_superseded` is freed, at the return
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
            // Freed at the end of the block, with no lock held.
            let _doomed = std::mem::replace(&mut *self.storage.write(), last_durable);
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
        // Published before the queue lock is retaken, so the superseded
        // snapshot is freed with no lock held. Still the only flusher
        // (`flushing` is set), so no newer snapshot can be overtaken; the
        // frames are on disk, so readers may see them before
        // `durable_csn` says so.
        if let (Ok(()), Some(s)) = (&res, snap) {
            let _s = xomatiq_obs::span!("relstore.commit.publish_ns");
            drop(self.publish(s));
        }
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
        // Past this point a failure poisons: the log's identity is in
        // doubt. The fresh log leads with the marker so replay counts
        // commits from `k` instead of zero.
        match wal.rotate().and_then(|()| wal.write_marker(k)) {
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
}
