//! Crash recovery: restore the checkpoint image, replay the log tail
//! past it, rebuild derived state (views, row counts), repair the log.

use std::collections::BTreeMap;

use crate::commit::Durability;
use crate::db::{Database, DatabaseOptions};
use crate::error::RelResult;
use crate::metrics;
use crate::storage::Storage;
use crate::wal::{RecoveryReport, Wal, WalRecord};

impl Database {
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
