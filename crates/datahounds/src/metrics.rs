//! Cached ingestion-metric handles (`datahounds.ingest.*`).
//!
//! Ingestion is entry-granular, not row-granular, so looking the handles
//! up once and ticking them per entry is far below the observability
//! overhead budget (see DESIGN.md "Observability").

use std::sync::OnceLock;
use std::time::Instant;

use xomatiq_obs::{Counter, Histogram};

/// Ingestion metric handles, resolved once.
pub(crate) struct IngestMetrics {
    /// `datahounds.ingest.entries` — entries shredded into the warehouse
    /// (initial loads plus added/modified entries of updates).
    pub entries: Counter,
    /// `datahounds.ingest.quarantined` — dead-letter records written by
    /// the most recent harvests (parse, transform and DTD failures).
    pub quarantined: Counter,
    /// `datahounds.ingest.retries` — harvest fetch attempts beyond the
    /// first (i.e. retried transient failures).
    pub retries: Counter,
    /// `datahounds.ingest.wal_txn` — wall-time of each per-entry atomic
    /// WAL transaction (the `execute_batch` that adds, replaces or
    /// removes one entry).
    pub wal_txn_ns: Histogram,
}

/// The cached handles.
pub(crate) fn ingest() -> &'static IngestMetrics {
    static CELL: OnceLock<IngestMetrics> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = xomatiq_obs::global();
        IngestMetrics {
            entries: reg.counter("datahounds.ingest.entries"),
            quarantined: reg.counter("datahounds.ingest.quarantined"),
            retries: reg.counter("datahounds.ingest.retries"),
            wal_txn_ns: reg.histogram("datahounds.ingest.wal_txn"),
        }
    })
}

/// Nanoseconds since `start`, saturating.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
