//! Cached handles into the global observability registry.
//!
//! Per-row accounting stays in the executor's non-atomic [`Cell`]-based
//! `StatsCell`; this module only flushes the per-query aggregates into the
//! process-wide registry, once per statement. Caching the handles in a
//! `OnceLock` keeps the metrics-on cost of a query to a handful of relaxed
//! atomic adds — the overhead budget (see DESIGN.md "Observability") is
//! enforced by the exec bench.
//!
//! [`Cell`]: std::cell::Cell

use std::sync::OnceLock;
use std::time::Instant;

use xomatiq_obs::{Counter, Gauge, Histogram};

use crate::exec::ExecStats;
use crate::wal::RecoveryReport;

/// Engine-wide metric handles, resolved once.
pub(crate) struct EngineMetrics {
    /// `relstore.exec.queries` — SELECTs executed (any executor).
    pub queries: Counter,
    /// `relstore.exec.errors` — SELECTs that failed to plan or execute.
    pub errors: Counter,
    /// `relstore.exec.rows_scanned` — aggregate of [`ExecStats::rows_scanned`].
    pub rows_scanned: Counter,
    /// `relstore.exec.rows_emitted` — aggregate of [`ExecStats::rows_emitted`].
    pub rows_emitted: Counter,
    /// `relstore.exec.index_probes` — aggregate of [`ExecStats::index_probes`].
    pub index_probes: Counter,
    /// `relstore.exec.keyword_postings_read` — aggregate of
    /// [`ExecStats::keyword_postings_read`].
    pub keyword_postings: Counter,
    /// `relstore.exec.segments_pruned` — aggregate of
    /// [`ExecStats::segments_pruned`]: column-store segments skipped via
    /// zone maps.
    pub segments_pruned: Counter,
    /// `relstore.plan.cache_hit` — prepared/plan-cache lookups that
    /// skipped parse+plan entirely.
    pub cache_hit: Counter,
    /// `relstore.plan.cache_miss` — cacheable SELECTs that had to be
    /// parsed and planned.
    pub cache_miss: Counter,
    /// `relstore.plan.cache_evict` — plans dropped by the LRU bound.
    pub cache_evict: Counter,
    /// `relstore.plan.latency` — planning wall-time per SELECT.
    pub plan_ns: Histogram,
    /// `relstore.exec.latency` — execution wall-time per SELECT.
    pub exec_ns: Histogram,
    /// `relstore.wal.commit_latency` — append+fsync wall-time per group
    /// commit flush (one flush may cover many transactions).
    pub wal_commit_ns: Histogram,
    /// `relstore.wal.fsync_failures` — group-commit flushes that failed
    /// to reach the disk (each one poisons the database until reopen).
    pub wal_fsync_failures: Counter,
    /// `relstore.wal.bytes` — current size of the active log.
    pub wal_bytes: Gauge,
    /// `relstore.wal.checkpoint_csn` — CSN of the latest checkpoint
    /// (written at checkpoint time and restored at recovery).
    pub checkpoint_csn: Gauge,
}

impl EngineMetrics {
    /// Flushes one finished query's counters into the registry.
    pub fn observe_query(&self, stats: &ExecStats) {
        self.queries.inc();
        self.rows_scanned.add(stats.rows_scanned);
        self.rows_emitted.add(stats.rows_emitted);
        self.index_probes.add(stats.index_probes);
        self.keyword_postings.add(stats.keyword_postings_read);
        self.segments_pruned.add(stats.segments_pruned);
    }
}

/// The cached engine handles.
pub(crate) fn engine() -> &'static EngineMetrics {
    static CELL: OnceLock<EngineMetrics> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = xomatiq_obs::global();
        EngineMetrics {
            queries: reg.counter("relstore.exec.queries"),
            errors: reg.counter("relstore.exec.errors"),
            rows_scanned: reg.counter("relstore.exec.rows_scanned"),
            rows_emitted: reg.counter("relstore.exec.rows_emitted"),
            index_probes: reg.counter("relstore.exec.index_probes"),
            keyword_postings: reg.counter("relstore.exec.keyword_postings_read"),
            segments_pruned: reg.counter("relstore.exec.segments_pruned"),
            cache_hit: reg.counter("relstore.plan.cache_hit"),
            cache_miss: reg.counter("relstore.plan.cache_miss"),
            cache_evict: reg.counter("relstore.plan.cache_evict"),
            plan_ns: reg.histogram("relstore.plan.latency"),
            exec_ns: reg.histogram("relstore.exec.latency"),
            wal_commit_ns: reg.histogram("relstore.wal.commit_latency"),
            wal_fsync_failures: reg.counter("relstore.wal.fsync_failures"),
            wal_bytes: reg.gauge("relstore.wal.bytes"),
            checkpoint_csn: reg.gauge("relstore.wal.checkpoint_csn"),
        }
    })
}

/// Publishes a WAL recovery's outcome as gauges (last recovery wins) and
/// bumps `relstore.wal.recoveries`.
pub(crate) fn observe_recovery(report: &RecoveryReport) {
    struct RecoveryMetrics {
        recoveries: Counter,
        scanned: Gauge,
        applied: Gauge,
        dropped: Gauge,
        errors: Gauge,
        truncated: Gauge,
        /// `relstore.wal.recovery.replay_tail` — transactions replayed
        /// from the log tail past the checkpoint. With checkpointing
        /// working, this stays bounded no matter how much history the
        /// database has accumulated.
        replay_tail: Gauge,
        skipped: Gauge,
        checkpoint_csn: Gauge,
    }
    static RECOVERY: OnceLock<RecoveryMetrics> = OnceLock::new();
    let m = RECOVERY.get_or_init(|| {
        let reg = xomatiq_obs::global();
        RecoveryMetrics {
            recoveries: reg.counter("relstore.wal.recoveries"),
            scanned: reg.gauge("relstore.wal.recovery.records_scanned"),
            applied: reg.gauge("relstore.wal.recovery.transactions_applied"),
            dropped: reg.gauge("relstore.wal.recovery.transactions_dropped"),
            errors: reg.gauge("relstore.wal.recovery.replay_errors"),
            truncated: reg.gauge("relstore.wal.recovery.truncated_bytes"),
            replay_tail: reg.gauge("relstore.wal.recovery.replay_tail"),
            skipped: reg.gauge("relstore.wal.recovery.transactions_skipped"),
            checkpoint_csn: reg.gauge("relstore.wal.checkpoint_csn"),
        }
    });
    m.recoveries.inc();
    m.scanned.set(report.records_scanned as i64);
    m.applied.set(report.transactions_applied as i64);
    m.dropped.set(report.transactions_dropped.len() as i64);
    m.errors.set(report.replay_errors.len() as i64);
    m.truncated.set(report.truncated_bytes as i64);
    m.replay_tail.set(report.transactions_applied as i64);
    m.skipped.set(report.transactions_skipped as i64);
    m.checkpoint_csn.set(report.checkpoint_csn as i64);
}

/// Nanoseconds since `start`, saturating.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
