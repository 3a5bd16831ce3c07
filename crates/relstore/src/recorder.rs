//! The slow-query flight recorder: a fixed-capacity, lock-striped ring
//! buffer of recent query records.
//!
//! Every statement the [`crate::Database`] completes deposits one
//! [`QueryRecord`] here — normalized SQL, trace id, row count, latency,
//! plan-cache outcome, segments pruned. Records land in one
//! of eight stripes keyed by query id, so concurrent sessions contend on
//! an eighth of a mutex each and the hot path holds a lock only long
//! enough to push one record and maybe pop one. Retention is by count,
//! not time: each stripe keeps the newest `capacity / 8` records and the
//! oldest fall off silently.
//!
//! Queries slower than [`crate::DatabaseOptions::slow_query_ns`]
//! additionally carry their `EXPLAIN ANALYZE` profile tree, which the
//! `sys_queries` / `sys_profiles` virtual tables expose to SQL.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::exec::OpProfile;

/// Number of independently locked ring stripes.
const STRIPES: usize = 8;

/// One completed statement, as remembered by the recorder.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Monotonically increasing completion id (process-local).
    pub query_id: u64,
    /// The trace this statement ran under.
    pub trace_id: u64,
    /// Normalized SQL text (literals preserved, case/whitespace folded).
    pub sql: String,
    /// Rows returned (`SELECT`) or affected (DML).
    pub rows: u64,
    /// End-to-end statement latency in nanoseconds.
    pub latency_ns: u64,
    /// Whether the plan came out of the plan cache.
    pub cache_hit: bool,
    /// Segments skipped by zone-map pruning (0 for DML).
    pub segments_pruned: u64,
    /// Whether the statement crossed the slow-query threshold.
    pub slow: bool,
    /// Per-operator profile, captured for slow `SELECT`s only.
    pub profile: Option<OpProfile>,
}

/// The ring buffer itself. See the module docs for the retention model.
pub struct FlightRecorder {
    stripes: Vec<Mutex<VecDeque<QueryRecord>>>,
    /// Newest records kept per stripe.
    per_stripe: usize,
    /// Total capacity as configured (`0` disables recording).
    capacity: usize,
    slow_ns: u64,
    next_id: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (rounded up to a
    /// multiple of the stripe count; `0` disables recording), flagging
    /// queries at or above `slow_ns` as slow.
    pub fn new(capacity: usize, slow_ns: u64) -> FlightRecorder {
        let per_stripe = capacity.div_ceil(STRIPES).max(1);
        FlightRecorder {
            stripes: (0..STRIPES).map(|_| Mutex::new(VecDeque::new())).collect(),
            per_stripe,
            capacity,
            slow_ns,
            next_id: AtomicU64::new(0),
        }
    }

    /// Whether the recorder keeps anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The slow-query threshold in nanoseconds.
    pub fn slow_ns(&self) -> u64 {
        self.slow_ns
    }

    /// Hands out the next completion id.
    pub fn next_query_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Deposits one record (dropping the stripe's oldest if full).
    pub fn record(&self, rec: QueryRecord) {
        if !self.enabled() {
            return;
        }
        let stripe = (rec.query_id as usize) % STRIPES;
        let mut ring = self.stripes[stripe]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if ring.len() >= self.per_stripe {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Every retained record, oldest first (by completion id).
    pub fn snapshot(&self) -> Vec<QueryRecord> {
        let mut all: Vec<QueryRecord> = Vec::new();
        for stripe in &self.stripes {
            let ring = stripe.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(ring.iter().cloned());
        }
        all.sort_by_key(|r| r.query_id);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> QueryRecord {
        QueryRecord {
            query_id: id,
            trace_id: id * 31,
            sql: format!("select {id}"),
            rows: 1,
            latency_ns: 100,
            cache_hit: false,
            segments_pruned: 0,
            slow: false,
            profile: None,
        }
    }

    #[test]
    fn retains_newest_per_stripe_and_sorts_by_id() {
        let r = FlightRecorder::new(16, u64::MAX); // 2 per stripe
        for id in 1..=40 {
            r.record(rec(id));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 16);
        // Oldest-first and strictly increasing.
        assert!(snap.windows(2).all(|w| w[0].query_id < w[1].query_id));
        // The newest full stripe round (33..=40) is fully present.
        assert!(snap.iter().any(|r| r.query_id == 40));
        assert!(!snap.iter().any(|r| r.query_id <= 24));
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let r = FlightRecorder::new(0, 0);
        assert!(!r.enabled());
        r.record(rec(1));
        assert!(r.snapshot().is_empty());
    }
}
