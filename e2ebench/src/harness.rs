//! What the four workloads share: the op contract, the closed-loop phase
//! runner, and the readings taken from the product's metrics registry.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use xomatiq_core::Xomatiq;
use xomatiq_xquery::{CatalogProvider, CollectionCatalog, QueryError};

use crate::trace::{OpBreakdown, Tracer};

/// Input sizes. `Full` is what `BENCHMARK.json` measures; `Smoke` exists so
/// the self-tests can run every workload end to end in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// Entries per database in the read and re-sync workloads.
    pub fn per_db(self) -> usize {
        match self {
            Scale::Full => 2000,
            Scale::Smoke => 200,
        }
    }

    /// ENZYME entries in the re-synced warehouse. A quarter of the read
    /// workloads' size: a commit costs time in proportion to the warehouse
    /// today, and at 2000 entries one op takes a second, which leaves a run
    /// too few samples for a tail percentile.
    pub fn resync_entries(self) -> usize {
        match self {
            Scale::Full => 500,
            Scale::Smoke => 200,
        }
    }

    /// Entries per database harvested by one `bulk_harvest` op.
    pub fn bulk_per_db(self) -> usize {
        match self {
            Scale::Full => 250,
            Scale::Smoke => 50,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// How an op reaches the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Through the façade call a user makes. The timed phase uses only this.
    Facade,
    /// Through the staged public calls the façade is made of, one span each.
    Staged,
}

/// Counts an op adds up outside its timed span.
#[derive(Debug, Default)]
pub struct Tally {
    pub catalog_lookups: u64,
    /// Plan-cache hits and executor time of XQ2SQL's catalog lookups, which
    /// the registry cannot tell from those of the op's own SQL.
    pub catalog_hits: u64,
    pub catalog_exec_ns: u64,
    /// `run()` calls that follow a `planned()` of the same SQL: each is one
    /// plan-cache hit the façade would not have made.
    pub staged_reruns: u64,
    pub statements: u64,
    pub entries: u64,
    pub flat_bytes: u64,
    /// Named sub-timings of an op in ms (diagnostics, not gated).
    pub parts_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    pub fn part(&mut self, name: &'static str, elapsed: Duration) {
        self.parts_ms
            .entry(name)
            .or_default()
            .push(elapsed.as_secs_f64() * 1e3);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.catalog_lookups += other.catalog_lookups;
        self.catalog_hits += other.catalog_hits;
        self.catalog_exec_ns += other.catalog_exec_ns;
        self.staged_reruns += other.staged_reruns;
        self.statements += other.statements;
        self.entries += other.entries;
        self.flat_bytes += other.flat_bytes;
        for (name, mut values) in other.parts_ms {
            self.parts_ms.entry(name).or_default().append(&mut values);
        }
    }
}

/// What an op may write to while it runs.
pub struct Probe {
    pub tracer: Tracer,
    pub tally: Tally,
}

/// One op's outcome: the time spent in the product (validation excluded)
/// and whether the product's answer matched the planted ground truth. An
/// `Err` is a product error; it counts as a failed op.
pub type OpResult = Result<(Duration, bool), String>;

/// One closed-loop client. Each worker runs on its own thread.
pub trait Worker: Send {
    fn op(&mut self, mode: Mode, probe: &mut Probe) -> OpResult;
}

/// A built workload: its inputs are generated and its warehouse is loaded.
pub trait Workload {
    /// The clients, made once and reused by every phase of a run.
    fn workers(&self) -> Vec<Box<dyn Worker + '_>>;

    /// Replaces layer values the spans cannot give with ones derived from
    /// the registry's deltas over the traced phase, whose ops are `ops`.
    fn adjust_layers(
        &self,
        _layers: &mut BTreeMap<&'static str, f64>,
        _ops: &[OpBreakdown],
        _obs: &ObsReading,
        _tally: &Tally,
    ) {
    }
}

/// One phase's measurements, all workers merged.
pub struct Phase {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
    pub first_error: Option<String>,
    pub probes: Vec<Probe>,
}

impl Phase {
    pub fn p50_ms(&self) -> f64 {
        crate::stats::median(&self.latencies_ms)
    }
}

/// Runs every worker in a closed loop for `seconds`: a worker issues its
/// next op when the previous one has returned.
pub fn run_phase(
    workers: &mut [Box<dyn Worker + '_>],
    seconds: f64,
    mode: Mode,
    traced: bool,
) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|worker| {
                scope.spawn(move || {
                    let mut probe = Probe {
                        tracer: Tracer::new(traced),
                        tally: Tally::default(),
                    };
                    let mut latencies = Vec::new();
                    let (mut attempted, mut failed, mut first_error) = (0u64, 0u64, None);
                    // At least one op, so a phase shorter than an op still
                    // yields a sample.
                    loop {
                        attempted += 1;
                        match worker.op(mode, &mut probe) {
                            Ok((latency, correct)) => {
                                latencies.push(latency.as_secs_f64() * 1e3);
                                if !correct {
                                    failed += 1;
                                    first_error.get_or_insert("wrong result".to_string());
                                }
                            }
                            Err(e) => {
                                failed += 1;
                                first_error.get_or_insert(e);
                            }
                        }
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    (latencies, attempted, failed, first_error, probe)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        latencies_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        wall: start.elapsed(),
        first_error: None,
        probes: Vec::new(),
    };
    for (mut latencies, attempted, failed, first_error, probe) in results {
        phase.latencies_ms.append(&mut latencies);
        phase.attempted += attempted;
        phase.failed += failed;
        phase.first_error = phase.first_error.or(first_error);
        phase.probes.push(probe);
    }
    phase
}

/// The product's XQ2SQL catalog, counting the lookups `translate` makes.
/// Each worker owns one, so plain cells do.
pub struct CountingCatalog<'a> {
    inner: &'a Xomatiq,
    lookups: Cell<u64>,
    hits: Cell<u64>,
    exec_ns: Cell<u64>,
}

impl<'a> CountingCatalog<'a> {
    pub fn new(inner: &'a Xomatiq) -> Self {
        CountingCatalog {
            inner,
            lookups: Cell::new(0),
            hits: Cell::new(0),
            exec_ns: Cell::new(0),
        }
    }

    /// Moves the counts made since the last call into `tally`.
    pub fn drain_into(&self, tally: &mut Tally) {
        tally.catalog_lookups += self.lookups.take();
        tally.catalog_hits += self.hits.take();
        tally.catalog_exec_ns += self.exec_ns.take();
    }
}

impl CatalogProvider for CountingCatalog<'_> {
    fn collection(&self, name: &str) -> Result<CollectionCatalog, QueryError> {
        let reg = xomatiq_obs::global();
        let (exec, hit) = (reg.histogram(EXEC_LATENCY), reg.counter(CACHE_HIT));
        let (exec_before, hit_before) = (exec.sum(), hit.value());
        let found = self.inner.collection(name);
        self.lookups.set(self.lookups.get() + 1);
        // One lookup is one statement; a larger step is another thread's.
        self.hits
            .set(self.hits.get() + (hit.value() - hit_before).min(1));
        self.exec_ns
            .set(self.exec_ns.get() + exec.sum().saturating_sub(exec_before));
        found
    }
}

const EXEC_LATENCY: &str = "relstore.exec.latency";
const CACHE_HIT: &str = "relstore.plan.cache_hit";

/// Readings of the product's own metrics registry, or the difference of two
/// readings. Taken before and after the traced phase only; the timed phase
/// never touches the registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsReading {
    pub cache_hit: u64,
    pub cache_miss: u64,
    pub plan_sum_ns: u64,
    pub exec_sum_ns: u64,
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    pub index_probes: u64,
    pub keyword_postings_read: u64,
    pub segments_pruned: u64,
    pub wal_commits: u64,
    pub wal_commit_sum_ns: u64,
    pub wal_bytes: u64,
    pub ingest_txn_sum_ns: u64,
    pub server_sum_ns: u64,
}

impl ObsReading {
    pub fn take() -> ObsReading {
        let reg = xomatiq_obs::global();
        let wal = reg.histogram("relstore.wal.commit_latency");
        ObsReading {
            cache_hit: reg.counter(CACHE_HIT).value(),
            cache_miss: reg.counter("relstore.plan.cache_miss").value(),
            plan_sum_ns: reg.histogram("relstore.plan.latency").sum(),
            exec_sum_ns: reg.histogram(EXEC_LATENCY).sum(),
            rows_scanned: reg.counter("relstore.exec.rows_scanned").value(),
            rows_emitted: reg.counter("relstore.exec.rows_emitted").value(),
            index_probes: reg.counter("relstore.exec.index_probes").value(),
            keyword_postings_read: reg.counter("relstore.exec.keyword_postings_read").value(),
            segments_pruned: reg.counter("relstore.exec.segments_pruned").value(),
            wal_commits: wal.count(),
            wal_commit_sum_ns: wal.sum(),
            wal_bytes: u64::try_from(reg.gauge("relstore.wal.bytes").value()).unwrap_or(0),
            ingest_txn_sum_ns: reg.histogram("datahounds.ingest.wal_txn").sum(),
            server_sum_ns: reg.histogram("server.request.latency_ns").sum(),
        }
    }

    /// What the registry recorded between `before` and this reading. The
    /// counters only grow; the log-size gauge shrinks at a checkpoint, which
    /// no workload takes.
    pub fn since(&self, before: &ObsReading) -> ObsReading {
        ObsReading {
            cache_hit: self.cache_hit - before.cache_hit,
            cache_miss: self.cache_miss - before.cache_miss,
            plan_sum_ns: self.plan_sum_ns - before.plan_sum_ns,
            exec_sum_ns: self.exec_sum_ns - before.exec_sum_ns,
            rows_scanned: self.rows_scanned - before.rows_scanned,
            rows_emitted: self.rows_emitted - before.rows_emitted,
            index_probes: self.index_probes - before.index_probes,
            keyword_postings_read: self.keyword_postings_read - before.keyword_postings_read,
            segments_pruned: self.segments_pruned - before.segments_pruned,
            wal_commits: self.wal_commits - before.wal_commits,
            wal_commit_sum_ns: self.wal_commit_sum_ns - before.wal_commit_sum_ns,
            wal_bytes: self.wal_bytes.saturating_sub(before.wal_bytes),
            ingest_txn_sum_ns: self.ingest_txn_sum_ns - before.ingest_txn_sum_ns,
            server_sum_ns: self.server_sum_ns - before.server_sum_ns,
        }
    }
}

/// The three paper queries, verbatim (Figures 8, 9 and 11).
pub const FIGURE8: &str = r#"
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_p_sequence
WHERE contains($a, "cdc6", any)
  AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number
"#;

pub const FIGURE9: &str = r#"
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description
"#;

pub const FIGURE11: &str = r#"
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description
"#;

pub const ENZYME: &str = "hlx_enzyme.DEFAULT";
pub const EMBL: &str = "hlx_embl.inv";
pub const SPROT: &str = "hlx_sprot.all";
