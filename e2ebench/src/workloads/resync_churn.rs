//! `resync_churn`: re-syncing a durable warehouse with a changed source.
//!
//! The ENZYME collection lives in a warehouse opened on a WAL file, with
//! the engine's default durability (group commit, one fsync per commit
//! batch). One op hands `update_source` the next flat snapshot of a seeded
//! cycle, in which 5 % of the entries changed, 1 % left and 1 % came back.
//! The cost should follow the changes, not the warehouse, and it has the
//! log and the fsync in it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use xomatiq_bioflat::{Corpus, CorpusSpec};
use xomatiq_core::{SourceKind, Xomatiq};
use xomatiq_datahounds::transform::enzyme_to_xml;
use xomatiq_datahounds::update::diff_snapshots;
use xomatiq_xml::Document;

use super::text_err;
use crate::harness::{Mode, ObsReading, OpResult, Probe, Scale, Tally, Worker, Workload, ENZYME};
use crate::inputs::{churn_cycle, ChurnCycle, CHURN_CYCLE};
use crate::trace::OpBreakdown;

pub struct ResyncChurn {
    xq: Xomatiq,
    dir: PathBuf,
    cycle: ChurnCycle,
    /// Per snapshot, entry key → flat entry: what `update_source` diffs.
    keyed: Vec<BTreeMap<String, String>>,
    /// Per snapshot, the XML one changed entry must reconstruct to.
    witness_xml: Vec<Document>,
    /// Changes one step of the cycle makes.
    changes: usize,
}

impl ResyncChurn {
    pub fn build(seed: u64, scale: Scale, tmp: &Path) -> Result<ResyncChurn, String> {
        let corpus = Corpus::generate(&CorpusSpec {
            enzymes: scale.resync_entries(),
            embl: 0,
            swissprot: 0,
            seed,
            keyword_rate: 0.0,
            link_rate: 0.0,
            ketone_rate: 0.0,
        });
        let cycle = churn_cycle(seed, &corpus.enzymes);
        let keyed: Vec<BTreeMap<String, String>> = cycle
            .entries
            .iter()
            .map(|snapshot| {
                snapshot
                    .iter()
                    .map(|e| (e.id.clone(), e.to_flat()))
                    .collect()
            })
            .collect();
        let witness_xml = cycle
            .witness
            .iter()
            .map(|entry| enzyme_to_xml(entry).map_err(text_err))
            .collect::<Result<_, _>>()?;
        let changes = diff_snapshots(&keyed[0], &keyed[1]).len();

        let dir = tmp.join("resync_churn");
        // A run that was killed may have left a log behind.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(text_err)?;
        let xq = Xomatiq::open(&dir.join("w.wal")).map_err(text_err)?;
        xq.load_source(ENZYME, SourceKind::Enzyme, &cycle.flats[0])
            .map_err(text_err)?;
        Ok(ResyncChurn {
            xq,
            dir,
            cycle,
            keyed,
            witness_xml,
            changes,
        })
    }
}

impl Drop for ResyncChurn {
    fn drop(&mut self) {
        // The log file is still open here; Linux lets it be unlinked.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Workload for ResyncChurn {
    fn workers(&self) -> Vec<Box<dyn Worker + '_>> {
        // The warehouse was loaded with snapshot 0.
        vec![Box::new(Resync { wl: self, at: 0 })]
    }

    /// `update_source` is one call, so its inside is seen only through the
    /// registry, as means per op: fsync time from the WAL's flush histogram,
    /// commit time as the per-entry transaction time less those flushes.
    /// What is left of the op is `datahounds.resync_other`.
    fn adjust_layers(
        &self,
        layers: &mut BTreeMap<&'static str, f64>,
        ops: &[OpBreakdown],
        obs: &ObsReading,
        tally: &Tally,
    ) {
        let ops = ops.len().max(1) as f64;
        let whole = layers.remove("harness.glue").unwrap_or(0.0);
        let fsync = obs.wal_commit_sum_ns as f64 / ops / 1e3;
        let commit = obs.ingest_txn_sum_ns.saturating_sub(obs.wal_commit_sum_ns) as f64 / ops / 1e3;
        let diff = tally
            .parts_ms
            .get("diff_ms")
            .map_or(0.0, |ms| crate::stats::median(ms) * 1e3);
        layers.insert("datahounds.diff", diff);
        layers.insert("relstore.fsync", fsync);
        layers.insert("relstore.commit", commit);
        layers.insert(
            "datahounds.resync_other",
            (whole - fsync - commit - diff).max(0.0),
        );
        layers.insert("harness.glue", 0.0);
    }
}

struct Resync<'a> {
    wl: &'a ResyncChurn,
    /// The snapshot the warehouse holds now.
    at: usize,
}

impl Worker for Resync<'_> {
    fn op(&mut self, _mode: Mode, probe: &mut Probe) -> OpResult {
        let wl = self.wl;
        let next = (self.at + 1) % CHURN_CYCLE;
        let flat = &wl.cycle.flats[next];

        let t = Instant::now();
        let root = probe.tracer.enter("harness.glue");
        let events = wl.xq.update_source(ENZYME, flat);
        probe.tracer.exit(root);
        let latency = t.elapsed();
        let events = events.map_err(text_err)?;
        let previous = std::mem::replace(&mut self.at, next);

        if probe.tracer.enabled() {
            // The same diff `update_source` just made, timed on its own and
            // outside the op.
            let t = Instant::now();
            std::hint::black_box(diff_snapshots(&wl.keyed[previous], &wl.keyed[next]));
            probe.tally.part("diff_ms", t.elapsed());
        }
        probe.tally.flat_bytes += flat.len() as u64;

        let witness = &wl.cycle.witness[next];
        let correct = events.len() == wl.changes
            && wl.xq.doc_count(ENZYME).map_err(text_err)? == wl.cycle.entries[next].len()
            && wl
                .xq
                .reconstruct(ENZYME, &witness.id)
                .map_err(text_err)?
                .structurally_equal(&wl.witness_xml[next]);
        Ok((latency, correct))
    }
}
