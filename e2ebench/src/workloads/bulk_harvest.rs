//! `bulk_harvest`: loading three sources into a fresh in-memory warehouse.
//!
//! One op harvests ENZYME, EMBL and Swiss-Prot flat files with Edge
//! shredding, DTD validation and the index set, and drops the warehouse.
//! No fsync is in the way: flat-file parsing, the XML transform, shredding
//! to SQL text and the engine's statement parsing and batch commits do all
//! the work, and the query layers do none.

use std::sync::Arc;
use std::time::Instant;

use xomatiq_bioflat::embl::parse_embl_file;
use xomatiq_bioflat::enzyme::parse_enzyme_file;
use xomatiq_bioflat::swissprot::parse_swissprot_file;
use xomatiq_bioflat::{EmblEntry, EnzymeEntry, FlatResult, SwissProtEntry};
use xomatiq_core::{ShreddingStrategy, SourceKind, Xomatiq};
use xomatiq_datahounds::shred::{
    collection_prefix, create_collection_indexes, create_collection_tables, shred_statements,
    sql_quote,
};
use xomatiq_datahounds::source::LoadOptions;
use xomatiq_datahounds::transform::embl::EMBL_DTD_TEXT;
use xomatiq_datahounds::transform::enzyme::ENZYME_DTD_TEXT;
use xomatiq_datahounds::transform::swissprot::SWISSPROT_DTD_TEXT;
use xomatiq_datahounds::transform::{embl_to_xml, enzyme_to_xml, swissprot_to_xml};
use xomatiq_datahounds::{DataHounds, HoundResult};
use xomatiq_relstore::Database;
use xomatiq_xml::dtd::validate;
use xomatiq_xml::Document;

use super::{sources, text_err};
use crate::harness::{Mode, OpResult, Probe, Scale, Worker, Workload};
use crate::inputs::planted_corpus;

const OPTIONS: LoadOptions = LoadOptions {
    strategy: ShreddingStrategy::Edge,
    with_indexes: true,
    validate: true,
};

pub struct BulkHarvest {
    sources: [(&'static str, SourceKind, String); 3],
    per_db: usize,
}

impl BulkHarvest {
    /// Generates the flat files and harvests them once, so that set-up has
    /// the same meaning as on the other workloads (inputs plus one warehouse
    /// build) and a corpus that does not load is caught before measuring.
    pub fn build(seed: u64, scale: Scale) -> Result<BulkHarvest, String> {
        let per_db = scale.bulk_per_db();
        let workload = BulkHarvest {
            sources: sources(&planted_corpus(seed, per_db)),
            per_db,
        };
        match (Harvest { wl: &workload }).facade()? {
            (_, true) => Ok(workload),
            (_, false) => Err("the generated corpus did not load completely".into()),
        }
    }
}

impl Workload for BulkHarvest {
    fn workers(&self) -> Vec<Box<dyn Worker + '_>> {
        vec![Box::new(Harvest { wl: self })]
    }
}

struct Harvest<'a> {
    wl: &'a BulkHarvest,
}

impl Worker for Harvest<'_> {
    fn op(&mut self, mode: Mode, probe: &mut Probe) -> OpResult {
        match mode {
            Mode::Facade => self.facade(),
            Mode::Staged => self.staged(probe),
        }
    }
}

impl Harvest<'_> {
    /// The docs of every collection are there and nothing was quarantined.
    /// A few row counts, so cheap that it stays inside the timed op, before
    /// the warehouse is dropped.
    fn loaded(&self, db: &Database) -> Result<bool, String> {
        let mut correct = db.row_count("hlx_quarantine").map_err(text_err)? == 0;
        for (collection, ..) in &self.wl.sources {
            let prefix = collection_prefix(collection);
            let docs = db.row_count(&format!("{prefix}_docs")).map_err(text_err)?;
            let nodes = db.row_count(&format!("{prefix}_nodes")).map_err(text_err)?;
            correct &= docs == self.wl.per_db && nodes > docs;
        }
        Ok(correct)
    }

    fn facade(&self) -> OpResult {
        let t = Instant::now();
        let xq = Xomatiq::in_memory();
        for (collection, kind, flat) in &self.wl.sources {
            xq.load_source_with(collection, *kind, flat, OPTIONS)
                .map_err(text_err)?;
        }
        let correct = self.loaded(xq.db())? && xq.collections().len() == 3;
        drop(xq);
        Ok((t.elapsed(), correct))
    }

    /// The same harvest through the public calls `load_source` is made of.
    fn staged(&self, probe: &mut Probe) -> OpResult {
        let t = Instant::now();
        let root = probe.tracer.enter("harness.glue");
        let db = Arc::new(Database::in_memory());
        let loaded = DataHounds::new(Arc::clone(&db))
            .map_err(text_err)
            .and_then(|_hounds| {
                for (collection, kind, flat) in &self.wl.sources {
                    match kind {
                        SourceKind::Enzyme => ENZYME_STAGES.load(&db, collection, flat, probe),
                        SourceKind::Embl => EMBL_STAGES.load(&db, collection, flat, probe),
                        _ => SPROT_STAGES.load(&db, collection, flat, probe),
                    }?;
                }
                self.loaded(&db)
            });
        drop(db);
        probe.tracer.exit(root);
        Ok((t.elapsed(), loaded?))
    }
}

/// The bioflat and transform calls of one source kind.
struct Stages<E: 'static> {
    kind: SourceKind,
    dtd_text: &'static str,
    parse: fn(&str) -> FlatResult<Vec<E>>,
    to_flat: fn(&E) -> String,
    to_xml: fn(&E) -> HoundResult<Document>,
    key: fn(&E) -> &str,
}

const ENZYME_STAGES: Stages<EnzymeEntry> = Stages {
    kind: SourceKind::Enzyme,
    dtd_text: ENZYME_DTD_TEXT,
    parse: parse_enzyme_file,
    to_flat: EnzymeEntry::to_flat,
    to_xml: enzyme_to_xml,
    key: |e| &e.id,
};
const EMBL_STAGES: Stages<EmblEntry> = Stages {
    kind: SourceKind::Embl,
    dtd_text: EMBL_DTD_TEXT,
    parse: parse_embl_file,
    to_flat: EmblEntry::to_flat,
    to_xml: embl_to_xml,
    key: |e| &e.accession,
};
const SPROT_STAGES: Stages<SwissProtEntry> = Stages {
    kind: SourceKind::SwissProt,
    dtd_text: SWISSPROT_DTD_TEXT,
    parse: parse_swissprot_file,
    to_flat: SwissProtEntry::to_flat,
    to_xml: swissprot_to_xml,
    key: |e| &e.accession,
};

impl<E> Stages<E> {
    /// What `DataHounds::load_source` does, stage by stage instead of entry
    /// by entry: parse and re-serialize, transform, then per document
    /// validate, shred to statements and commit them as one batch, and at
    /// the end build the indexes and register the collection.
    fn load(
        &self,
        db: &Database,
        collection: &str,
        flat: &str,
        probe: &mut Probe,
    ) -> Result<(), String> {
        let Probe { tracer, tally } = probe;
        let prefix = collection_prefix(collection);
        let run = |sql: &str| db.query(sql).run().map(|_| ()).map_err(text_err);

        let s = tracer.enter("bioflat.parse");
        let entries = (self.parse)(flat).map_err(text_err)?;
        let serialized: Vec<String> = entries.iter().map(self.to_flat).collect();
        tracer.exit(s);

        let s = tracer.enter("datahounds.transform");
        let docs: Vec<Document> = entries
            .iter()
            .map(self.to_xml)
            .collect::<HoundResult<_>>()
            .map_err(text_err)?;
        tracer.exit(s);
        let dtd = self.kind.builtin_dtd().expect("flat kinds have a DTD");

        let s = tracer.enter("relstore.commit");
        create_collection_tables(db, &prefix).map_err(text_err)?;
        run(&format!(
            "CREATE TABLE {prefix}_src (doc_id INT, entry_key TEXT, flat TEXT)"
        ))?;
        tracer.exit(s);

        for (doc_id, ((entry, doc), serialized)) in
            entries.iter().zip(&docs).zip(&serialized).enumerate()
        {
            let key = (self.key)(entry);
            let s = tracer.enter("datahounds.validate");
            validate(doc, &dtd).map_err(text_err)?;
            tracer.exit(s);

            let s = tracer.enter("datahounds.shred");
            let (mut statements, _) =
                shred_statements(db, &prefix, OPTIONS.strategy, doc_id as u64, key, doc)
                    .map_err(text_err)?;
            statements.push(format!(
                "INSERT INTO {prefix}_src VALUES ({doc_id}, '{}', '{}')",
                sql_quote(key),
                sql_quote(serialized)
            ));
            tracer.exit(s);

            let s = tracer.enter("relstore.commit");
            let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
            db.execute_batch(&refs).map_err(text_err)?;
            tracer.exit(s);
            tally.statements += statements.len() as u64;
            tally.entries += 1;
        }

        let s = tracer.enter("relstore.index_build");
        create_collection_indexes(db, &prefix).map_err(text_err)?;
        run(&format!(
            "CREATE INDEX {prefix}_src_doc ON {prefix}_src (doc_id)"
        ))?;
        tracer.exit(s);

        let s = tracer.enter("relstore.commit");
        db.query("INSERT INTO hlx_collections VALUES (?, ?, ?, ?, ?)")
            .bind(collection)
            .bind(prefix.as_str())
            .bind(self.kind.name())
            .bind(OPTIONS.strategy.name())
            .bind(self.dtd_text)
            .run()
            .map_err(text_err)?;
        db.query("DELETE FROM hlx_quarantine WHERE collection = ?")
            .bind(collection)
            .run()
            .map_err(text_err)?;
        tracer.exit(s);
        Ok(())
    }
}
