//! The Data Hounds orchestrator.
//!
//! [`DataHounds`] drives the full §2 pipeline for a registered source:
//! flat text (the simulated FTP download) → typed entries → XML documents
//! → DTD validation → shredded tuples → indexes, and subsequently the
//! incremental update path with trigger delivery. Collection metadata
//! (strategy, entry keys, source text for diffing) lives in warehouse
//! tables so it survives a restart along with the data.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use xomatiq_bioflat::line::{split_entries, split_line};
use xomatiq_relstore::sql::ast::{BinOp, Expr, Statement};
use xomatiq_relstore::Database;
use xomatiq_xml::dtd::{validate, Dtd};
use xomatiq_xml::Document;

use crate::error::{HoundError, HoundResult};
use crate::metrics;
use crate::shred::{
    collection_prefix, create_collection_indexes, create_collection_tables, reconstruct_document,
    registered_paths, shred, ShredStats, ShreddingStrategy,
};
use crate::transform::{embl_to_xml, enzyme_to_xml, swissprot_to_xml};
use crate::update::{diff_snapshots, ChangeEvent, ChangeKind, TriggerHub};

/// Which of the supported source databases a collection holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// The ENZYME nomenclature database.
    Enzyme,
    /// The EMBL nucleotide database.
    Embl,
    /// The Swiss-Prot protein knowledge base.
    SwissProt,
    /// A pre-existing XML databank (INTERPRO-style, §2.1) or any other
    /// source already converted to XML — including wrapped relational
    /// tables (Figure 1's RDBMS input). Loaded via
    /// [`DataHounds::load_xml_source`] with a caller-supplied DTD.
    Xml,
}

impl SourceKind {
    /// Stable name used in the warehouse metadata table.
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::Enzyme => "enzyme",
            SourceKind::Embl => "embl",
            SourceKind::SwissProt => "swissprot",
            SourceKind::Xml => "xml",
        }
    }

    /// Parses a stored kind name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "enzyme" => Some(SourceKind::Enzyme),
            "embl" => Some(SourceKind::Embl),
            "swissprot" => Some(SourceKind::SwissProt),
            "xml" => Some(SourceKind::Xml),
            _ => None,
        }
    }

    /// The built-in DTD of a flat source kind; XML sources carry their own.
    pub fn builtin_dtd(self) -> Option<Dtd> {
        let text = builtin_dtd_text(self)?;
        Some(xomatiq_xml::dtd::parse_dtd(text).expect("built-in DTDs are well-formed"))
    }
}

/// The stable text of a flat source kind's DTD (for metadata storage).
fn builtin_dtd_text(kind: SourceKind) -> Option<&'static str> {
    match kind {
        SourceKind::Enzyme => Some(crate::transform::enzyme::ENZYME_DTD_TEXT),
        SourceKind::Embl => Some(crate::transform::embl::EMBL_DTD_TEXT),
        SourceKind::SwissProt => Some(crate::transform::swissprot::SWISSPROT_DTD_TEXT),
        SourceKind::Xml => None,
    }
}

/// Parses one flat entry and transforms it to XML, keeping its key and
/// its re-serialized flat form (which updates diff on).
fn prepare_entry(kind: SourceKind, lines: &[&str]) -> HoundResult<PreparedDoc> {
    use xomatiq_bioflat::{EmblEntry, EnzymeEntry, SwissProtEntry};
    let (doc, key, serialized) = match kind {
        SourceKind::Enzyme => {
            let e = EnzymeEntry::parse_lines(lines)?;
            (enzyme_to_xml(&e)?, e.id.clone(), e.to_flat())
        }
        SourceKind::Embl => {
            let e = EmblEntry::parse_lines(lines)?;
            (embl_to_xml(&e)?, e.accession.clone(), e.to_flat())
        }
        SourceKind::SwissProt => {
            let e = SwissProtEntry::parse_lines(lines)?;
            (swissprot_to_xml(&e)?, e.accession.clone(), e.to_flat())
        }
        // `load_source` and `update_source` refuse XML sources first.
        SourceKind::Xml => unreachable!("XML sources have no flat form to parse"),
    };
    Ok(PreparedDoc {
        key,
        serialized,
        doc,
    })
}

/// A source entry set aside during a harvest instead of aborting it: the
/// dead-letter record kept in the `hlx_quarantine` warehouse table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Best-effort stable key of the entry (`ID`-line token, or a
    /// positional `entry-N` placeholder when even that is unreadable).
    pub entry_key: String,
    /// Why the entry was rejected (parse, transform or validation error).
    pub reason: String,
    /// The raw source text of the entry, for post-mortem repair.
    pub raw: String,
}

/// Best-effort key extraction from a raw entry chunk: the first token of
/// its `ID` line, else a positional placeholder.
fn guess_entry_key(lines: &[&str], index: usize) -> String {
    for line in lines {
        if let Some(coded) = split_line(line) {
            if coded.code == "ID" {
                if let Some(tok) = coded.data.split_whitespace().next() {
                    return tok.to_string();
                }
            }
        }
    }
    format!("entry-{index}")
}

/// Splits `flat` into entries and parses each independently: good entries
/// become [`PreparedDoc`]s, malformed ones become [`QuarantineRecord`]s so
/// one rotten entry cannot sink a whole harvest.
fn prepare_flat(kind: SourceKind, flat: &str) -> (Vec<PreparedDoc>, Vec<QuarantineRecord>) {
    let mut prepared = Vec::new();
    let mut rejected = Vec::new();
    for (i, chunk) in split_entries(flat).iter().enumerate() {
        match prepare_entry(kind, chunk) {
            Ok(doc) => prepared.push(doc),
            Err(e) => rejected.push(QuarantineRecord {
                entry_key: guess_entry_key(chunk, i),
                reason: e.to_string(),
                raw: chunk.join("\n"),
            }),
        }
    }
    (prepared, rejected)
}

/// Pairs caller-supplied XML documents with their serialized form, which
/// updates diff on.
fn prepare_xml(docs: Vec<(String, Document)>) -> Vec<PreparedDoc> {
    docs.into_iter()
        .map(|(key, doc)| PreparedDoc {
            serialized: xomatiq_xml::to_string(&doc),
            key,
            doc,
        })
        .collect()
}

/// One document ready for loading: its stable key, its serialized source
/// form (used for update diffing), and the XML document itself.
struct PreparedDoc {
    key: String,
    serialized: String,
    doc: Document,
}

#[derive(Clone)]
struct CollectionMeta {
    prefix: String,
    kind: SourceKind,
    strategy: ShreddingStrategy,
    next_doc_id: u64,
    dtd: Dtd,
    paths: Paths,
}

/// A collection's registered paths: those in `{prefix}_paths`, of
/// committed entries only. Kept as a set, and in registration order,
/// which is the table's scan order.
#[derive(Clone, Default)]
struct Paths {
    set: HashSet<String>,
    order: Vec<String>,
}

impl Paths {
    fn register(&mut self, paths: Vec<String>) {
        for path in paths {
            if self.set.insert(path.clone()) {
                self.order.push(path);
            }
        }
    }
}

/// Options controlling a source load.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Shredding strategy for the collection.
    pub strategy: ShreddingStrategy,
    /// Whether to create the §3.2 index set (disabled by the ablation
    /// bench to measure the paper's index claim).
    pub with_indexes: bool,
    /// Whether to validate every document against the source DTD before
    /// shredding.
    pub validate: bool,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            strategy: ShreddingStrategy::Interval,
            with_indexes: true,
            validate: true,
        }
    }
}

/// The write side of one harvest into one collection: the per-entry
/// ingest step that loads and re-syncs share.
struct Ingest<'a> {
    db: &'a Database,
    /// The collection written to; `next_doc_id` advances as entries land.
    meta: CollectionMeta,
    validate: bool,
    stats: ShredStats,
    rejected: Vec<QuarantineRecord>,
}

impl Ingest<'_> {
    /// Replaces warehoused document `old` by `new`; a missing `old` is an
    /// addition, a missing `new` a removal. `new` is validated first: one
    /// that fails is quarantined and `false` returned, with `old` kept —
    /// except for XML sources, whose harvests stay all-or-nothing. The
    /// removal, the shredded tuples and the `_src` row then go through one
    /// atomic batch, so a crash never leaves an entry half-ingested or
    /// half-replaced.
    fn entry(&mut self, old: Option<u64>, new: Option<&PreparedDoc>) -> HoundResult<bool> {
        let prefix = &self.meta.prefix;
        let mut statements = Vec::new();
        if let Some(old) = old {
            let of_old = Expr::binary(BinOp::Eq, Expr::col(None, "doc_id"), Expr::lit(old as i64));
            statements.extend(
                ["nodes", "attrs", "docs", "src"].map(|table| Statement::Delete {
                    table: format!("{prefix}_{table}"),
                    filter: Some(of_old.clone()),
                }),
            );
        }
        let mut fresh = Vec::new();
        if let Some(p) = new {
            if self.validate {
                if let Err(e) = validate(&p.doc, &self.meta.dtd) {
                    if self.meta.kind == SourceKind::Xml {
                        return Err(e.into());
                    }
                    self.rejected.push(QuarantineRecord {
                        entry_key: p.key.clone(),
                        reason: format!("DTD validation failed: {e}"),
                        raw: p.serialized.clone(),
                    });
                    return Ok(false);
                }
            }
            let doc_id = self.meta.next_doc_id;
            let meta = &self.meta;
            let (shredded, paths, stats) = shred(
                prefix,
                meta.strategy,
                doc_id,
                &p.key,
                &p.doc,
                &meta.paths.set,
            )?;
            statements.extend(shredded);
            statements.push(Statement::Insert {
                table: format!("{prefix}_src"),
                rows: vec![vec![
                    Expr::lit(doc_id as i64),
                    Expr::lit(p.key.as_str()),
                    Expr::lit(p.serialized.as_str()),
                ]],
            });
            fresh = paths;
            self.stats += stats;
        }
        let txn_start = std::time::Instant::now();
        self.db.execute_statements(statements)?;
        let m = metrics::ingest();
        m.wal_txn_ns.record(metrics::elapsed_ns(txn_start));
        // Only now that the batch committed are its paths registered.
        self.meta.paths.register(fresh);
        if new.is_some() {
            m.entries.inc();
            self.meta.next_doc_id += 1;
        }
        Ok(true)
    }
}

/// The Data Hounds: warehouse loader, updater and trigger source.
pub struct DataHounds {
    db: Arc<Database>,
    triggers: TriggerHub,
    collections: Mutex<BTreeMap<String, CollectionMeta>>,
}

impl DataHounds {
    /// Creates a Data Hounds instance over `db`, recovering collection
    /// metadata from the warehouse if present.
    pub fn new(db: Arc<Database>) -> HoundResult<DataHounds> {
        if !db.table_names().iter().any(|t| t == "hlx_collections") {
            db.query(
                "CREATE TABLE hlx_collections (name TEXT, prefix TEXT, kind TEXT, \
                 strategy TEXT, dtd TEXT)",
            )
            .run()?;
        }
        if !db.table_names().iter().any(|t| t == "hlx_quarantine") {
            db.query(
                "CREATE TABLE hlx_quarantine (collection TEXT, entry_key TEXT, \
                 reason TEXT, raw TEXT)",
            )
            .run()?;
        }
        let mut collections = BTreeMap::new();
        let indexes = db.index_names();
        let rows = db
            .query("SELECT name, prefix, kind, strategy, dtd FROM hlx_collections")
            .run()?
            .rows;
        for row in rows {
            let text = |column: &str| {
                row.try_get::<String>(column)
                    .ok()
                    .flatten()
                    .unwrap_or_default()
            };
            let prefix = text("prefix");
            let kind = SourceKind::from_name(&text("kind"))
                .ok_or_else(|| HoundError::Pipeline("corrupt collection kind".into()))?;
            let strategy = ShreddingStrategy::from_name(&text("strategy"))
                .ok_or_else(|| HoundError::Pipeline("corrupt collection strategy".into()))?;
            let dtd = xomatiq_xml::dtd::parse_dtd(&text("dtd"))?;
            let next_doc_id = db
                .query(&format!("SELECT MAX(doc_id) FROM {prefix}_docs"))
                .run()?
                .rows
                .rows()
                .first()
                .and_then(|r| r[0].as_int())
                .map(|m| m as u64 + 1)
                .unwrap_or(0);
            let mut paths = Paths::default();
            paths.register(registered_paths(&db, &prefix)?);
            // The entry-key index came after the rest: build it for a
            // collection loaded with indexes before it existed.
            let index = |suffix: &str| format!("{prefix}_docs_{suffix}");
            if indexes.contains(&index("doc")) && !indexes.contains(&index("key")) {
                let create = format!("CREATE INDEX {} ON {prefix}_docs (entry_key)", index("key"));
                db.query(&create).run()?;
            }
            collections.insert(
                text("name"),
                CollectionMeta {
                    prefix,
                    kind,
                    strategy,
                    next_doc_id,
                    dtd,
                    paths,
                },
            );
        }
        Ok(DataHounds {
            db,
            triggers: TriggerHub::new(),
            collections: Mutex::new(collections),
        })
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Subscribes to warehouse change triggers.
    pub fn subscribe(&self) -> crossbeam::channel::Receiver<ChangeEvent> {
        self.triggers.subscribe()
    }

    /// Names of all loaded collections.
    pub fn collections(&self) -> Vec<String> {
        self.collections.lock().keys().cloned().collect()
    }

    /// The table prefix of a collection.
    pub fn prefix(&self, collection: &str) -> HoundResult<String> {
        self.with_meta(collection, |m| m.prefix.clone())
    }

    /// The shredding strategy of a collection.
    pub fn strategy(&self, collection: &str) -> HoundResult<ShreddingStrategy> {
        self.with_meta(collection, |m| m.strategy)
    }

    /// The paths registered for a collection, in registration order —
    /// what XQ2SQL expands `//` steps against.
    pub fn paths(&self, collection: &str) -> HoundResult<Vec<String>> {
        self.with_meta(collection, |m| m.paths.order.clone())
    }

    /// The DTD of a collection (what the XomatiQ GUI's left panel shows).
    pub fn dtd(&self, collection: &str) -> HoundResult<Dtd> {
        self.with_meta(collection, |m| m.dtd.clone())
    }

    fn with_meta<T>(
        &self,
        collection: &str,
        read: impl FnOnce(&CollectionMeta) -> T,
    ) -> HoundResult<T> {
        let map = self.collections.lock();
        let meta = map
            .get(collection)
            .ok_or_else(|| HoundError::UnknownCollection(collection.to_string()))?;
        Ok(read(meta))
    }

    /// Loads a flat-file source end-to-end into collection `name` (e.g.
    /// `hlx_enzyme.DEFAULT`) from its flat text.
    ///
    /// Malformed entries do not abort the harvest: each is recorded in the
    /// `hlx_quarantine` dead-letter table (see [`DataHounds::quarantined`])
    /// and skipped, and the remaining entries load normally.
    pub fn load_source(
        &self,
        name: &str,
        kind: SourceKind,
        flat: &str,
        options: LoadOptions,
    ) -> HoundResult<ShredStats> {
        let dtd_text = builtin_dtd_text(kind).ok_or_else(|| {
            HoundError::Pipeline("XML sources are loaded with load_xml_source".into())
        })?;
        let (prepared, rejected) = prepare_flat(kind, flat);
        self.load_prepared(name, kind, dtd_text, prepared, rejected, options)
    }

    /// Loads a pre-existing XML source — an XML databank such as INTERPRO
    /// (§2.1), or rows of a wrapped relational table (Figure 1) — into
    /// collection `name`. `dtd_text` is the source's DTD; every document
    /// is validated against it when `options.validate` is set.
    pub fn load_xml_source(
        &self,
        name: &str,
        dtd_text: &str,
        docs: Vec<(String, Document)>,
        options: LoadOptions,
    ) -> HoundResult<ShredStats> {
        let prepared = prepare_xml(docs);
        self.load_prepared(
            name,
            SourceKind::Xml,
            dtd_text,
            prepared,
            Vec::new(),
            options,
        )
    }

    /// Creates the collection's tables, feeds every prepared entry to the
    /// ingest step as an addition, builds the indexes, and registers the
    /// collection last, so a crash before that leaves only tables, which
    /// the next load onto the same prefix sweeps.
    fn load_prepared(
        &self,
        name: &str,
        kind: SourceKind,
        dtd_text: &str,
        prepared: Vec<PreparedDoc>,
        rejected: Vec<QuarantineRecord>,
        options: LoadOptions,
    ) -> HoundResult<ShredStats> {
        let prefix = collection_prefix(name);
        {
            let map = self.collections.lock();
            if map.contains_key(name) {
                return Err(HoundError::Pipeline(format!(
                    "collection {name:?} is already loaded; use update_source"
                )));
            }
            if let Some((other, _)) = map.iter().find(|(_, m)| m.prefix == prefix) {
                return Err(HoundError::Pipeline(format!(
                    "collection {name:?} would use the tables of collection {other:?} \
                     (prefix {prefix:?})"
                )));
            }
        }
        let dtd = xomatiq_xml::dtd::parse_dtd(dtd_text)?;
        // A crash between the per-entry commits and the final registration
        // commit leaves this collection's tables behind with no metadata
        // row; the leftovers would make the re-load fail on CREATE TABLE.
        self.sweep_orphan_tables(&prefix)?;
        create_collection_tables(&self.db, &prefix)?;
        self.db
            .query(&format!(
                "CREATE TABLE {prefix}_src (doc_id INT, entry_key TEXT, flat TEXT)"
            ))
            .run()?;

        let mut ingest = Ingest {
            db: &self.db,
            meta: CollectionMeta {
                prefix,
                kind,
                strategy: options.strategy,
                next_doc_id: 0,
                dtd,
                paths: Paths::default(),
            },
            validate: options.validate,
            stats: ShredStats::default(),
            rejected,
        };
        for p in &prepared {
            ingest.entry(None, Some(p))?;
        }
        let Ingest {
            meta,
            stats,
            rejected,
            ..
        } = ingest;
        let prefix = &meta.prefix;
        // Indexes are built after the bulk load, like a sane warehouse.
        if options.with_indexes {
            create_collection_indexes(&self.db, prefix)?;
            self.db
                .query(&format!(
                    "CREATE INDEX {prefix}_src_doc ON {prefix}_src (doc_id)"
                ))
                .run()?;
        }
        self.db
            .query("INSERT INTO hlx_collections VALUES (?, ?, ?, ?, ?)")
            .bind(name)
            .bind(prefix.as_str())
            .bind(kind.name())
            .bind(options.strategy.name())
            .bind(dtd_text)
            .run()?;
        self.record_quarantine(name, &rejected)?;
        self.collections.lock().insert(name.to_string(), meta);
        Ok(stats)
    }

    /// Integrates a fresh download of a flat source: entry-level diff,
    /// minimal re-shredding, and a trigger per changed entry (§2.2 end).
    ///
    /// Malformed entries are quarantined rather than aborting the update;
    /// an entry that is quarantined in this snapshot keeps its previously
    /// warehoused version (it is *not* treated as removed).
    pub fn update_source(&self, name: &str, flat: &str) -> HoundResult<Vec<ChangeEvent>> {
        let kind = self.with_meta(name, |m| m.kind)?;
        if kind == SourceKind::Xml {
            return Err(HoundError::Pipeline(
                "XML sources are updated with update_xml_source".into(),
            ));
        }
        let (prepared, rejected) = prepare_flat(kind, flat);
        self.update_prepared(name, prepared, rejected)
    }

    /// Integrates a fresh snapshot of an XML source (diffed on serialized
    /// document text).
    pub fn update_xml_source(
        &self,
        name: &str,
        docs: Vec<(String, Document)>,
    ) -> HoundResult<Vec<ChangeEvent>> {
        if self.with_meta(name, |m| m.kind)? != SourceKind::Xml {
            return Err(HoundError::Pipeline(
                "flat sources are updated with update_source".into(),
            ));
        }
        self.update_prepared(name, prepare_xml(docs), Vec::new())
    }

    /// Diffs the new snapshot against the `_src` rows and feeds each
    /// changed entry to the ingest step, firing a trigger once it lands.
    fn update_prepared(
        &self,
        name: &str,
        prepared: Vec<PreparedDoc>,
        rejected: Vec<QuarantineRecord>,
    ) -> HoundResult<Vec<ChangeEvent>> {
        let mut ingest = Ingest {
            db: &self.db,
            meta: self.with_meta(name, CollectionMeta::clone)?,
            validate: true,
            stats: ShredStats::default(),
            rejected,
        };

        // Old snapshot: entry key → (doc_id, serialized source).
        let rows = self
            .db
            .query(&format!(
                "SELECT doc_id, entry_key, flat FROM {}_src",
                ingest.meta.prefix
            ))
            .run()?
            .rows;
        let mut old_docs: BTreeMap<String, u64> = BTreeMap::new();
        let mut old_snapshot: BTreeMap<String, String> = BTreeMap::new();
        for row in rows {
            let doc_id = row.try_get::<i64>("doc_id").ok().flatten().unwrap_or(0) as u64;
            let key: String = row.try_get("entry_key").ok().flatten().unwrap_or_default();
            let flat: String = row.try_get("flat").ok().flatten().unwrap_or_default();
            old_docs.insert(key.clone(), doc_id);
            old_snapshot.insert(key, flat);
        }
        let new_snapshot: BTreeMap<String, String> = prepared
            .iter()
            .map(|p| (p.key.clone(), p.serialized.clone()))
            .collect();
        let new_docs: BTreeMap<&str, &PreparedDoc> =
            prepared.iter().map(|p| (p.key.as_str(), p)).collect();

        // An entry quarantined in this snapshot is absent from the new
        // snapshot for the wrong reason — keep its warehoused version
        // instead of treating it as removed.
        let quarantined_keys: BTreeSet<String> = ingest
            .rejected
            .iter()
            .map(|r| r.entry_key.clone())
            .collect();

        let mut events = Vec::new();
        let outcome = diff_snapshots(&old_snapshot, &new_snapshot)
            .into_iter()
            .try_for_each(|(key, change)| {
                if change == ChangeKind::Removed && quarantined_keys.contains(&key) {
                    return Ok(());
                }
                let landed = ingest.entry(
                    old_docs.get(&key).copied(),
                    new_docs.get(key.as_str()).copied(),
                )?;
                if landed {
                    let event = ChangeEvent {
                        collection: name.to_string(),
                        entry_key: key,
                        kind: change,
                    };
                    self.triggers.notify(&event);
                    events.push(event);
                }
                HoundResult::Ok(())
            });
        // Ids taken and paths registered by entries that landed stay so,
        // even if a later entry failed.
        if let Some(meta) = self.collections.lock().get_mut(name) {
            meta.next_doc_id = ingest.meta.next_doc_id;
            meta.paths = ingest.meta.paths;
        }
        outcome?;
        self.record_quarantine(name, &ingest.rejected)?;
        Ok(events)
    }

    /// Drops the leftover tables of an unregistered collection: the residue
    /// of a load whose registration commit never became durable. Only the
    /// collection's own table set goes, so a collection whose prefix extends
    /// this one (`hlx_a_b` next to `hlx_a`) is left alone.
    fn sweep_orphan_tables(&self, prefix: &str) -> HoundResult<()> {
        let tables = self.db.table_names();
        for table in ["docs", "nodes", "attrs", "paths", "src"] {
            let table = format!("{prefix}_{table}");
            if tables.contains(&table) {
                self.db.query(&format!("DROP TABLE {table}")).run()?;
            }
        }
        Ok(())
    }

    /// Replaces the quarantine records of `collection` with `rejected`.
    fn record_quarantine(
        &self,
        collection: &str,
        rejected: &[QuarantineRecord],
    ) -> HoundResult<()> {
        self.db
            .query("DELETE FROM hlx_quarantine WHERE collection = ?")
            .bind(collection)
            .run()?;
        metrics::ingest().quarantined.add(rejected.len() as u64);
        // One parse for the whole loop: bound parameters replace the old
        // per-record SQL-escaping dance.
        let insert = self
            .db
            .prepare("INSERT INTO hlx_quarantine VALUES (?, ?, ?, ?)")?;
        for r in rejected {
            self.db
                .query_prepared(&insert)
                .bind(collection)
                .bind(r.entry_key.as_str())
                .bind(r.reason.as_str())
                .bind(r.raw.as_str())
                .run()?;
        }
        Ok(())
    }

    /// The dead-letter records of a collection's most recent harvest:
    /// entries that failed to parse, transform or validate and were
    /// skipped. Empty after a fully clean harvest.
    pub fn quarantined(&self, collection: &str) -> HoundResult<Vec<QuarantineRecord>> {
        let rows = self
            .db
            .query("SELECT entry_key, reason, raw FROM hlx_quarantine WHERE collection = ?")
            .bind(collection)
            .run()?
            .rows;
        Ok(rows
            .into_iter()
            .map(|r| QuarantineRecord {
                entry_key: r.try_get("entry_key").ok().flatten().unwrap_or_default(),
                reason: r.try_get("reason").ok().flatten().unwrap_or_default(),
                raw: r.try_get("raw").ok().flatten().unwrap_or_default(),
            })
            .collect())
    }

    /// Reconstructs the warehoused document for `entry_key` — the
    /// Relation2XML direction.
    pub fn reconstruct(&self, collection: &str, entry_key: &str) -> HoundResult<Document> {
        let prefix = self.prefix(collection)?;
        let rows = self
            .db
            .query(&format!(
                "SELECT doc_id FROM {prefix}_docs WHERE entry_key = ?"
            ))
            .bind(entry_key)
            .run()?
            .rows;
        let doc_id = rows
            .into_iter()
            .next()
            .and_then(|r| r.try_get::<i64>("doc_id").ok().flatten())
            .ok_or_else(|| HoundError::Pipeline(format!("no document for entry {entry_key:?}")))?;
        reconstruct_document(&self.db, &prefix, doc_id as u64)
    }

    /// Number of documents in a collection.
    pub fn doc_count(&self, collection: &str) -> HoundResult<usize> {
        let prefix = self.prefix(collection)?;
        Ok(self.db.row_count(&format!("{prefix}_docs"))?)
    }

    /// Creates the collection's keyword summary — a `REFRESH ON COMMIT`
    /// materialized view over the shredded node table aggregating, per
    /// element path, the node count, how many of those nodes carry
    /// keyword-searchable text, and the document-id range. Because the
    /// view rides the commit-time delta pipeline, a re-harvest that
    /// touches only changed documents updates the summary O(changes) —
    /// the incremental counterpart of rescanning `{prefix}_nodes`.
    /// Returns the view's table name (query it like any table).
    pub fn create_keyword_summary(&self, collection: &str) -> HoundResult<String> {
        let prefix = self.prefix(collection)?;
        let view = format!("{prefix}_kw_summary");
        self.db
            .query(&format!(
                "CREATE MATERIALIZED VIEW {view} REFRESH ON COMMIT AS \
                 SELECT path, COUNT(*) AS nodes, COUNT(val) AS text_nodes, \
                 MIN(doc_id) AS first_doc, MAX(doc_id) AS last_doc \
                 FROM {prefix}_nodes GROUP BY path"
            ))
            .run()?;
        Ok(view)
    }

    /// Drops the keyword summary created by
    /// [`DataHounds::create_keyword_summary`], if present.
    pub fn drop_keyword_summary(&self, collection: &str) -> HoundResult<()> {
        let prefix = self.prefix(collection)?;
        self.db
            .query(&format!("DROP MATERIALIZED VIEW {prefix}_kw_summary"))
            .run()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xomatiq_bioflat::{Corpus, CorpusSpec};

    fn hounds() -> DataHounds {
        DataHounds::new(Arc::new(Database::in_memory())).unwrap()
    }

    fn small_corpus() -> Corpus {
        Corpus::generate(&CorpusSpec::sized(10))
    }

    #[test]
    fn reopening_indexes_the_entry_key_of_indexed_collections() {
        let dh = hounds();
        let flat = small_corpus().enzyme_flat();
        for (name, with_indexes) in [("a", true), ("b", false)] {
            let options = LoadOptions {
                with_indexes,
                ..LoadOptions::default()
            };
            dh.load_source(name, SourceKind::Enzyme, &flat, options)
                .unwrap();
        }
        let key_index =
            |dh: &DataHounds, p: &str| dh.db().index_names().contains(&format!("{p}_docs_key"));
        assert!(key_index(&dh, "a") && !key_index(&dh, "b"));
        // A collection indexed before the entry-key index existed gets it
        // when the warehouse is opened; one loaded without indexes does not.
        dh.db().query("DROP INDEX a_docs_key").run().unwrap();
        let reopened = DataHounds::new(Arc::clone(dh.db())).unwrap();
        assert!(key_index(&reopened, "a") && !key_index(&reopened, "b"));
        let key = &small_corpus().enzymes[3].id;
        let sql = "EXPLAIN SELECT doc_id FROM a_docs WHERE entry_key = ?";
        let plan = reopened.db().query(sql).bind(key.as_str()).run().unwrap();
        assert!(plan.rows.to_table().contains("USING a_docs_key"));
        reopened.reconstruct("a", key).unwrap();
    }

    #[test]
    fn entry_keys_are_the_primary_identifiers() {
        let corpus = Corpus::generate(&CorpusSpec::sized(3));
        let ids = |keys: Vec<&String>| keys.into_iter().cloned().collect::<Vec<_>>();
        for (kind, flat, keys) in [
            (
                SourceKind::Enzyme,
                corpus.enzyme_flat(),
                ids(corpus.enzymes.iter().map(|e| &e.id).collect()),
            ),
            (
                SourceKind::Embl,
                corpus.embl_flat(),
                ids(corpus.embl.iter().map(|e| &e.accession).collect()),
            ),
            (
                SourceKind::SwissProt,
                corpus.swissprot_flat(),
                ids(corpus.swissprot.iter().map(|e| &e.accession).collect()),
            ),
        ] {
            let (prepared, rejected) = prepare_flat(kind, &flat);
            assert!(rejected.is_empty(), "{kind:?}");
            let got: Vec<String> = prepared.into_iter().map(|p| p.key).collect();
            assert_eq!(got, keys, "{kind:?}");
        }
    }

    #[test]
    fn load_enzyme_collection() {
        let dh = hounds();
        let corpus = small_corpus();
        let stats = dh
            .load_source(
                "hlx_enzyme.DEFAULT",
                SourceKind::Enzyme,
                &corpus.enzyme_flat(),
                LoadOptions::default(),
            )
            .unwrap();
        assert_eq!(stats.documents, 10);
        assert!(stats.elements > 10);
        assert_eq!(dh.doc_count("hlx_enzyme.DEFAULT").unwrap(), 10);
        assert_eq!(dh.collections(), vec!["hlx_enzyme.DEFAULT".to_string()]);
        assert_eq!(
            dh.prefix("hlx_enzyme.DEFAULT").unwrap(),
            "hlx_enzyme_default"
        );
    }

    #[test]
    fn interrupted_load_leftovers_are_swept_on_reload() {
        let db = Arc::new(Database::in_memory());
        let dh = DataHounds::new(Arc::clone(&db)).unwrap();
        // Simulate a load that crashed after creating tables and ingesting
        // an entry but before the registration commit became durable: the
        // tables exist, the metadata row does not.
        let prefix = collection_prefix("hlx_enzyme.DEFAULT");
        create_collection_tables(&db, &prefix).unwrap();
        db.query(&format!(
            "CREATE TABLE {prefix}_src (doc_id INT, entry_key TEXT, flat TEXT)"
        ))
        .run()
        .unwrap();
        db.query(&format!(
            "INSERT INTO {prefix}_src VALUES (0, 'stale', 'stale')"
        ))
        .run()
        .unwrap();
        // A sibling collection sharing the name stem must survive the sweep.
        db.query(&format!("CREATE TABLE {prefix}2_docs (doc_id INT)"))
            .run()
            .unwrap();

        let corpus = small_corpus();
        let stats = dh
            .load_source(
                "hlx_enzyme.DEFAULT",
                SourceKind::Enzyme,
                &corpus.enzyme_flat(),
                LoadOptions::default(),
            )
            .unwrap();
        assert_eq!(stats.documents, 10);
        assert_eq!(dh.doc_count("hlx_enzyme.DEFAULT").unwrap(), 10);
        let stale = db
            .query(&format!(
                "SELECT flat FROM {prefix}_src WHERE entry_key = 'stale'"
            ))
            .run()
            .unwrap();
        assert!(
            stale.rows.rows().is_empty(),
            "stale orphan row must be swept"
        );
        assert!(db
            .query(&format!("SELECT doc_id FROM {prefix}2_docs"))
            .run()
            .is_ok());
    }

    #[test]
    fn loading_a_collection_keeps_one_whose_prefix_extends_it() {
        let dh = hounds();
        let flat = small_corpus().enzyme_flat();
        dh.load_source("hlx.a.b", SourceKind::Enzyme, &flat, LoadOptions::default())
            .unwrap();
        dh.load_source("hlx.a", SourceKind::Enzyme, &flat, LoadOptions::default())
            .unwrap();
        assert_eq!(dh.doc_count("hlx.a.b").unwrap(), 10);
        assert_eq!(dh.doc_count("hlx.a").unwrap(), 10);
    }

    #[test]
    fn load_onto_another_collections_prefix_is_refused() {
        let dh = hounds();
        let corpus = small_corpus();
        let flat = corpus.enzyme_flat();
        dh.load_source("hlx.a", SourceKind::Enzyme, &flat, LoadOptions::default())
            .unwrap();
        // `hlx_a` and `hlx.a` both map to the table prefix `hlx_a`.
        let err = dh
            .load_source("hlx_a", SourceKind::Enzyme, &flat, LoadOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("\"hlx.a\""), "{err}");
        assert_eq!(dh.collections(), vec!["hlx.a".to_string()]);
        assert_eq!(dh.doc_count("hlx.a").unwrap(), 10);
        assert!(dh.reconstruct("hlx.a", &corpus.enzymes[0].id).is_ok());
    }

    #[test]
    fn numbers_beyond_i64_get_a_numeric_shadow() {
        let dh = hounds();
        let texts = ["12345678901234567890", "1e19", "-1e19", "1e300", "-0"];
        let (mut doc, root) = Document::with_root("r").unwrap();
        for text in texts {
            let v = doc.append_element(root, "v").unwrap();
            doc.set_attribute(v, "n", text).unwrap();
            doc.append_text(v, text);
        }
        let dtd = "<!ELEMENT r (v*)>\n<!ELEMENT v (#PCDATA)>\n<!ATTLIST v n CDATA #REQUIRED>\n";
        dh.load_xml_source("big", dtd, vec![("k".into(), doc)], LoadOptions::default())
            .unwrap();
        for sql in [
            "SELECT val, num_val FROM big_nodes WHERE name = 'v'",
            "SELECT aval, num_val FROM big_attrs",
        ] {
            let rows = dh.db().query(sql).run().unwrap().rows;
            assert_eq!(rows.rows().len(), texts.len(), "{sql}");
            for row in rows.rows() {
                let want: f64 = row[0].as_text().unwrap().parse().unwrap();
                assert_eq!(row[1], xomatiq_relstore::Value::Float(want + 0.0), "{sql}");
            }
        }
    }

    fn registered(dh: &DataHounds, collection: &str) -> BTreeSet<String> {
        let map = dh.collections.lock();
        map[collection].paths.set.iter().cloned().collect()
    }

    fn stored_paths(dh: &DataHounds, prefix: &str) -> BTreeSet<String> {
        registered_paths(dh.db(), prefix)
            .unwrap()
            .into_iter()
            .collect()
    }

    #[test]
    fn a_failed_entry_registers_no_paths() {
        let dh = hounds();
        let dtd = "<!ELEMENT r (v|w)*>\n<!ELEMENT v (#PCDATA)>\n<!ELEMENT w (#PCDATA)>\n\
                   <!ATTLIST w n CDATA #IMPLIED>\n";
        let doc = |with_w: bool| {
            let (mut doc, root) = Document::with_root("r").unwrap();
            let v = doc.append_element(root, "v").unwrap();
            doc.append_text(v, "1");
            if with_w {
                let w = doc.append_element(root, "w").unwrap();
                doc.set_attribute(w, "n", "2").unwrap();
            }
            doc
        };
        let opts = LoadOptions::default();
        dh.load_xml_source("x", dtd, vec![("a".into(), doc(false))], opts)
            .unwrap();
        let before = registered(&dh, "x");
        assert_eq!(before, ["/r", "/r/v"].map(String::from).into());
        assert_eq!(stored_paths(&dh, "x"), before);

        // Entry `b` has attributes, so its batch writes `x_attrs`; with the
        // table gone the batch fails, and neither the stored nor the
        // registered paths take its `/r/w` and `/r/w/@n`.
        let attrs = "doc_id INT, owner INT, aname TEXT, aval TEXT, num_val FLOAT, path TEXT";
        dh.db().query("DROP TABLE x_attrs").run().unwrap();
        let snapshot = || vec![("a".into(), doc(false)), ("b".into(), doc(true))];
        assert!(dh.update_xml_source("x", snapshot()).is_err());
        assert_eq!(registered(&dh, "x"), before);
        assert_eq!(stored_paths(&dh, "x"), before);

        // Once the entry can land, it registers them.
        let sql = format!("CREATE TABLE x_attrs ({attrs})");
        dh.db().query(&sql).run().unwrap();
        let events = dh.update_xml_source("x", snapshot()).unwrap();
        assert_eq!(events.len(), 1);
        let after: BTreeSet<String> = ["/r", "/r/v", "/r/w", "/r/w/@n"].map(String::from).into();
        assert_eq!(registered(&dh, "x"), after);
        assert_eq!(stored_paths(&dh, "x"), after);
        // A reopened instance loads the same set.
        let reopened = DataHounds::new(Arc::clone(dh.db())).unwrap();
        assert_eq!(registered(&reopened, "x"), after);
    }

    #[test]
    fn a_resync_sends_no_sql_per_entry() {
        let dh = hounds();
        let corpus = small_corpus();
        dh.load_source(
            "c",
            SourceKind::Enzyme,
            &corpus.enzyme_flat(),
            LoadOptions::default(),
        )
        .unwrap();
        let mut entries = corpus.enzymes.clone();
        entries[0].descriptions = vec!["Renamed enzyme.".into()];
        entries[4].descriptions = vec!["Renamed too.".into()];
        let flat: String = entries.iter().map(|e| e.to_flat()).collect();
        let recorded = || dh.db().flight_recorder().snapshot();
        let last = recorded().last().map_or(0, |r| r.query_id);
        assert_eq!(dh.update_source("c", &flat).unwrap().len(), 2);
        // The diff reads `c_src` and the quarantine is rewritten; the two
        // changed entries add no statement text of their own.
        let sent: Vec<String> = recorded()
            .into_iter()
            .filter(|r| r.query_id > last)
            .map(|r| r.sql)
            .collect();
        assert_eq!(sent.len(), 2, "{sent:?}");
        assert!(sent.iter().all(|sql| !sql.contains("_paths")), "{sent:?}");
    }

    #[test]
    fn double_load_rejected() {
        let dh = hounds();
        let corpus = small_corpus();
        dh.load_source(
            "c",
            SourceKind::Enzyme,
            &corpus.enzyme_flat(),
            LoadOptions::default(),
        )
        .unwrap();
        assert!(dh
            .load_source(
                "c",
                SourceKind::Enzyme,
                &corpus.enzyme_flat(),
                LoadOptions::default()
            )
            .is_err());
    }

    #[test]
    fn reconstruct_round_trips_both_strategies() {
        let corpus = small_corpus();
        for strategy in [ShreddingStrategy::Edge, ShreddingStrategy::Interval] {
            let dh = hounds();
            dh.load_source(
                "hlx_enzyme.DEFAULT",
                SourceKind::Enzyme,
                &corpus.enzyme_flat(),
                LoadOptions {
                    strategy,
                    ..LoadOptions::default()
                },
            )
            .unwrap();
            for entry in &corpus.enzymes {
                let rebuilt = dh.reconstruct("hlx_enzyme.DEFAULT", &entry.id).unwrap();
                let original = crate::transform::enzyme_to_xml(entry).unwrap();
                assert!(
                    original.structurally_equal(&rebuilt),
                    "{strategy:?} reconstruction of {} diverged",
                    entry.id
                );
            }
        }
    }

    #[test]
    fn update_applies_minimal_changes_and_fires_triggers() {
        let dh = hounds();
        let corpus = small_corpus();
        dh.load_source(
            "hlx_enzyme.DEFAULT",
            SourceKind::Enzyme,
            &corpus.enzyme_flat(),
            LoadOptions::default(),
        )
        .unwrap();
        let rx = dh.subscribe();

        // New snapshot: drop entry 0, modify entry 1, add a fresh entry.
        let mut entries = corpus.enzymes.clone();
        let removed_key = entries.remove(0).id;
        entries[0].descriptions = vec!["Renamed enzyme.".into()];
        let modified_key = entries[0].id.clone();
        let mut added = entries[1].clone();
        added.id = "9.9.9.99".into();
        entries.push(added);
        let flat: String = entries.iter().map(|e| e.to_flat()).collect();

        let events = dh.update_source("hlx_enzyme.DEFAULT", &flat).unwrap();
        assert_eq!(events.len(), 3);
        let kinds: std::collections::HashMap<String, ChangeKind> = events
            .iter()
            .map(|e| (e.entry_key.clone(), e.kind))
            .collect();
        assert_eq!(kinds[&removed_key], ChangeKind::Removed);
        assert_eq!(kinds[&modified_key], ChangeKind::Modified);
        assert_eq!(kinds["9.9.9.99"], ChangeKind::Added);

        // Triggers delivered.
        let mut received = Vec::new();
        while let Ok(e) = rx.try_recv() {
            received.push(e);
        }
        assert_eq!(received.len(), 3);

        // Warehouse state matches the new snapshot.
        assert_eq!(dh.doc_count("hlx_enzyme.DEFAULT").unwrap(), 10);
        let rebuilt = dh.reconstruct("hlx_enzyme.DEFAULT", &modified_key).unwrap();
        let expected = crate::transform::enzyme_to_xml(&entries[0]).unwrap();
        assert!(expected.structurally_equal(&rebuilt));
        assert!(dh.reconstruct("hlx_enzyme.DEFAULT", &removed_key).is_err());
        assert!(dh.reconstruct("hlx_enzyme.DEFAULT", "9.9.9.99").is_ok());
    }

    #[test]
    fn update_with_no_changes_is_a_no_op() {
        let dh = hounds();
        let corpus = small_corpus();
        let flat = corpus.enzyme_flat();
        dh.load_source("c", SourceKind::Enzyme, &flat, LoadOptions::default())
            .unwrap();
        let events = dh.update_source("c", &flat).unwrap();
        assert!(events.is_empty());
        assert_eq!(dh.doc_count("c").unwrap(), 10);
    }

    #[test]
    fn metadata_survives_reopen_on_same_database() {
        let db = Arc::new(Database::in_memory());
        let corpus = small_corpus();
        {
            let dh = DataHounds::new(Arc::clone(&db)).unwrap();
            dh.load_source(
                "hlx_embl.inv",
                SourceKind::Embl,
                &corpus.embl_flat(),
                LoadOptions::default(),
            )
            .unwrap();
        }
        // A second Data Hounds over the same database recovers metadata.
        let dh2 = DataHounds::new(db).unwrap();
        assert_eq!(dh2.collections(), vec!["hlx_embl.inv".to_string()]);
        assert_eq!(
            dh2.strategy("hlx_embl.inv").unwrap(),
            ShreddingStrategy::Interval
        );
        assert_eq!(dh2.doc_count("hlx_embl.inv").unwrap(), 10);
        // And updates keep working (doc ids continue from the right spot).
        let mut entries = corpus.embl.clone();
        entries[0].description = "changed".into();
        let flat: String = entries.iter().map(|e| e.to_flat()).collect();
        let events = dh2.update_source("hlx_embl.inv", &flat).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn unknown_collection_errors() {
        let dh = hounds();
        assert!(matches!(
            dh.dtd("nope"),
            Err(HoundError::UnknownCollection(_))
        ));
        assert!(dh.update_source("nope", "").is_err());
        assert!(dh.reconstruct("nope", "k").is_err());
    }

    #[test]
    fn corrupted_entry_is_quarantined_and_harvest_continues() {
        let dh = hounds();
        let corpus = small_corpus();
        // A rotten entry in the middle of the feed: a CC continuation with
        // no preceding comment is a parse error.
        let mut flat = String::new();
        for (i, e) in corpus.enzymes.iter().enumerate() {
            if i == 3 {
                flat.push_str("ID   9.9.9.99\nCC   orphan continuation\n//\n");
            }
            flat.push_str(&e.to_flat());
        }
        let stats = dh
            .load_source("c", SourceKind::Enzyme, &flat, LoadOptions::default())
            .unwrap();
        // The ten good entries are in, the bad one is dead-lettered.
        assert_eq!(stats.documents, 10);
        assert_eq!(dh.doc_count("c").unwrap(), 10);
        let q = dh.quarantined("c").unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].entry_key, "9.9.9.99");
        assert!(q[0].reason.contains("CC continuation"));
        assert!(q[0].raw.contains("orphan continuation"));

        // Re-harvest with the entry fixed: it arrives as an addition, the
        // quarantine clears, and nothing else is touched (no duplicates).
        let mut fixed = corpus.enzymes[1].clone();
        fixed.id = "9.9.9.99".into();
        let mut flat2: String = corpus.enzymes.iter().map(|e| e.to_flat()).collect();
        flat2.push_str(&fixed.to_flat());
        let events = dh.update_source("c", &flat2).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ChangeKind::Added);
        assert_eq!(events[0].entry_key, "9.9.9.99");
        assert!(dh.quarantined("c").unwrap().is_empty());
        assert_eq!(dh.doc_count("c").unwrap(), 11);

        // A further identical harvest is a no-op — tuples never duplicate.
        let nodes_before = dh.db().row_count("c_nodes").unwrap();
        let events = dh.update_source("c", &flat2).unwrap();
        assert!(events.is_empty());
        assert_eq!(dh.doc_count("c").unwrap(), 11);
        assert_eq!(dh.db().row_count("c_nodes").unwrap(), nodes_before);
    }

    #[test]
    fn quarantined_update_entry_keeps_the_old_version() {
        let dh = hounds();
        let corpus = small_corpus();
        dh.load_source(
            "c",
            SourceKind::Enzyme,
            &corpus.enzyme_flat(),
            LoadOptions::default(),
        )
        .unwrap();
        let victim = corpus.enzymes[2].id.clone();
        // New snapshot where one previously good entry turns to garbage.
        let mut flat = String::new();
        for e in &corpus.enzymes {
            if e.id == victim {
                flat.push_str(&format!("ID   {victim}\nPR   GARBAGE\n//\n"));
            } else {
                flat.push_str(&e.to_flat());
            }
        }
        let events = dh.update_source("c", &flat).unwrap();
        // Not removed, not modified: the warehoused version survives.
        assert!(events.is_empty());
        assert_eq!(dh.doc_count("c").unwrap(), 10);
        assert!(dh.reconstruct("c", &victim).is_ok());
        let q = dh.quarantined("c").unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].entry_key, victim);
    }

    #[test]
    fn all_three_kinds_load() {
        let dh = hounds();
        let corpus = small_corpus();
        dh.load_source(
            "hlx_enzyme.DEFAULT",
            SourceKind::Enzyme,
            &corpus.enzyme_flat(),
            LoadOptions::default(),
        )
        .unwrap();
        dh.load_source(
            "hlx_embl.inv",
            SourceKind::Embl,
            &corpus.embl_flat(),
            LoadOptions::default(),
        )
        .unwrap();
        dh.load_source(
            "hlx_sprot.all",
            SourceKind::SwissProt,
            &corpus.swissprot_flat(),
            LoadOptions::default(),
        )
        .unwrap();
        assert_eq!(dh.collections().len(), 3);
        for c in ["hlx_enzyme.DEFAULT", "hlx_embl.inv", "hlx_sprot.all"] {
            assert_eq!(dh.doc_count(c).unwrap(), 10, "{c}");
        }
    }
}
