//! The [`Xomatiq`] facade.

use std::path::Path;
use std::sync::Arc;

use xomatiq_datahounds::source::LoadOptions;
use xomatiq_datahounds::{
    ChangeEvent, DataHounds, HoundError, HoundResult, ShredStats, ShreddingStrategy, SourceKind,
};
use xomatiq_relstore::{Database, Value};
use xomatiq_xml::dtd::Dtd;
use xomatiq_xml::Document;
use xomatiq_xquery::catalog::{CatalogProvider, CollectionCatalog};
use xomatiq_xquery::{parse_query, translate, FlwrQuery, QueryError};

/// The result of running a XomatiQ query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// The SQL the XQ2SQL transformer generated (for inspection; the paper
    /// hides it from users, §3).
    pub sql: String,
}

/// The XomatiQ system: warehouse + query engine behind one handle.
pub struct Xomatiq {
    db: Arc<Database>,
    hounds: DataHounds,
}

impl Xomatiq {
    /// A volatile instance (no durability) — for tests and exploration.
    pub fn in_memory() -> Xomatiq {
        let db = Arc::new(Database::in_memory());
        let hounds = DataHounds::new(Arc::clone(&db)).expect("fresh database");
        Xomatiq { db, hounds }
    }

    /// A durable instance whose write-ahead log lives at `path`; existing
    /// warehouse state (collections included) is recovered.
    pub fn open(path: &Path) -> HoundResult<Xomatiq> {
        let db = Arc::new(Database::open(path)?);
        let hounds = DataHounds::new(Arc::clone(&db))?;
        Ok(Xomatiq { db, hounds })
    }

    /// The underlying relational engine (exposed for benchmarking and
    /// diagnostics; applications use [`Xomatiq::query`]).
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The Data Hounds component.
    pub fn hounds(&self) -> &DataHounds {
        &self.hounds
    }

    /// Loads a source with default options (Interval shredding, full
    /// index set, DTD validation).
    pub fn load_source(
        &self,
        collection: &str,
        kind: SourceKind,
        flat: &str,
    ) -> HoundResult<ShredStats> {
        self.hounds
            .load_source(collection, kind, flat, LoadOptions::default())
    }

    /// Loads a source with explicit options.
    pub fn load_source_with(
        &self,
        collection: &str,
        kind: SourceKind,
        flat: &str,
        options: LoadOptions,
    ) -> HoundResult<ShredStats> {
        self.hounds.load_source(collection, kind, flat, options)
    }

    /// Integrates a fresh snapshot of a loaded source (paper §2,
    /// consideration 2), returning the change set.
    pub fn update_source(&self, collection: &str, flat: &str) -> HoundResult<Vec<ChangeEvent>> {
        self.hounds.update_source(collection, flat)
    }

    /// Loads a pre-existing XML source — an INTERPRO-style XML databank
    /// (§2.1) or a wrapped relational table (Figure 1) — with default
    /// options.
    pub fn load_xml_source(
        &self,
        collection: &str,
        dtd_text: &str,
        docs: Vec<(String, Document)>,
    ) -> HoundResult<ShredStats> {
        self.hounds
            .load_xml_source(collection, dtd_text, docs, LoadOptions::default())
    }

    /// Integrates a fresh snapshot of an XML source.
    pub fn update_xml_source(
        &self,
        collection: &str,
        docs: Vec<(String, Document)>,
    ) -> HoundResult<Vec<ChangeEvent>> {
        self.hounds.update_xml_source(collection, docs)
    }

    /// Wraps a table of a remote relational database as XML documents and
    /// warehouses them (Figure 1's RDBMS input path). `key_column` must
    /// hold unique values.
    pub fn load_relational_source(
        &self,
        collection: &str,
        remote: &Database,
        table: &str,
        key_column: &str,
    ) -> HoundResult<ShredStats> {
        let (dtd_text, docs) =
            xomatiq_datahounds::transform::wrap_relational_table(remote, table, key_column)?;
        self.load_xml_source(collection, &dtd_text, docs)
    }

    /// Creates an incrementally maintained keyword summary of a
    /// collection: a `REFRESH ON COMMIT` materialized view over the
    /// shredded node table (per-path node counts, keyword-searchable
    /// text volume, document-id range). After this, a re-harvest via
    /// [`Xomatiq::update_source`] keeps the summary fresh by folding
    /// only the changed documents' deltas — O(changes), not a rescan.
    /// Returns the view name; query it like any table.
    pub fn create_keyword_summary(&self, collection: &str) -> HoundResult<String> {
        self.hounds.create_keyword_summary(collection)
    }

    /// Drops a summary created by [`Xomatiq::create_keyword_summary`].
    pub fn drop_keyword_summary(&self, collection: &str) -> HoundResult<()> {
        self.hounds.drop_keyword_summary(collection)
    }

    /// Subscribes to warehouse change triggers (§2.2 end).
    pub fn subscribe(&self) -> crossbeam::channel::Receiver<ChangeEvent> {
        self.hounds.subscribe()
    }

    /// Names of loaded collections.
    pub fn collections(&self) -> Vec<String> {
        self.hounds.collections()
    }

    /// The DTD of a collection — what the visual interface's left panel
    /// displays for query formulation (§3.1).
    pub fn dtd(&self, collection: &str) -> HoundResult<Dtd> {
        self.hounds.dtd(collection)
    }

    /// Parses and runs a textual FLWR query.
    pub fn query(&self, text: &str) -> Result<QueryOutcome, XomatiqError> {
        let parsed = parse_query(text)?;
        self.run_query(&parsed)
    }

    /// Runs a pre-built [`FlwrQuery`] (what [`crate::QueryBuilder`]
    /// produces).
    pub fn run_query(&self, query: &FlwrQuery) -> Result<QueryOutcome, XomatiqError> {
        let translated = translate(query, self)?;
        let rs = self
            .db
            .query(&translated.sql)
            .run()
            .map_err(|e| XomatiqError::Execution(format!("{e} (SQL: {})", translated.sql)))?
            .rows;
        Ok(QueryOutcome {
            columns: translated.columns,
            rows: rs.into_rows(),
            sql: translated.sql,
        })
    }

    /// Runs a textual FLWR query and returns the results re-tagged as an
    /// XML document (§3.3: "the results are formatted as XML documents (if
    /// necessary) and returned back to the user or passed to another
    /// application"). A `RETURN <tag> ... </tag>` element constructor
    /// names the per-row element; the document root is `<tag>_list`.
    pub fn query_xml(&self, text: &str) -> Result<Document, XomatiqError> {
        let parsed = parse_query(text)?;
        let outcome = self.run_query(&parsed)?;
        let (root, row) = match &parsed.wrapper {
            Some(tag) => (format!("{tag}_list"), tag.clone()),
            None => ("results".to_string(), "result".to_string()),
        };
        crate::tagger::tag_rows(&root, &row, &outcome.columns, &outcome.rows)
            .map_err(|e| XomatiqError::Execution(e.to_string()))
    }

    /// Shows the SQL a query would run, without running it — the moral
    /// equivalent of watching the Oracle plans in §3.2.
    pub fn explain_query(&self, text: &str) -> Result<String, XomatiqError> {
        let parsed = parse_query(text)?;
        let translated = translate(&parsed, self)?;
        let plan = self
            .db
            .query(&translated.sql)
            .explain()
            .map(|tree| tree.render())
            .map_err(|e| XomatiqError::Execution(e.to_string()))?;
        Ok(format!("-- SQL\n{}\n-- Plan\n{}", translated.sql, plan))
    }

    /// Reconstructs the warehoused XML document for one entry — the
    /// Relation2XML direction, used by the XML result view.
    pub fn reconstruct(&self, collection: &str, entry_key: &str) -> HoundResult<Document> {
        self.hounds.reconstruct(collection, entry_key)
    }

    /// Per-collection document count.
    pub fn doc_count(&self, collection: &str) -> HoundResult<usize> {
        self.hounds.doc_count(collection)
    }

    /// Warehouse statistics: (collection, documents, node rows) triples.
    pub fn statistics(&self) -> HoundResult<Vec<(String, usize, usize)>> {
        let mut out = Vec::new();
        for name in self.hounds.collections() {
            let prefix = self.hounds.prefix(&name)?;
            let docs = self.db.row_count(&format!("{prefix}_docs"))?;
            let nodes = self.db.row_count(&format!("{prefix}_nodes"))?;
            out.push((name, docs, nodes));
        }
        Ok(out)
    }
}

/// The catalog comes from the paths Data Hounds registered, held in
/// memory: translating a query sends the warehouse no SQL.
impl CatalogProvider for Xomatiq {
    fn collection(&self, name: &str) -> Result<CollectionCatalog, QueryError> {
        let unknown = |_| QueryError::UnknownCollection(name.to_string());
        let prefix = self.hounds.prefix(name).map_err(unknown)?;
        let strategy: ShreddingStrategy = self.hounds.strategy(name).map_err(unknown)?;
        let paths = self.hounds.paths(name).map_err(unknown)?;
        Ok(CollectionCatalog::from_paths(
            name, &prefix, strategy, paths,
        ))
    }
}

/// Errors surfaced by the facade.
#[derive(Debug, Clone, PartialEq)]
pub enum XomatiqError {
    /// The query text or structure was invalid.
    Query(QueryError),
    /// The warehouse pipeline failed.
    Warehouse(HoundError),
    /// SQL execution failed.
    Execution(String),
    /// A federated query failed at the federation layer (member death,
    /// deadline, or strict-mode refusal of a degraded result).
    Federation(String),
}

impl std::fmt::Display for XomatiqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XomatiqError::Query(e) => write!(f, "{e}"),
            XomatiqError::Warehouse(e) => write!(f, "{e}"),
            XomatiqError::Execution(m) => write!(f, "query execution failed: {m}"),
            XomatiqError::Federation(m) => write!(f, "federation error: {m}"),
        }
    }
}

impl std::error::Error for XomatiqError {}

impl From<QueryError> for XomatiqError {
    fn from(e: QueryError) -> Self {
        XomatiqError::Query(e)
    }
}

impl From<HoundError> for XomatiqError {
    fn from(e: HoundError) -> Self {
        XomatiqError::Warehouse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xomatiq_bioflat::enzyme::FIGURE2_SAMPLE;
    use xomatiq_bioflat::{Corpus, CorpusSpec};

    #[test]
    fn load_and_query_figure2_sample() {
        let xq = Xomatiq::in_memory();
        xq.load_source("hlx_enzyme.DEFAULT", SourceKind::Enzyme, FIGURE2_SAMPLE)
            .unwrap();
        let outcome = xq
            .query(
                r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
                   WHERE contains($a//cofactor, "Copper")
                   RETURN $a//enzyme_id, $a//enzyme_description"#,
            )
            .unwrap();
        assert_eq!(outcome.columns, vec!["enzyme_id", "enzyme_description"]);
        assert_eq!(outcome.rows.len(), 1);
        assert_eq!(outcome.rows[0][0].to_string(), "1.14.17.3");
        assert!(outcome.sql.contains("SELECT DISTINCT"));
    }

    #[test]
    fn statistics_and_dtd() {
        let xq = Xomatiq::in_memory();
        let corpus = Corpus::generate(&CorpusSpec::sized(5));
        xq.load_source(
            "hlx_enzyme.DEFAULT",
            SourceKind::Enzyme,
            &corpus.enzyme_flat(),
        )
        .unwrap();
        let stats = xq.statistics().unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1, 5);
        assert!(stats[0].2 > 5);
        let dtd = xq.dtd("hlx_enzyme.DEFAULT").unwrap();
        assert_eq!(dtd.root(), Some("hlx_enzyme"));
    }

    #[test]
    fn reconstruct_returns_original_document() {
        let xq = Xomatiq::in_memory();
        xq.load_source("c", SourceKind::Enzyme, FIGURE2_SAMPLE)
            .unwrap();
        let doc = xq.reconstruct("c", "1.14.17.3").unwrap();
        let xml = xomatiq_xml::to_string(&doc);
        assert!(xml.contains("<enzyme_id>1.14.17.3</enzyme_id>"));
    }

    #[test]
    fn explain_query_shows_sql_and_plan() {
        let xq = Xomatiq::in_memory();
        xq.load_source("c", SourceKind::Enzyme, FIGURE2_SAMPLE)
            .unwrap();
        let text = xq
            .explain_query(r#"FOR $a IN document("c")/hlx_enzyme WHERE $a//enzyme_id = "1.14.17.3" RETURN $a//enzyme_id"#)
            .unwrap();
        assert!(text.contains("-- SQL"), "{text}");
        assert!(text.contains("IndexScan"), "{text}");
    }

    #[test]
    fn update_and_triggers_flow_through_facade() {
        let xq = Xomatiq::in_memory();
        let corpus = Corpus::generate(&CorpusSpec::sized(4));
        xq.load_source("c", SourceKind::Enzyme, &corpus.enzyme_flat())
            .unwrap();
        let rx = xq.subscribe();
        let mut entries = corpus.enzymes.clone();
        entries[0].descriptions = vec!["Changed.".into()];
        let flat: String = entries.iter().map(|e| e.to_flat()).collect();
        let events = xq.update_source("c", &flat).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(rx.try_recv().unwrap().kind, ChangeKind::Modified);
        // The change is queryable.
        let outcome = xq
            .query(&format!(
                r#"FOR $a IN document("c")/hlx_enzyme WHERE $a//enzyme_id = "{}" RETURN $a//enzyme_description"#,
                entries[0].id
            ))
            .unwrap();
        assert_eq!(outcome.rows[0][0].to_string(), "Changed.");
        let _ = xq.collections();
        let _ = xq.doc_count("c").unwrap();
    }

    use xomatiq_datahounds::ChangeKind;

    #[test]
    fn keyword_summary_is_maintained_through_a_reharvest() {
        let xq = Xomatiq::in_memory();
        let corpus = Corpus::generate(&CorpusSpec::sized(6));
        xq.load_source("c", SourceKind::Enzyme, &corpus.enzyme_flat())
            .unwrap();
        let view = xq.create_keyword_summary("c").unwrap();

        let summary_sql = |xq: &Xomatiq, from: &str| {
            let out = xq
                .db()
                .query(&format!(
                    "SELECT path, COUNT(*) AS nodes, COUNT(val) AS text_nodes, \
                     MIN(doc_id) AS first_doc, MAX(doc_id) AS last_doc \
                     FROM {from} GROUP BY path ORDER BY path"
                ))
                .run()
                .unwrap();
            out.rows.into_rows()
        };
        let stored = |xq: &Xomatiq| {
            let out = xq
                .db()
                .query(&format!("SELECT * FROM {view} ORDER BY path"))
                .run()
                .unwrap();
            out.rows.into_rows()
        };
        let prefix = xq.hounds().prefix("c").unwrap();
        assert_eq!(stored(&xq), summary_sql(&xq, &format!("{prefix}_nodes")));

        // Re-harvest a refreshed release: one modified entry, one gone.
        let mut entries = corpus.enzymes.clone();
        entries[0].descriptions = vec!["A very different description.".into()];
        entries.pop();
        let flat: String = entries.iter().map(|e| e.to_flat()).collect();
        let events = xq.update_source("c", &flat).unwrap();
        assert_eq!(events.len(), 2);

        // The summary tracked the changed documents' deltas and agrees
        // with a from-scratch recompute...
        assert_eq!(stored(&xq), summary_sql(&xq, &format!("{prefix}_nodes")));
        // ...incrementally, not by rebuild.
        let out = xq
            .db()
            .query("SELECT incremental_refreshes, fallback_refreshes FROM sys_views WHERE view_name = ?")
            .bind(view.as_str())
            .run()
            .unwrap();
        let row = &out.rows.rows()[0];
        assert!(row[0].as_int().unwrap() > 0, "no incremental refreshes ran");
        assert_eq!(row[1].as_int().unwrap(), 0, "summary fell back to rebuild");

        xq.drop_keyword_summary("c").unwrap();
        assert!(xq
            .db()
            .query(&format!("SELECT * FROM {view}"))
            .run()
            .is_err());
    }

    #[test]
    fn query_xml_honours_the_element_constructor() {
        let xq = Xomatiq::in_memory();
        xq.load_source("c", SourceKind::Enzyme, FIGURE2_SAMPLE)
            .unwrap();
        let doc = xq
            .query_xml(
                r#"FOR $a IN document("c")/hlx_enzyme
                   RETURN <hit> $a//enzyme_id </hit>"#,
            )
            .unwrap();
        let xml = xomatiq_xml::to_string(&doc);
        assert!(xml.contains("<hit_list count=\"1\">"), "{xml}");
        assert!(
            xml.contains("<hit><enzyme_id>1.14.17.3</enzyme_id></hit>"),
            "{xml}"
        );
        // Without a wrapper the default names apply.
        let plain = xq
            .query_xml(r#"FOR $a IN document("c")/hlx_enzyme RETURN $a//enzyme_id"#)
            .unwrap();
        assert!(xomatiq_xml::to_string(&plain).contains("<results count=\"1\">"));
    }

    #[test]
    fn query_errors_are_typed() {
        let xq = Xomatiq::in_memory();
        assert!(matches!(
            xq.query("garbage").unwrap_err(),
            XomatiqError::Query(QueryError::Parse(_))
        ));
        assert!(matches!(
            xq.query(r#"FOR $a IN document("missing")/r RETURN $a//x"#)
                .unwrap_err(),
            XomatiqError::Query(QueryError::UnknownCollection(_))
        ));
    }
}
