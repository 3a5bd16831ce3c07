//! XQ2SQL's path catalog comes from the paths Data Hounds registered, in
//! memory. It must translate every paper query to exactly the SQL that the
//! catalog read from the warehouse's `_paths` tables gives — after a load,
//! after a re-sync that registers new paths, and after a durable warehouse
//! is reopened — and looking it up must send the warehouse no statement.

use xomatiq_bioflat::enzyme::FIGURE2_SAMPLE;
use xomatiq_bioflat::{Corpus, CorpusSpec};
use xomatiq_core::{ShreddingStrategy, SourceKind, Xomatiq};
use xomatiq_datahounds::source::LoadOptions;
use xomatiq_xquery::{parse_query, translate, CatalogProvider, CollectionCatalog, QueryError};

/// Figures 8, 9 and 11, and the point lookup.
const PAPER_QUERIES: [&str; 4] = [
    r#"FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
           $b IN document("hlx_sprot.all")/hlx_p_sequence
       WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
       RETURN $b//sprot_accession_number, $a//embl_accession_number"#,
    r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE contains($a//catalytic_activity, "ketone")
       RETURN $a//enzyme_id, $a//enzyme_description"#,
    r#"FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
           $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
       WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
       RETURN $Accession_Number = $a//embl_accession_number,
              $Accession_Description = $a//description"#,
    r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
       WHERE $a//enzyme_id = "1.1.1.1" RETURN $a//enzyme_description"#,
];

/// The catalog as the warehouse's `_paths` tables hold it.
struct FromWarehouse<'a>(&'a Xomatiq);

impl CatalogProvider for FromWarehouse<'_> {
    fn collection(&self, name: &str) -> Result<CollectionCatalog, QueryError> {
        let hounds = self.0.hounds();
        let unknown = |_| QueryError::UnknownCollection(name.to_string());
        let prefix = hounds.prefix(name).map_err(unknown)?;
        let strategy = hounds.strategy(name).map_err(unknown)?;
        CollectionCatalog::from_warehouse(self.0.db(), name, &prefix, strategy)
    }
}

fn corpus(enzymes: usize) -> Corpus {
    Corpus::generate(&CorpusSpec {
        enzymes,
        embl: 40,
        swissprot: 40,
        keyword_rate: 0.15,
        link_rate: 0.35,
        ketone_rate: 0.2,
        seed: 11,
    })
}

/// Every paper query translates to the same SQL from both catalogs;
/// returns that SQL.
fn assert_same_sql(xq: &Xomatiq, when: &str) -> Vec<String> {
    let mut sql = Vec::new();
    for flwr in PAPER_QUERIES {
        let query = parse_query(flwr).unwrap();
        let held = translate(&query, xq).unwrap().sql;
        let read = translate(&query, &FromWarehouse(xq)).unwrap().sql;
        assert_eq!(held, read, "{when}: {flwr}");
        sql.push(held);
    }
    sql
}

fn load(xq: &Xomatiq, enzyme_flat: &str, corpus: &Corpus, options: LoadOptions) {
    for (collection, kind, flat) in [
        ("hlx_enzyme.DEFAULT", SourceKind::Enzyme, enzyme_flat),
        ("hlx_embl.inv", SourceKind::Embl, &corpus.embl_flat()),
        (
            "hlx_sprot.all",
            SourceKind::SwissProt,
            &corpus.swissprot_flat(),
        ),
    ] {
        xq.load_source_with(collection, kind, flat, options)
            .unwrap();
    }
}

#[test]
fn the_path_catalog_is_held_in_memory() {
    let corpus = corpus(60);
    let enzymes = "hlx_enzyme.DEFAULT";
    for strategy in [ShreddingStrategy::Edge, ShreddingStrategy::Interval] {
        let options = LoadOptions {
            strategy,
            ..LoadOptions::default()
        };
        // One small entry first, so the re-sync registers new paths.
        let xq = Xomatiq::in_memory();
        load(&xq, FIGURE2_SAMPLE, &corpus, options);
        assert_same_sql(&xq, "after a load");
        let before = xq.hounds().paths(enzymes).unwrap().len();
        xq.update_source(enzymes, &corpus.enzyme_flat()).unwrap();
        assert!(xq.hounds().paths(enzymes).unwrap().len() > before);
        assert_same_sql(&xq, "after a re-sync");

        // No statement reaches the warehouse: neither the plan cache's
        // counters nor the flight recorder move.
        let reg = xomatiq_obs::global();
        let (hit, miss) = (
            reg.counter("relstore.plan.cache_hit"),
            reg.counter("relstore.plan.cache_miss"),
        );
        let (hits, misses) = (hit.value(), miss.value());
        let recorded = xq.db().flight_recorder().snapshot().len();
        for _ in 0..100 {
            xq.collection(enzymes).unwrap();
        }
        assert_eq!((hit.value(), miss.value()), (hits, misses));
        assert_eq!(xq.db().flight_recorder().snapshot().len(), recorded);
    }
    // In the same test: the counters above are process-wide.
    a_reopened_warehouse_holds_its_path_catalog();
}

/// A durable warehouse reopened translates as it did before.
fn a_reopened_warehouse_holds_its_path_catalog() {
    let dir = std::env::temp_dir().join(format!("xomatiq-path-catalog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("wh.wal");
    let _ = std::fs::remove_file(&wal);
    let corpus = corpus(40);
    let before = {
        let xq = Xomatiq::open(&wal).unwrap();
        load(&xq, FIGURE2_SAMPLE, &corpus, LoadOptions::default());
        xq.update_source("hlx_enzyme.DEFAULT", &corpus.enzyme_flat())
            .unwrap();
        assert_same_sql(&xq, "before reopening")
    };
    let xq = Xomatiq::open(&wal).unwrap();
    assert_eq!(assert_same_sql(&xq, "after reopening"), before);
    drop(xq);
    std::fs::remove_dir_all(&dir).unwrap();
}
