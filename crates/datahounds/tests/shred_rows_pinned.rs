//! Pins the exact rows the shredder writes. Every column of `_nodes` and
//! `_attrs` is hashed in row order — including `ord`, `level`, `path`,
//! `num_val` and `is_seq`, which the shred → reconstruct round trip never
//! reads — under both strategies, for a seeded corpus of all three flat
//! sources, for a re-sync of its ENZYME collection, and for a hand-written
//! document with mixed content, comments, processing instructions and
//! attributes.

use std::sync::Arc;

use xomatiq_bioflat::{Corpus, CorpusSpec};
use xomatiq_datahounds::shred::{create_collection_tables, shred_document, ShreddingStrategy};
use xomatiq_datahounds::source::LoadOptions;
use xomatiq_datahounds::{DataHounds, SourceKind};
use xomatiq_relstore::Database;

/// FNV-1a over the debug form of every cell, with row and cell separators
/// so that a value moving between columns changes the digest.
fn table_digest(db: &Database, table: &str) -> String {
    let rows = db
        .query(&format!("SELECT * FROM {table}"))
        .run()
        .unwrap()
        .rows;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in rows.rows() {
        for cell in row.iter() {
            eat(format!("{cell:?}").as_bytes());
            eat(&[0xff]);
        }
        eat(&[0xfe]);
    }
    format!("{h:016x}/{}", rows.rows().len())
}

fn digests(db: &Database, prefix: &str) -> [String; 2] {
    [
        table_digest(db, &format!("{prefix}_nodes")),
        table_digest(db, &format!("{prefix}_attrs")),
    ]
}

const MIXED: &str = "<hlx_root kind=\"demo\" n=\"42\">\
<!-- leading comment -->\
<?app first pass?>\
<item id=\"a'1\" weight=\"2.5\">Copper <b>and</b> zinc, 7 ions</item>\
<note>-3</note>\
<sequence len=\"8\">acgtacgt</sequence>\
<empty/>\
tail text<!--inner--><?app last?>\
<item id=\"b\"><item depth=\"2\">1.14.17.3</item>  padded  </item>\
</hlx_root>";

fn corpus_digests(strategy: ShreddingStrategy) -> Vec<[String; 2]> {
    let corpus = Corpus::generate(&CorpusSpec::sized(12));
    let db = Arc::new(Database::in_memory());
    let hounds = DataHounds::new(Arc::clone(&db)).unwrap();
    let options = LoadOptions {
        strategy,
        ..LoadOptions::default()
    };
    let sources = [
        (
            "hlx_enzyme.DEFAULT",
            SourceKind::Enzyme,
            corpus.enzyme_flat(),
        ),
        ("hlx_embl.inv", SourceKind::Embl, corpus.embl_flat()),
        (
            "hlx_sprot.all",
            SourceKind::SwissProt,
            corpus.swissprot_flat(),
        ),
    ];
    let mut out = Vec::new();
    for (name, kind, flat) in &sources {
        hounds.load_source(name, *kind, flat, options).unwrap();
        out.push(digests(&db, &hounds.prefix(name).unwrap()));
    }
    // A re-sync: one entry removed, one modified, one added.
    let mut enzymes = corpus.enzymes.clone();
    enzymes.remove(0);
    enzymes[0].descriptions = vec!["Renamed 7 times.".into()];
    let mut added = enzymes[1].clone();
    added.id = "9.9.9.99".into();
    enzymes.push(added);
    let flat: String = enzymes.iter().map(|e| e.to_flat()).collect();
    assert_eq!(hounds.update_source(sources[0].0, &flat).unwrap().len(), 3);
    out.push(digests(&db, "hlx_enzyme_default"));
    let doc = xomatiq_xml::parse(MIXED).unwrap();
    create_collection_tables(&db, "mixed").unwrap();
    shred_document(&db, "mixed", strategy, 3, "mixed", &doc).unwrap();
    out.push(digests(&db, "mixed"));
    out
}

fn check(strategy: ShreddingStrategy, expected: [[&str; 2]; 5]) {
    let got = corpus_digests(strategy);
    let got: Vec<[&str; 2]> = got.iter().map(|[n, a]| [n.as_str(), a.as_str()]).collect();
    assert_eq!(got, expected, "{strategy:?} rows changed");
}

#[test]
fn edge_rows_are_pinned() {
    check(
        ShreddingStrategy::Edge,
        [
            ["ef88cfc05523eda5/242", "24da5f60349d0a81/51"],
            ["bfc25dc8f4a8f125/304", "6e9ce2043f807d90/88"],
            ["d5cbefd9e2a358fc/231", "1d32cf6884fb47f5/34"],
            ["201e5cfa9e9acc8d/238", "6336a93177bd4771/49"],
            ["f0dbda1efe84fe5b/20", "7516a1f6f54708b3/7"],
        ],
    );
}

#[test]
fn interval_rows_are_pinned() {
    check(
        ShreddingStrategy::Interval,
        [
            ["ca9f29a4582ee7f2/242", "52cbff9708b1e0c3/51"],
            ["aee0f6b63ca1847d/304", "91006672a1d34f8c/88"],
            ["b47ca6347859c709/231", "0b60a45aada39238/34"],
            ["a7db0ef4ad41b3c8/238", "d152f103d7e9fbc9/49"],
            ["dc32dfcda972c6fa/20", "edd80685449750bb/7"],
        ],
    );
}
