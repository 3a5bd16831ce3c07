//! A miniature gRNA deployment: three warehouses, one query surface.
//!
//! The paper positions XomatiQ as querying "one or more distributed or
//! local warehouses managed within the gRNA" (§3). Here each biological
//! database lives in its own warehouse node (as a distributed deployment
//! would place them), and the Figure 11 join runs across the federation —
//! split into per-node sub-queries and recombined by one relstore
//! statement.
//!
//! Run with: `cargo run --release --example federated_grna [entries]`

use std::sync::Arc;

use xomatiq_bioflat::{Corpus, CorpusSpec};
use xomatiq_core::render::render_table;
use xomatiq_core::{Federation, SourceKind, Xomatiq};

fn main() {
    let entries: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000);
    let corpus = Corpus::generate(&CorpusSpec {
        enzymes: entries,
        embl: entries,
        swissprot: entries,
        link_rate: 0.25,
        ..CorpusSpec::default()
    });

    // Three "nodes", one database each.
    let mut federation = Federation::new();
    for (node, collection, kind, flat) in [
        (
            "node-embl",
            "hlx_embl.inv",
            SourceKind::Embl,
            corpus.embl_flat(),
        ),
        (
            "node-enzyme",
            "hlx_enzyme.DEFAULT",
            SourceKind::Enzyme,
            corpus.enzyme_flat(),
        ),
        (
            "node-sprot",
            "hlx_sprot.all",
            SourceKind::SwissProt,
            corpus.swissprot_flat(),
        ),
    ] {
        let xq = Arc::new(Xomatiq::in_memory());
        xq.load_source(collection, kind, &flat).expect("load");
        println!("{node}: warehoused {collection} ({entries} entries)");
        federation.add_warehouse(node, xq);
    }
    println!();

    // The Figure 11 join, now spanning two nodes.
    let query = r#"
        FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
            $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
        WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
        RETURN $Accession_Number = $a//embl_accession_number,
               $Enzyme = $b//enzyme_description
    "#;
    let start = std::time::Instant::now();
    let outcome = federation.query(query).expect("federated join runs");
    println!(
        "-- Federated Figure 11 join: {} rows in {:.2?} --",
        outcome.rows.len(),
        start.elapsed()
    );
    let preview = xomatiq_core::QueryOutcome {
        columns: outcome.columns.clone(),
        rows: outcome.rows.iter().take(8).cloned().collect(),
        sql: String::new(),
    };
    println!("{}", render_table(&preview));
    assert_eq!(outcome.rows.len(), corpus.planted_ec_links.len());
    println!(
        "Verified against planted links: {} rows as expected.\n",
        corpus.planted_ec_links.len()
    );

    // A three-node correlation: EMBL → ENZYME → Swiss-Prot.
    let three_way = r#"
        FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
            $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry,
            $c IN document("hlx_sprot.all")/hlx_p_sequence/db_entry
        WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
          AND $b//reference/@swissprot_accession_number = $c/sprot_accession_number
        RETURN $a//embl_accession_number, $b/enzyme_id, $c//entry_name
    "#;
    let start = std::time::Instant::now();
    let outcome = federation.query(three_way).expect("three-way runs");
    println!(
        "-- Three-node correlation: {} rows in {:.2?} --",
        outcome.rows.len(),
        start.elapsed()
    );
    let preview = xomatiq_core::QueryOutcome {
        columns: outcome.columns.clone(),
        rows: outcome.rows.iter().take(8).cloned().collect(),
        sql: String::new(),
    };
    println!("{}", render_table(&preview));
}
