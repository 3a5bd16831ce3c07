//! End-to-end XQ2SQL tests: the paper's Figure 8, 9 and 11 queries are
//! parsed, translated to SQL, executed on a warehouse loaded from a
//! synthetic corpus, and checked against the generator's planted ground
//! truth — under BOTH shredding strategies.

use std::collections::BTreeSet;
use std::sync::Arc;

use xomatiq_bioflat::{Corpus, CorpusSpec};
use xomatiq_datahounds::source::LoadOptions;
use xomatiq_datahounds::{DataHounds, ShreddingStrategy, SourceKind};
use xomatiq_relstore::Database;
use xomatiq_xquery::catalog::StaticCatalog;
use xomatiq_xquery::{parse_query, translate, CollectionCatalog};

const FIGURE8: &str = r#"
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_p_sequence
WHERE contains($a, "cdc6", any)
  AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number
"#;

const FIGURE9: &str = r#"
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description
"#;

const FIGURE11: &str = r#"
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description
"#;

struct Warehouse {
    db: Arc<Database>,
    catalog: StaticCatalog,
    corpus: Corpus,
}

fn build(strategy: ShreddingStrategy) -> Warehouse {
    let corpus = Corpus::generate(&CorpusSpec {
        enzymes: 40,
        embl: 40,
        swissprot: 40,
        keyword_rate: 0.2,
        link_rate: 0.4,
        ketone_rate: 0.25,
        seed: 7,
    });
    let db = Arc::new(Database::in_memory());
    let dh = DataHounds::new(Arc::clone(&db)).unwrap();
    let options = LoadOptions {
        strategy,
        ..LoadOptions::default()
    };
    dh.load_source(
        "hlx_enzyme.DEFAULT",
        SourceKind::Enzyme,
        &corpus.enzyme_flat(),
        options,
    )
    .unwrap();
    dh.load_source(
        "hlx_embl.inv",
        SourceKind::Embl,
        &corpus.embl_flat(),
        options,
    )
    .unwrap();
    dh.load_source(
        "hlx_sprot.all",
        SourceKind::SwissProt,
        &corpus.swissprot_flat(),
        options,
    )
    .unwrap();
    let mut catalog = StaticCatalog::default();
    for name in ["hlx_enzyme.DEFAULT", "hlx_embl.inv", "hlx_sprot.all"] {
        let prefix = dh.prefix(name).unwrap();
        catalog.push(CollectionCatalog::from_warehouse(&db, name, &prefix, strategy).unwrap());
    }
    Warehouse {
        db,
        catalog,
        corpus,
    }
}

fn run(warehouse: &Warehouse, query_text: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let query = parse_query(query_text).unwrap();
    let translated = translate(&query, &warehouse.catalog).unwrap();
    let rs = warehouse
        .db
        .query(&translated.sql)
        .run()
        .unwrap_or_else(|e| panic!("{e}\nSQL: {}", translated.sql))
        .rows;
    let rows = rs
        .rows()
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect();
    (translated.columns, rows)
}

fn both_strategies(test: impl Fn(&Warehouse, ShreddingStrategy)) {
    for strategy in [ShreddingStrategy::Edge, ShreddingStrategy::Interval] {
        let warehouse = build(strategy);
        test(&warehouse, strategy);
    }
}

#[test]
fn figure9_subtree_search_matches_ground_truth() {
    both_strategies(|w, strategy| {
        let (columns, rows) = run(w, FIGURE9);
        assert_eq!(
            columns,
            vec!["enzyme_id".to_string(), "enzyme_description".to_string()]
        );
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        let expected: BTreeSet<String> = w.corpus.ketone_enzymes.iter().cloned().collect();
        assert_eq!(got, expected, "{strategy:?}");
        assert!(
            !rows.is_empty(),
            "corpus should have planted ketone enzymes"
        );
    });
}

#[test]
fn figure8_keyword_search_matches_ground_truth() {
    both_strategies(|w, strategy| {
        let (columns, rows) = run(w, FIGURE8);
        assert_eq!(
            columns,
            vec![
                "sprot_accession_number".to_string(),
                "embl_accession_number".to_string()
            ]
        );
        // The query returns the cross product of matching Swiss-Prot and
        // EMBL entries (two independent bindings).
        let got_sprot: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        let got_embl: BTreeSet<String> = rows.iter().map(|r| r[1].clone()).collect();
        let want_sprot: BTreeSet<String> = w.corpus.cdc6_swissprot.iter().cloned().collect();
        let want_embl: BTreeSet<String> = w.corpus.cdc6_embl.iter().cloned().collect();
        assert_eq!(got_sprot, want_sprot, "{strategy:?}");
        assert_eq!(got_embl, want_embl, "{strategy:?}");
        assert_eq!(
            rows.len(),
            want_sprot.len() * want_embl.len(),
            "{strategy:?}"
        );
    });
}

#[test]
fn figure11_join_matches_planted_links() {
    both_strategies(|w, strategy| {
        let (columns, rows) = run(w, FIGURE11);
        assert_eq!(
            columns,
            vec![
                "Accession_Number".to_string(),
                "Accession_Description".to_string()
            ]
        );
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        let expected: BTreeSet<String> = w
            .corpus
            .planted_ec_links
            .iter()
            .map(|(acc, _)| acc.clone())
            .collect();
        assert_eq!(got, expected, "{strategy:?}");
        assert!(!rows.is_empty());
        // Descriptions come back alongside the accessions.
        for row in &rows {
            let entry = w
                .corpus
                .embl
                .iter()
                .find(|e| e.accession == row[0])
                .unwrap();
            assert_eq!(row[1], entry.description);
        }
    });
}

#[test]
fn edge_and_interval_agree_on_all_figures() {
    let edge = build(ShreddingStrategy::Edge);
    let interval = build(ShreddingStrategy::Interval);
    for q in [FIGURE8, FIGURE9, FIGURE11] {
        let (_, a) = run(&edge, q);
        let (_, b) = run(&interval, q);
        let sa: BTreeSet<Vec<String>> = a.into_iter().collect();
        let sb: BTreeSet<Vec<String>> = b.into_iter().collect();
        assert_eq!(sa, sb, "strategies diverged on:\n{q}");
    }
}

#[test]
fn numeric_comparison_on_attribute() {
    both_strategies(|w, _| {
        let (_, rows) = run(
            w,
            r#"FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
               WHERE $a//sequence/@length >= 300
               RETURN $a//embl_accession_number"#,
        );
        let expected: BTreeSet<String> = w
            .corpus
            .embl
            .iter()
            .filter(|e| e.sequence.len() >= 300)
            .map(|e| e.accession.clone())
            .collect();
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, expected);
        assert!(!expected.is_empty());
    });
}

#[test]
fn disjunction_and_negation() {
    both_strategies(|w, _| {
        let (_, rows) = run(
            w,
            r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               WHERE contains($a//catalytic_activity, "ketone")
                  OR contains($a//catalytic_activity, "pyruvate")
               RETURN $a//enzyme_id"#,
        );
        let expected: BTreeSet<String> = w
            .corpus
            .enzymes
            .iter()
            .filter(|e| {
                e.catalytic_activities.iter().any(|a| {
                    a.to_lowercase().contains("ketone") || a.to_lowercase().contains("pyruvate")
                })
            })
            .map(|e| e.id.clone())
            .collect();
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn equality_against_literal() {
    both_strategies(|w, _| {
        let target = &w.corpus.enzymes[3];
        let (_, rows) = run(
            w,
            &format!(
                r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
                   WHERE $a//enzyme_id = "{}"
                   RETURN $a//enzyme_id, $a//enzyme_description"#,
                target.id
            ),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], target.id);
        assert_eq!(rows[0][1], target.descriptions[0]);
    });
}

#[test]
fn attribute_access_in_return() {
    both_strategies(|w, _| {
        let (_, rows) = run(
            w,
            r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               RETURN $a//reference/@swissprot_accession_number"#,
        );
        let expected: BTreeSet<String> = w
            .corpus
            .enzymes
            .iter()
            .flat_map(|e| e.swissprot_refs.iter().map(|r| r.accession.clone()))
            .collect();
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn translation_errors() {
    let w = build(ShreddingStrategy::Interval);
    // Unknown collection.
    let q = parse_query(r#"FOR $a IN document("nope")/r RETURN $a//x"#).unwrap();
    assert!(translate(&q, &w.catalog).is_err());
    // Path matching nothing.
    let q = parse_query(
        r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme RETURN $a//nonexistent_element"#,
    )
    .unwrap();
    assert!(translate(&q, &w.catalog).is_err());
    // Unbound variable.
    let q =
        parse_query(r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme RETURN $z//enzyme_id"#)
            .unwrap();
    assert!(translate(&q, &w.catalog).is_err());
}

#[test]
fn generated_sql_uses_indexes() {
    let w = build(ShreddingStrategy::Interval);
    let q = parse_query(FIGURE9).unwrap();
    let t = translate(&q, &w.catalog).unwrap();
    let plan = w.db.query(&t.sql).planned().unwrap();
    assert!(
        plan.plan.uses_index(),
        "plan should use an index:\n{}",
        plan.plan.explain()
    );
}

#[test]
fn subtree_contains_searches_descendants_of_nonleaf_targets() {
    both_strategies(|w, _| {
        // comment_list has no direct text; the keyword lives in its
        // comment children. The sub-tree mode must still find it.
        let (_, rows) = run(
            w,
            r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               WHERE contains($a//comment_list, "substrates")
               RETURN $a//enzyme_id"#,
        );
        let expected: BTreeSet<String> = w
            .corpus
            .enzymes
            .iter()
            .filter(|e| {
                e.comments
                    .iter()
                    .any(|c| c.to_lowercase().contains("substrates"))
            })
            .map(|e| e.id.clone())
            .collect();
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, expected);
        assert!(
            !expected.is_empty(),
            "corpus should contain 'substrates' comments"
        );
    });
}

#[test]
fn whole_entry_subtree_search() {
    both_strategies(|w, _| {
        // Target the db_entry itself: keyword anywhere in the entry.
        let (_, rows) = run(
            w,
            r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               WHERE contains($a//db_entry, "Copper")
               RETURN $a//enzyme_id"#,
        );
        let expected: BTreeSet<String> = w
            .corpus
            .enzymes
            .iter()
            .filter(|e| e.to_flat().contains("Copper"))
            .map(|e| e.id.clone())
            .collect();
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn motif_matching_with_regex() {
    both_strategies(|w, _| {
        // An N-glycosylation-style motif over the protein sequences.
        let (_, rows) = run(
            w,
            r#"FOR $b IN document("hlx_sprot.all")/hlx_p_sequence
               WHERE matches($b//sequence, "N[^P][ST]")
               RETURN $b//sprot_accession_number"#,
        );
        let pattern = xomatiq_relstore::regex::Pattern::compile("N[^P][ST]").unwrap();
        let expected: BTreeSet<String> = w
            .corpus
            .swissprot
            .iter()
            .filter(|e| pattern.is_match(&e.sequence))
            .map(|e| e.accession.clone())
            .collect();
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, expected);
        assert!(
            !expected.is_empty(),
            "motif should occur in random protein sequences"
        );
    });
}

#[test]
fn matches_round_trips_through_text_form() {
    let q = parse_query(
        r#"FOR $b IN document("hlx_sprot.all")/hlx_p_sequence
           WHERE matches($b//sequence, "GG[AT]CC")
           RETURN $b//sprot_accession_number"#,
    )
    .unwrap();
    let printed = q.to_string();
    assert!(
        printed.contains("matches($b//sequence, \"GG[AT]CC\")"),
        "{printed}"
    );
    assert_eq!(parse_query(&printed).unwrap(), q);
}

#[test]
fn positional_predicate_selects_first_item() {
    both_strategies(|w, _| {
        // The FIRST Swiss-Prot reference of each enzyme (range predicate,
        // paper §2.2 "order as a data value").
        let (_, rows) = run(
            w,
            r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               RETURN $a//enzyme_id, $a//reference[1]/@swissprot_accession_number"#,
        );
        let expected: BTreeSet<(String, String)> = w
            .corpus
            .enzymes
            .iter()
            .filter(|e| !e.swissprot_refs.is_empty())
            .map(|e| (e.id.clone(), e.swissprot_refs[0].accession.clone()))
            .collect();
        let got: BTreeSet<(String, String)> =
            rows.iter().map(|r| (r[0].clone(), r[1].clone())).collect();
        assert_eq!(got, expected);
        assert!(!expected.is_empty());
    });
}

#[test]
fn before_and_after_operators() {
    both_strategies(|w, _| {
        // In every enzyme document the id element precedes the reference
        // list, so BEFORE selects all documents with both elements and
        // AFTER selects none.
        let with_refs: BTreeSet<String> = w
            .corpus
            .enzymes
            .iter()
            .filter(|e| !e.swissprot_refs.is_empty())
            .map(|e| e.id.clone())
            .collect();
        let (_, before_rows) = run(
            w,
            r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               WHERE $a//enzyme_id BEFORE $a//reference
               RETURN $a//enzyme_id"#,
        );
        let got: BTreeSet<String> = before_rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, with_refs);
        let (_, after_rows) = run(
            w,
            r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               WHERE $a//enzyme_id AFTER $a//reference
               RETURN $a//enzyme_id"#,
        );
        assert!(after_rows.is_empty());
    });
}

#[test]
fn order_operator_restrictions() {
    let w = build(ShreddingStrategy::Interval);
    let q = parse_query(
        r#"FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
           $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
           WHERE $a//description BEFORE $b//enzyme_id
           RETURN $a//embl_accession_number"#,
    )
    .unwrap();
    assert!(matches!(
        translate(&q, &w.catalog),
        Err(xomatiq_xquery::QueryError::Unsupported(_))
    ));
}

#[test]
fn positional_and_order_round_trip_text() {
    for src in [
        r#"FOR $a IN document("c")/r WHERE $a//x BEFORE $a//y RETURN $a//x"#,
        r#"FOR $a IN document("c")/r WHERE $a//x AFTER $a//y RETURN $a//x"#,
        r#"FOR $a IN document("c")/r RETURN $a//item[2]"#,
        r#"FOR $a IN document("c")/r RETURN $a//item[1]/@id"#,
    ] {
        let q = parse_query(src).unwrap();
        assert_eq!(parse_query(&q.to_string()).unwrap(), q, "{src}");
    }
}

#[test]
fn let_bindings_alias_path_expressions() {
    both_strategies(|w, _| {
        // A LET alias for the qualifier element, used with an attribute
        // predicate at the use site — Figure 11 rephrased with LET.
        let (_, rows) = run(
            w,
            r#"FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
                   $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
               LET $q := $a//qualifier[@qualifier_type = "EC number"],
                   $id := $b/enzyme_id
               WHERE $q = $id
               RETURN $Accession_Number = $a//embl_accession_number"#,
        );
        let expected: BTreeSet<String> = w
            .corpus
            .planted_ec_links
            .iter()
            .map(|(acc, _)| acc.clone())
            .collect();
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn let_chains_and_extension_steps() {
    both_strategies(|w, _| {
        // LET of a subtree, extended with further steps at the use site,
        // and a LET referencing an earlier LET.
        let (_, rows) = run(
            w,
            r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               LET $entry := $a/db_entry
               LET $refs := $entry/swissprot_reference_list
               WHERE contains($entry//catalytic_activity, "ketone")
               RETURN $a//enzyme_id, $refs/reference[1]/@swissprot_accession_number"#,
        );
        let expected: BTreeSet<String> = w
            .corpus
            .enzymes
            .iter()
            .filter(|e| !e.swissprot_refs.is_empty())
            .filter(|e| w.corpus.ketone_enzymes.contains(&e.id))
            .map(|e| e.id.clone())
            .collect();
        let got: BTreeSet<String> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(got, expected);
    });
}

#[test]
fn let_errors() {
    let w = build(ShreddingStrategy::Interval);
    // LET referencing an unbound variable.
    let q = parse_query(
        r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
           LET $x := $zz//enzyme_id
           RETURN $x"#,
    )
    .unwrap();
    assert!(matches!(
        translate(&q, &w.catalog),
        Err(xomatiq_xquery::QueryError::UnboundVariable(_))
    ));
    // Conflicting predicates at target and use site.
    let q2 = parse_query(
        r#"FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
           LET $q := $a//qualifier[@qualifier_type = "gene"]
           WHERE $q[@qualifier_type = "EC number"] = "x"
           RETURN $a//embl_accession_number"#,
    )
    .unwrap();
    assert!(matches!(
        translate(&q2, &w.catalog),
        Err(xomatiq_xquery::QueryError::Unsupported(_))
    ));
}

#[test]
fn let_round_trips_through_text() {
    let q = parse_query(
        r#"FOR $a IN document("c")/r
           LET $x := $a//item[1]
           WHERE $x = "v"
           RETURN $x/@id"#,
    )
    .unwrap();
    assert_eq!(q.lets.len(), 1);
    let printed = q.to_string();
    assert!(printed.contains("LET $x := $a//item[1]"), "{printed}");
    assert_eq!(parse_query(&printed).unwrap(), q);
}

#[test]
fn duplicate_return_names_are_disambiguated() {
    let w = build(ShreddingStrategy::Interval);
    let q = parse_query(
        r#"FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
               $b IN document("hlx_sprot.all")/hlx_p_sequence
           WHERE $a//embl_accession_number = $b//xref/@xref_id
           RETURN $a//organism, $b//organism"#,
    )
    .unwrap();
    let t = translate(&q, &w.catalog).unwrap();
    assert_eq!(
        t.columns,
        vec!["organism".to_string(), "organism_1".to_string()]
    );
    // And it executes.
    w.db.query(&t.sql).run().unwrap();
}
