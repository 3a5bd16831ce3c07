//! Cross-crate pipeline scenarios against the public API: durability,
//! concurrent query/update, both shredding strategies end-to-end, and the
//! full flat → XML → tuples → query → XML loop.

use std::sync::Arc;

use xomatiq_bioflat::{Corpus, CorpusSpec};
use xomatiq_core::{ChangeKind, ShreddingStrategy, SourceKind, Xomatiq};
use xomatiq_datahounds::source::LoadOptions;

fn wal(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xomatiq-pipeline-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{name}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn durable_warehouse_survives_restart_with_queries_intact() {
    let path = wal("restart");
    let corpus = Corpus::generate(&CorpusSpec::sized(25));
    {
        let xq = Xomatiq::open(&path).unwrap();
        xq.load_source(
            "hlx_enzyme.DEFAULT",
            SourceKind::Enzyme,
            &corpus.enzyme_flat(),
        )
        .unwrap();
    }
    let xq = Xomatiq::open(&path).unwrap();
    assert_eq!(xq.collections(), vec!["hlx_enzyme.DEFAULT".to_string()]);
    let target = &corpus.enzymes[7];
    let outcome = xq
        .query(&format!(
            r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               WHERE $a//enzyme_id = "{}"
               RETURN $a//enzyme_description"#,
            target.id
        ))
        .unwrap();
    assert_eq!(outcome.rows[0][0].to_string(), target.descriptions[0]);
    // Reconstruction also works post-recovery.
    let doc = xq.reconstruct("hlx_enzyme.DEFAULT", &target.id).unwrap();
    assert!(xomatiq_xml::to_string(&doc).contains(&target.id));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn updates_survive_restart() {
    let path = wal("update-restart");
    let corpus = Corpus::generate(&CorpusSpec::sized(15));
    {
        let xq = Xomatiq::open(&path).unwrap();
        xq.load_source("c", SourceKind::Enzyme, &corpus.enzyme_flat())
            .unwrap();
        let mut v2 = corpus.enzymes.clone();
        v2[3].descriptions = vec!["Updated description.".into()];
        let flat: String = v2.iter().map(|e| e.to_flat()).collect();
        let events = xq.update_source("c", &flat).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ChangeKind::Modified);
    }
    let xq = Xomatiq::open(&path).unwrap();
    let outcome = xq
        .query(&format!(
            r#"FOR $a IN document("c")/hlx_enzyme
               WHERE $a//enzyme_id = "{}"
               RETURN $a//enzyme_description"#,
            corpus.enzymes[3].id
        ))
        .unwrap();
    assert_eq!(outcome.rows[0][0].to_string(), "Updated description.");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_queries_during_updates() {
    let corpus = Corpus::generate(&CorpusSpec::sized(30));
    let xq = Arc::new(Xomatiq::in_memory());
    xq.load_source("c", SourceKind::Enzyme, &corpus.enzyme_flat())
        .unwrap();

    let stable_id = corpus.enzymes[0].id.clone();
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let xq = Arc::clone(&xq);
            let id = stable_id.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let outcome = xq
                        .query(&format!(
                            r#"FOR $a IN document("c")/hlx_enzyme
                               WHERE $a//enzyme_id = "{id}"
                               RETURN $a//enzyme_id"#
                        ))
                        .unwrap();
                    // Entry 0 is never modified by the writer below.
                    assert_eq!(outcome.rows.len(), 1);
                }
            })
        })
        .collect();
    let writer = {
        let xq = Arc::clone(&xq);
        let enzymes = corpus.enzymes.clone();
        std::thread::spawn(move || {
            for round in 0..5 {
                let mut v = enzymes.clone();
                v[5].descriptions = vec![format!("Round {round}.")];
                let flat: String = v.iter().map(|e| e.to_flat()).collect();
                xq.update_source("c", &flat).unwrap();
            }
        })
    };
    for h in readers {
        h.join().unwrap();
    }
    writer.join().unwrap();
    // Final state reflects the last update round.
    let outcome = xq
        .query(&format!(
            r#"FOR $a IN document("c")/hlx_enzyme
               WHERE $a//enzyme_id = "{}"
               RETURN $a//enzyme_description"#,
            corpus.enzymes[5].id
        ))
        .unwrap();
    assert_eq!(outcome.rows[0][0].to_string(), "Round 4.");
}

#[test]
fn both_strategies_full_loop() {
    let corpus = Corpus::generate(&CorpusSpec::sized(20));
    for strategy in [ShreddingStrategy::Edge, ShreddingStrategy::Interval] {
        let xq = Xomatiq::in_memory();
        xq.load_source_with(
            "c",
            SourceKind::Embl,
            &corpus.embl_flat(),
            LoadOptions {
                strategy,
                ..LoadOptions::default()
            },
        )
        .unwrap();
        // Query + reconstruct every document: the full loop.
        for entry in &corpus.embl {
            let outcome = xq
                .query(&format!(
                    r#"FOR $a IN document("c")/hlx_n_sequence
                       WHERE $a//embl_accession_number = "{}"
                       RETURN $a//embl_accession_number"#,
                    entry.accession
                ))
                .unwrap();
            assert_eq!(outcome.rows.len(), 1, "{strategy:?} {}", entry.accession);
            let doc = xq.reconstruct("c", &entry.accession).unwrap();
            let expected = xomatiq_datahounds::transform::embl_to_xml(entry).unwrap();
            assert!(
                expected.structurally_equal(&doc),
                "{strategy:?} {}",
                entry.accession
            );
        }
    }
}

#[test]
fn statistics_reflect_the_warehouse() {
    let corpus = Corpus::generate(&CorpusSpec::sized(12));
    let xq = Xomatiq::in_memory();
    xq.load_source("e", SourceKind::Enzyme, &corpus.enzyme_flat())
        .unwrap();
    xq.load_source("s", SourceKind::SwissProt, &corpus.swissprot_flat())
        .unwrap();
    let stats = xq.statistics().unwrap();
    assert_eq!(stats.len(), 2);
    for (name, docs, nodes) in stats {
        assert_eq!(docs, 12, "{name}");
        assert!(nodes > docs, "{name}");
    }
}

#[test]
fn load_without_indexes_still_answers_correctly() {
    let corpus = Corpus::generate(&CorpusSpec::sized(15));
    let indexed = Xomatiq::in_memory();
    indexed
        .load_source("c", SourceKind::Enzyme, &corpus.enzyme_flat())
        .unwrap();
    let bare = Xomatiq::in_memory();
    bare.load_source_with(
        "c",
        SourceKind::Enzyme,
        &corpus.enzyme_flat(),
        LoadOptions {
            with_indexes: false,
            ..LoadOptions::default()
        },
    )
    .unwrap();
    let q = r#"FOR $a IN document("c")/hlx_enzyme
               WHERE contains($a//db_entry, "Copper")
               RETURN $a//enzyme_id"#;
    let a = indexed.query(q).unwrap();
    let b = bare.query(q).unwrap();
    assert_eq!(a.rows, b.rows);
    // Only the indexed warehouse's plan uses an index.
    assert!(indexed
        .db()
        .query(&a.sql)
        .planned()
        .unwrap()
        .plan
        .uses_index());
    assert!(!bare.db().query(&b.sql).planned().unwrap().plan.uses_index());
}

#[test]
fn compaction_through_the_facade() {
    let path = wal("facade-compact");
    let corpus = Corpus::generate(&CorpusSpec::sized(10));
    {
        let xq = Xomatiq::open(&path).unwrap();
        xq.load_source("c", SourceKind::Enzyme, &corpus.enzyme_flat())
            .unwrap();
        // Churn to grow the log, then compact.
        for round in 0..10 {
            let mut v = corpus.enzymes.clone();
            v[0].descriptions = vec![format!("Round {round}.")];
            let flat: String = v.iter().map(|e| e.to_flat()).collect();
            xq.update_source("c", &flat).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        xq.db().checkpoint().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "{before} -> {after}");
    }
    // Everything still works after compaction + restart: queries,
    // reconstruction, further updates.
    let xq = Xomatiq::open(&path).unwrap();
    assert_eq!(xq.doc_count("c").unwrap(), 10);
    let outcome = xq
        .query(&format!(
            r#"FOR $a IN document("c")/hlx_enzyme
               WHERE $a//enzyme_id = "{}"
               RETURN $a//enzyme_description"#,
            corpus.enzymes[0].id
        ))
        .unwrap();
    assert_eq!(outcome.rows[0][0].to_string(), "Round 9.");
    let doc = xq.reconstruct("c", &corpus.enzymes[3].id).unwrap();
    assert!(xomatiq_xml::to_string(&doc).contains(&corpus.enzymes[3].id));
    let mut v = corpus.enzymes.clone();
    v[5].descriptions = vec!["Post-compaction change.".into()];
    let flat: String = v.iter().map(|e| e.to_flat()).collect();
    // The first update after compaction re-applies round-9's text too
    // (the snapshot comparison is against the original corpus flat).
    let events = xq.update_source("c", &flat).unwrap();
    assert!(events.iter().any(|e| e.entry_key == corpus.enzymes[5].id));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn grand_tour_of_the_public_api() {
    // One scenario touching every public surface of the facade.
    let corpus = Corpus::generate(&CorpusSpec::sized(20));
    let xq = Xomatiq::in_memory();

    // Load + collections + statistics + dtd.
    xq.load_source(
        "hlx_enzyme.DEFAULT",
        SourceKind::Enzyme,
        &corpus.enzyme_flat(),
    )
    .unwrap();
    assert_eq!(xq.collections().len(), 1);
    assert_eq!(xq.statistics().unwrap()[0].1, 20);
    assert_eq!(
        xq.dtd("hlx_enzyme.DEFAULT").unwrap().root(),
        Some("hlx_enzyme")
    );

    // Builder → run_query → render + tagger.
    let query = xomatiq_core::QueryBuilder::new()
        .for_var("a", "hlx_enzyme.DEFAULT", "/hlx_enzyme")
        .unwrap()
        .where_contains("$a//db_entry", "Copper")
        .unwrap()
        .return_path("$a//enzyme_id")
        .unwrap()
        .build()
        .unwrap();
    let outcome = xq.run_query(&query).unwrap();
    let table = xomatiq_core::render::render_table(&outcome);
    assert!(table.contains("enzyme_id"));
    let tagged = xomatiq_core::tagger::tag_results(&outcome).unwrap();
    assert!(xomatiq_xml::to_string(&tagged).contains("results"));

    // query / query_xml / explain_query text paths.
    let text = query.to_string();
    assert_eq!(xq.query(&text).unwrap().rows, outcome.rows);
    xq.query_xml(&text).unwrap();
    assert!(xq.explain_query(&text).unwrap().contains("-- Plan"));

    // Triggers + update + reconstruct.
    let rx = xq.subscribe();
    let mut v2 = corpus.enzymes.clone();
    v2[0].cofactors = vec!["Molybdenum".into()];
    let flat: String = v2.iter().map(|e| e.to_flat()).collect();
    assert_eq!(
        xq.update_source("hlx_enzyme.DEFAULT", &flat).unwrap().len(),
        1
    );
    assert_eq!(rx.try_recv().unwrap().kind, ChangeKind::Modified);
    let doc = xq.reconstruct("hlx_enzyme.DEFAULT", &v2[0].id).unwrap();
    assert!(xomatiq_xml::to_string(&doc).contains("Molybdenum"));
}

/// XQ2SQL orders every result by its first output alias. When that alias
/// is also a column of a table the SQL reads (`aval` of `_attrs`), the
/// rows must still come back sorted by the output column.
#[test]
fn results_sort_by_the_first_return_name() {
    let corpus = Corpus::generate(&CorpusSpec::sized(40));
    let xq = Xomatiq::in_memory();
    xq.load_source("hlx_embl.inv", SourceKind::Embl, &corpus.embl_flat())
        .unwrap();
    for name in ["aval", "d"] {
        let outcome = xq
            .query(&format!(
                r#"FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry
                   WHERE $a//qualifier[@qualifier_type = "EC number"] = $a//qualifier
                   RETURN ${name} = $a//description"#
            ))
            .unwrap();
        let values: Vec<String> = outcome.rows.iter().map(|r| r[0].to_string()).collect();
        let mut sorted = values.clone();
        sorted.sort();
        assert_eq!(values.len(), 11, "${name}");
        assert_eq!(values, sorted, "${name}");
    }
}
