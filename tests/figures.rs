//! Figure-by-figure reproduction tests against the public API.
//!
//! Each test regenerates one artifact of the paper and checks its
//! landmarks (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for the recorded outcomes).

use xomatiq_bioflat::enzyme::{parse_enzyme_file, FIGURE2_SAMPLE};
use xomatiq_bioflat::{Corpus, CorpusSpec};
use xomatiq_core::{QueryBuilder, ShreddingStrategy, SourceKind, Xomatiq};
use xomatiq_datahounds::source::LoadOptions;
use xomatiq_datahounds::transform::{enzyme_dtd, enzyme_to_xml};
use xomatiq_xml::dtd::validate;

/// Figure 2: the sample ENZYME entry parses into its documented fields.
#[test]
fn fig2_sample_entry_parses() {
    let entries = parse_enzyme_file(FIGURE2_SAMPLE).unwrap();
    assert_eq!(entries.len(), 1);
    let e = &entries[0];
    assert_eq!(e.id, "1.14.17.3");
    assert_eq!(e.descriptions[0], "Peptidylglycine monooxygenase.");
    assert_eq!(e.alternate_names.len(), 2);
    assert_eq!(e.cofactors, vec!["Copper"]);
    assert_eq!(e.swissprot_refs.len(), 5);
    assert_eq!(e.prosite_refs, vec!["PDOC00080"]);
}

/// Figures 3–4: the line discipline (2-char code, data from column 6).
#[test]
fn fig3_fig4_line_structure() {
    for line in FIGURE2_SAMPLE.lines() {
        let parsed = xomatiq_bioflat::line::split_line(line).unwrap();
        assert!(
            ["ID", "DE", "AN", "CA", "CF", "CC", "PR", "DR", "DI", "//"].contains(&parsed.code),
            "unexpected line code {:?}",
            parsed.code
        );
        if parsed.code != "//" {
            // Columns 3–5 are blank.
            assert!(line[2..5].trim().is_empty(), "{line:?}");
        }
    }
}

/// Figure 5: the generated ENZYME DTD has the documented structure.
#[test]
fn fig5_enzyme_dtd() {
    let dtd = enzyme_dtd();
    let printed = dtd.to_string();
    for landmark in [
        "<!ELEMENT hlx_enzyme (db_entry)>",
        "enzyme_description+",
        "catalytic_activity*",
        "<!ELEMENT alternate_name_list (alternate_name)*>",
        "prosite_accession_number NMTOKEN #REQUIRED",
        "name CDATA #REQUIRED",
        "swissprot_accession_number NMTOKEN #REQUIRED",
        "mim_id CDATA #REQUIRED",
    ] {
        assert!(
            printed.contains(landmark),
            "missing {landmark:?} in:\n{printed}"
        );
    }
    // The printed DTD reparses to the identical model.
    assert_eq!(xomatiq_xml::dtd::parse_dtd(&printed).unwrap(), dtd);
}

/// Figure 6: the XML version of the Figure 2 entry.
#[test]
fn fig6_xml_of_sample_entry() {
    let entry = parse_enzyme_file(FIGURE2_SAMPLE).unwrap().remove(0);
    let doc = enzyme_to_xml(&entry).unwrap();
    validate(&doc, &enzyme_dtd()).unwrap();
    let xml = xomatiq_xml::to_string_pretty(&doc);
    for landmark in [
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
        "<hlx_enzyme>",
        "<db_entry>",
        "<enzyme_id>1.14.17.3</enzyme_id>",
        "<enzyme_description>Peptidylglycine monooxygenase.</enzyme_description>",
        "<alternate_name>Peptidyl alpha-amidating enzyme</alternate_name>",
        "<cofactor>Copper</cofactor>",
        "<prosite_reference prosite_accession_number=\"PDOC00080\"/>",
        "<reference name=\"AMD_BOVIN\" swissprot_accession_number=\"P10731\"/>",
        "<reference name=\"AMD2_XENLA\" swissprot_accession_number=\"P12890\"/>",
        "<disease_list/>",
    ] {
        assert!(xml.contains(landmark), "missing {landmark:?} in:\n{xml}");
    }
}

fn full_warehouse() -> (Xomatiq, Corpus) {
    warehouse(LoadOptions::default())
}

fn warehouse(options: LoadOptions) -> (Xomatiq, Corpus) {
    let corpus = Corpus::generate(&CorpusSpec {
        enzymes: 60,
        embl: 60,
        swissprot: 60,
        keyword_rate: 0.15,
        link_rate: 0.35,
        ketone_rate: 0.2,
        seed: 11,
    });
    let xq = Xomatiq::in_memory();
    for (collection, kind, flat) in [
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
    ] {
        xq.load_source_with(collection, kind, &flat, options)
            .unwrap();
    }
    (xq, corpus)
}

/// Figures 7 + 9: the "ketone" sub-tree search, GUI-built and text-form,
/// with both result views.
#[test]
fn fig7_fig9_subtree_search() {
    let (xq, corpus) = full_warehouse();
    let built = QueryBuilder::subtree_search(
        "a",
        "hlx_enzyme.DEFAULT",
        "/hlx_enzyme",
        "$a//catalytic_activity",
        "ketone",
        &["$a//enzyme_id", "$a//enzyme_description"],
    )
    .unwrap();
    // The GUI's textual form parses back to the same query (Figure 9).
    let text_form = built.to_string();
    assert_eq!(xomatiq_xquery::parse_query(&text_form).unwrap(), built);

    let outcome = xq.run_query(&built).unwrap();
    let got: std::collections::BTreeSet<String> =
        outcome.rows.iter().map(|r| r[0].to_string()).collect();
    let want: std::collections::BTreeSet<String> = corpus.ketone_enzymes.iter().cloned().collect();
    assert_eq!(got, want);
    assert!(!outcome.rows.is_empty());

    // Figure 7(b): table panel + document panel for the first hit.
    let table = xomatiq_core::render::render_table(&outcome);
    assert!(table.contains("enzyme_id"));
    let first = outcome.rows[0][0].to_string();
    let doc = xq.reconstruct("hlx_enzyme.DEFAULT", &first).unwrap();
    let tree = xomatiq_core::render::render_tree(&doc);
    assert!(tree.contains(&format!("enzyme_id: {first}")), "{tree}");
}

/// Figure 8: the cdc6 keyword search across EMBL and Swiss-Prot.
#[test]
fn fig8_keyword_search() {
    let (xq, corpus) = full_warehouse();
    let query = QueryBuilder::keyword_search(
        &[
            ("a", "hlx_embl.inv", "/hlx_n_sequence"),
            ("b", "hlx_sprot.all", "/hlx_p_sequence"),
        ],
        "cdc6",
        &["$b//sprot_accession_number", "$a//embl_accession_number"],
    )
    .unwrap();
    let outcome = xq.run_query(&query).unwrap();
    assert_eq!(
        outcome.rows.len(),
        corpus.cdc6_embl.len() * corpus.cdc6_swissprot.len()
    );
    assert!(!outcome.rows.is_empty());
}

/// Figures 10–12: the EMBL ⋈ ENZYME join on EC number, with both panels.
#[test]
fn fig10_to_fig12_join() {
    let (xq, corpus) = full_warehouse();
    let query = QueryBuilder::join(
        ("a", "hlx_embl.inv", "/hlx_n_sequence/db_entry"),
        ("b", "hlx_enzyme.DEFAULT", "/hlx_enzyme/db_entry"),
        "$a//qualifier[@qualifier_type = \"EC number\"]",
        "$b/enzyme_id",
        &[
            ("Accession_Number", "$a//embl_accession_number"),
            ("Accession_Description", "$a//description"),
        ],
    )
    .unwrap();
    let outcome = xq.run_query(&query).unwrap();
    let got: std::collections::BTreeSet<String> =
        outcome.rows.iter().map(|r| r[0].to_string()).collect();
    let want: std::collections::BTreeSet<String> = corpus
        .planted_ec_links
        .iter()
        .map(|(a, _)| a.clone())
        .collect();
    assert_eq!(got, want);
    assert!(!outcome.rows.is_empty());

    // Figure 12's XML structure format.
    let tagged = xomatiq_core::tagger::tag_results(&outcome).unwrap();
    let xml = xomatiq_xml::to_string(&tagged);
    assert!(xml.contains("<accession_number>"));
    assert!(xml.contains(&format!("count=\"{}\"", outcome.rows.len())));
}

// ---- the plans the paper's queries get ------------------------------------

/// Figures 8, 9 and 11 as the paper prints them, and the FLWR point lookup
/// the wire benchmark drives.
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

const EDGE_PLANS: [&str; 4] = [
    // Figure 8
    r#"
Distinct
  Sort (1 keys)
    Project [sprot_accession_number, embl_accession_number]
      NestedLoopJoin
        HashJoin (1 keys)
          HashSemiJoin (1 keys)
            IndexScan hlx_embl_inv_nodes AS n0 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id]
            KeywordScan hlx_embl_inv_nodes AS n2 USING hlx_embl_inv_nodes_kw FOR "cdc6" pushed=[] residual=[CONTAINS(n2.val, 'cdc6')] cols=[doc_id, val]
          IndexScan hlx_embl_inv_nodes AS n5 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, val]
        HashJoin (1 keys)
          HashSemiJoin (1 keys)
            IndexScan hlx_sprot_all_nodes AS n1 USING hlx_sprot_all_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id]
            KeywordScan hlx_sprot_all_nodes AS n3 USING hlx_sprot_all_nodes_kw FOR "cdc6" pushed=[] residual=[CONTAINS(n3.val, 'cdc6')] cols=[doc_id, val]
          IndexScan hlx_sprot_all_nodes AS n4 USING hlx_sprot_all_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, val]
"#,
    // Figure 9
    r#"
Distinct
  Sort (1 keys)
    Project [enzyme_id, enzyme_description]
      HashJoin (1 keys)
        HashJoin (1 keys)
          HashSemiJoin (1 keys)
            IndexScan hlx_enzyme_default_nodes AS n0 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id]
            KeywordScan hlx_enzyme_default_nodes AS n1 USING hlx_enzyme_default_nodes_kw FOR "ketone" pushed=[] residual=[((n1.path = '/hlx_enzyme/db_entry/catalytic_activity') AND CONTAINS(n1.val, 'ketone'))] cols=[doc_id, path, val]
          IndexScan hlx_enzyme_default_nodes AS n2 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, val]
        IndexScan hlx_enzyme_default_nodes AS n3 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, val]
"#,
    // Figure 11
    r#"
Distinct
  Sort (1 keys)
    Project [Accession_Number, Accession_Description]
      HashJoin (1 keys)
        HashJoin (1 keys)
          HashSemiJoin (1 keys)
            HashJoin (1 keys)
              HashSemiJoin (2 keys)
                HashJoin (1 keys)
                  IndexScan hlx_embl_inv_nodes AS n0 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id]
                  IndexScan hlx_embl_inv_nodes AS n2 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, node_id, val]
                Scan hlx_embl_inv_attrs AS a0 pushed=[a0.aname = 'qualifier_type', a0.aval = 'EC number'] residual=[] cols=[doc_id, owner]
              IndexScan hlx_enzyme_default_nodes AS n3 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, val]
            IndexScan hlx_enzyme_default_nodes AS n1 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id]
          IndexScan hlx_embl_inv_nodes AS n4 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, val]
        IndexScan hlx_embl_inv_nodes AS n5 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, val]
"#,
    // the point lookup
    r#"
Distinct
  Sort (1 keys)
    Project [enzyme_description]
      HashJoin (1 keys)
        HashSemiJoin (1 keys)
          IndexScan hlx_enzyme_default_nodes AS n0 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id]
          IndexScan hlx_enzyme_default_nodes AS n1 USING hlx_enzyme_default_nodes_path exact(2 cols) pushed=[] residual=[] cols=[doc_id]
        IndexScan hlx_enzyme_default_nodes AS n2 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, val]
"#,
];

const INTERVAL_PLANS: [&str; 4] = [
    // Figure 8
    r#"
Distinct
  Sort (1 keys)
    Project [sprot_accession_number, embl_accession_number]
      NestedLoopJoin
        HashJoin (1 keys)
          HashSemiJoin (1 keys)
            IndexScan hlx_embl_inv_nodes AS n0 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, stop]
            KeywordScan hlx_embl_inv_nodes AS n2 USING hlx_embl_inv_nodes_kw FOR "cdc6" pushed=[] residual=[CONTAINS(n2.val, 'cdc6')] cols=[doc_id, val]
          IndexScan hlx_embl_inv_nodes AS n5 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, val]
        HashJoin (1 keys)
          HashSemiJoin (1 keys)
            IndexScan hlx_sprot_all_nodes AS n1 USING hlx_sprot_all_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, stop]
            KeywordScan hlx_sprot_all_nodes AS n3 USING hlx_sprot_all_nodes_kw FOR "cdc6" pushed=[] residual=[CONTAINS(n3.val, 'cdc6')] cols=[doc_id, val]
          IndexScan hlx_sprot_all_nodes AS n4 USING hlx_sprot_all_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, val]
"#,
    // Figure 9
    r#"
Distinct
  Sort (1 keys)
    Project [enzyme_id, enzyme_description]
      HashJoin (1 keys)
        HashJoin (1 keys)
          HashJoin (1 keys)
            IndexScan hlx_enzyme_default_nodes AS n0 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, stop]
            KeywordScan hlx_enzyme_default_nodes AS n1 USING hlx_enzyme_default_nodes_kw FOR "ketone" pushed=[] residual=[((n1.path = '/hlx_enzyme/db_entry/catalytic_activity') AND CONTAINS(n1.val, 'ketone'))] cols=[doc_id, start, path, val]
          IndexScan hlx_enzyme_default_nodes AS n2 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, val]
        IndexScan hlx_enzyme_default_nodes AS n3 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, val]
"#,
    // Figure 11
    r#"
Distinct
  Sort (1 keys)
    Project [Accession_Number, Accession_Description]
      HashJoin (1 keys)
        HashJoin (1 keys)
          HashJoin (1 keys)
            HashJoin (1 keys)
              HashSemiJoin (2 keys)
                HashJoin (1 keys)
                  IndexScan hlx_embl_inv_nodes AS n0 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, stop]
                  IndexScan hlx_embl_inv_nodes AS n2 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, node_id, start, val]
                Scan hlx_embl_inv_attrs AS a0 pushed=[a0.aname = 'qualifier_type', a0.aval = 'EC number'] residual=[] cols=[doc_id, owner]
              IndexScan hlx_enzyme_default_nodes AS n3 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, val]
            IndexScan hlx_enzyme_default_nodes AS n1 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, stop]
          IndexScan hlx_embl_inv_nodes AS n4 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, val]
        IndexScan hlx_embl_inv_nodes AS n5 USING hlx_embl_inv_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, val]
"#,
    // the point lookup
    r#"
Distinct
  Sort (1 keys)
    Project [enzyme_description]
      HashJoin (1 keys)
        HashJoin (1 keys)
          IndexScan hlx_enzyme_default_nodes AS n0 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, stop]
          IndexScan hlx_enzyme_default_nodes AS n1 USING hlx_enzyme_default_nodes_path exact(2 cols) pushed=[] residual=[] cols=[doc_id, start]
        IndexScan hlx_enzyme_default_nodes AS n2 USING hlx_enzyme_default_nodes_path exact(1 cols) pushed=[] residual=[] cols=[doc_id, start, val]
"#,
];

/// The plan of a FLWR query as `EXPLAIN` renders it, estimates stripped
/// (they move with the corpus; the structure must not).
fn plan_structure(xq: &Xomatiq, flwr: &str) -> String {
    let explained = xq.explain_query(flwr).unwrap();
    let (_, plan) = explained.split_once("-- Plan\n").unwrap();
    plan.lines()
        .filter(|line| !line.starts_with("parallel="))
        .map(|line| line.split("  [est=").next().unwrap().to_string() + "\n")
        .collect()
}

/// §3.2 credits the system's query times to indexes shaped "by meticulous
/// analysis of the query plans": these are the plans, under both
/// shreddings — operators, each leaf's method, what the kernels were
/// handed (`pushed`), what is re-checked per row (`residual`) and the
/// columns materialized. A planner change that moves any of it shows up
/// here as a reviewable diff.
#[test]
fn paper_query_plans_are_pinned() {
    for (strategy, pinned) in [
        (ShreddingStrategy::Edge, EDGE_PLANS),
        (ShreddingStrategy::Interval, INTERVAL_PLANS),
    ] {
        let (xq, _) = warehouse(LoadOptions {
            strategy,
            ..LoadOptions::default()
        });
        for (flwr, want) in PAPER_QUERIES.iter().zip(pinned) {
            let got = plan_structure(&xq, flwr);
            assert_eq!(got, want.trim_start_matches('\n'), "{strategy:?}: {flwr}");
            // A leaf carries its own predicate — no Filter sits on one —
            // and says where every part of it went.
            let lines: Vec<&str> = got.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if !line.contains("Scan ") {
                    continue;
                }
                assert_ne!(lines[i - 1].trim(), "Filter", "{got}");
                for part in ["pushed=[", "residual=[", "cols=["] {
                    assert!(line.contains(part), "{line}");
                }
            }
        }
    }
}
