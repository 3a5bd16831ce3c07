//! Federated-query tests: the paper's "one or more distributed or local
//! warehouses" (§3). Ground truth for every federated result is the same
//! query run against a single warehouse holding all collections.

use std::collections::BTreeSet;
use std::sync::Arc;

use xomatiq_bioflat::{Corpus, CorpusSpec};
use xomatiq_core::{Federation, SourceKind, Xomatiq};

const FIG11: &str = r#"
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description
"#;

const FIG8: &str = r#"
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_p_sequence
WHERE contains($a, "cdc6", any)
  AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number
"#;

struct Setup {
    federation: Federation,
    single: Xomatiq,
    corpus: Corpus,
}

/// Three collections spread over three warehouses, plus one warehouse
/// holding everything (the oracle).
fn setup() -> Setup {
    let corpus = Corpus::generate(&CorpusSpec {
        enzymes: 50,
        embl: 50,
        swissprot: 50,
        keyword_rate: 0.2,
        link_rate: 0.4,
        ketone_rate: 0.2,
        seed: 13,
    });
    let mut federation = Federation::new();
    let node_a = Arc::new(Xomatiq::in_memory());
    node_a
        .load_source("hlx_embl.inv", SourceKind::Embl, &corpus.embl_flat())
        .unwrap();
    federation.add_warehouse("node-a", node_a);
    let node_b = Arc::new(Xomatiq::in_memory());
    node_b
        .load_source(
            "hlx_enzyme.DEFAULT",
            SourceKind::Enzyme,
            &corpus.enzyme_flat(),
        )
        .unwrap();
    federation.add_warehouse("node-b", node_b);
    let node_c = Arc::new(Xomatiq::in_memory());
    node_c
        .load_source(
            "hlx_sprot.all",
            SourceKind::SwissProt,
            &corpus.swissprot_flat(),
        )
        .unwrap();
    federation.add_warehouse("node-c", node_c);

    let single = Xomatiq::in_memory();
    single
        .load_source("hlx_embl.inv", SourceKind::Embl, &corpus.embl_flat())
        .unwrap();
    single
        .load_source(
            "hlx_enzyme.DEFAULT",
            SourceKind::Enzyme,
            &corpus.enzyme_flat(),
        )
        .unwrap();
    single
        .load_source(
            "hlx_sprot.all",
            SourceKind::SwissProt,
            &corpus.swissprot_flat(),
        )
        .unwrap();
    Setup {
        federation,
        single,
        corpus,
    }
}

fn rows_of(outcome: &xomatiq_core::QueryOutcome) -> BTreeSet<Vec<String>> {
    outcome
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect()
}

#[test]
fn single_warehouse_queries_delegate() {
    let s = setup();
    let q = r#"FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
               WHERE contains($a//catalytic_activity, "ketone")
               RETURN $a//enzyme_id"#;
    let fed = s.federation.query(q).unwrap();
    let oracle = s.single.query(q).unwrap();
    assert_eq!(rows_of(&fed), rows_of(&oracle));
    assert!(!fed.rows.is_empty());
}

#[test]
fn cross_warehouse_join_matches_single_warehouse() {
    let s = setup();
    let fed = s.federation.query(FIG11).unwrap();
    let oracle = s.single.query(FIG11).unwrap();
    assert_eq!(fed.columns, oracle.columns);
    assert_eq!(rows_of(&fed), rows_of(&oracle));
    assert_eq!(fed.rows.len(), s.corpus.planted_ec_links.len());
}

#[test]
fn cross_warehouse_keyword_search_matches_single_warehouse() {
    let s = setup();
    let fed = s.federation.query(FIG8).unwrap();
    let oracle = s.single.query(FIG8).unwrap();
    assert_eq!(rows_of(&fed), rows_of(&oracle));
    assert_eq!(
        fed.rows.len(),
        s.corpus.cdc6_embl.len() * s.corpus.cdc6_swissprot.len()
    );
}

#[test]
fn three_warehouse_query() {
    let s = setup();
    // Correlate all three databases: enzymes linked from EMBL entries
    // whose Swiss-Prot reference appears in the federation's third node.
    let q = r#"
        FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
            $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry,
            $c IN document("hlx_sprot.all")/hlx_p_sequence/db_entry
        WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
          AND $b//reference/@swissprot_accession_number = $c/sprot_accession_number
        RETURN $a//embl_accession_number, $b/enzyme_id, $c//entry_name
    "#;
    let fed = s.federation.query(q).unwrap();
    let oracle = s.single.query(q).unwrap();
    assert_eq!(rows_of(&fed), rows_of(&oracle));
    assert!(
        !fed.rows.is_empty(),
        "corpus should produce three-way links"
    );
}

#[test]
fn non_equality_cross_condition() {
    let s = setup();
    // A numeric inequality spanning warehouses (resolved by the residual
    // filter path): EMBL sequences longer than the Swiss-Prot sequence of
    // a cdc6 protein.
    let q = r#"
        FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
            $b IN document("hlx_sprot.all")/hlx_p_sequence
        WHERE contains($b, "cdc6", any)
          AND $a//sequence/@length > $b//sequence/@length
        RETURN $a//embl_accession_number, $b//sprot_accession_number
    "#;
    let fed = s.federation.query(q).unwrap();
    let oracle = s.single.query(q).unwrap();
    assert_eq!(rows_of(&fed), rows_of(&oracle));
}

#[test]
fn unsupported_cross_warehouse_constructs() {
    let s = setup();
    // OR spanning warehouses.
    let q = r#"
        FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
            $b IN document("hlx_sprot.all")/hlx_p_sequence
        WHERE contains($a, "cdc6", any) OR contains($b, "cdc6", any)
        RETURN $a//embl_accession_number
    "#;
    assert!(s.federation.query(q).is_err());
    // Unknown collection anywhere in the federation.
    assert!(s
        .federation
        .query(r#"FOR $x IN document("nowhere")/r RETURN $x//y"#)
        .is_err());
}

#[test]
fn members_listing() {
    let s = setup();
    assert_eq!(s.federation.members(), vec!["node-a", "node-b", "node-c"]);
}

#[test]
fn dead_member_degrades_to_surviving_rows() {
    let mut s = setup();
    // Kill the enzyme node (node-b) mid-query: the federation returns the
    // surviving EMBL node's rows and names the corpse in the report.
    s.federation.set_fault_hook(Some(Arc::new(|member: &str| {
        if member == "node-b" {
            Some(xomatiq_core::MemberFault::Fail("killed mid-query".into()))
        } else {
            None
        }
    })));
    let fed = s.federation.query_with_report(FIG11).unwrap();
    assert!(fed.degraded.is_degraded());
    assert_eq!(fed.degraded.failed.len(), 1);
    assert_eq!(fed.degraded.failed[0].member, "node-b");
    assert!(fed.degraded.failed[0].reason.contains("killed mid-query"));
    // Both RETURN columns live on node-a; with the cross-warehouse join
    // condition unevaluable, every EMBL entry comes back.
    assert!(fed.outcome.rows.len() >= s.corpus.planted_ec_links.len());
    assert!(!fed.outcome.rows.is_empty());
    for row in &fed.outcome.rows {
        assert!(!row[0].is_null(), "surviving member's columns are real");
    }

    // A clean run over the same federation reports no degradation.
    s.federation.set_fault_hook(None);
    let fed = s.federation.query_with_report(FIG11).unwrap();
    assert!(!fed.degraded.is_degraded());
    let oracle = s.single.query(FIG11).unwrap();
    assert_eq!(rows_of(&fed.outcome), rows_of(&oracle));
}

#[test]
fn strict_mode_refuses_degraded_results() {
    let mut s = setup();
    s.federation.set_strict(true);
    s.federation.set_fault_hook(Some(Arc::new(|member: &str| {
        if member == "node-b" {
            Some(xomatiq_core::MemberFault::Fail("killed mid-query".into()))
        } else {
            None
        }
    })));
    let err = s.federation.query(FIG11).unwrap_err();
    match err {
        xomatiq_core::XomatiqError::Federation(msg) => {
            assert!(msg.contains("strict mode"), "{msg}");
            assert!(msg.contains("node-b"), "{msg}");
        }
        other => panic!("expected a federation error, got {other:?}"),
    }
}

#[test]
fn hung_member_is_cut_off_at_the_deadline() {
    let mut s = setup();
    s.federation
        .set_member_deadline(Some(std::time::Duration::from_millis(50)));
    s.federation.set_fault_hook(Some(Arc::new(|member: &str| {
        if member == "node-c" {
            Some(xomatiq_core::MemberFault::Hang(
                std::time::Duration::from_secs(5),
            ))
        } else {
            None
        }
    })));
    let start = std::time::Instant::now();
    let fed = s.federation.query_with_report(FIG8).unwrap();
    // The federation did not wait out the 5s hang.
    assert!(start.elapsed() < std::time::Duration::from_secs(4));
    assert_eq!(fed.degraded.failed.len(), 1);
    assert_eq!(fed.degraded.failed[0].member, "node-c");
    assert!(
        fed.degraded.failed[0].reason.contains("deadline"),
        "{}",
        fed.degraded.failed[0].reason
    );
    // Surviving node-a rows: all cdc6-marked EMBL entries, with the dead
    // member's column projected as NULL.
    assert_eq!(fed.outcome.rows.len(), s.corpus.cdc6_embl.len());
    for row in &fed.outcome.rows {
        assert!(row[0].is_null(), "dead member's column is NULL");
        assert!(!row[1].is_null());
    }
}

const THREE_WAY: &str = r#"
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry,
    $c IN document("hlx_sprot.all")/hlx_p_sequence/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
  AND $b//reference/@swissprot_accession_number = $c/sprot_accession_number
RETURN $a//embl_accession_number, $b/enzyme_id, $c//entry_name
"#;

const NON_EQUALITY: &str = r#"
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_p_sequence
WHERE contains($b, "cdc6", any)
  AND $a//sequence/@length > $b//sequence/@length
RETURN $a//embl_accession_number, $b//sprot_accession_number
"#;

/// Column `col` of every row, in result order.
fn column_of(outcome: &xomatiq_core::QueryOutcome, col: usize) -> Vec<String> {
    outcome.rows.iter().map(|r| r[col].to_string()).collect()
}

/// The rows as a sorted list, so duplicates count.
fn multiset_of(outcome: &xomatiq_core::QueryOutcome) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = outcome
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect();
    rows.sort();
    rows
}

/// The tables named in the FROM list of a combine statement.
fn combined_tables(sql: &str) -> Vec<&str> {
    let from = &sql[sql.find(" FROM ").expect("a FROM list") + " FROM ".len()..];
    let end = [" WHERE ", " ORDER BY "]
        .iter()
        .filter_map(|kw| from.find(kw))
        .min()
        .unwrap_or(from.len());
    from[..end].split(", ").collect()
}

#[test]
fn federated_results_are_ordered_like_the_single_warehouse() {
    let s = setup();
    for q in [FIG11, FIG8, THREE_WAY, NON_EQUALITY] {
        let fed = s.federation.query(q).unwrap();
        let oracle = s.single.query(q).unwrap();
        assert!(!fed.rows.is_empty(), "{q}");
        assert_eq!(column_of(&fed, 0), column_of(&oracle, 0), "{q}");
        assert_eq!(multiset_of(&fed), multiset_of(&oracle), "{q}");
    }
}

#[test]
fn degraded_results_order_by_the_first_surviving_column() {
    let mut s = setup();
    // FIG8 returns node-c's column first; with node-c dead that column is
    // NULL and the order comes from node-a's column.
    s.federation.set_fault_hook(Some(Arc::new(|member: &str| {
        (member == "node-c").then(|| xomatiq_core::MemberFault::Fail("killed".into()))
    })));
    let fed = s.federation.query_with_report(FIG8).unwrap();
    assert_eq!(fed.degraded.failed.len(), 1);
    assert!(fed.outcome.rows.iter().all(|r| r[0].is_null()));
    let surviving = s
        .single
        .query(
            r#"FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
               WHERE contains($a, "cdc6", any)
               RETURN $a//embl_accession_number"#,
        )
        .unwrap();
    assert!(!surviving.rows.is_empty());
    assert_eq!(column_of(&fed.outcome, 1), column_of(&surviving, 0));
}

#[test]
fn combine_statement_names_every_combined_member() {
    let mut s = setup();
    let fed = s.federation.query(THREE_WAY).unwrap();
    assert_eq!(combined_tables(&fed.sql), ["m0", "m1", "m2"], "{}", fed.sql);
    let fed = s.federation.query(FIG11).unwrap();
    assert_eq!(combined_tables(&fed.sql), ["m0", "m1"], "{}", fed.sql);
    // A dead member's table is left out of the statement.
    s.federation.set_fault_hook(Some(Arc::new(|member: &str| {
        (member == "node-b").then(|| xomatiq_core::MemberFault::Fail("killed".into()))
    })));
    let fed = s.federation.query(THREE_WAY).unwrap();
    assert_eq!(combined_tables(&fed.sql), ["m0", "m2"], "{}", fed.sql);
}
