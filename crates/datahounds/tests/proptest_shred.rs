//! Property test: ARBITRARY documents (not just pipeline-shaped ones)
//! survive shred → reconstruct under both strategies — the order-as-data-
//! value design of §2.2 is lossless.

use proptest::prelude::*;
use xomatiq_datahounds::shred::{
    create_collection_tables, reconstruct_document, shred_document, ShreddingStrategy,
};
use xomatiq_relstore::Database;
use xomatiq_xml::Document;

#[derive(Debug, Clone)]
enum BuildOp {
    Open(usize),
    Close,
    Text(usize),
    Attr(usize, usize),
    Comment(usize),
    Pi(usize),
}

const NAMES: &[&str] = &["db_entry", "item", "seq", "note", "ref"];
const TEXTS: &[&str] = &[
    "1.14.17.3",
    "Copper & zinc",
    "  padded  ",
    "42",
    "3.5",
    "quote'apos",
    "acgtacgt",
    // Numbers beyond i64: their numeric shadow must still be writable.
    "12345678901234567890",
    "1e19",
    "-1e19",
    "1e300",
];

fn build(ops: &[BuildOp]) -> Document {
    let (mut doc, root) = Document::with_root("hlx_root").unwrap();
    let mut stack = vec![root];
    for op in ops {
        let cur = *stack.last().unwrap();
        match op {
            BuildOp::Open(n) => {
                let id = doc.append_element(cur, NAMES[n % NAMES.len()]).unwrap();
                stack.push(id);
            }
            BuildOp::Close => {
                if stack.len() > 1 {
                    stack.pop();
                }
            }
            BuildOp::Text(t) => {
                doc.append_text(cur, TEXTS[t % TEXTS.len()]);
            }
            BuildOp::Attr(n, v) => {
                doc.set_attribute(cur, NAMES[n % NAMES.len()], TEXTS[v % TEXTS.len()])
                    .unwrap();
            }
            BuildOp::Comment(t) => {
                doc.append_comment(cur, TEXTS[t % TEXTS.len()]);
            }
            BuildOp::Pi(t) => {
                doc.append_pi(cur, "app", TEXTS[t % TEXTS.len()]).unwrap();
            }
        }
    }
    doc
}

fn op_strategy() -> impl Strategy<Value = BuildOp> {
    prop_oneof![
        3 => (0..NAMES.len()).prop_map(BuildOp::Open),
        2 => Just(BuildOp::Close),
        2 => (0..TEXTS.len()).prop_map(BuildOp::Text),
        1 => ((0..NAMES.len()), (0..TEXTS.len())).prop_map(|(n, v)| BuildOp::Attr(n, v)),
        1 => (0..TEXTS.len()).prop_map(BuildOp::Comment),
        1 => (0..TEXTS.len()).prop_map(BuildOp::Pi),
    ]
}

/// Cases per property: the file's default, or `PROPTEST_CASES` when set
/// (the nightly stress job raises it to 1024).
fn prop_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(32)))]

    #[test]
    fn shred_reconstruct_is_identity(
        ops in prop::collection::vec(op_strategy(), 0..80),
    ) {
        let doc = build(&ops);
        for strategy in [ShreddingStrategy::Edge, ShreddingStrategy::Interval] {
            let db = Database::in_memory();
            create_collection_tables(&db, "c").unwrap();
            shred_document(&db, "c", strategy, 7, "key", &doc).unwrap();
            let rebuilt = reconstruct_document(&db, "c", 7).unwrap();
            prop_assert!(
                doc.structurally_equal(&rebuilt),
                "{strategy:?} diverged:\noriginal: {}\nrebuilt:  {}",
                xomatiq_xml::to_string(&doc),
                xomatiq_xml::to_string(&rebuilt),
            );
        }
    }

    #[test]
    fn multiple_documents_do_not_interfere(
        ops_a in prop::collection::vec(op_strategy(), 0..40),
        ops_b in prop::collection::vec(op_strategy(), 0..40),
    ) {
        let doc_a = build(&ops_a);
        let doc_b = build(&ops_b);
        for strategy in [ShreddingStrategy::Edge, ShreddingStrategy::Interval] {
            let db = Database::in_memory();
            create_collection_tables(&db, "c").unwrap();
            shred_document(&db, "c", strategy, 0, "a", &doc_a).unwrap();
            shred_document(&db, "c", strategy, 1, "b", &doc_b).unwrap();
            let ra = reconstruct_document(&db, "c", 0).unwrap();
            let rb = reconstruct_document(&db, "c", 1).unwrap();
            prop_assert!(doc_a.structurally_equal(&ra), "{strategy:?} doc 0");
            prop_assert!(doc_b.structurally_equal(&rb), "{strategy:?} doc 1");
        }
    }
}
