//! Differential property tests for the segmented column store.
//!
//! The model is the simplest possible ordered store — a
//! `BTreeMap<RowId, Row>` — and the invariant is total: after any sequence
//! of inserts (appends and id-directed re-inserts), updates and deletes,
//! the segmented store must agree with the model on length, point lookups
//! AND the full scan *in document order* (ascending row id — the paper's
//! "order as a data value", §2.2). This exercises every structural path:
//! tail appends, in-place tombstone revives, the O(n) rebuild splice for
//! unseen below-high-water ids, and tombstone/zone-map maintenance.

use std::collections::BTreeMap;

use proptest::prelude::*;
use xomatiq_relstore::table::{Row, RowId, Table};
use xomatiq_relstore::{Column, DataType, TableSchema, Value};

#[derive(Debug, Clone)]
enum Op {
    /// Append a fresh row.
    Insert(Row),
    /// Re-insert under a chosen id (WAL-replay path: revive or splice).
    InsertAt(u64, Row),
    /// Update an id (may or may not exist).
    Update(u64, Row),
    /// Delete an id (may or may not exist).
    Delete(u64),
}

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            Column::new("a", DataType::Int),
            Column::new("f", DataType::Float),
            Column::new("s", DataType::Text),
        ],
    )
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        prop_oneof![4 => (-50i64..50).prop_map(Value::Int), 1 => Just(Value::Null)],
        prop_oneof![
            4 => (-50i32..50).prop_map(|f| Value::Float(f as f64 / 4.0)),
            1 => Just(Value::Null),
        ],
        prop_oneof![4 => "[a-z]{0,12}".prop_map(Value::Text), 1 => Just(Value::Null)],
    )
        .prop_map(|(a, f, s)| vec![a, f, s])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Ids collide on purpose: 0..48 keeps revives and splices frequent.
    prop_oneof![
        4 => row_strategy().prop_map(Op::Insert),
        2 => (0u64..48, row_strategy()).prop_map(|(id, r)| Op::InsertAt(id, r)),
        2 => (0u64..48, row_strategy()).prop_map(|(id, r)| Op::Update(id, r)),
        2 => (0u64..48).prop_map(Op::Delete),
    ]
}

/// Applies `ops` to both stores, checking agreement after every step.
fn check(ops: &[Op], seg_capacity: usize) -> Result<(), TestCaseError> {
    let mut table = Table::with_segment_capacity(schema(), seg_capacity);
    let mut model: BTreeMap<u64, Row> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Insert(row) => {
                let (id, _) = table.insert(row.clone()).unwrap();
                prop_assert!(model.insert(id.0, row.clone()).is_none());
            }
            Op::InsertAt(id, row) => {
                table.insert_at(RowId(*id), row.clone()).unwrap();
                model.insert(*id, row.clone());
            }
            Op::Update(id, row) => {
                let expect = model.get(id).cloned();
                match table.update(RowId(*id), row.clone()) {
                    Ok((old, stored)) => {
                        prop_assert_eq!(Some(old), expect);
                        prop_assert_eq!(Some(stored), table.get(RowId(*id)));
                        model.insert(*id, row.clone());
                    }
                    Err(_) => prop_assert!(expect.is_none()),
                }
            }
            Op::Delete(id) => {
                let expect = model.remove(id);
                match table.delete(RowId(*id)) {
                    Ok(old) => prop_assert_eq!(Some(old), expect),
                    Err(_) => prop_assert!(expect.is_none()),
                }
            }
        }
        prop_assert_eq!(table.len(), model.len());
    }
    // Full-scan agreement, order included.
    let got: Vec<(u64, Row)> = table.scan().map(|(id, r)| (id.0, r)).collect();
    let want: Vec<(u64, Row)> = model.iter().map(|(id, r)| (*id, r.clone())).collect();
    prop_assert_eq!(got, want);
    // Point-lookup agreement, including ids never inserted.
    for id in 0..56 {
        prop_assert_eq!(table.get(RowId(id)), model.get(&id).cloned());
    }
    Ok(())
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(96)))]

    /// Tiny segments (capacity 1..8) force many-segment layouts, so
    /// revives, splices and cross-segment document order all trigger
    /// within a few dozen ops.
    #[test]
    fn segmented_store_matches_btreemap_model(
        ops in prop::collection::vec(op_strategy(), 1..60),
        seg_capacity in 1usize..8,
    ) {
        check(&ops, seg_capacity)?;
    }
}

#[test]
fn default_capacity_store_matches_model_across_segment_boundary() {
    // At the production segment capacity (1024) the same invariant must
    // hold across a real segment boundary: fill past one segment, punch
    // holes, splice a deleted id back, update across both segments.
    let mut table = Table::new(schema());
    let mut model: BTreeMap<u64, Row> = BTreeMap::new();
    let mk = |i: i64| {
        vec![
            Value::Int(i),
            Value::Float(i as f64 / 2.0),
            Value::Text(format!("r{i}")),
        ]
    };
    for i in 0..2500i64 {
        let (id, _) = table.insert(mk(i)).unwrap();
        model.insert(id.0, mk(i));
    }
    for id in (0..2500u64).step_by(7) {
        table.delete(RowId(id)).unwrap();
        model.remove(&id);
    }
    for id in (1..2500u64).step_by(13) {
        if model.contains_key(&id) {
            table.update(RowId(id), mk(-(id as i64))).unwrap();
            model.insert(id, mk(-(id as i64)));
        }
    }
    // Splice previously deleted ids back in below the high-water mark.
    for id in [0u64, 7, 700, 2499] {
        table.insert_at(RowId(id), mk(9000 + id as i64)).unwrap();
        model.insert(id, mk(9000 + id as i64));
    }
    assert_eq!(table.len(), model.len());
    let got: Vec<(u64, Row)> = table.scan().map(|(id, r)| (id.0, r)).collect();
    let want: Vec<(u64, Row)> = model.iter().map(|(id, r)| (*id, r.clone())).collect();
    assert_eq!(got, want);
}
