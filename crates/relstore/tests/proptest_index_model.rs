//! Differential property tests for the chunked copy-on-write indexes.
//!
//! The model is the plainest possible index — a `BTreeMap` from key to the
//! `BTreeSet` of row ids under it — and the invariant is total: after any
//! sequence of inserts and removes, a [`BTreeIndex`] answers every exact
//! lookup, prefix lookup and range probe, and a [`KeywordIndex`] every
//! keyword probe, exactly as the model does, order included. Tiny chunk
//! capacities (1..8) and a few hot keys make keys span chunks, chunks
//! split and empty chunks drop within a few dozen ops. A clone taken
//! mid-sequence is an MVCC snapshot: it must keep answering as the model
//! did at that point while the original keeps changing.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use proptest::prelude::*;
use xomatiq_relstore::index::BTreeIndex;
use xomatiq_relstore::table::{Row, RowId};
use xomatiq_relstore::text::{tokenize, KeywordIndex};
use xomatiq_relstore::Value;

/// Row layout: `[k0, k1, text]`; the B-tree index keys on `(k0, k1)`, the
/// keyword index on `text`.
#[derive(Debug, Clone)]
enum Op {
    /// Index `row` under `id` (replacing what `id` held).
    Insert(u64, Row),
    /// Unindex whatever `id` holds.
    Remove(u64),
    /// Keep a clone of both indexes and the model as of now.
    Snapshot,
}

/// Key values: few of them, so keys repeat (hot keys); both float zeros,
/// NaN, and numbers equal across Int and Float.
fn value() -> impl Strategy<Value = Value> {
    prop::sample::select(vec![
        Value::Null,
        Value::Int(-1),
        Value::Int(0),
        Value::Int(2),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(1.5),
        Value::Float(2.0),
        Value::Float(f64::NAN),
        Value::Text("a".into()),
        Value::Text("hot".into()),
    ])
}

const WORDS: [&str; 6] = ["hot", "cell", "Division", "cdc6", "1.14.17.3", "x"];

fn text() -> impl Strategy<Value = Value> {
    prop_oneof![
        6 => prop::collection::vec(prop::sample::select(WORDS.to_vec()), 0..5)
            .prop_map(|words| Value::Text(words.join(" "))),
        1 => Just(Value::Null),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..24, value(), value(), text()).prop_map(|(id, a, b, t)| Op::Insert(id, vec![a, b, t])),
        3 => (0u64..24).prop_map(Op::Remove),
        1 => Just(Op::Snapshot),
    ]
}

/// The model: both indexes as plain ordered maps.
#[derive(Debug, Clone, Default)]
struct Model {
    keys: BTreeMap<Vec<Value>, BTreeSet<RowId>>,
    tokens: BTreeMap<String, BTreeSet<RowId>>,
}

impl Model {
    fn apply(&mut self, id: RowId, row: &Row, insert: bool) {
        let key = row[..2].to_vec();
        let tokens = match &row[2] {
            Value::Text(s) => tokenize(s),
            _ => Vec::new(),
        };
        if insert {
            self.keys.entry(key).or_default().insert(id);
            for t in tokens {
                self.tokens.entry(t).or_default().insert(id);
            }
        } else {
            remove_id(&mut self.keys, &key, id);
            for t in tokens {
                remove_id(&mut self.tokens, &t, id);
            }
        }
    }

    fn lookup(&self, key: &[Value]) -> Vec<RowId> {
        self.keys
            .get(key)
            .map(|ids| ids.iter().copied().collect())
            .unwrap_or_default()
    }

    fn prefixed<'a>(
        &'a self,
        prefix: &'a [Value],
    ) -> impl Iterator<Item = (&'a Vec<Value>, &'a BTreeSet<RowId>)> {
        self.keys.iter().filter(move |(k, _)| k.starts_with(prefix))
    }

    fn lookup_prefix(&self, prefix: &[Value]) -> Vec<RowId> {
        self.prefixed(prefix)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Every key under `prefix` whose next column `Value::compare`s
    /// inside the bounds — the filter the index applies.
    fn range(&self, prefix: &[Value], lower: Bound<&Value>, upper: Bound<&Value>) -> Vec<RowId> {
        let inside = |v: &Value| {
            let lo = match lower {
                Bound::Unbounded => true,
                Bound::Included(b) => v.compare(b).is_some_and(|o| o.is_ge()),
                Bound::Excluded(b) => v.compare(b).is_some_and(|o| o.is_gt()),
            };
            let hi = match upper {
                Bound::Unbounded => true,
                Bound::Included(b) => v.compare(b).is_some_and(|o| o.is_le()),
                Bound::Excluded(b) => v.compare(b).is_some_and(|o| o.is_lt()),
            };
            lo && hi
        };
        self.prefixed(prefix)
            .filter(|(k, _)| k.get(prefix.len()).is_some_and(inside))
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Per prefix length `k` (at `[k - 1]`), the distinct prefixes of the
    /// keys held.
    fn distinct_prefixes(&self) -> Vec<usize> {
        (1..=2)
            .map(|k| {
                let prefixes: BTreeSet<&[Value]> = self.keys.keys().map(|key| &key[..k]).collect();
                prefixes.len()
            })
            .collect()
    }

    fn keyword(&self, keyword: &str) -> Vec<RowId> {
        let tokens = tokenize(keyword);
        let Some((first, rest)) = tokens.split_first() else {
            return Vec::new();
        };
        let Some(ids) = self.tokens.get(first) else {
            return Vec::new();
        };
        ids.iter()
            .copied()
            .filter(|id| {
                rest.iter()
                    .all(|t| self.tokens.get(t).is_some_and(|s| s.contains(id)))
            })
            .collect()
    }
}

fn remove_id<K: Ord>(map: &mut BTreeMap<K, BTreeSet<RowId>>, key: &K, id: RowId) {
    if let Some(ids) = map.get_mut(key) {
        ids.remove(&id);
        if ids.is_empty() {
            map.remove(key);
        }
    }
}

fn probe_values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(-1),
        Value::Int(0),
        Value::Float(-0.0),
        Value::Float(1.5),
        Value::Int(2),
        Value::Float(2.0),
        Value::Float(f64::NAN),
        Value::Text("a".into()),
        Value::Text("hot".into()),
        Value::Text("zz".into()),
    ]
}

fn bounds(v: &Value) -> [Bound<&Value>; 3] {
    [Bound::Unbounded, Bound::Included(v), Bound::Excluded(v)]
}

/// Every probe answered by the indexes as the model answers it.
fn check(idx: &BTreeIndex, kw: &KeywordIndex, model: &Model) -> Result<(), TestCaseError> {
    let values = probe_values();
    for a in &values {
        let prefix = std::slice::from_ref(a);
        prop_assert_eq!(idx.lookup_prefix(prefix), model.lookup_prefix(prefix));
        for b in &values {
            let key = [a.clone(), b.clone()];
            prop_assert_eq!(idx.lookup(&key), model.lookup(&key));
            prop_assert_eq!(idx.lookup_prefix(&key), model.lookup_prefix(&key));
            for lo in bounds(a) {
                for hi in bounds(b) {
                    prop_assert_eq!(idx.range(&[], lo, hi), model.range(&[], lo, hi));
                    let prefix = [a.clone()];
                    prop_assert_eq!(idx.range(&prefix, lo, hi), model.range(&prefix, lo, hi));
                }
            }
        }
    }
    prop_assert_eq!(idx.distinct_keys(), model.keys.len());
    prop_assert_eq!(idx.distinct_prefixes(), &model.distinct_prefixes()[..]);
    for w in WORDS
        .iter()
        .chain(["nope", "cell division", "hot cdc6 x", ""].iter())
    {
        prop_assert_eq!(kw.lookup(w), model.keyword(w));
    }
    prop_assert_eq!(kw.distinct_tokens(), model.tokens.len());
    Ok(())
}

fn run(ops: &[Op], cap: usize) -> Result<(), TestCaseError> {
    let mut idx = BTreeIndex::with_chunk_capacity(vec![0, 1], cap);
    let mut kw = KeywordIndex::with_chunk_capacity(2, cap);
    let mut model = Model::default();
    let mut rows: BTreeMap<u64, Row> = BTreeMap::new();
    let mut snapshots = Vec::new();
    for op in ops {
        match op {
            Op::Insert(id, row) => {
                if let Some(old) = rows.insert(*id, row.clone()) {
                    idx.remove(RowId(*id), &old);
                    kw.remove(RowId(*id), &old);
                    model.apply(RowId(*id), &old, false);
                }
                idx.insert(RowId(*id), row);
                kw.insert(RowId(*id), row);
                model.apply(RowId(*id), row, true);
            }
            Op::Remove(id) => {
                if let Some(old) = rows.remove(id) {
                    idx.remove(RowId(*id), &old);
                    kw.remove(RowId(*id), &old);
                    model.apply(RowId(*id), &old, false);
                }
            }
            Op::Snapshot => snapshots.push((idx.clone(), kw.clone(), model.clone())),
        }
    }
    check(&idx, &kw, &model)?;
    for (idx, kw, model) in &snapshots {
        check(idx, kw, model)?;
    }
    // A build from the surviving rows counts in its one pass what the
    // writes counted one by one.
    let built = BTreeIndex::build(
        vec![0, 1],
        rows.iter().map(|(id, row)| (RowId(*id), row.clone())),
    );
    check(&built, &kw, &model)?;
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
    #![proptest_config(ProptestConfig::with_cases(prop_cases(64)))]

    #[test]
    fn chunked_indexes_match_btreemap_model(
        ops in prop::collection::vec(op(), 1..80),
        cap in 1usize..9,
    ) {
        run(&ops, cap)?;
    }
}

/// Default capacity, one hot key in hundreds of rows and a run of
/// removes: the key spans chunks, and lookups stay exact and ordered.
#[test]
fn hot_key_across_default_chunks() {
    let mut idx = BTreeIndex::new(vec![0, 1]);
    let mut model = Model::default();
    for i in 0..2_000u64 {
        let row = vec![
            Value::Text("hot".into()),
            Value::Int((i % 3) as i64),
            Value::Null,
        ];
        idx.insert(RowId(i), &row);
        model.apply(RowId(i), &row, true);
    }
    for i in (0..2_000u64).step_by(5) {
        let row = vec![
            Value::Text("hot".into()),
            Value::Int((i % 3) as i64),
            Value::Null,
        ];
        idx.remove(RowId(i), &row);
        model.apply(RowId(i), &row, false);
    }
    let hot = [Value::Text("hot".into())];
    assert_eq!(idx.lookup_prefix(&hot), model.lookup_prefix(&hot));
    let key = [Value::Text("hot".into()), Value::Int(1)];
    assert_eq!(idx.lookup(&key), model.lookup(&key));
    let lo = Value::Int(1);
    assert_eq!(
        idx.range(&hot, Bound::Included(&lo), Bound::Unbounded),
        model.range(&hot, Bound::Included(&lo), Bound::Unbounded)
    );
}
