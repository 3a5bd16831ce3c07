//! Composite-key B-tree secondary indexes.
//!
//! The paper attributes its query performance to "a set of indexes
//! \[created\] by meticulous analysis of the query plans generated by the
//! Oracle query optimizer" (§3.2). [`BTreeIndex`] is the equivalent
//! structure here: an ordered set of `(composite key, row id)` pairs —
//! one value per indexed column in the key, ordered by [`Value`]'s `Ord`
//! ([`Value::total_cmp`]) — supporting exact lookups, prefix lookups and
//! range scans, everything the planner's index-selection rules need.
//!
//! The pairs live in copy-on-write chunks (`chunked.rs`): each
//! chunk holds at most a fixed number of row ids, each key once with its
//! ids as a sorted run. A snapshot clone shares every chunk, and a
//! one-row write copies the one chunk it lands in — never the whole
//! index, and never a whole posting list, however many rows share a key.

use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::Arc;

use crate::chunked::{Postings, CHUNK_CAPACITY};
use crate::table::RowId;
use crate::value::Value;

/// A key in the index: one value per indexed column.
pub type IndexKey = Vec<Value>;

/// A secondary index over one or more columns of a table.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    /// Keys are shared, so a chunk copy bumps counts instead of cloning
    /// values.
    entries: Postings<Arc<[Value]>>,
    /// Column positions (in the table schema) forming the key.
    key_columns: Vec<usize>,
    /// `distinct[k - 1]`: how many distinct values the first `k` key
    /// columns take. Exact: every insert and remove keeps it.
    distinct: Vec<usize>,
}

/// How many leading columns two keys share.
fn common_prefix(a: &[Value], b: &[Value]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl BTreeIndex {
    /// Creates an empty index keyed on the given column positions.
    pub fn new(key_columns: Vec<usize>) -> Self {
        Self::with_chunk_capacity(key_columns, CHUNK_CAPACITY)
    }

    /// As [`BTreeIndex::new`] with a custom chunk capacity (tests only).
    pub fn with_chunk_capacity(key_columns: Vec<usize>, cap: usize) -> Self {
        BTreeIndex {
            entries: Postings::with_capacity(cap),
            distinct: vec![0; key_columns.len()],
            key_columns,
        }
    }

    /// An index over `rows`, built in one sort rather than row by row.
    pub fn build(key_columns: Vec<usize>, rows: impl Iterator<Item = (RowId, Vec<Value>)>) -> Self {
        let mut idx = Self::new(key_columns);
        let pairs = rows.map(|(id, row)| (idx.key_of(&row), id)).collect();
        let distinct = &mut idx.distinct;
        idx.entries = Postings::from_pairs(CHUNK_CAPACITY, pairs, |prev, key| {
            let shared = prev.map_or(0, |prev| common_prefix(prev, key));
            distinct[shared..].iter_mut().for_each(|n| *n += 1);
        });
        idx
    }

    /// The key column positions.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Extracts this index's key from a full table row.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        self.key_columns.iter().map(|i| row[*i].clone()).collect()
    }

    /// `row`'s key, borrowed when the key columns form one contiguous
    /// ascending run (the overwhelmingly common layout for `CREATE INDEX`
    /// on leading columns), else gathered into `scratch`.
    fn probe_key<'r>(&self, row: &'r [Value], scratch: &'r mut IndexKey) -> &'r [Value] {
        let first = self.key_columns.first().copied().unwrap_or(0);
        let width = self.key_columns.len();
        let contiguous = self
            .key_columns
            .iter()
            .enumerate()
            .all(|(k, &c)| c == first + k);
        if contiguous && first + width <= row.len() {
            &row[first..first + width]
        } else {
            *scratch = self.key_of(row);
            scratch
        }
    }

    /// Indexes `row` under `id`; the key values are cloned only when the
    /// key is new to its chunk.
    pub fn insert(&mut self, id: RowId, row: &[Value]) {
        let mut scratch = Vec::new();
        let key = self.probe_key(row, &mut scratch);
        let new_from = self.new_prefixes_from(key);
        if self.entries.insert(key, id) {
            self.distinct[new_from..].iter_mut().for_each(|n| *n += 1);
        }
    }

    /// Removes `row`'s entry for `id`.
    pub fn remove(&mut self, id: RowId, row: &[Value]) {
        let mut scratch = Vec::new();
        let key = self.probe_key(row, &mut scratch);
        if self.entries.remove(key, id) {
            let gone_from = self.new_prefixes_from(key);
            self.distinct[gone_from..].iter_mut().for_each(|n| *n -= 1);
        }
    }

    /// The shortest prefix length of `key` that no key in the index
    /// shares, minus one: the prefixes of `key` from that length on are
    /// counted only by `key` itself. All the keys sharing a prefix sit
    /// next to each other, so comparing with the two neighbours suffices.
    fn new_prefixes_from(&self, key: &[Value]) -> usize {
        let Some((before, after)) = self.entries.neighbours(key) else {
            return key.len();
        };
        let shared = |other: Option<&Arc<[Value]>>| other.map_or(0, |o| common_prefix(o, key));
        shared(before).max(shared(after))
    }

    /// Row ids whose key equals `key` exactly (full-width key).
    pub fn lookup(&self, key: &[Value]) -> Vec<RowId> {
        self.entries.runs(key).flatten().copied().collect()
    }

    /// The runs whose key starts with `prefix`, from the first at or
    /// after `from` (itself at or after `prefix`).
    fn prefixed<'a>(
        &'a self,
        prefix: &'a [Value],
        from: &[Value],
    ) -> impl Iterator<Item = (&'a Arc<[Value]>, &'a [RowId])> + 'a {
        self.entries
            .runs_from(from)
            .take_while(move |(key, _)| key.starts_with(prefix))
    }

    /// Row ids whose key starts with `prefix` (shorter than the full key).
    pub fn lookup_prefix(&self, prefix: &[Value]) -> Vec<RowId> {
        self.prefixed(prefix, prefix)
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Row ids whose first key column lies in the given bounds, with an
    /// optional exact prefix for leading columns.
    ///
    /// `prefix` fixes the first `prefix.len()` key columns; the bounds
    /// apply to the next column. This services plans like
    /// `path_id = ? AND num_val BETWEEN x AND y` over a composite index.
    ///
    /// The walk starts at the lower bound and stops past the upper one:
    /// wherever [`Value::compare`] orders two values, the key order agrees,
    /// so no key outside that stretch can pass. Inside it each key is
    /// still checked with `compare`, which leaves out NULLs, values of
    /// another type and NaN.
    pub fn range(
        &self,
        prefix: &[Value],
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Vec<RowId> {
        let col = prefix.len();
        let mut from = prefix.to_vec();
        if let Bound::Included(b) | Bound::Excluded(b) = lower {
            from.push(b.clone());
        }
        // Whether `v` lies on the inner side of `bound`, which
        // `v.compare(b)` orders `past` when `v` is beyond it.
        let within = |v: &Value, bound: Bound<&Value>, past: Ordering| match bound {
            Bound::Unbounded => true,
            Bound::Included(b) => v.compare(b).is_some_and(|o| o != past),
            Bound::Excluded(b) => v.compare(b).is_some_and(|o| o == past.reverse()),
        };
        let mut out = Vec::new();
        for (key, ids) in self.prefixed(prefix, &from) {
            let Some(v) = key.get(col) else { continue };
            if let Bound::Included(b) | Bound::Excluded(b) = upper {
                if v > b {
                    break;
                }
            }
            if within(v, lower, Ordering::Less) && within(v, upper, Ordering::Greater) {
                out.extend(ids.iter().copied());
            }
        }
        out
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.distinct.last().copied().unwrap_or(0)
    }

    /// Per prefix length `k` (at `[k - 1]`), how many distinct values the
    /// first `k` key columns take.
    pub fn distinct_prefixes(&self) -> &[usize] {
        &self.distinct
    }

    /// The postings, for tests that check what a write copied.
    #[cfg(test)]
    pub(crate) fn postings(&self) -> &Postings<Arc<[Value]>> {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Value {
        Value::Text(s.into())
    }

    fn build() -> BTreeIndex {
        // Index on columns (1, 2) of rows shaped [id, path, ord].
        let mut idx = BTreeIndex::new(vec![1, 2]);
        let rows = [
            (0, "/a/b", 0),
            (1, "/a/b", 1),
            (2, "/a/c", 0),
            (3, "/a/b", 5),
            (4, "/z", 2),
        ];
        for (id, path, ord) in rows {
            idx.insert(
                RowId(id),
                &[Value::Int(id as i64), v(path), Value::Int(ord)],
            );
        }
        idx
    }

    #[test]
    fn exact_lookup() {
        let idx = build();
        assert_eq!(idx.lookup(&[v("/a/b"), Value::Int(1)]), vec![RowId(1)]);
        assert!(idx.lookup(&[v("/a/b"), Value::Int(9)]).is_empty());
    }

    #[test]
    fn prefix_lookup() {
        let idx = build();
        let mut ids = idx.lookup_prefix(&[v("/a/b")]);
        ids.sort();
        assert_eq!(ids, vec![RowId(0), RowId(1), RowId(3)]);
        assert_eq!(idx.lookup_prefix(&[v("/a/c")]), vec![RowId(2)]);
        assert!(idx.lookup_prefix(&[v("/nope")]).is_empty());
    }

    #[test]
    fn range_with_prefix() {
        let idx = build();
        let lo = Value::Int(1);
        let hi = Value::Int(5);
        let mut ids = idx.range(&[v("/a/b")], Bound::Included(&lo), Bound::Excluded(&hi));
        ids.sort();
        assert_eq!(ids, vec![RowId(1)]);
        let mut all = idx.range(&[v("/a/b")], Bound::Unbounded, Bound::Unbounded);
        all.sort();
        assert_eq!(all, vec![RowId(0), RowId(1), RowId(3)]);
    }

    #[test]
    fn range_without_prefix_scans_first_column() {
        let mut idx = BTreeIndex::new(vec![0]);
        for i in 0..10 {
            idx.insert(RowId(i), &[Value::Int(i as i64)]);
        }
        let lo = Value::Int(3);
        let hi = Value::Int(6);
        let mut ids = idx.range(&[], Bound::Excluded(&lo), Bound::Included(&hi));
        ids.sort();
        assert_eq!(ids, vec![RowId(4), RowId(5), RowId(6)]);
    }

    #[test]
    fn remove_cleans_up() {
        let mut idx = build();
        idx.remove(RowId(0), &[Value::Int(0), v("/a/b"), Value::Int(0)]);
        let mut ids = idx.lookup_prefix(&[v("/a/b")]);
        ids.sort();
        assert_eq!(ids, vec![RowId(1), RowId(3)]);
        // Removing the last entry for a key drops the key.
        idx.remove(RowId(2), &[Value::Int(2), v("/a/c"), Value::Int(0)]);
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn prefix_counts_follow_inserts_removes_and_builds() {
        let mut idx = build();
        // Keys (/a/b,0) (/a/b,1) (/a/c,0) (/a/b,5) (/z,2).
        assert_eq!(idx.distinct_prefixes(), [3, 5]);
        idx.insert(RowId(9), &[Value::Int(9), v("/a/b"), Value::Int(1)]);
        assert_eq!(idx.distinct_prefixes(), [3, 5]);
        idx.remove(RowId(2), &[Value::Int(2), v("/a/c"), Value::Int(0)]);
        assert_eq!(idx.distinct_prefixes(), [2, 4]);
        idx.remove(RowId(1), &[Value::Int(1), v("/a/b"), Value::Int(1)]);
        assert_eq!(idx.distinct_prefixes(), [2, 4]);
        idx.remove(RowId(9), &[Value::Int(9), v("/a/b"), Value::Int(1)]);
        assert_eq!(idx.distinct_prefixes(), [2, 3]);
        // Removing what is not there changes nothing.
        idx.remove(RowId(9), &[Value::Int(9), v("/a/b"), Value::Int(1)]);
        assert_eq!(idx.distinct_prefixes(), [2, 3]);
        let rows = [
            (0, "/a/b", 0),
            (1, "/a/b", 1),
            (2, "/a/c", 0),
            (3, "/a/b", 1),
        ];
        let built = BTreeIndex::build(
            vec![1, 2],
            rows.iter()
                .map(|&(id, p, o)| (RowId(id), vec![Value::Int(id as i64), v(p), Value::Int(o)])),
        );
        assert_eq!(built.distinct_prefixes(), [2, 3]);
    }

    #[test]
    fn duplicate_keys_accumulate_ids() {
        let mut idx = BTreeIndex::new(vec![0]);
        idx.insert(RowId(1), &[v("k")]);
        idx.insert(RowId(2), &[v("k")]);
        let mut ids = idx.lookup(&[v("k")]);
        ids.sort();
        assert_eq!(ids, vec![RowId(1), RowId(2)]);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn non_contiguous_key_columns_roundtrip() {
        // Key columns (0, 2) skip a column, forcing the gather path in
        // insert/remove; behaviour must match the contiguous fast path.
        let mut idx = BTreeIndex::new(vec![0, 2]);
        idx.insert(RowId(1), &[v("a"), v("skip"), Value::Int(1)]);
        idx.insert(RowId(2), &[v("a"), v("other"), Value::Int(1)]);
        idx.insert(RowId(3), &[v("b"), v("x"), Value::Int(2)]);
        let mut ids = idx.lookup(&[v("a"), Value::Int(1)]);
        ids.sort();
        assert_eq!(ids, vec![RowId(1), RowId(2)]);
        assert_eq!(idx.distinct_keys(), 2);
        idx.remove(RowId(1), &[v("a"), v("skip"), Value::Int(1)]);
        assert_eq!(idx.lookup(&[v("a"), Value::Int(1)]), vec![RowId(2)]);
    }

    #[test]
    fn mixed_type_keys_order_consistently() {
        let mut idx = BTreeIndex::new(vec![0]);
        idx.insert(RowId(1), &[Value::Int(5)]);
        idx.insert(RowId(2), &[v("abc")]);
        idx.insert(RowId(3), &[Value::Null]);
        // Range over numerics must not pick up text or NULL.
        let lo = Value::Int(0);
        let ids = idx.range(&[], Bound::Included(&lo), Bound::Unbounded);
        assert_eq!(ids, vec![RowId(1)]);
    }
}
