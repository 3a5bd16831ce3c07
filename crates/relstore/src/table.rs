//! The row store.
//!
//! Rows live in an append-only segmented column store ([`ColStore`])
//! keyed by a monotonically increasing [`RowId`], so a full scan returns
//! rows in insertion order — which, for shredded XML, is document order.
//! That makes "order as a data value" (paper §2.2) cheap: the shredder
//! stores ordinals, and the storage layer never reorders underneath them.
//! Executors that want columnar access (zone-map pruning, vectorized
//! predicate kernels, column-at-a-time gathers) reach the segments through
//! [`Table::store`]; everything else sees the same row-oriented API as
//! before, with `get`/`scan` now materializing owned rows out of the
//! column vectors.

use crate::colstore::ColStore;
use crate::error::{RelError, RelResult};
use crate::schema::TableSchema;
use crate::value::Value;

/// Stable identifier of a row within its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

/// A stored row.
pub type Row = Vec<Value>;

/// A table: schema plus segmented columnar rows.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    store: ColStore,
    next_row_id: u64,
}

impl Table {
    /// Creates an empty table with `schema`.
    pub fn new(schema: TableSchema) -> Self {
        let types = schema.columns.iter().map(|c| c.ty).collect();
        Table {
            schema,
            store: ColStore::new(types),
            next_row_id: 0,
        }
    }

    /// As [`Table::new`] with a custom segment capacity, so tests can
    /// exercise many-segment layouts without millions of rows.
    #[doc(hidden)]
    pub fn with_segment_capacity(schema: TableSchema, seg_capacity: usize) -> Self {
        let types = schema.columns.iter().map(|c| c.ty).collect();
        Table {
            schema,
            store: ColStore::with_segment_capacity(types, seg_capacity),
            next_row_id: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The underlying segmented column store (scan cursors).
    pub fn store(&self) -> &ColStore {
        &self.store
    }

    /// Sets the CSN stamped onto subsequent mutations (MVCC versioning).
    pub fn set_stamp(&mut self, csn: u64) {
        self.store.set_stamp(csn);
    }

    /// Rewrites segments whose dead-slot fraction exceeds
    /// `max_dead_ratio`, reclaiming tombstones and re-tightening zone
    /// maps; with `spare_tail`, all but the tail segment (see
    /// [`ColStore::compact`]). Returns the number of segments rewritten
    /// or removed.
    pub fn compact_store(&mut self, max_dead_ratio: f64, spare_tail: bool) -> usize {
        self.store.compact(max_dead_ratio, spare_tail)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Validates, coerces and appends `row`, returning its new id and the
    /// row as stored.
    pub fn insert(&mut self, row: Row) -> RelResult<(RowId, Row)> {
        let row = self.schema.check_row(row)?;
        let id = RowId(self.next_row_id);
        self.next_row_id += 1;
        self.store.insert(id.0, &row);
        Ok((id, row))
    }

    /// Re-inserts a row under a specific id (WAL replay and rollback).
    ///
    /// Keeps `next_row_id` ahead of every replayed id so post-recovery
    /// inserts never collide. An id below the store's high-water mark is
    /// spliced back in at document order. Returns the row as stored.
    pub fn insert_at(&mut self, id: RowId, row: Row) -> RelResult<Row> {
        let row = self.schema.check_row(row)?;
        self.next_row_id = self.next_row_id.max(id.0 + 1);
        self.store.insert(id.0, &row);
        Ok(row)
    }

    /// Removes the row `id`, returning it.
    pub fn delete(&mut self, id: RowId) -> RelResult<Row> {
        self.store.delete(id.0).ok_or_else(|| {
            RelError::Internal(format!("row {id:?} not found in {}", self.schema.name))
        })
    }

    /// Validates, coerces and writes `row` over the row `id`, returning
    /// the previous row and the row as stored.
    pub fn update(&mut self, id: RowId, row: Row) -> RelResult<(Row, Row)> {
        let row = self.schema.check_row(row)?;
        let old = self.store.update(id.0, &row).ok_or_else(|| {
            RelError::Internal(format!("row {id:?} not found in {}", self.schema.name))
        })?;
        Ok((old, row))
    }

    /// Materializes the row `id`.
    pub fn get(&self, id: RowId) -> Option<Row> {
        self.store.get(id.0)
    }

    /// Iterates over `(id, row)` in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, Row)> + '_ {
        self.store.scan().map(|(id, row)| (RowId(id), row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Text),
            ],
        ))
    }

    #[test]
    fn insert_scan_order() {
        let mut t = table();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Text(format!("r{i}"))])
                .unwrap();
        }
        let scanned: Vec<i64> = t.scan().map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(scanned, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn row_ids_are_stable_across_deletes() {
        let mut t = table();
        let a = t
            .insert(vec![Value::Int(1), Value::Text("x".into())])
            .unwrap()
            .0;
        let b = t
            .insert(vec![Value::Int(2), Value::Text("y".into())])
            .unwrap()
            .0;
        t.delete(a).unwrap();
        let c = t
            .insert(vec![Value::Int(3), Value::Text("z".into())])
            .unwrap()
            .0;
        assert!(c > b);
        assert!(t.get(a).is_none());
        assert_eq!(t.get(b).unwrap()[0], Value::Int(2));
    }

    #[test]
    fn update_replaces_and_returns_old() {
        let mut t = table();
        let id = t
            .insert(vec![Value::Int(1), Value::Text("x".into())])
            .unwrap()
            .0;
        let (old, _) = t
            .update(id, vec![Value::Int(9), Value::Text("y".into())])
            .unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert_eq!(t.get(id).unwrap()[0], Value::Int(9));
    }

    #[test]
    fn schema_enforced_on_insert_and_update() {
        let mut t = table();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        let id = t
            .insert(vec![Value::Int(1), Value::Text("x".into())])
            .unwrap()
            .0;
        assert!(t
            .update(id, vec![Value::Text("no".into()), Value::Null])
            .is_err());
    }

    #[test]
    fn insert_coerces_text_to_int() {
        let mut t = table();
        let id = t
            .insert(vec![Value::Text("12".into()), Value::Text("x".into())])
            .unwrap()
            .0;
        assert_eq!(t.get(id).unwrap()[0], Value::Int(12));
    }

    #[test]
    fn insert_returns_the_row_as_stored() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                Column::new("f", DataType::Float),
                Column::new("g", DataType::Float),
                Column::new("s", DataType::Text),
            ],
        ));
        // Debug text tells -0.0 from 0.0 and shows NaN, which `==` on
        // values does not.
        let bits = |row: &Row| format!("{row:?}");
        for row in [
            vec![Value::Int(3), Value::Float(-0.0), Value::Text("é'x".into())],
            vec![Value::Float(0.0), Value::Float(f64::NAN), Value::Null],
            vec![Value::Null, Value::Int(-7), Value::Int(12)],
        ] {
            let (id, stored) = t.insert(row.clone()).unwrap();
            assert_eq!(bits(&stored), bits(&t.get(id).unwrap()));
            let again = t.insert_at(RowId(100 + id.0), row).unwrap();
            assert_eq!(bits(&again), bits(&t.get(RowId(100 + id.0)).unwrap()));
        }
        assert_eq!(t.get(RowId(0)).unwrap()[0], Value::Float(3.0));
    }

    #[test]
    fn update_returns_the_row_as_stored() {
        let mut t = Table::new(TableSchema::new(
            "t",
            vec![
                Column::new("f", DataType::Float),
                Column::new("g", DataType::Float),
                Column::new("s", DataType::Text),
            ],
        ));
        let bits = |row: &Row| format!("{row:?}");
        let first = vec![
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Text("a".into()),
        ];
        let (id, _) = t.insert(first.clone()).unwrap();
        let mut before = first;
        for row in [
            vec![Value::Int(3), Value::Float(-0.0), Value::Text("é'x".into())],
            vec![Value::Float(0.0), Value::Float(f64::NAN), Value::Null],
            vec![Value::Null, Value::Int(-7), Value::Int(12)],
        ] {
            let (old, stored) = t.update(id, row).unwrap();
            assert_eq!(bits(&old), bits(&before));
            assert_eq!(bits(&stored), bits(&t.get(id).unwrap()));
            before = stored;
        }
        assert_eq!(t.get(id).unwrap()[2], Value::Text("12".into()));
    }

    #[test]
    fn insert_at_keeps_next_id_monotone() {
        let mut t = table();
        t.insert_at(RowId(10), vec![Value::Int(1), Value::Text("x".into())])
            .unwrap();
        let next = t
            .insert(vec![Value::Int(2), Value::Text("y".into())])
            .unwrap()
            .0;
        assert!(next > RowId(10));
    }

    #[test]
    fn delete_missing_row_errors() {
        let mut t = table();
        assert!(t.delete(RowId(99)).is_err());
        assert!(t
            .update(RowId(99), vec![Value::Int(1), Value::Text("x".into())])
            .is_err());
    }

    #[test]
    fn scan_spans_many_segments_in_document_order() {
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Text),
            ],
        );
        let mut t = Table::with_segment_capacity(schema, 3);
        for i in 0..10 {
            t.insert(vec![Value::Int(i), Value::Text(format!("r{i}"))])
                .unwrap();
        }
        // Delete across segment boundaries, update in the middle.
        t.delete(RowId(0)).unwrap();
        t.delete(RowId(4)).unwrap();
        t.update(RowId(7), vec![Value::Int(70), Value::Text("r70".into())])
            .unwrap();
        let scanned: Vec<i64> = t.scan().map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(scanned, vec![1, 2, 3, 5, 6, 70, 8, 9]);
        assert_eq!(t.store().segments().len(), 4);
    }
}
