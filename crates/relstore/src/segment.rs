//! Fixed-capacity columnar segments: the building block of the
//! append-only column store in [`crate::colstore`].
//!
//! A segment holds up to [`SEGMENT_CAPACITY`] rows decomposed into typed
//! column vectors (`Vec<i64>` / `Vec<f64>`; strings offset-packed into a
//! per-segment arena) with a null bitmap per column and a tombstone
//! bitmap for deleted slots. Per-column [`ZoneMap`]s (min/max + null
//! count) are widened on every write and let scans skip whole segments
//! for simple comparison predicates. The vectorized kernels in this
//! module evaluate such predicates over column slices into selection
//! vectors without materializing rows.
//!
//! Type homogeneity invariant: [`crate::schema::TableSchema::check_row`]
//! coerces every stored value to the column's declared [`DataType`] (or
//! `Null`) before it reaches a segment, so each column vector holds one
//! physical type and the kernels can dispatch once per segment instead
//! of once per value.

use std::cmp::Ordering;

use crate::value::{DataType, Value};

/// Rows per segment. Small enough that a segment's columns fit in cache
/// during a vectorized pass, large enough to amortize per-segment
/// dispatch and zone-map checks.
pub const SEGMENT_CAPACITY: usize = 1024;

/// Comparison operator for a pushed-down predicate, mirroring the
/// comparison subset of `BinOp` with [`Value::compare`] semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether an ordering between a stored value and the literal
    /// satisfies the operator.
    #[inline]
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    /// Mirrors the operator across the operands: `lit op col` ⇢
    /// `col op.flip() lit`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// A sargable conjunct `column <op> literal`, extracted from a filter
/// predicate. Kernels drop rows for which the comparison is false *or*
/// unknown — exactly how a WHERE clause treats the conjunct, so applying
/// it early can never change which rows survive the full predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct SimplePred {
    /// Column position in the table schema.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub lit: Value,
}

/// Typed storage for one column of a segment. Null slots hold a
/// sentinel (0 / 0.0 / empty span) and are masked by the null bitmap.
#[derive(Debug, Clone)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text {
        /// `(offset, len)` into `arena` per slot.
        spans: Vec<(u32, u32)>,
        /// Concatenated string bytes. Updates append; stale bytes are
        /// reclaimed only when the store rebuilds the segment list.
        arena: String,
    },
}

/// One column: typed vector plus null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: Vec<bool>,
}

impl Column {
    fn new(ty: DataType) -> Self {
        let data = match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Text => ColumnData::Text {
                spans: Vec::new(),
                arena: String::new(),
            },
        };
        Column {
            data,
            nulls: Vec::new(),
        }
    }

    fn push(&mut self, v: &Value) {
        self.nulls.push(v.is_null());
        match (&mut self.data, v) {
            (ColumnData::Int(vals), Value::Int(i)) => vals.push(*i),
            (ColumnData::Int(vals), _) => vals.push(0),
            (ColumnData::Float(vals), Value::Float(f)) => vals.push(*f),
            (ColumnData::Float(vals), _) => vals.push(0.0),
            (ColumnData::Text { spans, arena }, Value::Text(s)) => {
                spans.push((arena.len() as u32, s.len() as u32));
                arena.push_str(s);
            }
            (ColumnData::Text { spans, .. }, _) => spans.push((0, 0)),
        }
    }

    /// Overwrites `slot` in place. Text updates append to the arena and
    /// abandon the old span.
    fn set(&mut self, slot: usize, v: &Value) {
        self.nulls[slot] = v.is_null();
        match (&mut self.data, v) {
            (ColumnData::Int(vals), Value::Int(i)) => vals[slot] = *i,
            (ColumnData::Int(vals), _) => vals[slot] = 0,
            (ColumnData::Float(vals), Value::Float(f)) => vals[slot] = *f,
            (ColumnData::Float(vals), _) => vals[slot] = 0.0,
            (ColumnData::Text { spans, arena }, Value::Text(s)) => {
                spans[slot] = (arena.len() as u32, s.len() as u32);
                arena.push_str(s);
            }
            (ColumnData::Text { spans, .. }, _) => spans[slot] = (0, 0),
        }
    }

    /// Materializes the value at `slot`.
    #[inline]
    pub fn value(&self, slot: usize) -> Value {
        if self.nulls[slot] {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(vals) => Value::Int(vals[slot]),
            ColumnData::Float(vals) => Value::Float(vals[slot]),
            ColumnData::Text { spans, arena } => {
                let (off, len) = spans[slot];
                Value::Text(arena[off as usize..(off + len) as usize].to_string())
            }
        }
    }
}

/// Per-segment, per-column min/max statistics. `min`/`max` stay `None`
/// until the first *comparable* non-null value is written (NULLs and NaN
/// never satisfy a comparison, so they are excluded). Zones only widen:
/// deletes and updates leave old bounds in place, keeping the zone a
/// conservative superset of the live values.
#[derive(Debug, Clone, Default)]
pub struct ZoneMap {
    min: Option<Value>,
    max: Option<Value>,
    null_count: u32,
}

impl ZoneMap {
    /// Widens the zone to cover `v`.
    fn observe(&mut self, v: &Value) {
        if v.is_null() {
            self.null_count += 1;
            return;
        }
        if matches!(v, Value::Float(f) if f.is_nan()) {
            // NaN compares with nothing: it can never satisfy a pushed
            // predicate and would poison min/max comparisons.
            return;
        }
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => {
                if v.compare(min) == Some(Ordering::Less) {
                    self.min = Some(v.clone());
                }
                if v.compare(max) == Some(Ordering::Greater) {
                    self.max = Some(v.clone());
                }
            }
            _ => {
                self.min = Some(v.clone());
                self.max = Some(v.clone());
            }
        }
    }

    /// NULL slots recorded for this column.
    pub fn null_count(&self) -> u32 {
        self.null_count
    }

    /// Min/max bounds, `None` when no comparable value was written.
    pub fn bounds(&self) -> Option<(&Value, &Value)> {
        match (&self.min, &self.max) {
            (Some(min), Some(max)) => Some((min, max)),
            _ => None,
        }
    }

    /// Whether *any* value in `[min, max]` could satisfy `op lit`.
    /// Returning `false` proves no row in the segment matches the
    /// conjunct (NULLs and NaN never match a comparison); returning
    /// `true` makes no promise and the kernels still run.
    pub fn can_match(&self, op: CmpOp, lit: &Value) -> bool {
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            // Only NULL/NaN values were ever written: no comparison
            // predicate can accept them.
            return false;
        };
        let (Some(cmp_min), Some(cmp_max)) = (min.compare(lit), max.compare(lit)) else {
            // NULL literal, NaN literal, or a type the whole (homogeneous)
            // column cannot compare with: nothing here can match.
            return false;
        };
        match op {
            CmpOp::Eq => !(cmp_min.is_gt() || cmp_max.is_lt()),
            CmpOp::Ne => !(cmp_min.is_eq() && cmp_max.is_eq()),
            CmpOp::Lt => cmp_min.is_lt(),
            CmpOp::Le => cmp_min.is_le(),
            CmpOp::Gt => cmp_max.is_gt(),
            CmpOp::Ge => cmp_max.is_ge(),
        }
    }
}

/// A fixed-capacity run of rows in columnar form. Slots are appended in
/// `RowId` order and never move; deletes flip the tombstone bit.
#[derive(Debug, Clone)]
pub struct Segment {
    /// RowId per slot, strictly increasing within the segment.
    ids: Vec<u64>,
    /// Tombstone bitmap: `false` = deleted.
    live: Vec<bool>,
    /// Commit sequence number that created each slot (0 = pre-MVCC:
    /// bootstrap, replayed snapshot records, or rebuilt segments).
    insert_csn: Vec<u64>,
    /// Commit sequence number that tombstoned each slot (0 = never
    /// deleted). Cleared again when a rollback revives the slot.
    delete_csn: Vec<u64>,
    live_count: usize,
    cols: Vec<Column>,
    zones: Vec<ZoneMap>,
}

impl Segment {
    /// An empty segment for the given column types.
    pub fn new(types: &[DataType]) -> Self {
        Segment {
            ids: Vec::new(),
            live: Vec::new(),
            insert_csn: Vec::new(),
            delete_csn: Vec::new(),
            live_count: 0,
            cols: types.iter().map(|&ty| Column::new(ty)).collect(),
            zones: types.iter().map(|_| ZoneMap::default()).collect(),
        }
    }

    /// Number of slots (live + tombstoned).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the segment has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Live (non-tombstoned) rows.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Whether the segment has room for another row.
    pub fn has_capacity(&self) -> bool {
        self.ids.len() < SEGMENT_CAPACITY
    }

    /// RowId stored at `slot`.
    #[inline]
    pub fn id_at(&self, slot: usize) -> u64 {
        self.ids[slot]
    }

    /// Highest RowId in the segment (`None` when empty).
    #[inline]
    pub fn last_id(&self) -> Option<u64> {
        self.ids.last().copied()
    }

    /// Binary-searches the strictly-increasing id vector for `id`,
    /// returning its slot.
    #[inline]
    pub fn find_slot(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Whether `slot` is live.
    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        self.live[slot]
    }

    /// CSN of the commit that created `slot` (0 = pre-MVCC).
    #[inline]
    pub fn insert_csn_at(&self, slot: usize) -> u64 {
        self.insert_csn[slot]
    }

    /// CSN of the commit that tombstoned `slot` (0 = still live).
    #[inline]
    pub fn delete_csn_at(&self, slot: usize) -> u64 {
        self.delete_csn[slot]
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// The zone map for `col`.
    pub fn zone(&self, col: usize) -> &ZoneMap {
        &self.zones[col]
    }

    /// Appends a row stamped with the committing transaction's `csn`,
    /// returning its slot. The caller guarantees `id` is greater than
    /// every id already in the segment and that `row` values match the
    /// declared column types (enforced upstream by `check_row`).
    pub fn push(&mut self, id: u64, row: &[Value], csn: u64) -> usize {
        debug_assert!(self.has_capacity());
        debug_assert!(self.ids.last().is_none_or(|&last| last < id));
        let slot = self.ids.len();
        self.ids.push(id);
        self.live.push(true);
        self.insert_csn.push(csn);
        self.delete_csn.push(0);
        self.live_count += 1;
        for ((col, zone), v) in self.cols.iter_mut().zip(&mut self.zones).zip(row) {
            col.push(v);
            zone.observe(v);
        }
        slot
    }

    /// Tombstones `slot`, stamping the deleting commit's `csn`. Zone maps
    /// are left untouched (they only ever widen), so pruning stays
    /// conservative.
    pub fn delete(&mut self, slot: usize, csn: u64) {
        debug_assert!(self.live[slot]);
        self.live[slot] = false;
        self.delete_csn[slot] = csn;
        self.live_count -= 1;
    }

    /// Clears the tombstone on `slot` (re-insert under an existing id,
    /// e.g. WAL rollback). No-op when the slot is already live.
    pub fn revive(&mut self, slot: usize) {
        if !self.live[slot] {
            self.live[slot] = true;
            self.delete_csn[slot] = 0;
            self.live_count += 1;
        }
    }

    /// Overwrites `slot` in place, widening zones to cover the new
    /// values. The old values' contribution to min/max is *not* removed.
    pub fn update(&mut self, slot: usize, row: &[Value]) {
        for ((col, zone), v) in self.cols.iter_mut().zip(&mut self.zones).zip(row) {
            col.set(slot, v);
            zone.observe(v);
        }
    }

    /// Materializes the full row at `slot`.
    pub fn row(&self, slot: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(slot)).collect()
    }

    /// Materializes column `col` for every slot in `sel`, appending one
    /// value to `out[k]` for slot `sel[k]`. The `ColumnData` match is
    /// hoisted out of the per-slot loop: this is the columnar gather
    /// behind a leaf's kernel-selected batches, where an entire span's
    /// surviving slots materialize one column at a time.
    pub fn gather_column(&self, col: usize, sel: &[u32], out: &mut [Vec<Value>]) {
        let c = &self.cols[col];
        match &c.data {
            ColumnData::Int(vals) => {
                for (row, &slot) in out.iter_mut().zip(sel) {
                    let s = slot as usize;
                    row.push(if c.nulls[s] {
                        Value::Null
                    } else {
                        Value::Int(vals[s])
                    });
                }
            }
            ColumnData::Float(vals) => {
                for (row, &slot) in out.iter_mut().zip(sel) {
                    let s = slot as usize;
                    row.push(if c.nulls[s] {
                        Value::Null
                    } else {
                        Value::Float(vals[s])
                    });
                }
            }
            ColumnData::Text { spans, arena } => {
                for (row, &slot) in out.iter_mut().zip(sel) {
                    let s = slot as usize;
                    row.push(if c.nulls[s] {
                        Value::Null
                    } else {
                        let (off, len) = spans[s];
                        Value::Text(arena[off as usize..(off + len) as usize].to_string())
                    });
                }
            }
        }
    }

    /// Whether the zone maps admit any match for *all* of `preds`.
    pub fn zones_admit(&self, preds: &[SimplePred]) -> bool {
        preds
            .iter()
            .all(|p| self.zones[p.col].can_match(p.op, &p.lit))
    }

    /// Collects the live slots in `range` into `sel`.
    pub fn live_slots(&self, range: std::ops::Range<usize>, sel: &mut Vec<u32>) {
        sel.clear();
        sel.extend(
            self.live[range.clone()]
                .iter()
                .zip(range)
                .filter(|(&live, _)| live)
                .map(|(_, slot)| slot as u32),
        );
    }

    /// Narrows `sel` to the slots whose value satisfies `pred`, with the
    /// same accept set as evaluating the conjunct through
    /// [`Value::compare`]: false *or unknown* drops the slot.
    pub fn apply_pred(&self, pred: &SimplePred, sel: &mut Vec<u32>) {
        let col = &self.cols[pred.col];
        let nulls = &col.nulls;
        let op = pred.op;
        match (&col.data, &pred.lit) {
            (ColumnData::Int(vals), Value::Int(lit)) => {
                let lit = *lit;
                sel.retain(|&s| {
                    let s = s as usize;
                    !nulls[s] && op.matches(vals[s].cmp(&lit))
                });
            }
            (ColumnData::Int(vals), Value::Float(lit)) => {
                // Exact mixed comparison, same as the scalar path: casting
                // the column values to f64 would collapse integers beyond
                // 2^53 onto the literal.
                let lit = *lit;
                sel.retain(|&s| {
                    let s = s as usize;
                    !nulls[s]
                        && crate::value::cmp_int_float(vals[s], lit).is_some_and(|o| op.matches(o))
                });
            }
            (ColumnData::Float(vals), Value::Float(lit)) => {
                let lit = *lit;
                sel.retain(|&s| {
                    let s = s as usize;
                    !nulls[s] && vals[s].partial_cmp(&lit).is_some_and(|o| op.matches(o))
                });
            }
            (ColumnData::Float(vals), Value::Int(lit)) => {
                // Mirror of the Int-column case: compare the integer
                // literal exactly against each float, never through a cast.
                let lit = *lit;
                sel.retain(|&s| {
                    let s = s as usize;
                    !nulls[s]
                        && crate::value::cmp_int_float(lit, vals[s])
                            .map(std::cmp::Ordering::reverse)
                            .is_some_and(|o| op.matches(o))
                });
            }
            (ColumnData::Text { spans, arena }, Value::Text(lit)) => {
                let lit = lit.as_str();
                sel.retain(|&s| {
                    let s = s as usize;
                    if nulls[s] {
                        return false;
                    }
                    let (off, len) = spans[s];
                    let text = &arena[off as usize..(off + len) as usize];
                    op.matches(text.cmp(lit))
                });
            }
            // Remaining cross-type cases (Int column vs Text literal,
            // Text column vs numeric literal, any column vs NULL):
            // `Value::compare` is unknown for every row.
            _ => sel.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_int(values: &[Option<i64>]) -> Segment {
        let mut seg = Segment::new(&[DataType::Int]);
        for (i, v) in values.iter().enumerate() {
            let val = v.map_or(Value::Null, Value::Int);
            seg.push(i as u64, &[val], 0);
        }
        seg
    }

    fn pred(op: CmpOp, lit: Value) -> SimplePred {
        SimplePred { col: 0, op, lit }
    }

    fn selected(seg: &Segment, p: &SimplePred) -> Vec<u32> {
        let mut sel = Vec::new();
        seg.live_slots(0..seg.len(), &mut sel);
        seg.apply_pred(p, &mut sel);
        sel
    }

    #[test]
    fn zone_bounds_track_min_max_and_nulls() {
        let seg = seg_int(&[Some(5), None, Some(2), Some(9)]);
        let zone = seg.zone(0);
        let (min, max) = zone.bounds().unwrap();
        assert_eq!((min, max), (&Value::Int(2), &Value::Int(9)));
        assert_eq!(zone.null_count(), 1);
    }

    #[test]
    fn zone_pruning_matches_kernel_results() {
        // Exhaustive consistency: whenever the zone says "no match",
        // the kernel must select nothing.
        let seg = seg_int(&[Some(10), Some(20), None, Some(30)]);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for lit in [0i64, 9, 10, 15, 30, 31, 100] {
                let p = pred(op, Value::Int(lit));
                let sel = selected(&seg, &p);
                if !seg.zone(0).can_match(op, &p.lit) {
                    assert!(
                        sel.is_empty(),
                        "zone pruned but kernel found {sel:?} for {p:?}"
                    );
                }
            }
        }
        // And pruning actually fires on out-of-range literals.
        assert!(!seg.zone(0).can_match(CmpOp::Eq, &Value::Int(99)));
        assert!(!seg.zone(0).can_match(CmpOp::Lt, &Value::Int(10)));
        assert!(!seg.zone(0).can_match(CmpOp::Gt, &Value::Int(30)));
    }

    #[test]
    fn kernel_mixed_type_compare_is_exact() {
        // Int column vs float literal: 2^53 and 2^53+1 collapse onto the
        // same f64 under a cast; the kernel must keep them distinct, and
        // must agree with the scalar Value::compare path.
        let p53 = 1i64 << 53;
        let seg = seg_int(&[Some(p53), Some(p53 + 1), Some(i64::MAX)]);
        let sel = selected(&seg, &pred(CmpOp::Eq, Value::Float(p53 as f64)));
        assert_eq!(sel, vec![0], "only the exactly-equal slot matches");
        let sel = selected(&seg, &pred(CmpOp::Gt, Value::Float(p53 as f64)));
        assert_eq!(sel, vec![1, 2]);
        // i64::MAX as f64 rounds up to 2^63: nothing equals it.
        let two_63 = 9_223_372_036_854_775_808.0f64;
        let sel = selected(&seg, &pred(CmpOp::Eq, Value::Float(two_63)));
        assert!(sel.is_empty());
        let sel = selected(&seg, &pred(CmpOp::Lt, Value::Float(two_63)));
        assert_eq!(sel, vec![0, 1, 2]);

        // Float column vs big int literal, the mirror case.
        let mut fseg = Segment::new(&[DataType::Float]);
        fseg.push(0, &[Value::Float(p53 as f64)], 0);
        fseg.push(1, &[Value::Float((p53 as f64) * 2.0)], 0);
        let mut sel = Vec::new();
        fseg.live_slots(0..fseg.len(), &mut sel);
        fseg.apply_pred(&pred(CmpOp::Lt, Value::Int(p53 + 1)), &mut sel);
        assert_eq!(sel, vec![0], "2^53 < 2^53+1 exactly (a cast would tie)");
    }

    #[test]
    fn all_null_column_prunes_everything() {
        let seg = seg_int(&[None, None]);
        assert!(!seg.zone(0).can_match(CmpOp::Eq, &Value::Int(0)));
        assert!(!seg.zone(0).can_match(CmpOp::Ne, &Value::Int(0)));
    }

    #[test]
    fn null_literal_prunes() {
        let seg = seg_int(&[Some(1)]);
        assert!(!seg.zone(0).can_match(CmpOp::Eq, &Value::Null));
        assert!(selected(&seg, &pred(CmpOp::Eq, Value::Null)).is_empty());
    }

    #[test]
    fn nan_values_never_poison_zones() {
        let mut seg = Segment::new(&[DataType::Float]);
        seg.push(0, &[Value::Float(f64::NAN)], 0);
        // Only NaN so far: zone has no bounds, everything prunes...
        assert!(!seg.zone(0).can_match(CmpOp::Ge, &Value::Float(0.0)));
        seg.push(1, &[Value::Float(1.5)], 0);
        // ...but a later comparable value re-enables matching.
        assert!(seg.zone(0).can_match(CmpOp::Eq, &Value::Float(1.5)));
        let sel = selected(&seg, &pred(CmpOp::Ge, Value::Float(0.0)));
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn kernels_mirror_value_compare_across_types() {
        let mut seg = Segment::new(&[DataType::Int, DataType::Float, DataType::Text]);
        seg.push(
            0,
            &[Value::Int(3), Value::Float(2.5), Value::Text("pear".into())],
            0,
        );
        seg.push(1, &[Value::Null, Value::Null, Value::Null], 0);
        let cases = [
            (
                SimplePred {
                    col: 0,
                    op: CmpOp::Eq,
                    lit: Value::Float(3.0),
                },
                vec![0],
            ),
            (
                SimplePred {
                    col: 0,
                    op: CmpOp::Lt,
                    lit: Value::Float(2.5),
                },
                vec![],
            ),
            (
                SimplePred {
                    col: 1,
                    op: CmpOp::Gt,
                    lit: Value::Int(2),
                },
                vec![0],
            ),
            (
                SimplePred {
                    col: 1,
                    op: CmpOp::Gt,
                    lit: Value::Text("x".into()),
                },
                vec![],
            ),
            (
                SimplePred {
                    col: 2,
                    op: CmpOp::Ge,
                    lit: Value::Text("pea".into()),
                },
                vec![0],
            ),
            (
                SimplePred {
                    col: 2,
                    op: CmpOp::Lt,
                    lit: Value::Int(7),
                },
                vec![],
            ),
        ];
        for (p, want) in cases {
            assert_eq!(selected(&seg, &p), want, "pred {p:?}");
        }
    }

    #[test]
    fn tombstones_hide_rows_but_zones_stay_wide() {
        let mut seg = seg_int(&[Some(1), Some(100)]);
        seg.delete(1, 0);
        assert_eq!(seg.live_count(), 1);
        assert_eq!(selected(&seg, &pred(CmpOp::Ge, Value::Int(0))), vec![0]);
        // The deleted max still widens the zone — conservative, never wrong.
        assert!(seg.zone(0).can_match(CmpOp::Eq, &Value::Int(100)));
    }

    #[test]
    fn update_widens_zone_and_rewrites_text_span() {
        let mut seg = Segment::new(&[DataType::Text]);
        seg.push(0, &[Value::Text("bb".into())], 0);
        seg.update(0, &[Value::Text("zz".into())]);
        assert_eq!(seg.row(0), vec![Value::Text("zz".into())]);
        let (min, max) = seg.zone(0).bounds().unwrap();
        assert_eq!(min, &Value::Text("bb".into())); // old bound kept
        assert_eq!(max, &Value::Text("zz".into()));
    }
}
