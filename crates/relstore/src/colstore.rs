//! The append-only segmented column store backing [`crate::table::Table`].
//!
//! A table's rows live in a list of fixed-capacity [`Segment`]s. Rows are
//! appended in `RowId` order, so scanning segments front to back and slots
//! low to high yields rows in insertion order — which, for shredded XML,
//! is document order ("order as a data value", paper §2.2). Deletes
//! tombstone their slot, updates overwrite in place, and neither moves a
//! row, so `RowId`s stay stable and the scan order never changes
//! underneath stored ordinals.
//!
//! Segments are reference-counted (`Arc`) so cloning a store — the MVCC
//! snapshot publication path in [`crate::db`] — is O(#segments) pointer
//! bumps, not a data copy. Writers mutate through [`Arc::make_mut`]:
//! a segment still referenced by a published snapshot is copied on first
//! write (at most one segment's worth of rows), everything else mutates
//! in place. Row location is a binary search on the per-segment id range
//! plus a binary search inside the segment, replacing the old
//! `RowId → (segment, slot)` hash map that made snapshot clones O(rows).
//!
//! The one operation that can violate append order is WAL replay handing
//! us an id *below* the high-water mark (e.g. a transaction rollback
//! re-inserting a previously deleted row whose slot was since rebuilt
//! away). That path rebuilds the segment list: all live rows are
//! collected, the newcomer spliced in at its sorted position, and every
//! segment (zone maps included) reconstructed from scratch — O(n), rare,
//! and it doubles as arena compaction.

use std::sync::Arc;

use crate::segment::{Segment, SimplePred, SEGMENT_CAPACITY};
use crate::value::{DataType, Value};

/// Segmented columnar storage for one table.
#[derive(Debug, Clone)]
pub struct ColStore {
    types: Vec<DataType>,
    segments: Vec<Arc<Segment>>,
    live_count: usize,
    /// One past the highest id ever appended; appends below this are
    /// out-of-order and trigger a rebuild.
    high_water: u64,
    /// Rows per segment — [`SEGMENT_CAPACITY`] in production, smaller in
    /// tests that need many segments from few rows.
    seg_capacity: usize,
    /// CSN stamped onto subsequent inserts and tombstones; the database
    /// sets it to the committing transaction's sequence number before
    /// applying its operations.
    stamp: u64,
}

impl ColStore {
    /// An empty store for columns of the given types.
    pub fn new(types: Vec<DataType>) -> Self {
        Self::with_segment_capacity(types, SEGMENT_CAPACITY)
    }

    /// As [`ColStore::new`] with a custom segment capacity (tests only).
    pub fn with_segment_capacity(types: Vec<DataType>, seg_capacity: usize) -> Self {
        assert!(seg_capacity > 0);
        ColStore {
            types,
            segments: Vec::new(),
            live_count: 0,
            high_water: 0,
            seg_capacity,
            stamp: 0,
        }
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether the store holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// The segments, in `RowId` order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Sets the CSN stamped onto subsequent mutations.
    pub fn set_stamp(&mut self, csn: u64) {
        self.stamp = csn;
    }

    /// Locates `id` (live or tombstoned) as `(segment index, slot)`.
    ///
    /// Ids are strictly increasing across the segment list, so the owning
    /// segment is the first whose last id is `>= id`, and the slot is a
    /// binary search within it.
    fn locate(&self, id: u64) -> Option<(usize, usize)> {
        let seg_idx = self
            .segments
            .partition_point(|seg| seg.last_id().is_some_and(|last| last < id));
        let slot = self.segments.get(seg_idx)?.find_slot(id)?;
        Some((seg_idx, slot))
    }

    /// Groups ascending row `ids` by owning segment, as `(segment index,
    /// slots)` in scan order — an index probe's result in the shape a
    /// scan walks. Ids this store does not hold are skipped.
    pub fn slots_of(&self, ids: impl IntoIterator<Item = u64>) -> Vec<(usize, Vec<u32>)> {
        let mut groups: Vec<(usize, Vec<u32>)> = Vec::new();
        for (seg_idx, slot) in ids.into_iter().filter_map(|id| self.locate(id)) {
            match groups.last_mut() {
                Some((last, slots)) if *last == seg_idx => slots.push(slot as u32),
                _ => groups.push((seg_idx, vec![slot as u32])),
            }
        }
        groups
    }

    /// Inserts `row` under `id`. An existing id (live or tombstoned) is
    /// overwritten in place; an unseen id below the high-water mark
    /// rebuilds the segment list to splice it in at document order.
    pub fn insert(&mut self, id: u64, row: &[Value]) {
        if let Some((seg_idx, slot)) = self.locate(id) {
            let seg = Arc::make_mut(&mut self.segments[seg_idx]);
            if !seg.is_live(slot) {
                seg.revive(slot);
                self.live_count += 1;
            }
            seg.update(slot, row);
            return;
        }
        if id < self.high_water {
            self.rebuild_with(id, row);
            return;
        }
        self.append_tail(id, row, self.stamp);
    }

    fn append_tail(&mut self, id: u64, row: &[Value], csn: u64) {
        if self
            .segments
            .last()
            .is_none_or(|seg| seg.len() >= self.seg_capacity)
        {
            self.segments.push(Arc::new(Segment::new(&self.types)));
        }
        let seg = self.segments.last_mut().expect("segment just ensured");
        Arc::make_mut(seg).push(id, row, csn);
        self.live_count += 1;
        self.high_water = id + 1;
    }

    /// Rebuilds every segment with `(id, row)` spliced in at its sorted
    /// position. Reclaims tombstoned slots and stale arena bytes, and
    /// recomputes zone maps from the surviving values only. Surviving
    /// rows keep their insert CSN; the newcomer gets the current stamp.
    fn rebuild_with(&mut self, id: u64, row: &[Value]) {
        let mut rows: Vec<(u64, Vec<Value>, u64)> = self
            .segments
            .iter()
            .flat_map(|seg| {
                (0..seg.len())
                    .filter(|&slot| seg.is_live(slot))
                    .map(move |slot| (seg.id_at(slot), seg.row(slot), seg.insert_csn_at(slot)))
            })
            .collect();
        let pos = rows.partition_point(|(existing, _, _)| *existing < id);
        rows.insert(pos, (id, row.to_vec(), self.stamp));
        let high_water = self.high_water.max(id + 1);
        self.segments.clear();
        self.live_count = 0;
        self.high_water = 0;
        for (id, row, csn) in rows {
            self.append_tail(id, &row, csn);
        }
        self.high_water = high_water;
    }

    /// Materializes the live row `id`.
    pub fn get(&self, id: u64) -> Option<Vec<Value>> {
        let (seg_idx, slot) = self.locate(id)?;
        let seg = &self.segments[seg_idx];
        seg.is_live(slot).then(|| seg.row(slot))
    }

    /// Tombstones the live row `id`, returning its former values.
    pub fn delete(&mut self, id: u64) -> Option<Vec<Value>> {
        let (seg_idx, slot) = self.locate(id)?;
        if !self.segments[seg_idx].is_live(slot) {
            return None;
        }
        let stamp = self.stamp;
        let seg = Arc::make_mut(&mut self.segments[seg_idx]);
        let old = seg.row(slot);
        seg.delete(slot, stamp);
        self.live_count -= 1;
        Some(old)
    }

    /// Overwrites the live row `id` in place, returning its former
    /// values. Zone maps widen to cover the new values.
    pub fn update(&mut self, id: u64, row: &[Value]) -> Option<Vec<Value>> {
        let (seg_idx, slot) = self.locate(id)?;
        if !self.segments[seg_idx].is_live(slot) {
            return None;
        }
        let seg = Arc::make_mut(&mut self.segments[seg_idx]);
        let old = seg.row(slot);
        seg.update(slot, row);
        Some(old)
    }

    /// Iterates live `(id, row)` pairs in `RowId` (document) order.
    pub fn scan(&self) -> impl Iterator<Item = (u64, Vec<Value>)> + '_ {
        self.segments.iter().flat_map(|seg| {
            (0..seg.len())
                .filter(|&slot| seg.is_live(slot))
                .map(move |slot| (seg.id_at(slot), seg.row(slot)))
        })
    }

    /// Splits segments into `(visited, pruned_count)` under `preds`'
    /// zone maps. With no predicates every non-empty segment is visited.
    /// Only segments with at least one live row participate.
    pub fn prune_segments(&self, preds: &[SimplePred]) -> (Vec<usize>, u64) {
        let mut visited = Vec::with_capacity(self.segments.len());
        let mut pruned = 0u64;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.live_count() == 0 {
                continue;
            }
            if seg.zones_admit(preds) {
                visited.push(i);
            } else {
                pruned += 1;
            }
        }
        (visited, pruned)
    }

    /// Rewrites every segment whose dead-slot fraction exceeds
    /// `max_dead_ratio`, dropping tombstoned slots, reclaiming stale
    /// arena bytes and recomputing (re-tightening) the widen-only zone
    /// maps from the surviving rows. Fully-dead segments are removed
    /// outright. Surviving rows keep their ids and insert CSNs, and the
    /// id order across segments is preserved, so locations stay valid.
    /// Published snapshots keep their own `Arc`s to the old segments.
    ///
    /// Returns the number of segments rewritten or removed.
    pub fn compact(&mut self, max_dead_ratio: f64) -> usize {
        let mut rebuilt = 0usize;
        let mut out: Vec<Arc<Segment>> = Vec::with_capacity(self.segments.len());
        for seg in self.segments.drain(..) {
            let dead = seg.len() - seg.live_count();
            if dead == 0 || (dead as f64) <= max_dead_ratio * seg.len() as f64 {
                out.push(seg);
                continue;
            }
            rebuilt += 1;
            if seg.live_count() == 0 {
                continue; // fully dead: drop the segment entirely
            }
            let mut fresh = Segment::new(&self.types);
            for slot in 0..seg.len() {
                if seg.is_live(slot) {
                    fresh.push(seg.id_at(slot), &seg.row(slot), seg.insert_csn_at(slot));
                }
            }
            out.push(Arc::new(fresh));
        }
        self.segments = out;
        rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_store(cap: usize) -> ColStore {
        ColStore::with_segment_capacity(vec![DataType::Int], cap)
    }

    fn ids(store: &ColStore) -> Vec<u64> {
        store.scan().map(|(id, _)| id).collect()
    }

    #[test]
    fn appends_roll_over_segment_boundaries() {
        let mut s = int_store(4);
        for i in 0..10 {
            s.insert(i, &[Value::Int(i as i64)]);
        }
        assert_eq!(s.segments().len(), 3);
        assert_eq!(s.len(), 10);
        assert_eq!(ids(&s), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_insert_rebuilds_into_document_order() {
        let mut s = int_store(4);
        for i in [0u64, 1, 5, 6] {
            s.insert(i, &[Value::Int(i as i64)]);
        }
        s.delete(1).unwrap();
        // Id 3 arrives late (WAL rollback shape): must land between 0 and 5.
        s.insert(3, &[Value::Int(33)]);
        assert_eq!(ids(&s), vec![0, 3, 5, 6]);
        assert_eq!(s.get(3).unwrap(), vec![Value::Int(33)]);
        // The rebuild dropped the tombstone for id 1 entirely.
        assert!(s.get(1).is_none());
        // High-water survives the rebuild: the next append still goes last.
        s.insert(7, &[Value::Int(7)]);
        assert_eq!(ids(&s), vec![0, 3, 5, 6, 7]);
    }

    #[test]
    fn reinsert_of_tombstoned_id_revives_in_place() {
        let mut s = int_store(4);
        for i in 0..3 {
            s.insert(i, &[Value::Int(i as i64)]);
        }
        s.delete(1).unwrap();
        assert_eq!(s.len(), 2);
        s.insert(1, &[Value::Int(11)]);
        assert_eq!(s.len(), 3);
        assert_eq!(ids(&s), vec![0, 1, 2]);
        assert_eq!(s.get(1).unwrap(), vec![Value::Int(11)]);
        // No rebuild happened: still a single segment with 3 slots.
        assert_eq!(s.segments().len(), 1);
    }

    #[test]
    fn delete_twice_and_missing_are_none() {
        let mut s = int_store(4);
        s.insert(0, &[Value::Int(0)]);
        assert!(s.delete(0).is_some());
        assert!(s.delete(0).is_none());
        assert!(s.delete(42).is_none());
        assert!(s.update(0, &[Value::Int(9)]).is_none());
    }

    #[test]
    fn pruning_skips_dead_and_out_of_range_segments() {
        use crate::segment::CmpOp;
        let mut s = int_store(2);
        for i in 0..6 {
            s.insert(i, &[Value::Int(i as i64 * 10)]);
        }
        // Kill segment 1 (values 20, 30) entirely.
        s.delete(2).unwrap();
        s.delete(3).unwrap();
        let pred = SimplePred {
            col: 0,
            op: CmpOp::Ge,
            lit: Value::Int(40),
        };
        let (visited, pruned) = s.prune_segments(std::slice::from_ref(&pred));
        // Segment 0 (0,10) pruned by zones; segment 1 skipped as dead
        // (not counted as pruned); segment 2 (40,50) visited.
        assert_eq!(visited, vec![2]);
        assert_eq!(pruned, 1);
    }

    #[test]
    fn mutations_stamp_the_current_csn() {
        let mut s = int_store(4);
        s.set_stamp(7);
        s.insert(0, &[Value::Int(0)]);
        s.insert(1, &[Value::Int(1)]);
        s.set_stamp(9);
        s.delete(1).unwrap();
        let seg = &s.segments()[0];
        assert_eq!(seg.insert_csn_at(0), 7);
        assert_eq!(seg.delete_csn_at(0), 0);
        assert_eq!(seg.insert_csn_at(1), 7);
        assert_eq!(seg.delete_csn_at(1), 9);
        // Reviving the tombstoned id clears its delete stamp.
        s.set_stamp(11);
        s.insert(1, &[Value::Int(11)]);
        assert_eq!(s.segments()[0].delete_csn_at(1), 0);
    }

    #[test]
    fn clones_share_segments_until_written() {
        let mut s = int_store(2);
        for i in 0..6 {
            s.insert(i, &[Value::Int(i as i64)]);
        }
        let snapshot = s.clone();
        // Copy-on-write: mutating the original leaves the clone intact.
        s.update(0, &[Value::Int(100)]).unwrap();
        s.delete(5).unwrap();
        assert_eq!(snapshot.get(0).unwrap(), vec![Value::Int(0)]);
        assert_eq!(snapshot.get(5).unwrap(), vec![Value::Int(5)]);
        assert_eq!(s.get(0).unwrap(), vec![Value::Int(100)]);
        assert!(s.get(5).is_none());
        // The untouched middle segment is still physically shared.
        assert!(Arc::ptr_eq(&s.segments()[1], &snapshot.segments()[1]));
    }

    #[test]
    fn compact_drops_tombstones_and_tightens_zones() {
        use crate::segment::CmpOp;
        let mut s = int_store(4);
        for i in 0..8 {
            s.insert(i, &[Value::Int(i as i64 * 10)]);
        }
        // Segment 0: delete the extremes (0 and 30) — zones stay wide
        // until compaction. Segment 1: kill it entirely.
        s.delete(0).unwrap();
        s.delete(3).unwrap();
        for i in 4..8 {
            s.delete(i).unwrap();
        }
        assert!(s.segments()[0].zone(0).can_match(CmpOp::Eq, &Value::Int(0)));
        let rebuilt = s.compact(0.4);
        assert_eq!(rebuilt, 2);
        assert_eq!(s.segments().len(), 1);
        assert_eq!(ids(&s), vec![1, 2]);
        // Zones recomputed from the survivors only: 10..=20.
        let zone = s.segments()[0].zone(0);
        assert!(!zone.can_match(CmpOp::Eq, &Value::Int(0)));
        assert!(!zone.can_match(CmpOp::Eq, &Value::Int(30)));
        assert!(zone.can_match(CmpOp::Eq, &Value::Int(10)));
        // Location still works after segment removal, and appends resume
        // past the old high-water mark.
        assert_eq!(s.get(2).unwrap(), vec![Value::Int(20)]);
        s.insert(8, &[Value::Int(80)]);
        assert_eq!(ids(&s), vec![1, 2, 8]);
    }

    #[test]
    fn compact_leaves_lightly_tombstoned_segments_alone() {
        let mut s = int_store(4);
        for i in 0..4 {
            s.insert(i, &[Value::Int(i as i64)]);
        }
        s.delete(0).unwrap();
        // 25% dead <= 40% threshold: untouched.
        assert_eq!(s.compact(0.4), 0);
        assert_eq!(s.segments()[0].len(), 4);
    }
}
