//! Copy-on-write chunked sequences: the one structure behind every piece
//! of engine state a commit may change in place — the B-tree and keyword
//! indexes, a materialized view's maintenance state and a deferred
//! view's pending log.
//!
//! The items sit in order in chunks of at most [`CHUNK_CAPACITY`], each
//! chunk behind an `Arc`, and an item is found by a binary search over the
//! chunks' last items, then one inside its chunk — as
//! [`ColStore`](crate::colstore::ColStore) does for its segments. So:
//!
//! - a clone (the MVCC snapshot cut on every commit) costs one pointer
//!   bump per chunk;
//! - a write copies only the chunk it touches (`Arc::make_mut`), and only
//!   while a published snapshot still shares it: O(chunk), whatever the
//!   size of the whole;
//! - a chunk that outgrows the capacity splits in half (the last chunk
//!   gives up only its overflow, so ascending inserts and appends leave
//!   full chunks), and one that empties is dropped.
//!
//! Three chunk shapes share the list: [`Runs`] (index postings: each key
//! once per chunk, with its row ids as a sorted run), `(hash, key, value)`
//! entries in hash-then-key order ([`CowMap`], a view's state) and plain
//! items in arrival order ([`CowLog`], the pending log).

use std::borrow::Borrow;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use crate::table::RowId;

/// Items per chunk. A commit pays one pointer bump (and later one drop)
/// per chunk of every index it writes, plus one chunk copy per chunk it
/// writes: small chunks make the first grow with the table, big ones the
/// second. Measured (2 cores) as the p50 of one prepared one-row INSERT
/// plus one DELETE, in µs, on 5 000 / 50 000 rows with three B-tree
/// indexes: 64 → 64 / 187, 128 → 54 / 129, 256 → 60 / 101,
/// 512 → 79 / 88, 1 024 → 94 / 106; with one keyword index over a token
/// every row holds, 512 was also the cheapest at 50 000 rows.
pub(crate) const CHUNK_CAPACITY: usize = 512;

/// What a chunk list needs of its chunks.
pub(crate) trait Chunk: Clone {
    /// Items held: the unit [`CHUNK_CAPACITY`] counts.
    fn len(&self) -> usize;
    /// Moves the items from position `at` on into a new chunk.
    fn split_at(&mut self, at: usize) -> Self;
}

/// Ordered items in copy-on-write chunks; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Chunks<C> {
    chunks: Vec<Arc<C>>,
    cap: usize,
}

impl<C: Chunk> Default for Chunks<C> {
    fn default() -> Self {
        Self::with_capacity(CHUNK_CAPACITY)
    }
}

impl<C: Chunk> Chunks<C> {
    /// An empty list whose chunks hold at most `cap` items.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0);
        Chunks {
            chunks: Vec::new(),
            cap,
        }
    }

    /// The first chunk `before` does not hold to lie wholly before the
    /// item sought (`before` is monotone over the list); an item past
    /// every chunk belongs to the last one, where inserting it keeps the
    /// order.
    fn find_slot(&self, before: impl Fn(&C) -> bool) -> usize {
        let i = self.chunks.partition_point(|c| before(c));
        i.min(self.chunks.len().saturating_sub(1))
    }

    /// Runs `edit` on chunk `i` — first copied if a snapshot shares it,
    /// created if the list is empty — then splits the chunk if it
    /// outgrew the capacity, or drops it if it emptied.
    fn edit<R>(&mut self, i: usize, edit: impl FnOnce(&mut C) -> R) -> R
    where
        C: Default,
    {
        if self.chunks.is_empty() {
            self.chunks.push(Arc::default());
        }
        let last = i + 1 == self.chunks.len();
        let chunk = Arc::make_mut(&mut self.chunks[i]);
        let out = edit(chunk);
        if chunk.len() > self.cap {
            // The last chunk gives up only its overflow: ascending
            // inserts (a sorted build, a log's appends) leave full chunks.
            let at = if last { self.cap } else { chunk.len() / 2 };
            let upper = chunk.split_at(at);
            self.chunks.insert(i + 1, Arc::new(upper));
        } else if chunk.len() == 0 {
            self.chunks.remove(i);
        }
        out
    }

    /// Number of chunks.
    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many of this list's chunks `other` does not share (by
    /// pointer): what a write since `other` was cloned has copied.
    #[cfg(test)]
    pub(crate) fn unshared_with(&self, other: &Self) -> usize {
        self.chunks
            .iter()
            .filter(|c| !other.chunks.iter().any(|o| Arc::ptr_eq(c, o)))
            .count()
    }
}

impl<T: Clone> Chunk for Vec<T> {
    fn len(&self) -> usize {
        self.len()
    }

    fn split_at(&mut self, at: usize) -> Self {
        self.split_off(at)
    }
}

/// Items in arrival order: an append touches only the tail chunk.
pub(crate) type CowLog<T> = Chunks<Vec<T>>;

impl<T: Clone> Chunks<Vec<T>> {
    /// Appends `item` to the tail chunk.
    pub(crate) fn push(&mut self, item: T) {
        self.edit(self.chunks.len().saturating_sub(1), |tail| tail.push(item));
    }

    /// Every item, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

/// A map for state a commit edits a few entries of at a time. Entries
/// sort by key hash, then key, so a probe compares words, not keys.
pub(crate) type CowMap<K, V> = Chunks<Vec<(u64, K, V)>>;

impl<K: Ord + Hash + Clone, V: Clone> Chunks<Vec<(u64, K, V)>> {
    /// The map of `entries` (distinct keys), sorted once and packed into
    /// full chunks.
    pub(crate) fn from_entries(entries: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut items: Vec<(u64, K, V)> = entries
            .into_iter()
            .map(|(k, v)| (hash_of(&k), k, v))
            .collect();
        items.sort_unstable_by(|x, y| (x.0, &x.1).cmp(&(y.0, &y.1)));
        let mut out = Self::default();
        let mut items = items.into_iter().peekable();
        while items.peek().is_some() {
            out.chunks
                .push(Arc::new(items.by_ref().take(out.cap).collect()));
        }
        out
    }

    /// `key`'s hash, the chunk that holds `key` if any does, and the
    /// search within it.
    fn probe(&self, key: &K) -> (u64, usize, Result<usize, usize>) {
        let h = hash_of(key);
        let i = self.find_slot(|c| c.last().is_some_and(|(kh, k, _)| (*kh, k) < (h, key)));
        let found = self.chunks.get(i).map_or(Err(0), |c| {
            c.binary_search_by(|(kh, k, _)| (*kh, k).cmp(&(h, key)))
        });
        (h, i, found)
    }

    /// The value under `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let (_, i, Ok(at)) = self.probe(key) else {
            return None;
        };
        Some(&self.chunks[i][at].2)
    }

    /// The value under `key`, its chunk copied first if shared.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (_, i, Ok(at)) = self.probe(key) else {
            return None;
        };
        Some(&mut Arc::make_mut(&mut self.chunks[i])[at].2)
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (h, i, found) = self.probe(&key);
        self.edit(i, |chunk| match found {
            Ok(at) => Some(std::mem::replace(&mut chunk[at].2, value)),
            Err(at) => {
                chunk.insert(at, (h, key, value));
                None
            }
        })
    }

    /// Removes and returns the value under `key`.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let (_, i, Ok(at)) = self.probe(key) else {
            return None;
        };
        Some(self.edit(i, |chunk| chunk.remove(at).2))
    }

    /// Whether the map holds no entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// The hash a [`CowMap`] orders its entries by.
fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// One chunk of index postings: `(key, row id)` pairs in order, each key
/// stored once, its ids a sorted run. A key with more ids than one chunk
/// holds continues as the first run of the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct Runs<K> {
    keys: Vec<K>,
    /// One past each run's last position in `ids`.
    ends: Vec<usize>,
    ids: Vec<RowId>,
}

impl<K> Runs<K> {
    fn start(&self, run: usize) -> usize {
        run.checked_sub(1).map_or(0, |prev| self.ends[prev])
    }

    fn run(&self, run: usize) -> &[RowId] {
        &self.ids[self.start(run)..self.ends[run]]
    }

    /// The last `(key, id)` pair; chunks in a list are never empty.
    fn last(&self) -> (&K, RowId) {
        (
            &self.keys[self.keys.len() - 1],
            self.ids[self.ids.len() - 1],
        )
    }
}

impl<K: Clone> Chunk for Runs<K> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn split_at(&mut self, mid: usize) -> Self {
        // The run holding position `mid` starts the upper half; if it
        // started below `mid` its key heads both halves.
        let run = self.ends.partition_point(|&end| end <= mid);
        let straddles = self.start(run) < mid;
        let keys = self.keys.split_off(run);
        let ends = self.ends.split_off(run).iter().map(|e| e - mid).collect();
        if straddles {
            self.keys.push(keys[0].clone());
            self.ends.push(mid);
        }
        Runs {
            keys,
            ends,
            ids: self.ids.split_off(mid),
        }
    }
}

/// Index postings: a sorted set of `(key, row id)` pairs.
pub(crate) type Postings<K> = Chunks<Runs<K>>;

impl<K: Clone + Default> Chunks<Runs<K>> {
    /// Postings of `pairs`, sorted once and packed into full chunks; a
    /// key becomes a `K` once per run, not once per pair. `new_key` sees
    /// each distinct key once, in order, with the one before it.
    pub(crate) fn from_pairs<J: Ord + Clone>(
        cap: usize,
        mut pairs: Vec<(J, RowId)>,
        mut new_key: impl FnMut(Option<&J>, &J),
    ) -> Self
    where
        K: From<J>,
    {
        pairs.sort_unstable();
        pairs.dedup();
        let mut out = Self::with_capacity(cap);
        let mut chunk = Runs::default();
        let mut last: Option<J> = None;
        for (key, id) in pairs {
            if chunk.ids.len() == cap {
                out.chunks.push(Arc::new(std::mem::take(&mut chunk)));
            }
            let new = last.as_ref() != Some(&key);
            if new {
                new_key(last.as_ref(), &key);
            }
            if chunk.keys.is_empty() || new {
                chunk.keys.push(K::from(key.clone()));
                chunk.ends.push(chunk.ids.len());
                last = Some(key);
            }
            chunk.ids.push(id);
            *chunk.ends.last_mut().expect("run just ensured") += 1;
        }
        if !chunk.ids.is_empty() {
            out.chunks.push(Arc::new(chunk));
        }
        out
    }

    /// The chunk where the pair `(key, id)` is or would be.
    fn pair_chunk<Q: Ord + ?Sized>(&self, key: &Q, id: RowId) -> usize
    where
        K: Borrow<Q>,
    {
        self.find_slot(|c| {
            let (k, last) = c.last();
            (k.borrow(), last) < (key, id)
        })
    }

    /// The pair `(key, id)`'s chunk, run and position in the run.
    fn seek<Q: Ord + ?Sized>(&self, key: &Q, id: RowId) -> Option<(usize, usize, usize)>
    where
        K: Borrow<Q>,
    {
        let i = self.pair_chunk(key, id);
        let c = self.chunks.get(i)?;
        let run = c.keys.binary_search_by(|k| k.borrow().cmp(key)).ok()?;
        let at = c.run(run).binary_search(&id).ok()?;
        Some((i, run, at))
    }

    /// Whether the pair `(key, id)` is present.
    pub(crate) fn contains<Q: Ord + ?Sized>(&self, key: &Q, id: RowId) -> bool
    where
        K: Borrow<Q>,
    {
        self.seek(key, id).is_some()
    }

    /// Adds the pair `(key, id)`; the key is copied only where its chunk
    /// does not hold it yet. Returns whether the pair is new.
    pub(crate) fn insert<Q: Ord + ?Sized>(&mut self, key: &Q, id: RowId) -> bool
    where
        K: Borrow<Q> + for<'q> From<&'q Q>,
    {
        let i = self.pair_chunk(key, id);
        self.edit(i, |c| {
            let (run, at) = match c.keys.binary_search_by(|k| k.borrow().cmp(key)) {
                Ok(run) => match c.run(run).binary_search(&id) {
                    Ok(_) => return false,
                    Err(at) => (run, c.start(run) + at),
                },
                Err(run) => {
                    let at = c.start(run);
                    c.keys.insert(run, K::from(key));
                    c.ends.insert(run, at);
                    (run, at)
                }
            };
            c.ids.insert(at, id);
            c.ends[run..].iter_mut().for_each(|end| *end += 1);
            true
        })
    }

    /// Drops the pair `(key, id)`. Returns whether it was present.
    pub(crate) fn remove<Q: Ord + ?Sized>(&mut self, key: &Q, id: RowId) -> bool
    where
        K: Borrow<Q>,
    {
        let Some((i, run, at)) = self.seek(key, id) else {
            return false;
        };
        self.edit(i, |c| {
            c.ids.remove(c.start(run) + at);
            c.ends[run..].iter_mut().for_each(|end| *end -= 1);
            if c.start(run) == c.ends[run] {
                c.keys.remove(run);
                c.ends.remove(run);
            }
        });
        true
    }

    /// `None` when `key` holds an id; else the nearest keys before and
    /// after it. One search: the first chunk whose last key is not below
    /// `key` holds `key`'s first run if there is one.
    pub(crate) fn neighbours<Q: Ord + ?Sized>(&self, key: &Q) -> Option<(Option<&K>, Option<&K>)>
    where
        K: Borrow<Q>,
    {
        let i = self.find_slot(|c| c.last().0.borrow() < key);
        let Some(c) = self.chunks.get(i) else {
            return Some((None, None));
        };
        let at = c.keys.partition_point(|k| k.borrow() < key);
        let after = c.keys.get(at);
        if after.is_some_and(|k| k.borrow() == key) {
            return None;
        }
        let before = match at {
            0 => i.checked_sub(1).map(|prev| self.chunks[prev].last().0),
            at => Some(&c.keys[at - 1]),
        };
        Some((before, after))
    }

    /// The runs from the first key at or after `key` onward, in order: a
    /// key that spans chunks yields one run per chunk, ids ascending.
    pub(crate) fn runs_from<'a, Q: Ord + ?Sized>(
        &'a self,
        key: &Q,
    ) -> impl Iterator<Item = (&'a K, &'a [RowId])> + 'a
    where
        K: Borrow<Q>,
    {
        let i = self.find_slot(|c| c.last().0.borrow() < key);
        let first = self
            .chunks
            .get(i)
            .map_or(0, |c| c.keys.partition_point(|k| k.borrow() < key));
        self.chunks[i..].iter().enumerate().flat_map(move |(n, c)| {
            let from = if n == 0 { first } else { 0 };
            (from..c.keys.len()).map(move |run| (&c.keys[run], c.run(run)))
        })
    }

    /// The runs of exactly `key`: its ids, ascending, one slice per chunk.
    pub(crate) fn runs<'a, Q>(&'a self, key: &'a Q) -> impl Iterator<Item = &'a [RowId]>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.runs_from(key)
            .take_while(move |(k, _)| (*k).borrow() == key)
            .map(|(_, ids)| ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(p: &Postings<String>) -> Vec<(String, u64)> {
        p.runs_from("")
            .flat_map(|(k, ids)| ids.iter().map(move |id| (k.clone(), id.0)))
            .collect()
    }

    #[test]
    fn a_hot_key_spans_chunks_and_stays_sorted() {
        let mut p: Postings<String> = Chunks::with_capacity(4);
        for id in [9, 1, 5, 3, 7, 2, 8, 4, 6, 0] {
            p.insert("hot", RowId(id));
        }
        p.insert("a", RowId(3));
        p.insert("z", RowId(1));
        assert!(p.chunks.len() >= 3);
        assert!(p.chunks.iter().all(|c| c.len() <= 4));
        assert_eq!(
            p.runs("hot").flatten().map(|id| id.0).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        for id in 0..10 {
            p.remove("hot", RowId(id));
        }
        assert_eq!(pairs(&p), vec![("a".into(), 3), ("z".into(), 1)]);
    }

    #[test]
    fn from_sorted_matches_inserts() {
        let input: Vec<(String, RowId)> =
            (0..40).map(|i| (format!("k{}", i % 7), RowId(i))).collect();
        let built = Postings::from_pairs(3, input.clone(), |_, _| {});
        let mut inserted: Postings<String> = Chunks::with_capacity(3);
        for (k, id) in &input {
            inserted.insert(k.as_str(), *id);
        }
        assert_eq!(pairs(&built), pairs(&inserted));
    }

    #[test]
    fn a_write_copies_one_chunk_of_a_shared_map() {
        let mut m: CowMap<u64, u64> = Chunks::with_capacity(8);
        for k in 0..200 {
            m.insert(k, k);
        }
        let snapshot = m.clone();
        *m.get_mut(&77).unwrap() = 0;
        assert_eq!(m.unshared_with(&snapshot), 1);
        assert_eq!(m.insert(150, 1), Some(150));
        assert!(m.unshared_with(&snapshot) <= 2);
        assert_eq!(snapshot.clone().get_mut(&77), Some(&mut 77));
        assert_eq!(m.remove(&77), Some(0));
        assert_eq!(m.get_mut(&77), None);
    }

    #[test]
    fn a_packed_map_matches_inserts() {
        let entries: Vec<(u64, u64)> = (0..2_000).map(|k| (k * 7919 % 2_003, k)).collect();
        let mut inserted: CowMap<u64, u64> = Chunks::default();
        for (k, v) in &entries {
            inserted.insert(*k, *v);
        }
        let mut packed = CowMap::from_entries(entries.clone());
        assert!(packed.chunks.len() > 1);
        let items = |m: &CowMap<u64, u64>| m.chunks.iter().flat_map(|c| c.to_vec()).collect();
        let want: Vec<_> = items(&inserted);
        assert_eq!(items(&packed), want);
        for (k, v) in &entries {
            assert_eq!(packed.get_mut(k), Some(&mut v.clone()));
        }
    }

    #[test]
    fn an_append_copies_only_the_tail() {
        let mut log: CowLog<u32> = Chunks::with_capacity(4);
        (0..10).for_each(|i| log.push(i));
        let snapshot = log.clone();
        log.push(10);
        assert_eq!(log.unshared_with(&snapshot), 1);
        assert_eq!(
            log.iter().copied().collect::<Vec<_>>(),
            (0..11).collect::<Vec<_>>()
        );
        assert_eq!(snapshot.iter().count(), 10);
    }
}
