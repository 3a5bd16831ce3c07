//! Plan execution.
//!
//! A streaming (pull-based iterator) executor: `open` is a plain match
//! that compiles each [`Plan`] operator into one cursor yielding one row
//! at a time, so `Filter`, `Project`, `Limit`, `Distinct` and the probe
//! side of `HashJoin` never materialize their inputs. Every table is read
//! by the same leaf cursor (`AccessCursor`), which does what the plan's
//! [`Access`] leaf says and decides nothing: it walks the spans of the
//! leaf's method (zone-map-surviving segments, or an index probe's id
//! list), narrows each with the vectorized kernels in
//! [`crate::segment`] for the pushed predicates, materializes only the
//! leaf's output columns, and checks the residual. The pipeline
//! breakers — `Sort`, `Aggregate`, `TopK` and the build side of joins —
//! buffer the minimum they need and account for it in [`ExecStats`],
//! which is how tests pin the O(k) memory bound of `LIMIT`/Top-K
//! pushdown.
//!
//! This is the engine's only implementation of each operator, and every
//! `SELECT` runs on it. Profiled runs wrap the same cursors, and
//! `UPDATE`/`DELETE` find their target rows through the leaf cursor's
//! row-id variant, `matching_ids`.
//!
//! The retained materialize-everything interpreter lives on in
//! [`crate::exec_reference`] as the oracle the property tests compare
//! against, row for row.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use crate::colstore::ColStore;
use crate::db::Storage;
use crate::error::{RelError, RelResult};
use crate::expr::{eval, eval_predicate};
use crate::plan::{
    Access, AccessMethod, IndexAccess, KeyPass, LeafOutput, Plan, ProjectItem, Side, SortKey,
};
use crate::segment::SimplePred;
use crate::sql::ast::{AggFunc, Expr};
use crate::table::{Row, RowId};
use crate::value::Value;

/// Counters published by one plan execution.
///
/// `buffered_peak` is the executor's materialization bound: the largest
/// number of rows simultaneously retained inside operator buffers (sort
/// runs, aggregation groups, join build sides, Top-K heaps, distinct
/// keys). A fully streaming pipeline — e.g. `LIMIT k` over a scan —
/// reports `0` regardless of table size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows pulled out of base-table access paths (scan, index, keyword).
    pub rows_scanned: u64,
    /// Peak number of rows held in operator buffers at any one moment.
    pub buffered_peak: u64,
    /// Rows the root operator produced.
    pub rows_emitted: u64,
    /// Number of index lookups performed (B-tree probes/range scans and
    /// keyword-index lookups); a plan with no index access reports `0`.
    pub index_probes: u64,
    /// Posting-list entries read out of keyword (inverted) indexes — the
    /// true cost of a `CONTAINS` access path, independent of how many of
    /// those postings survive visibility checks.
    pub keyword_postings_read: u64,
    /// Segments skipped entirely because their zone maps proved no row
    /// could satisfy a pushed-down predicate.
    pub segments_pruned: u64,
}

/// Shared mutable counters threaded through every cursor of one execution.
#[derive(Debug, Default)]
struct StatsCell {
    scanned: Cell<u64>,
    buffered: Cell<u64>,
    buffered_peak: Cell<u64>,
    index_probes: Cell<u64>,
    keyword_postings: Cell<u64>,
    segments_pruned: Cell<u64>,
}

impl StatsCell {
    fn scan_one(&self) {
        self.scanned.set(self.scanned.get() + 1);
    }

    fn scan_n(&self, n: u64) {
        self.scanned.set(self.scanned.get() + n);
    }

    fn prune_n(&self, n: u64) {
        self.segments_pruned.set(self.segments_pruned.get() + n);
    }

    fn buffer_grow(&self, n: u64) {
        let cur = self.buffered.get() + n;
        self.buffered.set(cur);
        if cur > self.buffered_peak.get() {
            self.buffered_peak.set(cur);
        }
    }

    fn buffer_shrink(&self, n: u64) {
        self.buffered.set(self.buffered.get().saturating_sub(n));
    }

    fn index_probe(&self) {
        self.index_probes.set(self.index_probes.get() + 1);
    }

    fn postings_read(&self, n: u64) {
        self.keyword_postings.set(self.keyword_postings.get() + n);
    }

    fn snapshot(&self, rows_emitted: usize) -> ExecStats {
        ExecStats {
            rows_scanned: self.scanned.get(),
            buffered_peak: self.buffered_peak.get(),
            rows_emitted: rows_emitted as u64,
            index_probes: self.index_probes.get(),
            keyword_postings_read: self.keyword_postings.get(),
            segments_pruned: self.segments_pruned.get(),
        }
    }
}

/// A pull-based operator: yields owned rows (materialized out of the
/// column store, or built by an operator) until exhausted.
trait Cursor<'a> {
    /// Pulls the next row, or `None` when the operator is exhausted.
    fn next_row(&mut self) -> RelResult<Option<Row>>;
}

type BoxCursor<'a> = Box<dyn Cursor<'a> + 'a>;

/// Per-operator runtime profile produced by profiled execution
/// ([`run_plan`] with `profile` set — `EXPLAIN ANALYZE`).
///
/// `elapsed_ns` is *self* (exclusive) time: the operator's inclusive
/// wall-time minus its children's, so summing `elapsed_ns` over a whole
/// tree reconstructs the root's inclusive time without double counting.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// One-line operator label, identical to the `EXPLAIN` rendering.
    pub op: String,
    /// Rows pulled from this operator's children (for leaf access paths,
    /// the rows read from storage — equal to `rows_out`).
    pub rows_in: u64,
    /// Rows this operator produced.
    pub rows_out: u64,
    /// Exclusive (self) wall-time in nanoseconds.
    pub elapsed_ns: u64,
    /// Inclusive wall-time in nanoseconds (self + children).
    pub total_ns: u64,
    /// The planner's estimated output rows for this operator, when it had
    /// a statistical basis — lets `EXPLAIN ANALYZE` show estimated vs
    /// actual per operator.
    pub est_rows: Option<f64>,
    /// Child operator profiles, in plan order.
    pub children: Vec<OpProfile>,
}

impl OpProfile {
    /// Renders the profile as an indented tree, one operator per line:
    /// `label  [rows_in=… rows_out=… self=… est=…]`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let est = match self.est_rows {
            Some(e) => format!(" est={e:.0}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "{:indent$}{}  [rows_in={} rows_out={} self={}{}]\n",
            "",
            self.op,
            self.rows_in,
            self.rows_out,
            format_ns(self.elapsed_ns),
            est,
            indent = depth * 2
        ));
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }

    /// Copies the planner's row estimates into the profile tree. Both
    /// trees were built from the same plan, so they match positionally;
    /// a shape mismatch (never expected) just stops the copy.
    pub(crate) fn annotate_estimates(&mut self, est: &crate::plan::PlanEstimate) {
        self.est_rows = est.rows;
        if self.children.len() == est.children.len() {
            for (c, e) in self.children.iter_mut().zip(&est.children) {
                c.annotate_estimates(e);
            }
        }
    }

    /// Sum of exclusive times over this subtree.
    pub fn tree_elapsed_ns(&self) -> u64 {
        self.elapsed_ns
            + self
                .children
                .iter()
                .map(OpProfile::tree_elapsed_ns)
                .sum::<u64>()
    }
}

/// Formats a nanosecond count with a human unit (`815ns`, `12.4µs`, ...).
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Per-operator cells filled in by [`ProfiledCursor`] while the query
/// runs; converted into an [`OpProfile`] tree afterwards.
struct ProfNode {
    label: String,
    rows_out: Cell<u64>,
    /// Inclusive wall-time accumulated across `next_row` calls.
    elapsed_ns: Cell<u64>,
    children: Vec<Rc<ProfNode>>,
}

impl ProfNode {
    fn to_profile(&self) -> OpProfile {
        let children: Vec<OpProfile> = self.children.iter().map(|c| c.to_profile()).collect();
        let total_ns = self.elapsed_ns.get();
        let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
        let rows_out = self.rows_out.get();
        let rows_in = if children.is_empty() {
            // Leaf access path: what it read is what it produced.
            rows_out
        } else {
            children.iter().map(|c| c.rows_out).sum()
        };
        OpProfile {
            op: self.label.clone(),
            rows_in,
            rows_out,
            elapsed_ns: total_ns.saturating_sub(child_total),
            total_ns,
            est_rows: None,
            children,
        }
    }
}

/// Wraps an operator cursor, timing every `next_row` call and counting
/// produced rows into the operator's [`ProfNode`]. Only constructed when
/// profiling was requested, so unprofiled execution pays nothing.
struct ProfiledCursor<'a> {
    inner: BoxCursor<'a>,
    node: Rc<ProfNode>,
}

impl<'a> Cursor<'a> for ProfiledCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        let start = Instant::now();
        let out = self.inner.next_row();
        self.node
            .elapsed_ns
            .set(self.node.elapsed_ns.get() + start.elapsed().as_nanos() as u64);
        if matches!(out, Ok(Some(_))) {
            self.node.rows_out.set(self.node.rows_out.get() + 1);
        }
        out
    }
}

/// Execution context threaded through [`open`]: the shared stat cells
/// and whether to wrap every operator in a [`ProfiledCursor`].
#[derive(Default)]
struct ExecCtx {
    stats: Rc<StatsCell>,
    profile: bool,
    /// For a key-passing leaf: where its join hands over the keys.
    keys: Option<Rc<KeyChannel>>,
}

/// How a hash join passes its keys to an [`AccessMethod::JoinKeys`] leaf.
/// The leaf, at open, sets the run-time bound: how many keys it takes
/// before reading under them would cost more than its planned method.
/// The join, once its other side has run, hands over the distinct keys
/// in index order if there are no more than that, and nothing otherwise —
/// then the leaf runs its planned method.
#[derive(Default)]
struct KeyChannel {
    max_keys: Cell<usize>,
    keys: Cell<Option<Vec<Vec<Value>>>>,
}

impl KeyChannel {
    /// Hands over `keys` if the leaf takes that many.
    fn offer(&self, keys: BTreeSet<Vec<Value>>) {
        if keys.len() <= self.max_keys.get() {
            self.keys.set(Some(keys.into_iter().collect()));
        }
    }
}

/// The passed key of one joined row: its join key's values, in the order
/// of the receiving leaf's index columns.
fn passed_key(key: &[Value], positions: &[usize]) -> Vec<Value> {
    positions.iter().map(|&p| key[p].clone()).collect()
}

/// What one execution of a plan produced.
#[derive(Debug)]
pub struct PlanRun {
    /// The materialized result (hidden sort-key columns included).
    pub rows: Vec<Row>,
    /// Execution counters.
    pub stats: ExecStats,
    /// Per-operator profile tree, when profiling was requested.
    pub profile: Option<OpProfile>,
}

/// Executes a plan against storage on the calling thread, materializing
/// the full result. With `profile`, every operator is wrapped in a
/// timing/row-counting shim and the per-operator tree is returned too —
/// the engine behind `EXPLAIN ANALYZE`.
pub fn run_plan(plan: &Plan, storage: &Storage, profile: bool) -> RelResult<PlanRun> {
    let ctx = ExecCtx {
        profile,
        ..ExecCtx::default()
    };
    let (mut cursor, root) = open(plan, storage, &ctx)?;
    let mut rows = Vec::new();
    while let Some(row) = cursor.next_row()? {
        rows.push(row);
    }
    Ok(PlanRun {
        stats: ctx.stats.snapshot(rows.len()),
        rows,
        profile: root.map(|n| n.to_profile()),
    })
}

/// The ids of the rows `access` selects, in scan order: the leaf cursor's
/// row-id variant, which `UPDATE`/`DELETE` find their target rows with.
pub(crate) fn matching_ids(access: &Access, storage: &Storage) -> RelResult<Vec<RowId>> {
    let mut cursor = AccessCursor::open(access, storage, &ExecCtx::default())?;
    let mut ids = Vec::new();
    while let Some((seg, slot, _)) = cursor.next_hit()? {
        ids.push(RowId(cursor.store.segments()[seg].id_at(slot)));
    }
    Ok(ids)
}

/// Opens `plan` as a child operator, collecting its profile node (if
/// profiling) into `children`.
fn open_child<'a>(
    plan: &'a Plan,
    storage: &'a Storage,
    ctx: &ExecCtx,
    children: &mut Vec<Rc<ProfNode>>,
) -> RelResult<BoxCursor<'a>> {
    let (cursor, node) = open(plan, storage, ctx)?;
    children.extend(node);
    Ok(cursor)
}

/// An opened operator: its cursor, and its profile node when the context
/// asks for profiling.
type OpenedCursor<'a> = (BoxCursor<'a>, Option<Rc<ProfNode>>);

/// Compiles a plan operator into a cursor (plus a profile node when the
/// context asks for profiling): one cursor per operator, whoever runs it.
fn open<'a>(plan: &'a Plan, storage: &'a Storage, ctx: &ExecCtx) -> RelResult<OpenedCursor<'a>> {
    let stats = &ctx.stats;
    let mut kids: Vec<Rc<ProfNode>> = Vec::new();
    let cursor: BoxCursor<'a> = match plan {
        Plan::Access(access) => Box::new(AccessCursor::open(access, storage, ctx)?),
        Plan::Filter { input, predicate } => Box::new(FilterCursor {
            input: open_child(input, storage, ctx, &mut kids)?,
            predicate,
        }),
        Plan::NestedLoopJoin {
            left,
            right,
            condition,
        } => Box::new(NestedLoopCursor {
            left: open_child(left, storage, ctx, &mut kids)?,
            right_input: Some(open_child(right, storage, ctx, &mut kids)?),
            right: Vec::new(),
            condition: condition.as_ref(),
            current_left: None,
            right_pos: 0,
            stats: Rc::clone(stats),
        }),
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            semi,
            pass,
        } => {
            // The leaf that takes passed keys opens with the channel its
            // keys arrive through.
            let channel = pass.as_ref().map(|_| Rc::new(KeyChannel::default()));
            let keyed = pass.as_ref().map(|pass| {
                let keyed = ExecCtx {
                    stats: Rc::clone(stats),
                    profile: ctx.profile,
                    keys: channel.clone(),
                };
                (pass.into, keyed)
            });
            let side_ctx = |side| match &keyed {
                Some((into, keyed)) if *into == side => keyed,
                _ => ctx,
            };
            let left = open_child(left, storage, side_ctx(Side::Left), &mut kids)?;
            let right_input = open_child(right, storage, side_ctx(Side::Right), &mut kids)?;
            // A semi join is existence-only: each matching left row passes
            // through once and the right side's columns are dropped (the
            // planner guaranteed nothing downstream references them).
            Box::new(HashJoinCursor {
                left,
                left_keys,
                residual: residual.as_ref(),
                semi: *semi,
                build: None,
                right_input: Some(right_input),
                right_keys,
                pass: pass.as_ref().zip(channel),
                ran_first: Vec::new().into_iter(),
                deferred: None,
                probe: None,
                stats: Rc::clone(stats),
            })
        }
        Plan::Project { input, items, .. } => Box::new(ProjectCursor {
            input: open_child(input, storage, ctx, &mut kids)?,
            items,
        }),
        Plan::Aggregate {
            input,
            group_by,
            items,
            ..
        } => Box::new(AggregateCursor {
            input: Some(open_child(input, storage, ctx, &mut kids)?),
            group_by,
            items,
            output: Vec::new().into_iter(),
            stats: Rc::clone(stats),
        }),
        Plan::Sort { input, keys } => Box::new(SortCursor {
            input: Some(open_child(input, storage, ctx, &mut kids)?),
            keys,
            sorted: Vec::new().into_iter(),
            stats: Rc::clone(stats),
        }),
        Plan::TopK {
            input,
            keys,
            limit,
            offset,
        } => Box::new(TopKCursor {
            input: Some(open_child(input, storage, ctx, &mut kids)?),
            keys,
            limit: *limit,
            offset: *offset,
            output: Vec::new().into_iter(),
            stats: Rc::clone(stats),
        }),
        Plan::Distinct { input, visible } => Box::new(DistinctCursor {
            input: open_child(input, storage, ctx, &mut kids)?,
            visible: *visible,
            seen: HashSet::new(),
            stats: Rc::clone(stats),
        }),
        Plan::Limit {
            input,
            limit,
            offset,
        } => Box::new(LimitCursor {
            input: open_child(input, storage, ctx, &mut kids)?,
            to_skip: *offset,
            remaining: *limit,
        }),
    };
    Ok(maybe_profile(cursor, plan, ctx, kids))
}

/// The rows of `table` an index or keyword method selects, as row ids in
/// insertion (document) order — the order a full scan would yield them.
pub(crate) fn index_ids(
    table: &str,
    method: &AccessMethod,
    storage: &Storage,
) -> RelResult<Vec<RowId>> {
    let mut ids = match method {
        AccessMethod::Index { index, access } => {
            let idx = storage.btree_index(index)?;
            match access {
                IndexAccess::Exact(values) if values.len() == idx.key_columns().len() => {
                    idx.lookup(values)
                }
                IndexAccess::Exact(values) => idx.lookup_prefix(values),
                IndexAccess::Range {
                    prefix,
                    lower,
                    upper,
                } => idx.range(prefix, lower.as_ref(), upper.as_ref()),
            }
        }
        AccessMethod::Keyword { index, keyword } => storage.keyword_index(index)?.lookup(keyword),
        AccessMethod::Full | AccessMethod::JoinKeys { .. } => {
            return Err(RelError::Internal(format!(
                "a full scan of {table} has no id list"
            )))
        }
    };
    ids.sort();
    Ok(ids)
}

/// The spans of a leaf read by `method`. A full scan walks one
/// whole-segment span per segment whose zone maps admit the leaf's pushed
/// predicates (every non-empty segment when pruning is off or there is
/// nothing to prune with), charging the prunes to `stats`: pruning is an
/// execution-time act — it reads the data's zone maps and a runtime
/// toggle — over predicates the planner chose. Any other method walks its
/// probe's ids, by segment.
fn method_spans(
    access: &Access,
    method: &AccessMethod,
    store: &ColStore,
    storage: &Storage,
    stats: &StatsCell,
) -> RelResult<Vec<(usize, Slots)>> {
    if *method == AccessMethod::Full {
        let prune_with: &[SimplePred] = if storage.zone_map_pruning() {
            &access.pushed
        } else {
            &[]
        };
        let (visited, pruned) = store.prune_segments(prune_with);
        stats.prune_n(pruned);
        return Ok(visited
            .into_iter()
            .map(|i| (i, Slots::Range(0..store.segments()[i].len())))
            .collect());
    }
    let ids = index_ids(&access.table, method, storage)?;
    stats.index_probe();
    if matches!(method, AccessMethod::Keyword { .. }) {
        stats.postings_read(ids.len() as u64);
    }
    Ok(id_spans(store, ids))
}

/// Sorted row ids as per-segment slot lists.
fn id_spans(store: &ColStore, ids: Vec<RowId>) -> Vec<(usize, Slots)> {
    store
        .slots_of(ids.into_iter().map(|id| id.0))
        .into_iter()
        .map(|(seg, slots)| (seg, Slots::List(slots.into_iter())))
        .collect()
}

/// The run-time bound of a key-passing leaf: how many keys it reads under
/// before its planned method would read fewer rows, from the live index
/// counts. A key reads `rows / d` rows, `d` the passing index's distinct
/// prefixes; the planned method reads every row (a full scan) or
/// `rows / d'` (an exact probe binding `d'` distinct prefixes), so the
/// keys pay while there are at most `d` (or `d / d'`) of them.
fn key_budget(access: &Access, storage: &Storage) -> RelResult<usize> {
    let AccessMethod::JoinKeys {
        index,
        columns,
        planned,
    } = &access.method
    else {
        return Ok(0);
    };
    let distinct = |index: &str, k: usize| -> RelResult<usize> {
        let counts = storage.btree_index(index)?.distinct_prefixes();
        Ok(counts.get(k.wrapping_sub(1)).copied().unwrap_or(1).max(1))
    };
    let keyed = distinct(index, *columns)?;
    Ok(match &**planned {
        AccessMethod::Index {
            index,
            access: IndexAccess::Exact(values),
        } => keyed / distinct(index, values.len())?,
        _ => keyed,
    })
}

/// Wraps `cursor` in a [`ProfiledCursor`] when profiling is on.
fn maybe_profile<'a>(
    cursor: BoxCursor<'a>,
    plan: &Plan,
    ctx: &ExecCtx,
    children: Vec<Rc<ProfNode>>,
) -> (BoxCursor<'a>, Option<Rc<ProfNode>>) {
    if !ctx.profile {
        return (cursor, None);
    }
    let node = Rc::new(ProfNode {
        label: plan.describe(),
        rows_out: Cell::new(0),
        elapsed_ns: Cell::new(0),
        children,
    });
    let cursor = Box::new(ProfiledCursor {
        inner: cursor,
        node: Rc::clone(&node),
    });
    (cursor, Some(node))
}

/// A leaf's candidate slots within one segment, ascending.
enum Slots {
    /// A contiguous run: a whole zone-map survivor.
    Range(Range<usize>),
    /// Picked slots: an index probe's result, or a kernel selection.
    List(std::vec::IntoIter<u32>),
}

impl Iterator for Slots {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Slots::Range(range) => range.next(),
            Slots::List(list) => list.next().map(|slot| slot as usize),
        }
    }
}

/// A row a leaf selected and where it lives: `(segment, slot, row)`.
type Hit = (usize, usize, Row);

/// The one leaf cursor: span source → kernel selection → gather →
/// residual, all as the plan's [`Access`] leaf dictates.
///
/// The span source is fixed at open — the zone-map survivors of a full
/// scan, or an index probe's sorted id list grouped by segment. With
/// predicates pushed, entering a span runs their
/// kernels over its live candidates into a selection vector, gathers the
/// survivors' output columns a column at a time and keeps the rows the
/// residual accepts: one batch per span, still lazy under `LIMIT` at
/// span granularity. With nothing pushed there is nothing to do a span at
/// a time, so candidates materialize one row per pull and a `LIMIT` stops
/// the scan mid-span. Rows come out in insertion (document) order
/// whatever the method.
///
/// `rows_scanned` counts what the leaf examined: a span's live candidates
/// as the kernels enter it (pruned segments show up in `segments_pruned`
/// instead), or, with nothing pushed, each live row as it is
/// materialized — `LIMIT k` over an unfiltered scan reads exactly k.
struct AccessCursor<'a> {
    access: &'a Access,
    storage: &'a Storage,
    store: &'a ColStore,
    /// A key-passing leaf's channel, until its first pull decides its
    /// spans.
    keyed: Option<Rc<KeyChannel>>,
    /// Per position of the emitted row, the table column it carries;
    /// `None` positions (columns nothing reads) stay `NULL`.
    gather: Vec<Option<usize>>,
    spans: std::vec::IntoIter<(usize, Slots)>,
    /// The span being walked a row per pull (nothing pushed).
    current: Option<(usize, Slots)>,
    /// The span the kernels last entered: its segment, then the selected
    /// slots and their gathered rows, in step.
    ready: (usize, std::vec::IntoIter<u32>, std::vec::IntoIter<Row>),
    stats: Rc<StatsCell>,
}

impl<'a> AccessCursor<'a> {
    fn open(access: &'a Access, storage: &'a Storage, ctx: &ExecCtx) -> RelResult<Self> {
        let table = storage.table(&access.table)?;
        let store = table.store();
        let arity = table.schema().arity();
        let gather = match &access.output {
            LeafOutput::All => (0..arity).map(Some).collect(),
            LeafOutput::Pruned(cols) => {
                (0..arity).map(|c| cols.contains(&c).then_some(c)).collect()
            }
            LeafOutput::Projected(cols) => cols.iter().copied().map(Some).collect(),
        };
        let (spans, keyed) = match &access.method {
            AccessMethod::JoinKeys { .. } => {
                let channel = ctx.keys.clone().ok_or_else(|| {
                    RelError::Internal(format!("no join passes keys to {}", access.alias))
                })?;
                channel.max_keys.set(key_budget(access, storage)?);
                (Vec::new(), Some(channel))
            }
            method => (
                method_spans(access, method, store, storage, &ctx.stats)?,
                None,
            ),
        };
        Ok(AccessCursor {
            access,
            storage,
            store,
            keyed,
            gather,
            spans: spans.into_iter(),
            current: None,
            ready: (0, Vec::new().into_iter(), Vec::new().into_iter()),
            stats: Rc::clone(&ctx.stats),
        })
    }

    /// The next row of the gathered batch.
    fn next_ready(&mut self) -> Option<Hit> {
        let (seg_idx, slots, rows) = &mut self.ready;
        let (slot, row) = slots.next().zip(rows.next())?;
        Some((*seg_idx, slot as usize, row))
    }

    /// The next span to walk. A key-passing leaf decides its spans at
    /// its first pull, when its join has run the other side: the rows
    /// under the passed keys, one sorted batch of probes, or else what
    /// its planned method reads.
    fn next_span(&mut self) -> RelResult<Option<(usize, Slots)>> {
        if let Some(channel) = self.keyed.take() {
            let AccessMethod::JoinKeys { index, planned, .. } = &self.access.method else {
                unreachable!("only a key-passing leaf has a channel")
            };
            let spans = match channel.keys.take() {
                Some(keys) => {
                    let idx = self.storage.btree_index(index)?;
                    let whole = idx.key_columns().len();
                    let mut ids = Vec::new();
                    for key in &keys {
                        self.stats.index_probe();
                        ids.extend(match key.len() == whole {
                            true => idx.lookup(key),
                            false => idx.lookup_prefix(key),
                        });
                    }
                    ids.sort_unstable();
                    id_spans(self.store, ids)
                }
                None => method_spans(self.access, planned, self.store, self.storage, &self.stats)?,
            };
            self.spans = spans.into_iter();
        }
        Ok(self.spans.next())
    }

    /// The next row the leaf selects.
    fn next_hit(&mut self) -> RelResult<Option<Hit>> {
        match self.next_ready() {
            Some(hit) => Ok(Some(hit)),
            None => self.advance(),
        }
    }

    /// Everything but handing out an already-gathered row. Kept out of
    /// line, and the batch kept free of per-row bookkeeping: with either
    /// folded into the per-row pull, a selective scan measured a quarter
    /// slower (`scan_filter_selective` in the exec bench).
    #[inline(never)]
    fn advance(&mut self) -> RelResult<Option<Hit>> {
        let Access {
            pushed, residual, ..
        } = self.access;
        let keep = |row: &Row| match residual {
            Some(residual) => eval_predicate(residual, row),
            None => Ok(true),
        };
        loop {
            if let Some((seg_idx, candidates)) = &mut self.current {
                let seg = &self.store.segments()[*seg_idx];
                for slot in candidates.by_ref().filter(|&slot| seg.is_live(slot)) {
                    self.stats.scan_one();
                    let row: Row = self
                        .gather
                        .iter()
                        .map(|col| col.map_or(Value::Null, |c| seg.columns()[c].value(slot)))
                        .collect();
                    if keep(&row)? {
                        return Ok(Some((*seg_idx, slot, row)));
                    }
                }
            }
            let Some((seg_idx, candidates)) = self.next_span()? else {
                return Ok(None);
            };
            if pushed.is_empty() {
                self.current = Some((seg_idx, candidates));
                continue;
            }
            let seg = &self.store.segments()[seg_idx];
            let mut sel = Vec::new();
            match candidates {
                Slots::Range(range) => {
                    sel.reserve(range.len());
                    seg.live_slots(range, &mut sel);
                }
                Slots::List(list) => sel.extend(list.filter(|&s| seg.is_live(s as usize))),
            }
            self.stats.scan_n(sel.len() as u64);
            for pred in pushed {
                if sel.is_empty() {
                    break;
                }
                seg.apply_pred(pred, &mut sel);
            }
            if sel.is_empty() {
                continue;
            }
            let mut rows: Vec<Row> = sel
                .iter()
                .map(|_| Vec::with_capacity(self.gather.len()))
                .collect();
            for col in &self.gather {
                match col {
                    Some(col) => seg.gather_column(*col, &sel, &mut rows),
                    None => rows.iter_mut().for_each(|row| row.push(Value::Null)),
                }
            }
            if residual.is_some() {
                let gathered = std::mem::take(&mut sel)
                    .into_iter()
                    .zip(std::mem::take(&mut rows));
                for (slot, row) in gathered {
                    if keep(&row)? {
                        sel.push(slot);
                        rows.push(row);
                    }
                }
            }
            self.ready = (seg_idx, sel.into_iter(), rows.into_iter());
            if let Some(hit) = self.next_ready() {
                return Ok(Some(hit));
            }
        }
    }
}

impl<'a> Cursor<'a> for AccessCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        Ok(self.next_hit()?.map(|(_, _, row)| row))
    }
}

/// Streaming predicate filter.
struct FilterCursor<'a> {
    input: BoxCursor<'a>,
    predicate: &'a Expr,
}

impl<'a> Cursor<'a> for FilterCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        while let Some(row) = self.input.next_row()? {
            if eval_predicate(self.predicate, &row)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Streaming projection.
struct ProjectCursor<'a> {
    input: BoxCursor<'a>,
    items: &'a [ProjectItem],
}

impl<'a> Cursor<'a> for ProjectCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        let Some(row) = self.input.next_row()? else {
            return Ok(None);
        };
        let projected: Row = self
            .items
            .iter()
            .map(|item| eval(&item.expr, &row))
            .collect::<RelResult<_>>()?;
        Ok(Some(projected))
    }
}

/// Nested-loop join: the right (inner) side is buffered once, the left
/// side streams.
struct NestedLoopCursor<'a> {
    left: BoxCursor<'a>,
    /// Right input, consumed into `right` on the first pull.
    right_input: Option<BoxCursor<'a>>,
    right: Vec<Row>,
    condition: Option<&'a Expr>,
    current_left: Option<Row>,
    right_pos: usize,
    stats: Rc<StatsCell>,
}

impl<'a> Cursor<'a> for NestedLoopCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        if let Some(mut rcur) = self.right_input.take() {
            while let Some(row) = rcur.next_row()? {
                self.stats.buffer_grow(1);
                self.right.push(row);
            }
        }
        loop {
            if self.current_left.is_none() {
                self.current_left = self.left.next_row()?;
                self.right_pos = 0;
                if self.current_left.is_none() {
                    return Ok(None);
                }
            }
            let lrow = self.current_left.as_ref().expect("checked above");
            while self.right_pos < self.right.len() {
                let rrow = &self.right[self.right_pos];
                self.right_pos += 1;
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                let keep = match self.condition {
                    Some(cond) => eval_predicate(cond, &combined)?,
                    None => true,
                };
                if keep {
                    return Ok(Some(combined));
                }
            }
            self.current_left = None;
        }
    }
}

/// Evaluates join key expressions; any NULL key disqualifies the row.
fn eval_join_keys(keys: &[Expr], row: &[Value]) -> RelResult<Option<Vec<Value>>> {
    let key: Vec<Value> = keys
        .iter()
        .map(|k| eval(k, row))
        .collect::<RelResult<_>>()?;
    Ok(if key.iter().any(Value::is_null) {
        None
    } else {
        Some(key)
    })
}

/// The buffered build side of a hash join, built by the join cursor on
/// its first pull.
struct BuildSide {
    rows: Vec<Row>,
    /// Key → positions in `rows`, in arrival order. A semi join only asks
    /// whether a key exists, so it keeps the key set and no rows.
    index: HashMap<Vec<Value>, Vec<usize>>,
}

impl BuildSide {
    /// Drains `input`, keeping only rows with fully non-NULL keys (rows
    /// with a NULL key can never join).
    fn build(
        keys: &[Expr],
        semi: bool,
        mut input: BoxCursor<'_>,
        stats: &StatsCell,
    ) -> RelResult<BuildSide> {
        let mut rows = Vec::new();
        let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        while let Some(row) = input.next_row()? {
            let Some(key) = eval_join_keys(keys, &row)? else {
                continue;
            };
            if semi {
                if let Entry::Vacant(slot) = index.entry(key) {
                    stats.buffer_grow(1);
                    slot.insert(Vec::new());
                }
            } else {
                stats.buffer_grow(1);
                index.entry(key).or_default().push(rows.len());
                rows.push(row);
            }
        }
        Ok(BuildSide { rows, index })
    }
}

/// Hash join: the right side is the build side, the left side streams as
/// the probe. Output rows are left-columns-then-right, in probe order; a
/// semi join instead passes each matching left row through unchanged,
/// once.
///
/// Buffering the right side unconditionally is safe because the planner
/// only ever places a single table's access path there (left-deep join
/// construction — see the `Plan::HashJoin` site in `planner.rs`), so the
/// build never materializes an intermediate join result. Choosing the
/// smaller *table* as the build side would need row-count stats the
/// catalog does not carry yet.
///
/// With a [`KeyPass`], the side that is not keyed runs first: into the
/// left leaf, the build side's keys go over once it is built; into the
/// right leaf, the left input is read ahead into a buffer (until it holds
/// more keys than the leaf takes), its keys go over, and the probe then
/// walks the buffer before the rest of the input. An error met while
/// reading ahead is raised where the probe reaches it, so the rows and
/// the error the join yields are those of the plain join.
struct HashJoinCursor<'a> {
    left: BoxCursor<'a>,
    left_keys: &'a [Expr],
    residual: Option<&'a Expr>,
    semi: bool,
    build: Option<BuildSide>,
    /// Right input, drained into `build` on the first pull.
    right_input: Option<BoxCursor<'a>>,
    right_keys: &'a [Expr],
    /// Sideways key passing, and the channel to the keyed leaf.
    pass: Option<(&'a KeyPass, Rc<KeyChannel>)>,
    /// Left rows read ahead.
    ran_first: std::vec::IntoIter<Row>,
    /// The error that stopped the read-ahead, raised after its rows.
    deferred: Option<RelError>,
    /// The probe row currently being expanded: `(row, matches, position)`.
    probe: Option<(Row, Vec<usize>, usize)>,
    stats: Rc<StatsCell>,
}

impl HashJoinCursor<'_> {
    /// Reads the left input ahead and passes its keys to the right leaf.
    fn run_left_first(&mut self, positions: &[usize], channel: &KeyChannel) {
        let mut rows = Vec::new();
        let mut keys = BTreeSet::new();
        while keys.len() <= channel.max_keys.get() {
            let read = self.left.next_row().and_then(|row| match row {
                Some(row) => Ok(Some((eval_join_keys(self.left_keys, &row)?, row))),
                None => Ok(None),
            });
            match read {
                Ok(Some((key, row))) => {
                    keys.extend(key.map(|key| passed_key(&key, positions)));
                    self.stats.buffer_grow(1);
                    rows.push(row);
                }
                Ok(None) => break,
                Err(err) => {
                    self.deferred = Some(err);
                    break;
                }
            }
        }
        channel.offer(keys);
        self.ran_first = rows.into_iter();
    }

    /// The next probe row: the rows read ahead, then the error that
    /// stopped the read-ahead, then the rest of the left input.
    fn next_probe(&mut self) -> RelResult<Option<Row>> {
        if let Some(row) = self.ran_first.next() {
            self.stats.buffer_shrink(1);
            return Ok(Some(row));
        }
        if let Some(err) = self.deferred.take() {
            return Err(err);
        }
        self.left.next_row()
    }
}

impl<'a> Cursor<'a> for HashJoinCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        if let Some(rcur) = self.right_input.take() {
            let pass = self.pass.take();
            if let Some((into_right, channel)) =
                pass.as_ref().filter(|(p, _)| p.into == Side::Right)
            {
                self.run_left_first(&into_right.keys, channel);
            }
            let built = BuildSide::build(self.right_keys, self.semi, rcur, &self.stats)?;
            if let Some((into_left, channel)) = pass.filter(|(p, _)| p.into == Side::Left) {
                let keys = built.index.keys().map(|k| passed_key(k, &into_left.keys));
                channel.offer(keys.collect());
            }
            self.build = Some(built);
        }
        loop {
            if let Some((lrow, matches, pos)) = &mut self.probe {
                let build = self.build.as_ref().expect("built above");
                while *pos < matches.len() {
                    let rrow = &build.rows[matches[*pos]];
                    *pos += 1;
                    let mut combined = lrow.clone();
                    combined.extend(rrow.iter().cloned());
                    let keep = match self.residual {
                        Some(cond) => eval_predicate(cond, &combined)?,
                        None => true,
                    };
                    if keep {
                        return Ok(Some(combined));
                    }
                }
                self.probe = None;
            }
            let Some(lrow) = self.next_probe()? else {
                return Ok(None);
            };
            let Some(key) = eval_join_keys(self.left_keys, &lrow)? else {
                continue;
            };
            match self.build.as_ref().expect("built above").index.get(&key) {
                Some(_) if self.semi => return Ok(Some(lrow)),
                Some(matches) => self.probe = Some((lrow, matches.clone(), 0)),
                None => {}
            }
        }
    }
}

/// One aggregation group: its key and its input rows, in arrival order.
type Group = (Vec<Value>, Vec<Row>);

/// Input rows grouped by key, groups in first-seen order.
#[derive(Default)]
struct Groups {
    groups: Vec<Group>,
    index: HashMap<Vec<Value>, usize>,
}

impl Groups {
    /// The rows of `key`'s group, opening the group if it is new.
    fn rows_of(&mut self, key: Vec<Value>) -> &mut Vec<Row> {
        let i = match self.index.entry(key) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                let i = self.groups.len();
                self.groups.push((slot.key().clone(), Vec::new()));
                slot.insert(i);
                i
            }
        };
        &mut self.groups[i].1
    }

    /// Turns the groups into one output row each, in group order,
    /// evaluating the aggregate select `items` over each group;
    /// non-aggregate parts read the group's first row. The grouped rows
    /// leave the operator's buffer here and the output rows enter it.
    fn finish(
        mut self,
        group_by: &[Expr],
        items: &[ProjectItem],
        stats: &StatsCell,
    ) -> RelResult<Vec<Row>> {
        if self.groups.is_empty() && group_by.is_empty() {
            // Global aggregate over empty input yields one row.
            self.groups.push((Vec::new(), Vec::new()));
        }
        let mut out = Vec::with_capacity(self.groups.len());
        for (_, group_rows) in &self.groups {
            let representative: &[Value] = group_rows.first().map_or(&[], |r| r);
            let mut result_row = Vec::with_capacity(items.len());
            for item in items {
                let materialized = materialize_aggregates(&item.expr, group_rows)?;
                result_row.push(eval(&materialized, representative)?);
            }
            out.push(result_row);
        }
        let grouped: usize = self.groups.iter().map(|(_, rows)| rows.len()).sum();
        stats.buffer_shrink(grouped as u64);
        stats.buffer_grow(out.len() as u64);
        Ok(out)
    }
}

/// Groups `input` by the `group_by` keys; with no `GROUP BY` everything
/// is one global group.
fn group_rows(mut input: BoxCursor<'_>, group_by: &[Expr], stats: &StatsCell) -> RelResult<Groups> {
    let mut groups = Groups::default();
    while let Some(row) = input.next_row()? {
        let key: Vec<Value> = group_by
            .iter()
            .map(|e| eval(e, &row))
            .collect::<RelResult<_>>()?;
        stats.buffer_grow(1);
        groups.rows_of(key).push(row);
    }
    Ok(groups)
}

/// Grouped aggregation: a pipeline breaker that buffers each group's rows
/// until the input is exhausted, then streams the per-group results.
struct AggregateCursor<'a> {
    input: Option<BoxCursor<'a>>,
    group_by: &'a [Expr],
    items: &'a [ProjectItem],
    output: std::vec::IntoIter<Row>,
    stats: Rc<StatsCell>,
}

impl<'a> Cursor<'a> for AggregateCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        if let Some(input) = self.input.take() {
            let groups = group_rows(input, self.group_by, &self.stats)?;
            let out = groups.finish(self.group_by, self.items, &self.stats)?;
            self.output = out.into_iter();
        }
        if let Some(row) = self.output.next() {
            self.stats.buffer_shrink(1);
            return Ok(Some(row));
        }
        Ok(None)
    }
}

/// Full sort: a pipeline breaker buffering the whole input.
struct SortCursor<'a> {
    input: Option<BoxCursor<'a>>,
    keys: &'a [SortKey],
    sorted: std::vec::IntoIter<Row>,
    stats: Rc<StatsCell>,
}

impl<'a> Cursor<'a> for SortCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        if let Some(mut input) = self.input.take() {
            let mut rows = Vec::new();
            while let Some(row) = input.next_row()? {
                self.stats.buffer_grow(1);
                rows.push(row);
            }
            rows.sort_by(|a, b| compare_rows(a, b, self.keys));
            self.sorted = rows.into_iter();
        }
        if let Some(row) = self.sorted.next() {
            self.stats.buffer_shrink(1);
            return Ok(Some(row));
        }
        Ok(None)
    }
}

/// One retained row in the Top-K heap. Ordering is `(sort keys, input
/// sequence)`, so the heap reproduces a stable sort's tie behaviour
/// exactly; the `BinaryHeap` is a max-heap whose top is the first row to
/// evict.
struct HeapEntry<'a> {
    keys: &'a [SortKey],
    row: Row,
    seq: u64,
}

impl HeapEntry<'_> {
    fn order(&self, other: &Self) -> Ordering {
        compare_rows(&self.row, &other.row, self.keys).then(self.seq.cmp(&other.seq))
    }
}

impl PartialEq for HeapEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry<'_> {}

impl PartialOrd for HeapEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.order(other)
    }
}

/// Fused `ORDER BY … LIMIT k OFFSET o`: retains at most `o + k` rows in a
/// bounded heap instead of sorting the whole input.
struct TopKCursor<'a> {
    input: Option<BoxCursor<'a>>,
    keys: &'a [SortKey],
    limit: u64,
    offset: u64,
    output: std::vec::IntoIter<Row>,
    stats: Rc<StatsCell>,
}

impl<'a> Cursor<'a> for TopKCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        if let Some(mut input) = self.input.take() {
            let cap = self.offset.saturating_add(self.limit) as usize;
            if cap == 0 {
                // LIMIT 0: nothing can come out; don't even pull the input.
                return Ok(None);
            }
            let mut heap: BinaryHeap<HeapEntry<'a>> = BinaryHeap::with_capacity(cap + 1);
            let mut seq = 0u64;
            while let Some(row) = input.next_row()? {
                let entry = HeapEntry {
                    keys: self.keys,
                    row,
                    seq,
                };
                seq += 1;
                if heap.len() < cap {
                    self.stats.buffer_grow(1);
                    heap.push(entry);
                } else if entry < *heap.peek().expect("cap > 0") {
                    heap.pop();
                    heap.push(entry);
                }
            }
            let kept = heap.into_sorted_vec(); // ascending (keys, seq)
            let skipped = (self.offset as usize).min(kept.len());
            self.stats.buffer_shrink(skipped as u64);
            self.output = kept
                .into_iter()
                .skip(self.offset as usize)
                .map(|e| e.row)
                .collect::<Vec<_>>()
                .into_iter();
        }
        if let Some(row) = self.output.next() {
            self.stats.buffer_shrink(1);
            return Ok(Some(row));
        }
        Ok(None)
    }
}

/// Streaming duplicate elimination over the first `visible` columns.
struct DistinctCursor<'a> {
    input: BoxCursor<'a>,
    visible: usize,
    seen: HashSet<Vec<Value>>,
    stats: Rc<StatsCell>,
}

impl<'a> Cursor<'a> for DistinctCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        while let Some(row) = self.input.next_row()? {
            // Probe with the borrowed prefix; clone the key only for the
            // first occurrence that actually enters the set.
            let key = &row[..self.visible.min(row.len())];
            if !self.seen.contains(key) {
                self.seen.insert(key.to_vec());
                self.stats.buffer_grow(1);
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Streaming `LIMIT`/`OFFSET`: stops pulling its input once satisfied —
/// this is the operator that makes `LIMIT k` over a huge scan O(k).
struct LimitCursor<'a> {
    input: BoxCursor<'a>,
    to_skip: u64,
    remaining: Option<u64>,
}

impl<'a> Cursor<'a> for LimitCursor<'a> {
    fn next_row(&mut self) -> RelResult<Option<Row>> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        while let Some(row) = self.input.next_row()? {
            if self.to_skip > 0 {
                self.to_skip -= 1;
                continue;
            }
            if let Some(r) = &mut self.remaining {
                *r -= 1;
            }
            return Ok(Some(row));
        }
        Ok(None)
    }
}

pub(crate) fn compare_rows(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    for key in keys {
        let ord = a[key.column].total_cmp(&b[key.column]);
        let ord = if key.descending { ord.reverse() } else { ord };
        if !ord.is_eq() {
            return ord;
        }
    }
    Ordering::Equal
}

/// Replaces every `Aggregate` subexpression with the literal computed over
/// the group's rows, leaving a plain expression to evaluate against the
/// group's representative row. The empty global group has no such row:
/// its column references become NULL here instead.
pub(crate) fn materialize_aggregates<R: AsRef<[Value]>>(
    expr: &Expr,
    rows: &[R],
) -> RelResult<Expr> {
    match expr {
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => compute_aggregate(*func, arg.as_deref(), *distinct, rows).map(Expr::Literal),
        Expr::Column { .. } if rows.is_empty() => Ok(Expr::Literal(Value::Null)),
        other => other.try_map_children(|e| materialize_aggregates(e, rows)),
    }
}

fn compute_aggregate<R: AsRef<[Value]>>(
    func: AggFunc,
    arg: Option<&Expr>,
    distinct: bool,
    rows: &[R],
) -> RelResult<Value> {
    // Collect the (non-null) argument values.
    let mut values: Vec<Value> = Vec::new();
    for row in rows {
        match arg {
            Some(e) => {
                let v = eval(e, row.as_ref())?;
                if !v.is_null() {
                    values.push(v);
                }
            }
            None => values.push(Value::Int(1)), // COUNT(*)
        }
    }
    if distinct {
        let mut seen = HashSet::new();
        values.retain(|v| seen.insert(v.clone()));
    }
    match func {
        AggFunc::Count => Ok(Value::Int(if arg.is_none() {
            rows.len() as i64
        } else {
            values.len() as i64
        })),
        AggFunc::Sum | AggFunc::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = values.iter().all(|v| matches!(v, Value::Int(_)));
            if all_int {
                // Exact integer accumulation: an i128 cannot overflow over
                // any number of i64 addends this engine can hold, and the
                // result is range-checked instead of silently truncated
                // through f64 (which corrupts totals beyond 2^53). AVG
                // shares the exact sum and divides once at the end, so the
                // result is independent of accumulation order — which is
                // what lets incremental view maintenance reproduce it
                // byte-for-byte.
                let mut sum: i128 = 0;
                for v in &values {
                    if let Value::Int(i) = v {
                        sum += *i as i128;
                    }
                }
                if func == AggFunc::Avg {
                    return Ok(Value::Float(sum as f64 / values.len() as f64));
                }
                return i64::try_from(sum)
                    .map(Value::Int)
                    .map_err(|_| RelError::Eval(format!("integer overflow in SUM (total {sum})")));
            }
            let mut sum = 0.0;
            for v in &values {
                sum += v.as_f64().ok_or_else(|| {
                    RelError::Eval(format!("{func:?} over non-numeric value {v}"))
                })?;
            }
            if func == AggFunc::Avg {
                Ok(Value::Float(sum / values.len() as f64))
            } else {
                Ok(Value::Float(sum))
            }
        }
        AggFunc::Min => Ok(values
            .into_iter()
            .min_by(|a, b| a.extreme_cmp(b))
            .unwrap_or(Value::Null)),
        AggFunc::Max => Ok(values
            .into_iter()
            .max_by(|a, b| a.extreme_cmp(b))
            .unwrap_or(Value::Null)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::CmpOp;
    use crate::Database;

    /// A leaf materializes the columns its plan lists and nothing else,
    /// whether it gathers a kernel-selected batch or a row per pull.
    #[test]
    fn pruned_output_nulls_unlisted_columns() {
        let db = Database::in_memory();
        db.query("CREATE TABLE t (a INT, s TEXT)").run().unwrap();
        db.query("INSERT INTO t VALUES (7, 'long string')")
            .run()
            .unwrap();
        let storage = db.snapshot();
        let lazy = Access {
            output: LeafOutput::Pruned(vec![0]),
            ..Access::new("t", "t", None)
        };
        let batched = Access {
            pushed: vec![SimplePred {
                col: 0,
                op: CmpOp::Gt,
                lit: Value::Int(0),
            }],
            ..lazy.clone()
        };
        let folded = Access {
            output: LeafOutput::Projected(vec![1, 0]),
            ..batched.clone()
        };
        let text = Value::Text("long string".into());
        for (leaf, want) in [
            (lazy, vec![Value::Int(7), Value::Null]),
            (batched, vec![Value::Int(7), Value::Null]),
            (folded, vec![text, Value::Int(7)]),
        ] {
            let run = run_plan(&Plan::from(leaf), &storage, false).unwrap();
            assert_eq!(run.rows, vec![want]);
        }
    }
}
