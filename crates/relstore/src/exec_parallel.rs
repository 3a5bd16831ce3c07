//! Morsel-driven parallel execution: the driver around the one operator
//! core in [`crate::exec`].
//!
//! This module implements no operator. It decides *whether* a plan may be
//! split ([`parallel_eligible`], [`should_parallelize`]), carves the
//! driving leaf's zone-map-surviving segments into *segment-aligned*
//! morsels — slot ranges within a single column-store segment — and fans
//! them across a reusable [`WorkerPool`]. Every worker opens the same
//! cursor tree the sequential executor would, restricted to its morsel
//! (and, for a hash join, probing the build side the driver built once),
//! with its own counters. What a worker opens is the plan as planned: the
//! driving leaf ([`Access`]) already carries its pushed predicates,
//! residual and column set, so nothing is compiled or chosen per morsel,
//! and eligibility matches that leaf directly. The per-morsel outputs are
//! then merged in morsel order — rows concatenated, aggregation groups
//! folded in first-seen order — and emitted through the optional
//! `Distinct` on the calling thread. That makes every parallel plan
//! produce byte-identical rows — and identical
//! [`ExecStats`](crate::exec::ExecStats) — to the sequential run.
//!
//! Only plan shapes whose output order is a pure function of morsel order
//! are eligible; anything else (sorts, limits, nested-loop joins, index
//! methods) runs sequentially, a decision the planner surfaces as
//! the `parallel=N` line of `EXPLAIN`. Tables too small to amortize the
//! hand-off (fewer than two morsels' worth of rows) also run
//! sequentially.
//!
//! Error semantics match sequential execution exactly: that stops at the
//! first failing row in scan order, so workers here track the
//! lowest-numbered morsel that failed, keep processing *earlier* morsels
//! (one of them may fail even earlier), skip later ones, and report the
//! error from the lowest morsel index.

use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::db::Storage;
use crate::error::{RelError, RelResult};
use crate::exec::{
    access_spans, aggregate_groups, build_side, emit_merged, group_morsel, run_morsel, Groups,
    PlanRun, Span, StatsCell,
};
use crate::plan::{Access, AccessMethod, Plan};
use crate::pool::WorkerPool;

/// A parsed parallel-eligible plan:
/// `[Distinct] ( Chain | Project(Chain) | [Project] HashJoin(Chain, Chain) | Aggregate(Chain) )`
/// where `Chain = Filter* (full-scan leaf)`.
struct Shape<'p> {
    /// Width of the `Distinct` on top, if any; it runs after the merge.
    distinct: Option<usize>,
    /// The plan below the optional `Distinct`: what each worker runs
    /// over its morsel.
    body: &'p Plan,
    /// The driving leaf — the full scan of the (probe) chain — whose
    /// segments become the morsels.
    leaf: &'p Access,
    /// The hash join in `body`, whose right side the driver builds once.
    join: Option<&'p Plan>,
    /// Every table the shape scans, for the small-input cutover.
    tables: Vec<&'p str>,
}

/// The full-scan leaf at the bottom of a `Filter*` chain.
fn chain_leaf(plan: &Plan) -> Option<&Access> {
    match plan {
        Plan::Access(access) if access.method == AccessMethod::Full => Some(access),
        Plan::Filter { input, .. } => chain_leaf(input),
        _ => None,
    }
}

fn parse_shape(plan: &Plan) -> Option<Shape<'_>> {
    let (body, distinct) = match plan {
        Plan::Distinct { input, visible } => (&**input, Some(*visible)),
        other => (other, None),
    };
    let (below, may_join) = match body {
        Plan::Project { input, .. } => (&**input, true),
        Plan::Aggregate { input, .. } => (&**input, false),
        other => (other, true),
    };
    let (leaf, join, tables) = match below {
        Plan::HashJoin { left, right, .. } if may_join => {
            let (leaf, build) = (chain_leaf(left)?, chain_leaf(right)?);
            (leaf, Some(below), vec![&*leaf.table, &*build.table])
        }
        chain => {
            let leaf = chain_leaf(chain)?;
            (leaf, None, vec![&*leaf.table])
        }
    };
    Some(Shape {
        distinct,
        body,
        leaf,
        join,
        tables,
    })
}

/// Whether the plan can run morsel-parallel while preserving the engine's
/// documented row order. This is the single source of truth for both the
/// execution dispatch and the `parallel=N` line `EXPLAIN` prints.
pub(crate) fn parallel_eligible(plan: &Plan) -> bool {
    parse_shape(plan).is_some()
}

/// Whether splitting work of estimated cost `cost` (in rows processed)
/// across workers is worth the hand-off: below two morsels' worth there
/// is at most one morsel per worker pair and the scan itself is cheaper
/// than scheduling it.
pub(crate) fn should_parallelize(cost: f64, workers: usize, morsel_size: usize) -> bool {
    workers >= 2 && cost >= 2.0 * morsel_size as f64
}

/// Executes an eligible plan across the pool, or returns `None` when the
/// plan is not eligible (or fewer than two workers were requested, or the
/// work is too small for parallelism to pay for itself, or pruning left
/// nothing to fan out), in which case the caller runs it sequentially.
///
/// The cutover uses the planner's estimated cost when available, floored
/// by the snapshot's exact input row count: a query whose estimated work
/// (joins, filters) exceeds the raw scan size parallelizes even when its
/// base table alone would not, while a stale (low) cached estimate can
/// never suppress parallelism the input size already justifies. Unknown
/// tables count as `usize::MAX` rows so the parallel path (not the
/// heuristic) surfaces the error — identically to the sequential one.
pub(crate) fn execute_plan_parallel(
    plan: &Plan,
    storage: &Storage,
    pool: &WorkerPool,
    workers: usize,
    morsel_size: usize,
    est_cost: Option<f64>,
) -> Option<RelResult<PlanRun>> {
    if workers < 2 {
        return None;
    }
    let shape = parse_shape(plan)?;
    let morsel_size = morsel_size.max(1);
    let input_rows = shape
        .tables
        .iter()
        .map(|t| storage.table(t).map_or(usize::MAX, |t| t.len()))
        .fold(0usize, usize::saturating_add) as f64;
    let cost = est_cost.map_or(input_rows, |c| c.max(input_rows));
    if !should_parallelize(cost, workers, morsel_size) {
        return None;
    }
    run_shape(&shape, storage, pool, workers, morsel_size).transpose()
}

/// Splits each surviving segment span into `morsel_size`-slot morsels, in
/// scan (document) order.
fn carve(spans: Vec<Span>, morsel_size: usize) -> Vec<Span> {
    let mut morsels = Vec::new();
    for (seg, slots) in spans {
        let mut lo = slots.start;
        while lo < slots.end {
            let hi = (lo + morsel_size).min(slots.end);
            morsels.push((seg, lo..hi));
            lo = hi;
        }
    }
    morsels
}

fn run_shape(
    shape: &Shape<'_>,
    storage: &Storage,
    pool: &WorkerPool,
    workers: usize,
    morsel_size: usize,
) -> RelResult<Option<PlanRun>> {
    // The driver's own counters: what it does itself (pruning, the join
    // build, the final emit) plus every morsel's, absorbed in order.
    let stats = Rc::new(StatsCell::default());
    let morsels = carve(access_spans(shape.leaf, storage, &stats)?, morsel_size);
    if morsels.is_empty() {
        // Nothing survived pruning: no worker would report the one row a
        // global aggregate owes an empty input.
        return Ok(None);
    }

    let (rows, buffered) = if let Plan::Aggregate {
        input,
        group_by,
        items,
        ..
    } = shape.body
    {
        let parts = morsel_map(pool, workers, 1, morsels.len(), |i| {
            group_morsel(input, group_by, storage, morsels[i.start].clone())
        })?;
        let mut groups = Groups::default();
        for (part, part_stats) in parts {
            stats.absorb(&part_stats);
            groups.absorb(part);
        }
        // Finish the groups fanned across workers in contiguous chunks,
        // so the first erroring group in group order still wins.
        let out = groups.finish(group_by, &stats, |groups| {
            let chunk = groups.len().div_ceil(workers.min(groups.len()).max(1));
            let parts = morsel_map(pool, workers, chunk.max(1), groups.len(), |range| {
                aggregate_groups(&groups[range], items)
            })?;
            Ok(parts.concat())
        })?;
        (out, true)
    } else {
        let build = match shape.join {
            Some(Plan::HashJoin {
                right,
                right_keys,
                semi,
                ..
            }) => Some(build_side(right, right_keys, *semi, storage, &stats)?),
            _ => None,
        };
        let parts = morsel_map(pool, workers, 1, morsels.len(), |i| {
            run_morsel(
                shape.body,
                storage,
                morsels[i.start].clone(),
                build.as_ref(),
            )
        })?;
        let mut rows = Vec::new();
        for part in parts {
            stats.absorb(&part.stats);
            rows.extend(part.rows);
        }
        (rows, false)
    };
    let (rows, stats) = emit_merged(rows, buffered, shape.distinct, stats)?;
    Ok(Some(PlanRun {
        rows,
        stats,
        profile: None,
    }))
}

/// Fans `work` over `total` items split into `morsel_size`-sized ranges,
/// returning per-morsel results assembled in morsel order.
///
/// On error, workers keep processing morsels *before* the lowest failed
/// index (an earlier one may fail too), skip later ones, and the error
/// from the lowest morsel index is returned — matching the error the
/// sequential executor, which stops at the first failing row, would raise.
fn morsel_map<T, F>(
    pool: &WorkerPool,
    workers: usize,
    morsel_size: usize,
    total: usize,
    work: F,
) -> RelResult<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>) -> RelResult<T> + Sync,
{
    let morsel_count = total.div_ceil(morsel_size);
    if morsel_count == 0 {
        return Ok(Vec::new());
    }
    let next = AtomicUsize::new(0);
    let error_floor = AtomicUsize::new(usize::MAX);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(morsel_count));
    let first_error: Mutex<Option<(usize, RelError)>> = Mutex::new(None);
    let run = |_task: usize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= morsel_count {
            break;
        }
        if i > error_floor.load(Ordering::Relaxed) {
            continue;
        }
        let lo = i * morsel_size;
        let hi = (lo + morsel_size).min(total);
        match work(lo..hi) {
            Ok(t) => results
                .lock()
                .expect("morsel results poisoned")
                .push((i, t)),
            Err(e) => {
                error_floor.fetch_min(i, Ordering::Relaxed);
                let mut slot = first_error.lock().expect("morsel error slot poisoned");
                let replace = match slot.as_ref() {
                    Some((j, _)) => i < *j,
                    None => true,
                };
                if replace {
                    *slot = Some((i, e));
                }
            }
        }
    };
    let tasks = workers.min(morsel_count).max(1);
    if tasks == 1 {
        run(0);
    } else {
        let run = &run;
        let boxed: Vec<Box<dyn FnOnce() + Send + '_>> = (0..tasks)
            .map(|k| Box::new(move || run(k)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        pool.scope(boxed);
    }
    if let Some((_, e)) = first_error
        .into_inner()
        .expect("morsel error slot poisoned")
    {
        return Err(e);
    }
    let mut out = results.into_inner().expect("morsel results poisoned");
    out.sort_unstable_by_key(|(i, _)| *i);
    Ok(out.into_iter().map(|(_, t)| t).collect())
}

#[cfg(test)]
mod tests {
    use super::should_parallelize;

    #[test]
    fn small_workloads_stay_sequential() {
        assert!(!should_parallelize(0.0, 4, 8));
        assert!(!should_parallelize(15.0, 4, 8));
        assert!(should_parallelize(16.0, 4, 8));
        assert!(should_parallelize(100.0, 2, 8));
        assert!(!should_parallelize(1_000_000.0, 1, 8));
    }
}
