//! Reference (materializing) plan interpreter.
//!
//! The seed engine's pull-everything executor, retained as the semantic
//! oracle for the streaming executor in [`crate::exec`]: every operator
//! produces its fully materialized rows with the simplest possible
//! implementation, over the same bound plan. A leaf is read the obvious
//! way — every row its method yields, kept when the leaf's *whole*
//! predicate evaluates true under [`eval_predicate`] — so the oracle never
//! touches a segment kernel and does not depend on how the planner split
//! the predicate between kernels and residual. The property tests run
//! randomized queries through both executors and require row-for-row
//! identical output, including order — so the hash join here always
//! builds on the right input and probes with the left, matching the
//! streaming executor's deterministic left-major output order, and `TopK`
//! is spelled as the sort/skip/take it fuses. A join's sideways key
//! passing is not followed: its keyed leaf is read as a full scan.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use crate::db::Storage;
use crate::error::RelResult;
use crate::exec::{compare_rows, index_ids, materialize_aggregates};
use crate::expr::{eval, eval_predicate};
use crate::plan::{AccessMethod, LeafOutput, Plan};
use crate::sql::ast::Expr;
use crate::table::Row;
use crate::value::Value;

/// Executes a plan by materializing every operator's full output.
pub fn execute_plan(plan: &Plan, storage: &Storage) -> RelResult<Vec<Row>> {
    match plan {
        Plan::Access(access) => {
            let t = storage.table(&access.table)?;
            let candidates: Vec<Row> = match access.method {
                AccessMethod::Full | AccessMethod::JoinKeys { .. } => {
                    t.scan().map(|(_, r)| r).collect()
                }
                _ => index_ids(&access.table, &access.method, storage)?
                    .into_iter()
                    .filter_map(|id| t.get(id))
                    .collect(),
            };
            let mut out = Vec::new();
            for row in candidates {
                let keep = match &access.predicate {
                    Some(predicate) => eval_predicate(predicate, &row)?,
                    None => true,
                };
                if keep {
                    out.push(match &access.output {
                        LeafOutput::Projected(cols) => {
                            cols.iter().map(|&c| row[c].clone()).collect()
                        }
                        _ => row,
                    });
                }
            }
            Ok(out)
        }
        Plan::Filter { input, predicate } => {
            let mut out = Vec::new();
            for row in execute_plan(input, storage)? {
                if eval_predicate(predicate, &row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::NestedLoopJoin {
            left,
            right,
            condition,
        } => {
            let lrows = execute_plan(left, storage)?;
            let rrows = execute_plan(right, storage)?;
            let mut out = Vec::new();
            for lrow in &lrows {
                for rrow in &rrows {
                    let mut combined = lrow.clone();
                    combined.extend(rrow.iter().cloned());
                    match condition {
                        Some(cond) => {
                            if eval_predicate(cond, &combined)? {
                                out.push(combined);
                            }
                        }
                        None => out.push(combined),
                    }
                }
            }
            Ok(out)
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            semi,
            ..
        } => {
            let lrows = execute_plan(left, storage)?;
            let rrows = execute_plan(right, storage)?;
            // Keys are evaluated once per row; NULL keys never join.
            let eval_keys = |keys: &[Expr], row: &Row| -> RelResult<Option<Vec<Value>>> {
                let key: Vec<Value> = keys
                    .iter()
                    .map(|k| eval(k, row))
                    .collect::<RelResult<_>>()?;
                Ok(if key.iter().any(Value::is_null) {
                    None
                } else {
                    Some(key)
                })
            };
            if *semi {
                // Existence-only: emit each left row at most once and drop
                // the right side's columns (planner guaranteed nothing
                // downstream references them and the query is DISTINCT).
                let mut table: HashSet<Vec<Value>> = HashSet::new();
                for rrow in &rrows {
                    if let Some(key) = eval_keys(right_keys, rrow)? {
                        table.insert(key);
                    }
                }
                let mut out = Vec::new();
                for lrow in lrows {
                    if let Some(key) = eval_keys(left_keys, &lrow)? {
                        if table.contains(&key) {
                            out.push(lrow);
                        }
                    }
                }
                return Ok(out);
            }
            // Build on the right, probe with the left, so output order is
            // left-major — identical to the streaming executor.
            let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            for (i, rrow) in rrows.iter().enumerate() {
                if let Some(key) = eval_keys(right_keys, rrow)? {
                    table.entry(key).or_default().push(i);
                }
            }
            let mut out = Vec::new();
            for lrow in &lrows {
                let Some(key) = eval_keys(left_keys, lrow)? else {
                    continue;
                };
                if let Some(matches) = table.get(&key) {
                    for &i in matches {
                        let mut combined = lrow.clone();
                        combined.extend(rrows[i].iter().cloned());
                        match residual {
                            Some(cond) => {
                                if eval_predicate(cond, &combined)? {
                                    out.push(combined);
                                }
                            }
                            None => out.push(combined),
                        }
                    }
                }
            }
            Ok(out)
        }
        Plan::Project { input, items, .. } => {
            let rows = execute_plan(input, storage)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let projected: Row = items
                    .iter()
                    .map(|item| eval(&item.expr, &row))
                    .collect::<RelResult<_>>()?;
                out.push(projected);
            }
            Ok(out)
        }
        Plan::Aggregate {
            input,
            group_by,
            items,
            ..
        } => {
            // Group rows; with no GROUP BY everything is one global group.
            let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            for row in execute_plan(input, storage)? {
                let key: Vec<Value> = group_by
                    .iter()
                    .map(|e| eval(e, &row))
                    .collect::<RelResult<_>>()?;
                match index.entry(key.clone()) {
                    Entry::Occupied(slot) => groups[*slot.get()].1.push(row),
                    Entry::Vacant(slot) => {
                        slot.insert(groups.len());
                        groups.push((key, vec![row]));
                    }
                }
            }
            if groups.is_empty() && group_by.is_empty() {
                // Global aggregate over empty input yields one row.
                groups.push((Vec::new(), Vec::new()));
            }
            let mut out = Vec::with_capacity(groups.len());
            for (_, group_rows) in &groups {
                // The empty global group has no representative row;
                // `materialize_aggregates` nulls its column references.
                let representative: &[Value] = group_rows.first().map_or(&[], |r| r);
                let mut result_row = Vec::with_capacity(items.len());
                for item in items {
                    let materialized = materialize_aggregates(&item.expr, group_rows)?;
                    result_row.push(eval(&materialized, representative)?);
                }
                out.push(result_row);
            }
            Ok(out)
        }
        Plan::Sort { input, keys } => {
            let mut rows = execute_plan(input, storage)?;
            rows.sort_by(|a, b| compare_rows(a, b, keys));
            Ok(rows)
        }
        Plan::TopK {
            input,
            keys,
            limit,
            offset,
        } => {
            // The unfused spelling: full sort, then skip/take.
            let mut rows = execute_plan(input, storage)?;
            rows.sort_by(|a, b| compare_rows(a, b, keys));
            Ok(rows
                .into_iter()
                .skip(*offset as usize)
                .take(*limit as usize)
                .collect())
        }
        Plan::Distinct { input, visible } => {
            let mut seen: HashSet<Vec<Value>> = HashSet::new();
            let mut out = Vec::new();
            for row in execute_plan(input, storage)? {
                let key: Vec<Value> = row.iter().take(*visible).cloned().collect();
                if seen.insert(key) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => Ok(execute_plan(input, storage)?
            .into_iter()
            .skip(*offset as usize)
            .take(limit.map(|l| l as usize).unwrap_or(usize::MAX))
            .collect()),
    }
}
