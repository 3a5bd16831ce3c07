//! The bind stage: where column names stop.
//!
//! Everything upstream of this module — the parser, the planner's qualify,
//! ordering and build stages, view analysis — speaks in column *names*.
//! Everything downstream — [`crate::expr::eval`], every cursor in
//! [`crate::exec`], the reference interpreter, view maintenance, DML —
//! speaks in row *positions*. [`bind_expr`] is the only function that
//! turns one into the other; [`bind_plan`] applies it to a finished plan,
//! computing each operator's output schema exactly once on the way up.
//!
//! What a bound plan promises the executor: every `Expr::Column` an
//! operator carries has `ordinal: Some(i)`, where `i` indexes the row that
//! operator evaluates the expression against — the table's own row for a
//! leaf's predicate, its input row for `Filter`/`Project`/`Aggregate`, the
//! left (right) input row for a hash join's left (right) keys, and the
//! concatenated left-then-right row for join conditions and residuals. No
//! operator looks a name up again.

use crate::error::{RelError, RelResult};
use crate::plan::{LeafOutput, Plan, ProjectItem};
use crate::schema::Catalog;
use crate::sql::ast::Expr;

/// A named column in an operator's output: `(binding alias, column name)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnBinding {
    /// The table alias this column came from.
    pub table: String,
    /// The column name.
    pub name: String,
}

/// The named columns of the rows an operator produces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowSchema {
    columns: Vec<ColumnBinding>,
}

impl RowSchema {
    /// Creates a schema from bindings.
    pub fn new(columns: Vec<ColumnBinding>) -> Self {
        RowSchema { columns }
    }

    /// Builds a schema for a base table bound under `alias`.
    pub fn for_table(alias: &str, column_names: impl IntoIterator<Item = String>) -> Self {
        RowSchema {
            columns: column_names
                .into_iter()
                .map(|name| ColumnBinding {
                    table: alias.to_string(),
                    name,
                })
                .collect(),
        }
    }

    /// The bindings.
    pub fn columns(&self) -> &[ColumnBinding] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Concatenates two schemas (join output).
    pub fn join(mut self, other: RowSchema) -> RowSchema {
        self.columns.extend(other.columns);
        self
    }

    /// Resolves a possibly-qualified column reference to its position.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> RelResult<usize> {
        let full = || match table {
            Some(t) => format!("{t}.{name}"),
            None => name.to_string(),
        };
        let mut found = None;
        for (i, binding) in self.columns.iter().enumerate() {
            let table_ok = table.is_none_or(|t| binding.table.eq_ignore_ascii_case(t));
            if table_ok && binding.name.eq_ignore_ascii_case(name) {
                if found.is_some() {
                    return Err(RelError::AmbiguousColumn(full()));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| RelError::UnknownColumn(full()))
    }
}

/// Rewrites every column reference in `expr` to its position in `schema`
/// (and to the binding's canonical alias and name, so two spellings of
/// one column compare equal afterwards). Unknown and ambiguous references
/// fail here — binding is the validation.
pub fn bind_expr(expr: &Expr, schema: &RowSchema) -> RelResult<Expr> {
    match expr {
        Expr::Column { table, name, .. } => {
            let i = schema.resolve(table.as_deref(), name)?;
            let binding = &schema.columns()[i];
            Ok(Expr::Column {
                table: Some(binding.table.clone()),
                name: binding.name.clone(),
                ordinal: Some(i),
            })
        }
        other => other.try_map_children(|e| bind_expr(e, schema)),
    }
}

fn rebind<'e>(exprs: impl IntoIterator<Item = &'e mut Expr>, schema: &RowSchema) -> RelResult<()> {
    for e in exprs {
        *e = bind_expr(e, schema)?;
    }
    Ok(())
}

/// The schema of a projection's output: unqualified item names.
fn projected_schema(items: &[ProjectItem]) -> RowSchema {
    RowSchema::for_table("", items.iter().map(|i| i.name.clone()))
}

/// Binds every expression `plan` carries, bottom-up, and returns the
/// schema of the rows the plan produces (hidden sort-key columns included).
pub fn bind_plan(plan: &mut Plan, catalog: &Catalog) -> RelResult<RowSchema> {
    match plan {
        Plan::Access(access) => {
            let columns = &catalog.table(&access.table)?.columns;
            access.columns = columns.iter().map(|c| c.name.clone()).collect();
            let mut schema = RowSchema::for_table(&access.alias, access.columns.iter().cloned());
            rebind(
                access.predicate.iter_mut().chain(&mut access.residual),
                &schema,
            )?;
            if let LeafOutput::Projected(cols) = &access.output {
                schema.columns = cols.iter().map(|&c| schema.columns[c].clone()).collect();
            }
            Ok(schema)
        }
        Plan::Filter { input, predicate } => {
            let schema = bind_plan(input, catalog)?;
            rebind([predicate], &schema)?;
            Ok(schema)
        }
        Plan::NestedLoopJoin {
            left,
            right,
            condition,
        } => {
            let schema = bind_plan(left, catalog)?.join(bind_plan(right, catalog)?);
            rebind(condition, &schema)?;
            Ok(schema)
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            semi,
        } => {
            let ls = bind_plan(left, catalog)?;
            let rs = bind_plan(right, catalog)?;
            rebind(left_keys, &ls)?;
            rebind(right_keys, &rs)?;
            let left_width = ls.len();
            let mut joined = ls.join(rs);
            rebind(residual, &joined)?;
            if *semi {
                // A semi join passes left rows through unchanged.
                joined.columns.truncate(left_width);
            }
            Ok(joined)
        }
        Plan::Project { input, items, .. } => {
            let schema = bind_plan(input, catalog)?;
            rebind(items.iter_mut().map(|i| &mut i.expr), &schema)?;
            Ok(projected_schema(items))
        }
        Plan::Aggregate {
            input,
            group_by,
            items,
            ..
        } => {
            let schema = bind_plan(input, catalog)?;
            rebind(group_by, &schema)?;
            rebind(items.iter_mut().map(|i| &mut i.expr), &schema)?;
            Ok(projected_schema(items))
        }
        Plan::Sort { input, .. }
        | Plan::TopK { input, .. }
        | Plan::Distinct { input, .. }
        | Plan::Limit { input, .. } => bind_plan(input, catalog),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_resolution() {
        let s = RowSchema::for_table("a", vec!["x".into()])
            .join(RowSchema::for_table("b", vec!["x".into(), "y".into()]));
        assert_eq!(s.resolve(Some("a"), "x").unwrap(), 0);
        assert_eq!(s.resolve(Some("b"), "x").unwrap(), 1);
        assert_eq!(s.resolve(None, "y").unwrap(), 2);
        assert!(matches!(
            s.resolve(None, "x"),
            Err(RelError::AmbiguousColumn(_))
        ));
        assert!(matches!(
            s.resolve(None, "zz"),
            Err(RelError::UnknownColumn(_))
        ));
        assert!(matches!(
            s.resolve(Some("c"), "x"),
            Err(RelError::UnknownColumn(_))
        ));
    }
}
