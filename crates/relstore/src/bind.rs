//! The bind stage: where column names stop.
//!
//! Everything upstream of this module — the parser, the planner's ordering
//! and build stages, view analysis, `prepare` — speaks in column *names*.
//! Everything downstream — [`crate::expr::eval`], every cursor in
//! [`crate::exec`], the reference interpreter, view maintenance, DML —
//! speaks in row *positions*. [`bind_expr`] is the only function that
//! turns one into the other; [`bind_plan`] applies it to a finished plan,
//! computing each operator's output schema exactly once on the way up.
//!
//! A statement's names are checked once, before any plan exists:
//! `Scope::new` turns its `FROM` and `JOIN` tables into one row of every
//! column under its alias (the unknown-table and duplicate-alias checks),
//! and `qualify` binds to that row, in this order: the `WHERE` conjuncts,
//! then each `ON` clause's, then the select list, then `GROUP BY`. The
//! planner, view analysis and parameter typing all read names through
//! these two, so one naming mistake is one error wherever the statement
//! enters.
//!
//! What a bound plan promises the executor: every `Expr::Column` an
//! operator carries has `ordinal: Some(i)`, where `i` indexes the row that
//! operator evaluates the expression against — the table's own row for a
//! leaf's predicate, its input row for `Filter`/`Project`/`Aggregate`, the
//! left (right) input row for a hash join's left (right) keys, and the
//! concatenated left-then-right row for join conditions and residuals. No
//! operator looks a name up again.

use std::sync::Arc;

use crate::error::{RelError, RelResult};
use crate::plan::{LeafOutput, Plan, ProjectItem};
use crate::planner::split_conjuncts;
use crate::schema::{Catalog, Column, TableSchema};
use crate::sql::ast::{Expr, SelectItem, SelectStmt, TableRef};
use crate::value::DataType;

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
        let mut found = None;
        for (i, binding) in self.columns.iter().enumerate() {
            let table_ok = table.is_none_or(|t| binding.table.eq_ignore_ascii_case(t));
            if table_ok && binding.name.eq_ignore_ascii_case(name) {
                if found.is_some() {
                    return Err(RelError::AmbiguousColumn(spelled(table, name)));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| RelError::UnknownColumn(spelled(table, name)))
    }
}

/// A column reference as written, for error text.
fn spelled(table: Option<&str>, name: &str) -> String {
    match table {
        Some(t) => format!("{t}.{name}"),
        None => name.to_string(),
    }
}

/// A reference to the column at position `ordinal`, under its canonical
/// alias and name.
fn column_ref(ordinal: usize, table: &str, name: &str) -> Expr {
    Expr::Column {
        table: Some(table.to_string()),
        name: name.to_string(),
        ordinal: Some(ordinal),
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
            Ok(column_ref(i, &binding.table, &binding.name))
        }
        other => other.try_map_children(|e| bind_expr(e, schema)),
    }
}

/// The names one statement can see: its tables under their aliases, and
/// every column of theirs in one row — the row that joining all of them
/// in declaration order produces. The scope borrows every name from the
/// statement and the catalog; only a bound reference copies one.
#[derive(Debug, Default)]
pub(crate) struct Scope<'s> {
    /// Each table and its schema, in declaration order.
    tables: Vec<(&'s TableRef, &'s TableSchema)>,
}

impl<'s> Scope<'s> {
    /// The scope of `tables`: each must exist, and no two may share an
    /// alias.
    pub(crate) fn new(
        tables: impl IntoIterator<Item = &'s TableRef>,
        catalog: &'s Catalog,
    ) -> RelResult<Scope<'s>> {
        let (mut tables, mut scope) = (tables.into_iter().peekable(), Scope::default());
        if tables.peek().is_none() {
            return Err(RelError::Parse("SELECT requires at least one table".into()));
        }
        for t in tables {
            if scope.known(&t.alias).is_ok() {
                let alias = &t.alias;
                return Err(RelError::Parse(format!("duplicate table alias {alias:?}")));
            }
            scope.tables.push((t, catalog.table(&t.table)?));
        }
        Ok(scope)
    }

    /// The tables, in declaration order.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &'s TableRef> + '_ {
        self.tables.iter().map(|(t, _)| *t)
    }

    /// The scope's row, in order: each column's alias and definition.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (&'s str, &'s Column)> + Clone + '_ {
        let table = |(t, schema): &(&'s TableRef, &'s TableSchema)| {
            let alias = t.alias.as_str();
            schema.columns.iter().map(move |c| (alias, c))
        };
        self.tables.iter().flat_map(table)
    }

    /// `UnknownTable` unless some table is bound under `alias`.
    fn known(&self, alias: &str) -> RelResult<()> {
        let known = self.tables().any(|t| t.alias.eq_ignore_ascii_case(alias));
        known
            .then_some(())
            .ok_or_else(|| RelError::UnknownTable(alias.to_string()))
    }

    /// The one column a reference names, with its position in the row:
    /// `UnknownTable` if its qualifier names no table, else
    /// [`RowSchema::resolve`]'s rule.
    fn resolve(&self, table: Option<&str>, name: &str) -> RelResult<(usize, &'s str, &'s Column)> {
        table.map_or(Ok(()), |alias| self.known(alias))?;
        let (mut found, mut offset) = (None, 0);
        for (t, schema) in &self.tables {
            let own = table.is_none_or(|alias| t.alias.eq_ignore_ascii_case(alias));
            if let Some(i) = schema.column_index(name).filter(|_| own) {
                if found.is_some() {
                    return Err(RelError::AmbiguousColumn(spelled(table, name)));
                }
                found = Some((offset + i, t.alias.as_str(), &schema.columns[i]));
            }
            offset += schema.arity();
        }
        found.ok_or_else(|| RelError::UnknownColumn(spelled(table, name)))
    }

    /// The columns of the table bound under `alias`, with their positions
    /// in the scope's row.
    fn table_columns<'a>(
        &'a self,
        alias: &'a str,
    ) -> RelResult<impl Iterator<Item = (usize, (&'s str, &'s Column))> + 'a> {
        self.known(alias)?;
        let columns = self.columns().enumerate();
        Ok(columns.filter(move |(_, (a, _))| a.eq_ignore_ascii_case(alias)))
    }

    /// The table bound under `alias` as a row of its own.
    pub(crate) fn table_row(&self, alias: &str) -> RelResult<RowSchema> {
        let names = self.table_columns(alias)?.map(|(_, (_, c))| c.name.clone());
        Ok(RowSchema::for_table(alias, names))
    }

    /// Binds `expr` to the scope's row: [`bind_expr`]'s rule, except that
    /// a qualifier naming no table is `UnknownTable`.
    pub(crate) fn bind(&self, expr: &Expr) -> RelResult<Expr> {
        match expr {
            Expr::Column { table, name, .. } => {
                let (i, alias, column) = self.resolve(table.as_deref(), name)?;
                Ok(column_ref(i, alias, &column.name))
            }
            other => other.try_map_children(|e| self.bind(e)),
        }
    }

    /// The declared type of the one column a reference names, if it names
    /// exactly one.
    pub(crate) fn type_of(&self, table: Option<&str>, name: &str) -> Option<DataType> {
        self.resolve(table, name).ok().map(|(_, _, c)| c.ty)
    }
}

/// A `SELECT`'s clauses bound to its [`Scope`]'s row.
#[derive(Debug)]
pub(crate) struct Qualified {
    /// The select list: wildcards expanded, every item named.
    pub(crate) items: Vec<ProjectItem>,
    /// The `WHERE` conjuncts, then each `ON` clause's, in that order.
    pub(crate) conjuncts: Vec<Expr>,
    /// The `GROUP BY` expressions.
    pub(crate) group_by: Vec<Expr>,
}

/// The qualify stage: binds every name `stmt` uses outside `ORDER BY` to
/// `scope`'s row, in this order: the `WHERE` conjuncts, then each `ON`
/// clause's, then the select list (expanding `*` and `t.*`, naming each
/// item by its alias or [`derive_name`]), then `GROUP BY`. The first name
/// that does not resolve is the error.
pub(crate) fn qualify(stmt: &SelectStmt, scope: &Scope) -> RelResult<Qualified> {
    let mut conjuncts = Vec::new();
    for e in stmt.filter.iter().chain(stmt.joins.iter().map(|j| &j.on)) {
        split_conjuncts(scope.bind(e)?, &mut conjuncts);
    }
    let column = |(i, (table, c)): (usize, (&str, &Column))| ProjectItem {
        expr: column_ref(i, table, &c.name),
        name: c.name.clone(),
    };
    let mut items = Vec::new();
    for (position, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => items.extend(scope.columns().enumerate().map(column)),
            SelectItem::TableWildcard(alias) => {
                items.extend(scope.table_columns(alias)?.map(column));
            }
            SelectItem::Expr { expr, alias } => {
                let bound = scope.bind(expr)?;
                let name = alias.clone().unwrap_or_else(|| derive_name(expr, position));
                items.push(ProjectItem { expr: bound, name });
            }
        }
    }
    let group_by = stmt.group_by.iter().map(|e| scope.bind(e));
    Ok(Qualified {
        items,
        conjuncts,
        group_by: group_by.collect::<RelResult<_>>()?,
    })
}

/// An unaliased select item's name: a column's own name, an aggregate's
/// function, else `col<position>`, where `position` counts the select
/// list as written (a wildcard is one item). A view's column names come
/// from this rule each time its logged definition is re-analyzed, so the
/// rule must not change.
fn derive_name(expr: &Expr, position: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Aggregate { func, .. } => format!("{func:?}").to_ascii_lowercase(),
        _ => format!("col{position}"),
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
            let access = Arc::make_mut(access);
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
            ..
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
