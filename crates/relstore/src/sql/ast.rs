//! SQL abstract syntax.

use crate::value::{DataType, Value};

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A `?` placeholder, numbered left-to-right from zero. Parameters
    /// are substituted with bound literals before planning; evaluating an
    /// unbound parameter is an error.
    Param(usize),
    /// A column reference, optionally qualified by a table alias.
    Column {
        /// Optional table alias qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
        /// Position in the row the expression is evaluated against: `None`
        /// as parsed, filled in by [`crate::bind::bind_expr`] — the only
        /// form [`crate::expr::eval`] accepts.
        ordinal: Option<usize>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// `IS NOT NULL` when set.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern expression.
        pattern: Box<Expr>,
        /// `NOT LIKE` when set.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `NOT IN` when set.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The tested expression.
        expr: Box<Expr>,
        /// Inclusive lower bound.
        low: Box<Expr>,
        /// Inclusive upper bound.
        high: Box<Expr>,
        /// `NOT BETWEEN` when set.
        negated: bool,
    },
    /// `CONTAINS(column, 'keyword')` — the keyword-search extension,
    /// served by the inverted index when one covers the column.
    Contains {
        /// The searched column.
        column: Box<Expr>,
        /// The keyword(s).
        keyword: Box<Expr>,
    },
    /// `MATCHES(column, 'pattern')` — regular-expression matching, the
    /// capability the paper holds up against SQL-only systems (§4).
    Matches {
        /// The matched column.
        column: Box<Expr>,
        /// The regular expression.
        pattern: Box<Expr>,
    },
    /// An aggregate call in a select list: `COUNT(*)`, `SUM(x)`, ...
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The argument (`None` for `COUNT(*)`).
        arg: Option<Box<Expr>>,
        /// `DISTINCT` aggregation.
        distinct: bool,
    },
}

impl Expr {
    /// Convenience: a qualified or bare column reference.
    pub fn col(table: Option<&str>, name: &str) -> Expr {
        Expr::Column {
            table: table.map(str::to_string),
            name: name.to_string(),
            ordinal: None,
        }
    }

    /// Convenience: a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Convenience: `left op right`.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Rebuilds this node with every direct child replaced by `f(child)`
    /// (leaves come back unchanged) — the recursion step of an
    /// expression rewriter, which matches the nodes it rewrites itself
    /// and hands every other node here.
    pub fn try_map_children<E>(
        &self,
        mut f: impl FnMut(&Expr) -> Result<Expr, E>,
    ) -> Result<Expr, E> {
        let mut boxed = |e: &Expr| f(e).map(Box::new);
        Ok(match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column { .. } => self.clone(),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: boxed(left)?,
                right: boxed(right)?,
            },
            Expr::Not(e) => Expr::Not(boxed(e)?),
            Expr::Neg(e) => Expr::Neg(boxed(e)?),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: boxed(expr)?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: boxed(expr)?,
                pattern: boxed(pattern)?,
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: boxed(expr)?,
                list: list
                    .iter()
                    .map(|e| boxed(e).map(|b| *b))
                    .collect::<Result<_, E>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: boxed(expr)?,
                low: boxed(low)?,
                high: boxed(high)?,
                negated: *negated,
            },
            Expr::Contains { column, keyword } => Expr::Contains {
                column: boxed(column)?,
                keyword: boxed(keyword)?,
            },
            Expr::Matches { column, pattern } => Expr::Matches {
                column: boxed(column)?,
                pattern: boxed(pattern)?,
            },
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => Expr::Aggregate {
                func: *func,
                arg: arg.as_deref().map(&mut boxed).transpose()?,
                distinct: *distinct,
            },
        })
    }

    /// The node's direct sub-expressions, in evaluation order.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column { .. } => Vec::new(),
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Not(e) | Expr::Neg(e) | Expr::IsNull { expr: e, .. } => vec![e],
            Expr::Like {
                expr, pattern: b, ..
            }
            | Expr::Contains {
                column: expr,
                keyword: b,
            }
            | Expr::Matches {
                column: expr,
                pattern: b,
            } => vec![expr, b],
            Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            Expr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            Expr::Aggregate { arg, .. } => arg.as_deref().into_iter().collect(),
        }
    }

    /// Whether the expression (sub)tree contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        matches!(self, Expr::Aggregate { .. }) || self.children().iter().any(|e| e.has_aggregate())
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// Whether this is a comparison operator.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

/// One item of a select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — all columns of all tables in scope.
    Wildcard,
    /// `alias.*` — all columns of one table.
    TableWildcard(String),
    /// An expression with an optional `AS` alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output name.
        alias: Option<String>,
    },
}

/// A table reference in the FROM clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Binding alias (defaults to the table name).
    pub alias: String,
}

/// An explicit `JOIN ... ON ...` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined table.
    pub table: TableRef,
    /// The join condition.
    pub on: Expr,
}

/// An `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The sort expression.
    pub expr: Expr,
    /// Ascending (default) or descending.
    pub descending: bool,
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM tables (comma-joined).
    pub from: Vec<TableRef>,
    /// Explicit JOIN clauses.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// OFFSET row count.
    pub offset: Option<u64>,
}

impl SelectStmt {
    /// Every table the statement reads: `FROM`, then each `JOIN`.
    pub fn tables(&self) -> impl Iterator<Item = &TableRef> {
        self.from.iter().chain(self.joins.iter().map(|j| &j.table))
    }
}

/// Any SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`.
    Select(SelectStmt),
    /// `EXPLAIN [ANALYZE] SELECT ...`: renders the plan (and, with
    /// `ANALYZE`, executes it and annotates each operator with observed
    /// rows and wall-time).
    Explain {
        /// Whether to execute the statement and report runtime figures.
        analyze: bool,
        /// The statement being explained (only `SELECT` is accepted).
        inner: Box<Statement>,
    },
    /// `CREATE TABLE name (col TYPE, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column names and types in declaration order.
        columns: Vec<(String, DataType)>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `CREATE [KEYWORD] INDEX name ON table (cols)`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Key columns in order.
        columns: Vec<String>,
        /// Inverted keyword index rather than a B-tree.
        keyword: bool,
    },
    /// `DROP INDEX name`.
    DropIndex {
        /// Index name.
        name: String,
    },
    /// `INSERT INTO table VALUES (...), (...)`.
    Insert {
        /// Target table.
        table: String,
        /// Rows of value expressions.
        rows: Vec<Vec<Expr>>,
    },
    /// `DELETE FROM table [WHERE ...]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional row filter (all rows when absent).
        filter: Option<Expr>,
    },
    /// `UPDATE table SET col = expr, ... [WHERE ...]`.
    Update {
        /// Target table.
        table: String,
        /// `(column, new value)` assignments, all reading the pre-update row.
        assignments: Vec<(String, Expr)>,
        /// Optional row filter (all rows when absent).
        filter: Option<Expr>,
    },
    /// `ANALYZE [TABLE name]`: collects planner statistics (row count,
    /// per-column min/max, null fraction, NDV sketch) for one table or,
    /// with no name, for every table in the catalog.
    Analyze {
        /// Table to analyze; `None` analyzes all tables.
        table: Option<String>,
    },
    /// `CREATE MATERIALIZED VIEW name [REFRESH ON COMMIT] AS SELECT ...`:
    /// materializes the query result as a real table and maintains it
    /// delta-wise from committed transactions.
    CreateMaterializedView {
        /// View name (also its backing-table name).
        name: String,
        /// Synchronous maintenance on every commit; otherwise deltas
        /// accumulate in a bounded log until `REFRESH MATERIALIZED VIEW`.
        refresh_on_commit: bool,
        /// The defining query.
        query: SelectStmt,
    },
    /// `DROP MATERIALIZED VIEW name`.
    DropMaterializedView {
        /// View name.
        name: String,
    },
    /// `REFRESH MATERIALIZED VIEW name [FULL]`: drains the pending delta
    /// log of a deferred view (or, with `FULL`, recomputes the view from
    /// scratch regardless of the log).
    RefreshMaterializedView {
        /// View name.
        name: String,
        /// Force a from-scratch recompute instead of the delta drain.
        full: bool,
    },
}

impl Statement {
    /// The table an `INSERT`/`DELETE`/`UPDATE` writes (`None` for every
    /// other statement).
    pub fn dml_target(&self) -> Option<&str> {
        match self {
            Statement::Insert { table, .. }
            | Statement::Delete { table, .. }
            | Statement::Update { table, .. } => Some(table),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_aggregate_walks_subtrees() {
        let agg = Expr::Aggregate {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        };
        let nested = Expr::binary(BinOp::Add, Expr::lit(1i64), agg);
        assert!(nested.has_aggregate());
        let plain = Expr::binary(BinOp::Eq, Expr::col(None, "a"), Expr::lit("x"));
        assert!(!plain.has_aggregate());
        let in_list = Expr::InList {
            expr: Box::new(Expr::col(None, "a")),
            list: vec![Expr::Aggregate {
                func: AggFunc::Max,
                arg: None,
                distinct: false,
            }],
            negated: false,
        };
        assert!(in_list.has_aggregate());
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Ge.is_comparison());
        assert!(!BinOp::And.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}
