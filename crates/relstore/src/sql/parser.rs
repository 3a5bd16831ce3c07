//! Recursive-descent SQL parser.

use crate::error::{RelError, RelResult};
use crate::sql::ast::{
    AggFunc, BinOp, Expr, JoinClause, OrderKey, SelectItem, SelectStmt, Statement, TableRef,
};
use crate::sql::lexer::{tokenize_sql, Token};
use crate::value::{DataType, Value};

/// Parses one SQL statement (an optional trailing `;` is accepted).
pub fn parse_statement(sql: &str) -> RelResult<Statement> {
    parse_statement_with_params(sql).map(|(stmt, _)| stmt)
}

/// Parses one SQL statement, also returning the number of `?` placeholders
/// it contains (numbered left to right). Used by [`crate::Database::prepare`].
pub fn parse_statement_with_params(sql: &str) -> RelResult<(Statement, usize)> {
    parse_tokens(tokenize_sql(sql.trim().trim_end_matches(';'))?)
}

/// Parses a statement's *shape*: every string literal becomes a `?`
/// placeholder, numbered left to right together with the statement's own
/// `?`s — the slots the plan cache binds its lifted values into.
pub(crate) fn parse_shape(sql: &str) -> RelResult<(Statement, usize)> {
    let mut tokens = tokenize_sql(sql.trim().trim_end_matches(';'))?;
    for token in &mut tokens {
        if let Token::Str(_) = token {
            *token = Token::Sym("?");
        }
    }
    parse_tokens(tokens)
}

fn parse_tokens(tokens: Vec<Token>) -> RelResult<(Statement, usize)> {
    let mut p = SqlParser {
        tokens,
        pos: 0,
        params: 0,
    };
    let stmt = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(RelError::Parse(format!(
            "unexpected trailing input near {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok((stmt, p.params))
}

struct SqlParser {
    tokens: Vec<Token>,
    pos: usize,
    /// Count of `?` placeholders seen so far.
    params: usize,
}

impl SqlParser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> RelResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(RelError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek().cloned()
            )))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Token::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> RelResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(RelError::Parse(format!(
                "expected {sym:?}, found {:?}",
                self.peek().cloned()
            )))
        }
    }

    fn ident(&mut self) -> RelResult<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(RelError::Parse(format!(
                "expected an identifier, found {other:?}"
            ))),
        }
    }

    // ---- statements -------------------------------------------------------

    fn statement(&mut self) -> RelResult<Statement> {
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            if !self.peek().is_some_and(|t| t.is_kw("SELECT")) {
                return Err(RelError::Parse(
                    "EXPLAIN [ANALYZE] supports only SELECT statements".into(),
                ));
            }
            let inner = Box::new(Statement::Select(self.select()?));
            return Ok(Statement::Explain { analyze, inner });
        }
        if self.peek().is_some_and(|t| t.is_kw("SELECT")) {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("ANALYZE") {
            let table = if self.eat_kw("TABLE") {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Statement::Analyze { table });
        }
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            if self.eat_kw("MATERIALIZED") {
                self.expect_kw("VIEW")?;
                return self.create_materialized_view();
            }
            let keyword = self.eat_kw("KEYWORD");
            if self.eat_kw("INDEX") {
                return self.create_index(keyword);
            }
            return Err(RelError::Parse(
                "expected TABLE, MATERIALIZED VIEW or [KEYWORD] INDEX after CREATE".into(),
            ));
        }
        if self.eat_kw("DROP") {
            if self.eat_kw("TABLE") {
                return Ok(Statement::DropTable {
                    name: self.ident()?,
                });
            }
            if self.eat_kw("MATERIALIZED") {
                self.expect_kw("VIEW")?;
                return Ok(Statement::DropMaterializedView {
                    name: self.ident()?,
                });
            }
            if self.eat_kw("INDEX") {
                return Ok(Statement::DropIndex {
                    name: self.ident()?,
                });
            }
            return Err(RelError::Parse(
                "expected TABLE, MATERIALIZED VIEW or INDEX after DROP".into(),
            ));
        }
        if self.eat_kw("REFRESH") {
            self.expect_kw("MATERIALIZED")?;
            self.expect_kw("VIEW")?;
            let name = self.ident()?;
            let full = self.eat_kw("FULL");
            return Ok(Statement::RefreshMaterializedView { name, full });
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, filter });
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        Err(RelError::Parse(format!(
            "unrecognized statement start: {:?}",
            self.peek().cloned()
        )))
    }

    fn create_table(&mut self) -> RelResult<Statement> {
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty_name = self.ident()?;
            let ty = match ty_name.to_ascii_uppercase().as_str() {
                "INT" | "INTEGER" | "BIGINT" => DataType::Int,
                "FLOAT" | "REAL" | "DOUBLE" => DataType::Float,
                "TEXT" | "VARCHAR" | "STRING" | "CLOB" => DataType::Text,
                other => {
                    return Err(RelError::Parse(format!("unknown column type {other}")));
                }
            };
            columns.push((col, ty));
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_materialized_view(&mut self) -> RelResult<Statement> {
        let name = self.ident()?;
        let refresh_on_commit = if self.eat_kw("REFRESH") {
            self.expect_kw("ON")?;
            self.expect_kw("COMMIT")?;
            true
        } else {
            false
        };
        self.expect_kw("AS")?;
        if !self.peek().is_some_and(|t| t.is_kw("SELECT")) {
            return Err(RelError::Parse(
                "expected SELECT after CREATE MATERIALIZED VIEW ... AS".into(),
            ));
        }
        let query = self.select()?;
        Ok(Statement::CreateMaterializedView {
            name,
            refresh_on_commit,
            query,
        })
    }

    fn create_index(&mut self, keyword: bool) -> RelResult<Statement> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect_sym("(")?;
        let mut columns = vec![self.ident()?];
        while self.eat_sym(",") {
            columns.push(self.ident()?);
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
            keyword,
        })
    }

    fn insert(&mut self) -> RelResult<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = vec![self.expr()?];
            while self.eat_sym(",") {
                row.push(self.expr()?);
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn update(&mut self) -> RelResult<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym("=")?;
            assignments.push((col, self.expr()?));
            if !self.eat_sym(",") {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn select(&mut self) -> RelResult<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = vec![self.select_item()?];
        while self.eat_sym(",") {
            items.push(self.select_item()?);
        }
        self.expect_kw("FROM")?;
        let mut from = vec![self.table_ref()?];
        let mut joins = Vec::new();
        loop {
            if self.eat_sym(",") {
                from.push(self.table_ref()?);
            } else if self
                .peek()
                .is_some_and(|t| t.is_kw("JOIN") || t.is_kw("INNER"))
            {
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                joins.push(JoinClause { table, on });
            } else {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expr()?);
            while self.eat_sym(",") {
                group_by.push(self.expr()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { expr, descending });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            Some(self.unsigned()?)
        } else {
            None
        };
        let offset = if self.eat_kw("OFFSET") {
            Some(self.unsigned()?)
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            filter,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    fn unsigned(&mut self) -> RelResult<u64> {
        match self.next() {
            Some(Token::Int(n)) if n >= 0 => Ok(n as u64),
            other => Err(RelError::Parse(format!(
                "expected a non-negative integer, found {other:?}"
            ))),
        }
    }

    fn select_item(&mut self) -> RelResult<SelectItem> {
        if self.eat_sym("*") {
            return Ok(SelectItem::Wildcard);
        }
        // `alias.*`
        if let (Some(Token::Ident(name)), Some(Token::Sym(".")), Some(Token::Sym("*"))) = (
            self.tokens.get(self.pos),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            let name = name.clone();
            self.pos += 3;
            return Ok(SelectItem::TableWildcard(name));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> RelResult<TableRef> {
        let table = self.ident()?;
        // An optional alias: an identifier that is not a clause keyword.
        const CLAUSE_KWS: &[&str] = &[
            "WHERE", "GROUP", "ORDER", "LIMIT", "OFFSET", "JOIN", "INNER", "ON", "SET",
        ];
        let alias = match self.peek() {
            Some(Token::Ident(s)) if !CLAUSE_KWS.iter().any(|k| s.eq_ignore_ascii_case(k)) => {
                let a = s.clone();
                self.pos += 1;
                a
            }
            _ => table.clone(),
        };
        Ok(TableRef { table, alias })
    }

    // ---- expressions (precedence climbing) --------------------------------

    fn expr(&mut self) -> RelResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> RelResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> RelResult<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> RelResult<Expr> {
        if self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> RelResult<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] LIKE / IN / BETWEEN
        let negated = if self.peek().is_some_and(|t| t.is_kw("NOT")) {
            let next_is_postfix = self
                .tokens
                .get(self.pos + 1)
                .is_some_and(|t| t.is_kw("LIKE") || t.is_kw("IN") || t.is_kw("BETWEEN"));
            if next_is_postfix {
                self.pos += 1;
                true
            } else {
                false
            }
        } else {
            false
        };
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut list = vec![self.expr()?];
            while self.eat_sym(",") {
                list.push(self.expr()?);
            }
            self.expect_sym(")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(RelError::Parse("dangling NOT".into()));
        }
        let op = match self.peek() {
            Some(Token::Sym("=")) => Some(BinOp::Eq),
            Some(Token::Sym("<>")) => Some(BinOp::Ne),
            Some(Token::Sym("<")) => Some(BinOp::Lt),
            Some(Token::Sym("<=")) => Some(BinOp::Le),
            Some(Token::Sym(">")) => Some(BinOp::Gt),
            Some(Token::Sym(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::binary(op, left, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> RelResult<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            if self.eat_sym("+") {
                left = Expr::binary(BinOp::Add, left, self.multiplicative()?);
            } else if self.eat_sym("-") {
                left = Expr::binary(BinOp::Sub, left, self.multiplicative()?);
            } else {
                return Ok(left);
            }
        }
    }

    fn multiplicative(&mut self) -> RelResult<Expr> {
        let mut left = self.unary()?;
        loop {
            if self.eat_sym("*") {
                left = Expr::binary(BinOp::Mul, left, self.unary()?);
            } else if self.eat_sym("/") {
                left = Expr::binary(BinOp::Div, left, self.unary()?);
            } else {
                return Ok(left);
            }
        }
    }

    fn unary(&mut self) -> RelResult<Expr> {
        if self.eat_sym("-") {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> RelResult<Expr> {
        match self.next() {
            Some(Token::Int(n)) => Ok(Expr::Literal(Value::Int(n))),
            Some(Token::Float(f)) => Ok(Expr::Literal(Value::Float(f))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Token::Sym("?")) => {
                let i = self.params;
                self.params += 1;
                Ok(Expr::Param(i))
            }
            Some(Token::Sym("(")) => {
                let inner = self.expr()?;
                self.expect_sym(")")?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if name.eq_ignore_ascii_case("CONTAINS") && self.eat_sym("(") {
                    let column = self.expr()?;
                    self.expect_sym(",")?;
                    let keyword = self.expr()?;
                    self.expect_sym(")")?;
                    return Ok(Expr::Contains {
                        column: Box::new(column),
                        keyword: Box::new(keyword),
                    });
                }
                if name.eq_ignore_ascii_case("MATCHES") && self.eat_sym("(") {
                    let column = self.expr()?;
                    self.expect_sym(",")?;
                    let pattern = self.expr()?;
                    self.expect_sym(")")?;
                    return Ok(Expr::Matches {
                        column: Box::new(column),
                        pattern: Box::new(pattern),
                    });
                }
                let agg = match name.to_ascii_uppercase().as_str() {
                    "COUNT" => Some(AggFunc::Count),
                    "SUM" => Some(AggFunc::Sum),
                    "MIN" => Some(AggFunc::Min),
                    "MAX" => Some(AggFunc::Max),
                    "AVG" => Some(AggFunc::Avg),
                    _ => None,
                };
                if let Some(func) = agg {
                    if self.eat_sym("(") {
                        let distinct = self.eat_kw("DISTINCT");
                        if self.eat_sym("*") {
                            self.expect_sym(")")?;
                            if func != AggFunc::Count {
                                return Err(RelError::Parse("only COUNT accepts '*'".into()));
                            }
                            return Ok(Expr::Aggregate {
                                func,
                                arg: None,
                                distinct,
                            });
                        }
                        let arg = self.expr()?;
                        self.expect_sym(")")?;
                        return Ok(Expr::Aggregate {
                            func,
                            arg: Some(Box::new(arg)),
                            distinct,
                        });
                    }
                }
                // Qualified column: `alias.column`.
                if self.eat_sym(".") {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                        ordinal: None,
                    });
                }
                Ok(Expr::Column {
                    table: None,
                    name,
                    ordinal: None,
                })
            }
            other => Err(RelError::Parse(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b FROM t");
        assert_eq!(s.items.len(), 2);
        assert_eq!(
            s.from,
            vec![TableRef {
                table: "t".into(),
                alias: "t".into()
            }]
        );
        assert!(s.filter.is_none());
        assert!(!s.distinct);
    }

    #[test]
    fn select_with_everything() {
        let s = sel(
            "SELECT DISTINCT e.val AS v, COUNT(*) FROM elements e, attrs a \
             WHERE e.doc_id = a.doc_id AND e.path = '/x' \
             GROUP BY e.val ORDER BY v DESC, e.val ASC LIMIT 10 OFFSET 5",
        );
        assert!(s.distinct);
        assert_eq!(s.items.len(), 2);
        assert!(matches!(&s.items[0], SelectItem::Expr { alias: Some(a), .. } if a == "v"));
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].descending);
        assert!(!s.order_by[1].descending);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(5));
    }

    #[test]
    fn explicit_join() {
        let s = sel("SELECT * FROM a JOIN b ON a.x = b.y JOIN c ON b.z = c.w");
        assert_eq!(s.from.len(), 1);
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].table.alias, "b");
    }

    #[test]
    fn aliases() {
        let s = sel("SELECT x.* FROM elements x WHERE x.path = '/a'");
        assert_eq!(s.from[0].alias, "x");
        assert!(matches!(&s.items[0], SelectItem::TableWildcard(t) if t == "x"));
    }

    #[test]
    fn operator_precedence() {
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        // Must parse as a = 1 OR (b = 2 AND c = 3).
        match s.filter.unwrap() {
            Expr::Binary {
                op: BinOp::Or,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("SELECT * FROM t WHERE a + 2 * 3 = 7");
        match s.filter.unwrap() {
            Expr::Binary {
                op: BinOp::Eq,
                left,
                ..
            } => match *left {
                Expr::Binary {
                    op: BinOp::Add,
                    right,
                    ..
                } => {
                    assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("expected Add, got {other:?}"),
            },
            other => panic!("expected Eq, got {other:?}"),
        }
    }

    #[test]
    fn postfix_predicates() {
        let s = sel(
            "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL AND c LIKE '%x%' \
             AND d NOT LIKE 'y' AND e IN (1, 2) AND f NOT IN ('a') AND g BETWEEN 1 AND 5 \
             AND h NOT BETWEEN 2 AND 3",
        );
        assert!(s.filter.is_some());
    }

    #[test]
    fn contains_extension() {
        let s = sel("SELECT * FROM elements WHERE CONTAINS(val, 'cdc6')");
        match s.filter.unwrap() {
            Expr::Contains { column, keyword } => {
                assert_eq!(*column, Expr::col(None, "val"));
                assert_eq!(*keyword, Expr::lit("cdc6"));
            }
            other => panic!("expected Contains, got {other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let s = sel("SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x), COUNT(DISTINCT y) FROM t");
        assert_eq!(s.items.len(), 6);
        assert!(matches!(
            &s.items[5],
            SelectItem::Expr {
                expr: Expr::Aggregate { distinct: true, .. },
                ..
            }
        ));
        assert!(parse_statement("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn ddl_statements() {
        let stmt = parse_statement("CREATE TABLE t (a INT, b TEXT, c FLOAT)").unwrap();
        assert_eq!(
            stmt,
            Statement::CreateTable {
                name: "t".into(),
                columns: vec![
                    ("a".into(), DataType::Int),
                    ("b".into(), DataType::Text),
                    ("c".into(), DataType::Float),
                ],
            }
        );
        assert_eq!(
            parse_statement("CREATE INDEX i ON t (a, b)").unwrap(),
            Statement::CreateIndex {
                name: "i".into(),
                table: "t".into(),
                columns: vec!["a".into(), "b".into()],
                keyword: false,
            }
        );
        assert_eq!(
            parse_statement("CREATE KEYWORD INDEX k ON t (b)").unwrap(),
            Statement::CreateIndex {
                name: "k".into(),
                table: "t".into(),
                columns: vec!["b".into()],
                keyword: true,
            }
        );
        assert_eq!(
            parse_statement("DROP TABLE t").unwrap(),
            Statement::DropTable { name: "t".into() }
        );
        assert_eq!(
            parse_statement("DROP INDEX i").unwrap(),
            Statement::DropIndex { name: "i".into() }
        );
    }

    #[test]
    fn materialized_view_statements() {
        match parse_statement("CREATE MATERIALIZED VIEW mv AS SELECT a FROM t WHERE a > 1").unwrap()
        {
            Statement::CreateMaterializedView {
                name,
                refresh_on_commit,
                query,
            } => {
                assert_eq!(name, "mv");
                assert!(!refresh_on_commit);
                assert_eq!(query.items.len(), 1);
                assert!(query.filter.is_some());
            }
            other => panic!("{other:?}"),
        }
        match parse_statement(
            "CREATE MATERIALIZED VIEW mv REFRESH ON COMMIT AS SELECT b, COUNT(*) FROM t GROUP BY b",
        )
        .unwrap()
        {
            Statement::CreateMaterializedView {
                refresh_on_commit, ..
            } => assert!(refresh_on_commit),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_statement("DROP MATERIALIZED VIEW mv").unwrap(),
            Statement::DropMaterializedView { name: "mv".into() }
        );
        assert_eq!(
            parse_statement("REFRESH MATERIALIZED VIEW mv").unwrap(),
            Statement::RefreshMaterializedView {
                name: "mv".into(),
                full: false,
            }
        );
        assert_eq!(
            parse_statement("REFRESH MATERIALIZED VIEW mv FULL").unwrap(),
            Statement::RefreshMaterializedView {
                name: "mv".into(),
                full: true,
            }
        );
        for bad in [
            "CREATE MATERIALIZED mv AS SELECT a FROM t",
            "CREATE MATERIALIZED VIEW mv AS INSERT INTO t VALUES (1)",
            "REFRESH MATERIALIZED mv",
            "DROP MATERIALIZED mv",
        ] {
            assert!(parse_statement(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn dml_statements() {
        let stmt = parse_statement("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Expr::lit("y"));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete {
                filter: Some(_),
                ..
            }
        ));
        match parse_statement("UPDATE t SET a = 2, b = 'z' WHERE a = 1").unwrap() {
            Statement::Update {
                assignments,
                filter,
                ..
            } => {
                assert_eq!(assignments.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_literals_and_null() {
        let s = sel("SELECT * FROM t WHERE a = -5 AND b = NULL");
        assert!(s.filter.is_some());
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t LIMIT 'x'",
            "CREATE TABLE t (a BLOB)",
            "INSERT INTO t (1)",
            "SELECT * FROM t extra garbage here =",
            "UPDATE t SET",
        ] {
            assert!(parse_statement(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn placeholders_numbered_left_to_right() {
        let (stmt, n) =
            parse_statement_with_params("SELECT * FROM t WHERE a = ? AND b BETWEEN ? AND ?")
                .unwrap();
        assert_eq!(n, 3);
        let Statement::Select(s) = stmt else {
            panic!("expected SELECT");
        };
        match s.filter.unwrap() {
            Expr::Binary { left, right, .. } => {
                assert!(matches!(
                    *left,
                    Expr::Binary { ref right, .. } if **right == Expr::Param(0)
                ));
                assert!(matches!(
                    *right,
                    Expr::Between { ref low, ref high, .. }
                        if **low == Expr::Param(1) && **high == Expr::Param(2)
                ));
            }
            other => panic!("expected AND, got {other:?}"),
        }
        let (_, n) = parse_statement_with_params("INSERT INTO t VALUES (?, ?)").unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT a FROM t )").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        let s = sel("select a from t where a like 'x%' order by a limit 1");
        assert_eq!(s.limit, Some(1));
    }
}
