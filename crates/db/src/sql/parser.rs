//! Recursive-descent SQL parser.

use crate::index::IndexKind;
use crate::types::{DataType, Value};

use super::ast::{AggFunc, BinOp, Expr, Projection, SelectStmt, Stmt, TableRef};
use super::lexer::{lex, LexError, Token};

/// Parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    Lex(LexError),
    Unexpected {
        got: Option<Token>,
        expected: String,
    },
    Trailing(Token),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                got: Some(t),
                expected,
            } => {
                write!(f, "unexpected token {t}; expected {expected}")
            }
            ParseError::Unexpected {
                got: None,
                expected,
            } => {
                write!(f, "unexpected end of input; expected {expected}")
            }
            ParseError::Trailing(t) => write!(f, "trailing input starting at {t}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse one SQL statement.
pub fn parse(sql: &str) -> Result<Stmt, ParseError> {
    let tokens = lex(sql).map_err(ParseError::Lex)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_if(&Token::Semicolon);
    if let Some(t) = p.peek() {
        return Err(ParseError::Trailing(t.clone()));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
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

    fn err<T>(&self, expected: &str) -> Result<T, ParseError> {
        Err(ParseError::Unexpected {
            got: self.peek().cloned(),
            expected: expected.into(),
        })
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consume a keyword (case-insensitive identifier) if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(&format!("keyword {kw}"))
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), ParseError> {
        if self.eat_if(&t) {
            Ok(())
        } else {
            self.err(&t.to_string())
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s.to_lowercase()),
            got => Err(ParseError::Unexpected {
                got,
                expected: "identifier".into(),
            }),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            return Ok(Stmt::Explain {
                analyze,
                stmt: Box::new(self.statement()?),
            });
        }
        if self.eat_kw("create") {
            return self.create();
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("select") {
            return Ok(Stmt::Select(self.select()?));
        }
        if self.eat_kw("update") {
            return self.update();
        }
        if self.eat_kw("delete") {
            return self.delete();
        }
        if self.eat_kw("begin") || self.eat_kw("start") {
            self.eat_kw("transaction");
            return Ok(Stmt::Begin);
        }
        if self.eat_kw("commit") {
            return Ok(Stmt::Commit);
        }
        if self.eat_kw("rollback") || self.eat_kw("abort") {
            return Ok(Stmt::Rollback);
        }
        self.err("a statement keyword")
    }

    fn data_type(&mut self) -> Result<DataType, ParseError> {
        let name = self.ident()?;
        // Swallow optional length args, e.g. VARCHAR(16).
        if self.eat_if(&Token::LParen) {
            while !self.eat_if(&Token::RParen) {
                if self.next().is_none() {
                    return self.err(")");
                }
            }
        }
        match name.as_str() {
            "int" | "integer" | "bigint" | "smallint" => Ok(DataType::Int),
            "float" | "double" | "real" | "decimal" | "numeric" => Ok(DataType::Float),
            "text" | "varchar" | "char" | "string" => Ok(DataType::Text),
            "bool" | "boolean" => Ok(DataType::Bool),
            other => self.err(&format!("a data type (got {other})")),
        }
    }

    fn create(&mut self) -> Result<Stmt, ParseError> {
        let unique = self.eat_kw("unique");
        if self.eat_kw("table") {
            let name = self.ident()?;
            self.expect(Token::LParen)?;
            let mut columns = Vec::new();
            let mut primary_key = Vec::new();
            loop {
                if self.eat_kw("primary") {
                    self.expect_kw("key")?;
                    self.expect(Token::LParen)?;
                    loop {
                        primary_key.push(self.ident()?);
                        if !self.eat_if(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(Token::RParen)?;
                } else {
                    let col = self.ident()?;
                    let dtype = self.data_type()?;
                    if self.eat_kw("primary") {
                        self.expect_kw("key")?;
                        primary_key.push(col.clone());
                    }
                    self.eat_kw("not").then(|| self.eat_kw("null"));
                    columns.push((col, dtype));
                }
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            return Ok(Stmt::CreateTable {
                name,
                columns,
                primary_key,
            });
        }
        if self.eat_kw("index") {
            let name = self.ident()?;
            self.expect_kw("on")?;
            let table = self.ident()?;
            self.expect(Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            let kind = if self.eat_kw("using") {
                let k = self.ident()?;
                match k.as_str() {
                    "hash" => IndexKind::Hash,
                    "btree" => IndexKind::BTree,
                    other => return self.err(&format!("index kind (got {other})")),
                }
            } else {
                IndexKind::BTree
            };
            return Ok(Stmt::CreateIndex {
                name,
                table,
                columns,
                kind,
                unique,
            });
        }
        self.err("TABLE or INDEX after CREATE")
    }

    fn insert(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        // Optional column list is accepted but must match schema order.
        if self.eat_if(&Token::LParen) {
            while !self.eat_if(&Token::RParen) {
                if self.next().is_none() {
                    return self.err(")");
                }
            }
        }
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            rows.push(row);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(Stmt::Insert { table, rows })
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.ident()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            // Bare alias, unless it's a clause keyword.
            const CLAUSES: [&str; 9] = [
                "where", "join", "inner", "group", "order", "limit", "on", "for", "set",
            ];
            if CLAUSES.iter().any(|c| s.eq_ignore_ascii_case(c)) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    fn select(&mut self) -> Result<SelectStmt, ParseError> {
        let mut projections = Vec::new();
        loop {
            if self.eat_if(&Token::Star) {
                projections.push(Projection::Star);
            } else {
                projections.push(Projection::Expr(self.expr()?));
            }
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("from")?;
        let from = self.table_ref()?;
        let mut join = None;
        if self.eat_kw("inner") || self.peek_kw("join") {
            self.expect_kw("join")?;
            let right = self.table_ref()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            join = Some((right, on));
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.qualified_column_name()?);
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let col = self.qualified_column_name()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push((col, desc));
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                got => {
                    return Err(ParseError::Unexpected {
                        got,
                        expected: "LIMIT count".into(),
                    })
                }
            }
        } else {
            None
        };
        let for_update = if self.eat_kw("for") {
            self.expect_kw("update")?;
            true
        } else {
            false
        };
        Ok(SelectStmt {
            projections,
            from,
            join,
            where_clause,
            group_by,
            order_by,
            limit,
            for_update,
        })
    }

    /// `col` or `tbl.col` — returns the bare column name (qualifier is
    /// redundant in GROUP/ORDER for our two-table scope).
    fn qualified_column_name(&mut self) -> Result<String, ParseError> {
        let first = self.ident()?;
        if self.eat_if(&Token::Dot) {
            self.ident()
        } else {
            Ok(first)
        }
    }

    fn update(&mut self) -> Result<Stmt, ParseError> {
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(Token::Eq)?;
            sets.push((col, self.expr()?));
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("from")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete {
            table,
            where_clause,
        })
    }

    // -- expressions, loosest to tightest ---------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::bin(lhs, BinOp::Or, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_kw("and") {
            let rhs = self.cmp_expr()?;
            lhs = Expr::bin(lhs, BinOp::And, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            return Ok(Expr::bin(lhs, op, rhs));
        }
        // BETWEEN a AND b desugars to two comparisons.
        if self.eat_kw("between") {
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            return Ok(Expr::bin(
                Expr::bin(lhs.clone(), BinOp::Ge, lo),
                BinOp::And,
                Expr::bin(lhs, BinOp::Le, hi),
            ));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            if self.eat_if(&Token::Plus) {
                lhs = Expr::bin(lhs, BinOp::Add, self.mul_expr()?);
            } else if self.eat_if(&Token::Minus) {
                lhs = Expr::bin(lhs, BinOp::Sub, self.mul_expr()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.primary()?;
        while self.eat_if(&Token::Star) {
            lhs = Expr::bin(lhs, BinOp::Mul, self.primary()?);
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::Float(x)) => Ok(Expr::Literal(Value::Float(x))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Text(s.into()))),
            Some(Token::Param(p)) => Ok(Expr::Param(p)),
            Some(Token::Minus) => match self.next() {
                Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(-i))),
                Some(Token::Float(x)) => Ok(Expr::Literal(Value::Float(-x))),
                got => Err(ParseError::Unexpected {
                    got,
                    expected: "numeric literal".into(),
                }),
            },
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                let lower = name.to_lowercase();
                // Aggregate?
                let agg = match lower.as_str() {
                    "count" => Some(AggFunc::Count),
                    "sum" => Some(AggFunc::Sum),
                    "avg" => Some(AggFunc::Avg),
                    "min" => Some(AggFunc::Min),
                    "max" => Some(AggFunc::Max),
                    "true" => return Ok(Expr::Literal(Value::Bool(true))),
                    "false" => return Ok(Expr::Literal(Value::Bool(false))),
                    "null" => return Ok(Expr::Literal(Value::Null)),
                    _ => None,
                };
                if let Some(agg) = agg {
                    if self.peek() == Some(&Token::LParen) {
                        self.pos += 1;
                        let arg = if self.eat_if(&Token::Star) {
                            None
                        } else {
                            Some(self.qualified_column_name()?)
                        };
                        self.expect(Token::RParen)?;
                        return Ok(Expr::Agg(agg, arg));
                    }
                }
                if self.eat_if(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column(Some(lower), col));
                }
                Ok(Expr::Column(None, lower))
            }
            got => Err(ParseError::Unexpected {
                got,
                expected: "an expression".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table_inline_and_table_level_pk() {
        let s = parse("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(16), w FLOAT)").unwrap();
        match s {
            Stmt::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[1], ("name".into(), DataType::Text));
                assert_eq!(primary_key, vec!["id"]);
            }
            other => panic!("{other:?}"),
        }
        let s = parse("CREATE TABLE t2 (a INT, b INT, PRIMARY KEY (a, b))").unwrap();
        match s {
            Stmt::CreateTable { primary_key, .. } => assert_eq!(primary_key, vec!["a", "b"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_create_index() {
        let s = parse("CREATE UNIQUE INDEX ix ON t (a, b) USING HASH").unwrap();
        match s {
            Stmt::CreateIndex {
                name,
                table,
                columns,
                kind,
                unique,
            } => {
                assert_eq!((name.as_str(), table.as_str()), ("ix", "t"));
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(kind, IndexKind::Hash);
                assert!(unique);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert_multi_row_with_params() {
        let s = parse("INSERT INTO t VALUES ($1, 'x', 1.5), ($2, NULL, -2)").unwrap();
        match s {
            Stmt::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], Expr::Param(0));
                assert_eq!(rows[1][2], Expr::Literal(Value::Int(-2)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_select_with_everything() {
        let s = parse(
            "SELECT o.id, count(*) FROM orders o JOIN lines l ON o.id = l.oid \
             WHERE o.ts BETWEEN $1 AND $2 AND l.qty > 3 \
             GROUP BY o.id ORDER BY o.id DESC LIMIT 10",
        )
        .unwrap();
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.projections.len(), 2);
        assert_eq!(sel.from.binding(), "o");
        assert!(sel.join.is_some());
        assert_eq!(sel.group_by, vec!["id"]);
        assert_eq!(sel.order_by, vec![("id".into(), true)]);
        assert_eq!(sel.limit, Some(10));
        // BETWEEN desugared into a conjunction.
        assert!(sel.where_clause.unwrap().conjuncts().len() >= 3);
    }

    #[test]
    fn parses_select_for_update() {
        let Stmt::Select(sel) = parse("SELECT * FROM t WHERE id = $1 FOR UPDATE").unwrap() else {
            panic!()
        };
        assert!(sel.for_update);
    }

    #[test]
    fn parses_update_and_delete() {
        let s = parse("UPDATE acct SET bal = bal + $1, touched = true WHERE id = $2").unwrap();
        match s {
            Stmt::Update {
                table,
                sets,
                where_clause,
            } => {
                assert_eq!(table, "acct");
                assert_eq!(sets.len(), 2);
                assert!(where_clause.is_some());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse("DELETE FROM t").unwrap(),
            Stmt::Delete {
                where_clause: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_txn_control() {
        assert_eq!(parse("BEGIN").unwrap(), Stmt::Begin);
        assert_eq!(parse("START TRANSACTION").unwrap(), Stmt::Begin);
        assert_eq!(parse("COMMIT;").unwrap(), Stmt::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Stmt::Rollback);
        assert_eq!(parse("ABORT").unwrap(), Stmt::Rollback);
    }

    #[test]
    fn parses_explain_and_explain_analyze() {
        let s = parse("EXPLAIN SELECT * FROM t").unwrap();
        match s {
            Stmt::Explain { analyze, stmt } => {
                assert!(!analyze);
                assert!(matches!(*stmt, Stmt::Select(_)));
            }
            other => panic!("{other:?}"),
        }
        let s = parse("EXPLAIN ANALYZE UPDATE t SET a = 1").unwrap();
        match s {
            Stmt::Explain { analyze, stmt } => {
                assert!(analyze);
                assert!(matches!(*stmt, Stmt::Update { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let Stmt::Select(sel) = parse("SELECT a + b * 2 FROM t").unwrap() else {
            panic!()
        };
        let Projection::Expr(Expr::Binary(_, BinOp::Add, rhs)) = &sel.projections[0] else {
            panic!("add should be outermost")
        };
        assert!(matches!(**rhs, Expr::Binary(_, BinOp::Mul, _)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT 1 FROM t garbage garbage").is_err());
        assert!(matches!(
            parse("COMMIT extra"),
            Err(ParseError::Trailing(_))
        ));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let e = parse("SELECT FROM").unwrap_err();
        assert!(e.to_string().contains("expected"));
        assert!(parse("CREATE VIEW v").is_err());
        assert!(parse("UPDATE t SET").is_err());
    }
}
