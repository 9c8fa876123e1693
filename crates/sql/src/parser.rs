//! Recursive-descent parser for the SQL subset.
//!
//! It reads the lexer's tokens by reference and copies each name once,
//! into the AST.

use crate::ast::*;
use crate::lexer::{lex, Token};
use std::sync::Arc;
use wsq_common::{DataType, Result, WsqError};

/// Parse a string of one or more `;`-separated statements.
pub fn parse(input: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    while let Some(stmt) = p.next_statement()? {
        out.push(stmt);
    }
    Ok(out)
}

/// Parse exactly one statement.
pub fn parse_one(input: &str) -> Result<Statement> {
    let mut p = Parser::new(input)?;
    let first = p.next_statement()?;
    let mut n = usize::from(first.is_some());
    while p.next_statement()?.is_some() {
        n += 1;
    }
    match first {
        Some(stmt) if n == 1 => Ok(stmt),
        _ => Err(WsqError::Parse(format!("expected 1 statement, found {n}"))),
    }
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

/// The message for an integer literal beyond `i64`.
fn int_overflow(magnitude: impl std::fmt::Display) -> WsqError {
    WsqError::Parse(format!(
        "bad integer literal '{magnitude}': number too large to fit in target type"
    ))
}

/// A non-negative integer literal.
fn int_value(magnitude: u64) -> Result<i64> {
    i64::try_from(magnitude).map_err(|_| int_overflow(magnitude))
}

/// A negated integer literal: `-9223372036854775808` is `i64::MIN`.
fn negated_int_value(magnitude: u64) -> Result<i64> {
    0i64.checked_sub_unsigned(magnitude)
        .ok_or_else(|| int_overflow(format_args!("-{magnitude}")))
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Self> {
        Ok(Parser {
            tokens: lex(input)?,
            pos: 0,
        })
    }

    /// The next `;`-separated statement, or `None` at the end of input.
    fn next_statement(&mut self) -> Result<Option<Statement>> {
        while self.eat(&Token::Semi) {}
        if self.at_end() {
            return Ok(None);
        }
        self.statement().map(Some)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<&Token<'a>> {
        let t = self
            .tokens
            .get(self.pos)
            .ok_or_else(|| WsqError::Parse("unexpected end of input".to_string()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, t: &Token<'_>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token<'_>) -> Result<()> {
        let got = self.next()?;
        if got == t {
            Ok(())
        } else {
            Err(WsqError::Parse(format!("expected '{t}', found '{got}'")))
        }
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(WsqError::Parse(format!(
                "expected keyword '{kw}', found '{}'",
                self.peek().map(|t| t.to_string()).unwrap_or_default()
            )))
        }
    }

    /// The next token as an identifier, borrowed from the input.
    fn ident(&mut self) -> Result<&'a str> {
        match self.next()? {
            Token::Ident(s) => Ok(*s),
            other => Err(WsqError::Parse(format!(
                "expected identifier, found '{other}'"
            ))),
        }
    }

    /// [`Parser::ident`] as an AST name.
    fn name(&mut self) -> Result<Arc<str>> {
        self.ident().map(Arc::from)
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.at_keyword("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_keyword("CREATE") {
            if self.eat_keyword("TABLE") {
                return self.create_table();
            }
            if self.eat_keyword("VIEW") {
                let name = self.ident()?.to_string();
                self.expect_keyword("AS")?;
                let query = self.select()?;
                return Ok(Statement::CreateView { name, query });
            }
            self.expect_keyword("INDEX")?;
            let (table, column) = self.index_target()?;
            return Ok(Statement::CreateIndex { table, column });
        }
        if self.eat_keyword("DROP") {
            if self.eat_keyword("TABLE") {
                let name = self.ident()?.to_string();
                return Ok(Statement::DropTable { name });
            }
            if self.eat_keyword("VIEW") {
                let name = self.ident()?.to_string();
                return Ok(Statement::DropView { name });
            }
            self.expect_keyword("INDEX")?;
            let (table, column) = self.index_target()?;
            return Ok(Statement::DropIndex { table, column });
        }
        if self.eat_keyword("INSERT") {
            self.expect_keyword("INTO")?;
            return self.insert();
        }
        if self.eat_keyword("SHOW") {
            self.expect_keyword("TABLES")?;
            return Ok(Statement::ShowTables);
        }
        if self.eat_keyword("DESCRIBE") || self.eat_keyword("DESC") {
            let table = self.ident()?.to_string();
            return Ok(Statement::Describe { table });
        }
        if self.eat_keyword("DELETE") {
            self.expect_keyword("FROM")?;
            let table = self.ident()?.to_string();
            let predicate = if self.eat_keyword("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, predicate });
        }
        if self.eat_keyword("UPDATE") {
            let table = self.ident()?.to_string();
            self.expect_keyword("SET")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?.to_string();
                self.expect(&Token::Eq)?;
                let e = self.expr()?;
                sets.push((col, e));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            let predicate = if self.eat_keyword("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Update {
                table,
                sets,
                predicate,
            });
        }
        Err(WsqError::Parse(format!(
            "expected a statement, found '{}'",
            self.peek().map(|t| t.to_string()).unwrap_or_default()
        )))
    }

    /// `ON table (column)` — the target clause of CREATE/DROP INDEX.
    fn index_target(&mut self) -> Result<(String, String)> {
        self.expect_keyword("ON")?;
        let table = self.ident()?.to_string();
        self.expect(&Token::LParen)?;
        let column = self.ident()?.to_string();
        self.expect(&Token::RParen)?;
        Ok((table, column))
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?.to_string();
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?.to_string();
            let ty = self.ident()?;
            let is = |names: &[&str]| names.iter().any(|n| ty.eq_ignore_ascii_case(n));
            let dtype = if is(&["INT", "INTEGER"]) {
                DataType::Int
            } else if is(&["FLOAT", "REAL", "DOUBLE"]) {
                DataType::Float
            } else if is(&["VARCHAR", "CHAR", "TEXT", "STRING"]) {
                // Optional advisory length: VARCHAR(32).
                if self.eat(&Token::LParen) {
                    match self.next()? {
                        Token::Int(_) => {}
                        other => {
                            return Err(WsqError::Parse(format!(
                                "expected length, found '{other}'"
                            )))
                        }
                    }
                    self.expect(&Token::RParen)?;
                }
                DataType::Varchar
            } else {
                return Err(WsqError::Parse(format!(
                    "unknown type '{}'",
                    ty.to_ascii_uppercase()
                )));
            };
            columns.push(ColumnDef { name: col, dtype });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        let table = self.ident()?.to_string();
        if self.at_keyword("SELECT") {
            let query = self.select()?;
            return Ok(Statement::InsertSelect { table, query });
        }
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn literal(&mut self) -> Result<Literal> {
        match self.next()? {
            Token::Int(i) => Ok(Literal::Int(int_value(*i)?)),
            Token::Float(f) => Ok(Literal::Float(*f)),
            Token::Str(s) => Ok(Literal::Str(Arc::from(&**s))),
            Token::Minus => match self.next()? {
                Token::Int(i) => Ok(Literal::Int(negated_int_value(*i)?)),
                Token::Float(f) => Ok(Literal::Float(-f)),
                other => Err(WsqError::Parse(format!(
                    "expected number after '-', found '{other}'"
                ))),
            },
            Token::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(Literal::Null),
            other => Err(WsqError::Parse(format!(
                "expected literal, found '{other}'"
            ))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");

        let mut items = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                items.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.name()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }

        self.expect_keyword("FROM")?;
        let mut from = Vec::new();
        loop {
            let table = self.name()?;
            // Optional alias: a bare identifier that is not a clause keyword.
            let alias = match self.peek() {
                Some(Token::Ident(s)) if !is_clause_keyword(s) => Some(self.name()?),
                _ => None,
            };
            from.push(TableRef { table, alias });
            if !self.eat(&Token::Comma) {
                break;
            }
        }

        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };

        let rerank = if self.eat_keyword("RERANK") {
            self.expect_keyword("BY")?;
            Some(self.ident()?.to_string())
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            match self.next()? {
                Token::Int(n) => Some(int_value(*n)? as u64),
                other => {
                    return Err(WsqError::Parse(format!(
                        "expected row count after LIMIT, found '{other}'"
                    )))
                }
            }
        } else {
            None
        };

        Ok(SelectStmt {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            rerank,
            order_by,
            limit,
        })
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.name()?;
        if self.eat(&Token::Dot) {
            let name = self.name()?;
            Ok(ColumnRef {
                qualifier: Some(first),
                name,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                name: first,
            })
        }
    }

    // Expression grammar, lowest to highest precedence:
    //   or_expr    := and_expr (OR and_expr)*
    //   and_expr   := not_expr (AND not_expr)*
    //   not_expr   := NOT not_expr | cmp_expr
    //   cmp_expr   := add_expr ((=|<>|<|<=|>|>=) add_expr)?
    //   add_expr   := mul_expr ((+|-) mul_expr)*
    //   mul_expr   := unary ((*|/) unary)*
    //   unary      := - unary | primary
    //   primary    := literal | agg | column | ( or_expr )
    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        // Postfix predicates: [NOT] LIKE / IN / BETWEEN.
        let negated = matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case("NOT"))
            && matches!(
                self.tokens.get(self.pos + 1),
                Some(Token::Ident(s)) if ["LIKE", "IN", "BETWEEN"]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k))
            );
        if negated {
            self.pos += 1; // consume NOT
        }
        if self.eat_keyword("LIKE") {
            let pattern = self.add_expr()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_keyword("IN") {
            self.expect(&Token::LParen)?;
            if self.at_keyword("SELECT") {
                let query = self.select()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(lhs),
                    query: Box::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.add_expr()?;
            self.expect_keyword("AND")?;
            let high = self.add_expr()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(WsqError::Parse(
                "expected LIKE, IN or BETWEEN after NOT".to_string(),
            ));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::LtEq) => Some(BinOp::LtEq),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            return Ok(Expr::binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            // The one integer whose magnitude is no `i64` is `i64::MIN`:
            // read it as the literal it is.
            if self.peek() == Some(&Token::Int(1 << 63)) {
                self.pos += 1;
                return Ok(Expr::Literal(Literal::Int(i64::MIN)));
            }
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        let tok = self
            .next()
            .map_err(|_| WsqError::Parse("expected expression, found ''".to_string()))?;
        match tok {
            Token::Int(i) => Ok(Expr::Literal(Literal::Int(int_value(*i)?))),
            Token::Float(f) => Ok(Expr::Literal(Literal::Float(*f))),
            Token::Str(s) => Ok(Expr::Literal(Literal::Str(Arc::from(&**s)))),
            Token::LParen => {
                if self.at_keyword("SELECT") {
                    let q = self.select()?;
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let e = self.or_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            &Token::Ident(name) => {
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Literal::Null));
                }
                // Aggregate call?
                if let Some(func) = agg_func(name) {
                    if self.eat(&Token::LParen) {
                        if self.eat(&Token::Star) {
                            self.expect(&Token::RParen)?;
                            if func != AggFunc::Count {
                                return Err(WsqError::Parse(format!(
                                    "{func}(*) is not valid; only COUNT(*)"
                                )));
                            }
                            return Ok(Expr::Agg { func, arg: None });
                        }
                        let arg = self.expr()?;
                        self.expect(&Token::RParen)?;
                        return Ok(Expr::Agg {
                            func,
                            arg: Some(Box::new(arg)),
                        });
                    }
                    // Not a call: fall through to a column named e.g. `Count`
                    // (the WebCount virtual table has one!).
                }
                if self.eat(&Token::Dot) {
                    Ok(Expr::Column(ColumnRef {
                        qualifier: Some(name.into()),
                        name: self.name()?,
                    }))
                } else {
                    Ok(Expr::Column(ColumnRef {
                        qualifier: None,
                        name: name.into(),
                    }))
                }
            }
            other => Err(WsqError::Parse(format!(
                "expected expression, found '{other}'"
            ))),
        }
    }
}

fn agg_func(name: &str) -> Option<AggFunc> {
    [
        ("COUNT", AggFunc::Count),
        ("SUM", AggFunc::Sum),
        ("MIN", AggFunc::Min),
        ("MAX", AggFunc::Max),
        ("AVG", AggFunc::Avg),
    ]
    .into_iter()
    .find_map(|(n, f)| name.eq_ignore_ascii_case(n).then_some(f))
}

fn is_clause_keyword(s: &str) -> bool {
    [
        "WHERE", "GROUP", "ORDER", "LIMIT", "ON", "AND", "OR", "AS", "FROM", "SELECT", "HAVING",
        "UNION", "RERANK",
    ]
    .iter()
    .any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_one(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn paper_query_1() {
        let s = sel("Select Name, Count From States, WebCount \
             Where Name = T1 Order By Count Desc");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.len(), 2);
        assert_eq!(&*s.from[1].table, "WebCount");
        assert!(s.where_clause.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].desc);
        assert!(!s.distinct);
    }

    #[test]
    fn paper_query_2_arithmetic_alias() {
        let s = sel("Select Name, Count/Population As C From States, WebCount \
             Where Name = T1 Order By C Desc");
        match &s.items[1] {
            SelectItem::Expr { expr, alias } => {
                assert_eq!(alias.as_deref(), Some("C"));
                assert_eq!(expr.to_string(), "(Count / Population)");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn paper_query_4_aliases_and_qualified_refs() {
        let s = sel("Select Capital, C.Count, Name, S.Count \
             From States, WebCount C, WebCount S \
             Where Capital = C.T1 and Name = S.T1 and C.Count > S.Count");
        assert_eq!(&**s.from[1].binding_name(), "C");
        assert_eq!(&**s.from[2].binding_name(), "S");
        let conjuncts = s.where_clause.unwrap().split_conjuncts();
        assert_eq!(conjuncts.len(), 3);
        assert_eq!(conjuncts[2].to_string(), "(C.Count > S.Count)");
    }

    #[test]
    fn paper_query_6_two_engines() {
        let s = sel(
            "Select Name, AV.URL From States, WebPages_AV AV, WebPages_Google G \
             Where Name = AV.T1 and Name = G.T1 and AV.Rank <= 5 and \
             G.Rank <= 5 and AV.URL = G.URL",
        );
        assert_eq!(s.from.len(), 3);
        assert_eq!(&*s.from[1].table, "WebPages_AV");
        assert_eq!(s.from[1].alias.as_deref(), Some("AV"));
        assert_eq!(s.where_clause.unwrap().split_conjuncts().len(), 5);
    }

    #[test]
    fn string_literals_and_constants() {
        let s = sel("Select Name, Count From States, WebCount \
             Where Name = T1 and T2 = 'four corners' Order By Count Desc");
        let cs = s.where_clause.unwrap().split_conjuncts();
        assert_eq!(cs[1].to_string(), "(T2 = 'four corners')");
    }

    #[test]
    fn select_star_and_distinct_and_limit() {
        let s = sel("Select Distinct * From Sigs Limit 10");
        assert!(s.distinct);
        assert_eq!(s.items, vec![SelectItem::Star]);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn group_by_and_aggregates() {
        let s = sel("Select Capital, COUNT(*), SUM(Population) From States \
             Group By Capital Order By 1");
        assert_eq!(s.group_by.len(), 1);
        match &s.items[1] {
            SelectItem::Expr { expr, .. } => assert_eq!(expr.to_string(), "COUNT(*)"),
            _ => panic!(),
        }
        match &s.items[2] {
            SelectItem::Expr { expr, .. } => assert_eq!(expr.to_string(), "SUM(Population)"),
            _ => panic!(),
        }
    }

    #[test]
    fn count_is_a_column_when_not_called() {
        // `Count` is both an aggregate keyword and the WebCount column name;
        // without parentheses it must parse as a column.
        let s = sel("Select Count From WebCount Where Count > 5");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr, &Expr::column("Count"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn operator_precedence() {
        let s = sel("Select a + b * c - d / e From T");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.to_string(), "((a + (b * c)) - (d / e))");
            }
            _ => panic!(),
        }
        let s = sel("Select * From T Where a = 1 or b = 2 and c = 3");
        assert_eq!(
            s.where_clause.unwrap().to_string(),
            "((a = 1) OR ((b = 2) AND (c = 3)))"
        );
    }

    #[test]
    fn parens_and_unary() {
        let s = sel("Select -(a + 2) From T Where not a > 1");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => assert_eq!(expr.to_string(), "(-(a + 2))"),
            _ => panic!(),
        }
        assert_eq!(s.where_clause.unwrap().to_string(), "(NOT (a > 1))");
    }

    #[test]
    fn create_insert_drop() {
        let stmts = parse(
            "CREATE TABLE States (Name VARCHAR(32), Population INT, Capital VARCHAR(32));\
             INSERT INTO States VALUES ('Colorado', 3971000, 'Denver'), ('Utah', 2100000, 'Salt Lake City');\
             DROP TABLE States;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        match &stmts[0] {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "States");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[1].dtype, DataType::Int);
            }
            _ => panic!(),
        }
        match &stmts[1] {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], Literal::Str("Colorado".into()));
                assert_eq!(rows[1][1], Literal::Int(2100000));
            }
            _ => panic!(),
        }
        assert!(matches!(&stmts[2], Statement::DropTable { name } if name == "States"));
    }

    #[test]
    fn negative_literals_in_insert() {
        let stmt = parse_one("INSERT INTO T VALUES (-5, -2.5, NULL)").unwrap();
        match stmt {
            Statement::Insert { rows, .. } => {
                assert_eq!(
                    rows[0],
                    vec![Literal::Int(-5), Literal::Float(-2.5), Literal::Null]
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT x FROM").is_err());
        assert!(parse("SELECT x FROM T WHERE").is_err());
        assert!(parse("CREATE TABLE T (x BLOB)").is_err());
        assert!(parse("BOGUS STATEMENT").is_err());
        assert!(parse("SELECT SUM(*) FROM T").is_err());
        assert!(parse_one("SELECT 1 FROM T; SELECT 2 FROM T").is_err());
    }

    #[test]
    fn like_in_between() {
        let s = sel("SELECT * FROM T WHERE a LIKE 'New%' AND b NOT LIKE '%x_'");
        let cs = s.where_clause.unwrap().split_conjuncts();
        assert_eq!(cs[0].to_string(), "(a LIKE 'New%')");
        assert_eq!(cs[1].to_string(), "(b NOT LIKE '%x_')");

        let s = sel("SELECT * FROM T WHERE a IN (1, 2, 3) AND b NOT IN ('x')");
        let cs = s.where_clause.unwrap().split_conjuncts();
        assert_eq!(cs[0].to_string(), "(a IN (1, 2, 3))");
        assert_eq!(cs[1].to_string(), "(b NOT IN ('x'))");

        let s = sel("SELECT * FROM T WHERE a BETWEEN 1 AND 10 AND b = 2");
        let cs = s.where_clause.unwrap().split_conjuncts();
        assert_eq!(cs[0].to_string(), "(a BETWEEN 1 AND 10)");
        assert_eq!(cs[1].to_string(), "(b = 2)");

        let s = sel("SELECT * FROM T WHERE a NOT BETWEEN 1 AND 10");
        assert_eq!(
            s.where_clause.unwrap().to_string(),
            "(a NOT BETWEEN 1 AND 10)"
        );
        // `NOT a LIKE 'x'` still parses (prefix NOT over the LIKE).
        let s = sel("SELECT * FROM T WHERE NOT a LIKE 'x'");
        assert_eq!(s.where_clause.unwrap().to_string(), "(NOT (a LIKE 'x'))");
        assert!(parse("SELECT * FROM T WHERE a NOT 5").is_err());
    }

    #[test]
    fn having_clause() {
        let s = sel("SELECT City, COUNT(*) FROM People GROUP BY City \
             HAVING COUNT(*) > 2 ORDER BY City");
        assert_eq!(s.having.unwrap().to_string(), "(COUNT(*) > 2)");
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.order_by.len(), 1);
    }

    #[test]
    fn index_statements() {
        assert_eq!(
            parse_one("CREATE INDEX ON States (Name)").unwrap(),
            Statement::CreateIndex {
                table: "States".into(),
                column: "Name".into()
            }
        );
        assert_eq!(
            parse_one("DROP INDEX ON States (Name)").unwrap(),
            Statement::DropIndex {
                table: "States".into(),
                column: "Name".into()
            }
        );
        assert!(parse("CREATE INDEX States (Name)").is_err());
        assert!(parse("CREATE INDEX ON States ()").is_err());
    }

    #[test]
    fn delete_statements() {
        let s = parse_one("DELETE FROM States WHERE Population < 1000000").unwrap();
        match s {
            Statement::Delete { table, predicate } => {
                assert_eq!(table, "States");
                assert_eq!(predicate.unwrap().to_string(), "(Population < 1000000)");
            }
            _ => panic!(),
        }
        let s = parse_one("DELETE FROM States").unwrap();
        assert!(matches!(
            s,
            Statement::Delete {
                predicate: None,
                ..
            }
        ));
    }

    #[test]
    fn update_statements() {
        let s = parse_one(
            "UPDATE States SET Population = Population + 1000, Capital = 'X' \
             WHERE Name = 'Utah'",
        )
        .unwrap();
        match s {
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                assert_eq!(table, "States");
                assert_eq!(sets.len(), 2);
                assert_eq!(sets[0].0, "Population");
                assert_eq!(sets[0].1.to_string(), "(Population + 1000)");
                assert_eq!(sets[1].1.to_string(), "'X'");
                assert!(predicate.is_some());
            }
            _ => panic!(),
        }
        assert!(parse("UPDATE States Population = 1").is_err());
    }

    #[test]
    fn multiple_statements_with_stray_semicolons() {
        let stmts = parse(";;SELECT a FROM T;; SELECT b FROM U;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn from_alias_not_confused_with_keywords() {
        let s = sel("Select * From Sigs s Where s.Name = 'SIGMOD'");
        assert_eq!(s.from[0].alias.as_deref(), Some("s"));
        let s = sel("Select * From Sigs Where Name = 'SIGMOD'");
        assert_eq!(s.from[0].alias, None);
    }

    #[test]
    fn rerank_by_parses_between_having_and_order_by() {
        let s = sel("Select Name, URL From States, WebPages Where Name = T1 \
             Rerank By url_depth Order By Name");
        assert_eq!(s.rerank.as_deref(), Some("url_depth"));
        assert_eq!(s.order_by.len(), 1);

        // Without the clause the field stays unset.
        let s = sel("Select Name From States");
        assert_eq!(s.rerank, None);

        // RERANK without BY, or BY without a scorer ident, is an error.
        assert!(parse("Select a From T Rerank url_len").is_err());
        assert!(parse("Select a From T Rerank By").is_err());
    }

    #[test]
    fn rerank_by_round_trips_through_display() {
        let sql = "Select Name, URL From States, WebPages \
                   Where Name = T1 Rerank By rank";
        let s = sel(sql);
        let rendered = s.to_string();
        assert!(
            rendered.contains("RERANK BY rank"),
            "display lost the clause: {rendered}"
        );
        let again = sel(&rendered);
        assert_eq!(again.rerank.as_deref(), Some("rank"));
        assert_eq!(again.to_string(), rendered);
    }

    #[test]
    fn i64_min_is_writable_and_every_other_overflow_is_an_error() {
        let s = sel("SELECT -9223372036854775808 FROM T WHERE x > -9223372036854775808");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr, &Expr::Literal(Literal::Int(i64::MIN)));
            }
            _ => panic!(),
        }
        // Other negative literals stay negations.
        let s = sel("SELECT -9223372036854775807 FROM T");
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => assert_eq!(expr.to_string(), "(-9223372036854775807)"),
            _ => panic!(),
        }
        match parse_one("INSERT INTO T VALUES (-9223372036854775808, 9223372036854775807)") {
            Ok(Statement::Insert { rows, .. }) => {
                assert_eq!(
                    rows[0],
                    vec![Literal::Int(i64::MIN), Literal::Int(i64::MAX)]
                );
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "SELECT 9223372036854775808 FROM T",
            "SELECT a - 9223372036854775808 FROM T",
            "SELECT -(9223372036854775808) FROM T",
            "SELECT -9223372036854775809 FROM T",
            "SELECT 1 FROM T LIMIT 9223372036854775808",
            "INSERT INTO T VALUES (9223372036854775808)",
            "INSERT INTO T VALUES (-9223372036854775809)",
        ] {
            let err = parse(bad).unwrap_err().to_string();
            assert!(err.contains("bad integer literal"), "{bad}: {err}");
        }
    }

    #[test]
    fn float_literals_with_exponents() {
        let s = sel("SELECT 1e300, 2.5E-3 FROM T WHERE x < 1.0");
        let lits: Vec<String> = s
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Expr { expr, .. } => expr.to_string(),
                SelectItem::Star => panic!(),
            })
            .collect();
        assert_eq!(lits[1], "0.0025");
        assert_eq!(
            s.where_clause.unwrap(),
            Expr::binary(
                BinOp::Lt,
                Expr::column("x"),
                Expr::Literal(Literal::Float(1.0))
            )
        );
        // An integral float prints as a float, so it re-parses as one.
        let again = sel(&format!("SELECT {} FROM T", lits[0]));
        assert_eq!(again.items, s.items[..1]);
    }

    #[test]
    fn keywords_and_types_are_case_insensitive() {
        let s = sel("select count(*), Sum(x), aVg(y) from T");
        assert_eq!(s.items.len(), 3);
        match &s.items[2] {
            SelectItem::Expr { expr, .. } => assert_eq!(expr.to_string(), "AVG(y)"),
            _ => panic!(),
        }
        assert!(matches!(
            parse_one("create table T (a integer, b Real, c varchar(3), d Text)"),
            Ok(Statement::CreateTable { .. })
        ));
        // The error names the type in upper case.
        let err = parse("CREATE TABLE T (x blob)").unwrap_err().to_string();
        assert!(err.contains("unknown type 'BLOB'"), "{err}");
    }

    #[test]
    fn parse_one_counts_statements() {
        for (sql, n) in [("", 0), (";;", 0), ("SELECT a FROM T; SELECT b FROM T;", 2)] {
            let err = parse_one(sql).unwrap_err().to_string();
            assert!(err.contains(&format!("found {n}")), "{sql}: {err}");
        }
        // A later statement's syntax error is still reported.
        let err = parse_one("SELECT a FROM T; SELECT FROM")
            .unwrap_err()
            .to_string();
        assert!(!err.contains("statement"), "{err}");
    }
}
