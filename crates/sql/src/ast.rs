//! Abstract syntax tree for the SQL subset.
//!
//! The tree owns its text and has no lifetime. Every name a query's plan
//! can carry — table references, column references, select-list aliases —
//! and every string literal is an `Arc<str>`, allocated once by the parser
//! and shared from then on by plans, schemas and runtime values.

use std::fmt;
use std::sync::Arc;
use wsq_common::DataType;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, …)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO name VALUES (…), (…)`
    Insert {
        /// Target table.
        table: String,
        /// Rows of literal values.
        rows: Vec<Vec<Literal>>,
    },
    /// `CREATE INDEX ON table (column)` — Redbase-style single-column
    /// index, named implicitly by its table and column.
    CreateIndex {
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `DROP INDEX ON table (column)`
    DropIndex {
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `DELETE FROM table [WHERE …]`
    Delete {
        /// Target table.
        table: String,
        /// Row filter (`None` deletes everything).
        predicate: Option<Expr>,
    },
    /// `UPDATE table SET col = expr, … [WHERE …]`
    Update {
        /// Target table.
        table: String,
        /// Assignments, in order.
        sets: Vec<(String, Expr)>,
        /// Row filter (`None` updates everything).
        predicate: Option<Expr>,
    },
    /// `INSERT INTO table SELECT …` — materialize a query's result.
    InsertSelect {
        /// Target table.
        table: String,
        /// Source query.
        query: SelectStmt,
    },
    /// `CREATE VIEW name AS SELECT …`
    CreateView {
        /// View name.
        name: String,
        /// Defining query.
        query: SelectStmt,
    },
    /// `DROP VIEW name`
    DropView {
        /// View name.
        name: String,
    },
    /// `SHOW TABLES`
    ShowTables,
    /// `DESCRIBE table`
    Describe {
        /// Table to describe.
        table: String,
    },
    /// A `SELECT` query.
    Select(SelectStmt),
}

/// One column in a `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
}

/// A table reference in a `FROM` clause, with optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table (or virtual table) name.
    pub table: Arc<str>,
    /// Optional alias; when absent the table name is the alias.
    pub alias: Option<Arc<str>>,
}

impl TableRef {
    /// The name other clauses refer to this table by.
    pub fn binding_name(&self) -> &Arc<str> {
        self.alias.as_ref().unwrap_or(&self.table)
    }
}

/// A column reference `[qualifier.]name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Optional table qualifier.
    pub qualifier: Option<Arc<str>>,
    /// Column name.
    pub name: Arc<str>,
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(Arc<str>),
    /// `NULL`.
    Null,
}

/// Literals print as SQL that lexes back to the same literal: a string is
/// quoted with `'` doubled, and a float always has a fractional part
/// (`1.0`, not `1`), so that a view definition stored as text keeps its
/// float literals floats.
impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(x) if x.is_finite() && x.fract() == 0.0 => write!(f, "{x}.0"),
            Literal::Float(x) => write!(f, "{x}"),
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>` / `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
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
    /// SQL spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// Is this a comparison operator?
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        write!(f, "{s}")
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal.
    Literal(Literal),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Aggregate call; `arg == None` means `COUNT(*)`.
    Agg {
        /// Function.
        func: AggFunc,
        /// Argument (`None` only for `COUNT(*)`).
        arg: Option<Box<Expr>>,
    },
    /// `expr [NOT] LIKE pattern` (`%` = any run, `_` = any one char).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression (usually a string literal).
        pattern: Box<Expr>,
        /// `NOT LIKE`?
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `NOT IN`?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// `NOT BETWEEN`?
        negated: bool,
    },
    /// A scalar subquery `(SELECT …)` — must be uncorrelated and produce
    /// exactly one row and column; evaluated before the outer query plans.
    Subquery(Box<SelectStmt>),
    /// `expr [NOT] IN (SELECT …)` — uncorrelated, single output column.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery supplying candidates.
        query: Box<SelectStmt>,
        /// `NOT IN`?
        negated: bool,
    },
}

impl Expr {
    /// Build `lhs op rhs`.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Bare (unqualified) column reference.
    pub fn column(name: &str) -> Expr {
        Expr::Column(ColumnRef {
            qualifier: None,
            name: name.into(),
        })
    }

    /// Qualified column reference.
    pub fn qualified(qualifier: &str, name: &str) -> Expr {
        Expr::Column(ColumnRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        })
    }

    /// Call `f` on this expression and on every expression inside it,
    /// parent before children, left to right. A subquery's expressions
    /// belong to its own scope and are not visited (an `IN (SELECT …)`'s
    /// tested expression is).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Subquery(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Unary { expr, .. } | Expr::InSubquery { expr, .. } => expr.visit(f),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.visit(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
        }
    }

    /// Does any expression [`Expr::visit`] reaches satisfy `pred`?
    fn any(&self, mut pred: impl FnMut(&Expr) -> bool) -> bool {
        let mut found = false;
        self.visit(&mut |e| found = found || pred(e));
        found
    }

    /// Does this expression (transitively) contain an aggregate call?
    /// Subqueries have their own aggregation scope.
    pub fn contains_aggregate(&self) -> bool {
        self.any(|e| matches!(e, Expr::Agg { .. }))
    }

    /// Does this expression contain a scalar or `IN` subquery?
    pub fn contains_subquery(&self) -> bool {
        self.any(|e| matches!(e, Expr::Subquery(_) | Expr::InSubquery { .. }))
    }

    /// Collect every column referenced by this expression.
    pub fn columns(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c);
            }
        });
        out
    }

    /// Does every column this expression references satisfy `pred`?
    /// ([`Expr::columns`] without collecting them.)
    pub fn all_columns(&self, mut pred: impl FnMut(&ColumnRef) -> bool) -> bool {
        !self.any(|e| matches!(e, Expr::Column(c) if !pred(c)))
    }

    /// Split a conjunction into its conjuncts (`a AND b AND c` → 3 exprs).
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                let mut out = lhs.split_conjuncts();
                out.extend(rhs.split_conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// [`Expr::split_conjuncts`] by reference, in the same left-to-right
    /// order.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.for_each_conjunct(&mut |e| out.push(e));
        out
    }

    /// Call `f` on each conjunct, in [`Expr::conjuncts`] order, without
    /// collecting them.
    pub fn for_each_conjunct<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                lhs.for_each_conjunct(f);
                rhs.for_each_conjunct(f);
            }
            other => f(other),
        }
    }

    /// Re-join conjuncts into one expression (`None` if the slice is empty).
    pub fn join_conjuncts(mut exprs: Vec<Expr>) -> Option<Expr> {
        let first = if exprs.is_empty() {
            return None;
        } else {
            exprs.remove(0)
        };
        Some(
            exprs
                .into_iter()
                .fold(first, |acc, e| Expr::binary(BinOp::And, acc, e)),
        )
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => match **expr {
                // `--` would start a comment.
                Expr::Literal(Literal::Int(i)) if i < 0 => write!(f, "(- {expr})"),
                Expr::Literal(Literal::Float(x)) if x.is_sign_negative() => {
                    write!(f, "(- {expr})")
                }
                _ => write!(f, "(-{expr})"),
            },
            Expr::Unary {
                op: UnOp::Not,
                expr,
            } => write!(f, "(NOT {expr})"),
            Expr::Agg { func, arg: None } => write!(f, "{func}(*)"),
            Expr::Agg { func, arg: Some(a) } => write!(f, "{func}({a})"),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "({expr} {}IN ({}))",
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Subquery(q) => write!(f, "({q})"),
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => write!(
                f,
                "({expr} {}IN ({query}))",
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

/// One item in a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<Arc<str>>,
    },
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// A `SELECT` statement.
///
/// `Display` renders it back to parseable SQL (used to persist view
/// definitions); `parse(stmt.to_string())` round-trips.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// `FROM` tables, in join order (Redbase joins in clause order).
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` columns.
    pub group_by: Vec<ColumnRef>,
    /// `HAVING` predicate (may reference aggregates).
    pub having: Option<Expr>,
    /// `RERANK BY <scorer>` — name of the scoring function reordering
    /// patched web-result tuples (QR2-style third-party reranking).
    pub rerank: Option<String>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// Does `WHERE`, `HAVING`, the select list or `ORDER BY` hold a
    /// subquery? (`FROM` names tables only.)
    pub fn contains_subquery(&self) -> bool {
        let items = self.items.iter().filter_map(|i| match i {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Star => None,
        });
        self.where_clause
            .iter()
            .chain(&self.having)
            .chain(items)
            .chain(self.order_by.iter().map(|o| &o.expr))
            .any(Expr::contains_subquery)
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Star => write!(f, "*")?,
                SelectItem::Expr { expr, alias } => {
                    write!(f, "{expr}")?;
                    if let Some(a) = alias {
                        write!(f, " AS {a}")?;
                    }
                }
            }
        }
        write!(f, " FROM ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", t.table)?;
            if let Some(a) = &t.alias {
                write!(f, " {a}")?;
            }
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if let Some(r) = &self.rerank {
            write!(f, " RERANK BY {r}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", o.expr)?;
                if o.desc {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting_roundtrips() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(
                BinOp::And,
                Expr::binary(BinOp::Eq, Expr::column("a"), Expr::column("b")),
                Expr::binary(BinOp::Lt, Expr::column("c"), Expr::Literal(Literal::Int(5))),
            ),
            Expr::binary(BinOp::Gt, Expr::column("d"), Expr::column("e")),
        );
        let parts = e.clone().split_conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(e.conjuncts(), parts.iter().collect::<Vec<_>>());
        let joined = Expr::join_conjuncts(parts).unwrap();
        assert_eq!(joined, e);
        assert_eq!(Expr::join_conjuncts(vec![]), None);
    }

    #[test]
    fn or_is_not_split() {
        let e = Expr::binary(BinOp::Or, Expr::column("a"), Expr::column("b"));
        assert_eq!(e.conjuncts(), vec![&e]);
        assert_eq!(e.clone().split_conjuncts(), vec![e]);
    }

    #[test]
    fn column_collection() {
        let e = Expr::binary(
            BinOp::Div,
            Expr::qualified("WebCount", "Count"),
            Expr::column("Population"),
        );
        let cols = e.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].to_string(), "WebCount.Count");
        assert_eq!(cols[1].to_string(), "Population");
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Agg {
            func: AggFunc::Count,
            arg: None,
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::binary(BinOp::Add, agg, Expr::Literal(Literal::Int(1)));
        assert!(nested.contains_aggregate());
        assert!(!Expr::column("x").contains_aggregate());
    }

    #[test]
    fn display_forms() {
        let e = Expr::binary(
            BinOp::Eq,
            Expr::column("Name"),
            Expr::Literal(Literal::Str("it's".into())),
        );
        assert_eq!(e.to_string(), "(Name = 'it''s')");
        let agg = Expr::Agg {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::column("x"))),
        };
        assert_eq!(agg.to_string(), "SUM(x)");
    }

    #[test]
    fn float_literals_print_with_a_fractional_part() {
        let shown = |x: f64| Literal::Float(x).to_string();
        assert_eq!(shown(1.0), "1.0");
        assert_eq!(shown(0.5), "0.5");
        assert_eq!(shown(-2.0), "-2.0");
        assert_eq!(shown(1e20), "100000000000000000000.0");
        assert_eq!(shown(1e-7), "0.0000001");
        assert_eq!(Literal::Int(1).to_string(), "1");
    }

    #[test]
    fn subquery_detection() {
        let sub = SelectStmt {
            distinct: false,
            items: vec![SelectItem::Star],
            from: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            rerank: None,
            order_by: vec![],
            limit: None,
        };
        let scalar = Expr::binary(
            BinOp::Gt,
            Expr::column("x"),
            Expr::Subquery(Box::new(sub.clone())),
        );
        assert!(scalar.contains_subquery());
        assert!(!scalar.contains_aggregate());
        assert!(!Expr::column("x").contains_subquery());
        let mut outer = sub.clone();
        assert!(!outer.contains_subquery());
        outer.order_by.push(OrderItem {
            expr: scalar,
            desc: false,
        });
        assert!(outer.contains_subquery());
    }

    #[test]
    fn table_ref_binding_name() {
        let t = TableRef {
            table: "WebPages_AV".into(),
            alias: Some("AV".into()),
        };
        assert_eq!(&**t.binding_name(), "AV");
        let t = TableRef {
            table: "States".into(),
            alias: None,
        };
        assert_eq!(&**t.binding_name(), "States");
    }
}
