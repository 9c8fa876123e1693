//! Compiled expressions: AST expressions resolved against a schema into an
//! evaluable form with column offsets.
//!
//! Compilation happens once per executor build; evaluation is a cheap tree
//! walk with no name lookups (perf-book: do the work once, outside the
//! per-tuple loop).

use std::borrow::Cow;
use std::cmp::Ordering;
use wsq_common::{DataType, Result, Schema, Tuple, Value, WsqError};
use wsq_sql::ast::{BinOp, Expr, Literal, UnOp};

/// A compiled, offset-resolved expression.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// Tuple value at an offset.
    Column(usize),
    /// Constant.
    Const(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<CExpr>,
    },
    /// SQL LIKE pattern match.
    Like {
        /// Tested expression.
        expr: Box<CExpr>,
        /// Pattern expression.
        pattern: Box<CExpr>,
        /// `NOT LIKE`?
        negated: bool,
    },
    /// Membership test.
    InList {
        /// Tested expression.
        expr: Box<CExpr>,
        /// Candidates.
        list: Vec<CExpr>,
        /// `NOT IN`?
        negated: bool,
    },
    /// Inclusive range test.
    Between {
        /// Tested expression.
        expr: Box<CExpr>,
        /// Lower bound.
        low: Box<CExpr>,
        /// Upper bound.
        high: Box<CExpr>,
        /// `NOT BETWEEN`?
        negated: bool,
    },
}

/// A set of column offsets, as a bitmask: which columns of its input an
/// operator reads. Offsets from 64 on are always in the set — a read set
/// may overstate what is read, never understate it — so it is `Copy` and
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSet(u64);

impl ColumnSet {
    /// Every column.
    pub const ALL: ColumnSet = ColumnSet(u64::MAX);
    /// No column below offset 64.
    pub const NONE: ColumnSet = ColumnSet(0);

    /// Is offset `i` in the set?
    pub fn contains(self, i: usize) -> bool {
        i >= 64 || self.0 >> i & 1 == 1
    }

    /// Add offset `i`.
    pub fn insert(&mut self, i: usize) {
        if i < 64 {
            self.0 |= 1 << i;
        }
    }

    /// Offsets in either set.
    pub fn union(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 | other.0)
    }

    /// Offsets in both sets.
    pub fn intersection(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 & other.0)
    }

    /// The set seen from offset `n` on: offset `n + i` becomes `i` (the
    /// right side of a join whose left side is `n` columns wide).
    pub fn skip(self, n: usize) -> ColumnSet {
        match n {
            0 => self,
            64.. => ColumnSet::ALL,
            n => ColumnSet(self.0 >> n | u64::MAX << (64 - n)),
        }
    }
}

/// Convert an AST literal to a runtime value.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Null => Value::Null,
    }
}

/// Compile `expr` against `schema`. Aggregate calls are rejected — the
/// planner rewrites them into plain column references before compilation.
pub fn compile(expr: &Expr, schema: &Schema) -> Result<CExpr> {
    match expr {
        Expr::Column(c) => {
            let idx = schema.resolve(c.qualifier.as_deref(), &c.name)?;
            Ok(CExpr::Column(idx))
        }
        Expr::Literal(l) => Ok(CExpr::Const(literal_value(l))),
        Expr::Binary { op, lhs, rhs } => Ok(CExpr::Binary {
            op: *op,
            lhs: Box::new(compile(lhs, schema)?),
            rhs: Box::new(compile(rhs, schema)?),
        }),
        Expr::Unary { op, expr } => Ok(CExpr::Unary {
            op: *op,
            expr: Box::new(compile(expr, schema)?),
        }),
        Expr::Agg { .. } => Err(WsqError::Plan(
            "aggregate call outside of GROUP BY planning".to_string(),
        )),
        Expr::Subquery(_) | Expr::InSubquery { .. } => Err(WsqError::Plan(
            "subquery was not folded before compilation (only uncorrelated \
             subqueries are supported, and EXPLAIN cannot evaluate them)"
                .to_string(),
        )),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Ok(CExpr::Like {
            expr: Box::new(compile(expr, schema)?),
            pattern: Box::new(compile(pattern, schema)?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Ok(CExpr::InList {
            expr: Box::new(compile(expr, schema)?),
            list: list
                .iter()
                .map(|e| compile(e, schema))
                .collect::<Result<Vec<_>>>()?,
            negated: *negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(CExpr::Between {
            expr: Box::new(compile(expr, schema)?),
            low: Box::new(compile(low, schema)?),
            high: Box::new(compile(high, schema)?),
            negated: *negated,
        }),
    }
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` any one
/// character. Case-sensitive, over chars, and allocation-free: on a
/// mismatch the last `%` swallows one more char and matching resumes
/// after it.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let (mut t, mut p) = (text, pattern);
    // The pattern after the last `%`, and the text it has not swallowed.
    let mut retry: Option<(&str, &str)> = None;
    loop {
        let (mut ps, mut ts) = (p.chars(), t.chars());
        match (ps.next(), ts.next()) {
            (Some('%'), _) => {
                p = ps.as_str();
                retry = Some((p, t));
                continue;
            }
            (Some(pc), Some(tc)) if pc == '_' || pc == tc => {
                (p, t) = (ps.as_str(), ts.as_str());
                continue;
            }
            (None, None) => return true,
            _ => {}
        }
        let Some((after, swallowed)) = retry else {
            return false;
        };
        let mut rest = swallowed.chars();
        if rest.next().is_none() {
            return false;
        }
        (p, t) = (after, rest.as_str());
        retry = Some((p, t));
    }
}

impl CExpr {
    /// Evaluate against a tuple. A predicate (a comparison, `AND`, `OR`,
    /// `NOT`, `LIKE`, `IN`, `BETWEEN`) is [`CExpr::eval_bool`]'s answer as
    /// 1 or 0.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        match self {
            CExpr::Column(i) => Ok(tuple.get(*i).clone()),
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Unary {
                op: UnOp::Neg,
                expr,
            } => match expr.eval(tuple)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                Value::Null => Ok(Value::Null),
                other => Err(WsqError::Type(format!("cannot negate {other}"))),
            },
            CExpr::Binary { op, lhs, rhs } if !is_predicate(*op) => {
                arith(*op, &*lhs.operand(tuple)?, &*rhs.operand(tuple)?)
            }
            // Every predicate; `eval_bool` does not come back here for one.
            CExpr::Binary { .. }
            | CExpr::Unary { op: UnOp::Not, .. }
            | CExpr::Like { .. }
            | CExpr::InList { .. }
            | CExpr::Between { .. } => Ok(Value::Int(i64::from(self.eval_bool(tuple)?))),
        }
    }

    /// Evaluate as a predicate: a comparison reads its operands where they
    /// lie (a column in the tuple, a constant in the plan), and `AND`,
    /// `OR` and `NOT` combine bools, the right side of `AND` / `OR` only
    /// when the left does not decide. Anything else is the truth of its
    /// value.
    pub fn eval_bool(&self, tuple: &Tuple) -> Result<bool> {
        match self {
            CExpr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => Ok(lhs.eval_bool(tuple)? && rhs.eval_bool(tuple)?),
            CExpr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } => Ok(lhs.eval_bool(tuple)? || rhs.eval_bool(tuple)?),
            CExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
                compare(*op, &*lhs.operand(tuple)?, &*rhs.operand(tuple)?)
            }
            CExpr::Unary {
                op: UnOp::Not,
                expr,
            } => Ok(!expr.eval_bool(tuple)?),
            CExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let (v, p) = (expr.operand(tuple)?, pattern.operand(tuple)?);
                if v.is_null() || p.is_null() {
                    return Ok(false);
                }
                Ok(like_match(v.as_str()?, p.as_str()?) != *negated)
            }
            CExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.operand(tuple)?;
                if v.is_null() {
                    return Ok(false);
                }
                for e in list {
                    let candidate = e.operand(tuple)?;
                    if !candidate.is_null() && v.sql_eq(&candidate)? {
                        return Ok(!*negated);
                    }
                }
                Ok(*negated)
            }
            CExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.operand(tuple)?;
                let (lo, hi) = (low.operand(tuple)?, high.operand(tuple)?);
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(false);
                }
                let b = v.compare(&lo)? != Ordering::Less && v.compare(&hi)? != Ordering::Greater;
                Ok(b != *negated)
            }
            // Every value that is not a predicate (`Binary` is arithmetic
            // here); `eval` does not come back here for one.
            CExpr::Column(_)
            | CExpr::Const(_)
            | CExpr::Unary { op: UnOp::Neg, .. }
            | CExpr::Binary { .. } => truthy(&*self.operand(tuple)?),
        }
    }

    /// The expression's value, borrowed from the tuple for a column and
    /// from the plan for a constant, and evaluated otherwise.
    pub(crate) fn operand<'a>(&'a self, tuple: &'a Tuple) -> Result<Cow<'a, Value>> {
        match self {
            CExpr::Column(i) => Ok(Cow::Borrowed(tuple.get(*i))),
            CExpr::Const(v) => Ok(Cow::Borrowed(v)),
            other => other.eval(tuple).map(Cow::Owned),
        }
    }

    /// Add to `reads` every column offset this expression reads.
    pub fn mark_reads(&self, reads: &mut ColumnSet) {
        match self {
            CExpr::Column(i) => reads.insert(*i),
            CExpr::Const(_) => {}
            CExpr::Binary { lhs, rhs, .. } => {
                lhs.mark_reads(reads);
                rhs.mark_reads(reads);
            }
            CExpr::Unary { expr, .. } => expr.mark_reads(reads),
            CExpr::Like { expr, pattern, .. } => {
                expr.mark_reads(reads);
                pattern.mark_reads(reads);
            }
            CExpr::InList { expr, list, .. } => {
                expr.mark_reads(reads);
                list.iter().for_each(|e| e.mark_reads(reads));
            }
            CExpr::Between {
                expr, low, high, ..
            } => {
                expr.mark_reads(reads);
                low.mark_reads(reads);
                high.mark_reads(reads);
            }
        }
    }
}

/// Is `op` decided by [`CExpr::eval_bool`]? (The others are arithmetic.)
fn is_predicate(op: BinOp) -> bool {
    op.is_comparison() || matches!(op, BinOp::And | BinOp::Or)
}

/// SQL comparison, the one definition: a comparison involving NULL is
/// false, and otherwise [`Value::compare`] decides, with its type errors.
fn compare(op: BinOp, l: &Value, r: &Value) -> Result<bool> {
    if l.is_null() || r.is_null() {
        return Ok(false);
    }
    let ord = l.compare(r)?;
    Ok(match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        other => unreachable!("{} is not a comparison", other.symbol()),
    })
}

fn truthy(v: &Value) -> Result<bool> {
    match v {
        Value::Int(i) => Ok(*i != 0),
        Value::Float(f) => Ok(*f != 0.0),
        Value::Null => Ok(false),
        other => Err(WsqError::Type(format!("{other} is not a boolean"))),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // String concatenation via `+`.
    if op == BinOp::Add {
        if let (Value::Str(a), Value::Str(b)) = (l, r) {
            return Ok(Value::from(format!("{a}{b}")));
        }
    }
    let float = matches!(l, Value::Float(_)) || matches!(r, Value::Float(_));
    if float {
        let a = l.as_float()?;
        let b = r.as_float()?;
        let v = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => {
                if b == 0.0 {
                    return Ok(Value::Null);
                }
                a / b
            }
            other => {
                return Err(WsqError::Type(format!(
                    "operator {} is not arithmetic",
                    other.symbol()
                )))
            }
        };
        Ok(Value::Float(v))
    } else {
        let a = l.as_int()?;
        let b = r.as_int()?;
        let v = match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    return Ok(Value::Null);
                }
                a.wrapping_div(b)
            }
            other => {
                return Err(WsqError::Type(format!(
                    "operator {} is not arithmetic",
                    other.symbol()
                )))
            }
        };
        Ok(Value::Int(v))
    }
}

/// Infer the output type of an AST expression against a schema (used to
/// build projection schemas). `None` means "unknown/NULL".
pub fn infer_type(expr: &Expr, schema: &Schema) -> Option<DataType> {
    match expr {
        Expr::Column(c) => schema
            .try_resolve(c.qualifier.as_deref(), &c.name)
            .map(|i| schema.column(i).dtype),
        Expr::Literal(Literal::Int(_)) => Some(DataType::Int),
        Expr::Literal(Literal::Float(_)) => Some(DataType::Float),
        Expr::Literal(Literal::Str(_)) => Some(DataType::Varchar),
        Expr::Literal(Literal::Null) => None,
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => infer_type(expr, schema),
        Expr::Unary { op: UnOp::Not, .. } => Some(DataType::Int),
        Expr::Binary { op, lhs, rhs } => {
            if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                return Some(DataType::Int);
            }
            match (infer_type(lhs, schema), infer_type(rhs, schema)) {
                (Some(DataType::Float), _) | (_, Some(DataType::Float)) => Some(DataType::Float),
                (Some(DataType::Varchar), _) | (_, Some(DataType::Varchar)) => {
                    Some(DataType::Varchar)
                }
                (Some(DataType::Int), _) | (_, Some(DataType::Int)) => Some(DataType::Int),
                _ => None,
            }
        }
        Expr::Agg { func, arg } => match func {
            wsq_sql::ast::AggFunc::Count => Some(DataType::Int),
            wsq_sql::ast::AggFunc::Avg => Some(DataType::Float),
            _ => arg.as_ref().and_then(|a| infer_type(a, schema)),
        },
        Expr::Like { .. } | Expr::InList { .. } | Expr::Between { .. } => Some(DataType::Int),
        Expr::Subquery(_) => None,
        Expr::InSubquery { .. } => Some(DataType::Int),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsq_common::Column;
    use wsq_sql::parse_one;
    use wsq_sql::Statement;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::qualified("T", "a", DataType::Int),
            Column::qualified("T", "b", DataType::Float),
            Column::qualified("T", "s", DataType::Varchar),
        ])
    }

    fn tuple() -> Tuple {
        Tuple::new(vec![Value::Int(6), Value::Float(1.5), Value::from("hi")])
    }

    /// Parse `SELECT <expr> FROM T` and return the expression.
    fn expr(text: &str) -> Expr {
        match parse_one(&format!("SELECT {text} FROM T")).unwrap() {
            Statement::Select(s) => match s.items.into_iter().next().unwrap() {
                wsq_sql::SelectItem::Expr { expr, .. } => expr,
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    fn eval(text: &str) -> Value {
        compile(&expr(text), &schema())
            .unwrap()
            .eval(&tuple())
            .unwrap()
    }

    #[test]
    fn arithmetic_int_and_float() {
        assert_eq!(eval("a + 2"), Value::Int(8));
        assert_eq!(eval("a / 4"), Value::Int(1)); // integer division
        assert_eq!(eval("a * b"), Value::Float(9.0));
        assert_eq!(eval("-a"), Value::Int(-6));
        assert_eq!(eval("a - 10"), Value::Int(-4));
    }

    #[test]
    fn division_by_zero_yields_null() {
        assert_eq!(eval("a / 0"), Value::Null);
        assert_eq!(eval("b / 0.0"), Value::Null);
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval("a > 5"), Value::Int(1));
        assert_eq!(eval("a <= 5"), Value::Int(0));
        assert_eq!(eval("s = 'hi'"), Value::Int(1));
        assert_eq!(eval("s <> 'hi'"), Value::Int(0));
        assert_eq!(eval("a = 6.0"), Value::Int(1)); // cross-type numeric
    }

    #[test]
    fn null_comparisons_are_false() {
        assert_eq!(eval("a = NULL"), Value::Int(0));
        assert_eq!(eval("NULL = NULL"), Value::Int(0));
        assert_eq!(eval("a <> NULL"), Value::Int(0));
    }

    #[test]
    fn logic_short_circuits() {
        assert_eq!(eval("a > 5 AND s = 'hi'"), Value::Int(1));
        assert_eq!(eval("a > 9 AND s"), Value::Int(0)); // rhs not evaluated
        assert_eq!(eval("a > 5 OR s"), Value::Int(1));
        assert_eq!(eval("NOT a > 5"), Value::Int(0));
    }

    #[test]
    fn string_concat() {
        assert_eq!(eval("s + '!'"), Value::from("hi!"));
    }

    #[test]
    fn unknown_column_fails_compile() {
        assert!(compile(&expr("nope"), &schema()).is_err());
        assert!(compile(&expr("U.a"), &schema()).is_err());
    }

    #[test]
    fn aggregates_rejected_at_compile() {
        assert!(compile(&expr("COUNT(*)"), &schema()).is_err());
    }

    #[test]
    fn like_matching() {
        assert!(like_match("New Mexico", "New%"));
        assert!(like_match("New Mexico", "%Mexico"));
        assert!(like_match("New Mexico", "%w M%"));
        assert!(like_match("New Mexico", "New Mexic_"));
        assert!(like_match("", "%"));
        assert!(like_match("abc", "___"));
        assert!(!like_match("abc", "__"));
        assert!(!like_match("abc", "ABC")); // case-sensitive
        assert!(like_match("a%b", "a%b")); // literal text still matches itself
        assert!(like_match("aaa", "%a%a%"));
        // Multibyte text: `_` is one char, however many bytes it takes.
        assert!(like_match("São Paulo", "S_o%"));
        assert!(like_match("São Paulo", "%ã%"));
        assert!(!like_match("São Paulo", "S__o%"));
        assert!(like_match("日本語", "日_語"));
        assert!(like_match("日本語", "___"));
        assert!(!like_match("日本語", "____"));
        assert!(like_match("日本語", "%語"));
        assert!(!like_match("日本", "日本語"));
    }

    #[test]
    fn like_in_between_eval() {
        assert_eq!(eval("s LIKE 'h%'"), Value::Int(1));
        assert_eq!(eval("s NOT LIKE 'h%'"), Value::Int(0));
        assert_eq!(eval("s LIKE '_i'"), Value::Int(1));
        assert_eq!(eval("a IN (1, 6, 9)"), Value::Int(1));
        assert_eq!(eval("a NOT IN (1, 6, 9)"), Value::Int(0));
        assert_eq!(eval("a IN (1, 2)"), Value::Int(0));
        assert_eq!(eval("s IN ('hi', 'ho')"), Value::Int(1));
        assert_eq!(eval("a BETWEEN 5 AND 7"), Value::Int(1));
        assert_eq!(eval("a BETWEEN 7 AND 9"), Value::Int(0));
        assert_eq!(eval("a NOT BETWEEN 7 AND 9"), Value::Int(1));
        assert_eq!(eval("b BETWEEN 1 AND a"), Value::Int(1));
        // NULL participants → false.
        assert_eq!(eval("s LIKE NULL"), Value::Int(0));
        assert_eq!(eval("NULL IN (1)"), Value::Int(0));
        assert_eq!(eval("a BETWEEN NULL AND 9"), Value::Int(0));
    }

    #[test]
    fn type_inference() {
        let s = schema();
        assert_eq!(infer_type(&expr("a + 1"), &s), Some(DataType::Int));
        assert_eq!(infer_type(&expr("a + b"), &s), Some(DataType::Float));
        assert_eq!(infer_type(&expr("a > 1"), &s), Some(DataType::Int));
        assert_eq!(infer_type(&expr("s"), &s), Some(DataType::Varchar));
        assert_eq!(infer_type(&expr("NULL"), &s), None);
    }
}
