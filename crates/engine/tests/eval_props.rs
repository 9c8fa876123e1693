//! Property tests pinning the evaluator and the hash operators to
//! references that copy every value.
//!
//! * **Predicates.** `CExpr::eval_bool` reads a comparison's operands where
//!   they lie and combines `AND` / `OR` / `NOT` as bools. For generated
//!   expressions over generated rows it must give what [`reference`] — a
//!   tree walk that evaluates every operand into a fresh value, as the
//!   evaluator once did — gives, read as a truth value: the same bool, or
//!   an error with the same text. `eval` must equal the reference outright,
//!   and `eval_bool` must equal the truth of `eval`. The expressions mix
//!   comparisons, `AND` / `OR` / `NOT`, `LIKE`, `IN`, `BETWEEN` and
//!   arithmetic over Int, Float, Str, NULL and placeholder values, so type
//!   errors and the order they surface in are part of what is compared.
//! * **Aggregation.** `GROUP BY`, a global aggregate and `DISTINCT` over
//!   generated rows must return what a linear-scan reference returns, in
//!   first-seen order.

use proptest::prelude::*;
use std::sync::Arc;
use wsq_common::{
    CallId, Column, DataType, PendingCol, Placeholder, Result, Schema, Tuple, Value, WsqError,
};
use wsq_engine::exec::{AggregateExec, DistinctExec, Executor, ValuesExec};
use wsq_engine::expr::{like_match, CExpr};
use wsq_sql::ast::{AggFunc, BinOp, ColumnRef, Expr, UnOp};

/// Columns in a generated row.
const WIDTH: usize = 4;

fn float(f: f64) -> Value {
    Value::Float(f)
}

fn placeholder(call: u64, col: PendingCol) -> Value {
    Value::Pending(Placeholder {
        call: CallId(call),
        col,
    })
}

/// Int and Float values that meet (1 and 1.0, 0 and -0.0), strings that
/// prefix one another or look like patterns, NULL and placeholders.
fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        6 => (-2i64..3).prop_map(Value::Int),
        3 => prop_oneof![
            Just(float(-1.5)),
            Just(float(0.0)),
            Just(float(-0.0)),
            Just(float(0.5)),
            Just(float(1.0)),
            Just(float(2.0)),
        ],
        2 => prop_oneof![
            Just(""),
            Just("a"),
            Just("ab"),
            Just("b"),
            Just("%a"),
            Just("1"),
            Just("é_")
        ]
            .prop_map(Value::from),
        1 => Just(Value::Null),
        1 => prop_oneof![
            Just(placeholder(1, PendingCol::Count)),
            Just(placeholder(2, PendingCol::Url)),
        ],
    ]
    .boxed()
}

fn arb_row() -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(arb_value(), WIDTH..WIDTH + 1).prop_map(Tuple::new)
}

fn leaf() -> BoxedStrategy<CExpr> {
    prop_oneof![
        3 => (0..WIDTH).prop_map(CExpr::Column),
        2 => arb_value().prop_map(CExpr::Const),
    ]
    .boxed()
}

fn binary(op: BinOp, lhs: CExpr, rhs: CExpr) -> CExpr {
    CExpr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// Expressions at most `depth` operators deep.
fn arb_expr(depth: u32) -> BoxedStrategy<CExpr> {
    if depth == 0 {
        return leaf();
    }
    let sub = arb_expr(depth - 1);
    let comparison = prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::NotEq),
        Just(BinOp::Lt),
        Just(BinOp::LtEq),
        Just(BinOp::Gt),
        Just(BinOp::GtEq),
    ];
    let arithmetic = prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
    ];
    let logic = prop_oneof![Just(BinOp::And), Just(BinOp::Or)];
    let pattern = prop_oneof![
        3 => prop_oneof![Just("a%"), Just("%b"), Just("_"), Just("%"), Just("a_"), Just("ab")]
            .prop_map(|p| CExpr::Const(Value::from(p))),
        1 => sub.clone(),
    ];
    prop_oneof![
        3 => leaf(),
        4 => (comparison, sub.clone(), sub.clone()).prop_map(|(op, l, r)| binary(op, l, r)),
        3 => (logic, sub.clone(), sub.clone()).prop_map(|(op, l, r)| binary(op, l, r)),
        2 => (arithmetic, sub.clone(), sub.clone()).prop_map(|(op, l, r)| binary(op, l, r)),
        1 => (any::<bool>(), sub.clone()).prop_map(|(not, e)| CExpr::Unary {
            op: if not { UnOp::Not } else { UnOp::Neg },
            expr: Box::new(e),
        }),
        1 => (sub.clone(), pattern, any::<bool>()).prop_map(|(e, p, negated)| CExpr::Like {
            expr: Box::new(e),
            pattern: Box::new(p),
            negated,
        }),
        1 => (sub.clone(), proptest::collection::vec(sub.clone(), 0..4), any::<bool>())
            .prop_map(|(e, list, negated)| CExpr::InList {
                expr: Box::new(e),
                list,
                negated,
            }),
        1 => (sub.clone(), sub.clone(), sub, any::<bool>()).prop_map(|(e, low, high, negated)| {
            CExpr::Between {
                expr: Box::new(e),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            }
        }),
    ]
    .boxed()
}

/// A value as a truth value: a number is true unless zero, NULL is false,
/// and anything else is a type error.
fn truth(v: &Value) -> Result<bool> {
    match v {
        Value::Int(i) => Ok(*i != 0),
        Value::Float(f) => Ok(*f != 0.0),
        Value::Null => Ok(false),
        other => Err(WsqError::Type(format!("{other} is not a boolean"))),
    }
}

fn int(b: bool) -> Value {
    Value::Int(i64::from(b))
}

/// LIKE as a recursion over copied char vectors: every split point of a
/// `%` tried in turn.
fn like_reference(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => (0..=t.len()).any(|k| rec(&t[k..], rest)),
            Some(('_', rest)) => !t.is_empty() && rec(&t[1..], rest),
            Some((c, rest)) => t.first() == Some(c) && rec(&t[1..], rest),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

/// Short strings over `chars`, one and several bytes a char.
fn arb_chars(chars: &'static [char]) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..chars.len(), 0..7)
        .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
}

/// The evaluator as a tree walk that evaluates every operand into a value
/// of its own. Arithmetic and negation of computed values are left to the
/// engine (over constants), since only how predicates read and combine
/// their operands is under test.
fn reference(e: &CExpr, t: &Tuple) -> Result<Value> {
    let computed = |e: CExpr| e.eval(&Tuple::new(Vec::new()));
    Ok(match e {
        CExpr::Column(i) => t.get(*i).clone(),
        CExpr::Const(v) => v.clone(),
        CExpr::Unary {
            op: UnOp::Not,
            expr,
        } => int(!truth(&reference(expr, t)?)?),
        CExpr::Unary {
            op: UnOp::Neg,
            expr,
        } => computed(CExpr::Unary {
            op: UnOp::Neg,
            expr: Box::new(CExpr::Const(reference(expr, t)?)),
        })?,
        CExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => int(truth(&reference(lhs, t)?)? && truth(&reference(rhs, t)?)?),
        CExpr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        } => int(truth(&reference(lhs, t)?)? || truth(&reference(rhs, t)?)?),
        CExpr::Binary { op, lhs, rhs } => {
            let (l, r) = (reference(lhs, t)?, reference(rhs, t)?);
            if !op.is_comparison() {
                return computed(binary(*op, CExpr::Const(l), CExpr::Const(r)));
            }
            if l.is_null() || r.is_null() {
                return Ok(int(false));
            }
            let ord = l.compare(&r)?;
            int(match op {
                BinOp::Eq => ord.is_eq(),
                BinOp::NotEq => ord.is_ne(),
                BinOp::Lt => ord.is_lt(),
                BinOp::LtEq => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::GtEq => ord.is_ge(),
                _ => unreachable!(),
            })
        }
        CExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let (v, p) = (reference(expr, t)?, reference(pattern, t)?);
            if v.is_null() || p.is_null() {
                return Ok(int(false));
            }
            int(like_reference(v.as_str()?, p.as_str()?) != *negated)
        }
        CExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = reference(expr, t)?;
            if v.is_null() {
                return Ok(int(false));
            }
            let mut found = false;
            for e in list {
                let candidate = reference(e, t)?;
                if !candidate.is_null() && v.sql_eq(&candidate)? {
                    found = true;
                    break;
                }
            }
            int(found != *negated)
        }
        CExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = reference(expr, t)?;
            let (lo, hi) = (reference(low, t)?, reference(high, t)?);
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(int(false));
            }
            int((v.compare(&lo)?.is_ge() && v.compare(&hi)?.is_le()) != *negated)
        }
    })
}

/// A result as text, so values (exactly, by `Debug`) and errors (by
/// message) compare alike.
fn text<T: std::fmt::Debug>(r: Result<T>) -> std::result::Result<String, String> {
    r.map(|v| format!("{v:?}")).map_err(|e| e.to_string())
}

fn int_const(i: i64) -> CExpr {
    CExpr::Const(Value::Int(i))
}

#[test]
fn a_false_left_side_of_and_hides_a_type_error_on_the_right() {
    let t = Tuple::new(Vec::new());
    let x = || CExpr::Const(Value::from("x"));
    let zero_and_x = binary(BinOp::And, int_const(0), x());
    assert!(!zero_and_x.eval_bool(&t).unwrap());
    assert_eq!(zero_and_x.eval(&t).unwrap(), Value::Int(0));
    let one_and_x = binary(BinOp::And, int_const(1), x());
    let err = one_and_x.eval_bool(&t).unwrap_err();
    assert_eq!(err.to_string(), one_and_x.eval(&t).unwrap_err().to_string());
    assert!(err.to_string().contains("x is not a boolean"), "{err}");
    // OR mirrors it: a true left side decides.
    assert!(binary(BinOp::Or, int_const(1), x()).eval_bool(&t).unwrap());
    assert!(binary(BinOp::Or, int_const(0), x()).eval_bool(&t).is_err());
}

/// One aggregate accumulator, the reference's way: every value copied.
fn reference_aggregate(func: AggFunc, args: &[Option<Value>]) -> Value {
    let values: Vec<&Value> = args.iter().flatten().filter(|v| !v.is_null()).collect();
    match func {
        AggFunc::Count if args.iter().all(Option::is_none) => Value::Int(args.len() as i64),
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Sum => values.iter().fold(Value::Null, |acc, v| match (acc, v) {
            (Value::Null, v) => (*v).clone(),
            (Value::Int(a), Value::Int(b)) => Value::Int(a + b),
            (a, b) => Value::Float(a.as_float().unwrap() + b.as_float().unwrap()),
        }),
        AggFunc::Min | AggFunc::Max => values.iter().fold(Value::Null, |acc, v| {
            let better = acc.is_null()
                || match func {
                    AggFunc::Min => v.compare(&acc).unwrap().is_lt(),
                    _ => v.compare(&acc).unwrap().is_gt(),
                };
            if better {
                (*v).clone()
            } else {
                acc
            }
        }),
        AggFunc::Avg if values.is_empty() => Value::Null,
        AggFunc::Avg => Value::Float(
            values.iter().map(|v| v.as_float().unwrap()).sum::<f64>() / values.len() as f64,
        ),
    }
}

/// A grouping row: a key of any type, then two numeric columns.
fn arb_group_row() -> impl Strategy<Value = Tuple> {
    let key = prop_oneof![
        3 => (0i64..4).prop_map(Value::Int),
        2 => prop_oneof![Just(""), Just("a"), Just("b")].prop_map(Value::from),
        1 => prop_oneof![Just(float(0.0)), Just(float(-0.0)), Just(float(1.0))],
        1 => Just(Value::Null),
    ];
    let number = prop_oneof![
        4 => (-5i64..6).prop_map(Value::Int),
        1 => prop_oneof![Just(float(0.5)), Just(float(-2.0))],
        1 => Just(Value::Null),
    ];
    (key, number.clone(), number).prop_map(|(k, x, y)| Tuple::new(vec![k, x, y]))
}

fn group_schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("x", DataType::Int),
        Column::new("y", DataType::Int),
    ])
}

fn drain(mut e: impl Executor) -> Result<Vec<Tuple>> {
    e.open()?;
    let mut out = Vec::new();
    while let Some(t) = e.next()? {
        out.push(t);
    }
    e.close()?;
    Ok(out)
}

/// The aggregates under test: `COUNT(*)`, and each function over a column
/// (read in place) and over `x + y` (computed).
fn aggregates() -> Vec<(AggFunc, Option<Expr>, Arc<str>)> {
    let sum = Expr::binary(BinOp::Add, Expr::column("x"), Expr::column("y"));
    let mut aggs = vec![(AggFunc::Count, None, "#agg0".into())];
    for f in [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ] {
        for arg in [Expr::column("x"), sum.clone()] {
            aggs.push((f, Some(arg), format!("#agg{}", aggs.len()).into()));
        }
    }
    aggs
}

/// `rows` aggregated by a linear scan: groups by exact value (as printed
/// by `Debug`, so 1 and 1.0, and 0.0 and -0.0, are apart) in first-seen
/// order; one group with no key when `grouped` is false.
fn reference_groups(rows: &[Tuple], grouped: bool) -> Vec<Vec<Value>> {
    let mut groups: Vec<(String, Value, Vec<&Tuple>)> = Vec::new();
    if !grouped {
        groups.push((String::new(), Value::Null, Vec::new()));
    }
    for t in rows {
        let key = if grouped {
            format!("{:?}", t.get(0))
        } else {
            String::new()
        };
        match groups.iter_mut().find(|(k, _, _)| *k == key) {
            Some((_, _, members)) => members.push(t),
            None => groups.push((key, t.get(0).clone(), vec![t])),
        }
    }
    let sum = |t: &Tuple| {
        binary(BinOp::Add, CExpr::Column(1), CExpr::Column(2))
            .eval(t)
            .unwrap()
    };
    groups
        .into_iter()
        .map(|(_, key, members)| {
            let mut row = if grouped { vec![key] } else { Vec::new() };
            row.push(reference_aggregate(
                AggFunc::Count,
                &vec![None; members.len()],
            ));
            for f in [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ] {
                let x: Vec<_> = members.iter().map(|t| Some(t.get(1).clone())).collect();
                let x_plus_y: Vec<_> = members.iter().map(|t| Some(sum(t))).collect();
                row.push(reference_aggregate(f, &x));
                row.push(reference_aggregate(f, &x_plus_y));
            }
            row
        })
        .collect()
}

fn rows_text(rows: &[Tuple]) -> Vec<String> {
    rows.iter().map(|t| format!("{:?}", t.values())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn predicates_match_the_copying_reference(
        e in arb_expr(3),
        rows in proptest::collection::vec(arb_row(), 1..8),
    ) {
        for t in &rows {
            let want = reference(&e, t);
            let want_bool = text(want.as_ref().map_err(Clone::clone).and_then(truth));
            prop_assert_eq!(text(e.eval_bool(t)), want_bool, "{:?} over {:?}", e, t);
            prop_assert_eq!(text(e.eval(t)), text(want), "{:?} over {:?}", e, t);
            let of_eval = e.eval(t).and_then(|v| truth(&v));
            prop_assert_eq!(text(e.eval_bool(t)), text(of_eval), "{:?} over {:?}", e, t);
        }
    }

    #[test]
    fn like_matches_the_char_vector_reference(
        text in arb_chars(&['a', 'b', 'é', '日']),
        pattern in arb_chars(&['a', 'é', '日', '%', '_']),
    ) {
        prop_assert_eq!(
            like_match(&text, &pattern),
            like_reference(&text, &pattern),
            "{:?} LIKE {:?}", text, pattern
        );
    }

    #[test]
    fn group_by_and_global_aggregates_match_the_reference(
        rows in proptest::collection::vec(arb_group_row(), 0..40),
    ) {
        for grouped in [true, false] {
            let group_by = [ColumnRef { qualifier: None, name: "k".into() }];
            let group_by = if grouped { &group_by[..] } else { &[] };
            let aggs = aggregates();
            let names: Vec<Column> = group_by
                .iter()
                .map(|g| Column::new(g.name.clone(), DataType::Int))
                .chain(aggs.iter().map(|(_, _, n)| Column::new(n.clone(), DataType::Int)))
                .collect();
            let child = ValuesExec::new(group_schema(), rows.clone());
            let agg = AggregateExec::new(Box::new(child), group_by, &aggs, Schema::new(names))
                .unwrap();
            let got = drain(agg).unwrap();
            let want: Vec<Tuple> =
                reference_groups(&rows, grouped).into_iter().map(Tuple::new).collect();
            prop_assert_eq!(rows_text(&got), rows_text(&want), "grouped: {}", grouped);
        }
    }

    #[test]
    fn distinct_keeps_each_rows_first_occurrence(
        rows in proptest::collection::vec(arb_group_row(), 0..40),
    ) {
        let got = drain(DistinctExec::new(Box::new(ValuesExec::new(group_schema(), rows.clone()))))
            .unwrap();
        let mut want: Vec<&Tuple> = Vec::new();
        for t in &rows {
            if !want.iter().any(|w| format!("{w:?}") == format!("{t:?}")) {
                want.push(t);
            }
        }
        let want: Vec<Tuple> = want.into_iter().cloned().collect();
        prop_assert_eq!(rows_text(&got), rows_text(&want));
    }
}
