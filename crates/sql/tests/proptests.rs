//! Parser properties: no input panics the parser, and what the AST prints
//! parses back to the same AST — literals of every kind, expressions and
//! whole `SELECT` statements, compared with `==`. View definitions are
//! stored as printed SQL and parsed again on every use, so a round trip
//! that changes a literal's type or value changes a view's answers.

use proptest::prelude::*;
use wsq_sql::ast::{
    AggFunc, BinOp, ColumnRef, Expr, Literal, OrderItem, SelectItem, SelectStmt, Statement,
    TableRef, UnOp,
};
use wsq_sql::{parse, parse_one};

/// Words the parser reads as keywords wherever a name may stand.
const KEYWORDS: [&str; 22] = [
    "select", "distinct", "from", "where", "group", "by", "having", "rerank", "order", "limit",
    "as", "and", "or", "not", "like", "in", "between", "null", "asc", "desc", "on", "union",
];

/// Identifiers, some of them non-ASCII, none of them a keyword.
fn arb_ident() -> impl Strategy<Value = String> {
    "[a-zéΩ_][a-z0-9_é]{0,6}".prop_filter("not a keyword", |s| {
        !KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k))
    })
}

/// Every finite non-negative float: any bit pattern (huge, tiny and
/// subnormal ones included), integral values, and short decimals. A
/// negative literal prints as `-x`, which parses as the negation of `x`:
/// equal in value, different in shape.
fn arb_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>()
            .prop_map(f64::abs)
            .prop_filter("finite", |x| x.is_finite()),
        (0u32..1_000_000).prop_map(f64::from),
        (0i32..1000, 1u32..100).prop_map(|(a, b)| a as f64 + 1.0 / b as f64),
    ]
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        // Non-negative, for the reason given at `arb_float`, and
        // `i64::MIN`, whose magnitude is no `i64`: it must print as a
        // literal that reads back as itself.
        (0..i64::MAX).prop_map(Literal::Int),
        Just(Literal::Int(i64::MIN)),
        arb_float().prop_map(Literal::Float),
        // Quotes and non-ASCII text.
        "[a-z 'éΩ]{0,12}".prop_map(|s| Literal::Str(s.into())),
        Just(Literal::Null),
    ]
}

fn arb_column() -> impl Strategy<Value = ColumnRef> {
    (prop::option::of(arb_ident()), arb_ident()).prop_map(|(q, n)| ColumnRef {
        qualifier: q.map(Into::into),
        name: n.into(),
    })
}

fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        arb_literal().prop_map(Expr::Literal),
        arb_column().prop_map(Expr::Column),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = arb_expr(depth - 1);
    prop_oneof![
        3 => leaf,
        3 => (
            prop_oneof![
                Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul), Just(BinOp::Div),
                Just(BinOp::Eq), Just(BinOp::NotEq), Just(BinOp::Lt), Just(BinOp::LtEq),
                Just(BinOp::Gt), Just(BinOp::GtEq), Just(BinOp::And), Just(BinOp::Or),
            ],
            inner.clone(),
            inner.clone()
        )
            .prop_map(|(op, l, r)| Expr::binary(op, l, r)),
        1 => inner.clone().prop_map(|e| Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(e)
        }),
        1 => inner.clone().prop_map(|e| Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(e)
        }),
        1 => (
            prop_oneof![
                Just(AggFunc::Count), Just(AggFunc::Sum), Just(AggFunc::Min),
                Just(AggFunc::Max), Just(AggFunc::Avg),
            ],
            prop::option::of(inner.clone()),
        )
            .prop_map(|(func, arg)| Expr::Agg {
                // Only COUNT takes `*`.
                arg: match (func, arg) {
                    (AggFunc::Count, arg) => arg.map(Box::new),
                    (_, arg) => Some(Box::new(arg.unwrap_or_else(|| Expr::column("x")))),
                },
                func,
            }),
        1 => (inner.clone(), "[a-z%_'é]{0,6}", any::<bool>()).prop_map(|(e, p, negated)| {
            Expr::Like {
                expr: Box::new(e),
                pattern: Box::new(Expr::Literal(Literal::Str(p.into()))),
                negated,
            }
        }),
        1 => (inner.clone(), prop::collection::vec(arb_literal(), 1..4), any::<bool>())
            .prop_map(|(e, lits, negated)| Expr::InList {
                expr: Box::new(e),
                list: lits.into_iter().map(Expr::Literal).collect(),
                negated,
            }),
        1 => (inner.clone(), arb_literal(), arb_literal(), any::<bool>())
            .prop_map(|(e, lo, hi, negated)| Expr::Between {
                expr: Box::new(e),
                low: Box::new(Expr::Literal(lo)),
                high: Box::new(Expr::Literal(hi)),
                negated,
            }),
    ]
    .boxed()
}

/// A whole SELECT; with `depth > 0` its expressions may hold scalar and
/// `IN` subqueries of their own.
fn arb_select(depth: u32) -> BoxedStrategy<SelectStmt> {
    let expr = if depth == 0 {
        arb_expr(2)
    } else {
        let sub = arb_select(depth - 1);
        prop_oneof![
            4 => arb_expr(2),
            1 => sub.clone().prop_map(|q| Expr::Subquery(Box::new(q))),
            1 => (arb_expr(1), sub, any::<bool>()).prop_map(|(e, q, negated)| {
                Expr::InSubquery {
                    expr: Box::new(e),
                    query: Box::new(q),
                    negated,
                }
            }),
        ]
        .boxed()
    };
    let item = prop_oneof![
        1 => Just(SelectItem::Star),
        4 => (expr.clone(), prop::option::of(arb_ident())).prop_map(|(expr, alias)| {
            SelectItem::Expr {
                expr,
                alias: alias.map(Into::into),
            }
        }),
    ];
    let table = (arb_ident(), prop::option::of(arb_ident())).prop_map(|(table, alias)| TableRef {
        table: table.into(),
        alias: alias.map(Into::into),
    });
    let order = (expr.clone(), any::<bool>()).prop_map(|(expr, desc)| OrderItem { expr, desc });
    (
        (any::<bool>(), prop::collection::vec(item, 1..4)),
        prop::collection::vec(table, 1..4),
        (
            prop::option::of(expr.clone()),
            prop::collection::vec(arb_column(), 0..3),
        ),
        (prop::option::of(expr), prop::option::of(arb_ident())),
        prop::collection::vec(order, 0..3),
        prop::option::of(0..i64::MAX as u64),
    )
        .prop_map(
            |(
                (distinct, items),
                from,
                (where_clause, group_by),
                (having, rerank),
                order_by,
                limit,
            )| {
                SelectStmt {
                    distinct,
                    items,
                    from,
                    where_clause,
                    group_by,
                    having,
                    rerank,
                    order_by,
                    limit,
                }
            },
        )
        .boxed()
}

/// The one statement of `sql`, which must be a SELECT.
fn select_of(sql: &str) -> SelectStmt {
    match parse_one(sql) {
        Ok(Statement::Select(s)) => s,
        other => panic!("{sql}: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every literal prints as SQL that reads back as the same literal.
    #[test]
    fn literal_display_reparses(lit in arb_literal()) {
        let sql = format!("SELECT {lit} FROM t");
        let got = select_of(&sql);
        prop_assert_eq!(
            &got.items[0],
            &SelectItem::Expr { expr: Expr::Literal(lit), alias: None }
        );
    }

    /// Pretty-printed expressions re-parse to the same AST. (The printer
    /// fully parenthesizes, so precedence can't distort the round trip.)
    #[test]
    fn expression_display_reparses(expr in arb_expr(3)) {
        let sql = format!("SELECT {expr} FROM t");
        let got = select_of(&sql);
        prop_assert_eq!(&got.items[0], &SelectItem::Expr { expr, alias: None });
    }

    /// A whole SELECT — the form views are stored in — re-parses to the
    /// same AST.
    #[test]
    fn select_display_reparses(stmt in arb_select(1)) {
        let sql = stmt.to_string();
        prop_assert_eq!(select_of(&sql), stmt);
    }

    /// Lexer error offsets count bytes, also after non-ASCII text.
    #[test]
    fn lexer_error_offsets_are_byte_offsets(text in "[a-zé Ω']{0,10}") {
        let prefix = format!("SELECT {} ", Literal::Str(text.into()));
        let err = parse(&format!("{prefix}@ FROM t")).unwrap_err().to_string();
        let want = format!("'@' at offset {}", prefix.len());
        prop_assert!(err.contains(&want), "{} does not say {}", err, want);
    }

    /// The parser never panics, whatever the input.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse(&input);
    }

    /// Nor on inputs built from SQL-ish fragments (more likely to reach
    /// deep parser states than raw noise).
    #[test]
    fn parser_never_panics_on_sqlish(
        parts in prop::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("GROUP BY"),
                Just("ORDER BY"), Just("HAVING"), Just("LIMIT"), Just("INSERT INTO"),
                Just("VALUES"), Just("CREATE TABLE"), Just("DROP INDEX"), Just("UPDATE"),
                Just("SET"), Just("DELETE"), Just("NOT"), Just("LIKE"), Just("IN"),
                Just("BETWEEN"), Just("AND"), Just("OR"), Just("("), Just(")"),
                Just(","), Just("*"), Just("="), Just("<="), Just("'text'"),
                Just("42"), Just("3.5"), Just("name"), Just("T.col"), Just(";"),
                Just("-"), Just("9223372036854775808"), Just("1e300"), Just("'é''s'"),
            ],
            0..25,
        )
    ) {
        let input = parts.join(" ");
        let _ = parse(&input);
    }
}

/// The one failure recorded for `expression_display_reparses`, and why
/// `arb_literal` draws non-negative numbers: `Literal(Int(-1))` prints as
/// `-1`, which reads back as the negation of `1` — equal in value,
/// different in shape. The negation itself then round-trips exactly.
#[test]
fn negative_int_literal_reparses_as_a_negation() {
    let neg = Expr::Unary {
        op: UnOp::Neg,
        expr: Box::new(Expr::Literal(Literal::Int(1))),
    };
    let reparse = |e: Expr| select_of(&format!("SELECT {e} FROM t")).items.remove(0);
    let want = SelectItem::Expr {
        expr: neg.clone(),
        alias: None,
    };
    assert_eq!(reparse(Expr::Literal(Literal::Int(-1))), want);
    assert_eq!(reparse(neg), want);
}
