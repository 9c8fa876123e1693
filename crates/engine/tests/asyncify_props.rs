//! Property tests for the asynchronous-iteration plan transformation:
//! for *arbitrary* plan trees (including bushy shapes the SQL planner
//! never builds), asyncification must preserve the safety invariants that
//! make placeholder execution sound.
//!
//! Invariants checked (derived from the clash rules of §4.5.2):
//!
//! 1. No synchronous `EVScan` survives; their count becomes the
//!    `AEVScan` count.
//! 2. At the root, every `AEVScan` is *covered* by a `ReqSync` (no
//!    placeholder can escape the plan).
//! 3. Order/cardinality-sensitive operators (`Sort`, `Aggregate`,
//!    `Distinct`, `Limit`) never see uncovered placeholders.
//! 4. No `Filter` predicate reads an attribute of an uncovered `AEVScan`
//!    in its own subtree.
//! 5. Dependent-join bindings never read uncovered placeholder
//!    attributes of their outer side.
//! 6. The transformation is idempotent.

use proptest::prelude::*;
use std::sync::Arc;
use wsq_common::{Column, DataType, Schema};
use wsq_engine::asyncify;
use wsq_engine::plan::{EvBinding, EvSpec, PhysPlan, PlacementStrategy, VTableKind};
use wsq_sql::ast::{BinOp, ColumnRef, Expr};

/// Tables available to the generator (name, columns).
const TABLES: &[(&str, &[&str])] = &[
    ("States", &["Name", "Population"]),
    ("Sigs", &["Name"]),
    ("R", &["N"]),
];

fn scan(i: usize) -> PhysPlan {
    let (name, cols) = TABLES[i % TABLES.len()];
    PhysPlan::SeqScan {
        table: name.into(),
        alias: name.into(),
        schema: Schema::new(
            cols.iter()
                .map(|c| Column::qualified(name, *c, DataType::Varchar))
                .collect(),
        ),
    }
}

/// A random plan tree. `vt` counts virtual scans so each gets a unique
/// alias.
fn arb_plan(depth: u32) -> BoxedStrategy<PhysPlan> {
    let leaf = (0..TABLES.len()).prop_map(scan).boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = arb_plan(depth - 1);
    prop_oneof![
        2 => leaf,
        // Dependent join with a fresh virtual scan bound to the leftmost
        // available column of the outer subtree.
        3 => (inner.clone(), any::<u8>(), any::<bool>()).prop_map(|(left, salt, pages)| {
            let left_schema = left.schema();
            let bind_col = left_schema.column(0).clone();
            let mut spec = EvSpec::new(
                if pages { VTableKind::WebPages } else { VTableKind::WebCount },
                "AV",
                format!("V{salt}"),
                vec![EvBinding::Column(ColumnRef {
                    qualifier: bind_col.qualifier.clone(),
                    name: bind_col.name.clone(),
                })],
                true,
            );
            spec.rank_limit = 3;
            PhysPlan::DependentJoin {
                left: Box::new(left),
                right: Box::new(PhysPlan::EVScan(Arc::new(spec))),
            }
        }),
        // Filter: either on a base column or on a virtual attribute of
        // the subtree (the latter exercises carried selections).
        2 => (inner.clone(), any::<bool>()).prop_map(|(input, on_attr)| {
            let attr = if on_attr {
                first_vattr(&input)
            } else {
                None
            };
            let target = attr.unwrap_or_else(|| {
                let s = input.schema();
                let c = s.column(0);
                ColumnRef { qualifier: c.qualifier.clone(), name: c.name.clone() }
            });
            PhysPlan::Filter {
                predicate: Expr::binary(
                    BinOp::NotEq,
                    Expr::Column(target),
                    Expr::Literal(wsq_sql::ast::Literal::Int(0)),
                ),
                input: Box::new(input),
            }
        }),
        // Joins.
        2 => (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(l, r, cross)| {
            if cross {
                PhysPlan::CrossProduct { left: Box::new(l), right: Box::new(r) }
            } else {
                let lc = l.schema().column(0).clone();
                let rc = r.schema().column(0).clone();
                PhysPlan::NestedLoopJoin {
                    predicate: Expr::binary(
                        BinOp::Eq,
                        Expr::Column(ColumnRef { qualifier: lc.qualifier.clone(), name: lc.name }),
                        Expr::Column(ColumnRef { qualifier: rc.qualifier.clone(), name: rc.name }),
                    ),
                    left: Box::new(l),
                    right: Box::new(r),
                }
            }
        }),
        // Order/cardinality-sensitive wrappers.
        1 => inner.clone().prop_map(|input| {
            let c = input.schema().column(0).clone();
            PhysPlan::Sort {
                keys: vec![(
                    Expr::Column(ColumnRef { qualifier: c.qualifier.clone(), name: c.name }),
                    true,
                )],
                input: Box::new(input),
            }
        }),
        1 => inner.clone().prop_map(|input| PhysPlan::Distinct { input: Box::new(input) }),
        1 => inner.prop_map(|input| PhysPlan::Limit { n: 7, input: Box::new(input) }),
    ]
    .boxed()
}

/// The first virtual attribute (e.g. `V3.Count`) found in the subtree.
fn first_vattr(plan: &PhysPlan) -> Option<ColumnRef> {
    match plan {
        PhysPlan::EVScan(s) | PhysPlan::AEVScan(s) => s.external_attrs().into_iter().next(),
        PhysPlan::SeqScan { .. } | PhysPlan::IndexScan { .. } | PhysPlan::Values { .. } => None,
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::Aggregate { input, .. }
        | PhysPlan::Distinct { input }
        | PhysPlan::Limit { input, .. }
        | PhysPlan::Rerank { input, .. }
        | PhysPlan::ReqSync { input, .. } => first_vattr(input),
        PhysPlan::DependentJoin { left, right }
        | PhysPlan::NestedLoopJoin { left, right, .. }
        | PhysPlan::CrossProduct { left, right } => {
            first_vattr(right).or_else(|| first_vattr(left))
        }
    }
}

/// Attributes of AEVScans in `plan` NOT covered by any ReqSync inside
/// `plan` itself.
fn uncovered_attrs(plan: &PhysPlan) -> Vec<ColumnRef> {
    match plan {
        PhysPlan::ReqSync { .. } => vec![], // everything below is covered
        PhysPlan::AEVScan(s) => s.external_attrs(),
        PhysPlan::EVScan(s) => s.external_attrs(), // shouldn't remain, but count it
        PhysPlan::SeqScan { .. } | PhysPlan::IndexScan { .. } | PhysPlan::Values { .. } => vec![],
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::Aggregate { input, .. }
        | PhysPlan::Distinct { input }
        | PhysPlan::Limit { input, .. }
        | PhysPlan::Rerank { input, .. } => uncovered_attrs(input),
        PhysPlan::DependentJoin { left, right }
        | PhysPlan::NestedLoopJoin { left, right, .. }
        | PhysPlan::CrossProduct { left, right } => {
            let mut v = uncovered_attrs(left);
            v.extend(uncovered_attrs(right));
            v
        }
    }
}

fn refs_any(expr: &Expr, attrs: &[ColumnRef]) -> bool {
    expr.columns().iter().any(|c| {
        attrs.iter().any(|a| {
            a.name.eq_ignore_ascii_case(&c.name)
                && match (&a.qualifier, &c.qualifier) {
                    (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
                    _ => true,
                }
        })
    })
}

/// Walk the transformed plan checking invariants 3–5.
fn check_safety(plan: &PhysPlan) -> Result<(), String> {
    match plan {
        PhysPlan::Sort { input, .. }
        | PhysPlan::Aggregate { input, .. }
        | PhysPlan::Distinct { input }
        | PhysPlan::Limit { input, .. }
        | PhysPlan::Rerank { input, .. } => {
            if !uncovered_attrs(input).is_empty() {
                return Err(format!(
                    "order/cardinality-sensitive operator over uncovered placeholders:\n{plan}"
                ));
            }
            check_safety(input)
        }
        PhysPlan::Filter { input, predicate } => {
            if refs_any(predicate, &uncovered_attrs(input)) {
                return Err(format!("filter reads uncovered placeholder attrs:\n{plan}"));
            }
            check_safety(input)
        }
        PhysPlan::Project { input, items, .. } => {
            // Computed items must not read uncovered attrs.
            let uncovered = uncovered_attrs(input);
            for (e, _) in items {
                if !matches!(e, Expr::Column(_)) && refs_any(e, &uncovered) {
                    return Err(format!(
                        "projection computes over uncovered placeholder attrs:\n{plan}"
                    ));
                }
            }
            check_safety(input)
        }
        PhysPlan::DependentJoin { left, right } => {
            // Bindings must not read uncovered attrs of the outer side.
            fn spec_of(p: &PhysPlan) -> Option<&EvSpec> {
                match p {
                    PhysPlan::EVScan(s) | PhysPlan::AEVScan(s) => Some(s),
                    PhysPlan::Filter { input, .. } | PhysPlan::ReqSync { input, .. } => {
                        spec_of(input)
                    }
                    _ => None,
                }
            }
            if let Some(spec) = spec_of(right) {
                let uncovered = uncovered_attrs(left);
                for b in spec.bindings() {
                    if let EvBinding::Column(c) = b {
                        if refs_any(&Expr::Column(c.clone()), &uncovered) {
                            return Err(format!(
                                "dependent-join binding reads uncovered placeholders:\n{plan}"
                            ));
                        }
                    }
                }
            }
            check_safety(left)?;
            check_safety(right)
        }
        PhysPlan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let mut uncovered = uncovered_attrs(left);
            uncovered.extend(uncovered_attrs(right));
            if refs_any(predicate, &uncovered) {
                return Err(format!(
                    "join predicate reads uncovered placeholder attrs:\n{plan}"
                ));
            }
            check_safety(left)?;
            check_safety(right)
        }
        PhysPlan::CrossProduct { left, right } => {
            check_safety(left)?;
            check_safety(right)
        }
        PhysPlan::ReqSync { input, .. } => check_safety(input),
        PhysPlan::SeqScan { .. }
        | PhysPlan::IndexScan { .. }
        | PhysPlan::Values { .. }
        | PhysPlan::EVScan(_)
        | PhysPlan::AEVScan(_) => Ok(()),
    }
}

fn count(plan: &PhysPlan, pred: fn(&PhysPlan) -> bool) -> usize {
    plan.count_nodes(&pred)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Round-trip through the independent static verifier
    /// (`wsq-analyze`): every plan `asyncify` emits must pass the
    /// placeholder-dataflow checks clean, under both placement
    /// strategies.
    #[test]
    fn verifier_accepts_asyncify_output(
        plan in arb_plan(4),
        strategy in prop_oneof![
            Just(PlacementStrategy::Full),
            Just(PlacementStrategy::InsertionOnly)
        ],
    ) {
        let out = asyncify(plan, strategy);
        if let Err(e) = wsq_analyze::verify_async(&out) {
            prop_assert!(false, "verifier rejected asyncify output:\n{}\nplan:\n{}", e, out);
        }
    }

    #[test]
    fn asyncify_invariants_hold(
        plan in arb_plan(4),
        strategy in prop_oneof![
            Just(PlacementStrategy::Full),
            Just(PlacementStrategy::InsertionOnly)
        ],
    ) {
        check_invariants(plan, strategy)?;
    }
}

/// Invariants 1–6 for one plan under one placement strategy.
fn check_invariants(plan: PhysPlan, strategy: PlacementStrategy) -> Result<(), TestCaseError> {
    let ev_before = count(&plan, |p| matches!(p, PhysPlan::EVScan(_)));
    let out = asyncify(plan, strategy);

    // 1. Scan conversion.
    prop_assert_eq!(count(&out, |p| matches!(p, PhysPlan::EVScan(_))), 0);
    prop_assert_eq!(
        count(&out, |p| matches!(p, PhysPlan::AEVScan(_))),
        ev_before
    );
    // 2. Root coverage.
    prop_assert!(
        uncovered_attrs(&out).is_empty(),
        "uncovered placeholders escape the root:\n{}",
        out
    );
    // 3–5. Clash safety.
    if let Err(msg) = check_safety(&out) {
        prop_assert!(false, "{}", msg);
    }
    // 6. Idempotency.
    let twice = asyncify(out.clone(), strategy);
    prop_assert_eq!(twice, out);
    Ok(())
}

fn count_spec(alias: &str) -> Arc<EvSpec> {
    let mut spec = EvSpec::new(
        VTableKind::WebCount,
        "AV",
        alias,
        vec![EvBinding::Column(ColumnRef {
            qualifier: Some("States".into()),
            name: "Name".into(),
        })],
        true,
    );
    spec.rank_limit = 3;
    Arc::new(spec)
}

/// Regression for `consolidate_adjacent`'s flush-point pairing: when the
/// input plan carries its own (partially covering) ReqSync at the root,
/// re-asyncification flushes the still-uncovered attributes into a new
/// ReqSync directly above it — the pair must be merged into one, which
/// the static verifier now asserts (it rejects adjacent ReqSync pairs).
#[test]
fn consolidation_merges_carried_reqsync_at_flush_point() {
    let v1 = count_spec("V1");
    let v2 = count_spec("V2");
    let v1_attrs = v1.external_attrs();
    let v2_attrs = v2.external_attrs();
    let nested = PhysPlan::DependentJoin {
        left: Box::new(PhysPlan::DependentJoin {
            left: Box::new(scan(0)),
            right: Box::new(PhysPlan::AEVScan(v1)),
        }),
        right: Box::new(PhysPlan::AEVScan(v2)),
    };
    // The carried ReqSync covers only V1; V2's attributes must rise past
    // it and flush at the root.
    let carried = PhysPlan::ReqSync {
        input: Box::new(nested.clone()),
        attrs: v1_attrs.clone(),
        cap: None,
    };
    let out = asyncify(carried, PlacementStrategy::Full);

    // The analyzer accepts the consolidated plan ...
    wsq_analyze::verify_async(&out)
        .unwrap_or_else(|e| panic!("consolidated plan rejected:\n{e}\nplan:\n{out}"));
    // ... which has exactly one ReqSync, covering both scans.
    assert_eq!(
        count(&out, |p| matches!(p, PhysPlan::ReqSync { .. })),
        1,
        "adjacent pair not merged:\n{out}"
    );
    let PhysPlan::ReqSync { attrs, .. } = &out else {
        panic!("expected ReqSync at root:\n{out}");
    };
    for a in v1_attrs.iter().chain(&v2_attrs) {
        assert!(
            attrs.iter().any(|s| s == a),
            "merged ReqSync missing {a:?}:\n{out}"
        );
    }

    // And the shape consolidation removes — the un-merged adjacent pair —
    // is exactly what the verifier rejects.
    let unmerged = PhysPlan::ReqSync {
        input: Box::new(PhysPlan::ReqSync {
            input: Box::new(nested),
            attrs: v1_attrs,
            cap: None,
        }),
        attrs: v2_attrs,
        cap: None,
    };
    let err = wsq_analyze::verify_async(&unmerged).expect_err("adjacent pair must be rejected");
    assert!(
        err.violations
            .iter()
            .any(|v| v.rule == wsq_analyze::Rule::AdjacentReqSync),
        "expected AdjacentReqSync, got: {err}"
    );
}

/// The shrunk failing case recorded for `asyncify_invariants_hold`: a
/// single `States ⋈ EVScan` dependent join under insertion-only
/// placement.
#[test]
fn asyncify_invariants_hold_for_the_recorded_states_join() {
    let plan = PhysPlan::DependentJoin {
        left: Box::new(scan(0)),
        right: Box::new(PhysPlan::EVScan(count_spec("V0"))),
    };
    check_invariants(plan, PlacementStrategy::InsertionOnly).unwrap();
}
