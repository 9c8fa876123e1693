//! Mutation harness for the placeholder-dataflow verifier.
//!
//! Each [`Mutation`] is a *corruption class*: a small, targeted edit that
//! turns a valid asyncified plan into one violating a specific clash rule
//! or structural invariant. The harness (see `tests/mutations.rs`)
//! asserts that [`crate::verify_async`] rejects every applicable
//! corruption of every base plan — i.e. the verifier actually has teeth,
//! rather than accepting everything.

use crate::verify::{refs_any, same_ref};
use std::sync::Arc;
use wsq_common::{Column, DataType, Schema};
use wsq_engine::plan::{EvBinding, PhysPlan, RerankScorer};
use wsq_sql::ast::{AggFunc, BinOp, ColumnRef, Expr, Literal};

/// A corruption class. Every variant breaks a specific verifier rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Splice out a ReqSync entirely: its placeholders escape the root.
    DropReqSync,
    /// Remove one attribute from a ReqSync's set: partial coverage.
    StripSyncAttr,
    /// Wrap a ReqSync in a second, identical one: consolidation failure.
    DuplicateReqSync,
    /// Push a carried selection back below its ReqSync: the predicate
    /// reads placeholders (clash case 1).
    SinkCarriedFilter,
    /// Swap a Sort below the ReqSync feeding it (clash case 3 analogue).
    HoistSortBelowSync,
    /// Insert an Aggregate directly under a ReqSync (clash case 3).
    AggregateBelowSync,
    /// Insert a Distinct directly under a ReqSync (clash case 3).
    DistinctBelowSync,
    /// Insert a Limit directly under a ReqSync (clash case 3 analogue).
    LimitBelowSync,
    /// Insert, under a ReqSync, a projection that drops the placeholder
    /// attributes (clash case 2).
    ProjectAwayPlaceholder,
    /// Insert, under a ReqSync, a projection computing over a
    /// placeholder attribute (clash case 1).
    ComputeOverPlaceholder,
    /// Rebind a dependent join's virtual table to a may-be-placeholder
    /// attribute of its outer side (percolation's flush rule).
    BindToPlaceholder,
    /// Replace an AEVScan with a synchronous EVScan (structural).
    DesyncScan,
    /// Erase the stamped cap from a ReqSync (resource-bound rule:
    /// cap-dropped — caught by `verify_bounds` against the session's
    /// declared cap).
    DropStampedCap,
    /// Push a Rerank beneath the ReqSync that patches its score column:
    /// the scorer would order tuples by unresolved placeholders
    /// (rerank-over-placeholder — the §4.5.2 extension for QR2-style
    /// third-party reranking).
    SinkRerankBelowSync,
}

/// Every corruption class, for exhaustive harnesses.
pub const ALL_MUTATIONS: &[Mutation] = &[
    Mutation::DropReqSync,
    Mutation::StripSyncAttr,
    Mutation::DuplicateReqSync,
    Mutation::SinkCarriedFilter,
    Mutation::HoistSortBelowSync,
    Mutation::AggregateBelowSync,
    Mutation::DistinctBelowSync,
    Mutation::LimitBelowSync,
    Mutation::ProjectAwayPlaceholder,
    Mutation::ComputeOverPlaceholder,
    Mutation::BindToPlaceholder,
    Mutation::DesyncScan,
    Mutation::DropStampedCap,
    Mutation::SinkRerankBelowSync,
];

/// Apply `m` to the first applicable site in `plan`; `None` when the
/// plan has no such site.
pub fn apply(plan: &PhysPlan, m: Mutation) -> Option<PhysPlan> {
    // Each rewrite edits the node it accepts in place and says whether
    // it fired.
    let rewrite: &mut dyn FnMut(&mut PhysPlan) -> bool = match m {
        Mutation::DropReqSync => &mut |p| match p {
            PhysPlan::ReqSync { input, .. } => {
                *p = std::mem::take(&mut **input);
                true
            }
            _ => false,
        },
        Mutation::StripSyncAttr => &mut |p| match p {
            PhysPlan::ReqSync { attrs, .. } if !attrs.is_empty() => {
                attrs.remove(0);
                true
            }
            _ => false,
        },
        Mutation::DuplicateReqSync => &mut |p| match p {
            PhysPlan::ReqSync { input, attrs, cap } => {
                let (attrs, cap) = (attrs.clone(), *cap);
                insert_above(input, |input| PhysPlan::ReqSync { input, attrs, cap });
                true
            }
            _ => false,
        },
        Mutation::SinkCarriedFilter => &mut |p| match p {
            PhysPlan::Filter { input, predicate } => match &mut **input {
                PhysPlan::ReqSync {
                    input: below,
                    attrs,
                    ..
                } if refs_any(predicate, attrs) => {
                    let predicate = predicate.clone();
                    insert_above(below, |input| PhysPlan::Filter { input, predicate });
                    *p = std::mem::take(&mut **input);
                    true
                }
                _ => false,
            },
            _ => false,
        },
        Mutation::HoistSortBelowSync => &mut |p| match p {
            PhysPlan::Sort { input, keys } => match &mut **input {
                PhysPlan::ReqSync { input: below, .. } => {
                    let keys = keys.clone();
                    insert_above(below, |input| PhysPlan::Sort { input, keys });
                    *p = std::mem::take(&mut **input);
                    true
                }
                _ => false,
            },
            _ => false,
        },
        Mutation::AggregateBelowSync => &mut |p| {
            insert_below_sync(p, |input| PhysPlan::Aggregate {
                input,
                group_by: vec![],
                aggs: vec![(AggFunc::Count, None, "n".into())],
            })
        },
        Mutation::DistinctBelowSync => {
            &mut |p| insert_below_sync(p, |input| PhysPlan::Distinct { input })
        }
        Mutation::LimitBelowSync => {
            &mut |p| insert_below_sync(p, |input| PhysPlan::Limit { input, n: 1 })
        }
        Mutation::ProjectAwayPlaceholder => &mut |p| match p {
            PhysPlan::ReqSync { input, attrs, .. } if !attrs.is_empty() => {
                let in_schema = input.schema();
                let kept: Vec<&Column> = in_schema
                    .columns()
                    .iter()
                    .filter(|c| {
                        let r = ColumnRef {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        };
                        !attrs.iter().any(|a| same_ref(&r, a))
                    })
                    .collect();
                if kept.is_empty() {
                    return false;
                }
                let items = kept
                    .iter()
                    .map(|c| {
                        (
                            Expr::Column(ColumnRef {
                                qualifier: c.qualifier.clone(),
                                name: c.name.clone(),
                            }),
                            c.name.clone(),
                        )
                    })
                    .collect();
                let schema = Schema::new(
                    kept.iter()
                        .map(|c| Column::new(c.name.clone(), c.dtype))
                        .collect(),
                );
                insert_above(input, |input| PhysPlan::Project {
                    input,
                    items,
                    schema,
                });
                true
            }
            _ => false,
        },
        Mutation::ComputeOverPlaceholder => &mut |p| match p {
            PhysPlan::ReqSync { input, attrs, .. } if !attrs.is_empty() => {
                let victim = attrs[0].clone();
                insert_above(input, |input| PhysPlan::Project {
                    input,
                    items: vec![(
                        Expr::binary(
                            BinOp::Eq,
                            Expr::Column(victim),
                            Expr::Literal(Literal::Int(0)),
                        ),
                        "computed".into(),
                    )],
                    schema: Schema::new(vec![Column::new("computed", DataType::Int)]),
                });
                true
            }
            _ => false,
        },
        Mutation::BindToPlaceholder => &mut |p| match p {
            PhysPlan::DependentJoin { left, right } => {
                first_aev_attr(left).is_some_and(|attr| rebind(right, &attr))
            }
            _ => false,
        },
        Mutation::DesyncScan => &mut |p| match p {
            PhysPlan::AEVScan(spec) => {
                *p = PhysPlan::EVScan(spec.clone());
                true
            }
            _ => false,
        },
        Mutation::SinkRerankBelowSync => &mut |p| {
            insert_below_sync(p, |input| PhysPlan::Rerank {
                input,
                scorer: RerankScorer::UrlLen,
            })
        },
        Mutation::DropStampedCap => &mut |p| match p {
            PhysPlan::ReqSync {
                cap: cap @ Some(_), ..
            } => {
                *cap = None;
                true
            }
            _ => false,
        },
    };
    let mut mutated = plan.clone();
    rewrite_first(&mut mutated, rewrite).then_some(mutated)
}

/// Replace `*slot` with `wrap(<the old *slot>)`.
fn insert_above(slot: &mut PhysPlan, wrap: impl FnOnce(Box<PhysPlan>) -> PhysPlan) {
    *slot = wrap(Box::new(std::mem::take(slot)));
}

/// If `plan` is a ReqSync with a non-empty attribute set, insert
/// `wrap(<its input>)` directly beneath it.
fn insert_below_sync(plan: &mut PhysPlan, wrap: impl FnOnce(Box<PhysPlan>) -> PhysPlan) -> bool {
    match plan {
        PhysPlan::ReqSync { input, attrs, .. } if !attrs.is_empty() => {
            insert_above(input, wrap);
            true
        }
        _ => false,
    }
}

/// First external attribute of an AEVScan whose placeholders are *not*
/// patched inside `plan` itself (no ReqSync between it and this root).
fn first_aev_attr(plan: &PhysPlan) -> Option<ColumnRef> {
    match plan {
        PhysPlan::AEVScan(s) => s.external_attrs().into_iter().next(),
        PhysPlan::ReqSync { .. } => None,
        _ => plan.children().find_map(first_aev_attr),
    }
}

/// Point the spec under a dependent join's right side at `col`; says
/// whether there was an asynchronous scan to rebind.
fn rebind(plan: &mut PhysPlan, col: &ColumnRef) -> bool {
    match plan {
        PhysPlan::AEVScan(spec) => {
            let mut bindings = spec.bindings().to_vec();
            let binding = EvBinding::Column(col.clone());
            match bindings.first_mut() {
                Some(first) => *first = binding,
                None => bindings.push(binding),
            }
            *spec = Arc::new(spec.with_bindings(bindings));
            true
        }
        PhysPlan::Filter { input, .. } | PhysPlan::ReqSync { input, .. } => rebind(input, col),
        _ => false,
    }
}

/// Pre-order rewrite: apply `f` to the first node it accepts (a join's
/// outer side is searched before its inner side); says whether any node
/// accepted.
fn rewrite_first(plan: &mut PhysPlan, f: &mut dyn FnMut(&mut PhysPlan) -> bool) -> bool {
    f(plan) || plan.children_mut().any(|c| rewrite_first(c, f))
}
