//! Mutation harness for the placeholder-dataflow verifier.
//!
//! Each [`Mutation`] is a *corruption class*: a small, targeted edit that
//! turns a valid asyncified plan into one violating a specific clash rule
//! or structural invariant. The harness (see `tests/mutations.rs`)
//! asserts that [`crate::verify_async`] rejects every applicable
//! corruption of every base plan — i.e. the verifier actually has teeth,
//! rather than accepting everything.

// Rewrites thread `Result<PhysPlan, PhysPlan>` as rewritten-vs-unchanged
// (both sides carry the tree by value); `Err` is not an error path.
#![allow(clippy::result_large_err)]

use crate::verify::{refs_any, same_ref};
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
    /// Forge an AEVScan prefetch depth above its enclosing ReqSync's
    /// admission cap (resource-bound rule: prefetch-exceeds-cap). The
    /// ReqSync is stamped with a cap if it lacks one, so the mutated
    /// plan is exactly "clamp convention violated".
    ForgePrefetchDepth,
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
    Mutation::ForgePrefetchDepth,
    Mutation::DropStampedCap,
    Mutation::SinkRerankBelowSync,
];

/// Apply `m` to the first applicable site in `plan`; `None` when the
/// plan has no such site.
pub fn apply(plan: &PhysPlan, m: Mutation) -> Option<PhysPlan> {
    let rewrite: &mut dyn FnMut(PhysPlan) -> Result<PhysPlan, PhysPlan> = match m {
        Mutation::DropReqSync => &mut |p| match p {
            PhysPlan::ReqSync { input, .. } => Ok(*input),
            other => Err(other),
        },
        Mutation::StripSyncAttr => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap,
            } if !attrs.is_empty() => Ok(PhysPlan::ReqSync {
                input,
                attrs: attrs[1..].to_vec(),
                mode,
                cap,
            }),
            other => Err(other),
        },
        Mutation::DuplicateReqSync => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap,
            } => Ok(PhysPlan::ReqSync {
                input: Box::new(PhysPlan::ReqSync {
                    input,
                    attrs: attrs.clone(),
                    mode,
                    cap,
                }),
                attrs,
                mode,
                cap,
            }),
            other => Err(other),
        },
        Mutation::SinkCarriedFilter => &mut |p| match p {
            PhysPlan::Filter { input, predicate }
                if matches!(
                    &*input,
                    PhysPlan::ReqSync { attrs, .. } if refs_any(&predicate, attrs)
                ) =>
            {
                match *input {
                    PhysPlan::ReqSync {
                        input,
                        attrs,
                        mode,
                        cap,
                    } => Ok(PhysPlan::ReqSync {
                        input: Box::new(PhysPlan::Filter { input, predicate }),
                        attrs,
                        mode,
                        cap,
                    }),
                    _ => unreachable!("guard matched ReqSync"),
                }
            }
            other => Err(other),
        },
        Mutation::HoistSortBelowSync => &mut |p| match p {
            PhysPlan::Sort { input, keys } if matches!(&*input, PhysPlan::ReqSync { .. }) => {
                match *input {
                    PhysPlan::ReqSync {
                        input,
                        attrs,
                        mode,
                        cap,
                    } => Ok(PhysPlan::ReqSync {
                        input: Box::new(PhysPlan::Sort { input, keys }),
                        attrs,
                        mode,
                        cap,
                    }),
                    _ => unreachable!("guard matched ReqSync"),
                }
            }
            other => Err(other),
        },
        Mutation::AggregateBelowSync => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap,
            } if !attrs.is_empty() => Ok(PhysPlan::ReqSync {
                input: Box::new(PhysPlan::Aggregate {
                    input,
                    group_by: vec![],
                    aggs: vec![(AggFunc::Count, None, "n".to_string())],
                }),
                attrs,
                mode,
                cap,
            }),
            other => Err(other),
        },
        Mutation::DistinctBelowSync => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap,
            } if !attrs.is_empty() => Ok(PhysPlan::ReqSync {
                input: Box::new(PhysPlan::Distinct { input }),
                attrs,
                mode,
                cap,
            }),
            other => Err(other),
        },
        Mutation::LimitBelowSync => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap,
            } if !attrs.is_empty() => Ok(PhysPlan::ReqSync {
                input: Box::new(PhysPlan::Limit { input, n: 1 }),
                attrs,
                mode,
                cap,
            }),
            other => Err(other),
        },
        Mutation::ProjectAwayPlaceholder => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap,
            } if !attrs.is_empty() => {
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
                    return Err(PhysPlan::ReqSync {
                        input,
                        attrs,
                        mode,
                        cap,
                    });
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
                Ok(PhysPlan::ReqSync {
                    input: Box::new(PhysPlan::Project {
                        input,
                        items,
                        schema,
                    }),
                    attrs,
                    mode,
                    cap,
                })
            }
            other => Err(other),
        },
        Mutation::ComputeOverPlaceholder => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap,
            } if !attrs.is_empty() => {
                let victim = attrs[0].clone();
                Ok(PhysPlan::ReqSync {
                    input: Box::new(PhysPlan::Project {
                        input,
                        items: vec![(
                            Expr::binary(
                                BinOp::Eq,
                                Expr::Column(victim),
                                Expr::Literal(Literal::Int(0)),
                            ),
                            "computed".to_string(),
                        )],
                        schema: Schema::new(vec![Column::new("computed", DataType::Int)]),
                    }),
                    attrs,
                    mode,
                    cap,
                })
            }
            other => Err(other),
        },
        Mutation::BindToPlaceholder => &mut |p| match p {
            PhysPlan::DependentJoin { left, right } => match first_aev_attr(&left) {
                Some(attr) => match rebind(*right, attr) {
                    Ok(r) => Ok(PhysPlan::DependentJoin {
                        left,
                        right: Box::new(r),
                    }),
                    Err(r) => Err(PhysPlan::DependentJoin {
                        left,
                        right: Box::new(r),
                    }),
                },
                None => Err(PhysPlan::DependentJoin { left, right }),
            },
            other => Err(other),
        },
        Mutation::DesyncScan => &mut |p| match p {
            PhysPlan::AEVScan(spec) => Ok(PhysPlan::EVScan(spec)),
            other => Err(other),
        },
        Mutation::ForgePrefetchDepth => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap,
            } => {
                let forged = cap.unwrap_or(4);
                match forge_depth(*input, forged + 3) {
                    Ok(i) => Ok(PhysPlan::ReqSync {
                        input: Box::new(i),
                        attrs,
                        mode,
                        cap: Some(forged),
                    }),
                    // Not applicable here: rebuild unchanged.
                    Err(i) => Err(PhysPlan::ReqSync {
                        input: Box::new(i),
                        attrs,
                        mode,
                        cap,
                    }),
                }
            }
            other => Err(other),
        },
        Mutation::SinkRerankBelowSync => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap,
            } if !attrs.is_empty() => Ok(PhysPlan::ReqSync {
                input: Box::new(PhysPlan::Rerank {
                    input,
                    scorer: RerankScorer::UrlLen,
                }),
                attrs,
                mode,
                cap,
            }),
            other => Err(other),
        },
        Mutation::DropStampedCap => &mut |p| match p {
            PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap: Some(_),
            } => Ok(PhysPlan::ReqSync {
                input,
                attrs,
                mode,
                cap: None,
            }),
            other => Err(other),
        },
    };
    rewrite_first(plan.clone(), rewrite).ok()
}

/// First external attribute of an AEVScan whose placeholders are *not*
/// patched inside `plan` itself (no ReqSync between it and this root).
fn first_aev_attr(plan: &PhysPlan) -> Option<ColumnRef> {
    match plan {
        PhysPlan::AEVScan(s) => s.external_attrs().into_iter().next(),
        PhysPlan::ReqSync { .. } => None,
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::Aggregate { input, .. }
        | PhysPlan::Distinct { input }
        | PhysPlan::Limit { input, .. }
        | PhysPlan::Rerank { input, .. } => first_aev_attr(input),
        PhysPlan::DependentJoin { left, right }
        | PhysPlan::NestedLoopJoin { left, right, .. }
        | PhysPlan::CrossProduct { left, right } => {
            first_aev_attr(left).or_else(|| first_aev_attr(right))
        }
        PhysPlan::ParallelDependentJoin { left, .. } => first_aev_attr(left),
        _ => None,
    }
}

/// Stamp the first AEVScan reachable without crossing a nested ReqSync
/// (so the mutated scan's *nearest* enclosing ReqSync is the one the
/// caller just capped) with prefetch depth `depth`. `Ok` = forged,
/// `Err` = unchanged.
fn forge_depth(plan: PhysPlan, depth: usize) -> Result<PhysPlan, PhysPlan> {
    use PhysPlan::*;
    match plan {
        AEVScan(mut spec) => {
            spec.prefetch.depth = depth;
            Ok(AEVScan(spec))
        }
        ReqSync { .. } => Err(plan),
        Filter { input, predicate } => match forge_depth(*input, depth) {
            Ok(i) => Ok(Filter {
                input: Box::new(i),
                predicate,
            }),
            Err(i) => Err(Filter {
                input: Box::new(i),
                predicate,
            }),
        },
        Project {
            input,
            items,
            schema,
        } => match forge_depth(*input, depth) {
            Ok(i) => Ok(Project {
                input: Box::new(i),
                items,
                schema,
            }),
            Err(i) => Err(Project {
                input: Box::new(i),
                items,
                schema,
            }),
        },
        DependentJoin { left, right } => match forge_depth(*right, depth) {
            Ok(r) => Ok(DependentJoin {
                left,
                right: Box::new(r),
            }),
            Err(r) => match forge_depth(*left, depth) {
                Ok(l) => Ok(DependentJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                }),
                Err(l) => Err(DependentJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                }),
            },
        },
        other => Err(other),
    }
}

/// Point the spec under a dependent join's right side at `col`.
fn rebind(plan: PhysPlan, col: ColumnRef) -> Result<PhysPlan, PhysPlan> {
    match plan {
        PhysPlan::AEVScan(mut spec) => {
            if spec.bindings.is_empty() {
                spec.bindings.push(EvBinding::Column(col));
            } else {
                spec.bindings[0] = EvBinding::Column(col);
            }
            Ok(PhysPlan::AEVScan(spec))
        }
        PhysPlan::Filter { input, predicate } => match rebind(*input, col) {
            Ok(i) => Ok(PhysPlan::Filter {
                input: Box::new(i),
                predicate,
            }),
            Err(i) => Err(PhysPlan::Filter {
                input: Box::new(i),
                predicate,
            }),
        },
        PhysPlan::ReqSync {
            input,
            attrs,
            mode,
            cap,
        } => match rebind(*input, col) {
            Ok(i) => Ok(PhysPlan::ReqSync {
                input: Box::new(i),
                attrs,
                mode,
                cap,
            }),
            Err(i) => Err(PhysPlan::ReqSync {
                input: Box::new(i),
                attrs,
                mode,
                cap,
            }),
        },
        other => Err(other),
    }
}

/// Pre-order rewrite: apply `f` to the first node it accepts; `Ok` is
/// the rewritten tree, `Err` returns the tree unchanged.
fn rewrite_first(
    plan: PhysPlan,
    f: &mut dyn FnMut(PhysPlan) -> Result<PhysPlan, PhysPlan>,
) -> Result<PhysPlan, PhysPlan> {
    use PhysPlan::*;
    let plan = match f(plan) {
        Ok(new) => return Ok(new),
        Err(p) => p,
    };
    // Descend. Each arm threads the Ok/Err status through unchanged
    // reconstruction.
    macro_rules! unary {
        ($variant:ident, $input:expr, $($field:ident),*) => {{
            match rewrite_first(*$input, f) {
                Ok(i) => Ok($variant { input: Box::new(i), $($field),* }),
                Err(i) => Err($variant { input: Box::new(i), $($field),* }),
            }
        }};
    }
    macro_rules! binary {
        ($variant:ident, $left:expr, $right:expr, $($field:ident),*) => {{
            match rewrite_first(*$left, f) {
                Ok(l) => Ok($variant {
                    left: Box::new(l),
                    right: $right,
                    $($field),*
                }),
                Err(l) => match rewrite_first(*$right, f) {
                    Ok(r) => Ok($variant {
                        left: Box::new(l),
                        right: Box::new(r),
                        $($field),*
                    }),
                    Err(r) => Err($variant {
                        left: Box::new(l),
                        right: Box::new(r),
                        $($field),*
                    }),
                },
            }
        }};
    }
    match plan {
        Filter { input, predicate } => unary!(Filter, input, predicate),
        Project {
            input,
            items,
            schema,
        } => unary!(Project, input, items, schema),
        Sort { input, keys } => unary!(Sort, input, keys),
        Aggregate {
            input,
            group_by,
            aggs,
        } => unary!(Aggregate, input, group_by, aggs),
        Distinct { input } => unary!(Distinct, input,),
        Limit { input, n } => unary!(Limit, input, n),
        Rerank { input, scorer } => unary!(Rerank, input, scorer),
        ReqSync {
            input,
            attrs,
            mode,
            cap,
        } => unary!(ReqSync, input, attrs, mode, cap),
        DependentJoin { left, right } => binary!(DependentJoin, left, right,),
        NestedLoopJoin {
            left,
            right,
            predicate,
        } => binary!(NestedLoopJoin, left, right, predicate),
        CrossProduct { left, right } => binary!(CrossProduct, left, right,),
        ParallelDependentJoin {
            left,
            spec,
            threads,
        } => match rewrite_first(*left, f) {
            Ok(l) => Ok(ParallelDependentJoin {
                left: Box::new(l),
                spec,
                threads,
            }),
            Err(l) => Err(ParallelDependentJoin {
                left: Box::new(l),
                spec,
                threads,
            }),
        },
        leaf => Err(leaf),
    }
}
