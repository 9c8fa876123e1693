//! The asynchronous-iteration plan transformation (paper §4.5):
//! **ReqSync Insertion**, **Percolation**, and **Consolidation**.
//!
//! The implementation folds the three steps into one bottom-up pass. Each
//! subtree is rewritten into a *core* plan plus a set of **pending** items
//! that are still being pulled upward:
//!
//! * a pending `Sync` is a ReqSync whose insertion point is still rising
//!   (percolation in progress);
//! * a pending `Carried` is a clashing selection that was pulled up out of
//!   the way (§4.5.2: "if O is a … selection, we can pull O above its
//!   parent first"), including join predicates rewritten into selections
//!   over cross-products.
//!
//! Pending items are *flushed* (materialized into the tree) at clash
//! points: order/cardinality-sensitive operators (`Sort`, `Aggregate`,
//! `Distinct`, `Limit` — case 3 of the clash rules, extended to ordering),
//! projections that drop or compute over placeholder attributes (cases 1
//! and 2), and dependent joins whose bindings read placeholder attributes
//! (case 1). Flushing merges every pending `Sync` into a **single**
//! ReqSync — which is exactly Consolidation.

use crate::plan::{BufferMode, EvBinding, EvSpec, PhysPlan, PlacementStrategy, PrefetchHint};
use std::sync::Arc;
use wsq_sql::ast::{ColumnRef, Expr};

/// Rewrite a synchronous plan into its asynchronous-iteration form.
pub fn asyncify(plan: PhysPlan, strategy: PlacementStrategy) -> PhysPlan {
    asyncify_with_opts(plan, strategy, BufferMode, None, PrefetchHint::default())
}

/// [`asyncify`], additionally stamping every emitted ReqSync with an
/// admission-control cap on buffered incomplete tuples
/// (`QueryOptions::reqsync_cap`; `None` = unbounded). `_buffer` and
/// `_prefetch` are read by nothing; they go with ROADMAP 1(d).
pub fn asyncify_with_opts(
    plan: PhysPlan,
    strategy: PlacementStrategy,
    _buffer: BufferMode,
    cap: Option<usize>,
    _prefetch: PrefetchHint,
) -> PhysPlan {
    let mut ctx = Ctx { strategy, cap };
    let (core, pending) = ctx.lift(plan);
    let mut plan = ctx.flush(core, pending);
    consolidate_adjacent(&mut plan);
    plan
}

/// Final Consolidation sweep: merge directly-adjacent ReqSync pairs
/// (their attribute sets union — §4.5.3). The lift pass already
/// consolidates at each flush point; this catches pairs formed when an
/// input plan carried its own ReqSyncs (e.g. re-asyncification). It is a
/// post-order walk, so a stack of ReqSyncs folds bottom-up into its top
/// node.
fn consolidate_adjacent(plan: &mut PhysPlan) {
    plan.children_mut().for_each(consolidate_adjacent);
    let PhysPlan::ReqSync {
        input, attrs, cap, ..
    } = plan
    else {
        return;
    };
    let PhysPlan::ReqSync {
        input: below,
        attrs: inner_attrs,
        cap: inner_cap,
        ..
    } = &mut **input
    else {
        return;
    };
    for a in inner_attrs.drain(..) {
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    }
    // The merged operator keeps the tighter cap: the pair buffered
    // independently before, so either bound alone was already a promise
    // to the administrator.
    *cap = match (*cap, *inner_cap) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    **input = std::mem::take(&mut **below);
}

/// An item still percolating upward.
#[derive(Debug)]
enum Pending {
    /// A ReqSync for the given placeholder attributes.
    Sync(Vec<ColumnRef>),
    /// A clashing selection pulled above the rising ReqSyncs.
    Carried(Expr),
}

struct Ctx {
    strategy: PlacementStrategy,
    cap: Option<usize>,
}

/// Case-insensitive column-reference equality (SQL identifier semantics).
fn same_ref(a: &ColumnRef, b: &ColumnRef) -> bool {
    if !a.name.eq_ignore_ascii_case(&b.name) {
        return false;
    }
    match (&a.qualifier, &b.qualifier) {
        (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
        (None, None) => true,
        // An unqualified reference may denote a qualified attribute.
        _ => true,
    }
}

/// Does `expr` reference any of `attrs`?
fn refs_any<'a>(expr: &Expr, attrs: impl Iterator<Item = &'a ColumnRef> + Clone) -> bool {
    !expr.all_columns(|c| !attrs.clone().any(|a| same_ref(c, a)))
}

/// All placeholder attributes across the pending set.
fn pending_attrs(pending: &[Pending]) -> impl Iterator<Item = &ColumnRef> + Clone {
    pending.iter().flat_map(|p| match p {
        Pending::Sync(attrs) => attrs.as_slice(),
        Pending::Carried(_) => &[],
    })
}

/// The output name under which a projection passes placeholder attribute
/// `attr` through untouched, as a plain column item; `None` when an item
/// computes over it, or none passes it.
fn passthrough_name(items: &[(Expr, Arc<str>)], attr: &ColumnRef) -> Option<Arc<str>> {
    let mut passing = None;
    for (e, name) in items {
        match e {
            Expr::Column(c) if same_ref(c, attr) => passing = passing.or(Some(name)),
            Expr::Column(_) => {}
            computed if refs_any(computed, std::iter::once(attr)) => return None,
            _ => {}
        }
    }
    passing.cloned()
}

impl Ctx {
    /// Materialize all pending items above `core`: one consolidated
    /// ReqSync, then the carried selections (in their original order).
    fn flush(&self, core: PhysPlan, pending: Vec<Pending>) -> PhysPlan {
        let mut attrs: Vec<ColumnRef> = Vec::new();
        let mut filters: Vec<Expr> = Vec::new();
        for p in pending {
            match p {
                Pending::Sync(a) => {
                    for c in a {
                        if !attrs.iter().any(|x| x == &c) {
                            attrs.push(c);
                        }
                    }
                }
                Pending::Carried(e) => filters.push(e),
            }
        }
        let mut plan = core;
        if !attrs.is_empty() {
            plan = PhysPlan::ReqSync {
                input: Box::new(plan),
                attrs,
                cap: self.cap,
            };
        }
        for predicate in filters {
            plan = PhysPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }
        plan
    }

    fn lift(&mut self, plan: PhysPlan) -> (PhysPlan, Vec<Pending>) {
        match plan {
            // Leaves.
            p @ (PhysPlan::SeqScan { .. }
            | PhysPlan::IndexScan { .. }
            | PhysPlan::Values { .. }) => (p, vec![]),

            // Insertion: every external scan becomes asynchronous, with a
            // ReqSync born directly above it (here: as a pending item).
            PhysPlan::EVScan(spec) | PhysPlan::AEVScan(spec) => {
                let attrs = spec.external_attrs();
                (PhysPlan::AEVScan(spec), vec![Pending::Sync(attrs)])
            }

            PhysPlan::Filter { input, predicate } => {
                let (core, pending) = self.lift(*input);
                if refs_any(&predicate, pending_attrs(&pending)) {
                    // Clash case 1: pull the selection above the rising
                    // ReqSync instead of blocking it.
                    let mut pending = pending;
                    pending.push(Pending::Carried(predicate));
                    (core, pending)
                } else {
                    (
                        PhysPlan::Filter {
                            input: Box::new(core),
                            predicate,
                        },
                        pending,
                    )
                }
            }

            PhysPlan::DependentJoin { left, right } => {
                let (l, mut pl) = self.lift(*left);
                let (r, pr) = self.lift(*right);
                // If the inner scan's bindings read placeholder attributes
                // of the left side, those calls must resolve before the
                // join can re-bind: flush the left pending set below.
                let reads_placeholder =
                    binding_columns(&r).any(|c| pending_attrs(&pl).any(|a| same_ref(c, a)));
                let l = if reads_placeholder {
                    let flushed = self.flush(l, std::mem::take(&mut pl));
                    pl = vec![];
                    flushed
                } else {
                    l
                };
                let mut pending = pl;
                pending.extend(pr);
                let join = PhysPlan::DependentJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                };
                if self.strategy == PlacementStrategy::InsertionOnly {
                    // Conservative placement: pin the ReqSync right above
                    // this dependent join (Figure 7(b) style).
                    (self.flush(join, pending), vec![])
                } else {
                    (join, pending)
                }
            }

            PhysPlan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => {
                let (l, pl) = self.lift(*left);
                let (r, pr) = self.lift(*right);
                let mut pending = pl;
                pending.extend(pr);
                if refs_any(&predicate, pending_attrs(&pending)) {
                    // Clash: rewrite the join as a selection over a
                    // cross-product and carry the selection upward
                    // (§4.5.2, demonstrated in Figure 8).
                    pending.push(Pending::Carried(predicate));
                    (
                        PhysPlan::CrossProduct {
                            left: Box::new(l),
                            right: Box::new(r),
                        },
                        pending,
                    )
                } else {
                    (
                        PhysPlan::NestedLoopJoin {
                            left: Box::new(l),
                            right: Box::new(r),
                            predicate,
                        },
                        pending,
                    )
                }
            }

            PhysPlan::CrossProduct { left, right } => {
                let (l, pl) = self.lift(*left);
                let (r, pr) = self.lift(*right);
                let mut pending = pl;
                pending.extend(pr);
                (
                    PhysPlan::CrossProduct {
                        left: Box::new(l),
                        right: Box::new(r),
                    },
                    pending,
                )
            }

            PhysPlan::Project {
                input,
                items,
                schema,
            } => {
                let (core, mut pending) = self.lift(*input);
                if pending.is_empty() {
                    return (
                        PhysPlan::Project {
                            input: Box::new(core),
                            items,
                            schema,
                        },
                        vec![],
                    );
                }
                // The ReqSyncs may rise above the projection only if every
                // placeholder attribute passes through untouched (as a
                // plain column item) and no carried selections are in
                // flight (their predicates reference pre-projection
                // names). Otherwise flush below (clash cases 1 and 2).
                let has_carried = pending.iter().any(|p| matches!(p, Pending::Carried(_)));
                let rises = !has_carried
                    && pending_attrs(&pending).all(|a| passthrough_name(&items, a).is_some());
                if !rises {
                    let flushed = self.flush(core, pending);
                    return (
                        PhysPlan::Project {
                            input: Box::new(flushed),
                            items,
                            schema,
                        },
                        vec![],
                    );
                }
                // Rename each attribute to the name it passes through as.
                for p in &mut pending {
                    if let Pending::Sync(attrs) = p {
                        for a in attrs {
                            if let Some(name) = passthrough_name(&items, a) {
                                *a = ColumnRef {
                                    qualifier: None,
                                    name,
                                };
                            }
                        }
                    }
                }
                (
                    PhysPlan::Project {
                        input: Box::new(core),
                        items,
                        schema,
                    },
                    pending,
                )
            }

            // Order/cardinality-sensitive operators: clash case 3 (and its
            // ordering analogue). Everything pending materializes below.
            PhysPlan::Sort { input, keys } => {
                let (core, pending) = self.lift(*input);
                (
                    PhysPlan::Sort {
                        input: Box::new(self.flush(core, pending)),
                        keys,
                    },
                    vec![],
                )
            }
            // Rerank scores the *patched* tuple, so it is a clash point by
            // definition: its input ReqSyncs flush below it (the operator
            // must sit above them — the verifier enforces this).
            PhysPlan::Rerank { input, scorer } => {
                let (core, pending) = self.lift(*input);
                (
                    PhysPlan::Rerank {
                        input: Box::new(self.flush(core, pending)),
                        scorer,
                    },
                    vec![],
                )
            }
            PhysPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (core, pending) = self.lift(*input);
                (
                    PhysPlan::Aggregate {
                        input: Box::new(self.flush(core, pending)),
                        group_by,
                        aggs,
                    },
                    vec![],
                )
            }
            PhysPlan::Distinct { input } => {
                let (core, pending) = self.lift(*input);
                (
                    PhysPlan::Distinct {
                        input: Box::new(self.flush(core, pending)),
                    },
                    vec![],
                )
            }
            PhysPlan::Limit { input, n } => {
                let (core, pending) = self.lift(*input);
                (
                    PhysPlan::Limit {
                        input: Box::new(self.flush(core, pending)),
                        n,
                    },
                    vec![],
                )
            }

            // An existing ReqSync (re-asyncifying an async plan): keep it
            // where it is, absorbing any rising Sync it already covers so
            // the transformation is idempotent.
            PhysPlan::ReqSync { input, attrs, cap } => {
                let (core, pending) = self.lift(*input);
                let (absorbed, remaining): (Vec<_>, Vec<_>) =
                    pending.into_iter().partition(|p| match p {
                        Pending::Sync(a) => a.iter().all(|x| attrs.iter().any(|y| same_ref(x, y))),
                        Pending::Carried(_) => false,
                    });
                drop(absorbed);
                (
                    PhysPlan::ReqSync {
                        input: Box::new(self.flush(core, remaining)),
                        attrs,
                        cap: cap.or(self.cap),
                    },
                    vec![],
                )
            }
        }
    }
}

/// The column bindings an inner virtual scan reads from its outer input.
fn binding_columns(right: &PhysPlan) -> impl Iterator<Item = &ColumnRef> {
    right
        .inner_spec()
        .into_iter()
        .flat_map(EvSpec::bindings)
        .filter_map(|b| match b {
            EvBinding::Column(c) => Some(c),
            EvBinding::Const(_) => None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{EvSpec, VTableKind};
    use wsq_common::{Column, DataType, Schema};
    use wsq_sql::ast::BinOp;

    fn scan(name: &str, cols: &[&str]) -> PhysPlan {
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

    /// A `kind` scan of `engine` under `alias`, bound to `bind_col`.
    fn evscan(kind: VTableKind, alias: &str, engine: &str, bind_col: (&str, &str)) -> PhysPlan {
        let binding = EvBinding::Column(ColumnRef {
            qualifier: Some(bind_col.0.into()),
            name: bind_col.1.into(),
        });
        let mut spec = EvSpec::new(kind, engine, alias, vec![binding], true);
        if kind == VTableKind::WebPages {
            spec.rank_limit = 3;
        }
        PhysPlan::EVScan(Arc::new(spec))
    }

    fn webcount(alias: &str, bind_col: (&str, &str)) -> PhysPlan {
        evscan(VTableKind::WebCount, alias, "AV", bind_col)
    }

    fn webpages(alias: &str, engine: &str, bind_col: (&str, &str)) -> PhysPlan {
        evscan(VTableKind::WebPages, alias, engine, bind_col)
    }

    fn dj(left: PhysPlan, right: PhysPlan) -> PhysPlan {
        PhysPlan::DependentJoin {
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    fn count_kind(plan: &PhysPlan, want: &str) -> usize {
        plan.count_nodes(&|p| {
            matches!(
                (p, want),
                (PhysPlan::ReqSync { .. }, "reqsync")
                    | (PhysPlan::AEVScan(_), "aevscan")
                    | (PhysPlan::EVScan(_), "evscan")
                    | (PhysPlan::CrossProduct { .. }, "cross")
                    | (PhysPlan::NestedLoopJoin { .. }, "nlj")
            )
        })
    }

    /// Figure 3: Sort over Sigs ⋈ WebCount → ReqSync lands below the Sort.
    #[test]
    fn figure3_reqsync_below_sort() {
        let plan = PhysPlan::Sort {
            keys: vec![(Expr::qualified("WebCount", "Count"), true)],
            input: Box::new(dj(
                scan("Sigs", &["Name"]),
                webcount("WebCount", ("Sigs", "Name")),
            )),
        };
        let out = asyncify(plan, PlacementStrategy::Full);
        assert_eq!(count_kind(&out, "aevscan"), 1);
        assert_eq!(count_kind(&out, "evscan"), 0);
        assert_eq!(count_kind(&out, "reqsync"), 1);
        // Shape: Sort → ReqSync → DependentJoin.
        match &out {
            PhysPlan::Sort { input, .. } => match input.as_ref() {
                PhysPlan::ReqSync { input, attrs, .. } => {
                    assert_eq!(attrs.len(), 1);
                    assert!(matches!(input.as_ref(), PhysPlan::DependentJoin { .. }));
                }
                other => panic!("expected ReqSync under Sort, got:\n{other}"),
            },
            other => panic!("expected Sort at root, got:\n{other}"),
        }
    }

    /// Figures 5/6: two stacked dependent joins → ONE consolidated ReqSync
    /// above both.
    #[test]
    fn figure6_consolidation() {
        let plan = dj(
            dj(
                scan("Sigs", &["Name"]),
                webpages("AV", "AV", ("Sigs", "Name")),
            ),
            webpages("G", "Google", ("Sigs", "Name")),
        );
        let out = asyncify(plan, PlacementStrategy::Full);
        assert_eq!(count_kind(&out, "reqsync"), 1, "plan:\n{out}");
        assert_eq!(count_kind(&out, "aevscan"), 2);
        // The single ReqSync is the root and carries both attr sets.
        match &out {
            PhysPlan::ReqSync { attrs, .. } => {
                assert_eq!(attrs.len(), 6); // URL/Rank/Date × 2 engines
            }
            other => panic!("expected consolidated ReqSync at root:\n{other}"),
        }
    }

    /// InsertionOnly strategy (Figure 7(b) flavor): one ReqSync pinned
    /// above each dependent join.
    #[test]
    fn insertion_only_pins_two_reqsyncs() {
        let plan = dj(
            dj(
                scan("Sigs", &["Name"]),
                webpages("AV", "AV", ("Sigs", "Name")),
            ),
            webpages("G", "Google", ("Sigs", "Name")),
        );
        let out = asyncify(plan, PlacementStrategy::InsertionOnly);
        assert_eq!(count_kind(&out, "reqsync"), 2, "plan:\n{out}");
    }

    /// Figure 8: a join whose predicate reads placeholder attributes is
    /// rewritten into a selection over a cross-product, with the selection
    /// re-attached above the consolidated ReqSync.
    #[test]
    fn figure8_join_becomes_select_over_cross_product() {
        let join = PhysPlan::NestedLoopJoin {
            left: Box::new(dj(
                scan("Sigs", &["Name"]),
                webpages("S", "AV", ("Sigs", "Name")),
            )),
            right: Box::new(dj(
                scan("CSFields", &["Name"]),
                webpages("C", "AV", ("CSFields", "Name")),
            )),
            predicate: Expr::binary(
                BinOp::Eq,
                Expr::qualified("S", "URL"),
                Expr::qualified("C", "URL"),
            ),
        };
        let out = asyncify(join, PlacementStrategy::Full);
        assert_eq!(count_kind(&out, "nlj"), 0);
        assert_eq!(count_kind(&out, "cross"), 1);
        assert_eq!(count_kind(&out, "reqsync"), 1);
        // Select → ReqSync → CrossProduct.
        match &out {
            PhysPlan::Filter { input, predicate } => {
                assert_eq!(predicate.to_string(), "(S.URL = C.URL)");
                assert!(matches!(input.as_ref(), PhysPlan::ReqSync { .. }));
            }
            other => panic!("expected Select at root:\n{other}"),
        }
    }

    /// A filter on non-placeholder columns stays put (below the ReqSync).
    #[test]
    fn independent_filter_not_carried() {
        let plan = PhysPlan::Filter {
            predicate: Expr::binary(
                BinOp::Eq,
                Expr::qualified("Sigs", "Name"),
                Expr::Literal(wsq_sql::ast::Literal::Str("SIGMOD".into())),
            ),
            input: Box::new(dj(
                scan("Sigs", &["Name"]),
                webcount("WebCount", ("Sigs", "Name")),
            )),
        };
        let out = asyncify(plan, PlacementStrategy::Full);
        match &out {
            PhysPlan::ReqSync { input, .. } => {
                assert!(matches!(input.as_ref(), PhysPlan::Filter { .. }));
            }
            other => panic!("expected ReqSync above the independent filter:\n{other}"),
        }
    }

    /// A filter on placeholder attributes is carried above the ReqSync.
    #[test]
    fn dependent_filter_carried_above() {
        let plan = PhysPlan::Filter {
            predicate: Expr::binary(
                BinOp::Gt,
                Expr::qualified("WebCount", "Count"),
                Expr::Literal(wsq_sql::ast::Literal::Int(100)),
            ),
            input: Box::new(dj(
                scan("Sigs", &["Name"]),
                webcount("WebCount", ("Sigs", "Name")),
            )),
        };
        let out = asyncify(plan, PlacementStrategy::Full);
        match &out {
            PhysPlan::Filter { input, .. } => {
                assert!(matches!(input.as_ref(), PhysPlan::ReqSync { .. }));
            }
            other => panic!("expected carried Select at root:\n{other}"),
        }
    }

    /// Bindings that read another scan's placeholder attributes force the
    /// upstream ReqSync to resolve first (it flushes below the join).
    #[test]
    fn binding_on_placeholder_blocks_percolation() {
        // WebPages S feeds its URL into WebCount's T1.
        let inner = webcount("WC", ("S", "URL"));
        let plan = dj(
            dj(
                scan("Sigs", &["Name"]),
                webpages("S", "AV", ("Sigs", "Name")),
            ),
            inner,
        );
        let out = asyncify(plan, PlacementStrategy::Full);
        assert_eq!(count_kind(&out, "reqsync"), 2, "plan:\n{out}");
        // The outer (root) ReqSync covers only the WebCount attrs.
        match &out {
            PhysPlan::ReqSync { attrs, input, .. } => {
                assert_eq!(attrs.len(), 1);
                assert_eq!(attrs[0].to_string(), "WC.Count");
                // Inside, the WebPages ReqSync sits below the outer join.
                assert!(matches!(input.as_ref(), PhysPlan::DependentJoin { .. }));
            }
            other => panic!("unexpected root:\n{other}"),
        }
    }

    /// Aggregation clashes (case 3): the ReqSync flushes below it.
    #[test]
    fn aggregate_blocks_percolation() {
        let plan = PhysPlan::Aggregate {
            input: Box::new(dj(
                scan("Sigs", &["Name"]),
                webcount("WebCount", ("Sigs", "Name")),
            )),
            group_by: vec![],
            aggs: vec![(wsq_sql::ast::AggFunc::Count, None, "n".into())],
        };
        let out = asyncify(plan, PlacementStrategy::Full);
        match &out {
            PhysPlan::Aggregate { input, .. } => {
                assert!(matches!(input.as_ref(), PhysPlan::ReqSync { .. }));
            }
            other => panic!("expected Aggregate at root:\n{other}"),
        }
    }

    /// A projection passing attributes through as plain columns lets the
    /// ReqSync rise above it, with attribute names rewritten.
    #[test]
    fn projection_passthrough_renames_attrs() {
        let input = dj(
            scan("Sigs", &["Name"]),
            webcount("WebCount", ("Sigs", "Name")),
        );
        let schema = Schema::new(vec![
            Column::new("Name", DataType::Varchar),
            Column::new("Cnt", DataType::Int),
        ]);
        let plan = PhysPlan::Project {
            input: Box::new(input),
            items: vec![
                (Expr::qualified("Sigs", "Name"), "Name".into()),
                (Expr::qualified("WebCount", "Count"), "Cnt".into()),
            ],
            schema,
        };
        let out = asyncify(plan, PlacementStrategy::Full);
        match &out {
            PhysPlan::ReqSync { attrs, input, .. } => {
                assert_eq!(attrs[0].to_string(), "Cnt");
                assert!(matches!(input.as_ref(), PhysPlan::Project { .. }));
            }
            other => panic!("expected ReqSync above Project:\n{other}"),
        }
    }

    /// A projection computing over an attribute (Count/Population) blocks
    /// the ReqSync below it (clash case 1).
    #[test]
    fn projection_computation_blocks() {
        let input = dj(
            scan("States", &["Name", "Population"]),
            webcount("WebCount", ("States", "Name")),
        );
        let schema = Schema::new(vec![Column::new("C", DataType::Int)]);
        let plan = PhysPlan::Project {
            input: Box::new(input),
            items: vec![(
                Expr::binary(
                    BinOp::Div,
                    Expr::qualified("WebCount", "Count"),
                    Expr::qualified("States", "Population"),
                ),
                "C".into(),
            )],
            schema,
        };
        let out = asyncify(plan, PlacementStrategy::Full);
        match &out {
            PhysPlan::Project { input, .. } => {
                assert!(matches!(input.as_ref(), PhysPlan::ReqSync { .. }));
            }
            other => panic!("expected Project at root:\n{other}"),
        }
    }

    /// No virtual tables → asyncify is the identity.
    #[test]
    fn pure_local_plan_unchanged() {
        let plan = PhysPlan::Filter {
            predicate: Expr::binary(
                BinOp::Eq,
                Expr::qualified("A", "x"),
                Expr::qualified("B", "x"),
            ),
            input: Box::new(PhysPlan::CrossProduct {
                left: Box::new(scan("A", &["x"])),
                right: Box::new(scan("B", &["x"])),
            }),
        };
        let out = asyncify(plan.clone(), PlacementStrategy::Full);
        assert_eq!(out, plan);
    }

    /// Asyncify is idempotent on already-asynchronous plans.
    #[test]
    fn idempotent() {
        let plan = PhysPlan::Sort {
            keys: vec![(Expr::qualified("WebCount", "Count"), true)],
            input: Box::new(dj(
                scan("Sigs", &["Name"]),
                webcount("WebCount", ("Sigs", "Name")),
            )),
        };
        let once = asyncify(plan, PlacementStrategy::Full);
        let twice = asyncify(once.clone(), PlacementStrategy::Full);
        assert_eq!(once, twice);
    }
}
