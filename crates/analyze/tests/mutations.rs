//! Mutation harness: proves the placeholder-dataflow verifier has teeth.
//!
//! Strategy: build a family of representative plans, run them through the
//! real `asyncify` transformation, and check the verifier accepts every
//! emitted plan. Then corrupt each verified plan with every applicable
//! [`Mutation`] (one corruption class per verifier rule) and assert the
//! verifier rejects **every** corrupted plan — and that each class
//! triggers the specific rule it was designed to break at least once.

use wsq_analyze::{apply_mutation, verify_async, verify_bounds, Mutation, Rule, ALL_MUTATIONS};
use wsq_common::{Column, DataType, Schema};
use wsq_engine::asyncify;
use wsq_engine::asyncify::asyncify_with_opts;
use wsq_engine::plan::{
    BufferMode, EvBinding, EvSpec, PhysPlan, PlacementStrategy, PrefetchHint, RerankScorer,
    VTableKind,
};
use wsq_sql::ast::{BinOp, ColumnRef, Expr, Literal};

fn states_scan() -> PhysPlan {
    PhysPlan::SeqScan {
        table: "States".into(),
        alias: "States".into(),
        schema: Schema::new(vec![
            Column::qualified("States", "Name", DataType::Varchar),
            Column::qualified("States", "Population", DataType::Int),
        ]),
    }
}

fn spec(alias: &str, kind: VTableKind) -> EvSpec {
    let name = EvBinding::Column(ColumnRef {
        qualifier: Some("States".into()),
        name: "Name".into(),
    });
    let mut spec = EvSpec::new(kind, "AV", alias, vec![name], true);
    spec.rank_limit = 3;
    spec
}

fn dj(left: PhysPlan, spec: EvSpec) -> PhysPlan {
    PhysPlan::DependentJoin {
        left: Box::new(left),
        right: Box::new(PhysPlan::EVScan(spec.into())),
    }
}

fn col(qualifier: &str, name: &str) -> Expr {
    Expr::Column(ColumnRef {
        qualifier: Some(qualifier.into()),
        name: name.into(),
    })
}

/// The base plan family: (name, logical plan). Shapes chosen so that
/// every corruption class has at least one applicable site after
/// asyncification.
fn bases() -> Vec<(&'static str, PhysPlan)> {
    let simple = dj(states_scan(), spec("V1", VTableKind::WebCount));
    let pages = dj(states_scan(), spec("V1", VTableKind::WebPages));
    let carried = PhysPlan::Filter {
        predicate: Expr::binary(
            BinOp::NotEq,
            col("V1", "Count"),
            Expr::Literal(Literal::Int(0)),
        ),
        input: Box::new(dj(states_scan(), spec("V1", VTableKind::WebCount))),
    };
    let sorted = PhysPlan::Sort {
        keys: vec![(col("States", "Name"), true)],
        input: Box::new(dj(states_scan(), spec("V1", VTableKind::WebCount))),
    };
    let nested = dj(
        dj(states_scan(), spec("V1", VTableKind::WebCount)),
        spec("V2", VTableKind::WebCount),
    );
    let projected = PhysPlan::Project {
        items: vec![
            (col("States", "Name"), "Name".into()),
            (col("V1", "Count"), "Count".into()),
        ],
        schema: Schema::new(vec![
            Column::new("Name", DataType::Varchar),
            Column::new("Count", DataType::Int),
        ]),
        input: Box::new(dj(states_scan(), spec("V1", VTableKind::WebCount))),
    };
    vec![
        ("simple", simple),
        ("pages", pages),
        ("carried-filter", carried),
        ("sorted", sorted),
        ("nested", nested),
        ("projected", projected),
    ]
}

/// The rule each corruption class is designed to trip. A corrupted plan
/// may violate additional rules, but across the base family each class
/// must trigger its own rule at least once.
fn expected_rule(m: Mutation) -> Rule {
    match m {
        Mutation::DropReqSync => Rule::UncoveredAtRoot,
        Mutation::StripSyncAttr => Rule::UncoveredAtRoot,
        Mutation::DuplicateReqSync => Rule::AdjacentReqSync,
        Mutation::SinkCarriedFilter => Rule::ReadsPlaceholder,
        Mutation::HoistSortBelowSync => Rule::OrderSensitive,
        Mutation::AggregateBelowSync => Rule::OrderSensitive,
        Mutation::DistinctBelowSync => Rule::OrderSensitive,
        Mutation::LimitBelowSync => Rule::OrderSensitive,
        Mutation::ProjectAwayPlaceholder => Rule::DropsPlaceholder,
        Mutation::ComputeOverPlaceholder => Rule::ReadsPlaceholder,
        Mutation::BindToPlaceholder => Rule::BindingReadsPlaceholder,
        Mutation::DesyncScan => Rule::SyncScanInAsyncPlan,
        Mutation::DropStampedCap => Rule::CapDropped,
        Mutation::SinkRerankBelowSync => Rule::RerankOverPlaceholder,
    }
}

#[test]
fn at_least_ten_corruption_classes() {
    assert!(
        ALL_MUTATIONS.len() >= 10,
        "the issue requires >= 10 corruption classes, have {}",
        ALL_MUTATIONS.len()
    );
}

#[test]
fn asyncified_bases_verify_clean() {
    for (name, plan) in bases() {
        for strategy in [PlacementStrategy::Full, PlacementStrategy::InsertionOnly] {
            let out = asyncify(plan.clone(), strategy);
            if let Err(e) = verify_async(&out) {
                panic!("base '{name}' ({strategy:?}) rejected:\n{e}\nplan:\n{out}");
            }
        }
    }
}

#[test]
fn every_mutation_class_is_rejected() {
    let asyncified: Vec<(&str, PhysPlan)> = bases()
        .into_iter()
        .map(|(name, plan)| (name, asyncify(plan, PlacementStrategy::Full)))
        .collect();

    for &m in ALL_MUTATIONS {
        // cap-dropped is relative to the *session's declared* cap, which
        // `verify_async` alone cannot know; it has its own harness below
        // (`resource_bound_mutations_fail_against_the_declared_cap`).
        if m == Mutation::DropStampedCap {
            continue;
        }
        let mut applied = 0usize;
        let mut hit_expected = false;
        for (name, plan) in &asyncified {
            let Some(mutated) = apply_mutation(plan, m) else {
                continue;
            };
            applied += 1;
            assert_ne!(
                &mutated, plan,
                "mutation {m:?} on base '{name}' produced an identical plan"
            );
            match verify_async(&mutated) {
                Ok(report) => panic!(
                    "verifier ACCEPTED corrupted plan ({m:?} on base '{name}', {report}):\n{mutated}"
                ),
                Err(e) => {
                    if e.violations.iter().any(|v| v.rule == expected_rule(m)) {
                        hit_expected = true;
                    }
                }
            }
        }
        assert!(
            applied >= 1,
            "mutation {m:?} applied to no base plan — dead corruption class"
        );
        assert!(
            hit_expected,
            "mutation {m:?} never triggered its target rule {:?}",
            expected_rule(m)
        );
    }
}

/// The resource-bound rule, exercised against plans stamped under a
/// declared session cap: erasing a stamped cap trips `cap-dropped`.
#[test]
fn resource_bound_mutations_fail_against_the_declared_cap() {
    const DECLARED: usize = 6;
    let mut applied = 0usize;
    for (name, plan) in bases() {
        let stamped = asyncify_with_opts(
            plan,
            PlacementStrategy::Full,
            BufferMode,
            Some(DECLARED),
            PrefetchHint::default(),
        );
        let bounds = verify_bounds(&stamped, Some(DECLARED))
            .unwrap_or_else(|e| panic!("stamped base '{name}' fails bounds:\n{e}"));
        assert!(
            bounds
                .peak_buffered
                .le(wsq_analyze::Bound::Finite(DECLARED as u64)),
            "base '{name}': peak buffered {} above declared cap {DECLARED}",
            bounds.peak_buffered
        );

        if let Some(mutated) = apply_mutation(&stamped, Mutation::DropStampedCap) {
            applied += 1;
            let err = verify_bounds(&mutated, Some(DECLARED))
                .expect_err("dropped stamped cap must be rejected");
            assert!(
                err.violations.iter().any(|v| v.rule == Rule::CapDropped),
                "base '{name}': expected cap-dropped, got: {err}"
            );
        }
    }
    assert!(
        applied >= 1,
        "the cap-dropped mutation must apply to the base family"
    );
}

/// The rerank placement rule (§4.5.2 extension): a Rerank sitting above
/// the covering ReqSync is fine — pushed beneath it, the scorer would
/// read unresolved placeholders and the verifier must say so.
#[test]
fn rerank_above_sync_accepted_below_rejected() {
    let base = asyncify(
        dj(states_scan(), spec("V1", VTableKind::WebPages)),
        PlacementStrategy::Full,
    );
    let good = PhysPlan::Rerank {
        input: Box::new(base),
        scorer: RerankScorer::UrlDepth,
    };
    verify_async(&good).unwrap_or_else(|e| panic!("rerank above sync rejected:\n{e}\n{good}"));

    let bad = apply_mutation(&good, Mutation::SinkRerankBelowSync)
        .expect("sink mutation applies to the covering ReqSync");
    let err = verify_async(&bad).expect_err("rerank below sync must be rejected");
    assert!(
        err.violations
            .iter()
            .any(|v| v.rule == Rule::RerankOverPlaceholder),
        "expected rerank-over-placeholder, got: {err}"
    );
}

/// The verifier catches corruption even when several mutations stack.
#[test]
fn stacked_mutations_still_rejected() {
    let base = asyncify(
        dj(
            dj(states_scan(), spec("V1", VTableKind::WebCount)),
            spec("V2", VTableKind::WebPages),
        ),
        PlacementStrategy::Full,
    );
    verify_async(&base).expect("base verifies");

    let mut corrupted = base;
    let mut stacked = 0;
    for &m in &[
        Mutation::StripSyncAttr,
        Mutation::LimitBelowSync,
        Mutation::DesyncScan,
    ] {
        if let Some(next) = apply_mutation(&corrupted, m) {
            corrupted = next;
            stacked += 1;
        }
    }
    assert!(stacked >= 2, "expected at least two stackable mutations");
    let err = verify_async(&corrupted).expect_err("stacked corruption must be rejected");
    assert!(
        err.violations.len() >= 2,
        "stacked corruption should surface multiple violations, got: {err}"
    );
}
