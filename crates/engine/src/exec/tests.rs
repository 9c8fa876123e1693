//! Executor unit tests, including direct coverage of the §4.3/§4.4
//! ReqSync semantics (fill-in / cancellation / n-way generation, copies
//! carrying other pending calls).

use super::*;
use crate::plan::{EvBinding, EvSpec, VTableKind};
use std::sync::Arc;
use std::time::Duration;
use wsq_common::{Column, DataType, Schema, Tuple, Value};
use wsq_pump::{
    Lease, PageHit, PumpConfig, ReqPump, RequestKind, SearchRequest, SearchResult, SearchService,
    ServiceReply,
};
use wsq_sql::ast::{AggFunc, BinOp, ColumnRef, Expr, Literal};

/// An executor over fixed tuples (reusable mock child).
fn rows(schema: Schema, tuples: Vec<Vec<Value>>) -> Box<dyn Executor> {
    Box::new(ValuesExec::new(
        schema,
        tuples.into_iter().map(Tuple::new).collect(),
    ))
}

fn int_schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Column::new(*n, DataType::Int))
            .collect(),
    )
}

fn drain(mut e: Box<dyn Executor>) -> Vec<Tuple> {
    collect(e.as_mut()).unwrap()
}

#[test]
fn filter_project_limit_chain() {
    let child = rows(
        int_schema(&["a", "b"]),
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(3), Value::Int(30)],
            vec![Value::Int(4), Value::Int(40)],
        ],
    );
    let filtered = Box::new(
        FilterExec::new(
            child,
            &Expr::binary(BinOp::Gt, Expr::column("a"), Expr::Literal(Literal::Int(1))),
        )
        .unwrap(),
    );
    let projected = Box::new(
        ProjectExec::new(
            filtered,
            &[(
                Expr::binary(BinOp::Add, Expr::column("a"), Expr::column("b")),
                "s".into(),
            )],
            int_schema(&["s"]),
        )
        .unwrap(),
    );
    let limited = Box::new(LimitExec::new(projected, 2));
    let out = drain(limited);
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].get(0).as_int().unwrap(), 22);
    assert_eq!(out[1].get(0).as_int().unwrap(), 33);
}

#[test]
fn sort_orders_and_is_stable() {
    let child = rows(
        int_schema(&["k", "v"]),
        vec![
            vec![Value::Int(2), Value::Int(1)],
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(2), Value::Int(3)],
            vec![Value::Int(1), Value::Int(4)],
        ],
    );
    let sorted = Box::new(SortExec::new(child, &[(Expr::column("k"), false)]).unwrap());
    let out = drain(sorted);
    let pairs: Vec<(i64, i64)> = out
        .iter()
        .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
        .collect();
    // Stable: within equal keys, input order (v=2 before v=4, v=1 before v=3).
    assert_eq!(pairs, vec![(1, 2), (1, 4), (2, 1), (2, 3)]);
}

#[test]
fn sort_by_ordinal_descending() {
    let child = rows(
        int_schema(&["x"]),
        vec![
            vec![Value::Int(1)],
            vec![Value::Int(3)],
            vec![Value::Int(2)],
        ],
    );
    let sorted = Box::new(SortExec::new(child, &[(Expr::Literal(Literal::Int(1)), true)]).unwrap());
    let out: Vec<i64> = drain(sorted)
        .iter()
        .map(|t| t.get(0).as_int().unwrap())
        .collect();
    assert_eq!(out, vec![3, 2, 1]);
}

#[test]
fn distinct_removes_duplicates() {
    let child = rows(
        int_schema(&["x", "y"]),
        vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Null, Value::Null],
            vec![Value::Null, Value::Null],
        ],
    );
    let out = drain(Box::new(DistinctExec::new(child)));
    assert_eq!(out.len(), 3);
}

#[test]
fn aggregate_group_global_and_empty() {
    // Grouped.
    let child = rows(
        int_schema(&["g", "v"]),
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(5)],
            vec![Value::Int(1), Value::Int(20)],
            vec![Value::Int(2), Value::Null], // NULL skipped by SUM/AVG
        ],
    );
    let agg = Box::new(
        AggregateExec::new(
            child,
            &[ColumnRef {
                qualifier: None,
                name: "g".into(),
            }],
            &[
                (AggFunc::Count, None, "#agg0".into()),
                (AggFunc::Sum, Some(Expr::column("v")), "#agg1".into()),
                (AggFunc::Avg, Some(Expr::column("v")), "#agg2".into()),
                (AggFunc::Min, Some(Expr::column("v")), "#agg3".into()),
                (AggFunc::Max, Some(Expr::column("v")), "#agg4".into()),
            ],
            int_schema(&["g", "#agg0", "#agg1", "#agg2", "#agg3", "#agg4"]),
        )
        .unwrap(),
    );
    let out = drain(agg);
    assert_eq!(out.len(), 2);
    // First-seen group order preserved.
    assert_eq!(out[0].get(0).as_int().unwrap(), 1);
    assert_eq!(out[0].get(1).as_int().unwrap(), 2); // COUNT(*)
    assert_eq!(out[0].get(2).as_int().unwrap(), 30); // SUM
    assert_eq!(out[0].get(3).as_float().unwrap(), 15.0); // AVG
    assert_eq!(out[1].get(0).as_int().unwrap(), 2);
    assert_eq!(out[1].get(2).as_int().unwrap(), 5); // SUM skips NULL
    assert_eq!(out[1].get(4).as_int().unwrap(), 5); // MIN
    assert_eq!(out[1].get(5).as_int().unwrap(), 5); // MAX

    // Global aggregate over empty input yields one row.
    let empty = rows(int_schema(&["v"]), vec![]);
    let agg = Box::new(
        AggregateExec::new(
            empty,
            &[],
            &[
                (AggFunc::Count, None, "#agg0".into()),
                (AggFunc::Sum, Some(Expr::column("v")), "#agg1".into()),
            ],
            int_schema(&["#agg0", "#agg1"]),
        )
        .unwrap(),
    );
    let out = drain(agg);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].get(0).as_int().unwrap(), 0);
    assert!(out[0].get(1).is_null());

    // Grouped aggregate over empty input yields no rows.
    let empty = rows(int_schema(&["g", "v"]), vec![]);
    let agg = Box::new(
        AggregateExec::new(
            empty,
            &[ColumnRef {
                qualifier: None,
                name: "g".into(),
            }],
            &[(AggFunc::Count, None, "#agg0".into())],
            int_schema(&["g", "#agg0"]),
        )
        .unwrap(),
    );
    assert!(drain(agg).is_empty());
}

#[test]
fn nested_loop_join_and_reopen() {
    let left = rows(
        int_schema(&["a"]),
        vec![vec![Value::Int(1)], vec![Value::Int(2)]],
    );
    let right = rows(
        int_schema(&["b"]),
        vec![vec![Value::Int(2)], vec![Value::Int(3)]],
    );
    let mut join = NestedLoopJoinExec::new(
        left,
        right,
        Some(&Expr::binary(
            BinOp::Eq,
            Expr::column("a"),
            Expr::column("b"),
        )),
    )
    .unwrap();
    let out = collect(&mut join).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].values(), &[Value::Int(2), Value::Int(2)]);
    // Re-open works (joins re-open their inputs when nested).
    let out2 = collect(&mut join).unwrap();
    assert_eq!(out2.len(), 1);

    // Cross product (no predicate).
    let left = rows(
        int_schema(&["a"]),
        vec![vec![Value::Int(1)], vec![Value::Int(2)]],
    );
    let right = rows(int_schema(&["b"]), vec![vec![Value::Int(7)]]);
    let mut cp = NestedLoopJoinExec::new(left, right, None).unwrap();
    assert_eq!(collect(&mut cp).unwrap().len(), 2);
}

/// Probe vs loop: `NestedLoopJoinExec` must return exactly what the plain
/// double loop returns — same rows, same order (outer, then inner) —
/// whether or not it probes, and must probe only when its hash cannot
/// disagree with `Value::compare`.
#[test]
fn nested_loop_join_matches_the_brute_force_double_loop() {
    // Deterministic pseudo-random picks from a small domain: duplicates
    // and NULLs on both sides.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut pick = move |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let mut column = |dtype: DataType, n: usize| -> Vec<Value> {
        (0..n)
            .map(|_| match (pick(6), dtype) {
                (0, _) => Value::Null,
                (k, DataType::Int) => Value::Int(k as i64),
                (k, DataType::Float) => Value::Float(k as f64),
                (k, DataType::Varchar) => Value::from(format!("k{k}")),
            })
            .collect()
    };
    let two_cols = |q: &str, dtype: DataType| {
        Schema::new(vec![
            Column::qualified(q, "k", dtype),
            Column::qualified(q, "v", DataType::Int),
        ])
    };
    let eq = Expr::binary(
        BinOp::Eq,
        Expr::qualified("l", "k"),
        Expr::qualified("r", "k"),
    );
    let residual = Expr::binary(
        BinOp::Lt,
        Expr::qualified("l", "v"),
        Expr::qualified("r", "v"),
    );
    let flipped_and_residual = Expr::binary(
        BinOp::And,
        residual.clone(),
        Expr::binary(
            BinOp::Eq,
            Expr::qualified("r", "k"),
            Expr::qualified("l", "k"),
        ),
    );
    let theta = Expr::binary(
        BinOp::Lt,
        Expr::qualified("l", "k"),
        Expr::qualified("r", "k"),
    );

    use DataType::{Float, Int, Varchar};
    // (outer key type, inner key type, predicate, probes?)
    let shapes: Vec<(DataType, DataType, Option<&Expr>, bool)> = vec![
        (Int, Int, Some(&eq), true),
        (Varchar, Varchar, Some(&eq), true),
        (Int, Int, Some(&flipped_and_residual), true),
        (Varchar, Varchar, Some(&flipped_and_residual), true),
        (Int, Int, Some(&theta), false),
        (Int, Int, Some(&residual), false),
        (Int, Int, None, false),
        // `1 = 1.0` is true but hashes apart: FLOAT on either side loops.
        (Int, Float, Some(&eq), false),
        (Float, Int, Some(&eq), false),
        (Float, Float, Some(&eq), false),
    ];
    for (ldt, rdt, pred, probes) in shapes {
        let (lschema, rschema) = (two_cols("l", ldt), two_cols("r", rdt));
        let table = |keys: Vec<Value>, vals: Vec<Value>| -> Vec<Vec<Value>> {
            keys.into_iter()
                .zip(vals)
                .map(|(k, v)| vec![k, v])
                .collect()
        };
        let left = table(column(ldt, 37), column(Int, 37));
        let right = table(column(rdt, 41), column(Int, 41));
        let probed = check_against_double_loop(&lschema, &left, &rschema, &right, pred);
        assert_eq!(probed, probes, "{ldt} = {rdt} under {pred:?}");
    }

    // A FLOAT value in an INT-declared column (a projection's inferred
    // type can be wrong): found on the inner side at `open`, on the outer
    // side mid-stream. Either way the loop takes over and `1 = 1.0` holds.
    let (lschema, rschema) = (two_cols("l", Int), two_cols("r", Int));
    let ints = |ks: &[i64]| -> Vec<Vec<Value>> {
        ks.iter()
            .map(|k| vec![Value::Int(*k), Value::Int(*k)])
            .collect()
    };
    let mut with_float = ints(&[1, 2, 1, 3]);
    with_float.insert(2, vec![Value::Float(1.0), Value::Int(9)]);
    for (left, right) in [
        (ints(&[1, 1, 2, 4]), with_float.clone()),
        (with_float, ints(&[1, 1, 2, 4])),
    ] {
        let probed = check_against_double_loop(&lschema, &left, &rschema, &right, Some(&eq));
        assert!(!probed, "a Float key must end probing");
    }
}

/// Run `NestedLoopJoinExec` over the two tables (twice: a join is
/// re-opened when nested) and assert it returns the double loop's rows in
/// the double loop's order. Returns whether it was still probing at the
/// end.
fn check_against_double_loop(
    lschema: &Schema,
    left: &[Vec<Value>],
    rschema: &Schema,
    right: &[Vec<Value>],
    pred: Option<&Expr>,
) -> bool {
    let joined = lschema.join(rschema);
    let compiled = pred.map(|p| crate::expr::compile(p, &joined).unwrap());
    let mut want = Vec::new();
    for l in left {
        for r in right {
            let t = Tuple::new(l.iter().chain(r).cloned().collect());
            if compiled.as_ref().is_none_or(|p| p.eval_bool(&t).unwrap()) {
                want.push(t);
            }
        }
    }
    let mut join = NestedLoopJoinExec::new(
        rows(lschema.clone(), left.to_vec()),
        rows(rschema.clone(), right.to_vec()),
        pred,
    )
    .unwrap();
    for _ in 0..2 {
        let got = collect(&mut join).unwrap();
        assert_eq!(got, want, "{pred:?} over {lschema:?} x {rschema:?}");
    }
    join.probing()
}

/// A scripted search service for ReqSync semantics tests.
struct Scripted;

impl SearchService for Scripted {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        let result = match &req.kind {
            RequestKind::Count => SearchResult::Count(req.expr.len() as u64),
            RequestKind::Pages { max_rank } => {
                // "none" → 0 hits; "one" → 1; everything else → max_rank.
                let n = if req.expr.contains("none") {
                    0
                } else if req.expr.contains("one") {
                    1
                } else {
                    *max_rank
                };
                SearchResult::pages_from(
                    (1..=n)
                        .map(|rank| PageHit {
                            url: format!("www.{}/{rank}", req.expr.replace(' ', "-")).into(),
                            rank,
                            date: "1999-10-01".into(),
                        })
                        .collect(),
                )
            }
        };
        ServiceReply::instant(result)
    }
}

/// `S` with a declared latency, so its calls are pending when their scan
/// registers them.
struct Declared<S>(S, Duration);

impl<S: SearchService> SearchService for Declared<S> {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        ServiceReply {
            latency: self.1,
            ..self.0.execute(req)
        }
    }
}

/// A pump whose `AV` calls are pending when registered, so every
/// asynchronous scan's tuple goes through ReqSync.
fn pump() -> Arc<ReqPump> {
    let p = ReqPump::new(PumpConfig::default());
    p.register_service("AV", Arc::new(Declared(Scripted, Duration::from_millis(1))));
    p
}

#[test]
fn instant_replies_are_delivered_to_their_scan_as_finished_rows() {
    // The `reqsync_generation_cancellation_and_fill` pipeline with instant
    // replies: each scan emits the finished rows of its own call — three,
    // one, none — and no placeholder ever reaches ReqSync.
    let obs = wsq_obs::Obs::enabled();
    let p = ReqPump::new(PumpConfig {
        obs: obs.clone(),
        ..PumpConfig::default()
    });
    p.register_service("AV", Arc::new(Scripted));
    let lease = p.lease();
    let out = drain(async_pages_pipeline(&["many", "one", "none"], &p, &lease));
    let urls: Vec<&str> = out.iter().map(|t| t.get(3).as_str().unwrap()).collect();
    assert_eq!(
        urls,
        ["www.many/1", "www.many/2", "www.many/3", "www.one/1"]
    );
    let m = obs.metrics().unwrap();
    assert_eq!(m.placeholder_tuples.get(), 0);
    assert_eq!(m.reqsync_buffered.high_water(), 0);
    assert_eq!(m.tuples_patched.get(), 4);
    assert_eq!(m.tuples_cancelled.get(), 1);
    drop(lease);
    assert_eq!(p.live_calls(), 0);
}

fn pages_spec(alias: &str) -> EvSpec {
    let term = EvBinding::Column(ColumnRef {
        qualifier: None,
        name: "term".into(),
    });
    let mut spec = EvSpec::new(VTableKind::WebPages, "AV", alias, vec![term], true);
    spec.rank_limit = 3;
    spec
}

/// Dependent join of terms against an async WebPages scan registering
/// under `lease`, synchronized.
fn async_pages_pipeline(terms: &[&str], pump: &Arc<ReqPump>, lease: &Lease) -> Box<dyn Executor> {
    let schema = Schema::new(vec![Column::new("term", DataType::Varchar)]);
    let left = rows(
        schema,
        terms.iter().map(|t| vec![Value::from(*t)]).collect(),
    );
    let spec = pages_spec("W");
    let scan = Box::new(AEVScanExec::new(
        Arc::new(spec.clone()),
        pump.clone(),
        lease.id(),
        false,
    ));
    let dj = Box::new(DependentJoinExec::new(left, scan, &spec).unwrap());
    Box::new(ReqSyncExec::new(dj, pump.clone(), None))
}

#[test]
fn reqsync_generation_cancellation_and_fill() {
    let p = pump();
    let lease = p.lease();
    // "many" → 3 hits (generation), "one" → 1 (fill), "none" → 0
    // (cancellation).
    let out = drain(async_pages_pipeline(&["many", "one", "none"], &p, &lease));
    assert_eq!(out.len(), 4);
    let urls: Vec<&str> = out
        .iter()
        .map(|t| {
            // term, SearchExp, T1, URL, Rank, Date
            t.get(3).as_str().unwrap()
        })
        .collect();
    assert!(urls.iter().filter(|u| u.contains("many")).count() == 3);
    assert!(urls.iter().filter(|u| u.contains("one")).count() == 1);
    assert!(!urls.iter().any(|u| u.contains("none")));
    // Ranks filled as integers.
    for t in &out {
        let rank = t.get(4).as_int().unwrap();
        assert!((1..=3).contains(&rank));
        assert!(!t.is_incomplete());
    }
    drop(lease);
    assert_eq!(p.live_calls(), 0);
}

#[test]
fn reqsync_patches_a_dead_column_to_null() {
    // term, SearchExp, T1, URL, Rank, Date with only term and URL read
    // above: the scan writes a placeholder in URL, Rank and Date, and a
    // patch writes the hit's URL and `Null` in Rank and Date, as a scan
    // that got its reply at registration does.
    let p = pump();
    let lease = p.lease();
    let mut sync = async_pages_pipeline(&["many", "one"], &p, &lease);
    let mut live = ColumnSet::NONE;
    live.insert(0);
    live.insert(3);
    sync.narrow(live);
    let out = drain(sync);
    assert_eq!(out.len(), 4);
    for t in &out {
        assert!(t.get(3).as_str().unwrap().starts_with("www."));
        assert!(t.get(4).is_null() && t.get(5).is_null(), "{t:?}");
    }
    drop(lease);
    assert_eq!(p.live_calls(), 0);
}

#[test]
fn reopening_a_reqsync_releases_the_calls_its_tuples_hold() {
    // One call in flight at a time, so after the first row the other
    // four terms' tuples are still buffered, each waiting on a call.
    let p = ReqPump::new(PumpConfig {
        max_concurrent: 1,
        ..PumpConfig::default()
    });
    p.register_service(
        "AV",
        Arc::new(Declared(Scripted, Duration::from_millis(20))),
    );
    let lease = p.lease();
    let mut sync = async_pages_pipeline(&["a", "b", "c", "d", "e"], &p, &lease);
    sync.open().unwrap();
    assert!(sync.next().unwrap().is_some());
    sync.open().unwrap();
    let mut rows = 0;
    while sync.next().unwrap().is_some() {
        rows += 1;
    }
    assert_eq!(rows, 15);
    sync.close().unwrap();
    drop(sync);
    drop(lease);
    assert_eq!(p.live_calls(), 0, "a re-open leaked pump registrations");
}

#[test]
fn copies_of_a_pending_tuple_leave_an_outside_registrant_its_call() {
    // Another registrant (a second session) holds the call the scan
    // coalesces onto. A cross product copies the scan's pending tuple
    // three times; ReqSync patches all three and gives back nothing the
    // other registrant holds.
    let p = ReqPump::new(PumpConfig::default());
    p.register_service(
        "AV",
        Arc::new(Declared(Scripted, Duration::from_millis(20))),
    );
    let outside = p
        .register(SearchRequest {
            engine: "AV".into(),
            expr: "hello".into(),
            kind: RequestKind::Count,
        })
        .unwrap();
    let spec = EvSpec::new(
        VTableKind::WebCount,
        "AV",
        "WC",
        vec![EvBinding::Const(Value::from("hello"))],
        true,
    );
    let lease = p.lease();
    let scan = Box::new(AEVScanExec::new(
        Arc::new(spec.clone()),
        p.clone(),
        lease.id(),
        false,
    ));
    let outer =
        Box::new(DependentJoinExec::new(rows(Schema::empty(), vec![vec![]]), scan, &spec).unwrap());
    let inner = rows(
        int_schema(&["x"]),
        (1..=3).map(|i| vec![Value::Int(i)]).collect(),
    );
    let cross = Box::new(NestedLoopJoinExec::new(outer, inner, None).unwrap());
    let out = drain(Box::new(ReqSyncExec::new(cross, p.clone(), None)));
    assert_eq!(out.len(), 3);
    assert!(
        out.iter().all(|t| t.get(2).as_int().ok() == Some(5)),
        "{out:?}"
    );
    assert_eq!(p.stats().coalesced, 1);
    assert_eq!(p.wait(outside).unwrap().count(), Some(5));
    drop(lease);
    assert_eq!(p.wait(outside).unwrap().count(), Some(5));
    p.release(outside);
    assert_eq!(p.live_calls(), 0);
}

#[test]
fn reqsync_copies_propagate_other_pending_calls() {
    // §4.4: a tuple with placeholders from TWO calls; when the first
    // completes with n rows, the copies must still resolve the second.
    let p = pump();
    let lease = p.lease();
    let schema = Schema::new(vec![Column::new("term", DataType::Varchar)]);
    let left = rows(schema, vec![vec![Value::from("many")]]);

    let spec_a = pages_spec("A");
    let scan_a = Box::new(AEVScanExec::new(
        Arc::new(spec_a.clone()),
        p.clone(),
        lease.id(),
        false,
    ));
    let dj_a = Box::new(DependentJoinExec::new(left, scan_a, &spec_a).unwrap());

    let mut spec_b = pages_spec("B");
    spec_b.rank_limit = 2;
    // B binds on the same original term column.
    let scan_b = Box::new(AEVScanExec::new(
        Arc::new(spec_b.clone()),
        p.clone(),
        lease.id(),
        false,
    ));
    let dj_b = Box::new(DependentJoinExec::new(dj_a, scan_b, &spec_b).unwrap());

    let sync = Box::new(ReqSyncExec::new(dj_b, p.clone(), None));
    let out = drain(sync);
    // 3 hits from A × 2 hits from B... but B issued ONE call per A-tuple
    // (the optimistic tuple), so: 1 optimistic A-tuple → B joins once →
    // 1 buffered tuple with placeholders from both calls → A patches to 3
    // copies, each then patched by B's 2-hit result → 3 × 2 = 6.
    assert_eq!(out.len(), 6);
    for t in &out {
        assert!(!t.is_incomplete());
    }
    drop(lease);
    assert_eq!(p.live_calls(), 0);
}

#[test]
fn reqsync_error_path_compacts_every_waiting_tuple() {
    // Regression: when a call fails while SEVERAL tuples wait on it
    // (§4.3 case-3 copies all carrying the same second placeholder),
    // the error path used to compact only the first waiter out of the
    // buffer — the rest stayed orphaned (buffered gauge stuck high)
    // until close(). The buffer must empty when the error surfaces, not
    // at close, and the lease then gives back every call.
    struct Failing;
    impl SearchService for Failing {
        fn execute(&self, req: &SearchRequest) -> ServiceReply {
            ServiceReply {
                result: Err(wsq_common::WsqError::Search(format!(
                    "503 service unavailable for {}",
                    req.expr
                ))),
                latency: std::time::Duration::from_millis(20),
            }
        }
    }
    let obs = wsq_obs::Obs::enabled();
    let p = ReqPump::new(PumpConfig {
        obs: obs.clone(),
        ..PumpConfig::default()
    });
    // Declared latencies keep both calls pending, so their tuples reach
    // ReqSync (an instant reply would be delivered to its scan), and A's
    // reply lands well before B's failure.
    p.register_service("AV", Arc::new(Declared(Scripted, Duration::from_millis(1))));
    p.register_service("BAD", Arc::new(Failing));

    // One source row → A's optimistic tuple → B joins → one buffered
    // tuple holding placeholders from both calls. A ("many") patches
    // into 3 copies, each still waiting on B; B then fails with all 3
    // indexed under its call.
    let schema = Schema::new(vec![Column::new("term", DataType::Varchar)]);
    let left = rows(schema, vec![vec![Value::from("many")]]);
    let lease = p.lease();
    let spec_a = pages_spec("A");
    let scan_a = Box::new(AEVScanExec::new(
        Arc::new(spec_a.clone()),
        p.clone(),
        lease.id(),
        false,
    ));
    let dj_a = Box::new(DependentJoinExec::new(left, scan_a, &spec_a).unwrap());
    let mut spec_b = pages_spec("B");
    spec_b.engine = "BAD".into();
    let scan_b = Box::new(AEVScanExec::new(
        Arc::new(spec_b.clone()),
        p.clone(),
        lease.id(),
        false,
    ));
    let dj_b = Box::new(DependentJoinExec::new(dj_a, scan_b, &spec_b).unwrap());

    let mut sync = ReqSyncExec::new(dj_b, p.clone(), None);
    sync.open().unwrap();
    let err = loop {
        match sync.next() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("query must fail on the BAD engine"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains("503"), "{err}");
    // Every waiter was compacted out when the error surfaced — before
    // close().
    let m = obs.metrics().unwrap();
    assert_eq!(
        m.reqsync_buffered.get(),
        0,
        "error path left buffer slots occupied"
    );
    sync.close().unwrap();
    drop(sync);
    drop(lease);
    assert_eq!(p.live_calls(), 0, "error path leaked pump registrations");
}

#[test]
fn reqsync_passthrough_of_complete_tuples() {
    // Tuples with no placeholders flow straight through.
    let p = pump();
    let child = rows(
        int_schema(&["x"]),
        vec![vec![Value::Int(1)], vec![Value::Int(2)]],
    );
    let mut sync = ReqSyncExec::new(child, p.clone(), None);
    sync.open().unwrap();
    assert_eq!(sync.next().unwrap().unwrap().get(0).as_int().unwrap(), 1);
    assert_eq!(sync.next().unwrap().unwrap().get(0).as_int().unwrap(), 2);
    assert!(sync.next().unwrap().is_none());
}

#[test]
fn evscan_standalone_with_constant_bindings() {
    // Synchronous EVScan — the scan that waits — driven by a Values(1
    // empty row) dependent join. Its call is pending when registered, and
    // the scan waits for it instead of emitting a placeholder.
    let spec = Arc::new(EvSpec::new(
        VTableKind::WebCount,
        "AV",
        "WC",
        vec![EvBinding::Const(Value::from("hello"))],
        true,
    ));
    let p = pump();
    let lease = p.lease();
    let left = rows(Schema::empty(), vec![vec![]]);
    let scan = Box::new(AEVScanExec::new(spec.clone(), p.clone(), lease.id(), true));
    let dj = Box::new(DependentJoinExec::new(left, scan, &spec).unwrap());
    let out = drain(dj);
    assert_eq!(out.len(), 1);
    // SearchExp, T1, Count
    assert_eq!(out[0].get(0).as_str().unwrap(), "hello");
    assert_eq!(out[0].get(1).as_str().unwrap(), "hello");
    assert_eq!(out[0].get(2).as_int().unwrap(), 5);
    assert_eq!(p.stats().registered, 1);
    drop(lease);
    assert_eq!(p.live_calls(), 0);
}

#[test]
fn aevscan_rejects_pending_bindings() {
    let p = pump();
    let lease = p.lease();
    let spec = pages_spec("W");
    let mut scan = AEVScanExec::new(Arc::new(spec), p.clone(), lease.id(), false);
    scan.rebind(&mut vec![Value::Pending(wsq_common::Placeholder {
        call: wsq_common::CallId(1),
        col: wsq_common::PendingCol::Url,
    })])
    .unwrap();
    scan.open().unwrap();
    let err = scan.next().unwrap_err();
    assert!(err.to_string().contains("placeholder"));
}

/// The read sets executors report at build ([`Executor::narrow`]): what
/// each operator reads of its input, and what the leaves of the Table-1
/// templates are left to build. Also the projection's moves, whose rows
/// must equal those of evaluating every item.
mod read_sets {
    use crate::db::{Database, QueryOptions};
    use crate::engines::EngineRegistry;
    use crate::exec::basic::{plan_items, Item};
    use crate::exec::*;
    use crate::expr::compile;
    use crate::plan::{EvBinding, EvSpec, RerankScorer, VTableKind};
    use crate::ExecutionMode;
    use std::cell::Cell;
    use std::rc::Rc;
    use wsq_common::{Column, DataType, Schema, Tuple, Value};
    use wsq_pump::{PumpConfig, ReqPump};
    use wsq_sql::ast::{AggFunc, BinOp, ColumnRef, Expr, Literal, Statement};

    /// A leaf over fixed rows that records what its parent reads of it and
    /// accepts any bindings.
    struct Probe {
        schema: Schema,
        rows: Vec<Tuple>,
        pos: usize,
        told: Rc<Cell<Option<ColumnSet>>>,
    }

    impl Executor for Probe {
        fn schema(&self) -> &Schema {
            &self.schema
        }
        fn open(&mut self) -> Result<()> {
            self.pos = 0;
            Ok(())
        }
        fn next(&mut self) -> Result<Option<Tuple>> {
            self.pos += 1;
            Ok(self.rows.get(self.pos - 1).cloned())
        }
        fn rebind(&mut self, _values: &mut Vec<Value>) -> Result<()> {
            Ok(())
        }
        fn narrow(&mut self, live: ColumnSet) {
            self.told.set(Some(live));
        }
    }

    type Told = Rc<Cell<Option<ColumnSet>>>;

    fn probe(names: &[&str]) -> (Box<dyn Executor>, Told) {
        probe_rows(names, vec![])
    }

    fn probe_rows(names: &[&str], rows: Vec<Vec<Value>>) -> (Box<dyn Executor>, Told) {
        let told = Rc::new(Cell::new(None));
        let schema = Schema::new(
            names
                .iter()
                .map(|n| Column::new(*n, DataType::Int))
                .collect(),
        );
        let rows = rows.into_iter().map(Tuple::new).collect();
        let probe = Probe {
            schema,
            rows,
            pos: 0,
            told: told.clone(),
        };
        (Box::new(probe), told)
    }

    fn set(cols: &[usize]) -> ColumnSet {
        let mut s = ColumnSet::NONE;
        cols.iter().for_each(|&i| s.insert(i));
        s
    }

    /// The offsets below `n` a probe was told are read.
    fn reads(told: &Told, n: usize) -> Vec<usize> {
        let live = told.get().expect("the probe was narrowed");
        (0..n).filter(|&i| live.contains(i)).collect()
    }

    fn col(name: &str) -> Expr {
        Expr::column(name)
    }

    fn add(a: Expr, b: Expr) -> Expr {
        Expr::binary(BinOp::Add, a, b)
    }

    #[test]
    fn a_filter_reads_what_is_read_above_plus_its_predicate() {
        let (child, told) = probe(&["a", "b", "c"]);
        let pred = Expr::binary(BinOp::Gt, col("c"), Expr::Literal(Literal::Int(1)));
        let mut filter = FilterExec::new(child, &pred).unwrap();
        filter.narrow(set(&[0]));
        assert_eq!(reads(&told, 3), [0, 2]);
    }

    #[test]
    fn a_projection_reads_only_what_its_live_items_read() {
        let (child, told) = probe(&["a", "b", "c", "d"]);
        let items = [
            (col("b"), "b".into()),
            (add(col("a"), col("c")), "s".into()),
        ];
        let mut project = ProjectExec::new(child, &items, Schema::empty()).unwrap();
        project.narrow(ColumnSet::ALL);
        assert_eq!(reads(&told, 4), [0, 1, 2]);
        project.narrow(set(&[1]));
        assert_eq!(reads(&told, 4), [0, 2]);
        project.narrow(set(&[0]));
        assert_eq!(reads(&told, 4), [1]);
    }

    #[test]
    fn a_sort_reads_its_keys() {
        let (child, told) = probe(&["a", "b", "c"]);
        let mut sort = SortExec::new(child, &[(col("b"), true)]).unwrap();
        sort.narrow(set(&[0]));
        assert_eq!(reads(&told, 3), [0, 1]);
    }

    #[test]
    fn an_aggregate_reads_its_groups_and_arguments_and_count_star_reads_nothing() {
        let (child, told) = probe(&["g", "v", "w"]);
        let aggs = [(AggFunc::Sum, Some(col("w")), "s".into())];
        let g = ColumnRef {
            qualifier: None,
            name: "g".into(),
        };
        let mut agg = AggregateExec::new(child, &[g], &aggs, Schema::empty()).unwrap();
        agg.narrow(ColumnSet::ALL);
        assert_eq!(reads(&told, 3), [0, 2]);

        let (child, told) = probe(&["g", "v", "w"]);
        let aggs = [(AggFunc::Count, None, "n".into())];
        let mut count = AggregateExec::new(child, &[], &aggs, Schema::empty()).unwrap();
        count.narrow(ColumnSet::ALL);
        assert_eq!(reads(&told, 3), [] as [usize; 0]);
    }

    #[test]
    fn distinct_and_rerank_read_everything_and_limit_and_reqsync_pass_through() {
        let (child, told) = probe(&["a", "b"]);
        DistinctExec::new(child).narrow(set(&[0]));
        assert_eq!(reads(&told, 2), [0, 1]);

        let (child, told) = probe(&["URL", "b"]);
        RerankExec::new(child, RerankScorer::UrlLen)
            .unwrap()
            .narrow(set(&[1]));
        assert_eq!(reads(&told, 2), [0, 1]);

        let (child, told) = probe(&["a", "b"]);
        LimitExec::new(child, 3).narrow(set(&[1]));
        assert_eq!(reads(&told, 2), [1]);

        let (child, told) = probe(&["a", "b"]);
        let pump = ReqPump::new(PumpConfig::default());
        ReqSyncExec::new(child, pump, None).narrow(set(&[1]));
        assert_eq!(reads(&told, 2), [1]);

        let (child, told) = probe(&["a", "b"]);
        let counters = Instrumentation::new().register(0, String::new());
        Instrumented::new(child, counters).narrow(set(&[0]));
        assert_eq!(reads(&told, 2), [0]);
    }

    #[test]
    fn a_nested_loop_join_splits_what_is_read_and_adds_its_predicate() {
        let (left, l) = probe(&["a", "b"]);
        let (right, r) = probe(&["c", "d"]);
        let pred = Expr::binary(BinOp::Eq, col("b"), col("c"));
        let mut join = NestedLoopJoinExec::new(left, right, Some(&pred)).unwrap();
        join.narrow(set(&[0, 3]));
        assert_eq!(reads(&l, 2), [0, 1]);
        assert_eq!(reads(&r, 2), [0, 1]);
        join.narrow(set(&[0]));
        assert_eq!(reads(&r, 2), [0]);
    }

    #[test]
    fn a_dependent_join_reads_its_binding_columns() {
        let (left, l) = probe(&["a", "b", "c"]);
        let (right, r) = probe(&["SearchExp", "T1", "Count"]);
        let binding = EvBinding::Column(ColumnRef {
            qualifier: None,
            name: "b".into(),
        });
        let spec = EvSpec::new(VTableKind::WebCount, "AV", "W", vec![binding], true);
        let mut join = DependentJoinExec::new(left, right, &spec).unwrap();
        join.narrow(set(&[0, 5]));
        assert_eq!(reads(&l, 3), [0, 1]);
        assert_eq!(reads(&r, 3), [2]);
    }

    #[test]
    fn column_sets_past_64_columns_read_everything() {
        assert!(ColumnSet::NONE.contains(64));
        assert!(!ColumnSet::NONE.contains(63));
        assert_eq!(set(&[3, 5]).skip(3), {
            let mut s = set(&[0, 2]);
            (61..64).for_each(|i| s.insert(i));
            s
        });
        assert_eq!(set(&[1]).skip(64), ColumnSet::ALL);
    }

    /// What each leaf of `sql`'s executor tree is left to build, in plan
    /// order: its columns, a dead one marked `~`.
    fn leaf_reads(db: &Database, sql: &str, mode: ExecutionMode) -> Vec<String> {
        let mut engines = EngineRegistry::new();
        engines.register("AV", true);
        engines.register("Google", false);
        let Statement::Select(stmt) = wsq_sql::parse_one(sql).unwrap() else {
            panic!("{sql} is not a SELECT");
        };
        let opts = QueryOptions {
            mode,
            ..QueryOptions::default()
        };
        let plan = db.plan_query(&stmt, &engines, opts).unwrap();
        let pump = ReqPump::new(PumpConfig::default());
        let lease = pump.lease();
        let ctx = ExecContext {
            tables: db,
            pump: pump.clone(),
            lease: &lease,
        };
        LEAF_READS.with(|log| log.borrow_mut().clear());
        build(&plan, &ctx).unwrap();
        LEAF_READS.with(|log| {
            log.borrow()
                .iter()
                .map(|cols| {
                    let cols = cols.iter().map(|(name, live)| {
                        let dead = if *live { "" } else { "~" };
                        format!("{dead}{name}")
                    });
                    cols.collect::<Vec<_>>().join(" ")
                })
                .collect()
        })
    }

    fn reference_db() -> Database {
        let mut db = Database::open_in_memory().unwrap();
        let varchar = |n| Column::new(n, DataType::Varchar);
        let states = vec![
            varchar("Name"),
            Column::new("Population", DataType::Int),
            varchar("Capital"),
        ];
        db.create_table("States", &Schema::new(states)).unwrap();
        db.create_table("Sigs", &Schema::new(vec![varchar("Name")]))
            .unwrap();
        let orders = vec![
            Column::new("Id", DataType::Int),
            Column::new("Cust", DataType::Int),
            varchar("Note"),
        ];
        db.create_table("Orders", &Schema::new(orders)).unwrap();
        db.create_index("Orders", "Id").unwrap();
        db
    }

    /// The Table-1 templates as `wsqbench` spells them.
    const TEMPLATES: [&str; 3] = [
        "SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND WebCount.T2 = 'computer'",
        "SELECT Name, Count, URL, Rank FROM States, WebCount, WebPages \
         WHERE Name = WebCount.T1 AND WebCount.T2 = 'computer' \
         AND Name = WebPages.T1 AND WebPages.T2 = 'beaches' AND WebPages.Rank <= 2",
        "SELECT Name, AV.URL, G.URL FROM Sigs, WebPages_AV AV, WebPages_Google G \
         WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 3 AND G.Rank <= 3 \
         AND AV.T2 = 'computer' AND G.T2 = 'computer'",
    ];

    #[test]
    fn the_table_1_templates_leave_searchexp_the_terms_and_date_dead() {
        let db = reference_db();
        let want: [&[&str]; 3] = [
            &[
                "States.Name ~States.Population ~States.Capital",
                "~WebCount.SearchExp ~WebCount.T1 ~WebCount.T2 WebCount.Count",
            ],
            &[
                "States.Name ~States.Population ~States.Capital",
                "~WebCount.SearchExp ~WebCount.T1 ~WebCount.T2 WebCount.Count",
                "~WebPages.SearchExp ~WebPages.T1 ~WebPages.T2 WebPages.URL WebPages.Rank \
                 ~WebPages.Date",
            ],
            &[
                "Sigs.Name",
                "~AV.SearchExp ~AV.T1 ~AV.T2 AV.URL ~AV.Rank ~AV.Date",
                "~G.SearchExp ~G.T1 ~G.T2 G.URL ~G.Rank ~G.Date",
            ],
        ];
        for (sql, want) in TEMPLATES.iter().zip(want) {
            for mode in [ExecutionMode::Asynchronous, ExecutionMode::Synchronous] {
                assert_eq!(leaf_reads(&db, sql, mode), want, "{mode:?}: {sql}");
            }
        }
    }

    #[test]
    fn count_star_reads_no_column_and_an_index_key_filter_keeps_its_key() {
        let db = reference_db();
        let async_ = ExecutionMode::Asynchronous;
        assert_eq!(
            leaf_reads(&db, "SELECT COUNT(*) FROM States", async_),
            ["~States.Name ~States.Population ~States.Capital"]
        );
        assert_eq!(
            leaf_reads(
                &db,
                "SELECT COUNT(*) FROM Sigs, WebPages WHERE Name = T1",
                async_
            ),
            [
                "Sigs.Name",
                "~WebPages.SearchExp ~WebPages.T1 ~WebPages.URL ~WebPages.Rank ~WebPages.Date"
            ]
        );
        // `IndexScan` returns a superset of the key range; the `Select` above
        // it re-checks the key, so the key stays live.
        assert_eq!(
            leaf_reads(&db, "SELECT Cust FROM Orders WHERE Id = 5", async_),
            ["Orders.Id Orders.Cust ~Orders.Note"]
        );
        assert_eq!(
            leaf_reads(&db, "SELECT * FROM States", async_),
            ["States.Name States.Population States.Capital"]
        );
    }

    /// `items` over `input`, through `ProjectExec` under `LIMIT limit` over
    /// `ORDER BY` its first output column, and as the plain evaluation of
    /// every item over the same sorted, cut rows.
    fn project_both_ways(
        input: &[&str],
        rows: Vec<Vec<Value>>,
        items: &[(Expr, std::sync::Arc<str>)],
        limit: u64,
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        let (child, _) = probe_rows(input, rows.clone());
        let in_schema = child.schema().clone();
        let out_schema = Schema::new(
            items
                .iter()
                .map(|(_, name)| Column::new(name.clone(), DataType::Int))
                .collect(),
        );
        let project = ProjectExec::new(child, items, out_schema).unwrap();
        let first = Expr::Literal(Literal::Int(1));
        let sorted = SortExec::new(Box::new(project), &[(first, false)]).unwrap();
        let limited = LimitExec::new(Box::new(sorted), limit);
        let mut tree: Box<dyn Executor> = Box::new(limited);
        tree.narrow(ColumnSet::ALL);
        let moved = collect(tree.as_mut()).unwrap();

        let exprs: Vec<_> = items
            .iter()
            .map(|(e, _)| compile(e, &in_schema).unwrap())
            .collect();
        let mut evaluated: Vec<Tuple> = rows
            .into_iter()
            .map(|r| {
                let t = Tuple::new(r);
                Tuple::new(exprs.iter().map(|e| e.eval(&t).unwrap()).collect())
            })
            .collect();
        evaluated.sort_by(|a, b| a.get(0).compare(b.get(0)).unwrap());
        evaluated.truncate(limit as usize);
        (moved, evaluated)
    }

    fn int_rows(rows: &[[i64; 3]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    #[test]
    fn projection_moves_only_columns_read_once() {
        let exprs = |es: &[Expr]| {
            let schema = Schema::new(
                ["a", "b", "c"]
                    .iter()
                    .map(|n| Column::new(*n, DataType::Int))
                    .collect(),
            );
            es.iter()
                .map(|e| (compile(e, &schema).unwrap(), Item::Eval))
                .collect::<Vec<_>>()
        };
        let items = |mut items: Vec<(CExpr, Item)>, live| {
            plan_items(&mut items, live);
            items.into_iter().map(|(_, i)| i).collect::<Vec<_>>()
        };
        // A column named twice is copied; one named once is moved.
        let twice = exprs(&[col("a"), col("a"), col("b")]);
        let all = ColumnSet::ALL;
        assert_eq!(items(twice, all), [Item::Eval, Item::Eval, Item::Move(1)]);
        // A column a computed item also reads is copied.
        let mixed = exprs(&[col("a"), add(col("a"), col("b")), col("c")]);
        assert_eq!(items(mixed, all), [Item::Eval, Item::Eval, Item::Move(2)]);
        // A dead item is `Null`, and reads nothing: the other reader moves.
        let twice = exprs(&[col("a"), col("a"), col("b")]);
        assert_eq!(
            items(twice, set(&[1, 2])),
            [Item::Dead(None), Item::Move(0), Item::Move(1)]
        );
        // A dead column no live item reads passes a placeholder on; a
        // computed one is `Null`.
        let dead = exprs(&[col("a"), add(col("b"), col("c")), col("b")]);
        assert_eq!(
            items(dead, set(&[2])),
            [Item::Dead(Some(0)), Item::Dead(None), Item::Move(1)]
        );
    }

    /// A projection nothing above reads, as a view's under a `ReqSync`
    /// that `COUNT(*)` narrows to nothing, still hands the placeholder on:
    /// it is what tells `ReqSync` the tuple waits on a call.
    #[test]
    fn a_dead_projection_never_drops_a_placeholder() {
        let pending = Value::Pending(wsq_common::Placeholder {
            call: wsq_common::CallId(7),
            col: wsq_common::PendingCol::Url,
        });
        let row = vec![Value::Int(1), pending.clone()];
        let (child, _) = probe_rows(&["a", "u"], vec![row]);
        let items = [(col("a"), "a".into()), (col("u"), "u".into())];
        let schema = child.schema().clone();
        let mut project = ProjectExec::new(child, &items, schema).unwrap();
        project.narrow(ColumnSet::NONE);
        project.open().unwrap();
        let got = project.next().unwrap().unwrap();
        assert_eq!(got.values(), &[Value::Null, pending]);
    }

    #[test]
    fn projected_rows_equal_the_evaluated_ones() {
        let rows = int_rows(&[[3, 30, 300], [1, 10, 100], [2, 20, 200], [4, 40, 400]]);
        let cases: [&[(Expr, std::sync::Arc<str>)]; 3] = [
            // `SELECT a, a …`: a duplicated column.
            &[(col("a"), "a".into()), (col("a"), "a2".into())],
            // Columns and computed items mixed.
            &[
                (col("a"), "a".into()),
                (add(col("a"), col("b")), "s".into()),
                (col("c"), "c".into()),
                (col("b"), "b".into()),
            ],
            // Moves only.
            &[(col("c"), "c".into()), (col("a"), "a".into())],
        ];
        for items in cases {
            for limit in [0, 2, 10] {
                let (moved, evaluated) =
                    project_both_ways(&["a", "b", "c"], rows.clone(), items, limit);
                assert_eq!(moved, evaluated, "limit {limit}");
            }
        }
    }
}
