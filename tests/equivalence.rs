//! The workspace's central correctness property: **asynchronous iteration
//! is semantically transparent**. For any WSQ query, every combination of
//! execution mode, ReqSync placement strategy and pump concurrency limit
//! must produce the same bag of rows as plain sequential execution.
//!
//! Queries are generated from a grammar covering the paper's shapes:
//! WebCount and WebPages scans, one or two engines, constant and column
//! bindings, a virtual table before a stored one (whose pending tuple a
//! cross product copies and a filter may drop), predicates over
//! placeholder attributes (carried filters), rank limits, aggregation,
//! DISTINCT, ORDER BY and LIMIT.
//!
//! Both sides of those checks go through the pump; the sequential side is
//! itself checked against direct service calls that bypass it
//! (`synchronous_rows_match_direct_service_calls`).

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use wsqdsq::engine::db::Database;
use wsqdsq::engine::engines::EngineRegistry;
use wsqdsq::engine::QueryOptions as EngineOpts;
use wsqdsq::prelude::*;

/// One shared corpus for the whole test binary (generation is the
/// expensive part; databases and pumps are cheap per-case).
fn web() -> &'static SimWeb {
    static WEB: OnceLock<SimWeb> = OnceLock::new();
    WEB.get_or_init(|| SimWeb::build(CorpusConfig::small()))
}

fn fresh_db() -> Database {
    let mut db = Database::open_in_memory().unwrap();
    let engines = EngineRegistry::new();
    let pump = ReqPump::new(PumpConfig::default());
    db.run_sql(
        "CREATE TABLE States (Name VARCHAR(32), Population INT, Capital VARCHAR(32))",
        &engines,
        &pump,
        EngineOpts::default(),
    )
    .unwrap();
    let rows: Vec<Tuple> = wsqdsq::websim::data::STATES
        .iter()
        .map(|s| {
            Tuple::new(vec![
                Value::from(s.name),
                Value::Int(s.population),
                Value::from(s.capital),
            ])
        })
        .collect();
    db.insert("States", &rows).unwrap();
    db
}

fn registry() -> EngineRegistry {
    let mut engines = EngineRegistry::new();
    engines.register("AV", true);
    engines.register("Google", false);
    engines
}

fn pump_with(max_concurrent: usize, jitter: bool) -> Arc<ReqPump> {
    let pump = ReqPump::new(PumpConfig {
        max_concurrent,
        ..PumpConfig::default()
    });
    // Jittered latency makes completion *order* adversarial: calls
    // finish in an order unrelated to registration order, which is what
    // exercises the capped stall/drain loop's reordering tolerance.
    let latency = if jitter {
        LatencyModel::Jitter {
            base: std::time::Duration::ZERO,
            jitter: std::time::Duration::from_millis(1),
        }
    } else {
        LatencyModel::Zero
    };
    pump.register_service(
        "AV",
        web().engine_with_latency(EngineKind::AltaVista, latency),
    );
    pump.register_service(
        "Google",
        web().engine_with_latency(EngineKind::Google, latency),
    );
    pump
}

/// A randomly generated WSQ query.
#[derive(Debug, Clone)]
struct GenQuery {
    sql: String,
    ordered: bool,
}

fn topics() -> Vec<&'static str> {
    vec![
        "computer",
        "beaches",
        "four corners",
        "skiing",
        "Knuth",
        "zzznope",
    ]
}

fn arb_query() -> impl Strategy<Value = GenQuery> {
    let pop_filter = prop_oneof![
        Just(String::new()),
        (1u32..20).prop_map(|m| format!(" AND Population > {}", m as u64 * 1_000_000)),
    ];
    let shapes = 0..8usize;
    (
        shapes,
        pop_filter,
        0..topics().len(),
        1u32..6,
        prop::option::of(1u64..20),
        any::<bool>(),
    )
        .prop_map(|(shape, pop, topic_i, rank, limit, count_filter)| {
            let topic = topics()[topic_i];
            let (mut sql, mut ordered) = match shape {
                // WebCount, default template, optional topic binding.
                0 => (
                    format!(
                        "SELECT Name, Count FROM States, WebCount \
                         WHERE Name = T1 AND T2 = '{topic}'{pop}{}",
                        if count_filter { " AND Count > 1" } else { "" },
                    ),
                    false,
                ),
                // Simple one-binding WebCount with ordering.
                1 => (
                    format!(
                        "SELECT Name, Count FROM States, WebCount WHERE Name = T1{pop} \
                         ORDER BY Count DESC, Name"
                    ),
                    true,
                ),
                // WebPages with a rank limit.
                2 => (
                    format!(
                        "SELECT Name, URL, Rank FROM States, WebPages \
                         WHERE Name = T1 AND Rank <= {rank}{pop} ORDER BY Name, Rank"
                    ),
                    true,
                ),
                // Two engines, URL agreement (carried filter over CP).
                3 => (
                    format!(
                        "SELECT Name, AV.URL FROM States, WebPages_AV AV, WebPages_Google G \
                         WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= {rank} \
                         AND G.Rank <= {rank} AND AV.URL = G.URL{pop}"
                    ),
                    false,
                ),
                // Capital-vs-state self-join of WebCount.
                4 => (
                    format!(
                        "SELECT Capital, C.Count, Name, S.Count \
                         FROM States, WebCount C, WebCount S \
                         WHERE Capital = C.T1 AND Name = S.T1 AND C.Count > S.Count{pop}"
                    ),
                    false,
                ),
                // A constant-bound WebCount before States: the cross
                // product copies its pending tuple onto every state, or a
                // filter drops every copy.
                5 => (
                    format!(
                        "SELECT Name, Count FROM WebCount, States \
                         WHERE T1 = '{topic}'{pop}{}",
                        if count_filter {
                            " AND Name = 'Nowhere'"
                        } else {
                            ""
                        },
                    ),
                    false,
                ),
                // Two scans of one request around States coalesce onto
                // one call, named twice in each copied tuple.
                6 => (
                    format!(
                        "SELECT Name, W1.Count, W2.Count \
                         FROM WebCount W1, States, WebCount W2 \
                         WHERE W1.T1 = '{topic}' AND W2.T1 = '{topic}'{pop}"
                    ),
                    false,
                ),
                // Aggregation over web counts (clash case 3).
                _ => (
                    format!(
                        "SELECT SUM(Count), COUNT(*), MAX(Count) FROM States, WebCount \
                         WHERE Name = T1 AND T2 = '{topic}'{pop}"
                    ),
                    false,
                ),
            };
            if let Some(n) = limit {
                if ordered {
                    sql.push_str(&format!(" LIMIT {n}"));
                } else {
                    // LIMIT without total order is nondeterministic; skip.
                    let _ = n;
                }
            }
            ordered &= true;
            GenQuery { sql, ordered }
        })
}

fn run_rows(
    db: &Database,
    pump: &Arc<ReqPump>,
    engines: &EngineRegistry,
    sql: &str,
    opts: EngineOpts,
) -> Vec<Tuple> {
    let stmt = wsqdsq::sql::parse_one(sql).unwrap();
    let sel = match stmt {
        wsqdsq::sql::Statement::Select(s) => s,
        _ => unreachable!(),
    };
    db.run_query(&sel, engines, pump, opts)
        .unwrap_or_else(|e| panic!("query failed ({e}): {sql}"))
        .rows
}

fn run_with(
    db: &Database,
    pump: &Arc<ReqPump>,
    engines: &EngineRegistry,
    sql: &str,
    opts: EngineOpts,
) -> Vec<String> {
    run_rows(db, pump, engines, sql, opts)
        .iter()
        .map(|t| t.to_string())
        .collect()
}

fn run(db: &Database, pump: &Arc<ReqPump>, sql: &str, opts: EngineOpts) -> Vec<String> {
    run_with(db, pump, &registry(), sql, opts)
}

/// The pump's live calls once every call released in flight has been
/// delivered: a query whose filter drops a pending tuple ends with that
/// tuple's call still in flight, and the pump forgets it at delivery.
fn delivered_live_calls(pump: &ReqPump) -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while pump.live_calls() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    pump.live_calls()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn async_iteration_is_transparent(
        q in arb_query(),
        max_concurrent in prop_oneof![Just(1usize), Just(3), Just(64)],
        strategy in prop_oneof![
            Just(PlacementStrategy::Full),
            Just(PlacementStrategy::InsertionOnly)
        ],
        cap in prop_oneof![Just(None), (1usize..12).prop_map(Some)],
        jitter in any::<bool>(),
    ) {
        let db = fresh_db();
        let pump = pump_with(max_concurrent, jitter);

        let baseline = {
            let mut rows = run(&db, &pump, &q.sql, EngineOpts {
                mode: ExecutionMode::Synchronous,
                ..Default::default()
            });
            if !q.ordered { rows.sort(); }
            rows
        };

        let mut got = run(&db, &pump, &q.sql, EngineOpts {
            mode: ExecutionMode::Asynchronous,
            strategy,
            ..Default::default()
        });
        if !q.ordered { got.sort(); }

        prop_assert_eq!(&got, &baseline,
            "config ({:?},mc={}) diverged on: {}",
            strategy, max_concurrent, q.sql);
        // No leaked pump registrations.
        prop_assert_eq!(delivered_live_calls(&pump), 0,
            "leaked calls (mc={}): {}", max_concurrent, q.sql);

        // Admission control is invisible in the results: the capped run
        // returns the exact multiset the unbounded run did, for every
        // cap >= 1.
        let capped_opts = EngineOpts {
            mode: ExecutionMode::Asynchronous,
            strategy,
            reqsync_cap: cap,
            ..Default::default()
        };
        let mut capped = run(&db, &pump, &q.sql, capped_opts);
        if !q.ordered { capped.sort(); }
        prop_assert_eq!(&capped, &got,
            "cap={:?} changed results under ({:?},mc={}): {}",
            cap, strategy, max_concurrent, q.sql);
        prop_assert_eq!(delivered_live_calls(&pump), 0,
            "leaked calls (cap={:?}, mc={}): {}", cap, max_concurrent, q.sql);

        // Static resource bounds hold for the exact plan that just ran:
        // every stamped ReqSync cap honours the session cap, and the
        // symbolic peak of buffered tuples is provably <= the cap.
        let sel = match wsqdsq::sql::parse_one(&q.sql).unwrap() {
            wsqdsq::sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let plan = db.plan_query(&sel, &registry(), capped_opts).unwrap();
        let bounds = wsq_analyze::verify_bounds(&plan, cap)
            .unwrap_or_else(|e| panic!("bounds rejected (cap={cap:?}): {e}\nplan: {plan:?}"));
        if let Some(cap) = cap {
            prop_assert!(
                bounds.peak_buffered.le(wsq_analyze::Bound::Finite(cap as u64)),
                "peak buffered {} above cap {} for: {}",
                bounds.peak_buffered, cap, q.sql);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PR-10: engine racing is semantically transparent. `WebCount_ANY`
    /// over 1–3 members of the race group — each with its own jittered
    /// latency, so the winner varies per call — returns exactly the
    /// multiset the synchronous single-engine baseline does (the members
    /// share one corpus, so any winner's answer is THE answer), under
    /// caps, and the losers' cancelled registrations all drain.
    #[test]
    fn racing_any_is_transparent(
        members in 1usize..4,
        stagger_ms in 0u64..3,
        cap in prop_oneof![Just(None), Just(Some(4usize))],
    ) {
        let db = fresh_db();
        let mut engines = EngineRegistry::new();
        let pump = ReqPump::new(PumpConfig::default());
        let names: Vec<String> = (1..=members).map(|i| format!("R{i}")).collect();
        for (i, n) in names.iter().enumerate() {
            // Per-engine latency: member i starts i*stagger behind, with
            // jitter so completion order is adversarial, not fixed.
            let latency = LatencyModel::Jitter {
                base: std::time::Duration::from_millis(stagger_ms * i as u64),
                jitter: std::time::Duration::from_millis(1),
            };
            let svc = web().engine_with_latency(EngineKind::AltaVista, latency);
            engines.register(n, true);
            pump.register_service(n, svc);
        }
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        engines.set_race_group(&refs).unwrap();

        let sql = "SELECT Name, Count FROM States, WebCount_ANY \
                   WHERE Name = T1 ORDER BY Count DESC, Name";
        // Synchronous ANY resolves to the group's first member —
        // blocking, raceless: the ground truth.
        let baseline = run_with(&db, &pump, &engines, sql, EngineOpts {
            mode: ExecutionMode::Synchronous,
            ..Default::default()
        });
        let got = run_with(&db, &pump, &engines, sql, EngineOpts {
            mode: ExecutionMode::Asynchronous,
            reqsync_cap: cap,
            ..Default::default()
        });
        prop_assert_eq!(&got, &baseline,
            "racing {} members (stagger={}ms cap={:?}) diverged",
            members, stagger_ms, cap);
        // Cancelled losers release asynchronously; poll to the drain.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while pump.live_calls() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        prop_assert_eq!(pump.live_calls(), 0, "racing leaked pump slots");
    }

    /// PR-10: `RERANK BY <scorer>` is exactly a stable ascending sort of
    /// the un-reranked output by the scorer — byte-identical against the
    /// deterministic synchronous pipeline, and the same multiset in
    /// score-monotone order under asynchronous iteration with jitter.
    #[test]
    fn rerank_is_a_stable_sort_of_the_baseline(
        scorer_i in 0usize..3,
        rank in 1u32..4,
        jitter in any::<bool>(),
    ) {
        let scorer = ["url_depth", "url_len", "rank"][scorer_i];
        // Mirror of RerankScorer::score over the (Name, URL, Rank) row.
        let score = |t: &Tuple| -> i64 {
            match scorer {
                "url_depth" => t.get(1).as_str().unwrap().matches('/').count() as i64,
                "url_len" => t.get(1).as_str().unwrap().chars().count() as i64,
                _ => t.get(2).as_int().unwrap(),
            }
        };
        let db = fresh_db();
        let pump = pump_with(8, jitter);
        let engines = registry();
        let base_sql = format!(
            "SELECT Name, URL, Rank FROM States, WebPages \
             WHERE Name = T1 AND Rank <= {rank}"
        );
        let sql = format!("{base_sql} RERANK BY {scorer}");

        let baseline = run_rows(&db, &pump, &engines, &base_sql, EngineOpts {
            mode: ExecutionMode::Synchronous,
            ..Default::default()
        });
        let mut expected = baseline;
        expected.sort_by_key(&score); // stable, like RerankExec
        let expected: Vec<String> = expected.iter().map(|t| t.to_string()).collect();

        let sync = run_with(&db, &pump, &engines, &sql, EngineOpts {
            mode: ExecutionMode::Synchronous,
            ..Default::default()
        });
        prop_assert_eq!(&sync, &expected,
            "sync RERANK BY {} is not the stable sort of the baseline", scorer);

        let async_rows = run_rows(&db, &pump, &engines, &sql, EngineOpts {
            mode: ExecutionMode::Asynchronous,
            ..Default::default()
        });
        // Jittered completion order may permute tie scores, but the
        // output must be score-monotone and the same multiset.
        let scores: Vec<i64> = async_rows.iter().map(&score).collect();
        prop_assert!(scores.windows(2).all(|w| w[0] <= w[1]),
            "async RERANK BY {} emitted out of score order: {:?}", scorer, scores);
        let mut got: Vec<String> = async_rows.iter().map(|t| t.to_string()).collect();
        let mut want = expected;
        got.sort();
        want.sort();
        prop_assert_eq!(got, want,
            "async RERANK BY {} changed the row multiset", scorer);
        prop_assert_eq!(pump.live_calls(), 0);
    }
}

/// The acceptance workload: the 50-state WebCount fan-out under latency
/// high enough that the unbounded run buffers the whole fan-out, while
/// `cap = 8` provably keeps occupancy at or below 8 — with byte-identical
/// output and the buffer fully drained afterwards.
#[test]
fn cap_eight_bounds_the_fifty_state_fan_out() {
    let query = "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                 ORDER BY Count DESC, Name";
    let latency = LatencyModel::Jitter {
        base: std::time::Duration::from_millis(1),
        jitter: std::time::Duration::from_millis(2),
    };
    let mut unbounded = Wsq::open_in_memory(WsqConfig {
        latency,
        ..WsqConfig::fast()
    })
    .unwrap();
    unbounded.load_reference_data().unwrap();
    let baseline = unbounded.query(query).unwrap().to_table();
    let um = unbounded.obs().metrics().unwrap();
    assert!(
        um.reqsync_buffered.high_water() > 8,
        "workload too tame to exercise the cap (high-water {})",
        um.reqsync_buffered.high_water()
    );

    let mut capped = Wsq::open_in_memory(WsqConfig {
        latency,
        query: QueryOptions {
            reqsync_cap: Some(8),
            ..Default::default()
        },
        ..WsqConfig::fast()
    })
    .unwrap();
    capped.load_reference_data().unwrap();
    let got = capped.query(query).unwrap().to_table();
    assert_eq!(got, baseline, "cap=8 changed the result");

    let m = capped.obs().metrics().unwrap();
    assert!(
        m.reqsync_buffered.high_water() <= 8,
        "cap=8 exceeded: high-water {}",
        m.reqsync_buffered.high_water()
    );
    assert!(m.reqsync_stalls.get() > 0, "fan-out of 50 never stalled");
    assert_eq!(m.reqsync_buffered.get(), 0, "buffer not drained");
    assert_eq!(capped.pump().live_calls(), 0);
}

/// Template 2 — two dependent joins — with every call pending (a 20 ms
/// reply) under a ReqSync cap of 4, so both joins stall on the cap while
/// calls are in flight. `prefetch_depth: 4` is set too, as a query that
/// once asked for ahead-of-need registration would: it must change
/// nothing. Every one of ten runs returns the synchronous plan's rows and
/// drains every call.
#[test]
fn two_capped_joins_over_pending_calls_match_the_synchronous_plan() {
    let query = "SELECT Name, Count, URL, Rank \
                 FROM States, WebCount, WebPages \
                 WHERE Name = WebCount.T1 AND WebCount.T2 = 'computer' \
                 AND Name = WebPages.T1 AND WebPages.T2 = 'beaches' \
                 AND WebPages.Rank <= 2";
    let sorted = |rows: Vec<Tuple>| {
        let mut rows: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
        rows.sort();
        rows
    };
    // Latency only delays a reply, so the oracle runs without it.
    let mut oracle = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    oracle.load_reference_data().unwrap();
    let sync = QueryOptions {
        mode: ExecutionMode::Synchronous,
        ..Default::default()
    };
    let want = sorted(oracle.query_with(query, sync).unwrap().rows);
    assert!(!want.is_empty());

    let mut failures = Vec::new();
    for run in 0..10 {
        let mut wsq = Wsq::open_in_memory(WsqConfig {
            latency: LatencyModel::Fixed(std::time::Duration::from_millis(20)),
            query: QueryOptions {
                reqsync_cap: Some(4),
                prefetch_depth: 4,
                ..Default::default()
            },
            ..WsqConfig::fast()
        })
        .unwrap();
        wsq.load_reference_data().unwrap();
        match wsq.query(query) {
            Ok(res) if sorted(res.rows.clone()) == want => {}
            Ok(_) => failures.push(format!("run {run}: rows differ")),
            Err(e) => failures.push(format!("run {run}: {e}")),
        }
        let live = wsq.pump().live_calls();
        if live != 0 {
            failures.push(format!("run {run}: {live} live calls"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// An oracle that does not touch the pump. Every sync-vs-async check
/// above runs both sides through the pump, so a coalescing bug there
/// would be shared; here every synchronous row's external columns are
/// checked against the corpus engine's `execute`, called directly with
/// that row's `SearchExp`. The pump runs at one call at a time, at 64,
/// and from two threads at once, whose identical calls coalesce.
#[test]
fn synchronous_rows_match_direct_service_calls() {
    use std::collections::BTreeMap;
    use wsqdsq::pump::{RequestKind, SearchRequest, SearchResult, SearchService};

    const COUNTS: &str = "SELECT SearchExp, Name, Count FROM States, WebCount WHERE Name = T1";
    const PAGES: &str = "SELECT SearchExp, Name, URL, Rank, Date FROM States, WebPages \
                         WHERE Name = T1 AND Rank <= 3";
    let direct = |expr: &str, kind: RequestKind| {
        let req = SearchRequest {
            engine: "AV".into(),
            expr: expr.into(),
            kind,
        };
        web()
            .engine(EngineKind::AltaVista)
            .execute(&req)
            .result
            .unwrap_or_else(|e| panic!("direct call for {expr:?} failed: {e}"))
    };
    let check = |db: &Database, pump: &Arc<ReqPump>, case: &str| {
        let sync = EngineOpts {
            mode: ExecutionMode::Synchronous,
            ..Default::default()
        };
        let counts = run_rows(db, pump, &registry(), COUNTS, sync);
        assert_eq!(counts.len(), 50, "{case}");
        for row in &counts {
            let expr = row.get(0).as_str().unwrap();
            let want = direct(expr, RequestKind::Count).count().unwrap();
            assert_eq!(row.get(2).as_int().unwrap() as u64, want, "{case}: {row}");
        }
        // Each expression's rows are exactly its direct call's hits.
        let mut pages: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for row in run_rows(db, pump, &registry(), PAGES, sync) {
            let hit = format!("{} {} {}", row.get(2), row.get(3), row.get(4));
            let expr = row.get(0).as_str().unwrap().to_string();
            pages.entry(expr).or_default().push(hit);
        }
        assert!(!pages.is_empty(), "{case}");
        for (expr, got) in pages {
            let SearchResult::Pages(hits) = direct(&expr, RequestKind::Pages { max_rank: 3 })
            else {
                panic!("{case}: a pages request answered with a count");
            };
            let want: Vec<String> = hits
                .iter()
                .map(|h| {
                    let url = Value::Str(h.url.clone());
                    let date = Value::Str(h.date.clone());
                    format!("{url} {} {date}", Value::Int(h.rank.into()))
                })
                .collect();
            assert_eq!(got, want, "{case}: {expr}");
        }
    };

    for max_concurrent in [1, 64] {
        let pump = pump_with(max_concurrent, true);
        check(
            &fresh_db(),
            &pump,
            &format!("max_concurrent={max_concurrent}"),
        );
        assert_eq!(pump.live_calls(), 0, "max_concurrent={max_concurrent}");
    }
    // Two sessions on one pump, in step: a call one of them holds or
    // still waits on absorbs the other's identical registration.
    let pump = pump_with(64, true);
    for round in 0..20 {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for session in 0..2 {
                let (pump, start, check) = (&pump, &start, &check);
                s.spawn(move || {
                    let db = fresh_db();
                    start.wait();
                    check(&db, pump, &format!("round {round}, session {session}"));
                });
            }
        });
        assert_eq!(pump.live_calls(), 0, "round {round}");
        if pump.stats().coalesced > 0 {
            return;
        }
    }
    panic!("two sessions in step never coalesced a call");
}
