//! Validation of the asynchronous-iteration cost model: its *rankings*
//! must agree with reality (measured behavior and the paper's analysis),
//! even though its absolute numbers are heuristic.

use std::sync::Arc;
use wsq_common::{Tuple, Value};
use wsq_engine::cost::CostParams;
use wsq_engine::db::{Database, QueryOptions};
use wsq_engine::engines::EngineRegistry;
use wsq_engine::plan::{ExecutionMode, PlacementStrategy};
use wsq_pump::{PumpConfig, ReqPump};
use wsq_websim::{CorpusConfig, EngineKind, SimWeb};

fn setup() -> (Database, EngineRegistry, Arc<ReqPump>) {
    let web = SimWeb::build(CorpusConfig::small());
    let mut engines = EngineRegistry::new();
    engines.register("AV", true);
    engines.register("Google", false);
    let pump = ReqPump::new(PumpConfig::default());
    pump.register_service("AV", web.engine(EngineKind::AltaVista));
    pump.register_service("Google", web.engine(EngineKind::Google));

    let mut db = Database::open_in_memory().unwrap();
    db.run_sql(
        "CREATE TABLE States (Name VARCHAR(32), Population INT, Capital VARCHAR(32))",
        &engines,
        &pump,
        QueryOptions::default(),
    )
    .unwrap();
    let rows: Vec<Tuple> = wsq_websim::data::STATES
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
    (db, engines, pump)
}

fn opts(mode: ExecutionMode, strategy: PlacementStrategy) -> QueryOptions {
    QueryOptions {
        mode,
        strategy,
        ..Default::default()
    }
}

const Q1: &str = "SELECT Name, Count FROM States, WebCount WHERE Name = T1";
const Q2: &str = "SELECT Name, Count, URL FROM States, WebCount, WebPages \
                  WHERE Name = WebCount.T1 AND Name = WebPages.T1 AND WebPages.Rank <= 2";
/// WebPages feeding its URL into a second WebCount: a genuinely chained
/// (two-wave) asynchronous plan.
const CHAINED: &str = "SELECT S.URL, WC.Count FROM States, WebPages S, WebCount WC \
                       WHERE Name = S.T1 AND S.Rank <= 2 AND WC.T1 = S.URL";

#[test]
fn call_counts_match_the_workload() {
    let (db, engines, _pump) = setup();
    let p = CostParams::default();
    let e1 = db
        .estimate_query(
            Q1,
            &engines,
            opts(ExecutionMode::Asynchronous, PlacementStrategy::Full),
            &p,
        )
        .unwrap();
    assert_eq!(e1.external_calls, 50.0, "one WebCount call per state");
    assert_eq!(e1.waves, 1, "all calls in one concurrent wave");

    let e2 = db
        .estimate_query(
            Q2,
            &engines,
            opts(ExecutionMode::Asynchronous, PlacementStrategy::Full),
            &p,
        )
        .unwrap();
    assert_eq!(e2.external_calls, 100.0, "two calls per state");
    assert_eq!(e2.waves, 1, "independent bindings consolidate to one wave");
}

#[test]
fn sync_is_predicted_slower_and_monotone_in_calls() {
    let (db, engines, _pump) = setup();
    let p = CostParams::default();
    let async_opts = opts(ExecutionMode::Asynchronous, PlacementStrategy::Full);
    let e1 = db.estimate_query(Q1, &engines, async_opts, &p).unwrap();
    let e2 = db.estimate_query(Q2, &engines, async_opts, &p).unwrap();
    assert!(e1.sync_secs > e1.async_secs * 5.0);
    assert!(e2.sync_secs > e1.sync_secs, "more calls → slower sync");
    assert!(
        e2.improvement() > e1.improvement(),
        "improvement grows with call count (Table 1 shape): {} vs {}",
        e2.improvement(),
        e1.improvement()
    );
}

#[test]
fn synchronous_plan_costs_have_no_overlap() {
    let (db, engines, _pump) = setup();
    let p = CostParams::default();
    let e = db
        .estimate_query(
            Q1,
            &engines,
            opts(ExecutionMode::Synchronous, PlacementStrategy::Full),
            &p,
        )
        .unwrap();
    // A synchronous plan's calls never meet a ReqSync: the model treats
    // them as one blocking "wave" per call stream — sync == async estimate.
    assert_eq!(e.external_calls, 50.0);
    assert!(e.async_secs >= e.sync_secs * 0.9, "{e:?}");
}

#[test]
fn chained_bindings_cost_an_extra_wave() {
    let (db, engines, _pump) = setup();
    let p = CostParams::default();
    let full = db
        .estimate_query(
            CHAINED,
            &engines,
            opts(ExecutionMode::Asynchronous, PlacementStrategy::Full),
            &p,
        )
        .unwrap();
    assert_eq!(
        full.waves, 2,
        "URL→T1 dependency forces two sequential latency waves"
    );
    let q1 = db
        .estimate_query(
            Q1,
            &engines,
            opts(ExecutionMode::Asynchronous, PlacementStrategy::Full),
            &p,
        )
        .unwrap();
    assert!(full.async_secs > q1.async_secs);
}

#[test]
fn insertion_only_never_beats_full_percolation() {
    let (db, engines, _pump) = setup();
    let p = CostParams::default();
    for q in [Q1, Q2, CHAINED] {
        let full = db
            .estimate_query(
                q,
                &engines,
                opts(ExecutionMode::Asynchronous, PlacementStrategy::Full),
                &p,
            )
            .unwrap();
        let pinned = db
            .estimate_query(
                q,
                &engines,
                opts(
                    ExecutionMode::Asynchronous,
                    PlacementStrategy::InsertionOnly,
                ),
                &p,
            )
            .unwrap();
        assert!(
            pinned.async_secs >= full.async_secs - 1e-9,
            "{q}: pinned {} < full {}",
            pinned.async_secs,
            full.async_secs
        );
        assert_eq!(pinned.external_calls, full.external_calls);
    }
}

#[test]
fn concurrency_cap_raises_async_estimate() {
    let (db, engines, _pump) = setup();
    let wide = CostParams {
        max_concurrent: 64,
        ..CostParams::default()
    };
    let narrow = CostParams {
        max_concurrent: 8,
        ..CostParams::default()
    };
    let o = opts(ExecutionMode::Asynchronous, PlacementStrategy::Full);
    let e_wide = db.estimate_query(Q1, &engines, o, &wide).unwrap();
    let e_narrow = db.estimate_query(Q1, &engines, o, &narrow).unwrap();
    assert!(e_narrow.async_secs > e_wide.async_secs);
    // 50 calls / cap 8 → 7 batches.
    assert!((e_narrow.async_secs / e_wide.async_secs - 7.0).abs() < 0.01);
}

#[test]
fn model_ranking_matches_measured_ranking() {
    // The model's sync-vs-async prediction must match measurement at a
    // latency where the difference is unambiguous.
    let (db, _engines, pump) = setup();
    let web = SimWeb::build(CorpusConfig::small());
    let mut lat_engines = EngineRegistry::new();
    let lat = wsq_websim::LatencyModel::Fixed(std::time::Duration::from_millis(10));
    lat_engines.register("AV", true);
    pump.register_service("AV", web.engine_with_latency(EngineKind::AltaVista, lat));

    let p = CostParams {
        latency_secs: 0.010,
        ..CostParams::default()
    };
    let est = db
        .estimate_query(
            Q1,
            &lat_engines,
            opts(ExecutionMode::Asynchronous, PlacementStrategy::Full),
            &p,
        )
        .unwrap();

    let stmt = match wsq_sql::parse_one(Q1).unwrap() {
        wsq_sql::Statement::Select(s) => s,
        _ => unreachable!(),
    };
    let t0 = std::time::Instant::now();
    db.run_query(
        &stmt,
        &lat_engines,
        &pump,
        opts(ExecutionMode::Synchronous, PlacementStrategy::Full),
    )
    .unwrap();
    let sync_measured = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    db.run_query(
        &stmt,
        &lat_engines,
        &pump,
        opts(ExecutionMode::Asynchronous, PlacementStrategy::Full),
    )
    .unwrap();
    let async_measured = t0.elapsed().as_secs_f64();

    // Directional agreement.
    assert!(est.sync_secs > est.async_secs);
    assert!(sync_measured > async_measured);
    // Sync estimate within 2× of measurement (50 calls × 10 ms = 0.5 s).
    assert!(
        est.sync_secs / sync_measured < 2.0 && sync_measured / est.sync_secs < 2.0,
        "estimated {} vs measured {}",
        est.sync_secs,
        sync_measured
    );
}

/// The conjuncts an index scan's key range was read from stay in the plan
/// as filters; the model charges them once — the scan's own 0.1 — however
/// many of them there are, and still charges every other conjunct.
#[test]
fn an_index_scans_own_conjuncts_are_charged_once() {
    let (mut db, engines, _pump) = setup();
    db.create_index("States", "Population").unwrap();
    let rows = |sql: &str| {
        db.estimate_query(
            sql,
            &engines,
            QueryOptions::default(),
            &CostParams::default(),
        )
        .unwrap()
        .rows
    };
    let point = rows("SELECT Name FROM States WHERE Population = 5");
    assert_eq!(point, 5.0, "50 states x the index scan's 0.1");
    assert_eq!(
        rows("SELECT Name FROM States WHERE Population >= 5 AND Population < 9000000"),
        point
    );
    assert_eq!(
        rows("SELECT Name FROM States WHERE Population >= 5 AND Name = 'Utah'"),
        point * 0.1,
        "a conjunct on another column is still charged"
    );
    // A shape the range was not read from is charged even on the key.
    assert_eq!(
        rows("SELECT Name FROM States WHERE Population >= 5 AND Population <> 7"),
        point * 0.9
    );
}
