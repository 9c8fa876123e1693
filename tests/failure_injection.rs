//! Failure injection across the whole stack: flaky search engines must
//! fail queries *cleanly* (error surfaced, nothing leaked, instance still
//! usable) in every execution mode, and a retry decorator must restore
//! availability.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsqdsq::prelude::*;
use wsqdsq::websim::{CachedService, DegradedConfig, DegradedService, RetryService};

const QUERY: &str = "SELECT Name, Count FROM States, WebCount_Shaky \
                     WHERE Name = T1 ORDER BY Count DESC, Name";

/// `inner` failing `permille`/1000 of requests (seed 1234).
fn flaky_service(inner: Arc<dyn wsq_pump::SearchService>, permille: u32) -> Arc<DegradedService> {
    DegradedService::new(
        inner,
        DegradedConfig {
            error_burst_permille: permille,
            seed: 1234,
            ..DegradedConfig::default()
        },
    )
}

fn wsq_with_flaky(permille: u32, retries: Option<u32>) -> (Wsq, Arc<DegradedService>) {
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    wsq.load_reference_data().unwrap();
    let inner = wsq.web().engine(EngineKind::AltaVista);
    let flaky = flaky_service(inner, permille);
    let service: Arc<dyn wsq_pump::SearchService> = match retries {
        Some(n) => RetryService::new(flaky.clone(), n),
        None => flaky.clone(),
    };
    wsq.register_engine("Shaky", service, true);
    (wsq, flaky)
}

#[test]
fn flaky_engine_fails_queries_cleanly_in_all_modes() {
    // 100% failure: the query must error in every mode, leak nothing, and
    // leave the instance usable.
    let (mut wsq, flaky) = wsq_with_flaky(1000, None);
    for mode in [ExecutionMode::Synchronous, ExecutionMode::Asynchronous] {
        let err = wsq
            .query_with(
                QUERY,
                QueryOptions {
                    mode,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("503"), "{mode:?}: {err}");
        // Released-in-flight registrations clear after delivery.
        let deadline = Instant::now() + Duration::from_secs(2);
        while wsq.pump().live_calls() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(wsq.pump().live_calls(), 0, "{mode:?} leaked calls");
    }
    assert!(flaky.stats().failures >= 3);
    // The instance still answers healthy queries.
    let r = wsq.query("SELECT COUNT(*) FROM States").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 50);
    // And the healthy default engine still works.
    let r = wsq
        .query("SELECT Count FROM WebCount WHERE T1 = 'Utah'")
        .unwrap();
    assert!(r.rows[0].get(0).as_int().unwrap() > 0);
}

#[test]
fn partial_flakiness_fails_the_query_not_the_process() {
    // 30% failure: 50 calls virtually guarantee at least one failure; the
    // query errors deterministically (same seed → same flakes).
    let (mut wsq, _flaky) = wsq_with_flaky(300, None);
    let e1 = wsq.query(QUERY).unwrap_err().to_string();
    let e2 = wsq.query(QUERY).unwrap_err().to_string();
    // The injected flakes are deterministic, so the query fails every
    // time — but asynchronous completion order decides *which* failed
    // call surfaces first, so only the error class is stable.
    assert!(e1.contains("503"), "{e1}");
    assert!(e2.contains("503"), "{e2}");
}

#[test]
fn capped_query_failure_releases_every_buffer_slot() {
    // A retry decorator that still exhausts its retries (100% failure
    // under it) while a ReqSync cap is active: the error path must
    // release every admitted buffer slot and every pump registration —
    // a stuck stall here would hang this test, a missed release would
    // leave the gauges non-zero.
    let (mut wsq, flaky) = wsq_with_flaky(1000, Some(2));
    let err = wsq
        .query_with(
            QUERY,
            QueryOptions {
                reqsync_cap: Some(4),
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("503"), "{err}");
    assert!(flaky.stats().failures >= 3, "retries never ran");

    let m = wsq.obs().metrics().unwrap();
    assert!(
        m.reqsync_buffered.high_water() <= 4,
        "cap=4 exceeded: high-water {}",
        m.reqsync_buffered.high_water()
    );
    assert_eq!(
        m.reqsync_buffered.get(),
        0,
        "failed query left buffer slots occupied"
    );
    // In-flight registrations drain once completions are delivered.
    let deadline = Instant::now() + Duration::from_secs(2);
    while (wsq.pump().live_calls() > 0 || m.in_flight.get() > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(wsq.pump().live_calls(), 0, "leaked pump registrations");
    assert_eq!(m.in_flight.get(), 0, "in-flight gauge did not drain");
    // The instance is still usable afterwards.
    let r = wsq.query("SELECT COUNT(*) FROM States").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 50);
}

#[test]
fn flaky_backend_mid_batch_releases_every_registered_slot() {
    // Uncapped, ReqSync pulls the whole 50-state fan-out eagerly, so every
    // call registers before any row is demanded downstream (`batch_size`
    // is read by nothing and changes none of this). When the backend
    // exhausts its retries mid-burst the query errors with most of the
    // burst still unconsumed — every registered slot must be released and
    // every gauge must drain to zero, leaving the instance usable. Each
    // failing reply takes 20 ms (a brownout on every call), so the burst
    // registers — and retries — well before the first failure arrives.
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    wsq.load_reference_data().unwrap();
    let flaky = DegradedService::new(
        wsq.web().engine(EngineKind::AltaVista),
        DegradedConfig {
            error_burst_permille: 1000,
            brownout_period: 1,
            brownout_len: 1,
            brownout_extra: Duration::from_millis(20),
            seed: 1234,
            ..DegradedConfig::default()
        },
    );
    wsq.register_engine("Shaky", RetryService::new(flaky.clone(), 2), true);
    let err = wsq
        .query_with(
            QUERY,
            QueryOptions {
                batch_size: 64,
                ..Default::default()
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("503"), "{err}");
    assert!(flaky.stats().failures >= 3, "retries never ran");

    let m = wsq.obs().metrics().unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while (wsq.pump().live_calls() > 0 || m.in_flight.get() > 0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(wsq.pump().live_calls(), 0, "batched slots leaked");
    assert_eq!(m.in_flight.get(), 0, "in-flight gauge did not drain");
    assert_eq!(m.reqsync_buffered.get(), 0, "buffer slots leaked");
    // The instance is still usable afterwards.
    let r = wsq.query("SELECT COUNT(*) FROM States").unwrap();
    assert_eq!(r.rows[0].get(0).as_int().unwrap(), 50);
}

#[test]
fn retries_restore_availability() {
    let (mut wsq, flaky) = wsq_with_flaky(300, Some(6));
    let r = wsq.query(QUERY).unwrap();
    assert_eq!(r.rows.len(), 50);
    let stats = flaky.stats();
    assert!(stats.failures > 0, "flakes should have occurred");
    assert!(stats.successes >= 50);
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn dsq_over_flaky_engine_with_retries() {
    let (mut wsq, _) = wsq_with_flaky(200, Some(6));
    let dsq = DsqExplorer::new(&wsq, "Shaky").unwrap();
    let corr = dsq
        .correlate(&mut wsq, "scuba diving", "States", "Name")
        .unwrap();
    assert_eq!(corr[0].term, "Florida");
    assert_eq!(wsq.pump().live_calls(), 0);
}

// ---------------------------------------------------------------------
// PR-10 chaos matrix: degraded backends × racing × caps × batches.
//
// Every scenario composes degradation decorators over the same healthy
// engine, runs the 50-state fan-out, and must (a) return exactly the
// healthy baseline's rows and (b) drain every resource — pump slots,
// in-flight gauge, ReqSync buffer — to zero afterwards. The grammar of
// a scenario is the struct below (DESIGN.md §16).
// ---------------------------------------------------------------------

/// One cell of the degraded-backend matrix.
struct Chaos {
    name: String,
    /// `WebCount_ANY` over {Chaos, Stable} instead of `WebCount_Chaos`.
    racing: bool,
    /// Latency spikes + brownout windows on the Chaos engine.
    slow: bool,
    /// Point failures on the Chaos engine: raw 503 bursts when racing
    /// (the Stable member must cover them), retry-recoverable flakes
    /// otherwise (the query must still succeed on its own).
    flaky: bool,
    cap: Option<usize>,
}

const CHAOS_QUERY: &str = "SELECT Name, Count FROM States, WebCount_Chaos \
                           WHERE Name = T1 ORDER BY Count DESC, Name";
const RACE_QUERY: &str = "SELECT Name, Count FROM States, WebCount_ANY \
                          WHERE Name = T1 ORDER BY Count DESC, Name";

/// Build an instance whose `Chaos` engine composes the scenario's
/// degradation axes over the healthy AltaVista simulator; racing
/// scenarios add a healthy `Stable` member and declare the race group.
fn chaos_wsq(s: &Chaos) -> Wsq {
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    wsq.load_reference_data().unwrap();
    let mut svc: Arc<dyn wsq_pump::SearchService> = wsq.web().engine(EngineKind::AltaVista);
    if s.flaky {
        if s.racing {
            svc = DegradedService::new(
                svc,
                DegradedConfig {
                    error_burst_permille: 400,
                    seed: 7,
                    ..DegradedConfig::default()
                },
            );
        } else {
            svc = RetryService::new(flaky_service(svc, 300), 6);
        }
    }
    if s.slow {
        svc = DegradedService::new(
            svc,
            DegradedConfig {
                latency_spike_permille: 300,
                spike: Duration::from_millis(3),
                brownout_period: 10,
                brownout_len: 3,
                brownout_extra: Duration::from_millis(2),
                seed: 42,
                ..DegradedConfig::default()
            },
        );
    }
    wsq.register_engine("Chaos", svc, true);
    if s.racing {
        let stable = wsq.web().engine(EngineKind::AltaVista);
        wsq.register_engine("Stable", stable, true);
        wsq.set_race_group(&["Chaos", "Stable"]).unwrap();
    }
    wsq
}

/// The (Name, Count) rows as comparable values.
fn chaos_rows(r: &QueryResult) -> Vec<(String, i64)> {
    r.rows
        .iter()
        .map(|t| {
            (
                t.get(0).as_str().unwrap().to_string(),
                t.get(1).as_int().unwrap(),
            )
        })
        .collect()
}

/// Poll until every resource gauge reads zero, then assert so: a leaked
/// pump slot, in-flight registration, or buffered ReqSync tuple fails
/// the scenario by name.
fn assert_fully_drained(wsq: &Wsq, scenario: &str) {
    let m = wsq.obs().metrics().unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while (wsq.pump().live_calls() > 0 || m.in_flight.get() > 0 || m.reqsync_buffered.get() > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        wsq.pump().live_calls(),
        0,
        "scenario '{scenario}' leaked pump slots"
    );
    assert_eq!(
        m.in_flight.get(),
        0,
        "scenario '{scenario}' left the in-flight gauge non-zero"
    );
    assert_eq!(
        m.reqsync_buffered.get(),
        0,
        "scenario '{scenario}' left buffered ReqSync tuples"
    );
}

#[test]
fn chaos_matrix_preserves_rows_and_drains_every_resource() {
    // Healthy baseline: the same query over an undecorated engine.
    let healthy = Chaos {
        name: "baseline".into(),
        racing: false,
        slow: false,
        flaky: false,
        cap: None,
    };
    let mut base = chaos_wsq(&healthy);
    let baseline = chaos_rows(&base.query(CHAOS_QUERY).unwrap());
    assert_eq!(baseline.len(), 50);

    let mut scenarios = Vec::new();
    for racing in [false, true] {
        for slow in [false, true] {
            for flaky in [false, true] {
                for cap in [None, Some(4)] {
                    scenarios.push(Chaos {
                        name: format!("racing={racing} slow={slow} flaky={flaky} cap={cap:?}"),
                        racing,
                        slow,
                        flaky,
                        cap,
                    });
                }
            }
        }
    }

    let mut report = String::from("[\n");
    let total = scenarios.len();
    for (i, s) in scenarios.iter().enumerate() {
        let mut wsq = chaos_wsq(s);
        let query = if s.racing { RACE_QUERY } else { CHAOS_QUERY };
        let r = wsq
            .query_with(
                query,
                QueryOptions {
                    reqsync_cap: s.cap,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("scenario '{}' failed: {e}", s.name));
        assert_eq!(
            chaos_rows(&r),
            baseline,
            "scenario '{}' changed the result rows",
            s.name
        );
        assert_fully_drained(&wsq, &s.name);
        let m = wsq.obs().metrics().unwrap();
        if s.racing {
            assert!(
                m.race_won.get() > 0,
                "scenario '{}' never decided a race",
                s.name
            );
            assert!(
                m.race_cancelled.get() > 0,
                "scenario '{}' never cancelled a losing member",
                s.name
            );
        }
        report.push_str(&format!(
            "  {{\"scenario\": \"{}\", \"rows\": {}, \"race_won\": {}, \
             \"race_cancelled\": {}, \"drained\": true}}{}\n",
            s.name,
            r.rows.len(),
            m.race_won.get(),
            m.race_cancelled.get(),
            if i + 1 < total { "," } else { "" },
        ));
    }
    report.push_str("]\n");
    // Scenario report for the CI artifact (best-effort: the assertions
    // above are the test; the file is observability).
    let _ = std::fs::write("target/degraded_scenarios.json", report);
}

/// An engine whose backend panics on any request mentioning Utah.
struct PanicsOnUtah(Arc<dyn wsq_pump::SearchService>);

impl wsq_pump::SearchService for PanicsOnUtah {
    fn execute(&self, req: &wsq_pump::SearchRequest) -> wsq_pump::ServiceReply {
        assert!(!req.expr.contains("Utah"), "backend exploded on Utah");
        self.0.execute(req)
    }
}

#[test]
fn panicking_engine_fails_its_query_and_the_pump_survives() {
    for mode in [ExecutionMode::Synchronous, ExecutionMode::Asynchronous] {
        let mut config = WsqConfig::fast();
        config.query.mode = mode;
        let mut wsq = Wsq::open_in_memory(config).unwrap();
        wsq.load_reference_data().unwrap();
        let inner = wsq.web().engine(EngineKind::AltaVista);
        wsq.register_engine("Shaky", Arc::new(PanicsOnUtah(inner)), true);

        let err = wsq.query(QUERY).unwrap_err().to_string();
        assert!(
            err.contains("service panicked: backend exploded on Utah"),
            "{mode:?}: {err}"
        );
        assert_fully_drained(&wsq, &format!("panicking engine, {mode:?}"));
        // The same pump still launches, delivers and drains: through the
        // engine that panicked, and through a healthy one.
        let r = wsq
            .query("SELECT Count FROM WebCount_Shaky WHERE T1 = 'Nevada'")
            .unwrap();
        assert!(r.rows[0].get(0).as_int().unwrap() > 0, "{mode:?}");
        let r = wsq
            .query("SELECT Name, Count FROM States, WebCount WHERE Name = T1")
            .unwrap();
        assert_eq!(r.rows.len(), 50, "{mode:?}");
        assert_fully_drained(&wsq, &format!("after the panic, {mode:?}"));
    }
}

/// A backend that panics on its first call and answers every later one.
struct PanicsOnce(Arc<dyn wsq_pump::SearchService>, AtomicBool);

impl wsq_pump::SearchService for PanicsOnce {
    fn execute(&self, req: &wsq_pump::SearchRequest) -> wsq_pump::ServiceReply {
        assert!(self.1.swap(true, Ordering::SeqCst), "backend exploded once");
        self.0.execute(req)
    }
}

#[test]
fn a_panicking_service_wedges_no_cache_key() {
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    let inner = wsq.web().engine(EngineKind::AltaVista);
    let cached = CachedService::new(Arc::new(PanicsOnce(inner, AtomicBool::new(false))));
    wsq.register_engine("Shaky", cached.clone(), true);
    let sql = "SELECT Count FROM WebCount_Shaky WHERE T1 = 'Utah'";
    let err = wsq.query(sql).unwrap_err().to_string();
    assert!(err.contains("service panicked"), "{err}");

    // The same query again must reach the backend, not wait on the
    // panicked call forever: give it 5 s on its own thread.
    let (tx, rx) = std::sync::mpsc::channel();
    let second = std::thread::spawn(move || {
        let rows = wsq.query(sql).map(|r| r.rows.len());
        let _ = tx.send((rows, wsq.pump().live_calls()));
    });
    let (rows, live) = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the second query hung on the key the panic left behind");
    second.join().unwrap();
    assert_eq!(rows.unwrap(), 1);
    assert_eq!(live, 0);
    let stats = cached.stats();
    assert_eq!((stats.hits, stats.misses, stats.inflight), (0, 2, 0));
}

#[test]
fn dead_lead_member_fails_over_in_both_modes() {
    // Race group {Chaos (every call a 503), Stable}: the asynchronous
    // scan races the members, the blocking scan tries them in order —
    // either way the healthy member must answer, and the rows must be
    // those of the healthy engine queried alone.
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    wsq.load_reference_data().unwrap();
    let healthy = wsq.web().engine(EngineKind::AltaVista);
    wsq.register_engine("Chaos", flaky_service(healthy.clone(), 1000), true);
    wsq.register_engine("Stable", healthy, true);
    wsq.set_race_group(&["Chaos", "Stable"]).unwrap();

    let stable_query = CHAOS_QUERY.replace("WebCount_Chaos", "WebCount_Stable");
    let baseline = chaos_rows(&wsq.query(&stable_query).unwrap());
    assert_eq!(baseline.len(), 50);
    for mode in [ExecutionMode::Synchronous, ExecutionMode::Asynchronous] {
        let r = wsq
            .query_with(
                RACE_QUERY,
                QueryOptions {
                    mode,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("{mode:?} did not fail over: {e}"));
        assert_eq!(chaos_rows(&r), baseline, "{mode:?} changed the rows");
    }
    assert_fully_drained(&wsq, "dead lead member");
}
