//! End-to-end client/server tests over real TCP sockets:
//!
//! * concurrent 4-client equivalence (byte-identical multisets vs 4
//!   sequential single-session runs),
//! * cross-session single-flight (misses == backend calls fleet-wide),
//! * fault injection: a client disconnecting mid-query releases every
//!   pump slot and buffered tuple,
//! * graceful shutdown drains in-flight queries,
//! * the analyze footer crosses the wire byte-identically (golden
//!   structural test shared with `wire_golden.rs`), and two overlapping
//!   sessions' footers each count only their own query's calls,
//! * scripts, errors, version mismatch, and the connection cap.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wsq_client::{Client, RemoteStatementResult};
use wsq_core::{SharedWsq, Wsq, WsqConfig};
use wsq_protocol::{read_frame, write_frame, Frame, MetricsFormat, PROTOCOL_VERSION};
use wsq_server::{Server, ServerConfig};

fn serve(config: WsqConfig, server: ServerConfig) -> wsq_server::ServerHandle {
    let shared = SharedWsq::open_in_memory(config).unwrap();
    Server::bind(shared, server).unwrap()
}

const JOIN_QUERY: &str =
    "SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC, Name";

/// Multiset of rendered rows (order-independent comparison).
fn multiset(rows: &wsq_protocol::RowSet) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for t in &rows.rows {
        let key = t
            .values()
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\u{1}");
        *m.entry(key).or_insert(0) += 1;
    }
    m
}

#[test]
fn four_concurrent_clients_match_four_sequential_sessions() {
    let handle = serve(WsqConfig::fast(), ServerConfig::default());
    let addr = handle.addr();

    // Baseline: 4 sequential single-session runs.
    let mut sequential = Vec::new();
    for _ in 0..4 {
        let mut c = Client::connect(addr).unwrap();
        sequential.push(multiset(&c.query(JOIN_QUERY).unwrap()));
        c.goodbye().unwrap();
    }

    // 4 clients at once, each running the same query.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let m = multiset(&c.query(JOIN_QUERY).unwrap());
                c.goodbye().unwrap();
                m
            })
        })
        .collect();
    let concurrent: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    for (i, m) in concurrent.iter().enumerate() {
        assert_eq!(m, &sequential[i % sequential.len()], "client {i} diverged");
    }
    handle.shutdown();
}

/// An integer metric out of the registry's JSON snapshot.
fn metric(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in:\n{json}"));
    let value = &json[at + key.len()..];
    let digits = value.bytes().take_while(u8::is_ascii_digit).count();
    value[..digits].parse().unwrap()
}

#[test]
fn cross_session_single_flight_misses_equal_backend_calls() {
    const SESSIONS: usize = 8;
    const LOOKUPS: usize = 48;
    const EXPRESSIONS: usize = 16;
    let handle = serve(
        WsqConfig {
            cache: true,
            // Enough latency that sessions overlap on in-flight misses.
            latency: wsq_websim::LatencyModel::Fixed(Duration::from_millis(2)),
            ..WsqConfig::fast()
        },
        ServerConfig::default(),
    );
    let addr = handle.addr();

    let threads: Vec<_> = (0..SESSIONS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for q in 0..LOOKUPS {
                    let term = q % EXPRESSIONS;
                    let sql = format!("SELECT Count FROM WebCount WHERE T1 = 'shared{term:02}'");
                    assert_eq!(c.query(&sql).unwrap().rows.len(), 1);
                }
                c.goodbye().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // The fleet pays for one copy of the workload: 16 backend calls for
    // 384 requests, and every registered call is a cache hit, a first
    // miss, or a join onto an identical in-flight call at the pump.
    let mut c = Client::connect(addr).unwrap();
    let json = c.metrics(MetricsFormat::Json).unwrap();
    let requests = (SESSIONS * LOOKUPS) as u64;
    assert_eq!(metric(&json, "wsq_cache_misses_total"), EXPRESSIONS as u64);
    assert_eq!(metric(&json, "wsq_calls_registered_total"), requests);
    assert_eq!(
        metric(&json, "wsq_cache_hits_total")
            + metric(&json, "wsq_cache_misses_total")
            + metric(&json, "wsq_calls_coalesced_total"),
        requests,
        "{json}"
    );
    assert_eq!(metric(&json, "wsq_sessions_total"), SESSIONS as u64 + 1);
    c.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn disconnect_mid_query_releases_pump_slots_and_buffered_tuples() {
    let shared = SharedWsq::open_in_memory(WsqConfig {
        // Enough per-call latency that the result stream is alive when
        // the client walks away.
        latency: wsq_websim::LatencyModel::Fixed(Duration::from_millis(5)),
        ..WsqConfig::fast()
    })
    .unwrap();
    let pump = shared.pump().clone();
    let obs = shared.obs().clone();
    let handle = Server::bind(
        shared,
        ServerConfig {
            rows_per_frame: 1, // flush row-by-row so EPIPE surfaces fast
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Speak raw frames so we can abandon the socket mid-stream.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "deserter".to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Welcome { .. })
    ));
    // No ORDER BY: rows stream as calls complete, so the cursor is
    // mid-flight when we vanish.
    write_frame(
        &mut stream,
        &Frame::Query {
            sql: "SELECT Name, Count FROM States, WebCount WHERE Name = T1".to_string(),
        },
    )
    .unwrap();
    // Read the schema header and the first row, then slam the door.
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Schema { .. })
    ));
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Rows { .. })
    ));
    drop(stream);

    // The server must notice the dead socket, drop the cursor, and the
    // executor Drop impls must release every slot and buffered tuple.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = pump.live_calls();
        let buffered = obs.metrics().map_or(0, |m| m.reqsync_buffered.get());
        if live == 0 && buffered == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect leaked: live_calls={live} reqsync_buffered={buffered}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown();
}

#[test]
fn disconnect_mid_race_cancels_losers_and_releases_every_slot() {
    // Same fault as above, but the virtual table is a race group: every
    // outer tuple holds one group call fanned out to two engines. The
    // abandoned cursor must release the undecided groups (cancelling
    // both members) as well as any decided-but-unconsumed winners.
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        latency: wsq_websim::LatencyModel::Fixed(Duration::from_millis(5)),
        ..WsqConfig::fast()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    wsq.set_race_group(&["AV", "Google"]).unwrap();
    let shared = wsq.into_shared();
    let pump = shared.pump().clone();
    let obs = shared.obs().clone();
    let handle = Server::bind(
        shared,
        ServerConfig {
            rows_per_frame: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION,
            client: "race-deserter".to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Welcome { .. })
    ));
    // No ORDER BY: rows stream as races settle, so plenty of group
    // calls are still undecided when the socket dies.
    write_frame(
        &mut stream,
        &Frame::Query {
            sql: "SELECT Name, Count FROM States, WebCount_ANY WHERE Name = T1".to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Schema { .. })
    ));
    assert!(matches!(
        read_frame(&mut stream).unwrap(),
        Some(Frame::Rows { .. })
    ));
    drop(stream);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = pump.live_calls();
        let buffered = obs.metrics().map_or(0, |m| m.reqsync_buffered.get());
        if live == 0 && buffered == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "race disconnect leaked: live_calls={live} reqsync_buffered={buffered}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // At least the first row's race settled (it reached the wire), and
    // every settled race cancelled its loser.
    let m = obs.metrics().expect("metrics enabled under fast config");
    assert!(m.race_won.get() > 0, "no race decided before disconnect");
    assert!(
        m.race_cancelled.get() > 0,
        "losers/abandoned members were never cancelled"
    );
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_an_in_flight_query() {
    let handle = serve(
        WsqConfig {
            latency: wsq_websim::LatencyModel::Fixed(Duration::from_millis(3)),
            ..WsqConfig::fast()
        },
        ServerConfig {
            rows_per_frame: 1,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let reader = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let mut seen = 0u64;
        let total = c
            .query_streaming(
                "SELECT Name, Count FROM States, WebCount WHERE Name = T1",
                |_| {
                    seen += 1;
                },
            )
            .unwrap();
        assert_eq!(total, 50);
        assert_eq!(seen, 50);
    });
    // Let the stream get going, then shut down while it is mid-flight.
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();
    // The reader must still have received every row: shutdown drains
    // in-flight queries instead of cutting them off.
    reader.join().unwrap();
}

#[test]
fn execute_scripts_and_errors_round_trip() {
    let handle = serve(WsqConfig::fast(), ServerConfig::default());
    let mut c = Client::connect(handle.addr()).unwrap();

    let results = c
        .execute(
            "CREATE TABLE T (N INT); INSERT INTO T VALUES (1); INSERT INTO T VALUES (2); \
             SELECT N FROM T ORDER BY N",
        )
        .unwrap();
    assert_eq!(results.len(), 4);
    match &results[3] {
        RemoteStatementResult::Rows(r) => {
            assert_eq!(r.rows.len(), 2);
            assert_eq!(r.rows[0].get(0).as_int().unwrap(), 1);
        }
        other => panic!("expected rows, got {other:?}"),
    }

    // Parse errors come back typed and leave the connection usable.
    let err = c.query("SELEC nonsense").unwrap_err();
    assert!(matches!(err, wsq_common::WsqError::Parse(_)), "{err:?}");
    assert!(c.ping().is_ok(), "connection survives an error reply");

    // Explain works remotely, including the verify line.
    let plan = c.explain(JOIN_QUERY, true).unwrap();
    assert!(plan.contains("AEVScan"), "{plan}");
    assert!(plan.contains("-- verify: ok"), "{plan}");

    c.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn version_mismatch_is_rejected_in_band() {
    let handle = serve(WsqConfig::fast(), ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: PROTOCOL_VERSION + 1,
            client: "time-traveller".to_string(),
        },
    )
    .unwrap();
    match read_frame(&mut stream).unwrap() {
        Some(Frame::Error { message, .. }) => {
            assert!(message.contains("version mismatch"), "{message}")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_excess_clients() {
    let handle = serve(
        WsqConfig::fast(),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    );
    let keeper = Client::connect(handle.addr()).unwrap();
    // The second connection is refused with a wire error before any
    // session is created.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    match read_frame(&mut stream).unwrap() {
        Some(Frame::Error { message, .. }) => {
            assert!(message.contains("capacity"), "{message}")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    drop(keeper);
    handle.shutdown();
}

#[test]
fn session_ids_are_distinct_and_metrics_visible_to_all() {
    let handle = serve(WsqConfig::fast(), ServerConfig::default());
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    assert_ne!(a.session_id(), b.session_id());
    assert_eq!(a.server_name(), "wsq-server");

    a.query("SELECT Count FROM WebCount WHERE T1 = 'Texas'")
        .unwrap();
    // B sees A's query in the shared registry.
    let text = b.metrics(MetricsFormat::Text).unwrap();
    assert!(text.contains("wsq_queries_total 1"), "{text}");
    assert!(text.contains("wsq_sessions_active 2"), "{text}");
    a.goodbye().unwrap();
    b.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn analyze_footer_crosses_the_wire_byte_identically_in_structure() {
    // Remote analyze...
    let handle = serve(
        WsqConfig {
            cache: true,
            ..WsqConfig::fast()
        },
        ServerConfig::default(),
    );
    let mut c = Client::connect(handle.addr()).unwrap();
    let sql = "SELECT Count FROM WebCount WHERE T1 = 'Texas'";
    c.query(sql).unwrap();
    let (rows, remote_report) = c.analyze(sql).unwrap();
    assert_eq!(rows.rows.len(), 1);
    c.goodbye().unwrap();
    handle.shutdown();

    // ...must have the same structure and the same deterministic
    // counters as a local Wsq::analyze of the same query history.
    let mut local = Wsq::open_in_memory(WsqConfig {
        cache: true,
        ..WsqConfig::fast()
    })
    .unwrap();
    local.load_reference_data().unwrap();
    local.query(sql).unwrap();
    let (_, local_report) = local.analyze(sql).unwrap();

    assert_eq!(
        wire_golden_shared::skeleton(&remote_report),
        wire_golden_shared::skeleton(&local_report),
        "remote:\n{remote_report}\nlocal:\n{local_report}"
    );
}

/// The integer value of `key=` on an analyze report's `-- trace:` line.
fn trace_footer(report: &str, key: &str) -> u64 {
    let line = report
        .lines()
        .find(|l| l.starts_with("-- trace:"))
        .unwrap_or_else(|| panic!("no trace footer in:\n{report}"));
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(prefix.as_str()))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no integer {key}= in {line}"))
}

#[test]
fn overlapping_analyze_footers_count_only_their_own_calls() {
    // Two sessions ANALYZE different fan-outs at once. A cap of four calls
    // in flight, shared, and a few milliseconds a call make each query
    // take many rounds, so their calls interleave on the one pump.
    const CAP: u64 = 4;
    let mut config = WsqConfig {
        latency: wsq_websim::LatencyModel::Fixed(Duration::from_millis(2)),
        ..WsqConfig::fast()
    };
    config.pump.max_concurrent = CAP as usize;
    let handle = serve(config, ServerConfig::default());
    let addr = handle.addr();

    let queries = [
        "SELECT Name, Count FROM States, WebCount WHERE Name = T1",
        "SELECT Name, Count FROM Sigs, WebCount WHERE Name = T1",
    ];
    let start = std::sync::Arc::new(std::sync::Barrier::new(queries.len()));
    let threads: Vec<_> = queries
        .into_iter()
        .map(|sql| {
            let start = start.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                start.wait();
                let began = Instant::now();
                let (rows, report) = c.analyze(sql).unwrap();
                let span = (began, Instant::now());
                c.goodbye().unwrap();
                (rows.rows.len() as u64, report, span)
            })
        })
        .collect();
    let runs: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    handle.shutdown();

    let (a, b) = (&runs[0], &runs[1]);
    assert!(a.2 .0 < b.2 .1 && b.2 .0 < a.2 .1, "the queries overlapped");
    assert_ne!(a.0, b.0, "fan-outs of different sizes");
    for (calls, report, _) in &runs {
        // One WebCount call per row, each the query's own.
        assert_eq!(trace_footer(report, "calls"), *calls, "{report}");
        assert_eq!(trace_footer(report, "events"), 6 * calls, "{report}");
        let concurrent = trace_footer(report, "max_concurrent");
        assert!((1..=CAP).contains(&concurrent), "{report}");
        let buffered = trace_footer(report, "buffered_hw");
        assert!((1..=*calls).contains(&buffered), "{report}");
    }
}

/// Golden test pinning the analyze-footer-over-the-wire format
/// (DESIGN.md §15): the exact line sequence, key names, and
/// deterministic counter values a remote ANALYZE must produce. Timing
/// values are masked (`=_`); everything else is byte-exact. If this
/// breaks, the footer format changed — update DESIGN.md §15 and the
/// protocol notes alongside it.
#[test]
fn analyze_footer_wire_format_golden() {
    let handle = serve(
        WsqConfig {
            cache: true,
            ..WsqConfig::fast()
        },
        ServerConfig::default(),
    );
    let mut c = Client::connect(handle.addr()).unwrap();
    let sql = "SELECT Count FROM WebCount WHERE T1 = 'Texas'";
    c.query(sql).unwrap(); // warm the cache: deterministic hit/miss split
    let (_, report) = c.analyze(sql).unwrap();
    c.goodbye().unwrap();
    handle.shutdown();

    let golden = vec![
        "ReqSync [Count] [rows=1 nexts=2 opens=1 time=_",
        "Project: Count [rows=1 nexts=2 opens=1 time=_",
        "Dependent Join: (constant bindings) [rows=1 nexts=2 opens=1 time=_",
        "Values: 1 row(s) [rows=1 nexts=2 opens=1 time=_",
        "AEVScan: WebCount@AV AS WebCount (T1 = 'Texas') [rows=1 nexts=2 opens=1 time=_",
        "-- pump: registered=1 launched=1 completed=1 coalesced=0 peak_in_flight=1 peak_queued=1",
        // A cache hit is delivered with its registration: the scan emits
        // the finished row, so ReqSync buffers nothing.
        "-- trace: calls=1 call_p50=_ call_p95=_ call_max=_ queue_p95=_ patch_p95=_ \
         max_concurrent=1 stalls=0 stall_p95=_ buffered_hw=0 events=6 dropped=0",
        "-- cache[AV]: hits=1 misses=0 evictions=0 expirations=0",
        "-- cache[Google]: hits=0 misses=0 evictions=0 expirations=0",
        "-- verify: ok (verified 5 nodes: 1 async scan(s), 1 ReqSync(s), max placeholder set 1, \
         peak buffered 1)",
    ];
    let golden: Vec<String> = golden
        .into_iter()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(
        wire_golden_shared::skeleton(&report),
        golden,
        "wire footer format drifted; full report:\n{report}"
    );
}

/// Reduce an analyze report to its deterministic skeleton (line shapes,
/// key names, integer values; timing values masked as `=_`).
pub mod wire_golden_shared {
    /// The deterministic skeleton of an analyze report.
    pub fn skeleton(report: &str) -> Vec<String> {
        report
            .lines()
            .map(|line| {
                line.split_whitespace()
                    .map(|tok| match tok.split_once('=') {
                        Some((k, v)) if !k.is_empty() && !v.is_empty() => {
                            if v.parse::<i64>().is_ok() {
                                tok.to_string()
                            } else {
                                format!("{k}=_")
                            }
                        }
                        _ => tok.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }
}
