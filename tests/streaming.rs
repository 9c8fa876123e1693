//! Time-to-first-row: with the streaming ReqSync (§4.1's
//! non-materializing variant) and a constrained pump, a cursor delivers
//! early rows while later external calls are still queued; opening a
//! cursor makes no external call, and a LIMIT stops registration.

use std::time::{Duration, Instant};
use wsqdsq::core::SharedWsq;
use wsqdsq::prelude::*;

fn slow_wsq(max_concurrent: usize) -> Wsq {
    let config = WsqConfig {
        corpus: CorpusConfig::small(),
        latency: LatencyModel::Fixed(Duration::from_millis(20)),
        pump: PumpConfig {
            max_concurrent,
            ..PumpConfig::default()
        },
        query: QueryOptions {
            mode: ExecutionMode::Asynchronous,
            ..Default::default()
        },
        ..WsqConfig::default()
    };
    let mut wsq = Wsq::open_in_memory(config).unwrap();
    wsq.load_reference_data().unwrap();
    wsq
}

const QUERY: &str = "SELECT Name, Count FROM States, WebCount WHERE Name = T1";

#[test]
fn streaming_cursor_yields_first_row_early() {
    // Pump capacity 1 → 50 calls strictly sequential at 20 ms each:
    // the full result takes ≥ 1 s, but the first streamed row needs only
    // about one call.
    let mut wsq = slow_wsq(1);
    let t0 = Instant::now();
    let mut cursor = wsq.query_cursor(QUERY).unwrap();
    let first = cursor.next_row().unwrap().expect("at least one row");
    let first_at = t0.elapsed();
    assert!(!first.get(0).as_str().unwrap().is_empty());
    assert!(
        first_at < Duration::from_millis(300),
        "first row took {first_at:?}"
    );
    // Drain the rest; the total is dominated by the serialized calls.
    let mut rows = 1;
    while cursor.next_row().unwrap().is_some() {
        rows += 1;
    }
    let total = t0.elapsed();
    assert_eq!(rows, 50);
    assert!(total >= Duration::from_millis(900), "total only {total:?}");
    assert!(first_at < total / 3, "first row was not early");
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn a_capped_cursor_makes_no_call_while_it_holds_the_read_lock() {
    // A session opens its cursor under the database read lock; a ReqSync
    // that drained its child in `open` would wait on external calls (and
    // on its cap) there, keeping every writer out.
    let shared = SharedWsq::open_in_memory(WsqConfig {
        latency: LatencyModel::Fixed(Duration::from_millis(30)),
        query: QueryOptions {
            reqsync_cap: Some(2),
            ..Default::default()
        },
        ..WsqConfig::fast()
    })
    .unwrap();
    let mut session = shared.session();
    let mut cursor = session
        .query_cursor(
            "SELECT Name, Count FROM States, WebCount \
             WHERE Name = T1 AND WebCount.T2 = 'computer'",
        )
        .unwrap();
    assert_eq!(shared.pump().stats().registered, 0);
    let mut rows = 0;
    while cursor.next_row().unwrap().is_some() {
        rows += 1;
    }
    assert_eq!(rows, 50);
    drop(cursor);
    assert_eq!(shared.pump().live_calls(), 0);
}

#[test]
fn a_limit_registers_only_the_calls_it_reads() {
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    wsq.load_reference_data().unwrap();
    let res = wsq
        .query("SELECT Name, Count FROM States, WebCount WHERE Name = T1 LIMIT 3")
        .unwrap();
    assert_eq!(res.rows.len(), 3);
    assert_eq!(wsq.pump().stats().registered, 3);
}

#[test]
fn abandoned_cursor_releases_pump_registrations() {
    let mut wsq = slow_wsq(4);
    let mut cursor = wsq.query_cursor(QUERY).unwrap();
    // Read a couple of rows, then abandon.
    cursor.next_row().unwrap().unwrap();
    cursor.next_row().unwrap().unwrap();
    cursor.finish().unwrap();
    // Released registrations may take one in-flight delivery to clear.
    let deadline = Instant::now() + Duration::from_secs(2);
    while wsq.pump().live_calls() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn cursor_schema_and_exhaustion() {
    let mut wsq = slow_wsq(64);
    let mut cursor = wsq
        .query_cursor("SELECT Name FROM States WHERE Population > 30000000")
        .unwrap();
    assert_eq!(cursor.schema().len(), 1);
    assert_eq!(
        cursor.next_row().unwrap().unwrap().get(0).as_str().unwrap(),
        "California"
    );
    assert!(cursor.next_row().unwrap().is_none());
    // Idempotent after exhaustion.
    assert!(cursor.next_row().unwrap().is_none());
}
