//! A query owns the calls it registers, whatever its joins do to the
//! tuples that name them. A join between an `AEVScan` and its `ReqSync`
//! can copy a pending tuple (a cross product with the scan on the outer
//! side), drop every copy (a filter above the join), or name one call
//! twice (two scans of the same request coalesce): each shape must return
//! the synchronous plan's rows and leave no call behind. So must another
//! registrant of the same request, alone or in a second session, and a
//! cursor dropped after any row.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wsqdsq::core::SharedWsq;
use wsqdsq::prelude::*;
use wsqdsq::pump::{RequestKind, SearchRequest};

/// A pending `WebCount` call copied onto each of the 50 states.
const COPIES: &str = "SELECT S.Name, W.Count FROM WebCount W, States S \
                      WHERE W.T1 = 'Colorado'";
/// The same, with a filter that drops every copy.
const DROPPED: &str = "SELECT S.Name, W.Count FROM WebCount W, States S \
                       WHERE W.T1 = 'Colorado' AND S.Name = 'Nowhere'";
/// Two scans of one request, which coalesce onto one call.
const SELF_COALESCING: &str = "SELECT S.Name, W1.Count, W2.Count \
                               FROM WebCount W1, States S, WebCount W2 \
                               WHERE W1.T1 = 'Colorado' AND W2.T1 = 'Colorado'";

const TEMPLATE_1: &str = "SELECT Name, Count FROM States, WebCount \
                          WHERE Name = T1 AND WebCount.T2 = 'computer'";
const TEMPLATE_2: &str = "SELECT Name, Count, URL, Rank \
                          FROM States, WebCount, WebPages \
                          WHERE Name = WebCount.T1 AND WebCount.T2 = 'computer' \
                          AND Name = WebPages.T1 AND WebPages.T2 = 'beaches' \
                          AND WebPages.Rank <= 2";
const TEMPLATE_3: &str = "SELECT Name, AV.URL, G.URL \
                          FROM Sigs, WebPages_AV AV, WebPages_Google G \
                          WHERE Name = AV.T1 AND Name = G.T1 \
                          AND AV.Rank <= 3 AND G.Rank <= 3 \
                          AND AV.T2 = 'computer' AND G.T2 = 'computer'";

/// Small corpus, every call pending for `latency`.
fn config(latency: Duration, max_concurrent: usize, reqsync_cap: Option<usize>) -> WsqConfig {
    WsqConfig {
        latency: LatencyModel::Fixed(latency),
        pump: PumpConfig {
            max_concurrent,
            ..PumpConfig::default()
        },
        query: QueryOptions {
            mode: ExecutionMode::Asynchronous,
            reqsync_cap,
            ..QueryOptions::default()
        },
        ..WsqConfig::fast()
    }
}

fn slow_wsq(reqsync_cap: Option<usize>) -> Wsq {
    let mut wsq = Wsq::open_in_memory(config(Duration::from_millis(20), 64, reqsync_cap)).unwrap();
    wsq.load_reference_data().unwrap();
    wsq
}

fn sorted(rows: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(|t| t.to_string()).collect();
    rows.sort();
    rows
}

/// `sql`'s rows through the synchronous plan, sorted.
fn oracle(wsq: &mut Wsq, sql: &str) -> Vec<String> {
    let opts = QueryOptions {
        mode: ExecutionMode::Synchronous,
        ..QueryOptions::default()
    };
    sorted(&wsq.query_with(sql, opts).unwrap().rows)
}

/// Wait out the deliveries of calls released while in flight.
fn drained(pump: &ReqPump) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    while pump.live_calls() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    pump.live_calls()
}

/// Run `sql` asynchronously and check it against the synchronous plan,
/// with no call left behind.
fn matches_the_synchronous_plan(wsq: &mut Wsq, sql: &str, rows: usize) {
    let want = oracle(wsq, sql);
    assert_eq!(want.len(), rows, "{sql}");
    let got = wsq.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert_eq!(sorted(&got.rows), want, "{sql}");
    assert_eq!(drained(wsq.pump()), 0, "{sql} leaked calls");
}

#[test]
fn capped_copies_of_a_pending_call_all_get_its_result() {
    matches_the_synchronous_plan(&mut slow_wsq(Some(2)), COPIES, 50);
}

#[test]
fn a_filter_that_drops_every_copy_leaks_no_call() {
    for cap in [None, Some(2)] {
        matches_the_synchronous_plan(&mut slow_wsq(cap), DROPPED, 0);
    }
}

#[test]
fn a_query_coalescing_onto_its_own_call_holds_it_once() {
    for cap in [None, Some(2)] {
        matches_the_synchronous_plan(&mut slow_wsq(cap), SELF_COALESCING, 50);
    }
}

#[test]
fn an_outside_registrant_keeps_its_reference_across_a_query() {
    // The query coalesces onto a call another registrant made first; the
    // copies of its pending tuple give up nothing that registrant holds.
    let mut wsq = slow_wsq(None);
    let want = oracle(&mut wsq, COPIES);
    let call = wsq
        .pump()
        .register(SearchRequest {
            engine: "AV".into(),
            expr: "Colorado".into(),
            kind: RequestKind::Count,
        })
        .unwrap();
    assert_eq!(sorted(&wsq.query(COPIES).unwrap().rows), want);
    let count = wsq.pump().wait(call).unwrap().count();
    assert!(count.is_some_and(|n| n > 0), "{count:?}");
    wsq.pump().release(call);
    assert_eq!(drained(wsq.pump()), 0);
}

#[test]
fn two_sessions_coalescing_onto_one_call_both_get_its_rows() {
    let mut oracle_wsq = slow_wsq(None);
    let want = oracle(&mut oracle_wsq, COPIES);
    let shared = SharedWsq::open_in_memory(config(Duration::from_millis(20), 64, None)).unwrap();
    for round in 0..20 {
        let start = Arc::new(Barrier::new(2));
        let sessions: Vec<_> = (0..2)
            .map(|_| {
                let mut session = shared.session();
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    session.query(COPIES).map(|r| sorted(&r.rows))
                })
            })
            .collect();
        for session in sessions {
            let rows = session.join().unwrap();
            assert_eq!(rows.as_ref().ok(), Some(&want), "round {round}: {rows:?}");
        }
        assert_eq!(drained(shared.pump()), 0, "round {round} leaked calls");
    }
}

#[test]
fn a_cursor_dropped_after_any_row_leaves_no_call_and_no_buffered_tuple() {
    let mut wsq = Wsq::open_in_memory(config(Duration::from_millis(2), 8, Some(4))).unwrap();
    wsq.load_reference_data().unwrap();
    let obs = wsq.obs().clone();
    let metrics = obs.metrics().unwrap();
    for sql in [TEMPLATE_1, TEMPLATE_2, TEMPLATE_3] {
        let rows = wsq.query(sql).unwrap().rows.len();
        assert!(rows > 0, "{sql}");
        for k in 0..=rows {
            let mut cursor = wsq.query_cursor(sql).unwrap();
            for _ in 0..k {
                assert!(cursor.next_row().unwrap().is_some(), "{sql}: row {k}");
            }
            drop(cursor);
            assert_eq!(drained(wsq.pump()), 0, "{sql}: dropped after {k} rows");
            assert_eq!(
                metrics.reqsync_buffered.get(),
                0,
                "{sql}: dropped after {k} rows"
            );
        }
    }
}
