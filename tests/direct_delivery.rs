//! A reply that is already in hand when its call is registered is
//! delivered to the `AEVScan` that registered it, which emits finished
//! rows: with every call a cache hit, no placeholder tuple is ever built,
//! and the answers are the synchronous plan's. A call that is pending —
//! here, behind a declared latency — still goes through a placeholder and
//! `ReqSync`. A synchronous query's calls go through the same pump.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsqdsq::prelude::*;
use wsqdsq::pump::{SearchRequest, SearchService, ServiceReply};

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
const RACE: &str = "SELECT Name, Count FROM States, WebCount_ANY WHERE Name = T1";

fn warm_wsq() -> Wsq {
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        cache: true,
        ..WsqConfig::default()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    wsq.set_race_group(&["AV", "Google"]).unwrap();
    wsq
}

fn placeholders(wsq: &Wsq) -> u64 {
    wsq.obs().metrics().unwrap().placeholder_tuples.get()
}

/// Rows of `sql` through the synchronous plan: each scan waits for its
/// call, so no placeholder is built.
fn oracle(wsq: &mut Wsq, sql: &str) -> Vec<Tuple> {
    let opts = QueryOptions {
        mode: ExecutionMode::Synchronous,
        ..QueryOptions::default()
    };
    wsq.query_with(sql, opts).unwrap().rows
}

/// Run `sql` until it misses the cache no more.
fn warm_up(wsq: &mut Wsq, sql: &str) {
    let misses = |wsq: &Wsq| wsq.cache_stats().values().map(|c| c.misses).sum::<u64>();
    loop {
        let before = misses(wsq);
        wsq.query(sql).unwrap();
        if misses(wsq) == before {
            return;
        }
    }
}

#[test]
fn warm_calls_yield_finished_rows_equal_to_the_synchronous_plan() {
    let mut wsq = warm_wsq();
    for sql in [TEMPLATE_1, TEMPLATE_2, TEMPLATE_3, RACE] {
        warm_up(&mut wsq, sql);
        let want = oracle(&mut wsq, sql);
        let before = placeholders(&wsq);
        assert_eq!(wsq.query(sql).unwrap().rows, want, "{sql}");
        assert_eq!(
            placeholders(&wsq),
            before,
            "{sql}: a warm call built a placeholder"
        );
        assert_eq!(wsq.pump().live_calls(), 0, "{sql}");
    }
}

#[test]
fn a_limit_ending_a_cursor_mid_stream_drains_every_call() {
    let mut wsq = warm_wsq();
    warm_up(&mut wsq, TEMPLATE_3);
    let sql = format!("{TEMPLATE_3} LIMIT 5");
    let want = oracle(&mut wsq, &sql);
    let before = placeholders(&wsq);
    {
        let mut cursor = wsq.query_cursor(&sql).unwrap();
        let mut rows = Vec::new();
        while let Some(row) = cursor.next_row().unwrap() {
            rows.push(row);
        }
        assert_eq!(rows, want);
    }
    assert_eq!(placeholders(&wsq), before);
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn a_sig_with_no_av_pages_registers_no_google_call() {
    let mut wsq = warm_wsq();
    warm_up(&mut wsq, TEMPLATE_3);
    let sigs: Vec<String> = wsq
        .query("SELECT Name FROM Sigs")
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect();
    let pages = |wsq: &mut Wsq, sig: &str| {
        let sql = format!(
            "SELECT URL FROM WebPages_AV WHERE T1 = '{sig}' AND T2 = 'computer' AND Rank <= 3"
        );
        oracle(wsq, &sql).len()
    };
    let mut empty = None;
    for sig in &sigs {
        if pages(&mut wsq, sig) == 0 {
            empty = Some(sig.clone());
            break;
        }
    }
    let sig = empty.expect("a Sig with no AltaVista pages on 'computer'");
    let sql = format!("{TEMPLATE_3} AND Sigs.Name = '{sig}'");
    let registered = wsq.pump().stats().registered;
    assert!(wsq.query(&sql).unwrap().rows.is_empty());
    // The AV call only, as the synchronous plan makes: its empty answer
    // leaves no tuple to bind the Google scan.
    assert_eq!(wsq.pump().stats().registered - registered, 1, "{sig}");
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn pending_calls_still_go_through_placeholders() {
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        latency: LatencyModel::Fixed(Duration::from_millis(1)),
        ..WsqConfig::default()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    let registered = wsq.pump().stats().registered;
    let before = placeholders(&wsq);
    let rows = wsq.query(TEMPLATE_3).unwrap().rows;
    // Table 1's 74 calls: each Sig's Google call is registered against its
    // AV placeholder, before AV's pages are known.
    assert_eq!(wsq.pump().stats().registered - registered, 74);
    assert_eq!(placeholders(&wsq) - before, 74);
    // Patched tuples come out in completion order: compare multisets.
    let sorted = |rows: Vec<Tuple>| {
        let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };
    assert_eq!(sorted(rows), sorted(oracle(&mut wsq, TEMPLATE_3)));
    assert_eq!(wsq.pump().live_calls(), 0);
}

/// A backend that counts the calls it answers.
struct Counting(Arc<dyn SearchService>, Arc<AtomicU64>);

impl SearchService for Counting {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.execute(req)
    }
}

#[test]
fn synchronous_calls_are_pump_calls() {
    // Cache off: every launch is a backend call.
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
    wsq.load_reference_data().unwrap();
    let backend = Arc::new(AtomicU64::new(0));
    for (name, kind, near) in [
        ("AV", EngineKind::AltaVista, true),
        ("Google", EngineKind::Google, false),
    ] {
        let inner = wsq.web().engine(kind);
        wsq.register_engine(name, Arc::new(Counting(inner, backend.clone())), near);
    }
    let calls = |sql: &str, wsq: &mut Wsq| {
        let before = backend.load(Ordering::Relaxed);
        let rows = oracle(wsq, sql);
        assert_eq!(wsq.pump().live_calls(), 0, "{sql}");
        (rows.len(), backend.load(Ordering::Relaxed) - before)
    };

    // ANALYZE sees a synchronous query's calls: the pump registered and
    // the trace recorded each of them.
    wsq.options_mut().mode = ExecutionMode::Synchronous;
    let before = backend.load(Ordering::Relaxed);
    let (result, report) = wsq
        .analyze("SELECT Name, Count FROM States, WebCount WHERE Name = T1")
        .unwrap();
    assert_eq!(result.rows.len(), 50);
    assert_eq!(backend.load(Ordering::Relaxed) - before, 50);
    let footer = |prefix: &str| {
        report
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix} footer in:\n{report}"))
    };
    assert!(footer("-- pump:").contains("registered=50 "), "{report}");
    assert!(footer("-- trace:").contains("calls=50 "), "{report}");
    assert!(!report.contains("AEVScan"), "{report}");

    // The paper's Example 2: a constant binding under a cross product
    // asks the same question once per state. The scan holds its last
    // call, so each repeat coalesces onto it: one backend call.
    let beaches = "SELECT Name, Count FROM States, WebCount WHERE T1 = 'beaches'";
    assert_eq!(calls(beaches, &mut wsq), (50, 1));

    // Table 1's templates: one backend call per distinct request, as an
    // asynchronous run makes (Template 3: 37 AltaVista calls, and a
    // Google call only for the 3 Sigs with an AltaVista page).
    assert_eq!(calls(TEMPLATE_1, &mut wsq), (50, 50));
    assert_eq!(calls(TEMPLATE_2, &mut wsq), (63, 100));
    assert_eq!(calls(TEMPLATE_3, &mut wsq), (3, 40));
}
