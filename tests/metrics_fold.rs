//! The metrics a query leaves are the same whether each fact is counted
//! beside its event or folded from the event.
//!
//! The call counters (`wsq_calls_*_total`, races, cancelled tuples,
//! stalls) and the pump's queue-depth and in-flight gauges are folded
//! from the trace events wherever those are recorded; no emission site
//! counts them. A fixed script of warm queries — the three Table-1
//! templates, a `WebCount_ANY` race and a cursor — must leave every counter and gauge line of the `/metrics`
//! exposition, and the observation count of every histogram, exactly as
//! `tests/golden/metrics_counts.txt` records them: what the code printed
//! when each of them was still counted by hand. Bucket and sum lines are
//! timings and are left out.
//!
//! `ReqPump::stats()` reads the same cells with observability on, and the
//! pump's own counts with it off; both must agree for the same script.
//!
//! On a mismatch the test writes what it got next to the build's other
//! test output (the path is in the failure message).

use std::time::Duration;
use wsqdsq::prelude::*;

const GOLDEN: &str = include_str!("golden/metrics_counts.txt");

const TEMPLATES: [&str; 3] = [
    "SELECT Name, Count FROM States, WebCount \
     WHERE Name = T1 AND WebCount.T2 = 'computer'",
    "SELECT Name, Count, URL, Rank FROM States, WebCount, WebPages \
     WHERE Name = WebCount.T1 AND WebCount.T2 = 'computer' \
     AND Name = WebPages.T1 AND WebPages.T2 = 'beaches' AND WebPages.Rank <= 2",
    "SELECT Name, AV.URL, G.URL FROM Sigs, WebPages_AV AV, WebPages_Google G \
     WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 3 AND G.Rank <= 3 \
     AND AV.T2 = 'computer' AND G.T2 = 'computer'",
];

const RACE: &str = "SELECT Name, Count FROM States, WebCount_ANY WHERE Name = T1";

/// Run the script on a fresh instance and return it.
fn script(obs: bool) -> Wsq {
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        cache: true,
        obs,
        ..WsqConfig::default()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    wsq.set_race_group(&["AV", "Google"]).unwrap();
    // Twice each: cold (cache misses), then warm (hits, and Template 3's
    // Google calls coalescing onto the call their scan still holds).
    for sql in TEMPLATES.iter().chain([&RACE]) {
        for _ in 0..2 {
            wsq.query(sql).unwrap();
        }
    }
    // A cursor, read to its end.
    let mut cursor = wsq.query_cursor(TEMPLATES[0]).unwrap();
    while cursor.next_row().unwrap().is_some() {}
    drop(cursor);
    wsq
}

/// The exposition's counter and gauge lines and each histogram's count.
fn counts(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains("_bucket{") && !l.contains("_sum "))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn folded_metrics_equal_the_counted_ones() {
    let wsq = script(true);
    assert_eq!(wsq.pump().live_calls(), 0);
    let got = counts(&wsq.metrics_text());
    if got != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("metrics_counts.actual");
        std::fs::write(&path, &got).unwrap();
        panic!(
            "metric counts changed; got {} (golden tests/golden/metrics_counts.txt):\n{got}",
            path.display()
        );
    }
}

#[test]
fn pump_stats_fold_alike_with_observability_on_and_off() {
    let on = script(true).pump().stats();
    let off = script(false).pump().stats();
    assert_eq!(on, off);
    assert!(on.registered > 0 && on.coalesced > 0, "{on:?}");
}

#[test]
fn calls_under_latency_fold_the_same_counts() {
    // Placeholders, ReqSync patching and the timer thread's completions:
    // every call of Template 1 is pending at registration.
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        latency: LatencyModel::Fixed(Duration::from_millis(1)),
        ..WsqConfig::default()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    assert_eq!(wsq.query(TEMPLATES[0]).unwrap().rows.len(), 50);
    let m = wsq.obs().metrics().unwrap();
    let stats = wsq.pump().stats();
    assert_eq!(
        (stats.registered, stats.launched, stats.completed),
        (50, 50, 50)
    );
    assert_eq!(m.calls_completed.get(), 50);
    assert_eq!(m.placeholder_tuples.get(), 50);
    assert_eq!(m.tuples_patched.get(), 50);
    assert_eq!((m.in_flight.get(), m.queue_depth.get()), (0, 0));
    assert!(m.in_flight.high_water() >= 1);
    assert_eq!(m.call_latency.snapshot().count, 50);
}
