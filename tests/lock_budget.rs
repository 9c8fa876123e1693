//! Regression guard for the locks an external call takes at zero latency.
//! A call that launches — the cache off — takes two holds of the pump's
//! state lock: one registers it, launches it and, its reply in hand before
//! the registration returns, nothing more; one completes it and delivers
//! its result to the `AEVScan` that registered it (and gives up the scan's
//! previous call). A cache hit is the result the pump kept after an
//! earlier query released it, so one hold registers the call, finds the
//! kept result and delivers it: one lock acquisition a call. While the
//! cache was a `CachedService` behind the pump a hit was a launching call
//! plus the cache's read lock inside `execute`: three. Before delivery at
//! registration a call also took the pump lock to look for more work, to
//! be taken by `ReqSync`, and to be released: five in all.
//!
//! Acquisitions are counted by the `parking_lot` shim's test-only `count`
//! feature, over every thread (this file holds one test, so nothing else in
//! the process runs; the pump's timer thread sleeps through a warm query).

use wsqdsq::prelude::*;

const RUNS: u64 = 200;

/// Template 1 as `wsqbench/src/workloads/fanout.rs` spells it: 50 calls.
const TEMPLATE_1: &str = "SELECT Name, Count FROM States, WebCount \
                          WHERE Name = T1 AND WebCount.T2 = 'computer'";
const CALLS: u64 = 50;

/// Template 1's stored-table side alone: the same scan of `States`, which
/// takes the buffer pool's lock twice a row.
const SCAN: &str = "SELECT Name FROM States";

/// Lock acquisitions per cache hit: one pump hold.
const PER_CALL: u64 = 1;

/// Lock acquisitions per call that launches: two pump holds.
const PER_LAUNCH: u64 = 2;

/// Publishing the query's trace events to the ring (300 when every call
/// launches, 150 when every call is a hit): a page lock per run of 64
/// slots and a label lock per publish (10 and 6 measured).
const TRACE_PUBLISHING: u64 = 12;

/// Lock acquisitions per warm run of `sql`.
fn acquisitions_per_query(wsq: &mut Wsq, sql: &str, rows: usize) -> u64 {
    let misses = |wsq: &Wsq| wsq.cache_stats().values().map(|c| c.misses).sum::<u64>();
    loop {
        let before = misses(wsq);
        assert_eq!(wsq.query(sql).unwrap().rows.len(), rows, "{sql}");
        if misses(wsq) == before {
            break;
        }
    }
    let before = parking_lot::acquisitions();
    for _ in 0..RUNS {
        assert_eq!(wsq.query(sql).unwrap().rows.len(), rows, "{sql}");
    }
    (parking_lot::acquisitions() - before) / RUNS
}

/// Lock acquisitions per warm run of Template 1, beyond its scan's.
fn acquisitions_per_template(config: WsqConfig) -> u64 {
    let mut wsq = Wsq::open_in_memory(config).unwrap();
    wsq.load_reference_data().unwrap();
    let template = acquisitions_per_query(&mut wsq, TEMPLATE_1, 50);
    let scan = acquisitions_per_query(&mut wsq, SCAN, 50);
    eprintln!(
        "Template 1: {template} lock acquisitions per warm query, {scan} of them the scan's; \
         {:.2} per call",
        (template - scan) as f64 / CALLS as f64
    );
    assert_eq!(wsq.pump().live_calls(), 0);
    template - scan
}

#[test]
fn a_warm_call_takes_three_locks() {
    let launches = acquisitions_per_template(WsqConfig::default());
    assert!(
        launches <= PER_LAUNCH * CALLS + TRACE_PUBLISHING,
        "{launches} lock acquisitions for {CALLS} launching calls, budget {PER_LAUNCH} a call \
         plus {TRACE_PUBLISHING}: the pump is back to locking for work a delivered call does \
         not need"
    );
    let hits = acquisitions_per_template(WsqConfig {
        cache: true,
        ..WsqConfig::default()
    });
    assert!(
        hits <= PER_CALL * CALLS + TRACE_PUBLISHING,
        "{hits} lock acquisitions for {CALLS} cache hits, budget {PER_CALL} a call plus \
         {TRACE_PUBLISHING}: a hit is back to taking more than the registration's hold"
    );
}
