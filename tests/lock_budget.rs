//! Regression guard for the locks a warm external call takes. With every
//! call a cache hit at zero latency, a call's reply is in hand before its
//! registration returns, so the pump delivers it to the `AEVScan` that
//! registered it: one hold of the pump's state lock registers the call
//! (and gives up the scan's previous one), the cache's read lock serves
//! the hit, and one more pump hold completes the call and hands its result
//! over. Before delivery at registration a call also took the pump lock to
//! look for more work, to be taken by `ReqSync`, and to be released: five
//! in all.
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

/// Lock acquisitions per warm call: two pump holds and the cache's read
/// lock.
const PER_CALL: u64 = 3;

/// Publishing the query's 300 trace events to the ring: a page lock per
/// run of 64 slots and a label lock per publish (10 measured).
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

#[test]
fn a_warm_call_takes_three_locks() {
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        cache: true,
        ..WsqConfig::default()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    let template = acquisitions_per_query(&mut wsq, TEMPLATE_1, 50);
    let scan = acquisitions_per_query(&mut wsq, SCAN, 50);
    let calls = template - scan;
    eprintln!(
        "Template 1: {template} lock acquisitions per warm query, {scan} of them the scan's; \
         {:.2} per call",
        calls as f64 / CALLS as f64
    );
    assert!(
        calls <= PER_CALL * CALLS + TRACE_PUBLISHING,
        "{calls} lock acquisitions for {CALLS} warm calls, budget {PER_CALL} a call plus \
         {TRACE_PUBLISHING}: the pump is back to locking for work a delivered call does not need"
    );
    assert_eq!(wsq.pump().live_calls(), 0);
}
