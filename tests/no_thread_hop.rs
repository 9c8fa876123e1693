//! Regression guard for the zero-hop external-call path: with every call a
//! cache hit at zero latency, a query runs start to finish on the thread
//! that issued it — `register` executes the service and stores the reply
//! itself, and the pump's timer thread sleeps through the whole query.
//!
//! A thread that blocks, or wakes to do a little work and blocks again,
//! adds to the kernel's count of its voluntary context switches. Before
//! launches moved onto the registering thread, each of Template 1's 50
//! `register` calls woke the dispatcher thread to launch and deliver one
//! call: 46 voluntary switches a query across the process. The count is
//! taken over every thread (this file holds one test, so nothing else in
//! the process runs) because the hand-off shows up on whichever side
//! sleeps: the query thread's own count reads anywhere from 0.6 to 5.
#![cfg(target_os = "linux")]

use wsqdsq::prelude::*;

const RUNS: u64 = 20;

/// Voluntary context switches so far, summed over this process's threads.
fn voluntary_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .map(|task| {
            let status = std::fs::read_to_string(task.unwrap().path().join("status")).unwrap();
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .expect("the kernel reports per-thread context switches")
                .trim()
                .parse::<u64>()
                .unwrap()
        })
        .sum()
}

#[test]
fn warm_fan_out_query_wakes_no_other_thread() {
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        cache: true,
        ..WsqConfig::fast()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    let template1 = "SELECT Name, Count FROM States, WebCount \
                     WHERE Name = T1 AND WebCount.T2 = 'skiing' ORDER BY Name";
    let warm = wsq.query(template1).unwrap();
    assert_eq!(warm.rows.len(), 50);

    let before = voluntary_switches();
    for _ in 0..RUNS {
        assert_eq!(wsq.query(template1).unwrap().rows, warm.rows);
    }
    let per_query = (voluntary_switches() - before) as f64 / RUNS as f64;
    assert!(
        per_query <= 2.0,
        "{per_query} voluntary context switches per warm 50-call query: \
         external calls are handing off to another thread again"
    );
    assert_eq!(wsq.pump().live_calls(), 0);
}
