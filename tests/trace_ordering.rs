//! Regression guard for the order of a call's events when more than one
//! thread records them. A query's thread buffers its events in the
//! query's recorder and publishes them in batches, while a call with
//! latency is completed by another thread — the pump's timer thread —
//! which writes to the trace ring directly. The query's thread must publish
//! before it blocks and before it hands a call on, or a completion would
//! reach the ring ahead of its own buffered `registered`.
//!
//! Each case runs Template 1 (50 calls) through `Wsq::trace_query` and
//! checks, call by call in ring order, that the events follow the
//! lifecycle and that their stamps never run backwards.

use std::collections::BTreeMap;
use std::time::Duration;
use wsqdsq::prelude::*;

/// Template 1 as `wsqbench/src/workloads/fanout.rs` spells it: 50 calls.
const TEMPLATE_1: &str = "SELECT Name, Count FROM States, WebCount \
                          WHERE Name = T1 AND WebCount.T2 = 'computer'";

/// The lifecycle of a call Template 1 makes, in the order it must be
/// recorded.
const LIFECYCLE: [&str; 6] = [
    "registered",
    "queued",
    "launched",
    "completed",
    "delivered",
    "patched",
];

/// A few milliseconds per call, so replies are due after the registering
/// thread has moved on.
fn jitter() -> LatencyModel {
    LatencyModel::Jitter {
        base: Duration::from_millis(2),
        jitter: Duration::from_millis(2),
    }
}

fn assert_calls_in_lifecycle_order(pump: PumpConfig) {
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        latency: jitter(),
        pump,
        ..WsqConfig::default()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();

    let pos = wsq.obs().trace_position();
    let (result, timeline) = wsq.trace_query(TEMPLATE_1).unwrap();
    assert_eq!(result.rows.len(), 50);
    assert!(!timeline.is_empty());
    let events = wsq.obs().trace_events_since(pos);
    assert_eq!(wsq.obs().trace().unwrap().dropped(), 0);

    let mut by_call: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for e in &events {
        by_call.entry(e.call).or_default().push(e);
    }
    assert_eq!(by_call.len(), 50);
    for (call, of_call) in by_call {
        let kinds: Vec<&str> = of_call.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, LIFECYCLE, "{call}: events out of lifecycle order");
        for pair in of_call.windows(2) {
            assert!(
                pair[0].at <= pair[1].at,
                "{call}: stamps run backwards: {pair:?}"
            );
        }
    }
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn timer_thread_completions_follow_their_registration() {
    assert_calls_in_lifecycle_order(PumpConfig::default());
}

#[test]
fn timer_thread_launches_follow_their_registration_under_a_cap() {
    // Eight in flight: the timer thread launches most calls as it frees
    // capacity, after the query's thread has queued them.
    assert_calls_in_lifecycle_order(PumpConfig {
        max_concurrent: 8,
        ..PumpConfig::default()
    });
}
