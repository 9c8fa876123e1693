//! Regression guard for what observability costs an external call: with
//! the trace ring and the metrics on (the facade's default), each step of
//! a call — registration, the launch round, completion, ReqSync's delivery
//! — reads the clock at most once and stamps everything it records with
//! that reading. A warm call used to read it twelve times, once per event
//! and histogram sample, then four times, once per step. Now a registration
//! that launches its call at once shares its reading with the launch
//! round, an instant reply completes in the round that launched it, and
//! ReqSync's admission and delivery continue the thread's latest reading
//! when nothing they deliver completed later: the trace shows at most
//! three distinct stamps per call, `Registered` sharing its stamp with
//! `Queued`, `Launched` with `Completed`, and `Delivered` with `Patched`.
//!
//! What a reader of `.trace` sees must not change with the bookkeeping:
//! the rendered timeline of a warm Template-1 query, its timing digits
//! masked, equals `tests/golden/template1.trace`, taken before the steps
//! shared their readings.
//!
//! This file holds one test so that nothing else in the process records
//! into the ring while it reads a query's window.

use std::collections::BTreeSet;
use wsqdsq::prelude::*;

/// Template 1 as `wsqbench/src/workloads/fanout.rs` spells it: 50 calls.
const TEMPLATE_1: &str = "SELECT Name, Count FROM States, WebCount \
                          WHERE Name = T1 AND WebCount.T2 = 'computer'";

const GOLDEN: &str = include_str!("golden/template1.trace");

/// The lifecycle of a call that completes inline, in sequence order.
const LIFECYCLE: [&str; 6] = [
    "registered",
    "queued",
    "launched",
    "completed",
    "delivered",
    "patched",
];

/// `.trace` text with every duration (`0.123ms`, and the padding before
/// it) replaced by `#ms`: what is left is calls, labels, event names and
/// which events carry a `waited` / `call` note.
fn mask_durations(timeline: &str) -> String {
    let mut out = String::with_capacity(timeline.len());
    for line in timeline.lines() {
        let mut rest = line;
        while let Some(end) = rest.find("ms") {
            let head = &rest[..end];
            let number = head
                .rfind(|c: char| !(c.is_ascii_digit() || c == '.'))
                .map_or(0, |i| i + 1);
            if number == head.len() {
                // "ms" inside a word, not after a number.
                out.push_str(&rest[..end + 2]);
            } else {
                // The offset column is right-aligned: drop its padding too.
                let before = &head[..number];
                let unpadded = before.trim_end_matches(' ');
                out.push_str(if unpadded.ends_with('+') {
                    unpadded
                } else {
                    before
                });
                out.push_str("#ms");
            }
            rest = &rest[end + 2..];
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

#[test]
fn a_warm_call_is_stamped_by_three_clock_readings() {
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        cache: true,
        ..WsqConfig::default()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    let misses = |wsq: &Wsq| wsq.cache_stats().values().map(|c| c.misses).sum::<u64>();
    loop {
        let before = misses(&wsq);
        assert_eq!(wsq.query(TEMPLATE_1).unwrap().rows.len(), 50);
        if misses(&wsq) == before {
            break;
        }
    }

    let pos = wsq.obs().trace_position();
    let (result, timeline) = wsq.trace_query(TEMPLATE_1).unwrap();
    assert_eq!(result.rows.len(), 50);
    let events = wsq.obs().trace_events_since(pos);
    assert_eq!(events.len(), 50 * LIFECYCLE.len(), "six events a call");

    for pair in events.windows(2) {
        assert!(
            pair[0].seq < pair[1].seq && pair[0].at <= pair[1].at,
            "stamps must not run backwards along the ring: {pair:?}"
        );
    }

    let calls: BTreeSet<_> = events.iter().map(|e| e.call).collect();
    assert_eq!(calls.len(), 50);
    for call in calls {
        let of_call: Vec<_> = events.iter().filter(|e| e.call == call).collect();
        let kinds: Vec<&str> = of_call.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, LIFECYCLE, "{call}");
        assert_eq!(of_call[0].at, of_call[1].at, "{call}: registered/queued");
        assert_eq!(of_call[2].at, of_call[3].at, "{call}: launched/completed");
        assert_eq!(of_call[4].at, of_call[5].at, "{call}: delivered/patched");
        let stamps: BTreeSet<_> = of_call.iter().map(|e| e.at).collect();
        assert!(
            stamps.len() <= 3,
            "{call}: {} distinct stamps, one step read the clock twice",
            stamps.len()
        );
    }

    assert_eq!(
        mask_durations(&timeline),
        GOLDEN,
        "`.trace` changed beyond its timing digits"
    );
    assert_eq!(wsq.pump().live_calls(), 0);
}
