//! Regression guard for what observability costs an external call: with
//! the trace ring and the metrics on (the facade's default), each step of
//! a call — registration, the launch round, completion, ReqSync's delivery
//! — reads the clock at most once and stamps everything it records with
//! that reading. A call used to read it twelve times, once per event and
//! histogram sample, then four times, once per step. Now a call that
//! launches is stamped by at most three readings: a registration shares
//! its reading with the launch round, an instant reply completes in the
//! round that launched it, and ReqSync's admission and delivery continue
//! the thread's latest reading — `Registered` shares its stamp with
//! `Queued`, `Launched` with `Completed`, and `Delivered` with `Patched`.
//! A cache hit, the result the pump kept from an earlier query, records
//! three events — `registered`, `delivered`, `patched`, no `queued`,
//! `launched` or `completed` — and one reading stamps all three.
//!
//! What a reader of `.trace` sees must not change with the bookkeeping:
//! the rendered timeline of Template 1, its timing digits masked, equals
//! `tests/golden/template1_launch.trace` when every call launches (cache
//! off, zero latency) and `tests/golden/template1.trace` when every call
//! is a hit.
//!
//! This file holds one test so that nothing else in the process records
//! into the ring while it reads a query's window.

use std::collections::BTreeSet;
use wsqdsq::prelude::*;

/// Template 1 as `wsqbench/src/workloads/fanout.rs` spells it: 50 calls.
const TEMPLATE_1: &str = "SELECT Name, Count FROM States, WebCount \
                          WHERE Name = T1 AND WebCount.T2 = 'computer'";

const LAUNCH_GOLDEN: &str = include_str!("golden/template1_launch.trace");
const HIT_GOLDEN: &str = include_str!("golden/template1.trace");

/// The lifecycle of a call that launches and completes inline, in
/// sequence order.
const LAUNCH_LIFECYCLE: [&str; 6] = [
    "registered",
    "queued",
    "launched",
    "completed",
    "delivered",
    "patched",
];

/// The lifecycle of a cache hit, in sequence order.
const HIT_LIFECYCLE: [&str; 3] = ["registered", "delivered", "patched"];

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

/// Trace Template 1 on `wsq` once its cache (if any) has settled, check
/// that each of its 50 calls records `lifecycle` under at most `readings`
/// clock readings and that its events pair their stamps as `pairs` says
/// (indices into `lifecycle`), and that the rendered timeline is `golden`.
fn check(
    mut wsq: Wsq,
    lifecycle: &[&str],
    pairs: &[(usize, usize)],
    readings: usize,
    golden: &str,
) {
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
    assert_eq!(events.len(), 50 * lifecycle.len(), "{lifecycle:?} a call");

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
        assert_eq!(kinds, lifecycle, "{call}");
        for &(a, b) in pairs {
            let (a, b) = (of_call[a], of_call[b]);
            assert_eq!(a.at, b.at, "{call}: {} / {}", a.kind.name(), b.kind.name());
        }
        let stamps: BTreeSet<_> = of_call.iter().map(|e| e.at).collect();
        assert!(
            stamps.len() <= readings,
            "{call}: {} distinct stamps, more than {readings}: a step read the clock twice",
            stamps.len()
        );
    }

    assert_eq!(
        mask_durations(&timeline),
        golden,
        "`.trace` changed beyond its timing digits"
    );
    assert_eq!(wsq.pump().live_calls(), 0);
}

#[test]
fn a_warm_call_is_stamped_by_three_clock_readings() {
    let launching = Wsq::open_in_memory(WsqConfig::default()).unwrap();
    let pairs = [(0, 1), (2, 3), (4, 5)];
    check(launching, &LAUNCH_LIFECYCLE, &pairs, 3, LAUNCH_GOLDEN);

    let hitting = Wsq::open_in_memory(WsqConfig {
        cache: true,
        ..WsqConfig::default()
    })
    .unwrap();
    check(hitting, &HIT_LIFECYCLE, &[], 1, HIT_GOLDEN);
}
