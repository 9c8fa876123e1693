//! Golden test pinning the `Wsq::analyze` report grammar documented in
//! DESIGN.md §10.4:
//!
//! ```text
//! report      := op_line+ pump_line [trace_line] cache_line* [verify_line]
//! op_line     := indent label "  [rows=" n " nexts=" n " opens=" n " time=" ms "ms]"
//! pump_line   := "-- pump: registered=.. launched=.. completed=.. coalesced=..
//!                 peak_in_flight=.. peak_queued=.."
//! trace_line  := "-- trace: calls=.. call_p50=.. call_p95=.. call_max=..
//!                 queue_p95=.. patch_p95=.. max_concurrent=.. stalls=..
//!                 stall_p95=.. buffered_hw=.. events=.. dropped=.."
//! cache_line  := "-- cache[ENGINE]: hits=.. misses=.. evictions=.. expirations=.."
//! verify_line := "-- verify: ok (verified .. nodes: .., peak buffered B)"
//!                 | "-- verify: FAILED: .."
//! bound       := n | "inf"
//! ```
//!
//! Tools (and the README transcript) parse these lines; a change to the
//! shape is an API break and must update DESIGN.md §10.4 with it.

use wsqdsq::prelude::*;

/// `k=v` keys of a `-- section: k=v k=v …` footer line, in order.
fn footer_keys(line: &str) -> Vec<&str> {
    let body = line.split_once(": ").expect("footer has ': '").1;
    body.split_whitespace()
        .map(|kv| kv.split_once('=').expect("footer item is k=v").0)
        .collect()
}

/// Assert every `k=v` value of a footer line is a bare unsigned integer.
fn assert_integer_values(line: &str) {
    let body = line.split_once(": ").unwrap().1;
    for kv in body.split_whitespace() {
        let v = kv.split_once('=').unwrap().1;
        assert!(
            v.parse::<u64>().is_ok(),
            "non-integer value {v:?} in {line:?}"
        );
    }
}

/// A duration cell of the trace footer: `12.3ms` or `-` (no samples).
fn assert_dur(v: &str, line: &str) {
    if v == "-" {
        return;
    }
    let num = v
        .strip_suffix("ms")
        .unwrap_or_else(|| panic!("duration {v:?} lacks ms suffix in {line:?}"));
    assert!(
        num.parse::<f64>().is_ok(),
        "unparsable duration {v:?} in {line:?}"
    );
}

/// Validate one operator line: two-space indentation steps, the
/// double-space separator, and the exact counter bracket.
fn assert_op_line(line: &str) {
    let depth_spaces = line.len() - line.trim_start_matches(' ').len();
    assert_eq!(depth_spaces % 2, 0, "odd indentation in {line:?}");
    let (label, bracket) = line
        .trim_start()
        .rsplit_once("  [")
        .unwrap_or_else(|| panic!("operator line lacks counter bracket: {line:?}"));
    assert!(!label.is_empty(), "empty operator label in {line:?}");
    let body = bracket
        .strip_suffix(']')
        .unwrap_or_else(|| panic!("unterminated counter bracket: {line:?}"));
    let parts: Vec<&str> = body.split(' ').collect();
    assert_eq!(parts.len(), 4, "expected 4 counters in {line:?}");
    for (part, key) in parts.iter().zip(["rows=", "nexts=", "opens=", "time="]) {
        let v = part
            .strip_prefix(key)
            .unwrap_or_else(|| panic!("expected {key} in {line:?}, got {part:?}"));
        if key == "time=" {
            let num = v.strip_suffix("ms").expect("time is in ms");
            assert!(num.parse::<f64>().is_ok(), "bad time {v:?} in {line:?}");
            // Three decimal places, as documented.
            assert_eq!(num.split('.').nth(1).map(str::len), Some(3), "{line:?}");
        } else {
            assert!(v.parse::<u64>().is_ok(), "bad counter {v:?} in {line:?}");
        }
    }
}

#[test]
fn analyze_report_matches_the_documented_grammar() {
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        cache: true,
        ..WsqConfig::fast()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    let (_, report) = wsq
        .analyze(
            "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
             ORDER BY Count DESC, Name LIMIT 5",
        )
        .unwrap();
    let lines: Vec<&str> = report.lines().collect();

    // Partition: operator tree first, then footers, nothing interleaved.
    let first_footer = lines
        .iter()
        .position(|l| l.starts_with("-- "))
        .unwrap_or_else(|| panic!("no footer lines in:\n{report}"));
    assert!(first_footer > 0, "report must start with operator lines");
    for line in &lines[..first_footer] {
        assert_op_line(line);
    }
    for line in &lines[first_footer..] {
        assert!(
            line.starts_with("-- "),
            "operator line after footers began: {line:?}\nin:\n{report}"
        );
    }

    // Footer order and multiplicity: pump, trace, cache*, verify.
    let footers = &lines[first_footer..];
    let sections: Vec<&str> = footers
        .iter()
        .map(|l| {
            l.strip_prefix("-- ")
                .and_then(|r| r.split_once(':'))
                .map(|(s, _)| s)
                .unwrap_or_else(|| panic!("malformed footer {l:?}"))
        })
        .collect();
    assert_eq!(
        sections[0], "pump",
        "pump footer must come first: {sections:?}"
    );
    assert_eq!(sections[1], "trace", "trace follows pump when obs is on");
    assert_eq!(
        *sections.last().unwrap(),
        "verify",
        "verify footer must be last: {sections:?}"
    );
    for s in &sections[2..sections.len() - 1] {
        assert!(
            s.starts_with("cache[") && s.ends_with(']'),
            "only cache lines between trace and verify: {s:?}"
        );
    }
    assert_eq!(sections.iter().filter(|s| **s == "pump").count(), 1);
    assert_eq!(sections.iter().filter(|s| **s == "trace").count(), 1);

    // Exact key sequences.
    assert_eq!(
        footer_keys(footers[0]),
        [
            "registered",
            "launched",
            "completed",
            "coalesced",
            "peak_in_flight",
            "peak_queued"
        ]
    );
    assert_integer_values(footers[0]);
    assert_eq!(
        footer_keys(footers[1]),
        [
            "calls",
            "call_p50",
            "call_p95",
            "call_max",
            "queue_p95",
            "patch_p95",
            "max_concurrent",
            "stalls",
            "stall_p95",
            "buffered_hw",
            "events",
            "dropped"
        ]
    );
    for kv in footers[1].split_once(": ").unwrap().1.split_whitespace() {
        let (k, v) = kv.split_once('=').unwrap();
        if k.ends_with("p50") || k.ends_with("p95") || k.ends_with("max") {
            assert_dur(v, footers[1]);
        } else {
            assert!(v.parse::<i64>().is_ok(), "bad {k}={v} in {:?}", footers[1]);
        }
    }
    let cache_lines: Vec<&&str> = footers
        .iter()
        .filter(|l| l.starts_with("-- cache["))
        .collect();
    assert!(
        !cache_lines.is_empty(),
        "caching was on, expected cache lines"
    );
    for line in &cache_lines {
        assert_eq!(
            footer_keys(line),
            ["hits", "misses", "evictions", "expirations"]
        );
        assert_integer_values(line);
    }
    // Engines are listed in sorted order.
    let engines: Vec<&str> = cache_lines
        .iter()
        .map(|l| {
            l.strip_prefix("-- cache[")
                .unwrap()
                .split_once(']')
                .unwrap()
                .0
        })
        .collect();
    let mut sorted = engines.clone();
    sorted.sort();
    assert_eq!(engines, sorted, "cache engines must be sorted");

    let verify = footers.last().unwrap();
    assert!(
        verify.starts_with("-- verify: ok (verified ") && verify.ends_with(')'),
        "verify footer shape: {verify:?}"
    );
    // The static resource bound rides inside the parens (`n` or `inf`).
    let body = verify
        .strip_prefix("-- verify: ok (")
        .unwrap()
        .strip_suffix(')')
        .unwrap();
    let (_, bound) = body
        .split_once(", peak buffered ")
        .unwrap_or_else(|| panic!("verify footer lacks `peak buffered`: {verify:?}"));
    assert!(
        bound == "inf" || bound.parse::<u64>().is_ok(),
        "bad bound {bound:?} in {verify:?}"
    );
}

#[test]
fn optional_footers_disappear_with_their_features() {
    // Obs off, cache off: the report is operator lines + pump + verify.
    let mut wsq = Wsq::open_in_memory(WsqConfig {
        obs: false,
        ..WsqConfig::fast()
    })
    .unwrap();
    wsq.load_reference_data().unwrap();
    let (_, report) = wsq
        .analyze("SELECT Count FROM WebCount WHERE T1 = 'Texas'")
        .unwrap();
    let sections: Vec<&str> = report
        .lines()
        .filter_map(|l| l.strip_prefix("-- "))
        .map(|r| r.split_once(':').unwrap().0)
        .collect();
    assert_eq!(sections, ["pump", "verify"], "in:\n{report}");
}
