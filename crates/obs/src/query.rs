//! Per-query measurement windows and trace timeline rendering.
//!
//! A [`QueryWindow`] brackets one query: it snapshots the latency
//! histograms, saves the trace position, and resets the in-flight
//! high-water mark when opened; when finished it subtracts the
//! snapshots ([`crate::HistogramSnapshot::delta`]) so the reported
//! p50/p95 describe exactly the calls this query launched, and reads
//! the per-query maximum and per-call timeline from the trace window.

use crate::metrics::HistogramSnapshot;
use crate::trace::{EventKind, TraceEvent};
use crate::Obs;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;
use wsq_common::CallId;

/// An open per-query measurement window; see [`Obs::begin_query`].
#[derive(Debug)]
pub struct QueryWindow {
    enabled: bool,
    start_pos: u64,
    started: Duration,
    call_latency0: HistogramSnapshot,
    queue_delay0: HistogramSnapshot,
    patch_delay0: HistogramSnapshot,
    stall_duration0: HistogramSnapshot,
    stalls0: u64,
    prefetch_issued0: u64,
    prefetch_wasted0: u64,
}

impl QueryWindow {
    pub(crate) fn open(obs: &Obs) -> QueryWindow {
        match obs.metrics() {
            Some(m) => {
                m.in_flight.reset_high_water();
                m.reqsync_buffered.reset_high_water();
                QueryWindow {
                    enabled: true,
                    start_pos: obs.trace_position(),
                    started: obs.now(),
                    call_latency0: m.call_latency.snapshot(),
                    queue_delay0: m.queue_delay.snapshot(),
                    patch_delay0: m.patch_delay.snapshot(),
                    stall_duration0: m.stall_duration.snapshot(),
                    stalls0: m.reqsync_stalls.get(),
                    prefetch_issued0: m.prefetch_issued.get(),
                    prefetch_wasted0: m.prefetch_wasted.get(),
                }
            }
            None => QueryWindow {
                enabled: false,
                start_pos: 0,
                started: Duration::ZERO,
                call_latency0: HistogramSnapshot::empty(),
                queue_delay0: HistogramSnapshot::empty(),
                patch_delay0: HistogramSnapshot::empty(),
                stall_duration0: HistogramSnapshot::empty(),
                stalls0: 0,
                prefetch_issued0: 0,
                prefetch_wasted0: 0,
            },
        }
    }

    /// Close the window: record the query's wall time in
    /// `wsq_query_latency_seconds`, bump `wsq_queries_total`, and return
    /// the summary. `None` when the handle is disabled.
    pub fn finish(self, obs: &Obs) -> Option<QuerySummary> {
        if !self.enabled {
            return None;
        }
        let m = obs.metrics()?;
        let elapsed = obs.now().saturating_sub(self.started);
        m.queries.inc();
        m.query_latency.observe(elapsed);

        let calls = m.call_latency.snapshot().delta(&self.call_latency0);
        let queue = m.queue_delay.snapshot().delta(&self.queue_delay0);
        let patch = m.patch_delay.snapshot().delta(&self.patch_delay0);
        let stall = m.stall_duration.snapshot().delta(&self.stall_duration0);
        let events = obs.trace_events_since(self.start_pos);
        Some(QuerySummary {
            elapsed,
            calls: calls.count,
            call_p50: calls.quantile(0.5),
            call_p95: calls.quantile(0.95),
            call_max: max_call_latency(&events).or_else(|| calls.quantile(1.0)),
            queue_p95: queue.quantile(0.95),
            patch_p95: patch.quantile(0.95),
            max_concurrent: m.in_flight.high_water(),
            stalls: m.reqsync_stalls.get().saturating_sub(self.stalls0),
            stall_p95: stall.quantile(0.95),
            buffered_hw: m.reqsync_buffered.high_water(),
            events: events.len() as u64,
            dropped: obs.trace().map_or(0, |t| t.dropped()),
            prefetch_issued: m
                .prefetch_issued
                .get()
                .saturating_sub(self.prefetch_issued0),
            prefetch_wasted: m
                .prefetch_wasted
                .get()
                .saturating_sub(self.prefetch_wasted0),
        })
    }
}

/// What one query did, distilled from the metrics registry and the
/// trace window. Rendered as the `-- trace:` ANALYZE footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySummary {
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// External calls that completed (or failed) during the window.
    pub calls: u64,
    /// Median launch→completion latency (registry histogram delta).
    pub call_p50: Option<Duration>,
    /// 95th-percentile launch→completion latency.
    pub call_p95: Option<Duration>,
    /// Slowest single call, measured exactly from the trace window.
    pub call_max: Option<Duration>,
    /// 95th-percentile registration→launch delay (capacity wait).
    pub queue_p95: Option<Duration>,
    /// 95th-percentile tuple admission→patch delay in ReqSync.
    pub patch_p95: Option<Duration>,
    /// High-water mark of simultaneously in-flight calls.
    pub max_concurrent: i64,
    /// Admission-control stalls ReqSync operators took in the window.
    pub stalls: u64,
    /// 95th-percentile stall duration (stall → resume).
    pub stall_p95: Option<Duration>,
    /// High-water mark of buffered incomplete tuples (ReqSync occupancy;
    /// with `reqsync_cap` set this stays at or below the cap,
    /// barring §4.3 case-3 copy multiplication).
    pub buffered_hw: i64,
    /// Trace events the window captured.
    pub events: u64,
    /// Lifetime trace drops (non-zero means old windows were evicted).
    pub dropped: u64,
    /// Calls registered ahead of demand during the window (DESIGN §12).
    pub prefetch_issued: u64,
    /// Prefetched calls whose tuple was never consumed.
    pub prefetch_wasted: u64,
}

impl fmt::Display for QuerySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calls={} call_p50={} call_p95={} call_max={} queue_p95={} patch_p95={} max_concurrent={} stalls={} stall_p95={} buffered_hw={} events={} dropped={} prefetch_issued={} prefetch_wasted={}",
            self.calls,
            fmt_ms(self.call_p50),
            fmt_ms(self.call_p95),
            fmt_ms(self.call_max),
            fmt_ms(self.queue_p95),
            fmt_ms(self.patch_p95),
            self.max_concurrent,
            self.stalls,
            fmt_ms(self.stall_p95),
            self.buffered_hw,
            self.events,
            self.dropped,
            self.prefetch_issued,
            self.prefetch_wasted,
        )
    }
}

fn fmt_ms(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.1}ms", d.as_secs_f64() * 1_000.0),
        None => "-".to_string(),
    }
}

/// Exact per-query maximum call latency: the largest launched→finished
/// gap among calls whose both endpoints fall inside the event window.
fn max_call_latency(events: &[TraceEvent]) -> Option<Duration> {
    let mut launched: HashMap<CallId, Duration> = HashMap::new();
    let mut max: Option<Duration> = None;
    for e in events {
        match e.kind {
            EventKind::Launched => {
                launched.insert(e.call, e.at);
            }
            EventKind::Completed | EventKind::Failed => {
                if let Some(start) = launched.get(&e.call) {
                    let d = e.at.saturating_sub(*start);
                    if max.is_none_or(|m| d > m) {
                        max = Some(d);
                    }
                }
            }
            _ => {}
        }
    }
    max
}

/// Render a per-call timeline from a trace window, as shown by the
/// REPL's `.trace` command. Calls appear in first-event order; each
/// event line shows its offset from the window's first event,
/// launches/completions are annotated with the queue and call
/// durations they imply, and a failure with its error text.
pub fn render_timeline(events: &[TraceEvent], dropped: u64) -> String {
    if events.is_empty() {
        return "no trace events captured (observability disabled or no external calls)\n"
            .to_string();
    }
    let t0 = events[0].at;
    let mut order: Vec<CallId> = Vec::new();
    let mut per_call: HashMap<CallId, Vec<&TraceEvent>> = HashMap::new();
    for e in events {
        let entry = per_call.entry(e.call).or_default();
        if entry.is_empty() {
            order.push(e.call);
        }
        entry.push(e);
    }
    let mut out = format!(
        "{} calls, {} events ({} dropped)\n",
        order.len(),
        events.len(),
        dropped
    );
    for call in order {
        let evs = &per_call[&call];
        let label = evs.iter().find_map(|e| e.label.as_deref()).unwrap_or("");
        out.push_str(&format!("{call}  {label}\n"));
        let mut registered_at: Option<Duration> = None;
        let mut launched_at: Option<Duration> = None;
        for e in evs {
            let mut note = String::new();
            match e.kind {
                EventKind::Registered | EventKind::Queued => {
                    registered_at.get_or_insert(e.at);
                }
                EventKind::Launched => {
                    launched_at = Some(e.at);
                    if let Some(r) = registered_at {
                        note = format!("  (waited {})", fmt_rel(e.at.saturating_sub(r)));
                    }
                }
                EventKind::Completed | EventKind::Failed => {
                    if let Some(l) = launched_at {
                        note = format!("  (call {})", fmt_rel(e.at.saturating_sub(l)));
                    }
                    if let (EventKind::Failed, Some(why)) = (e.kind, &e.label) {
                        note.push_str(&format!("  {why}"));
                    }
                }
                _ => {}
            }
            out.push_str(&format!(
                "  +{:>9} {}{}\n",
                fmt_rel(e.at.saturating_sub(t0)),
                e.kind.name(),
                note
            ));
        }
    }
    out
}

fn fmt_rel(d: Duration) -> String {
    format!("{:.3}ms", d.as_secs_f64() * 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn window_on_disabled_obs_yields_none() {
        let obs = Obs::disabled();
        let w = obs.begin_query();
        assert!(w.finish(&obs).is_none());
    }

    #[test]
    fn window_scopes_stats_to_one_query() {
        let obs = Obs::enabled();
        let m = obs.metrics().unwrap();
        // Noise from an earlier "query".
        m.call_latency.observe(Duration::from_secs(4));
        m.in_flight.add(50);
        m.in_flight.add(-50);

        let w = obs.begin_query();
        m.in_flight.add(3);
        obs.event(&crate::Step::new(), CallId(1), EventKind::Launched);
        m.call_latency.observe(Duration::from_millis(2));
        obs.event(&crate::Step::new(), CallId(1), EventKind::Completed);
        m.in_flight.add(-3);
        let s = w.finish(&obs).unwrap();

        assert_eq!(s.calls, 1);
        assert_eq!(s.max_concurrent, 3, "high-water reset scopes the mark");
        assert!(s.call_p95.unwrap() <= Duration::from_millis(3));
        // The exact max comes from the trace, not the lifetime histogram max.
        assert!(s.call_max.unwrap() < Duration::from_secs(1));
        assert_eq!(s.events, 2);
        assert_eq!(m.queries.get(), 1);
        assert_eq!(m.query_latency.snapshot().count, 1);
        let line = s.to_string();
        assert!(line.starts_with("calls=1 "));
        assert!(line.contains("max_concurrent=3"));
    }

    #[test]
    fn timeline_renders_waits_and_call_durations() {
        let mk = |seq, ms, call, kind, label: Option<&str>| TraceEvent {
            seq,
            at: Duration::from_millis(ms),
            call: CallId(call),
            session: 0,
            kind,
            label: label.map(Arc::from),
        };
        let events = vec![
            mk(0, 10, 1, EventKind::Registered, Some("AV:count(\"Utah\")")),
            mk(1, 10, 1, EventKind::Queued, None),
            mk(2, 12, 1, EventKind::Launched, None),
            mk(3, 37, 1, EventKind::Completed, None),
            mk(4, 38, 1, EventKind::Delivered, None),
            mk(5, 38, 1, EventKind::Patched, None),
            mk(6, 40, 2, EventKind::Registered, Some("AV:count(\"Ohio\")")),
            mk(7, 41, 2, EventKind::Launched, None),
            mk(
                8,
                43,
                2,
                EventKind::Failed,
                Some("search error: engine down"),
            ),
        ];
        let out = render_timeline(&events, 0);
        assert!(out.starts_with("2 calls, 9 events (0 dropped)"));
        assert!(out.contains("failed  (call 2.000ms)  search error: engine down"));
        assert!(out.contains("C1  AV:count(\"Utah\")"));
        assert!(out.contains("launched  (waited 2.000ms)"));
        assert!(out.contains("completed  (call 25.000ms)"));
        assert!(out.contains("patched"));
        assert!(render_timeline(&[], 0).contains("no trace events"));
    }
}
