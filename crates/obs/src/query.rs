//! Per-query measurement windows and trace timeline rendering.
//!
//! A [`QueryWindow`] brackets one query with a recorder of its own
//! ([`crate::QueryRecorder`]) that also keeps the ids of the calls the
//! query registered. When finished it reads the query's own histograms,
//! counters and buffer high-water mark from that recorder, and its
//! concurrency from the lifecycle events of its own calls in the trace —
//! never a difference of shared cells, so a concurrent query on another
//! session changes nothing in this one's summary.

use crate::metrics::{CounterId, GaugeId, HistogramId};
use crate::recorder::QueryRecorder;
use crate::trace::{EventKind, TraceEvent};
use crate::Obs;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Duration;
use wsq_common::CallId;

/// An open per-query measurement window; see [`Obs::begin_query`].
#[derive(Debug)]
pub struct QueryWindow {
    recorder: QueryRecorder,
    start_pos: u64,
    started: Duration,
}

impl QueryWindow {
    pub(crate) fn open(obs: &Obs) -> QueryWindow {
        QueryWindow {
            recorder: obs.query_recorder(true),
            start_pos: obs.trace_position(),
            started: obs.now(),
        }
    }

    /// Run `f` as part of the query: what it records on this thread lands
    /// in the window's recorder (see [`QueryRecorder::run`]).
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.recorder.run(f)
    }

    /// Close the window: record the query's wall time in
    /// `wsq_query_latency_seconds`, bump `wsq_queries_total`, and return
    /// the summary. `None` when the handle is disabled.
    pub fn finish(mut self) -> Option<QuerySummary> {
        let core = self.recorder.core()?.clone();
        self.recorder.publish();
        let elapsed = core.epoch.elapsed().saturating_sub(self.started);
        core.well.queries.inc();
        core.well.query_latency.observe(elapsed);

        let r = &self.recorder;
        let calls = r.histogram(HistogramId::CallLatency);
        let queue = r.histogram(HistogramId::QueueDelay);
        let patch = r.histogram(HistogramId::PatchDelay);
        let stall = r.histogram(HistogramId::StallDuration);
        let own: HashSet<CallId> = r.calls().iter().copied().collect();
        let events = core
            .trace
            .snapshot_for_calls(self.start_pos, |call| own.contains(&call));
        Some(QuerySummary {
            elapsed,
            calls: calls.count,
            call_p50: calls.quantile(0.5),
            call_p95: calls.quantile(0.95),
            call_max: (calls.count > 0).then(|| Duration::from_nanos(calls.max_nanos)),
            queue_p95: queue.quantile(0.95),
            patch_p95: patch.quantile(0.95),
            max_concurrent: max_concurrent(&events),
            stalls: r.counter(CounterId::ReqsyncStalls),
            stall_p95: stall.quantile(0.95),
            buffered_hw: r.high_water(GaugeId::ReqsyncBuffered),
            events: events.len() as u64,
            dropped: core.trace.dropped(),
        })
    }
}

/// What one query did, distilled from its recorder and the lifecycle
/// events of its own calls. Rendered as the `-- trace:` ANALYZE footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySummary {
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// External calls of this query that completed (or failed): those
    /// whose results it took (a call shared with another query counts for
    /// whichever took it first).
    pub calls: u64,
    /// Median launch→completion latency of those calls.
    pub call_p50: Option<Duration>,
    /// 95th-percentile launch→completion latency.
    pub call_p95: Option<Duration>,
    /// Slowest single call, exact.
    pub call_max: Option<Duration>,
    /// 95th-percentile registration→launch delay (capacity wait).
    pub queue_p95: Option<Duration>,
    /// 95th-percentile tuple admission→patch delay in ReqSync.
    pub patch_p95: Option<Duration>,
    /// Most of the query's own calls in flight at once, from their
    /// `Launched` / `Completed` events.
    pub max_concurrent: i64,
    /// Admission-control stalls ReqSync operators took in the window.
    pub stalls: u64,
    /// 95th-percentile stall duration (stall → resume).
    pub stall_p95: Option<Duration>,
    /// High-water mark of incomplete tuples buffered by the query's own
    /// ReqSync operators (with `reqsync_cap` set this stays at or below
    /// the cap, barring §4.3 case-3 copy multiplication).
    pub buffered_hw: i64,
    /// Trace events of the query's own calls.
    pub events: u64,
    /// Lifetime trace drops (non-zero means old windows were evicted).
    pub dropped: u64,
}

impl fmt::Display for QuerySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "calls={} call_p50={} call_p95={} call_max={} queue_p95={} patch_p95={} max_concurrent={} stalls={} stall_p95={} buffered_hw={} events={} dropped={}",
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
        )
    }
}

fn fmt_ms(d: Option<Duration>) -> String {
    match d {
        Some(d) => format!("{:.1}ms", d.as_secs_f64() * 1_000.0),
        None => "-".to_string(),
    }
}

/// The most calls in flight at once among `events` (one query's): each
/// `Launched` opens an interval, its call's `Completed` or `Failed`
/// closes it. Events are taken in time order; at equal stamps in the
/// order they were recorded, so an instant reply — launched and completed
/// in one step — counts as in flight.
fn max_concurrent(events: &[TraceEvent]) -> i64 {
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by_key(|e| (e.at, e.seq));
    let mut open: HashSet<CallId> = HashSet::new();
    let mut max = 0;
    for e in order {
        match e.kind {
            EventKind::Launched => {
                open.insert(e.call);
                max = max.max(open.len());
            }
            EventKind::Completed | EventKind::Failed => {
                open.remove(&e.call);
            }
            _ => {}
        }
    }
    max as i64
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
    use crate::Step;
    use std::sync::Arc;

    #[test]
    fn window_on_disabled_obs_yields_none() {
        let obs = Obs::disabled();
        let mut w = obs.begin_query();
        w.run(|| obs.count(CounterId::ReqsyncStalls, 1));
        assert!(w.finish().is_none());
    }

    /// A call's registration, launch and instant completion as the pump
    /// records them, its delays sampled by whoever takes the result.
    fn instant_call(obs: &Obs, call: u64, latency: Duration) {
        let step = Step::new();
        obs.emit(
            &step,
            [
                (CallId(call), EventKind::Registered),
                (CallId(call), EventKind::Queued),
                (CallId(call), EventKind::Launched),
                (CallId(call), EventKind::Completed),
            ],
        );
        obs.observe(HistogramId::QueueDelay, Duration::ZERO);
        obs.observe(HistogramId::CallLatency, latency);
    }

    #[test]
    fn window_scopes_stats_to_one_query() {
        let obs = Obs::enabled();
        // Noise from before the window and from another thread during it.
        instant_call(&obs, 90, Duration::from_secs(4));
        obs.shift(GaugeId::ReqsyncBuffered, 50);

        let mut w = obs.begin_query();
        w.run(|| {
            instant_call(&obs, 1, Duration::from_millis(2));
            obs.shift(GaugeId::ReqsyncBuffered, 3);
            let other = obs.clone();
            std::thread::spawn(move || {
                other.record(|| instant_call(&other, 91, Duration::from_secs(3)));
            })
            .join()
            .unwrap();
            obs.shift(GaugeId::ReqsyncBuffered, -3);
            obs.count(CounterId::ReqsyncStalls, 2);
        });
        let s = w.finish().unwrap();

        assert_eq!(s.calls, 1);
        assert_eq!(s.max_concurrent, 1);
        assert_eq!(s.buffered_hw, 3, "the query's own ReqSync occupancy");
        assert_eq!(s.call_max, Some(Duration::from_millis(2)));
        assert!(s.call_p95.unwrap() <= Duration::from_millis(3));
        assert_eq!(s.events, 4, "only the query's own call");
        assert_eq!(s.stalls, 2);
        let m = obs.metrics().unwrap();
        assert_eq!(m.queries.get(), 1);
        assert_eq!(m.query_latency.snapshot().count, 1);
        // The shared instruments got everything, published.
        assert_eq!(m.call_latency.snapshot().count, 3);
        assert_eq!(m.reqsync_stalls.get(), 2);
        assert_eq!(m.reqsync_buffered.get(), 50);
        let line = s.to_string();
        assert!(line.starts_with("calls=1 "));
        assert!(line.contains("max_concurrent=1"));
    }

    #[test]
    fn concurrency_counts_overlapping_launches() {
        let at = |ms| Duration::from_millis(ms);
        let mk = |seq, ms, call, kind| TraceEvent {
            seq,
            at: at(ms),
            call: CallId(call),
            session: 0,
            kind,
            label: None,
        };
        // Recorded out of time order: call 2 on a thread that published late.
        let events = vec![
            mk(0, 1, 1, EventKind::Launched),
            mk(1, 9, 1, EventKind::Completed),
            mk(5, 2, 2, EventKind::Launched),
            mk(6, 4, 2, EventKind::Failed),
            mk(7, 9, 3, EventKind::Launched),
            mk(8, 9, 3, EventKind::Completed),
        ];
        assert_eq!(max_concurrent(&events), 2);
        assert_eq!(max_concurrent(&events[4..]), 1, "an instant reply");
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
