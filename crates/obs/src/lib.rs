#![deny(missing_docs)]
//! Query-lifecycle observability for WSQ/DSQ: call tracing, a metrics
//! registry, and exposition (DESIGN.md §10).
//!
//! The paper's argument is about *where time goes* during asynchronous
//! iteration — launch latency, per-destination queue waits, ReqSync
//! stalls. This crate makes those visible without perturbing them:
//!
//! * [`TraceRing`] — a lock-light, fixed-capacity, drop-counting ring of
//!   per-[`CallId`] lifecycle events (registered → queued → launched →
//!   completed/failed → delivered → patched), timestamped against a
//!   monotonic epoch and recorded one [`Step`] at a time.
//! * [`metrics`] — atomic [`Counter`]s, [`Gauge`]s with high-water
//!   marks, and fixed-bucket latency [`Histogram`]s, pre-registered as
//!   the [`WellKnown`] set and fed by ReqPump, ReqSync, AEVScan, and the
//!   websim decorators.
//! * exposition — [`Obs::prometheus_text`], [`Obs::json_snapshot`], and
//!   the per-query [`QueryWindow`] summaries surfaced by `.stats`,
//!   `.trace`, and `Wsq::analyze`.
//!
//! # The no-op guarantee
//!
//! [`Obs`] is a cheap-clone handle wrapping `Option<Arc<..>>`.
//! [`Obs::disabled`] carries `None`, so every emission site costs one
//! null-check and branch — no clock read, no allocation, no atomics.
//! An *enabled* handle is not free: `wsqbench --traced` reports it as
//! `obs.enabled_overhead_pct` (ROADMAP item 7b).
//!
//! # The stamping rule
//!
//! What an enabled handle costs is mostly clock readings, so the clock is
//! read once per **step**, not once per event. A step is one uninterrupted
//! piece of a call's path — its registration, the launch round that sends
//! it, its completion, the ReqSync pass that admits tuples and delivers
//! results — and every event a step records carries that step's one
//! reading ([`Step`]). The delays the histograms and `.trace` report
//! are differences of step readings: queue delay is launch round minus
//! registration, call latency is completion minus launch round, patch
//! delay is delivery minus admission. A call that completes inline reads
//! the clock four times; the same call on a disabled handle reads it not
//! at all.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use wsq_common::CallId;
//! use wsq_obs::{EventKind, Label, Obs, Step};
//!
//! let obs = Obs::enabled();
//! let request = Arc::new("AV:count(\"Utah\")");
//! // Registration: one reading, one sequence reservation, two events.
//! let step = Step::new();
//! obs.emit(&step, [
//!     (CallId(1), EventKind::Registered, obs.display(&request)),
//!     (CallId(1), EventKind::Queued, Label::None),
//! ]);
//! let registered = obs.stamp(&step);
//! // The launch round measures the queue delay from that reading.
//! let step = Step::new();
//! obs.event(&step, CallId(1), EventKind::Launched);
//! if let (Some(m), Some(then)) = (obs.metrics(), registered) {
//!     m.calls_launched.inc();
//!     m.queue_delay.observe(step.now().saturating_duration_since(then));
//! }
//!
//! let timeline = obs.trace_events_since(0);
//! assert_eq!(timeline.len(), 3);
//! assert_eq!(timeline[0].at, timeline[1].at);
//! assert_eq!(timeline[0].label.as_deref(), Some("AV:count(\"Utah\")"));
//! assert!(obs.prometheus_text().contains("wsq_calls_launched_total 1"));
//!
//! // Disabled handles swallow everything for free.
//! let off = Obs::disabled();
//! off.event(&step, CallId(2), EventKind::Registered);
//! assert!(off.stamp(&step).is_none() && off.metrics().is_none());
//! ```

pub mod metrics;
mod query;
mod trace;

pub use metrics::{
    bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, Metric, Registered, Registry,
    WellKnown, BUCKET_BOUNDS_US, BUCKET_COUNT,
};
pub use query::{render_timeline, QuerySummary, QueryWindow};
pub use trace::{EventKind, Label, TraceEvent, TraceRing};

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsq_common::CallId;

/// Default trace ring capacity (events), enough for several hundred
/// WebCount-join queries before wrap-around.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// The shared observability state behind an enabled [`Obs`] handle.
#[derive(Debug)]
pub struct ObsCore {
    epoch: Instant,
    trace: TraceRing,
    registry: Registry,
    well: WellKnown,
}

/// The observability handle threaded through pump, engine, and websim.
///
/// Cheap to clone (one `Option<Arc>`); [`Obs::disabled`] (also the
/// [`Default`]) is a true no-op sink. Construct one per [`wsq` facade /
/// pump] instance and share it — timestamps and sequence numbers are
/// only comparable within one handle's epoch.
#[derive(Clone, Default)]
pub struct Obs {
    core: Option<Arc<ObsCore>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.core {
            Some(core) => f.debug_tuple("Obs").field(&core.trace).finish(),
            None => f.write_str("Obs(disabled)"),
        }
    }
}

impl Obs {
    /// A no-op sink: every emission is a null-check, nothing is stored.
    pub fn disabled() -> Obs {
        Obs { core: None }
    }

    /// An enabled handle with the [`DEFAULT_TRACE_CAPACITY`] ring.
    pub fn enabled() -> Obs {
        Obs::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled handle whose trace ring holds `trace_capacity` events.
    pub fn with_capacity(trace_capacity: usize) -> Obs {
        let registry = Registry::new();
        let well = WellKnown::register(&registry);
        Obs {
            core: Some(Arc::new(ObsCore {
                epoch: Instant::now(),
                trace: TraceRing::new(trace_capacity),
                registry,
                well,
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Elapsed time since this handle's epoch (zero when disabled).
    pub fn now(&self) -> Duration {
        match &self.core {
            Some(core) => core.epoch.elapsed(),
            None => Duration::ZERO,
        }
    }

    /// The well-known instrument set, or `None` when disabled. The
    /// idiomatic emission site is one `if let`:
    ///
    /// ```
    /// # use wsq_obs::Obs;
    /// # use std::time::Duration;
    /// # let obs = Obs::enabled();
    /// if let Some(m) = obs.metrics() {
    ///     m.call_latency.observe(Duration::from_millis(3));
    /// }
    /// ```
    pub fn metrics(&self) -> Option<&WellKnown> {
        self.core.as_deref().map(|c| &c.well)
    }

    /// The full metrics registry (for exposition), `None` when disabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.core.as_deref().map(|c| &c.registry)
    }

    /// The trace ring, `None` when disabled.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.core.as_deref().map(|c| &c.trace)
    }

    /// `step`'s clock reading for a later step to measure a delay from;
    /// `None`, and no clock read, on a disabled handle.
    pub fn stamp(&self, step: &Step) -> Option<Instant> {
        self.core.as_ref().map(|_| step.now())
    }

    /// Record the events of `step` under consecutive sequence numbers
    /// (one reservation), each stamped with the step's reading and the
    /// thread's session.
    pub fn emit<I>(&self, step: &Step, events: I)
    where
        I: IntoIterator<Item = (CallId, EventKind, Label)>,
        I::IntoIter: ExactSizeIterator,
    {
        if let Some(core) = &self.core {
            let (now, session) = step.reading();
            let at = now.saturating_duration_since(core.epoch);
            core.trace.record(at, session, events.into_iter());
        }
    }

    /// Record one unlabelled event of `step`.
    pub fn event(&self, step: &Step, call: CallId, kind: EventKind) {
        self.emit(step, [(call, kind, Label::None)]);
    }

    /// A text label; `text` is only invoked (and its string only
    /// allocated) when the handle is enabled.
    pub fn text(&self, text: impl FnOnce() -> Arc<str>) -> Label {
        match self.core {
            Some(_) => Label::Text(text()),
            None => Label::None,
        }
    }

    /// A label that is `source`'s `Display`, formatted only for a reader
    /// of the ring: the emission site pays a reference count, and nothing
    /// at all when the handle is disabled.
    pub fn display<T>(&self, source: &Arc<T>) -> Label
    where
        T: std::fmt::Display + Send + Sync + 'static,
    {
        match self.core {
            Some(_) => Label::Display(source.clone()),
            None => Label::None,
        }
    }

    /// Current trace position (total events recorded); save it before a
    /// query and pass it to [`Obs::trace_events_since`] for a per-query
    /// timeline. Zero when disabled.
    pub fn trace_position(&self) -> u64 {
        self.core.as_deref().map_or(0, |c| c.trace.position())
    }

    /// All retained trace events with sequence number ≥ `since`,
    /// in order. Empty when disabled.
    pub fn trace_events_since(&self, since: u64) -> Vec<TraceEvent> {
        self.core
            .as_deref()
            .map_or_else(Vec::new, |c| c.trace.snapshot_since(since))
    }

    /// Trace events belonging to one server session: every event for
    /// every call that has at least one event stamped with `session`.
    ///
    /// The two-pass shape matters for coalescing: a session's
    /// `Registered`/`Coalesced` events are recorded on its own
    /// connection thread (and so carry its id), but the `Launched` /
    /// `Completed` half of the lifecycle runs on pump worker threads
    /// and is untagged — and may be *shared* with other sessions that
    /// coalesced onto the same call. Collecting the session's calls
    /// first, then keeping all events for those calls, returns the full
    /// lifecycle including shared segments; only the events returned have
    /// their labels rendered. Empty when disabled or when `session` is `0`
    /// (untagged events are not a session).
    pub fn trace_events_for_session(&self, since: u64, session: u64) -> Vec<TraceEvent> {
        match self.core.as_deref() {
            Some(core) if session != 0 => core.trace.snapshot_for_session(since, session),
            _ => Vec::new(),
        }
    }

    /// Run `query` as one query through the facade: bump
    /// `wsq_queries_total` and record its wall time in
    /// `wsq_query_latency_seconds` (the lightweight per-query metrics —
    /// no trace-ring snapshot; [`Obs::begin_query`] is the full window).
    /// Just calls `query` when disabled.
    pub fn timed_query<R>(&self, query: impl FnOnce() -> R) -> R {
        let Some(m) = self.metrics() else {
            return query();
        };
        let started = Instant::now();
        let result = query();
        m.queries.inc();
        m.query_latency.observe(started.elapsed());
        result
    }

    /// Open a per-query measurement window (snapshots the histograms,
    /// saves the trace position, resets the in-flight high-water mark).
    pub fn begin_query(&self) -> QueryWindow {
        QueryWindow::open(self)
    }

    /// Prometheus text-format dump of every registered metric. Empty
    /// when disabled.
    pub fn prometheus_text(&self) -> String {
        let Some(core) = self.core.as_deref() else {
            return String::new();
        };
        let mut out = String::new();
        for reg in core.registry.list() {
            match &reg.metric {
                Metric::Counter(c) => {
                    push_meta(&mut out, reg.name, reg.help, "counter");
                    out.push_str(&format!("{} {}\n", reg.name, c.get()));
                }
                Metric::Gauge(g) => {
                    push_meta(&mut out, reg.name, reg.help, "gauge");
                    out.push_str(&format!("{} {}\n", reg.name, g.get()));
                    out.push_str(&format!("{}_high_water {}\n", reg.name, g.high_water()));
                }
                Metric::Histogram(h) => {
                    push_meta(&mut out, reg.name, reg.help, "histogram");
                    let s = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, n) in s.buckets.iter().enumerate() {
                        cumulative += n;
                        let le = match BUCKET_BOUNDS_US.get(i) {
                            Some(us) => format!("{}", *us as f64 / 1_000_000.0),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!(
                            "{}_bucket{{le=\"{}\"}} {}\n",
                            reg.name, le, cumulative
                        ));
                    }
                    out.push_str(&format!("{}_sum {}\n", reg.name, s.sum_nanos as f64 / 1e9));
                    out.push_str(&format!("{}_count {}\n", reg.name, s.count));
                }
            }
        }
        out.push_str("# HELP wsq_trace_dropped_total Trace events lost to ring overwrite\n");
        out.push_str("# TYPE wsq_trace_dropped_total counter\n");
        out.push_str(&format!(
            "wsq_trace_dropped_total {}\n",
            core.trace.dropped()
        ));
        out
    }

    /// JSON snapshot of every registered metric plus trace-ring health.
    /// `"{}"` when disabled.
    pub fn json_snapshot(&self) -> String {
        let Some(core) = self.core.as_deref() else {
            return "{}".to_string();
        };
        let mut parts: Vec<String> = Vec::new();
        for reg in core.registry.list() {
            match &reg.metric {
                Metric::Counter(c) => parts.push(format!("\"{}\":{}", reg.name, c.get())),
                Metric::Gauge(g) => parts.push(format!(
                    "\"{}\":{{\"value\":{},\"high_water\":{}}}",
                    reg.name,
                    g.get(),
                    g.high_water()
                )),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let buckets: Vec<String> = s.buckets.iter().map(|n| n.to_string()).collect();
                    parts.push(format!(
                        "\"{}\":{{\"count\":{},\"sum_seconds\":{},\"max_seconds\":{},\"buckets\":[{}]}}",
                        reg.name,
                        s.count,
                        s.sum_nanos as f64 / 1e9,
                        s.max_nanos as f64 / 1e9,
                        buckets.join(",")
                    ));
                }
            }
        }
        parts.push(format!(
            "\"trace\":{{\"recorded\":{},\"dropped\":{},\"capacity\":{}}}",
            core.trace.position(),
            core.trace.dropped(),
            core.trace.capacity()
        ));
        format!("{{{}}}", parts.join(","))
    }
}

/// One step of a call's path through pump and ReqSync, as observability
/// sees it (the crate docs' stamping rule): the single clock reading that
/// everything the step records is stamped with, taken when the step first
/// needs it. A step that records nothing reads nothing.
#[derive(Debug, Default)]
pub struct Step {
    /// The clock reading and the thread's session, taken together.
    reading: Cell<Option<(Instant, u64)>>,
}

impl Step {
    /// A step that has not read the clock yet.
    pub fn new() -> Step {
        Step::default()
    }

    fn reading(&self) -> (Instant, u64) {
        self.reading.get().unwrap_or_else(|| {
            let reading = (Instant::now(), current_session());
            self.reading.set(Some(reading));
            reading
        })
    }

    /// The step's clock reading, taken now if nothing has needed it yet.
    /// Independent of any handle: for callers that need the time whatever
    /// observability does (a reply's deadline).
    pub fn now(&self) -> Instant {
        self.reading().0
    }
}

fn push_meta(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

thread_local! {
    static CURRENT_CALL: Cell<Option<CallId>> = const { Cell::new(None) };
}

/// Run `f` with `call` installed as the thread's current call, so
/// service decorators deep in the execute stack (retry, flaky, cache)
/// can attribute their trace events to the pump call that triggered
/// them. See [`current_call`].
pub fn call_scope<R>(call: CallId, f: impl FnOnce() -> R) -> R {
    CURRENT_CALL.with(|c| {
        let prev = c.replace(Some(call));
        let out = f();
        c.set(prev);
        out
    })
}

/// The call the current thread is executing on behalf of, if any — set
/// by the pump around `SearchService::execute` via [`call_scope`].
/// Decorators invoked outside a pump launch (e.g. the blocking EVScan
/// path) see `None` and skip their trace events; their counters still
/// count.
pub fn current_call() -> Option<CallId> {
    CURRENT_CALL.with(|c| c.get())
}

thread_local! {
    static CURRENT_SESSION: Cell<u64> = const { Cell::new(0) };
}

/// Run `f` with `session` installed as the thread's current server
/// session, so every trace event recorded on this thread (call
/// registration, coalescing, ReqSync patching) carries the connection
/// it was recorded for. `0` means "untagged" and is what in-process
/// users and pump worker threads record. Nests and restores like
/// [`call_scope`].
pub fn session_scope<R>(session: u64, f: impl FnOnce() -> R) -> R {
    CURRENT_SESSION.with(|c| {
        let prev = c.replace(session);
        let out = f();
        c.set(prev);
        out
    })
}

/// The server session the current thread is working for (`0` when
/// untagged). Read once per [`Step`] to stamp [`TraceEvent::session`].
pub fn current_session() -> u64 {
    CURRENT_SESSION.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let step = Step::new();
        obs.event(&step, CallId(1), EventKind::Registered);
        let label = obs.text(|| panic!("label closure must not run when disabled"));
        obs.emit(&step, [(CallId(1), EventKind::Failed, label)]);
        assert!(obs.stamp(&step).is_none());
        assert!(
            step.reading.get().is_none(),
            "a disabled handle reads no clock"
        );
        assert!(obs.metrics().is_none());
        assert!(obs.trace_events_since(0).is_empty());
        assert_eq!(obs.prometheus_text(), "");
        assert_eq!(obs.json_snapshot(), "{}");
        assert_eq!(format!("{obs:?}"), "Obs(disabled)");
    }

    #[test]
    fn enabled_records_events_and_metrics() {
        let obs = Obs::enabled();
        let registered = (CallId(7), EventKind::Registered, obs.text(|| "r".into()));
        obs.emit(&Step::new(), [registered]);
        obs.event(&Step::new(), CallId(7), EventKind::Launched);
        let m = obs.metrics().unwrap();
        m.calls_registered.inc();
        m.in_flight.add(1);
        let events = obs.trace_events_since(0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].label.as_deref(), Some("r"));
        assert!(events[1].at >= events[0].at);
        let text = obs.prometheus_text();
        assert!(text.contains("wsq_calls_registered_total 1"));
        assert!(text.contains("wsq_calls_in_flight 1"));
        assert!(text.contains("wsq_trace_dropped_total 0"));
        let json = obs.json_snapshot();
        assert!(json.contains("\"wsq_calls_registered_total\":1"));
        assert!(json.contains("\"trace\":{\"recorded\":2"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let obs = Obs::enabled();
        let m = obs.metrics().unwrap();
        m.call_latency.observe(Duration::from_micros(40));
        m.call_latency.observe(Duration::from_millis(2));
        let text = obs.prometheus_text();
        assert!(text.contains("wsq_call_latency_seconds_bucket{le=\"0.00005\"} 1"));
        assert!(text.contains("wsq_call_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("wsq_call_latency_seconds_count 2"));
    }

    #[test]
    fn session_scope_tags_events_and_filters() {
        let obs = Obs::enabled();
        session_scope(7, || {
            obs.event(&Step::new(), CallId(1), EventKind::Registered)
        });
        // The worker-thread half of the lifecycle is untagged but must
        // still appear in the session's filtered view (shared call).
        obs.event(&Step::new(), CallId(1), EventKind::Completed);
        session_scope(9, || {
            obs.event(&Step::new(), CallId(2), EventKind::Registered)
        });
        let mine = obs.trace_events_for_session(0, 7);
        assert_eq!(mine.len(), 2);
        assert!(mine.iter().all(|e| e.call == CallId(1)));
        assert_eq!(obs.trace_events_for_session(0, 9).len(), 1);
        assert!(obs.trace_events_for_session(0, 0).is_empty());
        assert_eq!(current_session(), 0, "scope restores the previous id");
    }

    #[test]
    fn a_step_reads_the_clock_and_the_session_once() {
        let obs = Obs::enabled();
        let step = Step::new();
        session_scope(4, || obs.event(&step, CallId(1), EventKind::Registered));
        std::thread::sleep(Duration::from_millis(2));
        // Later in the same step, outside the scope: same stamp, same tag.
        obs.event(&step, CallId(1), EventKind::Queued);
        let later = Step::new();
        obs.event(&later, CallId(1), EventKind::Launched);
        let events = obs.trace_events_since(0);
        assert_eq!(events[0].at, events[1].at);
        assert_eq!((events[0].session, events[1].session), (4, 4));
        assert!(events[2].at >= events[1].at + Duration::from_millis(2));
        assert_eq!(events[2].session, 0);
        // Delays are differences of step readings.
        assert_eq!(
            later.now().saturating_duration_since(step.now()),
            events[2].at - events[1].at
        );
        assert_eq!(obs.stamp(&step), Some(step.now()));
    }

    #[test]
    fn call_scope_nests_and_restores() {
        assert_eq!(current_call(), None);
        call_scope(CallId(1), || {
            assert_eq!(current_call(), Some(CallId(1)));
            call_scope(CallId(2), || assert_eq!(current_call(), Some(CallId(2))));
            assert_eq!(current_call(), Some(CallId(1)));
        });
        assert_eq!(current_call(), None);
    }
}
