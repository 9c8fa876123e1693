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
//! * [`QueryRecorder`] — one per executing query: while it runs, the
//!   query's events and metric changes are plain pushes and adds on its
//!   thread, published to the ring and the registry in batches.
//! * exposition — [`Obs::prometheus_text`], [`Obs::json_snapshot`], and
//!   the per-query [`QueryWindow`] summaries surfaced by `.stats`,
//!   `.trace`, and `Wsq::analyze`.
//!
//! # The no-op guarantee
//!
//! [`Obs`] is a cheap-clone handle wrapping `Option<Arc<..>>`.
//! [`Obs::disabled`] carries `None`, so every emission site costs one
//! null-check and branch — no clock read, no allocation, no atomics; a
//! recorder made from it holds nothing and lends nothing to the thread.
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
//! delay is delivery minus admission. A registration that launches its
//! call at once is one step with its launch round, and a reply that comes
//! back inline completes in the round that launched it. ReqSync's steps
//! continue the thread's latest reading ([`Step::continuing`]) unless a
//! result they deliver completed after it, so such a call reads the clock
//! once, for `registered` … `completed`, and its `delivered` / `patched`
//! carry that reading or a later one. Readings are kept as integer
//! [`Tick`]s, so stamps and delays are subtractions. The same call on a
//! disabled handle reads the clock not at all.
//!
//! # Where a step's records go
//!
//! On a thread running a query (its [`QueryRecorder`] lent to the thread)
//! events and metric changes are buffered as plain data and published in
//! batches; elsewhere they go straight to the ring and the atomics. Either
//! way a reader sees the same events, in each call's lifecycle order, and
//! the same totals once the query is done.
//!
//! # One record per fact
//!
//! A fact that is an event is recorded once, as the event: the call
//! counters and the pump's gauges are folded from the events wherever they
//! land (the [`metrics`] module docs). Labels are plain bytes copied when
//! the event is recorded ([`Label`]), so the trace keeps nothing of its
//! writers alive.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use wsq_common::CallId;
//! use wsq_obs::{EventKind, HistogramId, Label, Obs, Step};
//!
//! let obs = Obs::enabled();
//! // Registration: one reading, two events.
//! let step = Step::new();
//! let request = "AV:count(\"Utah\")";
//! obs.labelled(&step, CallId(1), EventKind::Registered, Label::Display(&request));
//! obs.event(&step, CallId(1), EventKind::Queued);
//! let registered = obs.stamp(&step);
//! // The launch round measures the queue delay from that reading; the
//! // event itself counts the launch.
//! let step = Step::new();
//! obs.event(&step, CallId(1), EventKind::Launched);
//! if let (Some(then), Some(now)) = (registered, obs.stamp(&step)) {
//!     obs.observe(HistogramId::QueueDelay, now.since(then));
//! }
//!
//! // A query's recorder buffers what runs under it and publishes once.
//! let mut query = obs.recorder();
//! query.run(|| obs.event(&Step::new(), CallId(1), EventKind::Completed));
//! assert_eq!(obs.trace_events_since(0).len(), 3, "not published yet");
//! drop(query);
//!
//! let timeline = obs.trace_events_since(0);
//! assert_eq!(timeline.len(), 4);
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
mod recorder;
mod trace;

pub use metrics::{
    bucket_index, Counter, CounterId, Gauge, GaugeId, Histogram, HistogramId, HistogramSnapshot,
    Metric, Registered, Registry, WellKnown, BUCKET_BOUNDS_US, BUCKET_COUNT,
};
pub use query::{render_timeline, QuerySummary, QueryWindow};
pub use recorder::{QueryRecorder, BUFFER_EVENTS};
pub use trace::{EventKind, Label, LabelParts, Render, TraceEvent, TraceRing};

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Stamp;
use wsq_common::CallId;

/// Default trace ring capacity (events), enough for several hundred
/// WebCount-join queries before wrap-around.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// The shared observability state behind an enabled [`Obs`] handle.
#[derive(Debug)]
pub struct ObsCore {
    epoch: Instant,
    /// `epoch` as a [`Tick`], what stamps are measured from.
    epoch_tick: Tick,
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
        // The origin first, so the epoch is a tick at or after it.
        Tick::origin();
        let epoch = Instant::now();
        Obs {
            core: Some(Arc::new(ObsCore {
                epoch,
                epoch_tick: Tick::of(epoch),
                trace: TraceRing::new(trace_capacity),
                registry,
                well,
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
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

    /// The well-known instrument set, or `None` when disabled: for
    /// reading and exposition. Emission sites on a query's path record
    /// through [`Obs::count`], [`Obs::shift`] and [`Obs::observe`], which
    /// a query's recorder can buffer.
    #[inline]
    pub fn metrics(&self) -> Option<&WellKnown> {
        self.core.as_deref().map(|c| &c.well)
    }

    /// Add `n` to counter `id`: into the query's recorder on a thread
    /// running one for this handle, into the shared cell otherwise.
    #[inline]
    pub fn count(&self, id: CounterId, n: u64) {
        if let Some(core) = &self.core {
            if recorder::with_lent(core, |r| r.count(id, n)).is_none() {
                core.well.counter(id).add(n);
            }
        }
    }

    /// Move gauge `id` by `delta`, like [`Obs::count`].
    #[inline]
    pub fn shift(&self, id: GaugeId, delta: i64) {
        if let Some(core) = &self.core {
            if recorder::with_lent(core, |r| r.shift(id, delta)).is_none() {
                core.well.gauge(id).add(delta);
            }
        }
    }

    /// Record `d` in histogram `id`, like [`Obs::count`].
    #[inline]
    pub fn observe(&self, id: HistogramId, d: Duration) {
        if let Some(core) = &self.core {
            if recorder::with_lent(core, |r| r.observe(id, d)).is_none() {
                core.well.histogram(id).observe(d);
            }
        }
    }

    /// A recorder for one query (see [`QueryRecorder`]); inert when the
    /// handle is disabled. What it holds is published when it drops.
    pub fn recorder(&self) -> QueryRecorder {
        self.query_recorder(false)
    }

    pub(crate) fn query_recorder(&self, track_calls: bool) -> QueryRecorder {
        QueryRecorder::new(self.core.as_ref(), track_calls)
    }

    /// Run `f` as one query under a recorder of its own, and publish what
    /// it recorded when `f` returns.
    pub fn record<R>(&self, f: impl FnOnce() -> R) -> R {
        self.recorder().run(f)
    }

    /// Publish what the recorder lent to this thread for this handle
    /// holds, if there is one. The pump calls this before the thread
    /// blocks and before it hands a call to another thread, so events of
    /// one call reach the ring in lifecycle order.
    #[inline]
    pub fn publish(&self) {
        if let Some(core) = &self.core {
            recorder::with_lent(core, |r| r.publish());
        }
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
    #[inline]
    pub fn stamp(&self, step: &Step) -> Option<Tick> {
        self.core.as_ref().map(|_| step.reading().tick)
    }

    /// Record the unlabelled events of `step`, each stamped with the
    /// step's reading and the thread's session and folded into the metrics:
    /// into the query's recorder on a thread running one for this handle,
    /// otherwise straight into the ring under consecutive sequence numbers
    /// (one reservation) and the shared cells.
    pub fn emit<I>(&self, step: &Step, events: I)
    where
        I: IntoIterator<Item = (CallId, EventKind)>,
        I::IntoIter: ExactSizeIterator,
    {
        let events = events.into_iter();
        self.emit_labelled(step, events.map(|(call, kind)| (call, kind, Label::None)));
    }

    /// [`Obs::emit`] for events that may carry labels.
    pub fn emit_labelled<'a, I>(&self, step: &Step, events: I)
    where
        I: IntoIterator<Item = (CallId, EventKind, Label<'a>)>,
        I::IntoIter: ExactSizeIterator,
    {
        if let Some(core) = &self.core {
            let stamp = step.stamp(core);
            let mut events = events.into_iter();
            if recorder::with_lent(core, |r| r.record(stamp, &mut events)).is_none() {
                let events = events.inspect(|&(_, kind, _)| metrics::fold(kind, &mut &core.well));
                core.trace.record(stamp, events);
            }
        }
    }

    /// Record one unlabelled event of `step`, folded into the metrics.
    #[inline]
    pub fn event(&self, step: &Step, call: CallId, kind: EventKind) {
        self.labelled(step, call, kind, Label::None);
    }

    /// Record one event of `step` with `label`, folded into the metrics.
    /// The label is looked at only by an enabled handle, which copies it.
    #[inline]
    pub fn labelled(&self, step: &Step, call: CallId, kind: EventKind, label: Label<'_>) {
        self.record_one(step, call, kind, label, true);
    }

    /// Record one event of `step` with `label` that folds into no metric:
    /// an event of a call that never launches — a racing group, a
    /// registration failed fast — whose writer counts what it needs itself.
    pub fn unfolded(&self, step: &Step, call: CallId, kind: EventKind, label: Label<'_>) {
        self.record_one(step, call, kind, label, false);
    }

    #[inline]
    fn record_one(
        &self,
        step: &Step,
        call: CallId,
        kind: EventKind,
        label: Label<'_>,
        folds: bool,
    ) {
        if let Some(core) = &self.core {
            let stamp = step.stamp(core);
            let event = trace::Recorded { stamp, call, kind };
            if recorder::with_lent(core, |r| r.push(event, label, folds)).is_none() {
                if folds {
                    metrics::fold(kind, &mut &core.well);
                }
                core.trace
                    .record(stamp, std::iter::once((call, kind, label)));
            }
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
    /// `Completed` half of the lifecycle may run on the pump's timer
    /// thread, untagged, or on another session's thread — and may be
    /// *shared* with other sessions that
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
        if !self.is_enabled() {
            return query();
        }
        let started = Instant::now();
        let result = query();
        self.count(CounterId::Queries, 1);
        self.observe(HistogramId::QueryLatency, started.elapsed());
        result
    }

    /// Open a per-query measurement window: a recorder of the query's own
    /// that also keeps the ids of the calls it registers, and the trace
    /// position to find their events from. Run the query under
    /// [`QueryWindow::run`], then [`QueryWindow::finish`].
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
    reading: Cell<Option<Reading>>,
    /// Whether the step may continue the thread's previous reading
    /// ([`Step::continuing`]).
    continuing: bool,
}

/// A step's clock reading, with the thread's session, taken together.
#[derive(Debug, Clone, Copy)]
struct Reading {
    at: Instant,
    /// `at` as a [`Tick`]: worked out once, so stamping events and
    /// measuring delays from the reading are integer subtractions.
    tick: Tick,
    session: u64,
}

/// A clock reading as observability keeps it: nanoseconds since a
/// process-wide origin, taken before any handle's epoch. Ticks compare
/// and subtract as integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Tick(u64);

impl Tick {
    /// Where ticks count from: fixed by the first use.
    fn origin() -> Instant {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        *ORIGIN.get_or_init(Instant::now)
    }

    #[inline]
    fn of(at: Instant) -> Tick {
        Tick(metrics::nanos(at.saturating_duration_since(Tick::origin())))
    }

    /// The time from `earlier` to this tick; zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Tick) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Step {
    /// A step that has not read the clock yet.
    #[inline]
    pub fn new() -> Step {
        Step::default()
    }

    /// A step that continues the thread's work since its previous reading
    /// (ReqSync admitting the tuple of a call just registered, and
    /// delivering what has completed). When it first needs the time it
    /// takes this thread's previous reading if every result the thread has
    /// taken since a continuing step last settled its time ([`Step::taken`])
    /// completed no later — the usual case for a reply that completed
    /// inline a moment ago — and reads the clock only otherwise. Either
    /// way nothing it records is stamped before a completion it delivers.
    #[inline]
    pub fn continuing() -> Step {
        Step {
            continuing: true,
            ..Step::default()
        }
    }

    /// Note that this thread has taken the result of a call that
    /// completed at `finished`: a later [`Step::continuing`] on the thread
    /// is stamped no earlier.
    #[inline]
    pub fn taken(finished: Tick) {
        TAKEN.with(|t| t.set(t.get().max(finished)));
    }

    #[inline]
    fn reading(&self) -> Reading {
        self.reading.get().unwrap_or_else(|| {
            let reading = self.continued().unwrap_or_else(|| {
                let at = Instant::now();
                let reading = Reading {
                    at,
                    tick: Tick::of(at),
                    session: current_session(),
                };
                LAST_READING.with(|last| last.set(Some(reading)));
                reading
            });
            self.reading.set(Some(reading));
            reading
        })
    }

    /// The thread's previous reading, if this step may continue it (see
    /// [`Step::continuing`]).
    #[inline]
    fn continued(&self) -> Option<Reading> {
        if !self.continuing {
            return None;
        }
        let taken = TAKEN.with(|t| t.replace(Tick(0)));
        let last = LAST_READING.with(Cell::get)?;
        (last.tick >= taken && last.session == current_session()).then_some(last)
    }

    /// The step's stamp for events of `core`.
    #[inline]
    fn stamp(&self, core: &ObsCore) -> Stamp {
        let Reading { tick, session, .. } = self.reading();
        Stamp {
            at_nanos: tick.0.saturating_sub(core.epoch_tick.0),
            session,
        }
    }

    /// The step's clock reading, taken now if nothing has needed it yet.
    /// Independent of any handle: for callers that need the time whatever
    /// observability does (a reply's deadline).
    #[inline]
    pub fn now(&self) -> Instant {
        self.reading().at
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
/// Decorators invoked outside a pump launch (a service called directly)
/// see `None` and skip their trace events; their counters still count.
pub fn current_call() -> Option<CallId> {
    CURRENT_CALL.with(|c| c.get())
}

thread_local! {
    static CURRENT_SESSION: Cell<u64> = const { Cell::new(0) };
    /// The latest clock reading a step took on this thread.
    static LAST_READING: Cell<Option<Reading>> = const { Cell::new(None) };
    /// The latest completion among the results this thread has taken since
    /// a continuing step last settled its time ([`Step::taken`]).
    static TAKEN: Cell<Tick> = const { Cell::new(Tick(0)) };
}

/// Run `f` with `session` installed as the thread's current server
/// session, so every trace event recorded on this thread (call
/// registration, coalescing, ReqSync patching) carries the connection
/// it was recorded for. `0` means "untagged" and is what in-process
/// users and the pump's timer thread record. Nests and restores like
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
#[inline]
pub fn current_session() -> u64 {
    CURRENT_SESSION.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A label no handle may copy.
    struct Unreachable;

    impl LabelParts for Unreachable {
        fn encode(&self, _: &mut Vec<u8>) -> Render {
            panic!("a disabled handle must not copy a label")
        }
    }

    #[test]
    fn disabled_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let step = Step::new();
        obs.event(&step, CallId(1), EventKind::Registered);
        obs.labelled(
            &step,
            CallId(1),
            EventKind::Failed,
            Label::Parts(&Unreachable),
        );
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

        // Its recorder lends nothing to the thread: what runs under it
        // records nowhere, reads no clock and allocates no buffer.
        let mut query = obs.recorder();
        let step = Step::new();
        query.run(|| {
            assert_eq!(recorder::lent_capacity(), None, "nothing lent");
            obs.event(&step, CallId(1), EventKind::Registered);
            obs.count(CounterId::CallsRegistered, 1);
            obs.shift(GaugeId::InFlight, 1);
            obs.observe(HistogramId::CallLatency, Duration::from_millis(1));
            obs.publish();
        });
        assert!(step.reading.get().is_none(), "still no clock read");
        assert_eq!(query.counter(CounterId::CallsRegistered), 0);
        assert_eq!(format!("{query:?}"), "QueryRecorder { enabled: false }");
        let mut window = obs.begin_query();
        window.run(|| obs.event(&Step::new(), CallId(2), EventKind::Queued));
        assert!(window.finish().is_none());
    }

    #[test]
    fn a_recorder_buffers_until_it_publishes() {
        let obs = Obs::enabled();
        let m = obs.metrics().unwrap();
        let mut query = obs.recorder();
        query.run(|| {
            let step = Step::new();
            obs.emit(
                &step,
                [
                    (CallId(1), EventKind::Registered),
                    (CallId(1), EventKind::Queued),
                ],
            );
            obs.shift(GaugeId::InFlight, 2);
            obs.shift(GaugeId::InFlight, -1);
            obs.observe(HistogramId::CallLatency, Duration::from_millis(1));
        });
        // Nothing shared moved yet; the query's own totals did, the
        // registration and the queue depth folded from the events.
        assert_eq!(obs.trace_position(), 0);
        assert_eq!(m.calls_registered.get(), 0);
        assert_eq!(query.counter(CounterId::CallsRegistered), 1);
        assert_eq!(query.high_water(GaugeId::QueueDepth), 1);
        assert_eq!(query.high_water(GaugeId::InFlight), 2);
        // Outside `run` the thread records directly.
        obs.event(&Step::new(), CallId(9), EventKind::Delivered);
        assert_eq!(obs.trace_position(), 1);

        query.publish();
        let events = obs.trace_events_since(0);
        let seqs: Vec<(u64, u64)> = events.iter().map(|e| (e.seq, e.call.0)).collect();
        assert_eq!(seqs, vec![(0, 9), (1, 1), (2, 1)], "one reservation");
        assert_eq!(events[1].at, events[2].at);
        assert_eq!(m.calls_registered.get(), 1);
        assert_eq!((m.in_flight.get(), m.in_flight.high_water()), (1, 2));
        assert_eq!(m.call_latency.snapshot().count, 1);

        // Totals outlive a publication; a second one adds only what is new.
        query.run(|| obs.count(CounterId::CallsRegistered, 2));
        drop(query);
        assert_eq!(m.calls_registered.get(), 3);
        assert_eq!(m.call_latency.snapshot().count, 1);
    }

    #[test]
    fn a_full_buffer_publishes_itself() {
        let obs = Obs::enabled();
        let mut query = obs.recorder();
        query.run(|| {
            for i in 0..BUFFER_EVENTS as u64 + 3 {
                obs.event(&Step::new(), CallId(i), EventKind::Queued);
            }
            assert_eq!(obs.trace_position(), BUFFER_EVENTS as u64);
        });
        drop(query);
        let calls: Vec<u64> = obs.trace_events_since(0).iter().map(|e| e.call.0).collect();
        assert_eq!(calls, (0..BUFFER_EVENTS as u64 + 3).collect::<Vec<_>>());
    }

    #[test]
    fn recorders_nest_and_keep_to_their_handle() {
        let a = Obs::enabled();
        let b = Obs::enabled();
        let mut outer = a.recorder();
        outer.run(|| {
            // An inner query on the same handle records into the outer one.
            a.record(|| a.count(CounterId::Queries, 1));
            assert_eq!(a.metrics().unwrap().queries.get(), 0);
            // Another handle's query lends its own recorder; while it runs,
            // the outer handle's records go straight to the shared cells.
            b.record(|| {
                b.count(CounterId::Queries, 1);
                a.count(CounterId::Queries, 1);
            });
            assert_eq!(b.metrics().unwrap().queries.get(), 1);
            assert_eq!(a.metrics().unwrap().queries.get(), 1);
            // And the outer recorder is back once it returns.
            a.count(CounterId::Queries, 1);
        });
        assert_eq!(outer.counter(CounterId::Queries), 2);
        drop(outer);
        assert_eq!(a.metrics().unwrap().queries.get(), 3);
    }

    #[test]
    fn a_finished_querys_buffers_are_reused() {
        let obs = Obs::enabled();
        let run = |n: u64| {
            let mut query = obs.recorder();
            query.run(|| {
                for i in 0..n {
                    obs.event(&Step::new(), CallId(i), EventKind::Queued);
                }
                recorder::lent_capacity()
            })
        };
        let first = run(40).unwrap();
        assert!(first >= 40);
        assert_eq!(run(10), Some(first), "the same buffer, not a new one");
    }

    #[test]
    fn enabled_records_events_and_metrics() {
        let obs = Obs::enabled();
        let label = Label::Display(&"r");
        obs.labelled(&Step::new(), CallId(7), EventKind::Registered, label);
        obs.event(&Step::new(), CallId(7), EventKind::Queued);
        obs.event(&Step::new(), CallId(7), EventKind::Launched);
        let events = obs.trace_events_since(0);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].label.as_deref(), Some("r"));
        assert!(events[2].at >= events[0].at);
        // The metrics are the events, folded.
        let text = obs.prometheus_text();
        assert!(text.contains("wsq_calls_registered_total 1"));
        assert!(text.contains("wsq_calls_launched_total 1"));
        assert!(text.contains("wsq_calls_in_flight 1"));
        assert!(text.contains("wsq_queue_depth 0\nwsq_queue_depth_high_water 1"));
        assert!(text.contains("wsq_trace_dropped_total 0"));
        let json = obs.json_snapshot();
        assert!(json.contains("\"wsq_calls_registered_total\":1"));
        assert!(json.contains("\"trace\":{\"recorded\":3"));
        // An unfolded event counts nothing.
        obs.unfolded(&Step::new(), CallId(8), EventKind::Registered, Label::None);
        assert_eq!(obs.metrics().unwrap().calls_registered.get(), 1);
        assert_eq!(obs.trace_position(), 4);
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
        // The timer thread's half of the lifecycle is untagged but must
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
        let (then, now) = (obs.stamp(&step).unwrap(), obs.stamp(&later).unwrap());
        assert_eq!(now.since(then), events[2].at - events[1].at);
        assert_eq!(then.since(now), Duration::ZERO, "saturating");
    }

    #[test]
    fn a_continuing_step_reuses_the_last_reading_unless_a_result_completed_later() {
        let obs = Obs::enabled();
        let first = obs.stamp(&Step::new()).unwrap();
        // Nothing taken since, or only results that completed no later:
        // the thread's last reading, no clock read.
        assert_eq!(obs.stamp(&Step::continuing()), Some(first));
        Step::taken(first);
        assert_eq!(obs.stamp(&Step::continuing()), Some(first));
        // A result another thread completed after it: a fresh reading,
        // no earlier than that completion.
        let other = obs.clone();
        let completed = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(1));
            other.stamp(&Step::new()).unwrap()
        })
        .join()
        .unwrap();
        Step::taken(completed);
        let delivered = obs.stamp(&Step::continuing()).unwrap();
        assert!(delivered >= completed && delivered > first);
        // A plain step always reads the clock; a continuing one under
        // another session does too.
        std::thread::sleep(Duration::from_millis(1));
        let tagged = session_scope(9, || obs.stamp(&Step::continuing()).unwrap());
        assert!(tagged > delivered);
        assert!(obs.stamp(&Step::new()).unwrap() > delivered);
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
