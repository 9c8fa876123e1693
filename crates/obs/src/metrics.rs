//! The metrics registry: atomic counters, gauges with high-water marks,
//! and fixed-bucket latency histograms.
//!
//! Hot paths never take a lock: every instrument is a handful of atomics
//! behind an `Arc`, and emitters hold the `Arc` directly (the registry
//! map is only locked at registration and exposition time). Histograms
//! use a fixed logarithmic bucket ladder ([`BUCKET_BOUNDS_US`]) so an
//! `observe` is one array index plus two `fetch_add`s (the count is the
//! sum of the buckets; a maximum or high-water mark is written only when
//! it rises).
//!
//! # Per-query windows
//!
//! Emission sites name an instrument by id ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]) through [`crate::Obs::count`], [`crate::Obs::shift`]
//! and [`crate::Obs::observe`]. On a thread running a query those land in
//! the query's recorder as plain integers, which keeps the query's own
//! totals — its histograms are [`HistogramSnapshot`]s filled with
//! [`HistogramSnapshot::record`] — and merges what it has not merged yet
//! into these shared instruments when it publishes
//! ([`Histogram::merge`], [`Gauge::merge`]). A per-query view (the
//! ANALYZE footer) reads the query's recorder, never a difference of
//! shared cells, so concurrent queries do not see each other. The shared gauges keep lifetime high-water marks.
//!
//! # Folded from events
//!
//! A fact that is an event is recorded once, as the event: the call
//! counters, the pump's queue-depth and in-flight gauges, and the counts of
//! races, cancelled tuples and stalls are folded from the events as they
//! are recorded (`fold`), into the query's recorder or the shared cells,
//! wherever the event goes. The writer counts nothing beside
//! it. What is not an event — rows patched, cache hits and misses, queries,
//! sessions, the delays — is still counted or observed by id.

use crate::trace::EventKind;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value (in-flight calls, queue depth, buffer
/// occupancy) that additionally tracks its high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Add `delta` (may be negative) and update the high-water mark.
    pub fn add(&self, delta: i64) {
        let v = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.raise_high_water(v);
    }

    /// Set the gauge to `v` outright (still tracks the high-water mark).
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.raise_high_water(v);
    }

    /// A gauge sits below its mark nearly always: look before writing.
    fn raise_high_water(&self, v: i64) {
        if v > self.high.load(Ordering::Relaxed) {
            self.high.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value seen since construction.
    pub fn high_water(&self) -> i64 {
        self.high.load(Ordering::Relaxed)
    }

    /// Merge a batch of changes recorded elsewhere: add their net `delta`,
    /// and raise the mark to where the batch peaked, `peak` above the
    /// value it started from (`peak >= delta.max(0)`).
    pub fn merge(&self, delta: i64, peak: i64) {
        let before = self.value.fetch_add(delta, Ordering::Relaxed);
        self.raise_high_water(before + peak);
    }
}

/// Histogram bucket upper bounds in **microseconds** (a logarithmic
/// 1–2.5–5 ladder from 50µs to 5s). Values above the last bound land in
/// the overflow bucket, so there are `BUCKET_BOUNDS_US.len() + 1`
/// buckets in total.
pub const BUCKET_BOUNDS_US: [u64; 16] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// Total number of buckets, including the overflow bucket.
pub const BUCKET_COUNT: usize = BUCKET_BOUNDS_US.len() + 1;

/// `d` in whole microseconds, saturating (`as_micros` goes through `u128`).
#[inline]
fn micros(d: Duration) -> u64 {
    let secs = d.as_secs().saturating_mul(1_000_000);
    secs.saturating_add(d.subsec_micros().into())
}

/// `d` in nanoseconds, saturating (`as_nanos` goes through `u128`).
#[inline]
pub(crate) fn nanos(d: Duration) -> u64 {
    let secs = d.as_secs().saturating_mul(1_000_000_000);
    secs.saturating_add(d.subsec_nanos().into())
}

/// The bucket index a duration falls into.
#[inline]
pub fn bucket_index(d: Duration) -> usize {
    let us = micros(d);
    BUCKET_BOUNDS_US
        .iter()
        .position(|&b| us <= b)
        .unwrap_or(BUCKET_BOUNDS_US.len())
}

/// A fixed-bucket latency histogram with atomic cells.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one duration.
    pub fn observe(&self, d: Duration) {
        let nanos = nanos(d);
        self.buckets[bucket_index(d)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        if nanos > self.max_nanos.load(Ordering::Relaxed) {
            self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        }
    }

    /// Merge observations recorded elsewhere (a query's recorder): one
    /// `fetch_add` per non-empty bucket and one for the sum.
    pub fn merge(&self, batch: &HistogramSnapshot) {
        if batch.count == 0 {
            return;
        }
        for (cell, &n) in self.buckets.iter().zip(&batch.buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum_nanos.fetch_add(batch.sum_nanos, Ordering::Relaxed);
        if batch.max_nanos > self.max_nanos.load(Ordering::Relaxed) {
            self.max_nanos.fetch_max(batch.max_nanos, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the cells; `count` is the sum of the
    /// bucket cells as copied, so the two always agree.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKET_COUNT] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histogram`]'s cells; supports window arithmetic
/// and quantile estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKET_COUNT`] cells; the last is
    /// the overflow bucket).
    pub buckets: [u64; BUCKET_COUNT],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed durations, in nanoseconds.
    pub sum_nanos: u64,
    /// Largest single observation, in nanoseconds. **Not** window-scoped:
    /// [`HistogramSnapshot::delta`] keeps the later snapshot's lifetime
    /// maximum (bucket cells, count and sum are exact per window).
    pub max_nanos: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub const fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKET_COUNT],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }

    /// Record one duration in place: the plain-integer `observe` a query's
    /// recorder runs, with no atomics.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        let nanos = nanos(d);
        self.buckets[bucket_index(d)] += 1;
        self.count += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// The observations recorded between `earlier` and `self` (cells are
    /// monotone, so plain subtraction is exact; `max_nanos` is carried
    /// from `self` — see the field docs).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            sum_nanos: self.sum_nanos.saturating_sub(earlier.sum_nanos),
            max_nanos: self.max_nanos,
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket containing the target rank. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = if i == 0 { 0 } else { BUCKET_BOUNDS_US[i - 1] };
                let hi = BUCKET_BOUNDS_US.get(i).copied().unwrap_or_else(|| {
                    // Overflow bucket: bound it by the observed maximum.
                    (self.max_nanos / 1_000).max(lo)
                });
                let frac = (target - seen) as f64 / n as f64;
                let us = lo as f64 + (hi.saturating_sub(lo)) as f64 * frac;
                return Some(Duration::from_nanos((us * 1_000.0) as u64));
            }
            seen += n;
        }
        Some(Duration::from_nanos(self.max_nanos))
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<Duration> {
        self.sum_nanos
            .checked_div(self.count)
            .map(Duration::from_nanos)
    }
}

/// One registered instrument (for exposition walks).
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone counter.
    Counter(Arc<Counter>),
    /// An instantaneous gauge.
    Gauge(Arc<Gauge>),
    /// A latency histogram.
    Histogram(Arc<Histogram>),
}

/// A named, documented instrument as stored in the registry.
#[derive(Debug, Clone)]
pub struct Registered {
    /// Exposition name (Prometheus conventions, e.g.
    /// `wsq_calls_launched_total`).
    pub name: &'static str,
    /// One-line help string.
    pub help: &'static str,
    /// The instrument itself.
    pub metric: Metric,
}

/// The registry: name → instrument. Locked only at registration and
/// exposition time; emitters keep `Arc` handles to the instruments.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<&'static str, Registered>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or fetch) a counter under `name`.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Arc<Counter> {
        let mut map = self.metrics.lock();
        let entry = map.entry(name).or_insert_with(|| Registered {
            name,
            help,
            metric: Metric::Counter(Arc::new(Counter::new())),
        });
        match &entry.metric {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Register (or fetch) a gauge under `name`.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Arc<Gauge> {
        let mut map = self.metrics.lock();
        let entry = map.entry(name).or_insert_with(|| Registered {
            name,
            help,
            metric: Metric::Gauge(Arc::new(Gauge::new())),
        });
        match &entry.metric {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Register (or fetch) a histogram under `name`.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Arc<Histogram> {
        let mut map = self.metrics.lock();
        let entry = map.entry(name).or_insert_with(|| Registered {
            name,
            help,
            metric: Metric::Histogram(Arc::new(Histogram::new())),
        });
        match &entry.metric {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// All registered instruments, name-ordered.
    pub fn list(&self) -> Vec<Registered> {
        self.metrics.lock().values().cloned().collect()
    }
}

/// Direct handles to every well-known instrument, pre-registered by
/// [`crate::Obs::enabled`] so hot paths never touch the registry map.
#[derive(Debug)]
pub struct WellKnown {
    /// External calls registered with the pump (incl. coalesced).
    pub calls_registered: Arc<Counter>,
    /// Registrations satisfied by attaching to an in-flight call.
    pub calls_coalesced: Arc<Counter>,
    /// Calls actually launched to a service.
    pub calls_launched: Arc<Counter>,
    /// Calls completed successfully.
    pub calls_completed: Arc<Counter>,
    /// Calls completed with an error.
    pub calls_failed: Arc<Counter>,
    /// Calls cancelled while still queued (released before launch).
    pub calls_cancelled: Arc<Counter>,
    /// Racing groups decided by a member's successful completion.
    pub race_won: Arc<Counter>,
    /// Losing race members cancelled or orphaned after a group decided.
    pub race_cancelled: Arc<Counter>,
    /// Result-cache hits.
    pub cache_hits: Arc<Counter>,
    /// Result-cache misses (inner-service invocations).
    pub cache_misses: Arc<Counter>,
    /// Retry attempts beyond the first (RetryService).
    pub retries: Arc<Counter>,
    /// Requests failed by injection (DegradedService).
    pub flaky_failures: Arc<Counter>,
    /// Placeholder tuples emitted by AEVScan operators.
    pub placeholder_tuples: Arc<Counter>,
    /// Buffered tuples patched with completed-call values by ReqSync.
    pub tuples_patched: Arc<Counter>,
    /// Buffered tuples cancelled by an empty external result.
    pub tuples_cancelled: Arc<Counter>,
    /// Queries executed through the facade.
    pub queries: Arc<Counter>,
    /// Server sessions ever opened (one per accepted connection).
    pub sessions_total: Arc<Counter>,
    /// Server sessions currently open (gauge; high-water = peak
    /// concurrent connections).
    pub sessions_active: Arc<Gauge>,
    /// Calls currently in flight (gauge; high-water = max concurrency).
    pub in_flight: Arc<Gauge>,
    /// Calls waiting for launch capacity.
    pub queue_depth: Arc<Gauge>,
    /// Incomplete tuples buffered across live ReqSync operators.
    pub reqsync_buffered: Arc<Gauge>,
    /// Admission-control stalls: times a capped ReqSync stopped pulling
    /// from its child because its buffer was full.
    pub reqsync_stalls: Arc<Counter>,
    /// Launch → completion latency per call.
    pub call_latency: Arc<Histogram>,
    /// Registration → launch delay per call (capacity wait).
    pub queue_delay: Arc<Histogram>,
    /// Tuple admission → patch delay in ReqSync.
    pub patch_delay: Arc<Histogram>,
    /// Time a capped ReqSync spent stalled (stall → resume) per stall.
    pub stall_duration: Arc<Histogram>,
    /// End-to-end wall time per query.
    pub query_latency: Arc<Histogram>,
}

impl WellKnown {
    /// Register every well-known instrument in `registry` and return the
    /// handle set.
    pub fn register(registry: &Registry) -> WellKnown {
        WellKnown {
            calls_registered: registry.counter(
                "wsq_calls_registered_total",
                "External calls registered with the pump (incl. coalesced)",
            ),
            calls_coalesced: registry.counter(
                "wsq_calls_coalesced_total",
                "Registrations satisfied by attaching to an in-flight call",
            ),
            calls_launched: registry.counter(
                "wsq_calls_launched_total",
                "Calls actually launched to a service",
            ),
            calls_completed: registry
                .counter("wsq_calls_completed_total", "Calls completed successfully"),
            calls_failed: registry
                .counter("wsq_calls_failed_total", "Calls completed with an error"),
            calls_cancelled: registry.counter(
                "wsq_calls_cancelled_total",
                "Calls cancelled while still queued",
            ),
            race_won: registry.counter(
                "wsq_race_won_total",
                "Racing groups decided by a member's successful completion",
            ),
            race_cancelled: registry.counter(
                "wsq_race_cancelled_total",
                "Losing race members cancelled or orphaned after a group decided",
            ),
            cache_hits: registry.counter("wsq_cache_hits_total", "Result-cache hits"),
            cache_misses: registry.counter(
                "wsq_cache_misses_total",
                "Result-cache misses (inner-service invocations)",
            ),
            retries: registry.counter(
                "wsq_retries_total",
                "Retry attempts beyond the first (RetryService)",
            ),
            flaky_failures: registry.counter(
                "wsq_flaky_failures_total",
                "Requests failed by injection (DegradedService)",
            ),
            placeholder_tuples: registry.counter(
                "wsq_placeholder_tuples_total",
                "Placeholder tuples emitted by AEVScan operators",
            ),
            tuples_patched: registry.counter(
                "wsq_tuples_patched_total",
                "Buffered tuples patched with completed-call values",
            ),
            tuples_cancelled: registry.counter(
                "wsq_tuples_cancelled_total",
                "Buffered tuples cancelled by an empty external result",
            ),
            queries: registry.counter("wsq_queries_total", "Queries executed through the facade"),
            sessions_total: registry.counter(
                "wsq_sessions_total",
                "Server sessions ever opened (one per accepted connection)",
            ),
            sessions_active: registry.gauge(
                "wsq_sessions_active",
                "Server sessions currently open (high-water = peak concurrent connections)",
            ),
            in_flight: registry.gauge(
                "wsq_calls_in_flight",
                "Calls currently in flight (high-water = max concurrency)",
            ),
            queue_depth: registry.gauge("wsq_queue_depth", "Calls waiting for launch capacity"),
            reqsync_buffered: registry.gauge(
                "wsq_reqsync_buffered",
                "Incomplete tuples buffered across live ReqSync operators",
            ),
            reqsync_stalls: registry.counter(
                "wsq_reqsync_stalls_total",
                "Times a capped ReqSync stopped pulling because its buffer was full",
            ),
            call_latency: registry.histogram(
                "wsq_call_latency_seconds",
                "Launch-to-completion latency per external call",
            ),
            queue_delay: registry.histogram(
                "wsq_queue_delay_seconds",
                "Registration-to-launch delay per external call",
            ),
            patch_delay: registry.histogram(
                "wsq_patch_delay_seconds",
                "Tuple admission-to-patch delay in ReqSync",
            ),
            stall_duration: registry.histogram(
                "wsq_reqsync_stall_seconds",
                "Time a capped ReqSync spent stalled (stall to resume)",
            ),
            query_latency: registry.histogram(
                "wsq_query_latency_seconds",
                "End-to-end wall time per query",
            ),
        }
    }
}

/// A well-known counter, named for recording through
/// [`crate::Obs::count`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is the `WellKnown` field of the same name
pub enum CounterId {
    CallsRegistered,
    CallsCoalesced,
    CallsLaunched,
    CallsCompleted,
    CallsFailed,
    CallsCancelled,
    RaceWon,
    RaceCancelled,
    CacheHits,
    CacheMisses,
    Retries,
    FlakyFailures,
    PlaceholderTuples,
    TuplesPatched,
    TuplesCancelled,
    Queries,
    SessionsTotal,
    ReqsyncStalls,
}

impl CounterId {
    /// How many there are (the length of a recorder's counter array).
    pub const COUNT: usize = CounterId::ReqsyncStalls as usize + 1;

    /// Every counter, in declaration order (`ALL[id as usize] == id`).
    pub const ALL: [CounterId; CounterId::COUNT] = {
        use CounterId as C;
        [
            C::CallsRegistered,
            C::CallsCoalesced,
            C::CallsLaunched,
            C::CallsCompleted,
            C::CallsFailed,
            C::CallsCancelled,
            C::RaceWon,
            C::RaceCancelled,
            C::CacheHits,
            C::CacheMisses,
            C::Retries,
            C::FlakyFailures,
            C::PlaceholderTuples,
            C::TuplesPatched,
            C::TuplesCancelled,
            C::Queries,
            C::SessionsTotal,
            C::ReqsyncStalls,
        ]
    };
}

/// A well-known gauge, named for recording through [`crate::Obs::shift`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is the `WellKnown` field of the same name
pub enum GaugeId {
    SessionsActive,
    InFlight,
    QueueDepth,
    ReqsyncBuffered,
}

impl GaugeId {
    /// How many there are.
    pub const COUNT: usize = GaugeId::ReqsyncBuffered as usize + 1;

    /// Every gauge, in declaration order.
    pub const ALL: [GaugeId; GaugeId::COUNT] = [
        GaugeId::SessionsActive,
        GaugeId::InFlight,
        GaugeId::QueueDepth,
        GaugeId::ReqsyncBuffered,
    ];
}

/// A well-known histogram, named for recording through
/// [`crate::Obs::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is the `WellKnown` field of the same name
pub enum HistogramId {
    CallLatency,
    QueueDelay,
    PatchDelay,
    StallDuration,
    QueryLatency,
}

impl HistogramId {
    /// How many there are.
    pub const COUNT: usize = HistogramId::QueryLatency as usize + 1;

    /// Every histogram, in declaration order.
    pub const ALL: [HistogramId; HistogramId::COUNT] = [
        HistogramId::CallLatency,
        HistogramId::QueueDelay,
        HistogramId::PatchDelay,
        HistogramId::StallDuration,
        HistogramId::QueryLatency,
    ];
}

/// Where [`fold`] puts what an event adds: a query's recorder, or the
/// shared cells.
pub(crate) trait Fold {
    fn count(&mut self, id: CounterId);
    fn shift(&mut self, id: GaugeId, delta: i64);
}

impl Fold for &WellKnown {
    #[inline]
    fn count(&mut self, id: CounterId) {
        self.counter(id).inc();
    }

    #[inline]
    fn shift(&mut self, id: GaugeId, delta: i64) {
        self.gauge(id).add(delta);
    }
}

/// Fold one event of `kind` into `into`: the counters it counts and the
/// gauges it moves (see the module docs). A call that never launches — a
/// racing group, a registration failed fast — records its events unfolded
/// (`Obs::unfolded`), so a `Failed` here is always a launched call's.
#[inline]
pub(crate) fn fold(kind: EventKind, into: &mut impl Fold) {
    use CounterId as C;
    use EventKind as K;
    use GaugeId as G;
    match kind {
        K::Registered => into.count(C::CallsRegistered),
        K::Coalesced => {
            into.count(C::CallsRegistered);
            into.count(C::CallsCoalesced);
        }
        K::Queued => into.shift(G::QueueDepth, 1),
        K::Launched => {
            into.count(C::CallsLaunched);
            into.shift(G::QueueDepth, -1);
            into.shift(G::InFlight, 1);
        }
        K::Completed => {
            into.count(C::CallsCompleted);
            into.shift(G::InFlight, -1);
        }
        K::Failed => {
            into.count(C::CallsFailed);
            into.shift(G::InFlight, -1);
        }
        K::Cancelled => {
            into.count(C::CallsCancelled);
            into.shift(G::QueueDepth, -1);
        }
        K::RaceWon => into.count(C::RaceWon),
        K::RaceCancelled => into.count(C::RaceCancelled),
        K::TupleCancelled => into.count(C::TuplesCancelled),
        K::Stalled => into.count(C::ReqsyncStalls),
        K::Retried | K::Delivered | K::Patched | K::Resumed => {}
    }
}

impl WellKnown {
    /// The counter `id` names.
    #[inline]
    pub fn counter(&self, id: CounterId) -> &Counter {
        use CounterId as C;
        match id {
            C::CallsRegistered => &self.calls_registered,
            C::CallsCoalesced => &self.calls_coalesced,
            C::CallsLaunched => &self.calls_launched,
            C::CallsCompleted => &self.calls_completed,
            C::CallsFailed => &self.calls_failed,
            C::CallsCancelled => &self.calls_cancelled,
            C::RaceWon => &self.race_won,
            C::RaceCancelled => &self.race_cancelled,
            C::CacheHits => &self.cache_hits,
            C::CacheMisses => &self.cache_misses,
            C::Retries => &self.retries,
            C::FlakyFailures => &self.flaky_failures,
            C::PlaceholderTuples => &self.placeholder_tuples,
            C::TuplesPatched => &self.tuples_patched,
            C::TuplesCancelled => &self.tuples_cancelled,
            C::Queries => &self.queries,
            C::SessionsTotal => &self.sessions_total,
            C::ReqsyncStalls => &self.reqsync_stalls,
        }
    }

    /// The gauge `id` names.
    #[inline]
    pub fn gauge(&self, id: GaugeId) -> &Gauge {
        match id {
            GaugeId::SessionsActive => &self.sessions_active,
            GaugeId::InFlight => &self.in_flight,
            GaugeId::QueueDepth => &self.queue_depth,
            GaugeId::ReqsyncBuffered => &self.reqsync_buffered,
        }
    }

    /// The histogram `id` names.
    #[inline]
    pub fn histogram(&self, id: HistogramId) -> &Histogram {
        match id {
            HistogramId::CallLatency => &self.call_latency,
            HistogramId::QueueDelay => &self.queue_delay,
            HistogramId::PatchDelay => &self.patch_delay,
            HistogramId::StallDuration => &self.stall_duration,
            HistogramId::QueryLatency => &self.query_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.add(3);
        g.add(2);
        g.add(-4);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 5);
        g.set(7);
        assert_eq!(g.high_water(), 7);
        // A batch that went up by 4 and ended down 2 from where it began.
        g.merge(-2, 4);
        assert_eq!((g.get(), g.high_water()), (5, 11));
    }

    #[test]
    fn bucket_index_ladder() {
        assert_eq!(bucket_index(Duration::ZERO), 0);
        assert_eq!(bucket_index(Duration::from_micros(50)), 0);
        assert_eq!(bucket_index(Duration::from_micros(51)), 1);
        assert_eq!(bucket_index(Duration::from_millis(1)), 4);
        assert_eq!(bucket_index(Duration::from_secs(5)), BUCKET_COUNT - 2);
        assert_eq!(bucket_index(Duration::from_secs(60)), BUCKET_COUNT - 1);
    }

    #[test]
    fn histogram_records_exactly() {
        let h = Histogram::new();
        h.observe(Duration::from_micros(40)); // bucket 0
        h.observe(Duration::from_millis(2)); // (1ms, 2.5ms] = bucket 5
        h.observe(Duration::from_millis(2)); // bucket 5
        h.observe(Duration::from_secs(30)); // overflow
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[5], 2);
        assert_eq!(s.buckets[BUCKET_COUNT - 1], 1);
        assert_eq!(
            s.sum_nanos,
            Duration::from_micros(40).as_nanos() as u64
                + 2 * Duration::from_millis(2).as_nanos() as u64
                + Duration::from_secs(30).as_nanos() as u64
        );
        assert_eq!(s.max_nanos, Duration::from_secs(30).as_nanos() as u64);
    }

    proptest::proptest! {
        /// The cells an `observe` no longer writes are still what a reader
        /// gets: `count` is the number of observations and the sum of the
        /// buckets, and windows subtract exactly — every field equals that
        /// of a snapshot kept by hand, so `quantile` and `mean`, which read
        /// only the snapshot, answer as before.
        #[test]
        fn count_is_the_sum_of_the_buckets(
            earlier in proptest::collection::vec(0u64..20_000_000_000, 0..40),
            window in proptest::collection::vec(0u64..20_000_000_000, 0..40),
        ) {
            let h = Histogram::new();
            let by_hand = |all: &[&u64]| {
                let mut s = HistogramSnapshot::empty();
                for &&n in all {
                    let d = Duration::from_nanos(n);
                    let us = d.as_micros() as u64;
                    let i = BUCKET_BOUNDS_US.iter().position(|&b| us <= b);
                    s.buckets[i.unwrap_or(BUCKET_BOUNDS_US.len())] += 1;
                    s.count += 1;
                    s.sum_nanos += d.as_nanos() as u64;
                    s.max_nanos = s.max_nanos.max(d.as_nanos() as u64);
                }
                s
            };
            for &n in &earlier {
                h.observe(Duration::from_nanos(n));
            }
            let before = h.snapshot();
            proptest::prop_assert_eq!(before, by_hand(&earlier.iter().collect::<Vec<_>>()));
            for &n in &window {
                h.observe(Duration::from_nanos(n));
            }
            let after = h.snapshot();
            let all: Vec<&u64> = earlier.iter().chain(&window).collect();
            proptest::prop_assert_eq!(after, by_hand(&all));
            proptest::prop_assert_eq!(after.count, after.buckets.iter().sum::<u64>());
            let delta = after.delta(&before);
            let mut expected = by_hand(&window.iter().collect::<Vec<_>>());
            expected.max_nanos = after.max_nanos;
            proptest::prop_assert_eq!(delta, expected);
        }
    }

    #[test]
    fn durations_beyond_u64_saturate_into_the_overflow_bucket() {
        assert_eq!(bucket_index(Duration::MAX), BUCKET_COUNT - 1);
        let h = Histogram::new();
        h.observe(Duration::MAX);
        h.observe(Duration::MAX);
        assert_eq!(h.snapshot().max_nanos, u64::MAX);
    }

    #[test]
    fn a_recorded_batch_merges_into_what_observing_gives() {
        let direct = Histogram::new();
        let merged = Histogram::new();
        let mut batch = HistogramSnapshot::empty();
        for us in [10, 70, 70, 3_000, 9_000_000] {
            let d = Duration::from_micros(us);
            direct.observe(d);
            batch.record(d);
        }
        assert_eq!(batch, direct.snapshot());
        merged.merge(&batch);
        merged.merge(&HistogramSnapshot::empty());
        assert_eq!(merged.snapshot(), direct.snapshot());
    }

    #[test]
    fn snapshot_delta_is_exact_per_window() {
        let h = Histogram::new();
        h.observe(Duration::from_millis(1));
        let before = h.snapshot();
        h.observe(Duration::from_millis(20));
        h.observe(Duration::from_millis(20));
        let window = h.snapshot().delta(&before);
        assert_eq!(window.count, 2);
        assert_eq!(window.buckets[bucket_index(Duration::from_millis(20))], 2);
        assert_eq!(
            window.sum_nanos,
            2 * Duration::from_millis(20).as_nanos() as u64
        );
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(Duration::from_millis(2)); // (1, 2.5]ms bucket
        }
        h.observe(Duration::from_millis(400)); // (250, 500]ms bucket
        let s = h.snapshot();
        let p50 = s.quantile(0.5).unwrap();
        assert!(p50 > Duration::from_millis(1) && p50 <= Duration::from_millis(2500));
        let p99 = s.quantile(0.99).unwrap();
        assert!(p99 <= Duration::from_millis(2500));
        let p100 = s.quantile(1.0).unwrap();
        assert!(p100 > Duration::from_millis(250));
        assert!(HistogramSnapshot::empty().quantile(0.5).is_none());
    }

    #[test]
    fn registry_returns_same_instrument_for_same_name() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.list().len(), 1);
        r.gauge("g", "g");
        r.histogram("h_seconds", "h");
        assert_eq!(r.list().len(), 3);
    }

    #[test]
    fn well_known_registers_all_instruments() {
        let r = Registry::new();
        let w = WellKnown::register(&r);
        w.calls_registered.inc();
        assert!(r.list().len() >= 20);
        let names: Vec<&str> = r.list().iter().map(|m| m.name).collect();
        assert!(names.contains(&"wsq_call_latency_seconds"));
        assert!(names.contains(&"wsq_calls_in_flight"));
    }

    #[test]
    fn every_id_names_its_own_instrument() {
        let r = Registry::new();
        let w = WellKnown::register(&r);
        assert!(CounterId::ALL
            .iter()
            .enumerate()
            .all(|(i, &id)| id as usize == i));
        assert!(GaugeId::ALL
            .iter()
            .enumerate()
            .all(|(i, &id)| id as usize == i));
        assert!(HistogramId::ALL
            .iter()
            .enumerate()
            .all(|(i, &id)| id as usize == i));
        // Distinct ids, distinct cells: bump each once, read each once.
        for id in CounterId::ALL {
            w.counter(id).inc();
        }
        assert!(CounterId::ALL.iter().all(|&id| w.counter(id).get() == 1));
        for id in GaugeId::ALL {
            w.gauge(id).add(1);
        }
        assert!(GaugeId::ALL.iter().all(|&id| w.gauge(id).get() == 1));
        for id in HistogramId::ALL {
            w.histogram(id).observe(Duration::from_micros(1));
        }
        assert!(HistogramId::ALL
            .iter()
            .all(|&id| w.histogram(id).snapshot().count == 1));
    }
}
