//! One recorder per query: a query's trace events and metric changes,
//! buffered as plain data on the thread that runs it and published to the
//! shared ring and registry in batches.
//!
//! A [`QueryRecorder`] is owned by whatever runs a query's executor tree
//! (`Database::run_plan`, a cursor, an ANALYZE window). While it runs the
//! tree ([`QueryRecorder::run`]) the recorder is *lent* to the thread, and
//! every [`Obs::emit`](crate::Obs::emit), [`Obs::count`](crate::Obs::count),
//! [`Obs::shift`](crate::Obs::shift) and
//! [`Obs::observe`](crate::Obs::observe) for the same handle on that thread
//! lands in it: an event is one push onto a reused `Vec`, a metric change
//! one integer add — no atomics, no locks. Threads with no recorder (the
//! pump's timer thread) write to the shared state directly.
//!
//! A recorder publishes when asked ([`Obs::publish`](crate::Obs::publish)
//! — the pump asks before the thread blocks and before it hands a call to
//! another thread) and when its owner drops it. Publishing reserves ring
//! space for the whole buffer with one `fetch_add`, copies the buffered
//! labels' bytes in one go, and merges only the instruments the query
//! touched since it last published, each once. When its buffer fills
//! ([`BUFFER_EVENTS`]), or its owner returns to a caller mid-query
//! ([`QueryRecorder::publish_trace`]), it publishes its events alone: the
//! metric changes wait for the next full publication, so a query merges
//! its metrics once or a few times, however many rows it returns.
//!
//! An event is folded into the recorder's metrics as it is pushed
//! (`metrics::fold`), so the counters and gauges it implies need
//! no record of their own.
//!
//! The recorder also keeps the query's own totals, which publishing does
//! not reset: the ANALYZE footer reads them, so it sees no other query's
//! calls.

use crate::metrics::{fold, CounterId, Fold, GaugeId, HistogramId, HistogramSnapshot};
use crate::trace::{LabelAt, Recorded, Stamp};
use crate::{EventKind, Label, ObsCore};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;
use wsq_common::CallId;

/// Events a recorder buffers before it publishes on its own.
pub const BUFFER_EVENTS: usize = 256;

/// Recorders a thread keeps for reuse once their queries are done.
const POOLED: usize = 2;

/// Where the histograms' and the gauges' bits start in
/// [`Recorder::touched`].
const HISTOGRAM_BITS: usize = CounterId::COUNT;
const GAUGE_BITS: usize = HISTOGRAM_BITS + HistogramId::COUNT;
const _: () = assert!(GAUGE_BITS + GaugeId::COUNT <= 64);

/// One gauge as a query sees it.
#[derive(Debug, Clone, Copy, Default)]
struct LocalGauge {
    /// Net change since the query began.
    value: i64,
    /// Highest `value` since the query began.
    high: i64,
    /// `value` at the last publication.
    published: i64,
    /// Highest `value` since the last publication.
    peak: i64,
}

impl LocalGauge {
    #[inline]
    fn shift(&mut self, delta: i64) {
        self.value += delta;
        self.high = self.high.max(self.value);
        self.peak = self.peak.max(self.value);
    }
}

/// The state behind a [`QueryRecorder`]: pooled per thread, so a query
/// reuses the buffers of the one before it.
pub(crate) struct Recorder {
    /// The handle recorded for; `None` while pooled.
    core: Option<Arc<ObsCore>>,
    /// Events not yet published.
    events: Vec<Recorded>,
    /// Their labels, each at its event's index in `events`.
    labels: Vec<LabelAt>,
    /// The labels' bytes, end to end.
    label_bytes: Vec<u8>,
    /// Whether anything was published since the recorder was last reset.
    used: bool,
    /// The instruments changed since the last publication, one bit per id:
    /// counters, then histograms, then gauges.
    touched: u64,
    counters: [u64; CounterId::COUNT],
    counters_published: [u64; CounterId::COUNT],
    histograms: [HistogramSnapshot; HistogramId::COUNT],
    histograms_published: [HistogramSnapshot; HistogramId::COUNT],
    gauges: [LocalGauge; GaugeId::COUNT],
    /// Whether to keep `calls` (an ANALYZE window asks for them).
    track_calls: bool,
    /// Calls this query registered or coalesced onto.
    calls: Vec<CallId>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            core: None,
            events: Vec::new(),
            labels: Vec::new(),
            label_bytes: Vec::new(),
            used: false,
            touched: 0,
            counters: [0; CounterId::COUNT],
            counters_published: [0; CounterId::COUNT],
            histograms: [HistogramSnapshot::empty(); HistogramId::COUNT],
            histograms_published: [HistogramSnapshot::empty(); HistogramId::COUNT],
            gauges: [LocalGauge::default(); GaugeId::COUNT],
            track_calls: false,
            calls: Vec::new(),
        }
    }

    #[inline(always)]
    fn is_for(&self, core: &Arc<ObsCore>) -> bool {
        self.core.as_ref().is_some_and(|c| Arc::ptr_eq(c, core))
    }

    /// Buffer one step's events, folding each, publishing if the buffer
    /// is full.
    pub(crate) fn record<'a>(
        &mut self,
        stamp: Stamp,
        events: &mut impl Iterator<Item = (CallId, EventKind, Label<'a>)>,
    ) {
        for (call, kind, label) in events {
            self.push(Recorded { stamp, call, kind }, label, true);
        }
    }

    /// Buffer one event — folded into the metrics if `folds` — publishing
    /// if the buffer is full.
    #[inline]
    pub(crate) fn push(&mut self, event: Recorded, label: Label<'_>, folds: bool) {
        if !matches!(label, Label::None) {
            let index = self.events.len() as u64;
            self.labels
                .extend(LabelAt::encode(index, label, &mut self.label_bytes));
        }
        if self.track_calls && matches!(event.kind, EventKind::Registered | EventKind::Coalesced) {
            self.calls.push(event.call);
        }
        if folds {
            fold(event.kind, self);
        }
        self.events.push(event);
        if self.events.len() >= BUFFER_EVENTS {
            self.publish_trace();
        }
    }

    #[inline]
    pub(crate) fn count(&mut self, id: CounterId, n: u64) {
        self.counters[id as usize] += n;
        self.touched |= 1 << id as usize;
    }

    #[inline]
    pub(crate) fn shift(&mut self, id: GaugeId, delta: i64) {
        self.gauges[id as usize].shift(delta);
        self.touched |= 1 << (GAUGE_BITS + id as usize);
    }

    #[inline]
    pub(crate) fn observe(&mut self, id: HistogramId, d: Duration) {
        self.histograms[id as usize].record(d);
        self.touched |= 1 << (HISTOGRAM_BITS + id as usize);
    }

    pub(crate) fn histogram(&self, id: HistogramId) -> HistogramSnapshot {
        self.histograms[id as usize]
    }

    /// Everything not yet published goes to the shared ring and registry.
    pub(crate) fn publish(&mut self) {
        self.publish_trace();
        self.publish_metrics();
    }

    /// The buffered events and their labels go to the ring, in one batch.
    fn publish_trace(&mut self) {
        if self.events.is_empty() {
            return;
        }
        self.used = true;
        if let Some(core) = &self.core {
            core.trace
                .publish(&mut self.events, &mut self.labels, &mut self.label_bytes);
        }
    }

    /// Each instrument touched since the last publication is merged into
    /// its shared cell, once.
    fn publish_metrics(&mut self) {
        if self.touched == 0 {
            return;
        }
        self.used = true;
        let Some(core) = &self.core else {
            return;
        };
        let mut touched = std::mem::take(&mut self.touched);
        while touched != 0 {
            let bit = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            if bit < HISTOGRAM_BITS {
                let delta = self.counters[bit] - self.counters_published[bit];
                core.well.counter(CounterId::ALL[bit]).add(delta);
                self.counters_published[bit] = self.counters[bit];
            } else if bit < GAUGE_BITS {
                let i = bit - HISTOGRAM_BITS;
                let (now, then) = (&self.histograms[i], &mut self.histograms_published[i]);
                core.well
                    .histogram(HistogramId::ALL[i])
                    .merge(&now.delta(then));
                *then = *now;
            } else {
                let i = bit - GAUGE_BITS;
                let g = &mut self.gauges[i];
                core.well
                    .gauge(GaugeId::ALL[i])
                    .merge(g.value - g.published, g.peak - g.published);
                g.published = g.value;
                g.peak = g.value;
            }
        }
    }

    /// Back to the state of a fresh recorder, keeping the buffers. A query
    /// that recorded nothing (no external calls) left nothing to clear.
    fn reset(&mut self) {
        debug_assert!(
            self.events.is_empty() && self.touched == 0,
            "reset before publishing"
        );
        self.core = None;
        self.track_calls = false;
        if !std::mem::take(&mut self.used) {
            return;
        }
        self.events.clear();
        self.labels.clear();
        self.label_bytes.clear();
        self.counters = [0; CounterId::COUNT];
        self.counters_published = [0; CounterId::COUNT];
        self.histograms = [HistogramSnapshot::empty(); HistogramId::COUNT];
        self.histograms_published = [HistogramSnapshot::empty(); HistogramId::COUNT];
        self.gauges = [LocalGauge::default(); GaugeId::COUNT];
        self.calls.clear();
    }
}

impl Fold for Recorder {
    #[inline]
    fn count(&mut self, id: CounterId) {
        Recorder::count(self, id, 1);
    }

    #[inline]
    fn shift(&mut self, id: GaugeId, delta: i64) {
        Recorder::shift(self, id, delta);
    }
}

thread_local! {
    /// The recorder lent to this thread by the query it is running.
    static LENT: RefCell<Option<Box<Recorder>>> = const { RefCell::new(None) };
    /// Recorders of finished queries, for the next ones to reuse. Boxed,
    /// so lending one out and taking it back moves a pointer, not the
    /// recorder's arrays.
    #[allow(clippy::vec_box)]
    static POOL: RefCell<Vec<Box<Recorder>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on the recorder lent to this thread for `core`, if there is
/// one; `None` (and `f` not run) otherwise.
#[inline]
pub(crate) fn with_lent<R>(core: &Arc<ObsCore>, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    LENT.try_with(|slot| {
        let mut slot = slot.try_borrow_mut().ok()?;
        let rec = slot.as_deref_mut().filter(|r| r.is_for(core))?;
        Some(f(rec))
    })
    .ok()
    .flatten()
}

/// A query's recorder (see the module docs). Inert — it records nothing
/// and allocates nothing — for a disabled handle.
pub struct QueryRecorder {
    rec: Option<Box<Recorder>>,
}

impl std::fmt::Debug for QueryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRecorder")
            .field("enabled", &self.rec.is_some())
            .finish()
    }
}

impl QueryRecorder {
    pub(crate) fn new(core: Option<&Arc<ObsCore>>, track_calls: bool) -> QueryRecorder {
        let rec = core.map(|core| {
            let mut rec = POOL
                .try_with(|pool| pool.borrow_mut().pop())
                .ok()
                .flatten()
                .unwrap_or_else(|| Box::new(Recorder::new()));
            rec.core = Some(core.clone());
            rec.track_calls = track_calls;
            rec
        });
        QueryRecorder { rec }
    }

    /// Run `f` with this recorder lent to the current thread, so what `f`
    /// records for the recorder's handle lands here. A recorder for the
    /// same handle already lent to the thread — an enclosing query's —
    /// keeps recording instead. Nothing is published on return: that is
    /// the owner's call ([`QueryRecorder::publish`], or drop).
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let Some(rec) = self.rec.take() else {
            return f();
        };
        let lent = LENT.try_with(|slot| {
            let mut slot = slot.borrow_mut();
            let enclosing = slot.as_ref().and_then(|r| r.core.as_ref());
            if enclosing.is_some_and(|c| rec.core.as_ref().is_some_and(|mine| Arc::ptr_eq(c, mine)))
            {
                Err(rec)
            } else {
                Ok(slot.replace(rec))
            }
        });
        match lent {
            Ok(Ok(previous)) => {
                let _back = Lent {
                    home: &mut self.rec,
                    previous,
                };
                f()
            }
            Ok(Err(rec)) => {
                self.rec = Some(rec);
                f()
            }
            // Thread-local storage is being torn down: record nothing.
            Err(_) => f(),
        }
    }

    /// Publish what this recorder holds. Its totals stay.
    pub fn publish(&mut self) {
        if let Some(rec) = &mut self.rec {
            rec.publish();
        }
    }

    /// Publish the events this recorder holds, and leave its metric
    /// changes for its next full publication — at the latest, when it
    /// drops. For an owner that returns to its caller mid-query (a
    /// cursor, after each row): the trace is in order for any thread that
    /// goes on with the query's calls, and the metrics are merged once.
    pub fn publish_trace(&mut self) {
        if let Some(rec) = &mut self.rec {
            rec.publish_trace();
        }
    }

    /// The query's own total of counter `id` so far.
    pub(crate) fn counter(&self, id: CounterId) -> u64 {
        self.rec.as_ref().map_or(0, |r| r.counters[id as usize])
    }

    /// The query's own distribution of histogram `id` so far.
    pub(crate) fn histogram(&self, id: HistogramId) -> HistogramSnapshot {
        self.rec
            .as_ref()
            .map_or(HistogramSnapshot::empty(), |r| r.histogram(id))
    }

    /// The highest net rise of gauge `id` during the query.
    pub(crate) fn high_water(&self, id: GaugeId) -> i64 {
        self.rec.as_ref().map_or(0, |r| r.gauges[id as usize].high)
    }

    /// The calls the query registered or coalesced onto, if it was asked
    /// to keep them.
    pub(crate) fn calls(&self) -> &[CallId] {
        self.rec.as_ref().map_or(&[], |r| &r.calls)
    }

    /// The handle this recorder records for.
    pub(crate) fn core(&self) -> Option<&Arc<ObsCore>> {
        self.rec.as_ref().and_then(|r| r.core.as_ref())
    }
}

impl Drop for QueryRecorder {
    fn drop(&mut self) {
        let Some(mut rec) = self.rec.take() else {
            return;
        };
        rec.publish();
        rec.reset();
        let _ = POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOLED {
                pool.push(rec);
            }
        });
    }
}

/// Takes a lent recorder back from the thread when [`QueryRecorder::run`]
/// returns or unwinds, and restores whatever was lent before it.
struct Lent<'a> {
    home: &'a mut Option<Box<Recorder>>,
    previous: Option<Box<Recorder>>,
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        let previous = self.previous.take();
        let _ = LENT.try_with(|slot| {
            *self.home = std::mem::replace(&mut *slot.borrow_mut(), previous);
        });
    }
}

/// The capacity of the event buffer lent to this thread (for tests of
/// what a disabled handle allocates).
#[cfg(test)]
pub(crate) fn lent_capacity() -> Option<usize> {
    LENT.with(|slot| slot.borrow().as_ref().map(|r| r.events.capacity()))
}
