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
//! pump's timer thread and workers) write to the shared state directly.
//!
//! A recorder publishes when its buffer fills ([`BUFFER_EVENTS`]), when
//! asked ([`Obs::publish`](crate::Obs::publish) — the pump asks before the
//! thread blocks and before it hands a call to another thread), and when
//! its owner drops it. Publishing reserves ring space for the whole buffer
//! with one `fetch_add`, merges each touched histogram once, and adds each
//! changed counter and gauge once.
//!
//! The recorder also keeps the query's own totals, which publishing does
//! not reset: the ANALYZE footer and the adaptive prefetch controller read
//! them, so neither sees another query's calls.

use crate::metrics::{CounterId, GaugeId, HistogramId, HistogramSnapshot};
use crate::trace::{Recorded, Stamp};
use crate::{EventKind, Label, ObsCore};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;
use wsq_common::CallId;

/// Events a recorder buffers before it publishes on its own.
pub const BUFFER_EVENTS: usize = 256;

/// Recorders a thread keeps for reuse once their queries are done.
const POOLED: usize = 2;

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
    /// Their labels, each by its event's index in `events`.
    labels: Vec<(u64, Label)>,
    /// Whether anything is unpublished (events or metric changes).
    dirty: bool,
    /// Whether anything was recorded since the recorder was last reset.
    used: bool,
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
            dirty: false,
            used: false,
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

    /// Buffer one step's unlabelled events, publishing if the buffer is
    /// full.
    pub(crate) fn record(
        &mut self,
        stamp: Stamp,
        events: &mut impl Iterator<Item = (CallId, EventKind)>,
    ) {
        for (call, kind) in events {
            self.push(Recorded { stamp, call, kind }, None);
        }
    }

    /// Buffer one event, publishing if the buffer is full.
    #[inline]
    pub(crate) fn push(&mut self, event: Recorded, label: Option<Label>) {
        if let Some(label) = label.filter(|l| !matches!(l, Label::None)) {
            self.labels.push((self.events.len() as u64, label));
        }
        if self.track_calls && matches!(event.kind, EventKind::Registered | EventKind::Coalesced) {
            self.calls.push(event.call);
        }
        self.events.push(event);
        self.dirty = true;
        if self.events.len() >= BUFFER_EVENTS {
            self.publish();
        }
    }

    #[inline]
    pub(crate) fn count(&mut self, id: CounterId, n: u64) {
        self.counters[id as usize] += n;
        self.dirty = true;
    }

    #[inline]
    pub(crate) fn shift(&mut self, id: GaugeId, delta: i64) {
        self.gauges[id as usize].shift(delta);
        self.dirty = true;
    }

    #[inline]
    pub(crate) fn observe(&mut self, id: HistogramId, d: Duration) {
        self.histograms[id as usize].record(d);
        self.dirty = true;
    }

    pub(crate) fn histogram(&self, id: HistogramId) -> HistogramSnapshot {
        self.histograms[id as usize]
    }

    /// Everything not yet published goes to the shared ring and registry.
    pub(crate) fn publish(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.used = true;
        let Some(core) = &self.core else {
            return;
        };
        core.trace.publish(&mut self.events, &mut self.labels);
        for (i, id) in CounterId::ALL.into_iter().enumerate() {
            let delta = self.counters[i] - self.counters_published[i];
            if delta > 0 {
                core.well.counter(id).add(delta);
                self.counters_published[i] = self.counters[i];
            }
        }
        for (i, id) in HistogramId::ALL.into_iter().enumerate() {
            let (now, then) = (&self.histograms[i], &mut self.histograms_published[i]);
            if now.count > then.count {
                core.well.histogram(id).merge(&now.delta(then));
                *then = *now;
            }
        }
        for (g, id) in self.gauges.iter_mut().zip(GaugeId::ALL) {
            if g.value != g.published || g.peak > g.published {
                core.well
                    .gauge(id)
                    .merge(g.value - g.published, g.peak - g.published);
                g.published = g.value;
                g.peak = g.value;
            }
        }
    }

    /// Back to the state of a fresh recorder, keeping the buffers. A query
    /// that recorded nothing (no external calls) left nothing to clear.
    fn reset(&mut self) {
        debug_assert!(!self.dirty, "reset before publishing");
        self.core = None;
        self.track_calls = false;
        if !std::mem::take(&mut self.used) {
            return;
        }
        self.events.clear();
        self.labels.clear();
        self.counters = [0; CounterId::COUNT];
        self.counters_published = [0; CounterId::COUNT];
        self.histograms = [HistogramSnapshot::empty(); HistogramId::COUNT];
        self.histograms_published = [HistogramSnapshot::empty(); HistogramId::COUNT];
        self.gauges = [LocalGauge::default(); GaugeId::COUNT];
        self.calls.clear();
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
