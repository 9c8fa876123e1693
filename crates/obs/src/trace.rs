//! The trace ring buffer: a fixed-capacity, lock-light, drop-counting
//! record of per-call lifecycle events.
//!
//! # Protocol
//!
//! A writer adds a *batch* of events at a time: a query's recorder
//! publishes its whole buffer ([`TraceRing::publish`]), a thread with no
//! recorder one step ([`TraceRing::record`]). It reserves the batch's `n`
//! consecutive global sequence numbers with one `fetch_add` on `head`,
//! then writes each event into slot `seq & (capacity − 1)` (the capacity
//! is a power of two). Slots are locked a page at a time ([`PAGE_SLOTS`]
//! consecutive slots share a mutex), and a batch takes each page it
//! covers once: a published buffer of a few hundred events costs a few
//! lock rounds, not one per event. Writers to different pages never
//! contend, and a snapshot reader blocks one page at a time. A writer only
//! stores an event if its sequence number is newer than what the slot
//! already holds, so a slow writer lapped by the ring can never clobber
//! fresher data.
//!
//! Because every reserved sequence number is written exactly once, the
//! number of *dropped* (overwritten) events is exactly
//! `head.saturating_sub(capacity)` — no separate drop counter can race.
//! The same protocol, whole-buffer reservation included, is model-checked
//! under schedcheck in `wsq-analyze::models::trace_ring_model`.
//!
//! Sequence order is publication order. A recorder publishes before the
//! thread blocks and before it hands a call to another thread (the pump's
//! rules, `wsq-pump` crate docs), so the events of a call are in
//! lifecycle order within the ring whichever threads recorded them.
//!
//! # Labels
//!
//! A slot is plain data — stamp, session, call, kind — so overwriting one
//! frees nothing. An event's [`Label`] (the request on `Registered`, the
//! error on `Failed`) is the only part that owns heap data, and it is kept
//! beside the slots, for the newest [`LABELS`] labelled events only: a
//! label keeps its request alive, and letting go of a request a few
//! hundred calls later, while it is still in cache, costs a fraction of
//! letting go of it a full ring later. An older event reads without its
//! label.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsq_common::CallId;

/// What happened to a call (or one of its tuples) at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The call was registered with the pump.
    Registered,
    /// A registration attached to an identical in-flight call instead of
    /// creating a new one.
    Coalesced,
    /// The call entered the pump's wait queue (capacity unavailable).
    Queued,
    /// The call was handed to its service.
    Launched,
    /// The service returned successfully.
    Completed,
    /// The service returned an error.
    Failed,
    /// A retry decorator re-issued the request after a failure.
    Retried,
    /// The call was released while still queued (never launched).
    Cancelled,
    /// ReqSync received the call's result (delivery to the operator).
    Delivered,
    /// A buffered tuple waiting on the call was patched with a value.
    Patched,
    /// A buffered tuple waiting on the call was cancelled (§4.3 case 1).
    TupleCancelled,
    /// ReqSync hit its buffer cap and stopped pulling from its child
    /// (admission control; the call is the first one it then waited on).
    Stalled,
    /// A stalled ReqSync drained below its low-water mark and resumed
    /// pulling from its child.
    Resumed,
    /// The call was registered ahead of demand by a prefetching scan
    /// (DESIGN.md §12).
    PrefetchIssued,
    /// A racing group's first successful member completed and its result
    /// was adopted as the group's result (anchored to the group call).
    RaceWon,
    /// A losing member of a racing group was cancelled (still queued) or
    /// orphaned (already in flight) after the group was decided.
    RaceCancelled,
}

impl EventKind {
    /// Short lower-case name used in trace rendering.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Registered => "registered",
            EventKind::Coalesced => "coalesced",
            EventKind::Queued => "queued",
            EventKind::Launched => "launched",
            EventKind::Completed => "completed",
            EventKind::Failed => "failed",
            EventKind::Retried => "retried",
            EventKind::Cancelled => "cancelled",
            EventKind::Delivered => "delivered",
            EventKind::Patched => "patched",
            EventKind::TupleCancelled => "tuple-cancelled",
            EventKind::Stalled => "stalled",
            EventKind::Resumed => "resumed",
            EventKind::PrefetchIssued => "prefetch-issued",
            EventKind::RaceWon => "race-won",
            EventKind::RaceCancelled => "race-cancelled",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Global sequence number (position in the ring's history).
    pub seq: u64,
    /// Monotonic timestamp, as elapsed time since the observability
    /// epoch ([`crate::Obs::enabled`] construction).
    pub at: Duration,
    /// The call this event belongs to.
    pub call: CallId,
    /// The server session (connection) on whose behalf the event was
    /// recorded, or `0` when untagged (in-process use, pump worker
    /// threads). Read from the thread-local [`crate::session_scope`] once
    /// per [`crate::Step`].
    pub session: u64,
    /// What happened.
    pub kind: EventKind,
    /// Optional annotation: the request display on `Registered` (rendered
    /// when the ring is read, see [`Label`]), the error text on `Failed`.
    /// Shared, so cloning a snapshot is cheap.
    pub label: Option<Arc<str>>,
}

/// An event's annotation, rendered only when the ring is read, so
/// recording an event never formats anything. Emission sites build one
/// with [`crate::Obs::text`] / [`crate::Obs::display`], which cost nothing
/// on a disabled handle.
#[derive(Clone)]
pub enum Label {
    /// No annotation.
    None,
    /// Text the writer already had (an error message on `Failed`).
    Text(Arc<str>),
    /// A value the writer shares with the ring (the pump's request on
    /// `Registered`); its `Display` is the label.
    Display(Arc<dyn fmt::Display + Send + Sync>),
}

impl Label {
    fn render(&self) -> Option<Arc<str>> {
        match self {
            Label::None => None,
            Label::Text(text) => Some(text.clone()),
            Label::Display(source) => Some(source.to_string().into()),
        }
    }
}

/// Labels the ring keeps, for its newest labelled events (see the module
/// docs): a few queries' worth of calls.
pub const LABELS: usize = 1024;

/// What a step stamps its events with: its clock reading, in nanoseconds
/// since the observability epoch, and the session it ran for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stamp {
    pub(crate) at_nanos: u64,
    pub(crate) session: u64,
}

/// An event before the ring numbers it, label aside: what a query's
/// recorder buffers and a slot holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Recorded {
    pub(crate) stamp: Stamp,
    pub(crate) call: CallId,
    pub(crate) kind: EventKind,
}

/// An event as a slot holds it.
#[derive(Clone, Copy)]
struct Stored {
    seq: u64,
    event: Recorded,
}

impl Stored {
    fn render(self, label: Option<&Label>) -> TraceEvent {
        let e = self.event;
        TraceEvent {
            seq: self.seq,
            at: Duration::from_nanos(e.stamp.at_nanos),
            call: e.call,
            session: e.stamp.session,
            kind: e.kind,
            label: label.and_then(Label::render),
        }
    }
}

/// Consecutive slots that share one lock (fewer in a smaller ring).
pub const PAGE_SLOTS: usize = 64;

/// One page of slots under its lock.
type Page = Mutex<Box<[Option<Stored>]>>;

/// The fixed-capacity circular event buffer.
pub struct TraceRing {
    /// The slots, [`TraceRing::page_slots`] to a page; a slot is `None`
    /// until first written.
    pages: Box<[Page]>,
    /// The newest labels, each with its event's sequence number, oldest
    /// first (in publication order, so nearly in sequence order).
    labels: Mutex<VecDeque<(u64, Label)>>,
    /// How many labels are kept: [`LABELS`], or the capacity if smaller.
    label_capacity: usize,
    /// Slots per page, a power of two.
    page_slots: usize,
    /// Total slots − 1 (the capacity is a power of two).
    mask: u64,
    head: AtomicU64,
}

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.position())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` events, rounded up to a power of
    /// two (min 1) so a sequence number finds its slot with a mask.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let page_slots = PAGE_SLOTS.min(capacity);
        TraceRing {
            pages: (0..capacity / page_slots)
                .map(|_| Mutex::new((0..page_slots).map(|_| None).collect()))
                .collect(),
            labels: Mutex::new(VecDeque::new()),
            label_capacity: LABELS.min(capacity),
            page_slots,
            mask: capacity as u64 - 1,
            head: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Total events ever recorded; doubles as the "current position"
    /// marker for [`TraceRing::snapshot_since`].
    pub fn position(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Exact number of events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.position().saturating_sub(self.capacity() as u64)
    }

    /// Visit the slots of sequence numbers `first .. first + n` in order,
    /// locking each page once per run of its slots.
    fn for_each_slot(&self, first: u64, n: u64, mut f: impl FnMut(u64, &mut Option<Stored>)) {
        let mut seq = first;
        let end = first + n;
        while seq < end {
            let index = (seq & self.mask) as usize;
            let (page, offset) = (index / self.page_slots, index % self.page_slots);
            let run = ((self.page_slots - offset) as u64).min(end - seq);
            let mut slots = self.pages[page].lock();
            for slot in &mut slots[offset..offset + run as usize] {
                f(seq, slot);
                seq += 1;
            }
        }
    }

    /// Record the events of one step — all stamped alike — under
    /// consecutive sequence numbers reserved with one `fetch_add`. Nothing
    /// is formatted here: the ring keeps an event's [`Label`] and the
    /// snapshot methods render it for whoever reads the event.
    pub(crate) fn record(
        &self,
        stamp: Stamp,
        events: impl ExactSizeIterator<Item = (CallId, EventKind, Label)>,
    ) {
        let n = events.len() as u64;
        if n == 0 {
            return;
        }
        let first = self.head.fetch_add(n, Ordering::Relaxed);
        // `take`: an iterator that yields more than it announced must not
        // write sequence numbers it never reserved.
        let mut events = events.take(n as usize);
        // Labels are kept once the slots are written, never under a page's
        // lock. A step has one at most, barring a batch of failures.
        let (mut label, mut more) = (None, Vec::new());
        self.for_each_slot(first, n, |seq, slot| {
            if let Some((call, kind, l)) = events.next() {
                if !matches!(l, Label::None) {
                    match label {
                        None => label = Some((seq, l)),
                        Some(_) => more.push((seq, l)),
                    }
                }
                store(slot, seq, Recorded { stamp, call, kind });
            }
        });
        self.keep_labels(label.into_iter().chain(more));
    }

    /// Publish a recorder's buffer: one `fetch_add` reserves a sequence
    /// number for every event in it, in buffer order. `labels` are the
    /// buffered events' labels, each by its index in `events`. Both are
    /// left empty, their capacity kept for reuse.
    pub(crate) fn publish(&self, events: &mut Vec<Recorded>, labels: &mut Vec<(u64, Label)>) {
        if events.is_empty() {
            return;
        }
        let n = events.len() as u64;
        let first = self.head.fetch_add(n, Ordering::Relaxed);
        let mut buffered = events.iter();
        self.for_each_slot(first, n, |seq, slot| {
            if let Some(&event) = buffered.next() {
                store(slot, seq, event);
            }
        });
        events.clear();
        self.keep_labels(
            labels
                .drain(..)
                .map(|(index, label)| (first + index, label)),
        );
    }

    /// Add labels, each with its event's sequence number, letting go of
    /// the oldest beyond [`LABELS`].
    fn keep_labels(&self, new: impl Iterator<Item = (u64, Label)>) {
        let mut new = new.peekable();
        if new.peek().is_none() {
            return;
        }
        let mut labels = self.labels.lock();
        labels.extend(new);
        let excess = labels.len().saturating_sub(self.label_capacity);
        labels.drain(..excess);
    }

    /// Every retained event with `seq >= since`, unrendered, ordered by
    /// sequence number. Only the slots that can hold such an event are
    /// visited — those of sequence numbers `max(since, recorded −
    /// capacity) .. recorded` — so a query's window costs its own size,
    /// not the ring's.
    fn window(&self, since: u64) -> Vec<Stored> {
        let head = self.position();
        let from = since.max(head.saturating_sub(self.capacity() as u64));
        let mut events: Vec<Stored> = Vec::new();
        self.for_each_slot(from, head.saturating_sub(from), |_, slot| {
            // The slot may hold an older event (its writer has reserved the
            // number but not stored yet) or a newer one (lapped since `head`
            // was read): keep whatever falls in the window.
            events.extend(slot.as_ref().filter(|stored| stored.seq >= since).cloned());
        });
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Every retained event with `seq >= since`, ordered by sequence
    /// number. Pass `0` for the full ring, or a saved
    /// [`TraceRing::position`] for a per-query window. Only the events
    /// returned have their labels rendered, with no slot lock held.
    pub fn snapshot_since(&self, since: u64) -> Vec<TraceEvent> {
        self.render(self.window(since), |_| true)
    }

    /// The events of [`TraceRing::snapshot_since`] that belong to a call
    /// with at least one event recorded for `session` — the whole
    /// lifecycle of every call the session took part in. The selection
    /// runs on the unrendered slots, so other sessions' labels are never
    /// formatted.
    pub fn snapshot_for_session(&self, since: u64, session: u64) -> Vec<TraceEvent> {
        let window = self.window(since);
        let calls: HashSet<CallId> = window
            .iter()
            .filter(|e| e.event.stamp.session == session)
            .map(|e| e.event.call)
            .collect();
        self.render(window, |call| calls.contains(&call))
    }

    /// The events of [`TraceRing::snapshot_since`] whose call `keep`s —
    /// only those have their labels rendered.
    pub(crate) fn snapshot_for_calls(
        &self,
        since: u64,
        keep: impl Fn(CallId) -> bool,
    ) -> Vec<TraceEvent> {
        self.render(self.window(since), keep)
    }

    /// The events of `window` whose call `keep`s, with the labels the ring
    /// still has for them — rendered with no lock held.
    fn render(&self, window: Vec<Stored>, keep: impl Fn(CallId) -> bool) -> Vec<TraceEvent> {
        let kept: Vec<Stored> = window.into_iter().filter(|e| keep(e.event.call)).collect();
        let labels: HashMap<u64, Label> = match kept.first() {
            Some(oldest) => self
                .labels
                .lock()
                .iter()
                .filter(|(seq, _)| *seq >= oldest.seq)
                .cloned()
                .collect(),
            None => HashMap::new(),
        };
        kept.into_iter()
            .map(|e| e.render(labels.get(&e.seq)))
            .collect()
    }
}

/// Store `event` under `seq` unless the slot already holds a newer event:
/// a writer lapped before it took the page's lock must not clobber fresher
/// data (its own event is simply dropped — accounted for by `dropped()`,
/// since `head` already advanced).
#[inline]
fn store(slot: &mut Option<Stored>, seq: u64, event: Recorded) {
    if slot.is_none_or(|stored| seq > stored.seq) {
        *slot = Some(Stored { seq, event });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(n: u64) -> CallId {
        CallId(n)
    }

    fn stamp(at: Duration, session: u64) -> Stamp {
        let at_nanos = at.as_nanos() as u64;
        Stamp { at_nanos, session }
    }

    /// A one-event step recorded for no session.
    fn push(ring: &TraceRing, at: Duration, call: CallId, kind: EventKind, label: Label) {
        ring.record(stamp(at, 0), [(call, kind, label)].into_iter());
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = TraceRing::new(8);
        let ms = Duration::from_millis;
        push(&ring, ms(1), cid(1), EventKind::Registered, Label::None);
        push(&ring, ms(2), cid(1), EventKind::Launched, Label::None);
        push(&ring, ms(3), cid(1), EventKind::Completed, Label::None);
        let events = ring.snapshot_since(0);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Registered);
        assert_eq!(events[2].kind, EventKind::Completed);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn a_step_takes_consecutive_sequence_numbers_and_one_stamp() {
        let ring = TraceRing::new(8);
        push(
            &ring,
            Duration::ZERO,
            cid(9),
            EventKind::Coalesced,
            Label::None,
        );
        ring.record(
            stamp(Duration::from_micros(5), 3),
            [
                (cid(1), EventKind::Registered, Label::Text("r".into())),
                (cid(1), EventKind::Queued, Label::None),
            ]
            .into_iter(),
        );
        ring.record(stamp(Duration::from_micros(6), 3), std::iter::empty());
        assert_eq!(ring.position(), 3, "an empty step reserves nothing");
        let step: Vec<TraceEvent> = ring.snapshot_since(1);
        let seqs: Vec<u64> = step.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert!(step
            .iter()
            .all(|e| e.at == Duration::from_micros(5) && e.session == 3));
        assert_eq!(step[0].label.as_deref(), Some("r"));
        assert_eq!(step[1].kind, EventKind::Queued);
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(TraceRing::new(0).capacity(), 1);
        assert_eq!(TraceRing::new(5).capacity(), 8);
        assert_eq!(TraceRing::new(65_536).capacity(), 65_536);
        assert_eq!(TraceRing::new(100).capacity(), 128);
    }

    #[test]
    fn overwrites_oldest_and_counts_drops_exactly() {
        let ring = TraceRing::new(4);
        // Steps of one, two and three events: a batch wraps like singles.
        let mut next = 0usize;
        for len in [1usize, 2, 3, 1, 3] {
            let step = (next..next + len).map(|i| (cid(i as u64), EventKind::Queued, Label::None));
            ring.record(stamp(Duration::from_millis(next as u64), 0), step);
            next += len;
        }
        assert_eq!(next, 10);
        assert_eq!(ring.dropped(), 6);
        let events = ring.snapshot_since(0);
        assert_eq!(events.len(), 4);
        // The survivors are the newest four, in order.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert!(events.iter().all(|e| e.call == cid(e.seq)));
    }

    #[test]
    fn a_published_buffer_takes_one_run_of_numbers_and_wraps_exactly() {
        let ring = TraceRing::new(4);
        push(
            &ring,
            Duration::ZERO,
            cid(0),
            EventKind::Queued,
            Label::None,
        );
        // A recorder's buffer: several steps, each with its own stamp, and
        // the label of its fourth event.
        let mut buffer: Vec<Recorded> = (1..=5u64)
            .map(|i| Recorded {
                stamp: stamp(Duration::from_millis(i / 2), 7),
                call: cid(i),
                kind: EventKind::Queued,
            })
            .collect();
        let mut labels = vec![(3, Label::Text("fourth".into()))];
        let capacity = buffer.capacity();
        ring.publish(&mut buffer, &mut labels);
        assert!(buffer.is_empty() && buffer.capacity() == capacity, "kept");
        assert!(labels.is_empty());
        ring.publish(&mut buffer, &mut labels);
        assert_eq!((ring.position(), ring.dropped()), (6, 2));
        let events = ring.snapshot_since(0);
        let got: Vec<(u64, u64, Duration)> =
            events.iter().map(|e| (e.seq, e.call.0, e.at)).collect();
        let ms = Duration::from_millis;
        assert_eq!(
            got,
            vec![(2, 2, ms(1)), (3, 3, ms(1)), (4, 4, ms(2)), (5, 5, ms(2))]
        );
        assert!(events.iter().all(|e| e.session == 7));
        let labels: Vec<Option<&str>> = events.iter().map(|e| e.label.as_deref()).collect();
        assert_eq!(labels, vec![None, None, Some("fourth"), None]);
    }

    #[test]
    fn snapshot_since_scopes_a_window() {
        let ring = TraceRing::new(16);
        push(
            &ring,
            Duration::ZERO,
            cid(1),
            EventKind::Registered,
            Label::None,
        );
        let pos = ring.position();
        push(
            &ring,
            Duration::ZERO,
            cid(2),
            EventKind::Registered,
            Label::None,
        );
        push(
            &ring,
            Duration::ZERO,
            cid(2),
            EventKind::Launched,
            Label::None,
        );
        let window = ring.snapshot_since(pos);
        assert_eq!(window.len(), 2);
        assert!(window.iter().all(|e| e.call == cid(2)));
    }

    /// A label source that counts how often it is formatted.
    struct Counted(AtomicU64);

    impl fmt::Display for Counted {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.fetch_add(1, Ordering::Relaxed);
            f.write_str("AV:count(\"Utah\")")
        }
    }

    #[test]
    fn display_label_is_rendered_when_read_not_when_recorded() {
        let ring = TraceRing::new(8);
        let source = Arc::new(Counted(AtomicU64::new(0)));
        let at = Duration::ZERO;
        push(
            &ring,
            at,
            cid(1),
            EventKind::Registered,
            Label::Display(source.clone()),
        );
        push(
            &ring,
            at,
            cid(1),
            EventKind::Failed,
            Label::Text("boom".into()),
        );
        push(&ring, at, cid(1), EventKind::Queued, Label::None);
        assert_eq!(
            source.0.load(Ordering::Relaxed),
            0,
            "recording formats nothing"
        );
        let labels: Vec<Option<Arc<str>>> = ring
            .snapshot_since(0)
            .into_iter()
            .map(|e| e.label)
            .collect();
        assert_eq!(
            labels,
            vec![Some("AV:count(\"Utah\")".into()), Some("boom".into()), None]
        );
        assert_eq!(source.0.load(Ordering::Relaxed), 1);
        // The ring lets go of a label once as many newer ones are kept as
        // it has slots.
        for i in 0..8 {
            push(
                &ring,
                at,
                cid(i),
                EventKind::Failed,
                Label::Text("later".into()),
            );
        }
        assert_eq!(Arc::strong_count(&source), 1);
    }

    #[test]
    fn only_the_newest_labels_are_kept() {
        let ring = TraceRing::new(4 * LABELS);
        for i in 0..LABELS as u64 + 3 {
            push(
                &ring,
                Duration::ZERO,
                cid(i),
                EventKind::Registered,
                Label::Text("r".into()),
            );
        }
        let events = ring.snapshot_since(0);
        assert_eq!(events.len(), LABELS + 3, "every event is retained");
        let unlabelled: Vec<u64> = events
            .iter()
            .filter(|e| e.label.is_none())
            .map(|e| e.seq)
            .collect();
        assert_eq!(unlabelled, vec![0, 1, 2], "the oldest read without label");
    }

    #[test]
    fn a_session_read_renders_only_that_sessions_calls() {
        let ring = TraceRing::new(64);
        let source = Arc::new(Counted(AtomicU64::new(0)));
        // Eight calls, each registered by its own session and finished by
        // an untagged pump thread.
        for call in 1..=8u64 {
            ring.record(
                stamp(Duration::from_micros(call), call),
                [
                    (
                        cid(call),
                        EventKind::Registered,
                        Label::Display(source.clone()),
                    ),
                    (cid(call), EventKind::Queued, Label::None),
                ]
                .into_iter(),
            );
        }
        for call in 1..=8u64 {
            push(
                &ring,
                Duration::from_millis(1),
                cid(call),
                EventKind::Completed,
                Label::None,
            );
        }
        let mine = ring.snapshot_for_session(0, 5);
        let kinds: Vec<EventKind> = mine.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Registered,
                EventKind::Queued,
                EventKind::Completed
            ],
            "the untagged half of the lifecycle comes along"
        );
        assert!(mine.iter().all(|e| e.call == cid(5)));
        assert_eq!(mine[0].label.as_deref(), Some("AV:count(\"Utah\")"));
        assert_eq!(
            source.0.load(Ordering::Relaxed),
            1,
            "one of the eight labels in the window is formatted"
        );
        assert!(ring.snapshot_for_session(0, 99).is_empty());
        assert_eq!(source.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_window_costs_its_own_size_not_the_rings() {
        let ring = TraceRing::new(65_536);
        let source = Arc::new(Counted(AtomicU64::new(0)));
        for i in 0..100_000u64 {
            push(
                &ring,
                Duration::from_nanos(i),
                cid(i),
                EventKind::Registered,
                Label::Display(source.clone()),
            );
        }
        let head = ring.position();
        assert_eq!((head, ring.dropped()), (100_000, 100_000 - 65_536));
        let window = ring.snapshot_since(head - 10);
        let seqs: Vec<u64> = window.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (head - 10..head).collect::<Vec<_>>());
        assert_eq!(
            source.0.load(Ordering::Relaxed),
            10,
            "only the events returned are rendered"
        );
        // A position the ring has lapped answers with what is retained.
        assert_eq!(ring.snapshot_since(0).len(), 65_536);
        assert!(ring.snapshot_since(head).is_empty());
        assert!(ring.snapshot_since(head + 5).is_empty());
    }

    #[test]
    fn concurrent_writers_lose_nothing_below_capacity() {
        let ring = Arc::new(TraceRing::new(4096));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in (0..256usize).step_by(2) {
                        let step = (i..i + 2)
                            .map(|i| (cid(t * 1000 + i as u64), EventKind::Queued, Label::None));
                        ring.record(stamp(Duration::from_nanos(i as u64), t), step);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.position(), 8 * 256);
        assert_eq!(ring.dropped(), 0);
        let events = ring.snapshot_since(0);
        assert_eq!(events.len(), 8 * 256);
        // A step's two events sit side by side whatever the interleaving.
        for pair in events.chunks(2) {
            assert_eq!(pair[0].seq + 1, pair[1].seq);
            assert_eq!(pair[0].call.0 + 1, pair[1].call.0);
            assert_eq!(pair[0].session, pair[1].session);
        }
    }
}
