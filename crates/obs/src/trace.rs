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
//! The trace pins nothing: a slot is plain data — stamp, session, call,
//! kind — and so is a label. An event's [`Label`] (the request on
//! `Registered`, the error on `Failed`) is borrowed from its writer only
//! while the event is recorded, which copies its bytes into the trace; a
//! request's label copies its parts and leaves their formatting to
//! whoever reads the ring. So the trace keeps no writer's value alive and
//! letting go of a label frees nothing. Label bytes are kept beside the
//! slots, for the newest [`LABELS`] labelled events only; an older event
//! reads without its label.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::Write as _;
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
    /// recorded, or `0` when untagged (in-process use, the pump's timer
    /// thread). Read from the thread-local [`crate::session_scope`] once
    /// per [`crate::Step`].
    pub session: u64,
    /// What happened.
    pub kind: EventKind,
    /// Optional annotation: the request display on `Registered` (rendered
    /// when the ring is read, see [`Label`]), the error text on `Failed`.
    /// Shared, so cloning a snapshot is cheap.
    pub label: Option<Arc<str>>,
}

/// An event's annotation, as its writer hands it over: borrowed for as
/// long as the event is recorded, and copied into the trace as plain bytes
/// (see the module docs). Building one costs nothing; a disabled handle
/// never looks at it.
#[derive(Clone, Copy)]
pub enum Label<'a> {
    /// No annotation.
    None,
    /// A value's `Display`, written out when the event is recorded (an
    /// error on `Failed`, which is rare).
    Display(&'a dyn fmt::Display),
    /// A value whose parts are copied when the event is recorded and
    /// formatted when the trace is read (the pump's request on
    /// `Registered`, recorded for every call).
    Parts(&'a dyn LabelParts),
}

/// Formats a label's bytes as the text a reader of the trace sees.
pub type Render = fn(&[u8]) -> String;

/// A value that labels events by its parts ([`Label::Parts`]): recording
/// copies bytes, and only a reader of the trace pays for formatting.
pub trait LabelParts {
    /// Append the parts to `out` and return what formats them.
    fn encode(&self, out: &mut Vec<u8>) -> Render;
}

impl Label<'_> {
    /// Append the label's bytes to `out` and return what formats them;
    /// `None`, with nothing appended, for no label.
    pub(crate) fn encode(self, out: &mut Vec<u8>) -> Option<Render> {
        match self {
            Label::None => None,
            Label::Display(value) => {
                // Writing into a `Vec` cannot fail.
                let _ = write!(out, "{value}");
                Some(render_text)
            }
            Label::Parts(value) => Some(value.encode(out)),
        }
    }
}

fn render_text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A recorded label: the event's position (a sequence number in the ring,
/// an index in a recorder's buffer), what formats it, and how many of the
/// label bytes beside it are its own.
#[derive(Clone, Copy)]
pub(crate) struct LabelAt {
    pub(crate) at: u64,
    pub(crate) render: Render,
    pub(crate) len: u32,
}

impl LabelAt {
    /// Encode `label` onto `bytes` for the event at `at`; `None` for no
    /// label.
    pub(crate) fn encode(at: u64, label: Label<'_>, bytes: &mut Vec<u8>) -> Option<LabelAt> {
        let start = bytes.len();
        let render = label.encode(bytes)?;
        Some(LabelAt {
            at,
            render,
            len: (bytes.len() - start) as u32,
        })
    }
}

/// The ring's labels (see the module docs): the newest ones, oldest first,
/// and their bytes end to end in the same order.
#[derive(Default)]
struct Labels {
    kept: VecDeque<LabelAt>,
    bytes: VecDeque<u8>,
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
    fn render(self, label: Option<Arc<str>>) -> TraceEvent {
        let e = self.event;
        TraceEvent {
            seq: self.seq,
            at: Duration::from_nanos(e.stamp.at_nanos),
            call: e.call,
            session: e.stamp.session,
            kind: e.kind,
            label,
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
    /// The newest labels, each at its event's sequence number, oldest
    /// first (in publication order, so nearly in sequence order).
    labels: Mutex<Labels>,
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
            labels: Mutex::new(Labels::default()),
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
    /// consecutive sequence numbers reserved with one `fetch_add`. Labels
    /// are copied as bytes (see the module docs) as their slots are
    /// written, and kept once the page locks are released.
    pub(crate) fn record<'a>(
        &self,
        stamp: Stamp,
        events: impl ExactSizeIterator<Item = (CallId, EventKind, Label<'a>)>,
    ) {
        let n = events.len() as u64;
        if n == 0 {
            return;
        }
        let first = self.head.fetch_add(n, Ordering::Relaxed);
        // `take`: an iterator that yields more than it announced must not
        // write sequence numbers it never reserved.
        let mut events = events.take(n as usize);
        let (mut labels, mut bytes) = (Vec::new(), Vec::new());
        self.for_each_slot(first, n, |seq, slot| {
            if let Some((call, kind, label)) = events.next() {
                labels.extend(LabelAt::encode(seq, label, &mut bytes));
                store(slot, seq, Recorded { stamp, call, kind });
            }
        });
        self.keep_labels(labels.into_iter(), &bytes);
    }

    /// Publish a recorder's buffer: one `fetch_add` reserves a sequence
    /// number for every event in it, in buffer order. `labels` are the
    /// buffered events' labels, each at its index in `events`, and `bytes`
    /// theirs end to end. All three are left empty, their capacity kept
    /// for reuse.
    pub(crate) fn publish(
        &self,
        events: &mut Vec<Recorded>,
        labels: &mut Vec<LabelAt>,
        bytes: &mut Vec<u8>,
    ) {
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
        let at_seq = |label: LabelAt| LabelAt {
            at: first + label.at,
            ..label
        };
        self.keep_labels(labels.drain(..).map(at_seq), bytes);
        bytes.clear();
    }

    /// Add labels, each at its event's sequence number, with their bytes
    /// end to end, letting go of the oldest beyond [`LABELS`].
    fn keep_labels(&self, new: impl ExactSizeIterator<Item = LabelAt>, bytes: &[u8]) {
        if new.len() == 0 {
            return;
        }
        let mut labels = self.labels.lock();
        labels.kept.extend(new);
        labels.bytes.extend(bytes);
        let excess = labels.kept.len().saturating_sub(self.label_capacity);
        let freed: usize = labels.kept.drain(..excess).map(|l| l.len as usize).sum();
        labels.bytes.drain(..freed);
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
    /// still has for them: their bytes copied out under the labels' lock,
    /// and formatted with no lock held.
    fn render(&self, window: Vec<Stored>, keep: impl Fn(CallId) -> bool) -> Vec<TraceEvent> {
        let kept: Vec<Stored> = window.into_iter().filter(|e| keep(e.event.call)).collect();
        let wanted: HashSet<u64> = kept.iter().map(|e| e.seq).collect();
        let mut labels: HashMap<u64, (Render, Vec<u8>)> = HashMap::new();
        if !wanted.is_empty() {
            let store = self.labels.lock();
            let mut offset = 0;
            for label in &store.kept {
                let len = label.len as usize;
                if wanted.contains(&label.at) {
                    let bytes = store.bytes.range(offset..offset + len).copied().collect();
                    labels.insert(label.at, (label.render, bytes));
                }
                offset += len;
            }
        }
        kept.into_iter()
            .map(|e| {
                let label = labels
                    .remove(&e.seq)
                    .map(|(render, bytes)| render(&bytes).into());
                e.render(label)
            })
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
    fn push(ring: &TraceRing, at: Duration, call: CallId, kind: EventKind, label: Label<'_>) {
        ring.record(stamp(at, 0), [(call, kind, label)].into_iter());
    }

    thread_local! {
        /// How often this thread formatted a [`Counted`] label.
        static FORMATTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn formatted() -> u64 {
        FORMATTED.with(|f| f.get())
    }

    /// A request-like label source that counts, per reading thread, how
    /// often its label is formatted.
    struct Counted;

    impl LabelParts for Counted {
        fn encode(&self, out: &mut Vec<u8>) -> Render {
            out.extend_from_slice(b"Utah");
            |bytes| {
                FORMATTED.with(|f| f.set(f.get() + 1));
                format!("AV:count({:?})", String::from_utf8_lossy(bytes))
            }
        }
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
                (cid(1), EventKind::Registered, Label::Display(&"r")),
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
        let mut bytes = Vec::new();
        let mut labels: Vec<LabelAt> = LabelAt::encode(3, Label::Display(&"fourth"), &mut bytes)
            .into_iter()
            .collect();
        let capacity = buffer.capacity();
        ring.publish(&mut buffer, &mut labels, &mut bytes);
        assert!(buffer.is_empty() && buffer.capacity() == capacity, "kept");
        assert!(labels.is_empty() && bytes.is_empty());
        ring.publish(&mut buffer, &mut labels, &mut bytes);
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

    #[test]
    fn parts_are_formatted_when_read_not_when_recorded_and_pin_nothing() {
        let ring = TraceRing::new(8);
        let source = Arc::new(Counted);
        let at = Duration::ZERO;
        push(
            &ring,
            at,
            cid(1),
            EventKind::Registered,
            Label::Parts(&*source),
        );
        push(
            &ring,
            at,
            cid(1),
            EventKind::Failed,
            Label::Display(&"boom"),
        );
        push(&ring, at, cid(1), EventKind::Queued, Label::None);
        assert_eq!(formatted(), 0, "recording formats nothing");
        assert_eq!(Arc::strong_count(&source), 1, "and keeps nothing alive");
        let labels: Vec<Option<Arc<str>>> = ring
            .snapshot_since(0)
            .into_iter()
            .map(|e| e.label)
            .collect();
        assert_eq!(
            labels,
            vec![Some("AV:count(\"Utah\")".into()), Some("boom".into()), None]
        );
        assert_eq!(formatted(), 1);
        // The ring lets go of a label once as many newer ones are kept as
        // it has slots, and of its bytes with it.
        for i in 0..8 {
            push(
                &ring,
                at,
                cid(i),
                EventKind::Failed,
                Label::Display(&"later"),
            );
        }
        let labels = ring.labels.lock();
        assert_eq!((labels.kept.len(), labels.bytes.len()), (8, 8 * 5));
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
                Label::Display(&i),
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
        // Each newer event reads its own label, however far the bytes moved.
        assert!(events[3..]
            .iter()
            .all(|e| e.label.as_deref() == Some(e.seq.to_string().as_str())));
    }

    #[test]
    fn a_session_read_renders_only_that_sessions_calls() {
        let ring = TraceRing::new(64);
        // Eight calls, each registered by its own session and finished by
        // an untagged pump thread.
        for call in 1..=8u64 {
            ring.record(
                stamp(Duration::from_micros(call), call),
                [
                    (cid(call), EventKind::Registered, Label::Parts(&Counted)),
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
            formatted(),
            1,
            "one of the eight labels in the window is formatted"
        );
        assert!(ring.snapshot_for_session(0, 99).is_empty());
        assert_eq!(formatted(), 1);
    }

    #[test]
    fn a_window_costs_its_own_size_not_the_rings() {
        let ring = TraceRing::new(65_536);
        for i in 0..100_000u64 {
            push(
                &ring,
                Duration::from_nanos(i),
                cid(i),
                EventKind::Registered,
                Label::Parts(&Counted),
            );
        }
        let head = ring.position();
        assert_eq!((head, ring.dropped()), (100_000, 100_000 - 65_536));
        let window = ring.snapshot_since(head - 10);
        let seqs: Vec<u64> = window.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (head - 10..head).collect::<Vec<_>>());
        assert_eq!(formatted(), 10, "only the events returned are rendered");
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
