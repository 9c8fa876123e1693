//! The trace ring buffer: a fixed-capacity, lock-light, drop-counting
//! record of per-call lifecycle events.
//!
//! # Protocol
//!
//! A writer records one *step* at a time ([`TraceRing::record`]): the `n`
//! events the step produced, which share its timestamp and session. It
//! reserves `n` consecutive global sequence numbers with one `fetch_add`
//! on `head`, then writes each event into slot `seq & (capacity − 1)` (the
//! capacity is a power of two) under that slot's own mutex — per-slot
//! locking: writers to different slots never contend, and a snapshot
//! reader only blocks one writer at a time. A writer only stores an event
//! if its sequence number is newer than what the slot already holds, so a
//! slow writer lapped by the ring can never clobber fresher data.
//!
//! Because every reserved sequence number is written exactly once, the
//! number of *dropped* (overwritten) events is exactly
//! `head.saturating_sub(capacity)` — no separate drop counter can race.
//! The same protocol, batch reservation included, is model-checked under
//! schedcheck in `wsq-analyze::models::trace_ring_model`.

use parking_lot::Mutex;
use std::collections::HashSet;
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

/// What a slot keeps of an event's label: enough to render it when the
/// ring is read, so recording an event never formats anything. Emission
/// sites build one with [`crate::Obs::text`] / [`crate::Obs::display`],
/// which cost nothing on a disabled handle.
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

/// An event as a slot holds it: a [`TraceEvent`] whose label is still to
/// be rendered.
#[derive(Clone)]
struct Stored {
    seq: u64,
    at: Duration,
    call: CallId,
    session: u64,
    kind: EventKind,
    label: Label,
}

impl Stored {
    fn render(self) -> TraceEvent {
        TraceEvent {
            seq: self.seq,
            at: self.at,
            call: self.call,
            session: self.session,
            kind: self.kind,
            label: self.label.render(),
        }
    }
}

/// The fixed-capacity circular event buffer.
pub struct TraceRing {
    /// `None` until the slot is first written.
    slots: Box<[Mutex<Option<Stored>>]>,
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
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
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

    fn slot(&self, seq: u64) -> &Mutex<Option<Stored>> {
        &self.slots[(seq & (self.slots.len() as u64 - 1)) as usize]
    }

    /// Record the events of one step — all stamped `at`, all recorded for
    /// `session` — under consecutive sequence numbers reserved with one
    /// `fetch_add`. Nothing is formatted here: a slot parks its event's
    /// [`Label`] and the snapshot methods render it for whoever reads the
    /// event, so a label nobody reads costs a reference count.
    pub fn record(
        &self,
        at: Duration,
        session: u64,
        events: impl ExactSizeIterator<Item = (CallId, EventKind, Label)>,
    ) {
        let n = events.len();
        if n == 0 {
            return;
        }
        let first = self.head.fetch_add(n as u64, Ordering::Relaxed);
        // `take`: an iterator that yields more than it announced must not
        // write sequence numbers it never reserved.
        for (seq, (call, kind, label)) in (first..).zip(events.take(n)) {
            let mut guard = self.slot(seq).lock();
            // A writer lapped before acquiring the lock must not clobber the
            // fresher event already stored (its own event is simply dropped —
            // accounted for by `dropped()` since head already advanced).
            if guard.as_ref().is_none_or(|stored| seq > stored.seq) {
                *guard = Some(Stored {
                    seq,
                    at,
                    call,
                    session,
                    kind,
                    label,
                });
            }
        }
    }

    /// Every retained event with `seq >= since`, unrendered, ordered by
    /// sequence number. Only the slots that can hold such an event are
    /// visited — those of sequence numbers `max(since, recorded −
    /// capacity) .. recorded` — so a query's window costs its own size,
    /// not the ring's.
    fn window(&self, since: u64) -> Vec<Stored> {
        let head = self.position();
        let oldest = head.saturating_sub(self.slots.len() as u64);
        let mut events: Vec<Stored> = (since.max(oldest)..head)
            .filter_map(|seq| {
                // The slot may hold an older event (its writer has reserved
                // `seq` but not stored yet) or a newer one (lapped since
                // `head` was read): keep whatever falls in the window.
                let slot = self.slot(seq).lock();
                slot.as_ref().filter(|stored| stored.seq >= since).cloned()
            })
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Every retained event with `seq >= since`, ordered by sequence
    /// number. Pass `0` for the full ring, or a saved
    /// [`TraceRing::position`] for a per-query window. Only the events
    /// returned have their labels rendered, with no slot lock held.
    pub fn snapshot_since(&self, since: u64) -> Vec<TraceEvent> {
        self.window(since).into_iter().map(Stored::render).collect()
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
            .filter(|e| e.session == session)
            .map(|e| e.call)
            .collect();
        window
            .into_iter()
            .filter(|e| calls.contains(&e.call))
            .map(Stored::render)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(n: u64) -> CallId {
        CallId(n)
    }

    /// A one-event step recorded for no session.
    fn push(ring: &TraceRing, at: Duration, call: CallId, kind: EventKind, label: Label) {
        ring.record(at, 0, [(call, kind, label)].into_iter());
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
            Duration::from_micros(5),
            3,
            [
                (cid(1), EventKind::Registered, Label::Text("r".into())),
                (cid(1), EventKind::Queued, Label::None),
            ]
            .into_iter(),
        );
        ring.record(Duration::from_micros(6), 3, std::iter::empty());
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
    }

    #[test]
    fn overwrites_oldest_and_counts_drops_exactly() {
        let ring = TraceRing::new(4);
        // Steps of one, two and three events: a batch wraps like singles.
        let mut next = 0usize;
        for len in [1usize, 2, 3, 1, 3] {
            let step = (next..next + len).map(|i| (cid(i as u64), EventKind::Queued, Label::None));
            ring.record(Duration::from_millis(next as u64), 0, step);
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
        // An overwritten slot lets go of what it parked.
        for i in 0..8 {
            push(&ring, at, cid(i), EventKind::Queued, Label::None);
        }
        assert_eq!(Arc::strong_count(&source), 1);
    }

    #[test]
    fn a_session_read_renders_only_that_sessions_calls() {
        let ring = TraceRing::new(64);
        let source = Arc::new(Counted(AtomicU64::new(0)));
        // Eight calls, each registered by its own session and finished by
        // an untagged pump thread.
        for call in 1..=8u64 {
            ring.record(
                Duration::from_micros(call),
                call,
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
                        ring.record(Duration::from_nanos(i as u64), t, step);
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
