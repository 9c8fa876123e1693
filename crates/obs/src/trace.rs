//! The trace ring buffer: a fixed-capacity, lock-light, drop-counting
//! record of per-call lifecycle events.
//!
//! # Protocol
//!
//! Writers reserve a global sequence number with one `fetch_add` on
//! `head`, then write their event into slot `seq % capacity` under that
//! slot's own mutex (per-slot locking — writers to different slots never
//! contend, and a snapshot reader only blocks one writer at a time).
//! A writer only stores its event if its sequence number is newer than
//! what the slot already holds, so a slow writer lapped by the ring can
//! never clobber fresher data.
//!
//! Because every reserved sequence number is written exactly once, the
//! number of *dropped* (overwritten) events is exactly
//! `head.saturating_sub(capacity)` — no separate drop counter can race.
//! The same protocol is model-checked under schedcheck in
//! `wsq-analyze::models::trace_ring_model`.

use parking_lot::Mutex;
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
    /// threads). Set from the thread-local [`crate::session_scope`].
    pub session: u64,
    /// What happened.
    pub kind: EventKind,
    /// Optional annotation: the request display on `Registered` (rendered
    /// when the ring is read, see [`TraceRing::push_display`]), the error
    /// text on `Failed`. Shared, so cloning a snapshot is cheap.
    pub label: Option<Arc<str>>,
}

/// What a slot keeps of an event's label: enough to render it when the
/// ring is read, so recording an event never formats anything.
#[derive(Clone)]
enum Label {
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
struct Stored {
    seq: u64,
    at: Duration,
    call: CallId,
    session: u64,
    kind: EventKind,
    label: Label,
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
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
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

    /// Record one event, assigning it the next sequence number. A `label`
    /// is text the caller already holds; the slot keeps the reference.
    pub fn push(&self, at: Duration, call: CallId, kind: EventKind, label: Option<Arc<str>>) {
        self.store(at, call, kind, label.map_or(Label::None, Label::Text));
    }

    /// Record one event whose label is `source`'s `Display`. Nothing is
    /// formatted here: the slot parks the shared `source` and
    /// [`TraceRing::snapshot_since`] renders it for whoever reads the
    /// event, so a label nobody reads costs a reference count.
    pub fn push_display(
        &self,
        at: Duration,
        call: CallId,
        kind: EventKind,
        source: Arc<dyn fmt::Display + Send + Sync>,
    ) {
        self.store(at, call, kind, Label::Display(source));
    }

    fn store(&self, at: Duration, call: CallId, kind: EventKind, label: Label) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = slot.lock();
        // A writer lapped before acquiring the lock must not clobber the
        // fresher event already stored (its own event is simply dropped —
        // accounted for by `dropped()` since head already advanced).
        if guard.as_ref().is_none_or(|stored| seq > stored.seq) {
            *guard = Some(Stored {
                seq,
                at,
                call,
                session: crate::current_session(),
                kind,
                label,
            });
        }
    }

    /// Every retained event with `seq >= since`, ordered by sequence
    /// number. Pass `0` for the full ring, or a saved
    /// [`TraceRing::position`] for a per-query window.
    ///
    /// Only the slots that can hold such an event are visited — those of
    /// sequence numbers `max(since, recorded − capacity) .. recorded` — so
    /// a query's window costs its own size, not the ring's; and only the
    /// events returned have their labels rendered (see
    /// [`TraceRing::push_display`]), after their slot's lock is released.
    pub fn snapshot_since(&self, since: u64) -> Vec<TraceEvent> {
        let head = self.position();
        let oldest = head.saturating_sub(self.slots.len() as u64);
        let mut events = Vec::new();
        for seq in since.max(oldest)..head {
            let (mut event, label) = {
                let slot = self.slots[(seq % self.slots.len() as u64) as usize].lock();
                // The slot may hold an older event (its writer has reserved
                // `seq` but not stored yet) or a newer one (lapped since
                // `head` was read): keep whatever falls in the window.
                let Some(stored) = slot.as_ref().filter(|stored| stored.seq >= since) else {
                    continue;
                };
                let event = TraceEvent {
                    seq: stored.seq,
                    at: stored.at,
                    call: stored.call,
                    session: stored.session,
                    kind: stored.kind,
                    label: None,
                };
                (event, stored.label.clone())
            };
            event.label = label.render();
            events.push(event);
        }
        events.sort_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid(n: u64) -> CallId {
        CallId(n)
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = TraceRing::new(8);
        ring.push(
            Duration::from_millis(1),
            cid(1),
            EventKind::Registered,
            None,
        );
        ring.push(Duration::from_millis(2), cid(1), EventKind::Launched, None);
        ring.push(Duration::from_millis(3), cid(1), EventKind::Completed, None);
        let events = ring.snapshot_since(0);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Registered);
        assert_eq!(events[2].kind, EventKind::Completed);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overwrites_oldest_and_counts_drops_exactly() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.push(Duration::from_millis(i), cid(i), EventKind::Queued, None);
        }
        assert_eq!(ring.dropped(), 6);
        let events = ring.snapshot_since(0);
        assert_eq!(events.len(), 4);
        // The survivors are the newest four, in order.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn snapshot_since_scopes_a_window() {
        let ring = TraceRing::new(16);
        ring.push(Duration::ZERO, cid(1), EventKind::Registered, None);
        let pos = ring.position();
        ring.push(Duration::ZERO, cid(2), EventKind::Registered, None);
        ring.push(Duration::ZERO, cid(2), EventKind::Launched, None);
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
        ring.push_display(
            Duration::ZERO,
            cid(1),
            EventKind::Registered,
            source.clone(),
        );
        ring.push(
            Duration::ZERO,
            cid(1),
            EventKind::Failed,
            Some("boom".into()),
        );
        ring.push(Duration::ZERO, cid(1), EventKind::Queued, None);
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
            ring.push(Duration::ZERO, cid(i), EventKind::Queued, None);
        }
        assert_eq!(Arc::strong_count(&source), 1);
    }

    #[test]
    fn a_window_costs_its_own_size_not_the_rings() {
        let ring = TraceRing::new(65_536);
        let source = Arc::new(Counted(AtomicU64::new(0)));
        for i in 0..100_000u64 {
            ring.push_display(
                Duration::from_nanos(i),
                cid(i),
                EventKind::Registered,
                source.clone(),
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
                    for i in 0..256u64 {
                        ring.push(
                            Duration::from_nanos(i),
                            cid(t * 1000 + i),
                            EventKind::Queued,
                            None,
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.position(), 8 * 256);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.snapshot_since(0).len(), 8 * 256);
    }
}
