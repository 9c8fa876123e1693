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
    /// The call was handed to its service as part of a windowed
    /// `execute_batch` dispatch (instead of a per-request `Launched`
    /// handoff; the `Launched` event still fires when capacity is taken).
    BatchLaunched,
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
            EventKind::BatchLaunched => "batch-launched",
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
    /// Optional annotation: the request display on `Registered`, the
    /// error text on `Failed`. Shared, so cloning a snapshot is cheap.
    pub label: Option<Arc<str>>,
}

struct Slot {
    /// Sequence number of the stored event; `u64::MAX` marks empty.
    seq: u64,
    event: Option<TraceEvent>,
}

/// The fixed-capacity circular event buffer.
pub struct TraceRing {
    slots: Box<[Mutex<Slot>]>,
    head: AtomicU64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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
            slots: (0..capacity)
                .map(|_| {
                    Mutex::new(Slot {
                        seq: u64::MAX,
                        event: None,
                    })
                })
                .collect(),
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

    /// Record one event, assigning it the next sequence number.
    pub fn push(&self, at: Duration, call: CallId, kind: EventKind, label: Option<Arc<str>>) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = slot.lock();
        // A writer lapped before acquiring the lock must not clobber the
        // fresher event already stored (its own event is simply dropped —
        // accounted for by `dropped()` since head already advanced).
        if guard.seq == u64::MAX || seq > guard.seq {
            guard.seq = seq;
            guard.event = Some(TraceEvent {
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
    pub fn snapshot_since(&self, since: u64) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .slots
            .iter()
            .filter_map(|s| {
                let guard = s.lock();
                guard.event.as_ref().filter(|e| e.seq >= since).cloned()
            })
            .collect();
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
