//! Deterministic-schedule models of the obs trace ring.
//!
//! The ring (`crates/obs/src/trace.rs`) publishes through atomics, which
//! [`schedcheck`] does not model, so it is re-stated here at its exact
//! lock boundaries in terms of schedcheck primitives — one sequence
//! reservation per batch, per-page slot writes with a seq-guard against
//! lapped writers — and the checker explores **every** thread
//! interleaving of that model, requiring the tree to be exhausted:
//!
//! - `trace_ring_loses_nothing_below_capacity`: below capacity nothing is
//!   lost and a concurrent snapshot reader never sees a torn or unsorted
//!   view.
//! - `trace_ring_overwrite_keeps_newest_and_counts_drops_exactly`: at
//!   capacity exactly the newest events survive and the dropped count is
//!   exact.
//!
//! The ReqPump and ReqSync's use of it need no model: with the
//! `parking_lot` shim's `schedcheck` feature their locks are the checker's
//! scheduling points, and `crates/pump/tests/schedcheck.rs` checks the
//! real pump.

use schedcheck::sync::Mutex;
use schedcheck::{check_with, thread, Config};
use std::sync::Arc;

/// Explore every schedule of `model` (a small protocol, so the tree
/// exhausts well inside the caps) and require more than one.
fn explore(model: impl Fn() + Send + Sync + 'static) {
    let config = Config {
        max_schedules: 50_000,
        max_steps: 5_000,
        ..Config::default()
    };
    let stats = check_with(config, model);
    assert!(stats.complete, "exploration hit the schedule cap");
    assert!(stats.schedules >= 2, "expected multiple interleavings");
}

// ---------------------------------------------------------------------
// The obs trace ring (crates/obs trace.rs push/snapshot).
// ---------------------------------------------------------------------

/// The ring at `obs::TraceRing`'s exact lock boundaries. A writer adds a
/// batch at a time — a query recorder's whole buffer
/// ([`MiniRing::publish`]) or, on a thread with no recorder, one step's
/// events ([`MiniRing::record`]). It reserves the batch's sequence numbers
/// first (one atomic `fetch_add(n)` in the real code — a mutexed counter
/// here, schedcheck models no atomics), then writes slot
/// `seq & (capacity − 1)` for each, taking each page of `page_slots`
/// consecutive slots once per run of its slots, and storing only if the
/// slot holds nothing newer — a lapped slow writer must never clobber
/// fresher data.
struct MiniRing {
    head: Mutex<u64>,
    page_slots: usize,
    /// `(seq, value)` per slot, `page_slots` to a page; `None` = never
    /// written.
    pages: Vec<MiniPage>,
}

/// One page of `MiniRing` slots under its lock.
type MiniPage = Mutex<Vec<Option<(u64, u64)>>>;

impl MiniRing {
    fn new(capacity: usize, page_slots: usize) -> MiniRing {
        MiniRing {
            head: Mutex::new(0),
            page_slots,
            pages: (0..capacity / page_slots)
                .map(|_| Mutex::new(vec![None; page_slots]))
                .collect(),
        }
    }

    fn capacity(&self) -> usize {
        self.pages.len() * self.page_slots
    }

    /// `TraceRing::publish`: one reservation for the whole buffer, which
    /// is left empty for the recorder to reuse.
    fn publish(&self, buffer: &mut Vec<u64>) {
        self.record(buffer);
        buffer.clear();
    }

    /// `TraceRing::record`: one reservation for the batch's `values`,
    /// then the guarded writes, page by page.
    fn record(&self, values: &[u64]) {
        let first = {
            let mut h = self.head.lock();
            let s = *h;
            *h += values.len() as u64;
            s
        };
        let mut values = values.iter();
        self.for_each_slot(first, values.len() as u64, |seq, slot| {
            let Some(&value) = values.next() else { return };
            match *slot {
                // Someone with a newer sequence got here first: drop ours.
                Some((cur, _)) if cur > seq => {}
                _ => *slot = Some((seq, value)),
            }
        });
    }

    /// `TraceRing::for_each_slot`: visit the slots of `first .. first + n`
    /// in order, locking each page once per run of its slots.
    fn for_each_slot(&self, first: u64, n: u64, mut f: impl FnMut(u64, &mut Option<(u64, u64)>)) {
        let (mut seq, end) = (first, first + n);
        while seq < end {
            let index = seq as usize & (self.capacity() - 1);
            let (page, offset) = (index / self.page_slots, index % self.page_slots);
            let run = ((self.page_slots - offset) as u64).min(end - seq) as usize;
            let mut slots = self.pages[page].lock();
            for slot in &mut slots[offset..offset + run] {
                f(seq, slot);
                seq += 1;
            }
        }
    }

    /// Exact by construction: every reserved sequence is written exactly
    /// once, so the ring holds the `capacity` newest once it wraps.
    fn dropped(&self) -> u64 {
        self.head.lock().saturating_sub(self.capacity() as u64)
    }

    fn snapshot_since(&self, pos: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        self.for_each_slot(0, self.capacity() as u64, |_, slot| {
            out.extend(slot.filter(|&(seq, _)| seq >= pos));
        });
        out.sort_unstable();
        out
    }
}

/// A snapshot's internal invariants, checked at any point in the race:
/// no duplicate sequence numbers, never more events than slots.
fn assert_snapshot_sane(snap: &[(u64, u64)], capacity: usize) {
    assert!(snap.len() <= capacity, "snapshot larger than the ring");
    for pair in snap.windows(2) {
        assert!(pair[0].0 < pair[1].0, "duplicate sequence in snapshot");
    }
}

/// Below capacity nothing is ever lost: a recorder publishing a
/// one-event buffer races a recorder-less writer's one-event step into a
/// 2-slot ring (a page per slot) while the main thread snapshots
/// mid-race; every reserved sequence is present afterwards and the drop
/// counter is 0. (The ring is kept at two slots so the schedule tree
/// exhausts; the protocol is page-local, so width adds no new
/// interleavings.)
#[test]
fn trace_ring_loses_nothing_below_capacity() {
    explore(|| {
        let ring = Arc::new(MiniRing::new(2, 1));
        let r = ring.clone();
        let recorder = thread::spawn(move || {
            let mut buffer = vec![10u64];
            r.publish(&mut buffer);
            assert!(buffer.is_empty(), "a published buffer is left empty");
        });
        let r = ring.clone();
        let direct = thread::spawn(move || r.record(&[20]));
        let writers = [recorder, direct];
        // Concurrent reader: whatever prefix of the race it observes
        // must be internally consistent.
        assert_snapshot_sane(&ring.snapshot_since(0), 2);
        for w in writers {
            w.join();
        }
        let snap = ring.snapshot_since(0);
        assert_snapshot_sane(&snap, 2);
        let seqs: Vec<u64> = snap.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1], "an event was lost below capacity");
        assert_eq!(ring.dropped(), 0);
        // Every written value survived, whatever sequence it drew.
        let mut values: Vec<u64> = snap.iter().map(|(_, v)| *v).collect();
        values.sort_unstable();
        assert_eq!(values, vec![10, 20]);
    });
}

/// At capacity the ring keeps exactly the newest `capacity` events and
/// counts drops exactly: two recorders each publish a 2-event buffer
/// (one reservation each) through 2 slots, a page per slot, and leave
/// sequences {2, 3} and `dropped() == 2` under **every** interleaving —
/// the seq-guard means even a lapped writer scheduled last, midway
/// through its buffer, cannot resurrect an old event.
#[test]
fn trace_ring_overwrite_keeps_newest_and_counts_drops_exactly() {
    explore(|| {
        let ring = Arc::new(MiniRing::new(2, 1));
        let writers: Vec<_> = [10u64, 20u64]
            .into_iter()
            .map(|base| {
                let r = ring.clone();
                thread::spawn(move || r.publish(&mut vec![base, base + 1]))
            })
            .collect();
        assert_snapshot_sane(&ring.snapshot_since(0), 2);
        for w in writers {
            w.join();
        }
        let snap = ring.snapshot_since(0);
        let seqs: Vec<u64> = snap.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![2, 3], "ring must keep exactly the newest events");
        assert_eq!(ring.dropped(), 2, "drop counter must be exact");
        // The survivors are one buffer's two events, in buffer order.
        let values: Vec<u64> = snap.iter().map(|(_, v)| *v).collect();
        assert!(values == [10, 11] || values == [20, 21], "{values:?}");
        // A window query that starts after the drop horizon sees only
        // its own events.
        assert_eq!(ring.snapshot_since(3).len(), 1);
    });
}
