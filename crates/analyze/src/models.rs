//! Deterministic-schedule models of the PR-1 concurrency hot paths.
//!
//! Each model re-states one protocol from `crates/pump`, the engine's
//! ReqSync, or `crates/obs` in terms of [`schedcheck`]
//! primitives and lets the checker explore **every** thread interleaving
//! reachable from its synchronization points. The models mirror the real
//! code shape (same lock boundaries, same publish orders) rather than
//! calling into it — the real modules spawn OS worker threads and sleep on
//! wall-clock deadlines, which a deterministic scheduler cannot control.
//!
//! What each model proves (within exhaustive bounds — see
//! [`Stats::complete`](schedcheck::Stats)):
//!
//! - [`targeted_wakeup_model`]: ReqPump's `Waiter` protocol (register
//!   interest under the state lock → sleep on a private slot; completion
//!   publishes the result *then* wakes interested waiters outside the
//!   lock) never loses a wakeup, never delivers twice into one slot, and
//!   never wakes a waiter for a call whose result is absent.
//! - [`batched_drain_model`]: the `take_completed` bulk-drain loop that
//!   `ReqSyncExec` runs processes every completion exactly once and
//!   terminates under every schedule.
//! - [`stall_resume_model`]: the admission-control handshake a *capped*
//!   ReqSync runs (DESIGN.md §11) — admit until full, then alternate
//!   `take_completed` drains with `wait_any` until the low-water mark —
//!   never loses a wakeup (even when the pump completes the last
//!   pending call exactly as the scan stalls), never patches twice,
//!   never exceeds the cap, and cannot deadlock at `cap == 1`.
//! - [`trace_ring_model`] / [`trace_ring_overwrite_model`]: the obs
//!   trace ring's reserve-then-write protocol (`crates/obs/trace.rs`)
//!   loses nothing below capacity, keeps exactly the newest events at
//!   capacity, reports the dropped count exactly, and never shows a
//!   concurrent snapshot reader a torn or unsorted view.
//! - [`race_cancel_model`]: the PR-10 race-group protocol (`pump.rs`
//!   `register_race` / group decide / loser cancellation) — N racing
//!   member completions vs the group waiter vs a caller coalesced onto
//!   one member: the group decides exactly once, loser cancellation
//!   releases only the race's slot ref (a coalesced joiner's ref keeps
//!   the slot alive and its wakeup is never lost), a reclaimed slot
//!   never receives a delivery, and no slot ref leaks.
//! - [`caller_launch_model`]: the event-loop dispatcher's launch step
//!   (`pump.rs` `launch_ready` / `event_loop`) — two registering threads
//!   and the timer thread under a global cap of 1, one reply instant and
//!   one timed: every call launches exactly once on whichever thread
//!   made it launchable, the cap is never exceeded, and once the
//!   threads go quiet no call is left queued, parked or in flight
//!   (whoever frees capacity re-runs the launch step, in the hold that
//!   freed it).

use schedcheck::sync::{Condvar, Mutex, MutexGuard};
use schedcheck::{check_with, thread, Config, Stats};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Exploration bounds for all models: small protocols, so the schedule
/// trees exhaust well inside these caps.
fn bounds() -> Config {
    Config {
        max_schedules: 50_000,
        max_steps: 5_000,
    }
}

// ---------------------------------------------------------------------
// Model 1: ReqPump targeted wakeups (pump.rs `Waiter` / `complete_locked` / `wake`).
// ---------------------------------------------------------------------

/// One blocked `wait_any` caller, exactly as in `pump.rs`: a private
/// slot + condvar; `wake` is write-once.
struct Waiter {
    slot: Mutex<Option<u64>>,
    cv: Condvar,
    /// Deliveries that actually landed (for the no-double-delivery
    /// assertion; the real code has no such counter).
    delivered: Mutex<u32>,
}

impl Waiter {
    fn new() -> Waiter {
        Waiter {
            slot: Mutex::new(None),
            cv: Condvar::new(),
            delivered: Mutex::new(0),
        }
    }

    fn wake(&self, cid: u64) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(cid);
            let mut d = self.delivered.lock();
            *d += 1;
            assert!(*d <= 1, "double delivery into one waiter slot");
            self.cv.notify_one();
        }
    }

    fn sleep(&self) -> u64 {
        let mut slot = self.slot.lock();
        loop {
            if let Some(cid) = *slot {
                return cid;
            }
            slot = self.cv.wait(slot);
        }
    }
}

/// Shared pump state: completed results and per-call interest lists,
/// both under one lock, as in `pump.rs::State`.
#[derive(Default)]
struct PumpState {
    results: BTreeMap<u64, u64>,
    interest: BTreeMap<u64, Vec<Arc<Waiter>>>,
}

struct MiniPump {
    state: Mutex<PumpState>,
}

impl MiniPump {
    fn new() -> MiniPump {
        MiniPump {
            state: Mutex::new(PumpState::default()),
        }
    }

    /// `pump.rs::ReqPump::wait_any`: fast-path check and interest
    /// registration under one lock acquisition, then sleep, then
    /// deregister.
    fn wait_any(&self, calls: &[u64]) -> u64 {
        let waiter = {
            let mut st = self.state.lock();
            if let Some(&done) = calls.iter().find(|c| st.results.contains_key(c)) {
                return done;
            }
            let waiter = Arc::new(Waiter::new());
            for &c in calls {
                st.interest.entry(c).or_default().push(waiter.clone());
            }
            waiter
        };
        let cid = waiter.sleep();
        let mut st = self.state.lock();
        for &c in calls {
            if let Some(list) = st.interest.get_mut(&c) {
                list.retain(|w| !Arc::ptr_eq(w, &waiter));
                if list.is_empty() {
                    st.interest.remove(&c);
                }
            }
        }
        cid
    }

    /// `pump.rs::complete_locked`: publish the result and detach the interest
    /// list under the lock; wake the waiters outside it.
    fn complete(&self, cid: u64, value: u64) {
        let waiters = {
            let mut st = self.state.lock();
            st.results.insert(cid, value);
            st.interest.remove(&cid).unwrap_or_default()
        };
        for w in waiters {
            w.wake(cid);
        }
    }

    fn take_completed(&self, calls: &[u64]) -> Vec<(u64, u64)> {
        let st = self.state.lock();
        calls
            .iter()
            .filter_map(|c| st.results.get(c).map(|v| (*c, *v)))
            .collect()
    }
}

/// No lost wakeup, no double delivery, no phantom wake: one waiter on
/// `{1, 2}` races two completer threads.
pub fn targeted_wakeup_model() -> Stats {
    check_with(bounds(), || {
        let pump = Arc::new(MiniPump::new());
        let completers: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|cid| {
                let p = pump.clone();
                thread::spawn(move || p.complete(cid, cid * 10))
            })
            .collect();
        let got = pump.wait_any(&[1, 2]);
        // The wake must name a call whose result is actually published
        // (no phantom wakeup), and the value must be the completer's.
        let st = pump.state.lock();
        assert_eq!(st.results.get(&got), Some(&(got * 10)), "phantom wakeup");
        drop(st);
        for c in completers {
            c.join();
        }
        // Both results present; no interest entry leaked.
        let st = pump.state.lock();
        assert_eq!(st.results.len(), 2, "a completion vanished");
        assert!(st.interest.is_empty(), "leaked interest registration");
    })
}

/// The `ReqSyncExec::drain_completions` shape: block on `wait_any`,
/// bulk-drain with `take_completed`, repeat until all calls are
/// patched. Every completion is processed exactly once.
pub fn batched_drain_model() -> Stats {
    check_with(bounds(), || {
        let pump = Arc::new(MiniPump::new());
        let completers: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|cid| {
                let p = pump.clone();
                thread::spawn(move || p.complete(cid, cid + 100))
            })
            .collect();
        let mut pending: Vec<u64> = vec![1, 2];
        let mut processed: BTreeMap<u64, u64> = BTreeMap::new();
        while !pending.is_empty() {
            let _woke = pump.wait_any(&pending);
            let drained = pump.take_completed(&pending);
            assert!(
                !drained.is_empty(),
                "wait_any returned but the drain found nothing"
            );
            for (cid, v) in drained {
                // Exactly-once: pending still contains the call, and we
                // have not patched it before.
                assert!(
                    processed.insert(cid, v).is_none(),
                    "double delivery of call {cid}"
                );
                pending.retain(|c| *c != cid);
            }
        }
        assert_eq!(processed.len(), 2);
        assert_eq!(processed[&1], 101);
        assert_eq!(processed[&2], 102);
        for c in completers {
            c.join();
        }
    })
}

/// The capped `ReqSyncExec` admission loop (`stall_until_low_water`),
/// at the real code's exact synchronization points: admit one call per
/// child pull; at `cap` buffered, alternate a `take_completed` drain
/// with `wait_any` until occupancy reaches the low-water mark
/// (`cap / 2`); after the child is exhausted, drain the tail the same
/// way. Completer threads race the whole loop (`split` uses two, so
/// completion order itself is explored adversarially).
///
/// The checker proves, over every interleaving: every call is patched
/// exactly once, occupancy never exceeds the cap, and the loop always
/// terminates — in particular the stall cannot miss the completion of
/// its last pending call (`wait_any`'s fast path re-checks `results`
/// under the same lock that registers interest), and `cap == 1`, the
/// tightest setting, admits → waits → drains without deadlock.
pub fn stall_resume_model(cap: usize, split: bool) -> Stats {
    fn drain(pump: &MiniPump, buffered: &mut Vec<u64>, processed: &mut BTreeMap<u64, u64>) {
        for (cid, v) in pump.take_completed(buffered) {
            assert!(processed.insert(cid, v).is_none(), "double patch of {cid}");
            buffered.retain(|c| *c != cid);
        }
    }
    check_with(bounds(), move || {
        let pump = Arc::new(MiniPump::new());
        // One completer finishing three calls in order, or — to explore
        // completion *order* adversarially without exploding the
        // schedule tree — two completers racing over one call each.
        let jobs: Vec<Vec<u64>> = if split {
            vec![vec![1], vec![2]]
        } else {
            vec![vec![1, 2, 3]]
        };
        let n = if split { 2u64 } else { 3u64 };
        let completers: Vec<_> = jobs
            .into_iter()
            .map(|cids| {
                let p = pump.clone();
                thread::spawn(move || {
                    for cid in cids {
                        p.complete(cid, cid + 100);
                    }
                })
            })
            .collect();
        let mut buffered: Vec<u64> = Vec::new();
        let mut processed: BTreeMap<u64, u64> = BTreeMap::new();
        let mut high_water = 0usize;
        for cid in 1..=n {
            buffered.push(cid);
            high_water = high_water.max(buffered.len());
            if buffered.len() >= cap {
                let low = cap / 2;
                loop {
                    drain(&pump, &mut buffered, &mut processed);
                    if buffered.len() <= low {
                        break;
                    }
                    pump.wait_any(&buffered);
                }
            }
        }
        while !buffered.is_empty() {
            pump.wait_any(&buffered);
            drain(&pump, &mut buffered, &mut processed);
        }
        for c in completers {
            c.join();
        }
        assert_eq!(processed.len(), n as usize, "a call was never patched");
        for cid in 1..=n {
            assert_eq!(processed.get(&cid), Some(&(cid + 100)));
        }
        assert!(
            high_water <= cap,
            "occupancy {high_water} exceeded the cap {cap}"
        );
    })
}

// ---------------------------------------------------------------------
// Models 5–6: the obs trace ring (crates/obs trace.rs push/snapshot).
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
pub fn trace_ring_model() -> Stats {
    check_with(bounds(), || {
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
    })
}

/// At capacity the ring keeps exactly the newest `capacity` events and
/// counts drops exactly: two recorders each publish a 2-event buffer
/// (one reservation each) through 2 slots, a page per slot, and leave
/// sequences {2, 3} and `dropped() == 2` under **every** interleaving —
/// the seq-guard means even a lapped writer scheduled last, midway
/// through its buffer, cannot resurrect an old event.
pub fn trace_ring_overwrite_model() -> Stats {
    check_with(bounds(), || {
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
    })
}

// ---------------------------------------------------------------------
// Model 10: PR-10 engine racing (pump.rs `register_race` / group decide
// / loser cancellation racing coalesced joiners).
// ---------------------------------------------------------------------

/// The race-group state at `pump.rs`'s lock boundaries: per-member slot
/// refcounts (the group holds one ref per member; a coalesced joiner
/// holds its own), the undecided member set, and the group's write-once
/// decision.
struct RaceGroupState {
    /// Published member results. A reclaimed slot can never receive one.
    results: BTreeMap<u64, u64>,
    /// Slot refcounts; dropping to zero reclaims the slot.
    refs: BTreeMap<u64, u32>,
    /// Members still racing (the group is undecided while the winner is
    /// unset).
    pending: Vec<u64>,
    winner: Option<u64>,
    /// Group deliveries (write-once: must end at exactly 1).
    published: u32,
    cancelled: u32,
}

fn release_ref(st: &mut RaceGroupState, cid: u64) {
    let r = st.refs.get_mut(&cid).expect("release of unknown slot");
    assert!(*r > 0, "double release of slot {cid}");
    *r -= 1;
}

struct MiniRacePump {
    state: Mutex<RaceGroupState>,
    cv: Condvar,
}

impl MiniRacePump {
    fn new(members: &[u64], coalesced_on: u64) -> MiniRacePump {
        let mut refs = BTreeMap::new();
        for &m in members {
            refs.insert(m, 1); // the race group's ref
        }
        *refs.get_mut(&coalesced_on).unwrap() += 1; // the joiner's ref
        MiniRacePump {
            state: Mutex::new(RaceGroupState {
                results: BTreeMap::new(),
                refs,
                pending: members.to_vec(),
                winner: None,
                published: 0,
                cancelled: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// `pump.rs::complete_locked` for a race member: publish under the lock;
    /// the first completion decides the group and cancels the losers —
    /// releasing only the *race's* ref on each, so a coalesced joiner's
    /// ref keeps its slot alive — then wakes everyone after the lock
    /// drops (the real `complete_locked` order).
    fn complete(&self, cid: u64) {
        {
            let mut st = self.state.lock();
            if st.refs.get(&cid).copied().unwrap_or(0) == 0 {
                // Slot reclaimed by cancellation before the worker
                // finished: the result is discarded, never delivered.
                assert!(
                    !st.results.contains_key(&cid),
                    "delivery into a reclaimed slot"
                );
                return;
            }
            assert!(
                st.results.insert(cid, cid + 100).is_none(),
                "double delivery for member {cid}"
            );
            if st.winner.is_none() {
                st.winner = Some(cid);
                st.published += 1;
                assert_eq!(st.published, 1, "group decided twice");
                st.pending.retain(|m| *m != cid);
                let losers: Vec<u64> = st.pending.drain(..).collect();
                for l in losers {
                    st.cancelled += 1;
                    release_ref(&mut st, l);
                }
            }
        }
        self.cv.notify_all();
    }

    /// The group waiter (`wait_any` on the group id): sleep until the
    /// race decides, then consume the winner (drop the group's ref on
    /// it).
    fn group_wait(&self) -> u64 {
        let mut st = self.state.lock();
        let winner = loop {
            if let Some(w) = st.winner {
                break w;
            }
            st = self.cv.wait(st);
        };
        assert!(
            st.results.contains_key(&winner),
            "group decided before its winner's result was published"
        );
        release_ref(&mut st, winner);
        winner
    }

    /// A caller coalesced onto one member *before* the race decided:
    /// its ref must keep the slot alive through a cancellation, and its
    /// wakeup must never be lost.
    fn coalesced_wait(&self, cid: u64) -> u64 {
        let mut st = self.state.lock();
        let v = loop {
            if let Some(v) = st.results.get(&cid) {
                break *v;
            }
            st = self.cv.wait(st);
        };
        release_ref(&mut st, cid);
        v
    }
}

/// `n` racing member completions vs the group waiter vs a caller
/// coalesced onto the last member. Over every interleaving: the group
/// decides exactly once with a member whose result is actually
/// published, exactly `n - 1` losers are cancelled, the coalesced
/// joiner always observes its member's real result (cancellation drops
/// only the race's ref, so the slot outlives the lost race), a
/// reclaimed slot never receives a delivery, and every slot ref is
/// released (no leak).
pub fn race_cancel_model(n: u64) -> Stats {
    // Three member completers + the joiner + the group waiter is the
    // widest thread set in this module; the tree still exhausts, just
    // above the shared 50k cap.
    let race_bounds = Config {
        max_schedules: 600_000,
        max_steps: 5_000,
    };
    check_with(race_bounds, move || {
        let members: Vec<u64> = (1..=n).collect();
        let coalesced = n;
        let pump = Arc::new(MiniRacePump::new(&members, coalesced));
        let completers: Vec<_> = members
            .iter()
            .map(|&cid| {
                let p = pump.clone();
                thread::spawn(move || p.complete(cid))
            })
            .collect();
        let joiner = {
            let p = pump.clone();
            thread::spawn(move || p.coalesced_wait(coalesced))
        };
        let winner = pump.group_wait();
        let joined = joiner.join();
        for c in completers {
            c.join();
        }
        let st = pump.state.lock();
        assert!(members.contains(&winner), "winner outside the group");
        assert_eq!(
            st.results.get(&winner),
            Some(&(winner + 100)),
            "phantom group decision"
        );
        assert_eq!(
            joined,
            coalesced + 100,
            "coalesced joiner observed a wrong result"
        );
        assert_eq!(st.published, 1, "the group must decide exactly once");
        assert_eq!(st.cancelled, n as u32 - 1, "loser count off");
        assert!(
            st.refs.values().all(|&r| r == 0),
            "leaked slot refs: {:?}",
            st.refs
        );
    })
}

// ---------------------------------------------------------------------
// Model 11: caller-side launch (pump.rs `launch_ready` / `event_loop`).
// ---------------------------------------------------------------------

/// `pump.rs::State` at the launch step's lock boundaries: the queue, the
/// in-flight count the cap bounds, and the deadline heap the timer
/// thread sleeps on.
#[derive(Default)]
struct LaunchState {
    queue: Vec<u64>,
    active: usize,
    peak_active: usize,
    /// Launched calls whose reply is parked for the timer thread. The
    /// model has no clock: a parked reply is due whenever the timer runs.
    deadlines: Vec<u64>,
    launches: BTreeMap<u64, u32>,
    results: BTreeMap<u64, u64>,
    /// Set once every registrant has returned: the timer delivers what
    /// is still parked, then exits.
    registrants_done: bool,
}

struct MiniLaunchPump {
    state: Mutex<LaunchState>,
    /// Wakes the timer thread: an earlier deadline, or the end of the run.
    work_cv: Condvar,
    cap: usize,
    /// The one call whose reply is instant; every other reply is timed.
    instant: u64,
}

impl MiniLaunchPump {
    /// `ReqPump::register`: queue under the lock, then run the launch
    /// step on this thread in the same hold.
    fn register(&self, cid: u64) {
        let mut st = self.state.lock();
        st.queue.push(cid);
        self.launch_ready(st);
    }

    /// `pump.rs::launch_ready`, entered with the caller's hold: pop what
    /// the cap admits, "execute" outside the lock, then in ONE hold park
    /// timed replies (waking the timer only when the earliest deadline
    /// moved), complete instant ones, and — when that freed capacity — pop
    /// the next round in that same hold. Nothing queued means the step
    /// ends there, without locking again to look.
    fn launch_ready<'a>(&'a self, mut st: MutexGuard<'a, LaunchState>) {
        loop {
            let mut launches = Vec::new();
            while st.active < self.cap && !st.queue.is_empty() {
                let cid = st.queue.remove(0);
                st.active += 1;
                st.peak_active = st.peak_active.max(st.active);
                *st.launches.entry(cid).or_insert(0) += 1;
                launches.push(cid);
            }
            drop(st);
            if launches.is_empty() {
                return;
            }
            let (instant, timed): (Vec<u64>, Vec<u64>) =
                launches.into_iter().partition(|c| *c == self.instant);
            st = self.state.lock();
            if !timed.is_empty() {
                let earliest = st.deadlines.iter().min().copied();
                st.deadlines.extend(timed);
                if st.deadlines.iter().min().copied() != earliest {
                    self.work_cv.notify_all();
                }
            }
            if instant.is_empty() {
                return; // nothing completed here, so no capacity was freed
            }
            for cid in instant {
                complete_locked(&mut st, cid);
            }
        }
    }

    /// `pump.rs::event_loop`: sleep until a reply is due, then in one hold
    /// deliver it and run the launch step for what the freed capacity
    /// admits.
    fn timer(&self) {
        loop {
            let mut st = self.state.lock();
            let due: Vec<u64> = loop {
                if !st.deadlines.is_empty() {
                    break st.deadlines.drain(..).collect();
                }
                if st.registrants_done {
                    return;
                }
                st = self.work_cv.wait(st);
            };
            for cid in due {
                complete_locked(&mut st, cid);
            }
            self.launch_ready(st);
        }
    }
}

/// `pump.rs::complete_locked`: free the slot and publish, under the hold
/// its caller already has. It never wakes the dispatcher — its caller
/// re-runs the launch step. (Waking the call's waiters is
/// `targeted_wakeup_model`'s subject.)
fn complete_locked(st: &mut LaunchState, cid: u64) {
    st.active -= 1;
    assert!(
        st.results.insert(cid, cid + 100).is_none(),
        "double delivery of call {cid}"
    );
}

/// Two registrants and the timer thread under a global cap of 1; call 1
/// replies instantly, call 2 after a latency. Depending on the schedule
/// each call is launched by its own registrant, by the *other* registrant
/// (going round again after its inline completion freed the slot), or by
/// the timer thread after a delivery. Over every interleaving: each call
/// launches exactly once, at most one is ever in flight, and once the
/// registrants have returned and the timer has delivered what was parked
/// nothing is queued, parked or in flight — no call is stranded waiting
/// for a launch step nobody will run.
pub fn caller_launch_model() -> Stats {
    check_with(bounds(), || {
        let pump = Arc::new(MiniLaunchPump {
            state: Mutex::new(LaunchState::default()),
            work_cv: Condvar::new(),
            cap: 1,
            instant: 1,
        });
        let timer = {
            let p = pump.clone();
            thread::spawn(move || p.timer())
        };
        let other = {
            let p = pump.clone();
            thread::spawn(move || p.register(2))
        };
        pump.register(1);
        other.join();
        {
            let mut st = pump.state.lock();
            st.registrants_done = true;
            pump.work_cv.notify_all();
        }
        timer.join();
        let st = pump.state.lock();
        assert!(
            st.queue.is_empty(),
            "a call was left queued: {:?}",
            st.queue
        );
        assert!(st.deadlines.is_empty(), "a reply was never delivered");
        assert_eq!(st.active, 0, "a slot leaked");
        assert_eq!(st.peak_active, 1, "the cap of 1 was exceeded");
        assert_eq!(
            st.launches,
            BTreeMap::from([(1, 1), (2, 1)]),
            "every call launches exactly once"
        );
        assert_eq!(st.results, BTreeMap::from([(1, 101), (2, 102)]));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_wakeup_has_no_lost_or_double_wakeups() {
        let stats = targeted_wakeup_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn batched_drain_delivers_exactly_once() {
        let stats = batched_drain_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn stall_resume_cannot_deadlock_at_cap_one() {
        let stats = stall_resume_model(1, false);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn stall_resume_loses_no_wakeup_under_adversarial_completion_order() {
        let stats = stall_resume_model(2, true);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn trace_ring_loses_nothing_below_capacity() {
        let stats = trace_ring_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn trace_ring_overwrite_keeps_newest_and_counts_drops_exactly() {
        let stats = trace_ring_overwrite_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn race_cancel_keeps_coalesced_joiners_alive() {
        let stats = race_cancel_model(2);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn race_cancel_three_members_loses_no_wakeup_and_leaks_no_slot() {
        let stats = race_cancel_model(3);
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }

    #[test]
    fn caller_launch_never_strands_a_queued_call_or_exceeds_the_cap() {
        let stats = caller_launch_model();
        assert!(stats.complete, "exploration hit the schedule cap");
        assert!(stats.schedules >= 2, "expected multiple interleavings");
    }
}
