//! The `ReqSync` operator (paper §4.1, §4.3, §4.4): buffers incomplete
//! tuples and coordinates with ReqPump to patch them as calls complete.
//!
//! It streams (§4.1's second form): it pulls its child only from `next`,
//! a tuple that depends on no pending call passes directly through, and
//! `open` registers no call. Only calls that are really pending reach it:
//! an `AEVScan` whose reply is already in hand at registration emits
//! finished rows, which pass through like any complete tuple.
//!
//! For each completed call `C`, every buffered tuple carrying a `C`
//! placeholder is processed per §4.3:
//!
//! 1. zero result rows → the tuple is **cancelled**;
//! 2. one row → its placeholder attributes are **filled in**;
//! 3. `n > 1` rows → `n − 1` **copies** are created and all are filled.
//!
//! Copies retain any placeholders for *other* pending calls (§4.4's
//! nuance) and are re-indexed under those calls. No tuple owns a call: the
//! query's lease holds each result until the query ends, so a copy that a
//! join made after its call was patched takes the same result again. On an
//! error, a re-open or a close this operator just empties its buffer.
//!
//! # Admission control (backpressure)
//!
//! With a buffer cap configured (`QueryOptions::reqsync_cap`), the
//! operator **stalls** instead of buffering without bound: once
//! `buffered` holds `cap` incomplete tuples it stops pulling from its
//! child (the AEVScan side registers no new calls while un-pulled) and
//! drains completions — blocking on [`ReqPump::wait_any`] between
//! drains — until occupancy falls to the
//! low-water mark (`cap / 2`), then resumes. The handshake reuses the
//! pump's targeted-wakeup protocol unchanged: `wait_any` re-checks the
//! result store under the pump's state lock before sleeping, so a
//! completion that lands between a drain and the sleep can never be
//! lost, and the stalled thread holds no locks while it waits. Stalls
//! surface as `Stalled`/`Resumed` trace events, the
//! `wsq_reqsync_stalls_total` counter and the `wsq_reqsync_stall_seconds`
//! histogram.

use super::Executor;
use crate::expr::ColumnSet;
use std::collections::VecDeque;
use std::sync::Arc;
use wsq_common::{CallId, IdMap, PendingCol, Result, Schema, Tuple, Value};
use wsq_obs::{CounterId, EventKind, GaugeId, HistogramId, Obs, Step, Tick};
use wsq_pump::{ReqPump, SearchResult};

struct BufTuple {
    tuple: Tuple,
    /// The clock reading of the step that put the tuple in the buffer
    /// (patch-delay anchor), kept only while observability is on.
    admitted: Option<Tick>,
}

/// The request synchronizer executor.
pub struct ReqSyncExec {
    child: Box<dyn Executor>,
    pump: Arc<ReqPump>,
    obs: Obs,
    schema: Schema,
    /// Completed tuples awaiting emission.
    ready: VecDeque<Tuple>,
    /// Incomplete tuples, keyed by an internal id.
    buffered: IdMap<u64, BufTuple>,
    /// Pending call → buffered tuple ids. Compacted on every removal —
    /// an id listed here always resolves in `buffered` (asserted in
    /// debug builds), and the map is empty whenever the buffer is.
    index: IdMap<CallId, Vec<u64>>,
    /// Admission-control cap on `buffered` (`None` = unbounded).
    cap: Option<usize>,
    /// The columns anything above reads; a placeholder in another is
    /// patched to `Null`.
    live: ColumnSet,
    /// The pending calls of the tuple in hand (nearly always one or two),
    /// refilled per tuple instead of allocated per tuple.
    scratch: Vec<CallId>,
    next_id: u64,
    child_done: bool,
}

impl ReqSyncExec {
    /// Synchronize `child`'s placeholder tuples against `pump`, with an
    /// admission-control cap on buffered incomplete tuples (`None` =
    /// unbounded, the paper's behaviour; `Some(0)` is treated as 1).
    pub fn new(child: Box<dyn Executor>, pump: Arc<ReqPump>, cap: Option<usize>) -> Self {
        let schema = child.schema().clone();
        let obs = pump.obs().clone();
        ReqSyncExec {
            child,
            pump,
            obs,
            schema,
            ready: VecDeque::new(),
            buffered: IdMap::default(),
            index: IdMap::default(),
            cap: cap.map(|c| c.max(1)),
            live: ColumnSet::ALL,
            scratch: Vec::new(),
            next_id: 0,
            child_done: false,
        }
    }

    /// True iff the buffer has reached the admission-control cap.
    fn at_capacity(&self) -> bool {
        self.cap.is_some_and(|c| self.buffered.len() >= c)
    }

    /// Admission control: with the buffer full, stop admitting and drain
    /// completions — blocking on the pump's targeted wakeup between
    /// drains — until occupancy falls to the low-water mark (`cap / 2`).
    ///
    /// The loop can only run while `buffered` is non-empty, and every
    /// buffered tuple keeps at least one pending call indexed, so
    /// `wait_any` always has a non-empty call set: the stall cannot
    /// deadlock, even at `cap == 1` (admit one → wait for its call →
    /// drain → resume). §4.3 case-3 copy multiplication may transiently
    /// overshoot the cap during a drain; the loop converges because the
    /// query's call set is finite and copies register nothing new.
    fn stall_until_low_water(&mut self) -> Result<()> {
        let Some(cap) = self.cap else {
            return Ok(());
        };
        if self.buffered.len() < cap {
            return Ok(());
        }
        let low_water = cap / 2;
        let stalled = Step::new();
        let stalled_at = self.obs.stamp(&stalled);
        // The `Stalled` event is the stall's count, too.
        let anchor = if self.obs.is_enabled() {
            let a = self.pending_calls().into_iter().min();
            if let Some(c) = a {
                self.obs.event(&stalled, c, EventKind::Stalled);
            }
            a
        } else {
            None
        };
        loop {
            // Each pass after a wait is a step of its own.
            self.drain_completions(&Step::continuing())?;
            if self.buffered.len() <= low_water {
                break;
            }
            let pending = self.pending_calls();
            debug_assert!(!pending.is_empty(), "buffered tuples with no pending call");
            if pending.is_empty() {
                break;
            }
            self.pump.wait_any(&pending)?;
        }
        let resumed = Step::new();
        if let (Some(since), Some(now)) = (stalled_at, self.obs.stamp(&resumed)) {
            self.obs
                .observe(HistogramId::StallDuration, now.since(since));
        }
        if let Some(c) = self.pending_calls().into_iter().min().or(anchor) {
            self.obs.event(&resumed, c, EventKind::Resumed);
        }
        Ok(())
    }

    /// Emit a complete tuple; buffer an incomplete one under every call it
    /// waits on, stamped `admitted`. Takes the child's tuples and puts a
    /// patched — possibly still incomplete — tuple back.
    fn admit(&mut self, tuple: Tuple, admitted: Option<Tick>) {
        if !tuple.is_incomplete() {
            self.ready.push_back(tuple);
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        tuple.pending_calls_into(&mut self.scratch);
        for &c in &self.scratch {
            self.index.entry(c).or_default().push(id);
        }
        self.obs.shift(GaugeId::ReqsyncBuffered, 1);
        self.buffered.insert(id, BufTuple { tuple, admitted });
    }

    /// Apply a completed call's `outcome` to every tuple waiting on it, as
    /// part of delivery step `step`. Stale calls (no tuple waits on them
    /// any more) are a no-op. A failure fails the query and empties the
    /// buffer.
    fn patch_with(
        &mut self,
        call: CallId,
        outcome: &Result<SearchResult>,
        step: &Step,
    ) -> Result<()> {
        let Some(ids) = self.index.remove(&call) else {
            return Ok(());
        };
        // What happens to each waiting tuple follows from the outcome
        // alone, so the delivery and its per-tuple events are recorded
        // together, in one `emit`.
        let per_tuple = match outcome {
            Err(_) => None,
            Ok(SearchResult::Pages(hits)) if hits.is_empty() => Some(EventKind::TupleCancelled),
            Ok(_) => Some(EventKind::Patched),
        };
        let tuples = per_tuple.map_or(0, |_| ids.len());
        self.obs.emit(
            step,
            (0..1 + tuples).map(|i| match per_tuple {
                Some(kind) if i > 0 => (call, kind),
                _ => (call, EventKind::Delivered),
            }),
        );
        let result = match outcome {
            Ok(result) => result,
            Err(e) => {
                self.clear();
                return Err(e.clone());
            }
        };
        for id in ids {
            // The index is compacted on every removal (`unindex`), so an
            // id listed under `call` must still be buffered. A miss here
            // means the two maps diverged — a leak of buffered tuples.
            let Some(entry) = self.buffered.remove(&id) else {
                debug_assert!(false, "index[{call:?}] held stale tuple id {id}");
                continue;
            };
            self.obs.shift(GaugeId::ReqsyncBuffered, -1);
            if let (Some(admitted), Some(now)) = (entry.admitted, self.obs.stamp(step)) {
                self.obs
                    .observe(HistogramId::PatchDelay, now.since(admitted));
            }
            // Drop this tuple's entries under its *other* pending calls
            // (`scratch`, until a patched tuple is put back); readmitted
            // descendants are indexed afresh.
            entry.tuple.pending_calls_into(&mut self.scratch);
            self.scratch.retain(|c| *c != call);
            unindex(&mut self.index, id, &self.scratch);
            match result {
                SearchResult::Count(n) => {
                    let mut t = entry.tuple;
                    fill(&mut t, call, self.live, |col| match col {
                        PendingCol::Count => Some(Value::Int(*n as i64)),
                        _ => None,
                    });
                    self.obs.count(CounterId::TuplesPatched, 1);
                    self.admit(t, self.obs.stamp(step));
                }
                // §4.3 case 1 (counted by its `TupleCancelled` event,
                // above): the tuple is dropped. Cases 2 and 3: one patched
                // tuple per hit, each keeping the other calls' placeholders
                // (§4.4).
                SearchResult::Pages(hits) => {
                    self.obs.count(CounterId::TuplesPatched, hits.len() as u64);
                    for hit in hits.iter() {
                        let mut t = entry.tuple.clone();
                        fill(&mut t, call, self.live, |col| match col {
                            PendingCol::Url => Some(Value::Str(hit.url.clone())),
                            PendingCol::Rank => Some(Value::Int(hit.rank as i64)),
                            PendingCol::Date => Some(Value::Str(hit.date.clone())),
                            PendingCol::Count => None,
                        });
                        self.admit(t, self.obs.stamp(step));
                    }
                }
            }
        }
        Ok(())
    }

    /// Empty the buffer: the query ended, or starts again. The calls its
    /// tuples waited on stay with the query's lease.
    fn clear(&mut self) {
        self.obs
            .shift(GaugeId::ReqsyncBuffered, -(self.buffered.len() as i64));
        self.buffered.clear();
        self.index.clear();
        self.ready.clear();
    }

    /// Patch every pending call that has already completed: one
    /// delivery step, however many calls and rounds it absorbs (the thread
    /// does not wait in between).
    ///
    /// One [`ReqPump::take_completed`] round gathers every finished call
    /// in a single pump-lock acquisition (the old shape peeked — and
    /// locked — once per pending call per round). The loop re-runs
    /// because patching can readmit tuples that wait on other calls
    /// which finished in the meantime.
    fn drain_completions(&mut self, step: &Step) -> Result<()> {
        // Each take after the first is a step of its own: its results may
        // have completed after `step` settled its reading.
        let mut later;
        let mut step = step;
        loop {
            let pending = self.pending_calls();
            if pending.is_empty() {
                return Ok(());
            }
            let done = self.pump.take_completed(&pending);
            if done.is_empty() {
                return Ok(());
            }
            for (cid, outcome) in done {
                self.patch_with(cid, &outcome, step)?;
            }
            later = Step::continuing();
            step = &later;
        }
    }

    /// Calls we are still waiting on.
    fn pending_calls(&self) -> Vec<CallId> {
        self.index.keys().copied().collect()
    }

    /// Debug-build invariant: `index` and `buffered` agree exactly —
    /// every indexed id resolves, and every buffered tuple's pending
    /// calls are indexed. Guards the compaction contract `patch_with`
    /// relies on.
    #[cfg(debug_assertions)]
    fn assert_compact(&self) {
        for (call, list) in &self.index {
            for id in list {
                assert!(
                    self.buffered.contains_key(id),
                    "index[{call:?}] holds stale tuple id {id}"
                );
            }
        }
        for (id, entry) in &self.buffered {
            for c in entry.tuple.pending_calls() {
                assert!(
                    self.index.get(&c).is_some_and(|l| l.contains(id)),
                    "buffered tuple {id} waits on {c:?} but is not indexed under it"
                );
            }
        }
    }

    #[cfg(not(debug_assertions))]
    fn assert_compact(&self) {}
}

/// Remove a tuple id from the index lists of `calls`, dropping lists
/// that become empty (so `pending_calls` never names a call the pump
/// may already have forgotten).
fn unindex(index: &mut IdMap<CallId, Vec<u64>>, id: u64, calls: &[CallId]) {
    for c in calls {
        if let Some(list) = index.get_mut(c) {
            list.retain(|&x| x != id);
            if list.is_empty() {
                index.remove(c);
            }
        }
    }
}

/// Replace every placeholder of `call` in `tuple` using `value_for`, and
/// with `Null` in a column outside `live`: nothing above reads it, and a
/// delivered scan writes `Null` there too.
fn fill(
    tuple: &mut Tuple,
    call: CallId,
    live: ColumnSet,
    value_for: impl Fn(PendingCol) -> Option<Value>,
) {
    for (i, v) in tuple.values_mut().iter_mut().enumerate() {
        if let Value::Pending(p) = v {
            if p.call == call {
                if !live.contains(i) {
                    *v = Value::Null;
                } else if let Some(new) = value_for(p.col) {
                    *v = new;
                }
            }
        }
    }
}

impl Executor for ReqSyncExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, live: ColumnSet) {
        // Nothing narrows a placeholder away: a scan writes one in every
        // column it stands for, and a projection hands it on through an
        // item nothing reads. So the calls a tuple waits on, and how many
        // copies a result makes, stay the same; only what a patch writes
        // in a dead column changes.
        self.live = live;
        self.child.narrow(live);
    }

    fn open(&mut self) -> Result<()> {
        self.clear();
        self.child_done = false;
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(t) = self.ready.pop_front() {
                return Ok(Some(t));
            }
            if !self.child_done {
                // Admission control: at the cap, stall instead of pulling
                // (the un-pulled AEVScan registers no new calls), then
                // loop back — the drain may have readied tuples to emit.
                if self.at_capacity() {
                    self.stall_until_low_water()?;
                    continue;
                }
                // Complete tuples pass straight through (§4.1: "tuples
                // that do not depend on pending ReqPump calls may pass
                // directly through").
                match self.child.next()? {
                    Some(t) => {
                        if !t.is_incomplete() {
                            return Ok(Some(t));
                        }
                        // Buffer the tuple, then deliver whatever has
                        // completed meanwhile (a reply in hand at
                        // registration never gets here: its scan emitted
                        // finished rows).
                        let admitted = self.obs.stamp(&Step::continuing());
                        self.admit(t, admitted);
                        self.drain_completions(&Step::continuing())?;
                        continue;
                    }
                    None => {
                        self.child.close()?;
                        self.child_done = true;
                        continue;
                    }
                }
            }
            if self.index.is_empty() {
                debug_assert!(
                    self.buffered.is_empty(),
                    "drained index but {} tuples still buffered",
                    self.buffered.len()
                );
                return Ok(None);
            }
            self.assert_compact();
            // Block until something finishes, then absorb the whole burst
            // of completions — not just the one call wait_any reported —
            // in a single batched drain.
            self.pump.wait_any(&self.pending_calls())?;
            self.drain_completions(&Step::continuing())?;
        }
    }

    fn close(&mut self) -> Result<()> {
        // The query may have been cut short by a LIMIT above us.
        self.clear();
        Ok(())
    }
}

impl Drop for ReqSyncExec {
    /// A cursor dropped mid-stream leaves no tuple counted as buffered.
    fn drop(&mut self) {
        self.clear();
    }
}
