//! Join executors: nested-loop join / cross product, and the dependent
//! join that feeds bindings to virtual-table scans through one outer
//! lookahead queue — one tuple deep on demand, or up to the stamped
//! prefetch depth with the calls registered ahead of need in one
//! `register_batch` (DESIGN.md §12).

use super::external::request_for;
use super::Executor;
use crate::expr::{compile, CExpr};
use crate::plan::{EvBinding, EvSpec, PrefetchHint};
use std::collections::VecDeque;
use std::sync::Arc;
use wsq_common::{CallId, Result, Schema, Tuple, Value};
use wsq_obs::{EventKind, HistogramSnapshot};
use wsq_pump::ReqPump;
use wsq_sql::ast::Expr;

/// Inner nested-loop join (predicate `None` = cross product).
///
/// The inner side is fully materialized at `open`. Besides being the
/// classic implementation, this has the property §4 wants: any `AEVScan`s
/// in the inner subtree register *all* their calls up front, maximizing
/// concurrency.
pub struct NestedLoopJoinExec {
    left: Box<dyn Executor>,
    right: Box<dyn Executor>,
    predicate: Option<CExpr>,
    schema: Schema,
    inner: Vec<Tuple>,
    outer: Option<Tuple>,
    inner_pos: usize,
}

impl NestedLoopJoinExec {
    /// Join `left` and `right` on `predicate` (compiled against the
    /// concatenated schema).
    pub fn new(
        left: Box<dyn Executor>,
        right: Box<dyn Executor>,
        predicate: Option<&Expr>,
    ) -> Result<Self> {
        let schema = left.schema().join(right.schema());
        let predicate = predicate.map(|p| compile(p, &schema)).transpose()?;
        Ok(NestedLoopJoinExec {
            left,
            right,
            predicate,
            schema,
            inner: Vec::new(),
            outer: None,
            inner_pos: 0,
        })
    }
}

impl Executor for NestedLoopJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.right.open()?;
        self.inner.clear();
        while let Some(t) = self.right.next()? {
            self.inner.push(t);
        }
        self.right.close()?;
        self.left.open()?;
        self.outer = None;
        self.inner_pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            let outer = match self.outer.take() {
                Some(t) => t,
                None => {
                    self.inner_pos = 0;
                    match self.left.next()? {
                        Some(t) => t,
                        None => return Ok(None),
                    }
                }
            };
            while self.inner_pos < self.inner.len() {
                let joined = outer.join(&self.inner[self.inner_pos]);
                self.inner_pos += 1;
                let keep = match &self.predicate {
                    Some(p) => p.eval_bool(&joined)?,
                    None => true,
                };
                if keep {
                    self.outer = Some(outer);
                    return Ok(Some(joined));
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.left.close()
    }
}

/// One outer tuple waiting in the lookahead: its binding values and the
/// call registered ahead for it (`None` when the join is not
/// prefetching, or when the bindings were unresolved placeholders — the
/// demand path will surface the error).
struct Pulled {
    tuple: Tuple,
    values: Vec<Value>,
    call: Option<CallId>,
}

/// Snapshot baseline for the histogram-driven depth controller.
struct AdaptiveDepth {
    last_call: HistogramSnapshot,
    last_queue: HistogramSnapshot,
}

/// Ahead-of-need registration for one dependent join (DESIGN.md §12).
///
/// Only constructed when the planner stamped a non-zero depth AND the
/// pump coalesces identical requests — prefetch relies on the demand-side
/// `AEVScan` registration attaching to the call this driver started, so
/// without coalescing every prefetch would be a duplicate backend call.
struct Prefetcher {
    pump: Arc<ReqPump>,
    spec: EvSpec,
    hint: PrefetchHint,
    /// Current lookahead target, in `[1, hint.depth]`; fixed at
    /// `hint.depth` unless `hint.adaptive`.
    depth: usize,
    adaptive: AdaptiveDepth,
}

impl Prefetcher {
    fn new(pump: Arc<ReqPump>, spec: EvSpec) -> Self {
        let hint = spec.prefetch;
        // Baseline the controller at construction so its windows cover
        // only this query's activity, not process history.
        let (last_call, last_queue) = match pump.obs().metrics() {
            Some(m) => (m.call_latency.snapshot(), m.queue_delay.snapshot()),
            None => (HistogramSnapshot::empty(), HistogramSnapshot::empty()),
        };
        Prefetcher {
            pump,
            spec,
            hint,
            depth: hint.depth,
            adaptive: AdaptiveDepth {
                last_call,
                last_queue,
            },
        }
    }

    /// Histogram-driven depth control: once per drain cycle, read the
    /// per-window `wsq_call_latency_seconds` / `wsq_queue_delay_seconds`
    /// deltas from the obs registry. Queue delay dominating call latency
    /// means launches are waiting on capacity — prefetching further ahead
    /// only lengthens the queue, so narrow. Queue delay well under call
    /// latency means the pump has headroom — widen. No-op on empty
    /// windows or when the hint is not adaptive.
    fn adapt(&mut self) {
        if !self.hint.adaptive {
            return;
        }
        let Some(m) = self.pump.obs().metrics() else {
            return;
        };
        let call = m.call_latency.snapshot();
        let queue = m.queue_delay.snapshot();
        let call_win = call.delta(&self.adaptive.last_call);
        let queue_win = queue.delta(&self.adaptive.last_queue);
        if call_win.count == 0 || queue_win.count == 0 {
            return;
        }
        self.adaptive.last_call = call;
        self.adaptive.last_queue = queue;
        let (Some(call_p50), Some(queue_p95)) = (call_win.quantile(0.5), queue_win.quantile(0.95))
        else {
            return;
        };
        if queue_p95 > call_p50 {
            self.depth = (self.depth / 2).max(1);
        } else if queue_p95 * 2 < call_p50 {
            self.depth = (self.depth * 2).min(self.hint.depth);
        }
    }
}

/// The dependent join (paper §4, FLMS99): for each outer tuple, compute
/// the binding values and re-open the inner virtual scan with them.
///
/// Outer tuples always pass through one lookahead queue. On demand it
/// holds a single tuple. With a stamped [`PrefetchHint`] depth (via
/// [`DependentJoinExec::with_pump`]) it is topped up to `depth` outer
/// tuples ahead of demand, registering their calls immediately (one
/// `register_batch` per refill) so the pump overlaps them while upstream
/// operators are still busy. The demand-side `AEVScan` later coalesces
/// onto the prefetched call; the prefetch reference is dropped as soon
/// as that happens, and any still-unconsumed references are released at
/// close/drop time (counted as `wsq_prefetch_wasted_total`), so prefetch
/// never leaks a call.
pub struct DependentJoinExec {
    left: Box<dyn Executor>,
    right: Box<dyn Executor>,
    /// How to produce each binding value from an outer tuple.
    slots: Vec<BindingSlot>,
    schema: Schema,
    outer: Option<Tuple>,
    /// Outer tuples pulled but not yet joined.
    lookahead: VecDeque<Pulled>,
    left_done: bool,
    prefetch: Option<Prefetcher>,
    /// Prefetch reference for the outer tuple currently being joined;
    /// released after the inner scan's first `next` (which is when its
    /// own registration coalesces onto the call).
    current_call: Option<CallId>,
}

enum BindingSlot {
    Const(Value),
    Idx(usize),
}

impl DependentJoinExec {
    /// Build from the inner scan's [`EvSpec`]; column bindings are
    /// resolved against the outer schema here, once.
    pub fn new(left: Box<dyn Executor>, right: Box<dyn Executor>, spec: &EvSpec) -> Result<Self> {
        let left_schema = left.schema().clone();
        let slots = spec
            .bindings
            .iter()
            .map(|b| match b {
                EvBinding::Const(v) => Ok(BindingSlot::Const(v.clone())),
                EvBinding::Column(c) => Ok(BindingSlot::Idx(
                    left_schema.resolve(c.qualifier.as_deref(), &c.name)?,
                )),
            })
            .collect::<Result<Vec<_>>>()?;
        let schema = left_schema.join(right.schema());
        Ok(DependentJoinExec {
            left,
            right,
            slots,
            schema,
            outer: None,
            lookahead: VecDeque::new(),
            left_done: false,
            prefetch: None,
            current_call: None,
        })
    }

    /// Like [`DependentJoinExec::new`], but enables ahead-of-need
    /// prefetch when `spec.prefetch.depth > 0` and the pump coalesces
    /// identical requests (without coalescing the demand-side scan could
    /// not attach to the prefetched call and every search would run
    /// twice).
    pub fn with_pump(
        left: Box<dyn Executor>,
        right: Box<dyn Executor>,
        spec: &EvSpec,
        pump: Arc<ReqPump>,
    ) -> Result<Self> {
        let mut join = Self::new(left, right, spec)?;
        // A racing spec prefetches nothing: the prefetcher registers
        // plain single-engine calls, and a race *group* can never
        // coalesce onto one of those (the group id is virtual), so the
        // demand-side registration would duplicate every search.
        if spec.prefetch.depth > 0 && pump.coalescing_enabled() && spec.race.len() <= 1 {
            join.prefetch = Some(Prefetcher::new(pump, spec.clone()));
        }
        Ok(join)
    }

    /// Pull outer tuples until the lookahead holds its target (one on
    /// demand, the prefetcher's `depth` otherwise) or the outer side is
    /// exhausted; when prefetching, register the new tuples' calls as
    /// ONE batch. Speculative by design: a `LIMIT` above may never
    /// demand these tuples, which is exactly what
    /// `wsq_prefetch_wasted_total` measures.
    fn refill_lookahead(&mut self) -> Result<()> {
        if self.left_done {
            return Ok(());
        }
        let depth = match self.prefetch.as_mut() {
            Some(pf) => {
                pf.adapt();
                pf.depth
            }
            None => 1,
        };
        let mut reqs = Vec::new();
        let mut slots_of_reqs = Vec::new();
        while self.lookahead.len() < depth {
            let Some(tuple) = self.left.next()? else {
                self.left_done = true;
                break;
            };
            let values: Vec<Value> = self
                .slots
                .iter()
                .map(|s| match s {
                    BindingSlot::Const(v) => v.clone(),
                    BindingSlot::Idx(i) => tuple.get(*i).clone(),
                })
                .collect();
            // An unresolved placeholder binding cannot be instantiated;
            // enqueue without a call and let the demand-side scan report
            // it (asyncify's clash rules make this unreachable for
            // planner-built trees).
            if let Some(pf) = &self.prefetch {
                if !values.iter().any(|v| v.is_pending()) {
                    reqs.push(request_for(&pf.spec, pf.spec.instantiate(&values)));
                    slots_of_reqs.push(self.lookahead.len());
                }
            }
            self.lookahead.push_back(Pulled {
                tuple,
                values,
                call: None,
            });
        }
        let Some(pf) = self.prefetch.as_ref().filter(|_| !reqs.is_empty()) else {
            return Ok(());
        };
        let ids = pf.pump.register_batch(reqs)?;
        let obs = pf.pump.obs();
        if let Some(m) = obs.metrics() {
            m.prefetch_issued.add(ids.len() as u64);
        }
        for (slot, cid) in slots_of_reqs.into_iter().zip(ids) {
            obs.event(cid, EventKind::PrefetchIssued);
            self.lookahead[slot].call = Some(cid);
        }
        Ok(())
    }

    /// Empty the lookahead, releasing every prefetch reference not yet
    /// handed to the demand path and counting them wasted. Idempotent
    /// (close followed by drop is a no-op the second time).
    fn release_unconsumed(&mut self) {
        let held: Vec<CallId> = self
            .current_call
            .take()
            .into_iter()
            .chain(self.lookahead.drain(..).filter_map(|p| p.call))
            .collect();
        // Only a prefetching join ever holds a call.
        let Some(pf) = self.prefetch.as_ref().filter(|_| !held.is_empty()) else {
            return;
        };
        for cid in &held {
            pf.pump.release(*cid);
        }
        if let Some(m) = pf.pump.obs().metrics() {
            m.prefetch_wasted.add(held.len() as u64);
        }
    }
}

impl Executor for DependentJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.release_unconsumed();
        if let Some(pf) = self.prefetch.as_mut() {
            pf.depth = pf.hint.depth;
        }
        self.left.open()?;
        self.left_done = false;
        self.outer = None;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            let outer = match self.outer.take() {
                Some(t) => t,
                None => {
                    self.refill_lookahead()?;
                    let Some(p) = self.lookahead.pop_front() else {
                        return Ok(None);
                    };
                    self.current_call = p.call;
                    self.right.rebind(&p.values)?;
                    self.right.open()?;
                    p.tuple
                }
            };
            let step = self.right.next();
            // The inner scan registers its call on its first `next`
            // (coalescing onto the prefetched one, since we still hold a
            // reference); our reference is now redundant.
            if let Some(cid) = self.current_call.take() {
                if let Some(pf) = self.prefetch.as_ref() {
                    pf.pump.release(cid);
                }
            }
            match step? {
                Some(r) => {
                    let joined = outer.join(&r);
                    self.outer = Some(outer);
                    return Ok(Some(joined));
                }
                None => self.right.close()?,
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.release_unconsumed();
        self.left.close()
    }
}

impl Drop for DependentJoinExec {
    fn drop(&mut self) {
        // A query aborting mid-stream (error, LIMIT, client gone) drops
        // the executor tree without `close`; prefetched calls must still
        // drain so pump gauges return to zero.
        self.release_unconsumed();
    }
}
