//! Join executors: nested-loop join / cross product (probing a hash of
//! the inner side when the predicate has an equi-join key), and the dependent
//! join that feeds bindings to virtual-table scans through one outer
//! lookahead queue — one tuple deep on demand, or up to the stamped
//! prefetch depth with the calls registered ahead of need in one
//! `register_batch` (DESIGN.md §12).

use super::external::request_for;
use super::Executor;
use crate::expr::{compile, CExpr};
use crate::plan::{EvBinding, EvSpec, PrefetchHint};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use wsq_common::{CallId, DataType, GroupKey, Result, Schema, Tuple, Value};
use wsq_obs::{CounterId, EventKind, HistogramId, HistogramSnapshot, Step};
use wsq_pump::ReqPump;
use wsq_sql::ast::{BinOp, Expr};

/// Inner nested-loop join (predicate `None` = cross product).
///
/// The inner side is fully materialized at `open`. Besides being the
/// classic implementation, this has the property §4 wants: any `AEVScan`s
/// in the inner subtree register *all* their calls up front, maximizing
/// concurrency.
///
/// # Probing
///
/// When the predicate has a top-level `outer.col = inner.col` conjunct
/// whose two columns share a declared type of `INT` or `VARCHAR`, `open`
/// also buckets the inner tuples by that key (NULL keys left out — `=`
/// with NULL is false) and `next` pairs each outer tuple with its bucket
/// only, not with every inner tuple. The hash is a *prefilter*: the whole
/// predicate is still evaluated on every candidate pair, and rows come out
/// in the order the plain loop produces them (outer order, then inner
/// order), so plans, EXPLAIN and results are those of the loop.
///
/// The prefilter must never drop a pair [`Value::compare`] calls equal,
/// and it hashes with [`Value::group_key`], under which `1` and `1.0`
/// differ. So a run-time key that is not `Int`, `Str` or `Null` — a
/// `Float` in a column whose declared type was only inferred, a `Pending`
/// — turns probing off for the rest of that `open` and the loop runs,
/// errors included. The one observable difference while probing is on: an
/// error that only a **non-matching** pair would raise (say a type error
/// in another conjunct) is no longer raised, because that pair is never
/// formed.
pub struct NestedLoopJoinExec {
    left: Box<dyn Executor>,
    right: Box<dyn Executor>,
    predicate: Option<CExpr>,
    schema: Schema,
    inner: Vec<Tuple>,
    /// `(outer offset, inner offset)` of the equi-join key, if the
    /// predicate has one.
    equi: Option<(usize, usize)>,
    /// The inner side bucketed by key; `None` = plain loop.
    probe: Option<Probe>,
    outer: Option<Tuple>,
    /// The current outer tuple's remaining candidates: positions in
    /// `Probe::order` while probing, in `inner` otherwise.
    candidates: Range<usize>,
}

/// Inner positions grouped by join key.
struct Probe {
    /// Offset of the key in an outer tuple.
    outer_col: usize,
    /// Positions into `inner`, key group after key group, in inner order
    /// within a group.
    order: Vec<usize>,
    /// Key → its group's range of `order`.
    groups: HashMap<GroupKey, Range<usize>>,
}

/// A run-time join key as the probe sees it.
enum ProbeKey {
    /// NULL: equal to nothing.
    Null,
    /// Hashes exactly as [`Value::compare`] compares.
    Key(GroupKey),
    /// A `Float` (`1.0` equals `1` but hashes apart) or a `Pending`: the
    /// hash cannot stand in for the comparison.
    Unhashable,
}

fn probe_key(v: &Value) -> ProbeKey {
    match v {
        Value::Null => ProbeKey::Null,
        Value::Int(_) | Value::Str(_) => ProbeKey::Key(v.group_key()),
        Value::Float(_) | Value::Pending(_) => ProbeKey::Unhashable,
    }
}

/// The first top-level `outer.col = inner.col` conjunct of `pred` over two
/// columns of one declared type, INT or VARCHAR: `(outer offset, inner
/// offset)`. Columns `< left_len` of `schema` are the outer side's.
fn equi_key(pred: &CExpr, schema: &Schema, left_len: usize) -> Option<(usize, usize)> {
    match pred {
        CExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => equi_key(lhs, schema, left_len).or_else(|| equi_key(rhs, schema, left_len)),
        CExpr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => {
            let (CExpr::Column(a), CExpr::Column(b)) = (lhs.as_ref(), rhs.as_ref()) else {
                return None;
            };
            let (outer, inner) = (*a.min(b), *a.max(b));
            let dtype = schema.column(outer).dtype;
            (outer < left_len
                && inner >= left_len
                && dtype != DataType::Float
                && dtype == schema.column(inner).dtype)
                .then_some((outer, inner - left_len))
        }
        _ => None,
    }
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
        let equi = predicate
            .as_ref()
            .and_then(|p| equi_key(p, &schema, left.schema().len()));
        Ok(NestedLoopJoinExec {
            left,
            right,
            predicate,
            schema,
            inner: Vec::new(),
            equi,
            probe: None,
            outer: None,
            candidates: 0..0,
        })
    }

    /// Is the probe still in use? (Set at `open`, cleared by a key it
    /// cannot hash.)
    #[cfg(test)]
    pub(super) fn probing(&self) -> bool {
        self.probe.is_some()
    }

    /// Bucket the materialized inner side by the equi-join key; `None`
    /// when there is no such key or one of its values is unhashable.
    fn build_probe(&self) -> Option<Probe> {
        let (outer_col, inner_col) = self.equi?;
        let mut by_key: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for (pos, t) in self.inner.iter().enumerate() {
            match probe_key(t.get(inner_col)) {
                ProbeKey::Null => {}
                ProbeKey::Key(key) => by_key.entry(key).or_default().push(pos),
                ProbeKey::Unhashable => return None,
            }
        }
        let mut order = Vec::with_capacity(self.inner.len());
        let groups = by_key
            .into_iter()
            .map(|(key, positions)| {
                let start = order.len();
                order.extend(positions);
                (key, start..order.len())
            })
            .collect();
        Some(Probe {
            outer_col,
            order,
            groups,
        })
    }

    /// The candidates for a fresh outer tuple: its key's bucket, or the
    /// whole inner side when there is no probe — or when this tuple's key
    /// ends probing.
    fn candidates_for(&mut self, outer: &Tuple) -> Range<usize> {
        if let Some(probe) = &self.probe {
            match probe_key(outer.get(probe.outer_col)) {
                ProbeKey::Null => return 0..0,
                ProbeKey::Key(key) => return probe.groups.get(&key).cloned().unwrap_or(0..0),
                ProbeKey::Unhashable => self.probe = None,
            }
        }
        0..self.inner.len()
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
        self.probe = self.build_probe();
        self.left.open()?;
        self.outer = None;
        self.candidates = 0..0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            let outer = match self.outer.take() {
                Some(t) => t,
                None => match self.left.next()? {
                    Some(t) => {
                        self.candidates = self.candidates_for(&t);
                        t
                    }
                    None => return Ok(None),
                },
            };
            for i in self.candidates.by_ref() {
                let pos = match &self.probe {
                    Some(probe) => probe.order[i],
                    None => i,
                };
                let joined = outer.join(&self.inner[pos]);
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

/// Baseline for the histogram-driven depth controller: the query's own
/// distributions when it last adapted.
struct AdaptiveDepth {
    last_call: HistogramSnapshot,
    last_queue: HistogramSnapshot,
}

/// Ahead-of-need registration for one dependent join (DESIGN.md §12).
///
/// Only constructed when the planner stamped a non-zero depth. Prefetch
/// relies on the pump's coalescing: the demand-side `AEVScan`
/// registration attaches to the call the prefetcher started instead of
/// issuing a duplicate backend call.
struct Prefetcher {
    pump: Arc<ReqPump>,
    spec: Arc<EvSpec>,
    hint: PrefetchHint,
    /// Current lookahead target, in `[1, hint.depth]`; fixed at
    /// `hint.depth` unless `hint.adaptive`.
    depth: usize,
    adaptive: AdaptiveDepth,
}

impl Prefetcher {
    fn new(pump: Arc<ReqPump>, spec: Arc<EvSpec>) -> Self {
        let hint = spec.prefetch;
        // The controller reads the running query's own recorder, so its
        // windows cover this query's calls only, never another session's.
        let obs = pump.obs();
        let own = |id| {
            obs.query_histogram(id)
                .unwrap_or(HistogramSnapshot::empty())
        };
        let (last_call, last_queue) = (own(HistogramId::CallLatency), own(HistogramId::QueueDelay));
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
    /// query's own call-latency and queue-delay distributions since the
    /// last adjustment from its recorder (a call's delays land there when
    /// the query takes its result). Queue delay dominating call latency
    /// means launches are waiting on capacity — prefetching further ahead
    /// only lengthens the queue, so narrow. Queue delay well under call
    /// latency means the pump has headroom — widen. No-op on empty
    /// windows, when the hint is not adaptive, or outside a recorded
    /// query.
    fn adapt(&mut self) {
        if !self.hint.adaptive {
            return;
        }
        let obs = self.pump.obs();
        let (Some(call), Some(queue)) = (
            obs.query_histogram(HistogramId::CallLatency),
            obs.query_histogram(HistogramId::QueueDelay),
        ) else {
            return;
        };
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
        let left_schema = left.schema();
        let slots = spec
            .bindings()
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
    /// prefetch when `spec.prefetch.depth > 0`: the demand-side scan's
    /// registration coalesces onto the prefetched call, so each search
    /// still runs once.
    pub fn with_pump(
        left: Box<dyn Executor>,
        right: Box<dyn Executor>,
        spec: &Arc<EvSpec>,
        pump: Arc<ReqPump>,
    ) -> Result<Self> {
        let mut join = Self::new(left, right, spec)?;
        // A racing spec prefetches nothing: the prefetcher registers
        // plain single-engine calls, and a race *group* can never
        // coalesce onto one of those (the group id is virtual), so the
        // demand-side registration would duplicate every search.
        if spec.prefetch.depth > 0 && spec.race.len() <= 1 {
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
        // The events are the count of calls issued, too.
        let issued = ids.iter().map(|&cid| (cid, EventKind::PrefetchIssued));
        pf.pump.obs().emit(&Step::new(), issued);
        for (slot, cid) in slots_of_reqs.into_iter().zip(ids) {
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
        pf.pump
            .obs()
            .count(CounterId::PrefetchWasted, held.len() as u64);
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
            // An exhausted inner scan is re-opened for the next outer tuple,
            // not closed: an `AEVScan` keeps its last delivered call until
            // its next registration, so an identical next call coalesces.
            if let Some(r) = step? {
                let joined = outer.join(&r);
                self.outer = Some(outer);
                return Ok(Some(joined));
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.release_unconsumed();
        self.right.close()?;
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
