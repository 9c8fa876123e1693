//! The external virtual table scan, `AEVScan` (paper §4.1), and the
//! synchronous `EVScan`, which is the same scan told to wait.
//!
//! Every call goes through the pump. A result the pump hands back with
//! the registration ([`Registered::Delivered`]) — a cache hit, a
//! zero-latency engine, a registration that coalesced onto a finished
//! call — becomes finished rows at once, through [`materialize_result`].
//! A call that is really pending yields a placeholder tuple for `ReqSync`
//! (§4.1: tuples that do not depend on a pending call pass directly
//! through), unless the scan waits: then it blocks on the call and emits
//! its rows, as a conventional query processor does.

use super::Executor;
use crate::expr::ColumnSet;
use crate::plan::{EvSpec, VTableKind};
use std::collections::VecDeque;
use std::sync::Arc;
use wsq_common::{CallId, PendingCol, Placeholder, Result, Schema, Tuple, Value, WsqError};
use wsq_obs::{CounterId, EventKind, Step};
use wsq_pump::{LeaseId, Registered, ReqPump, RequestKind, SearchRequest, SearchResult};

pub(crate) fn request_for(spec: &EvSpec, expr: String) -> SearchRequest {
    SearchRequest {
        engine: spec.engine.to_string(),
        expr,
        kind: match spec.kind() {
            VTableKind::WebCount => RequestKind::Count,
            VTableKind::WebPages => RequestKind::Pages {
                max_rank: spec.rank_limit,
            },
        },
    }
}

/// The columns every row of a binding shares, SearchExp then T1..Tn, with
/// `Null` in each column `live` leaves dead (`expr` is `None` when
/// SearchExp is), in a vector with room for the external columns that
/// follow.
fn row_prefix(
    width: usize,
    live: ColumnSet,
    expr: Option<&Value>,
    bindings: &[Value],
) -> Vec<Value> {
    let mut vals = Vec::with_capacity(width);
    vals.push(expr.cloned().unwrap_or(Value::Null));
    vals.extend(
        bindings
            .iter()
            .enumerate()
            .map(|(k, v)| live_or_null(live.contains(1 + k), || v.clone())),
    );
    vals
}

/// `make()` if `live`, else `Null`.
fn live_or_null(live: bool, make: impl FnOnce() -> Value) -> Value {
    if live {
        make()
    } else {
        Value::Null
    }
}

/// Turn a search result into virtual-table tuples — `expr`, then
/// `bindings`, then the result's columns, `Null` in each column `live`
/// leaves dead — appended to `out`. Each row is built at its final width.
fn materialize_result(
    spec: &EvSpec,
    live: ColumnSet,
    expr: Option<&Value>,
    bindings: &[Value],
    result: &SearchResult,
    out: &mut VecDeque<Tuple>,
) {
    let width = spec.schema().len();
    match (spec.kind(), result) {
        (VTableKind::WebCount, SearchResult::Count(n)) => {
            let mut vals = row_prefix(width, live, expr, bindings);
            vals.push(live_or_null(live.contains(width - 1), || {
                Value::Int(*n as i64)
            }));
            out.push_back(Tuple::new(vals));
        }
        (VTableKind::WebPages, SearchResult::Pages(hits)) => {
            let [url, rank, date] = [3, 2, 1].map(|back| live.contains(width - back));
            out.extend(hits.iter().map(|h| {
                let mut vals = row_prefix(width, live, expr, bindings);
                vals.push(live_or_null(url, || Value::Str(h.url.clone())));
                vals.push(live_or_null(rank, || Value::Int(h.rank as i64)));
                vals.push(live_or_null(date, || Value::Str(h.date.clone())));
                Tuple::new(vals)
            }));
        }
        // A mismatched result shape is a service bug; surface it as an
        // empty result rather than wrong data.
        _ => {}
    }
}

/// External virtual scan: registers the call with ReqPump. A result the
/// pump delivers with the registration becomes finished rows here. A call
/// still pending becomes ONE optimistic tuple whose external attributes
/// are placeholders, which `ReqSync` later patches, cancels, or
/// multiplies — unless the scan was built to wait (the synchronous
/// `EVScan`): then it blocks on the call and emits its rows, and never
/// builds a placeholder.
///
/// Calls are registered lazily, from `next`/`rebind` only. This is what
/// makes ReqSync's admission control (DESIGN.md §11) work without any
/// coordination at this level: a stalled ReqSync simply stops pulling its
/// subtree, so no `next` reaches this scan and no new calls enter the
/// pump while the buffer is full.
///
/// Each call is held by the query's lease. The scan gives up only its last
/// delivered call, at its next registration, in the pump's same lock hold
/// after the new request has been matched: so consecutive identical calls
/// (the `|R|` duplicates of the paper's Example 2) coalesce onto one
/// launch, and a warm query holds one delivered result per scan.
///
/// A column nothing above reads ([`Executor::narrow`]) is `Null` in every
/// row, and a dead SearchExp is never built; a placeholder is never
/// narrowed away, so `ReqSync` sees the calls a tuple waits on.
pub struct AEVScanExec {
    /// Shared with the plan, and the source of this scan's schema.
    spec: Arc<EvSpec>,
    pump: Arc<ReqPump>,
    lease: LeaseId,
    /// The current binding's T1..Tn.
    bindings: Vec<Value>,
    /// Which columns anything above reads, by position: SearchExp,
    /// T1..Tn, then Count or URL, Rank, Date.
    live: ColumnSet,
    /// Whether the current binding's call is registered.
    registered: bool,
    /// The current binding's rows not yet emitted: a delivered result's
    /// rows, or the placeholder tuple of a pending call.
    rows: VecDeque<Tuple>,
    /// The last delivered call, to give up at the next registration.
    held: Option<CallId>,
    /// Whether to wait for a pending call instead of emitting a
    /// placeholder (the synchronous `EVScan`).
    wait: bool,
}

impl AEVScanExec {
    /// Create a scan of `spec` registering through `pump` under `lease`;
    /// with `wait`, it waits for each call instead of emitting a
    /// placeholder.
    pub fn new(spec: Arc<EvSpec>, pump: Arc<ReqPump>, lease: LeaseId, wait: bool) -> Self {
        AEVScanExec {
            live: ColumnSet::ALL,
            spec,
            pump,
            lease,
            bindings: Vec::new(),
            registered: false,
            rows: VecDeque::new(),
            held: None,
            wait,
        }
    }

    /// Register the current binding's call, giving up the held one, and
    /// queue what it yields: finished rows, or a placeholder tuple.
    fn register(&mut self) -> Result<()> {
        // Refuse to instantiate a search expression from placeholder
        // bindings — the asyncify pass must have resolved them first.
        if self.bindings.iter().any(Value::is_pending) {
            return Err(WsqError::Exec(
                "virtual-table binding is an unresolved placeholder \
                 (percolation should have flushed the upstream ReqSync)"
                    .to_string(),
            ));
        }
        let expr = self.spec.instantiate(&self.bindings);
        let expr_value = self.live.contains(0).then(|| Value::from(expr.as_str()));
        let release = self.held.take();
        if self.wait {
            let (call, result) = self.fetch(expr, release)?;
            return self.deliver(call, expr_value.as_ref(), result);
        }
        // A racing spec (`WebCount_ANY`) registers one call per member
        // engine as a race group: the group's CallId resolves with the
        // first successful member and the pump cancels the losers.
        let registered = if self.spec.race.len() > 1 {
            let reqs = self
                .spec
                .race
                .iter()
                .map(|engine| {
                    let mut req = request_for(&self.spec, expr.clone());
                    req.engine = engine.to_string();
                    req
                })
                .collect();
            self.pump.register_race(self.lease, reqs, release)?
        } else {
            let req = request_for(&self.spec, expr);
            self.pump.register_delivered(self.lease, req, release)?
        };
        let call = match registered {
            Registered::Pending(call) => call,
            Registered::Delivered(call, result) => {
                return self.deliver(call, expr_value.as_ref(), result)
            }
        };
        let obs = self.pump.obs();
        obs.count(CounterId::PlaceholderTuples, 1);
        let ph = |col: PendingCol| Value::Pending(Placeholder { call, col });
        let width = self.spec.schema().len();
        let mut vals = row_prefix(width, self.live, expr_value.as_ref(), &self.bindings);
        match self.spec.kind() {
            VTableKind::WebCount => vals.push(ph(PendingCol::Count)),
            VTableKind::WebPages => {
                vals.push(ph(PendingCol::Url));
                vals.push(ph(PendingCol::Rank));
                vals.push(ph(PendingCol::Date));
            }
        }
        self.rows.push_back(Tuple::new(vals));
        Ok(())
    }

    /// Register the current binding's call and wait for its reply. A
    /// waiting scan cannot race, so a racing spec fails over instead: its
    /// members are registered one at a time, in order, each waited on;
    /// the first `Ok` wins, and the last member's error comes back only
    /// when every member failed (the rule `ReqPump::register_race`
    /// implements).
    fn fetch(
        &self,
        expr: String,
        mut release: Option<CallId>,
    ) -> Result<(CallId, Result<SearchResult>)> {
        // A racing spec's `engine` is its first member.
        let mut req = request_for(&self.spec, expr);
        for engine in self.spec.race.iter().skip(1) {
            let (call, result) = self.wait_for(req.clone(), release.take())?;
            if result.is_ok() {
                return Ok((call, result));
            }
            self.delivered_failure(call);
            req.engine.clear();
            req.engine.push_str(engine);
        }
        self.wait_for(req, release)
    }

    /// Register `req` and wait for its reply if it is not in hand.
    fn wait_for(
        &self,
        req: SearchRequest,
        release: Option<CallId>,
    ) -> Result<(CallId, Result<SearchResult>)> {
        let registered = self.pump.register_delivered(self.lease, req, release)?;
        Ok(match registered {
            Registered::Delivered(call, result) => (call, result),
            Registered::Pending(call) => (call, self.pump.wait(call)),
        })
    }

    /// Record the delivery of a failed call.
    fn delivered_failure(&self, call: CallId) {
        self.pump
            .obs()
            .event(&Step::continuing(), call, EventKind::Delivered);
    }

    /// Emit a call's result: the rows, and the delivery and patch (or
    /// cancellation) events `ReqSync` would have recorded, continuing the
    /// step that completed the call. A failure fails the query.
    fn deliver(
        &mut self,
        call: CallId,
        expr: Option<&Value>,
        result: Result<SearchResult>,
    ) -> Result<()> {
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                self.delivered_failure(call);
                return Err(e);
            }
        };
        let obs = self.pump.obs();
        let step = Step::continuing();
        materialize_result(
            &self.spec,
            self.live,
            expr,
            &self.bindings,
            &result,
            &mut self.rows,
        );
        let rows = self.rows.len() as u64;
        let outcome = if rows == 0 {
            EventKind::TupleCancelled
        } else {
            obs.count(CounterId::TuplesPatched, rows);
            EventKind::Patched
        };
        obs.emit(&step, [(call, EventKind::Delivered), (call, outcome)]);
        self.held = Some(call);
        Ok(())
    }
}

impl Executor for AEVScanExec {
    fn schema(&self) -> &Schema {
        self.spec.schema()
    }

    fn rebind(&mut self, values: &mut Vec<Value>) -> Result<()> {
        if values.len() != self.spec.bindings().len() {
            return Err(WsqError::Exec(format!(
                "expected {} bindings, got {}",
                self.spec.bindings().len(),
                values.len()
            )));
        }
        std::mem::swap(&mut self.bindings, values);
        self.registered = false;
        self.rows.clear();
        Ok(())
    }

    fn narrow(&mut self, live: ColumnSet) {
        super::note_leaf_reads(self.spec.schema(), live);
        self.live = live;
    }

    fn open(&mut self) -> Result<()> {
        self.registered = false;
        self.rows.clear();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if !self.registered {
            self.registered = true;
            self.register()?;
        }
        Ok(self.rows.pop_front())
    }
}
