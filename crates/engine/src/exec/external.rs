//! External virtual table scans: the synchronous `EVScan` and the
//! asynchronous `AEVScan` (paper §4.1).

use super::Executor;
use crate::plan::{EvSpec, VTableKind};
use std::sync::Arc;
use wsq_common::{CallId, PendingCol, Placeholder, Result, Schema, Tuple, Value, WsqError};
use wsq_pump::{
    blocking_execute, ReqPump, RequestKind, SearchRequest, SearchResult, SearchService,
};

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

/// Prefix columns shared by every produced tuple — SearchExp then T1..Tn —
/// in a vector with room for `external` more columns.
fn prefix_values(expr: &str, bindings: &[Value], external: usize) -> Vec<Value> {
    let mut vals = Vec::with_capacity(1 + bindings.len() + external);
    vals.push(Value::from(expr));
    vals.extend_from_slice(bindings);
    vals
}

/// Check a rebind's arity and refill `bindings` from `values` in place.
fn rebind_into(spec: &EvSpec, bindings: &mut Vec<Value>, values: &[Value]) -> Result<()> {
    if values.len() != spec.bindings().len() {
        return Err(WsqError::Exec(format!(
            "expected {} bindings, got {}",
            spec.bindings().len(),
            values.len()
        )));
    }
    bindings.clear();
    bindings.extend_from_slice(values);
    Ok(())
}

/// Synchronous external virtual scan: each `open` performs a blocking
/// search call — the query processor idles for the full latency, exactly
/// the behavior asynchronous iteration exists to fix.
///
/// A blocking scan cannot race, so over a race group (`WebCount_ANY`) it
/// fails over instead: the members are tried in order, the first `Ok`
/// wins, and the scan errors — with the last member's error — only after
/// every member failed (the rule `ReqPump::register_race` implements).
pub struct EVScanExec {
    /// Shared with the plan, and the source of this scan's schema.
    spec: Arc<EvSpec>,
    /// `(engine name, service)` per destination; one entry unless racing.
    services: Vec<(Arc<str>, Arc<dyn SearchService>)>,
    bindings: Vec<Value>,
    rows: Vec<Tuple>,
    pos: usize,
    fetched: bool,
}

impl EVScanExec {
    /// Create a scan of `spec` against `services`, tried in order.
    pub fn new(spec: Arc<EvSpec>, services: Vec<(Arc<str>, Arc<dyn SearchService>)>) -> Self {
        EVScanExec {
            spec,
            services,
            bindings: Vec::new(),
            rows: Vec::new(),
            pos: 0,
            fetched: false,
        }
    }
}

impl Executor for EVScanExec {
    fn schema(&self) -> &Schema {
        self.spec.schema()
    }

    fn rebind(&mut self, values: &[Value]) -> Result<()> {
        rebind_into(&self.spec, &mut self.bindings, values)?;
        self.fetched = false;
        Ok(())
    }

    fn open(&mut self) -> Result<()> {
        self.rows.clear();
        self.pos = 0;
        self.fetched = false;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if !self.fetched {
            self.fetched = true;
            let mut req = request_for(&self.spec, self.spec.instantiate(&self.bindings));
            let mut result = Err(WsqError::Exec("EVScan has no engine".to_string()));
            for (engine, service) in &self.services {
                req.engine.clear();
                req.engine.push_str(engine);
                result = blocking_execute(service.as_ref(), &req);
                if result.is_ok() {
                    break;
                }
            }
            let result = result?;
            let prefix = prefix_values(&req.expr, &self.bindings, 0);
            self.rows = materialize_result(&self.spec, &prefix, &result);
            self.pos = 0;
        }
        if self.pos < self.rows.len() {
            self.pos += 1;
            Ok(Some(self.rows[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

/// Turn a search result into virtual-table tuples.
pub(crate) fn materialize_result(
    spec: &EvSpec,
    prefix: &[Value],
    result: &SearchResult,
) -> Vec<Tuple> {
    match (spec.kind(), result) {
        (VTableKind::WebCount, SearchResult::Count(n)) => {
            let mut vals = prefix.to_vec();
            vals.push(Value::Int(*n as i64));
            vec![Tuple::new(vals)]
        }
        (VTableKind::WebPages, SearchResult::Pages(hits)) => hits
            .iter()
            .map(|h| {
                let mut vals = prefix.to_vec();
                vals.push(Value::Str(h.url.clone()));
                vals.push(Value::Int(h.rank as i64));
                vals.push(Value::Str(h.date.clone()));
                Tuple::new(vals)
            })
            .collect(),
        // A mismatched result shape is a service bug; surface it as an
        // empty result rather than wrong data.
        _ => vec![],
    }
}

/// Asynchronous external virtual scan: registers the call with ReqPump and
/// immediately returns ONE optimistic tuple whose external attributes are
/// placeholders; `ReqSync` later patches, cancels, or multiplies it.
///
/// Calls are registered lazily, from `next`/`rebind` only. This is what
/// makes ReqSync's admission control (DESIGN.md §11) work without any
/// coordination at this level: a stalled ReqSync simply stops pulling its
/// subtree, so no `next` reaches this scan and no new calls enter the
/// pump while the buffer is full.
pub struct AEVScanExec {
    /// Shared with the plan, and the source of this scan's schema.
    spec: Arc<EvSpec>,
    pump: Arc<ReqPump>,
    bindings: Vec<Value>,
    emitted: bool,
}

impl AEVScanExec {
    /// Create an async scan of `spec` registering through `pump`.
    pub fn new(spec: Arc<EvSpec>, pump: Arc<ReqPump>) -> Self {
        AEVScanExec {
            spec,
            pump,
            bindings: Vec::new(),
            emitted: false,
        }
    }
}

impl Executor for AEVScanExec {
    fn schema(&self) -> &Schema {
        self.spec.schema()
    }

    fn rebind(&mut self, values: &[Value]) -> Result<()> {
        rebind_into(&self.spec, &mut self.bindings, values)?;
        self.emitted = false;
        Ok(())
    }

    fn open(&mut self) -> Result<()> {
        self.emitted = false;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.emitted {
            return Ok(None);
        }
        self.emitted = true;
        // Refuse to instantiate a search expression from placeholder
        // bindings — the asyncify pass must have resolved them first.
        for v in &self.bindings {
            if v.is_pending() {
                return Err(WsqError::Exec(
                    "virtual-table binding is an unresolved placeholder \
                     (percolation should have flushed the upstream ReqSync)"
                        .to_string(),
                ));
            }
        }
        let expr = self.spec.instantiate(&self.bindings);
        let external = match self.spec.kind() {
            VTableKind::WebCount => 1,
            VTableKind::WebPages => 3,
        };
        let mut vals = prefix_values(&expr, &self.bindings, external);
        // A racing spec (`WebCount_ANY`) registers one call per member
        // engine as a race group: the group's CallId resolves with the
        // first successful member and the pump cancels the losers.
        let call: CallId = if self.spec.race.len() > 1 {
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
            self.pump.register_race(reqs)?
        } else {
            self.pump.register(request_for(&self.spec, expr))?
        };
        self.pump
            .obs()
            .count(wsq_obs::CounterId::PlaceholderTuples, 1);
        let ph = |col: PendingCol| Value::Pending(Placeholder { call, col });
        match self.spec.kind() {
            VTableKind::WebCount => vals.push(ph(PendingCol::Count)),
            VTableKind::WebPages => {
                vals.push(ph(PendingCol::Url));
                vals.push(ph(PendingCol::Rank));
                vals.push(ph(PendingCol::Date));
            }
        }
        Ok(Some(Tuple::new(vals)))
    }
}
