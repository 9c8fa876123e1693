//! Runtime instrumentation: EXPLAIN ANALYZE-style per-operator counters.
//!
//! When analysis is requested, every executor is wrapped in an
//! [`Instrumented`] decorator that counts `open`/`next` calls, output
//! rows, and wall time spent inside the operator (inclusive of its
//! children — the classic ANALYZE presentation). The per-operator cells
//! are collected in plan pre-order so the report can be rendered against
//! the plan tree.

use super::Executor;
use crate::expr::ColumnSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wsq_common::{Result, Schema, Tuple, Value};

/// Shared mutable counters for one operator.
#[derive(Debug, Default)]
pub struct OpCounters {
    /// Times `open` ran (inner sides of joins re-open per outer tuple).
    pub opens: AtomicU64,
    /// `next` invocations.
    pub nexts: AtomicU64,
    /// Tuples produced.
    pub rows: AtomicU64,
    /// Nanoseconds spent inside this operator (inclusive of children).
    pub nanos: AtomicU64,
}

/// One line of an ANALYZE report: indentation depth, operator label, and
/// its counters.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Depth in the plan tree.
    pub depth: usize,
    /// Operator description (the EXPLAIN line).
    pub label: String,
    /// Counters (shared with the executing operator).
    pub counters: Arc<OpCounters>,
}

/// Render one named counter group as a report footer line, e.g.
/// `-- pump: registered=12 launched=10 coalesced=2`.
pub fn counters_line(section: &str, counters: &[(&str, u64)]) -> String {
    let body: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("-- {section}: {}\n", body.join(" "))
}

/// Pre-order collection of instrumented operators for one query.
#[derive(Debug, Default, Clone)]
pub struct Instrumentation {
    ops: Arc<parking_lot::Mutex<Vec<OpStats>>>,
    /// Counter groups from non-operator subsystems (pump, caches),
    /// rendered after the operator tree.
    notes: Arc<parking_lot::Mutex<Vec<String>>>,
}

impl Instrumentation {
    /// Fresh, empty instrumentation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an operator (called during executor build, pre-order).
    pub fn register(&self, depth: usize, label: String) -> Arc<OpCounters> {
        let counters = Arc::new(OpCounters::default());
        self.ops.lock().push(OpStats {
            depth,
            label,
            counters: counters.clone(),
        });
        counters
    }

    /// Attach a named counter group (e.g. the pump's per-query deltas) to
    /// the report footer.
    pub fn note_counters(&self, section: &str, counters: &[(&str, u64)]) {
        self.notes.lock().push(counters_line(section, counters));
    }

    /// Render the ANALYZE report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        // One lock at a time: `Arc::default` builds both, so the lock
        // shim's order check sees them as one class.
        for op in self.ops.lock().iter() {
            let pad = "  ".repeat(op.depth);
            let rows = op.counters.rows.load(Ordering::Relaxed);
            let nexts = op.counters.nexts.load(Ordering::Relaxed);
            let opens = op.counters.opens.load(Ordering::Relaxed);
            let ms = op.counters.nanos.load(Ordering::Relaxed) as f64 / 1e6;
            out.push_str(&format!(
                "{pad}{}  [rows={rows} nexts={nexts} opens={opens} time={ms:.3}ms]\n",
                op.label
            ));
        }
        for note in self.notes.lock().iter() {
            out.push_str(note);
        }
        out
    }

    /// The raw per-operator statistics, pre-order.
    pub fn operators(&self) -> Vec<OpStats> {
        self.ops.lock().clone()
    }
}

/// Decorator adding counters around any executor.
pub struct Instrumented {
    inner: Box<dyn Executor>,
    counters: Arc<OpCounters>,
}

impl Instrumented {
    /// Wrap `inner`, reporting into `counters`.
    pub fn new(inner: Box<dyn Executor>, counters: Arc<OpCounters>) -> Self {
        Instrumented { inner, counters }
    }
}

impl Executor for Instrumented {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn open(&mut self) -> Result<()> {
        self.counters.opens.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let r = self.inner.open();
        self.counters
            .nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        self.counters.nexts.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let r = self.inner.next();
        self.counters
            .nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let Ok(Some(_)) = &r {
            self.counters.rows.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }

    fn rebind(&mut self, values: &mut Vec<Value>) -> Result<()> {
        // Bindings must reach the wrapped scan (dependent joins rebind
        // their inner child through this decorator).
        self.inner.rebind(values)
    }

    fn narrow(&mut self, live: ColumnSet) {
        self.inner.narrow(live);
    }
}
