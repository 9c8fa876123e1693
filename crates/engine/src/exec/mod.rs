//! Volcano-style executors (Graefe's iterator model, as in the paper's
//! figures): every operator supports `open` / `next` / `close`.

mod basic;
mod external;
pub mod instrument;
mod join;
mod reqsync;
mod rerank;
#[cfg(test)]
mod tests;

pub(crate) use basic::index_range_rids;
pub use basic::{
    AggregateExec, DistinctExec, FilterExec, IndexScanExec, LimitExec, ProjectExec, SeqScanExec,
    SortExec, ValuesExec,
};
pub use external::AEVScanExec;
pub use instrument::{Instrumentation, Instrumented, OpCounters, OpStats};
pub use join::{DependentJoinExec, NestedLoopJoinExec};
pub use reqsync::ReqSyncExec;
pub use rerank::RerankExec;

use crate::expr::{CExpr, ColumnSet};
use crate::plan::PhysPlan;
use std::sync::Arc;
use wsq_common::{Result, Schema, Tuple, Value, WsqError};
use wsq_pump::{Lease, ReqPump};
use wsq_storage::heap::HeapFile;

/// Provides stored-table access to scan executors.
pub trait TableSource {
    /// The heap file and (unqualified) schema of a stored table.
    fn table(&self, name: &str) -> Result<(Arc<HeapFile>, Schema)>;
    /// The B+-tree index on `table.column`, if one exists.
    fn table_index(&self, _table: &str, _column: &str) -> Option<Arc<wsq_storage::BTree>> {
        None
    }
}

/// Everything executors need at build/run time.
pub struct ExecContext<'a> {
    /// Stored tables.
    pub tables: &'a dyn TableSource,
    /// The global request pump, through which every external call goes.
    pub pump: Arc<ReqPump>,
    /// The query's hold on its calls, under which every external scan
    /// registers; dropped by whoever runs the query when it ends.
    pub lease: &'a Lease,
}

/// The iterator interface every physical operator implements.
pub trait Executor {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// (Re)initialize; must be callable repeatedly (inner sides of joins
    /// are re-opened).
    fn open(&mut self) -> Result<()>;
    /// Produce the next tuple, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Tuple>>;
    /// Release resources. Default: nothing to do.
    fn close(&mut self) -> Result<()> {
        Ok(())
    }
    /// Supply fresh outer bindings (external virtual scans under a
    /// dependent join only). The scan takes the values and leaves its
    /// previous buffer in `values`, so a join that refills it allocates
    /// nothing.
    fn rebind(&mut self, _values: &mut Vec<Value>) -> Result<()> {
        Err(WsqError::Exec(
            "this operator does not accept bindings".to_string(),
        ))
    }
    /// Learn which output columns anything above reads (`live`), after the
    /// tree is built and before `open`. An operator tells each child which
    /// of the child's columns it reads in turn; a scan writes `Value::Null`
    /// in a column nothing reads. An operator that keeps the default
    /// leaves its subtree whole, as if it read everything.
    fn narrow(&mut self, _live: ColumnSet) {}
}

/// Build an executor tree from a physical plan, narrowed to the columns
/// each operator's parent reads (every column of the root).
pub fn build(plan: &PhysPlan, ctx: &ExecContext<'_>) -> Result<Box<dyn Executor>> {
    narrowed(build_with(plan, ctx, None, 0)?)
}

/// Build an executor tree with EXPLAIN-ANALYZE instrumentation: every
/// operator is wrapped in an [`Instrumented`] counter registered with
/// `instr` in plan pre-order.
pub fn build_instrumented(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    instr: &Instrumentation,
) -> Result<Box<dyn Executor>> {
    narrowed(build_with(plan, ctx, Some(instr), 0)?)
}

/// Narrow a whole tree from an all-live root.
fn narrowed(mut root: Box<dyn Executor>) -> Result<Box<dyn Executor>> {
    root.narrow(ColumnSet::ALL);
    Ok(root)
}

/// `live` plus every column that one of `exprs` reads: what an operator
/// that evaluates `exprs` over its input needs of that input.
fn reads_with<'a>(live: ColumnSet, exprs: impl IntoIterator<Item = &'a CExpr>) -> ColumnSet {
    let mut reads = live;
    for e in exprs {
        e.mark_reads(&mut reads);
    }
    reads
}

#[cfg(test)]
thread_local! {
    /// What each leaf was told it must produce, in narrowing order: each
    /// of its columns by name, and whether anything above reads it. The
    /// read sets the unit tests pin.
    pub(crate) static LEAF_READS: std::cell::RefCell<Vec<Vec<(String, bool)>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Note a leaf's read set for the unit tests; nothing outside them.
fn note_leaf_reads(_schema: &Schema, _live: ColumnSet) {
    #[cfg(test)]
    LEAF_READS.with(|log| {
        let cols = _schema.columns().iter().map(|c| c.display_name());
        let live = (0..).map(|i| _live.contains(i));
        log.borrow_mut().push(cols.zip(live).collect());
    });
}

fn build_with(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    instr: Option<&Instrumentation>,
    depth: usize,
) -> Result<Box<dyn Executor>> {
    // Register BEFORE recursing so the report lists operators in plan
    // pre-order (parent above children, matching EXPLAIN).
    let counters = instr.map(|ins| {
        let label = plan
            .display()
            .lines()
            .next()
            .unwrap_or_default()
            .trim()
            .to_string();
        ins.register(depth, label)
    });
    let exec = build_node(plan, ctx, instr, depth)?;
    Ok(match counters {
        Some(counters) => Box::new(Instrumented::new(exec, counters)),
        None => exec,
    })
}

fn build_node(
    plan: &PhysPlan,
    ctx: &ExecContext<'_>,
    instr: Option<&Instrumentation>,
    depth: usize,
) -> Result<Box<dyn Executor>> {
    let build = |p: &PhysPlan| build_with(p, ctx, instr, depth + 1);
    match plan {
        // Scans decode under the plan's schema: the stored one, qualified
        // when the plan was built.
        PhysPlan::SeqScan { table, schema, .. } => {
            let (heap, _) = ctx.tables.table(table)?;
            Ok(Box::new(SeqScanExec::new(heap, schema.clone())))
        }
        PhysPlan::IndexScan {
            table,
            column,
            lo,
            hi,
            schema,
            ..
        } => {
            let (heap, _) = ctx.tables.table(table)?;
            let tree = ctx
                .tables
                .table_index(table, column)
                .ok_or_else(|| WsqError::Plan(format!("no index on {table}({column})")))?;
            Ok(Box::new(basic::IndexScanExec::new(
                heap,
                tree,
                schema.clone(),
                lo.clone(),
                hi.clone(),
            )))
        }
        PhysPlan::Values { schema, rows } => Ok(Box::new(ValuesExec::new(
            schema.clone(),
            rows.iter().map(|r| Tuple::new(r.clone())).collect(),
        ))),
        // A synchronous `EVScan` is the `AEVScan` that waits for its call.
        PhysPlan::EVScan(spec) | PhysPlan::AEVScan(spec) => Ok(Box::new(AEVScanExec::new(
            spec.clone(),
            ctx.pump.clone(),
            ctx.lease.id(),
            matches!(plan, PhysPlan::EVScan(_)),
        ))),
        PhysPlan::Filter { input, predicate } => {
            let child = build(input)?;
            Ok(Box::new(FilterExec::new(child, predicate)?))
        }
        PhysPlan::Project {
            input,
            items,
            schema,
        } => {
            let child = build(input)?;
            Ok(Box::new(ProjectExec::new(child, items, schema.clone())?))
        }
        PhysPlan::DependentJoin { left, right } => {
            let l = build(left)?;
            let r = build(right)?;
            match right.as_ref() {
                PhysPlan::AEVScan(s) | PhysPlan::EVScan(s) => {
                    Ok(Box::new(DependentJoinExec::new(l, r, s)?))
                }
                other => Err(WsqError::Plan(format!(
                    "dependent join inner must be a virtual scan, got:\n{other}"
                ))),
            }
        }
        PhysPlan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let l = build(left)?;
            let r = build(right)?;
            Ok(Box::new(NestedLoopJoinExec::new(l, r, Some(predicate))?))
        }
        PhysPlan::CrossProduct { left, right } => {
            let l = build(left)?;
            let r = build(right)?;
            Ok(Box::new(NestedLoopJoinExec::new(l, r, None)?))
        }
        PhysPlan::Sort { input, keys } => {
            let child = build(input)?;
            Ok(Box::new(SortExec::new(child, keys)?))
        }
        PhysPlan::Rerank { input, scorer } => {
            let child = build(input)?;
            Ok(Box::new(RerankExec::new(child, *scorer)?))
        }
        PhysPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let child = build(input)?;
            Ok(Box::new(AggregateExec::new(
                child,
                group_by,
                aggs,
                plan.schema(),
            )?))
        }
        PhysPlan::Distinct { input } => {
            let child = build(input)?;
            Ok(Box::new(DistinctExec::new(child)))
        }
        PhysPlan::Limit { input, n } => {
            let child = build(input)?;
            Ok(Box::new(LimitExec::new(child, *n)))
        }
        PhysPlan::ReqSync { input, cap, .. } => {
            let child = build(input)?;
            Ok(Box::new(ReqSyncExec::new(child, ctx.pump.clone(), *cap)))
        }
    }
}

/// Run an executor to completion, collecting all tuples.
pub fn collect(exec: &mut dyn Executor) -> Result<Vec<Tuple>> {
    exec.open()?;
    let mut out = Vec::new();
    while let Some(t) = exec.next()? {
        out.push(t);
    }
    exec.close()?;
    Ok(out)
}
