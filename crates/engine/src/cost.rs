//! An analytical cost model for plans with asynchronous iteration — the
//! paper's declared future work ("fully addressing cost-based query
//! optimization in the presence of asynchronous iteration … is beyond the
//! scope of this paper", §4.5).
//!
//! The model estimates, for a physical plan:
//!
//! * **cardinality** per operator (textbook selectivity heuristics);
//! * **external calls** — one per dependent-join outer row per virtual
//!   scan (times are dominated by these, §4);
//! * **synchronous wall time** — calls are strictly sequential:
//!   `calls × latency`;
//! * **asynchronous wall time** — calls overlap within each *wave*. A wave
//!   ends at every ReqSync that actually waits (one below another, e.g.
//!   when a binding depends on an earlier call's result, adds a wave).
//!   Per wave the pump's concurrency cap batches the calls:
//!   `waves × latency × ceil(calls_per_wave / max_concurrent)`.
//!
//! The estimates are deliberately coarse — their purpose is *ranking*
//! alternatives (sync vs async, Full vs InsertionOnly placement), which
//! the `cost_model_ranks_strategies` tests and the ablation harness
//! validate against measured times.

use crate::exec::TableSource;
use crate::plan::{PhysPlan, VTableKind};
use wsq_sql::ast::{BinOp, Expr};

/// Environment parameters for the model.
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Expected per-request search latency, seconds.
    pub latency_secs: f64,
    /// ReqPump global concurrency cap.
    pub max_concurrent: usize,
    /// CPU cost per tuple processed locally, seconds.
    pub local_row_secs: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            latency_secs: 1.0, // the paper's 1999 search latency
            max_concurrent: 64,
            local_row_secs: 10e-6,
        }
    }
}

impl CostParams {
    /// Calibrate the model from live observability data: the median of
    /// the `wsq_call_latency_seconds` histogram replaces the paper's
    /// fixed 1-second guess, so rankings track the latency the deployed
    /// services actually exhibit. Falls back to [`CostParams::default`]
    /// for any parameter the registry cannot supply (obs disabled, or no
    /// completed calls yet).
    pub fn calibrated(obs: &wsq_obs::Obs, max_concurrent: usize) -> CostParams {
        let mut p = CostParams {
            max_concurrent: max_concurrent.max(1),
            ..CostParams::default()
        };
        if let Some(m) = obs.metrics() {
            if let Some(p50) = m.call_latency.snapshot().quantile(0.5) {
                p.latency_secs = p50.as_secs_f64().max(1e-6);
            }
        }
        p
    }
}

/// The model's output for one plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated external search calls.
    pub external_calls: f64,
    /// Sequential latency waves under asynchronous iteration.
    pub waves: u32,
    /// Estimated wall seconds, synchronous execution.
    pub sync_secs: f64,
    /// Estimated wall seconds, asynchronous execution.
    pub async_secs: f64,
    /// Estimated local processing seconds (both modes).
    pub local_secs: f64,
}

impl CostEstimate {
    /// The model's predicted improvement factor (Table 1's last column).
    pub fn improvement(&self) -> f64 {
        (self.sync_secs + self.local_secs) / (self.async_secs + self.local_secs).max(1e-12)
    }
}

/// Selectivity heuristics (System-R vintage).
fn selectivity(pred: &Expr) -> f64 {
    match pred {
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::Eq => 0.1,
            BinOp::NotEq => 0.9,
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 0.33,
            BinOp::And => selectivity(lhs) * selectivity(rhs),
            BinOp::Or => (selectivity(lhs) + selectivity(rhs)).min(1.0),
            _ => 0.5,
        },
        Expr::Unary { .. } => 0.5,
        Expr::Like { negated, .. } => {
            if *negated {
                0.8
            } else {
                0.2
            }
        }
        Expr::InList { list, negated, .. } => {
            let s = (0.1 * list.len() as f64).min(1.0);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::Between { negated, .. } => {
            if *negated {
                0.7
            } else {
                0.3
            }
        }
        _ => 0.5,
    }
}

/// Is `predicate` one of the conjuncts the index scan under this stack of
/// selections took its key range from? The planner keeps those as filters
/// above the scan; their selectivity is the scan's own 0.1 and must not be
/// charged a second time.
fn charged_by_index_scan(input: &PhysPlan, predicate: &Expr) -> bool {
    match input {
        PhysPlan::Filter { input, .. } => charged_by_index_scan(input, predicate),
        PhysPlan::IndexScan { column, schema, .. } => {
            crate::builder::column_range(predicate, schema)
                .is_some_and(|(idx, _, _)| schema.column(idx).name.eq_ignore_ascii_case(column))
        }
        _ => false,
    }
}

struct Acc {
    rows: f64,
    /// Asynchronous calls (AEVScan → ReqPump; overlap within a wave).
    calls: f64,
    /// Blocking calls (EVScan; strictly sequential in both "modes").
    blocking_calls: f64,
    /// Latency waves already *completed* inside this subtree (closed by a
    /// ReqSync).
    waves: u32,
    /// Are there registered calls not yet waited on (open wave)?
    open_calls: bool,
    local_rows: f64,
}

fn walk(plan: &PhysPlan, tables: &dyn TableSource) -> Acc {
    match plan {
        PhysPlan::SeqScan { table, .. } => {
            let rows = tables
                .table(table)
                .ok()
                .and_then(|(heap, _)| heap.len().ok())
                .unwrap_or(1000) as f64;
            Acc {
                rows,
                calls: 0.0,
                blocking_calls: 0.0,
                waves: 0,
                open_calls: false,
                local_rows: rows,
            }
        }
        PhysPlan::IndexScan { table, .. } => {
            let rows = tables
                .table(table)
                .ok()
                .and_then(|(heap, _)| heap.len().ok())
                .unwrap_or(1000) as f64;
            let rows = (rows * 0.1).max(1.0);
            Acc {
                rows,
                calls: 0.0,
                blocking_calls: 0.0,
                waves: 0,
                open_calls: false,
                local_rows: rows,
            }
        }
        PhysPlan::Values { rows, .. } => Acc {
            rows: rows.len() as f64,
            calls: 0.0,
            blocking_calls: 0.0,
            waves: 0,
            open_calls: false,
            local_rows: rows.len() as f64,
        },
        // A bare scan estimates one invocation's output; the enclosing
        // dependent join scales by outer cardinality. EVScans block the
        // processor per call; AEVScans register and move on.
        PhysPlan::EVScan(spec) | PhysPlan::AEVScan(spec) => {
            let rows = match spec.kind() {
                VTableKind::WebCount => 1.0,
                // Assume engines usually fill most of the rank budget.
                VTableKind::WebPages => spec.rank_limit as f64 * 0.8,
            };
            let asynchronous = matches!(plan, PhysPlan::AEVScan(_));
            Acc {
                rows,
                calls: if asynchronous { 1.0 } else { 0.0 },
                blocking_calls: if asynchronous { 0.0 } else { 1.0 },
                waves: 0,
                open_calls: asynchronous,
                local_rows: rows,
            }
        }
        PhysPlan::Filter { input, predicate } => {
            let mut a = walk(input, tables);
            if !charged_by_index_scan(input, predicate) {
                a.rows *= selectivity(predicate);
            }
            a
        }
        PhysPlan::Project { input, .. } => walk(input, tables),
        PhysPlan::DependentJoin { left, right } => {
            let l = walk(left, tables);
            let r = walk(right, tables);
            Acc {
                rows: l.rows * r.rows,
                calls: l.calls + l.rows * r.calls,
                blocking_calls: l.blocking_calls + l.rows * r.blocking_calls,
                waves: l.waves + r.waves,
                open_calls: l.open_calls || r.open_calls,
                local_rows: l.local_rows + l.rows * r.rows,
            }
        }
        PhysPlan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let l = walk(left, tables);
            let r = walk(right, tables);
            Acc {
                rows: l.rows * r.rows * selectivity(predicate),
                calls: l.calls + r.calls,
                blocking_calls: l.blocking_calls + r.blocking_calls,
                waves: l.waves + r.waves,
                open_calls: l.open_calls || r.open_calls,
                local_rows: l.local_rows + r.local_rows + l.rows * r.rows,
            }
        }
        PhysPlan::CrossProduct { left, right } => {
            let l = walk(left, tables);
            let r = walk(right, tables);
            Acc {
                rows: l.rows * r.rows,
                calls: l.calls + r.calls,
                blocking_calls: l.blocking_calls + r.blocking_calls,
                waves: l.waves + r.waves,
                open_calls: l.open_calls || r.open_calls,
                local_rows: l.local_rows + r.local_rows + l.rows * r.rows,
            }
        }
        PhysPlan::Sort { input, .. }
        | PhysPlan::Rerank { input, .. }
        | PhysPlan::Distinct { input }
        | PhysPlan::Aggregate { input, .. } => {
            let mut a = walk(input, tables);
            a.local_rows += a.rows;
            if matches!(plan, PhysPlan::Aggregate { .. }) {
                a.rows = (a.rows * 0.1).max(1.0);
            }
            a
        }
        PhysPlan::Limit { input, n } => {
            let mut a = walk(input, tables);
            a.rows = a.rows.min(*n as f64);
            a
        }
        PhysPlan::ReqSync { input, .. } => {
            let mut a = walk(input, tables);
            if a.open_calls {
                // This synchronizer closes one latency wave.
                a.waves += 1;
                a.open_calls = false;
            }
            a
        }
    }
}

/// Estimate a plan's cost. `tables` supplies stored-table cardinalities.
pub fn estimate(plan: &PhysPlan, tables: &dyn TableSource, params: &CostParams) -> CostEstimate {
    let a = walk(plan, tables);
    // A still-open wave at the root would mean placeholders escape the
    // plan; the asyncify pass guarantees this never happens, but count it
    // defensively.
    let waves = a.waves + u32::from(a.open_calls);
    let total_calls = a.calls + a.blocking_calls;
    let sync_secs = total_calls * params.latency_secs;
    let per_wave_calls = if waves > 0 {
        a.calls / waves as f64
    } else {
        0.0
    };
    let batches = (per_wave_calls / params.max_concurrent.max(1) as f64)
        .ceil()
        .max(if a.calls > 0.0 { 1.0 } else { 0.0 });
    // Overlapped waves plus any blocking (EVScan) calls, which serialize.
    let async_secs =
        waves as f64 * params.latency_secs * batches + a.blocking_calls * params.latency_secs;
    CostEstimate {
        rows: a.rows,
        external_calls: total_calls,
        waves,
        sync_secs,
        async_secs,
        local_secs: a.local_rows * params.local_row_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn calibration_uses_observed_median_latency() {
        let obs = wsq_obs::Obs::enabled();
        let m = obs.metrics().unwrap();
        for _ in 0..20 {
            m.call_latency.observe(Duration::from_millis(80));
        }
        let p = CostParams::calibrated(&obs, 32);
        assert_eq!(p.max_concurrent, 32);
        // The p50 interpolates within the (50ms, 100ms] bucket — far from
        // the 1-second default, close to the observed 80ms.
        assert!(
            p.latency_secs > 0.01 && p.latency_secs < 0.2,
            "latency_secs = {}",
            p.latency_secs
        );
        // Untouched parameters keep their defaults.
        assert_eq!(p.local_row_secs, CostParams::default().local_row_secs);
    }

    #[test]
    fn calibration_falls_back_without_samples() {
        let d = CostParams::default();
        assert_eq!(
            CostParams::calibrated(&wsq_obs::Obs::disabled(), 64).latency_secs,
            d.latency_secs
        );
        assert_eq!(
            CostParams::calibrated(&wsq_obs::Obs::enabled(), 0).max_concurrent,
            1
        );
    }
}
