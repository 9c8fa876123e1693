//! The four workloads. Each is closed-loop (a WSQ caller is a REPL or an
//! application session that waits for its reply), generated from this
//! one process with at most two caller threads.

pub mod fanout;
pub mod local_sql;
pub mod server;

use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::speed::{timed_setup, RefClock};
use crate::stats::{median_of, Samples};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wsq_common::{Tuple, WsqError};
use wsq_core::Wsq;

/// Arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// How long the end-to-end run measures; the traced run's fixed op
    /// count is sized from it too.
    pub seconds: f64,
    /// Fewest set-up repetitions in an end-to-end run (`setup_s` is
    /// their median).
    pub setups: usize,
}

impl RunArgs {
    pub fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Ops in a traced pass: `per_run` at the default `--seconds`, scaled
    /// with it, never fewer than `at_least`. A count, not a duration, so
    /// the traced run's counters repeat exactly for a given seed.
    pub fn traced_ops(&self, per_run: usize, at_least: usize) -> usize {
        ((per_run as f64 * self.seconds / RUN_SECONDS).round() as usize).max(at_least)
    }
}

/// Set the program up `args.setups` times — and, when set-up is short,
/// until a second of it has been timed, so a 40 ms set-up gets a median
/// of 25 readings, not 5 — tearing down all but the last. Returns the
/// last instance and the median reference-speed seconds.
pub fn set_up_repeatedly<T>(
    args: &RunArgs,
    mut set_up: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T),
) -> Result<(T, f64), String> {
    let at_least = args.setups.max(1);
    // A smoke run asks for one set-up and means it.
    let at_most = if at_least == 1 { 1 } else { 5 * at_least };
    let mut times = Vec::new();
    loop {
        let (fresh, secs) = timed_setup(&mut set_up)?;
        times.push(secs);
        let timed_enough = times.iter().sum::<f64>() >= 1.0 || times.len() >= at_most;
        if times.len() >= at_least && timed_enough {
            return Ok((fresh, median_of(&times)));
        }
        tear_down(fresh);
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// One finished op on a measuring thread's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    /// When it finished, in the thread's clock's seconds since its start.
    pub end_s: f64,
    /// Wall latency, ms.
    pub ms: f64,
    /// Query start to first row, ms, for an op that streamed rows.
    pub first_row_ms: Option<f64>,
}

/// Tally of one measuring thread's pass over a workload.
#[derive(Debug, Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every op, in completion order.
    pub ops: Vec<OpSample>,
    /// Latency of INSERT/UPDATE/DELETE ops, ms.
    pub write_ms: Samples,
}

impl Recorder {
    /// Record an op that took `raw_ms` (and `first_row_raw_ms` to its
    /// first row), converted by `clock`; returns the latency recorded.
    pub fn op(&mut self, clock: &RefClock, raw_ms: f64, first_row_raw_ms: Option<f64>) -> f64 {
        let ms = clock.scale(raw_ms);
        self.ops.push(OpSample {
            end_s: clock.now_s(),
            ms,
            first_row_ms: first_row_raw_ms.map(|f| clock.scale(f)),
        });
        ms
    }

    /// Judge one answer against what the oracle or the model expects;
    /// `what` names the op in the failure log.
    pub fn check<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: impl std::fmt::Display,
        want: &T,
        got: Result<T, WsqError>,
    ) {
        match got {
            Ok(got) if got == *want => {}
            Ok(got) => self.fail(|| format!("{what}: got {got:?}, expected {want:?}")),
            Err(e) => self.fail(|| format!("{what}: {e}")),
        }
    }

    /// Count an op that errored or answered wrongly.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what());
        }
    }

    /// Count a broken invariant that belongs to no single op (a leaked
    /// pump call, a wrong final COUNT).
    pub fn fail_check(&mut self, what: String) {
        self.attempted += 1;
        self.fail(|| what);
    }

    /// Fold in another tally's counts and failures (not its timeline:
    /// timelines are per thread).
    pub fn absorb(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
        self.write_ms.extend(&other.write_ms);
    }

    pub fn into_outcome(self, metrics: Vec<(&'static str, f64)>) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            metrics,
        }
    }
}

/// How a run's ops become its four timing metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// Percentiles over every op, ops ÷ elapsed. For work that is
    /// simulated waiting, which a busy host does not slow.
    Whole,
    /// Cut each thread's timeline into half-second slices, take each
    /// slice's own p50 / p95 / rate, and report the quiet quartile of
    /// the slices: the first quartile of the latencies, the third of the
    /// rates. Contention from the host's other tenants only ever slows a
    /// slice, and comes in bursts of seconds (README "Machine speed");
    /// the quiet quartile reads the same whether a quarter or all of the
    /// run was undisturbed, where a whole-run mean moves with the share.
    QuietQuartile,
}

const SLICE_S: f64 = 0.5;
/// Fewer whole slices than this (a smoke run) and `QuietQuartile` falls
/// back to `Whole`.
const MIN_SLICES: usize = 8;

/// The four timing metrics of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub per_s: f64,
    pub first_row_p50_ms: f64,
}

fn quantile_of(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut s = Samples::default();
    values.into_iter().for_each(|v| s.push(v));
    s.quantile(q)
}

/// `threads` holds each measuring thread's timeline and how long, in
/// its clock's seconds, it ran. Closed-loop callers each complete
/// `ops ÷ elapsed` per second; the fleet's rate is the sum.
pub fn estimate(threads: &[(&[OpSample], f64)], estimator: Estimator) -> Timing {
    let whole = || {
        let all = || threads.iter().flat_map(|(ops, _)| ops.iter());
        Timing {
            p50_ms: quantile_of(all().map(|o| o.ms), 0.5),
            p95_ms: quantile_of(all().map(|o| o.ms), 0.95),
            per_s: threads.iter().map(|(ops, s)| ops.len() as f64 / s).sum(),
            first_row_p50_ms: quantile_of(all().filter_map(|o| o.first_row_ms), 0.5),
        }
    };
    if estimator == Estimator::Whole {
        return whole();
    }
    let (mut p50, mut p95, mut rate, mut first) = (vec![], vec![], vec![], vec![]);
    for (ops, elapsed_s) in threads {
        // Whole slices only: the tail past the last boundary is dropped.
        for k in 0..(elapsed_s / SLICE_S).floor() as usize {
            let (lo, hi) = (k as f64 * SLICE_S, (k + 1) as f64 * SLICE_S);
            let from = ops.partition_point(|o| o.end_s < lo);
            let to = ops.partition_point(|o| o.end_s < hi);
            let slice = &ops[from..to];
            if slice.is_empty() {
                continue;
            }
            p50.push(quantile_of(slice.iter().map(|o| o.ms), 0.5));
            p95.push(quantile_of(slice.iter().map(|o| o.ms), 0.95));
            rate.push(slice.len() as f64 / SLICE_S);
            if slice.iter().any(|o| o.first_row_ms.is_some()) {
                first.push(quantile_of(
                    slice.iter().filter_map(|o| o.first_row_ms),
                    0.5,
                ));
            }
        }
    }
    if p50.len() < MIN_SLICES * threads.len() {
        return whole();
    }
    Timing {
        p50_ms: quantile_of(p50, 0.25),
        p95_ms: quantile_of(p95, 0.25),
        per_s: quantile_of(rate, 0.75) * threads.len() as f64,
        first_row_p50_ms: quantile_of(first, 0.25),
    }
}

pub fn millis(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e6
}

/// Run a SELECT through `Wsq::query_cursor` to its last row. Returns
/// the rows and the raw ms from `t0` to the first one (`None` for an
/// empty result).
pub fn drain_cursor(
    wsq: &mut Wsq,
    sql: &str,
    t0: Instant,
) -> (Result<Vec<Tuple>, WsqError>, Option<f64>) {
    let mut first = None;
    let mut rows = Vec::new();
    let done = (|| {
        let mut cursor = wsq.query_cursor(sql)?;
        while let Some(row) = cursor.next_row()? {
            first.get_or_insert_with(|| millis(t0));
            rows.push(row);
        }
        Ok(())
    })();
    (done.map(|()| rows), first)
}

/// `VmHWM` of this process, MB. Each run is its own process, so this is
/// the workload's peak and nothing else's.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a finished run.
pub fn end_to_end_metrics(setup_s: f64, timing: Timing) -> Vec<(&'static str, f64)> {
    let values = [
        ("setup_s", setup_s),
        ("query_ms_p50", timing.p50_ms),
        ("query_ms_p95", timing.p95_ms),
        ("queries_per_s", timing.per_s),
        ("first_row_ms_p50", timing.first_row_p50_ms),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.0)
        .eq(END_TO_END.iter().map(|m| m.name)));
    values.to_vec()
}

/// Per-layer metrics: the ones the workload measured, and 0 for every
/// layer it does not touch, in table order. Timings (`us`, `ms`) are
/// divided by `slowdown`, the mean machine slowdown the traced run saw
/// (`RefClock::mean_slowdown`; 1 where timings are reported raw), so a
/// layer's number can be set beside the end-to-end ones.
pub fn per_layer_metrics(
    measured: BTreeMap<&'static str, f64>,
    slowdown: f64,
) -> Vec<(&'static str, f64)> {
    for name in measured.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the per-layer table"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let value = measured.get(m.name).copied().unwrap_or(0.0);
            let is_timing = matches!(m.unit, "us" | "ms");
            (m.name, if is_timing { value / slowdown } else { value })
        })
        .collect()
}

/// Poll for the pump to forget every call: a query that has returned
/// its last row has released all of them, but a call released while in
/// flight is only dropped when its reply lands.
pub fn pump_drained(pump: &wsq_pump::ReqPump) -> bool {
    let t0 = Instant::now();
    while pump.live_calls() != 0 {
        if t0.elapsed() > Duration::from_secs(2) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

pub fn run_end_to_end(workload: &str, args: &RunArgs) -> Result<Outcome, String> {
    match workload {
        "fanout_slow_web" => fanout::run_end_to_end(fanout::Regime::SlowWeb, args),
        "fanout_warm_cpu" => fanout::run_end_to_end(fanout::Regime::WarmCpu, args),
        "server_two_sessions" => server::run_end_to_end(args),
        "local_sql_rw" => local_sql::run_end_to_end(args),
        other => Err(format!("unknown workload '{other}'")),
    }
}

pub fn run_traced(workload: &str, args: &RunArgs) -> Result<Outcome, String> {
    match workload {
        "fanout_slow_web" => fanout::run_traced(fanout::Regime::SlowWeb, args),
        "fanout_warm_cpu" => fanout::run_traced(fanout::Regime::WarmCpu, args),
        "server_two_sessions" => server::run_traced(args),
        "local_sql_rw" => local_sql::run_traced(args),
        other => Err(format!("unknown workload '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A timeline of `n` ops per second for `secs` seconds, each taking
    /// `ms(second)`.
    fn timeline(secs: usize, n: usize, ms: impl Fn(usize) -> f64) -> Vec<OpSample> {
        (0..secs * n)
            .map(|i| OpSample {
                end_s: (i as f64 + 0.5) / n as f64,
                ms: ms(i / n),
                first_row_ms: (i % 2 == 0).then(|| ms(i / n) / 2.0),
            })
            .collect()
    }

    #[test]
    fn whole_run_estimates_pool_every_op_and_sum_thread_rates() {
        let a = timeline(4, 10, |_| 2.0);
        let b = timeline(4, 30, |_| 6.0);
        let t = estimate(&[(&a, 4.0), (&b, 4.0)], Estimator::Whole);
        assert_eq!(t.per_s, 40.0);
        assert_eq!(t.p50_ms, 6.0, "three ops in four take 6 ms");
        assert_eq!(t.first_row_p50_ms, 3.0);
    }

    #[test]
    fn the_quiet_quartile_ignores_a_disturbed_majority() {
        // 20 s at 100 ops/s; 12 of the 20 seconds run at half speed.
        let disturbed = |sec: usize| sec % 5 >= 2;
        let ops: Vec<OpSample> = (0..20)
            .flat_map(|sec| {
                let n = if disturbed(sec) { 50 } else { 100 };
                (0..n).map(move |i| OpSample {
                    end_s: sec as f64 + (i as f64 + 0.5) / n as f64,
                    ms: if disturbed(sec) { 20.0 } else { 10.0 },
                    first_row_ms: Some(1.0),
                })
            })
            .collect();
        let quiet = estimate(&[(&ops, 20.0)], Estimator::QuietQuartile);
        assert_eq!(
            (quiet.p50_ms, quiet.p95_ms, quiet.per_s),
            (10.0, 10.0, 100.0)
        );
        let whole = estimate(&[(&ops, 20.0)], Estimator::Whole);
        assert_eq!(whole.per_s, 70.0);
    }

    #[test]
    fn short_runs_fall_back_to_the_whole_run() {
        let ops = timeline(2, 10, |_| 3.0);
        assert_eq!(
            estimate(&[(&ops, 2.0)], Estimator::QuietQuartile),
            estimate(&[(&ops, 2.0)], Estimator::Whole)
        );
    }
}
