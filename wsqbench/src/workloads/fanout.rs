//! `fanout_slow_web` and `fanout_warm_cpu`: the paper's three Table-1
//! templates through an in-process `Wsq`, one caller.
//!
//! The same 60 query instances run in two regimes that differ only in
//! latency and caching (everything else is the product default):
//!
//! * **slow web** — 40 ms + up to 25 ms per call, cache off. The paper's
//!   regime: a query's wall time is how well 50–100 external calls
//!   overlap, i.e. pump caps, queueing, launch order and ReqSync
//!   delivery. Parse/plan cost is under 0.1 % of it.
//! * **warm CPU** — zero latency and every call already cached, so no
//!   simulated wait and no corpus search: what is left is the repo's own
//!   CPU per query and per external call.

use super::{
    drain_cursor, end_to_end_metrics, estimate, millis, per_layer_metrics, pump_drained,
    set_up_repeatedly, Estimator, Outcome, Recorder, RunArgs,
};
use crate::layers::{self, TracedEngines, EXECUTE_SPAN};
use crate::oracle::{summarize, Expected};
use crate::rng::Rng;
use crate::speed::RefClock;
use crate::stats::{median_of, Samples};
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsq_common::Tuple;
use wsq_core::{ExecutionMode, Wsq, WsqConfig};
use wsq_websim::LatencyModel;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    SlowWeb,
    WarmCpu,
}

impl Regime {
    fn name(self) -> &'static str {
        match self {
            Regime::SlowWeb => "fanout_slow_web",
            Regime::WarmCpu => "fanout_warm_cpu",
        }
    }

    fn latency(self) -> LatencyModel {
        match self {
            // The paper-scale setting of the repo's `table1` harness.
            Regime::SlowWeb => LatencyModel::Jitter {
                base: Duration::from_millis(40),
                jitter: Duration::from_millis(25),
            },
            Regime::WarmCpu => LatencyModel::Zero,
        }
    }

    fn cache(self) -> bool {
        self == Regime::WarmCpu
    }

    /// Whether wall time is the program's own CPU (reported at reference
    /// speed, `speed.rs`) or simulated waiting (reported raw).
    fn cpu_bound(self) -> bool {
        self == Regime::WarmCpu
    }

    /// 60-query blocks in each traced pass at the default `--seconds`.
    fn traced_blocks_per_run(self) -> usize {
        match self {
            Regime::SlowWeb => 1,
            Regime::WarmCpu => 5,
        }
    }
}

/// The constant pool the templates draw from (the repo's
/// `wsq_websim::data::TOPICS`, copied so the benchmark's inputs do not
/// move when the product's data does).
pub const TOPICS: [&str; 20] = [
    "computer",
    "beaches",
    "crime",
    "politics",
    "frogs",
    "lakes",
    "football",
    "taxes",
    "hiking",
    "weather",
    "music",
    "history",
    "wine",
    "desert",
    "gold",
    "oil",
    "fishing",
    "skiing",
    "casinos",
    "universities",
];

/// Template 1: `States ⋈ WebCount` — one call per state (50).
pub fn template1(v: &str) -> String {
    format!(
        "SELECT Name, Count FROM States, WebCount \
         WHERE Name = T1 AND WebCount.T2 = '{v}'"
    )
}

/// Template 2: `States ⋈ WebCount ⋈ WebPages` — two calls per state (100).
fn template2(v1: &str, v2: &str) -> String {
    format!(
        "SELECT Name, Count, URL, Rank \
         FROM States, WebCount, WebPages \
         WHERE Name = WebCount.T1 AND WebCount.T2 = '{v1}' \
         AND Name = WebPages.T1 AND WebPages.T2 = '{v2}' \
         AND WebPages.Rank <= 2"
    )
}

/// Template 3: `Sigs ⋈ WebPages_AV ⋈ WebPages_Google` — two engines per
/// Sig (74 calls).
fn template3(v: &str) -> String {
    format!(
        "SELECT Name, AV.URL, G.URL \
         FROM Sigs, WebPages_AV AV, WebPages_Google G \
         WHERE Name = AV.T1 AND Name = G.T1 \
         AND AV.Rank <= 3 AND G.Rank <= 3 \
         AND AV.T2 = '{v}' AND G.T2 = '{v}'"
    )
}

/// One instantiated template.
pub struct Instance {
    /// 0, 1, 2 for Templates 1, 2, 3.
    pub template: usize,
    pub sql: String,
}

/// The 60 distinct instances of a seed: every topic through Templates 1
/// and 3, and 20 topic pairs through Template 2. The pairing is a
/// seed-shuffled permutation — each topic is `v1` once and `v2` once —
/// so every seed issues the same multiset of external calls and only
/// which call meets which differs; pairs drawn freely made the Template-2
/// cluster, and with it `query_ms_p95`, heavier on some seeds than others.
pub fn instances(seed: u64) -> Vec<Instance> {
    let mut partner: Vec<usize> = (0..TOPICS.len()).collect();
    Rng::new(seed, 0x71).shuffle(&mut partner);
    let instance = |template, sql| Instance { template, sql };
    let t1 = TOPICS.iter().map(|t| instance(0, template1(t)));
    let t2 = TOPICS
        .iter()
        .zip(&partner)
        .map(|(t, &p)| instance(1, template2(t, TOPICS[p])));
    let t3 = TOPICS.iter().map(|t| instance(2, template3(t)));
    t1.chain(t2).chain(t3).collect()
}

/// The op sequence: block after block of all 60 instances, each block
/// shuffled by the seed, so every template keeps an exact third of the
/// ops however long the run.
struct Blocks {
    rng: Rng,
    len: usize,
}

impl Blocks {
    fn new(seed: u64, len: usize) -> Blocks {
        Blocks {
            rng: Rng::new(seed, 0x72),
            len,
        }
    }

    fn next_block(&mut self) -> Vec<usize> {
        let mut block: Vec<usize> = (0..self.len).collect();
        self.rng.shuffle(&mut block);
        block
    }
}

fn open(config: WsqConfig) -> Result<Wsq, String> {
    let mut wsq = Wsq::open_in_memory(config).map_err(|e| format!("open: {e}"))?;
    wsq.load_reference_data()
        .map_err(|e| format!("reference data: {e}"))?;
    Ok(wsq)
}

fn config(regime: Regime, obs: bool) -> WsqConfig {
    WsqConfig {
        latency: regime.latency(),
        cache: regime.cache(),
        obs,
        ..WsqConfig::default()
    }
}

/// Run every instance until every external call it can make is cached.
///
/// One pass is not enough: when a tuple dies (a Sig with no pages on one
/// engine), ReqSync cancels the tuple's other call if the pump has not
/// launched it yet, and whether it has depends on how fast the queue
/// drains — slowly while calls miss, quickly once they hit. So a later
/// pass reaches calls an earlier one cancelled. Stop after two passes in
/// a row that add nothing (`misses` reads the cache-miss counter).
fn warm(wsq: &mut Wsq, insts: &[Instance], misses: impl Fn(&Wsq) -> u64) -> Result<(), String> {
    let mut clean_passes = 0;
    for _ in 0..10 {
        let before = misses(wsq);
        for inst in insts {
            wsq.query(&inst.sql).map_err(|e| format!("warm-up: {e}"))?;
        }
        clean_passes = if misses(wsq) == before {
            clean_passes + 1
        } else {
            0
        };
        if clean_passes == 2 {
            return Ok(());
        }
    }
    Err("the cache did not settle in ten warm-up passes".to_string())
}

fn product_cache_misses(wsq: &Wsq) -> u64 {
    wsq.cache_stats().values().map(|c| c.misses).sum()
}

/// The program's set-up, as a user pays it: build the corpus and the
/// instance, load the reference tables, and (warm regime) fill the cache.
fn setup(regime: Regime, insts: &[Instance], obs: bool) -> Result<Wsq, String> {
    let mut wsq = open(config(regime, obs))?;
    if regime.cache() {
        warm(&mut wsq, insts, product_cache_misses)?;
    }
    Ok(wsq)
}

/// Reference answers from a zero-latency, synchronous instance: no
/// pump, no placeholders, no ReqSync.
pub fn reference<'a>(
    sqls: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<(Expected, Vec<Tuple>)>, String> {
    let mut wsq = open(WsqConfig::default())?;
    wsq.options_mut().mode = ExecutionMode::Synchronous;
    sqls.into_iter()
        .map(|sql| {
            let rows = wsq.query(sql).map_err(|e| format!("oracle: {e}"))?.rows;
            Ok((summarize(&rows), rows))
        })
        .collect()
}

fn expected(insts: &[Instance]) -> Result<Vec<Expected>, String> {
    Ok(reference(insts.iter().map(|i| i.sql.as_str()))?
        .into_iter()
        .map(|(e, _)| e)
        .collect())
}

fn check_drained(rec: &mut Recorder, wsq: &Wsq) {
    if !pump_drained(wsq.pump()) {
        rec.fail_check(format!(
            "pump still holds {} calls after the workload",
            wsq.pump().live_calls()
        ));
    }
}

/// One end-to-end op: open a cursor, timestamp the first and last row.
fn run_cursor(wsq: &mut Wsq, rec: &mut Recorder, clock: &RefClock, sql: &str, want: Expected) {
    rec.attempted += 1;
    let t0 = Instant::now();
    let (rows, first) = drain_cursor(wsq, sql, t0);
    let total = millis(t0);
    rec.op(clock, total, Some(first.unwrap_or(total)));
    rec.check(sql, &want, rows.map(|rows| summarize(&rows)));
}

pub fn run_end_to_end(regime: Regime, args: &RunArgs) -> Result<Outcome, String> {
    let insts = instances(args.seed);
    let want = expected(&insts)?;

    let (mut wsq, setup_s) = set_up_repeatedly(args, || setup(regime, &insts, true), drop)?;

    let mut rec = Recorder::default();
    let mut blocks = Blocks::new(args.seed, insts.len());
    let deadline = args.deadline();
    let t0 = Instant::now();
    let mut clock = RefClock::start(regime.cpu_bound());
    'run: loop {
        for i in blocks.next_block() {
            clock.tick();
            run_cursor(&mut wsq, &mut rec, &clock, &insts[i].sql, want[i]);
            if t0.elapsed() >= deadline {
                break 'run;
            }
        }
    }
    let estimator = if regime.cpu_bound() {
        Estimator::QuietQuartile
    } else {
        Estimator::Whole
    };
    let timing = estimate(&[(&rec.ops, clock.now_s())], estimator);
    check_drained(&mut rec, &wsq);
    let metrics = end_to_end_metrics(setup_s, timing);
    Ok(rec.into_outcome(metrics))
}

/// `WsqConfig.obs` on against off, on a slice of the warm workload: five
/// interleaved pairs, each side first in turn, median of the pairs.
fn obs_overhead_pct(on: &mut Wsq, insts: &[Instance]) -> Result<f64, String> {
    let mut off = setup(Regime::WarmCpu, insts, false)?;
    let slice = |wsq: &mut Wsq| -> Result<f64, String> {
        let t0 = Instant::now();
        for _ in 0..2 {
            for inst in insts {
                wsq.query(&inst.sql).map_err(|e| e.to_string())?;
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    };
    let mut pct = Vec::new();
    for pair in 0..5 {
        let (t_on, t_off) = if pair % 2 == 0 {
            let a = slice(on)?;
            (a, slice(&mut off)?)
        } else {
            let b = slice(&mut off)?;
            (slice(on)?, b)
        };
        pct.push((t_on - t_off) / t_off * 100.0);
    }
    Ok(median_of(&pct))
}

pub fn run_traced(regime: Regime, args: &RunArgs) -> Result<Outcome, String> {
    let insts = instances(args.seed);
    let want = expected(&insts)?;
    let tracer = Arc::new(Tracer::new());

    // The untraced side runs on the product as shipped, the traced side
    // on an instance whose engines carry the harness's decorators; the
    // difference between them is the tracing overhead.
    let mut plain = setup(regime, &insts, true)?;
    let mut traced = open(config(regime, true))?;
    let engines = TracedEngines::install(&mut traced, regime.latency(), regime.cache(), &tracer);
    if regime.cache() {
        warm(&mut traced, &insts, |_| engines.cache_stats().misses)?;
    }

    let mut blocks = Blocks::new(args.seed, insts.len());
    // A smoke run takes part of a block, but at least two of each
    // template on average.
    let ops_n = args.traced_ops(regime.traced_blocks_per_run() * insts.len(), 6);
    let ops: Vec<usize> = (0..ops_n.div_ceil(insts.len()))
        .flat_map(|_| blocks.next_block())
        .take(ops_n)
        .collect();

    // Each statement twice, back to back so both see the same machine:
    // A is `Wsq::query` on the product as shipped; B is the harness
    // driving parse → plan → exec itself, a span around each.
    let mut rec = Recorder::default();
    let mut by_template = [Samples::default(), Samples::default(), Samples::default()];
    let mut rows_per_query = Samples::default();
    let pump_before = layers::pump_stats(&traced);
    let cache_before = engines.cache_stats();
    let declared_before = engines.declared_latency_s();
    let (mut wall_a, mut wall_b) = (0.0, 0.0);
    let mut clock = RefClock::start(regime.cpu_bound());
    for (q, &i) in ops.iter().enumerate() {
        let sql = &insts[i].sql;
        rec.attempted += 2;
        clock.tick();

        let t0 = Instant::now();
        let got = plain.query(sql);
        let total = millis(t0);
        wall_a += total;
        by_template[insts[i].template].push(total);
        if let Ok(r) = &got {
            rows_per_query.push(r.rows.len() as f64);
        }
        rec.check(sql, &want[i], got.map(|r| summarize(&r.rows)));

        let qid = q as u32 + 1;
        let t0 = Instant::now();
        let got = tracer.span("core.query", qid, || {
            let sel = tracer.span("sql.parse", qid, || layers::parse_select(sql))?;
            let plan = tracer.span("engine.plan", qid, || layers::plan(&traced, &sel))?;
            tracer.span("engine.exec", qid, || layers::exec(&traced, &plan))
        });
        wall_b += millis(t0);
        rec.check(sql, &want[i], got.map(|r| summarize(&r.rows)));
    }
    check_drained(&mut rec, &plain);
    check_drained(&mut rec, &traced);
    let pump_after = layers::pump_stats(&traced);
    let cache_after = engines.cache_stats();
    let declared_s = engines.declared_latency_s() - declared_before;

    // Service spans also cover the traced instance's warm-up.
    let spans = tracer.snapshot();
    let parse = trace::durations_us(&spans, "sql.parse");
    let plan = trace::durations_us(&spans, "engine.plan");
    let exec = trace::durations_us(&spans, "engine.exec");
    let phase_sum_us = parse.sum() + plan.sum() + exec.sum();
    let total_a_us = wall_a * 1e3;
    let phase_sum_ratio = phase_sum_us / total_a_us;
    // The acceptance range applies where the phases are CPU (on the slow
    // web both sides are dominated by the same simulated wait) and the
    // sample is at least a block (a smoke run's six queries are not).
    let enough = ops.len() >= insts.len();
    if regime == Regime::WarmCpu && enough && !(0.9..=1.1).contains(&phase_sum_ratio) {
        rec.fail_check(format!(
            "parse+plan+exec is {phase_sum_ratio:.3} of Wsq::query, outside [0.9, 1.1]"
        ));
    }

    let registered = pump_after.registered - pump_before.registered;
    let launched = pump_after.launched - pump_before.launched;
    let misses = cache_after.misses - cache_before.misses;
    let hits = cache_after.hits - cache_before.hits;
    let cache_coalesced = cache_after.coalesced - cache_before.coalesced;
    let backend_calls = if regime.cache() { misses } else { launched };
    if regime == Regime::WarmCpu && backend_calls != 0 {
        rec.fail_check(format!(
            "{backend_calls} calls reached a backend on the warm workload"
        ));
    }

    // Asyncify alone, on each distinct statement's synchronous plan.
    let mut asyncify_us = Samples::default();
    for inst in &insts {
        let sel = layers::parse_select(&inst.sql).map_err(|e| e.to_string())?;
        let sync_plan = layers::plan_synchronous(&traced, &sel).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        std::hint::black_box(layers::asyncify(std::hint::black_box(sync_plan)));
        asyncify_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    let pump_probe = layers::pump_probe(2000).map_err(|e| e.to_string())?;

    // Over the traced instance's whole life: on the warm workload the
    // backend only runs while the cache fills.
    let execute = trace::durations_us(&spans, EXECUTE_SPAN);
    let cache_hit_us = layers::cache_hit_us(&spans);

    let ops_n = ops.len() as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("workload.ops", ops_n),
        (
            "workload.backend_calls_per_query",
            backend_calls as f64 / ops_n,
        ),
        ("sql.parse_us", parse.median()),
        ("engine.plan_us", plan.median()),
        ("engine.asyncify_us", asyncify_us.median()),
        ("engine.exec_us", exec.median()),
        (
            "engine.exec_us_per_call",
            exec.sum() / registered.max(1) as f64,
        ),
        ("engine.rows_per_query", rows_per_query.mean()),
        ("engine.t1_ms_p50", by_template[0].median()),
        ("engine.t2_ms_p50", by_template[1].median()),
        ("engine.t3_ms_p50", by_template[2].median()),
        ("pump.register_us", pump_probe.register_us.median()),
        ("pump.roundtrip_us", pump_probe.roundtrip_us.median()),
        (
            "pump.batch64_us_per_call",
            pump_probe.batch64_us_per_call.median(),
        ),
        ("pump.registered", registered as f64),
        ("pump.launched", launched as f64),
        (
            "pump.coalesced",
            (pump_after.coalesced - pump_before.coalesced) as f64,
        ),
        (
            "pump.batches",
            (pump_after.batches - pump_before.batches) as f64,
        ),
        ("pump.peak_in_flight", pump_after.peak_in_flight as f64),
        ("pump.peak_queued", pump_after.peak_queued as f64),
        ("websim.execute_us", execute.median()),
        ("websim.cache_hit_us", cache_hit_us.median()),
        (
            "websim.cache_hit_ratio",
            hits as f64 / (hits + misses + cache_coalesced).max(1) as f64,
        ),
        ("websim.cache_coalesced", cache_coalesced as f64),
        ("websim.backend_calls", backend_calls as f64),
        (
            "trace.harness_overhead_pct",
            (wall_b - wall_a) / wall_a * 100.0,
        ),
        ("trace.phase_sum_ratio", phase_sum_ratio),
        ("trace.spans", spans.len() as f64),
        (
            "trace.query_self_us",
            trace::self_us(&spans, "core.query").median(),
        ),
    ]);
    match regime {
        // The paper's improvement factor without paying for a
        // synchronous run: a synchronous executor would wait out every
        // declared latency in turn.
        Regime::SlowWeb => {
            m.insert("pump.overlap_x", declared_s / (exec.sum() / 1e6));
        }
        // Both are CPU-sized effects: on the slow web they would drown
        // in the jitter of 100 ms queries.
        Regime::WarmCpu => {
            m.insert(
                "core.dispatch_overhead_us",
                (total_a_us - phase_sum_us) / ops_n,
            );
            m.insert(
                "obs.enabled_overhead_pct",
                obs_overhead_pct(&mut plain, &insts)?,
            );
        }
    }

    trace::write_chrome_trace(&spans, &trace::trace_file(regime.name()))
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(rec.into_outcome(per_layer_metrics(m, clock.mean_slowdown())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn a_seed_fixes_the_instances_and_their_order() {
        let sqls = |seed| -> Vec<String> { instances(seed).into_iter().map(|i| i.sql).collect() };
        assert_eq!(sqls(5), sqls(5));
        assert_ne!(sqls(5), sqls(6), "the Template-2 pairing is drawn by seed");
        let insts = instances(5);
        assert_eq!(insts.len(), 60);
        let distinct: HashSet<&str> = insts.iter().map(|i| i.sql.as_str()).collect();
        assert_eq!(distinct.len(), 60);
        for t in 0..3 {
            assert_eq!(insts.iter().filter(|i| i.template == t).count(), 20);
        }
        let order = |seed| Blocks::new(seed, 60).next_block();
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
    }

    #[test]
    fn every_instance_parses() {
        for inst in instances(1) {
            layers::parse_select(&inst.sql).unwrap_or_else(|e| panic!("{}: {e}", inst.sql));
        }
    }
}
