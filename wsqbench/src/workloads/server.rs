//! `server_two_sessions`: an in-process `wsq-server` on loopback over a
//! `SharedWsq`, driven by two `wsq-client` connections on two threads.
//!
//! The only workload that crosses the wire — protocol encode/decode, the
//! thread-per-connection server, session scope — and the only one where
//! two callers share one cache and one pump. The inserts take the
//! `RwLock<Database>` write side beside the other session's reads, so a
//! read-path gain that costs writers shows here.
//!
//! Mix per 100 ops of a session (exact, shuffled by the seed):
//! 70 `WebCount` point lookups with the `(name, topic)` pair drawn
//! Zipf(1.0) from one seed-shuffled vocabulary both sessions share
//! (States×TOPICS ∪ Sigs×TOPICS, 1 740 pairs); 15 Template-1 queries
//! streamed with `Client::query_streaming`; 10 `INSERT INTO Notes`;
//! 5 `SELECT COUNT(*) FROM Notes WHERE Sess = <own id>`.

use super::fanout::{reference, template1, TOPICS};
use super::{
    end_to_end_metrics, estimate, millis, per_layer_metrics, pump_drained, set_up_repeatedly,
    Estimator, OpSample, Outcome, Recorder, RunArgs,
};
use crate::layers::{self, TracedEngines, EXECUTE_SPAN};
use crate::oracle::{summarize, Expected};
use crate::rng::{shuffled_block, Rng, Zipf};
use crate::speed::{RefClock, Speedometer};
use crate::stats::Samples;
use crate::trace::{self, Tracer};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wsq_client::{Client, RemoteStatementResult};
use wsq_common::{Tuple, Value, WsqError};
use wsq_core::{SharedWsq, Wsq, WsqConfig};
use wsq_server::{Server, ServerConfig, ServerHandle};
use wsq_websim::LatencyModel;

const SESSIONS: usize = 2;
const LATENCY: LatencyModel = LatencyModel::Fixed(Duration::from_millis(2));
/// Lookup, stream, insert, count — per 100 ops.
const MIX: [usize; 4] = [70, 15, 10, 5];
const KINDS: [&str; 4] = [
    "client.lookup",
    "client.stream",
    "client.insert",
    "client.count",
];
/// 100-op blocks per session in each traced pass at the default
/// `--seconds`.
const TRACED_BLOCKS_PER_RUN: usize = 30;

fn lookup_sql(name: &str, topic: &str) -> String {
    format!("SELECT Count FROM WebCount WHERE T1 = '{name}' AND T2 = '{topic}'")
}

/// Everything the ops and their checks need, fixed by the seed before
/// any timing starts.
struct Plan {
    /// `(name index, topic index)` in popularity order: Zipf rank 0 first.
    vocabulary: Vec<(usize, usize)>,
    /// Lookup SQL and its reference answer, by vocabulary position.
    lookups: Vec<(String, Expected)>,
    /// Template-1 SQL and its reference answer, by topic.
    streams: Vec<(String, Expected)>,
    /// How many of the names are States (the rest are Sigs).
    states: usize,
    zipf: Zipf,
    /// 64 rows of Template-2 output, for the codec probe.
    sample_rows: Vec<Tuple>,
}

impl Plan {
    fn build(seed: u64) -> Result<Plan, String> {
        let names_of =
            |rows: &[Tuple]| -> Vec<String> { rows.iter().map(|r| r.get(0).to_string()).collect() };
        let listed = reference(["SELECT Name FROM States", "SELECT Name FROM Sigs"])?;
        let states = names_of(&listed[0].1);
        let mut names = states.clone();
        names.extend(names_of(&listed[1].1));

        let mut vocabulary: Vec<(usize, usize)> = (0..names.len())
            .flat_map(|n| (0..TOPICS.len()).map(move |t| (n, t)))
            .collect();
        Rng::new(seed, 0x51).shuffle(&mut vocabulary);

        let lookup_sqls: Vec<String> = vocabulary
            .iter()
            .map(|&(n, t)| lookup_sql(&names[n], TOPICS[t]))
            .collect();
        let stream_sqls: Vec<String> = TOPICS.iter().map(|t| template1(t)).collect();
        let probe_sql = "SELECT Name, Count, URL, Rank FROM States, WebCount, WebPages \
                         WHERE Name = WebCount.T1 AND Name = WebPages.T1 AND WebPages.Rank <= 2";
        let mut answers = reference(
            lookup_sqls
                .iter()
                .chain(&stream_sqls)
                .map(String::as_str)
                .chain([probe_sql]),
        )?;
        let mut sample_rows = answers.pop().expect("the probe query was asked last").1;
        sample_rows.truncate(64);
        let mut expected = answers.into_iter().map(|(e, _)| e);
        let lookups: Vec<(String, Expected)> =
            lookup_sqls.into_iter().zip(expected.by_ref()).collect();
        let streams = stream_sqls.into_iter().zip(expected).collect();
        Ok(Plan {
            zipf: Zipf::new(vocabulary.len()),
            vocabulary,
            lookups,
            streams,
            states: states.len(),
            sample_rows,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Op {
    Lookup(usize),
    Stream(usize),
    Insert,
    Count,
}

/// One session's op stream: a pure function of `(seed, session)`.
struct SessionOps<'a> {
    plan: &'a Plan,
    rng: Rng,
    block: Vec<usize>,
}

impl<'a> SessionOps<'a> {
    fn new(plan: &'a Plan, seed: u64, session: usize) -> Self {
        SessionOps {
            plan,
            rng: Rng::new(seed, 0x52 + session as u64),
            block: Vec::new(),
        }
    }
}

impl Iterator for SessionOps<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.block.is_empty() {
            self.block = shuffled_block(&MIX, &mut self.rng);
        }
        Some(match self.block.pop()? {
            0 => Op::Lookup(self.plan.zipf.sample(&mut self.rng)),
            1 => Op::Stream(self.rng.below(TOPICS.len() as u64) as usize),
            2 => Op::Insert,
            _ => Op::Count,
        })
    }
}

/// A running server and what the harness holds of it.
struct Served {
    handle: ServerHandle,
    shared: SharedWsq,
    clients: Vec<Client>,
}

impl Served {
    /// The program's set-up: build the instance, load the reference
    /// tables, create `Notes`, bind the server, connect both clients.
    /// `decorate` is where the traced run swaps in its engines.
    fn start(decorate: impl FnOnce(&mut Wsq)) -> Result<Served, String> {
        let config = WsqConfig {
            cache: true,
            latency: LATENCY,
            ..WsqConfig::default()
        };
        let mut wsq = Wsq::open_in_memory(config).map_err(|e| format!("open: {e}"))?;
        wsq.load_reference_data()
            .and_then(|()| wsq.execute("CREATE TABLE Notes (Sess INT, Seq INT, Term VARCHAR(40))"))
            .map_err(|e| format!("tables: {e}"))?;
        decorate(&mut wsq);
        let shared = wsq.into_shared();
        let handle = Server::bind(shared.clone(), ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let clients = (0..SESSIONS)
            .map(|_| Client::connect(handle.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Served {
            handle,
            shared,
            clients,
        })
    }

    fn stop(self) {
        for client in self.clients {
            // A failed goodbye only means the server closed first.
            let _ = client.goodbye();
        }
        self.handle.shutdown();
    }
}

/// When a session stops issuing ops.
#[derive(Clone, Copy)]
enum Until {
    Deadline(Duration),
    Ops(usize),
}

/// How one pass over the workload is driven.
#[derive(Clone, Copy)]
struct Pass<'a> {
    seed: u64,
    until: Until,
    /// Report timings at reference speed (`speed.rs`).
    normalise: bool,
    /// Record a span around every client call.
    tracer: Option<&'a Tracer>,
}

/// One session's tally, with per-kind latencies (ms) for the traced run.
struct SessionRun {
    rec: Recorder,
    /// Reference-speed seconds this session ran for.
    elapsed_s: f64,
    by_kind: [Samples; 4],
    inserted: i64,
    /// Vocabulary positions whose expression this session asked for.
    asked: HashSet<(usize, usize)>,
}

fn int_row(v: i64) -> Expected {
    summarize([&Tuple::new(vec![Value::Int(v)])])
}

/// Drive one connection until `until`, checking every reply.
fn run_session(client: &mut Client, session: usize, plan: &Plan, pass: Pass) -> SessionRun {
    let Pass {
        seed,
        until,
        normalise,
        tracer,
    } = pass;
    let t0 = Instant::now();
    let mut clock = RefClock::start(normalise);
    let mut run = SessionRun {
        rec: Recorder::default(),
        elapsed_s: 0.0,
        by_kind: Default::default(),
        inserted: 0,
        asked: HashSet::new(),
    };
    let sess_id = session as i64 + 1;
    for (n, op) in SessionOps::new(plan, seed, session).enumerate() {
        match until {
            Until::Ops(max) if n >= max => break,
            Until::Deadline(d) if n > 0 && t0.elapsed() >= d => break,
            _ => {}
        }
        clock.tick();
        run.rec.attempted += 1;
        let kind = match op {
            Op::Lookup(_) => 0,
            Op::Stream(_) => 1,
            Op::Insert => 2,
            Op::Count => 3,
        };
        let span = tracer.map(|t| t.enter(KINDS[kind], (session * 1_000_000 + n) as u32 + 1));
        let q0 = Instant::now();
        let mut first_row = None;
        let (sql, want, got): (String, Expected, Result<Expected, WsqError>) = match op {
            Op::Lookup(rank) => {
                let (sql, want) = &plan.lookups[rank];
                run.asked.insert(plan.vocabulary[rank]);
                let got = client.query(sql).map(|r| summarize(&r.rows));
                (sql.clone(), *want, got)
            }
            Op::Stream(topic) => {
                let (sql, want) = &plan.streams[topic];
                run.asked.extend((0..plan.states).map(|s| (s, topic)));
                let mut seen = Expected::default();
                let got = client
                    .query_streaming(sql, |row| {
                        first_row.get_or_insert_with(|| millis(q0));
                        seen.add(row);
                    })
                    .map(|_| seen);
                (sql.clone(), *want, got)
            }
            Op::Insert => {
                let sql = format!(
                    "INSERT INTO Notes VALUES ({sess_id}, {}, '{}')",
                    run.inserted,
                    TOPICS[run.inserted as usize % TOPICS.len()]
                );
                // Encode "one statement, one row affected" as the row (1).
                let got = client.execute(&sql).map(|r| match r.as_slice() {
                    [RemoteStatementResult::Affected(n)] => int_row(*n as i64),
                    _ => Expected::default(),
                });
                run.inserted += 1;
                (sql, int_row(1), got)
            }
            Op::Count => {
                let sql = format!("SELECT COUNT(*) FROM Notes WHERE Sess = {sess_id}");
                let got = client.query(&sql).map(|r| summarize(&r.rows));
                (sql, int_row(run.inserted), got)
            }
        };
        let raw = millis(q0);
        drop(span);
        let total = run.rec.op(&clock, raw, first_row);
        run.by_kind[kind].push(total);
        if kind == 2 {
            run.rec.write_ms.push(total);
        }
        run.rec
            .check(format_args!("session {sess_id}: {sql}"), &want, got);
    }
    run.elapsed_s = clock.now_s();
    run
}

/// Both sessions side by side, released together.
fn run_sessions(served: &mut Served, plan: &Plan, pass: Pass) -> Vec<SessionRun> {
    let barrier = Barrier::new(SESSIONS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(session, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    run_session(client, session, plan, pass)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a session thread panicked"))
            .collect()
    })
}

fn timing(runs: &[SessionRun], estimator: Estimator) -> super::Timing {
    let threads: Vec<(&[OpSample], f64)> = runs
        .iter()
        .map(|r| (r.rec.ops.as_slice(), r.elapsed_s))
        .collect();
    estimate(&threads, estimator)
}

/// After the sessions stop: `Notes` must hold exactly what they wrote,
/// and the shared pump must have forgotten every call.
fn final_checks(served: &mut Served, runs: &[SessionRun], rec: &mut Recorder) {
    let client = &mut served.clients[0];
    let mut expect = |sql: String, want: i64| {
        rec.attempted += 1;
        match client.query(&sql) {
            Ok(r) if summarize(&r.rows) == int_row(want) => {}
            Ok(r) => rec.fail(|| format!("{sql}: got {:?}, model says {want}", r.rows)),
            Err(e) => rec.fail(|| format!("{sql}: {e}")),
        }
    };
    let total: i64 = runs.iter().map(|r| r.inserted).sum();
    expect("SELECT COUNT(*) FROM Notes".to_string(), total);
    for (session, run) in runs.iter().enumerate() {
        if run.inserted > 0 {
            let n = run.inserted;
            expect(
                format!("SELECT SUM(Seq) FROM Notes WHERE Sess = {}", session + 1),
                n * (n - 1) / 2,
            );
        }
    }
    if !pump_drained(served.shared.pump()) {
        rec.fail_check(format!(
            "shared pump still holds {} calls after the workload",
            served.shared.pump().live_calls()
        ));
    }
}

fn merged(runs: Vec<SessionRun>) -> Recorder {
    let mut rec = Recorder::default();
    for run in runs {
        rec.absorb(run.rec);
    }
    rec
}

pub fn run_end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let plan = Plan::build(args.seed)?;

    let (mut served, setup_s) = set_up_repeatedly(args, || Served::start(|_| ()), Served::stop)?;

    let pass = Pass {
        seed: args.seed,
        until: Until::Deadline(args.deadline()),
        normalise: true,
        tracer: None,
    };
    let runs = run_sessions(&mut served, &plan, pass);
    let mut checks = Recorder::default();
    final_checks(&mut served, &runs, &mut checks);
    let metrics = end_to_end_metrics(setup_s, timing(&runs, Estimator::QuietQuartile));
    let mut rec = merged(runs);
    rec.absorb(checks);
    served.stop();
    Ok(rec.into_outcome(metrics))
}

pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let plan = Plan::build(args.seed)?;
    let tracer = Arc::new(Tracer::new());
    let untraced = Pass {
        seed: args.seed,
        until: Until::Ops(args.traced_ops(TRACED_BLOCKS_PER_RUN * 100, 100)),
        normalise: false,
        tracer: None,
    };

    // The sessions' threads keep raw time here, so the machine's speed is
    // read on this thread, around each stage.
    let mut meter = Speedometer::new();
    let mut slowdowns = vec![meter.read()];

    // Pass A: the product as shipped, no spans.
    let mut plain = Served::start(|_| ())?;
    let runs_a = run_sessions(&mut plain, &plan, untraced);
    let rate_a = timing(&runs_a, Estimator::Whole).per_s;
    slowdowns.push(meter.read());
    let mut rec = Recorder::default();
    final_checks(&mut plain, &runs_a, &mut rec);
    let mut by_kind: [Samples; 4] = Default::default();
    for run in &runs_a {
        for (all, own) in by_kind.iter_mut().zip(&run.by_kind) {
            all.extend(own);
        }
    }
    let probe_sql = &plan.lookups[0].0;
    let wire = layers::server_probe(plain.handle.addr(), &plain.shared, probe_sql, 500)
        .map_err(|e| format!("server probe: {e}"))?;
    plain.stop();
    let codec =
        layers::protocol_probe(&plan.sample_rows, 500).map_err(|e| format!("codec probe: {e}"))?;
    rec.absorb(merged(runs_a));
    let write_ms_p50 = rec.write_ms.median();
    slowdowns.push(meter.read());

    // Pass B: the same ops against an instance whose engines carry the
    // harness's decorators, a span around every client call.
    let mut engines = None;
    let mut traced = Served::start(|wsq| {
        engines = Some(TracedEngines::install(wsq, LATENCY, true, &tracer));
    })?;
    let engines = engines.expect("start ran the decorator");
    let traced_pass = Pass {
        tracer: Some(&tracer),
        ..untraced
    };
    let runs_b = run_sessions(&mut traced, &plan, traced_pass);
    let rate_b = timing(&runs_b, Estimator::Whole).per_s;
    slowdowns.push(meter.read());
    final_checks(&mut traced, &runs_b, &mut rec);
    let pump = traced.shared.pump().stats();
    let cache = engines.cache_stats();
    traced.stop();

    // Single-flight, fleet-wide: however the two sessions interleaved,
    // each distinct expression reached a backend exactly once.
    let asked: HashSet<(usize, usize)> = runs_b
        .iter()
        .flat_map(|r| r.asked.iter().copied())
        .collect();
    if cache.misses != asked.len() as u64 {
        rec.fail_check(format!(
            "{} backend calls for {} distinct expressions",
            cache.misses,
            asked.len()
        ));
    }
    let ops_b: u64 = runs_b.iter().map(|r| r.rec.attempted).sum();
    rec.absorb(merged(runs_b));

    let spans = tracer.snapshot();
    let cache_hit_us = layers::cache_hit_us(&spans);

    let m: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("workload.ops", ops_b as f64),
        ("workload.write_ms_p50", write_ms_p50),
        (
            "workload.backend_calls_per_query",
            cache.misses as f64 / ops_b as f64,
        ),
        ("pump.registered", pump.registered as f64),
        ("pump.launched", pump.launched as f64),
        ("pump.coalesced", pump.coalesced as f64),
        ("pump.batches", pump.batches as f64),
        ("pump.peak_in_flight", pump.peak_in_flight as f64),
        ("pump.peak_queued", pump.peak_queued as f64),
        (
            "websim.execute_us",
            trace::durations_us(&spans, EXECUTE_SPAN).median(),
        ),
        ("websim.cache_hit_us", cache_hit_us.median()),
        (
            "websim.cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses + cache.coalesced).max(1) as f64,
        ),
        ("websim.cache_coalesced", cache.coalesced as f64),
        ("websim.backend_calls", cache.misses as f64),
        ("protocol.encode_rows_us", codec.encode_us.median()),
        ("protocol.decode_rows_us", codec.decode_us.median()),
        ("protocol.bytes_per_row", codec.bytes_per_row),
        ("server.ping_us", wire.ping_us.median()),
        ("server.connect_us", wire.connect_us.median()),
        (
            "server.wire_overhead_us",
            wire.client_query_us.median() - wire.session_query_us.median(),
        ),
        ("client.lookup_us", by_kind[0].median() * 1e3),
        ("client.stream_ms", by_kind[1].median()),
        ("client.insert_us", by_kind[2].median() * 1e3),
        ("client.count_us", by_kind[3].median() * 1e3),
        ("core.session_query_us", wire.session_query_us.median()),
        (
            "trace.harness_overhead_pct",
            (rate_a - rate_b) / rate_a * 100.0,
        ),
        ("trace.spans", spans.len() as f64),
    ]);

    trace::write_chrome_trace(&spans, &trace::trace_file("server_two_sessions"))
        .map_err(|e| format!("writing the trace: {e}"))?;
    let slowdown = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
    Ok(rec.into_outcome(per_layer_metrics(m, slowdown)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_plan() -> Plan {
        let vocabulary: Vec<(usize, usize)> = (0..40).map(|i| (i / 20, i % 20)).collect();
        Plan {
            zipf: Zipf::new(vocabulary.len()),
            lookups: Vec::new(),
            streams: Vec::new(),
            states: 1,
            sample_rows: Vec::new(),
            vocabulary,
        }
    }

    #[test]
    fn a_session_stream_is_fixed_by_seed_and_session_and_keeps_the_mix() {
        let plan = toy_plan();
        let take = |seed, session| -> Vec<Op> {
            SessionOps::new(&plan, seed, session).take(300).collect()
        };
        assert_eq!(take(9, 0), take(9, 0));
        assert_ne!(
            take(9, 0),
            take(9, 1),
            "sessions draw from their own streams"
        );
        assert_ne!(take(9, 0), take(10, 0));
        let ops = take(9, 0);
        for block in ops.chunks(100) {
            let count = |f: fn(&Op) -> bool| block.iter().filter(|op| f(op)).count();
            assert_eq!(count(|op| matches!(op, Op::Lookup(_))), 70);
            assert_eq!(count(|op| matches!(op, Op::Stream(_))), 15);
            assert_eq!(count(|op| matches!(op, Op::Insert)), 10);
            assert_eq!(count(|op| matches!(op, Op::Count)), 5);
        }
    }
}
