//! Every product entry point the per-layer probes call, in one file.
//!
//! The end-to-end workloads use only `Wsq` / `SharedWsq` / `Session` /
//! `Server` / `Client` and SQL text. The traced run also times single
//! layers from outside, and each such call goes through a function
//! here, so a later PR that moves or renames a layer's entry point has
//! one place to look. By layer (= crate):
//!
//! | layer    | entry points                                                        |
//! |----------|---------------------------------------------------------------------|
//! | sql      | `wsq_sql::parse_one`                                                |
//! | engine   | `Database::plan_query`, `asyncify::asyncify_with_opts`, `Database::run_plan`, `Database::run_statement` |
//! | pump     | `ReqPump::with_service`, `register`, `wait`, `release`, `register_batch`, `take_completed`, `wait_any`, `stats`, `live_calls` |
//! | websim   | `SimWeb::engine_with_latency`, `CachedService::with_config_obs` + `stats`, `Wsq::register_engine` |
//! | protocol | `Frame::encode`, `Frame::decode`                                    |
//! | server / client | `Client::connect`, `ping`, `query`, `goodbye`                |
//! | core     | `Session::query`, `Wsq::query`                                      |
//! | storage  | `Database::pool_stats`                                              |

use crate::stats::Samples;
use crate::trace::{self_times_ns, Span, Tracer};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wsq_client::Client;
use wsq_common::{Result, Tuple, WsqError};
use wsq_core::{QueryOptions, QueryResult, SharedWsq, StatementResult, Wsq};
use wsq_engine::plan::{ExecutionMode, PhysPlan, PrefetchHint};
use wsq_protocol::Frame;
use wsq_pump::{
    PumpStats, ReqPump, RequestKind, SearchRequest, SearchResult, SearchService, ServiceReply,
};
use wsq_sql::{SelectStmt, Statement};
use wsq_storage::buffer::PoolStats;
use wsq_websim::{CacheConfig, CacheStats, CachedService, EngineKind, LatencyModel};

fn micros(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

// ---------------------------------------------------------------- sql

pub fn parse(sql: &str) -> Result<Statement> {
    wsq_sql::parse_one(sql)
}

pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    match parse(sql)? {
        Statement::Select(sel) => Ok(sel),
        _ => Err(WsqError::Plan(format!("not a SELECT: {sql}"))),
    }
}

// ------------------------------------------------------------- engine

/// Plan under the product's default options (asynchronous iteration,
/// so this includes the asyncify pass).
pub fn plan(wsq: &Wsq, sel: &SelectStmt) -> Result<PhysPlan> {
    wsq.db()
        .plan_query(sel, wsq.engines(), QueryOptions::default())
}

/// The synchronous plan asyncify starts from.
pub fn plan_synchronous(wsq: &Wsq, sel: &SelectStmt) -> Result<PhysPlan> {
    let opts = QueryOptions {
        mode: ExecutionMode::Synchronous,
        ..QueryOptions::default()
    };
    wsq.db().plan_query(sel, wsq.engines(), opts)
}

/// The asyncify pass alone, with the settings `plan` uses.
pub fn asyncify(sync_plan: PhysPlan) -> PhysPlan {
    let opts = QueryOptions::default();
    wsq_engine::asyncify::asyncify_with_opts(
        sync_plan,
        opts.strategy,
        opts.buffer,
        opts.reqsync_cap,
        PrefetchHint {
            depth: opts.prefetch_depth,
            window: opts.prefetch_window,
            adaptive: opts.prefetch_adaptive,
            batch: opts.batch_size,
        },
    )
}

pub fn exec(wsq: &Wsq, plan: &PhysPlan) -> Result<QueryResult> {
    wsq.db().run_plan(plan, wsq.engines(), wsq.pump())
}

/// DDL/DML without the facade's script parsing.
pub fn run_statement(wsq: &mut Wsq, stmt: &Statement) -> Result<StatementResult> {
    let engines = wsq.engines().clone();
    let pump = wsq.pump().clone();
    wsq.db_mut()
        .run_statement(stmt, &engines, &pump, QueryOptions::default())
}

// --------------------------------------------------------------- pump

pub fn pump_stats(wsq: &Wsq) -> PumpStats {
    wsq.pump().stats()
}

struct InstantService;

impl SearchService for InstantService {
    fn execute(&self, _req: &SearchRequest) -> ServiceReply {
        ServiceReply::instant(SearchResult::Count(1))
    }
}

fn probe_request(i: usize) -> SearchRequest {
    SearchRequest {
        engine: "probe".to_string(),
        // Distinct expressions: identical ones would coalesce and skip
        // the launch path.
        expr: format!("expr {i}"),
        kind: RequestKind::Count,
    }
}

pub struct PumpProbe {
    pub register_us: Samples,
    pub roundtrip_us: Samples,
    pub batch64_us_per_call: Samples,
}

/// The pump alone: a default `ReqPump` in front of a service that
/// answers at once, so what is timed is registration, hand-off to the
/// event loop, delivery and wake-up.
pub fn pump_probe(rounds: usize) -> Result<PumpProbe> {
    let pump = ReqPump::with_service("probe", Arc::new(InstantService));
    let mut out = PumpProbe {
        register_us: Samples::default(),
        roundtrip_us: Samples::default(),
        batch64_us_per_call: Samples::default(),
    };
    let mut next = 0;
    for _ in 0..rounds {
        let req = probe_request(next);
        next += 1;
        let t0 = Instant::now();
        let call = pump.register(req)?;
        out.register_us.push(micros(t0));
        pump.wait(call)?;
        pump.release(call);
    }
    for _ in 0..rounds {
        let req = probe_request(next);
        next += 1;
        let t0 = Instant::now();
        let call = pump.register(req)?;
        pump.wait(call)?;
        pump.release(call);
        out.roundtrip_us.push(micros(t0));
    }
    for _ in 0..rounds.div_ceil(16) {
        let reqs: Vec<SearchRequest> = (next..next + 64).map(probe_request).collect();
        next += 64;
        let t0 = Instant::now();
        let calls = pump.register_batch(reqs)?;
        let mut pending = calls.clone();
        loop {
            let done = pump.take_completed(&pending);
            pending.retain(|c| !done.iter().any(|(d, _)| d == c));
            if pending.is_empty() {
                break;
            }
            pump.wait_any(&pending)?;
        }
        out.batch64_us_per_call.push(micros(t0) / 64.0);
        calls.into_iter().for_each(|c| pump.release(c));
    }
    if pump.live_calls() != 0 {
        return Err(WsqError::Exec(format!(
            "pump probe leaked {} calls",
            pump.live_calls()
        )));
    }
    Ok(out)
}

// ------------------------------------------------------------- websim

/// A harness-owned decorator over the public `SearchService` trait: a
/// span per call, and the sum of the latencies the service declared.
pub struct Timed {
    inner: Arc<dyn SearchService>,
    span: &'static str,
    tracer: Arc<Tracer>,
    declared_ns: AtomicU64,
}

impl Timed {
    fn wrap(inner: Arc<dyn SearchService>, span: &'static str, tracer: &Arc<Tracer>) -> Arc<Timed> {
        Arc::new(Timed {
            inner,
            span,
            tracer: tracer.clone(),
            declared_ns: AtomicU64::new(0),
        })
    }
}

impl SearchService for Timed {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        let reply = self.tracer.span(self.span, 0, || self.inner.execute(req));
        // A statistic: publishes no other data.
        self.declared_ns
            .fetch_add(reply.latency.as_nanos() as u64, Ordering::Relaxed);
        reply
    }
}

/// Span names of the two decorators.
pub const EXECUTE_SPAN: &str = "websim.execute";
const CACHE_SPAN: &str = "websim.cache";

/// The engines of a traced instance: `AV` and `Google` re-registered
/// as `Timed(SimEngine)`, or `Timed(CachedService(Timed(SimEngine)))`
/// when the workload caches.
pub struct TracedEngines {
    backends: Vec<Arc<Timed>>,
    caches: Vec<Arc<CachedService>>,
}

impl TracedEngines {
    pub fn install(
        wsq: &mut Wsq,
        latency: LatencyModel,
        cache: bool,
        tracer: &Arc<Tracer>,
    ) -> TracedEngines {
        let mut out = TracedEngines {
            backends: Vec::new(),
            caches: Vec::new(),
        };
        for kind in [EngineKind::AltaVista, EngineKind::Google] {
            let sim = wsq.web().engine_with_latency(kind, latency);
            let backend = Timed::wrap(sim, EXECUTE_SPAN, tracer);
            out.backends.push(backend.clone());
            let service: Arc<dyn SearchService> = if cache {
                let cached = CachedService::with_config_obs(
                    backend,
                    CacheConfig::default(),
                    wsq.obs().clone(),
                );
                out.caches.push(cached.clone());
                Timed::wrap(cached, CACHE_SPAN, tracer)
            } else {
                backend
            };
            wsq.register_engine(kind.default_name(), service, kind.supports_near());
        }
        out
    }

    /// Cache counters summed over both engines (all 0 without a cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.caches
            .iter()
            .map(|c| c.stats())
            .fold(CacheStats::default(), |a, b| CacheStats {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                coalesced: a.coalesced + b.coalesced,
                evictions: a.evictions + b.evictions,
                expirations: a.expirations + b.expirations,
                inflight: a.inflight + b.inflight,
            })
    }

    /// Sum of the simulated latencies the backends declared, in seconds.
    pub fn declared_latency_s(&self) -> f64 {
        self.backends
            .iter()
            .map(|b| b.declared_ns.load(Ordering::Relaxed))
            .sum::<u64>() as f64
            / 1e9
    }
}

/// Durations, µs, of the cache lookups that were hits: `CACHE_SPAN`s
/// with no `EXECUTE_SPAN` inside, i.e. whose self time is all their time.
pub fn cache_hit_us(spans: &[Span]) -> Samples {
    let mut out = Samples::default();
    for (s, own_ns) in spans.iter().zip(self_times_ns(spans)) {
        if s.name == CACHE_SPAN && own_ns == s.dur_ns() {
            out.push(s.dur_ns() as f64 / 1e3);
        }
    }
    out
}

// ----------------------------------------------------------- protocol

pub struct ProtocolProbe {
    pub encode_us: Samples,
    pub decode_us: Samples,
    pub bytes_per_row: f64,
}

/// Codec cost of one `Frame::Rows` holding `rows`.
pub fn protocol_probe(rows: &[Tuple], rounds: usize) -> Result<ProtocolProbe> {
    let frame = Frame::Rows {
        rows: rows.to_vec(),
    };
    let mut out = ProtocolProbe {
        encode_us: Samples::default(),
        decode_us: Samples::default(),
        bytes_per_row: frame.encode().len() as f64 / rows.len().max(1) as f64,
    };
    for _ in 0..rounds {
        let t0 = Instant::now();
        let bytes = std::hint::black_box(std::hint::black_box(&frame).encode());
        out.encode_us.push(micros(t0));
        let t0 = Instant::now();
        let decoded = Frame::decode(std::hint::black_box(&bytes));
        out.decode_us.push(micros(t0));
        match decoded {
            Ok((back, used)) if back == frame && used == bytes.len() => {}
            other => {
                return Err(WsqError::Exec(format!(
                    "Frame::Rows did not round-trip: {other:?}"
                )))
            }
        }
    }
    Ok(out)
}

// ------------------------------------------------------ server, client

pub struct ServerProbe {
    pub ping_us: Samples,
    pub connect_us: Samples,
    pub client_query_us: Samples,
    pub session_query_us: Samples,
}

/// The wire alone: the same cached point lookup through a `Client` and
/// through an in-process `Session` of the same `SharedWsq`; the
/// difference of the medians is what TCP, framing and the server's
/// connection thread cost.
pub fn server_probe(
    addr: SocketAddr,
    shared: &SharedWsq,
    lookup_sql: &str,
    rounds: usize,
) -> Result<ServerProbe> {
    let mut out = ServerProbe {
        ping_us: Samples::default(),
        connect_us: Samples::default(),
        client_query_us: Samples::default(),
        session_query_us: Samples::default(),
    };
    for _ in 0..rounds.div_ceil(10) {
        let t0 = Instant::now();
        let client = Client::connect(addr)?;
        out.connect_us.push(micros(t0));
        client.goodbye()?;
    }
    let mut client = Client::connect(addr)?;
    let mut session = shared.session();
    // Fill the cache, then alternate so both sides see the same machine.
    let want = client.query(lookup_sql)?.rows;
    for _ in 0..rounds {
        let t0 = Instant::now();
        client.ping()?;
        out.ping_us.push(micros(t0));
        let t0 = Instant::now();
        let remote = client.query(lookup_sql)?;
        out.client_query_us.push(micros(t0));
        let t0 = Instant::now();
        let local = session.query(lookup_sql)?;
        out.session_query_us.push(micros(t0));
        if remote.rows != want || local.rows != want {
            return Err(WsqError::Exec(format!(
                "probe lookup changed its answer: {lookup_sql}"
            )));
        }
    }
    client.goodbye()?;
    Ok(out)
}

// ------------------------------------------------------------ storage

pub fn pool_stats(wsq: &Wsq) -> PoolStats {
    wsq.db().pool_stats()
}
