//! The WSQ/DSQ public facade.
//!
//! [`Wsq`] wires together every subsystem — the Redbase-style database, the
//! simulated Web with its two engine personalities, the ReqPump, and the
//! query engine — behind the interface a user of the paper's system would
//! expect:
//!
//! ```
//! use wsq_core::{Wsq, WsqConfig};
//!
//! let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
//! wsq.load_reference_data().unwrap();
//! let result = wsq
//!     .query("SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
//!             ORDER BY Count DESC, Name LIMIT 3")
//!     .unwrap();
//! assert_eq!(result.rows[0].get(0).as_str().unwrap(), "California");
//! ```
//!
//! [`DsqExplorer`] implements the DSQ direction (database-supported Web
//! queries): correlating a Web phrase with database vocabulary.

pub mod dsq;
pub mod session;

pub use dsq::{Correlation, DsqExplorer, PairCorrelation};
pub use session::{Session, SessionCursor, SessionStats, SharedWsq};
pub use wsq_engine::db::{QueryResult, StatementResult};
pub use wsq_engine::plan::{ExecutionMode, PlacementStrategy};
pub use wsq_engine::QueryOptions;

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use wsq_common::{Result, Tuple, Value, WsqError};
use wsq_engine::db::Database;
use wsq_engine::engines::EngineRegistry;
use wsq_obs::Obs;
use wsq_pump::{CacheConfig, CacheStats, PumpConfig, ReqPump, SearchService};
use wsq_websim::{CorpusConfig, EngineKind, LatencyModel, SimWeb};

/// Configuration for a [`Wsq`] instance.
#[derive(Clone)]
pub struct WsqConfig {
    /// Synthetic Web parameters.
    pub corpus: CorpusConfig,
    /// Latency model applied to both simulated engines.
    pub latency: LatencyModel,
    /// ReqPump configuration: the global and per-destination concurrency
    /// caps (its `obs` handle is replaced by the one `obs` selects).
    pub pump: PumpConfig,
    /// Default query execution options.
    pub query: QueryOptions,
    /// Keep each successful search result after the queries that made
    /// it release it, so that a repeated search is answered without
    /// asking its engine again (the paper's result cache, after HN96).
    /// The pump keeps the results, per engine: every engine, including one
    /// [`Wsq::register_engine`] adds or replaces, caches exactly when this
    /// is set. Failures are never kept.
    pub cache: bool,
    /// Tuning for the result cache (LRU capacity, TTL), per engine; only
    /// consulted when `cache` is set.
    pub cache_tuning: CacheConfig,
    /// Collect call-lifecycle traces and metrics (DESIGN.md §10). On by
    /// default: the facade is the interactive surface where `.stats`,
    /// `.trace`, and the ANALYZE trace footer live. Set `false` for a
    /// true no-op sink; what leaving it on costs is ROADMAP item 7b.
    pub obs: bool,
}

impl Default for WsqConfig {
    fn default() -> Self {
        WsqConfig {
            corpus: CorpusConfig::default(),
            latency: LatencyModel::Zero,
            pump: PumpConfig::default(),
            query: QueryOptions::default(),
            cache: false,
            cache_tuning: CacheConfig::default(),
            obs: true,
        }
    }
}

impl WsqConfig {
    /// Small corpus, zero latency: for tests and quick experimentation.
    pub fn fast() -> Self {
        WsqConfig {
            corpus: CorpusConfig::small(),
            ..Self::default()
        }
    }

    /// Paper-like conditions: full corpus and noticeable per-request
    /// latency (scaled down from 1999's ~1s so experiments finish).
    pub fn paper_like() -> Self {
        WsqConfig {
            latency: LatencyModel::Jitter {
                base: std::time::Duration::from_millis(25),
                jitter: std::time::Duration::from_millis(10),
            },
            ..Self::default()
        }
    }
}

/// A complete WSQ/DSQ instance: database + engines + pump.
pub struct Wsq {
    db: Database,
    engines: EngineRegistry,
    pump: Arc<ReqPump>,
    opts: QueryOptions,
    web: SimWeb,
    /// What every engine's result cache is registered with (`None`: off).
    cache: Option<CacheConfig>,
    obs: Obs,
}

impl Wsq {
    fn build(db: Database, config: WsqConfig) -> Result<Wsq> {
        // Debug builds re-check every asyncified plan against the
        // placeholder-dataflow verifier (see `wsq_engine::verify_gate`).
        wsq_analyze::install_plan_gate();
        let web = SimWeb::build(config.corpus.clone());
        // One obs handle shared by the pump, the engine operators (which
        // reach it through `ReqPump::obs`), and the service decorators.
        let obs = if config.obs {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let mut pump_config = config.pump.clone();
        pump_config.obs = obs.clone();
        let pump = ReqPump::new(pump_config);
        let mut wsq = Wsq {
            db,
            engines: EngineRegistry::new(),
            pump,
            opts: config.query,
            web,
            cache: config.cache.then_some(config.cache_tuning),
            obs,
        };
        // The paper's two engines: AltaVista (NEAR) and Google (AND).
        let av = wsq
            .web
            .engine_with_latency(EngineKind::AltaVista, config.latency);
        let google = wsq
            .web
            .engine_with_latency(EngineKind::Google, config.latency);
        wsq.register_engine("AV", av, true);
        wsq.register_engine("Google", google, false);
        Ok(wsq)
    }

    /// An in-memory instance.
    pub fn open_in_memory(config: WsqConfig) -> Result<Wsq> {
        Self::build(Database::open_in_memory()?, config)
    }

    /// A disk-backed instance rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>, config: WsqConfig) -> Result<Wsq> {
        Self::build(Database::open(dir)?, config)
    }

    /// Register an additional (or replacement) search engine. It becomes
    /// addressable as `WebCount_<name>` / `WebPages_<name>`, and caches its
    /// results as [`WsqConfig::cache`] says. A replacement starts with an
    /// empty cache and zero counts: no result of the engine it replaces is
    /// served again.
    pub fn register_engine(
        &mut self,
        name: &str,
        service: Arc<dyn SearchService>,
        supports_near: bool,
    ) {
        self.pump.register_service_with(name, service, self.cache);
        self.engines.register(name, supports_near);
    }

    /// Declare the engines `WebCount_ANY` / `WebPages_ANY` references
    /// race (first result wins; the pump cancels the losers). Every name
    /// must already be registered.
    pub fn set_race_group(&mut self, names: &[&str]) -> Result<()> {
        self.engines.set_race_group(names)
    }

    /// Execute a `;`-separated SQL script.
    pub fn execute(&mut self, sql: &str) -> Result<Vec<StatementResult>> {
        let opts = self.opts;
        self.db.run_sql(sql, &self.engines, &self.pump, opts)
    }

    /// Execute a single SELECT and return its rows.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        // Lightweight per-query metrics (no trace-ring snapshot): the
        // full QueryWindow summary is reserved for analyze/trace_query.
        let obs = self.obs.clone();
        obs.timed_query(|| self.query_inner(sql))
    }

    fn query_inner(&mut self, sql: &str) -> Result<QueryResult> {
        let mut results = self.execute(sql)?;
        if results.len() != 1 {
            return Err(WsqError::Plan(format!(
                "expected one statement, got {}",
                results.len()
            )));
        }
        match results.remove(0) {
            StatementResult::Rows(r) => Ok(r),
            StatementResult::Affected(_) => {
                Err(WsqError::Plan("statement did not produce rows".to_string()))
            }
        }
    }

    /// Execute a SELECT with explicit options (overriding the defaults).
    pub fn query_with(&mut self, sql: &str, opts: QueryOptions) -> Result<QueryResult> {
        let saved = self.opts;
        self.opts = opts;
        let r = self.query(sql);
        self.opts = saved;
        r
    }

    /// Open a streaming cursor over a SELECT (rows on demand, so the first
    /// row can arrive before the last external call completes). Counted in
    /// `wsq_queries_total` like [`Wsq::query`]; the latency recorded is
    /// that of opening the cursor, as for [`Session::query_cursor`].
    pub fn query_cursor(&mut self, sql: &str) -> Result<wsq_engine::db::Cursor> {
        self.obs.timed_query(|| match wsq_sql::parse_one(sql)? {
            wsq_sql::Statement::Select(sel) => {
                self.db
                    .open_query(&sel, &self.engines, &self.pump, self.opts)
            }
            _ => Err(WsqError::Plan("cursor requires a SELECT".to_string())),
        })
    }

    /// EXPLAIN ANALYZE: run a SELECT and return its rows plus a
    /// per-operator runtime report.
    pub fn analyze(&mut self, sql: &str) -> Result<(QueryResult, String)> {
        match wsq_sql::parse_one(sql)? {
            wsq_sql::Statement::Select(sel) => analyze_select(
                &self.db,
                &self.engines,
                &self.pump,
                self.opts,
                &self.obs,
                &sel,
            ),
            _ => Err(WsqError::Plan("ANALYZE requires a SELECT".to_string())),
        }
    }

    /// EXPLAIN a SELECT under the current options.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.db.explain(sql, &self.engines, self.opts)
    }

    /// EXPLAIN under explicit options.
    pub fn explain_with(&self, sql: &str, opts: QueryOptions) -> Result<String> {
        self.db.explain(sql, &self.engines, opts)
    }

    /// EXPLAIN VERIFY: the plan text plus the placeholder-dataflow
    /// verifier's verdict on it (node/scan/ReqSync counts on success, the
    /// full violation list on failure).
    pub fn explain_verify(&self, sql: &str) -> Result<String> {
        match wsq_sql::parse_one(sql)? {
            wsq_sql::Statement::Select(sel) => {
                let plan = self.db.plan_query(&sel, &self.engines, self.opts)?;
                let mut out = plan.display();
                out.push_str(&verify_line(&plan, self.opts.mode, self.opts.reqsync_cap));
                Ok(out)
            }
            _ => Err(WsqError::Plan(
                "EXPLAIN VERIFY requires a SELECT".to_string(),
            )),
        }
    }

    /// Default query options (mutable).
    pub fn options_mut(&mut self) -> &mut QueryOptions {
        &mut self.opts
    }

    /// The request pump.
    pub fn pump(&self) -> &Arc<ReqPump> {
        &self.pump
    }

    /// The observability handle (disabled unless `WsqConfig::obs`).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Prometheus text-format dump of the metrics registry (empty when
    /// observability is off).
    pub fn metrics_text(&self) -> String {
        self.obs.prometheus_text()
    }

    /// JSON snapshot of the metrics registry (`"{}"` when off).
    pub fn metrics_json(&self) -> String {
        self.obs.json_snapshot()
    }

    /// Run a SELECT and return its rows plus the rendered per-call trace
    /// timeline (the REPL's `.trace` command): every call's registered →
    /// queued → launched → completed → delivered → patched lifecycle with
    /// timestamps. The timeline is empty when observability is off.
    pub fn trace_query(&mut self, sql: &str) -> Result<(QueryResult, String)> {
        let pos = self.obs.trace_position();
        let result = self.query(sql)?;
        let events = self.obs.trace_events_since(pos);
        let dropped = self.obs.trace().map_or(0, |t| t.dropped());
        Ok((result, wsq_obs::render_timeline(&events, dropped)))
    }

    /// The engine registry.
    pub fn engines(&self) -> &EngineRegistry {
        &self.engines
    }

    /// The simulated Web behind the default engines.
    pub fn web(&self) -> &SimWeb {
        &self.web
    }

    /// Direct database access.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Direct mutable database access.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Result-cache statistics per engine, as the pump counts them
    /// (empty unless `cache` was set).
    pub fn cache_stats(&self) -> HashMap<String, CacheStats> {
        self.pump.cache_stats()
    }

    /// Drop all cached search results (the paper's two-hour cooldown, in
    /// one call).
    pub fn clear_caches(&self) {
        self.pump.clear_cache();
    }

    /// Create and populate the paper's reference tables: `States(Name,
    /// Population, Capital)`, `Sigs(Name)`, `CSFields(Name)`, and
    /// `Movies(Title)`.
    pub fn load_reference_data(&mut self) -> Result<()> {
        use wsq_websim::data;
        self.execute(
            "CREATE TABLE States (Name VARCHAR(32), Population INT, Capital VARCHAR(32))",
        )?;
        let rows: Vec<Tuple> = data::STATES
            .iter()
            .map(|s| {
                Tuple::new(vec![
                    Value::from(s.name),
                    Value::Int(s.population),
                    Value::from(s.capital),
                ])
            })
            .collect();
        self.db.insert("States", &rows)?;

        self.execute("CREATE TABLE Sigs (Name VARCHAR(16))")?;
        let rows: Vec<Tuple> = data::SIGS
            .iter()
            .map(|(n, _)| Tuple::new(vec![Value::from(*n)]))
            .collect();
        self.db.insert("Sigs", &rows)?;

        self.execute("CREATE TABLE CSFields (Name VARCHAR(32))")?;
        let rows: Vec<Tuple> = data::CS_FIELDS
            .iter()
            .map(|(n, _)| Tuple::new(vec![Value::from(*n)]))
            .collect();
        self.db.insert("CSFields", &rows)?;

        self.execute("CREATE TABLE Movies (Title VARCHAR(40))")?;
        let rows: Vec<Tuple> = data::MOVIES
            .iter()
            .map(|(n, _)| Tuple::new(vec![Value::from(*n)]))
            .collect();
        self.db.insert("Movies", &rows)?;
        Ok(())
    }
}

/// The body of EXPLAIN ANALYZE, shared by [`Wsq::analyze`] and
/// [`Session::analyze`]: run the SELECT with per-operator
/// instrumentation, then append the `-- trace:` summary, the per-engine
/// `-- cache[..]:` deltas, and the `-- verify:` verdict. The footer
/// format is part of the wire protocol (served verbatim in a
/// `Frame::Footer`) and pinned by a golden test in `wsq-client`.
fn analyze_select(
    db: &Database,
    engines: &EngineRegistry,
    pump: &Arc<ReqPump>,
    opts: QueryOptions,
    obs: &Obs,
    sel: &wsq_sql::ast::SelectStmt,
) -> Result<(QueryResult, String)> {
    let before = pump.cache_stats();
    let mut window = obs.begin_query();
    let (result, mut report) = window.run(|| db.analyze_query(sel, engines, pump, opts))?;
    // The query's own latency distributions, buffer high-water and
    // concurrency, from its recorder and its calls' events.
    if let Some(summary) = window.finish() {
        report.push_str(&format!("-- trace: {summary}\n"));
    }
    // Append per-engine cache deltas after the pump footer.
    let after: BTreeMap<String, CacheStats> = pump.cache_stats().into_iter().collect();
    for (engine, now) in after {
        let b = before.get(&engine).copied().unwrap_or_default();
        report.push_str(&wsq_engine::exec::instrument::counters_line(
            &format!("cache[{engine}]"),
            &[
                ("hits", now.hits - b.hits),
                ("misses", now.misses - b.misses),
                ("evictions", now.evictions - b.evictions),
                ("expirations", now.expirations - b.expirations),
            ],
        ));
    }
    // Static-verification verdict for the executed plan (skipped when
    // the raw statement cannot be planned stand-alone, e.g. unresolved
    // subqueries).
    if let Ok(plan) = db.plan_query(sel, engines, opts) {
        report.push_str(&verify_line(&plan, opts.mode, opts.reqsync_cap));
    }
    Ok((result, report))
}

/// One report line with the verifier's verdict on `plan` under `mode`
/// (synchronous plans may contain `EVScan`s; asynchronous ones may
/// not). `declared_cap` is the session's `reqsync_cap`: the
/// resource-bound rules prove the stamped plan honours it.
fn verify_line(
    plan: &wsq_engine::plan::PhysPlan,
    mode: ExecutionMode,
    declared_cap: Option<usize>,
) -> String {
    let verdict = match mode {
        ExecutionMode::Asynchronous => wsq_analyze::verify_async(plan),
        _ => wsq_analyze::verify(plan),
    }
    .and_then(|report| wsq_analyze::verify_bounds(plan, declared_cap).map(|_| report));
    match verdict {
        Ok(report) => format!("-- verify: ok ({report})\n"),
        Err(e) => format!("-- verify: FAILED: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_end_to_end() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        assert_eq!(wsq.db().row_count("States").unwrap(), 50);
        assert_eq!(wsq.db().row_count("Sigs").unwrap(), 37);

        let r = wsq
            .query(
                "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                 ORDER BY Count DESC, Name LIMIT 2",
            )
            .unwrap();
        assert_eq!(r.rows[0].get(0).as_str().unwrap(), "California");
        assert_eq!(r.rows[1].get(0).as_str().unwrap(), "Washington");

        // EXPLAIN shows asynchronous operators by default.
        let plan = wsq
            .explain("SELECT Count FROM WebCount WHERE T1 = 'Texas'")
            .unwrap();
        assert!(plan.contains("AEVScan"));
        assert!(plan.contains("ReqSync"));
        assert_eq!(wsq.pump().live_calls(), 0);
    }

    #[test]
    fn buffer_cap_threads_through_and_preserves_results() {
        let query = "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                     ORDER BY Count DESC, Name";
        let mut unbounded = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        unbounded.load_reference_data().unwrap();
        let baseline = unbounded.query(query).unwrap();

        let mut capped = Wsq::open_in_memory(WsqConfig {
            query: QueryOptions {
                reqsync_cap: Some(4),
                ..Default::default()
            },
            ..WsqConfig::fast()
        })
        .unwrap();
        capped.load_reference_data().unwrap();
        assert_eq!(capped.options_mut().reqsync_cap, Some(4));
        let r = capped.query(query).unwrap();
        assert_eq!(r.to_table(), baseline.to_table());

        let m = capped.obs().metrics().expect("obs on by default");
        assert!(
            m.reqsync_buffered.high_water() <= 4,
            "cap=4 but buffered high-water was {}",
            m.reqsync_buffered.high_water()
        );
        assert_eq!(m.reqsync_buffered.get(), 0, "buffer drained at query end");
        assert_eq!(capped.pump().live_calls(), 0);
    }

    #[test]
    fn query_with_overrides_options_temporarily() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        let sync = QueryOptions {
            mode: ExecutionMode::Synchronous,
            ..Default::default()
        };
        let r = wsq
            .query_with("SELECT Count FROM WebCount WHERE T1 = 'Texas'", sync)
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        // Default options restored.
        let plan = wsq
            .explain("SELECT Count FROM WebCount WHERE T1 = 'Texas'")
            .unwrap();
        assert!(plan.contains("AEVScan"));
    }

    #[test]
    fn analyze_reports_cache_counters_when_caching() {
        let config = WsqConfig {
            cache: true,
            ..WsqConfig::fast()
        };
        let mut wsq = Wsq::open_in_memory(config).unwrap();
        wsq.load_reference_data().unwrap();
        let sql = "SELECT Count FROM WebCount WHERE T1 = 'Texas'";
        wsq.query(sql).unwrap();
        let (_, report) = wsq.analyze(sql).unwrap();
        let av_line = report
            .lines()
            .find(|l| l.starts_with("-- cache[AV]:"))
            .unwrap_or_else(|| panic!("no AV cache footer in:\n{report}"));
        // The first query populated the cache; the analyzed run hit it.
        assert!(av_line.contains("hits=1"), "{av_line}");
        assert!(av_line.contains("misses=0"), "{av_line}");
    }

    #[test]
    fn cache_dedupes_repeated_searches() {
        let mut config = WsqConfig::fast();
        config.cache = true;
        let mut wsq = Wsq::open_in_memory(config).unwrap();
        wsq.load_reference_data().unwrap();
        wsq.query("SELECT Count FROM WebCount WHERE T1 = 'Utah'")
            .unwrap();
        wsq.query("SELECT Count FROM WebCount WHERE T1 = 'Utah'")
            .unwrap();
        let stats = wsq.cache_stats();
        let av = stats.get("AV").unwrap();
        assert_eq!(av.misses, 1);
        assert_eq!(av.hits, 1);
        wsq.clear_caches();
        wsq.query("SELECT Count FROM WebCount WHERE T1 = 'Utah'")
            .unwrap();
        assert_eq!(wsq.cache_stats().get("AV").unwrap().misses, 2);
    }

    #[test]
    fn a_replaced_engine_starts_an_empty_cache_and_counts_its_own_calls() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use wsq_pump::{SearchRequest, SearchResult, ServiceReply};

        /// AltaVista's counts plus a million, so its rows are told apart
        /// from the engine it replaces; counts its calls.
        struct Replacement(Arc<dyn SearchService>, AtomicU64);
        impl SearchService for Replacement {
            fn execute(&self, req: &SearchRequest) -> ServiceReply {
                self.1.fetch_add(1, Ordering::SeqCst);
                let mut reply = self.0.execute(req);
                if let Ok(SearchResult::Count(n)) = &mut reply.result {
                    *n += 1_000_000;
                }
                reply
            }
        }

        let mut wsq = Wsq::open_in_memory(WsqConfig {
            cache: true,
            ..WsqConfig::fast()
        })
        .unwrap();
        wsq.load_reference_data().unwrap();
        let sql = "SELECT Name, Count FROM States, WebCount \
                   WHERE Name = T1 AND WebCount.T2 = 'computer'";
        wsq.query(sql).unwrap();
        let inner = wsq.web().engine(EngineKind::AltaVista);
        let backend = Arc::new(Replacement(inner, AtomicU64::new(0)));
        wsq.register_engine("AV", backend.clone(), true);
        let from_the_replacement = |rows: &[Tuple]| {
            assert_eq!(rows.len(), 50);
            for row in rows {
                let count = row.get(1).as_int().unwrap();
                assert!(count >= 1_000_000, "the replaced engine answered: {row:?}");
            }
        };
        for _ in 0..2 {
            from_the_replacement(&wsq.query(sql).unwrap().rows);
        }
        let (result, report) = wsq.analyze(sql).unwrap();
        from_the_replacement(&result.rows);

        assert_eq!(backend.1.load(Ordering::SeqCst), 50);
        let av = wsq.cache_stats()["AV"];
        assert_eq!((av.hits, av.misses), (100, 50), "{av:?}");
        assert!(
            report.contains("-- cache[AV]: hits=50 misses=0 "),
            "{report}"
        );
        assert_eq!(wsq.pump().live_calls(), 0);
    }

    #[test]
    fn analyze_reports_operator_stats() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        let (result, report) = wsq
            .analyze(
                "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                 ORDER BY Count DESC, Name LIMIT 5",
            )
            .unwrap();
        assert_eq!(result.rows.len(), 5);
        // The report mirrors the plan tree with counters.
        assert!(report.contains("Limit: 5"), "{report}");
        assert!(report.contains("ReqSync"), "{report}");
        assert!(report.contains("Scan: States"), "{report}");
        // The scan produced all 50 states; the limit only 5.
        let scan_line = report.lines().find(|l| l.contains("Scan: States")).unwrap();
        assert!(scan_line.contains("rows=50"), "{scan_line}");
        let limit_line = report.lines().find(|l| l.contains("Limit: 5")).unwrap();
        assert!(limit_line.contains("rows=5"), "{limit_line}");
        // The AEVScan re-opened once per state.
        let aev_line = report.lines().find(|l| l.contains("AEVScan")).unwrap();
        assert!(aev_line.contains("opens=50"), "{aev_line}");
        // Pump counters are appended as a footer.
        let pump_line = report.lines().find(|l| l.starts_with("-- pump:")).unwrap();
        assert!(pump_line.contains("registered=50"), "{pump_line}");
        assert!(pump_line.contains("launched=50"), "{pump_line}");
        assert!(wsq.analyze("CREATE TABLE X (a INT)").is_err());
        assert_eq!(wsq.pump().live_calls(), 0);
    }

    #[test]
    fn explain_verify_reports_verdict() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        let out = wsq
            .explain_verify(
                "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                 ORDER BY Count DESC LIMIT 3",
            )
            .unwrap();
        assert!(out.contains("AEVScan"), "{out}");
        assert!(out.contains("-- verify: ok"), "{out}");
        assert!(out.contains("ReqSync(s)"), "{out}");

        // Synchronous plans verify too (EVScans are legitimate there).
        wsq.options_mut().mode = ExecutionMode::Synchronous;
        let out = wsq
            .explain_verify("SELECT Count FROM WebCount WHERE T1 = 'Texas'")
            .unwrap();
        assert!(out.contains("EVScan"), "{out}");
        assert!(out.contains("-- verify: ok"), "{out}");

        assert!(wsq.explain_verify("CREATE TABLE X (a INT)").is_err());
    }

    #[test]
    fn analyze_appends_verify_line() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        let (_, report) = wsq
            .analyze("SELECT Count FROM WebCount WHERE T1 = 'Texas'")
            .unwrap();
        assert!(report.contains("-- verify: ok"), "{report}");
    }

    #[test]
    fn analyze_appends_trace_summary_from_registry() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        let (_, report) = wsq
            .analyze(
                "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                 ORDER BY Count DESC, Name LIMIT 5",
            )
            .unwrap();
        let trace_line = report
            .lines()
            .find(|l| l.starts_with("-- trace:"))
            .unwrap_or_else(|| panic!("no trace footer in:\n{report}"));
        // All 50 calls completed within the analyzed window, with the
        // latency quantiles and concurrency high-water filled in.
        assert!(trace_line.contains("calls=50"), "{trace_line}");
        assert!(trace_line.contains("call_p50="), "{trace_line}");
        assert!(trace_line.contains("call_p95="), "{trace_line}");
        assert!(!trace_line.contains("call_p50=-"), "{trace_line}");
        let max_concurrent: i64 = trace_line
            .split("max_concurrent=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(max_concurrent >= 1, "{trace_line}");

        // Observability off: no trace footer, and no registry output.
        let mut quiet = Wsq::open_in_memory(WsqConfig {
            obs: false,
            ..WsqConfig::fast()
        })
        .unwrap();
        quiet.load_reference_data().unwrap();
        let (_, report) = quiet
            .analyze("SELECT Count FROM WebCount WHERE T1 = 'Texas'")
            .unwrap();
        assert!(!report.contains("-- trace:"), "{report}");
        assert_eq!(quiet.metrics_text(), "");
        assert_eq!(quiet.metrics_json(), "{}");
    }

    #[test]
    fn trace_query_renders_full_call_timelines() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        let (result, timeline) = wsq
            .trace_query(
                "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                 ORDER BY Count DESC, Name LIMIT 3",
            )
            .unwrap();
        assert_eq!(result.rows.len(), 3);
        // Every call's lifecycle is visible, labelled with its request.
        for stage in ["registered", "queued", "launched", "completed", "patched"] {
            assert!(timeline.contains(stage), "missing {stage} in:\n{timeline}");
        }
        assert!(timeline.contains("AV:count"), "{timeline}");
        assert!(timeline.contains("50 calls"), "{timeline}");
    }

    #[test]
    fn a_fail_fast_call_says_why_in_the_timeline() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        // An engine the planner knows and the pump does not: its calls
        // fail at registration. Raced against AV, the query still answers.
        wsq.engines.register("Ghost", true);
        wsq.set_race_group(&["Ghost", "AV"]).unwrap();
        let (result, timeline) = wsq
            .trace_query("SELECT Count FROM WebCount_ANY WHERE T1 = 'Utah'")
            .unwrap();
        assert_eq!(result.rows.len(), 1);
        let ghost = timeline
            .split("\nC")
            .find(|call| call.contains("Ghost:count"))
            .unwrap_or_else(|| panic!("no Ghost call in:\n{timeline}"));
        assert!(
            ghost.contains("failed  search error: unknown engine 'Ghost'"),
            "{timeline}"
        );
        assert!(!ghost.contains("launched"), "{timeline}");
        assert!(timeline.contains("race-won"), "{timeline}");
    }

    #[test]
    fn an_unknown_engine_fails_its_query_with_the_pumps_error() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        // The planner knows the engine and the pump does not: each call
        // fails at registration, and the failure is delivered to its scan.
        wsq.engines.register("Ghost", true);
        let err = wsq
            .query("SELECT Name, Count FROM States, WebCount_Ghost WHERE Name = T1")
            .unwrap_err();
        assert_eq!(err.to_string(), "search error: unknown engine 'Ghost'");
        let m = wsq.obs().metrics().unwrap();
        assert_eq!(m.placeholder_tuples.get(), 0);
        assert_eq!(wsq.pump().live_calls(), 0);
    }

    #[test]
    fn a_cursor_counts_as_a_query() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        let counted = |wsq: &Wsq| {
            let m = wsq.obs().metrics().unwrap();
            (m.queries.get(), m.query_latency.snapshot().count)
        };
        for n in 1..=3 {
            let mut cursor = wsq
                .query_cursor("SELECT Count FROM WebCount WHERE T1 = 'Utah'")
                .unwrap();
            assert!(cursor.next_row().unwrap().is_some());
            assert_eq!(
                counted(&wsq),
                (n, n),
                "one per cursor, however far it is read"
            );
        }
        assert!(wsq.query_cursor("CREATE TABLE T (x INT)").is_err());
        assert_eq!(
            counted(&wsq),
            (4, 4),
            "a refused cursor is a query too, as for `query`"
        );
    }

    #[test]
    fn pump_stats_and_the_registry_read_the_same_cells() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        wsq.load_reference_data().unwrap();
        // 50 calls, then the same 50 again (the first 50 were released,
        // so nothing coalesces across the two queries).
        let sql = "SELECT Name, Count FROM States, WebCount WHERE Name = T1";
        wsq.query(sql).unwrap();
        wsq.query(sql).unwrap();
        let stats = wsq.pump().stats();
        let text = wsq.metrics_text();
        let counter = |name: &str| -> u64 {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("{name} ")))
                .unwrap_or_else(|| panic!("no {name} in:\n{text}"));
            line[name.len() + 1..].parse().unwrap()
        };
        assert_eq!(stats.registered, 100);
        assert_eq!(counter("wsq_calls_registered_total"), stats.registered);
        assert_eq!(counter("wsq_calls_launched_total"), stats.launched);
        assert_eq!(counter("wsq_calls_coalesced_total"), stats.coalesced);
        assert_eq!(
            counter("wsq_calls_completed_total") + counter("wsq_calls_failed_total"),
            stats.completed
        );
        assert_eq!(counter("wsq_calls_failed_total"), 0);
        assert_eq!(counter("wsq_calls_completed_total"), stats.completed);
    }

    #[test]
    fn metrics_exposition_covers_the_query_lifecycle() {
        let mut wsq = Wsq::open_in_memory(WsqConfig {
            cache: true,
            ..WsqConfig::fast()
        })
        .unwrap();
        wsq.load_reference_data().unwrap();
        let sql = "SELECT Count FROM WebCount WHERE T1 = 'Utah'";
        wsq.query(sql).unwrap();
        wsq.query(sql).unwrap();
        let text = wsq.metrics_text();
        for metric in [
            "wsq_calls_registered_total 2",
            // The hit is the result the pump kept from the miss: it never
            // launches, so only the miss completes and has a latency.
            "wsq_calls_launched_total 1",
            "wsq_calls_completed_total 1",
            // Both replies were in hand at registration (a zero-latency
            // miss, then a hit): each scan emitted its finished row.
            "wsq_placeholder_tuples_total 0",
            "wsq_tuples_patched_total 2",
            "wsq_cache_hits_total 1",
            "wsq_cache_misses_total 1",
            "wsq_queries_total 2",
            "wsq_calls_in_flight 0",
            "wsq_call_latency_seconds_count 1",
        ] {
            assert!(text.contains(metric), "missing `{metric}` in:\n{text}");
        }
        let json = wsq.metrics_json();
        assert!(json.contains("\"wsq_queries_total\":2"), "{json}");
        assert!(json.contains("\"trace\":{"), "{json}");
    }

    #[test]
    fn reserved_names_cannot_be_created() {
        let mut wsq = Wsq::open_in_memory(WsqConfig::fast()).unwrap();
        let err = wsq.execute("CREATE TABLE WebCount (x INT)").unwrap_err();
        assert!(err.to_string().contains("reserved"));
    }
}
