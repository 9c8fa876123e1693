//! Multi-session sharing: one [`SharedWsq`] instance serving many
//! concurrent [`Session`]s over the *same* ReqPump and result caches
//! (DESIGN.md §15).
//!
//! This is the engine-side half of the client/server split. A server
//! builds one [`crate::Wsq`], converts it with [`Wsq::into_shared`],
//! and opens one [`Session`] per accepted connection. Because every
//! session registers its external calls with the shared pump and
//! resolves them through the shared `CachedService`s, identical calls
//! are made once *across* sessions: the pump coalesces the ones in
//! flight, the cache answers the ones that come later, and cache misses
//! equal backend calls for the whole fleet, not just one query. The
//! ReqSync buffer cap and the pump's per-destination caps likewise
//! become service-wide admission control.
//!
//! Concurrency model: SELECTs only need `&Database` (plans and cursors
//! borrow the catalog during build, then own their executor tree), so
//! sessions run them under a read lock — genuinely in parallel. DDL and
//! DML take the write lock. Per-session attribution rides on
//! [`wsq_obs::session_scope`]: every trace event recorded on a
//! session's thread carries its id, and
//! [`Session::trace_events`] filters the shared ring down to one
//! connection's calls (including lifecycle segments shared with other
//! sessions through coalescing).

use crate::{analyze_select, verify_line, QueryOptions, QueryResult, StatementResult, Wsq};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wsq_common::{Result, Tuple, WsqError};
use wsq_engine::db::{Cursor, Database};
use wsq_engine::engines::EngineRegistry;
use wsq_obs::{session_scope, CounterId, GaugeId, Obs, TraceEvent};
use wsq_pump::ReqPump;
use wsq_websim::CachedService;

/// The shared state behind every session: the database under a
/// readers-writer lock, plus the subsystems that are already
/// thread-safe (pump, engines, caches, obs).
pub(crate) struct SharedInner {
    db: RwLock<Database>,
    engines: EngineRegistry,
    pump: Arc<ReqPump>,
    opts: QueryOptions,
    caches: HashMap<String, Arc<CachedService>>,
    obs: Obs,
    next_session: AtomicU64,
}

/// A [`Wsq`] instance shared by any number of concurrent [`Session`]s.
///
/// Cheap to clone (one `Arc`). Construct via [`Wsq::into_shared`] after
/// loading data, or [`SharedWsq::open_in_memory`] for the common case.
#[derive(Clone)]
pub struct SharedWsq {
    inner: Arc<SharedInner>,
}

impl Wsq {
    /// Convert this instance into a shareable, multi-session form.
    ///
    /// Typically called after setup (`load_reference_data`, initial
    /// DDL): the server owns the `SharedWsq` and opens one [`Session`]
    /// per connection.
    pub fn into_shared(self) -> SharedWsq {
        SharedWsq {
            inner: Arc::new(SharedInner {
                db: RwLock::new(self.db),
                engines: self.engines,
                pump: self.pump,
                opts: self.opts,
                caches: self.caches,
                obs: self.obs,
                next_session: AtomicU64::new(0),
            }),
        }
    }
}

impl SharedWsq {
    /// An in-memory shared instance with the paper's reference tables
    /// loaded — the server's default bring-up path.
    pub fn open_in_memory(config: crate::WsqConfig) -> Result<SharedWsq> {
        let mut wsq = Wsq::open_in_memory(config)?;
        wsq.load_reference_data()?;
        Ok(wsq.into_shared())
    }

    /// Open a new session. Session ids start at 1 and are never reused;
    /// id 0 is reserved for "untagged" (in-process work and the pump's
    /// timer thread).
    pub fn session(&self) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.obs.count(CounterId::SessionsTotal, 1);
        self.inner.obs.shift(GaugeId::SessionsActive, 1);
        Session {
            shared: self.inner.clone(),
            id,
            opts: self.inner.opts,
            queries: 0,
            rows: 0,
            errors: 0,
        }
    }

    /// The shared request pump.
    pub fn pump(&self) -> &Arc<ReqPump> {
        &self.inner.pump
    }

    /// The shared observability handle.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Prometheus text-format dump of the shared metrics registry.
    pub fn metrics_text(&self) -> String {
        self.inner.obs.prometheus_text()
    }

    /// JSON snapshot of the shared metrics registry.
    pub fn metrics_json(&self) -> String {
        self.inner.obs.json_snapshot()
    }

    /// Result-cache statistics per engine (shared across sessions).
    pub fn cache_stats(&self) -> HashMap<String, wsq_websim::CacheStats> {
        self.inner
            .caches
            .iter()
            .map(|(k, v)| (k.clone(), v.stats()))
            .collect()
    }

    /// Sessions ever opened.
    pub fn sessions_opened(&self) -> u64 {
        self.inner.next_session.load(Ordering::Relaxed)
    }
}

/// Lightweight per-session counters (server-side bookkeeping; the
/// shared registry keeps the fleet-wide view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// SELECTs executed by this session.
    pub queries: u64,
    /// Rows returned to this session.
    pub rows: u64,
    /// Statements that failed.
    pub errors: u64,
}

/// One connection's view of a [`SharedWsq`]: its own default
/// [`QueryOptions`], its own id for trace attribution, and private
/// stats — everything else (pump, caches, database) is shared.
pub struct Session {
    shared: Arc<SharedInner>,
    id: u64,
    opts: QueryOptions,
    queries: u64,
    rows: u64,
    errors: u64,
}

impl Session {
    /// This session's id (1-based; 0 means "untagged").
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This session's default query options (mutable). Changing them
    /// affects only this session.
    pub fn options_mut(&mut self) -> &mut QueryOptions {
        &mut self.opts
    }

    /// Per-session counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            queries: self.queries,
            rows: self.rows,
            errors: self.errors,
        }
    }

    fn track<T>(&mut self, r: Result<T>, rows: impl Fn(&T) -> u64) -> Result<T> {
        match &r {
            Ok(v) => self.rows += rows(v),
            Err(_) => self.errors += 1,
        }
        r
    }

    /// Execute a single SELECT and return its rows. Runs under the
    /// shared read lock, concurrently with other sessions' SELECTs.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        self.queries += 1;
        let shared = self.shared.clone();
        let opts = self.opts;
        let result = shared.obs.timed_query(|| {
            session_scope(self.id, || match wsq_sql::parse_one(sql)? {
                wsq_sql::Statement::Select(sel) => {
                    let db = shared.db.read();
                    db.run_query(&sel, &shared.engines, &shared.pump, opts)
                }
                _ => Err(WsqError::Plan("query requires a SELECT".to_string())),
            })
        });
        self.track(result, |r| r.rows.len() as u64)
    }

    /// Execute a `;`-separated SQL script. Each SELECT runs under the
    /// read lock; DDL/DML statements take the write lock individually
    /// (a script is not a transaction, matching `Wsq::execute`).
    pub fn execute(&mut self, sql: &str) -> Result<Vec<StatementResult>> {
        let shared = self.shared.clone();
        let opts = self.opts;
        let result = session_scope(self.id, || {
            let stmts = wsq_sql::parse(sql)?;
            let mut out = Vec::with_capacity(stmts.len());
            for stmt in &stmts {
                out.push(match stmt {
                    wsq_sql::Statement::Select(sel) => {
                        let db = shared.db.read();
                        StatementResult::Rows(db.run_query(
                            sel,
                            &shared.engines,
                            &shared.pump,
                            opts,
                        )?)
                    }
                    other => {
                        let mut db = shared.db.write();
                        db.run_statement(other, &shared.engines, &shared.pump, opts)?
                    }
                });
            }
            Ok(out)
        });
        self.queries += 1;
        self.track(result, |rs| {
            rs.iter()
                .map(|r| match r {
                    StatementResult::Rows(q) => q.rows.len() as u64,
                    StatementResult::Affected(_) => 0,
                })
                .sum()
        })
    }

    /// Open a streaming cursor over a SELECT. The returned
    /// [`SessionCursor`] owns its executor tree, so the read lock is
    /// released before this returns — a slow (or stalled) client
    /// streaming rows never blocks other sessions' DDL. Dropping the
    /// cursor mid-stream releases its pump slots, through the query's
    /// lease, and its buffered tuples (the server's
    /// disconnect-cancellation path).
    pub fn query_cursor(&mut self, sql: &str) -> Result<SessionCursor> {
        self.queries += 1;
        let shared = self.shared.clone();
        let opts = self.opts;
        let result = shared.obs.timed_query(|| {
            session_scope(self.id, || match wsq_sql::parse_one(sql)? {
                wsq_sql::Statement::Select(sel) => {
                    let db = shared.db.read();
                    db.open_query(&sel, &shared.engines, &shared.pump, opts)
                }
                _ => Err(WsqError::Plan("cursor requires a SELECT".to_string())),
            })
        });
        match result {
            Ok(cursor) => Ok(SessionCursor {
                cursor,
                session: self.id,
            }),
            Err(e) => {
                self.errors += 1;
                Err(e)
            }
        }
    }

    /// EXPLAIN ANALYZE: run a SELECT and return its rows plus the
    /// per-operator report with the `-- trace:` / `-- cache[..]:` /
    /// `-- verify:` footer (same format as `Wsq::analyze`; served over
    /// the wire verbatim in a `Footer` frame).
    pub fn analyze(&mut self, sql: &str) -> Result<(QueryResult, String)> {
        self.queries += 1;
        let shared = self.shared.clone();
        let opts = self.opts;
        let result = session_scope(self.id, || match wsq_sql::parse_one(sql)? {
            wsq_sql::Statement::Select(sel) => {
                let db = shared.db.read();
                analyze_select(
                    &db,
                    &shared.engines,
                    &shared.pump,
                    opts,
                    &shared.obs,
                    &shared.caches,
                    &sel,
                )
            }
            _ => Err(WsqError::Plan("ANALYZE requires a SELECT".to_string())),
        });
        self.track(result, |(r, _)| r.rows.len() as u64)
    }

    /// EXPLAIN a SELECT under this session's options.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let db = self.shared.db.read();
        db.explain(sql, &self.shared.engines, self.opts)
    }

    /// EXPLAIN VERIFY: the plan text plus the placeholder-dataflow
    /// verifier's verdict (mirrors `Wsq::explain_verify`).
    pub fn explain_verify(&self, sql: &str) -> Result<String> {
        match wsq_sql::parse_one(sql)? {
            wsq_sql::Statement::Select(sel) => {
                let db = self.shared.db.read();
                let plan = db.plan_query(&sel, &self.shared.engines, self.opts)?;
                let mut out = plan.display();
                out.push_str(&verify_line(&plan, self.opts.mode, self.opts.reqsync_cap));
                Ok(out)
            }
            _ => Err(WsqError::Plan(
                "EXPLAIN VERIFY requires a SELECT".to_string(),
            )),
        }
    }

    /// Prometheus text-format dump of the *shared* metrics registry.
    pub fn metrics_text(&self) -> String {
        self.shared.obs.prometheus_text()
    }

    /// JSON snapshot of the *shared* metrics registry.
    pub fn metrics_json(&self) -> String {
        self.shared.obs.json_snapshot()
    }

    /// The shared observability handle.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The shared request pump.
    pub fn pump(&self) -> &Arc<ReqPump> {
        &self.shared.pump
    }

    /// Trace events attributable to *this* session since ring position
    /// `since`: every event of every call this session registered or
    /// coalesced onto, including lifecycle segments recorded on the
    /// pump's timer thread or another session's thread.
    pub fn trace_events(&self, since: u64) -> Vec<TraceEvent> {
        self.shared.obs.trace_events_for_session(since, self.id)
    }

    /// Run a SELECT and return its rows plus this session's rendered
    /// trace timeline (the remote `.trace` command). Only calls this
    /// session touched appear, even while other sessions run
    /// concurrently.
    pub fn trace_query(&mut self, sql: &str) -> Result<(QueryResult, String)> {
        let pos = self.shared.obs.trace_position();
        let result = self.query(sql)?;
        let events = self.trace_events(pos);
        let dropped = self.shared.obs.trace().map_or(0, |t| t.dropped());
        Ok((result, wsq_obs::render_timeline(&events, dropped)))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.obs.shift(GaugeId::SessionsActive, -1);
    }
}

/// A streaming cursor bound to its session: every `next_row` runs
/// inside the session's trace scope, so calls registered lazily during
/// streaming are attributed to the right connection.
pub struct SessionCursor {
    cursor: Cursor,
    session: u64,
}

impl SessionCursor {
    /// The result schema.
    pub fn schema(&self) -> &wsq_common::Schema {
        self.cursor.schema()
    }

    /// The next row, or `None` when exhausted.
    pub fn next_row(&mut self) -> Result<Option<Tuple>> {
        let cursor = &mut self.cursor;
        session_scope(self.session, || cursor.next_row())
    }

    /// End the query early. Dropping without calling this is also safe
    /// (the cursor's lease releases the query's calls either way);
    /// `finish` just surfaces errors instead of swallowing them.
    pub fn finish(self) -> Result<()> {
        let SessionCursor { cursor, session } = self;
        session_scope(session, || cursor.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WsqConfig;

    fn shared(cache: bool) -> SharedWsq {
        SharedWsq::open_in_memory(WsqConfig {
            cache,
            ..WsqConfig::fast()
        })
        .unwrap()
    }

    #[test]
    fn sessions_share_results_and_ids() {
        let sw = shared(false);
        let mut a = sw.session();
        let mut b = sw.session();
        assert_eq!(a.id(), 1);
        assert_eq!(b.id(), 2);
        let sql = "SELECT Count FROM WebCount WHERE T1 = 'Texas'";
        assert_eq!(
            a.query(sql).unwrap().to_table(),
            b.query(sql).unwrap().to_table()
        );
        assert_eq!(a.stats().queries, 1);
        assert!(a.stats().rows >= 1);
        assert_eq!(sw.sessions_opened(), 2);
        assert_eq!(sw.pump().live_calls(), 0);
    }

    #[test]
    fn cross_session_calls_share_the_cache() {
        let sw = shared(true);
        let mut a = sw.session();
        let mut b = sw.session();
        let sql = "SELECT Count FROM WebCount WHERE T1 = 'Utah'";
        a.query(sql).unwrap();
        b.query(sql).unwrap();
        let av = sw.cache_stats().remove("AV").unwrap();
        // One backend call total: the second session's call is a hit.
        assert_eq!(av.misses, 1, "misses == backend calls, fleet-wide");
        assert_eq!(av.hits, 1);
    }

    #[test]
    fn concurrent_selects_run_under_the_read_lock() {
        let sw = shared(false);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mut s = sw.session();
                std::thread::spawn(move || {
                    s.query(
                        "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                         ORDER BY Count DESC, Name LIMIT 3",
                    )
                    .unwrap()
                    .to_table()
                })
            })
            .collect();
        let tables: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(tables.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(sw.pump().live_calls(), 0);
    }

    #[test]
    fn ddl_takes_the_write_lock_and_is_visible_to_peers() {
        let sw = shared(false);
        let mut a = sw.session();
        let mut b = sw.session();
        a.execute("CREATE TABLE T (N INT); INSERT INTO T VALUES (7)")
            .unwrap();
        let r = b.query("SELECT N FROM T").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn session_cursor_streams_and_releases_on_drop() {
        let sw = shared(false);
        let mut s = sw.session();
        let mut cur = s
            .query_cursor(
                "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                 ORDER BY Count DESC, Name LIMIT 5",
            )
            .unwrap();
        assert_eq!(cur.schema().columns().len(), 2);
        assert!(cur.next_row().unwrap().is_some());
        // Abandon mid-stream: the cursor's lease must release every slot.
        drop(cur);
        assert_eq!(sw.pump().live_calls(), 0);
        if let Some(m) = sw.obs().metrics() {
            assert_eq!(m.reqsync_buffered.get(), 0);
        }
    }

    #[test]
    fn trace_filtering_separates_concurrent_sessions() {
        let sw = shared(false);
        let mut a = sw.session();
        let mut b = sw.session();
        let pos = sw.obs().trace_position();
        a.query("SELECT Count FROM WebCount WHERE T1 = 'Texas'")
            .unwrap();
        b.query("SELECT Count FROM WebCount WHERE T1 = 'Utah'")
            .unwrap();
        let a_events = a.trace_events(pos);
        let b_events = b.trace_events(pos);
        assert!(!a_events.is_empty());
        assert!(!b_events.is_empty());
        let a_calls: std::collections::HashSet<_> = a_events.iter().map(|e| e.call).collect();
        let b_calls: std::collections::HashSet<_> = b_events.iter().map(|e| e.call).collect();
        assert!(
            a_calls.is_disjoint(&b_calls),
            "distinct expressions must not share calls"
        );
    }

    #[test]
    fn session_gauge_tracks_active_connections() {
        let sw = shared(false);
        let m = sw.obs().metrics().unwrap();
        let base = m.sessions_active.get();
        let a = sw.session();
        let b = sw.session();
        assert_eq!(m.sessions_active.get(), base + 2);
        drop(a);
        drop(b);
        assert_eq!(m.sessions_active.get(), base);
        assert!(m.sessions_total.get() >= 2);
    }

    #[test]
    fn analyze_footer_matches_single_session_format() {
        let sw = shared(true);
        let mut s = sw.session();
        let sql = "SELECT Count FROM WebCount WHERE T1 = 'Texas'";
        s.query(sql).unwrap();
        let (_, report) = s.analyze(sql).unwrap();
        assert!(report.contains("-- pump:"), "{report}");
        assert!(report.contains("-- trace:"), "{report}");
        assert!(report.contains("-- cache[AV]:"), "{report}");
        assert!(report.contains("-- verify: ok"), "{report}");
    }
}
