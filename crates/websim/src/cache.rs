//! A standalone memoizing search-result cache, off the query path.
//!
//! The paper (§4, citing Hellerstein & Naughton, HN96) stresses that
//! caching expensive external calls is essential for plans that would
//! otherwise repeat identical searches — e.g. Example 2's cross-product
//! issuing `|R|` identical calls per Sig. A `Wsq` with `cache` set does not
//! use this type: its ReqPump keeps each successful result after release
//! ([`wsq_pump::ReqPump::register_service_with`]), so a repeated search is
//! answered in the registration's own lock hold, with no launch and no
//! second map. [`CachedService`] is that memo as a service decorator, kept
//! only while the benchmark harness names it (ROADMAP 1(d)); its
//! [`CacheConfig`] and [`CacheStats`] are the pump's.
//!
//! # Design
//!
//! The memo is one map of ready results behind one `RwLock`. Hits share
//! the read lock; a miss calls the inner service with no lock held and
//! then takes the write lock once, to store a successful result. Counters
//! are atomics, off the lock, and `misses` equals the number of
//! inner-service calls exactly. It merges no identical in-flight
//! requests: a ReqPump in front of it does.
//!
//! Optionally the memo bounds its size with LRU eviction (`capacity`)
//! and expires entries after a fixed `ttl`. Recency is tracked with a
//! global atomic tick so a hit under a read lock can still update it.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsq_obs::{CounterId, Obs};
pub use wsq_pump::{CacheConfig, CacheStats};
use wsq_pump::{SearchRequest, SearchResult, SearchService, ServiceReply};

/// A cached result.
struct Ready {
    result: SearchResult,
    inserted: Instant,
    /// Global tick at last touch; drives LRU eviction.
    last_used: AtomicU64,
}

/// One inner call's share of the `inflight` gauge, given back on drop —
/// also when the service panics and the call unwinds.
struct InFlight<'a>(&'a AtomicU64);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A memoizing wrapper around a search service.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use wsq_pump::{RequestKind, SearchRequest, SearchResult, SearchService, ServiceReply};
/// use wsq_websim::CachedService;
///
/// /// A slow "engine" whose result is the expression's length.
/// struct Slow;
/// impl SearchService for Slow {
///     fn execute(&self, req: &SearchRequest) -> ServiceReply {
///         ServiceReply {
///             result: Ok(SearchResult::Count(req.expr.len() as u64)),
///             latency: Duration::from_millis(10),
///         }
///     }
/// }
///
/// let cached = CachedService::new(Arc::new(Slow));
/// let req = SearchRequest {
///     engine: "AV".into(),
///     expr: "Colorado".into(),
///     kind: RequestKind::Count,
/// };
/// let first = cached.execute(&req);
/// assert_eq!(first.latency, Duration::from_millis(10)); // paid the network
/// let second = cached.execute(&req);
/// assert_eq!(second.latency, Duration::ZERO); // served locally
/// assert_eq!(cached.stats().hits, 1);
/// ```
pub struct CachedService {
    inner: Arc<dyn SearchService>,
    obs: Obs,
    map: RwLock<HashMap<SearchRequest, Ready>>,
    capacity: Option<usize>,
    ttl: Option<Duration>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
    inflight: AtomicU64,
}

impl CachedService {
    /// Wrap `inner` with the default configuration (unbounded, no
    /// expiry).
    pub fn new(inner: Arc<dyn SearchService>) -> Arc<Self> {
        Self::with_config(inner, CacheConfig::default())
    }

    /// Wrap `inner` with explicit tuning.
    pub fn with_config(inner: Arc<dyn SearchService>, config: CacheConfig) -> Arc<Self> {
        Self::with_config_obs(inner, config, Obs::disabled())
    }

    /// Wrap `inner` with explicit tuning and an observability sink: cache
    /// hits and misses are mirrored into the `wsq_cache_*` registry
    /// counters (the local [`CacheStats`] are always kept).
    pub fn with_config_obs(
        inner: Arc<dyn SearchService>,
        config: CacheConfig,
        obs: Obs,
    ) -> Arc<Self> {
        Arc::new(CachedService {
            inner,
            obs,
            map: RwLock::new(HashMap::new()),
            capacity: config.capacity,
            ttl: config.ttl,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
        })
    }

    fn expired(&self, ready: &Ready) -> bool {
        self.ttl.is_some_and(|ttl| ready.inserted.elapsed() >= ttl)
    }

    fn touch(&self, ready: &Ready) {
        // Recency only matters for LRU eviction; an unbounded cache
        // skips the shared tick (it would bounce a cache line per hit).
        if self.capacity.is_some() {
            let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
            ready.last_used.store(now, Ordering::Relaxed);
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: 0,
            evictions: self.evictions.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached entries (the experimental "wait two hours between
    /// runs" protocol, in one call). Inner calls in flight store their
    /// results when they return.
    pub fn clear(&self) {
        self.map.write().clear();
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True iff no results are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evict least-recently-used entries until the cache is back under
    /// `capacity`. Called with the write lock held, after an insert.
    fn enforce_capacity(&self, map: &mut HashMap<SearchRequest, Ready>) {
        let Some(cap) = self.capacity else {
            return;
        };
        for _ in cap..map.len() {
            let victim = map
                .iter()
                .min_by_key(|(_, r)| r.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl SearchService for CachedService {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        // Hit: shared read lock, no map mutation, zero latency — the
        // network already happened once.
        if let Some(ready) = self.map.read().get(req) {
            if !self.expired(ready) {
                self.touch(ready);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.count(CounterId::CacheHits, 1);
                return ServiceReply {
                    result: Ok(ready.result.clone()),
                    latency: Duration::ZERO,
                };
            }
        }

        // Miss: call the inner service with no lock held.
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.count(CounterId::CacheMisses, 1);
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let reply = {
            let _inflight = InFlight(&self.inflight);
            self.inner.execute(req)
        };

        // A failed call is not stored, so the next request retries it.
        if let Ok(result) = &reply.result {
            let ready = Ready {
                result: result.clone(),
                inserted: Instant::now(),
                last_used: AtomicU64::new(0),
            };
            self.touch(&ready);
            let mut map = self.map.write();
            if map
                .insert(req.clone(), ready)
                .is_some_and(|old| self.expired(&old))
            {
                self.expirations.fetch_add(1, Ordering::Relaxed);
            }
            self.enforce_capacity(&mut map);
        }
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use wsq_pump::RequestKind;

    struct Counting {
        calls: AtomicU64,
        latency: Duration,
    }

    impl Counting {
        fn new() -> Arc<Self> {
            Self::with_latency(Duration::from_millis(10))
        }

        fn with_latency(latency: Duration) -> Arc<Self> {
            Arc::new(Counting {
                calls: AtomicU64::new(0),
                latency,
            })
        }
    }

    impl SearchService for Counting {
        fn execute(&self, req: &SearchRequest) -> ServiceReply {
            self.calls.fetch_add(1, Ordering::SeqCst);
            ServiceReply {
                result: Ok(SearchResult::Count(req.expr.len() as u64)),
                latency: self.latency,
            }
        }
    }

    fn req(expr: &str) -> SearchRequest {
        SearchRequest {
            engine: "AV".into(),
            expr: expr.into(),
            kind: RequestKind::Count,
        }
    }

    /// A backend that panics on its first call and answers every later
    /// one.
    struct PanicsOnce(std::sync::atomic::AtomicBool);

    impl SearchService for PanicsOnce {
        fn execute(&self, req: &SearchRequest) -> ServiceReply {
            assert!(self.0.swap(true, Ordering::SeqCst), "backend exploded once");
            ServiceReply::instant(SearchResult::Count(req.expr.len() as u64))
        }
    }

    #[test]
    fn a_panicking_backend_wedges_no_key() {
        let cached = CachedService::new(Arc::new(PanicsOnce(Default::default())));
        let first = std::panic::AssertUnwindSafe(|| cached.execute(&req("Utah")));
        let unwound = std::panic::catch_unwind(first);
        assert!(unwound.is_err(), "the first call reaches the backend");
        // The same request again reaches the backend: nothing was stored
        // for it, and the panicked call gave its in-flight share back.
        assert_eq!(
            cached.execute(&req("Utah")).result.unwrap().count(),
            Some(4)
        );
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses, stats.inflight), (0, 2, 0));
    }

    #[test]
    fn second_call_is_a_zero_latency_hit() {
        let inner = Counting::new();
        let cached = CachedService::new(inner.clone());
        let r1 = cached.execute(&req("colorado"));
        assert_eq!(r1.latency, Duration::from_millis(10));
        let r2 = cached.execute(&req("colorado"));
        assert_eq!(r2.latency, Duration::ZERO);
        assert_eq!(r2.result.unwrap().count(), Some(8));
        assert_eq!(inner.calls.load(Ordering::SeqCst), 1);
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn distinct_requests_are_distinct_entries() {
        let cached = CachedService::new(Counting::new());
        cached.execute(&req("a"));
        cached.execute(&req("b"));
        // Same expr, different kind → different entry.
        cached.execute(&SearchRequest {
            engine: "AV".into(),
            expr: "a".into(),
            kind: RequestKind::Pages { max_rank: 5 },
        });
        assert_eq!(cached.len(), 3);
    }

    #[test]
    fn clear_resets_contents_but_not_stats() {
        let cached = CachedService::new(Counting::new());
        cached.execute(&req("x"));
        cached.execute(&req("x"));
        cached.clear();
        assert!(cached.is_empty());
        cached.execute(&req("x"));
        let stats = cached.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn a_failed_call_is_not_cached() {
        struct FailOnce {
            calls: AtomicU64,
        }
        impl SearchService for FailOnce {
            fn execute(&self, req: &SearchRequest) -> ServiceReply {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    ServiceReply {
                        result: Err(wsq_common::WsqError::Search("engine down".into())),
                        latency: Duration::ZERO,
                    }
                } else {
                    ServiceReply::instant(SearchResult::Count(req.expr.len() as u64))
                }
            }
        }
        let inner = Arc::new(FailOnce {
            calls: AtomicU64::new(0),
        });
        let cached = CachedService::new(inner.clone());
        assert!(cached.execute(&req("flaky")).result.is_err());
        // The failure was not cached; the retry reaches the service.
        assert_eq!(
            cached.execute(&req("flaky")).result.unwrap().count(),
            Some(5)
        );
        assert_eq!(inner.calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn lru_eviction_drops_least_recently_used() {
        let cached = CachedService::with_config(
            Counting::new(),
            CacheConfig {
                capacity: Some(2),
                ttl: None,
            },
        );
        cached.execute(&req("a"));
        cached.execute(&req("b"));
        cached.execute(&req("a")); // a is now more recent than b
        cached.execute(&req("c")); // evicts b
        assert_eq!(cached.len(), 2);
        assert_eq!(cached.stats().evictions, 1);
        // a and c are hits; b was evicted and misses again.
        let before = cached.stats().misses;
        cached.execute(&req("a"));
        cached.execute(&req("c"));
        cached.execute(&req("b"));
        assert_eq!(cached.stats().misses, before + 1);
    }

    #[test]
    fn capacity_bounds_the_whole_cache() {
        let cached = CachedService::with_config(
            Counting::with_latency(Duration::ZERO),
            CacheConfig {
                capacity: Some(8),
                ..CacheConfig::default()
            },
        );
        for i in 0..64 {
            cached.execute(&req(&format!("key-{i:02}")));
            assert!(cached.len() <= 8, "{} entries after {i}", cached.len());
        }
        assert_eq!(cached.stats().evictions, 56);
    }

    #[test]
    fn ttl_expires_entries() {
        let inner = Counting::with_latency(Duration::ZERO);
        let cached = CachedService::with_config(
            inner.clone(),
            CacheConfig {
                capacity: None,
                ttl: Some(Duration::from_millis(30)),
            },
        );
        cached.execute(&req("ephemeral"));
        assert_eq!(cached.execute(&req("ephemeral")).latency, Duration::ZERO);
        std::thread::sleep(Duration::from_millis(40));
        cached.execute(&req("ephemeral"));
        assert_eq!(inner.calls.load(Ordering::SeqCst), 2, "expired → re-fetch");
        assert_eq!(cached.stats().expirations, 1);
    }

    #[test]
    fn concurrent_stress_accounts_every_request() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 200;
        let inner = Counting::with_latency(Duration::ZERO);
        let cached = CachedService::new(inner.clone());
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cached = cached.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        // 16 distinct keys, every thread touching all of
                        // them: heavy same-key traffic.
                        let key = (t + i) % 16;
                        let reply = cached.execute(&req(&format!("key-{key}")));
                        assert!(reply.result.is_ok());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cached.stats();
        let requests = (THREADS * PER_THREAD) as u64;
        assert_eq!(stats.hits + stats.misses, requests);
        // Each key misses at least once (more only when two threads miss
        // it at the same instant: no pump in front merges them here), and
        // misses are exactly the inner calls.
        assert!(stats.misses >= 16);
        assert_eq!(stats.misses, inner.calls.load(Ordering::SeqCst));
        assert_eq!(cached.len(), 16);
        assert_eq!(stats.inflight, 0);
    }
}
