//! A memoizing search-result cache.
//!
//! The paper (§4, citing Hellerstein & Naughton, HN96) stresses that
//! caching expensive external calls is essential for plans that would
//! otherwise repeat identical searches — e.g. Example 2's cross-product
//! issuing `|R|` identical calls per Sig. [`CachedService`] wraps any
//! [`SearchService`]; hits are served locally with zero latency.
//!
//! # Design
//!
//! The cache is one map behind one `RwLock`: hits share the read lock,
//! only a miss (install the flight, store the result) takes the write
//! lock. Counters are atomics, off the lock.
//!
//! Each slot is either a ready entry or a *pending* flight. The
//! first thread to miss on a key installs a flight and calls the inner
//! service; concurrent misses on the same key find the flight and block
//! on its condvar instead of issuing duplicate external calls
//! (single-flight). Followers are counted as hits (sub-counted as
//! `coalesced`), so `misses` equals the number of inner-service calls
//! exactly.
//!
//! Optionally the cache bounds its size with LRU eviction (`capacity`)
//! and expires entries after a fixed `ttl`. Recency is tracked with a
//! global atomic tick so a hit under a read lock can still update it.

use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsq_common::Result;
use wsq_obs::Obs;
use wsq_pump::{SearchRequest, SearchResult, SearchService, ServiceReply};

/// Tuning knobs for [`CachedService`].
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Maximum number of ready entries; `None` is unbounded. An insert
    /// that would exceed it evicts the least-recently-used entry.
    pub capacity: Option<usize>,
    /// Entries older than this are treated as absent (and replaced) on
    /// lookup; `None` disables expiry.
    pub ttl: Option<Duration>,
}

/// Cache counters. All maintained with atomics; reading them never takes
/// the map lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served without a new inner call (ready entries plus
    /// coalesced followers).
    pub hits: u64,
    /// Requests that called the inner service. Exactly the number of
    /// inner-service invocations.
    pub misses: u64,
    /// Subset of `hits` that waited on an in-flight identical miss
    /// instead of finding a ready entry.
    pub coalesced: u64,
    /// Ready entries evicted to enforce `capacity`.
    pub evictions: u64,
    /// Ready entries dropped because their `ttl` elapsed.
    pub expirations: u64,
    /// Inner calls currently in flight (gauge, not a counter).
    pub inflight: u64,
}

/// A leader's in-flight inner call, shared with coalesced followers.
struct Flight {
    outcome: Mutex<Option<Result<SearchResult>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Flight {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    /// Publish the leader's outcome and wake all followers.
    fn publish(&self, outcome: Result<SearchResult>) {
        *self.outcome.lock() = Some(outcome);
        self.done.notify_all();
    }

    /// Block until the leader publishes.
    fn wait(&self) -> Result<SearchResult> {
        let mut slot = self.outcome.lock();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            self.done.wait(&mut slot);
        }
    }
}

/// A ready cache entry.
struct Ready {
    result: SearchResult,
    inserted: Instant,
    /// Global tick at last touch; drives LRU eviction.
    last_used: AtomicU64,
}

enum Slot {
    Ready(Ready),
    Pending(Arc<Flight>),
}

/// A single-flight caching wrapper around a search service.
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
    map: RwLock<HashMap<SearchRequest, Slot>>,
    capacity: Option<usize>,
    ttl: Option<Duration>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
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
    /// hits/misses/coalesced waits are mirrored into the `wsq_cache_*`
    /// registry counters (the local [`CacheStats`] are always kept).
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
            coalesced: AtomicU64::new(0),
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
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached entries (the experimental "wait two hours between
    /// runs" protocol, in one call). In-flight leaders are left to finish
    /// and will re-insert their results.
    pub fn clear(&self) {
        self.map
            .write()
            .retain(|_, slot| matches!(slot, Slot::Pending(_)));
    }

    /// Number of ready cached results.
    pub fn len(&self) -> usize {
        ready_len(&self.map.read())
    }

    /// True iff no ready results are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evict least-recently-used ready entries until the cache is back
    /// under `capacity`. Called with the write lock held, after an insert.
    fn enforce_capacity(&self, map: &mut HashMap<SearchRequest, Slot>) {
        let Some(cap) = self.capacity else {
            return;
        };
        for _ in cap..ready_len(map) {
            let victim = map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready(r) => Some((r.last_used.load(Ordering::Relaxed), k)),
                    Slot::Pending(_) => None,
                })
                .min_by_key(|(used, _)| *used)
                .map(|(_, k)| k.clone());
            let Some(victim) = victim else {
                break;
            };
            map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Serve a hit: zero latency, the network already happened once.
    fn hit_reply(&self, ready: &Ready) -> ServiceReply {
        self.touch(ready);
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.metrics() {
            m.cache_hits.inc();
        }
        ServiceReply {
            result: Ok(ready.result.clone()),
            latency: Duration::ZERO,
        }
    }

    /// Run the inner call as the flight's leader and publish the outcome.
    fn lead(&self, req: &SearchRequest, flight: &Arc<Flight>) -> ServiceReply {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.obs.metrics() {
            m.cache_misses.inc();
        }
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let reply = self.inner.execute(req);
        self.inflight.fetch_sub(1, Ordering::Relaxed);

        let mut map = self.map.write();
        match &reply.result {
            Ok(result) => {
                let ready = Ready {
                    result: result.clone(),
                    inserted: Instant::now(),
                    last_used: AtomicU64::new(0),
                };
                self.touch(&ready);
                map.insert(req.clone(), Slot::Ready(ready));
                self.enforce_capacity(&mut map);
            }
            // A failed call must not poison the key: remove the flight so
            // the next request retries the inner service.
            Err(_) => {
                map.remove(req);
            }
        }
        drop(map);
        flight.publish(reply.result.clone());
        reply
    }
}

/// Ready entries in `map` (pending flights hold no result yet).
fn ready_len(map: &HashMap<SearchRequest, Slot>) -> usize {
    map.values()
        .filter(|slot| matches!(slot, Slot::Ready(_)))
        .count()
}

impl SearchService for CachedService {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        // Fast path: shared read lock, no map mutation.
        if let Some(Slot::Ready(ready)) = self.map.read().get(req) {
            if !self.expired(ready) {
                return self.hit_reply(ready);
            }
        }

        // Slow path: take the write lock and either become the leader or
        // join an existing flight.
        let mut map = self.map.write();
        match map.entry(req.clone()) {
            MapEntry::Occupied(mut entry) => match entry.get() {
                // Re-checked under the write lock: a leader may have
                // refreshed the entry since the read lock fell.
                Slot::Ready(ready) if !self.expired(ready) => {
                    let reply = self.hit_reply(ready);
                    drop(map);
                    reply
                }
                // Expired: the new flight replaces it in the same pass.
                Slot::Ready(_) => {
                    self.expirations.fetch_add(1, Ordering::Relaxed);
                    let flight = Flight::new();
                    entry.insert(Slot::Pending(flight.clone()));
                    drop(map);
                    self.lead(req, &flight)
                }
                Slot::Pending(flight) => {
                    let flight = flight.clone();
                    drop(map);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = self.obs.metrics() {
                        m.cache_hits.inc();
                        m.cache_coalesced.inc();
                    }
                    ServiceReply {
                        result: flight.wait(),
                        latency: Duration::ZERO,
                    }
                }
            },
            MapEntry::Vacant(entry) => {
                let flight = Flight::new();
                entry.insert(Slot::Pending(flight.clone()));
                drop(map);
                self.lead(req, &flight)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
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

    /// A service that blocks inside `execute` so concurrent callers
    /// genuinely overlap (models thread-pool dispatch of a real client).
    struct SlowBlocking {
        calls: AtomicU64,
        work: Duration,
    }

    impl SearchService for SlowBlocking {
        fn execute(&self, req: &SearchRequest) -> ServiceReply {
            self.calls.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.work);
            ServiceReply::instant(SearchResult::Count(req.expr.len() as u64))
        }
    }

    fn req(expr: &str) -> SearchRequest {
        SearchRequest {
            engine: "AV".into(),
            expr: expr.into(),
            kind: RequestKind::Count,
        }
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
    fn concurrent_identical_misses_coalesce_into_one_inner_call() {
        const WAITERS: usize = 8;
        let inner = Arc::new(SlowBlocking {
            calls: AtomicU64::new(0),
            work: Duration::from_millis(40),
        });
        let cached = CachedService::new(inner.clone());
        let barrier = Arc::new(Barrier::new(WAITERS));
        let handles: Vec<_> = (0..WAITERS)
            .map(|_| {
                let cached = cached.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    cached.execute(&req("shared query")).result.unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().count(), Some("shared query".len() as u64));
        }
        assert_eq!(inner.calls.load(Ordering::SeqCst), 1, "single flight");
        let stats = cached.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, WAITERS as u64 - 1);
        assert_eq!(stats.coalesced, WAITERS as u64 - 1);
        assert_eq!(stats.inflight, 0);
    }

    #[test]
    fn failed_leader_does_not_poison_the_key() {
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
        // No TTL and no capacity, so each of the 16 keys misses exactly
        // once, and misses are exactly the inner calls.
        assert_eq!(stats.misses, 16);
        assert_eq!(inner.calls.load(Ordering::SeqCst), 16);
        assert_eq!(stats.inflight, 0);
    }
}
