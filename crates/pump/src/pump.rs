//! The ReqPump implementation: registration, concurrency-limited dispatch,
//! result storage (`ReqPumpHash`), and completion signalling.
//!
//! # Launching
//!
//! A call is launched by whichever thread made it launchable
//! (`launch_ready`): the registering thread for a call that fits under
//! the caps, otherwise the thread whose delivery freed the capacity.
//! Zero-latency replies complete on that same thread before it returns;
//! the `reqpump-loop` thread, the pump's only thread, is a timer that only
//! wakes for a declared-latency deadline. A service that blocks inside
//! `execute` blocks the thread that launched it (the
//! [`SearchService::execute`] contract). The invariant that
//! keeps a queued call from being stranded: *whoever frees capacity
//! re-runs the launch step before returning*. It does so in the lock hold
//! that freed the capacity: one hold completes a round's instant replies,
//! parks its timed ones, and pops the next round, so a round whose replies
//! leave nothing queued takes the lock once after its `execute`s and never
//! again.
//!
//! # The result cache
//!
//! `ReqPumpHash` is also the result cache. A successful call of a
//! destination registered with a [`CacheConfig`] is not simply forgotten
//! when its last reference is released — or when its reply arrives with
//! every reference already gone: its result moves, with its request, into
//! the kept table (`State::kept`), under the coalescing index's hash. A
//! kept result is no call: it holds no entry, reference or index slot, and
//! [`ReqPump::live_calls`] never counts it. A registration that finds no
//! call of its request in the index looks there next; a hit is delivered
//! the result in the registration's own lock hold, under a fresh call id
//! that no one holds, so nothing is released for it later. A registrant
//! that holds what it registers ([`ReqPump::register`], a racing group's
//! members) gets that id as a finished call of its own. Failures leave the
//! index when they complete, so they are never kept. The cache's capacity
//! evicts the result used longest ago; its TTL forgets a result older than
//! it when a registration finds it.
//!
//! # Completion delivery
//!
//! A reply that is already in hand when its registration returns is
//! delivered to the registrant ([`ReqPump::register_delivered`],
//! [`Registered::Delivered`]): in the lock hold that completed it — or,
//! for a registration that coalesced onto a finished call or found a kept
//! result, in the registration's own hold — the pump takes the result for
//! the caller, so there is nothing left to wait for, take or signal. Only a
//! call that is really pending goes through the path below.
//!
//! Completion signalling is *targeted*: each [`ReqPump::wait_any`] caller
//! registers an interest record for exactly the calls it waits on, and
//! completion wakes only the waiters interested in the finished call —
//! there is no broadcast condvar that every consumer re-checks on every
//! completion. The wakeup carries the completed [`CallId`], so a woken
//! waiter returns immediately instead of re-scanning its call set under
//! the pump lock. Statistics are plain atomics, read without locking, and
//! [`ReqPump::take_completed`] drains any number of finished calls in one
//! lock acquisition.
//!
//! # Bookkeeping
//!
//! What a call costs beyond its service is kept small four ways. Each
//! step — a registration, a launch round, a completion — reads the clock
//! at most once ([`wsq_obs::Step`]) and not at all with observability off,
//! unless a reply declares latency; a registration launches what it can
//! under the same lock hold as one step, and an instant reply completes in
//! the step that launched it. The maps keyed by call id hash the id as an
//! id ([`IdMap`]). A call's destination — cap, in-flight count, service —
//! is looked up by name once, at registration, and carried as a slot index
//! from there. And each fact is recorded once, as a lifecycle event: the
//! call counters `stats()` and the metrics registry read, and the queue
//! and in-flight gauges, are folded from the events (the `wsq_obs::metrics`
//! docs), never counted beside them.
//!
//! # Observability on a query's thread
//!
//! A thread running a query records into that query's recorder
//! ([`wsq_obs::QueryRecorder`]) and publishes it in batches. Two rules keep
//! each call's events in lifecycle order in the trace ring: the thread
//! publishes before it blocks in [`ReqPump::wait_any`], and before it lets
//! another thread continue a call it has recorded events for — before it
//! parks a timed reply for the timer thread, before it releases the state
//! lock with calls still queued (the timer or another session may launch
//! them), and before it wakes a waiter on a call it completed. A
//! call's queue delay and latency are sampled by the first thread to take
//! its result, so they land in the recorder of the query that waited for
//! it, whichever thread completed the call.

use crate::service::{SearchRequest, SearchResult, SearchService, ServiceReply};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsq_common::{CallId, IdMap, Result, WsqError};
use wsq_obs::{CounterId, EventKind, HistogramId, Label, Obs, Step, Tick};

/// ReqPump configuration.
#[derive(Debug, Clone)]
pub struct PumpConfig {
    /// Maximum calls in flight across all destinations. The paper notes an
    /// administrator configures this to avoid exhausting local resources.
    pub max_concurrent: usize,
    /// Per-destination in-flight caps ("an unwelcome number of simultaneous
    /// requests" guard). Destinations absent from the map use
    /// `default_per_destination`.
    pub per_destination: HashMap<String, usize>,
    /// Default per-destination cap.
    pub default_per_destination: usize,
    /// Observability sink for call-lifecycle events and metrics
    /// ([`Obs::disabled`] by default — a pure no-op). One handle feeds one
    /// pump: the pump counts its calls in the handle's
    /// `wsq_calls_*_total` cells, so [`ReqPump::stats`] and the metrics
    /// registry read the same numbers.
    pub obs: Obs,
}

impl Default for PumpConfig {
    fn default() -> Self {
        PumpConfig {
            max_concurrent: 64,
            per_destination: HashMap::new(),
            default_per_destination: 64,
            obs: Obs::disabled(),
        }
    }
}

/// Cumulative pump statistics (a snapshot of the atomic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Calls registered (including coalesced registrations).
    pub registered: u64,
    /// Distinct calls actually launched to a service.
    pub launched: u64,
    /// Calls that reached a result, good or bad: `wsq_calls_completed_total`
    /// plus `wsq_calls_failed_total` (so it exceeds `launched` by the
    /// registrations failed fast for an unknown engine).
    pub completed: u64,
    /// Registrations satisfied by attaching to an existing call.
    pub coalesced: u64,
    /// Highest number of simultaneously in-flight calls observed.
    pub peak_in_flight: u64,
    /// Highest queue length observed while waiting for capacity.
    pub peak_queued: u64,
    /// Always 0: every launch is one per-request dispatch. The field
    /// survives only because `wsqbench` names it; it goes with ROADMAP 1(d).
    pub batches: u64,
}

/// A destination's result cache (paper §4, after HN96): registered with
/// [`ReqPump::register_service_with`], the pump keeps each successful
/// result of the destination after its last reference is released, and a
/// later registration of the same request is delivered that result in its
/// own lock hold, with no launch. Failures are never kept.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheConfig {
    /// Maximum number of kept results; `None` is unbounded. Keeping one
    /// more evicts the result used longest ago.
    pub capacity: Option<usize>,
    /// Results older than this (since their reply arrived) are forgotten
    /// when a registration finds them; `None` disables expiry.
    pub ttl: Option<Duration>,
}

/// A result cache's counters ([`ReqPump::cache_stats`], and the standalone
/// memo's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served a ready result.
    pub hits: u64,
    /// Requests sent to the service: exactly its invocations.
    pub misses: u64,
    /// Always 0: the pump counts the registrations that join a call still
    /// held as `PumpStats::coalesced`. The field survives only because
    /// `wsqbench` names it; it goes with ROADMAP 1(d).
    pub coalesced: u64,
    /// Results evicted to enforce `capacity`.
    pub evictions: u64,
    /// Results forgotten because their `ttl` had elapsed.
    pub expirations: u64,
    /// Calls to the service currently in flight (a gauge).
    pub inflight: u64,
}

/// Statistic counters; `stats()` never touches the state mutex. The call
/// counters are folded from the pump's events (the `wsq_obs::metrics`
/// docs): with observability on, into the handle's own `wsq_calls_*_total`
/// cells — through a running query's recorder on that query's thread — so
/// each call is recorded once, as events, whoever reads the number; with it
/// off, into counts of the pump's own ([`OwnCounts`]).
struct Counters {
    /// The pump's own counts, with observability off.
    own: Option<OwnCounts>,
    peak_in_flight: AtomicU64,
    peak_queued: AtomicU64,
}

/// The call counts [`PumpStats`] reports, kept by the pump itself when no
/// observability handle folds its events. Every pump event happens under
/// the state lock, so a count moves by a plain load and store; the cells
/// are atomics only so that `stats()` can read them without the lock.
#[derive(Default)]
struct OwnCounts {
    registered: AtomicU64,
    coalesced: AtomicU64,
    launched: AtomicU64,
    finished: AtomicU64,
}

impl OwnCounts {
    /// What an event of `kind` adds, as `wsq_obs` folds it into the
    /// `wsq_calls_*_total` cells `stats()` reads otherwise.
    fn fold(&self, kind: EventKind) {
        let bump =
            |cell: &AtomicU64| cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        match kind {
            EventKind::Registered => bump(&self.registered),
            EventKind::Coalesced => {
                bump(&self.registered);
                bump(&self.coalesced);
            }
            EventKind::Launched => bump(&self.launched),
            EventKind::Completed | EventKind::Failed => bump(&self.finished),
            _ => {}
        }
    }
}

impl Counters {
    fn new(obs: &Obs) -> Counters {
        Counters {
            own: (!obs.is_enabled()).then(OwnCounts::default),
            peak_in_flight: AtomicU64::new(0),
            peak_queued: AtomicU64::new(0),
        }
    }

    fn snapshot(&self, obs: &Obs) -> PumpStats {
        let get = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let (registered, launched, completed, coalesced) = match (&self.own, obs.metrics()) {
            (Some(own), _) => (
                get(&own.registered),
                get(&own.launched),
                get(&own.finished),
                get(&own.coalesced),
            ),
            (None, Some(m)) => {
                // What this thread's query recorded but has not published
                // yet counts.
                obs.publish();
                (
                    m.calls_registered.get(),
                    m.calls_launched.get(),
                    m.calls_completed.get() + m.calls_failed.get(),
                    m.calls_coalesced.get(),
                )
            }
            (None, None) => (0, 0, 0, 0),
        };
        PumpStats {
            registered,
            launched,
            completed,
            coalesced,
            peak_in_flight: get(&self.peak_in_flight),
            peak_queued: get(&self.peak_queued),
            batches: 0,
        }
    }
}

/// Raise a lifetime peak. Peaks move under the state lock and rarely
/// rise: look before writing.
fn raise(peak: &AtomicU64, v: u64) {
    if v > peak.load(Ordering::Relaxed) {
        peak.fetch_max(v, Ordering::Relaxed);
    }
}

/// What a delivering registration ([`ReqPump::register_delivered`],
/// [`ReqPump::register_race`]) came back with. Either way the
/// registrant's lease holds one reference to the call.
#[derive(Debug)]
pub enum Registered {
    /// The call is still pending: its result arrives through
    /// [`ReqPump::take_completed`] / [`ReqPump::wait_any`].
    Pending(CallId),
    /// The call finished during the registering step — its reply was
    /// instant, or the registration coalesced onto a call already done or
    /// found a kept result — and this is its result, taken for the
    /// registrant as [`ReqPump::take_completed`] would have taken it.
    Delivered(CallId, Result<SearchResult>),
}

/// What a registration found or made.
enum Found {
    /// A call the registrant now holds a reference to.
    Call(CallId),
    /// A kept result, under a fresh id that no one holds, and the request
    /// the registration gives back.
    Kept(CallId, SearchResult, SearchRequest),
}

/// Waiters to wake once the state lock is released, each with the call id
/// it is woken for.
type Woken = Vec<(CallId, Arc<Waiter>)>;

/// What a sleeping waiter is woken with.
#[derive(Debug, Clone, Copy)]
enum Wake {
    /// This call completed (its result is in the store, unless every
    /// registrant released it first).
    Done(CallId),
    /// The pump shut down; stop waiting.
    Shutdown,
}

/// One blocked `wait_any` caller. The waiter sleeps on its own condvar;
/// completion delivers the finished id directly into `slot`, so the woken
/// thread never re-scans its call set.
#[derive(Default)]
struct Waiter {
    slot: Mutex<Option<Wake>>,
    cv: Condvar,
}

impl Waiter {
    /// Deliver `wake` unless another completion got here first.
    fn wake(&self, wake: Wake) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(wake);
            self.cv.notify_one();
        }
    }

    fn sleep(&self) -> Wake {
        let mut slot = self.slot.lock();
        loop {
            if let Some(wake) = *slot {
                return wake;
            }
            self.cv.wait(&mut slot);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallState {
    Queued,
    InFlight,
    Done,
}

struct CallMeta {
    /// The request, shared with every launch of the call and the trace
    /// ring: registration wraps it once.
    req: Arc<SearchRequest>,
    /// The request's hash, if the call is the coalescing index's entry for
    /// it ([`State::index`]).
    key: Option<u64>,
    refs: usize,
    state: CallState,
    /// The call's slot in [`State::dests`]; `None` for a call that never
    /// launches (a racing group, a registration for an unknown engine).
    dest: Option<usize>,
    /// The registering step's clock reading (queue-delay anchor), kept
    /// only while observability is on.
    registered_at: Option<Tick>,
    /// The launch round's reading (call-latency anchor), likewise, until
    /// the call's delays are sampled ([`sample_delays`]).
    launched_at: Option<Tick>,
    /// The reading of the step that completed the call (or decided its
    /// race), likewise: whoever takes the result is told it
    /// ([`Step::taken`]).
    finished_at: Option<Tick>,
    /// When the reply arrived, kept only for a destination whose cache
    /// has a TTL.
    fetched: Option<Instant>,
}

impl CallMeta {
    /// A call finished at registration, which never launches: it failed
    /// fast, or it is a kept result given to a registrant that holds it.
    fn finished(req: Arc<SearchRequest>, stamp: Option<Tick>) -> CallMeta {
        CallMeta {
            req,
            key: None,
            refs: 1,
            state: CallState::Done,
            dest: None,
            registered_at: stamp,
            launched_at: None,
            finished_at: stamp,
            fetched: None,
        }
    }
}

/// Record a finished call's queue delay and latency, once: by the first
/// thread to take its result — a query's thread records them into that
/// query's recorder — or by whoever drops the call untaken.
fn sample_delays(obs: &Obs, meta: &mut CallMeta) {
    let (Some(launched), Some(finished)) = (meta.launched_at.take(), meta.finished_at) else {
        return;
    };
    if let Some(registered) = meta.registered_at {
        obs.observe(HistogramId::QueueDelay, launched.since(registered));
    }
    obs.observe(HistogramId::CallLatency, finished.since(launched));
}

/// One destination: what registration resolves an engine name to, once,
/// so that launching and completing a call hash no strings.
struct Dest {
    /// Per-destination in-flight cap.
    cap: usize,
    /// Calls in flight to this destination.
    active: usize,
    service: Arc<dyn SearchService>,
    /// The destination's result cache, if it keeps results.
    cache: Option<Cache>,
}

/// What a caching destination keeps track of beside its results, which
/// are in [`State::kept`]: their number, their order and its counts.
#[derive(Default)]
struct Cache {
    config: CacheConfig,
    /// The request hashes of its kept results by recency tick, oldest
    /// first; filled only under a `capacity`, the one thing that needs the
    /// order.
    lru: BTreeMap<u64, u64>,
    kept: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    expirations: u64,
}

/// A successful result a caching destination keeps after its call is
/// forgotten: no more than a hit needs to find, check and deliver it. The
/// request is the call's own, out of its `Arc` (no launch holds it by
/// then) and trimmed to its length, so a kept result costs a table slot
/// and its own bytes, as the memo's entry did.
struct Kept {
    req: SearchRequest,
    result: SearchResult,
    /// The destination's slot in [`State::dests`].
    dest: usize,
    /// Its recency tick, under a capacity.
    tick: u64,
    /// When its reply arrived, under a TTL.
    fetched: Option<Instant>,
}

/// A first-result-wins racing group (`WebCount_ANY`): one virtual call
/// id fronting N member registrations. The first member to complete
/// successfully decides the group; the losers' group references are
/// released through the ordinary cancellation path.
struct RaceGroup {
    /// Member call ids, in registration order.
    members: Vec<CallId>,
    /// Members that have not yet resolved (successes decide immediately;
    /// the group only fails once every member has failed).
    pending: usize,
    /// Whether a winner (or a collective failure) has been recorded.
    decided: bool,
}

#[derive(Default)]
struct State {
    next_call: u64,
    queue: VecDeque<CallId>,
    meta: IdMap<CallId, CallMeta>,
    /// `ReqPumpHash`: completed results keyed by call id.
    results: IdMap<CallId, Result<SearchResult>>,
    /// Coalescing index over calls that are still known to the pump, each
    /// under its request's hash ([`Shared::keys`]): a registration hashes
    /// its request once, and forgetting a call hashes nothing. A call
    /// whose hash another request already holds — a 64-bit collision — is
    /// left out, and so never coalesced onto.
    index: IdMap<u64, CallId>,
    /// Waiters blocked on each not-yet-completed call.
    interest: IdMap<CallId, Vec<Arc<Waiter>>>,
    /// Racing groups keyed by their virtual group call id.
    races: IdMap<CallId, RaceGroup>,
    /// Member call id → the undecided groups it runs for (one member can
    /// serve several groups when registrations coalesce).
    race_member: IdMap<CallId, Vec<CallId>>,
    active_total: usize,
    /// Registered destinations; a slot is never removed, so a call's
    /// [`CallMeta::dest`] stays valid for the call's life.
    dests: Vec<Dest>,
    /// Engine name → slot in `dests` (keyed by user text: default hasher).
    dest_index: HashMap<String, usize>,
    /// Launched calls whose declared latency has not elapsed yet, earliest
    /// deadline first.
    deadlines: BinaryHeap<Reverse<Pending>>,
    /// An empty launch-round buffer kept for the next round to fill.
    spare_launches: Vec<Launch>,
    /// The references each live [`Lease`] holds, one entry per reference
    /// (a call the query registered twice is listed twice).
    leases: IdMap<LeaseId, Vec<CallId>>,
    /// Emptied lease records kept for the next leases to fill.
    spare_leases: Vec<Vec<CallId>>,
    /// Kept results, under their request's hash; a key is here or in
    /// `index`, never in both, unless two requests share it.
    kept: IdMap<u64, Kept>,
    /// The recency clock of kept results.
    kept_tick: u64,
    shutdown: bool,
}

impl State {
    /// Take a call being forgotten out of the coalescing index.
    fn unindex(&mut self, meta: &CallMeta) {
        if let Some(key) = meta.key {
            self.index.remove(&key);
        }
    }
}

struct Shared {
    config: PumpConfig,
    state: Mutex<State>,
    /// Wakes the timer thread (earlier deadline / shutdown).
    work_cv: Condvar,
    stats: Counters,
    /// Hashes requests for the coalescing index (randomly keyed, as the
    /// default hasher is: requests are user text).
    keys: RandomState,
}

impl Shared {
    /// Record a lifecycle event of `call` as part of `step`. It is the
    /// pump's one record of the fact: its statistics are folded from it.
    #[inline]
    fn event(&self, step: &Step, call: CallId, kind: EventKind) {
        self.emit(step, [(call, kind, Label::None)]);
    }

    /// [`Shared::event`] for several events of `step`, labelled or not,
    /// recorded in one pass.
    #[inline]
    fn emit<const N: usize>(&self, step: &Step, events: [(CallId, EventKind, Label<'_>); N]) {
        match &self.stats.own {
            Some(own) => events.iter().for_each(|&(_, kind, _)| own.fold(kind)),
            None => self.config.obs.emit_labelled(step, events),
        }
    }

    /// Count a call failed at registration, whose events are unfolded
    /// (it never launches, so it leaves the in-flight gauge alone).
    fn count_failed_fast(&self) {
        match &self.stats.own {
            Some(own) => own.fold(EventKind::Failed),
            None => self.config.obs.count(CounterId::CallsFailed, 1),
        }
    }
}

/// One query's hold on the calls it registers under [`Lease::id`]
/// ([`ReqPump::register_delivered`], [`ReqPump::register_race`]), so that
/// no tuple, which a join may copy or drop, owns a reference. Dropping it
/// releases every reference the query still holds in one lock hold — a
/// lease whose id was never taken touches no lock. A call's result thus
/// stays in `ReqPumpHash` until its query ends, for every copy of a
/// pending tuple however late: a long query keeps one result per pending
/// call it made.
pub struct Lease {
    shared: Arc<Shared>,
    id: LeaseId,
    lent: AtomicBool,
}

/// The id a registration names its [`Lease`] by; the lease must outlive
/// the registrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaseId(u64);

impl Lease {
    /// The id to register under.
    pub fn id(&self) -> LeaseId {
        self.lent.store(true, Ordering::Relaxed);
        self.id
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if !*self.lent.get_mut() {
            return;
        }
        let step = Step::new();
        let mut st = self.shared.state.lock();
        let Some(mut held) = st.leases.remove(&self.id) else {
            return;
        };
        for call in held.drain(..) {
            release_locked(&self.shared, &mut st, call, &step);
        }
        st.spare_leases.push(held);
    }
}

/// The global asynchronous request manager. See the crate docs.
pub struct ReqPump {
    shared: Arc<Shared>,
    /// Joins the timer thread; taken by the first `shutdown`.
    timer: Mutex<Option<Joiner>>,
}

/// What joins the timer thread at shutdown.
type Joiner = Box<dyn FnOnce() + Send>;

/// Start the timer thread running `body`: a model thread inside a
/// `schedcheck::check` (the `schedcheck` feature), an OS thread otherwise.
fn spawn_timer(body: impl FnOnce() + Send + 'static) -> Joiner {
    #[cfg(feature = "schedcheck")]
    if schedcheck::active() {
        let thread = schedcheck::thread::spawn(body);
        // A thread unwinding out of an aborted run must not wait for the
        // checker's turn; the checker joins every thread when the run ends.
        return Box::new(move || {
            if !std::thread::panicking() {
                thread.join();
            }
        });
    }
    let thread = std::thread::Builder::new()
        .name("reqpump-loop".into())
        .spawn(body)
        .expect("spawn the reqpump timer");
    Box::new(move || {
        let _ = thread.join();
    })
}

impl ReqPump {
    /// Create a pump with the given configuration and no services; register
    /// engines with [`ReqPump::register_service`] before issuing calls.
    pub fn new(config: PumpConfig) -> Arc<Self> {
        let shared = Arc::new(Shared {
            stats: Counters::new(&config.obs),
            config: config.clone(),
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            keys: RandomState::new(),
        });
        let s = shared.clone();
        let timer = spawn_timer(move || event_loop(s));
        Arc::new(ReqPump {
            shared,
            timer: Mutex::new(Some(timer)),
        })
    }

    /// Convenience: a pump with default config and one service.
    pub fn with_service(name: &str, service: Arc<dyn SearchService>) -> Arc<Self> {
        let pump = Self::new(PumpConfig::default());
        pump.register_service(name, service);
        pump
    }

    /// Register (or replace) the service handling destination `name`,
    /// keeping no result after its release.
    pub fn register_service(&self, name: &str, service: Arc<dyn SearchService>) {
        self.register_service_with(name, service, None);
    }

    /// Register (or replace) the service handling destination `name`, with
    /// the result cache `cache`. Calls to `name` still queued launch
    /// against the replacement. A replacement starts a new cache: the
    /// results kept from the old service are forgotten, its calls in
    /// flight or held are never served to a later registration, and the
    /// counts start from zero.
    pub fn register_service_with(
        &self,
        name: &str,
        service: Arc<dyn SearchService>,
        cache: Option<CacheConfig>,
    ) {
        let mut guard = self.shared.state.lock();
        let st = &mut *guard;
        let dest = Dest {
            cap: dest_cap(&self.shared.config, name),
            active: 0,
            service,
            cache: cache.map(|config| Cache {
                config,
                ..Cache::default()
            }),
        };
        let Some(&slot) = st.dest_index.get(name) else {
            st.dest_index.insert(name.to_string(), st.dests.len());
            st.dests.push(dest);
            return;
        };
        let old = std::mem::replace(&mut st.dests[slot], dest);
        st.dests[slot].active = old.active;
        st.kept.retain(|_, kept| kept.dest != slot);
        let State { meta, index, .. } = st;
        let launched = meta
            .values_mut()
            .filter(|meta| meta.dest == Some(slot) && meta.state != CallState::Queued);
        for meta in launched {
            if let Some(key) = meta.key.take() {
                index.remove(&key);
            }
        }
    }

    /// Register an external call and return its id without waiting for
    /// its reply. A call that fits under the concurrency limits is sent
    /// before `register` returns — the service's `execute` runs on this
    /// thread, and a zero-latency reply is already stored when the id
    /// comes back; a call over the limits queues until a delivery frees
    /// capacity.
    ///
    /// An identical request already known to the pump returns the existing
    /// id with its reference count bumped (coalescing).
    ///
    /// # Example
    ///
    /// ```
    /// use std::sync::Arc;
    /// use wsq_pump::{
    ///     ReqPump, RequestKind, SearchRequest, SearchResult, SearchService, ServiceReply,
    /// };
    ///
    /// /// A toy engine: the "page count" is the expression's length.
    /// struct Len;
    /// impl SearchService for Len {
    ///     fn execute(&self, req: &SearchRequest) -> ServiceReply {
    ///         ServiceReply::instant(SearchResult::Count(req.expr.len() as u64))
    ///     }
    /// }
    ///
    /// let pump = ReqPump::with_service("AV", Arc::new(Len));
    /// let call = pump.register(SearchRequest {
    ///     engine: "AV".into(),
    ///     expr: "Colorado".into(),
    ///     kind: RequestKind::Count,
    /// })?;
    /// // `register` never waits out a reply's latency; `wait` does.
    /// assert_eq!(pump.wait(call)?.count(), Some(8));
    /// pump.release(call); // every registrant releases its reference
    /// # Ok::<(), wsq_common::WsqError>(())
    /// ```
    pub fn register(&self, req: SearchRequest) -> Result<CallId> {
        let step = Step::new();
        let mut st = self.shared.state.lock();
        let cid = self.register_held(&mut st, req, &step)?;
        launch_ready(&self.shared, st, &step, Vec::new(), None);
        Ok(cid)
    }

    /// A new [`Lease`] for one query's registrations. Takes no lock.
    pub fn lease(&self) -> Lease {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Lease {
            shared: self.shared.clone(),
            id: LeaseId(NEXT.fetch_add(1, Ordering::Relaxed)),
            lent: AtomicBool::new(false),
        }
    }

    /// [`ReqPump::register`] under `lease`, for a caller that can use a
    /// reply already in hand: a call that finishes during the registering
    /// step — an instant reply, or a registration that coalesced onto a
    /// finished call or found a kept result — comes back as
    /// [`Registered::Delivered`] with its result, taken in the lock hold
    /// that completed it. A pending call comes back as
    /// [`Registered::Pending`].
    ///
    /// `release` is a reference of `lease` the caller gives up (its
    /// previous delivered call), released in the same lock hold *after*
    /// the new request is matched for coalescing: a caller that keeps its
    /// last delivered call until its next registration lets an identical
    /// next request coalesce onto it instead of launching again.
    pub fn register_delivered(
        &self,
        lease: LeaseId,
        req: SearchRequest,
        release: Option<CallId>,
    ) -> Result<Registered> {
        self.deliver(lease, release, |pump, st, step| {
            Ok((pump.register_locked(st, req, step)?, Vec::new()))
        })
    }

    /// One delivering registration: `body` registers under the state lock
    /// as step `step`, and `lease` holds the registered call; `release` is
    /// then given back in the same hold — even if `body` failed — and the
    /// launch step watches the registered call. A kept result is delivered
    /// at once: there is no call to hold, launch or watch.
    fn deliver(
        &self,
        lease: LeaseId,
        release: Option<CallId>,
        body: impl FnOnce(&Self, &mut State, &Step) -> Result<(Found, Woken)>,
    ) -> Result<Registered> {
        let step = Step::new();
        let mut st = self.shared.state.lock();
        let registered = body(self, &mut st, &step);
        // The lease takes the new call and gives `release` back.
        let state = &mut *st;
        let spare = &mut state.spare_leases;
        let held = state.leases.entry(lease);
        let held = held.or_insert_with(|| spare.pop().unwrap_or_default());
        if let Ok((Found::Call(cid), _)) = &registered {
            held.push(*cid);
        }
        if let Some(at) = release.and_then(|call| held.iter().rposition(|&c| c == call)) {
            let call = held.swap_remove(at);
            release_locked(&self.shared, state, call, &step);
        }
        let (cid, woken) = match registered? {
            (Found::Call(cid), woken) => (cid, woken),
            (Found::Kept(cid, result, _), _) => return Ok(Registered::Delivered(cid, Ok(result))),
        };
        Ok(
            match launch_ready(&self.shared, st, &step, woken, Some(cid)) {
                Some(result) => Registered::Delivered(cid, result),
                None => Registered::Pending(cid),
            },
        )
    }

    /// Called by no product code: `wsqbench` names it; goes with ROADMAP
    /// 1(d).
    ///
    /// Register a whole burst of requests under **one** state-lock
    /// acquisition, launching once at the end. Semantically
    /// identical to calling [`ReqPump::register`] once per request (same
    /// coalescing, same fail-fast on unknown engines, same ids).
    ///
    /// Fails atomically only on shutdown: requests registered before the
    /// shutdown flag was observed keep their ids (the caller must release
    /// any ids it obtained if it aborts).
    pub fn register_batch(&self, reqs: Vec<SearchRequest>) -> Result<Vec<CallId>> {
        let step = Step::new();
        let mut st = self.shared.state.lock();
        let mut ids = Vec::with_capacity(reqs.len());
        for req in reqs {
            ids.push(self.register_held(&mut st, req, &step)?);
        }
        launch_ready(&self.shared, st, &step, Vec::new(), None);
        Ok(ids)
    }

    /// Register a first-result-wins **racing group**: every request in
    /// `reqs` is registered (coalescing as usual), and the returned id is
    /// a virtual *group* call that completes as soon as any member
    /// succeeds. Losing members are cancelled through the ordinary
    /// release path — still-queued losers never launch, in-flight losers
    /// are orphaned at delivery. The group only fails once **every**
    /// member has failed (with the last member's error).
    ///
    /// The group id behaves like any other call for [`ReqPump::wait`],
    /// [`ReqPump::wait_any`] and [`ReqPump::take_completed`], and `lease`
    /// holds it; releasing an undecided group — dropping the lease —
    /// cancels all members the group still holds references to. A group
    /// decided during the registering step — by members already done or
    /// replying at once — comes back [`Registered::Delivered`] with the
    /// winner's result (or the group's failure), and `release` is given up
    /// as in [`ReqPump::register_delivered`]. A single-request race
    /// degenerates to [`ReqPump::register_delivered`]; an empty one errors.
    pub fn register_race(
        &self,
        lease: LeaseId,
        mut reqs: Vec<SearchRequest>,
        release: Option<CallId>,
    ) -> Result<Registered> {
        if reqs.len() == 1 {
            return self.register_delivered(lease, reqs.swap_remove(0), release);
        }
        self.deliver(lease, release, |pump, st, step| {
            let (gid, woken) = pump.race_locked(st, reqs, step)?;
            Ok((Found::Call(gid), woken))
        })
    }

    /// The racing-group registration body, run under the already-held state
    /// lock as part of `step`. Returns the group id and the waiters of
    /// groups that members already complete decided here, for the caller
    /// to wake once the lock is released.
    fn race_locked(
        &self,
        st: &mut State,
        reqs: Vec<SearchRequest>,
        step: &Step,
    ) -> Result<(CallId, Woken)> {
        if reqs.is_empty() {
            return Err(WsqError::Exec(
                "register_race on empty request set".to_string(),
            ));
        }
        if st.shutdown {
            return Err(WsqError::PumpShutdown);
        }
        // The group gets a real meta entry (so `live_calls` counts it
        // and `wait_any`'s unknown-call guard accepts it) under a
        // synthesized request that can never enter the coalescing
        // index; it is never queued or launched.
        let synth = Arc::new(SearchRequest {
            engine: format!(
                "race({})",
                reqs.iter()
                    .map(|r| r.engine.as_str())
                    .collect::<Vec<_>>()
                    .join("|")
            ),
            expr: reqs[0].expr.clone(),
            kind: reqs[0].kind.clone(),
        });
        let obs = &self.shared.config.obs;
        let mut members = Vec::with_capacity(reqs.len());
        for req in reqs {
            members.push(self.register_held(st, req, step)?);
        }
        let gid = CallId(st.next_call);
        st.next_call += 1;
        // A group is not a registration of its own: its events count
        // nothing (its members' do).
        obs.unfolded(step, gid, EventKind::Registered, Label::Parts(&*synth));
        st.meta.insert(
            gid,
            CallMeta {
                req: synth,
                key: None,
                refs: 1,
                state: CallState::InFlight,
                dest: None,
                registered_at: obs.stamp(step),
                launched_at: None,
                finished_at: None,
                fetched: None,
            },
        );
        st.races.insert(
            gid,
            RaceGroup {
                members: members.clone(),
                pending: members.len(),
                decided: false,
            },
        );
        for &m in &members {
            st.race_member.entry(m).or_default().push(gid);
        }
        // Members that are already complete (coalesced onto finished
        // calls, or fail-fast unknown engines) decide the group now.
        let mut woken = Vec::new();
        for &m in &members {
            if st.races.get(&gid).is_none_or(|g| g.decided) {
                break;
            }
            if let Some(r) = st.results.get(&m).cloned() {
                woken.extend(race_resolve(&self.shared, st, m, &r, step));
            }
        }
        Ok((gid, woken))
    }

    /// [`ReqPump::register_locked`] for a registrant that holds what it
    /// registers: a kept result becomes a finished call of its own, which
    /// the pump forgets when it is released.
    fn register_held(&self, st: &mut State, req: SearchRequest, step: &Step) -> Result<CallId> {
        let (cid, result, req) = match self.register_locked(st, req, step)? {
            Found::Call(cid) => return Ok(cid),
            Found::Kept(cid, result, req) => (cid, result, req),
        };
        let stamp = self.shared.config.obs.stamp(step);
        st.meta
            .insert(cid, CallMeta::finished(Arc::new(req), stamp));
        st.results.insert(cid, Ok(result));
        Ok(cid)
    }

    /// The registration body, run under the already-held state lock as
    /// part of `step` (a burst registered under one lock acquisition is one
    /// step). Launches nothing — callers hand the lock to [`launch_ready`]
    /// once at the end.
    fn register_locked(&self, st: &mut State, req: SearchRequest, step: &Step) -> Result<Found> {
        if st.shutdown {
            return Err(WsqError::PumpShutdown);
        }
        let shared = &*self.shared;
        let obs = &shared.config.obs;
        let key = shared.keys.hash_one(&req);
        if let Some(&cid) = st.index.get(&key) {
            // The index and meta maps are kept in step under the state
            // lock; if the entry is somehow gone, or holds another request
            // under the same hash, fall through and register a fresh call.
            if let Some(meta) = st.meta.get_mut(&cid).filter(|meta| *meta.req == req) {
                meta.refs += 1;
                shared.event(step, cid, EventKind::Coalesced);
                return Ok(Found::Call(cid));
            }
        } else if let Some((cid, result)) = hit_locked(shared, st, key, &req, step) {
            return Ok(Found::Kept(cid, result, req));
        }
        let cid = CallId(st.next_call);
        st.next_call += 1;
        let req = Arc::new(req);
        let registered = (cid, EventKind::Registered, Label::Parts(&*req));

        // Fail fast on unknown destinations: complete with an error. The
        // call id is brand new, so no waiter can be interested yet.
        let Some(&dest) = st.dest_index.get(&req.engine) else {
            shared.emit(step, [registered]);
            let err = WsqError::Search(format!("unknown engine '{}'", req.engine));
            obs.unfolded(step, cid, EventKind::Failed, Label::Display(&err));
            shared.count_failed_fast();
            st.meta
                .insert(cid, CallMeta::finished(req, obs.stamp(step)));
            st.results.insert(cid, Err(err));
            return Ok(Found::Call(cid));
        };

        shared.emit(step, [registered, (cid, EventKind::Queued, Label::None)]);
        let key = match st.index.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(cid);
                Some(key)
            }
            Entry::Occupied(_) => None,
        };
        st.meta.insert(
            cid,
            CallMeta {
                req,
                key,
                refs: 1,
                state: CallState::Queued,
                dest: Some(dest),
                registered_at: obs.stamp(step),
                launched_at: None,
                finished_at: None,
                fetched: None,
            },
        );
        st.queue.push_back(cid);
        raise(&shared.stats.peak_queued, st.queue.len() as u64);
        Ok(Found::Call(cid))
    }

    /// Non-blocking bulk drain: the results of every call in `calls` that
    /// has completed, gathered under a single lock acquisition. Results
    /// stay in the store until released.
    ///
    /// This is the batched path `ReqSync` uses to absorb a burst of
    /// completions: one lock round for the whole burst.
    pub fn take_completed(&self, calls: &[CallId]) -> Vec<(CallId, Result<SearchResult>)> {
        let mut st = self.shared.state.lock();
        calls
            .iter()
            .filter_map(|&c| Some((c, take_locked(&self.shared, &mut st, c)?)))
            .collect()
    }

    /// Block until any of `calls` completes; returns the first one found.
    ///
    /// This is the signal `ReqSync` blocks on in its `get_next` when no
    /// completed tuple is available. The sleeping thread is woken only by
    /// a completion of one of `calls` (or shutdown), and the wakeup
    /// carries the completed id — no rescan of the call set on wake.
    ///
    /// # Backpressure interplay
    ///
    /// A capped `ReqSync` (DESIGN.md §11) alternates `take_completed`
    /// drains with `wait_any` while stalled. That drain-then-sleep shape
    /// is race-free because interest is registered *under the same state
    /// lock* that re-checks `results`: a completion landing between the
    /// drain and this call is found by the fast path at the top, and one
    /// landing after registration fires the waiter. There is no window
    /// in which a completion can slip past both — the `stall_resume`
    /// scenarios of `tests/schedcheck.rs` explore the interleavings of
    /// this handshake on the real pump.
    pub fn wait_any(&self, calls: &[CallId]) -> Result<CallId> {
        if calls.is_empty() {
            return Err(WsqError::Exec("wait_any on empty call set".to_string()));
        }
        let waiter = {
            let mut st = self.shared.state.lock();
            if let Some(&done) = calls.iter().find(|c| st.results.contains_key(c)) {
                return Ok(done);
            }
            if st.shutdown {
                return Err(WsqError::PumpShutdown);
            }
            // Guard against waiting on ids the pump will never complete.
            if let Some(&unknown) = calls.iter().find(|c| !st.meta.contains_key(c)) {
                return Err(WsqError::Exec(format!(
                    "wait_any on unknown call {unknown}"
                )));
            }
            let waiter = Arc::new(Waiter::default());
            for &c in calls {
                st.interest.entry(c).or_default().push(waiter.clone());
            }
            waiter
        };
        // Publish before blocking: while this thread sleeps, what it
        // recorded is visible, and nothing it recorded can follow another
        // thread's later events for the same calls.
        self.shared.config.obs.publish();
        let wake = waiter.sleep();
        // Deregister from the calls that did not fire.
        {
            let mut st = self.shared.state.lock();
            for &c in calls {
                if let Some(list) = st.interest.get_mut(&c) {
                    list.retain(|w| !Arc::ptr_eq(w, &waiter));
                    if list.is_empty() {
                        st.interest.remove(&c);
                    }
                }
            }
        }
        match wake {
            Wake::Done(cid) => Ok(cid),
            Wake::Shutdown => Err(WsqError::PumpShutdown),
        }
    }

    /// Block until `call` completes and return (a clone of) its result.
    pub fn wait(&self, call: CallId) -> Result<SearchResult> {
        let done = self.wait_any(std::slice::from_ref(&call))?;
        let result = take_locked(&self.shared, &mut self.shared.state.lock(), done);
        result.unwrap_or_else(|| {
            Err(WsqError::Exec(format!(
                "call {call} completed but its result was released"
            )))
        })
    }

    /// Release one reference to `call`. When the last reference is
    /// released, the stored result is dropped — or kept, if the call's
    /// destination caches and the call succeeded; a still-queued call with
    /// no references is cancelled outright. A call released while *in
    /// flight* is cleaned up (or kept) when its reply arrives (the delivery
    /// event must still fire to free per-destination capacity), so
    /// [`ReqPump::live_calls`] may transiently count it.
    pub fn release(&self, call: CallId) {
        let mut st = self.shared.state.lock();
        release_locked(&self.shared, &mut st, call, &Step::new());
    }

    /// Number of calls the pump still knows about, kept results aside:
    /// calls a registrant holds, or that are queued or in flight (for leak
    /// tests).
    pub fn live_calls(&self) -> usize {
        self.shared.state.lock().meta.len()
    }

    /// The counters of every destination that caches its results, by
    /// destination name.
    pub fn cache_stats(&self) -> HashMap<String, CacheStats> {
        let st = self.shared.state.lock();
        st.dest_index
            .iter()
            .filter_map(|(name, &slot)| {
                let dest = &st.dests[slot];
                let cache = dest.cache.as_ref()?;
                let stats = CacheStats {
                    hits: cache.hits,
                    misses: cache.misses,
                    coalesced: 0,
                    evictions: cache.evictions,
                    expirations: cache.expirations,
                    inflight: dest.active as u64,
                };
                Some((name.clone(), stats))
            })
            .collect()
    }

    /// Forget every kept result (the paper's two-hour wait between runs,
    /// in one call); the counts stay. Calls held or in flight are kept as
    /// usual once released.
    pub fn clear_cache(&self) {
        let mut st = self.shared.state.lock();
        st.kept.clear();
        for cache in st.dests.iter_mut().filter_map(|d| d.cache.as_mut()) {
            cache.lru.clear();
            cache.kept = 0;
        }
    }

    /// Snapshot of statistics. Reads atomics only — never blocks on the
    /// pump state lock.
    pub fn stats(&self) -> PumpStats {
        self.shared.stats.snapshot(&self.shared.config.obs)
    }

    /// The observability handle this pump was configured with
    /// ([`Obs::disabled`] unless one was supplied via [`PumpConfig`]).
    /// Engine operators clone this to emit delivery/patch events into the
    /// same trace and metrics as the pump's own lifecycle events.
    pub fn obs(&self) -> &Obs {
        &self.shared.config.obs
    }

    /// Stop the pump and join its timer thread. Registration fails from
    /// now on, and outstanding `wait` calls return
    /// [`WsqError::PumpShutdown`]. A parked call — launched, its reply
    /// waiting out its latency — fails with `PumpShutdown` in the same lock
    /// hold: a released one is forgotten, a held one keeps the error until
    /// it is released. A queued call never launches, and stays until its
    /// registrant releases it.
    pub fn shutdown(&self) {
        let step = Step::new();
        let mut woken = Vec::new();
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            for Reverse(parked) in std::mem::take(&mut st.deadlines) {
                let failed = Err(WsqError::PumpShutdown);
                complete_locked(&self.shared, &mut st, parked.cid, failed, &step, &mut woken);
            }
            let waiting = st.interest.drain();
            woken.extend(waiting.flat_map(|(cid, ws)| ws.into_iter().map(move |w| (cid, w))));
        }
        self.shared.config.obs.publish();
        for (_, w) in woken {
            w.wake(Wake::Shutdown);
        }
        self.shared.work_cv.notify_all();
        // Take the joiner out under the lock and join with the guard
        // released, so that a second `shutdown()` racing this one returns.
        let timer = self.timer.lock().take();
        if let Some(join) = timer {
            parking_lot::assert_no_guard_held();
            join();
        }
    }
}

impl Drop for ReqPump {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A copy of `call`'s result if it has completed, sampling its delays on
/// the first take and telling the taking thread when it completed. Runs
/// under the already-held state lock.
fn take_locked(shared: &Shared, st: &mut State, call: CallId) -> Option<Result<SearchResult>> {
    let result = st.results.get(&call)?.clone();
    if let Some(meta) = st.meta.get_mut(&call) {
        if let Some(finished) = meta.finished_at {
            Step::taken(finished);
        }
        sample_delays(&shared.config.obs, meta);
    }
    Some(result)
}

/// The release body, run under the already-held state lock. Shared by
/// [`ReqPump::release`] and the racing paths (deciding a group releases
/// its reference on every member; releasing an undecided group releases
/// all member references), which must release under the lock they
/// already hold.
fn release_locked(shared: &Shared, st: &mut State, call: CallId, step: &Step) {
    let (refs, cstate) = {
        let Some(meta) = st.meta.get_mut(&call) else {
            return;
        };
        meta.refs = meta.refs.saturating_sub(1);
        (meta.refs, meta.state)
    };
    if refs > 0 {
        return;
    }
    // Racing groups are virtual calls: never queued, never in the
    // coalescing index, never launched — handle them before the generic
    // per-state cleanup so it never sees one.
    if let Some(group) = st.races.remove(&call) {
        st.meta.remove(&call);
        st.results.remove(&call);
        if !group.decided {
            // Cursor dropped mid-race: cancel every member the group
            // still holds a reference to.
            for &m in &group.members {
                if let Some(gids) = st.race_member.get_mut(&m) {
                    gids.retain(|g| *g != call);
                    if gids.is_empty() {
                        st.race_member.remove(&m);
                    }
                }
                release_locked(shared, st, m, step);
            }
        }
        return;
    }
    match cstate {
        CallState::Queued => {
            // Cancel before launch.
            st.queue.retain(|&c| c != call);
            if let Some(meta) = st.meta.remove(&call) {
                st.unindex(&meta);
            }
            shared.event(step, call, EventKind::Cancelled);
        }
        CallState::Done => retire(shared, st, call, None),
        CallState::InFlight => {
            // Completion handling will notice refs == 0 and clean up.
        }
    }
}

/// The last reference to finished `call` is gone: forget it — its entry,
/// index slot and result, sampling its delays if no one took its result —
/// and keep its result, `result` for a call that completed unheld, if it
/// succeeded and its destination caches. Keeping one more result over the
/// cache's capacity forgets the one used longest ago.
fn retire(shared: &Shared, st: &mut State, call: CallId, result: Option<Result<SearchResult>>) {
    let stored = st.results.remove(&call);
    let Some(mut meta) = st.meta.remove(&call) else {
        return;
    };
    sample_delays(&shared.config.obs, &mut meta);
    st.unindex(&meta);
    let State {
        kept,
        dests,
        kept_tick,
        ..
    } = st;
    let (Some(key), Some(slot), Some(Ok(result))) = (meta.key, meta.dest, result.or(stored)) else {
        return;
    };
    let Some(cache) = dests[slot].cache.as_mut() else {
        return;
    };
    *kept_tick += 1;
    let mut req = Arc::unwrap_or_clone(meta.req);
    req.expr.shrink_to_fit();
    req.engine.shrink_to_fit();
    let fresh = Kept {
        req,
        result,
        dest: slot,
        tick: *kept_tick,
        fetched: meta.fetched,
    };
    cache.kept += 1;
    if cache.config.capacity.is_some() {
        cache.lru.insert(fresh.tick, key);
    }
    // Another request under the same hash (a 64-bit collision) gives way.
    if let Some(old) = kept.insert(key, fresh) {
        unkeep(dests, &old);
    }
    let Some(cache) = dests[slot].cache.as_mut() else {
        return;
    };
    if cache
        .config
        .capacity
        .is_some_and(|capacity| cache.kept > capacity)
    {
        if let Some((_, victim)) = cache.lru.pop_first() {
            cache.kept -= 1;
            cache.evictions += 1;
            kept.remove(&victim);
        }
    }
}

/// Take `old`, no longer in [`State::kept`], off its cache's count and
/// order.
fn unkeep(dests: &mut [Dest], old: &Kept) {
    if let Some(cache) = dests[old.dest].cache.as_mut() {
        cache.kept -= 1;
        cache.lru.remove(&old.tick);
    }
}

/// A registration of `req`, whose hash is `key`, that finds its kept
/// result: a hit, counted and recorded under a fresh call id, returned
/// with a copy of the result. A result past its TTL is forgotten instead,
/// and `None` sends the registration on to start a new call.
fn hit_locked(
    shared: &Shared,
    st: &mut State,
    key: u64,
    req: &SearchRequest,
    step: &Step,
) -> Option<(CallId, SearchResult)> {
    let State {
        kept,
        dests,
        kept_tick,
        next_call,
        ..
    } = st;
    let Entry::Occupied(mut entry) = kept.entry(key) else {
        return None;
    };
    let hit = entry.get_mut();
    let cache = dests[hit.dest].cache.as_mut()?;
    if hit.req != *req {
        return None;
    }
    if let (Some(ttl), Some(at)) = (cache.config.ttl, hit.fetched) {
        if step.now().duration_since(at) >= ttl {
            cache.expirations += 1;
            unkeep(dests, &entry.remove());
            return None;
        }
    }
    cache.hits += 1;
    if cache.config.capacity.is_some() {
        cache.lru.remove(&hit.tick);
        *kept_tick += 1;
        hit.tick = *kept_tick;
        cache.lru.insert(hit.tick, key);
    }
    let cid = CallId(*next_call);
    *next_call += 1;
    let label = Label::Parts(&hit.req);
    shared.emit(step, [(cid, EventKind::Registered, label)]);
    shared.config.obs.count(CounterId::CacheHits, 1);
    Some((cid, hit.result.clone()))
}

/// Propagate a member call's result to every undecided racing group it
/// runs for, under the already-held state lock. A success decides the
/// group immediately (first result wins); a failure only decides it once
/// every member has failed. Deciding a group releases the group's
/// reference on every member — cancelling still-queued losers outright —
/// and returns the group's interest waiters for the caller to wake
/// outside the lock.
fn race_resolve(
    shared: &Shared,
    st: &mut State,
    member: CallId,
    result: &Result<SearchResult>,
    step: &Step,
) -> Vec<(CallId, Arc<Waiter>)> {
    let Some(gids) = st.race_member.get(&member).cloned() else {
        return Vec::new();
    };
    let obs = &shared.config.obs;
    let mut woken = Vec::new();
    for gid in gids {
        let members = {
            let Some(group) = st.races.get_mut(&gid) else {
                continue;
            };
            if group.decided {
                continue;
            }
            match result {
                Ok(_) => {
                    group.decided = true;
                    group.members.clone()
                }
                Err(_) => {
                    group.pending = group.pending.saturating_sub(1);
                    if group.pending == 0 {
                        group.decided = true;
                        group.members.clone()
                    } else {
                        continue;
                    }
                }
            }
        };
        if let Some(meta) = st.meta.get_mut(&gid) {
            meta.state = CallState::Done;
            meta.finished_at = obs.stamp(step);
        }
        match result {
            Ok(_) => {
                st.results.insert(gid, result.clone());
                shared.event(step, gid, EventKind::RaceWon);
            }
            Err(e) => {
                st.results.insert(gid, Err(e.clone()));
                // The group never launched: its failure counts nothing
                // (each member's did).
                obs.unfolded(step, gid, EventKind::Failed, Label::Display(e));
            }
        }
        for &m in &members {
            if let Some(list) = st.race_member.get_mut(&m) {
                list.retain(|g| *g != gid);
                if list.is_empty() {
                    st.race_member.remove(&m);
                }
            }
            // Losers are only "cancelled" on a win; a collective failure
            // has no winner to lose to.
            if m != member && result.is_ok() {
                shared.event(step, m, EventKind::RaceCancelled);
            }
            release_locked(shared, st, m, step);
        }
        for w in st.interest.remove(&gid).unwrap_or_default() {
            woken.push((gid, w));
        }
    }
    woken
}

/// Per-destination cap lookup.
fn dest_cap(config: &PumpConfig, dest: &str) -> usize {
    config
        .per_destination
        .get(dest)
        .copied()
        .unwrap_or(config.default_per_destination)
}

/// A call taken off the queue, with the request and the service to hand
/// it to, and — once `execute` returned — the service's reply.
struct Launch {
    cid: CallId,
    req: Arc<SearchRequest>,
    service: Arc<dyn SearchService>,
    reply: Option<ServiceReply>,
}

/// Take the first queued call that can launch under current limits, as
/// part of launch round `step`. Scanning past the head avoids head-of-line
/// blocking when one destination is saturated but another has capacity.
fn pop_launchable(st: &mut State, shared: &Shared, step: &Step) -> Option<Launch> {
    let obs = &shared.config.obs;
    if st.active_total >= shared.config.max_concurrent {
        return None;
    }
    // Only calls with a destination are ever queued.
    let has_room = |cid: &CallId| {
        let dest = st.meta.get(cid).and_then(|meta| meta.dest);
        dest.is_some_and(|d| st.dests[d].active < st.dests[d].cap)
    };
    let pos = st.queue.iter().position(has_room)?;
    let cid = st.queue.remove(pos)?;
    let meta = st.meta.get_mut(&cid)?;
    let dest = &mut st.dests[meta.dest?];
    meta.state = CallState::InFlight;
    meta.launched_at = obs.stamp(step);
    dest.active += 1;
    if let Some(cache) = &mut dest.cache {
        cache.misses += 1;
        obs.count(CounterId::CacheMisses, 1);
    }
    st.active_total += 1;
    raise(&shared.stats.peak_in_flight, st.active_total as u64);
    shared.event(step, cid, EventKind::Launched);
    Some(Launch {
        cid,
        req: meta.req.clone(),
        service: dest.service.clone(),
        reply: None,
    })
}

/// Mark a call complete as part of `step`, under the already-held state
/// lock: store its result, free its capacity, and add exactly the waiters
/// interested in it to `woken`, for the caller to wake once it releases
/// the lock. The capacity it frees may admit a queued call: the caller
/// re-runs the launch step before it returns, in the same hold
/// (`launch_ready`, `event_loop`) — except `shutdown`, after which nothing
/// launches.
fn complete_locked(
    shared: &Shared,
    st: &mut State,
    cid: CallId,
    result: Result<SearchResult>,
    step: &Step,
    woken: &mut Woken,
) {
    let obs = &shared.config.obs;
    st.active_total = st.active_total.saturating_sub(1);
    let orphaned = match st.meta.get_mut(&cid) {
        Some(meta) => {
            meta.state = CallState::Done;
            meta.finished_at = obs.stamp(step);
            if let Some(dest) = meta.dest.map(|d| &mut st.dests[d]) {
                dest.active = dest.active.saturating_sub(1);
                if dest.cache.as_ref().is_some_and(|c| c.config.ttl.is_some()) {
                    meta.fetched = Some(step.now());
                }
            }
            // A failure is never served to a later registration, nor kept.
            if let (Err(_), Some(key)) = (&result, meta.key) {
                meta.key = None;
                st.index.remove(&key);
            }
            Some(meta.refs == 0)
        }
        None => None,
    };
    match &result {
        Ok(_) => shared.event(step, cid, EventKind::Completed),
        Err(e) => shared.emit(step, [(cid, EventKind::Failed, Label::Display(e))]),
    }
    // Racing: this member's result may decide groups it runs for (an
    // orphaned member has no race entries — groups hold a reference, so a
    // raced member can't be orphaned while any of its groups is
    // undecided). The store takes the result first: deciding a group
    // releases its members.
    let raced = st.race_member.contains_key(&cid).then(|| result.clone());
    match orphaned {
        Some(false) => {
            st.results.insert(cid, result);
        }
        // Every registrant released before completion.
        Some(true) => retire(shared, st, cid, Some(result)),
        None => {}
    }
    if let Some(result) = raced {
        woken.extend(race_resolve(shared, st, cid, &result, step));
    }
    if let Some(waiters) = st.interest.remove(&cid) {
        woken.extend(waiters.into_iter().map(|w| (cid, w)));
    }
}

/// Wake `woken`, outside the state lock. A woken thread records the
/// delivery, so what this thread recorded — the completion — goes first.
fn wake(shared: &Shared, woken: Woken) {
    if woken.is_empty() {
        return;
    }
    shared.config.obs.publish();
    for (cid, w) in woken {
        w.wake(Wake::Done(cid));
    }
}

/// Deadline-heap entry: a launched call's reply, held until `deadline`.
struct Pending {
    deadline: Instant,
    cid: CallId,
    result: Result<SearchResult>,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.cid == other.cid
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deadline
            .cmp(&other.deadline)
            .then(self.cid.cmp(&other.cid))
    }
}

/// The failure a call completes with when its service panicked.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> WsqError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    WsqError::Search(format!("service panicked: {msg}"))
}

/// An instant failure reply.
fn failed(err: WsqError) -> ServiceReply {
    ServiceReply {
        result: Err(err),
        latency: Duration::ZERO,
    }
}

/// Run one launched call's `execute`, outside every pump lock. A panic in
/// the service becomes the call's failure instead of unwinding the
/// launching thread with the call stuck in flight.
fn execute_one(launch: &Launch) -> ServiceReply {
    parking_lot::assert_no_guard_held();
    // `call_scope` lets decorators (retry/flaky/cache) deep in the execute
    // stack attribute their trace events to the call.
    catch_unwind(AssertUnwindSafe(|| {
        wsq_obs::call_scope(launch.cid, || launch.service.execute(&launch.req))
    }))
    .unwrap_or_else(|payload| failed(panic_error(payload)))
}

/// Publish this thread's records before the state lock is released with
/// calls still queued: the timer or another registrant may launch them,
/// and its events must follow their registration in the ring.
fn publish_if_queued(shared: &Shared, st: &State) {
    if !st.queue.is_empty() {
        shared.config.obs.publish();
    }
}

/// The launch step, run by whichever thread queued work or freed
/// capacity, under the state lock `st` that thread holds: pop
/// everything launchable, `execute` it outside the lock, then take the
/// lock once to park the timed replies on the deadline heap for the timer
/// thread and complete the instant ones here. Completing frees capacity,
/// so that same hold pops the next round. The step ends when a round
/// launches nothing — in the hold that completed the last round, so a step
/// whose replies leave nothing queued never re-locks to look — or when a
/// round completes nothing.
///
/// The first round launches in the caller's hold — a registration's, so
/// no other thread can launch the calls it just registered — and is
/// stamped with the caller's step `step`. `woken` (what the caller's hold
/// owes) and the waiters of what the step completes are woken whenever the
/// step releases the lock.
///
/// With `watch` set, returns that call's result, taken in the hold in
/// which it is done — this one, or the hold that completed it — if it
/// finished during the step (see [`ReqPump::register_delivered`]).
fn launch_ready<'a>(
    shared: &'a Shared,
    mut st: MutexGuard<'a, State>,
    step: &Step,
    mut woken: Woken,
    mut watch: Option<CallId>,
) -> Option<Result<SearchResult>> {
    let mut taken = None;
    let mut later: Option<Step> = None;
    loop {
        // One clock reading per launch round: it stamps the round's
        // `Launched` events and the completions of its instant replies, and
        // a reply is due its declared latency after it, however long the
        // round's other `execute` calls take. (With observability off it is
        // first read for the first reply that declares latency.)
        let round = later.as_ref().unwrap_or(step);
        if let Some(call) = watch {
            taken = take_locked(shared, &mut st, call);
            if taken.is_some() {
                watch = None;
            }
        }
        if st.shutdown {
            drop(st);
            wake(shared, woken);
            return taken;
        }
        // The round's buffer is the state's spare one, handed back in the
        // completion hold: a steady stream of rounds allocates none.
        let mut launches = std::mem::take(&mut st.spare_launches);
        while let Some(launch) = pop_launchable(&mut st, shared, round) {
            launches.push(launch);
        }
        publish_if_queued(shared, &st);
        if launches.is_empty() {
            st.spare_launches = launches;
            drop(st);
            wake(shared, woken);
            return taken;
        }
        drop(st);
        wake(shared, std::mem::take(&mut woken));
        let mut parks = false;
        for launch in &mut launches {
            let reply = execute_one(launch);
            parks |= !reply.latency.is_zero();
            launch.reply = Some(reply);
        }
        if parks {
            // The timer thread completes these: their launches go first.
            shared.config.obs.publish();
        }
        st = shared.state.lock();
        let earliest = st.deadlines.peek().map(|p| p.0.deadline);
        let mut completed = false;
        for Launch { cid, reply, .. } in launches.drain(..) {
            let Some(reply) = reply else { continue };
            let instant = reply.latency.is_zero();
            if instant || st.shutdown {
                // After a shutdown no timer is left to deliver a timed reply.
                let result = if instant {
                    reply.result
                } else {
                    Err(WsqError::PumpShutdown)
                };
                complete_locked(shared, &mut st, cid, result, round, &mut woken);
                completed = true;
            } else {
                st.deadlines.push(Reverse(Pending {
                    deadline: round.now() + reply.latency,
                    cid,
                    result: reply.result,
                }));
            }
        }
        st.spare_launches = launches;
        // The timer sleeps until the earliest deadline it saw; wake it only
        // when that moved.
        if parks && st.deadlines.peek().map(|p| p.0.deadline) != earliest {
            shared.work_cv.notify_all();
        }
        if !completed {
            return taken; // nothing completed here, so no capacity was freed
        }
        later = Some(Step::new());
    }
}

/// The event-loop timer thread: sleep until the earliest deadline, then in
/// one lock hold deliver what is due and run the launch step for whatever
/// the freed capacity admits.
fn event_loop(shared: Arc<Shared>) {
    loop {
        let mut due: Vec<Pending> = Vec::new();
        let mut st = shared.state.lock();
        loop {
            if st.shutdown {
                return;
            }
            let now = Instant::now();
            while st.deadlines.peek().is_some_and(|p| p.0.deadline <= now) {
                due.extend(st.deadlines.pop().map(|p| p.0));
            }
            if !due.is_empty() {
                break;
            }
            match st.deadlines.peek().map(|p| p.0.deadline) {
                Some(deadline) => {
                    let _ = shared.work_cv.wait_until(&mut st, deadline);
                }
                None => shared.work_cv.wait(&mut st),
            }
        }
        let step = Step::new();
        let mut woken = Vec::new();
        for p in due {
            complete_locked(&shared, &mut st, p.cid, p.result, &step, &mut woken);
        }
        launch_ready(&shared, st, &step, woken, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::RequestKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Test service: count = expr length; observes concurrency.
    struct Probe {
        latency: Duration,
        current: AtomicUsize,
        peak: AtomicUsize,
    }

    impl Probe {
        fn new(latency: Duration) -> Arc<Self> {
            Arc::new(Probe {
                latency,
                current: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            })
        }
    }

    impl SearchService for Probe {
        fn execute(&self, req: &SearchRequest) -> ServiceReply {
            // This observes *compute* concurrency (threads inside `execute`
            // at once, each holding an in-flight slot); the pump's own stats
            // observe in-flight concurrency.
            let cur = self.current.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(cur, Ordering::SeqCst);
            self.current.fetch_sub(1, Ordering::SeqCst);
            ServiceReply {
                result: Ok(SearchResult::Count(req.expr.len() as u64)),
                latency: self.latency,
            }
        }
    }

    impl Registered {
        /// The registered call (or racing group), delivered or not.
        fn call(&self) -> CallId {
            match self {
                Registered::Pending(call) | Registered::Delivered(call, _) => *call,
            }
        }
    }

    impl ReqPump {
        /// Non-blocking: the result of `call` if it has completed.
        fn peek(&self, call: CallId) -> Option<Result<SearchResult>> {
            take_locked(&self.shared, &mut self.shared.state.lock(), call)
        }
    }

    fn req(engine: &str, expr: &str) -> SearchRequest {
        SearchRequest {
            engine: engine.into(),
            expr: expr.into(),
            kind: RequestKind::Count,
        }
    }

    #[test]
    fn single_call_roundtrip() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let cid = pump.register(req("AV", "Colorado")).unwrap();
        assert_eq!(pump.wait(cid).unwrap().count(), Some(8));
        pump.release(cid);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn concurrent_calls_overlap_in_time() {
        // 20 calls of 30ms each: sequential would be 600ms; the event loop
        // should finish in roughly one latency.
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(30)));
        let t0 = Instant::now();
        let ids: Vec<CallId> = (0..20)
            .map(|i| pump.register(req("AV", &format!("q{i:02}"))).unwrap())
            .collect();
        for &cid in &ids {
            pump.wait(cid).unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(300),
            "calls did not overlap: {elapsed:?}"
        );
        assert_eq!(pump.stats().launched, 20);
        assert!(pump.stats().peak_in_flight >= 10);
    }

    #[test]
    fn capped_consumer_drain_loop_never_hangs_or_drops() {
        // The shape a capped ReqSync runs while stalled (DESIGN.md §11):
        // admit one call at a time (cap = 1), then drain-and-wait until
        // it completes before admitting the next. If wait_any could miss
        // a completion that lands between the take_completed drain and
        // the sleep, this loop would hang; if the drain could double-
        // deliver, the count would overshoot.
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(2)));
        let mut delivered = 0usize;
        for i in 0..32 {
            let cid = pump.register(req("AV", &format!("q{i:02}"))).unwrap();
            let mut pending = vec![cid];
            while !pending.is_empty() {
                let done = pump.take_completed(&pending);
                if done.is_empty() {
                    pump.wait_any(&pending).unwrap();
                    continue;
                }
                for (c, outcome) in done {
                    outcome.unwrap();
                    pending.retain(|p| *p != c);
                    pump.release(c);
                    delivered += 1;
                }
            }
        }
        assert_eq!(delivered, 32);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn global_limit_respected() {
        let config = PumpConfig {
            max_concurrent: 3,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(10)));
        let ids: Vec<CallId> = (0..12)
            .map(|i| pump.register(req("AV", &format!("g{i:02}"))).unwrap())
            .collect();
        for &cid in &ids {
            pump.wait(cid).unwrap();
        }
        assert!(pump.stats().peak_in_flight <= 3);
        assert!(pump.stats().peak_queued >= 9 - 3);
    }

    #[test]
    fn per_destination_limit_and_no_head_of_line_blocking() {
        let mut per = HashMap::new();
        per.insert("AV".to_string(), 1);
        let config = PumpConfig {
            max_concurrent: 64,
            per_destination: per,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(40)));
        pump.register_service("Google", Probe::new(Duration::from_millis(5)));
        // Saturate AV, then register Google calls behind them.
        let av: Vec<CallId> = (0..4)
            .map(|i| pump.register(req("AV", &format!("a{i}"))).unwrap())
            .collect();
        let goog: Vec<CallId> = (0..4)
            .map(|i| pump.register(req("Google", &format!("g{i}"))).unwrap())
            .collect();
        // Google calls must not wait for the serialized AV queue.
        let t0 = Instant::now();
        for &cid in &goog {
            pump.wait(cid).unwrap();
        }
        assert!(
            t0.elapsed() < Duration::from_millis(80),
            "google calls were head-of-line blocked: {:?}",
            t0.elapsed()
        );
        for &cid in &av {
            pump.wait(cid).unwrap();
        }
        // AV serialized: 4 * 40ms means total ≥ 160ms by now.
    }

    #[test]
    fn coalescing_merges_identical_requests() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let a = pump.register(req("AV", "same")).unwrap();
        let b = pump.register(req("AV", "same")).unwrap();
        let c = pump.register(req("AV", "different")).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pump.wait(a).unwrap().count(), Some(4));
        let stats = pump.stats();
        assert_eq!(stats.registered, 3);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.launched, 2);
        // Result survives the first release (refcounted).
        pump.release(a);
        assert!(pump.peek(b).is_some());
        pump.release(b);
        assert!(pump.peek(b).is_none());
        // Wait before releasing: a call released while in flight is only
        // cleaned up at delivery (see `release` docs).
        pump.wait(c).unwrap();
        pump.release(c);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn wait_any_returns_a_completed_call() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let slow = pump.register(req("AV", "slow-call")).unwrap();
        let fast = pump.register(req("AV", "f")).unwrap();
        let done = pump.wait_any(&[slow, fast]).unwrap();
        assert!(done == slow || done == fast);
        pump.wait(slow).unwrap();
        pump.wait(fast).unwrap();
    }

    #[test]
    fn wait_any_wakeup_carries_the_completed_id() {
        // One destination is serialized and slow, the other fast: the
        // wakeup must deliver the fast call's id even though the slow call
        // is listed first.
        let mut per = HashMap::new();
        per.insert("AV".to_string(), 1);
        let config = PumpConfig {
            per_destination: per,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(120)));
        pump.register_service("Google", Probe::new(Duration::from_millis(5)));
        let slow = pump.register(req("AV", "slow")).unwrap();
        let fast = pump.register(req("Google", "fast")).unwrap();
        let done = pump.wait_any(&[slow, fast]).unwrap();
        assert_eq!(done, fast);
        pump.wait(slow).unwrap();
    }

    #[test]
    fn wait_any_on_unknown_call_errors() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        let err = pump.wait_any(&[CallId(999)]).unwrap_err();
        assert!(matches!(err, WsqError::Exec(_)));
        assert!(pump.wait_any(&[]).is_err());
    }

    #[test]
    fn take_completed_drains_in_one_pass() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let ids: Vec<CallId> = (0..6)
            .map(|i| pump.register(req("AV", &format!("tc{i}"))).unwrap())
            .collect();
        for &cid in &ids {
            pump.wait(cid).unwrap();
        }
        let done = pump.take_completed(&ids);
        assert_eq!(done.len(), ids.len());
        for (cid, result) in &done {
            assert!(ids.contains(cid));
            assert!(result.is_ok());
        }
        // Results are not consumed: peek still sees them until release.
        assert!(pump.peek(ids[0]).is_some());
        for &cid in &ids {
            pump.release(cid);
        }
        assert!(pump.take_completed(&ids).is_empty());
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn unknown_engine_fails_fast() {
        for obs in [Obs::disabled(), Obs::enabled()] {
            let pump = ReqPump::new(PumpConfig {
                obs: obs.clone(),
                ..PumpConfig::default()
            });
            let cid = pump.register(req("Nope", "x")).unwrap();
            let err = pump.wait(cid).unwrap_err();
            assert!(matches!(err, WsqError::Search(_)));
            assert!(err.to_string().contains("Nope"));
            // Registered and failed, never launched: its failure is counted
            // beside its unfolded event, so the in-flight gauge stays put.
            let stats = pump.stats();
            assert_eq!(
                (stats.registered, stats.launched, stats.completed),
                (1, 0, 1)
            );
            if let Some(m) = obs.metrics() {
                assert_eq!((m.calls_failed.get(), m.in_flight.get()), (1, 0));
            }
        }
    }

    #[test]
    fn release_cancels_queued_calls() {
        // Cap concurrency at 1 so later calls stay queued.
        let config = PumpConfig {
            max_concurrent: 1,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(50)));
        let first = pump.register(req("AV", "first")).unwrap();
        let second = pump.register(req("AV", "second")).unwrap();
        pump.release(second); // cancel while queued
        pump.wait(first).unwrap();
        // Give the loop a moment; the cancelled call must never launch.
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(pump.stats().launched, 1);
        pump.release(first);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn shutdown_wakes_waiters() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_secs(10)));
        let cid = pump.register(req("AV", "very slow")).unwrap();
        let p2 = pump.clone();
        let waiter = std::thread::spawn(move || p2.wait(cid));
        std::thread::sleep(Duration::from_millis(20));
        pump.shutdown();
        let res = waiter.join().unwrap();
        assert!(matches!(res, Err(WsqError::PumpShutdown)));
        // Registration after shutdown fails.
        assert!(matches!(
            pump.register(req("AV", "late")),
            Err(WsqError::PumpShutdown)
        ));
    }

    #[test]
    fn shutdown_strands_no_call_once_every_registrant_releases() {
        /// Instant, unless the expression starts with `~`: then parked
        /// for a minute.
        struct Mixed;
        impl SearchService for Mixed {
            fn execute(&self, req: &SearchRequest) -> ServiceReply {
                let timed = req.expr.starts_with('~');
                ServiceReply {
                    result: Ok(SearchResult::Count(req.expr.len() as u64)),
                    latency: Duration::from_secs(if timed { 60 } else { 0 }),
                }
            }
        }
        let pump = ReqPump::new(PumpConfig {
            max_concurrent: 2,
            ..PumpConfig::default()
        });
        pump.register_service("AV", Arc::new(Mixed));
        // Done, parked (filling the cap of 2), then queued; one of each
        // released before the shutdown, one held across it.
        let calls = ["d1", "d2", "~p1", "~p2", "~q1", "~q2"]
            .map(|expr| pump.register(req("AV", expr)).unwrap());
        let [done, done_gone, parked, parked_gone, queued, queued_gone] = calls;
        assert_eq!(pump.stats().launched, 4);
        for call in [done_gone, parked_gone, queued_gone] {
            pump.release(call);
        }
        pump.shutdown();
        assert_eq!(pump.live_calls(), 3, "the released parked call was kept");
        assert_eq!(pump.peek(done).unwrap().unwrap().count(), Some(2));
        assert!(matches!(pump.wait(parked), Err(WsqError::PumpShutdown)));
        assert!(pump.peek(queued).is_none(), "a queued call launched");
        for call in [done, parked, queued] {
            pump.release(call);
        }
        assert_eq!(pump.live_calls(), 0);
        assert_eq!(pump.stats().launched, 4);
    }

    #[test]
    fn zero_latency_calls_complete() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        let ids: Vec<CallId> = (0..100)
            .map(|i| pump.register(req("AV", &format!("z{i:03}"))).unwrap())
            .collect();
        for &cid in &ids {
            pump.wait(cid).unwrap();
            pump.release(cid);
        }
        assert_eq!(pump.live_calls(), 0);
        assert_eq!(pump.stats().completed, 100);
    }

    #[test]
    fn register_batch_matches_per_request_registration() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(2)));
        let ids = pump
            .register_batch(vec![req("AV", "aa"), req("AV", "bbb"), req("AV", "aa")])
            .unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], ids[2], "identical requests coalesce in a batch");
        assert_ne!(ids[0], ids[1]);
        assert_eq!(pump.wait(ids[0]).unwrap().count(), Some(2));
        assert_eq!(pump.wait(ids[1]).unwrap().count(), Some(3));
        let stats = pump.stats();
        assert_eq!(stats.registered, 3);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.launched, 2);
        for &c in &ids {
            pump.release(c);
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn register_batch_after_shutdown_fails() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        pump.shutdown();
        assert!(matches!(
            pump.register_batch(vec![req("AV", "x")]),
            Err(WsqError::PumpShutdown)
        ));
    }

    #[test]
    fn shared_request_coalesces_by_value_and_leaves_nothing_behind() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(20)));
        // Two separately built, equal requests: the index holds the first
        // one's hash and is probed with the second's.
        let a = pump.register(req("AV", "same")).unwrap();
        let b = pump.register(req("AV", "same")).unwrap();
        assert_eq!(a, b, "an identical request in flight must coalesce");
        {
            let st = pump.shared.state.lock();
            assert_eq!((st.index.len(), st.meta.len()), (1, 1));
            let (&key, &cid) = st.index.iter().next().unwrap();
            assert_eq!(cid, a);
            assert_eq!(st.meta[&a].key, Some(key), "the call knows its entry");
        }
        pump.wait(a).unwrap();
        pump.release(a);
        pump.release(b);
        // A released call leaves no stale entry …
        {
            let st = pump.shared.state.lock();
            assert!(st.index.is_empty() && st.meta.is_empty() && st.results.is_empty());
        }
        // … so the same request registers afresh instead of attaching to it.
        let c = pump.register(req("AV", "same")).unwrap();
        assert_ne!(c, a);
        pump.wait(c).unwrap();
        pump.release(c);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn a_hash_collision_never_coalesces_different_requests() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(20)));
        let a = pump.register(req("AV", "one")).unwrap();
        // Make `one` hash as `two` does: `a` is indexed under `two`'s hash.
        let two = pump.shared.keys.hash_one(req("AV", "two"));
        {
            let mut st = pump.shared.state.lock();
            st.index.clear();
            st.index.insert(two, a);
            st.meta.get_mut(&a).unwrap().key = Some(two);
        }
        let b = pump.register(req("AV", "two")).unwrap();
        assert_ne!(a, b, "a different request under the same hash coalesced");
        assert_eq!(
            pump.shared.state.lock().meta[&b].key,
            None,
            "b is not indexed"
        );
        assert_eq!(pump.wait(a).unwrap().count(), Some(3));
        assert_eq!(pump.wait(b).unwrap().count(), Some(3));
        pump.release(b);
        pump.release(a);
        assert_eq!(pump.live_calls(), 0);
        assert!(pump.shared.state.lock().index.is_empty());
    }

    #[test]
    fn race_first_success_wins_and_losers_cancel() {
        let obs = Obs::enabled();
        let config = PumpConfig {
            obs: obs.clone(),
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("Fast", Probe::new(Duration::from_millis(2)));
        pump.register_service("Slow", Probe::new(Duration::from_millis(120)));
        let lease = pump.lease();
        let gid = pump
            .register_race(
                lease.id(),
                vec![req("Fast", "race-me"), req("Slow", "race-me")],
                None,
            )
            .unwrap()
            .call();
        assert_eq!(pump.wait(gid).unwrap().count(), Some(7));
        drop(lease);
        let m = obs.metrics().unwrap();
        assert_eq!(m.race_won.get(), 1);
        assert_eq!(m.race_cancelled.get(), 1);
        // The in-flight loser is only cleaned up at its delivery.
        let deadline = Instant::now() + Duration::from_secs(2);
        while pump.live_calls() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_queued_loser_never_launches() {
        // Cap the slow destination at 0 effective slots by saturating it:
        // global cap 1 means the loser stays queued while the winner's
        // destination is... simpler: per-destination cap of 1 with a
        // pre-registered slow call keeps the slow member queued, so the
        // decision must cancel it before launch.
        let mut per = HashMap::new();
        per.insert("Slow".to_string(), 1);
        let config = PumpConfig {
            per_destination: per,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("Fast", Probe::new(Duration::from_millis(2)));
        pump.register_service("Slow", Probe::new(Duration::from_millis(60)));
        let blocker = pump.register(req("Slow", "blocker")).unwrap();
        let lease = pump.lease();
        let gid = pump
            .register_race(lease.id(), vec![req("Fast", "rq"), req("Slow", "rq")], None)
            .unwrap()
            .call();
        assert!(pump.wait(gid).unwrap().count().is_some());
        drop(lease);
        pump.wait(blocker).unwrap();
        pump.release(blocker);
        // Only the blocker and the fast winner ever launched.
        assert_eq!(pump.stats().launched, 2);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_fails_only_after_every_member_fails() {
        let pump = ReqPump::new(PumpConfig::default());
        // Both engines unknown: members fail fast at registration, so the
        // group resolves to an error immediately.
        let lease = pump.lease();
        let gid = pump
            .register_race(lease.id(), vec![req("NopeA", "x"), req("NopeB", "x")], None)
            .unwrap()
            .call();
        let err = pump.wait(gid).unwrap_err();
        assert!(matches!(err, WsqError::Search(_)));
        drop(lease);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_with_one_failing_member_still_wins() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let lease = pump.lease();
        let gid = pump
            .register_race(lease.id(), vec![req("Nope", "y"), req("AV", "y")], None)
            .unwrap()
            .call();
        assert_eq!(pump.wait(gid).unwrap().count(), Some(1));
        drop(lease);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_release_before_decision_cancels_members() {
        let config = PumpConfig {
            max_concurrent: 1,
            ..PumpConfig::default()
        };
        let pump = ReqPump::new(config);
        pump.register_service("AV", Probe::new(Duration::from_millis(60)));
        let blocker = pump.register(req("AV", "hold")).unwrap();
        let lease = pump.lease();
        pump.register_race(lease.id(), vec![req("AV", "ra"), req("AV", "rb")], None)
            .unwrap();
        // Cursor drop mid-race: both members are still queued and must be
        // cancelled outright.
        drop(lease);
        pump.wait(blocker).unwrap();
        pump.release(blocker);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(pump.stats().launched, 1);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_member_shared_with_external_registrant_survives_decision() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let solo = pump.register(req("AV", "shared")).unwrap();
        let lease = pump.lease();
        let gid = pump
            .register_race(
                lease.id(),
                vec![req("AV", "shared"), req("AV", "other")],
                None,
            )
            .unwrap()
            .call();
        // The group's first member coalesced onto the external call.
        assert_eq!(pump.wait(gid).unwrap().count(), Some(6));
        drop(lease);
        // The external registrant still owns its reference and result.
        assert_eq!(pump.wait(solo).unwrap().count(), Some(6));
        pump.release(solo);
        let deadline = Instant::now() + Duration::from_secs(2);
        while pump.live_calls() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_over_already_completed_member_decides_immediately() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(2)));
        let solo = pump.register(req("AV", "done")).unwrap();
        pump.wait(solo).unwrap();
        // Coalesces onto the finished call: the group is decided at
        // registration time, before any wait.
        let lease = pump.lease();
        let gid = pump
            .register_race(
                lease.id(),
                vec![req("AV", "done"), req("AV", "never-needed")],
                None,
            )
            .unwrap()
            .call();
        assert_eq!(pump.peek(gid).unwrap().unwrap().count(), Some(4));
        drop(lease);
        pump.release(solo);
        let deadline = Instant::now() + Duration::from_secs(2);
        while pump.live_calls() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn race_degenerate_shapes() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        let lease = pump.lease();
        assert!(pump.register_race(lease.id(), vec![], None).is_err());
        let lease = pump.lease();
        let gid = pump
            .register_race(lease.id(), vec![req("AV", "one")], None)
            .unwrap()
            .call();
        assert_eq!(pump.wait(gid).unwrap().count(), Some(3));
        drop(lease);
        assert_eq!(pump.live_calls(), 0);
    }

    /// Test service recording which thread ran each `execute`, keyed by
    /// the request expression.
    struct ThreadLog {
        latency: Duration,
        ran_on: Mutex<HashMap<String, std::thread::ThreadId>>,
    }

    impl ThreadLog {
        fn new(latency: Duration) -> Arc<Self> {
            Arc::new(ThreadLog {
                latency,
                ran_on: Mutex::new(HashMap::new()),
            })
        }

        fn thread_of(&self, expr: &str) -> std::thread::ThreadId {
            self.ran_on.lock()[expr]
        }
    }

    impl SearchService for ThreadLog {
        fn execute(&self, req: &SearchRequest) -> ServiceReply {
            self.ran_on
                .lock()
                .insert(req.expr.clone(), std::thread::current().id());
            ServiceReply {
                result: Ok(SearchResult::Count(req.expr.len() as u64)),
                latency: self.latency,
            }
        }
    }

    #[test]
    fn instant_reply_is_stored_when_register_returns() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        let cid = pump.register(req("AV", "Colorado")).unwrap();
        assert_eq!(pump.peek(cid).unwrap().unwrap().count(), Some(8));
        let ids = pump
            .register_batch(vec![req("AV", "a"), req("AV", "bb")])
            .unwrap();
        assert_eq!(pump.take_completed(&ids).len(), 2);
        let lease = pump.lease();
        let gid = pump
            .register_race(lease.id(), vec![req("AV", "ccc"), req("AV", "dddd")], None)
            .unwrap()
            .call();
        assert_eq!(pump.peek(gid).unwrap().unwrap().count(), Some(3));
    }

    #[test]
    fn a_reply_in_hand_is_delivered_with_its_registration() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::ZERO));
        let lease = pump.lease();
        let first = pump
            .register_delivered(lease.id(), req("AV", "same"), None)
            .unwrap();
        let Registered::Delivered(a, Ok(result)) = first else {
            panic!("an instant reply must be delivered: {first:?}");
        };
        assert_eq!(result.count(), Some(4));
        // Giving `a` up with an identical registration: it coalesces onto
        // `a`, done already, and is delivered in the registration's hold.
        let again = pump
            .register_delivered(lease.id(), req("AV", "same"), Some(a))
            .unwrap();
        assert!(matches!(again, Registered::Delivered(c, Ok(_)) if c == a));
        let b = pump
            .register_delivered(lease.id(), req("AV", "other"), Some(a))
            .unwrap();
        assert_ne!(b.call(), a);
        let stats = pump.stats();
        assert_eq!((stats.launched, stats.coalesced), (2, 1));
        assert_eq!(pump.live_calls(), 1, "`a` was released, `b` is held");
        drop(lease);
        assert_eq!(pump.live_calls(), 0);

        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let lease = pump.lease();
        let pending = pump
            .register_delivered(lease.id(), req("AV", "slow"), None)
            .unwrap();
        assert!(matches!(pending, Registered::Pending(_)), "{pending:?}");
        assert_eq!(pump.wait(pending.call()).unwrap().count(), Some(4));
        drop(lease);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn a_lease_releases_every_reference_it_holds_when_it_drops() {
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(5)));
        let lease = pump.lease();
        // Three references to two pending calls: "a" coalesces.
        for expr in ["a", "a", "bb"] {
            let r = pump
                .register_delivered(lease.id(), req("AV", expr), None)
                .unwrap();
            assert!(matches!(r, Registered::Pending(_)), "{r:?}");
        }
        let outside = pump.register(req("AV", "a")).unwrap();
        assert_eq!(pump.live_calls(), 2);
        assert_eq!(pump.wait(outside).unwrap().count(), Some(1));
        drop(lease);
        // The outside registrant's reference outlives the lease.
        assert_eq!(pump.wait(outside).unwrap().count(), Some(1));
        pump.release(outside);
        let deadline = Instant::now() + Duration::from_secs(2);
        while pump.live_calls() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pump.live_calls(), 0);
        assert!(pump.shared.state.lock().leases.is_empty());
    }

    #[test]
    fn a_held_failure_is_never_served_to_a_later_registration() {
        struct Down;
        impl SearchService for Down {
            fn execute(&self, _req: &SearchRequest) -> ServiceReply {
                ServiceReply {
                    result: Err(WsqError::Search("503".into())),
                    latency: Duration::from_millis(2),
                }
            }
        }
        let pump = ReqPump::with_service("AV", Arc::new(Down));
        let lease = pump.lease();
        let first = pump
            .register_delivered(lease.id(), req("AV", "x"), None)
            .unwrap()
            .call();
        assert!(pump.wait(first).is_err());
        let again = pump
            .register_delivered(lease.id(), req("AV", "x"), None)
            .unwrap()
            .call();
        assert_ne!(again, first, "a registration coalesced onto a failure");
        assert!(pump.wait(again).is_err());
        assert_eq!(pump.stats().launched, 2);
        drop(lease);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn execute_runs_on_the_registering_thread() {
        let log = ThreadLog::new(Duration::ZERO);
        let pump = ReqPump::with_service("AV", log.clone());
        let cid = pump.register(req("AV", "loop")).unwrap();
        pump.wait(cid).unwrap();
        assert_eq!(log.thread_of("loop"), std::thread::current().id());
    }

    #[test]
    fn queued_call_is_launched_by_the_timer_thread_after_a_delivery() {
        let me = std::thread::current().id();
        let log = ThreadLog::new(Duration::from_millis(5));
        let pump = ReqPump::new(PumpConfig {
            max_concurrent: 1,
            ..PumpConfig::default()
        });
        pump.register_service("AV", log.clone());
        let first = pump.register(req("AV", "first")).unwrap();
        let second = pump.register(req("AV", "second")).unwrap();
        // Registration launched `first` here and left `second` queued.
        assert_eq!(pump.stats().launched, 1);
        assert_eq!(log.thread_of("first"), me);
        // Nothing but the timer thread's delivery of `first` can launch
        // `second` while this thread is blocked.
        assert_eq!(pump.wait(second).unwrap().count(), Some(6));
        assert_ne!(log.thread_of("second"), me);
        assert_eq!(pump.stats().peak_in_flight, 1);
        pump.wait(first).unwrap();
        pump.release(first);
        pump.release(second);
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn concurrent_registrants_stay_under_the_global_cap() {
        let probe = Probe::new(Duration::from_millis(1));
        let pump = ReqPump::new(PumpConfig {
            max_concurrent: 2,
            ..PumpConfig::default()
        });
        pump.register_service("AV", probe.clone());
        let start = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (pump, start) = (pump.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let ids: Vec<CallId> = (0..40)
                        .map(|i| pump.register(req("AV", &format!("t{t}c{i:02}"))).unwrap())
                        .collect();
                    for cid in ids {
                        pump.wait(cid).unwrap();
                        pump.release(cid);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(probe.peak.load(Ordering::SeqCst) <= 2);
        let stats = pump.stats();
        assert!(stats.peak_in_flight <= 2);
        assert_eq!((stats.launched, stats.completed), (80, 80));
        assert_eq!(pump.live_calls(), 0);
    }

    /// Test service that panics on the expression `"boom"`.
    struct Panicky;

    impl SearchService for Panicky {
        fn execute(&self, req: &SearchRequest) -> ServiceReply {
            assert!(req.expr != "boom", "backend exploded");
            ServiceReply::instant(SearchResult::Count(req.expr.len() as u64))
        }
    }

    #[test]
    fn panicking_service_fails_its_call_and_the_pump_survives() {
        let pump = ReqPump::new(PumpConfig {
            max_concurrent: 2,
            ..PumpConfig::default()
        });
        pump.register_service("AV", Arc::new(Panicky));
        let ids = pump
            .register_batch(vec![req("AV", "boom"), req("AV", "fine")])
            .unwrap();
        let err = pump.wait(ids[0]).unwrap_err().to_string();
        assert!(err.contains("service panicked: backend exploded"), "{err}");
        // The healthy call registered beside it is untouched.
        assert_eq!(pump.wait(ids[1]).unwrap().count(), Some(4));
        for cid in ids {
            pump.release(cid);
        }
        assert_eq!(pump.live_calls(), 0);
        // The slot came back and the pump still launches.
        let again = pump.register(req("AV", "after")).unwrap();
        assert_eq!(pump.wait(again).unwrap().count(), Some(5));
        pump.release(again);
        assert_eq!(pump.live_calls(), 0);
        assert_eq!(pump.stats().launched, pump.stats().completed);
    }

    #[test]
    fn many_waiters_each_get_their_own_completion() {
        // Each thread waits on its own call; targeted delivery must wake
        // every one of them exactly with its id.
        let pump = ReqPump::with_service("AV", Probe::new(Duration::from_millis(10)));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let pump = pump.clone();
                std::thread::spawn(move || {
                    let cid = pump.register(req("AV", &format!("w{i:02}"))).unwrap();
                    let done = pump.wait_any(&[cid]).unwrap();
                    assert_eq!(done, cid);
                    pump.release(cid);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pump.live_calls(), 0);
        assert_eq!(pump.stats().completed, 16);
    }

    /// A backend for the result cache's tests: counts its calls, and fails
    /// every expression that starts with `!`.
    struct Backend {
        calls: AtomicUsize,
        latency: Duration,
    }

    impl SearchService for Backend {
        fn execute(&self, req: &SearchRequest) -> ServiceReply {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let result = if req.expr.starts_with('!') {
                Err(WsqError::Search("engine down".into()))
            } else {
                Ok(SearchResult::Count(req.expr.len() as u64))
            };
            ServiceReply {
                result,
                latency: self.latency,
            }
        }
    }

    impl Backend {
        fn new(latency: Duration) -> Arc<Backend> {
            Arc::new(Backend {
                calls: AtomicUsize::new(0),
                latency,
            })
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }
    }

    /// A pump whose one destination, `AV`, caches under `config`.
    fn caching(config: CacheConfig, latency: Duration) -> (Arc<ReqPump>, Arc<Backend>) {
        let backend = Backend::new(latency);
        let pump = ReqPump::new(PumpConfig::default());
        pump.register_service_with("AV", backend.clone(), Some(config));
        (pump, backend)
    }

    /// One query's worth of `expr`: register it under a lease of its own,
    /// take its result, and drop the lease.
    fn ask(pump: &ReqPump, expr: &str) -> Result<SearchResult> {
        let lease = pump.lease();
        match pump.register_delivered(lease.id(), req("AV", expr), None)? {
            Registered::Delivered(_, result) => result,
            Registered::Pending(call) => pump.wait(call),
        }
    }

    fn av_cache(pump: &ReqPump) -> CacheStats {
        pump.cache_stats()["AV"]
    }

    #[test]
    fn a_kept_result_is_delivered_with_its_registration_and_is_not_live() {
        let (pump, backend) = caching(CacheConfig::default(), Duration::ZERO);
        assert_eq!(ask(&pump, "kept").unwrap().count(), Some(4));
        assert_eq!(pump.live_calls(), 0, "a kept result counts as live");
        assert_eq!(ask(&pump, "kept").unwrap().count(), Some(4));
        assert_eq!(backend.calls(), 1);
        let stats = pump.stats();
        assert_eq!(
            (stats.registered, stats.launched, stats.coalesced),
            (2, 1, 0)
        );
        let cache = av_cache(&pump);
        assert_eq!((cache.hits, cache.misses, cache.inflight), (1, 1, 0));
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn capacity_evicts_the_result_used_longest_ago() {
        let config = CacheConfig {
            capacity: Some(2),
            ttl: None,
        };
        let (pump, backend) = caching(config, Duration::ZERO);
        for expr in ["a", "b", "a", "c"] {
            ask(&pump, expr).unwrap(); // the hit on `a` makes `b` the oldest
        }
        assert_eq!((backend.calls(), av_cache(&pump).evictions), (3, 1));
        ask(&pump, "a").unwrap();
        ask(&pump, "c").unwrap();
        assert_eq!(backend.calls(), 3, "a and c are kept");
        ask(&pump, "b").unwrap();
        assert_eq!(backend.calls(), 4, "b was evicted");
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn a_holding_registrant_gets_a_kept_result_as_a_call_of_its_own() {
        let (pump, backend) = caching(CacheConfig::default(), Duration::ZERO);
        ask(&pump, "kept").unwrap();
        let call = pump.register(req("AV", "kept")).unwrap();
        assert_eq!(pump.live_calls(), 1);
        assert_eq!(pump.wait(call).unwrap().count(), Some(4));
        pump.release(call);
        assert_eq!(pump.live_calls(), 0);
        assert_eq!(ask(&pump, "kept").unwrap().count(), Some(4), "still kept");
        assert_eq!(backend.calls(), 1);
        assert_eq!((av_cache(&pump).hits, av_cache(&pump).misses), (2, 1));
    }

    #[test]
    fn a_kept_result_expires_after_its_ttl() {
        let config = CacheConfig {
            capacity: None,
            ttl: Some(Duration::from_millis(30)),
        };
        let (pump, backend) = caching(config, Duration::ZERO);
        ask(&pump, "ephemeral").unwrap();
        ask(&pump, "ephemeral").unwrap();
        assert_eq!(backend.calls(), 1);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(ask(&pump, "ephemeral").unwrap().count(), Some(9));
        assert_eq!(backend.calls(), 2, "expired → re-fetched");
        let cache = av_cache(&pump);
        assert_eq!((cache.hits, cache.misses, cache.expirations), (1, 2, 1));
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn a_failure_is_not_kept_and_the_next_registration_retries() {
        let (pump, backend) = caching(CacheConfig::default(), Duration::ZERO);
        assert!(ask(&pump, "!down").is_err());
        assert!(ask(&pump, "!down").is_err());
        assert_eq!(backend.calls(), 2);
        let cache = av_cache(&pump);
        assert_eq!((cache.hits, cache.misses), (0, 2));
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn a_result_released_in_flight_is_kept() {
        let (pump, backend) = caching(CacheConfig::default(), Duration::from_millis(20));
        let lease = pump.lease();
        let registered = pump.register_delivered(lease.id(), req("AV", "slow"), None);
        assert!(matches!(registered, Ok(Registered::Pending(_))));
        drop(lease); // released in flight: nobody will take the result
        let t0 = Instant::now();
        while pump.live_calls() != 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "the call never completed"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let again = pump.lease();
        let registered = pump.register_delivered(again.id(), req("AV", "slow"), None);
        let Ok(Registered::Delivered(_, result)) = registered else {
            panic!("the result completed unheld was not kept: {registered:?}");
        };
        assert_eq!(result.unwrap().count(), Some(4));
        assert_eq!(backend.calls(), 1);
    }

    #[test]
    fn clear_cache_forgets_every_kept_result_and_keeps_the_counts() {
        let (pump, backend) = caching(CacheConfig::default(), Duration::ZERO);
        for expr in ["a", "b", "a"] {
            ask(&pump, expr).unwrap();
        }
        pump.clear_cache();
        assert_eq!(pump.live_calls(), 0);
        ask(&pump, "a").unwrap();
        ask(&pump, "b").unwrap();
        assert_eq!(backend.calls(), 4, "cleared results are fetched again");
        let cache = av_cache(&pump);
        assert_eq!((cache.hits, cache.misses), (1, 4));
    }

    #[test]
    fn a_replacement_serves_none_of_the_old_services_results() {
        let (pump, old) = caching(CacheConfig::default(), Duration::ZERO);
        ask(&pump, "kept").unwrap();
        // And a result of the old service that a lease still holds.
        let holder = pump.lease();
        pump.register_delivered(holder.id(), req("AV", "held"), None)
            .unwrap();
        let new = Backend::new(Duration::ZERO);
        pump.register_service_with("AV", new.clone(), Some(CacheConfig::default()));
        assert_eq!(av_cache(&pump), CacheStats::default(), "counts start anew");
        ask(&pump, "kept").unwrap();
        ask(&pump, "held").unwrap();
        drop(holder);
        assert_eq!((old.calls(), new.calls()), (2, 2));
        ask(&pump, "kept").unwrap();
        ask(&pump, "held").unwrap();
        assert_eq!(new.calls(), 2, "the new service's results are kept");
        let cache = av_cache(&pump);
        assert_eq!((cache.hits, cache.misses), (2, 2));
        assert_eq!(pump.live_calls(), 0);
    }

    #[test]
    fn a_race_keeps_each_members_result() {
        let pump = ReqPump::new(PumpConfig::default());
        let (av, google) = (Backend::new(Duration::ZERO), Backend::new(Duration::ZERO));
        pump.register_service_with("AV", av.clone(), Some(CacheConfig::default()));
        pump.register_service_with("Google", google.clone(), Some(CacheConfig::default()));
        let lease = pump.lease();
        let raced = pump.register_race(lease.id(), vec![req("AV", "x"), req("Google", "x")], None);
        assert!(matches!(raced, Ok(Registered::Delivered(_, Ok(_)))));
        drop(lease);
        assert_eq!(pump.live_calls(), 0);
        for engine in ["AV", "Google"] {
            let lease = pump.lease();
            let again = pump.register_delivered(lease.id(), req(engine, "x"), None);
            assert!(
                matches!(again, Ok(Registered::Delivered(_, Ok(_)))),
                "{engine}"
            );
        }
        assert_eq!((av.calls(), google.calls()), (1, 1));
        let stats = pump.cache_stats();
        assert_eq!((stats["AV"].hits, stats["Google"].hits), (1, 1));
        assert_eq!(pump.live_calls(), 0);
    }
}
