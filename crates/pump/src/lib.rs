#![deny(missing_docs)]
//! **ReqPump** — the global module for managing asynchronous external calls
//! (paper Section 4.1).
//!
//! Every external call a query makes goes through here. During
//! asynchronous iteration, `AEVScan` operators *register* external search
//! calls and immediately return placeholder tuples; `ReqSync` operators
//! *wait* for completions and patch the placeholders. A synchronous
//! `EVScan` is the same scan, waiting on its own call before it yields. ReqPump
//! plays the producer in the producer/consumer protocol: it launches
//! requests concurrently (respecting a global cap and per-destination
//! caps, queueing the excess), stores each response in `ReqPumpHash` keyed
//! by [`CallId`], and signals consumers as calls complete.
//!
//! The dispatcher is the design the paper argues for (§4.2, citing the
//! Flash web server): registering a call *is* sending it, with no thread
//! per request. Services compute their response eagerly and declare a
//! simulated network latency, so `execute` is cheap and any thread may run
//! it. `register` runs it on the registering thread for every call the caps
//! admit; a zero-latency reply (a cache hit) is stored before `register`
//! returns, with no other thread involved, and `register_delivered` hands
//! it straight to the registrant — an `AEVScan` then emits finished rows
//! instead of a placeholder. A reply with latency goes on a deadline heap,
//! and the pump's one thread, a timer, sleeps until the earliest deadline,
//! delivers what is due, and launches whatever the freed capacity admits.
//! Hundreds of concurrent "network" calls cost one thread, and that thread
//! wakes only for deadlines. A service that genuinely blocks inside
//! `execute` blocks the thread that launched it: declare the wait as
//! [`ServiceReply::latency`] instead (the `web_crawler` example's fetcher
//! does).

//! ReqPump also *coalesces* identical requests onto one call while any
//! registrant holds it (one network call, many placeholders) — the
//! countermeasure to the paper's Example 2, where a cross-product would
//! otherwise send `|R|` identical calls per tuple. And it is the result
//! cache (§4, after HN96): a destination registered with a [`CacheConfig`]
//! keeps each successful call's result after its last release, so a later
//! registration of the same request is delivered the kept result in its
//! own lock hold, with no launch ([`ReqPump::register_service_with`]).

pub mod pump;
pub mod service;

pub use pump::{
    CacheConfig, CacheStats, Lease, LeaseId, PumpConfig, PumpStats, Registered, ReqPump,
};
pub use service::{PageHit, RequestKind, SearchRequest, SearchResult, SearchService, ServiceReply};

pub use wsq_common::CallId;
