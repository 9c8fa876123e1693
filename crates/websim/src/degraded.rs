//! Fault injection: the one composable decorator that makes an engine
//! *bad* in scriptable, deterministic ways.
//!
//! [`DegradedService`] models the shapes the paper's experimental
//! section complains about — point failures on a fraction of requests,
//! latency spikes on a fraction of requests, and *brownout windows*
//! where every request for a stretch of calls pays extra latency (a
//! backend replica falling over and recovering). All three axes are
//! deterministic for a given seed, so tests can exercise every error
//! path reproducibly and chaos scenarios replay exactly;
//! [`RetryService`](crate::RetryService) is the recovery decorator.
//!
//! ```
//! use std::sync::Arc;
//! use wsq_websim::{CorpusConfig, DegradedConfig, DegradedService, EngineKind, SimWeb};
//!
//! let web = SimWeb::build(CorpusConfig::small());
//! let slow = DegradedService::new(
//!     web.engine(EngineKind::AltaVista),
//!     DegradedConfig {
//!         latency_spike_permille: 200,
//!         ..DegradedConfig::default()
//!     },
//! );
//! let _reply = wsq_pump::SearchService::execute(
//!     &*slow,
//!     &wsq_pump::SearchRequest {
//!         engine: "AV".into(),
//!         expr: "Utah".into(),
//!         kind: wsq_pump::RequestKind::Count,
//!     },
//! );
//! ```

use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;
use wsq_common::WsqError;
use wsq_obs::{CounterId, Obs};
use wsq_pump::{SearchRequest, SearchService, ServiceReply};

/// How a [`DegradedService`] misbehaves. Every axis is optional; the
/// default is a healthy pass-through.
#[derive(Debug, Clone)]
pub struct DegradedConfig {
    /// Fraction (per mille) of requests that pay [`DegradedConfig::spike`]
    /// extra latency, chosen deterministically per request.
    pub latency_spike_permille: u32,
    /// Extra latency added to spiked requests.
    pub spike: Duration,
    /// Fraction (per mille) of requests failed outright with a 503,
    /// chosen deterministically per request (independent of the spike
    /// oracle).
    pub error_burst_permille: u32,
    /// Brownout window period, in calls: of every `brownout_period`
    /// consecutive calls, the first [`DegradedConfig::brownout_len`] pay
    /// [`DegradedConfig::brownout_extra`]. `0` disables brownouts.
    pub brownout_period: u64,
    /// Calls per period that fall inside the brownout window.
    pub brownout_len: u64,
    /// Extra latency every browned-out call pays.
    pub brownout_extra: Duration,
    /// Seed for the per-request spike/error oracles.
    pub seed: u64,
}

impl Default for DegradedConfig {
    fn default() -> Self {
        DegradedConfig {
            latency_spike_permille: 0,
            spike: Duration::from_millis(100),
            error_burst_permille: 0,
            brownout_period: 0,
            brownout_len: 0,
            brownout_extra: Duration::from_millis(50),
            seed: 0,
        }
    }
}

/// Degradation counters (what the decorator actually did).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedStats {
    /// Requests that paid the latency spike.
    pub spikes: u64,
    /// Requests failed by the error-burst oracle.
    pub failures: u64,
    /// Requests that fell inside a brownout window.
    pub brownouts: u64,
    /// Requests passed through to the inner service.
    pub successes: u64,
}

/// Wraps a [`SearchService`] with deterministic latency spikes, error
/// bursts, and brownout windows. Composable: wrap a cache, a
/// [`RetryService`](crate::RetryService), or another `DegradedService`.
pub struct DegradedService {
    inner: Arc<dyn SearchService>,
    config: DegradedConfig,
    /// Monotone call counter driving the brownout window.
    calls: Mutex<u64>,
    stats: Mutex<DegradedStats>,
    obs: Obs,
}

impl DegradedService {
    /// Wrap `inner` with the given degradation profile.
    pub fn new(inner: Arc<dyn SearchService>, config: DegradedConfig) -> Arc<Self> {
        Self::with_obs(inner, config, Obs::disabled())
    }

    /// Like [`DegradedService::new`], additionally mirroring injected
    /// failures into the `wsq_flaky_failures_total` registry counter.
    pub fn with_obs(inner: Arc<dyn SearchService>, config: DegradedConfig, obs: Obs) -> Arc<Self> {
        Arc::new(DegradedService {
            inner,
            config: DegradedConfig {
                latency_spike_permille: config.latency_spike_permille.min(1000),
                error_burst_permille: config.error_burst_permille.min(1000),
                ..config
            },
            calls: Mutex::new(0),
            stats: Mutex::new(DegradedStats::default()),
            obs,
        })
    }

    /// Snapshot of the degradation counters.
    pub fn stats(&self) -> DegradedStats {
        *self.stats.lock()
    }

    /// Deterministic per-request oracle: `hash(salt, seed, req) % 1000`.
    fn permille(&self, salt: u64, req: &SearchRequest) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        salt.hash(&mut h);
        self.config.seed.hash(&mut h);
        req.hash(&mut h);
        h.finish() % 1000
    }

    /// Would this request be failed by the error-burst oracle?
    /// (Deterministic; useful for test oracles.)
    pub fn would_fail(&self, req: &SearchRequest) -> bool {
        self.permille(0xE44, req) < self.config.error_burst_permille as u64
    }

    /// Would this request pay the latency spike? (Deterministic.)
    pub fn would_spike(&self, req: &SearchRequest) -> bool {
        self.permille(0x512E, req) < self.config.latency_spike_permille as u64
    }
}

impl SearchService for DegradedService {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        let mut extra = Duration::ZERO;
        if self.config.brownout_period > 0 && self.config.brownout_len > 0 {
            let n = {
                let mut calls = self.calls.lock();
                let n = *calls;
                *calls += 1;
                n
            };
            if n % self.config.brownout_period < self.config.brownout_len {
                extra += self.config.brownout_extra;
                self.stats.lock().brownouts += 1;
            }
        }
        if self.would_fail(req) {
            self.stats.lock().failures += 1;
            self.obs.count(CounterId::FlakyFailures, 1);
            return ServiceReply {
                result: Err(WsqError::Search(format!(
                    "503 service unavailable for {req}"
                ))),
                latency: extra + Duration::from_millis(1),
            };
        }
        let spiked = self.would_spike(req);
        if spiked {
            extra += self.config.spike;
        }
        {
            let mut stats = self.stats.lock();
            stats.successes += 1;
            stats.spikes += u64::from(spiked);
        }
        let reply = self.inner.execute(req);
        ServiceReply {
            result: reply.result,
            latency: reply.latency + extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsq_pump::{RequestKind, SearchResult};

    struct Always(u64);
    impl SearchService for Always {
        fn execute(&self, _req: &SearchRequest) -> ServiceReply {
            ServiceReply::instant(SearchResult::Count(self.0))
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
    fn healthy_default_is_a_pass_through() {
        let svc = DegradedService::new(Arc::new(Always(5)), DegradedConfig::default());
        for i in 0..50 {
            let r = svc.execute(&req(&format!("q{i}")));
            assert_eq!(r.result.unwrap().count(), Some(5));
            assert_eq!(r.latency, Duration::ZERO);
        }
        assert_eq!(
            svc.stats(),
            DegradedStats {
                successes: 50,
                ..DegradedStats::default()
            }
        );
    }

    #[test]
    fn spikes_are_deterministic_and_add_latency() {
        let cfg = DegradedConfig {
            latency_spike_permille: 300,
            spike: Duration::from_millis(40),
            seed: 7,
            ..DegradedConfig::default()
        };
        let svc = DegradedService::new(Arc::new(Always(1)), cfg.clone());
        let svc2 = DegradedService::new(Arc::new(Always(1)), cfg);
        let mut spiked = 0;
        for i in 0..200 {
            let r = req(&format!("s{i}"));
            assert_eq!(svc.would_spike(&r), svc2.would_spike(&r));
            let reply = svc.execute(&r);
            if svc.would_spike(&r) {
                spiked += 1;
                assert_eq!(reply.latency, Duration::from_millis(40));
            } else {
                assert_eq!(reply.latency, Duration::ZERO);
            }
        }
        assert!((30..=90).contains(&spiked), "~30% of 200, got {spiked}");
        assert_eq!(svc.stats().spikes, spiked);
    }

    fn failing(permille: u32, seed: u64, obs: Obs) -> Arc<DegradedService> {
        DegradedService::with_obs(
            Arc::new(Always(7)),
            DegradedConfig {
                error_burst_permille: permille,
                seed,
                ..DegradedConfig::default()
            },
            obs,
        )
    }

    #[test]
    fn failures_are_deterministic_and_proportional() {
        let flaky = failing(300, 42, Obs::disabled());
        let outcomes: Vec<bool> = (0..500)
            .map(|i| flaky.would_fail(&req(&format!("q{i}"))))
            .collect();
        // Deterministic: same answers again.
        for (i, &o) in outcomes.iter().enumerate() {
            assert_eq!(flaky.would_fail(&req(&format!("q{i}"))), o);
        }
        let failures = outcomes.iter().filter(|&&b| b).count();
        assert!(
            (100..=200).contains(&failures),
            "~30% of 500, got {failures}"
        );
        // Execute matches the oracle.
        for (i, &expect_err) in outcomes.iter().enumerate().take(50) {
            let r = flaky.execute(&req(&format!("q{i}")));
            assert_eq!(r.result.is_err(), expect_err);
        }
    }

    #[test]
    fn zero_and_total_failure_rates() {
        let never = failing(0, 1, Obs::disabled());
        assert!(never.execute(&req("x")).result.is_ok());
        assert_eq!(never.stats().successes, 1);
        let obs = Obs::enabled();
        let always = failing(1000, 1, obs.clone());
        let r = always.execute(&req("doomed"));
        assert!(r.result.unwrap_err().to_string().contains("503"));
        assert_eq!(always.stats().failures, 1);
        assert_eq!(obs.metrics().unwrap().flaky_failures.get(), 1);
    }

    #[test]
    fn brownout_windows_tax_the_first_calls_of_each_period() {
        let svc = DegradedService::new(
            Arc::new(Always(1)),
            DegradedConfig {
                brownout_period: 10,
                brownout_len: 3,
                brownout_extra: Duration::from_millis(25),
                ..DegradedConfig::default()
            },
        );
        let mut browned = 0;
        for i in 0..30 {
            let reply = svc.execute(&req(&format!("b{i}")));
            if reply.latency >= Duration::from_millis(25) {
                browned += 1;
            }
        }
        assert_eq!(browned, 9, "3 of every 10 calls over 30 calls");
        assert_eq!(svc.stats().brownouts, 9);
    }

    #[test]
    fn composes_over_itself() {
        let degraded = DegradedService::new(
            failing(1000, 1, Obs::disabled()),
            DegradedConfig {
                latency_spike_permille: 1000,
                spike: Duration::from_millis(5),
                ..DegradedConfig::default()
            },
        );
        let r = degraded.execute(&req("x"));
        // The inner failure still surfaces, and the spike latency still
        // applies on top of the inner reply's own latency.
        assert!(r.result.is_err());
        assert!(r.latency >= Duration::from_millis(5));
    }
}
