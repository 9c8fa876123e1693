//! The recovery decorator for failing engines.
//!
//! 1999 search engines failed often enough that the paper's experimental
//! protocol had to work around them ("performance … can fluctuate
//! considerably depending on load").
//! [`DegradedService`](crate::DegradedService) injects such failures
//! deterministically; [`RetryService`] is the corresponding recovery
//! decorator.

use std::sync::Arc;
use std::time::Duration;
use wsq_obs::{CounterId, EventKind, Obs, Step};
use wsq_pump::{SearchRequest, SearchService, ServiceReply};

/// Retries the inner service until it succeeds or attempts are exhausted.
///
/// The retry happens inside `execute`, so it composes with either pump
/// dispatcher; the reported latency is the sum over attempts (each retry
/// costs another round trip).
pub struct RetryService {
    inner: Arc<dyn SearchService>,
    attempts: u32,
    obs: Obs,
}

impl RetryService {
    /// Wrap `inner`, trying up to `attempts` times (min 1).
    pub fn new(inner: Arc<dyn SearchService>, attempts: u32) -> Arc<Self> {
        Self::with_obs(inner, attempts, Obs::disabled())
    }

    /// Like [`RetryService::new`], additionally counting re-issues in
    /// `wsq_retries_total` and — when executing on behalf of a pump call
    /// (see [`wsq_obs::current_call`]) — recording a `Retried` trace
    /// event against that call.
    pub fn with_obs(inner: Arc<dyn SearchService>, attempts: u32, obs: Obs) -> Arc<Self> {
        Arc::new(RetryService {
            inner,
            attempts: attempts.max(1),
            obs,
        })
    }
}

impl SearchService for RetryService {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        let mut total_latency = Duration::ZERO;
        let mut last = None;
        for attempt in 0..self.attempts {
            if attempt > 0 {
                self.obs.count(CounterId::Retries, 1);
                if let Some(call) = wsq_obs::current_call() {
                    self.obs.event(&Step::new(), call, EventKind::Retried);
                }
            }
            // Salt the request so a deterministic flake doesn't fail every
            // attempt identically — mirroring real engines where a retry
            // hits a different replica. The salt is whitespace-class only
            // (zero-width spaces), so tokenization ignores it and the
            // retried query is *semantically identical* to the original.
            let salted = if attempt == 0 {
                req.clone()
            } else {
                SearchRequest {
                    expr: format!("{}{}", req.expr, "\u{200b}".repeat(attempt as usize)),
                    ..req.clone()
                }
            };
            let reply = self.inner.execute(&salted);
            total_latency += reply.latency;
            match reply.result {
                Ok(result) => {
                    return ServiceReply {
                        result: Ok(result),
                        latency: total_latency,
                    }
                }
                Err(e) => last = Some(e),
            }
        }
        ServiceReply {
            result: Err(last.expect("at least one attempt")),
            latency: total_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DegradedConfig, DegradedService};
    use wsq_pump::{RequestKind, SearchResult};

    struct Always(u64);
    impl SearchService for Always {
        fn execute(&self, _req: &SearchRequest) -> ServiceReply {
            ServiceReply::instant(SearchResult::Count(self.0))
        }
    }

    /// `inner` failing `permille`/1000 of requests.
    fn flaky(inner: Arc<dyn SearchService>, permille: u32, seed: u64) -> Arc<DegradedService> {
        DegradedService::new(
            inner,
            DegradedConfig {
                error_burst_permille: permille,
                seed,
                ..DegradedConfig::default()
            },
        )
    }

    fn req(expr: &str) -> SearchRequest {
        SearchRequest {
            engine: "AV".into(),
            expr: expr.into(),
            kind: RequestKind::Count,
        }
    }

    #[test]
    fn retry_recovers_from_flakes() {
        let flaky = flaky(Arc::new(Always(9)), 300, 7);
        let retry = RetryService::new(flaky.clone(), 8);
        // With 30% failure and 8 salted attempts, a full failing chain has
        // probability 0.3^8 ≈ 7e-5 per request; the fixed seed has none.
        for i in 0..100 {
            let r = retry.execute(&req(&format!("r{i}")));
            assert!(r.result.is_ok(), "request r{i} failed after retries");
        }
        assert!(flaky.stats().failures > 10, "flakes did occur");
    }

    #[test]
    fn retry_salt_is_semantically_invisible_to_the_engine() {
        // The salted retry expression must evaluate identically to the
        // original on a real engine (the salt is whitespace-class only).
        use crate::{CorpusConfig, EngineKind, SimWeb};
        let web = SimWeb::build(CorpusConfig::small());
        let av = web.engine(EngineKind::AltaVista);
        // Force failures on first attempts so retries actually happen.
        let flaky = flaky(av.clone(), 500, 99);
        let retry = RetryService::new(flaky, 10);
        for expr in ["Utah", "Colorado near \"four corners\"", "\"New Mexico\""] {
            let direct = av.count(expr);
            let via_retry = retry
                .execute(&SearchRequest {
                    engine: "AV".into(),
                    expr: expr.into(),
                    kind: RequestKind::Count,
                })
                .result
                .unwrap()
                .count()
                .unwrap();
            assert_eq!(via_retry, direct, "salt changed semantics of {expr:?}");
        }
    }

    #[test]
    fn retry_exhaustion_reports_the_error() {
        let always_fail = flaky(Arc::new(Always(1)), 1000, 1);
        let retry = RetryService::new(always_fail, 3);
        let r = retry.execute(&req("doomed"));
        assert!(r.result.unwrap_err().to_string().contains("503"));
    }
}
