//! Model-based property tests for ReqPump: under random interleavings of
//! register / wait / release under random limits,
//! the pump must deliver exactly the right results, respect its caps, and
//! never leak calls.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use wsq_pump::{
    PumpConfig, ReqPump, RequestKind, SearchRequest, SearchResult, SearchService, ServiceReply,
};

/// Deterministic test service: count = f(expr), latency = tiny hash jitter.
struct HashService;

fn expected_count(expr: &str) -> u64 {
    expr.bytes().map(u64::from).sum::<u64>() % 1000
}

impl SearchService for HashService {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        let ms = expr_latency_ms(&req.expr);
        ServiceReply {
            result: Ok(SearchResult::Count(expected_count(&req.expr))),
            latency: Duration::from_millis(ms),
        }
    }
}

fn expr_latency_ms(expr: &str) -> u64 {
    expr.bytes().map(u64::from).sum::<u64>() % 4
}

#[derive(Debug, Clone)]
enum Op {
    /// Register request with expression index `i` from the pool.
    Register(usize),
    /// Wait on the n-th still-live registration and verify its result.
    Wait(usize),
    /// Release the n-th still-live registration.
    Release(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..12usize).prop_map(Op::Register),
        2 => (0..16usize).prop_map(Op::Wait),
        2 => (0..16usize).prop_map(Op::Release),
    ]
}

fn arb_config() -> impl Strategy<Value = PumpConfig> {
    prop_oneof![Just(1usize), Just(2), Just(4), Just(64)].prop_map(|max_concurrent| PumpConfig {
        max_concurrent,
        ..PumpConfig::default()
    })
}

/// Run `ops` against a fresh pump and check it against the model: every
/// wait returns the right result, and nothing leaks once all is released.
fn check_ops(ops: Vec<Op>, config: PumpConfig) -> Result<(), TestCaseError> {
    let pump = ReqPump::new(config);
    pump.register_service("AV", Arc::new(HashService));

    // Live registrations: (call id, expr). One entry per register() call
    // — coalesced registrations appear multiple times and must be
    // released once each.
    let mut live: Vec<(wsq_pump::CallId, String)> = Vec::new();

    for op in ops {
        match op {
            Op::Register(i) => {
                let expr = format!("query number {i}");
                let call = pump
                    .register(SearchRequest {
                        engine: "AV".into(),
                        expr: expr.clone(),
                        kind: RequestKind::Count,
                    })
                    .unwrap();
                live.push((call, expr));
            }
            Op::Wait(n) if !live.is_empty() => {
                let (call, expr) = live[n % live.len()].clone();
                let result = pump.wait(call).unwrap();
                prop_assert_eq!(result.count(), Some(expected_count(&expr)));
            }
            Op::Release(n) if !live.is_empty() => {
                let (call, _) = live.remove(n % live.len());
                pump.release(call);
            }
            Op::Wait(_) | Op::Release(_) => {}
        }
    }
    // Drain: every remaining registration must still be waitable and
    // produce the correct result.
    for (call, expr) in live.drain(..) {
        let result = pump.wait(call).unwrap();
        prop_assert_eq!(result.count(), Some(expected_count(&expr)));
        pump.release(call);
    }
    // A call released while in flight is cleaned up when its reply
    // arrives (the pump needs the delivery event to free per-destination
    // capacity), so allow brief quiescence.
    let deadline = std::time::Instant::now() + Duration::from_millis(500);
    while pump.live_calls() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    prop_assert_eq!(pump.live_calls(), 0, "pump leaked calls");

    let stats = pump.stats();
    prop_assert!(stats.peak_in_flight <= 64);
    prop_assert!(stats.launched <= stats.registered);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pump_matches_model(
        ops in prop::collection::vec(arb_op(), 1..40),
        config in arb_config(),
    ) {
        check_ops(ops, config)?;
    }
}

/// A shrunk failing case recorded for `pump_matches_model`: a call
/// registered twice (coalesced) and released twice, a second call queued
/// behind it under a global cap of 1, then waited on and re-registered.
#[test]
fn pump_matches_model_replays_the_recorded_cap_one_case() {
    use Op::*;
    let ops = vec![
        Register(0),
        Register(0),
        Register(2),
        Release(0),
        Release(0),
        Wait(0),
        Release(0),
        Register(2),
        Release(0),
    ];
    let config = PumpConfig {
        max_concurrent: 1,
        ..PumpConfig::default()
    };
    check_ops(ops, config).unwrap();
}

#[test]
fn stress_many_concurrent_waiters() {
    // 8 threads × 50 calls against a capacity-4 pump: everything completes
    // correctly under contention.
    let pump = ReqPump::new(PumpConfig {
        max_concurrent: 4,
        ..PumpConfig::default()
    });
    pump.register_service("AV", Arc::new(HashService));
    let mut handles = Vec::new();
    for t in 0..8 {
        let pump = pump.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                let expr = format!("thread {t} call {i}");
                let call = pump
                    .register(SearchRequest {
                        engine: "AV".into(),
                        expr: expr.clone(),
                        kind: RequestKind::Count,
                    })
                    .unwrap();
                let r = pump.wait(call).unwrap();
                assert_eq!(r.count(), Some(expected_count(&expr)));
                pump.release(call);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(pump.live_calls(), 0);
    assert!(pump.stats().peak_in_flight <= 4);
    assert_eq!(pump.stats().completed, pump.stats().launched);
}
