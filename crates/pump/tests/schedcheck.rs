//! The real [`ReqPump`] under the `schedcheck` model checker.
//!
//! With the `schedcheck` feature every lock the pump takes is a
//! scheduling point of the checker, and its timer and worker threads are
//! model threads, so each scenario explores the interleavings of the
//! product code itself: unbounded where the schedule tree is small,
//! within a CHESS-style preemption bound in [`thread_pool`].
//! `-- --nocapture` prints each bound and schedule count.
//!
//! A timed reply declares 1 ns of latency, so it is due whenever the timer
//! thread looks: which thread delivers it, and when, is the scheduler's
//! choice, and no run depends on the wall clock.

use schedcheck::{check_with, thread, Config};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use wsq_common::{Result, WsqError};
use wsq_pump::{
    CallId, DispatchMode, PumpConfig, Registered, ReqPump, RequestKind, SearchRequest,
    SearchResult, SearchService, ServiceReply,
};

/// Count = the expression's length, after the pump's latency if the
/// expression starts with `~`, at once otherwise.
struct Len(Duration);

impl SearchService for Len {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        let timed = req.expr.starts_with('~');
        ServiceReply {
            result: Ok(SearchResult::Count(req.expr.len() as u64)),
            latency: if timed { self.0 } else { Duration::ZERO },
        }
    }
}

/// Due whenever the timer thread looks (see the module docs).
const TIMED: Duration = Duration::from_nanos(1);

fn req(expr: &str) -> SearchRequest {
    SearchRequest {
        engine: "AV".into(),
        expr: expr.into(),
        kind: RequestKind::Count,
    }
}

/// A pump over [`Len`], built inside the model so that its locks and
/// threads are the checker's.
fn pump(dispatch: DispatchMode, max_concurrent: usize, latency: Duration) -> Arc<ReqPump> {
    let pump = ReqPump::new(PumpConfig {
        max_concurrent,
        dispatch,
        ..PumpConfig::default()
    });
    pump.register_service("AV", Arc::new(Len(latency)));
    pump
}

fn value(result: Result<SearchResult>) -> u64 {
    result.expect("the call succeeds").count().expect("a count")
}

/// What a delivering registration came back with, waited for if pending.
fn delivered(pump: &ReqPump, registered: Result<Registered>) -> u64 {
    match registered.expect("registration succeeds") {
        Registered::Pending(call) => value(pump.wait(call)),
        Registered::Delivered(_, result) => value(result),
    }
}

/// Explore `model` within `max_preemptions` and require the bounded
/// schedule tree to be exhausted.
fn explore(name: &str, max_preemptions: usize, model: impl Fn() + Send + Sync + 'static) {
    let config = Config {
        max_schedules: 600_000,
        max_steps: 20_000,
        max_preemptions,
    };
    let stats = check_with(config, model);
    let bound = match max_preemptions {
        usize::MAX => "unbounded".to_string(),
        b => format!("<= {b} preemptions"),
    };
    println!("{name}: {bound}, {} schedules", stats.schedules);
    assert!(stats.complete, "{name}: exploration hit the schedule cap");
}

/// Two registrants under a global cap of 1 — one reply instant, one
/// timed — and the timer thread. A call is launched by its own registrant,
/// by the other one (its inline completion freed the slot), or by the
/// timer after a delivery: each exactly once, never two in flight, and
/// none stranded (waiting for both returns).
#[test]
fn caller_launch_never_strands_a_queued_call_or_exceeds_the_cap() {
    explore("caller_launch", usize::MAX, || {
        let pump = pump(DispatchMode::EventLoop, 1, TIMED);
        let other = {
            let pump = pump.clone();
            thread::spawn(move || pump.register(req("~timed")).unwrap())
        };
        let mine = pump.register(req("now")).unwrap();
        let theirs = other.join();
        assert_eq!(value(pump.wait(mine)), 3);
        assert_eq!(value(pump.wait(theirs)), 6);
        let stats = pump.stats();
        assert_eq!(stats.launched, 2, "every call launches exactly once");
        assert_eq!(stats.peak_in_flight, 1, "the cap of 1 was exceeded");
        pump.release(mine);
        pump.release(theirs);
        assert_eq!(pump.live_calls(), 0, "a call was left behind");
    });
}

/// Take the finished calls among `pending` into `taken`, each exactly
/// once.
fn take(pump: &ReqPump, pending: &mut Vec<CallId>, taken: &mut BTreeMap<CallId, u64>) {
    for (call, result) in pump.take_completed(pending) {
        let fresh = taken.insert(call, value(result)).is_none();
        assert!(fresh, "{call} taken twice");
        pending.retain(|c| *c != call);
    }
}

/// The capped ReqSync stall loop: the caller side is a copy of
/// `ReqSyncExec::stall_until_low_water` (admit one call per pull; at
/// `cap` buffered, alternate a `take_completed` drain with `wait_any`
/// until occupancy is down to `cap / 2`; then drain the tail), the pump
/// under it is the real one. `cap` is ReqSync's buffer cap; the pump's
/// own cap (64) never binds. Every call is patched exactly once, and the
/// stall never misses the completion of its last pending call.
fn stall_resume(cap: usize, dispatch: DispatchMode, latency: Duration, exprs: &[&str]) {
    let pump = pump(dispatch, 64, latency);
    let lease = pump.lease();
    let (mut buffered, mut patched, mut expected) = (Vec::new(), BTreeMap::new(), BTreeMap::new());
    for expr in exprs {
        let Ok(Registered::Pending(call)) = pump.register_delivered(lease.id(), req(expr), None)
        else {
            panic!("a timed or queued call is pending");
        };
        expected.insert(call, expr.len() as u64);
        buffered.push(call);
        if buffered.len() >= cap {
            take(&pump, &mut buffered, &mut patched);
            while buffered.len() > cap / 2 {
                pump.wait_any(&buffered).unwrap();
                take(&pump, &mut buffered, &mut patched);
            }
        }
    }
    while !buffered.is_empty() {
        pump.wait_any(&buffered).unwrap();
        take(&pump, &mut buffered, &mut patched);
    }
    assert_eq!(patched, expected, "a call was never patched");
    drop(lease);
    assert_eq!(pump.live_calls(), 0);
}

#[test]
fn stall_resume_cannot_deadlock_at_cap_one() {
    explore("stall_resume_cap1", usize::MAX, || {
        stall_resume(1, DispatchMode::EventLoop, TIMED, &["~a", "~bb"])
    });
}

/// The `ThreadPool(2)` scenarios: each runs at ≤ 4 preemptions (at most
/// four switches away from a thread that could have gone on), the
/// largest bound whose tree it exhausts within 600 000 schedules, and
/// takes minutes, so CI runs them in a job of their own
/// (`-- thread_pool::`).
mod thread_pool {
    use super::*;

    /// `ReqSyncExec`'s drain: block on `wait_any`, take every finished
    /// call with `take_completed`, repeat — over two calls that
    /// `ThreadPool(2)` workers complete. A wakeup names a finished call,
    /// and each result is taken exactly once.
    #[test]
    fn wait_any_and_take_completed_deliver_each_worker_completion_once() {
        explore("thread_pool_drain", 4, || {
            let pump = pump(DispatchMode::ThreadPool(2), 64, Duration::ZERO);
            let calls = [req("a"), req("bb")].map(|r| pump.register(r).unwrap());
            let (mut pending, mut taken) = (calls.to_vec(), BTreeMap::new());
            while !pending.is_empty() {
                let woke = pump.wait_any(&pending).unwrap();
                take(&pump, &mut pending, &mut taken);
                assert!(taken.contains_key(&woke), "phantom wakeup");
            }
            assert_eq!(taken, BTreeMap::from([(calls[0], 1), (calls[1], 2)]));
            for call in calls {
                pump.release(call);
            }
            assert_eq!(pump.live_calls(), 0);
        });
    }

    #[test]
    fn stall_resume_loses_no_wakeup_under_adversarial_completion_order() {
        explore("stall_resume_cap2", 4, || {
            stall_resume(2, DispatchMode::ThreadPool(2), Duration::ZERO, &["a", "bb"])
        });
    }

    /// A race over two members, one of which coalesces onto an outside
    /// registrant's call, with the workers completing the members in
    /// either order. The group decides once, with a member's real result;
    /// cancelling the loser and dropping the race's lease drop only the
    /// race's references, so the outside registrant still gets its
    /// result; and once it releases it and the workers have stopped, no
    /// call is left.
    #[test]
    fn a_race_cancels_its_loser_without_stranding_a_coalesced_joiner() {
        explore("race_cancel", 4, || {
            let pump = pump(DispatchMode::ThreadPool(2), 64, Duration::ZERO);
            let joined = pump.register(req("bb")).unwrap();
            let race = pump.lease();
            let won = delivered(
                &pump,
                pump.register_race(race.id(), vec![req("a"), req("bb")], None),
            );
            assert!(won == 1 || won == 2, "phantom winner {won}");
            drop(race);
            assert_eq!(value(pump.wait(joined)), 2, "the joiner lost its result");
            pump.release(joined);
            pump.shutdown();
            assert_eq!(pump.live_calls(), 0, "a race left a call behind");
        });
    }
}

/// Two leases register the same request, the first dropped before the
/// second registers — while its call is queued (cancelled), on the
/// `ThreadPool(1)` worker (in flight: the second coalesces onto it), or
/// done (forgotten: the second starts afresh). The second gets the
/// result, and once it is gone and the worker has stopped, no call is
/// left.
#[test]
fn a_lease_dropped_in_flight_leaves_a_coalesced_lease_its_result() {
    explore("two_leases", usize::MAX, || {
        let pump = pump(DispatchMode::ThreadPool(1), 64, Duration::ZERO);
        let first = pump.lease();
        pump.register_delivered(first.id(), req("x"), None).unwrap();
        drop(first);
        let second = pump.lease();
        assert_eq!(
            delivered(&pump, pump.register_delivered(second.id(), req("x"), None)),
            1
        );
        drop(second);
        pump.shutdown();
        assert_eq!(pump.live_calls(), 0, "a released call was kept");
    });
}

/// `shutdown` while a waiter sleeps on a call whose reply is a second
/// away (the timer sleeps on its deadline): the waiter wakes with
/// `PumpShutdown`, and `shutdown` returns with the timer joined.
#[test]
fn shutdown_wakes_a_sleeping_waiter() {
    explore("shutdown", usize::MAX, || {
        let pump = pump(DispatchMode::EventLoop, 64, Duration::from_secs(1));
        let call = pump.register(req("~slow")).unwrap();
        let waiter = {
            let pump = pump.clone();
            thread::spawn(move || pump.wait(call))
        };
        pump.shutdown();
        assert!(matches!(waiter.join(), Err(WsqError::PumpShutdown)));
    });
}

/// A model thread panics while another holds a pump: the run aborts, and
/// the pump's drop — `shutdown` locking the state and joining the timer —
/// runs while that thread unwinds, without a second panic.
#[test]
#[should_panic(expected = "model thread")]
fn an_aborted_run_unwinds_a_pump_cleanly() {
    check_with(Config::default(), || {
        // The first schedule runs thread 1 — the panic — once this thread
        // blocks in `wait`, so the pump drops while this thread unwinds.
        let _boom = thread::spawn(|| panic!("boom"));
        let pump = pump(DispatchMode::EventLoop, 64, TIMED);
        let call = pump.register(req("~x")).unwrap();
        let _ = pump.wait(call);
    });
}
