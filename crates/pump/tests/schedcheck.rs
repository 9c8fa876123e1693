//! The real [`ReqPump`] under the `schedcheck` model checker.
//!
//! With the `schedcheck` feature every lock the pump takes is a
//! scheduling point of the checker, and its timer thread is a model
//! thread, so each scenario explores the interleavings of the product code
//! itself: unbounded where the schedule tree is small, within a CHESS-style
//! preemption bound where it is not. `-- --nocapture` prints each bound and
//! schedule count.
//!
//! A timed reply declares 1 ns of latency, so it is due whenever the timer
//! thread looks: which thread delivers it, and when, is the scheduler's
//! choice, and no run depends on the wall clock.

use schedcheck::{check_with, thread, Config};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsq_common::{Result, WsqError};
use wsq_pump::{
    CacheConfig, CallId, PumpConfig, Registered, ReqPump, RequestKind, SearchRequest, SearchResult,
    SearchService, ServiceReply,
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
fn pump(max_concurrent: usize, latency: Duration) -> Arc<ReqPump> {
    let pump = ReqPump::new(PumpConfig {
        max_concurrent,
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
        let pump = pump(1, TIMED);
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
fn stall_resume(cap: usize, exprs: &[&str]) {
    let pump = pump(64, TIMED);
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
        stall_resume(1, &["~a", "~bb"])
    });
}

#[test]
fn stall_resume_loses_no_wakeup_under_adversarial_completion_order() {
    explore("stall_resume_cap2", usize::MAX, || {
        stall_resume(2, &["~a", "~bb"])
    });
}

/// `ReqSyncExec`'s drain — block on `wait_any`, take every finished call
/// with `take_completed`, repeat — over a timed call and one queued behind
/// it at a pump cap of 1. A second registrant makes and waits for a call of
/// its own, so each of the waiter's calls is launched by whichever thread
/// frees the slot — the waiter, the registrant or the timer. A wakeup names
/// a finished call, each result is taken exactly once, and nothing is
/// left. It runs within ≤ 4 preemptions (at most four switches away from a
/// thread that could have gone on), the largest bound whose tree it
/// exhausts within the schedule cap.
#[test]
fn wait_any_and_take_completed_deliver_each_completion_once() {
    explore("drain", 4, || {
        let pump = pump(1, TIMED);
        let other = {
            let pump = pump.clone();
            thread::spawn(move || {
                let call = pump.register(req("c")).unwrap();
                assert_eq!(value(pump.wait(call)), 1);
                pump.release(call);
            })
        };
        let calls = [req("~a"), req("bb")].map(|r| pump.register(r).unwrap());
        let (mut pending, mut taken) = (calls.to_vec(), BTreeMap::new());
        while !pending.is_empty() {
            let woke = pump.wait_any(&pending).unwrap();
            take(&pump, &mut pending, &mut taken);
            assert!(taken.contains_key(&woke), "phantom wakeup");
        }
        assert_eq!(taken, BTreeMap::from([(calls[0], 2), (calls[1], 2)]));
        for call in calls {
            pump.release(call);
        }
        other.join();
        assert_eq!(pump.live_calls(), 0);
    });
}

/// Schedules in which the race below was won by its instant member, and
/// by its timed one.
static INSTANT_WON: AtomicUsize = AtomicUsize::new(0);
static TIMED_WON: AtomicUsize = AtomicUsize::new(0);

/// A race over two members — `a` instant, `~bb` timed and coalesced onto
/// an outside registrant's call — that either can win: `a` when it
/// completes first, `~bb` when the timer delivered it before the race
/// registered. The group decides once, with a member's real result;
/// cancelling the loser and dropping the race's lease drop only the race's
/// references, so the outside registrant still gets its result; and once
/// it releases it and the pump has shut down, no call is left.
#[test]
fn a_race_cancels_its_loser_without_stranding_a_coalesced_joiner() {
    explore("race_cancel", usize::MAX, || {
        let pump = pump(64, TIMED);
        let joined = pump.register(req("~bb")).unwrap();
        let race = pump.lease();
        let won = delivered(
            &pump,
            pump.register_race(race.id(), vec![req("a"), req("~bb")], None),
        );
        match won {
            1 => INSTANT_WON.fetch_add(1, Ordering::Relaxed),
            3 => TIMED_WON.fetch_add(1, Ordering::Relaxed),
            _ => panic!("phantom winner {won}"),
        };
        drop(race);
        assert_eq!(value(pump.wait(joined)), 3, "the joiner lost its result");
        pump.release(joined);
        pump.shutdown();
        assert_eq!(pump.live_calls(), 0, "a race left a call behind");
    });
    let won = [&INSTANT_WON, &TIMED_WON].map(|n| n.load(Ordering::Relaxed));
    println!(
        "race_cancel: winners a / ~bb in {} / {} schedules",
        won[0], won[1]
    );
    assert!(won.iter().all(|&n| n > 0), "a member never won: {won:?}");
}

/// Two leases register the same timed request, the first dropped before
/// the second registers — while its call is parked (in flight: the second
/// coalesces onto it) or done (forgotten: the second starts afresh). The
/// second gets the result, and once it is gone and the pump has shut down,
/// no call is left.
#[test]
fn a_lease_dropped_in_flight_leaves_a_coalesced_lease_its_result() {
    explore("two_leases", usize::MAX, || {
        let pump = pump(64, TIMED);
        let first = pump.lease();
        pump.register_delivered(first.id(), req("~x"), None)
            .unwrap();
        drop(first);
        let second = pump.lease();
        assert_eq!(
            delivered(&pump, pump.register_delivered(second.id(), req("~x"), None)),
            2
        );
        drop(second);
        pump.shutdown();
        assert_eq!(pump.live_calls(), 0, "a released call was kept");
    });
}

/// Two threads register the same timed request to a destination that
/// keeps its results, under a global cap of 1; one drops its lease as
/// soon as it has registered — while the call is in flight, or once it is
/// done — and the other waits for its result. However they interleave
/// with the timer's delivery, the second joins the call, or is delivered
/// the result the pump kept when the first let go of it: the request
/// launches exactly once, every registration gets its result, a later one
/// is delivered the kept result at once, and nothing is live at
/// quiescence. Two registrants that each wait, with the timer, make a
/// tree of 270 504 schedules (over three minutes): the bound of 4
/// preemptions, as for the drain, explores 8 566 in seconds.
#[test]
fn a_result_released_in_flight_is_kept_for_a_concurrent_registration() {
    explore("kept_result", 4, || {
        let pump = ReqPump::new(PumpConfig {
            max_concurrent: 1,
            ..PumpConfig::default()
        });
        let cache = Some(CacheConfig::default());
        pump.register_service_with("AV", Arc::new(Len(TIMED)), cache);
        let releaser = {
            let pump = pump.clone();
            thread::spawn(move || {
                let lease = pump.lease();
                pump.register_delivered(lease.id(), req("~x"), None)
                    .expect("registration succeeds");
            })
        };
        let lease = pump.lease();
        assert_eq!(
            delivered(&pump, pump.register_delivered(lease.id(), req("~x"), None)),
            2
        );
        drop(lease);
        releaser.join();
        let later = pump.lease();
        let kept = pump.register_delivered(later.id(), req("~x"), None);
        assert!(
            matches!(kept, Ok(Registered::Delivered(_, Ok(_)))),
            "the result was not kept: {kept:?}"
        );
        drop(later);
        let stats = pump.stats();
        assert_eq!(stats.launched, 1, "the request launched twice");
        assert_eq!(stats.registered, 3);
        pump.shutdown();
        assert_eq!(pump.live_calls(), 0, "a call was left live");
    });
}

/// `shutdown` against a thread that registers a call whose reply is a
/// second away (the timer sleeps on its deadline), waits for it and
/// releases it: the shutdown lands before the registration, while its
/// `execute` runs, while the reply is parked, or while the thread sleeps
/// in `wait`. The thread gets `PumpShutdown` however it races, `shutdown`
/// returns with the timer joined, and no call is left.
#[test]
fn shutdown_wakes_a_sleeping_waiter() {
    explore("shutdown", usize::MAX, || {
        let pump = pump(64, Duration::from_secs(1));
        let waiter = {
            let pump = pump.clone();
            thread::spawn(move || {
                let call = pump.register(req("~slow"))?;
                let waited = pump.wait(call);
                pump.release(call);
                waited
            })
        };
        pump.shutdown();
        assert!(matches!(waiter.join(), Err(WsqError::PumpShutdown)));
        assert_eq!(pump.live_calls(), 0, "shutdown stranded a call");
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
        let pump = pump(64, TIMED);
        let call = pump.register(req("~x")).unwrap();
        let _ = pump.wait(call);
    });
}
