//! Minimal `parking_lot` stand-in backed by `std::sync`.
//!
//! The build container has no crates.io access, so the workspace patches
//! `parking_lot` to this shim (see the root `Cargo.toml`). Only the API
//! surface the workspace uses is provided: `Mutex`, `RwLock`, and
//! `Condvar` with non-poisoning guards (a poisoned std lock is recovered
//! transparently, matching parking_lot's no-poisoning semantics).
//!
//! Built with `debug_assertions`, every lock is checked by the `lockdep`
//! module, which the real crate lacks: a lock-order graph over the sites
//! that build locks, which panics on a cycle or on nested locks of one
//! class, and a held-guard check — a condvar wait may hold only the guard
//! it releases, and [`assert_no_guard_held`] none, barring the sites on
//! [`lockdep::ALLOWED`]. Release builds compile all of it out.
//!
//! The test-only `count` feature adds a process-wide count of lock
//! acquisitions (`acquisitions()`), so a guard test can hold a code path
//! to an exact number of them. A condvar wait re-acquiring its mutex is
//! part of the hold it waits in, not counted.
//!
//! The test-only `schedcheck` feature makes a `Mutex` or `Condvar` built
//! on a model thread inside `schedcheck::check` the checker's: its
//! `lock`, `wait*` and `notify_*` go through that run's kernel, and its
//! data stays in the (uncontended) std lock. Built outside a check a lock
//! is plain `std`; inside one, what the checker does not model (`RwLock`,
//! `try_lock` on a modelled mutex, a plain condvar wait) panics. A timed
//! wait times out in the checker's virtual time, then sleeps out the wall
//! clock to its deadline, so a caller re-reading `Instant::now()` agrees.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::{Duration, Instant};

#[cfg(debug_assertions)]
pub mod lockdep;

/// Panic if this thread holds a guard not taken at a
/// [`lockdep::ALLOWED`] site. For a point that must not block others:
/// before a call out, or before joining a thread. Compiled out without
/// `debug_assertions`.
#[cfg_attr(debug_assertions, track_caller)]
#[inline]
pub fn assert_no_guard_held() {
    #[cfg(debug_assertions)]
    lockdep::check_held(None, "assert_no_guard_held");
}

/// Lock acquisitions so far (a statistic: publishes no other data).
#[cfg(feature = "count")]
static ACQUISITIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// `Mutex::lock`, a successful `Mutex::try_lock`, `RwLock::read` and
/// `RwLock::write` calls in this process so far, over every thread.
#[cfg(feature = "count")]
pub fn acquisitions() -> u64 {
    ACQUISITIONS.load(std::sync::atomic::Ordering::Relaxed)
}

#[inline]
fn acquired() {
    #[cfg(feature = "count")]
    ACQUISITIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// A mutual-exclusion primitive with parking_lot's non-poisoning API.
pub struct Mutex<T: ?Sized> {
    /// The checker's mutex, if this one was built inside a check.
    #[cfg(feature = "schedcheck")]
    model: Option<schedcheck::raw::Mutex>,
    #[cfg(debug_assertions)]
    class: lockdep::Site,
    inner: sync::Mutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "schedcheck")]
    lock: &'a Mutex<T>,
    guard: Option<sync::MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    held: lockdep::Held,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    #[cfg(not(feature = "schedcheck"))]
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        Mutex {
            #[cfg(debug_assertions)]
            class: std::panic::Location::caller(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Create a new mutex, modelled if built inside a check.
    #[cfg(feature = "schedcheck")]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn new(value: T) -> Self {
        Mutex {
            model: schedcheck::active().then(schedcheck::raw::Mutex::new),
            #[cfg(debug_assertions)]
            class: std::panic::Location::caller(),
            inner: sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        acquired();
        #[cfg(debug_assertions)]
        let held = lockdep::acquire(self.class);
        #[cfg(feature = "schedcheck")]
        match &self.model {
            Some(model) => model.lock(),
            // Blocking on a plain lock would stall the checker's one
            // running thread.
            None if schedcheck::active() => {
                let contended =
                    "parking_lot: a Mutex built outside schedcheck::check is contended inside it";
                let guard = self.try_lock_std().expect(contended);
                return self.guard(
                    guard,
                    #[cfg(debug_assertions)]
                    held,
                );
            }
            None => {}
        }
        self.guard(
            self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            #[cfg(debug_assertions)]
            held,
        )
    }

    /// Try to acquire the lock without blocking.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(feature = "schedcheck")]
        assert!(
            self.model.is_none(),
            "parking_lot: try_lock is not modelled by schedcheck"
        );
        let guard = self.try_lock_std()?;
        acquired();
        Some(self.guard(
            guard,
            #[cfg(debug_assertions)]
            lockdep::try_acquire(self.class),
        ))
    }

    fn try_lock_std(&self) -> Option<sync::MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    fn guard<'a>(
        &'a self,
        guard: sync::MutexGuard<'a, T>,
        #[cfg(debug_assertions)] held: lockdep::Held,
    ) -> MutexGuard<'a, T> {
        MutexGuard {
            #[cfg(feature = "schedcheck")]
            lock: self,
            guard: Some(guard),
            #[cfg(debug_assertions)]
            held,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

#[cfg(feature = "schedcheck")]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // The data first, then the checker's hold on it.
        self.guard = None;
        if let Some(model) = &self.lock.model {
            model.unlock();
        }
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True iff the wait returned because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with [`MutexGuard`].
pub struct Condvar {
    /// The checker's condvar, if this one was built inside a check.
    #[cfg(feature = "schedcheck")]
    model: Option<schedcheck::raw::Condvar>,
    inner: sync::Condvar,
}

impl Default for Condvar {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    /// Create a new condition variable.
    #[cfg(not(feature = "schedcheck"))]
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Create a new condition variable, modelled if built inside a check.
    #[cfg(feature = "schedcheck")]
    pub fn new() -> Self {
        Condvar {
            model: schedcheck::active().then(schedcheck::raw::Condvar::new),
            inner: sync::Condvar::new(),
        }
    }

    /// Block until notified, atomically releasing the guard's lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(debug_assertions)]
        lockdep::check_held(Some(&guard.held), "a condvar wait");
        #[cfg(feature = "schedcheck")]
        if self.model_wait(guard, None).is_some() {
            return;
        }
        let g = guard.guard.take().expect("guard present");
        guard.guard = Some(self.inner.wait(g).unwrap_or_else(|e| e.into_inner()));
    }

    /// Block until notified or `deadline` passes.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        #[cfg(debug_assertions)]
        lockdep::check_held(Some(&guard.held), "a condvar wait");
        #[cfg(feature = "schedcheck")]
        if let Some(result) = self.model_wait(guard, Some(deadline)) {
            return result;
        }
        let timeout = deadline.saturating_duration_since(Instant::now());
        let g = guard.guard.take().expect("guard present");
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.guard = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    /// Block until notified or `timeout` elapses.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.wait_until(guard, Instant::now() + timeout)
    }

    /// The wait through the checker's kernel, for a modelled condvar and
    /// mutex; `None` outside a check, where both are plain.
    #[cfg(feature = "schedcheck")]
    fn model_wait<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Option<Instant>,
    ) -> Option<WaitTimeoutResult> {
        let (cv, mutex) = match (&self.model, &guard.lock.model) {
            (Some(cv), Some(mutex)) => (cv, mutex),
            (None, None) if !schedcheck::active() => return None,
            _ => panic!(
                "parking_lot: a Condvar wait inside schedcheck::check needs a Condvar and a \
                 Mutex both built inside it"
            ),
        };
        guard.guard = None;
        let timed_out = match deadline {
            Some(deadline) => {
                let timed_out = cv.wait_until(mutex, deadline);
                if timed_out {
                    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                }
                timed_out
            }
            None => {
                cv.wait(mutex);
                false
            }
        };
        guard.guard = Some(guard.lock.inner.lock().unwrap_or_else(|e| e.into_inner()));
        Some(WaitTimeoutResult(timed_out))
    }

    /// Wake one waiter. Returns whether a thread may have been woken
    /// (std does not report this; `true` keeps callers conservative).
    pub fn notify_one(&self) -> bool {
        #[cfg(feature = "schedcheck")]
        if let Some(cv) = &self.model {
            cv.notify_one();
            return true;
        }
        self.inner.notify_one();
        true
    }

    /// Wake all waiters. parking_lot returns the count; std cannot, so
    /// this reports 0 — no workspace caller reads it.
    pub fn notify_all(&self) -> usize {
        #[cfg(feature = "schedcheck")]
        if let Some(cv) = &self.model {
            cv.notify_all();
            return 0;
        }
        self.inner.notify_all();
        0
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A reader-writer lock with parking_lot's non-poisoning API.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: lockdep::Site,
    inner: sync::RwLock<T>,
}

/// RAII shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: lockdep::Held,
}

/// RAII exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: lockdep::Held,
}

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        RwLock {
            #[cfg(debug_assertions)]
            class: std::panic::Location::caller(),
            inner: sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// An `RwLock` is not modelled: using one inside a check would bypass the
/// checker.
#[inline]
fn unmodelled_rwlock() {
    #[cfg(feature = "schedcheck")]
    assert!(
        !schedcheck::active(),
        "parking_lot: RwLock is not modelled by schedcheck"
    );
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        unmodelled_rwlock();
        acquired();
        RwLockReadGuard {
            #[cfg(debug_assertions)]
            _held: lockdep::acquire(self.class),
            guard: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquire an exclusive write lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        unmodelled_rwlock();
        acquired();
        RwLockWriteGuard {
            #[cfg(debug_assertions)]
            _held: lockdep::acquire(self.class),
            guard: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut flag = m.lock();
            *flag = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut flag = m.lock();
        while !*flag {
            cv.wait(&mut flag);
        }
        t.join().unwrap();
        assert!(*flag);
    }

    #[test]
    fn wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[cfg(feature = "count")]
    #[test]
    fn every_acquisition_is_counted() {
        let m = Mutex::new(0);
        let l = RwLock::new(0);
        let before = acquisitions();
        *m.lock() += 1;
        assert!(m.try_lock().is_some());
        let held = m.lock();
        assert!(m.try_lock().is_none(), "a failed try_lock acquires nothing");
        drop(held);
        drop(l.read());
        *l.write() += 1;
        // Other tests may lock concurrently: at least these five.
        assert!(acquisitions() - before >= 5);
    }

    #[test]
    fn rwlock_allows_concurrent_reads() {
        let l = RwLock::new(5);
        let a = l.read();
        let b = std::thread::scope(|s| s.spawn(|| *l.read()).join().unwrap());
        assert_eq!(*a + b, 10);
        drop(a);
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
    }

    /// The lockdep rules, in every debug build.
    #[cfg(debug_assertions)]
    mod lockdep_rules {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn panic_text(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
            let payload = catch_unwind(f).expect_err("the check did not fire");
            match payload.downcast::<String>() {
                Ok(text) => *text,
                Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
            }
        }

        /// Take `first`, then `second`; the line both are taken on.
        fn nest(first: &Mutex<()>, second: &Mutex<()>) -> u32 {
            let _held = first.lock();
            (line!(), drop(second.lock())).0
        }

        /// The same, from a second function.
        fn nest_again(first: &Mutex<()>, second: &Mutex<()>) -> u32 {
            let _held = first.lock();
            (line!(), drop(second.lock())).0
        }

        #[test]
        fn a_cycle_across_two_functions_names_both_sites() {
            let (a, b) = (Mutex::new(()), Mutex::new(()));
            let ab = nest(&a, &b);
            // A recorded order may repeat, from anywhere.
            let ba = nest_again(&a, &b);
            let text = panic_text(|| {
                nest_again(&b, &a);
            });
            assert!(text.contains("lock order cycle"), "{text}");
            for line in [ab, ba] {
                assert!(
                    text.contains(&format!("src/lib.rs:{line}:")),
                    "{line}: {text}"
                );
            }
        }

        #[test]
        fn nesting_two_locks_of_one_class_panics() {
            let locks: Vec<Mutex<()>> = (0..2).map(|_| Mutex::new(())).collect();
            let _first = locks[0].lock();
            let text = panic_text(|| drop(locks[1].lock()));
            assert!(text.contains("nested locks of one class"), "{text}");
        }

        #[test]
        fn a_held_guard_fails_assert_no_guard_held() {
            let m = Mutex::new(());
            let (held, line) = (m.lock(), line!());
            let text = panic_text(assert_no_guard_held);
            assert!(text.contains("assert_no_guard_held"), "{text}");
            assert!(text.contains(&format!("src/lib.rs:{line}:")), "{text}");
            drop(held);
            assert_no_guard_held();
        }

        #[test]
        fn a_condvar_wait_may_hold_only_the_guard_it_releases() {
            let (m, other, cv) = (Mutex::new(()), Mutex::new(()), Condvar::new());
            let mut g = m.lock();
            assert!(cv.wait_for(&mut g, Duration::ZERO).timed_out());
            let held = other.lock();
            let text = panic_text(AssertUnwindSafe(|| {
                let _ = cv.wait_for(&mut g, Duration::ZERO);
            }));
            assert!(text.contains("a condvar wait"), "{text}");
            drop(held);
        }

        #[test]
        fn guards_leave_by_identity_when_dropped_out_of_order() {
            let (a, b, cv) = (Mutex::new(()), Mutex::new(()), Condvar::new());
            let first = a.lock();
            let mut second = b.lock();
            drop(first);
            // Only `second` is held now: waiting on it passes.
            assert!(cv.wait_for(&mut second, Duration::ZERO).timed_out());
            drop(second);
            assert_no_guard_held();
        }

        #[test]
        fn rwlock_guards_are_held_until_dropped() {
            let l = RwLock::new(0);
            let read = l.read();
            assert!(panic_text(assert_no_guard_held).contains("assert_no_guard_held"));
            let text = panic_text(AssertUnwindSafe(|| drop(l.read())));
            assert!(text.contains("nested locks of one class"), "{text}");
            drop(read);
            let mut write = l.write();
            *write += 1;
            assert!(panic_text(assert_no_guard_held).contains("assert_no_guard_held"));
            drop(write);
            assert_no_guard_held();
            assert_eq!(*l.read(), 1);
        }
    }

    /// The locks under the `schedcheck` feature: modelled inside a check,
    /// plain outside, loud where the checker cannot see.
    #[cfg(feature = "schedcheck")]
    mod under_schedcheck {
        use super::*;
        use schedcheck::{check, check_with, thread, Config};

        /// Test-then-wait without holding the lock across the test: a
        /// notify landing in between is lost, and one preemption — the
        /// consumer's, between its test and its wait — does it.
        fn lost_wakeup(max_preemptions: usize) {
            let config = Config {
                max_preemptions,
                ..Config::default()
            };
            check_with(config, || {
                let flag = Arc::new((Mutex::new(false), Condvar::new()));
                let f = flag.clone();
                let _producer = thread::spawn(move || {
                    let (m, cv) = &*f;
                    *m.lock() = true;
                    cv.notify_one();
                });
                let (m, cv) = &*flag;
                let ready = *m.lock(); // guard dropped: race window opens
                if !ready {
                    cv.wait(&mut m.lock()); // may wait forever
                }
            });
        }

        #[test]
        #[should_panic(expected = "deadlock / lost wakeup")]
        fn detects_a_seeded_lost_wakeup() {
            lost_wakeup(usize::MAX);
        }

        #[test]
        #[should_panic(expected = "deadlock / lost wakeup")]
        fn bound_one_still_finds_the_seeded_lost_wakeup() {
            lost_wakeup(1);
        }

        #[test]
        fn a_condvar_handshake_completes_under_every_schedule() {
            let stats = check(|| {
                let flag = Arc::new((Mutex::new(false), Condvar::new()));
                let f = flag.clone();
                let producer = thread::spawn(move || {
                    let (m, cv) = &*f;
                    *m.lock() = true;
                    cv.notify_one();
                });
                let (m, cv) = &*flag;
                let mut g = m.lock();
                while !*g {
                    cv.wait(&mut g);
                }
                drop(g);
                producer.join();
            });
            assert!(stats.complete && stats.schedules > 1);
        }

        #[test]
        fn a_lock_built_outside_a_check_works_inside_one() {
            let outside = Arc::new(Mutex::new(0usize));
            let o = outside.clone();
            let stats = check(move || {
                let inside = Arc::new(Mutex::new(()));
                let i = inside.clone();
                let t = thread::spawn(move || drop(i.lock()));
                *o.lock() += 1;
                drop(inside.lock());
                t.join();
            });
            assert!(stats.complete && stats.schedules > 1);
            assert_eq!(*outside.lock(), stats.schedules);
        }

        #[test]
        fn a_timed_wait_times_out_in_virtual_time_and_sleeps_out_the_wall_clock() {
            check(|| {
                let (m, cv) = (Mutex::new(()), Condvar::new());
                let deadline = Instant::now() + Duration::from_millis(2);
                assert!(cv.wait_until(&mut m.lock(), deadline).timed_out());
                assert!(Instant::now() >= deadline);
            });
        }

        #[test]
        #[should_panic(expected = "RwLock is not modelled")]
        fn an_rwlock_inside_a_check_panics() {
            check(|| drop(RwLock::new(0).read()));
        }

        #[test]
        #[should_panic(expected = "try_lock is not modelled")]
        fn try_lock_on_a_modelled_mutex_panics() {
            check(|| drop(Mutex::new(0).try_lock()));
        }

        #[test]
        #[should_panic(expected = "needs a Condvar and a Mutex both built inside it")]
        fn a_plain_condvar_wait_inside_a_check_panics() {
            let cv = Arc::new(Condvar::new());
            check(move || {
                let m = Mutex::new(());
                cv.wait_for(&mut m.lock(), Duration::ZERO);
            });
        }

        #[test]
        #[should_panic(expected = "contended inside it")]
        fn a_contended_plain_mutex_inside_a_check_panics() {
            // A lock built outside the check, held across a scheduling
            // point: the other model thread must not block on it unseen.
            let outside = Arc::new(Mutex::new(()));
            check(move || {
                let o = outside.clone();
                let t = thread::spawn(move || drop(o.lock()));
                let held = outside.lock();
                schedcheck::yield_now();
                drop(held);
                t.join();
            });
        }
    }
}
