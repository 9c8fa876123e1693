//! Minimal `parking_lot` stand-in backed by `std::sync`.
//!
//! The build container has no crates.io access, so the workspace patches
//! `parking_lot` to this shim (see the root `Cargo.toml`). Only the API
//! surface the workspace uses is provided: `Mutex`, `RwLock`, and
//! `Condvar` with non-poisoning guards (a poisoned std lock is recovered
//! transparently, matching parking_lot's no-poisoning semantics).
//!
//! The test-only `count` feature adds what the real crate lacks: a
//! process-wide count of lock acquisitions (`acquisitions()`), so a guard
//! test can hold a code path to an exact number of them. A condvar wait
//! re-acquiring its mutex is part of the hold it waits in, not counted.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::{Duration, Instant};

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
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        acquired();
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.0.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        acquired();
        Some(MutexGuard(Some(guard)))
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present")
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
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Block until notified, atomically releasing the guard's lock.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(g).unwrap_or_else(|e| e.into_inner()));
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.0.take().expect("guard present");
        let (g, res) = self
            .0
            .wait_timeout(g, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wake one waiter. Returns whether a thread may have been woken
    /// (std does not report this; `true` keeps callers conservative).
    pub fn notify_one(&self) -> bool {
        self.0.notify_one();
        true
    }

    /// Wake all waiters. parking_lot returns the count; std cannot, so
    /// this reports 0 — no workspace caller reads it.
    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A reader-writer lock with parking_lot's non-poisoning API.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(sync::RwLockReadGuard<'a, T>);

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        acquired();
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        acquired();
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
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
        let b = l.read();
        assert_eq!(*a + *b, 10);
        drop((a, b));
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
    }
}
