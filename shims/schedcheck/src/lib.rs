//! Deterministic-schedule model checking for small concurrent protocols,
//! in the style of `loom` / `shuttle` but self-contained (this build
//! environment has no crates.io access — see `shims/README.md`).
//!
//! A model is a closure whose threads come from [`thread::spawn`] and
//! whose locks are the kernel's: [`sync::Mutex`], or [`raw`]'s data-less
//! mutex and condvar, which a lock library routes its own primitives
//! through when they are built inside [`check`] ([`active`]) — the
//! workspace's `parking_lot` shim does under its `schedcheck` feature, so
//! a model can drive product code unchanged. [`check`] runs the closure
//! repeatedly, each time forcing a different thread interleaving, until
//! every schedule reachable from the model's synchronization points has
//! been explored (depth-first with replay). Real OS threads execute the
//! model, but a central kernel serializes them so exactly one runs at a
//! time.
//!
//! What the checker proves, within its bounds:
//!
//! - **No lost wakeup / deadlock**: if under some schedule every live
//!   thread is blocked, the run panics with the offending schedule.
//! - **No assertion failure**: any `assert!` in the model holds under
//!   every explored schedule (a panic aborts exploration and reports the
//!   decision trace that reached it).
//! - **No livelock**: a run exceeding `max_steps` scheduling decisions
//!   fails.
//!
//! Models must be deterministic apart from scheduling: no randomness, no
//! I/O, and time only through a timed wait. A replayed decision that
//! meets a different number of runnable threads than it recorded fails,
//! naming its depth. Scheduling points are: the start of a spawned
//! thread, every mutex lock (a preemption opportunity *before*
//! acquiring), every condvar wait (block + reacquire) and every
//! `JoinHandle::join`. For protocols whose shared state is entirely
//! mutex-protected, context switches at these points reach every
//! observably distinct interleaving.
//!
//! - **Preemption bounding** ([`Config::max_preemptions`]), as in CHESS
//!   (Musuvathi & Qadeer, PLDI 2007): a schedule may switch away from a
//!   thread that could have gone on at most that many times; a switch at
//!   a thread's block or exit is free. Most concurrency bugs need only a
//!   few preemptions, and the bounded tree is far smaller.
//! - **Virtual time**: a timed wait ([`raw::Condvar::wait_until`]) times
//!   out only once every other live thread is blocked, earliest deadline
//!   first — time passes only when nothing can run.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::Instant;

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Upper bound on distinct schedules to explore. If reached, the
    /// returned [`Stats::complete`] is `false`.
    pub max_schedules: usize,
    /// Upper bound on scheduling decisions in a single run (livelock
    /// guard).
    pub max_steps: usize,
    /// Most preemptions one schedule may contain (see the crate docs);
    /// `usize::MAX`, the default, bounds nothing. [`Stats::complete`]
    /// then means every schedule within the bound was explored.
    pub max_preemptions: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_schedules: 50_000,
            max_steps: 10_000,
            max_preemptions: usize::MAX,
        }
    }
}

/// Outcome of an exploration.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Number of distinct schedules executed.
    pub schedules: usize,
    /// `true` if the schedule tree was exhausted (rather than the
    /// `max_schedules` cap being hit).
    pub complete: bool,
}

/// Explore every schedule of `model` under the default [`Config`].
/// Panics (with the decision trace) on any assertion failure, deadlock,
/// lost wakeup, livelock or replay divergence.
pub fn check<F>(model: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    check_with(Config::default(), model)
}

/// [`check`] with explicit bounds.
pub fn check_with<F>(config: Config, model: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    let model = Arc::new(model);
    let mut prefix: Vec<Decision> = Vec::new();
    let mut schedules = 0usize;
    loop {
        schedules += 1;
        let (mut decisions, failure) = run_once(config, model.clone(), &prefix);
        if let Some(msg) = failure {
            panic!(
                "schedcheck failure after {schedules} schedule(s): {msg}\n\
                 decision trace: {:?}",
                decisions.iter().map(|d| d.chosen).collect::<Vec<_>>()
            );
        }
        // Depth-first backtrack: drop exhausted trailing decisions, then
        // advance the deepest one that still has unexplored branches.
        while decisions.last().is_some_and(|d| d.chosen + 1 >= d.options) {
            decisions.pop();
        }
        let Some(last) = decisions.last_mut() else {
            return Stats {
                schedules,
                complete: true,
            };
        };
        last.chosen += 1;
        prefix = decisions;
        if schedules >= config.max_schedules {
            return Stats {
                schedules,
                complete: false,
            };
        }
    }
}

/// One scheduling decision: which of `options` runnable threads ran.
#[derive(Debug, Clone, Copy)]
struct Decision {
    chosen: usize,
    options: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedMutex(usize),
    /// Waiting on condvar `cv`; a timed wait carries its deadline.
    BlockedCv {
        cv: usize,
        deadline: Option<Instant>,
    },
    BlockedJoin(usize),
    Finished,
}

#[derive(Default)]
struct MutexState {
    held_by: Option<usize>,
    waiters: Vec<usize>,
}

#[derive(Default)]
struct CondvarState {
    waiters: VecDeque<usize>,
}

struct KernelState {
    threads: Vec<ThreadState>,
    /// Per thread: its last timed wait expired rather than being notified.
    timed_out: Vec<bool>,
    current: usize,
    steps: usize,
    preemptions: usize,
    prefix: Vec<Decision>,
    depth: usize,
    decisions: Vec<Decision>,
    mutexes: Vec<MutexState>,
    condvars: Vec<CondvarState>,
    aborting: bool,
    failure: Option<String>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
    /// Per thread: what it sleeps on while another thread has the turn,
    /// so that a handoff wakes just the thread it hands to.
    wakers: Vec<Arc<StdCondvar>>,
}

impl KernelState {
    /// Make a waiter runnable again — unless an aborting run has already
    /// finished it, while it still sat in a wait queue.
    fn unblock(&mut self, tid: usize) {
        if self.threads[tid] != ThreadState::Finished {
            self.threads[tid] = ThreadState::Runnable;
        }
    }
}

struct Kernel {
    state: StdMutex<KernelState>,
    max_steps: usize,
    max_preemptions: usize,
}

/// Panic payload used to unwind threads when a run aborts early.
struct AbortToken;

thread_local! {
    static CTX: RefCell<Option<(Arc<Kernel>, usize)>> = const { RefCell::new(None) };
}

fn current_ctx() -> (Arc<Kernel>, usize) {
    CTX.with(|c| {
        c.borrow()
            .clone()
            .expect("schedcheck primitive used outside check()")
    })
}

/// Whether this thread is a model thread of a running [`check`]: a
/// primitive built here belongs to that run.
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

impl Kernel {
    fn new(prefix: &[Decision], config: Config) -> Kernel {
        Kernel {
            state: StdMutex::new(KernelState {
                threads: vec![ThreadState::Runnable],
                timed_out: vec![false],
                current: 0,
                steps: 0,
                preemptions: 0,
                prefix: prefix.to_vec(),
                depth: 0,
                decisions: Vec::new(),
                mutexes: Vec::new(),
                condvars: Vec::new(),
                aborting: false,
                failure: None,
                os_handles: Vec::new(),
                wakers: vec![Arc::default()],
            }),
            max_steps: config.max_steps,
            max_preemptions: config.max_preemptions,
        }
    }

    fn lock_state(&self) -> StdMutexGuard<'_, KernelState> {
        match self.state.lock() {
            Ok(g) => g,
            // A model thread panicked while holding the kernel lock only
            // if the kernel itself is buggy; keep going so the trace
            // surfaces.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Record a scheduling decision among the runnable threads and hand
    /// the turn to the chosen one. Caller must currently hold the state
    /// lock and the turn. A run with no runnable thread is done (all
    /// finished), advances virtual time to the earliest timed wait, or is
    /// a deadlock / lost wakeup.
    fn choose_next(&self, st: &mut KernelState) {
        if st.aborting {
            return self.wake_everyone(st);
        }
        let mut runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == ThreadState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if st.threads.iter().all(|s| *s == ThreadState::Finished) {
                return;
            }
            let earliest = (st.threads.iter().enumerate())
                .filter_map(|(i, s)| match *s {
                    ThreadState::BlockedCv {
                        cv,
                        deadline: Some(at),
                    } => Some((at, i, cv)),
                    _ => None,
                })
                .min();
            let Some((_, timer, cv)) = earliest else {
                let blocked: Vec<(usize, ThreadState)> = (st.threads.iter().enumerate())
                    .filter(|(_, s)| **s != ThreadState::Finished)
                    .map(|(i, s)| (i, *s))
                    .collect();
                let msg = format!("deadlock / lost wakeup: all live threads blocked: {blocked:?}");
                return self.fail(st, msg);
            };
            st.condvars[cv].waiters.retain(|&w| w != timer);
            st.threads[timer] = ThreadState::Runnable;
            st.timed_out[timer] = true;
            runnable.push(timer);
        }
        // Switching away from a thread that could go on is a preemption;
        // once the bound is spent, it goes on.
        let current = st.current;
        let preemptible = st.threads[current] == ThreadState::Runnable;
        if preemptible && st.preemptions >= self.max_preemptions {
            runnable = vec![current];
        }
        let next = if runnable.len() == 1 {
            runnable[0]
        } else {
            let d = st.depth;
            st.depth += 1;
            let chosen = match st.prefix.get(d) {
                Some(recorded) if recorded.options != runnable.len() => {
                    let msg = format!(
                        "replay diverged at depth {d}: the recorded schedule had {} runnable \
                         threads here, this run has {} (is the model deterministic?)",
                        recorded.options,
                        runnable.len()
                    );
                    return self.fail(st, msg);
                }
                Some(recorded) => recorded.chosen,
                None => 0,
            };
            st.decisions.push(Decision {
                chosen,
                options: runnable.len(),
            });
            runnable[chosen]
        };
        if preemptible && next != current {
            st.preemptions += 1;
        }
        st.current = next;
        st.steps += 1;
        if st.steps > self.max_steps {
            self.fail(
                st,
                format!("step limit {} exceeded (livelock?)", self.max_steps),
            );
        }
        st.wakers[next].notify_one();
    }

    fn fail(&self, st: &mut KernelState, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.aborting = true;
        self.wake_everyone(st);
    }

    /// Every model thread re-reads the state.
    fn wake_everyone(&self, st: &KernelState) {
        st.wakers.iter().for_each(|w| w.notify_one());
    }

    /// The run is aborting: unwind `tid` quietly with [`AbortToken`] —
    /// unless it is unwinding already (a destructor reached the kernel),
    /// in which case it runs on unscheduled: a second panic would abort
    /// the process.
    fn abort_turn(&self, mut st: StdMutexGuard<'_, KernelState>, tid: usize) {
        if std::thread::panicking() {
            return;
        }
        st.threads[tid] = ThreadState::Finished;
        drop(st);
        panic::panic_any(AbortToken);
    }

    /// Block until it is `tid`'s turn (or the run is aborting).
    fn wait_turn(&self, tid: usize) {
        let mut st = self.lock_state();
        let waker = st.wakers[tid].clone();
        loop {
            if st.aborting {
                return self.abort_turn(st, tid);
            }
            if st.current == tid && st.threads[tid] == ThreadState::Runnable {
                return;
            }
            st = match waker.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// A preemption opportunity: let the scheduler pick any runnable
    /// thread (possibly the caller) before the caller proceeds.
    fn schedule_point(&self, tid: usize) {
        {
            let mut st = self.lock_state();
            if st.aborting {
                return self.abort_turn(st, tid);
            }
            self.choose_next(&mut st);
        }
        self.wait_turn(tid);
    }

    fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        st.threads.push(ThreadState::Runnable);
        st.timed_out.push(false);
        st.wakers.push(Arc::default());
        st.threads.len() - 1
    }

    /// Acquire mutex `mid`, blocking (and yielding the turn) while held,
    /// without a preemption point first. A thread unwinding out of an
    /// aborted run takes nothing and goes on.
    fn acquire(&self, tid: usize, mid: usize) {
        loop {
            {
                let mut st = self.lock_state();
                if st.aborting && std::thread::panicking() {
                    return;
                }
                if st.mutexes[mid].held_by.is_none() {
                    st.mutexes[mid].held_by = Some(tid);
                    return;
                }
                st.mutexes[mid].waiters.push(tid);
                st.threads[tid] = ThreadState::BlockedMutex(mid);
                self.choose_next(&mut st);
            }
            self.wait_turn(tid);
        }
    }

    /// Release mutex `mid` if `tid` holds it (a thread unwinding out of an
    /// aborted run may not) and make its waiters runnable. Not a decision
    /// point: the caller's next lock/wait/join/exit is, and all shared
    /// state is mutex-protected.
    fn release(&self, st: &mut KernelState, tid: usize, mid: usize) {
        if st.mutexes[mid].held_by != Some(tid) {
            return;
        }
        st.mutexes[mid].held_by = None;
        for w in std::mem::take(&mut st.mutexes[mid].waiters) {
            st.unblock(w);
        }
    }

    /// Atomically release `mid` and wait on condvar `cid` (until
    /// `deadline` in virtual time, if given); reacquire `mid` after being
    /// notified or timing out. Returns whether the wait timed out. A
    /// thread unwinding out of an aborted run returns at once.
    fn condvar_wait(&self, tid: usize, cid: usize, mid: usize, deadline: Option<Instant>) -> bool {
        {
            let mut st = self.lock_state();
            self.release(&mut st, tid, mid);
            if st.aborting && std::thread::panicking() {
                return false;
            }
            st.condvars[cid].waiters.push_back(tid);
            st.threads[tid] = ThreadState::BlockedCv { cv: cid, deadline };
            self.choose_next(&mut st);
        }
        self.wait_turn(tid);
        // Reacquire without the extra pre-acquire preemption point: the
        // wakeup itself was one.
        self.acquire(tid, mid);
        std::mem::take(&mut self.lock_state().timed_out[tid])
    }

    /// Wake the longest-waiting thread (deterministic FIFO, mirroring a
    /// fair OS wakeup; the woken thread still contends for the mutex).
    fn notify_one(&self, cid: usize) {
        let mut st = self.lock_state();
        if let Some(w) = st.condvars[cid].waiters.pop_front() {
            st.unblock(w);
        }
    }

    fn notify_all(&self, cid: usize) {
        let mut st = self.lock_state();
        while let Some(w) = st.condvars[cid].waiters.pop_front() {
            st.unblock(w);
        }
    }

    /// Block until thread `target` finishes.
    fn join_wait(&self, tid: usize, target: usize) {
        loop {
            {
                let mut st = self.lock_state();
                if st.threads[target] == ThreadState::Finished {
                    return;
                }
                st.threads[tid] = ThreadState::BlockedJoin(target);
                self.choose_next(&mut st);
            }
            self.wait_turn(tid);
        }
    }

    /// Mark `tid` finished; wake joiners; pass the turn on (or record the
    /// panic and abort the run).
    fn exit(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = self.lock_state();
        st.threads[tid] = ThreadState::Finished;
        for i in 0..st.threads.len() {
            if st.threads[i] == ThreadState::BlockedJoin(tid) {
                st.threads[i] = ThreadState::Runnable;
            }
        }
        if let Some(msg) = panic_msg {
            self.fail(&mut st, format!("model thread {tid} panicked: {msg}"));
            return;
        }
        self.choose_next(&mut st);
    }

    /// Quiet exit on [`AbortToken`] unwind.
    fn finish_quiet(&self, tid: usize) {
        self.lock_state().threads[tid] = ThreadState::Finished;
    }
}

/// Append a fresh lock's state to `states`; its index is the lock's id.
fn register<S: Default>(states: &mut Vec<S>) -> usize {
    states.push(S::default());
    states.len() - 1
}

fn payload_to_string(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run a model thread body under the kernel: wait for the first turn,
/// run, and route the exit (normal, model panic, abort unwind).
fn run_thread_body<T: Send + 'static>(
    kernel: &Arc<Kernel>,
    tid: usize,
    out: &Arc<StdMutex<Option<T>>>,
    body: impl FnOnce() -> T,
) {
    CTX.with(|c| *c.borrow_mut() = Some((kernel.clone(), tid)));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        kernel.wait_turn(tid);
        body()
    }));
    CTX.with(|c| *c.borrow_mut() = None);
    match result {
        Ok(v) => {
            if let Ok(mut slot) = out.lock() {
                *slot = Some(v);
            }
            kernel.exit(tid, None);
        }
        Err(p) if p.is::<AbortToken>() => kernel.finish_quiet(tid),
        Err(p) => kernel.exit(tid, Some(payload_to_string(p))),
    }
}

fn run_once<F>(
    config: Config,
    model: Arc<F>,
    prefix: &[Decision],
) -> (Vec<Decision>, Option<String>)
where
    F: Fn() + Send + Sync + 'static,
{
    let kernel = Arc::new(Kernel::new(prefix, config));
    let k = kernel.clone();
    let out: Arc<StdMutex<Option<()>>> = Arc::new(StdMutex::new(None));
    let o = out.clone();
    // Every model thread runs to its end (or unwinds out of an aborted
    // run); one that spawns another records it before it can finish.
    let mut threads = vec![std::thread::spawn(move || {
        run_thread_body(&k, 0, &o, move || model())
    })];
    while !threads.is_empty() {
        for t in threads {
            let _ = t.join();
        }
        threads = std::mem::take(&mut kernel.lock_state().os_handles);
    }
    let st = kernel.lock_state();
    (st.decisions.clone(), st.failure.clone())
}

/// Explicit preemption point (rarely needed; locks already preempt).
pub fn yield_now() {
    let (kernel, tid) = current_ctx();
    kernel.schedule_point(tid);
}

/// Threads under the checker.
pub mod thread {
    use super::*;

    /// Handle to a model thread; [`join`](JoinHandle::join) is a
    /// scheduling point.
    pub struct JoinHandle<T> {
        tid: usize,
        kernel: Arc<Kernel>,
        result: Arc<StdMutex<Option<T>>>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread and return its value. A panic in the
        /// target aborts the whole run, so this always yields the value —
        /// except to a thread unwinding out of an aborted run, which must
        /// not join.
        pub fn join(self) -> T {
            let (_, tid) = current_ctx();
            self.kernel.join_wait(tid, self.tid);
            let v = match self.result.lock() {
                Ok(mut g) => g.take(),
                Err(p) => p.into_inner().take(),
            };
            match v {
                Some(v) => v,
                // Target finished without a value: the run is aborting.
                None => panic::panic_any(AbortToken),
            }
        }
    }

    /// Spawn a model thread. It starts runnable but only executes when
    /// the scheduler picks it.
    pub fn spawn<T, F>(f: F) -> JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (kernel, _) = current_ctx();
        let tid = kernel.register_thread();
        let result: Arc<StdMutex<Option<T>>> = Arc::new(StdMutex::new(None));
        let k = kernel.clone();
        let r = result.clone();
        let os = std::thread::spawn(move || run_thread_body(&k, tid, &r, f));
        kernel.lock_state().os_handles.push(os);
        JoinHandle {
            tid,
            kernel,
            result,
        }
    }
}

/// The kernel's data-less primitives, for a lock library that keeps its
/// data itself: build them on a model thread inside [`check`] (see
/// [`active`]); each belongs to that run and fails loudly in another.
pub mod raw {
    use super::*;

    /// The calling thread's id, checking that `kernel` is its run's.
    fn turn(kernel: &Arc<Kernel>) -> usize {
        let (current, tid) = current_ctx();
        assert!(
            Arc::ptr_eq(&current, kernel),
            "schedcheck primitive used outside the run that built it"
        );
        tid
    }

    /// A mutex without data: [`lock`](Mutex::lock) is a scheduling point.
    pub struct Mutex {
        kernel: Arc<Kernel>,
        mid: usize,
    }

    impl Mutex {
        /// Register a mutex with the current run's kernel.
        #[allow(clippy::new_without_default)]
        pub fn new() -> Mutex {
            let (kernel, _) = current_ctx();
            let mid = register(&mut kernel.lock_state().mutexes);
            Mutex { kernel, mid }
        }

        /// Acquire (the checker may run any other thread first).
        pub fn lock(&self) {
            let tid = turn(&self.kernel);
            self.kernel.schedule_point(tid);
            self.kernel.acquire(tid, self.mid);
        }

        /// Release (not a scheduling point).
        pub fn unlock(&self) {
            let tid = turn(&self.kernel);
            self.kernel
                .release(&mut self.kernel.lock_state(), tid, self.mid);
        }
    }

    /// A condition variable with deterministic FIFO wakeup and no
    /// spurious wakeups (callers should still loop on their condition).
    pub struct Condvar {
        kernel: Arc<Kernel>,
        cid: usize,
    }

    impl Condvar {
        /// Register a condvar with the current run's kernel.
        #[allow(clippy::new_without_default)]
        pub fn new() -> Condvar {
            let (kernel, _) = current_ctx();
            let cid = register(&mut kernel.lock_state().condvars);
            Condvar { kernel, cid }
        }

        /// Release `mutex` (held by the caller), block until notified,
        /// reacquire.
        pub fn wait(&self, mutex: &Mutex) {
            let tid = turn(&self.kernel);
            self.kernel.condvar_wait(tid, self.cid, mutex.mid, None);
        }

        /// [`wait`](Condvar::wait), timing out at `deadline` in virtual
        /// time — only once every other live thread is blocked. Returns
        /// whether it timed out. The caller sleeps out the wall clock if
        /// it reads the clock afterwards.
        pub fn wait_until(&self, mutex: &Mutex, deadline: Instant) -> bool {
            let tid = turn(&self.kernel);
            self.kernel
                .condvar_wait(tid, self.cid, mutex.mid, Some(deadline))
        }

        /// Wake the longest-waiting thread, if any.
        pub fn notify_one(&self) {
            self.kernel.notify_one(self.cid);
        }

        /// Wake all waiting threads.
        pub fn notify_all(&self) {
            self.kernel.notify_all(self.cid);
        }
    }
}

/// Synchronization primitives under the checker.
pub mod sync {
    use super::*;
    use std::ops::{Deref, DerefMut};

    /// A mutex whose acquisition order the checker controls. The data
    /// sits in a std mutex that the kernel's exclusion keeps uncontended
    /// (and that still excludes threads unwinding out of an aborted run).
    pub struct Mutex<T> {
        raw: raw::Mutex,
        data: StdMutex<T>,
    }

    /// RAII guard; dropping releases the lock (not a scheduling point).
    pub struct MutexGuard<'a, T> {
        raw: &'a raw::Mutex,
        data: StdMutexGuard<'a, T>,
    }

    impl<T> Mutex<T> {
        /// Create a mutex registered with the current run's kernel; only
        /// valid inside [`check`](super::check()).
        #[allow(clippy::new_without_default)]
        pub fn new(value: T) -> Mutex<T> {
            Mutex {
                raw: raw::Mutex::new(),
                data: StdMutex::new(value),
            }
        }

        /// Acquire (a scheduling point: the checker may run any other
        /// thread first).
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.raw.lock();
            let data = self.data.lock().unwrap_or_else(|p| p.into_inner());
            MutexGuard {
                raw: &self.raw,
                data,
            }
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.data
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.data
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.raw.unlock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::Mutex;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn covers_both_orders_of_two_racing_threads() {
        // Record which thread got the lock first across all schedules;
        // a real exploration must see both orders.
        let first_a = StdArc::new(AtomicUsize::new(0));
        let first_b = StdArc::new(AtomicUsize::new(0));
        let (fa, fb) = (first_a.clone(), first_b.clone());
        let stats = check(move || {
            let slot = StdArc::new(Mutex::new(None::<&'static str>));
            let s1 = slot.clone();
            let s2 = slot.clone();
            let t1 = thread::spawn(move || {
                let mut g = s1.lock();
                if g.is_none() {
                    *g = Some("a");
                }
            });
            let t2 = thread::spawn(move || {
                let mut g = s2.lock();
                if g.is_none() {
                    *g = Some("b");
                }
            });
            t1.join();
            t2.join();
            match *slot.lock() {
                Some("a") => fa.fetch_add(1, Ordering::Relaxed),
                Some("b") => fb.fetch_add(1, Ordering::Relaxed),
                _ => panic!("slot never filled"),
            };
        });
        assert!(stats.complete);
        assert!(first_a.load(Ordering::Relaxed) > 0, "never saw a-first");
        assert!(first_b.load(Ordering::Relaxed) > 0, "never saw b-first");
    }

    #[test]
    #[should_panic(expected = "model thread")]
    fn reports_assertion_failures_with_a_trace() {
        check(|| {
            let v = StdArc::new(Mutex::new(0u32));
            let v2 = v.clone();
            let t = thread::spawn(move || {
                *v2.lock() += 1;
            });
            // Racy read: under the child-first schedule this sees 1 and
            // the assert below fires.
            let seen = *v.lock();
            t.join();
            assert_eq!(seen, 0, "child ran before parent read");
        });
    }

    #[test]
    fn bound_zero_explores_one_schedule() {
        // Two threads touching one mutex: several schedules unbounded, each
        // keeping every read-modify-write under the guard atomic; but each
        // alternative needs a preemption, so bound 0 runs just one.
        let model = || {
            let v = StdArc::new(Mutex::new(0u32));
            let v2 = v.clone();
            let t = thread::spawn(move || *v2.lock() += 1);
            *v.lock() += 1;
            *v.lock() += 1;
            t.join();
            assert_eq!(*v.lock(), 3);
        };
        assert!(check(model).schedules > 1);
        let bound_zero = Config {
            max_preemptions: 0,
            ..Config::default()
        };
        let stats = check_with(bound_zero, model);
        assert!(stats.complete);
        assert_eq!(stats.schedules, 1);
    }

    #[test]
    #[should_panic(expected = "replay diverged at depth 0")]
    fn replay_divergence_is_a_failure() {
        // A model that spawns one more thread on every run: the second
        // run's first decision sees more runnable threads than the first
        // run recorded there.
        let runs = StdArc::new(AtomicUsize::new(0));
        check(move || {
            let extra = runs.fetch_add(1, Ordering::Relaxed);
            let handles: Vec<_> = (0..=extra).map(|_| thread::spawn(|| {})).collect();
            yield_now();
            for h in handles {
                h.join();
            }
        });
    }

    #[test]
    fn a_timed_wait_expires_only_when_every_other_thread_is_blocked() {
        // The setter never notifies, so the waiter leaves only by timing
        // out; virtual time means it never does while the setter can
        // still run, so it always sees the flag set.
        let timeouts = StdArc::new(AtomicUsize::new(0));
        let t = timeouts.clone();
        let stats = check(move || {
            let (m, cv) = (raw::Mutex::new(), raw::Condvar::new());
            let done = StdArc::new(Mutex::new(false));
            let done2 = done.clone();
            let setter = thread::spawn(move || *done2.lock() = true);
            m.lock();
            while !*done.lock() {
                assert!(cv.wait_until(&m, Instant::now()), "nobody notifies");
                assert!(*done.lock(), "timed out while the setter could run");
                t.fetch_add(1, Ordering::Relaxed);
            }
            m.unlock();
            setter.join();
        });
        assert!(stats.complete);
        assert!(
            timeouts.load(Ordering::Relaxed) > 0,
            "no schedule timed out"
        );
    }
}
