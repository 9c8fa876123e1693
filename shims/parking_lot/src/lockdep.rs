//! The lock-order and held-guard check (after the Linux kernel's lockdep,
//! `Documentation/locking/lockdep-design.rst`), compiled in exactly when
//! `debug_assertions` are on.
//!
//! A lock's *class* is the site that built it (`new` and `default` are
//! `#[track_caller]`, so a derived `Default` names its struct). Each
//! thread keeps the guards it holds, each with the class of its lock and
//! the site that took it, and removes a guard by identity when it drops:
//! guards may drop out of order. Taking a lock of class B while holding
//! one of class A records the edge A → B in one process-wide graph. An
//! edge that closes a cycle panics, naming the sites of both orders, and
//! so does taking a lock of a class the thread already holds.
//!
//! [`assert_no_guard_held`](crate::assert_no_guard_held) and every condvar wait (which may hold only
//! the guard it releases) check the held guards themselves. A guard
//! taken at an [`ALLOWED`] site is excused and counted
//! ([`allowlist_hits`]); any other fails the check.
//!
//! The graph sits behind a plain `std` mutex, which the `count` feature
//! does not count. No check runs on a thread that is already panicking.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};

/// A source site: a lock's class, or where a guard was taken.
pub(crate) type Site = &'static Location<'static>;

/// Guards that may be held where no guard should be, each keyed by the
/// site that takes it: the path's tail, a colon and the line. The list
/// may only shrink: `tests/lockdep.rs` at the repository root drives each
/// entry and fails on one that no longer fires.
pub const ALLOWED: &[&str] = &[
    // ROADMAP 17: `Session::query` holds the database read lock across
    // its query's web calls.
    "crates/core/src/session.rs:197",
    // ROADMAP 17: a SELECT in `Session::execute`, likewise.
    "crates/core/src/session.rs:218",
    // ROADMAP 17: `Session::query_cursor` holds it while `open_query`
    // launches the calls of the cursor's first rows.
    "crates/core/src/session.rs:259",
    // ROADMAP 17: `Session::analyze`, likewise.
    "crates/core/src/session.rs:287",
];

static HITS: [AtomicU64; ALLOWED.len()] = [const { AtomicU64::new(0) }; ALLOWED.len()];

/// Each [`ALLOWED`] entry with the number of times a check excused it.
pub fn allowlist_hits() -> Vec<(&'static str, u64)> {
    ALLOWED
        .iter()
        .zip(&HITS)
        .map(|(&site, hits)| (site, hits.load(Ordering::Relaxed)))
        .collect()
}

/// A held guard.
struct Entry {
    id: u64,
    class: Site,
    site: Site,
}

thread_local! {
    static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
    static NEXT_ID: Cell<u64> = const { Cell::new(0) };
}

/// Each recorded edge (held class, taken class), with the sites that
/// held and took its locks when it was first seen.
type Graph = HashMap<(Site, Site), (Site, Site)>;

static GRAPH: std::sync::Mutex<Option<Graph>> = std::sync::Mutex::new(None);

/// A guard's place in its thread's held list; dropping it leaves.
pub(crate) struct Held(u64);

impl Drop for Held {
    fn drop(&mut self) {
        // A guard dropped by a thread-local destructor may outlive `HELD`.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().rposition(|e| e.id == self.0) {
                held.remove(at);
            }
        });
    }
}

/// Check that taking a lock of `class` at the caller's site respects the
/// recorded order, record the new edges, and enter the guard. Runs before
/// the lock blocks, so an inverted order panics instead of deadlocking.
#[track_caller]
pub(crate) fn acquire(class: Site) -> Held {
    let site = Location::caller();
    if !std::thread::panicking() {
        let fault = HELD.with(|held| {
            let held = held.borrow();
            match held.iter().find(|e| e.class == class) {
                Some(e) => Some(format!(
                    "parking_lot lockdep: nested locks of one class: the lock built at {class} \
                     is taken at {site} while one of its class taken at {} is held",
                    e.site
                )),
                None => order(&held, class, site),
            }
        });
        if let Some(msg) = fault {
            panic!("{msg}");
        }
    }
    enter(class, site)
}

/// Enter a guard taken without blocking (`try_lock`), which orders
/// nothing.
#[track_caller]
pub(crate) fn try_acquire(class: Site) -> Held {
    enter(class, Location::caller())
}

fn enter(class: Site, site: Site) -> Held {
    let id = NEXT_ID.with(|next| {
        let id = next.get();
        next.set(id + 1);
        id
    });
    HELD.with(|held| held.borrow_mut().push(Entry { id, class, site }));
    Held(id)
}

/// Record `held → class` for each held guard; the message of a cycle
/// that would close.
fn order(held: &[Entry], class: Site, site: Site) -> Option<String> {
    if held.is_empty() {
        return None;
    }
    let mut graph = GRAPH.lock().unwrap_or_else(|e| e.into_inner());
    let graph = graph.get_or_insert_with(HashMap::new);
    for e in held {
        if graph.contains_key(&(e.class, class)) {
            continue;
        }
        if let Some(path) = path(graph, class, e.class) {
            let mut msg = format!(
                "parking_lot lockdep: lock order cycle: the lock built at {class} is taken at \
                 {site} while the lock built at {} (taken at {}) is held, but the opposite \
                 order was recorded:",
                e.class, e.site
            );
            for edge in path.windows(2) {
                let (held_at, taken_at) = graph[&(edge[0], edge[1])];
                let _ = write!(
                    msg,
                    "\n  the lock built at {} is taken at {taken_at} while the lock built at {} \
                     (taken at {held_at}) is held",
                    edge[1], edge[0]
                );
            }
            return Some(msg);
        }
        graph.insert((e.class, class), (e.site, site));
    }
    None
}

/// The classes of a recorded path `from` →* `to`, if there is one.
fn path(graph: &Graph, from: Site, to: Site) -> Option<Vec<Site>> {
    let mut parent: HashMap<Site, Site> = HashMap::new();
    let mut stack = vec![from];
    while let Some(at) = stack.pop() {
        if at == to {
            let mut path = vec![to];
            while let Some(&p) = parent.get(path.last()?) {
                path.push(p);
            }
            path.reverse();
            return Some(path);
        }
        for &(a, b) in graph.keys() {
            if a == at && b != from && !parent.contains_key(&b) {
                parent.insert(b, a);
                stack.push(b);
            }
        }
    }
    None
}

/// Panic unless every held guard, `except` aside, was taken at an
/// [`ALLOWED`] site; count the excused ones. `what` names the check.
#[track_caller]
pub(crate) fn check_held(except: Option<&Held>, what: &str) {
    if std::thread::panicking() {
        return;
    }
    let at = Location::caller();
    let fault = HELD.with(|held| {
        let mut msg = String::new();
        for e in held.borrow().iter() {
            if except.is_some_and(|h| h.0 == e.id) || allowed(e.site) {
                continue;
            }
            let _ = write!(
                msg,
                "\n  the lock built at {} is held, taken at {}",
                e.class, e.site
            );
        }
        (!msg.is_empty()).then_some(msg)
    });
    if let Some(msg) = fault {
        panic!("parking_lot lockdep: {what} at {at} with a guard held:{msg}");
    }
}

/// Whether `site` is allowlisted, counting the hit if it is.
fn allowed(site: Site) -> bool {
    let hit = ALLOWED.iter().position(|entry| {
        entry.rsplit_once(':').is_some_and(|(path, line)| {
            site.file().ends_with(path) && line.parse() == Ok(site.line())
        })
    });
    if let Some(i) = hit {
        HITS[i].fetch_add(1, Ordering::Relaxed);
    }
    hit.is_some()
}
