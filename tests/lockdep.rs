//! The lock shim's held-guard check excuses only the guards taken at the
//! sites on `parking_lot::lockdep::ALLOWED`: each is a `Session` method
//! that holds the database read lock across its query's web calls
//! (ROADMAP 17). The list may only shrink. Each entry must still fire
//! here, so an entry that a fix made stale fails until it is deleted.
#![cfg(debug_assertions)]

use parking_lot::lockdep::{allowlist_hits, ALLOWED};
use std::time::Duration;
use wsqdsq::core::{Session, SharedWsq};
use wsqdsq::prelude::*;

/// A query whose `ORDER BY` drains every web call before its first row,
/// so even opening a cursor makes calls.
const QUERY: &str = "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                     ORDER BY Count DESC, Name LIMIT 3";

fn hits(site: &str) -> u64 {
    allowlist_hits()
        .into_iter()
        .find(|&(entry, _)| entry == site)
        .map_or(0, |(_, n)| n)
}

/// Run `QUERY` through the `Session` method that takes the read lock at
/// `site`.
fn drive(site: &str, session: &mut Session) {
    match site.rsplit_once(':').map(|(_, line)| line) {
        Some("197") => drop(session.query(QUERY).unwrap()),
        Some("218") => drop(session.execute(QUERY).unwrap()),
        Some("259") => {
            let mut cursor = session.query_cursor(QUERY).unwrap();
            while cursor.next_row().unwrap().is_some() {}
        }
        Some("287") => drop(session.analyze(QUERY).unwrap()),
        _ => panic!("no driver for allowlist entry {site}"),
    }
}

#[test]
fn every_allowlisted_site_still_holds_a_guard_across_a_web_call() {
    let shared = SharedWsq::open_in_memory(WsqConfig {
        latency: LatencyModel::Fixed(Duration::from_millis(5)),
        ..WsqConfig::fast()
    })
    .unwrap();
    let mut session = shared.session();
    for site in ALLOWED {
        assert!(site.starts_with("crates/core/src/session.rs:"), "{site}");
        let before = hits(site);
        drive(site, &mut session);
        assert!(
            hits(site) > before,
            "{site} held no guard across a web call: delete it from ALLOWED"
        );
    }
}
