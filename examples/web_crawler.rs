//! The paper's §4.2 second use case for asynchronous iteration: a Web
//! crawler. "Given a table of thousands of URLs, a query over that table
//! could be used to fetch the HTML for each URL."
//!
//! A custom `SearchService` plays the role of an HTTP fetcher: its
//! "engine" is registered as `Fetcher`, so `WebCount_Fetcher(T1 = url)`
//! "fetches" the page and reports its outgoing-link count. Like every
//! service, the fetcher does not block: it computes its answer and
//! declares the fetch's 15 ms as the reply's latency, so the pump's timer
//! delivers it while the query goes on registering the next fetch. A
//! fetch that blocked inside `execute` would instead hold up the query's
//! own thread one fetch at a time, as the sequential crawl below does by
//! waiting out each fetch in turn.
//!
//! ```sh
//! cargo run --release --example web_crawler
//! ```

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsq_pump::{SearchRequest, SearchResult, SearchService, ServiceReply};
use wsqdsq::prelude::*;

/// A pretend HTTP fetcher: 15 ms per page, "parses" a link count.
struct PageFetcher {
    fetches: AtomicU64,
}

impl SearchService for PageFetcher {
    fn execute(&self, req: &SearchRequest) -> ServiceReply {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let mut h = DefaultHasher::new();
        req.expr.hash(&mut h);
        let links = h.finish() % 40;
        ServiceReply {
            result: Ok(SearchResult::Count(links)),
            latency: Duration::from_millis(15), // network + parse
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut wsq = Wsq::open_in_memory(WsqConfig::fast())?;

    let fetcher = Arc::new(PageFetcher {
        fetches: AtomicU64::new(0),
    });
    wsq.register_engine("Fetcher", fetcher.clone(), false);

    // Seed the frontier.
    wsq.execute("CREATE TABLE Frontier (Url VARCHAR(64))")?;
    let mut inserts = Vec::new();
    for i in 0..64 {
        inserts.push(format!("('www.site{i}.example.com/index.html')"));
    }
    wsq.execute(&format!(
        "INSERT INTO Frontier VALUES {}",
        inserts.join(", ")
    ))?;

    let sql = "SELECT Url, Count AS Links FROM Frontier, WebCount_Fetcher \
               WHERE Url = T1 ORDER BY Links DESC, Url LIMIT 10";
    println!("Crawl query:\n  {sql}\n");

    // Sequential crawl: one fetch at a time, each waited for.
    let t0 = Instant::now();
    let sync = wsq.query_with(
        sql,
        QueryOptions {
            mode: ExecutionMode::Synchronous,
            ..Default::default()
        },
    )?;
    let sync_time = t0.elapsed();

    // Asynchronous iteration: all 64 fetches in flight at once.
    let t0 = Instant::now();
    let async_r = wsq.query(sql)?;
    let async_time = t0.elapsed();

    assert_eq!(sync.rows, async_r.rows);
    println!("{}", async_r.to_table());
    println!("sequential crawl : {sync_time:?}");
    println!("async iteration  : {async_time:?}");
    println!(
        "speedup          : {:.1}x over {} fetches",
        sync_time.as_secs_f64() / async_time.as_secs_f64().max(1e-9),
        fetcher.fetches.load(Ordering::Relaxed) / 2,
    );
    Ok(())
}
