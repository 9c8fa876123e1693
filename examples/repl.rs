//! An interactive WSQ shell, in the spirit of the paper's Web demo
//! ("a simple interface that allows users to pose limited queries over our
//! WSQ implementation").
//!
//! ```sh
//! cargo run --release --example repl                       # in-process
//! cargo run --release --example repl -- --connect ADDR     # against wsq-server
//! ```
//!
//! Commands:
//! * any SQL statement (`;`-terminated or single-line)
//! * `.explain <select>` — show the (transformed) physical plan
//! * `.verify <select>`  — show the plan plus the static verifier's verdict
//! * `.analyze <select>` — run it and show per-operator runtime stats
//! * `.trace <select>`   — run it and show every external call's lifecycle
//!   timeline (registered → queued → launched → completed → patched)
//! * `.mode sync|async`  — switch execution mode (in-process only)
//! * `.tables`           — list stored tables (in-process only)
//! * `.stats`            — pump, buffer-pool, and metrics-registry snapshot
//! * `.metrics`          — Prometheus text dump of the metrics registry
//!   (in `--connect` mode this is the *server's* registry, shared by every
//!   connected session — run the same query from two REPLs and watch
//!   `wsq_cache_misses_total` stay at 1)
//! * `.quit`

use std::io::{self, BufRead, Write};
use wsqdsq::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--connect") {
        let addr = args.get(i + 1).cloned().ok_or("--connect needs ADDR")?;
        return run_remote(&addr);
    }
    let mut wsq = Wsq::open_in_memory(WsqConfig::default())?;
    wsq.load_reference_data()?;
    println!(
        "WSQ/DSQ shell — tables: States, Sigs, CSFields, Movies; \
         virtual: WebCount[_AV|_Google], WebPages[_AV|_Google]"
    );
    println!(
        "Try: SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC LIMIT 5"
    );

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("wsq> ");
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ".quit" || line == ".exit" {
            break;
        }
        if line == ".tables" {
            println!("{}", wsq.db().catalog().table_names().join(", "));
            continue;
        }
        if line == ".stats" {
            println!("pump: {:?}", wsq.pump().stats());
            println!("pool: {:?}", wsq.db().pool_stats());
            if let Some(m) = wsq.obs().metrics() {
                let lat = m.call_latency.snapshot();
                let fmt = |d: Option<std::time::Duration>| match d {
                    Some(d) => format!("{:.1}ms", d.as_secs_f64() * 1e3),
                    None => "-".into(),
                };
                println!(
                    "calls: completed={} failed={} coalesced={} cancelled={} in_flight={} (peak {})",
                    m.calls_completed.get(),
                    m.calls_failed.get(),
                    m.calls_coalesced.get(),
                    m.calls_cancelled.get(),
                    m.in_flight.get(),
                    m.in_flight.high_water(),
                );
                println!(
                    "call latency: p50={} p95={} max={} (n={})",
                    fmt(lat.quantile(0.5)),
                    fmt(lat.quantile(0.95)),
                    fmt(Some(std::time::Duration::from_nanos(lat.max_nanos))),
                    lat.count,
                );
                println!(
                    "cache: hits={} misses={}  retries={} flaky_failures={}",
                    m.cache_hits.get(),
                    m.cache_misses.get(),
                    m.retries.get(),
                    m.flaky_failures.get(),
                );
                println!(
                    "queries: {} (latency p95={})  tuples: patched={} cancelled={}",
                    m.queries.get(),
                    fmt(m.query_latency.snapshot().quantile(0.95)),
                    m.tuples_patched.get(),
                    m.tuples_cancelled.get(),
                );
                println!(
                    "reqsync: buffered={} (peak {})  stalls={} stall_p95={}",
                    m.reqsync_buffered.get(),
                    m.reqsync_buffered.high_water(),
                    m.reqsync_stalls.get(),
                    fmt(m.stall_duration.snapshot().quantile(0.95)),
                );
            }
            continue;
        }
        if line == ".metrics" {
            print!("{}", wsq.metrics_text());
            continue;
        }
        if let Some(sql) = line.strip_prefix(".trace") {
            match wsq.trace_query(sql.trim()) {
                Ok((rows, timeline)) => {
                    print!("{timeline}");
                    println!("({} rows)", rows.rows.len());
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(mode) = line.strip_prefix(".mode") {
            match mode.trim() {
                "sync" => wsq.options_mut().mode = ExecutionMode::Synchronous,
                "async" => wsq.options_mut().mode = ExecutionMode::Asynchronous,
                other => {
                    println!("unknown mode '{other}' (sync|async)");
                    continue;
                }
            }
            println!("ok");
            continue;
        }
        if let Some(sql) = line.strip_prefix(".explain") {
            match wsq.explain(sql.trim()) {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(sql) = line.strip_prefix(".verify") {
            match wsq.explain_verify(sql.trim()) {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(sql) = line.strip_prefix(".analyze") {
            match wsq.analyze(sql.trim()) {
                Ok((rows, report)) => {
                    println!("{report}");
                    println!("({} rows)", rows.rows.len());
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        let started = std::time::Instant::now();
        match wsq.execute(line) {
            Ok(results) => {
                for r in results {
                    match r {
                        wsq_core::StatementResult::Rows(rows) => {
                            print!("{}", rows.to_table());
                            println!("({} rows in {:?})", rows.rows.len(), started.elapsed());
                        }
                        wsq_core::StatementResult::Affected(n) => {
                            println!("ok ({n} rows affected)");
                        }
                    }
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}

/// The `--connect` mode: the same shell, but every statement travels
/// over the wire to a `wsq-server`, whose ReqPump and result caches are
/// shared with every other connected client.
fn run_remote(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    use wsq_client::{Client, RemoteStatementResult};
    use wsq_protocol::MetricsFormat;

    let mut client = Client::connect_as(addr, "repl")?;
    println!(
        "connected to {} at {addr} (session {})",
        client.server_name(),
        client.session_id()
    );
    println!("shared server: identical web calls coalesce across every connected REPL");

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("wsq[{}]> ", client.session_id());
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ".quit" || line == ".exit" {
            break;
        }
        if line == ".metrics" || line == ".stats" {
            match client.metrics(MetricsFormat::Text) {
                Ok(text) => print!("{text}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if line == ".tables" || line.starts_with(".mode") || line.starts_with(".trace") {
            println!("(not available over the wire; use an in-process REPL)");
            continue;
        }
        if let Some(sql) = line.strip_prefix(".explain") {
            match client.explain(sql.trim(), false) {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(sql) = line.strip_prefix(".verify") {
            match client.explain(sql.trim(), true) {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if let Some(sql) = line.strip_prefix(".analyze") {
            match client.analyze(sql.trim()) {
                Ok((rows, report)) => {
                    println!("{report}");
                    println!("({} rows)", rows.rows.len());
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        let started = std::time::Instant::now();
        match client.execute(line) {
            Ok(results) => {
                for r in results {
                    match r {
                        RemoteStatementResult::Rows(rows) => {
                            print!("{}", rows.to_table());
                            println!("({} rows in {:?})", rows.rows.len(), started.elapsed());
                        }
                        RemoteStatementResult::Affected(n) => {
                            println!("ok ({n} rows affected)");
                        }
                    }
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
    client.goodbye()?;
    Ok(())
}
