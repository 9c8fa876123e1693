//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Concurrency cap sweep** — asynchronous iteration's win as a
//!    function of ReqPump's `max_concurrent` (1 ≈ sequential).
//! 2. **Latency sweep** — sync vs async across simulated latencies
//!    (crossover behavior: at zero latency async is pure overhead).
//! 3. **Placement strategy** — full percolation vs insertion-only on a
//!    multi-join query (the Figure 7 trade-off).
//! 5. **Coalescing & caching** — duplicate-call suppression on the
//!    Figure 7 cross-product query.
//!
//! ```sh
//! cargo run -p wsq-bench --release --bin ablations
//! cargo run -p wsq-bench --release --bin ablations -- --quick
//! ```

use std::time::{Duration, Instant};
use wsq_bench::{constant_pool, time_query, Template};
use wsq_core::{ExecutionMode, PlacementStrategy, QueryOptions, Wsq, WsqConfig};
use wsq_pump::PumpConfig;
use wsq_websim::{CorpusConfig, LatencyModel};

fn latency(ms: u64) -> LatencyModel {
    if ms == 0 {
        LatencyModel::Zero
    } else {
        LatencyModel::Jitter {
            base: Duration::from_millis(ms),
            jitter: Duration::from_millis(ms / 2),
        }
    }
}

fn wsq_with(lat: LatencyModel, max_concurrent: usize, cache: bool) -> Wsq {
    let config = WsqConfig {
        corpus: CorpusConfig::default(),
        latency: lat,
        pump: PumpConfig {
            max_concurrent,
            ..PumpConfig::default()
        },
        cache,
        ..WsqConfig::default()
    };
    let mut wsq = Wsq::open_in_memory(config).expect("wsq");
    wsq.load_reference_data().expect("data");
    wsq
}

fn timed(wsq: &mut Wsq, sql: &str, opts: QueryOptions) -> f64 {
    let t0 = Instant::now();
    wsq.query_with(sql, opts).expect("query");
    t0.elapsed().as_secs_f64()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let base_ms: u64 = if quick { 10 } else { 30 };
    let pool = constant_pool();
    let t1 = Template::One.instantiate(&pool, 0);

    // ---------------------------------------------------------------
    println!("=== Ablation 1: ReqPump concurrency cap (Template 1, {base_ms}ms latency)");
    println!("{:<16}{:>12}{:>12}", "max_concurrent", "secs", "speedup");
    let caps: &[usize] = if quick {
        &[1, 8, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let mut sequential = None;
    for &cap in caps {
        let mut wsq = wsq_with(latency(base_ms), cap, false);
        let secs = timed(&mut wsq, &t1, QueryOptions::default());
        let seq = *sequential.get_or_insert(secs);
        println!("{cap:<16}{secs:>12.3}{:>11.1}x", seq / secs);
    }

    // ---------------------------------------------------------------
    println!("\n=== Ablation 2: latency sweep (Template 1, sync vs async)");
    println!(
        "{:<14}{:>12}{:>12}{:>12}",
        "latency(ms)", "sync", "async", "speedup"
    );
    let lats: &[u64] = if quick {
        &[0, 20]
    } else {
        &[0, 5, 10, 20, 40, 80]
    };
    for &ms in lats {
        let mut wsq = wsq_with(latency(ms), 64, false);
        let s = timed(
            &mut wsq,
            &t1,
            QueryOptions {
                mode: ExecutionMode::Synchronous,
                ..Default::default()
            },
        );
        let a = timed(&mut wsq, &t1, QueryOptions::default());
        println!("{ms:<14}{s:>12.3}{a:>12.3}{:>11.1}x", s / a.max(1e-9));
    }

    // ---------------------------------------------------------------
    println!("\n=== Ablation 3: ReqSync placement (Template 3, {base_ms}ms latency)");
    let t3 = Template::Three.instantiate(&pool, 0);
    for (name, strategy) in [
        ("Full percolation", PlacementStrategy::Full),
        ("Insertion-only", PlacementStrategy::InsertionOnly),
    ] {
        let mut wsq = wsq_with(latency(base_ms), 64, false);
        let secs = timed(
            &mut wsq,
            &t3,
            QueryOptions {
                mode: ExecutionMode::Asynchronous,
                strategy,
                ..Default::default()
            },
        );
        println!("{name:<20}{secs:>10.3}s");
    }

    // ---------------------------------------------------------------
    println!("\n=== Ablation 5: coalescing & caching (Figure 7 query: |R| duplicate calls)");
    let fig7 = "SELECT Name, AV.Count, N, G.Count \
                FROM Sigs, WebCount_AV AV, R, WebCount_Google G \
                WHERE Name = AV.T1 AND Name = G.T1";
    // Every registration is one demanded call, so `registered` counts
    // the calls a pump without coalescing would send and `launched` the
    // calls this one sent.
    println!(
        "{:<14}{:>10}{:>14}{:>12}{:>12}",
        "configuration", "secs", "uncoalesced", "launched", "cache hits"
    );
    for (name, cache) in [("no cache", false), ("cache", true)] {
        let mut wsq = wsq_with(latency(base_ms), 64, cache);
        wsq.execute("CREATE TABLE R (N INT); INSERT INTO R VALUES (1), (2), (3), (4)")
            .unwrap();
        let secs = timed(&mut wsq, fig7, QueryOptions::default());
        let stats = wsq.pump().stats();
        let hits: u64 = wsq.cache_stats().values().map(|c| c.hits).sum();
        println!(
            "{name:<14}{secs:>10.3}{:>14}{:>12}{hits:>12}",
            stats.registered, stats.launched
        );
    }

    // ---------------------------------------------------------------
    // The paper's declared future work (§4.2): asynchronous iteration vs a
    // parallel query processor, whose dependent join overlaps the calls
    // of one join while a *stack* of joins serializes join-by-join
    // (§4.5.4 Example 1). Insertion-only placement has exactly that
    // concurrency shape — a ReqSync pinned above each join — but goes
    // through the pump instead of spending an OS thread per request.
    println!("\n=== Ablation 7: execution mode comparison ({base_ms}ms latency)");
    println!(
        "{:<14}{:>18}{:>18}{:>18}",
        "template", "sequential", "join-at-a-time", "full percolation"
    );
    for (name, template) in [("Template 1", Template::One), ("Template 2", Template::Two)] {
        let sql = template.instantiate(&pool, 0);
        let mut row = format!("{name:<14}");
        for (mode, strategy) in [
            (ExecutionMode::Synchronous, PlacementStrategy::Full),
            (
                ExecutionMode::Asynchronous,
                PlacementStrategy::InsertionOnly,
            ),
            (ExecutionMode::Asynchronous, PlacementStrategy::Full),
        ] {
            let mut wsq = wsq_with(latency(base_ms), 64, false);
            let secs = timed(
                &mut wsq,
                &sql,
                QueryOptions {
                    mode,
                    strategy,
                    ..Default::default()
                },
            );
            row.push_str(&format!("{secs:>17.3}s"));
        }
        println!("{row}");
    }
    println!(
        "(join-at-a-time matches full percolation on single-join T1; on\n\
         multi-join T2 the joins serialize — the §4.5.4 criticism — while\n\
         full percolation overlaps all calls)"
    );

    // ---------------------------------------------------------------
    println!("\n=== Ablation 6: WebPages fan-out (rank limit, {base_ms}ms latency)");
    println!("{:<12}{:>10}{:>10}", "Rank <=", "rows", "secs");
    let ranks: &[u32] = if quick { &[1, 5] } else { &[1, 2, 5, 10, 19] };
    for &k in ranks {
        let sql =
            format!("SELECT Name, URL, Rank FROM Sigs, WebPages WHERE Name = T1 AND Rank <= {k}");
        let mut wsq = wsq_with(latency(base_ms), 64, false);
        let t0 = Instant::now();
        let (_, rows) = time_query(&mut wsq, &sql, ExecutionMode::Asynchronous);
        println!("{k:<12}{rows:>10}{:>10.3}", t0.elapsed().as_secs_f64());
    }
}
