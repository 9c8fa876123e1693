//! Measure the external-call fast path and emit `BENCH_pump_cache.json`.
//!
//! ```sh
//! cargo run -p wsq-bench --release --bin pump_cache            # full
//! cargo run -p wsq-bench --release --bin pump_cache -- --quick # smoke
//! ```
//!
//! Compares the sharded single-flight `CachedService` against the
//! pre-sharding coarse single-mutex baseline under hit-heavy, miss-heavy
//! and duplicate-miss workloads at 1/4/16/64 threads, verifies the
//! single-flight invariant (one inner call per distinct in-flight
//! request), and times pump completion delivery.

use std::sync::Arc;
use std::time::Duration;
use wsq_bench::fastpath::{
    keyed_request, run_cache_workload, warm_hot_keys, CoarseCachedService, SleepService,
    SpinService, Workload, STORM_KEYS,
};
use wsq_common::CallId;
use wsq_obs::Obs;
use wsq_pump::{PumpConfig, ReqPump, SearchService};
use wsq_websim::{CacheConfig, CachedService};

struct Measurement {
    workload: &'static str,
    threads: usize,
    implementation: &'static str,
    median_ms: f64,
    throughput_mops: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Median wall time (ms) over `rounds` runs of a workload.
fn measure(
    make_cache: &dyn Fn() -> Arc<dyn SearchService>,
    workload: Workload,
    threads: usize,
    ops: usize,
    rounds: usize,
) -> f64 {
    let cache = make_cache();
    if workload == Workload::HitHeavy {
        warm_hot_keys(&*cache);
    }
    let mut samples: Vec<f64> = (0..rounds)
        .map(|round| {
            run_cache_workload(cache.clone(), workload, threads, ops, round).as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

struct SingleFlight {
    requests: u64,
    inner_calls: u64,
    misses: u64,
    coalesced: u64,
    coarse_inner_calls: u64,
    verified: bool,
}

/// The single-flight acceptance check: many threads storm the same cold
/// keys against a *blocking* backend (5 ms per call, standing in for a
/// network round-trip). The sharded cache must send exactly one call per
/// distinct request to the backend; the coarse baseline is run on the
/// same storm to count its redundant calls — every thread that misses
/// while the first caller is still blocked issues its own.
fn verify_single_flight(threads: usize, ops: usize) -> SingleFlight {
    let backend = Duration::from_millis(5);
    let inner = SleepService::new(backend);
    let cache = CachedService::new(inner.clone());
    run_cache_workload(cache.clone(), Workload::DuplicateMiss, threads, ops, 0);
    let stats = cache.stats();
    let requests = (threads * ops) as u64;

    let coarse_inner = SleepService::new(backend);
    let coarse = CoarseCachedService::new(coarse_inner.clone());
    run_cache_workload(coarse, Workload::DuplicateMiss, threads, ops, 0);

    let verified = inner.calls() == STORM_KEYS as u64
        && stats.misses == inner.calls()
        && stats.hits + stats.misses == requests;
    SingleFlight {
        requests,
        inner_calls: inner.calls(),
        misses: stats.misses,
        coalesced: stats.coalesced,
        coarse_inner_calls: coarse_inner.calls(),
        verified,
    }
}

struct ObsAblation {
    threads: usize,
    baseline_ms: f64,
    disabled_ms: f64,
    enabled_ms: f64,
    /// Disabled-obs run vs its baseline A/A re-run: run-to-run noise
    /// plus the no-op sink's null check, budgeted at under 2%.
    disabled_delta_pct: f64,
    /// Enabled-obs run vs the disabled run: the cost of live counters,
    /// histograms and trace-ring writes.
    enabled_overhead_pct: f64,
    /// `Obs::json_snapshot` of the enabled run's registry.
    metrics_json: String,
}

/// The observability overhead ablation: the duplicate-miss storm (hits,
/// misses and coalesced waits all on the hot path) run three times —
/// twice with a disabled `Obs` handle (an A/A pair whose delta is the
/// measurement noise floor) and once with a live registry. The disabled
/// path must stay within the 2% budget of its own re-run; the enabled
/// delta on top of that is the true cost of counters and histograms.
fn measure_obs_ablation(threads: usize, ops: usize, rounds: usize) -> ObsAblation {
    let run = |obs: Obs| -> f64 {
        let cache: Arc<dyn SearchService> =
            CachedService::with_config_obs(SpinService::new(2_000), CacheConfig::default(), obs);
        let mut samples: Vec<f64> = (0..rounds)
            .map(|round| {
                run_cache_workload(cache.clone(), Workload::DuplicateMiss, threads, ops, round)
                    .as_secs_f64()
                    * 1e3
            })
            .collect();
        median(&mut samples)
    };
    let baseline_ms = run(Obs::disabled());
    let disabled_ms = run(Obs::disabled());
    let obs = Obs::enabled();
    let enabled_ms = run(obs.clone());
    ObsAblation {
        threads,
        baseline_ms,
        disabled_ms,
        enabled_ms,
        disabled_delta_pct: (disabled_ms - baseline_ms) / baseline_ms * 100.0,
        enabled_overhead_pct: (enabled_ms - disabled_ms) / disabled_ms * 100.0,
        metrics_json: obs.json_snapshot(),
    }
}

struct CapAblation {
    cap: Option<usize>,
    median_ms: f64,
    buffered_high_water: i64,
    stalls: u64,
    identical_rows: bool,
}

/// The admission-control ablation (DESIGN.md §11): the 50-state WebCount
/// fan-out under jittered latency with the ReqSync buffer unbounded,
/// capped at 64 (above the fan-out, so the cap never binds) and capped
/// at 8 (binds hard, ~6× below the unbounded peak). Row output must be
/// byte-identical across caps; what the cap trades is peak buffer
/// occupancy against stall time.
fn measure_cap_ablation(rounds: usize) -> Vec<CapAblation> {
    use wsq_core::{QueryOptions, Wsq, WsqConfig};
    use wsq_websim::LatencyModel;
    let query = "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                 ORDER BY Count DESC, Name";
    let latency = LatencyModel::Jitter {
        base: Duration::from_millis(1),
        jitter: Duration::from_millis(2),
    };
    let mut reference: Option<String> = None;
    [None, Some(64usize), Some(8)]
        .into_iter()
        .map(|cap| {
            let mut wsq = Wsq::open_in_memory(WsqConfig {
                latency,
                query: QueryOptions {
                    reqsync_cap: cap,
                    ..Default::default()
                },
                ..WsqConfig::fast()
            })
            .expect("open wsq");
            wsq.load_reference_data().expect("reference data");
            let mut identical_rows = true;
            let mut samples: Vec<f64> = (0..rounds)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    let rows = wsq.query(query).expect("fan-out query").to_table();
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    match &reference {
                        Some(r) => identical_rows &= rows == *r,
                        None => reference = Some(rows),
                    }
                    ms
                })
                .collect();
            let m = wsq.obs().metrics().expect("obs enabled by default");
            CapAblation {
                cap,
                median_ms: median(&mut samples),
                // Reset at every query window open: the last query's peak.
                buffered_high_water: m.reqsync_buffered.high_water(),
                stalls: m.reqsync_stalls.get(),
                identical_rows,
            }
        })
        .collect()
}

struct PrefetchAblation {
    depth: usize,
    window: usize,
    adaptive: bool,
    median_ms: f64,
    prefetch_issued: u64,
    prefetch_wasted: u64,
    batches: u64,
    identical_rows: bool,
}

/// The ahead-of-need prefetch ablation (DESIGN.md §12): the 50-state
/// WebCount fan-out under jittered latency with a binding ReqSync cap of
/// 4, across prefetch depth 0 (demand-driven), 4, and adaptive (cap 16,
/// clamped to the admission cap) × submission window 1 and 8. The cap
/// stalls the demand-driven join at ~4 overlapped calls; prefetch keeps
/// `depth` additional registrations in flight ahead of demand, so depth 4
/// roughly doubles the overlap. Rows must be byte-identical across every
/// configuration.
fn measure_prefetch_ablation(rounds: usize) -> Vec<PrefetchAblation> {
    use wsq_core::{QueryOptions, Wsq, WsqConfig};
    use wsq_websim::LatencyModel;
    let query = "SELECT Name, Count FROM States, WebCount WHERE Name = T1 \
                 ORDER BY Count DESC, Name";
    let latency = LatencyModel::Jitter {
        base: Duration::from_millis(1),
        jitter: Duration::from_millis(2),
    };
    let mut reference: Option<String> = None;
    let mut out = Vec::new();
    for (depth, adaptive) in [(0usize, false), (4, false), (16, true)] {
        for window in [1usize, 8] {
            let mut wsq = Wsq::open_in_memory(WsqConfig {
                latency,
                pump: PumpConfig {
                    submission_window: window,
                    ..PumpConfig::default()
                },
                ..WsqConfig::fast()
            })
            .expect("open wsq");
            wsq.load_reference_data().expect("reference data");
            let opts = QueryOptions {
                reqsync_cap: Some(4),
                prefetch_depth: depth,
                prefetch_window: window,
                prefetch_adaptive: adaptive,
                ..Default::default()
            };
            let mut identical_rows = true;
            let mut samples: Vec<f64> = (0..rounds)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    let rows = wsq
                        .query_with(query, opts)
                        .expect("fan-out query")
                        .to_table();
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    match &reference {
                        Some(r) => identical_rows &= rows == *r,
                        None => reference = Some(rows),
                    }
                    ms
                })
                .collect();
            let m = wsq.obs().metrics().expect("obs enabled by default");
            out.push(PrefetchAblation {
                depth,
                window,
                adaptive,
                median_ms: median(&mut samples),
                prefetch_issued: m.prefetch_issued.get(),
                prefetch_wasted: m.prefetch_wasted.get(),
                batches: wsq.pump().stats().batches,
                identical_rows,
            });
        }
    }
    out
}

struct RaceAblation {
    mode: &'static str,
    median_ms: f64,
    race_won: u64,
    race_cancelled: u64,
    identical_rows: bool,
}

/// The engine-racing ablation (DESIGN.md §16): the 50-state WebCount
/// fan-out against a degraded engine — every call pays an 8 ms latency
/// spike on top of the 1 ms base — alone, then raced against two
/// healthy replicas over the same corpus. `WebCount_ANY` resolves to
/// the configured race group either way (a one-member group degenerates
/// to a plain call), so the SQL text and the result rows are identical;
/// what racing buys is that the first healthy completion wins while the
/// pump cancels the laggard.
fn measure_race_ablation(rounds: usize) -> Vec<RaceAblation> {
    use wsq_core::{Wsq, WsqConfig};
    use wsq_websim::{DegradedConfig, DegradedService, EngineKind, LatencyModel};
    let query = "SELECT Name, Count FROM States, WebCount_ANY WHERE Name = T1 \
                 ORDER BY Count DESC, Name";
    let mut reference: Option<String> = None;
    [("single_degraded", false), ("raced_3", true)]
        .into_iter()
        .map(|(mode, racing)| {
            let mut wsq = Wsq::open_in_memory(WsqConfig {
                latency: LatencyModel::Fixed(Duration::from_millis(1)),
                ..WsqConfig::fast()
            })
            .expect("open wsq");
            wsq.load_reference_data().expect("reference data");
            let healthy = wsq.web().engine(EngineKind::AltaVista);
            let degraded = DegradedService::new(
                healthy.clone(),
                DegradedConfig {
                    latency_spike_permille: 1000,
                    spike: Duration::from_millis(8),
                    ..DegradedConfig::default()
                },
            );
            wsq.register_engine("Lagged", degraded, true);
            if racing {
                wsq.register_engine("R1", healthy.clone(), true);
                wsq.register_engine("R2", healthy, true);
                wsq.set_race_group(&["Lagged", "R1", "R2"])
                    .expect("race group");
            } else {
                wsq.set_race_group(&["Lagged"]).expect("race group");
            }
            let mut identical_rows = true;
            let mut samples: Vec<f64> = (0..rounds)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    let rows = wsq.query(query).expect("fan-out query").to_table();
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    match &reference {
                        Some(r) => identical_rows &= rows == *r,
                        None => reference = Some(rows),
                    }
                    ms
                })
                .collect();
            let m = wsq.obs().metrics().expect("obs enabled by default");
            RaceAblation {
                mode,
                median_ms: median(&mut samples),
                race_won: m.race_won.get(),
                race_cancelled: m.race_cancelled.get(),
                identical_rows,
            }
        })
        .collect()
}

/// Time pump register/wait/release churn across threads.
fn measure_pump_churn(threads: usize, calls: usize, rounds: usize) -> f64 {
    let pump = ReqPump::new(PumpConfig {
        max_concurrent: 256,
        default_per_destination: 256,
        coalesce: false,
        ..PumpConfig::default()
    });
    pump.register_service("AV", SpinService::new(200));
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let pump = pump.clone();
                    std::thread::spawn(move || {
                        for k in 0..calls {
                            let cid: CallId = pump.register(keyed_request(k)).unwrap();
                            pump.wait(cid).unwrap();
                            pump.release(cid);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (ops, rounds, thread_counts): (usize, usize, &[usize]) = if quick {
        (500, 3, &[1, 4, 16])
    } else {
        (2000, 5, &[1, 4, 16, 64])
    };

    let sharded: Box<dyn Fn() -> Arc<dyn SearchService>> =
        Box::new(|| CachedService::new(SpinService::new(2_000)) as Arc<dyn SearchService>);
    let coarse: Box<dyn Fn() -> Arc<dyn SearchService>> =
        Box::new(|| CoarseCachedService::new(SpinService::new(2_000)) as Arc<dyn SearchService>);

    let mut measurements: Vec<Measurement> = Vec::new();
    for (workload, wname) in Workload::all() {
        for &threads in thread_counts {
            for (implementation, make) in [("sharded", &sharded), ("coarse", &coarse)] {
                eprintln!("... {wname} x{threads} {implementation}");
                let ms = measure(make.as_ref(), workload, threads, ops, rounds);
                let mops = (threads * ops) as f64 / (ms / 1e3) / 1e6;
                measurements.push(Measurement {
                    workload: wname,
                    threads,
                    implementation,
                    median_ms: ms,
                    throughput_mops: mops,
                });
            }
        }
    }

    eprintln!("... single-flight verification");
    let sf_threads = *thread_counts.last().unwrap();
    let sf = verify_single_flight(sf_threads, ops.min(64));

    let mut pump_rows: Vec<(usize, f64)> = Vec::new();
    for &threads in thread_counts {
        eprintln!("... pump churn x{threads}");
        pump_rows.push((threads, measure_pump_churn(threads, 32, rounds)));
    }

    eprintln!("... obs overhead ablation");
    let obs = measure_obs_ablation(*thread_counts.last().unwrap(), ops, rounds);

    eprintln!("... reqsync cap ablation");
    let caps = measure_cap_ablation(rounds);

    eprintln!("... prefetch ablation");
    let prefetch = measure_prefetch_ablation(rounds);

    eprintln!("... race ablation");
    let races = measure_race_ablation(rounds);

    // Render the report.
    println!(
        "{:<16}{:>8}{:>10}{:>12}{:>14}",
        "workload", "threads", "impl", "median ms", "Mops/s"
    );
    for m in &measurements {
        println!(
            "{:<16}{:>8}{:>10}{:>12.3}{:>14.3}",
            m.workload, m.threads, m.implementation, m.median_ms, m.throughput_mops
        );
    }
    println!(
        "\nsingle-flight: {} requests -> {} backend calls sharded vs {} coarse \
         ({} misses, {} coalesced) verified={}",
        sf.requests, sf.inner_calls, sf.coarse_inner_calls, sf.misses, sf.coalesced, sf.verified
    );
    for (threads, ms) in &pump_rows {
        println!("pump churn x{threads}: {ms:.3} ms");
    }
    println!(
        "obs ablation x{}: baseline {:.3} ms, disabled {:.3} ms ({:+.2}%), \
         enabled {:.3} ms ({:+.2}%)",
        obs.threads,
        obs.baseline_ms,
        obs.disabled_ms,
        obs.disabled_delta_pct,
        obs.enabled_ms,
        obs.enabled_overhead_pct,
    );

    for c in &caps {
        println!(
            "cap ablation cap={}: {:.3} ms, buffered high-water {}, {} stalls, identical={}",
            c.cap.map_or("inf".to_string(), |n| n.to_string()),
            c.median_ms,
            c.buffered_high_water,
            c.stalls,
            c.identical_rows,
        );
    }

    let demand_ms = prefetch
        .iter()
        .find(|p| p.depth == 0 && p.window == 1)
        .map_or(f64::NAN, |p| p.median_ms);
    for p in &prefetch {
        let label = if p.adaptive {
            "adaptive".to_string()
        } else {
            p.depth.to_string()
        };
        println!(
            "prefetch ablation depth={label} window={}: {:.3} ms ({:+.1}% vs demand-driven), \
             issued {}, wasted {}, {} batches, identical={}",
            p.window,
            p.median_ms,
            (p.median_ms - demand_ms) / demand_ms * 100.0,
            p.prefetch_issued,
            p.prefetch_wasted,
            p.batches,
            p.identical_rows,
        );
    }

    let single_ms = races
        .iter()
        .find(|r| r.mode == "single_degraded")
        .map_or(f64::NAN, |r| r.median_ms);
    for r in &races {
        println!(
            "race ablation mode={}: {:.3} ms ({:+.1}% vs single degraded), \
             {} won, {} cancelled, identical={}",
            r.mode,
            r.median_ms,
            (r.median_ms - single_ms) / single_ms * 100.0,
            r.race_won,
            r.race_cancelled,
            r.identical_rows,
        );
    }

    // Speedups of sharded over coarse per (workload, threads).
    let speedup = |wname: &str, threads: usize| -> f64 {
        let find = |imp: &str| {
            measurements
                .iter()
                .find(|m| m.workload == wname && m.threads == threads && m.implementation == imp)
                .map(|m| m.median_ms)
                .unwrap_or(f64::NAN)
        };
        find("coarse") / find("sharded")
    };

    // Hand-rolled JSON: the workspace intentionally has no serde.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    if cores == 1 {
        println!(
            "\nWARNING: single-core host (config.cores == 1) — contention and \
             overlap numbers are not representative; treat every speedup and \
             the prefetch ablation as smoke coverage only."
        );
        eprintln!("WARNING: single-core host; timings are smoke coverage only");
    }
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"quick\": {quick}, \"ops_per_thread\": {ops}, \
         \"rounds\": {rounds}, \"cores\": {cores}}},\n"
    ));
    out.push_str("  \"cache\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"impl\": \"{}\", \
             \"median_ms\": {}, \"throughput_mops\": {}}}{}\n",
            m.workload,
            m.threads,
            m.implementation,
            json_f(m.median_ms),
            json_f(m.throughput_mops),
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedup_sharded_over_coarse\": {\n");
    let mut first = true;
    for (_, wname) in Workload::all() {
        for &threads in thread_counts {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "    \"{wname}_x{threads}\": {}",
                json_f(speedup(wname, threads))
            ));
        }
    }
    out.push_str("\n  },\n");
    out.push_str(&format!(
        "  \"single_flight\": {{\"threads\": {sf_threads}, \"requests\": {}, \
         \"distinct_requests\": {STORM_KEYS}, \"sharded_backend_calls\": {}, \
         \"coarse_backend_calls\": {}, \"misses\": {}, \"coalesced\": {}, \
         \"verified\": {}}},\n",
        sf.requests, sf.inner_calls, sf.coarse_inner_calls, sf.misses, sf.coalesced, sf.verified
    ));
    out.push_str("  \"pump_churn\": [\n");
    for (i, (threads, ms)) in pump_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {threads}, \"median_ms\": {}}}{}\n",
            json_f(*ms),
            if i + 1 == pump_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"obs_ablation\": {{\"threads\": {}, \"baseline_ms\": {}, \
         \"disabled_ms\": {}, \"enabled_ms\": {}, \"disabled_delta_pct\": {}, \
         \"enabled_overhead_pct\": {}}},\n",
        obs.threads,
        json_f(obs.baseline_ms),
        json_f(obs.disabled_ms),
        json_f(obs.enabled_ms),
        json_f(obs.disabled_delta_pct),
        json_f(obs.enabled_overhead_pct),
    ));
    out.push_str("  \"cap_ablation\": [\n");
    for (i, c) in caps.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cap\": {}, \"median_ms\": {}, \"buffered_high_water\": {}, \
             \"stalls\": {}, \"identical_rows\": {}}}{}\n",
            c.cap.map_or("null".to_string(), |n| n.to_string()),
            json_f(c.median_ms),
            c.buffered_high_water,
            c.stalls,
            c.identical_rows,
            if i + 1 == caps.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"prefetch_ablation\": {\n    \"cap\": 4,\n    \"runs\": [\n");
    for (i, p) in prefetch.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"depth\": {}, \"window\": {}, \"adaptive\": {}, \
             \"median_ms\": {}, \"prefetch_issued\": {}, \"prefetch_wasted\": {}, \
             \"batches\": {}, \"identical_rows\": {}}}{}\n",
            p.depth,
            p.window,
            p.adaptive,
            json_f(p.median_ms),
            p.prefetch_issued,
            p.prefetch_wasted,
            p.batches,
            p.identical_rows,
            if i + 1 == prefetch.len() { "" } else { "," }
        ));
    }
    let best = prefetch
        .iter()
        .find(|p| p.depth == 4 && p.window == 8)
        .map_or(f64::NAN, |p| p.median_ms);
    out.push_str(&format!(
        "    ],\n    \"reduction_pct_depth4_window8\": {}\n  }},\n",
        json_f((demand_ms - best) / demand_ms * 100.0)
    ));
    out.push_str("  \"race_ablation\": {\n    \"runs\": [\n");
    for (i, r) in races.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"mode\": \"{}\", \"median_ms\": {}, \"race_won\": {}, \
             \"race_cancelled\": {}, \"identical_rows\": {}}}{}\n",
            r.mode,
            json_f(r.median_ms),
            r.race_won,
            r.race_cancelled,
            r.identical_rows,
            if i + 1 == races.len() { "" } else { "," }
        ));
    }
    let raced_ms = races
        .iter()
        .find(|r| r.mode == "raced_3")
        .map_or(f64::NAN, |r| r.median_ms);
    out.push_str(&format!(
        "    ],\n    \"reduction_pct_raced_3\": {}\n  }},\n",
        json_f((single_ms - raced_ms) / single_ms * 100.0)
    ));
    // Registry snapshot from the obs-enabled ablation run, so a bench
    // artifact also records what the workload did (hits, misses,
    // coalesced waits) — not just how fast it did it.
    out.push_str(&format!("  \"metrics\": {}\n}}\n", obs.metrics_json));

    std::fs::write("BENCH_pump_cache.json", &out).expect("write BENCH_pump_cache.json");
    eprintln!("wrote BENCH_pump_cache.json");
    assert!(sf.verified, "single-flight invariant violated");
    for p in &prefetch {
        assert!(
            p.identical_rows,
            "prefetch depth={} window={} changed the fan-out's rows",
            p.depth, p.window
        );
    }
    for c in &caps {
        assert!(
            c.identical_rows,
            "cap {:?} changed the fan-out's rows",
            c.cap
        );
        if let Some(n) = c.cap {
            assert!(
                c.buffered_high_water <= n as i64,
                "cap {n} exceeded: high-water {}",
                c.buffered_high_water
            );
        }
    }
    for r in &races {
        assert!(
            r.identical_rows,
            "race mode {} changed the fan-out's rows",
            r.mode
        );
    }
    let raced = races.iter().find(|r| r.mode == "raced_3").unwrap();
    assert!(
        raced.race_won > 0 && raced.race_cancelled > 0,
        "racing never decided a group ({} won, {} cancelled)",
        raced.race_won,
        raced.race_cancelled
    );
    if cores > 1 {
        assert!(
            raced_ms < single_ms,
            "racing 3 engines (one degraded) must beat the single degraded \
             engine: raced {raced_ms:.3} ms vs single {single_ms:.3} ms"
        );
    }
    std::hint::black_box(Duration::ZERO);
}
