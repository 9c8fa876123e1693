//! Shared harness for the WSQ/DSQ experiment binaries.
//!
//! The paper's evaluation (§5) measures *template queries*: structurally
//! identical queries instantiated with different constants so repeated
//! runs issue different searches (avoiding engine-side caching). This
//! crate reproduces that methodology: [`Template`] instantiation,
//! sync-vs-async timing, and paper-style result tables.

use std::time::{Duration, Instant};
use wsq_core::{ExecutionMode, QueryOptions, Wsq, WsqConfig};
use wsq_websim::{CorpusConfig, LatencyModel};

/// The constant pool templates draw `V1`/`V2` from (§5: "computer",
/// "beaches", "crime", "politics", "frogs", …).
pub fn constant_pool() -> Vec<&'static str> {
    wsq_websim::data::TOPICS.to_vec()
}

/// One of the paper's three evaluation templates (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// `States ⋈ WebCount` with `T2 = V1` (one call per state).
    One,
    /// `States ⋈ WebCount ⋈ WebPages` (two calls per state).
    Two,
    /// `Sigs ⋈ WebPages_AV ⋈ WebPages_Google` with `T2 = V1` (two engine
    /// calls per Sig).
    Three,
}

impl Template {
    /// All three templates.
    pub fn all() -> [Template; 3] {
        [Template::One, Template::Two, Template::Three]
    }

    /// Human-readable name matching Table 1's rows.
    pub fn name(&self) -> &'static str {
        match self {
            Template::One => "Template 1",
            Template::Two => "Template 2",
            Template::Three => "Template 3",
        }
    }

    /// How many constants one instance consumes.
    pub fn arity(&self) -> usize {
        match self {
            Template::Two => 2,
            _ => 1,
        }
    }

    /// Instantiate the template with constants from `pool[offset..]`.
    pub fn instantiate(&self, pool: &[&str], offset: usize) -> String {
        let v = |i: usize| pool[(offset + i) % pool.len()];
        match self {
            Template::One => format!(
                "SELECT Name, Count FROM States, WebCount \
                 WHERE Name = T1 AND WebCount.T2 = '{}'",
                v(0)
            ),
            Template::Two => format!(
                "SELECT Name, Count, URL, Rank \
                 FROM States, WebCount, WebPages \
                 WHERE Name = WebCount.T1 AND WebCount.T2 = '{}' \
                 AND Name = WebPages.T1 AND WebPages.T2 = '{}' \
                 AND WebPages.Rank <= 2",
                v(0),
                v(1)
            ),
            Template::Three => format!(
                "SELECT Name, AV.URL, G.URL \
                 FROM Sigs, WebPages_AV AV, WebPages_Google G \
                 WHERE Name = AV.T1 AND Name = G.T1 \
                 AND AV.Rank <= 3 AND G.Rank <= 3 \
                 AND AV.T2 = '{}' AND G.T2 = '{}'",
                v(0),
                v(0)
            ),
        }
    }

    /// External calls one instance performs (for sanity checks).
    pub fn expected_calls(&self) -> u64 {
        match self {
            Template::One => 50,
            Template::Two => 100,
            Template::Three => 74,
        }
    }
}

/// Experiment-scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Simulated base latency per search request.
    pub base_latency: Duration,
    /// Deterministic jitter added on top.
    pub jitter: Duration,
    /// Query instances per run (the paper uses 8).
    pub queries_per_run: usize,
    /// Runs per template (the paper uses 2, with disjoint constants).
    pub runs: usize,
}

impl BenchScale {
    /// Paper-faithful scale: 8 queries × 2 runs, latency scaled ~20×
    /// down from 1999's ~1s per request so the suite finishes in minutes.
    pub fn paper() -> Self {
        BenchScale {
            base_latency: Duration::from_millis(40),
            jitter: Duration::from_millis(25),
            queries_per_run: 8,
            runs: 2,
        }
    }

    /// Quick mode for smoke runs.
    pub fn quick() -> Self {
        BenchScale {
            base_latency: Duration::from_millis(10),
            jitter: Duration::from_millis(5),
            queries_per_run: 3,
            runs: 1,
        }
    }

    /// The latency model this scale implies.
    pub fn latency(&self) -> LatencyModel {
        if self.base_latency.is_zero() && self.jitter.is_zero() {
            LatencyModel::Zero
        } else {
            LatencyModel::Jitter {
                base: self.base_latency,
                jitter: self.jitter,
            }
        }
    }
}

/// Build a WSQ instance for experiments.
pub fn bench_wsq(latency: LatencyModel, corpus: CorpusConfig) -> Wsq {
    let config = WsqConfig {
        corpus,
        latency,
        ..WsqConfig::default()
    };
    let mut wsq = Wsq::open_in_memory(config).expect("bench wsq");
    wsq.load_reference_data().expect("reference data");
    wsq
}

/// Timing for one (template, run): average seconds per query, sync vs
/// async, and the improvement factor — one row of Table 1.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which template.
    pub template: Template,
    /// Run index (1-based).
    pub run: usize,
    /// Queries measured.
    pub queries: usize,
    /// Average synchronous execution seconds.
    pub sync_avg: f64,
    /// Average asynchronous execution seconds.
    pub async_avg: f64,
}

impl RunResult {
    /// The paper's "Improvement" column.
    pub fn improvement(&self) -> f64 {
        self.sync_avg / self.async_avg.max(1e-9)
    }
}

/// Time one query under the given mode, returning (seconds, rows).
pub fn time_query(wsq: &mut Wsq, sql: &str, mode: ExecutionMode) -> (f64, usize) {
    let opts = QueryOptions {
        mode,
        ..Default::default()
    };
    let t0 = Instant::now();
    let result = wsq.query_with(sql, opts).expect("bench query");
    (t0.elapsed().as_secs_f64(), result.rows.len())
}

/// Execute one full run of a template (the paper's "Run N (8 queries)").
pub fn run_template(
    wsq: &mut Wsq,
    template: Template,
    run: usize,
    scale: &BenchScale,
) -> RunResult {
    let pool = constant_pool();
    // Run 2 uses a disjoint slice of the constant pool ("8 other queries").
    let offset = (run - 1) * scale.queries_per_run * template.arity();
    let mut sync_total = 0.0;
    let mut async_total = 0.0;
    for q in 0..scale.queries_per_run {
        let sql = template.instantiate(&pool, offset + q * template.arity());
        let (sync_s, sync_rows) = time_query(wsq, &sql, ExecutionMode::Synchronous);
        let (async_s, async_rows) = time_query(wsq, &sql, ExecutionMode::Asynchronous);
        assert_eq!(sync_rows, async_rows, "mode divergence on {sql}");
        sync_total += sync_s;
        async_total += async_s;
    }
    RunResult {
        template,
        run,
        queries: scale.queries_per_run,
        sync_avg: sync_total / scale.queries_per_run as f64,
        async_avg: async_total / scale.queries_per_run as f64,
    }
}

/// Render results in the layout of the paper's Table 1.
pub fn render_table1(results: &[RunResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24}{:>20}{:>22}{:>14}\n",
        "", "Synchronous (secs)", "Asynchronous (secs)", "Improvement"
    ));
    let mut last: Option<Template> = None;
    for r in results {
        if last != Some(r.template) {
            out.push_str(&format!("{}\n", r.template.name()));
            last = Some(r.template);
        }
        out.push_str(&format!(
            "{:<24}{:>20.3}{:>22.3}{:>13.1}x\n",
            format!("  Run {} ({} queries)", r.run, r.queries),
            r.sync_avg,
            r.async_avg,
            r.improvement()
        ));
    }
    out
}

/// The numbers reported in the paper's Table 1, for side-by-side output:
/// `(row, sync secs, async secs, improvement)`.
pub fn paper_table1() -> Vec<(&'static str, f64, f64, f64)> {
    vec![
        ("Template 1 / Run 1", 23.13, 3.88, 6.0),
        ("Template 1 / Run 2", 32.8, 3.5, 9.4),
        ("Template 2 / Run 1", 70.75, 5.25, 13.5),
        ("Template 2 / Run 2", 64.25, 5.13, 12.5),
        ("Template 3 / Run 1", 122.5, 6.25, 19.6),
        ("Template 3 / Run 2", 76.13, 4.63, 16.4),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn templates_instantiate_distinct_queries() {
        let pool = constant_pool();
        for t in Template::all() {
            let a = t.instantiate(&pool, 0);
            let b = t.instantiate(&pool, t.arity());
            assert_ne!(a, b, "{t:?} should vary with offset");
            assert!(a.contains("SELECT"));
        }
    }

    #[test]
    fn template_queries_parse() {
        let pool = constant_pool();
        for t in Template::all() {
            for off in 0..4 {
                let sql = t.instantiate(&pool, off);
                wsq_sql::parse_one(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            }
        }
    }

    #[test]
    fn zero_latency_run_produces_sane_numbers() {
        let mut wsq = bench_wsq(LatencyModel::Zero, CorpusConfig::small());
        let scale = BenchScale {
            base_latency: Duration::ZERO,
            jitter: Duration::ZERO,
            queries_per_run: 2,
            runs: 1,
        };
        let r = run_template(&mut wsq, Template::One, 1, &scale);
        assert!(r.sync_avg >= 0.0 && r.async_avg > 0.0);
        let text = render_table1(&[r]);
        assert!(text.contains("Template 1"));
        assert!(text.contains("Run 1"));
    }

    #[test]
    fn expected_call_counts_hold() {
        // Table 1's counts are those of calls that are pending while the
        // query runs, as over the Web: a declared latency keeps every call
        // pending. (A reply in hand at registration yields finished rows,
        // and a Sig with no AV pages then registers no Google call.)
        let latency = LatencyModel::Fixed(Duration::from_millis(1));
        let mut wsq = bench_wsq(latency, CorpusConfig::small());
        let pool = constant_pool();
        for t in Template::all() {
            let before = wsq.pump().stats().registered;
            let sql = t.instantiate(&pool, 0);
            time_query(&mut wsq, &sql, ExecutionMode::Asynchronous);
            let after = wsq.pump().stats().registered;
            assert_eq!(after - before, t.expected_calls(), "{t:?}");
        }
    }
}
