//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! repeats this table for the driver; a unit test keeps the two equal.

/// How long one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fanout_slow_web",
        why: "Table-1 templates at 40-65 ms per call, cache off: wall time is pump caps, queueing and ReqSync delivery; CPU trims must read no change",
    },
    Workload {
        name: "fanout_warm_cpu",
        why: "same queries, zero latency, every call a cache hit: time is parse, plan, operator pull and pump overhead; concurrency policy must read no change",
    },
    Workload {
        name: "server_two_sessions",
        why: "two TCP sessions on one shared cache with Zipf lookups, streaming and inserts: the only workload on the wire and on the RwLock write side",
    },
    Workload {
        name: "local_sql_rw",
        why: "stored tables only, reads beside writes over a pool smaller than the data: storage does the work; pump and cache changes must read no change",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression. `None` for per-layer
    /// metrics, which explain a result but never accept or reject one.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every one is defined, and non-zero,
/// on every workload (README "End-to-end metrics" says how).
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_ms_p50", "ms", Lower, 0.25),
    e2e("query_ms_p95", "ms", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("first_row_ms_p50", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// One crate each, measured from outside by timing calls into its
/// public functions (`layers.rs`). A metric whose layer the workload
/// does not touch reads 0.
pub const PER_LAYER: [Metric; 53] = [
    // The whole workload, for quantities that are 0 or undefined on
    // some workloads and so cannot carry a bound.
    layer("workload.ops", "count", Higher),
    layer("workload.write_ms_p50", "ms", Lower),
    layer("workload.backend_calls_per_query", "count", Lower),
    layer("sql.parse_us", "us", Lower),
    layer("engine.plan_us", "us", Lower),
    layer("engine.asyncify_us", "us", Lower),
    layer("engine.exec_us", "us", Lower),
    layer("engine.exec_us_per_call", "us", Lower),
    layer("engine.rows_per_query", "count", Higher),
    layer("engine.t1_ms_p50", "ms", Lower),
    layer("engine.t2_ms_p50", "ms", Lower),
    layer("engine.t3_ms_p50", "ms", Lower),
    layer("pump.register_us", "us", Lower),
    layer("pump.roundtrip_us", "us", Lower),
    layer("pump.batch64_us_per_call", "us", Lower),
    layer("pump.registered", "count", Lower),
    layer("pump.launched", "count", Lower),
    layer("pump.coalesced", "count", Higher),
    layer("pump.batches", "count", Higher),
    layer("pump.peak_in_flight", "count", Higher),
    layer("pump.peak_queued", "count", Lower),
    layer("pump.overlap_x", "x", Higher),
    layer("websim.execute_us", "us", Lower),
    layer("websim.cache_hit_us", "us", Lower),
    layer("websim.cache_hit_ratio", "ratio", Higher),
    layer("websim.cache_coalesced", "count", Higher),
    layer("websim.backend_calls", "count", Lower),
    layer("protocol.encode_rows_us", "us", Lower),
    layer("protocol.decode_rows_us", "us", Lower),
    layer("protocol.bytes_per_row", "bytes", Lower),
    layer("server.ping_us", "us", Lower),
    layer("server.connect_us", "us", Lower),
    layer("server.wire_overhead_us", "us", Lower),
    layer("client.lookup_us", "us", Lower),
    layer("client.stream_ms", "ms", Lower),
    layer("client.insert_us", "us", Lower),
    layer("client.count_us", "us", Lower),
    layer("core.session_query_us", "us", Lower),
    layer("core.dispatch_overhead_us", "us", Lower),
    layer("storage.point_select_us", "us", Lower),
    layer("storage.scan_ms", "ms", Lower),
    layer("storage.join_ms", "ms", Lower),
    layer("storage.insert_us", "us", Lower),
    layer("storage.update_us", "us", Lower),
    layer("storage.delete_us", "us", Lower),
    layer("storage.pool_hit_ratio", "ratio", Higher),
    layer("storage.pool_evictions", "count", Lower),
    layer("storage.dirty_evictions", "count", Lower),
    layer("obs.enabled_overhead_pct", "%", Lower),
    layer("trace.harness_overhead_pct", "%", Lower),
    layer("trace.phase_sum_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.query_self_us", "us", Lower),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints and `compare` applies. They must not drift.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));

        let listed = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();
        let field = |j: &Json, k: &str| j.get(k).unwrap().as_str().unwrap().to_string();

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                (field(j, "name"), field(j, "why")),
                (w.name.into(), w.why.into())
            );
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let metrics = listed(key);
            assert_eq!(metrics.len(), table.len(), "{key}");
            for (j, m) in metrics.iter().zip(table) {
                assert_eq!(field(j, "name"), m.name);
                assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
                assert_eq!(field(j, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }
}
