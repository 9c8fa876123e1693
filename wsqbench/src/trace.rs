//! The harness's own tracer: a span per call into a layer — name,
//! start, end, parent, query id — kept in memory and written out as a
//! Chrome trace when the run ends. Spans are recorded by the benchmark
//! around product calls (`layers.rs`); the product is not instrumented.
//!
//! One tracer per process: the "current span" stack that supplies each
//! new span's parent is thread-local.

use crate::json::Json;
use crate::stats::Samples;
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Small per-thread number (1 = first thread to record).
    pub tid: u32,
    /// Spans of one query share this id; 0 when the query is not known
    /// at the boundary (service calls on the pump's thread).
    pub query: u32,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_tid: AtomicU32,
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_tid: AtomicU32::new(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder never panics under the lock")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops. Its parent is the
    /// span this thread currently has open, if any.
    pub fn enter(&self, name: &'static str, query: u32) -> SpanGuard<'_> {
        let tid = TID.with(|t| {
            if t.get() == 0 {
                t.set(self.next_tid.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        });
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let index = {
            let mut spans = self.lock();
            let start_ns = self.now_ns();
            spans.push(Span {
                name,
                tid,
                query,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            spans.len() as u32 - 1
        };
        OPEN.with(|o| o.borrow_mut().push(index));
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Time `work` as a span.
    pub fn span<T>(&self, name: &'static str, query: u32, work: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name, query);
        work()
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.lock()[self.index as usize].end_ns = end;
        OPEN.with(|o| o.borrow_mut().pop());
    }
}

/// A span's self time: its duration minus the part its child spans
/// cover. Children run on the parent's thread, one after another, inside
/// the parent's interval, so their durations simply subtract.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations, in µs, of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Samples {
    let mut out = Samples::default();
    for s in spans.iter().filter(|s| s.name == name) {
        out.push(s.dur_ns() as f64 / 1e3);
    }
    out
}

/// Self times, in µs, of every span called `name`.
pub fn self_us(spans: &[Span], name: &str) -> Samples {
    let own = self_times_ns(spans);
    let mut out = Samples::default();
    for (s, own_ns) in spans.iter().zip(own) {
        if s.name == name {
            out.push(own_ns as f64 / 1e3);
        }
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one begin and one
/// end event per span, properly nested per thread.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Per thread, by start; an enclosing span (later end) before the
    // spans it encloses when both start on the same tick.
    order.sort_by_key(|&i| {
        (
            spans[i].tid,
            spans[i].start_ns,
            std::cmp::Reverse(spans[i].end_ns),
        )
    });
    let event = |s: &Span, phase: &str, ns: u64| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("ph", Json::str(phase)),
            ("ts", Json::Num(ns as f64 / 1e3)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(f64::from(s.tid))),
            (
                "args",
                Json::obj([("query", Json::Num(f64::from(s.query)))]),
            ),
        ])
    };
    let mut events = Vec::with_capacity(spans.len() * 2);
    let mut open: Vec<&Span> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(top) = open.last() {
            if top.tid == s.tid && top.end_ns > s.start_ns {
                break;
            }
            events.push(event(top, "E", top.end_ns));
            open.pop();
        }
        events.push(event(s, "B", s.start_ns));
        open.push(s);
    }
    while let Some(top) = open.pop() {
        events.push(event(top, "E", top.end_ns));
    }
    Json::obj([("traceEvents", Json::Arr(events))])
}

/// Where a workload's trace goes: `wsqbench-traces/` inside the target
/// directory this binary was built into (`<target>/release/wsqbench`),
/// so it lands with the other build outputs wherever the build ran.
pub fn trace_file(workload: &str) -> std::path::PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| "target".into());
    target
        .join("wsqbench-traces")
        .join(format!("trace-{workload}.json"))
}

/// Write the Chrome trace to `path`, creating its directory.
pub fn write_chrome_trace(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace(spans).encode())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tid: 1,
            query: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("query", None, 0, 1000),
            span("parse", Some(0), 10, 110),
            span("exec", Some(0), 200, 900),
            span("call", Some(2), 300, 500),
            span("orphan", None, 2000, 2050),
        ];
        assert_eq!(self_times_ns(&spans), [200, 100, 500, 200, 50]);
        assert_eq!(self_us(&spans, "exec").median(), 0.5);
        assert_eq!(durations_us(&spans, "exec").median(), 0.7);
    }

    #[test]
    fn guards_nest_by_thread_and_link_parents() {
        let tracer = Tracer::new();
        {
            let _q = tracer.enter("query", 3);
            tracer.span("parse", 3, || ());
            tracer.span("exec", 3, || tracer.span("call", 0, || ()));
        }
        std::thread::scope(|s| {
            s.spawn(|| tracer.span("elsewhere", 0, || ()));
        });
        let spans = tracer.snapshot();
        let parents: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("query", None),
                ("parse", Some(0)),
                ("exec", Some(0)),
                ("call", Some(2)),
                ("elsewhere", None)
            ]
        );
        assert_ne!(spans[0].tid, spans[4].tid);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn chrome_trace_pairs_begin_and_end_in_nesting_order() {
        let spans = [
            span("query", None, 0, 1000),
            span("parse", Some(0), 0, 100),
            span("exec", Some(0), 100, 1000),
        ];
        let doc = chrome_trace(&spans);
        let phases: Vec<String> = doc
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| {
                format!(
                    "{}{}",
                    e.get("ph").unwrap().as_str().unwrap(),
                    e.get("name").unwrap().as_str().unwrap()
                )
            })
            .collect();
        assert_eq!(
            phases,
            ["Bquery", "Bparse", "Eparse", "Bexec", "Eexec", "Equery"]
        );
    }
}
