//! `local_sql_rw`: stored tables only — no virtual table, no external
//! call — through an in-process, in-memory `Wsq`, one caller.
//!
//! Same `sql`/`engine` front end as the fan-out workloads, but `storage`
//! does the work and `pump`/`websim`/ReqSync do none, so every pump or
//! cache optimisation must read "no change" here. Storage is in memory,
//! not file-backed: the sandbox's filesystem is not what is measured.
//!
//! `Orders(Id, Cust, Amount, Note)` starts with 20 000 rows — about 300
//! heap pages plus 170 index pages against the 256-page buffer pool, so
//! pages are evicted — with an index on `Id`; `Customers` has 500 rows.
//! Mix per 100 ops (exact, shuffled by the seed): 60 indexed point
//! SELECTs, 10 `GROUP BY` scans over a 2 000-id range, 5 joins of a
//! 200-row slice with `Customers`, 15 INSERTs, 7 UPDATEs and 3 DELETEs
//! by `Id`.
//!
//! The table is sized by a product defect, not by taste: the B+-tree
//! loses its left half when an *internal* root splits
//! (`crates/storage/src/btree.rs`, root-split arm of `insert`: `path` is
//! always empty there, so the new root adopts the leaf instead of the
//! old root), which sequential integer keys reach at about 32 600
//! entries. The issue asked for 40 000 rows; at that size one indexed
//! lookup in three returns nothing. `MAX_OPS` keeps a run from growing
//! the table into that range on a faster machine.

use super::{
    drain_cursor, end_to_end_metrics, estimate, millis, per_layer_metrics, set_up_repeatedly,
    Estimator, Outcome, Recorder, RunArgs,
};
use crate::layers;
use crate::oracle::{summarize, Expected};
use crate::rng::{shuffled_block, Rng};
use crate::speed::RefClock;
use crate::stats::Samples;
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;
use wsq_common::{Tuple, Value};
use wsq_core::{StatementResult, Wsq, WsqConfig};

const ORDERS: i64 = 20_000;
const CUSTOMERS: i64 = 500;
const SCAN_WIDTH: i64 = 2_000;
const JOIN_WIDTH: i64 = 200;
/// Point, scan, join, insert, update, delete — per 100 ops.
const MIX: [usize; 6] = [60, 8, 7, 15, 7, 3];
/// 15 % of this many ops, on top of `ORDERS`, stays well under the
/// index's safe size (module docs).
const MAX_OPS: usize = 50_000;
/// 100-op blocks in each traced pass at the default `--seconds`.
const TRACED_BLOCKS_PER_RUN: usize = 20;

/// In `MIX` order; `kind as usize` indexes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    Scan,
    Join,
    Insert,
    Update,
    Delete,
}

const KINDS: [Kind; 6] = [
    Kind::Point,
    Kind::Scan,
    Kind::Join,
    Kind::Insert,
    Kind::Update,
    Kind::Delete,
];

impl Kind {
    fn is_write(self) -> bool {
        matches!(self, Kind::Insert | Kind::Update | Kind::Delete)
    }
}

/// What an op must return.
#[derive(Debug, Clone, PartialEq)]
enum Want {
    Rows(Expected),
    Affected(usize),
}

#[derive(Debug, Clone, PartialEq)]
struct Op {
    kind: Kind,
    sql: String,
    want: Want,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Order {
    cust: i64,
    amount: i64,
}

fn note(id: i64) -> String {
    format!("note {id} on the order")
}

fn customer_name(cust: i64) -> String {
    format!("customer {cust}")
}

/// The harness's own model of `Orders`: ops are drawn against it and
/// every answer is checked against it.
struct Model {
    orders: BTreeMap<i64, Order>,
    next_id: i64,
    rng: Rng,
    block: Vec<usize>,
}

impl Model {
    fn new(seed: u64) -> Model {
        let mut rng = Rng::new(seed, 0x11);
        let orders = (0..ORDERS)
            .map(|id| {
                let order = Order {
                    cust: rng.below(CUSTOMERS as u64) as i64,
                    amount: rng.below(1000) as i64,
                };
                (id, order)
            })
            .collect();
        Model {
            orders,
            next_id: ORDERS,
            rng,
            block: Vec::new(),
        }
    }

    fn some_id(&mut self) -> i64 {
        self.rng.below(self.next_id as u64) as i64
    }

    fn range(&mut self, width: i64) -> (i64, i64) {
        let lo = self.rng.below((self.next_id - width) as u64) as i64;
        (lo, lo + width)
    }

    /// Draw the next op and apply it to the model.
    fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            self.block = shuffled_block(&MIX, &mut self.rng);
        }
        let kind = KINDS[self.block.pop().expect("a block was just drawn")];
        let int = Value::Int;
        let (sql, want) = match kind {
            Kind::Point => {
                let id = self.some_id();
                let row = self.orders.get(&id).map(|o| {
                    Tuple::new(vec![
                        int(id),
                        int(o.cust),
                        int(o.amount),
                        Value::from(note(id)),
                    ])
                });
                (
                    format!("SELECT Id, Cust, Amount, Note FROM Orders WHERE Id = {id}"),
                    Want::Rows(summarize(row.as_ref())),
                )
            }
            Kind::Scan => {
                let (lo, hi) = self.range(SCAN_WIDTH);
                let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
                for o in self.orders.range(lo..hi).map(|(_, o)| o) {
                    let g = groups.entry(o.cust).or_default();
                    g.0 += 1;
                    g.1 += o.amount;
                }
                let rows: Vec<Tuple> = groups
                    .into_iter()
                    .map(|(cust, (n, sum))| Tuple::new(vec![int(cust), int(n), int(sum)]))
                    .collect();
                (
                    format!(
                        "SELECT Cust, COUNT(*), SUM(Amount) FROM Orders \
                         WHERE Id >= {lo} AND Id < {hi} GROUP BY Cust"
                    ),
                    Want::Rows(summarize(&rows)),
                )
            }
            Kind::Join => {
                let (lo, hi) = self.range(JOIN_WIDTH);
                let rows: Vec<Tuple> = self
                    .orders
                    .range(lo..hi)
                    .map(|(&id, o)| Tuple::new(vec![int(id), Value::from(customer_name(o.cust))]))
                    .collect();
                (
                    format!(
                        "SELECT o.Id, c.Name FROM Orders o, Customers c \
                         WHERE o.Cust = c.Id AND o.Id >= {lo} AND o.Id < {hi}"
                    ),
                    Want::Rows(summarize(&rows)),
                )
            }
            Kind::Insert => {
                let id = self.next_id;
                self.next_id += 1;
                let order = Order {
                    cust: self.rng.below(CUSTOMERS as u64) as i64,
                    amount: self.rng.below(1000) as i64,
                };
                self.orders.insert(id, order);
                (
                    format!(
                        "INSERT INTO Orders VALUES ({id}, {}, {}, '{}')",
                        order.cust,
                        order.amount,
                        note(id)
                    ),
                    Want::Affected(1),
                )
            }
            Kind::Update => {
                let id = self.some_id();
                let amount = self.rng.below(1000) as i64;
                let hit = self.orders.get_mut(&id).map(|o| o.amount = amount);
                (
                    format!("UPDATE Orders SET Amount = {amount} WHERE Id = {id}"),
                    Want::Affected(hit.map_or(0, |()| 1)),
                )
            }
            Kind::Delete => {
                let id = self.some_id();
                let hit = self.orders.remove(&id);
                (
                    format!("DELETE FROM Orders WHERE Id = {id}"),
                    Want::Affected(hit.map_or(0, |_| 1)),
                )
            }
        };
        Op { kind, sql, want }
    }

    /// `COUNT(*), SUM(Amount)` as the table must now answer it.
    fn totals(&self) -> Expected {
        let sum: i64 = self.orders.values().map(|o| o.amount).sum();
        summarize([&Tuple::new(vec![
            Value::Int(self.orders.len() as i64),
            Value::Int(sum),
        ])])
    }
}

/// The program's set-up: open, create both tables, load them with
/// multi-row INSERTs, build the index.
fn setup(model: &Model) -> Result<Wsq, String> {
    let mut wsq = Wsq::open_in_memory(WsqConfig::default()).map_err(|e| format!("open: {e}"))?;
    let mut run = |sql: &str| {
        wsq.execute(sql)
            .map(|_| ())
            .map_err(|e| format!("load: {e}"))
    };
    run("CREATE TABLE Orders (Id INT, Cust INT, Amount INT, Note VARCHAR(40))")?;
    run("CREATE TABLE Customers (Id INT, Name VARCHAR(24), Region INT)")?;
    let orders: Vec<(&i64, &Order)> = model.orders.iter().collect();
    for chunk in orders.chunks(500) {
        let values: Vec<String> = chunk
            .iter()
            .map(|(id, o)| format!("({id}, {}, {}, '{}')", o.cust, o.amount, note(**id)))
            .collect();
        run(&format!("INSERT INTO Orders VALUES {}", values.join(",")))?;
    }
    let values: Vec<String> = (0..CUSTOMERS)
        .map(|c| format!("({c}, '{}', {})", customer_name(c), c % 7))
        .collect();
    run(&format!(
        "INSERT INTO Customers VALUES {}",
        values.join(",")
    ))?;
    run("CREATE INDEX ON Orders (Id)")?;
    Ok(wsq)
}

fn affected(results: Vec<StatementResult>) -> Want {
    match results.as_slice() {
        [StatementResult::Affected(n)] => Want::Affected(*n),
        _ => Want::Affected(usize::MAX),
    }
}

/// One end-to-end op: SELECTs through a cursor (first and last row
/// timestamped), writes through `Wsq::execute`.
fn run_op(wsq: &mut Wsq, rec: &mut Recorder, clock: &RefClock, op: &Op) -> f64 {
    rec.attempted += 1;
    let t0 = Instant::now();
    let (got, first_row) = if op.kind.is_write() {
        (wsq.execute(&op.sql).map(affected), None)
    } else {
        let (rows, first) = drain_cursor(wsq, &op.sql, t0);
        // A SELECT that found nothing delivered its (empty) answer at
        // the end.
        let first = first.unwrap_or_else(|| millis(t0));
        (rows.map(|rows| Want::Rows(summarize(&rows))), Some(first))
    };
    let total = rec.op(clock, millis(t0), first_row);
    if op.kind.is_write() {
        rec.write_ms.push(total);
    }
    rec.check(&op.sql, &op.want, got);
    total
}

/// After the ops: the table must total what the model totals, and the
/// pump must never have been touched.
fn final_checks(wsq: &mut Wsq, model: &Model, rec: &mut Recorder) {
    rec.attempted += 1;
    let sql = "SELECT COUNT(*), SUM(Amount) FROM Orders";
    match wsq.query(sql) {
        Ok(r) if summarize(&r.rows) == model.totals() => {}
        Ok(r) => rec.fail(|| format!("{sql}: got {:?}, model disagrees", r.rows)),
        Err(e) => rec.fail(|| format!("{sql}: {e}")),
    }
    let pump = layers::pump_stats(wsq);
    if pump.registered != 0 || wsq.pump().live_calls() != 0 {
        rec.fail_check(format!(
            "a workload with no virtual table registered {} external calls",
            pump.registered
        ));
    }
}

pub fn run_end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let mut model = Model::new(args.seed);

    let (mut wsq, setup_s) = set_up_repeatedly(args, || setup(&model), drop)?;

    let mut rec = Recorder::default();
    let deadline = args.deadline();
    let t0 = Instant::now();
    let mut clock = RefClock::start(true);
    for _ in 0..MAX_OPS {
        clock.tick();
        run_op(&mut wsq, &mut rec, &clock, &model.next_op());
        if t0.elapsed() >= deadline {
            break;
        }
    }
    let timing = estimate(&[(&rec.ops, clock.now_s())], Estimator::QuietQuartile);
    let metrics = end_to_end_metrics(setup_s, timing);
    final_checks(&mut wsq, &model, &mut rec);
    Ok(rec.into_outcome(metrics))
}

pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut model = Model::new(args.seed);
    let mut wsq = setup(&model)?;
    let tracer = Tracer::new();
    let ops_per_pass = args.traced_ops(TRACED_BLOCKS_PER_RUN * 100, 100) / 100 * 100;
    let mut rec = Recorder::default();

    // Two ways through the same op stream, alternating block by block
    // so both see the same machine: A is the product's own entry points,
    // untraced (latency by op kind is what `storage` costs each of
    // them); B is the harness driving parse → plan → exec (or parse →
    // run_statement) itself, a span around each.
    let unscaled = RefClock::start(false);
    let mut clock = RefClock::start(true);
    let pool_before = layers::pool_stats(&wsq);
    let mut by_kind: [Samples; 6] = Default::default();
    let mut rows_per_query = Samples::default();
    let (mut wall_a, mut wall_b) = (0.0, 0.0);
    let mut qid = 0;
    for _ in 0..ops_per_pass / 100 {
        clock.tick();
        let t0 = Instant::now();
        for _ in 0..100 {
            let op = model.next_op();
            let total = run_op(&mut wsq, &mut rec, &unscaled, &op);
            by_kind[KINDS
                .iter()
                .position(|k| *k == op.kind)
                .expect("a known kind")]
            .push(total);
        }
        wall_a += t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for _ in 0..100 {
            let op = model.next_op();
            qid += 1;
            rec.attempted += 1;
            let got = tracer.span("core.query", qid, || {
                if op.kind.is_write() {
                    let stmt = tracer.span("sql.parse", qid, || layers::parse(&op.sql))?;
                    tracer
                        .span("engine.run_statement", qid, || {
                            layers::run_statement(&mut wsq, &stmt)
                        })
                        .map(|r| affected(vec![r]))
                } else {
                    let sel = tracer.span("sql.parse", qid, || layers::parse_select(&op.sql))?;
                    let plan = tracer.span("engine.plan", qid, || layers::plan(&wsq, &sel))?;
                    let result = tracer.span("engine.exec", qid, || layers::exec(&wsq, &plan))?;
                    rows_per_query.push(result.rows.len() as f64);
                    Ok(Want::Rows(summarize(&result.rows)))
                }
            });
            rec.check(&op.sql, &op.want, got);
        }
        wall_b += t0.elapsed().as_secs_f64();
    }
    let pool_after = layers::pool_stats(&wsq);
    let write_ms_p50 = rec.write_ms.median();
    final_checks(&mut wsq, &model, &mut rec);

    let spans = tracer.snapshot();
    let pool_reads =
        (pool_after.hits - pool_before.hits) + (pool_after.misses - pool_before.misses);
    let ms = |k: usize| by_kind[k].median();
    let m: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("workload.ops", 2.0 * ops_per_pass as f64),
        ("workload.write_ms_p50", write_ms_p50),
        (
            "sql.parse_us",
            trace::durations_us(&spans, "sql.parse").median(),
        ),
        (
            "engine.plan_us",
            trace::durations_us(&spans, "engine.plan").median(),
        ),
        (
            "engine.exec_us",
            trace::durations_us(&spans, "engine.exec").median(),
        ),
        ("engine.rows_per_query", rows_per_query.mean()),
        ("storage.point_select_us", ms(0) * 1e3),
        ("storage.scan_ms", ms(1)),
        ("storage.join_ms", ms(2)),
        ("storage.insert_us", ms(3) * 1e3),
        ("storage.update_us", ms(4) * 1e3),
        ("storage.delete_us", ms(5) * 1e3),
        (
            "storage.pool_hit_ratio",
            (pool_after.hits - pool_before.hits) as f64 / pool_reads.max(1) as f64,
        ),
        (
            "storage.pool_evictions",
            (pool_after.evictions - pool_before.evictions) as f64,
        ),
        (
            "storage.dirty_evictions",
            (pool_after.dirty_evictions - pool_before.dirty_evictions) as f64,
        ),
        (
            "trace.harness_overhead_pct",
            (wall_b - wall_a) / wall_a * 100.0,
        ),
        ("trace.spans", spans.len() as f64),
        (
            "trace.query_self_us",
            trace::self_us(&spans, "core.query").median(),
        ),
    ]);

    trace::write_chrome_trace(&spans, &trace::trace_file("local_sql_rw"))
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(rec.into_outcome(per_layer_metrics(m, clock.mean_slowdown())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_are_fixed_by_the_seed_and_keep_the_mix() {
        let draw = |seed| -> Vec<Op> {
            let mut model = Model::new(seed);
            (0..200).map(|_| model.next_op()).collect()
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
        for block in draw(4).chunks(100) {
            for (kind, want) in KINDS.iter().zip(MIX) {
                assert_eq!(block.iter().filter(|op| op.kind == *kind).count(), want);
            }
        }
    }

    #[test]
    fn the_model_tracks_its_own_writes() {
        let mut model = Model::new(2);
        let before = model.orders.len();
        let ops: Vec<Op> = (0..1000).map(|_| model.next_op()).collect();
        let inserted = ops.iter().filter(|op| op.kind == Kind::Insert).count();
        let deleted = ops
            .iter()
            .filter(|op| op.kind == Kind::Delete && op.want == Want::Affected(1))
            .count();
        assert_eq!(model.orders.len(), before + inserted - deleted);
        assert_eq!(model.next_id, ORDERS + inserted as i64);
        assert!(ops.iter().all(|op| layers::parse(&op.sql).is_ok()));
    }
}
