//! Scans, selection, projection, sorting, aggregation, distinct, limit.

use super::Executor;
use crate::expr::{compile, CExpr, ColumnSet};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use wsq_common::{GroupKey, Result, Schema, Tuple, Value, WsqError};
use wsq_sql::ast::{AggFunc, ColumnRef, Expr, Literal};
use wsq_storage::codec;
use wsq_storage::heap::{HeapFile, Rid};
use wsq_storage::BTree;

/// Sequential scan of a stored heap file, a page at a time: one hold of
/// the buffer pool decodes a page's live records, straight from the page.
/// A read takes one record after `open`, and twice as many as the one
/// before after that, so the first row costs one
/// record's decode, as it did a record at a time, while a page still
/// takes only a few holds.
pub struct SeqScanExec {
    heap: Arc<HeapFile>,
    /// Qualified output schema (alias applied).
    schema: Schema,
    /// The columns anything above reads; the others decode to `Null`.
    live: ColumnSet,
    /// Where the next read starts.
    page: u32,
    slot: u16,
    /// The most records the next read takes.
    batch: usize,
    /// The rows read and not yet emitted, then the read's error, if any.
    rows: PageRows,
}

impl SeqScanExec {
    /// Scan `heap`, producing tuples under `schema` (already qualified).
    pub fn new(heap: Arc<HeapFile>, schema: Schema) -> Self {
        SeqScanExec {
            heap,
            live: ColumnSet::ALL,
            schema,
            page: 1,
            slot: 0,
            batch: SCAN_BATCH_FIRST,
            rows: PageRows::default(),
        }
    }
}

impl Executor for SeqScanExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, live: ColumnSet) {
        super::note_leaf_reads(&self.schema, live);
        self.live = live;
    }

    fn open(&mut self) -> Result<()> {
        (self.page, self.slot, self.batch) = (1, 0, SCAN_BATCH_FIRST);
        self.rows.clear();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(row) = self.rows.pop()? {
                return Ok(Some(row));
            }
            let (schema, live, rows) = (&self.schema, self.live, &mut self.rows);
            let (batch, mut taken, mut stopped_at) = (self.batch, 0, None);
            let read = self
                .heap
                .for_each_on_page(self.page, self.slot, |rid, rec| {
                    rows.push(codec::decode_live(schema, rec, |i| live.contains(i))?);
                    taken += 1;
                    if taken == batch {
                        stopped_at = Some(rid.slot.0 + 1);
                    }
                    Ok(taken < batch)
                });
            self.batch = batch.saturating_mul(2);
            match (read, stopped_at) {
                // Past the last page: stay there, so rows a later page
                // gains are seen by a later call.
                (Ok(false), _) => return Ok(None),
                (Ok(true), Some(slot)) => self.slot = slot,
                (Ok(true), None) => (self.page, self.slot) = (self.page + 1, 0),
                (Err(e), _) => {
                    (self.page, self.slot) = (self.page + 1, 0);
                    self.rows.fail(e);
                }
            }
        }
    }
}

/// The most records a stored-table scan's first read after `open` takes.
const SCAN_BATCH_FIRST: usize = 1;

/// The rows a scan read from one heap page and has not emitted yet, and
/// the error that stopped the read, which comes after them.
#[derive(Default)]
struct PageRows {
    /// The first row, held apart so that a one-row read allocates no
    /// queue: an indexed point SELECT takes 39 allocations a warm query
    /// with it and 40 with a plain queue (`tests/alloc_budget.rs`).
    first: Option<Tuple>,
    rest: VecDeque<Tuple>,
    error: Option<WsqError>,
}

impl PageRows {
    fn push(&mut self, row: Tuple) {
        if self.first.is_none() && self.rest.is_empty() {
            self.first = Some(row);
        } else {
            self.rest.push_back(row);
        }
    }

    fn fail(&mut self, e: WsqError) {
        self.error = Some(e);
    }

    /// The next row; the error once the rows are out; `None` when both
    /// are.
    fn pop(&mut self) -> Result<Option<Tuple>> {
        match self.first.take().or_else(|| self.rest.pop_front()) {
            Some(row) => Ok(Some(row)),
            None => self.error.take().map_or(Ok(None), Err),
        }
    }

    fn clear(&mut self) {
        self.first = None;
        self.rest.clear();
        self.error = None;
    }
}

/// The rids `tree` files under the inclusive key range `[lo, hi]`
/// (`None` = open end), in rid order: the order a sequential scan meets
/// the rows in, so an index changes no result's order and consecutive
/// fetches stay on one heap page.
pub(crate) fn index_range_rids(
    tree: &BTree,
    lo: Option<&Value>,
    hi: Option<&Value>,
) -> Result<Vec<Rid>> {
    let (lo, hi) = codec::encode_key_range(lo, hi)?;
    let mut rids = Vec::new();
    tree.scan_range(&lo, &hi, |_, rid| rids.push(rid))?;
    rids.sort_unstable();
    Ok(rids)
}

/// B+-tree range scan: resolve the rids of the inclusive key range
/// through the index, then fetch the rows from the heap in rid order, a
/// run of rids on one page in one hold of the buffer pool. Runs are cut
/// to a batch that starts at one rid and doubles, as [`SeqScanExec`]'s
/// reads are.
pub struct IndexScanExec {
    heap: Arc<HeapFile>,
    tree: Arc<BTree>,
    schema: Schema,
    /// The columns anything above reads; the others decode to `Null`.
    live: ColumnSet,
    lo: Option<Value>,
    hi: Option<Value>,
    rids: Vec<Rid>,
    pos: usize,
    /// The most rids the next read takes.
    batch: usize,
    /// The current run's rows not yet emitted, then its error, if any.
    rows: PageRows,
}

impl IndexScanExec {
    /// Scan rows of `heap` whose indexed column lies in `[lo, hi]`
    /// (`None` = open end).
    pub fn new(
        heap: Arc<HeapFile>,
        tree: Arc<BTree>,
        schema: Schema,
        lo: Option<Value>,
        hi: Option<Value>,
    ) -> Self {
        IndexScanExec {
            heap,
            tree,
            live: ColumnSet::ALL,
            schema,
            lo,
            hi,
            rids: Vec::new(),
            pos: 0,
            batch: SCAN_BATCH_FIRST,
            rows: PageRows::default(),
        }
    }
}

impl Executor for IndexScanExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, live: ColumnSet) {
        super::note_leaf_reads(&self.schema, live);
        self.live = live;
    }

    fn open(&mut self) -> Result<()> {
        self.rids = index_range_rids(&self.tree, self.lo.as_ref(), self.hi.as_ref())?;
        (self.pos, self.batch) = (0, SCAN_BATCH_FIRST);
        self.rows.clear();
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            if let Some(row) = self.rows.pop()? {
                return Ok(Some(row));
            }
            let Some(&first) = self.rids.get(self.pos) else {
                return Ok(None);
            };
            let run = self.rids[self.pos..]
                .iter()
                .take_while(|rid| rid.page == first.page)
                .take(self.batch)
                .count();
            self.batch = self.batch.saturating_mul(2);
            let slots = self.rids[self.pos..self.pos + run].iter().map(|r| r.slot);
            self.pos += run;
            let (schema, live, rows) = (&self.schema, self.live, &mut self.rows);
            let read = self.heap.for_each_at(first.page, slots, |_, rec| {
                rows.push(codec::decode_live(schema, rec, |i| live.contains(i))?);
                Ok(())
            });
            if let Err(e) = read {
                self.rows.fail(e);
            }
        }
    }
}

/// Literal rows.
pub struct ValuesExec {
    schema: Schema,
    rows: Vec<Tuple>,
    pos: usize,
}

impl ValuesExec {
    /// Emit `rows` under `schema`.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Self {
        ValuesExec {
            schema,
            rows,
            pos: 0,
        }
    }
}

impl Executor for ValuesExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.pos < self.rows.len() {
            self.pos += 1;
            Ok(Some(self.rows[self.pos - 1].clone()))
        } else {
            Ok(None)
        }
    }
}

/// Selection.
pub struct FilterExec {
    child: Box<dyn Executor>,
    predicate: CExpr,
    schema: Schema,
}

impl FilterExec {
    /// Filter `child` by `predicate` (compiled against the child schema).
    pub fn new(child: Box<dyn Executor>, predicate: &Expr) -> Result<Self> {
        let schema = child.schema().clone();
        let predicate = compile(predicate, &schema)?;
        Ok(FilterExec {
            child,
            predicate,
            schema,
        })
    }
}

impl Executor for FilterExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, live: ColumnSet) {
        self.child
            .narrow(super::reads_with(live, [&self.predicate]));
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.child.next()? {
            if self.predicate.eval_bool(&t)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }
}

/// Projection (expressions + renaming).
///
/// A plain column that no other item reads is moved out of the child's
/// tuple; a column named twice is copied, and a computed item evaluated.
/// An item nothing above reads is `Null`, except that a placeholder in a
/// column no live item reads moves through: a `ReqSync` above reads it.
pub struct ProjectExec {
    child: Box<dyn Executor>,
    /// Each output column's expression, and how it is produced.
    items: Vec<(CExpr, Item)>,
    schema: Schema,
}

/// How a projection produces one output column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Item {
    /// Move the input column out: nothing else reads it.
    Move(usize),
    /// Evaluate the expression (a copy, for a column read twice).
    Eval,
    /// Nothing above reads the column; a plain column's input (no live
    /// item reads it) passes on a placeholder.
    Dead(Option<usize>),
}

/// Decide how to produce each item when anything above reads `live`, and
/// return the input columns the live items read.
pub(super) fn plan_items(items: &mut [(CExpr, Item)], live: ColumnSet) -> ColumnSet {
    // The input columns read by one live item, and by more than one.
    let (mut once, mut twice) = (ColumnSet::NONE, ColumnSet::NONE);
    for (k, (e, _)) in items.iter().enumerate() {
        if live.contains(k) {
            let mut reads = ColumnSet::NONE;
            e.mark_reads(&mut reads);
            twice = twice.union(once.intersection(reads));
            once = once.union(reads);
        }
    }
    for (k, (e, item)) in items.iter_mut().enumerate() {
        *item = match e {
            CExpr::Column(i) if !live.contains(k) && !once.contains(*i) => Item::Dead(Some(*i)),
            _ if !live.contains(k) => Item::Dead(None),
            CExpr::Column(i) if !twice.contains(*i) => Item::Move(*i),
            _ => Item::Eval,
        };
    }
    once
}

impl ProjectExec {
    /// Project `items` out of `child`.
    pub fn new(
        child: Box<dyn Executor>,
        items: &[(Expr, Arc<str>)],
        schema: Schema,
    ) -> Result<Self> {
        let in_schema = child.schema();
        let mut items = items
            .iter()
            .map(|(e, _)| Ok((compile(e, in_schema)?, Item::Eval)))
            .collect::<Result<Vec<_>>>()?;
        plan_items(&mut items, ColumnSet::ALL);
        Ok(ProjectExec {
            child,
            items,
            schema,
        })
    }
}

impl Executor for ProjectExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, live: ColumnSet) {
        let reads = plan_items(&mut self.items, live);
        self.child.narrow(reads);
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        let Some(mut t) = self.child.next()? else {
            return Ok(None);
        };
        let mut vals = Vec::with_capacity(self.items.len());
        for (e, item) in &self.items {
            vals.push(match *item {
                Item::Move(i) => std::mem::replace(&mut t.values_mut()[i], Value::Null),
                Item::Eval => e.eval(&t)?,
                Item::Dead(Some(i)) => match &mut t.values_mut()[i] {
                    v @ Value::Pending(_) => std::mem::replace(v, Value::Null),
                    _ => Value::Null,
                },
                Item::Dead(None) => Value::Null,
            });
        }
        Ok(Some(Tuple::new(vals)))
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }
}

/// Materializing sort.
pub struct SortExec {
    child: Box<dyn Executor>,
    keys: Vec<(CExpr, bool)>,
    schema: Schema,
    sorted: Vec<Tuple>,
    pos: usize,
}

impl SortExec {
    /// Sort `child` by `keys` (`(expr, descending)`). An integer literal
    /// key is an ordinal (`ORDER BY 2` = second output column).
    pub fn new(child: Box<dyn Executor>, keys: &[(Expr, bool)]) -> Result<Self> {
        let schema = child.schema().clone();
        let keys = keys
            .iter()
            .map(|(e, desc)| {
                let c = match e {
                    Expr::Literal(Literal::Int(k)) if *k >= 1 && (*k as usize) <= schema.len() => {
                        CExpr::Column(*k as usize - 1)
                    }
                    other => compile(other, &schema)?,
                };
                Ok((c, *desc))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(SortExec {
            child,
            keys,
            schema,
            sorted: Vec::new(),
            pos: 0,
        })
    }
}

impl Executor for SortExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, live: ColumnSet) {
        let keys = self.keys.iter().map(|(e, _)| e);
        self.child.narrow(super::reads_with(live, keys));
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        let mut rows: Vec<(Vec<Value>, Tuple)> = Vec::new();
        while let Some(t) = self.child.next()? {
            let mut key = Vec::with_capacity(self.keys.len());
            for (e, _) in &self.keys {
                key.push(e.eval(&t)?);
            }
            rows.push((key, t));
        }
        self.child.close()?;
        // Validate all keys are comparable up front (placeholders would be
        // a clash-rule violation), then sort infallibly. The sort is
        // stable, so equal keys preserve input order.
        for (key, _) in &rows {
            for v in key {
                if v.is_pending() {
                    return Err(WsqError::Exec(
                        "sort key contains unresolved placeholder".to_string(),
                    ));
                }
            }
        }
        let descs: Vec<bool> = self.keys.iter().map(|(_, d)| *d).collect();
        rows.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), desc) in ka.iter().zip(kb).zip(&descs) {
                let ord = a.compare(b).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.sorted = rows.into_iter().map(|(_, t)| t).collect();
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        // `open` sorts afresh, so each row is handed out, not copied.
        Ok(take_next(&mut self.sorted, &mut self.pos))
    }
}

/// Move the row at `pos` out of a materialized `rows` and step past it.
pub(super) fn take_next(rows: &mut [Tuple], pos: &mut usize) -> Option<Tuple> {
    let row = std::mem::take(rows.get_mut(*pos)?);
    *pos += 1;
    Some(row)
}

/// Duplicate elimination over complete tuples.
pub struct DistinctExec {
    child: Box<dyn Executor>,
    schema: Schema,
    seen: HashSet<Vec<GroupKey>>,
    /// The row in hand's key; a duplicate allocates nothing.
    key: Vec<GroupKey>,
}

impl DistinctExec {
    /// De-duplicate `child`.
    pub fn new(child: Box<dyn Executor>) -> Self {
        let schema = child.schema().clone();
        DistinctExec {
            child,
            schema,
            seen: HashSet::new(),
            key: Vec::new(),
        }
    }
}

impl Executor for DistinctExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, _live: ColumnSet) {
        // Duplicates are judged on every column.
        self.child.narrow(ColumnSet::ALL);
    }

    fn open(&mut self) -> Result<()> {
        self.seen.clear();
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        while let Some(t) = self.child.next()? {
            if t.is_incomplete() {
                return Err(WsqError::Exec(
                    "DISTINCT over unresolved placeholders (clash-rule violation)".to_string(),
                ));
            }
            self.key.clear();
            self.key.reserve_exact(t.values().len());
            self.key.extend(t.values().iter().map(Value::group_key));
            // One hash a row: a new row's buffer is stored as its key, and a
            // duplicate hands back the equal stored key as the next buffer.
            match self.seen.replace(std::mem::take(&mut self.key)) {
                None => return Ok(Some(t)),
                Some(stored) => self.key = stored,
            }
        }
        Ok(None)
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }
}

/// Row limit.
pub struct LimitExec {
    child: Box<dyn Executor>,
    schema: Schema,
    n: u64,
    emitted: u64,
}

impl LimitExec {
    /// Pass at most `n` rows of `child`.
    pub fn new(child: Box<dyn Executor>, n: u64) -> Self {
        let schema = child.schema().clone();
        LimitExec {
            child,
            schema,
            n,
            emitted: 0,
        }
    }
}

impl Executor for LimitExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, live: ColumnSet) {
        self.child.narrow(live);
    }

    fn open(&mut self) -> Result<()> {
        self.emitted = 0;
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        if self.emitted >= self.n {
            return Ok(None);
        }
        match self.child.next()? {
            Some(t) => {
                self.emitted += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self) -> Result<()> {
        self.child.close()
    }
}

/// One aggregate accumulator.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            Acc::Count(n) => {
                // COUNT(*) gets None-arg updates; COUNT(c) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            Acc::Sum(acc) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    *acc = Some(match acc.take() {
                        None => val.clone(),
                        Some(Value::Int(a)) => match val {
                            Value::Int(b) => Value::Int(a + b),
                            other => Value::Float(a as f64 + other.as_float()?),
                        },
                        Some(Value::Float(a)) => Value::Float(a + val.as_float()?),
                        Some(other) => return Err(WsqError::Type(format!("cannot SUM {other}"))),
                    });
                }
            }
            Acc::Min(acc) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    let replace = match acc {
                        None => true,
                        Some(cur) => val.compare(cur)? == std::cmp::Ordering::Less,
                    };
                    if replace {
                        *acc = Some(val.clone());
                    }
                }
            }
            Acc::Max(acc) => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    let replace = match acc {
                        None => true,
                        Some(cur) => val.compare(cur)? == std::cmp::Ordering::Greater,
                    };
                    if replace {
                        *acc = Some(val.clone());
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(val) = v.filter(|v| !v.is_null()) {
                    *sum += val.as_float()?;
                    *n += 1;
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// Hash aggregation with optional grouping.
pub struct AggregateExec {
    child: Box<dyn Executor>,
    group_idx: Vec<usize>,
    aggs: Vec<(AggFunc, Option<CExpr>)>,
    schema: Schema,
    results: Vec<Tuple>,
    pos: usize,
}

impl AggregateExec {
    /// Aggregate `child` grouped by `group_by` columns.
    pub fn new(
        child: Box<dyn Executor>,
        group_by: &[ColumnRef],
        aggs: &[(AggFunc, Option<Expr>, Arc<str>)],
        schema: Schema,
    ) -> Result<Self> {
        let in_schema = child.schema();
        let group_idx = group_by
            .iter()
            .map(|g| in_schema.resolve(g.qualifier.as_deref(), &g.name))
            .collect::<Result<Vec<_>>>()?;
        let aggs = aggs
            .iter()
            .map(|(f, a, _)| {
                let c = a.as_ref().map(|e| compile(e, in_schema)).transpose()?;
                Ok((*f, c))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(AggregateExec {
            child,
            group_idx,
            aggs,
            schema,
            results: Vec::new(),
            pos: 0,
        })
    }
}

impl Executor for AggregateExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, _live: ColumnSet) {
        // The groups and the aggregates' arguments; `COUNT(*)` reads none.
        let args = self.aggs.iter().filter_map(|(_, e)| e.as_ref());
        let mut reads = super::reads_with(ColumnSet::NONE, args);
        for &i in &self.group_idx {
            reads.insert(i);
        }
        self.child.narrow(reads);
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()?;
        let (n, width) = (self.aggs.len(), self.group_idx.len() + self.aggs.len());
        let new_accs = || self.aggs.iter().map(|(f, _)| Acc::new(*f));
        // Each group's values, in first-seen order for deterministic
        // output, and its `n` accumulators at `accs[n * slot..]`. A global
        // aggregate (no GROUP BY) has its one group from the start, so it
        // yields a row over empty input too, and hashes nothing.
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut accs: Vec<Acc> = Vec::new();
        if self.group_idx.is_empty() {
            rows.push(Vec::with_capacity(width));
            accs.extend(new_accs());
        }
        let mut groups: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        // Each row's key is built here and looked up as a slice; only a
        // new group's key is stored.
        let mut key = Vec::with_capacity(self.group_idx.len());
        while let Some(t) = self.child.next()? {
            if t.is_incomplete() {
                return Err(WsqError::Exec(
                    "aggregation over unresolved placeholders (clash-rule violation)".to_string(),
                ));
            }
            let slot = if self.group_idx.is_empty() {
                0
            } else {
                key.clear();
                key.extend(self.group_idx.iter().map(|&i| t.get(i).group_key()));
                match groups.get(key.as_slice()) {
                    Some(&slot) => slot,
                    None => {
                        let mut vals = Vec::with_capacity(width);
                        vals.extend(self.group_idx.iter().map(|&i| t.get(i).clone()));
                        rows.push(vals);
                        accs.extend(new_accs());
                        groups.insert(key.clone(), rows.len() - 1);
                        rows.len() - 1
                    }
                }
            };
            for ((_, arg), acc) in self.aggs.iter().zip(&mut accs[n * slot..]) {
                match arg {
                    Some(e) => acc.update(Some(&*e.operand(&t)?))?,
                    None => acc.update(None)?,
                }
            }
        }
        self.child.close()?;
        let mut accs = accs.into_iter();
        self.results = rows
            .into_iter()
            .map(|mut vals| {
                vals.extend(accs.by_ref().take(n).map(Acc::finish));
                Tuple::new(vals)
            })
            .collect();
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        Ok(take_next(&mut self.results, &mut self.pos))
    }
}
