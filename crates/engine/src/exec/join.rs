//! Join executors: nested-loop join / cross product (probing a hash of
//! the inner side when the predicate has an equi-join key), and the dependent
//! join that feeds bindings to virtual-table scans one outer tuple at a time.

use super::Executor;
use crate::expr::{compile, CExpr, ColumnSet};
use crate::plan::{EvBinding, EvSpec};
use std::collections::HashMap;
use std::ops::Range;
use wsq_common::{DataType, GroupKey, Result, Schema, Tuple, Value};
use wsq_sql::ast::{BinOp, Expr};

/// Inner nested-loop join (predicate `None` = cross product).
///
/// The inner side is fully materialized at `open`. Besides being the
/// classic implementation, this has the property §4 wants: any `AEVScan`s
/// in the inner subtree register *all* their calls up front, maximizing
/// concurrency.
///
/// # Probing
///
/// When the predicate has a top-level `outer.col = inner.col` conjunct
/// whose two columns share a declared type of `INT` or `VARCHAR`, `open`
/// also buckets the inner tuples by that key (NULL keys left out — `=`
/// with NULL is false) and `next` pairs each outer tuple with its bucket
/// only, not with every inner tuple. The hash is a *prefilter*: the whole
/// predicate is still evaluated on every candidate pair, and rows come out
/// in the order the plain loop produces them (outer order, then inner
/// order), so plans, EXPLAIN and results are those of the loop.
///
/// The prefilter must never drop a pair [`Value::compare`] calls equal,
/// and it hashes with [`Value::group_key`], under which `1` and `1.0`
/// differ. So a run-time key that is not `Int`, `Str` or `Null` — a
/// `Float` in a column whose declared type was only inferred, a `Pending`
/// — turns probing off for the rest of that `open` and the loop runs,
/// errors included. The one observable difference while probing is on: an
/// error that only a **non-matching** pair would raise (say a type error
/// in another conjunct) is no longer raised, because that pair is never
/// formed.
pub struct NestedLoopJoinExec {
    left: Box<dyn Executor>,
    right: Box<dyn Executor>,
    predicate: Option<CExpr>,
    schema: Schema,
    inner: Vec<Tuple>,
    /// `(outer offset, inner offset)` of the equi-join key, if the
    /// predicate has one.
    equi: Option<(usize, usize)>,
    /// The inner side bucketed by key; `None` = plain loop.
    probe: Option<Probe>,
    outer: Option<Tuple>,
    /// The current outer tuple's remaining candidates: positions in
    /// `Probe::order` while probing, in `inner` otherwise.
    candidates: Range<usize>,
}

/// Inner positions grouped by join key.
struct Probe {
    /// Offset of the key in an outer tuple.
    outer_col: usize,
    /// Positions into `inner`, key group after key group, in inner order
    /// within a group.
    order: Vec<usize>,
    /// Key → its group's range of `order`.
    groups: HashMap<GroupKey, Range<usize>>,
}

/// A run-time join key as the probe sees it.
enum ProbeKey {
    /// NULL: equal to nothing.
    Null,
    /// Hashes exactly as [`Value::compare`] compares.
    Key(GroupKey),
    /// A `Float` (`1.0` equals `1` but hashes apart) or a `Pending`: the
    /// hash cannot stand in for the comparison.
    Unhashable,
}

fn probe_key(v: &Value) -> ProbeKey {
    match v {
        Value::Null => ProbeKey::Null,
        Value::Int(_) | Value::Str(_) => ProbeKey::Key(v.group_key()),
        Value::Float(_) | Value::Pending(_) => ProbeKey::Unhashable,
    }
}

/// The first top-level `outer.col = inner.col` conjunct of `pred` over two
/// columns of one declared type, INT or VARCHAR: `(outer offset, inner
/// offset)`. Columns `< left_len` of `schema` are the outer side's.
fn equi_key(pred: &CExpr, schema: &Schema, left_len: usize) -> Option<(usize, usize)> {
    match pred {
        CExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => equi_key(lhs, schema, left_len).or_else(|| equi_key(rhs, schema, left_len)),
        CExpr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => {
            let (CExpr::Column(a), CExpr::Column(b)) = (lhs.as_ref(), rhs.as_ref()) else {
                return None;
            };
            let (outer, inner) = (*a.min(b), *a.max(b));
            let dtype = schema.column(outer).dtype;
            (outer < left_len
                && inner >= left_len
                && dtype != DataType::Float
                && dtype == schema.column(inner).dtype)
                .then_some((outer, inner - left_len))
        }
        _ => None,
    }
}

impl NestedLoopJoinExec {
    /// Join `left` and `right` on `predicate` (compiled against the
    /// concatenated schema).
    pub fn new(
        left: Box<dyn Executor>,
        right: Box<dyn Executor>,
        predicate: Option<&Expr>,
    ) -> Result<Self> {
        let schema = left.schema().join(right.schema());
        let predicate = predicate.map(|p| compile(p, &schema)).transpose()?;
        let equi = predicate
            .as_ref()
            .and_then(|p| equi_key(p, &schema, left.schema().len()));
        Ok(NestedLoopJoinExec {
            left,
            right,
            predicate,
            schema,
            inner: Vec::new(),
            equi,
            probe: None,
            outer: None,
            candidates: 0..0,
        })
    }

    /// Is the probe still in use? (Set at `open`, cleared by a key it
    /// cannot hash.)
    #[cfg(test)]
    pub(super) fn probing(&self) -> bool {
        self.probe.is_some()
    }

    /// Bucket the materialized inner side by the equi-join key; `None`
    /// when there is no such key or one of its values is unhashable.
    fn build_probe(&self) -> Option<Probe> {
        let (outer_col, inner_col) = self.equi?;
        let mut by_key: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for (pos, t) in self.inner.iter().enumerate() {
            match probe_key(t.get(inner_col)) {
                ProbeKey::Null => {}
                ProbeKey::Key(key) => by_key.entry(key).or_default().push(pos),
                ProbeKey::Unhashable => return None,
            }
        }
        let mut order = Vec::with_capacity(self.inner.len());
        let groups = by_key
            .into_iter()
            .map(|(key, positions)| {
                let start = order.len();
                order.extend(positions);
                (key, start..order.len())
            })
            .collect();
        Some(Probe {
            outer_col,
            order,
            groups,
        })
    }

    /// The candidates for a fresh outer tuple: its key's bucket, or the
    /// whole inner side when there is no probe — or when this tuple's key
    /// ends probing.
    fn candidates_for(&mut self, outer: &Tuple) -> Range<usize> {
        if let Some(probe) = &self.probe {
            match probe_key(outer.get(probe.outer_col)) {
                ProbeKey::Null => return 0..0,
                ProbeKey::Key(key) => return probe.groups.get(&key).cloned().unwrap_or(0..0),
                ProbeKey::Unhashable => self.probe = None,
            }
        }
        0..self.inner.len()
    }
}

impl Executor for NestedLoopJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, live: ColumnSet) {
        let reads = super::reads_with(live, &self.predicate);
        self.left.narrow(reads);
        self.right.narrow(reads.skip(self.left.schema().len()));
    }

    fn open(&mut self) -> Result<()> {
        self.right.open()?;
        self.inner.clear();
        while let Some(t) = self.right.next()? {
            self.inner.push(t);
        }
        self.right.close()?;
        self.probe = self.build_probe();
        self.left.open()?;
        self.outer = None;
        self.candidates = 0..0;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            let outer = match self.outer.take() {
                Some(t) => t,
                None => match self.left.next()? {
                    Some(t) => {
                        self.candidates = self.candidates_for(&t);
                        t
                    }
                    None => return Ok(None),
                },
            };
            for i in self.candidates.by_ref() {
                let pos = match &self.probe {
                    Some(probe) => probe.order[i],
                    None => i,
                };
                let joined = outer.join(&self.inner[pos]);
                let keep = match &self.predicate {
                    Some(p) => p.eval_bool(&joined)?,
                    None => true,
                };
                if keep {
                    self.outer = Some(outer);
                    return Ok(Some(joined));
                }
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.left.close()
    }
}

/// The dependent join (paper §4, FLMS99): for each outer tuple, compute
/// the binding values and re-open the inner virtual scan with them.
///
/// One outer tuple at a time: an `AEVScan` inner registers its call when
/// the join pulls it, so how far registration runs ahead of demand is set
/// by whoever pulls the join — an enclosing `ReqSync` pulls eagerly, up to
/// its `reqsync_cap`.
///
/// A joined tuple copies the outer tuple's values and takes the inner
/// one's. The binding values go to the scan in a buffer the two swap, so
/// a rebind allocates nothing.
pub struct DependentJoinExec {
    left: Box<dyn Executor>,
    right: Box<dyn Executor>,
    /// How to produce each binding value from an outer tuple.
    slots: Vec<BindingSlot>,
    /// The binding values for the next rebind (the scan's old ones after).
    bindings: Vec<Value>,
    schema: Schema,
    outer: Option<Tuple>,
}

enum BindingSlot {
    Const(Value),
    Idx(usize),
}

impl DependentJoinExec {
    /// Build from the inner scan's [`EvSpec`]; column bindings are
    /// resolved against the outer schema here, once.
    pub fn new(left: Box<dyn Executor>, right: Box<dyn Executor>, spec: &EvSpec) -> Result<Self> {
        let left_schema = left.schema();
        let slots = spec
            .bindings()
            .iter()
            .map(|b| match b {
                EvBinding::Const(v) => Ok(BindingSlot::Const(v.clone())),
                EvBinding::Column(c) => Ok(BindingSlot::Idx(
                    left_schema.resolve(c.qualifier.as_deref(), &c.name)?,
                )),
            })
            .collect::<Result<Vec<_>>>()?;
        let schema = left_schema.join(right.schema());
        Ok(DependentJoinExec {
            left,
            right,
            bindings: Vec::with_capacity(slots.len()),
            slots,
            schema,
            outer: None,
        })
    }
}

impl Executor for DependentJoinExec {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn narrow(&mut self, live: ColumnSet) {
        let mut reads = live;
        for slot in &self.slots {
            if let BindingSlot::Idx(i) = slot {
                reads.insert(*i);
            }
        }
        self.left.narrow(reads);
        self.right.narrow(live.skip(self.left.schema().len()));
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.outer = None;
        Ok(())
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            let outer = match self.outer.take() {
                Some(t) => t,
                None => {
                    let Some(tuple) = self.left.next()? else {
                        return Ok(None);
                    };
                    self.bindings.clear();
                    self.bindings.extend(self.slots.iter().map(|s| match s {
                        BindingSlot::Const(v) => v.clone(),
                        BindingSlot::Idx(i) => tuple.get(*i).clone(),
                    }));
                    self.right.rebind(&mut self.bindings)?;
                    self.right.open()?;
                    tuple
                }
            };
            if let Some(inner) = self.right.next()? {
                let mut vals = Vec::with_capacity(self.schema.len());
                vals.extend_from_slice(outer.values());
                vals.extend(inner.into_values());
                self.outer = Some(outer);
                return Ok(Some(Tuple::new(vals)));
            }
        }
    }

    fn close(&mut self) -> Result<()> {
        self.right.close()?;
        self.left.close()
    }
}
