//! Physical query plans.
//!
//! A [`PhysPlan`] is a pure tree: expressions reference columns by
//! (qualified) name and are resolved to offsets only when executors are
//! built. This makes the paper's plan transformations (Section 4.5 —
//! ReqSync Insertion, Percolation, Consolidation) straightforward tree
//! surgery, independently testable from execution.

use std::fmt::{self, Write as _};
use std::sync::Arc;
use wsq_common::{Column, DataType, Schema, Value};
use wsq_sql::ast::{AggFunc, ColumnRef, Expr};

/// Whether a query runs with conventional sequential iteration or with the
/// paper's asynchronous iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Conventional: every external call blocks the query processor. An
    /// `EVScan` registers its call with the pump and waits for it.
    Synchronous,
    /// Asynchronous iteration: `AEVScan` + `ReqSync` + ReqPump.
    #[default]
    Asynchronous,
}

/// How ReqSync operators are placed during asyncification (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Insertion + full percolation + consolidation (the paper's
    /// algorithm): maximizes concurrent external calls.
    #[default]
    Full,
    /// Insertion only: one ReqSync pinned directly above each dependent
    /// join (the conservative Figure 7(b)-style placement; blocks between
    /// joins).
    InsertionOnly,
}

/// Read by nothing; goes with ROADMAP 1(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferMode;

/// Which virtual table a scan implements (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VTableKind {
    /// `WebCount(SearchExp, T1..Tn, Count)`.
    WebCount,
    /// `WebPages(SearchExp, T1..Tn, URL, Rank, Date)`.
    WebPages,
}

/// How a virtual input column (`T1`…`Tn`) is bound.
#[derive(Debug, Clone, PartialEq)]
pub enum EvBinding {
    /// Bound to a constant from the `WHERE` clause.
    Const(Value),
    /// Bound by equi-join to a column of the tables to the left in the
    /// `FROM` clause (supplied via the dependent join).
    Column(ColumnRef),
}

/// Read by nothing: `asyncify_with_opts` takes one because `wsqbench`
/// names it; goes with ROADMAP 1(d).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchHint {
    /// Read by nothing; goes with ROADMAP 1(d).
    pub depth: usize,
    /// Read by nothing; goes with ROADMAP 1(d).
    pub window: usize,
    /// Read by nothing; goes with ROADMAP 1(d).
    pub adaptive: bool,
    /// Read by nothing; goes with ROADMAP 1(d).
    pub batch: usize,
}

/// Specification of an external virtual table scan.
///
/// Plans hold it behind an `Arc` ([`PhysPlan::EVScan`],
/// [`PhysPlan::AEVScan`]), and the executors built from a plan share it.
/// Its output schema is built once, by [`EvSpec::new`], from its kind,
/// alias and number of bindings, so those three are private and fixed
/// for the life of a spec; the public fields may be set freely.
#[derive(Debug, Clone, PartialEq)]
pub struct EvSpec {
    /// WebCount or WebPages.
    kind: VTableKind,
    /// Destination engine (registry key, e.g. `"AV"`).
    pub engine: Arc<str>,
    /// Alias other clauses qualify this table's columns with.
    alias: Arc<str>,
    /// Explicit `SearchExp`, or `None` for the default template.
    pub template: Option<Arc<str>>,
    /// Bindings for `T1..Tn`, in order.
    bindings: Vec<EvBinding>,
    /// Upper bound on `Rank` (WebPages only; the default guard is 19,
    /// from the paper's `Rank < 20`).
    pub rank_limit: u32,
    /// Does the engine support `NEAR`? Decides the default template form.
    pub supports_near: bool,
    /// Engines raced for this scan's expression (first result wins,
    /// losers cancelled). Empty or single-element = ordinary
    /// single-engine scan against `engine`; when racing, `engine` is the
    /// first member. The synchronous `EVScan` cannot race: it registers
    /// the members one at a time, in this order, waits on each, and fails
    /// over, erroring only after every member failed.
    pub race: Vec<Arc<str>>,
    /// The output schema (see [`EvSpec::schema`]).
    schema: Schema,
}

impl EvSpec {
    /// A scan of `engine` under `alias` with the given bindings for
    /// `T1..Tn`: the default template, the default rank guard
    /// ([`crate::builder::DEFAULT_RANK_LIMIT`]), no race.
    pub fn new(
        kind: VTableKind,
        engine: impl Into<Arc<str>>,
        alias: impl Into<Arc<str>>,
        bindings: Vec<EvBinding>,
        supports_near: bool,
    ) -> EvSpec {
        let alias = alias.into();
        let schema = vtable_schema(kind, &alias, bindings.len());
        EvSpec {
            kind,
            engine: engine.into(),
            alias,
            template: None,
            bindings,
            rank_limit: crate::builder::DEFAULT_RANK_LIMIT,
            supports_near,
            race: Vec::new(),
            schema,
        }
    }

    /// This spec with other bindings for `T1..Tn` (and the schema that
    /// goes with their number), everything else kept.
    pub fn with_bindings(&self, bindings: Vec<EvBinding>) -> EvSpec {
        EvSpec {
            schema: vtable_schema(self.kind, &self.alias, bindings.len()),
            bindings,
            ..self.clone()
        }
    }

    /// WebCount or WebPages.
    pub fn kind(&self) -> VTableKind {
        self.kind
    }

    /// The alias other clauses qualify this table's columns with.
    pub fn alias(&self) -> &Arc<str> {
        &self.alias
    }

    /// Bindings for `T1..Tn`, in order.
    pub fn bindings(&self) -> &[EvBinding] {
        &self.bindings
    }

    /// Output schema of this scan (qualified by the alias): `SearchExp`,
    /// `T1..Tn`, then the external columns.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Qualified names of the externally-supplied columns — the attribute
    /// set `ReqSync.A` that placeholders stand in for (§4.5.2). They are
    /// the schema's last columns, and share its names.
    pub fn external_attrs(&self) -> Vec<ColumnRef> {
        let external = match self.kind {
            VTableKind::WebCount => 1,
            VTableKind::WebPages => 3,
        };
        let columns = self.schema.columns();
        columns[columns.len() - external..]
            .iter()
            .map(|c| ColumnRef {
                qualifier: c.qualifier.clone(),
                name: c.name.clone(),
            })
            .collect()
    }

    /// The `SearchExp` template, explicit or defaulted.
    ///
    /// Default is `"%1 near %2 near … near %n"` for engines with `NEAR`,
    /// `"%1 %2 … %n"` otherwise (paper §3, footnote 1).
    pub fn effective_template(&self) -> String {
        if let Some(t) = &self.template {
            return t.to_string();
        }
        let sep = if self.supports_near { " near " } else { " " };
        (1..=self.bindings.len())
            .map(|i| format!("%{i}"))
            .collect::<Vec<_>>()
            .join(sep)
    }

    /// Instantiate the template with bound values, in one left-to-right
    /// pass that writes straight into the returned string.
    ///
    /// With `n = values.len()`, each `%i` in the template with `1 ≤ i ≤ n`
    /// (written without leading zeros) is replaced by the i-th value; where
    /// several `i` fit, the longest wins, so `%10` is the tenth value and
    /// not the first followed by `0`. Anything else — `%0`, `%11` with ten
    /// values beyond its `%1`, a trailing `%` — is copied as it stands. The
    /// default template (see [`EvSpec::effective_template`]) is the values
    /// in order with the engine's separator between them.
    ///
    /// A value is written with every `"` removed and, when it contains
    /// whitespace, wrapped in `"`: multi-word terms must reach the engine
    /// as phrases. **Substituted text is never rescanned**, so a value that
    /// itself holds `%1` reaches the engine as written.
    pub fn instantiate(&self, values: &[Value]) -> String {
        // Room for every term with its phrase quotes: one allocation.
        let terms: usize = values
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.len() + 2,
                _ => 20,
            })
            .sum();
        let Some(template) = &self.template else {
            let sep = if self.supports_near { " near " } else { " " };
            let mut out = String::with_capacity(terms + sep.len() * values.len());
            for (i, value) in values.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                push_term(&mut out, value);
            }
            return out;
        };
        let mut out = String::with_capacity(template.len() + terms);
        let mut rest = &**template;
        while let Some(at) = rest.find('%') {
            out.push_str(&rest[..at]);
            rest = &rest[at + 1..];
            // The longest digit run naming a value: `index` only grows with
            // each digit, so stop at the first that overshoots `n`.
            let (mut index, mut digits) = (0, 0);
            for (k, b) in rest.bytes().enumerate() {
                if !b.is_ascii_digit() || (k == 0 && b == b'0') {
                    break;
                }
                let longer = index * 10 + usize::from(b - b'0');
                if longer > values.len() {
                    break;
                }
                (index, digits) = (longer, k + 1);
            }
            if digits == 0 {
                out.push('%');
            } else {
                push_term(&mut out, &values[index - 1]);
                rest = &rest[digits..];
            }
        }
        out.push_str(rest);
        out
    }
}

/// The schema of a `kind` virtual table under `alias` with `n` search
/// terms.
fn vtable_schema(kind: VTableKind, alias: &Arc<str>, n: usize) -> Schema {
    let col = |name: &str, dtype| Column::qualified(alias.clone(), name, dtype);
    let mut cols = Vec::with_capacity(n + 4);
    cols.push(col("SearchExp", DataType::Varchar));
    for i in 1..=n {
        cols.push(col(&format!("T{i}"), DataType::Varchar));
    }
    match kind {
        VTableKind::WebCount => cols.push(col("Count", DataType::Int)),
        VTableKind::WebPages => {
            cols.push(col("URL", DataType::Varchar));
            cols.push(col("Rank", DataType::Int));
            cols.push(col("Date", DataType::Varchar));
        }
    }
    Schema::new(cols)
}

/// Append one bound value as a search term (see [`EvSpec::instantiate`]).
fn push_term(out: &mut String, value: &Value) {
    let start = out.len();
    match value {
        Value::Str(s) => out.push_str(s),
        other => {
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{other}");
        }
    }
    if out[start..].contains('"') {
        let clean = out[start..].replace('"', "");
        out.truncate(start);
        out.push_str(&clean);
    }
    if out[start..].contains(char::is_whitespace) {
        out.insert(start, '"');
        out.push('"');
    }
}

/// A pluggable scoring function for the [`PhysPlan::Rerank`] operator
/// (QR2-style third-party reranking of returned web results).
///
/// Scores are computed from one column of the patched tuple and rows are
/// reordered by ascending score with a **stable** sort, so ties keep the
/// engine's original order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerankScorer {
    /// Path depth of the `URL` column (number of `/` separators):
    /// shallow pages — home pages, section roots — first.
    UrlDepth,
    /// Length of the `URL` column in characters: short URLs first.
    UrlLen,
    /// The engine's own `Rank` column: re-assert engine order (the
    /// identity rerank; useful as a baseline).
    Rank,
}

impl RerankScorer {
    /// Parse a scorer name from SQL (`RERANK BY <name>`),
    /// case-insensitively.
    pub fn parse(name: &str) -> Option<RerankScorer> {
        if name.eq_ignore_ascii_case("url_depth") {
            Some(RerankScorer::UrlDepth)
        } else if name.eq_ignore_ascii_case("url_len") {
            Some(RerankScorer::UrlLen)
        } else if name.eq_ignore_ascii_case("rank") {
            Some(RerankScorer::Rank)
        } else {
            None
        }
    }

    /// The canonical SQL name.
    pub fn name(&self) -> &'static str {
        match self {
            RerankScorer::UrlDepth => "url_depth",
            RerankScorer::UrlLen => "url_len",
            RerankScorer::Rank => "rank",
        }
    }

    /// The (unqualified) column the score is computed from.
    pub fn target_column(&self) -> &'static str {
        match self {
            RerankScorer::UrlDepth | RerankScorer::UrlLen => "URL",
            RerankScorer::Rank => "Rank",
        }
    }

    /// Score one value of the target column (lower sorts first).
    pub fn score(&self, v: &Value) -> i64 {
        match self {
            RerankScorer::UrlDepth => match v {
                Value::Str(s) => s.matches('/').count() as i64,
                _ => i64::MAX,
            },
            RerankScorer::UrlLen => match v {
                Value::Str(s) => s.chars().count() as i64,
                _ => i64::MAX,
            },
            RerankScorer::Rank => match v {
                Value::Int(n) => *n,
                Value::Float(f) => *f as i64,
                _ => i64::MAX,
            },
        }
    }
}

impl fmt::Display for RerankScorer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Sequential scan of a stored table under an alias.
    SeqScan {
        /// Stored table name.
        table: Arc<str>,
        /// Alias qualifying output columns.
        alias: Arc<str>,
        /// Output schema (already qualified).
        schema: Schema,
    },
    /// B+-tree scan of one indexed column over an inclusive key range.
    ///
    /// *The index narrows, the filter decides*: the scan returns a
    /// **superset** of the rows the conjuncts it was chosen from accept,
    /// and those conjuncts stay as [`PhysPlan::Filter`] nodes above it
    /// (see `builder::pick_index_access`). That is what lets one inclusive
    /// range stand for `<` and `>`, for an open end, and for keys the
    /// index encodes lossily (integers beyond 2^53) without the scan ever
    /// changing a query's answer.
    IndexScan {
        /// Stored table name.
        table: Arc<str>,
        /// Alias qualifying output columns.
        alias: Arc<str>,
        /// Indexed column.
        column: Arc<str>,
        /// Inclusive lower bound (`None` = from the first key). Equality
        /// is `lo == hi`.
        lo: Option<Value>,
        /// Inclusive upper bound (`None` = to the last key).
        hi: Option<Value>,
        /// Output schema (already qualified).
        schema: Schema,
    },
    /// Literal rows (used as the left input of a dependent join when a
    /// virtual table has only constant bindings).
    Values {
        /// Output schema.
        schema: Schema,
        /// The rows.
        rows: Vec<Vec<Value>>,
    },
    /// Synchronous external virtual table scan.
    EVScan(Arc<EvSpec>),
    /// Asynchronous external virtual table scan (returns placeholder
    /// tuples immediately).
    AEVScan(Arc<EvSpec>),
    /// Selection.
    Filter {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// Projection with computed expressions and output names.
    Project {
        /// Input plan.
        input: Box<PhysPlan>,
        /// `(expression, output name)` pairs.
        items: Vec<(Expr, Arc<str>)>,
        /// Output schema.
        schema: Schema,
    },
    /// Dependent join: right child must be an EVScan/AEVScan (or a ReqSync
    /// over one); each left tuple re-binds the right side (§4, FLMS99).
    DependentJoin {
        /// Outer input.
        left: Box<PhysPlan>,
        /// Inner (virtual-table) input.
        right: Box<PhysPlan>,
    },
    /// Inner nested-loop join with a predicate.
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysPlan>,
        /// Inner input.
        right: Box<PhysPlan>,
        /// Join predicate.
        predicate: Expr,
    },
    /// Cross product.
    CrossProduct {
        /// Outer input.
        left: Box<PhysPlan>,
        /// Inner input.
        right: Box<PhysPlan>,
    },
    /// Sort (materializing).
    Sort {
        /// Input plan.
        input: Box<PhysPlan>,
        /// `(key expression, descending)` pairs.
        keys: Vec<(Expr, bool)>,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Grouping columns.
        group_by: Vec<ColumnRef>,
        /// Aggregate computations: `(function, argument, output name)`.
        /// `None` argument = `COUNT(*)`.
        aggs: Vec<(AggFunc, Option<Expr>, Arc<str>)>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Maximum rows.
        n: u64,
    },
    /// QR2-style reranking of patched page tuples by a pluggable scoring
    /// function (stable ascending sort). Must sit **above** the ReqSync
    /// that patches its score column — scoring a placeholder is a clash
    /// (§4.5.2 extension; enforced by the verifier).
    Rerank {
        /// Input plan.
        input: Box<PhysPlan>,
        /// The scoring function.
        scorer: RerankScorer,
    },
    /// Request synchronizer: buffers incomplete tuples and patches them as
    /// ReqPump calls complete (§4.1).
    ReqSync {
        /// Input plan.
        input: Box<PhysPlan>,
        /// The attribute set `ReqSync.A` this operator fills in.
        attrs: Vec<ColumnRef>,
        /// Admission-control cap on buffered incomplete tuples (`None` =
        /// unbounded, the paper's behaviour). When the buffer is full the
        /// operator stalls its child instead of admitting more.
        cap: Option<usize>,
    },
}

/// The empty relation (`Values` with no columns and no rows). It exists
/// so in-place passes can `std::mem::take` a node out of its parent's
/// `Box` while they re-link the tree; it allocates nothing.
impl Default for PhysPlan {
    fn default() -> Self {
        PhysPlan::Values {
            schema: Schema::empty(),
            rows: Vec::new(),
        }
    }
}

impl PhysPlan {
    /// Output schema of this node: shared with the node for scans and
    /// projections, built for joins and aggregations.
    pub fn schema(&self) -> Schema {
        match self {
            PhysPlan::SeqScan { schema, .. }
            | PhysPlan::IndexScan { schema, .. }
            | PhysPlan::Values { schema, .. } => schema.clone(),
            PhysPlan::EVScan(spec) | PhysPlan::AEVScan(spec) => spec.schema().clone(),
            PhysPlan::Filter { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Rerank { input, .. }
            | PhysPlan::ReqSync { input, .. } => input.schema(),
            PhysPlan::Project { schema, .. } => schema.clone(),
            PhysPlan::DependentJoin { left, right }
            | PhysPlan::NestedLoopJoin { left, right, .. }
            | PhysPlan::CrossProduct { left, right } => left.schema().join(&right.schema()),
            PhysPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema();
                let mut cols = Vec::new();
                for g in group_by {
                    let dt = in_schema
                        .try_resolve(g.qualifier.as_deref(), &g.name)
                        .map(|i| in_schema.column(i).dtype)
                        .unwrap_or(DataType::Varchar);
                    cols.push(Column::new(g.name.clone(), dt));
                }
                for (func, arg, name) in aggs {
                    let dt = match func {
                        AggFunc::Count => DataType::Int,
                        AggFunc::Avg => DataType::Float,
                        _ => arg
                            .as_ref()
                            .and_then(|a| crate::expr::infer_type(a, &in_schema))
                            .unwrap_or(DataType::Int),
                    };
                    cols.push(Column::new(name.clone(), dt));
                }
                Schema::new(cols)
            }
        }
    }

    /// The direct inputs of this node, outer/left before inner/right.
    ///
    /// This is the one definition of plan shape every generic pass walks
    /// (`node_count`, `count_nodes`, asyncify's consolidation sweep, the
    /// `wsq-analyze` mutators). The order is a contract: a pre-order
    /// "first match" search (`mutate::rewrite_first`) visits a join's
    /// outer side before its inner side, and a post-order rewrite
    /// (`consolidate_adjacent`) finishes both sides, outer first, before
    /// the join itself. The match is exhaustive on purpose — a new
    /// variant must state its children here before anything compiles.
    pub fn children(&self) -> impl Iterator<Item = &PhysPlan> {
        let (first, second): (Option<&PhysPlan>, Option<&PhysPlan>) = match self {
            PhysPlan::SeqScan { .. }
            | PhysPlan::IndexScan { .. }
            | PhysPlan::Values { .. }
            | PhysPlan::EVScan(_)
            | PhysPlan::AEVScan(_) => (None, None),
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::Rerank { input, .. }
            | PhysPlan::ReqSync { input, .. } => (Some(input), None),
            PhysPlan::DependentJoin { left, right }
            | PhysPlan::NestedLoopJoin { left, right, .. }
            | PhysPlan::CrossProduct { left, right } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }

    /// [`PhysPlan::children`] with mutable access, in the same
    /// outer/left-before-inner/right order, for passes that rewrite a
    /// plan in place.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut PhysPlan> {
        let (first, second): (Option<&mut PhysPlan>, Option<&mut PhysPlan>) = match self {
            PhysPlan::SeqScan { .. }
            | PhysPlan::IndexScan { .. }
            | PhysPlan::Values { .. }
            | PhysPlan::EVScan(_)
            | PhysPlan::AEVScan(_) => (None, None),
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Limit { input, .. }
            | PhysPlan::Rerank { input, .. }
            | PhysPlan::ReqSync { input, .. } => (Some(input), None),
            PhysPlan::DependentJoin { left, right }
            | PhysPlan::NestedLoopJoin { left, right, .. }
            | PhysPlan::CrossProduct { left, right } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }

    /// The virtual-table scan this plan *is*, seen through the selections
    /// and ReqSyncs the transformation may stack on a dependent join's
    /// inner side: `Some` for an `EVScan`/`AEVScan`, possibly under
    /// `Filter`/`ReqSync` nodes, `None` for anything else. It does not
    /// descend through joins, so on a dependent join's `right` child it
    /// names exactly the scan that join re-binds.
    pub fn inner_spec(&self) -> Option<&EvSpec> {
        match self {
            PhysPlan::EVScan(spec) | PhysPlan::AEVScan(spec) => Some(spec),
            PhysPlan::Filter { input, .. } | PhysPlan::ReqSync { input, .. } => input.inner_spec(),
            _ => None,
        }
    }

    /// Number of plan nodes (for tests and stats).
    pub fn node_count(&self) -> usize {
        1 + self.children().map(PhysPlan::node_count).sum::<usize>()
    }

    /// Count nodes matching a predicate.
    pub fn count_nodes(&self, pred: &dyn Fn(&PhysPlan) -> bool) -> usize {
        usize::from(pred(self)) + self.children().map(|c| c.count_nodes(pred)).sum::<usize>()
    }

    /// Render the plan as an indented tree (EXPLAIN / the paper's figures).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_tree(&mut out, 0);
        out
    }

    fn fmt_tree(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PhysPlan::SeqScan { table, alias, .. } => {
                if table.eq_ignore_ascii_case(alias) {
                    out.push_str(&format!("{pad}Scan: {table}\n"));
                } else {
                    out.push_str(&format!("{pad}Scan: {table} AS {alias}\n"));
                }
            }
            PhysPlan::IndexScan {
                table,
                alias,
                column,
                lo,
                hi,
                ..
            } => {
                let alias_part = if table.eq_ignore_ascii_case(alias) {
                    String::new()
                } else {
                    format!(" AS {alias}")
                };
                let range = match (lo, hi) {
                    (Some(lo), Some(hi)) if lo == hi => format!("{column} = '{lo}'"),
                    (Some(lo), Some(hi)) => {
                        format!("{} <= {column} <= {}", bound_text(lo), bound_text(hi))
                    }
                    (Some(lo), None) => format!("{column} >= {}", bound_text(lo)),
                    (None, Some(hi)) => format!("{column} <= {}", bound_text(hi)),
                    (None, None) => format!("{column}: every key"),
                };
                out.push_str(&format!("{pad}IndexScan: {table}{alias_part} ({range})\n"));
            }
            PhysPlan::Values { rows, .. } => {
                out.push_str(&format!("{pad}Values: {} row(s)\n", rows.len()));
            }
            PhysPlan::EVScan(spec) => {
                out.push_str(&format!("{pad}EVScan: {}\n", spec_text(spec)));
            }
            PhysPlan::AEVScan(spec) => {
                out.push_str(&format!("{pad}AEVScan: {}\n", spec_text(spec)));
            }
            PhysPlan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Select: {predicate}\n"));
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::Project { input, items, .. } => {
                let cols: Vec<String> = items
                    .iter()
                    .map(|(e, name)| {
                        let es = e.to_string();
                        if *es == **name {
                            es
                        } else {
                            format!("{es} AS {name}")
                        }
                    })
                    .collect();
                out.push_str(&format!("{pad}Project: {}\n", cols.join(", ")));
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::DependentJoin { left, right } => {
                let bind = dependent_join_label(right);
                out.push_str(&format!("{pad}Dependent Join: {bind}\n"));
                left.fmt_tree(out, depth + 1);
                right.fmt_tree(out, depth + 1);
            }
            PhysPlan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => {
                out.push_str(&format!("{pad}Join: {predicate}\n"));
                left.fmt_tree(out, depth + 1);
                right.fmt_tree(out, depth + 1);
            }
            PhysPlan::CrossProduct { left, right } => {
                out.push_str(&format!("{pad}Cross-Product\n"));
                left.fmt_tree(out, depth + 1);
                right.fmt_tree(out, depth + 1);
            }
            PhysPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, desc)| format!("{e}{}", if *desc { " DESC" } else { "" }))
                    .collect();
                out.push_str(&format!("{pad}Sort: {}\n", ks.join(", ")));
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let gs: Vec<String> = group_by.iter().map(|g| g.to_string()).collect();
                let asx: Vec<String> = aggs
                    .iter()
                    .map(|(f, a, _)| match a {
                        Some(e) => format!("{f}({e})"),
                        None => format!("{f}(*)"),
                    })
                    .collect();
                if gs.is_empty() {
                    out.push_str(&format!("{pad}Aggregate: {}\n", asx.join(", ")));
                } else {
                    out.push_str(&format!(
                        "{pad}Aggregate: {} GROUP BY {}\n",
                        asx.join(", "),
                        gs.join(", ")
                    ));
                }
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::Distinct { input } => {
                out.push_str(&format!("{pad}Distinct\n"));
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit: {n}\n"));
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::Rerank { input, scorer } => {
                out.push_str(&format!("{pad}Rerank: {scorer}\n"));
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::ReqSync { input, attrs, .. } => {
                let al: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
                out.push_str(&format!("{pad}ReqSync [{}]\n", al.join(", ")));
                input.fmt_tree(out, depth + 1);
            }
        }
    }
}

/// A range bound as EXPLAIN prints it: strings quoted, numbers bare.
fn bound_text(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

fn spec_text(spec: &EvSpec) -> String {
    let kind = match spec.kind {
        VTableKind::WebCount => "WebCount",
        VTableKind::WebPages => "WebPages",
    };
    let mut conds = Vec::new();
    for (i, b) in spec.bindings.iter().enumerate() {
        match b {
            EvBinding::Const(v) => conds.push(format!("T{} = '{v}'", i + 1)),
            EvBinding::Column(c) => conds.push(format!("T{} = {c}", i + 1)),
        }
    }
    if spec.kind == VTableKind::WebPages {
        conds.push(format!("Rank <= {}", spec.rank_limit));
    }
    let dest = if spec.race.len() > 1 {
        spec.race.join("|")
    } else {
        spec.engine.to_string()
    };
    format!("{kind}@{} AS {} ({})", dest, spec.alias, conds.join(", "))
}

fn dependent_join_label(right: &PhysPlan) -> String {
    // Describe the binding the inner scan receives (paper figures label
    // dependent joins "Sigs.Name + WebCount.T1").
    match right.inner_spec() {
        Some(spec) => {
            let parts: Vec<String> = spec
                .bindings
                .iter()
                .enumerate()
                .filter_map(|(i, b)| match b {
                    EvBinding::Column(c) => Some(format!("{c} -> {}.T{}", spec.alias, i + 1)),
                    EvBinding::Const(_) => None,
                })
                .collect();
            if parts.is_empty() {
                "(constant bindings)".to_string()
            } else {
                parts.join(", ")
            }
        }
        None => String::new(),
    }
}

impl fmt::Display for PhysPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: VTableKind, near: bool) -> EvSpec {
        let bindings = vec![
            EvBinding::Column(ColumnRef {
                qualifier: Some("States".into()),
                name: "Name".into(),
            }),
            EvBinding::Const(Value::from("four corners")),
        ];
        EvSpec::new(kind, "AV", "WebCount", bindings, near)
    }

    #[test]
    fn default_template_depends_on_near_support() {
        assert_eq!(
            spec(VTableKind::WebCount, true).effective_template(),
            "%1 near %2"
        );
        assert_eq!(
            spec(VTableKind::WebCount, false).effective_template(),
            "%1 %2"
        );
    }

    #[test]
    fn instantiation_quotes_multiword_terms() {
        let s = spec(VTableKind::WebCount, true);
        let expr = s.instantiate(&[Value::from("New Mexico"), Value::from("four corners")]);
        assert_eq!(expr, "\"New Mexico\" near \"four corners\"");
        let expr = s.instantiate(&[Value::from("Utah"), Value::from("skiing")]);
        assert_eq!(expr, "Utah near skiing");
    }

    /// A WebCount spec over `n` bindings with an explicit template.
    fn templated(template: &str, n: usize) -> EvSpec {
        let bindings = vec![EvBinding::Const(Value::Null); n];
        let mut s = EvSpec::new(VTableKind::WebCount, "AV", "WebCount", bindings, false);
        s.template = Some(template.into());
        s
    }

    #[test]
    fn instantiation_handles_ten_plus_params() {
        let vals: Vec<Value> = (0..10).map(Value::Int).collect();
        assert_eq!(templated("%10 %1", 10).instantiate(&vals), "9 0");
        // The longest index that names a value wins, wherever it stands.
        assert_eq!(templated("%1%10%100", 10).instantiate(&vals), "0990");
        // With nine values `%10` is the first value and a literal `0`.
        assert_eq!(templated("%10", 9).instantiate(&vals[..9]), "00");
    }

    #[test]
    fn instantiation_leaves_what_names_no_value_as_written() {
        let vals: Vec<Value> = (0..10).map(Value::Int).collect();
        let s = templated("%0 %01 %11 %x 100% %", 10);
        assert_eq!(s.instantiate(&vals), "%0 %01 01 %x 100% %");
        assert_eq!(templated("%1", 0).instantiate(&[]), "%1");
        assert_eq!(templated("", 1).instantiate(&[Value::Int(1)]), "");
    }

    #[test]
    fn instantiation_strips_quotes_and_phrases_whitespace() {
        let s = templated("%1|%2|%3", 3);
        let vals = [
            Value::from("say \"cheese\""),
            Value::from("\"quoted\""),
            Value::from("tab\there"),
        ];
        assert_eq!(s.instantiate(&vals), "\"say cheese\"|quoted|\"tab\there\"");
        // An empty or all-quote value leaves nothing behind.
        let vals = [Value::from(""), Value::from("\"\""), Value::from("x")];
        assert_eq!(s.instantiate(&vals), "||x");
    }

    #[test]
    fn instantiation_renders_non_string_bindings() {
        let s = templated("%1 %2 %3", 3);
        let vals = [Value::Int(-7), Value::Null, Value::Float(2.5)];
        assert_eq!(s.instantiate(&vals), "-7 NULL 2.5");
        let mut default = templated("", 3);
        default.template = None;
        default.supports_near = true;
        assert_eq!(default.instantiate(&vals), "-7 near NULL near 2.5");
    }

    #[test]
    fn substituted_text_is_never_rescanned() {
        let s = spec(VTableKind::WebCount, true);
        let vals = [Value::from("utah"), Value::from("ski %1 pass")];
        assert_eq!(s.instantiate(&vals), "utah near \"ski %1 pass\"");
        let vals = [Value::from("%2"), Value::from("%1")];
        assert_eq!(templated("%1 %2 %%1", 2).instantiate(&vals), "%2 %1 %%2");
    }

    #[test]
    fn explicit_template_wins() {
        let mut s = spec(VTableKind::WebCount, true);
        s.template = Some("%1 AND %2".into());
        assert_eq!(s.effective_template(), "%1 AND %2");
    }

    #[test]
    fn schemas_by_kind() {
        let names = |kind| {
            let spec = spec(kind, true);
            let schema = spec.schema();
            assert!(schema
                .columns()
                .iter()
                .all(|c| c.qualifier.as_deref() == Some("WebCount")));
            schema
                .columns()
                .iter()
                .map(|c| c.name.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            names(VTableKind::WebCount),
            vec!["SearchExp", "T1", "T2", "Count"]
        );
        assert_eq!(
            names(VTableKind::WebPages),
            vec!["SearchExp", "T1", "T2", "URL", "Rank", "Date"]
        );
    }

    #[test]
    fn external_attrs_are_the_placeholder_columns() {
        let a = spec(VTableKind::WebCount, true).external_attrs();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].to_string(), "WebCount.Count");
        let a = spec(VTableKind::WebPages, true).external_attrs();
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn display_renders_a_paper_like_tree() {
        let plan = PhysPlan::Sort {
            keys: vec![(Expr::column("Count"), true)],
            input: Box::new(PhysPlan::ReqSync {
                attrs: spec(VTableKind::WebCount, true).external_attrs(),
                cap: None,
                input: Box::new(PhysPlan::DependentJoin {
                    left: Box::new(PhysPlan::SeqScan {
                        table: "Sigs".into(),
                        alias: "Sigs".into(),
                        schema: Schema::new(vec![Column::qualified(
                            "Sigs",
                            "Name",
                            DataType::Varchar,
                        )]),
                    }),
                    right: Box::new(PhysPlan::AEVScan(Arc::new(spec(
                        VTableKind::WebCount,
                        true,
                    )))),
                }),
            }),
        };
        let text = plan.display();
        assert!(text.contains("Sort: Count DESC"));
        assert!(text.contains("ReqSync [WebCount.Count]"));
        assert!(text.contains("Dependent Join: States.Name -> WebCount.T1"));
        assert!(text.contains("AEVScan: WebCount@AV"));
        // Indentation shows tree depth.
        assert!(text.contains("\n  ReqSync"));
        assert!(text.contains("\n      Scan: Sigs"));
    }

    #[test]
    fn index_scan_displays_its_key_range() {
        let scan = |lo: Option<Value>, hi: Option<Value>| {
            PhysPlan::IndexScan {
                table: "Orders".into(),
                alias: "o".into(),
                column: "Id".into(),
                lo,
                hi,
                schema: Schema::empty(),
            }
            .display()
        };
        let int = |i| Some(Value::Int(i));
        assert_eq!(scan(int(5), int(5)), "IndexScan: Orders AS o (Id = '5')\n");
        assert_eq!(
            scan(int(100), int(299)),
            "IndexScan: Orders AS o (100 <= Id <= 299)\n"
        );
        assert_eq!(scan(int(100), None), "IndexScan: Orders AS o (Id >= 100)\n");
        assert_eq!(
            scan(None, Some(Value::from("m"))),
            "IndexScan: Orders AS o (Id <= 'm')\n"
        );
    }

    #[test]
    fn schema_of_joins_concatenates() {
        let left = PhysPlan::SeqScan {
            table: "A".into(),
            alias: "A".into(),
            schema: Schema::new(vec![Column::qualified("A", "x", DataType::Int)]),
        };
        let right = PhysPlan::SeqScan {
            table: "B".into(),
            alias: "B".into(),
            schema: Schema::new(vec![Column::qualified("B", "y", DataType::Int)]),
        };
        let j = PhysPlan::CrossProduct {
            left: Box::new(left),
            right: Box::new(right),
        };
        assert_eq!(j.schema().len(), 2);
        assert_eq!(j.node_count(), 3);
    }
    /// One plan holding all sixteen variants: every unary operator
    /// stacked over joins of the five leaves, `Limit` twice.
    fn every_variant() -> PhysPlan {
        let b = Box::new;
        let schema = Schema::new(vec![Column::qualified("A", "x", DataType::Int)]);
        let cross = PhysPlan::CrossProduct {
            left: b(PhysPlan::SeqScan {
                table: "A".into(),
                alias: "A".into(),
                schema: schema.clone(),
            }),
            right: b(PhysPlan::IndexScan {
                table: "A".into(),
                alias: "A".into(),
                column: "x".into(),
                lo: Some(Value::Int(1)),
                hi: Some(Value::Int(1)),
                schema: schema.clone(),
            }),
        };
        let sync_join = PhysPlan::DependentJoin {
            left: b(PhysPlan::Values {
                schema,
                rows: vec![],
            }),
            right: b(PhysPlan::EVScan(Arc::new(spec(VTableKind::WebCount, true)))),
        };
        let join = PhysPlan::NestedLoopJoin {
            left: b(cross),
            right: b(sync_join),
            predicate: Expr::column("x"),
        };
        let p = PhysPlan::DependentJoin {
            left: b(join),
            right: b(PhysPlan::AEVScan(Arc::new(spec(
                VTableKind::WebPages,
                true,
            )))),
        };
        let p = PhysPlan::ReqSync {
            input: b(p),
            attrs: vec![],
            cap: None,
        };
        let p = PhysPlan::Filter {
            input: b(p),
            predicate: Expr::column("x"),
        };
        let p = PhysPlan::Rerank {
            input: b(p),
            scorer: RerankScorer::Rank,
        };
        let p = PhysPlan::Sort {
            input: b(p),
            keys: vec![],
        };
        let p = PhysPlan::Aggregate {
            input: b(p),
            group_by: vec![],
            aggs: vec![],
        };
        let p = PhysPlan::Distinct { input: b(p) };
        let p = PhysPlan::Limit { input: b(p), n: 1 };
        let p = PhysPlan::Project {
            input: b(p),
            items: vec![],
            schema: Schema::empty(),
        };
        PhysPlan::Limit { input: b(p), n: 7 }
    }

    /// Pre-order node list built on `children` alone.
    fn preorder(plan: &PhysPlan) -> Vec<&PhysPlan> {
        let mut out = vec![plan];
        for child in plan.children() {
            out.extend(preorder(child));
        }
        out
    }

    #[test]
    fn children_cover_every_variant_and_children_mut_edits_in_place() {
        let mut plan = every_variant();
        let nodes = preorder(&plan);
        let mut variants = std::collections::HashSet::new();
        let mut leaves = Vec::new();
        for node in &nodes {
            variants.insert(std::mem::discriminant(*node));
            let want = match node {
                PhysPlan::SeqScan { .. }
                | PhysPlan::IndexScan { .. }
                | PhysPlan::Values { .. }
                | PhysPlan::EVScan(_)
                | PhysPlan::AEVScan(_) => 0,
                PhysPlan::DependentJoin { .. }
                | PhysPlan::NestedLoopJoin { .. }
                | PhysPlan::CrossProduct { .. } => 2,
                _ => 1,
            };
            assert_eq!(node.children().count(), want, "children of:\n{node}");
            if want == 0 {
                leaves.push(node.display());
            }
        }
        assert_eq!(variants.len(), 16, "the fixture must hold every variant");
        assert_eq!(plan.node_count(), nodes.len());
        // Outer/left before inner/right, for all three join variants.
        let starts = ["Scan:", "IndexScan:", "Values:", "EVScan:", "AEVScan:"];
        assert_eq!(leaves.len(), starts.len());
        for (leaf, start) in leaves.iter().zip(starts) {
            assert!(leaf.starts_with(start), "{leaf} should be {start}");
        }

        fn bump(plan: &mut PhysPlan) {
            if let PhysPlan::Limit { n, .. } = plan {
                *n += 100;
            }
            plan.children_mut().for_each(bump);
        }
        bump(&mut plan);
        let limits: Vec<u64> = preorder(&plan)
            .into_iter()
            .filter_map(|p| match p {
                PhysPlan::Limit { n, .. } => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(limits, vec![107, 101]);
    }
}
