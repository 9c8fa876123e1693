//! Placeholder-dataflow verification of physical plans.
//!
//! The asyncification pass (`wsq_engine::asyncify`) enforces the paper's
//! clash rules (§4.5.2) *by construction*; this module checks them on the
//! **emitted plan**, independently, as a bottom-up abstract interpretation.
//!
//! The abstract domain is the *may-be-placeholder set*: for each operator,
//! the set of output attributes that may still hold `Value::Pending`
//! placeholders when a tuple leaves it. The transfer functions are:
//!
//! - `AEVScan`: its external attributes (`Count`, or `URL`/`Rank`/`Date`).
//! - `ReqSync{attrs}`: input set minus `attrs` (the operator patches the
//!   calls backing those attributes before emitting).
//! - `Project`: placeholder attributes must pass through as plain column
//!   items (renamed to the item's output name); computing over one is
//!   clash case 1, dropping one is clash case 2.
//! - Joins: union of the input sets.
//! - Everything else: identity.
//!
//! The clash checks performed against the incoming set:
//!
//! 1. `Filter` / `NestedLoopJoin` predicates and computed `Project` items
//!    must not read a may-be-placeholder attribute (clash case 1).
//! 2. `Project` must not drop one without a dominating `ReqSync` below
//!    (clash case 2).
//! 3. `Sort` / `Aggregate` / `Distinct` / `Limit` require an empty
//!    incoming set (clash case 3 and its ordering analogue).
//! 4. Dependent-join bindings must not read a may-be-placeholder
//!    attribute of the outer side (percolation's flush rule).
//!
//! Structural rules: the set must be empty at the root (every `AEVScan`
//! dominated by a covering `ReqSync`), and consolidation must have left
//! no directly-adjacent `ReqSync` pair. [`verify_async`] additionally
//! rejects synchronous `EVScan`s, which `asyncify` must have rewritten.
//!
//! **Static resource bounds.** A second bottom-up pass computes, per
//! plan, symbolic peaks over the cardinality domain [`Bound`]
//! (`Finite(n)` or `Unbounded`): the worst-case tuples buffered in any
//! `ReqSync` ([`Bounds::peak_buffered`]) — which also bounds the calls
//! one ReqSync waits on at once, since an `AEVScan` registers only when
//! pulled.
//! [`Rule::CapDropped`] turns the PR-4 runtime convention into a checked
//! fact: when the session declared a cap, [`verify_bounds`] proves every
//! ReqSync carries one at least that tight. The bounds ride along in
//! [`Report`] and surface in the `-- verify:` analyze footer.
//!
//! Column matching deliberately mirrors `asyncify`'s own semantics
//! (case-insensitive; an unqualified reference may denote a qualified
//! attribute), so the verifier is exactly as conservative as the
//! transformation it checks.

use std::fmt;
use wsq_engine::plan::{EvBinding, EvSpec, PhysPlan};
use wsq_sql::ast::{ColumnRef, Expr};

/// Which rule a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Clash case 1: a predicate or computed expression reads an
    /// attribute that may be a placeholder.
    ReadsPlaceholder,
    /// Clash case 2: a projection drops a may-be-placeholder attribute
    /// with no dominating ReqSync below it.
    DropsPlaceholder,
    /// Clash case 3 (and ordering analogue): Sort/Aggregate/Distinct/
    /// Limit above an unpatched placeholder.
    OrderSensitive,
    /// A dependent-join binding reads a may-be-placeholder attribute of
    /// its outer side.
    BindingReadsPlaceholder,
    /// Placeholders escape the plan root: some AEVScan has no covering
    /// ReqSync above it.
    UncoveredAtRoot,
    /// Consolidation failure: a ReqSync directly above another ReqSync.
    AdjacentReqSync,
    /// A synchronous EVScan survived in an asynchronous plan.
    SyncScanInAsyncPlan,
    /// The session declared a ReqSync buffer cap, but a ReqSync in the
    /// stamped plan carries none (or a looser one).
    CapDropped,
    /// A Rerank operator above an unpatched placeholder: the scorer
    /// would order tuples by a sentinel value instead of the real
    /// column. Rerank must sit **above** the ReqSync that patches its
    /// score column (§4.5.2 extension).
    RerankOverPlaceholder,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::ReadsPlaceholder => "reads-placeholder (clash case 1)",
            Rule::DropsPlaceholder => "drops-placeholder (clash case 2)",
            Rule::OrderSensitive => "order-sensitive-over-placeholder (clash case 3)",
            Rule::BindingReadsPlaceholder => "binding-reads-placeholder",
            Rule::UncoveredAtRoot => "uncovered-at-root",
            Rule::AdjacentReqSync => "adjacent-reqsync (consolidation)",
            Rule::SyncScanInAsyncPlan => "sync-scan-in-async-plan",
            Rule::CapDropped => "cap-dropped",
            Rule::RerankOverPlaceholder => "rerank-over-placeholder",
        };
        f.write_str(s)
    }
}

/// One rule violation, with the path of operators from the root to the
/// offending node.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The broken rule.
    pub rule: Rule,
    /// Root-to-node operator path, e.g. `root/Sort/ReqSync`.
    pub path: String,
    /// Human-readable specifics (offending attributes, expressions).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.rule, self.path, self.detail)
    }
}

/// Verification failure: every violation found in one pass.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// All violations, in traversal order.
    pub violations: Vec<Violation>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan fails placeholder-dataflow verification:")?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// A symbolic cardinality / resource bound: a concrete worst case or
/// "no static bound".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// At most this many.
    Finite(u64),
    /// No static bound (e.g. a stored-table scan of unknown size).
    Unbounded,
}

impl Bound {
    /// Saturating product. `0 × Unbounded = 0`: an empty input produces
    /// no output regardless of the other side.
    pub fn times(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(0), _) | (_, Bound::Finite(0)) => Bound::Finite(0),
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_mul(b)),
            _ => Bound::Unbounded,
        }
    }

    /// The tighter of the two bounds.
    pub fn min(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.min(b)),
            (Bound::Finite(a), _) | (_, Bound::Finite(a)) => Bound::Finite(a),
            _ => Bound::Unbounded,
        }
    }

    /// The looser of the two bounds.
    pub fn max(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.max(b)),
            _ => Bound::Unbounded,
        }
    }

    /// `self ≤ other` in the bound order (`Unbounded` is the top).
    pub fn le(self, other: Bound) -> bool {
        match (self, other) {
            (_, Bound::Unbounded) => true,
            (Bound::Unbounded, _) => false,
            (Bound::Finite(a), Bound::Finite(b)) => a <= b,
        }
    }
}

impl Default for Bound {
    fn default() -> Self {
        Bound::Finite(0)
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "{n}"),
            Bound::Unbounded => f.write_str("inf"),
        }
    }
}

/// Static resource bounds of a verified plan (see [`verify_bounds`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bounds {
    /// Worst-case tuples buffered in any single ReqSync at once: the
    /// max over ReqSyncs of `min(cap, child cardinality)`.
    pub peak_buffered: Bound,
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peak buffered {}", self.peak_buffered)
    }
}

/// Statistics from a successful verification (surfaced by
/// `Wsq::explain_verify`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Report {
    /// Plan nodes visited.
    pub nodes: usize,
    /// Asynchronous external scans found.
    pub aev_scans: usize,
    /// ReqSync operators found.
    pub req_syncs: usize,
    /// Largest may-be-placeholder set at any operator (lattice height
    /// actually reached).
    pub max_placeholder_set: usize,
    /// Static resource bounds of the plan.
    pub bounds: Bounds,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verified {} nodes: {} async scan(s), {} ReqSync(s), max placeholder set {}, {}",
            self.nodes, self.aev_scans, self.req_syncs, self.max_placeholder_set, self.bounds
        )
    }
}

/// Verify a plan that may legitimately contain synchronous `EVScan`s
/// (e.g. `ExecutionMode::Synchronous` output).
///
/// ```
/// use wsq_analyze::verify;
/// use wsq_common::Value;
/// use wsq_engine::plan::{EvBinding, EvSpec, PhysPlan, VTableKind};
///
/// // The minimal legal asynchronous plan: an AEVScan producing a
/// // placeholder Count, patched by a covering ReqSync above it.
/// let utah = vec![EvBinding::Const(Value::from("Utah"))];
/// let spec = EvSpec::new(VTableKind::WebCount, "AV", "WebCount", utah, true);
/// let plan = PhysPlan::ReqSync {
///     attrs: spec.external_attrs(),
///     input: Box::new(PhysPlan::AEVScan(spec.into())),
///     cap: None,
/// };
/// let report = verify(&plan).expect("plan is placeholder-safe");
/// assert_eq!((report.aev_scans, report.req_syncs), (1, 1));
///
/// // Strip the ReqSync and the placeholder escapes the root.
/// let PhysPlan::ReqSync { input: bare, .. } = plan else { unreachable!() };
/// assert!(verify(&bare).is_err());
/// ```
pub fn verify(plan: &PhysPlan) -> Result<Report, VerifyError> {
    verify_inner(plan, false)
}

/// Verify the output of `asyncify`: everything [`verify`] checks, plus
/// no synchronous `EVScan` may remain.
///
/// ```
/// use wsq_analyze::{verify, verify_async, Rule};
/// use wsq_common::Value;
/// use wsq_engine::plan::{EvBinding, EvSpec, PhysPlan, VTableKind};
///
/// // A blocking EVScan has no placeholders, so plain `verify` accepts
/// // it — but it must not survive asyncification.
/// let utah = vec![EvBinding::Const(Value::from("Utah"))];
/// let spec = EvSpec::new(VTableKind::WebCount, "AV", "WebCount", utah, true);
/// let plan = PhysPlan::EVScan(spec.into());
/// assert!(verify(&plan).is_ok());
/// let err = verify_async(&plan).unwrap_err();
/// assert_eq!(err.violations[0].rule, Rule::SyncScanInAsyncPlan);
/// ```
pub fn verify_async(plan: &PhysPlan) -> Result<Report, VerifyError> {
    verify_inner(plan, true)
}

fn verify_inner(plan: &PhysPlan, forbid_ev: bool) -> Result<Report, VerifyError> {
    let mut cx = Cx {
        forbid_ev,
        violations: Vec::new(),
        report: Report::default(),
    };
    let escaped = cx.abs(plan, "root");
    if !escaped.is_empty() {
        cx.violations.push(Violation {
            rule: Rule::UncoveredAtRoot,
            path: "root".to_string(),
            detail: format!(
                "placeholder attributes escape the plan: {}",
                fmt_attrs(&escaped)
            ),
        });
    }
    // Resource bounds ride along with every verification; the
    // declared-cap consistency rule needs the session cap and runs in
    // [`verify_bounds`] only.
    let mut bx = BoundsCx {
        declared_cap: None,
        bounds: Bounds::default(),
        violations: Vec::new(),
    };
    bx.card(plan, "root");
    cx.report.bounds = bx.bounds;
    cx.violations.extend(bx.violations);
    if cx.violations.is_empty() {
        Ok(cx.report)
    } else {
        Err(VerifyError {
            violations: cx.violations,
        })
    }
}

/// Compute the static resource bounds of a plan and prove them
/// consistent with the caps stamped at plan time.
///
/// Checks [`Rule::CapDropped`] against `declared_cap`, the session's
/// `reqsync_cap` at planning time: when `Some(c)`, every ReqSync in the
/// plan must carry a stamped cap `≤ c` — so `peak_buffered ≤ c` is a
/// proven fact, not a runtime convention.
///
/// ```
/// use wsq_analyze::verify::{verify_bounds, Bound};
/// use wsq_common::Value;
/// use wsq_engine::plan::{EvBinding, EvSpec, PhysPlan, VTableKind};
///
/// let utah = vec![EvBinding::Const(Value::from("Utah"))];
/// let spec = EvSpec::new(VTableKind::WebCount, "AV", "WebCount", utah, true);
/// let plan = PhysPlan::ReqSync {
///     attrs: spec.external_attrs(),
///     input: Box::new(PhysPlan::AEVScan(spec.into())),
///     cap: Some(8),
/// };
/// let bounds = verify_bounds(&plan, Some(8)).expect("caps are consistent");
/// assert!(bounds.peak_buffered.le(Bound::Finite(8)));
///
/// // The same plan against a declared cap it does not honour fails.
/// assert!(verify_bounds(&plan, Some(4)).is_err());
/// ```
pub fn verify_bounds(plan: &PhysPlan, declared_cap: Option<usize>) -> Result<Bounds, VerifyError> {
    let mut bx = BoundsCx {
        declared_cap,
        bounds: Bounds::default(),
        violations: Vec::new(),
    };
    bx.card(plan, "root");
    if bx.violations.is_empty() {
        Ok(bx.bounds)
    } else {
        Err(VerifyError {
            violations: bx.violations,
        })
    }
}

/// Case-insensitive column-reference equality, mirroring `asyncify`: an
/// unqualified reference may denote a qualified attribute.
pub(crate) fn same_ref(a: &ColumnRef, b: &ColumnRef) -> bool {
    if !a.name.eq_ignore_ascii_case(&b.name) {
        return false;
    }
    match (&a.qualifier, &b.qualifier) {
        (Some(x), Some(y)) => x.eq_ignore_ascii_case(y),
        _ => true,
    }
}

pub(crate) fn refs_any(expr: &Expr, attrs: &[ColumnRef]) -> bool {
    expr.columns()
        .iter()
        .any(|c| attrs.iter().any(|a| same_ref(c, a)))
}

fn fmt_attrs(attrs: &[ColumnRef]) -> String {
    attrs
        .iter()
        .map(ColumnRef::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

struct Cx {
    forbid_ev: bool,
    violations: Vec<Violation>,
    report: Report,
}

impl Cx {
    fn push(&mut self, rule: Rule, path: &str, detail: String) {
        self.violations.push(Violation {
            rule,
            path: path.to_string(),
            detail,
        });
    }

    fn check_bindings(&mut self, spec: &EvSpec, outer: &[ColumnRef], path: &str) {
        for b in spec.bindings() {
            if let EvBinding::Column(c) = b {
                if outer.iter().any(|a| same_ref(c, a)) {
                    self.push(
                        Rule::BindingReadsPlaceholder,
                        path,
                        format!(
                            "binding of virtual table '{}' reads may-be-placeholder \
                             attribute {} of the outer side",
                            spec.alias(),
                            fmt_attrs(std::slice::from_ref(c)),
                        ),
                    );
                }
            }
        }
    }

    /// The transfer function: may-be-placeholder attribute set of the
    /// operator's output, recording violations along the way.
    fn abs(&mut self, plan: &PhysPlan, path: &str) -> Vec<ColumnRef> {
        self.report.nodes += 1;
        let set = match plan {
            PhysPlan::SeqScan { .. } | PhysPlan::IndexScan { .. } | PhysPlan::Values { .. } => {
                vec![]
            }
            PhysPlan::EVScan(_) => {
                if self.forbid_ev {
                    self.push(
                        Rule::SyncScanInAsyncPlan,
                        path,
                        "synchronous EVScan in an asynchronous plan (asyncify must \
                         rewrite every EVScan to AEVScan)"
                            .to_string(),
                    );
                }
                // A synchronous scan materializes real values.
                vec![]
            }
            PhysPlan::AEVScan(spec) => {
                self.report.aev_scans += 1;
                spec.external_attrs()
            }
            PhysPlan::ReqSync { input, attrs, .. } => {
                self.report.req_syncs += 1;
                if matches!(**input, PhysPlan::ReqSync { .. }) {
                    self.push(
                        Rule::AdjacentReqSync,
                        path,
                        "ReqSync directly above another ReqSync (consolidation should \
                         have merged their attribute sets)"
                            .to_string(),
                    );
                }
                let inner = self.abs(input, &format!("{path}/ReqSync"));
                inner
                    .into_iter()
                    .filter(|a| !attrs.iter().any(|s| same_ref(a, s)))
                    .collect()
            }
            PhysPlan::Filter { input, predicate } => {
                let inner = self.abs(input, &format!("{path}/Filter"));
                if refs_any(predicate, &inner) {
                    self.push(
                        Rule::ReadsPlaceholder,
                        path,
                        format!(
                            "filter predicate reads may-be-placeholder attribute(s) {}",
                            fmt_attrs(&inner)
                        ),
                    );
                }
                inner
            }
            PhysPlan::Project { input, items, .. } => {
                let inner = self.abs(input, &format!("{path}/Project"));
                let mut out = Vec::new();
                for a in &inner {
                    // Clash case 1: an item computes over the attribute.
                    let computed = items.iter().any(|(e, _)| {
                        !matches!(e, Expr::Column(_)) && refs_any(e, std::slice::from_ref(a))
                    });
                    if computed {
                        self.push(
                            Rule::ReadsPlaceholder,
                            path,
                            format!(
                                "projection computes over may-be-placeholder attribute {}",
                                fmt_attrs(std::slice::from_ref(a))
                            ),
                        );
                        continue;
                    }
                    // Pass-through: the attribute flows on under the
                    // item's output name (mirroring asyncify's rename;
                    // first match, as the transformation renames).
                    match items
                        .iter()
                        .find(|(e, _)| matches!(e, Expr::Column(c) if same_ref(c, a)))
                    {
                        Some((_, name)) => out.push(ColumnRef {
                            qualifier: None,
                            name: name.clone(),
                        }),
                        None => self.push(
                            Rule::DropsPlaceholder,
                            path,
                            format!(
                                "projection drops may-be-placeholder attribute {} with \
                                 no dominating ReqSync below",
                                fmt_attrs(std::slice::from_ref(a))
                            ),
                        ),
                    }
                }
                out
            }
            PhysPlan::DependentJoin { left, right } => {
                let l = self.abs(left, &format!("{path}/DependentJoin.left"));
                let r = self.abs(right, &format!("{path}/DependentJoin.right"));
                if let Some(spec) = right.inner_spec() {
                    self.check_bindings(spec, &l, path);
                }
                let mut out = l;
                out.extend(r);
                out
            }
            PhysPlan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => {
                let l = self.abs(left, &format!("{path}/NestedLoopJoin.left"));
                let r = self.abs(right, &format!("{path}/NestedLoopJoin.right"));
                let mut out = l;
                out.extend(r);
                if refs_any(predicate, &out) {
                    self.push(
                        Rule::ReadsPlaceholder,
                        path,
                        format!(
                            "join predicate reads may-be-placeholder attribute(s) {}",
                            fmt_attrs(&out)
                        ),
                    );
                }
                out
            }
            PhysPlan::CrossProduct { left, right } => {
                let mut out = self.abs(left, &format!("{path}/CrossProduct.left"));
                out.extend(self.abs(right, &format!("{path}/CrossProduct.right")));
                out
            }
            // Rerank is its own clash class: like the order-sensitive
            // operators it requires every placeholder patched below it
            // (the scorer reads the patched column), but the violation is
            // reported under its own rule so the §4.5.2 extension is
            // visible in reports and mutation-coverage tests.
            PhysPlan::Rerank { input, scorer } => {
                let inner = self.abs(input, &format!("{path}/Rerank"));
                if !inner.is_empty() {
                    self.push(
                        Rule::RerankOverPlaceholder,
                        path,
                        format!(
                            "Rerank({scorer}) above unpatched placeholder attribute(s) {} \
                             (must sit above the covering ReqSync)",
                            fmt_attrs(&inner)
                        ),
                    );
                    return vec![];
                }
                inner
            }
            PhysPlan::Sort { input, .. }
            | PhysPlan::Aggregate { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Limit { input, .. } => {
                let name = match plan {
                    PhysPlan::Sort { .. } => "Sort",
                    PhysPlan::Aggregate { .. } => "Aggregate",
                    PhysPlan::Distinct { .. } => "Distinct",
                    _ => "Limit",
                };
                let inner = self.abs(input, &format!("{path}/{name}"));
                if !inner.is_empty() {
                    self.push(
                        Rule::OrderSensitive,
                        path,
                        format!(
                            "{name} above unpatched placeholder attribute(s) {}",
                            fmt_attrs(&inner)
                        ),
                    );
                    // The operator would block on / misorder placeholders;
                    // report once and treat them as consumed.
                    return vec![];
                }
                inner
            }
        };
        self.report.max_placeholder_set = self.report.max_placeholder_set.max(set.len());
        set
    }
}

/// The resource-bounds pass: a second bottom-up abstract interpretation
/// over the cardinality domain [`Bound`], accumulating the per-plan
/// peaks into [`Bounds`] and checking the cap-consistency rules.
struct BoundsCx {
    declared_cap: Option<usize>,
    bounds: Bounds,
    violations: Vec<Violation>,
}

impl BoundsCx {
    fn push(&mut self, rule: Rule, path: &str, detail: String) {
        self.violations.push(Violation {
            rule,
            path: path.to_string(),
            detail,
        });
    }

    /// Output-cardinality bound of `plan`.
    fn card(&mut self, plan: &PhysPlan, path: &str) -> Bound {
        match plan {
            PhysPlan::Values { rows, .. } => Bound::Finite(rows.len() as u64),
            PhysPlan::SeqScan { .. } | PhysPlan::IndexScan { .. } => Bound::Unbounded,
            PhysPlan::EVScan(spec) | PhysPlan::AEVScan(spec) => match spec.kind() {
                wsq_engine::plan::VTableKind::WebCount => Bound::Finite(1),
                wsq_engine::plan::VTableKind::WebPages => Bound::Finite(spec.rank_limit as u64),
            },
            PhysPlan::ReqSync { input, cap, .. } => {
                if let (Some(declared), None) = (self.declared_cap, cap) {
                    self.push(
                        Rule::CapDropped,
                        path,
                        format!(
                            "session declared reqsync_cap {declared} but this ReqSync \
                             carries no stamped cap"
                        ),
                    );
                }
                if let (Some(declared), Some(stamped)) = (self.declared_cap, cap) {
                    if *stamped > declared {
                        self.push(
                            Rule::CapDropped,
                            path,
                            format!(
                                "session declared reqsync_cap {declared} but this ReqSync \
                                 is stamped with looser cap {stamped}"
                            ),
                        );
                    }
                }
                let child = self.card(input, &format!("{path}/ReqSync"));
                let buffered = match cap {
                    // Admit-before-check: high-water == cap exactly.
                    Some(c) => child.min(Bound::Finite(*c as u64)),
                    None => child,
                };
                self.bounds.peak_buffered = self.bounds.peak_buffered.max(buffered);
                child
            }
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Rerank { input, .. } => {
                let name = match plan {
                    PhysPlan::Filter { .. } => "Filter",
                    PhysPlan::Project { .. } => "Project",
                    PhysPlan::Distinct { .. } => "Distinct",
                    PhysPlan::Rerank { .. } => "Rerank",
                    _ => "Sort",
                };
                self.card(input, &format!("{path}/{name}"))
            }
            PhysPlan::Limit { input, n } => {
                let inner = self.card(input, &format!("{path}/Limit"));
                inner.min(Bound::Finite(*n))
            }
            PhysPlan::Aggregate {
                input, group_by, ..
            } => {
                let inner = self.card(input, &format!("{path}/Aggregate"));
                if group_by.is_empty() {
                    Bound::Finite(1)
                } else {
                    inner // at most one row per distinct input row
                }
            }
            PhysPlan::DependentJoin { left, right } => {
                let l = self.card(left, &format!("{path}/DependentJoin.left"));
                let r = self.card(right, &format!("{path}/DependentJoin.right"));
                l.times(r)
            }
            PhysPlan::NestedLoopJoin { left, right, .. } => {
                let l = self.card(left, &format!("{path}/NestedLoopJoin.left"));
                let r = self.card(right, &format!("{path}/NestedLoopJoin.right"));
                l.times(r)
            }
            PhysPlan::CrossProduct { left, right } => {
                let l = self.card(left, &format!("{path}/CrossProduct.left"));
                let r = self.card(right, &format!("{path}/CrossProduct.right"));
                l.times(r)
            }
        }
    }
}
