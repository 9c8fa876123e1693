//! Query planning: AST → synchronous physical plan.
//!
//! Join order follows the `FROM` clause (Redbase has no join-order
//! optimizer; the paper's prototype relies on user-specified order, §5).
//! Virtual tables are recognized by name (`WebCount[_E]` / `WebPages[_E]`)
//! and undergo **binding analysis** (§3): every `Ti` referenced anywhere in
//! the query must be bound in the `WHERE` clause to a constant or — via
//! equi-join — to a column of a table *earlier* in the `FROM` clause; the
//! binding conjuncts are consumed into the scan's [`EvSpec`] and satisfied
//! by a dependent join.

use crate::catalog::Catalog;
use crate::engines::EngineRegistry;
use crate::plan::{EvBinding, EvSpec, PhysPlan, RerankScorer, VTableKind};
use std::cmp::Ordering;
use std::sync::Arc;
use wsq_common::{DataType, Result, Schema, Value, WsqError};
use wsq_sql::ast::{AggFunc, BinOp, ColumnRef, Expr, Literal, SelectItem, SelectStmt, UnOp};

/// The paper's default guard against runaway `WebPages` scans: `Rank < 20`
/// means ranks 1..=19.
pub const DEFAULT_RANK_LIMIT: u32 = 19;

/// Is `name` a virtual-table reference? Returns the kind and the engine
/// suffix (`None` = default engine).
pub fn parse_virtual_name(name: &str) -> Option<(VTableKind, Option<&str>)> {
    [
        ("webcount", VTableKind::WebCount),
        ("webpages", VTableKind::WebPages),
    ]
    .into_iter()
    .find_map(|(prefix, kind)| {
        let head = name.get(..prefix.len())?;
        if !head.eq_ignore_ascii_case(prefix) {
            return None;
        }
        match &name[prefix.len()..] {
            "" => Some((kind, None)),
            rest => match rest.strip_prefix('_') {
                Some(suffix) if !suffix.is_empty() => Some((kind, Some(suffix))),
                _ => None,
            },
        }
    })
}

/// One WHERE conjunct, read in place from the statement, with a consumed
/// flag. A plan node that applies it clones it then, once.
struct Conjunct<'q> {
    expr: &'q Expr,
    used: bool,
}

/// Plan a SELECT into a synchronous physical plan.
pub fn plan_select(
    stmt: &SelectStmt,
    catalog: &Catalog,
    engines: &EngineRegistry,
) -> Result<PhysPlan> {
    plan_select_depth(stmt, catalog, engines, 0)
}

/// Maximum view-expansion nesting (guards against definition cycles).
const MAX_VIEW_DEPTH: usize = 16;

/// Check that every column `expr` references resolves in `schema`,
/// reporting the first that does not.
fn resolve_columns(expr: &Expr, schema: &Schema) -> Result<()> {
    let mut result = Ok(());
    expr.visit(&mut |e| {
        if let (Ok(()), Expr::Column(c)) = (&result, e) {
            result = schema.resolve(c.qualifier.as_deref(), &c.name).map(drop);
        }
    });
    result
}

/// Does every column `expr` references resolve in `schema`?
fn resolves_in(expr: &Expr, schema: &Schema) -> bool {
    expr.all_columns(|c| {
        schema
            .try_resolve(c.qualifier.as_deref(), &c.name)
            .is_some()
    })
}

fn plan_select_depth(
    stmt: &SelectStmt,
    catalog: &Catalog,
    engines: &EngineRegistry,
    depth: usize,
) -> Result<PhysPlan> {
    if depth > MAX_VIEW_DEPTH {
        return Err(WsqError::Plan(
            "view nesting exceeds the maximum depth (cyclic definition?)".to_string(),
        ));
    }
    if stmt.from.is_empty() {
        return Err(WsqError::Plan("FROM clause is required".to_string()));
    }

    // Duplicate binding names are ambiguous.
    for (i, t) in stmt.from.iter().enumerate() {
        let name = t.binding_name();
        if stmt.from[..i]
            .iter()
            .any(|earlier| earlier.binding_name().eq_ignore_ascii_case(name))
        {
            return Err(WsqError::Plan(format!(
                "duplicate table name/alias '{name}' in FROM"
            )));
        }
    }

    let mut conjuncts: Vec<Conjunct<'_>> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        w.for_each_conjunct(&mut |expr| conjuncts.push(Conjunct { expr, used: false }));
    }

    // How many FROM entries are virtual? (Unqualified `Ti` references are
    // attributed to a virtual table only when it is the only one.)
    let virtual_tables = stmt
        .from
        .iter()
        .filter(|t| parse_virtual_name(&t.table).is_some())
        .count();

    let mut plan: Option<PhysPlan> = None;
    let mut running = Schema::empty();

    for tref in &stmt.from {
        let alias = tref.binding_name();
        if let Some((kind, engine_suffix)) = parse_virtual_name(&tref.table) {
            // `_ANY` races the registry's configured engine group (first
            // result wins) — unless an engine literally named "ANY" is
            // registered, which then takes precedence.
            let mut race: Vec<Arc<str>> = Vec::new();
            let (engine_name, supports_near) = match engine_suffix {
                Some(s) if s.eq_ignore_ascii_case("any") && engines.get(s).is_err() => {
                    let group = engines.race_group();
                    let Some(lead) = group.first() else {
                        return Err(WsqError::Plan(format!(
                            "'{}' races the engine group, but none is \
                             configured (Wsq::set_race_group)",
                            tref.table
                        )));
                    };
                    // NEAR templates are only safe if every raced engine
                    // understands them.
                    let near = group.iter().all(|n| {
                        engines
                            .get(n)
                            .map(|(_, e)| e.supports_near)
                            .unwrap_or(false)
                    });
                    if group.len() > 1 {
                        race = group.to_vec();
                    }
                    (lead.clone(), near)
                }
                Some(s) => {
                    let (_, entry) = engines.get(s)?;
                    (entry.name.clone(), entry.supports_near)
                }
                None => {
                    let (_, entry) = engines.get(engines.default_name()?)?;
                    (entry.name.clone(), entry.supports_near)
                }
            };
            let mut spec = analyze_virtual(
                stmt,
                &mut conjuncts,
                kind,
                engine_name,
                alias,
                supports_near,
                virtual_tables == 1,
                &running,
            )?;
            spec.race = race;
            let left = plan.take().unwrap_or_else(|| {
                // Standalone virtual table: drive the dependent join with
                // one empty tuple.
                PhysPlan::Values {
                    schema: Schema::empty(),
                    rows: vec![vec![]],
                }
            });
            let node = PhysPlan::DependentJoin {
                left: Box::new(left),
                right: Box::new(PhysPlan::EVScan(Arc::new(spec))),
            };
            running = node.schema();
            // Attach now-resolvable predicates (e.g. on Count/URL).
            plan = Some(attach_filters(node, &mut conjuncts, &running));
            continue;
        }

        let (node, schema) = match catalog.view_definition(&tref.table) {
            Some(definition) => {
                // A view: expand its definition as a subplan, re-qualified
                // under the binding alias (WebCount itself is "an
                // aggregate view over WebPages", paper §1 — stored views
                // get the same treatment).
                let view_stmt = match wsq_sql::parse_one(definition)? {
                    wsq_sql::Statement::Select(s) => s,
                    _ => {
                        return Err(WsqError::Plan(format!(
                            "view '{}' definition is not a SELECT",
                            tref.table
                        )))
                    }
                };
                let sub = plan_select_depth(&view_stmt, catalog, engines, depth + 1)?;
                let sub_schema = sub.schema();
                let mut items = Vec::with_capacity(sub_schema.len());
                let mut cols = Vec::with_capacity(sub_schema.len());
                for (_, c) in sub_schema.iter() {
                    items.push((
                        Expr::Column(ColumnRef {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        }),
                        c.name.clone(),
                    ));
                    cols.push(wsq_common::Column::qualified(
                        alias.clone(),
                        c.name.clone(),
                        c.dtype,
                    ));
                }
                let schema = Schema::new(cols);
                let node = PhysPlan::Project {
                    input: Box::new(sub),
                    items,
                    schema: schema.clone(),
                };
                (node, schema)
            }
            None => {
                // Stored table. Prefer a B+-tree range scan when conjuncts
                // bound an indexed column (Redbase's access-path choice:
                // index over file scan for selections on the key).
                let schema = catalog
                    .table_schema(&tref.table)?
                    .with_qualifier(alias.clone());
                let unused = conjuncts.iter().filter(|c| !c.used).map(|c| c.expr);
                let node = match pick_index_access(catalog, &tref.table, &schema, unused) {
                    Some(access) => PhysPlan::IndexScan {
                        table: tref.table.clone(),
                        alias: alias.clone(),
                        column: access.column,
                        lo: access.lo,
                        hi: access.hi,
                        schema: schema.clone(),
                    },
                    None => PhysPlan::SeqScan {
                        table: tref.table.clone(),
                        alias: alias.clone(),
                        schema: schema.clone(),
                    },
                };
                (node, schema)
            }
        };
        // Push down single-table predicates — for an index scan including
        // the ones its range was read from: the index narrows, the filter
        // decides.
        let node = attach_filters(node, &mut conjuncts, &schema);
        plan = Some(match plan.take() {
            None => node,
            Some(left) => {
                let combined = running.join(&schema);
                join_with_predicates(left, node, &combined, &mut conjuncts)
            }
        });
        running = plan.as_ref().map(PhysPlan::schema).unwrap_or_default();
    }

    let mut plan = plan.ok_or_else(|| WsqError::Plan("FROM clause is required".to_string()))?;

    // Any leftover conjunct must now resolve, or the query is erroneous.
    for c in conjuncts.iter_mut().filter(|c| !c.used) {
        resolve_columns(c.expr, &running)?;
        c.used = true;
        plan = PhysPlan::Filter {
            input: Box::new(plan),
            predicate: c.expr.clone(),
        };
    }

    // RERANK BY: reorder patched web-result tuples by a scoring function.
    // Planned below projection/aggregation so the scorer's target column
    // (URL / Rank) is still in scope.
    if let Some(name) = &stmt.rerank {
        let scorer = RerankScorer::parse(name).ok_or_else(|| {
            WsqError::Plan(format!(
                "unknown RERANK BY scorer '{name}' (expected url_depth, url_len, or rank)"
            ))
        })?;
        running.resolve(None, scorer.target_column()).map_err(|_| {
            WsqError::Plan(format!(
                "RERANK BY {} needs a '{}' column in scope (query a WebPages table)",
                scorer,
                scorer.target_column()
            ))
        })?;
        plan = PhysPlan::Rerank {
            input: Box::new(plan),
            scorer,
        };
    }

    // Projection / aggregation.
    let has_agg = !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        });

    let items = expand_items(&stmt.items, &running, has_agg)?;

    if has_agg {
        plan = plan_aggregation(plan, stmt, &items)?;
        if stmt.distinct {
            plan = PhysPlan::Distinct {
                input: Box::new(plan),
            };
        }
        // ORDER BY over aggregates: keys must reference the projected
        // outputs (by alias/name/ordinal or syntactic equality).
        if !stmt.order_by.is_empty() {
            let out_schema = plan.schema();
            let keys = stmt
                .order_by
                .iter()
                .map(|o| Ok((rewrite_order_key(&o.expr, &items, &out_schema)?, o.desc)))
                .collect::<Result<Vec<_>>>()?;
            plan = PhysPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
    } else {
        // Non-aggregate queries sort BELOW the projection, so keys may
        // reference any input column (`SELECT Name … ORDER BY Population`).
        // Aliases and ordinals are first rewritten to the select item's
        // expression. Distinct and Project both preserve encounter order,
        // so the sort survives them.
        if !stmt.order_by.is_empty() {
            let keys = stmt
                .order_by
                .iter()
                .map(|o| {
                    let expr = dealias_order_key(&o.expr, &items)?;
                    // Validate against the input schema now for a clear
                    // error message.
                    resolve_columns(&expr, &running)?;
                    Ok((expr, o.desc))
                })
                .collect::<Result<Vec<_>>>()?;
            plan = PhysPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        let schema = project_schema(&items, &running);
        plan = PhysPlan::Project {
            input: Box::new(plan),
            items,
            schema,
        };
        if stmt.distinct {
            plan = PhysPlan::Distinct {
                input: Box::new(plan),
            };
        }
    }

    if let Some(n) = stmt.limit {
        plan = PhysPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }

    Ok(plan)
}

/// An index access path: scan `column`'s B+-tree over the inclusive key
/// range `[lo, hi]` (`None` = open end).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexAccess {
    /// The indexed column, as the stored schema spells it.
    pub column: Arc<str>,
    /// Inclusive lower bound.
    pub lo: Option<Value>,
    /// Inclusive upper bound.
    pub hi: Option<Value>,
}

/// A literal operand: `lit`, or `-lit` for a number (the parser reads a
/// negative constant as a negation).
fn literal_operand(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(lit) => Some(crate::expr::literal_value(lit)),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => match expr.as_ref() {
            Expr::Literal(Literal::Int(i)) => i.checked_neg().map(Value::Int),
            Expr::Literal(Literal::Float(f)) => Some(Value::Float(-f)),
            _ => None,
        },
        _ => None,
    }
}

/// The inclusive bounds one conjunct puts on one column: `col = lit`,
/// `col < <= > >= lit` with the operands in either order, or
/// `col BETWEEN lit AND lit`. An exclusive bound is reported inclusive —
/// the caller keeps the conjunct as a filter.
fn conjunct_bounds(expr: &Expr) -> Option<(&ColumnRef, Option<Value>, Option<Value>)> {
    match expr {
        Expr::Binary { op, lhs, rhs } => {
            let (col, lit, op) = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Column(c), other) => (c, literal_operand(other)?, *op),
                (other, Expr::Column(c)) => (c, literal_operand(other)?, flip(*op)),
                _ => return None,
            };
            match op {
                BinOp::Eq => Some((col, Some(lit.clone()), Some(lit))),
                BinOp::Gt | BinOp::GtEq => Some((col, Some(lit), None)),
                BinOp::Lt | BinOp::LtEq => Some((col, None, Some(lit))),
                _ => None,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match expr.as_ref() {
            Expr::Column(c) => Some((c, Some(literal_operand(low)?), Some(literal_operand(high)?))),
            _ => None,
        },
        _ => None,
    }
}

/// Can a bound `v` narrow a scan of a `dtype` column's index? Only when
/// the two are of one type class, so that index key order is
/// [`Value::compare`] order: a `NULL` bound (the conjunct is then false
/// for every row), a string against a number (ordered by type rank, not
/// by key) and a NaN (equal to everything) never narrow.
fn bound_fits(v: &Value, dtype: DataType) -> bool {
    match (v, dtype) {
        (Value::Int(_), DataType::Int | DataType::Float) => true,
        (Value::Float(f), DataType::Int | DataType::Float) => !f.is_nan(),
        (Value::Str(_), DataType::Varchar) => true,
        _ => false,
    }
}

/// The column of `schema` (by offset) and the inclusive key range that
/// `conjunct` confines it to, if `conjunct` compares one of its columns
/// with fitting literals.
pub(crate) fn column_range(
    conjunct: &Expr,
    schema: &Schema,
) -> Option<(usize, Option<Value>, Option<Value>)> {
    let (col, lo, hi) = conjunct_bounds(conjunct)?;
    let idx = schema.try_resolve(col.qualifier.as_deref(), &col.name)?;
    let dtype = schema.column(idx).dtype;
    (lo.iter().chain(&hi).all(|v| bound_fits(v, dtype))).then_some((idx, lo, hi))
}

/// Choose an index access path for one stored table — the one place
/// SELECT, UPDATE and DELETE decide between the heap and a B+-tree.
///
/// Every conjunct of the shape `col = lit`, `col < <= > >= lit` (either
/// operand order) or `col BETWEEN lit AND lit` over an indexed column of
/// `schema` contributes bounds, provided its literals are of the column's
/// type class — a `NULL`, a NaN or a string against a number never
/// narrows. The bounds on one column are intersected into a single
/// inclusive range. With several candidate columns a point range beats a
/// two-sided range beats a half-open one, the earlier conjunct winning
/// ties.
///
/// The range is a **superset** of the matching rows and the conjuncts are
/// not consumed: the caller still applies every one of them as a filter.
/// That is what makes `<`/`>`, an open end, a contradictory pair
/// (`lo > hi`: an empty scan) and lossy keys correct here without any
/// case analysis.
pub fn pick_index_access<'a>(
    catalog: &Catalog,
    table: &str,
    schema: &Schema,
    conjuncts: impl IntoIterator<Item = &'a Expr>,
) -> Option<IndexAccess> {
    let indexed = catalog.indexes_on(table);
    if indexed.is_empty() {
        return None;
    }
    // (column offset, lo, hi) per candidate column, in first-seen order.
    let mut ranges: Vec<(usize, Option<Value>, Option<Value>)> = Vec::new();
    for conjunct in conjuncts {
        let Some((idx, lo, hi)) = column_range(conjunct, schema) else {
            continue;
        };
        let name = &schema.column(idx).name;
        if !indexed.iter().any(|c| c.eq_ignore_ascii_case(name)) {
            continue;
        }
        let pos = ranges
            .iter()
            .position(|(i, _, _)| *i == idx)
            .unwrap_or_else(|| {
                ranges.push((idx, None, None));
                ranges.len() - 1
            });
        let (_, cur_lo, cur_hi) = &mut ranges[pos];
        tighten(cur_lo, lo, Ordering::Greater);
        tighten(cur_hi, hi, Ordering::Less);
    }
    let rank = |lo: &Option<Value>, hi: &Option<Value>| match (lo, hi) {
        (Some(lo), Some(hi)) if lo == hi => 0,
        (Some(_), Some(_)) => 1,
        _ => 2,
    };
    // `min_by_key` keeps the first of equally ranked candidates.
    let (idx, lo, hi) = ranges.into_iter().min_by_key(|(_, lo, hi)| rank(lo, hi))?;
    Some(IndexAccess {
        column: schema.column(idx).name.clone(),
        lo,
        hi,
    })
}

/// Replace `*cur` by `new` when `new` is the tighter bound, i.e. compares
/// `tighter` to it. Fitting bounds of one column are always comparable.
fn tighten(cur: &mut Option<Value>, new: Option<Value>, tighter: Ordering) {
    let Some(new) = new else { return };
    let keep_cur = cur
        .as_ref()
        .is_some_and(|c| new.compare(c).ok() != Some(tighter));
    if !keep_cur {
        *cur = Some(new);
    }
}

/// Attach every unused conjunct fully resolvable against `schema`.
fn attach_filters(mut node: PhysPlan, conjuncts: &mut [Conjunct<'_>], schema: &Schema) -> PhysPlan {
    for c in conjuncts.iter_mut().filter(|c| !c.used) {
        if resolves_in(c.expr, schema) && !c.expr.contains_aggregate() {
            c.used = true;
            node = PhysPlan::Filter {
                input: Box::new(node),
                predicate: c.expr.clone(),
            };
        }
    }
    node
}

/// Join two subtrees, turning newly-resolvable conjuncts into the join
/// predicate (none → cross product).
fn join_with_predicates(
    left: PhysPlan,
    right: PhysPlan,
    combined: &Schema,
    conjuncts: &mut [Conjunct<'_>],
) -> PhysPlan {
    let mut preds = Vec::new();
    for c in conjuncts.iter_mut().filter(|c| !c.used) {
        if resolves_in(c.expr, combined) && !c.expr.contains_aggregate() {
            c.used = true;
            preds.push(c.expr.clone());
        }
    }
    match Expr::join_conjuncts(preds) {
        Some(predicate) => PhysPlan::NestedLoopJoin {
            left: Box::new(left),
            right: Box::new(right),
            predicate,
        },
        None => PhysPlan::CrossProduct {
            left: Box::new(left),
            right: Box::new(right),
        },
    }
}

/// Does a column reference denote `alias.Ti` (or unqualified `Ti` when
/// this is the only virtual table)? Returns the 1-based index.
fn t_index(col: &ColumnRef, alias: &str, only_virtual: bool) -> Option<usize> {
    let rest = col.name.strip_prefix(['T', 't'])?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let idx: usize = rest.parse().ok()?;
    if idx == 0 {
        return None;
    }
    match &col.qualifier {
        Some(q) if q.eq_ignore_ascii_case(alias) => Some(idx),
        Some(_) => None,
        None if only_virtual => Some(idx),
        None => None,
    }
}

/// Does a column reference denote `alias.<field>`?
fn is_vcol(col: &ColumnRef, alias: &str, field: &str, only_virtual: bool) -> bool {
    if !col.name.eq_ignore_ascii_case(field) {
        return false;
    }
    match &col.qualifier {
        Some(q) => q.eq_ignore_ascii_case(alias),
        None => only_virtual,
    }
}

/// Binding analysis for one virtual table reference (§3).
#[allow(clippy::too_many_arguments)]
fn analyze_virtual(
    stmt: &SelectStmt,
    conjuncts: &mut [Conjunct<'_>],
    kind: VTableKind,
    engine: Arc<str>,
    alias: &Arc<str>,
    supports_near: bool,
    only_virtual: bool,
    left_schema: &Schema,
) -> Result<EvSpec> {
    // 1. How many T columns does this query use? (The virtual table is an
    //    "infinite family" — the column count is query-dependent, §3.)
    let mut n = 0usize;
    let mut visit = |e: &Expr| {
        e.visit(&mut |e| {
            if let Expr::Column(col) = e {
                if let Some(i) = t_index(col, alias, only_virtual) {
                    n = n.max(i);
                }
            }
        })
    };
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            visit(expr);
        }
    }
    if let Some(w) = &stmt.where_clause {
        visit(w);
    }
    for o in &stmt.order_by {
        visit(&o.expr);
    }

    // 2. Bind each Ti from an equality conjunct.
    let mut bindings: Vec<Option<EvBinding>> = vec![None; n];
    let mut template: Option<Arc<str>> = None;
    let mut rank_limit: Option<u32> = None;

    for c in conjuncts.iter_mut().filter(|c| !c.used) {
        let Expr::Binary { op, lhs, rhs } = c.expr else {
            continue;
        };
        // Normalize so the virtual column is on the left.
        let sides = [
            (lhs.as_ref(), rhs.as_ref(), *op),
            (rhs.as_ref(), lhs.as_ref(), flip(*op)),
        ];
        for (vside, other, op) in sides {
            let Expr::Column(vcol) = vside else { continue };

            // Ti = <const | earlier column>
            if op == BinOp::Eq {
                if let Some(i) = t_index(vcol, alias, only_virtual) {
                    let binding = match other {
                        Expr::Literal(lit) => {
                            Some(EvBinding::Const(crate::expr::literal_value(lit)))
                        }
                        Expr::Column(c2) => {
                            if t_index(c2, alias, only_virtual).is_some() {
                                None // Ti = Tj is not a binding
                            } else {
                                left_schema
                                    .try_resolve(c2.qualifier.as_deref(), &c2.name)
                                    .map(|_| EvBinding::Column(c2.clone()))
                            }
                        }
                        _ => None,
                    };
                    if let Some(b) = binding {
                        if bindings[i - 1].is_none() {
                            bindings[i - 1] = Some(b);
                            c.used = true;
                            break;
                        }
                    }
                }
                // SearchExp = 'literal'
                if is_vcol(vcol, alias, "SearchExp", only_virtual) {
                    if let Expr::Literal(Literal::Str(s)) = other {
                        template = Some(s.clone());
                        c.used = true;
                        break;
                    }
                }
            }

            // Rank <= k / Rank < k → engine-side rank bound.
            if kind == VTableKind::WebPages
                && is_vcol(vcol, alias, "Rank", only_virtual)
                && matches!(op, BinOp::LtEq | BinOp::Lt)
            {
                if let Expr::Literal(Literal::Int(k)) = other {
                    let bound = match op {
                        BinOp::LtEq => *k,
                        _ => *k - 1,
                    };
                    if bound >= 0 {
                        let bound = bound as u32;
                        rank_limit = Some(rank_limit.map_or(bound, |cur| cur.min(bound)));
                        c.used = true;
                        break;
                    }
                }
            }
        }
    }

    // 3. Every referenced Ti must be bound (the columns are engine inputs).
    let bindings: Vec<EvBinding> = bindings
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            b.ok_or_else(|| {
                WsqError::Plan(format!(
                    "virtual table '{alias}': T{} is not bound to a constant or an \
                     earlier table's column",
                    i + 1
                ))
            })
        })
        .collect::<Result<Vec<_>>>()?;

    if bindings.is_empty() && template.is_none() {
        return Err(WsqError::Plan(format!(
            "virtual table '{alias}': no search terms bound (reference T1 or bind \
             SearchExp)"
        )));
    }

    let mut spec = EvSpec::new(kind, engine, alias.clone(), bindings, supports_near);
    spec.template = template;
    spec.rank_limit = rank_limit.unwrap_or(DEFAULT_RANK_LIMIT);
    Ok(spec)
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// Expand `*` and name every select item. Column references are validated
/// against `schema` here so planning (not just execution) rejects unknown
/// columns — view definitions rely on this.
fn expand_items(
    items: &[SelectItem],
    schema: &Schema,
    has_agg: bool,
) -> Result<Vec<(Expr, Arc<str>)>> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        if let SelectItem::Expr { expr, .. } = item {
            resolve_columns(expr, schema)?;
        }
        match item {
            SelectItem::Star => {
                if has_agg {
                    return Err(WsqError::Plan(
                        "SELECT * cannot be combined with aggregation".to_string(),
                    ));
                }
                for (_, col) in schema.iter() {
                    out.push((
                        Expr::Column(ColumnRef {
                            qualifier: col.qualifier.clone(),
                            name: col.name.clone(),
                        }),
                        col.name.clone(),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.clone(),
                    None => match expr {
                        Expr::Column(c) => c.name.clone(),
                        other => other.to_string().into(),
                    },
                };
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

/// Output schema of a projection.
fn project_schema(items: &[(Expr, Arc<str>)], input: &Schema) -> Schema {
    items
        .iter()
        .map(|(e, name)| {
            let dt = crate::expr::infer_type(e, input).unwrap_or(DataType::Varchar);
            wsq_common::Column::new(name.clone(), dt)
        })
        .collect()
}

/// Plan GROUP BY / aggregate queries: Aggregate computes raw aggregates
/// under synthetic names, a Project above computes the final expressions.
fn plan_aggregation(
    input: PhysPlan,
    stmt: &SelectStmt,
    items: &[(Expr, Arc<str>)],
) -> Result<PhysPlan> {
    let in_schema = input.schema();

    // Validate grouping columns resolve.
    for g in &stmt.group_by {
        in_schema.resolve(g.qualifier.as_deref(), &g.name)?;
    }

    // Collect distinct aggregate calls across all select items.
    let mut aggs: Vec<(AggFunc, Option<Expr>, Arc<str>)> = Vec::new();
    let mut rewritten_items: Vec<(Expr, Arc<str>)> = Vec::new();
    for (expr, name) in items {
        let rewritten = rewrite_aggs(expr, &mut aggs)?;
        // Non-aggregate select columns must appear in GROUP BY.
        if !expr.contains_aggregate() {
            if let Expr::Column(c) = expr {
                let in_group = stmt.group_by.iter().any(|g| {
                    g.name.eq_ignore_ascii_case(&c.name)
                        && match (&g.qualifier, &c.qualifier) {
                            (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                            _ => true,
                        }
                });
                if !in_group {
                    return Err(WsqError::Plan(format!(
                        "column '{c}' must appear in GROUP BY or inside an aggregate"
                    )));
                }
            } else {
                return Err(WsqError::Plan(format!(
                    "non-aggregate expression '{expr}' requires GROUP BY column"
                )));
            }
        }
        rewritten_items.push((rewritten, name.clone()));
    }

    // HAVING: rewrite its aggregate calls against the same synthetic
    // columns and filter between the Aggregate and the final Project.
    let having = stmt
        .having
        .as_ref()
        .map(|h| rewrite_aggs(h, &mut aggs))
        .transpose()?;

    let mut agg_plan = PhysPlan::Aggregate {
        input: Box::new(input),
        group_by: stmt.group_by.clone(),
        aggs,
    };
    if let Some(h) = having {
        agg_plan = PhysPlan::Filter {
            input: Box::new(agg_plan),
            predicate: strip_qualifiers_in_group_refs(h, &stmt.group_by),
        };
    }
    let agg_schema = agg_plan.schema();

    // Rewrite grouped column references to the aggregate's output names
    // (unqualified group column names).
    let final_items: Vec<(Expr, Arc<str>)> = rewritten_items
        .into_iter()
        .map(|(e, name)| (strip_qualifiers_in_group_refs(e, &stmt.group_by), name))
        .collect();
    let schema = project_schema(&final_items, &agg_schema);
    Ok(PhysPlan::Project {
        input: Box::new(agg_plan),
        items: final_items,
        schema,
    })
}

/// Replace aggregate calls with references to synthetic columns, adding
/// each distinct call to `aggs`.
fn rewrite_aggs(expr: &Expr, aggs: &mut Vec<(AggFunc, Option<Expr>, Arc<str>)>) -> Result<Expr> {
    Ok(match expr {
        Expr::Agg { func, arg } => {
            let arg_expr = arg.as_ref().map(|a| a.as_ref().clone());
            // Reuse an identical aggregate if present.
            let pos = aggs
                .iter()
                .position(|(f, a, _)| f == func && a == &arg_expr)
                .unwrap_or_else(|| {
                    let name = format!("#agg{}", aggs.len()).into();
                    aggs.push((*func, arg_expr.clone(), name));
                    aggs.len() - 1
                });
            Expr::Column(ColumnRef {
                qualifier: None,
                name: aggs[pos].2.clone(),
            })
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(rewrite_aggs(lhs, aggs)?),
            rhs: Box::new(rewrite_aggs(rhs, aggs)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_aggs(expr, aggs)?),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite_aggs(expr, aggs)?),
            pattern: Box::new(rewrite_aggs(pattern, aggs)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite_aggs(expr, aggs)?),
            list: list
                .iter()
                .map(|e| rewrite_aggs(e, aggs))
                .collect::<Result<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite_aggs(expr, aggs)?),
            low: Box::new(rewrite_aggs(low, aggs)?),
            high: Box::new(rewrite_aggs(high, aggs)?),
            negated: *negated,
        },
        other => other.clone(),
    })
}

/// After aggregation, group columns are exposed unqualified; strip
/// qualifiers from references to them.
fn strip_qualifiers_in_group_refs(expr: Expr, group_by: &[ColumnRef]) -> Expr {
    match expr {
        Expr::Column(c) => {
            if group_by
                .iter()
                .any(|g| g.name.eq_ignore_ascii_case(&c.name))
            {
                Expr::Column(ColumnRef {
                    qualifier: None,
                    name: c.name,
                })
            } else {
                Expr::Column(c)
            }
        }
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op,
            lhs: Box::new(strip_qualifiers_in_group_refs(*lhs, group_by)),
            rhs: Box::new(strip_qualifiers_in_group_refs(*rhs, group_by)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(strip_qualifiers_in_group_refs(*expr, group_by)),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(strip_qualifiers_in_group_refs(*expr, group_by)),
            pattern: Box::new(strip_qualifiers_in_group_refs(*pattern, group_by)),
            negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(strip_qualifiers_in_group_refs(*expr, group_by)),
            list: list
                .into_iter()
                .map(|e| strip_qualifiers_in_group_refs(e, group_by))
                .collect(),
            negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(strip_qualifiers_in_group_refs(*expr, group_by)),
            low: Box::new(strip_qualifiers_in_group_refs(*low, group_by)),
            high: Box::new(strip_qualifiers_in_group_refs(*high, group_by)),
            negated,
        },
        other => other,
    }
}

/// Rewrite an ORDER BY key for a below-projection sort: ordinals and
/// output-name references become the corresponding select item's
/// expression; everything else passes through to resolve against the
/// input schema.
fn dealias_order_key(expr: &Expr, items: &[(Expr, Arc<str>)]) -> Result<Expr> {
    if let Expr::Literal(Literal::Int(k)) = expr {
        if *k >= 1 && (*k as usize) <= items.len() {
            return Ok(items[*k as usize - 1].0.clone());
        }
        return Err(WsqError::Plan(format!(
            "ORDER BY ordinal {k} out of range (1..={})",
            items.len()
        )));
    }
    if let Expr::Column(c) = expr {
        if c.qualifier.is_none() {
            if let Some((e, _)) = items
                .iter()
                .find(|(_, name)| name.eq_ignore_ascii_case(&c.name))
            {
                return Ok(e.clone());
            }
        }
    }
    Ok(expr.clone())
}

/// Resolve an ORDER BY key against the projected output: ordinals, output
/// names/aliases, or syntactic equality with a select item.
fn rewrite_order_key(expr: &Expr, items: &[(Expr, Arc<str>)], out_schema: &Schema) -> Result<Expr> {
    // Ordinal.
    if let Expr::Literal(Literal::Int(k)) = expr {
        if *k >= 1 && (*k as usize) <= out_schema.len() {
            return Ok(expr.clone());
        }
        return Err(WsqError::Plan(format!(
            "ORDER BY ordinal {k} out of range (1..={})",
            out_schema.len()
        )));
    }
    // Syntactic match with a select item → its output name.
    if let Some((_, name)) = items.iter().find(|(e, _)| e == expr) {
        return Ok(Expr::Column(ColumnRef {
            qualifier: None,
            name: name.clone(),
        }));
    }
    // A name in the output schema (alias or passed-through column).
    if let Expr::Column(c) = expr {
        if out_schema
            .try_resolve(c.qualifier.as_deref(), &c.name)
            .is_some()
        {
            return Ok(expr.clone());
        }
        if c.qualifier.is_some() && out_schema.try_resolve(None, &c.name).is_some() {
            return Ok(Expr::Column(ColumnRef {
                qualifier: None,
                name: c.name.clone(),
            }));
        }
    }
    Err(WsqError::Plan(format!(
        "ORDER BY key '{expr}' does not reference the select list"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::EngineRegistry;
    use std::sync::Arc;
    use wsq_common::{Column, DataType};

    fn setup() -> (Catalog, EngineRegistry) {
        let pool = Arc::new(wsq_storage::BufferPool::new(16));
        let f1 = pool.register_file(Box::new(wsq_storage::MemStorage::new()));
        let f2 = pool.register_file(Box::new(wsq_storage::MemStorage::new()));
        let f3 = pool.register_file(Box::new(wsq_storage::MemStorage::new()));
        let f4 = pool.register_file(Box::new(wsq_storage::MemStorage::new()));
        let mut catalog = Catalog::create(pool, f1, f2, f3, f4).unwrap();
        catalog
            .create_table(
                "States",
                &Schema::new(vec![
                    Column::new("Name", DataType::Varchar),
                    Column::new("Population", DataType::Int),
                ]),
            )
            .unwrap();
        let mut engines = EngineRegistry::new();
        engines.register("AV", true);
        engines.register("Google", false);
        (catalog, engines)
    }

    fn plan(sql: &str) -> crate::plan::PhysPlan {
        let (catalog, engines) = setup();
        let stmt = match wsq_sql::parse_one(sql).unwrap() {
            wsq_sql::Statement::Select(s) => s,
            _ => panic!(),
        };
        plan_select(&stmt, &catalog, &engines).unwrap()
    }

    fn plan_err(sql: &str) -> String {
        let (catalog, engines) = setup();
        let stmt = match wsq_sql::parse_one(sql).unwrap() {
            wsq_sql::Statement::Select(s) => s,
            _ => panic!(),
        };
        plan_select(&stmt, &catalog, &engines)
            .unwrap_err()
            .to_string()
    }

    /// Like [`plan`], but lets the test reshape the engine registry
    /// (race groups, extra engines) before planning.
    fn plan_engines(sql: &str, config: impl FnOnce(&mut EngineRegistry)) -> crate::plan::PhysPlan {
        let (catalog, mut engines) = setup();
        config(&mut engines);
        let stmt = match wsq_sql::parse_one(sql).unwrap() {
            wsq_sql::Statement::Select(s) => s,
            _ => panic!(),
        };
        plan_select(&stmt, &catalog, &engines).unwrap()
    }

    /// The spec of the last-joined virtual scan: the inner side of the
    /// topmost dependent join.
    fn top_spec(p: &PhysPlan) -> &EvSpec {
        let here = match p {
            PhysPlan::DependentJoin { right, .. } => right.inner_spec(),
            other => other.inner_spec(),
        };
        here.unwrap_or_else(|| match p.children().next() {
            Some(outer) => top_spec(outer),
            None => panic!("no spec in {p}"),
        })
    }

    /// The access path chosen for `SELECT 1 FROM States WHERE <predicate>`
    /// with both columns indexed, as `column lo hi` text.
    fn access(predicate: &str) -> Option<String> {
        let (mut catalog, _) = setup();
        catalog.create_index("States", "Population").unwrap();
        catalog.create_index("States", "Name").unwrap();
        let stmt = match wsq_sql::parse_one(&format!("SELECT 1 FROM States WHERE {predicate}")) {
            Ok(wsq_sql::Statement::Select(s)) => s,
            other => panic!("{other:?}"),
        };
        let schema = catalog
            .table_schema("States")
            .unwrap()
            .with_qualifier("States");
        let bound = |b: Option<Value>| b.map_or("..".to_string(), |v| v.to_string());
        let predicate = stmt.where_clause.expect("a WHERE clause");
        pick_index_access(&catalog, "States", &schema, predicate.conjuncts())
            .map(|a| format!("{} {} {}", a.column, bound(a.lo), bound(a.hi)))
    }

    #[test]
    fn index_access_intersects_the_bounds_on_one_column() {
        // Either operand order; the tighter bound wins on each side.
        assert_eq!(
            access("Population >= 5 AND Population > 7 AND 20 >= Population AND Population < 30")
                .as_deref(),
            Some("Population 7 20")
        );
        assert_eq!(
            access("Population BETWEEN 3 AND 9 AND States.Population = 5").as_deref(),
            Some("Population 5 5")
        );
        assert_eq!(
            access("-5 < Population").as_deref(),
            Some("Population -5 ..")
        );
        assert_eq!(
            access("Population <= 2.5").as_deref(),
            Some("Population .. 2.5")
        );
        // A contradiction is a valid, empty, key range.
        assert_eq!(
            access("Population > 9 AND Population < 3").as_deref(),
            Some("Population 9 3")
        );
        // Point beats two-sided beats half-open; ties go to the first.
        assert_eq!(
            access("Population > 5 AND Name = 'Utah'").as_deref(),
            Some("Name Utah Utah")
        );
        assert_eq!(
            access("Name >= 'A' AND Population BETWEEN 1 AND 2 AND Name <> 'B'").as_deref(),
            Some("Population 1 2")
        );
        assert_eq!(
            access("Name >= 'A' AND Population < 2").as_deref(),
            Some("Name A ..")
        );
    }

    #[test]
    fn index_access_needs_a_fitting_literal_on_an_indexed_column() {
        for predicate in [
            "Population = NULL",
            "Population BETWEEN NULL AND 5",
            "Population > 'x'",
            "Name < 5",
            "Population <> 3",
            "Population NOT BETWEEN 1 AND 2",
            "Population + 1 > 3",
            "Population > Population",
            "Population > 3 OR Population < 1",
            "Nope.Population = 3",
        ] {
            assert_eq!(access(predicate), None, "{predicate}");
        }
        // An unusable conjunct does not spoil a usable one beside it.
        assert_eq!(
            access("Population = NULL AND Population > 3").as_deref(),
            Some("Population 3 ..")
        );
        // No index, no access path.
        let (catalog, _) = setup();
        let schema = catalog.table_schema("States").unwrap().clone();
        let eq = Expr::binary(
            BinOp::Eq,
            Expr::column("Population"),
            Expr::Literal(Literal::Int(3)),
        );
        assert_eq!(pick_index_access(&catalog, "States", &schema, [&eq]), None);
    }

    #[test]
    fn virtual_name_parsing() {
        assert!(matches!(
            parse_virtual_name("WebCount"),
            Some((VTableKind::WebCount, None))
        ));
        assert!(matches!(
            parse_virtual_name("webpages_google"),
            Some((VTableKind::WebPages, Some("google")))
        ));
        assert!(parse_virtual_name("WebCount_").is_none());
        assert!(parse_virtual_name("WebCounter").is_none());
        assert!(parse_virtual_name("States").is_none());
    }

    #[test]
    fn default_rank_limit_applied() {
        let p = plan("SELECT URL FROM States, WebPages WHERE Name = T1");
        let spec = top_spec(&p);
        assert_eq!(spec.rank_limit, DEFAULT_RANK_LIMIT);
        // An explicit bound replaces it; the tighter bound wins.
        let p = plan("SELECT URL FROM States, WebPages WHERE Name = T1 AND Rank <= 7 AND Rank < 5");
        assert_eq!(top_spec(&p).rank_limit, 4);
    }

    #[test]
    fn default_template_depends_on_engine() {
        let p = plan("SELECT Count FROM States, WebCount WHERE Name = T1 AND T2 = 'x'");
        assert_eq!(top_spec(&p).effective_template(), "%1 near %2");
        let p = plan("SELECT Count FROM States, WebCount_Google WHERE Name = T1 AND T2 = 'x'");
        let spec = top_spec(&p);
        assert_eq!(&*spec.engine, "Google");
        assert!(!spec.supports_near);
        assert_eq!(spec.effective_template(), "%1 %2");
    }

    #[test]
    fn any_without_race_group_is_a_plan_error() {
        let err = plan_err("SELECT Count FROM States, WebCount_ANY WHERE Name = T1");
        assert!(
            err.contains("races the engine group"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn any_resolves_to_the_configured_race_group() {
        let p = plan_engines(
            "SELECT Count FROM States, WebCount_ANY WHERE Name = T1",
            |e| e.set_race_group(&["AV", "Google"]).unwrap(),
        );
        let spec = top_spec(&p);
        assert_eq!(spec.race, vec![Arc::from("AV"), Arc::from("Google")]);
        // The lead member names the spec; NEAR is the AND of the group
        // (Google lacks it, so the race must not emit NEAR templates).
        assert_eq!(&*spec.engine, "AV");
        assert!(!spec.supports_near);
    }

    #[test]
    fn one_member_race_group_degenerates_to_a_plain_call() {
        let p = plan_engines(
            "SELECT Count FROM States, WebCount_ANY WHERE Name = T1",
            |e| e.set_race_group(&["AV"]).unwrap(),
        );
        let spec = top_spec(&p);
        assert!(spec.race.is_empty(), "no race for a group of one");
        assert_eq!(&*spec.engine, "AV");
        assert!(spec.supports_near);
    }

    #[test]
    fn registered_engine_named_any_shadows_the_race_suffix() {
        let p = plan_engines(
            "SELECT Count FROM States, WebCount_ANY WHERE Name = T1",
            |e| {
                e.register("ANY", true);
                e.set_race_group(&["AV", "Google"]).unwrap();
            },
        );
        let spec = top_spec(&p);
        assert!(spec.race.is_empty());
        assert_eq!(&*spec.engine, "ANY");
    }

    #[test]
    fn explicit_searchexp_consumed() {
        let p = plan(
            "SELECT Count FROM States, WebCount \
             WHERE SearchExp = '%2 AND %1' AND Name = T1 AND T2 = 'ski'",
        );
        let spec = top_spec(&p);
        assert_eq!(spec.template.as_deref(), Some("%2 AND %1"));
        assert_eq!(spec.bindings().len(), 2);
    }

    #[test]
    fn binding_errors_are_specific() {
        let err = plan_err("SELECT Count FROM States, WebCount WHERE T2 = 'x'");
        assert!(err.contains("T1"), "{err}");
        let err = plan_err("SELECT Count, T3 FROM States, WebCount WHERE Name = T1 AND T2 = 'x'");
        assert!(err.contains("T3"), "{err}");
        // Ti = Tj is not a binding.
        let err = plan_err("SELECT Count FROM States, WebCount WHERE T1 = T2");
        assert!(err.contains("T1") || err.contains("T2"), "{err}");
    }

    #[test]
    fn gap_in_t_indexes_is_an_error() {
        // Referencing T3 forces T1..T3 to exist; T2 unbound → error.
        let err = plan_err("SELECT Count FROM States, WebCount WHERE Name = T1 AND T3 = 'x'");
        assert!(err.contains("T2"), "{err}");
    }

    #[test]
    fn reversed_equality_binds_too() {
        let p = plan("SELECT Count FROM States, WebCount WHERE T1 = Name AND 'ski' = T2");
        let spec = top_spec(&p);
        assert_eq!(spec.bindings().len(), 2);
        assert!(matches!(spec.bindings()[0], EvBinding::Column(_)));
        assert!(matches!(spec.bindings()[1], EvBinding::Const(_)));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let err = plan_err("SELECT 1 FROM States, States");
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn having_requires_group_context() {
        // HAVING forces aggregation planning; a bare column must then be
        // grouped.
        let err = plan_err("SELECT Name FROM States HAVING COUNT(*) > 1");
        assert!(err.contains("GROUP BY"), "{err}");
    }
}
