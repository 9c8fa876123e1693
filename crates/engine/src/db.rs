//! The database driver: file management, DDL/DML, and query execution.

use crate::builder::{pick_index_access, plan_select};
use crate::catalog::Catalog;
use crate::engines::EngineRegistry;
use crate::exec::{self, ExecContext, TableSource};
use crate::plan::{BufferMode, ExecutionMode, PhysPlan, PlacementStrategy};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wsq_common::{with_ascii_lowercase, Column, Result, Schema, Tuple, Value, WsqError};
use wsq_pump::{Lease, ReqPump};
use wsq_sql::ast::{Literal, SelectStmt, Statement};
use wsq_storage::btree::BTree;
use wsq_storage::buffer::BufferPool;
use wsq_storage::codec;
use wsq_storage::disk::{FileStorage, MemStorage, Storage};
use wsq_storage::heap::{HeapFile, Rid};

/// Options controlling how SELECTs execute.
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Synchronous (each EVScan waits for its call) or asynchronous
    /// iteration.
    pub mode: ExecutionMode,
    /// ReqSync placement strategy (asynchronous mode only).
    pub strategy: PlacementStrategy,
    /// Read by nothing; goes with ROADMAP 1(d).
    pub buffer: BufferMode,
    /// Admission-control cap on incomplete tuples buffered per ReqSync
    /// (`None` = unbounded). When the buffer fills, the operator stops
    /// pulling from its child — stalling the AEVScan side so no new
    /// external calls register — until completions drain it below the
    /// low-water mark (half the cap).
    pub reqsync_cap: Option<usize>,
    /// Read by nothing; goes with ROADMAP 1(d).
    pub prefetch_depth: usize,
    /// Read by nothing; goes with ROADMAP 1(d).
    pub prefetch_window: usize,
    /// Read by nothing; goes with ROADMAP 1(d).
    pub prefetch_adaptive: bool,
    /// Read by nothing; goes with ROADMAP 1(d).
    pub batch_size: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            mode: ExecutionMode::default(),
            strategy: PlacementStrategy::default(),
            buffer: BufferMode,
            reqsync_cap: None,
            prefetch_depth: 0,
            prefetch_window: 1,
            prefetch_adaptive: false,
            batch_size: 1,
        }
    }
}

/// Rows + schema produced by a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema.
    pub schema: Schema,
    /// Result rows.
    pub rows: Vec<Tuple>,
}

impl QueryResult {
    /// Render as an aligned text table (examples / REPL output).
    pub fn to_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.to_string())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A streaming query cursor (see [`Database::open_query`]).
///
/// The cursor owns its query's recorder ([`wsq_obs::QueryRecorder`]): each
/// call runs the executor tree with the recorder lent to the calling
/// thread, and the trace events the call recorded are published before it
/// returns. The query's metrics are published once, when the query ends
/// (its last row, `finish`, or drop).
pub struct Cursor {
    schema: Schema,
    executor: Box<dyn crate::exec::Executor>,
    recorder: wsq_obs::QueryRecorder,
    /// The query's calls, released at its last row or, after the recorder
    /// publishes, when the cursor drops. `None` once the query has ended.
    lease: Option<Lease>,
}

impl Cursor {
    /// The result schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Fetch the next row, or `None` when exhausted.
    pub fn next_row(&mut self) -> Result<Option<Tuple>> {
        if self.lease.is_none() {
            return Ok(None);
        }
        let executor = &mut self.executor;
        let row = self.recorder.run(|| match executor.next()? {
            Some(t) => Ok(Some(t)),
            None => executor.close().map(|()| None),
        });
        if matches!(row, Ok(Some(_))) {
            self.recorder.publish_trace();
        } else {
            self.recorder.publish();
        }
        let row = row?;
        if row.is_none() {
            self.lease = None;
        }
        Ok(row)
    }

    /// End the query early: close the executor tree and drop the cursor,
    /// whose lease releases the query's calls. Unlike a drop, surfaces the
    /// close's error.
    pub fn finish(mut self) -> Result<()> {
        if self.lease.is_some() {
            let executor = &mut self.executor;
            self.recorder.run(|| executor.close())?;
        }
        Ok(())
    }
}

/// The outcome of running one statement.
#[derive(Debug)]
pub enum StatementResult {
    /// SELECT output.
    Rows(QueryResult),
    /// Rows affected by DML/DDL.
    Affected(usize),
}

enum Backing {
    Mem,
    Dir(PathBuf),
}

/// A WSQ database: Redbase-style storage + catalog + indexes + query
/// engine.
pub struct Database {
    pool: Arc<BufferPool>,
    backing: Backing,
    catalog: Catalog,
    /// Table (lowercased) → heap. Looked up with [`with_ascii_lowercase`],
    /// like the catalog, so that finding a table allocates nothing.
    tables: HashMap<String, Arc<HeapFile>>,
    /// Table → column (both lowercased) → B+-tree index.
    indexes: HashMap<String, HashMap<String, Arc<BTree>>>,
}

const POOL_PAGES: usize = 256;

impl Database {
    /// A fresh, fully in-memory database.
    pub fn open_in_memory() -> Result<Database> {
        let pool = Arc::new(BufferPool::new(POOL_PAGES));
        let relcat = pool.register_file(Box::new(MemStorage::new()));
        let attrcat = pool.register_file(Box::new(MemStorage::new()));
        let indexcat = pool.register_file(Box::new(MemStorage::new()));
        let viewcat = pool.register_file(Box::new(MemStorage::new()));
        let catalog = Catalog::create(pool.clone(), relcat, attrcat, indexcat, viewcat)?;
        Ok(Database {
            pool,
            backing: Backing::Mem,
            catalog,
            tables: HashMap::new(),
            indexes: HashMap::new(),
        })
    }

    /// Open (or create) a database directory on disk.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let relcat_path = dir.join("relcat.rdb");
        let existing = relcat_path.exists();
        let pool = Arc::new(BufferPool::new(POOL_PAGES));
        let relcat = pool.register_file(Box::new(FileStorage::open(&relcat_path)?));
        let attrcat = pool.register_file(Box::new(FileStorage::open(dir.join("attrcat.rdb"))?));
        let indexcat = pool.register_file(Box::new(FileStorage::open(dir.join("indexcat.rdb"))?));
        let viewcat = pool.register_file(Box::new(FileStorage::open(dir.join("viewcat.rdb"))?));
        let catalog = if existing {
            Catalog::open(pool.clone(), relcat, attrcat, indexcat, viewcat)?
        } else {
            Catalog::create(pool.clone(), relcat, attrcat, indexcat, viewcat)?
        };
        let mut db = Database {
            pool,
            backing: Backing::Dir(dir),
            catalog,
            tables: HashMap::new(),
            indexes: HashMap::new(),
        };
        // Open every cataloged table's heap, then its indexes.
        for name in db.catalog.table_names() {
            let storage = db.table_storage(&name)?;
            let file = db.pool.register_file(storage);
            let heap = HeapFile::open(db.pool.clone(), file)?;
            db.tables.insert(name.clone(), Arc::new(heap));
            for col in db.catalog.indexes_on(&name).to_vec() {
                let storage = db.index_storage(&name, &col)?;
                let file = db.pool.register_file(storage);
                let tree = BTree::open(db.pool.clone(), file)?;
                db.indexes
                    .entry(name.clone())
                    .or_default()
                    .insert(col, Arc::new(tree));
            }
        }
        Ok(db)
    }

    fn table_storage(&self, name: &str) -> Result<Box<dyn Storage>> {
        match &self.backing {
            Backing::Mem => Ok(Box::new(MemStorage::new())),
            Backing::Dir(dir) => Ok(Box::new(FileStorage::open(
                dir.join(format!("{name}.tbl")),
            )?)),
        }
    }

    fn index_storage(&self, table: &str, column: &str) -> Result<Box<dyn Storage>> {
        match &self.backing {
            Backing::Mem => Ok(Box::new(MemStorage::new())),
            Backing::Dir(dir) => Ok(Box::new(FileStorage::open(
                dir.join(format!("{table}_{column}.idx")),
            )?)),
        }
    }

    /// The catalog (read-only access).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Buffer pool statistics.
    pub fn pool_stats(&self) -> wsq_storage::buffer::PoolStats {
        self.pool.stats()
    }

    /// Create a table.
    pub fn create_table(&mut self, name: &str, schema: &Schema) -> Result<()> {
        if crate::builder::parse_virtual_name(name).is_some() {
            return Err(WsqError::Catalog(format!(
                "'{name}' is a reserved virtual table name"
            )));
        }
        self.catalog.create_table(name, schema)?;
        let key = name.to_ascii_lowercase();
        let storage = self.table_storage(&key)?;
        let file = self.pool.register_file(storage);
        let heap = HeapFile::create(self.pool.clone(), file)?;
        self.tables.insert(key, Arc::new(heap));
        Ok(())
    }

    /// Drop a table, its file, and its indexes.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        let index_cols = self.catalog.indexes_on(&key).to_vec();
        self.catalog.drop_table(name)?;
        for col in index_cols {
            self.remove_index_file(&key, &col)?;
        }
        self.indexes.remove(&key);
        if let Some(heap) = self.tables.remove(&key) {
            let file = heap.file_id();
            drop(heap);
            self.pool.unregister_file(file)?;
        }
        if let Backing::Dir(dir) = &self.backing {
            let path = dir.join(format!("{key}.tbl"));
            if path.exists() {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Create a B+-tree index on `table.column`, backfilling existing rows.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.catalog.create_index(table, column)?;
        let tkey = table.to_ascii_lowercase();
        let ckey = column.to_ascii_lowercase();
        let storage = self.index_storage(&tkey, &ckey)?;
        let file = self.pool.register_file(storage);
        let tree = Arc::new(BTree::create(self.pool.clone(), file)?);

        // Backfill.
        let schema = self.catalog.table_schema(table)?.clone();
        let col_idx = schema.resolve(None, column)?;
        let heap = self.heap(table)?;
        for rec in heap.scan() {
            let (rid, bytes) = rec?;
            let tuple = codec::decode(&schema, &bytes)?;
            tree.insert(&codec::encode_key(tuple.get(col_idx))?, rid)?;
        }
        self.indexes.entry(tkey).or_default().insert(ckey, tree);
        Ok(())
    }

    /// Drop an index.
    pub fn drop_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.catalog.drop_index(table, column)?;
        self.remove_index_file(&table.to_ascii_lowercase(), &column.to_ascii_lowercase())
    }

    fn remove_index_file(&mut self, tkey: &str, ckey: &str) -> Result<()> {
        if let Some(tree) = self
            .indexes
            .get_mut(tkey)
            .and_then(|cols| cols.remove(ckey))
        {
            let file = tree.file_id();
            drop(tree);
            self.pool.unregister_file(file)?;
        }
        if let Backing::Dir(dir) = &self.backing {
            let path = dir.join(format!("{tkey}_{ckey}.idx"));
            if path.exists() {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// The open index on `table.column`, if any.
    pub fn index(&self, table: &str, column: &str) -> Option<Arc<BTree>> {
        let columns = with_ascii_lowercase(table, |key| self.indexes.get(key))?;
        with_ascii_lowercase(column, |key| columns.get(key)).cloned()
    }

    fn heap(&self, table: &str) -> Result<Arc<HeapFile>> {
        with_ascii_lowercase(table, |key| self.tables.get(key))
            .cloned()
            .ok_or_else(|| WsqError::Catalog(format!("no such table '{table}'")))
    }

    /// Indexes on `table` as `(column offset, tree)` pairs.
    fn table_indexes(&self, table: &str, schema: &Schema) -> Result<Vec<(usize, Arc<BTree>)>> {
        let mut out = Vec::new();
        for col in self.catalog.indexes_on(table) {
            let idx = schema.resolve(None, col)?;
            let tree = self.index(table, col).ok_or_else(|| {
                WsqError::Catalog(format!("index file for {table}.{col} missing"))
            })?;
            out.push((idx, tree));
        }
        Ok(out)
    }

    /// Insert tuples (validated against the stored schema), maintaining
    /// all indexes.
    pub fn insert(&mut self, table: &str, tuples: &[Tuple]) -> Result<usize> {
        let schema = self.catalog.table_schema(table)?.clone();
        let heap = self.heap(table)?;
        let indexes = self.table_indexes(table, &schema)?;
        for t in tuples {
            let bytes = codec::encode(&schema, t)?;
            let rid = heap.insert(&bytes)?;
            for (col, tree) in &indexes {
                tree.insert(&codec::encode_key(t.get(*col))?, rid)?;
            }
        }
        Ok(tuples.len())
    }

    /// The rows of `table` that satisfy `predicate` (every row when
    /// `None`), with their rids, in heap order — the victims of an UPDATE
    /// or DELETE.
    ///
    /// Access path: [`pick_index_access`] reads the predicate's top-level
    /// conjuncts exactly as it does for a SELECT; with a usable index the
    /// candidates are the rids of its key range, otherwise the whole heap.
    /// Either way **the whole predicate is evaluated on every candidate**
    /// (the range is only a superset), and the result is collected in full
    /// before the caller's first write: an UPDATE that moves a row, or its
    /// key, forward must not meet that row again.
    fn matching_rows(
        &self,
        table: &str,
        schema: &Schema,
        predicate: Option<&wsq_sql::ast::Expr>,
    ) -> Result<Vec<(Rid, Tuple)>> {
        let heap = self.heap(table)?;
        let pred = predicate
            .map(|p| crate::expr::compile(p, schema))
            .transpose()?;
        let access =
            predicate.and_then(|p| pick_index_access(&self.catalog, table, schema, p.conjuncts()));
        let mut rows = Vec::new();
        let mut consider = |rid: Rid, bytes: &[u8]| -> Result<()> {
            let tuple = codec::decode(schema, bytes)?;
            let hit = match &pred {
                Some(p) => p.eval_bool(&tuple)?,
                None => true,
            };
            if hit {
                rows.push((rid, tuple));
            }
            Ok(())
        };
        match access {
            Some(access) => {
                let tree = self.index(table, &access.column).ok_or_else(|| {
                    WsqError::Catalog(format!("index file for {table}.{} missing", access.column))
                })?;
                let rids = exec::index_range_rids(&tree, access.lo.as_ref(), access.hi.as_ref())?;
                for rid in rids {
                    consider(rid, &heap.get(rid)?)?;
                }
            }
            None => {
                for rec in heap.scan() {
                    let (rid, bytes) = rec?;
                    consider(rid, &bytes)?;
                }
            }
        }
        Ok(rows)
    }

    /// Delete rows matching `predicate` (all rows when `None`), returning
    /// the count. Indexes are maintained.
    pub fn delete_rows(
        &mut self,
        table: &str,
        predicate: Option<&wsq_sql::ast::Expr>,
    ) -> Result<usize> {
        let schema = self.catalog.table_schema(table)?.clone();
        let heap = self.heap(table)?;
        let indexes = self.table_indexes(table, &schema)?;
        let victims = self.matching_rows(table, &schema, predicate)?;
        for (rid, tuple) in &victims {
            heap.delete(*rid)?;
            for (col, tree) in &indexes {
                tree.delete(&codec::encode_key(tuple.get(*col))?, *rid)?;
            }
        }
        Ok(victims.len())
    }

    /// Update rows matching `predicate`: apply `SET col = expr`
    /// assignments (expressions see the old row). Indexes are maintained;
    /// rows may move if they grow. Returns the affected count.
    pub fn update_rows(
        &mut self,
        table: &str,
        sets: &[(String, wsq_sql::ast::Expr)],
        predicate: Option<&wsq_sql::ast::Expr>,
    ) -> Result<usize> {
        let schema = self.catalog.table_schema(table)?.clone();
        let heap = self.heap(table)?;
        let indexes = self.table_indexes(table, &schema)?;
        let assignments = sets
            .iter()
            .map(|(col, e)| {
                Ok((
                    schema.resolve(None, col)?,
                    crate::expr::compile(e, &schema)?,
                ))
            })
            .collect::<Result<Vec<_>>>()?;

        let victims = self.matching_rows(table, &schema, predicate)?;
        let count = victims.len();
        for (rid, old) in victims {
            let mut new = old.clone();
            for (col, expr) in &assignments {
                let v = expr.eval(&old)?;
                // Type-check against the declared column type (NULL is ok).
                let declared = schema.column(*col).dtype;
                let v = match (declared, v) {
                    (wsq_common::DataType::Float, Value::Int(i)) => Value::Float(i as f64),
                    (_, v @ Value::Null) => v,
                    (dt, v) if v.data_type() == Some(dt) => v,
                    (dt, v) => {
                        return Err(WsqError::Type(format!(
                            "UPDATE {table}.{}: {v} is not {dt}",
                            schema.column(*col).name
                        )))
                    }
                };
                new.set(*col, v);
            }
            let bytes = codec::encode(&schema, &new)?;
            let new_rid = heap.update(rid, &bytes)?;
            for (col, tree) in &indexes {
                let old_key = codec::encode_key(old.get(*col))?;
                let new_key = codec::encode_key(new.get(*col))?;
                if old_key != new_key || rid != new_rid {
                    tree.delete(&old_key, rid)?;
                    tree.insert(&new_key, new_rid)?;
                }
            }
        }
        Ok(count)
    }

    /// Number of rows in a stored table.
    pub fn row_count(&self, table: &str) -> Result<u64> {
        self.heap(table)?.len()
    }

    /// Plan a SELECT under `opts` (including the asynchronous-iteration
    /// transformation when requested).
    pub fn plan_query(
        &self,
        stmt: &SelectStmt,
        engines: &EngineRegistry,
        opts: QueryOptions,
    ) -> Result<PhysPlan> {
        let plan = plan_select(stmt, &self.catalog, engines)?;
        Ok(match opts.mode {
            ExecutionMode::Synchronous => plan,
            ExecutionMode::Asynchronous => {
                let plan = crate::asyncify::asyncify_with_opts(
                    plan,
                    opts.strategy,
                    BufferMode,
                    opts.reqsync_cap,
                    crate::plan::PrefetchHint::default(),
                );
                // Debug-assert gate: the placeholder-dataflow verifier
                // (wsq-analyze) rejects any clash-rule violation the
                // transformation might have emitted, and proves the
                // stamped caps honour the session's reqsync_cap.
                if cfg!(debug_assertions) {
                    crate::verify_gate::check(&plan, opts.reqsync_cap)?;
                }
                plan
            }
        })
    }

    /// Execute a SELECT. Uncorrelated subqueries (`(SELECT …)` scalars and
    /// `IN (SELECT …)`) are evaluated first and folded into literals.
    pub fn run_query(
        &self,
        stmt: &SelectStmt,
        engines: &EngineRegistry,
        pump: &Arc<ReqPump>,
        opts: QueryOptions,
    ) -> Result<QueryResult> {
        let stmt = self.resolve_subqueries(stmt, engines, pump, opts)?;
        let plan = self.plan_query(&stmt, engines, opts)?;
        self.run_plan(&plan, engines, pump)
    }

    /// Fold uncorrelated subqueries into literals by evaluating them. A
    /// statement without one — nearly every statement — is borrowed, not
    /// copied.
    fn resolve_subqueries<'s>(
        &self,
        stmt: &'s SelectStmt,
        engines: &EngineRegistry,
        pump: &Arc<ReqPump>,
        opts: QueryOptions,
    ) -> Result<Cow<'s, SelectStmt>> {
        if !stmt.contains_subquery() {
            return Ok(Cow::Borrowed(stmt));
        }
        let mut out = stmt.clone();
        let resolve = |e: &mut wsq_sql::ast::Expr| -> Result<()> {
            *e = self.fold_subqueries(
                std::mem::replace(e, wsq_sql::ast::Expr::Literal(Literal::Null)),
                engines,
                pump,
                opts,
            )?;
            Ok(())
        };
        if let Some(w) = &mut out.where_clause {
            resolve(w)?;
        }
        if let Some(h) = &mut out.having {
            resolve(h)?;
        }
        for item in &mut out.items {
            if let wsq_sql::ast::SelectItem::Expr { expr, .. } = item {
                resolve(expr)?;
            }
        }
        for o in &mut out.order_by {
            resolve(&mut o.expr)?;
        }
        Ok(Cow::Owned(out))
    }

    /// `e` with its subqueries folded into literals: borrowed when it has
    /// none.
    fn fold_expr<'e>(
        &self,
        e: &'e wsq_sql::ast::Expr,
        engines: &EngineRegistry,
        pump: &Arc<ReqPump>,
        opts: QueryOptions,
    ) -> Result<Cow<'e, wsq_sql::ast::Expr>> {
        if !e.contains_subquery() {
            return Ok(Cow::Borrowed(e));
        }
        self.fold_subqueries(e.clone(), engines, pump, opts)
            .map(Cow::Owned)
    }

    fn fold_subqueries(
        &self,
        e: wsq_sql::ast::Expr,
        engines: &EngineRegistry,
        pump: &Arc<ReqPump>,
        opts: QueryOptions,
    ) -> Result<wsq_sql::ast::Expr> {
        use wsq_sql::ast::Expr as E;
        let fold = |e: Box<E>| -> Result<Box<E>> {
            Ok(Box::new(self.fold_subqueries(*e, engines, pump, opts)?))
        };
        Ok(match e {
            E::Subquery(q) => {
                let result = self.run_query(&q, engines, pump, opts)?;
                if result.schema.len() != 1 {
                    return Err(WsqError::Plan(format!(
                        "scalar subquery must produce one column, got {}",
                        result.schema.len()
                    )));
                }
                if result.rows.len() > 1 {
                    return Err(WsqError::Exec(format!(
                        "scalar subquery produced {} rows",
                        result.rows.len()
                    )));
                }
                let v = result
                    .rows
                    .first()
                    .map(|t| t.get(0).clone())
                    .unwrap_or(Value::Null);
                E::Literal(value_to_literal(v)?)
            }
            E::InSubquery {
                expr,
                query,
                negated,
            } => {
                let result = self.run_query(&query, engines, pump, opts)?;
                if result.schema.len() != 1 {
                    return Err(WsqError::Plan(format!(
                        "IN subquery must produce one column, got {}",
                        result.schema.len()
                    )));
                }
                let list = result
                    .rows
                    .into_iter()
                    .map(|t| Ok(E::Literal(value_to_literal(t.get(0).clone())?)))
                    .collect::<Result<Vec<_>>>()?;
                E::InList {
                    expr: fold(expr)?,
                    list,
                    negated,
                }
            }
            E::Binary { op, lhs, rhs } => E::Binary {
                op,
                lhs: fold(lhs)?,
                rhs: fold(rhs)?,
            },
            E::Unary { op, expr } => E::Unary {
                op,
                expr: fold(expr)?,
            },
            E::Like {
                expr,
                pattern,
                negated,
            } => E::Like {
                expr: fold(expr)?,
                pattern: fold(pattern)?,
                negated,
            },
            E::InList {
                expr,
                list,
                negated,
            } => E::InList {
                expr: fold(expr)?,
                list: list
                    .into_iter()
                    .map(|e| self.fold_subqueries(e, engines, pump, opts))
                    .collect::<Result<Vec<_>>>()?,
                negated,
            },
            E::Between {
                expr,
                low,
                high,
                negated,
            } => E::Between {
                expr: fold(expr)?,
                low: fold(low)?,
                high: fold(high)?,
                negated,
            },
            E::Agg { func, arg } => E::Agg {
                func,
                arg: arg.map(fold).transpose()?,
            },
            leaf @ (E::Column(_) | E::Literal(_)) => leaf,
        })
    }

    /// Open a streaming cursor over a SELECT: rows are produced on demand,
    /// so the first row can arrive long before the last external call
    /// completes (§4.1's non-materializing ReqSync), and opening it makes
    /// no external call. The cursor owns its executor tree and is
    /// independent of `self` afterwards.
    pub fn open_query(
        &self,
        stmt: &SelectStmt,
        engines: &EngineRegistry,
        pump: &Arc<ReqPump>,
        opts: QueryOptions,
    ) -> Result<Cursor> {
        let stmt = self.resolve_subqueries(stmt, engines, pump, opts)?;
        let plan = self.plan_query(&stmt, engines, opts)?;
        let lease = pump.lease();
        let ctx = ExecContext {
            tables: self,
            pump: pump.clone(),
            lease: &lease,
        };
        let mut recorder = pump.obs().recorder();
        let executor = recorder.run(|| {
            let mut executor = exec::build(&plan, &ctx)?;
            executor.open()?;
            Ok::<_, WsqError>(executor)
        })?;
        recorder.publish();
        Ok(Cursor {
            schema: plan.schema(),
            executor,
            recorder,
            lease: Some(lease),
        })
    }

    /// Execute a SELECT with EXPLAIN-ANALYZE instrumentation: returns the
    /// rows plus a per-operator report (rows produced, `next` calls,
    /// re-opens, inclusive wall time).
    pub fn analyze_query(
        &self,
        stmt: &SelectStmt,
        engines: &EngineRegistry,
        pump: &Arc<ReqPump>,
        opts: QueryOptions,
    ) -> Result<(QueryResult, String)> {
        let stmt = self.resolve_subqueries(stmt, engines, pump, opts)?;
        let plan = self.plan_query(&stmt, engines, opts)?;
        let instr = exec::Instrumentation::new();
        let before = pump.stats();
        let rows = self.collect_rows(pump, |ctx| exec::build_instrumented(&plan, ctx, &instr))?;
        let after = pump.stats();
        instr.note_counters(
            "pump",
            &[
                ("registered", after.registered - before.registered),
                ("launched", after.launched - before.launched),
                ("completed", after.completed - before.completed),
                ("coalesced", after.coalesced - before.coalesced),
                ("peak_in_flight", after.peak_in_flight),
                ("peak_queued", after.peak_queued),
            ],
        );
        Ok((
            QueryResult {
                schema: plan.schema(),
                rows,
            },
            instr.report(),
        ))
    }

    /// Collect the rows of the executor tree `build` makes, under a
    /// recorder of its own ([`wsq_obs::QueryRecorder`]) that publishes once
    /// the tree is done, and a [`Lease`] that then releases its calls.
    fn collect_rows(
        &self,
        pump: &Arc<ReqPump>,
        build: impl FnOnce(&ExecContext<'_>) -> Result<Box<dyn exec::Executor>>,
    ) -> Result<Vec<Tuple>> {
        pump.obs().record(|| {
            let lease = pump.lease();
            let ctx = ExecContext {
                tables: self,
                pump: pump.clone(),
                lease: &lease,
            };
            exec::collect(build(&ctx)?.as_mut())
        })
    }

    /// Execute an already-built plan (see `collect_rows`). Every external
    /// call goes through `pump`; `_engines` is read by nothing (`wsqbench`
    /// names this signature; goes with ROADMAP 1(d)).
    pub fn run_plan(
        &self,
        plan: &PhysPlan,
        _engines: &EngineRegistry,
        pump: &Arc<ReqPump>,
    ) -> Result<QueryResult> {
        let rows = self.collect_rows(pump, |ctx| exec::build(plan, ctx))?;
        Ok(QueryResult {
            schema: plan.schema(),
            rows,
        })
    }

    /// Execute one parsed statement.
    pub fn run_statement(
        &mut self,
        stmt: &Statement,
        engines: &EngineRegistry,
        pump: &Arc<ReqPump>,
        opts: QueryOptions,
    ) -> Result<StatementResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|c| Column::new(c.name.clone(), c.dtype))
                        .collect(),
                );
                self.create_table(name, &schema)?;
                Ok(StatementResult::Affected(0))
            }
            Statement::DropTable { name } => {
                self.drop_table(name)?;
                Ok(StatementResult::Affected(0))
            }
            Statement::Insert { table, rows } => {
                let schema = self.catalog.table_schema(table)?.clone();
                let tuples = rows
                    .iter()
                    .map(|r| literal_row(r, &schema, table))
                    .collect::<Result<Vec<_>>>()?;
                let n = self.insert(table, &tuples)?;
                Ok(StatementResult::Affected(n))
            }
            Statement::CreateIndex { table, column } => {
                self.create_index(table, column)?;
                Ok(StatementResult::Affected(0))
            }
            Statement::DropIndex { table, column } => {
                self.drop_index(table, column)?;
                Ok(StatementResult::Affected(0))
            }
            Statement::Delete { table, predicate } => {
                let predicate = predicate
                    .as_ref()
                    .map(|p| self.fold_expr(p, engines, pump, opts))
                    .transpose()?;
                Ok(StatementResult::Affected(
                    self.delete_rows(table, predicate.as_deref())?,
                ))
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let predicate = predicate
                    .as_ref()
                    .map(|p| self.fold_expr(p, engines, pump, opts))
                    .transpose()?;
                let sets: Cow<'_, [(String, wsq_sql::ast::Expr)]> =
                    if sets.iter().any(|(_, e)| e.contains_subquery()) {
                        let folded = sets.iter().map(|(c, e)| {
                            Ok((
                                c.clone(),
                                self.fold_expr(e, engines, pump, opts)?.into_owned(),
                            ))
                        });
                        Cow::Owned(folded.collect::<Result<_>>()?)
                    } else {
                        Cow::Borrowed(sets)
                    };
                Ok(StatementResult::Affected(self.update_rows(
                    table,
                    &sets,
                    predicate.as_deref(),
                )?))
            }
            Statement::InsertSelect { table, query } => {
                let schema = self.catalog.table_schema(table)?.clone();
                let result = self.run_query(query, engines, pump, opts)?;
                if result.schema.len() != schema.len() {
                    return Err(WsqError::Plan(format!(
                        "INSERT INTO '{table}' SELECT: query produces {} columns, \
                         table has {}",
                        result.schema.len(),
                        schema.len()
                    )));
                }
                // Coerce per the declared column types (Int → Float only).
                let tuples = result
                    .rows
                    .into_iter()
                    .map(|t| {
                        let vals = t
                            .into_values()
                            .into_iter()
                            .zip(schema.columns())
                            .map(|(v, col)| match (col.dtype, v) {
                                (wsq_common::DataType::Float, Value::Int(i)) => {
                                    Ok(Value::Float(i as f64))
                                }
                                (_, v @ Value::Null) => Ok(v),
                                (dt, v) if v.data_type() == Some(dt) => Ok(v),
                                (dt, v) => Err(WsqError::Type(format!(
                                    "INSERT INTO '{table}.{}': {v} is not {dt}",
                                    col.name
                                ))),
                            })
                            .collect::<Result<Vec<_>>>()?;
                        Ok(Tuple::new(vals))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let n = self.insert(table, &tuples)?;
                Ok(StatementResult::Affected(n))
            }
            Statement::CreateView { name, query } => {
                if crate::builder::parse_virtual_name(name).is_some() {
                    return Err(WsqError::Catalog(format!(
                        "'{name}' is a reserved virtual table name"
                    )));
                }
                // Validate the definition by planning it now, and require
                // unique output names so view columns are addressable.
                let plan = self.plan_query(query, engines, opts)?;
                let schema = plan.schema();
                let mut seen = std::collections::HashSet::new();
                for (_, c) in schema.iter() {
                    if !seen.insert(c.name.to_ascii_lowercase()) {
                        return Err(WsqError::Plan(format!(
                            "view '{name}': duplicate output column '{}'                              (add AS aliases)",
                            c.name
                        )));
                    }
                }
                // Store the definition as SQL text (reparsed on use).
                let definition = stmt_to_sql(query);
                self.catalog.create_view(name, &definition)?;
                Ok(StatementResult::Affected(0))
            }
            Statement::DropView { name } => {
                self.catalog.drop_view(name)?;
                Ok(StatementResult::Affected(0))
            }
            Statement::ShowTables => {
                let schema = Schema::new(vec![Column::new("Table", wsq_common::DataType::Varchar)]);
                let rows = self
                    .catalog
                    .table_names()
                    .into_iter()
                    .map(|n| Tuple::new(vec![Value::from(n)]))
                    .collect();
                Ok(StatementResult::Rows(QueryResult { schema, rows }))
            }
            Statement::Describe { table } => {
                let t_schema = self.catalog.table_schema(table)?.clone();
                let schema = Schema::new(vec![
                    Column::new("Column", wsq_common::DataType::Varchar),
                    Column::new("Type", wsq_common::DataType::Varchar),
                    Column::new("Indexed", wsq_common::DataType::Int),
                ]);
                let rows = t_schema
                    .columns()
                    .iter()
                    .map(|c| {
                        Tuple::new(vec![
                            Value::Str(c.name.clone()),
                            Value::from(c.dtype.to_string()),
                            Value::Int(i64::from(self.catalog.has_index(table, &c.name))),
                        ])
                    })
                    .collect();
                Ok(StatementResult::Rows(QueryResult { schema, rows }))
            }
            Statement::Select(sel) => Ok(StatementResult::Rows(
                self.run_query(sel, engines, pump, opts)?,
            )),
        }
    }

    /// Parse and execute a `;`-separated SQL script, returning the result
    /// of each statement.
    pub fn run_sql(
        &mut self,
        sql: &str,
        engines: &EngineRegistry,
        pump: &Arc<ReqPump>,
        opts: QueryOptions,
    ) -> Result<Vec<StatementResult>> {
        let stmts = wsq_sql::parse(sql)?;
        stmts
            .iter()
            .map(|s| self.run_statement(s, engines, pump, opts))
            .collect()
    }

    /// Estimate a SELECT's cost under `opts` (see [`crate::cost`]).
    pub fn estimate_query(
        &self,
        sql: &str,
        engines: &EngineRegistry,
        opts: QueryOptions,
        params: &crate::cost::CostParams,
    ) -> Result<crate::cost::CostEstimate> {
        match wsq_sql::parse_one(sql)? {
            Statement::Select(sel) => {
                let plan = self.plan_query(&sel, engines, opts)?;
                Ok(crate::cost::estimate(&plan, self, params))
            }
            _ => Err(WsqError::Plan(
                "cost estimation requires a SELECT".to_string(),
            )),
        }
    }

    /// EXPLAIN: the plan text for a SELECT under `opts`.
    pub fn explain(
        &self,
        sql: &str,
        engines: &EngineRegistry,
        opts: QueryOptions,
    ) -> Result<String> {
        match wsq_sql::parse_one(sql)? {
            Statement::Select(sel) => Ok(self.plan_query(&sel, engines, opts)?.display()),
            _ => Err(WsqError::Plan("EXPLAIN requires a SELECT".to_string())),
        }
    }

    /// Flush all dirty pages to stable storage.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush_all()
    }
}

/// Render a SELECT back to SQL text (view definitions are persisted as
/// SQL and reparsed on use; `SelectStmt::Display` round-trips).
fn stmt_to_sql(stmt: &SelectStmt) -> String {
    stmt.to_string()
}

/// Convert a runtime value back to a literal (for subquery folding).
fn value_to_literal(v: Value) -> Result<Literal> {
    Ok(match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Int(i),
        Value::Float(f) => Literal::Float(f),
        Value::Str(s) => Literal::Str(s),
        Value::Pending(p) => {
            return Err(WsqError::Exec(format!(
                "subquery produced unresolved placeholder {p}"
            )))
        }
    })
}

/// Convert a literal row to a typed tuple, coercing ints to declared
/// float columns.
fn literal_row(row: &[Literal], schema: &Schema, table: &str) -> Result<Tuple> {
    if row.len() != schema.len() {
        return Err(WsqError::Plan(format!(
            "INSERT into '{table}': expected {} values, got {}",
            schema.len(),
            row.len()
        )));
    }
    let vals = row
        .iter()
        .zip(schema.columns())
        .map(|(lit, col)| {
            let v = crate::expr::literal_value(lit);
            match (col.dtype, v) {
                (wsq_common::DataType::Float, wsq_common::Value::Int(i)) => {
                    Ok(wsq_common::Value::Float(i as f64))
                }
                (_, v @ wsq_common::Value::Null) => Ok(v),
                (dt, v) => {
                    if v.data_type() == Some(dt) {
                        Ok(v)
                    } else {
                        Err(WsqError::Type(format!(
                            "INSERT into '{table}.{}': {v} is not {dt}",
                            col.name
                        )))
                    }
                }
            }
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(Tuple::new(vals))
}

impl TableSource for Database {
    fn table(&self, name: &str) -> Result<(Arc<HeapFile>, Schema)> {
        let heap = self.heap(name)?;
        let schema = self.catalog.table_schema(name)?.clone();
        Ok((heap, schema))
    }

    fn table_index(&self, table: &str, column: &str) -> Option<Arc<BTree>> {
        self.index(table, column)
    }
}
