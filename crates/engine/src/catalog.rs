//! System catalog, bootstrapped Redbase-style from system heap files:
//! `relcat` (one record per relation), `attrcat` (one per attribute),
//! `indexcat` (one per index), and `viewcat` (one per view).

use std::collections::HashMap;
use std::sync::Arc;
use wsq_common::{with_ascii_lowercase, Column, DataType, Result, Schema, Tuple, Value, WsqError};
use wsq_storage::buffer::BufferPool;
use wsq_storage::codec;
use wsq_storage::heap::HeapFile;
use wsq_storage::page::FileId;

/// Schema of the `relcat` system table.
fn relcat_schema() -> Schema {
    Schema::new(vec![Column::new("relname", DataType::Varchar)])
}

/// Schema of the `attrcat` system table.
fn attrcat_schema() -> Schema {
    Schema::new(vec![
        Column::new("relname", DataType::Varchar),
        Column::new("attrname", DataType::Varchar),
        Column::new("position", DataType::Int),
        Column::new("attrtype", DataType::Varchar),
    ])
}

fn type_name(dt: DataType) -> &'static str {
    match dt {
        DataType::Int => "INT",
        DataType::Float => "FLOAT",
        DataType::Varchar => "VARCHAR",
    }
}

fn parse_type(s: &str) -> Result<DataType> {
    match s {
        "INT" => Ok(DataType::Int),
        "FLOAT" => Ok(DataType::Float),
        "VARCHAR" => Ok(DataType::Varchar),
        other => Err(WsqError::Catalog(format!("corrupt attrcat type '{other}'"))),
    }
}

/// Schema of the `indexcat` system table.
fn indexcat_schema() -> Schema {
    Schema::new(vec![
        Column::new("relname", DataType::Varchar),
        Column::new("attrname", DataType::Varchar),
    ])
}

/// Schema of the `viewcat` system table.
fn viewcat_schema() -> Schema {
    Schema::new(vec![
        Column::new("viewname", DataType::Varchar),
        Column::new("definition", DataType::Varchar),
    ])
}

/// The system catalog: stored tables, their indexes, and views.
///
/// Four system heaps, each in its own buffer-pool file: `relcat` (one
/// record per relation), `attrcat` (one per attribute), `indexcat` (one
/// per index, Redbase's IX bookkeeping), and `viewcat` (one per view,
/// holding its defining SQL). In-memory caches mirror the heap contents
/// for fast lookup; they are keyed by lower-cased name, and a lookup
/// lower-cases the name it is given on the stack
/// ([`with_ascii_lowercase`]), so that finding a table allocates nothing.
pub struct Catalog {
    relcat: HeapFile,
    attrcat: HeapFile,
    indexcat: HeapFile,
    viewcat: HeapFile,
    cache: HashMap<String, Schema>,
    /// table (lowercased) → indexed columns (lowercased).
    index_cache: HashMap<String, Vec<String>>,
    /// view (lowercased) → defining SQL text.
    view_cache: HashMap<String, String>,
}

impl Catalog {
    /// Bootstrap a brand-new catalog in the four (empty) files.
    pub fn create(
        pool: Arc<BufferPool>,
        relcat_file: FileId,
        attrcat_file: FileId,
        indexcat_file: FileId,
        viewcat_file: FileId,
    ) -> Result<Self> {
        let relcat = HeapFile::create(pool.clone(), relcat_file)?;
        let attrcat = HeapFile::create(pool.clone(), attrcat_file)?;
        let indexcat = HeapFile::create(pool.clone(), indexcat_file)?;
        let viewcat = HeapFile::create(pool, viewcat_file)?;
        Ok(Catalog {
            relcat,
            attrcat,
            indexcat,
            viewcat,
            cache: HashMap::new(),
            index_cache: HashMap::new(),
            view_cache: HashMap::new(),
        })
    }

    /// Open an existing catalog, loading the caches from the heaps.
    pub fn open(
        pool: Arc<BufferPool>,
        relcat_file: FileId,
        attrcat_file: FileId,
        indexcat_file: FileId,
        viewcat_file: FileId,
    ) -> Result<Self> {
        let relcat = HeapFile::open(pool.clone(), relcat_file)?;
        let attrcat = HeapFile::open(pool.clone(), attrcat_file)?;
        let indexcat = HeapFile::open(pool.clone(), indexcat_file)?;
        let viewcat = HeapFile::open(pool, viewcat_file)?;
        let mut cache = HashMap::new();

        // Gather attributes per relation first.
        let aschema = attrcat_schema();
        let mut attrs: HashMap<String, Vec<(i64, String, DataType)>> = HashMap::new();
        for rec in attrcat.scan() {
            let (_, bytes) = rec?;
            let t = codec::decode(&aschema, &bytes)?;
            let rel = t.get(0).as_str()?.to_string();
            let name = t.get(1).as_str()?.to_string();
            let pos = t.get(2).as_int()?;
            let dt = parse_type(t.get(3).as_str()?)?;
            attrs.entry(rel).or_default().push((pos, name, dt));
        }

        let rschema = relcat_schema();
        for rec in relcat.scan() {
            let (_, bytes) = rec?;
            let t = codec::decode(&rschema, &bytes)?;
            let rel = t.get(0).as_str()?.to_string();
            let mut cols = attrs.remove(&rel).unwrap_or_default();
            cols.sort_by_key(|(p, _, _)| *p);
            let schema = Schema::new(
                cols.into_iter()
                    .map(|(_, name, dt)| Column::new(name, dt))
                    .collect(),
            );
            cache.insert(rel.to_ascii_lowercase(), schema);
        }
        let ischema = indexcat_schema();
        let mut index_cache: HashMap<String, Vec<String>> = HashMap::new();
        for rec in indexcat.scan() {
            let (_, bytes) = rec?;
            let t = codec::decode(&ischema, &bytes)?;
            index_cache
                .entry(t.get(0).as_str()?.to_ascii_lowercase())
                .or_default()
                .push(t.get(1).as_str()?.to_ascii_lowercase());
        }
        let vschema = viewcat_schema();
        let mut view_cache: HashMap<String, String> = HashMap::new();
        for rec in viewcat.scan() {
            let (_, bytes) = rec?;
            let t = codec::decode(&vschema, &bytes)?;
            view_cache.insert(
                t.get(0).as_str()?.to_ascii_lowercase(),
                t.get(1).as_str()?.to_string(),
            );
        }
        Ok(Catalog {
            relcat,
            attrcat,
            indexcat,
            viewcat,
            cache,
            index_cache,
            view_cache,
        })
    }

    /// Register a view with its defining SQL text.
    pub fn create_view(&mut self, name: &str, definition: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.cache.contains_key(&key) {
            return Err(WsqError::Catalog(format!(
                "a table named '{name}' already exists"
            )));
        }
        if self.view_cache.contains_key(&key) {
            return Err(WsqError::Catalog(format!("view '{name}' already exists")));
        }
        let vschema = viewcat_schema();
        self.viewcat.insert(&codec::encode(
            &vschema,
            &Tuple::new(vec![Value::from(key.as_str()), Value::from(definition)]),
        )?)?;
        self.view_cache.insert(key, definition.to_string());
        Ok(())
    }

    /// Remove a view.
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.view_cache.remove(&key).is_none() {
            return Err(WsqError::Catalog(format!("no such view '{name}'")));
        }
        let vschema = viewcat_schema();
        let mut rids = Vec::new();
        for rec in self.viewcat.scan() {
            let (rid, bytes) = rec?;
            let t = codec::decode(&vschema, &bytes)?;
            if t.get(0).as_str()?.eq_ignore_ascii_case(&key) {
                rids.push(rid);
            }
        }
        for rid in rids {
            self.viewcat.delete(rid)?;
        }
        Ok(())
    }

    /// The defining SQL of a view, if `name` is one.
    pub fn view_definition(&self, name: &str) -> Option<&str> {
        with_ascii_lowercase(name, |key| self.view_cache.get(key)).map(String::as_str)
    }

    /// Names of all views (lowercased), sorted.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.view_cache.keys().cloned().collect();
        names.sort();
        names
    }

    /// Register an index on `table.column`.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let tkey = table.to_ascii_lowercase();
        let ckey = column.to_ascii_lowercase();
        let schema = self
            .cache
            .get(&tkey)
            .ok_or_else(|| WsqError::Catalog(format!("no such table '{table}'")))?;
        schema.resolve(None, column)?;
        if self.has_index(table, column) {
            return Err(WsqError::Catalog(format!(
                "index on {table}({column}) already exists"
            )));
        }
        let ischema = indexcat_schema();
        self.indexcat.insert(&codec::encode(
            &ischema,
            &Tuple::new(vec![Value::from(tkey.as_str()), Value::from(ckey.as_str())]),
        )?)?;
        self.index_cache.entry(tkey).or_default().push(ckey);
        Ok(())
    }

    /// Unregister an index.
    pub fn drop_index(&mut self, table: &str, column: &str) -> Result<()> {
        let tkey = table.to_ascii_lowercase();
        let ckey = column.to_ascii_lowercase();
        let cols = self.index_cache.get_mut(&tkey);
        let existed = cols
            .map(|cols| {
                let n = cols.len();
                cols.retain(|c| c != &ckey);
                cols.len() < n
            })
            .unwrap_or(false);
        if !existed {
            return Err(WsqError::Catalog(format!("no index on {table}({column})")));
        }
        self.delete_indexcat_records(&tkey, Some(&ckey))
    }

    fn delete_indexcat_records(&mut self, table: &str, column: Option<&str>) -> Result<()> {
        let ischema = indexcat_schema();
        let mut rids = Vec::new();
        for rec in self.indexcat.scan() {
            let (rid, bytes) = rec?;
            let t = codec::decode(&ischema, &bytes)?;
            let rel = t.get(0).as_str()?;
            let attr = t.get(1).as_str()?;
            if rel.eq_ignore_ascii_case(table)
                && column.is_none_or(|c| attr.eq_ignore_ascii_case(c))
            {
                rids.push(rid);
            }
        }
        for rid in rids {
            self.indexcat.delete(rid)?;
        }
        Ok(())
    }

    /// Does `table.column` have an index?
    pub fn has_index(&self, table: &str, column: &str) -> bool {
        self.indexes_on(table)
            .iter()
            .any(|c| c.eq_ignore_ascii_case(column))
    }

    /// Indexed columns of `table` (lowercased).
    pub fn indexes_on(&self, table: &str) -> &[String] {
        with_ascii_lowercase(table, |key| self.index_cache.get(key)).map_or(&[], Vec::as_slice)
    }

    /// Register a new table.
    pub fn create_table(&mut self, name: &str, schema: &Schema) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.cache.contains_key(&key) {
            return Err(WsqError::Catalog(format!("table '{name}' already exists")));
        }
        if self.view_cache.contains_key(&key) {
            return Err(WsqError::Catalog(format!(
                "a view named '{name}' already exists"
            )));
        }
        if schema.is_empty() {
            return Err(WsqError::Catalog(format!(
                "table '{name}' must have at least one column"
            )));
        }
        // Reject duplicate column names.
        let mut seen = std::collections::HashSet::new();
        for c in schema.columns() {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(WsqError::Catalog(format!(
                    "duplicate column '{}' in table '{name}'",
                    c.name
                )));
            }
        }

        let rschema = relcat_schema();
        self.relcat.insert(&codec::encode(
            &rschema,
            &Tuple::new(vec![Value::from(name)]),
        )?)?;
        let aschema = attrcat_schema();
        for (i, c) in schema.iter() {
            let t = Tuple::new(vec![
                Value::from(name),
                Value::Str(c.name.clone()),
                Value::Int(i as i64),
                Value::from(type_name(c.dtype)),
            ]);
            self.attrcat.insert(&codec::encode(&aschema, &t)?)?;
        }
        self.cache.insert(key, schema.clone());
        Ok(())
    }

    /// Remove a table (and its index registrations) from the catalog.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.cache.remove(&key).is_none() {
            return Err(WsqError::Catalog(format!("no such table '{name}'")));
        }
        self.index_cache.remove(&key);
        self.delete_indexcat_records(&key, None)?;
        // Delete relcat + attrcat records.
        let rschema = relcat_schema();
        let mut rids = Vec::new();
        for rec in self.relcat.scan() {
            let (rid, bytes) = rec?;
            let t = codec::decode(&rschema, &bytes)?;
            if t.get(0).as_str()?.eq_ignore_ascii_case(name) {
                rids.push(rid);
            }
        }
        for rid in rids {
            self.relcat.delete(rid)?;
        }
        let aschema = attrcat_schema();
        let mut rids = Vec::new();
        for rec in self.attrcat.scan() {
            let (rid, bytes) = rec?;
            let t = codec::decode(&aschema, &bytes)?;
            if t.get(0).as_str()?.eq_ignore_ascii_case(name) {
                rids.push(rid);
            }
        }
        for rid in rids {
            self.attrcat.delete(rid)?;
        }
        Ok(())
    }

    /// A table's stored schema (unqualified columns).
    pub fn table_schema(&self, name: &str) -> Result<&Schema> {
        with_ascii_lowercase(name, |key| self.cache.get(key))
            .ok_or_else(|| WsqError::Catalog(format!("no such table '{name}'")))
    }

    /// Does a table exist?
    pub fn has_table(&self, name: &str) -> bool {
        with_ascii_lowercase(name, |key| self.cache.contains_key(key))
    }

    /// Names of all user tables (lowercased), sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.cache.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsq_storage::disk::MemStorage;

    fn fresh() -> (Arc<BufferPool>, Catalog) {
        let pool = Arc::new(BufferPool::new(16));
        let f1 = pool.register_file(Box::new(MemStorage::new()));
        let f2 = pool.register_file(Box::new(MemStorage::new()));
        let f3 = pool.register_file(Box::new(MemStorage::new()));
        let f4 = pool.register_file(Box::new(MemStorage::new()));
        let cat = Catalog::create(pool.clone(), f1, f2, f3, f4).unwrap();
        (pool, cat)
    }

    fn states_schema() -> Schema {
        Schema::new(vec![
            Column::new("Name", DataType::Varchar),
            Column::new("Population", DataType::Int),
            Column::new("Capital", DataType::Varchar),
        ])
    }

    #[test]
    fn create_lookup_drop() {
        let (_pool, mut cat) = fresh();
        cat.create_table("States", &states_schema()).unwrap();
        assert!(cat.has_table("states"));
        assert!(cat.has_table("STATES"));
        let s = cat.table_schema("States").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.column(1).dtype, DataType::Int);
        cat.drop_table("states").unwrap();
        assert!(!cat.has_table("States"));
        assert!(cat.drop_table("States").is_err());
        assert!(cat.table_schema("States").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let (_pool, mut cat) = fresh();
        cat.create_table("T", &states_schema()).unwrap();
        assert!(cat.create_table("t", &states_schema()).is_err());
    }

    #[test]
    fn duplicate_column_rejected() {
        let (_pool, mut cat) = fresh();
        let bad = Schema::new(vec![
            Column::new("x", DataType::Int),
            Column::new("X", DataType::Float),
        ]);
        assert!(cat.create_table("T", &bad).is_err());
    }

    #[test]
    fn empty_schema_rejected() {
        let (_pool, mut cat) = fresh();
        assert!(cat.create_table("T", &Schema::empty()).is_err());
    }

    #[test]
    fn persists_across_reopen() {
        let pool = Arc::new(BufferPool::new(16));
        let f1 = pool.register_file(Box::new(MemStorage::new()));
        let f2 = pool.register_file(Box::new(MemStorage::new()));
        let f3 = pool.register_file(Box::new(MemStorage::new()));
        let f4 = pool.register_file(Box::new(MemStorage::new()));
        {
            let mut cat = Catalog::create(pool.clone(), f1, f2, f3, f4).unwrap();
            cat.create_table("States", &states_schema()).unwrap();
            cat.create_table(
                "Sigs",
                &Schema::new(vec![Column::new("Name", DataType::Varchar)]),
            )
            .unwrap();
            cat.create_index("States", "Name").unwrap();
            cat.create_index("States", "Capital").unwrap();
            cat.drop_index("States", "Capital").unwrap();
            cat.drop_table("Sigs").unwrap();
        }
        let cat = Catalog::open(pool, f1, f2, f3, f4).unwrap();
        assert!(cat.has_table("States"));
        assert!(!cat.has_table("Sigs"));
        let s = cat.table_schema("States").unwrap();
        assert_eq!(&*s.column(0).name, "Name");
        assert_eq!(&*s.column(2).name, "Capital");
        assert_eq!(cat.table_names(), vec!["states".to_string()]);
        assert!(cat.has_index("states", "NAME"));
        assert!(!cat.has_index("States", "Capital"));
        assert_eq!(cat.indexes_on("States"), vec!["name".to_string()]);
    }

    #[test]
    fn index_registration_rules() {
        let (_pool, mut cat) = fresh();
        cat.create_table("T", &states_schema()).unwrap();
        assert!(cat.create_index("Nope", "Name").is_err());
        assert!(cat.create_index("T", "Nope").is_err());
        cat.create_index("T", "Name").unwrap();
        assert!(cat.create_index("T", "name").is_err(), "duplicate");
        assert!(cat.drop_index("T", "Population").is_err());
        cat.drop_index("T", "NAME").unwrap();
        assert!(!cat.has_index("T", "Name"));
        // Dropping the table clears index registrations.
        cat.create_index("T", "Name").unwrap();
        cat.drop_table("T").unwrap();
        assert!(cat.indexes_on("T").is_empty());
    }
}
