//! Schemas: ordered lists of (possibly qualified) typed columns.
//!
//! Names are reference-counted (`Arc<str>`) and a schema is a shared slice
//! of columns, so cloning either is a reference-count increment: a name is
//! allocated once, where the query text or the catalog first spells it, and
//! every plan node and operator that carries it afterwards shares it.

use crate::error::{Result, WsqError};
use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// A single column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Table alias / relation name qualifying the column, if any.
    /// Scans produce qualified columns; projections may drop the qualifier.
    pub qualifier: Option<Arc<str>>,
    /// Column name. Matching is case-insensitive.
    pub name: Arc<str>,
    /// Declared data type.
    pub dtype: DataType,
}

impl Column {
    /// An unqualified column.
    pub fn new(name: impl Into<Arc<str>>, dtype: DataType) -> Self {
        Column {
            qualifier: None,
            name: name.into(),
            dtype,
        }
    }

    /// A qualified column (`qualifier.name`).
    pub fn qualified(
        qualifier: impl Into<Arc<str>>,
        name: impl Into<Arc<str>>,
        dtype: DataType,
    ) -> Self {
        Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            dtype,
        }
    }

    /// Does this column match a reference `[qualifier.]name`?
    ///
    /// A reference without qualifier matches any column with that name; a
    /// qualified reference also requires the qualifier to match. All
    /// matching is ASCII-case-insensitive (SQL identifier semantics).
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .is_some_and(|mine| mine.eq_ignore_ascii_case(q)),
        }
    }

    /// Render as `qualifier.name` or bare `name`.
    pub fn display_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.to_string(),
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.display_name(), self.dtype)
    }
}

/// An ordered list of columns describing tuples produced by an operator or
/// stored in a table.
///
/// The columns are shared: a clone is a reference-count increment, so an
/// operator can hold its own copy of its child's schema for free.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    /// Build a schema from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema {
            columns: columns.into(),
        }
    }

    /// The empty schema (allocates nothing).
    pub fn empty() -> Self {
        Schema::default()
    }

    /// Columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True iff the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Resolve a column reference to its offset.
    ///
    /// Errors on no match ("unknown column") and on multiple matches
    /// ("ambiguous column"), as SQL requires.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, c) in self.columns.iter().enumerate() {
            if c.matches(qualifier, name) {
                if found.is_some() {
                    return Err(WsqError::Plan(format!(
                        "ambiguous column reference '{}'",
                        refname(qualifier, name)
                    )));
                }
                found = Some(i);
            }
        }
        found
            .ok_or_else(|| WsqError::Plan(format!("unknown column '{}'", refname(qualifier, name))))
    }

    /// Offset of a column reference, or `None` (no ambiguity check).
    pub fn try_resolve(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.matches(qualifier, name))
    }

    /// Concatenate two schemas (used by joins / cross products). One
    /// allocation: the names are shared.
    pub fn join(&self, right: &Schema) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .chain(right.columns.iter())
                .cloned()
                .collect(),
        }
    }

    /// Re-qualify all columns with a new table alias (used when a stored
    /// table is scanned under an alias). One allocation for the columns
    /// (and one for `qualifier` if it is not already an `Arc<str>`).
    pub fn with_qualifier(&self, qualifier: impl Into<Arc<str>>) -> Schema {
        let qualifier = qualifier.into();
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    qualifier: Some(qualifier.clone()),
                    name: c.name.clone(),
                    dtype: c.dtype,
                })
                .collect(),
        }
    }

    /// Iterate over `(offset, column)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Column)> {
        self.columns.iter().enumerate()
    }
}

/// Collect columns into a schema: one allocation when the iterator knows
/// its length.
impl FromIterator<Column> for Schema {
    fn from_iter<I: IntoIterator<Item = Column>>(iter: I) -> Self {
        Schema {
            columns: iter.into_iter().collect(),
        }
    }
}

fn refname(qualifier: Option<&str>, name: &str) -> String {
    match qualifier {
        Some(q) => format!("{q}.{name}"),
        None => name.to_string(),
    }
}

/// Call `f` with `name` in ASCII lower case — the form case-insensitive
/// name maps (the catalog's, the database's) are keyed by — built on the
/// stack when the name is short, so that looking a name up allocates
/// nothing.
pub fn with_ascii_lowercase<R>(name: &str, f: impl FnOnce(&str) -> R) -> R {
    let mut buf = [0u8; 64];
    if let Some(key) = buf.get_mut(..name.len()) {
        key.copy_from_slice(name.as_bytes());
        key.make_ascii_lowercase();
        // Lower-casing ASCII bytes keeps UTF-8 valid, so this always
        // succeeds.
        if let Ok(key) = std::str::from_utf8(key) {
            return f(key);
        }
    }
    f(&name.to_ascii_lowercase())
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::qualified("States", "Name", DataType::Varchar),
            Column::qualified("States", "Population", DataType::Int),
            Column::qualified("WebCount", "Count", DataType::Int),
        ])
    }

    #[test]
    fn resolve_unqualified_and_qualified() {
        let s = sample();
        assert_eq!(s.resolve(None, "Population").unwrap(), 1);
        assert_eq!(s.resolve(Some("WebCount"), "Count").unwrap(), 2);
        assert_eq!(s.resolve(Some("states"), "NAME").unwrap(), 0); // case-insensitive
    }

    #[test]
    fn resolve_errors() {
        let s = sample();
        assert!(matches!(
            s.resolve(None, "Nope").unwrap_err(),
            WsqError::Plan(_)
        ));
        assert!(matches!(
            s.resolve(Some("Other"), "Name").unwrap_err(),
            WsqError::Plan(_)
        ));
    }

    #[test]
    fn ambiguity_detected() {
        let s = Schema::new(vec![
            Column::qualified("A", "x", DataType::Int),
            Column::qualified("B", "x", DataType::Int),
        ]);
        let err = s.resolve(None, "x").unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
        // Qualified references disambiguate.
        assert_eq!(s.resolve(Some("B"), "x").unwrap(), 1);
    }

    #[test]
    fn join_concatenates_in_order() {
        let left = Schema::new(vec![Column::new("a", DataType::Int)]);
        let right = Schema::new(vec![Column::new("b", DataType::Float)]);
        let j = left.join(&right);
        assert_eq!(j.len(), 2);
        assert_eq!(&*j.column(0).name, "a");
        assert_eq!(&*j.column(1).name, "b");
    }

    #[test]
    fn clones_joins_and_requalification_share_names() {
        let s = sample();
        let copy = s.clone();
        assert!(std::ptr::eq(s.columns(), copy.columns()));
        let joined = s.join(&copy);
        assert!(Arc::ptr_eq(&joined.column(3).name, &s.column(0).name));
        let alias: Arc<str> = Arc::from("S");
        let requalified = s.with_qualifier(alias.clone());
        assert!(Arc::ptr_eq(&requalified.column(1).name, &s.column(1).name));
        assert!(Arc::ptr_eq(
            requalified.column(2).qualifier.as_ref().unwrap(),
            &alias
        ));
    }

    #[test]
    fn requalification() {
        let s = sample().with_qualifier("S");
        assert_eq!(s.resolve(Some("S"), "Name").unwrap(), 0);
        assert!(s.resolve(Some("States"), "Name").is_err());
    }

    #[test]
    fn lowercase_keys_short_and_long() {
        assert_eq!(with_ascii_lowercase("StAtEs_É", str::to_string), "states_É");
        let long = "X".repeat(100);
        assert_eq!(with_ascii_lowercase(&long, str::to_string), "x".repeat(100));
        assert_eq!(with_ascii_lowercase("", str::len), 0);
    }

    #[test]
    fn display_roundtrip_style() {
        let s = Schema::new(vec![Column::qualified("T", "c", DataType::Int)]);
        assert_eq!(s.to_string(), "(T.c:INT)");
        assert_eq!(Schema::empty().to_string(), "()");
    }
}
