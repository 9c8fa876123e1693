//! The value model: SQL data types, runtime values, and placeholders.

use crate::error::{Result, WsqError};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Identifier of a pending external call registered with the request pump.
///
/// `CallId`s are minted by `ReqPump` (one per *deduplicated* outgoing
/// request) and embedded into tuples as [`Placeholder`]s by `AEVScan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u64);

impl fmt::Display for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Which output column of a pending search call a placeholder stands for.
///
/// A `WebCount` call produces a single `Count`; a `WebPages` call produces a
/// `(Url, Rank, Date)` triple per result row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PendingCol {
    /// The `Count` column of `WebCount`.
    Count,
    /// The `URL` column of `WebPages`.
    Url,
    /// The `Rank` column of `WebPages`.
    Rank,
    /// The `Date` column of `WebPages`.
    Date,
}

/// A placeholder marking an attribute value that a pending external call
/// will supply (paper Section 4.1).
///
/// The placeholder plays two roles: it flags the containing tuple as
/// incomplete, and it identifies the pending `ReqPump` call (and which of
/// its output columns) that will fill in the true value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placeholder {
    /// The pending call that will supply the value.
    pub call: CallId,
    /// Which output column of that call this placeholder stands for.
    pub col: PendingCol,
}

impl fmt::Display for Placeholder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}:{:?}⟩", self.call, self.col)
    }
}

/// SQL data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// Variable-length UTF-8 string. The declared length is advisory
    /// (Redbase-style `VARCHAR(n)`); values are not truncated.
    Varchar,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Varchar => write!(f, "VARCHAR"),
        }
    }
}

/// A runtime value flowing through the query engine.
///
/// [`Value::Pending`] never reaches storage or query results; it exists
/// only inside asynchronous query plans between an `AEVScan` and the
/// `ReqSync` that patches it.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string, reference-counted: cloning a value — and so cloning,
    /// joining or projecting the tuple that holds it — shares the bytes
    /// instead of copying them. A string is immutable once built; construct
    /// one through `From<&str>` / `From<String>` (one allocation either
    /// way) and read it through [`Value::as_str`].
    Str(Arc<str>),
    /// Placeholder for a value a pending external call will supply.
    Pending(Placeholder),
}

impl Value {
    /// Runtime type of the value, if it has one (`Null` and `Pending` do not).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Varchar),
            Value::Null | Value::Pending(_) => None,
        }
    }

    /// True iff the value is a placeholder for a pending call.
    pub fn is_pending(&self) -> bool {
        matches!(self, Value::Pending(_))
    }

    /// True iff the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, coercing floats with truncation.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) => Ok(*f as i64),
            other => Err(WsqError::Type(format!("expected INT, got {other}"))),
        }
    }

    /// Extract a float, coercing integers.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(WsqError::Type(format!("expected FLOAT, got {other}"))),
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(WsqError::Type(format!("expected VARCHAR, got {other}"))),
        }
    }

    /// Three-valued-logic-free comparison used by predicates, sorting and
    /// grouping.
    ///
    /// Rules (documented engine semantics, tested below):
    /// * `Null` sorts before everything and equals only `Null`.
    /// * Numeric values compare numerically across `Int`/`Float`.
    /// * Strings compare lexicographically (byte order).
    /// * Cross-type (string vs number) comparisons order numbers first.
    /// * Comparing a `Pending` value is a logic error in the engine — the
    ///   percolation clash rules exist precisely to prevent it — so this
    ///   returns an error rather than panicking.
    pub fn compare(&self, other: &Value) -> Result<Ordering> {
        use Value::*;
        let rank = |v: &Value| match v {
            Null => 0u8,
            Int(_) | Float(_) => 1,
            Str(_) => 2,
            Pending(_) => 3,
        };
        match (self, other) {
            (Pending(p), _) | (_, Pending(p)) => Err(WsqError::Exec(format!(
                "comparison against unresolved placeholder {p} (clash-rule violation)"
            ))),
            (Null, Null) => Ok(Ordering::Equal),
            (Int(a), Int(b)) => Ok(a.cmp(b)),
            (Float(a), Float(b)) => Ok(a.partial_cmp(b).unwrap_or(Ordering::Equal)),
            (Int(a), Float(b)) => Ok((*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal)),
            (Float(a), Int(b)) => Ok(a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal)),
            (Str(a), Str(b)) => Ok(a.cmp(b)),
            _ => Ok(rank(self).cmp(&rank(other))),
        }
    }

    /// Equality under [`Value::compare`] semantics.
    pub fn sql_eq(&self, other: &Value) -> Result<bool> {
        Ok(self.compare(other)? == Ordering::Equal)
    }

    /// A stable key usable for hashing in group-by / distinct operators.
    ///
    /// Floats are keyed by their bit pattern; `Int` and `Float` holding the
    /// same mathematical value hash differently, which is acceptable because
    /// grouping keys come from columns of a single declared type.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Int(i) => GroupKey::Int(*i),
            Value::Float(f) => GroupKey::Float(f.to_bits()),
            Value::Str(s) => GroupKey::Str(s.clone()),
            Value::Pending(p) => GroupKey::Pending(*p),
        }
    }
}

/// Hashable projection of a [`Value`] used as a grouping / distinct key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// NULL key.
    Null,
    /// Integer key.
    Int(i64),
    /// Float key (bit pattern).
    Float(u64),
    /// String key (shares the value's bytes).
    Str(Arc<str>),
    /// Placeholder key (only meaningful inside async plans).
    Pending(Placeholder),
}

impl fmt::Display for Value {
    /// Writes values the way query results print them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Pending(p) => write!(f, "{p}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Pending(a), Value::Pending(b)) => a == b,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_extraction_and_coercion() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Float(7.9).as_int().unwrap(), 7);
        assert_eq!(Value::Int(7).as_float().unwrap(), 7.0);
        assert_eq!(Value::Str("x".into()).as_str().unwrap(), "x");
        assert!(Value::Str("x".into()).as_int().is_err());
        assert!(Value::Null.as_float().is_err());
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.0)).unwrap(),
            Ordering::Equal
        );
        assert_eq!(
            Value::Float(1.5).compare(&Value::Int(2)).unwrap(),
            Ordering::Less
        );
        assert!(Value::Int(2).sql_eq(&Value::Float(2.0)).unwrap());
    }

    #[test]
    fn null_sorts_first_and_strings_after_numbers() {
        assert_eq!(
            Value::Null.compare(&Value::Int(-100)).unwrap(),
            Ordering::Less
        );
        assert_eq!(
            Value::Int(999).compare(&Value::Str("a".into())).unwrap(),
            Ordering::Less
        );
        assert_eq!(Value::Null.compare(&Value::Null).unwrap(), Ordering::Equal);
    }

    #[test]
    fn comparing_pending_is_an_error() {
        let p = Value::Pending(Placeholder {
            call: CallId(3),
            col: PendingCol::Count,
        });
        let err = Value::Int(1).compare(&p).unwrap_err();
        assert!(matches!(err, WsqError::Exec(_)));
        assert!(err.to_string().contains("C3"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "NULL");
        let p = Value::Pending(Placeholder {
            call: CallId(9),
            col: PendingCol::Url,
        });
        assert_eq!(p.to_string(), "⟨C9:Url⟩");
    }

    #[test]
    fn group_keys_distinguish_types() {
        assert_ne!(Value::Int(1).group_key(), Value::Float(1.0).group_key());
        assert_eq!(
            Value::Str("a".into()).group_key(),
            Value::from("a").group_key()
        );
        assert_eq!(Value::Null.group_key(), GroupKey::Null);
    }

    #[test]
    fn nan_equals_nan_for_dedup_purposes() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }
}
