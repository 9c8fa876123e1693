//! Tuples: ordered value vectors flowing through the iterator tree.

use crate::value::{CallId, Placeholder, Value};
use std::fmt;

/// A tuple of runtime values.
///
/// Tuples are positional; the corresponding [`crate::Schema`] travels with
/// the operator, not the tuple, keeping the per-tuple footprint small (a
/// point the performance guide emphasizes for row-at-a-time engines).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The empty tuple (used as the seed for cross products of zero inputs).
    pub fn empty() -> Self {
        Tuple { values: vec![] }
    }

    /// Values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access (used by `ReqSync` when patching placeholders).
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Consume into the underlying vector.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the tuple has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Overwrite the value at `idx`.
    pub fn set(&mut self, idx: usize, v: Value) {
        self.values[idx] = v;
    }

    /// Concatenate two tuples (joins / cross products).
    pub fn join(&self, right: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + right.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&right.values);
        Tuple { values }
    }

    /// True iff any value is a pending placeholder.
    pub fn is_incomplete(&self) -> bool {
        self.values.iter().any(Value::is_pending)
    }

    /// All placeholders present in this tuple, with their offsets.
    pub fn placeholders(&self) -> Vec<(usize, Placeholder)> {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| match v {
                Value::Pending(p) => Some((i, *p)),
                _ => None,
            })
            .collect()
    }

    /// The distinct set of pending calls this tuple is waiting on.
    pub fn pending_calls(&self) -> Vec<CallId> {
        let mut calls = Vec::new();
        self.pending_calls_into(&mut calls);
        calls
    }

    /// [`Tuple::pending_calls`] written over `out`, for a caller that asks
    /// once per tuple and keeps the buffer.
    pub fn pending_calls_into(&self, out: &mut Vec<CallId>) {
        out.clear();
        out.extend(self.values.iter().filter_map(|v| match v {
            Value::Pending(p) => Some(p.call),
            _ => None,
        }));
        out.sort_unstable();
        out.dedup();
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple { values }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::PendingCol;

    fn ph(id: u64, col: PendingCol) -> Value {
        Value::Pending(Placeholder {
            call: CallId(id),
            col,
        })
    }

    #[test]
    fn join_concatenates() {
        let a = Tuple::new(vec![Value::Int(1)]);
        let b = Tuple::new(vec![Value::from("x"), Value::Null]);
        let j = a.join(&b);
        assert_eq!(j.len(), 3);
        assert_eq!(j.get(1).as_str().unwrap(), "x");
    }

    #[test]
    fn clone_and_join_share_string_storage() {
        let shares = |a: &Value, b: &Value| match (a, b) {
            (Value::Str(a), Value::Str(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        };
        let left = Tuple::new(vec![Value::from("Colorado"), Value::Int(1)]);
        let right = Tuple::new(vec![Value::from("four corners")]);
        let copy = left.clone();
        assert!(shares(copy.get(0), left.get(0)));
        let joined = left.join(&right);
        assert!(shares(joined.get(0), left.get(0)));
        assert!(shares(joined.get(2), right.get(0)));
        // A grouping key shares them too.
        assert!(matches!(
            (left.get(0).group_key(), left.get(0)),
            (crate::value::GroupKey::Str(k), Value::Str(v)) if std::sync::Arc::ptr_eq(&k, v)
        ));
    }

    #[test]
    fn placeholder_introspection() {
        let t = Tuple::new(vec![
            Value::Int(1),
            ph(7, PendingCol::Url),
            ph(7, PendingCol::Rank),
            ph(3, PendingCol::Count),
        ]);
        assert!(t.is_incomplete());
        let phs = t.placeholders();
        assert_eq!(phs.len(), 3);
        assert_eq!(phs[0].0, 1);
        // Distinct pending calls, sorted.
        assert_eq!(t.pending_calls(), vec![CallId(3), CallId(7)]);
    }

    #[test]
    fn complete_tuple_has_no_pending() {
        let t = Tuple::new(vec![Value::Int(1), Value::Null]);
        assert!(!t.is_incomplete());
        assert!(t.pending_calls().is_empty());
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::from("Colorado"), Value::Int(1745)]);
        assert_eq!(t.to_string(), "<Colorado, 1745>");
    }

    #[test]
    fn patching_via_set() {
        let mut t = Tuple::new(vec![ph(1, PendingCol::Count)]);
        t.set(0, Value::Int(42));
        assert!(!t.is_incomplete());
        assert_eq!(t.get(0).as_int().unwrap(), 42);
    }
}
