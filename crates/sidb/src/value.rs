//! Typed cell values and shared, copy-on-write rows.
//!
//! A [`Row`] is one immutable allocation that every holder of the image
//! shares: the version in the origin's arena, the item of the extracted
//! writeset, the log entry, the version each replica installs and the row
//! of every durable image and checkpoint are the same `Arc<[Value]>`, and
//! cloning any of them is a reference-count bump. A copy of the cells
//! happens in exactly one place — the first mutable access
//! ([`std::ops::DerefMut`]) to a row somebody else also holds — so a
//! caller that edits a row it read pays one copy, and nobody else pays
//! any.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A single table cell.
///
/// The engine is schema-light: a table fixes its column *names*, not their
/// types. This matches the needs of the TPC-W/RUBiS-style workloads, which
/// only read and write opaque tuples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Raw bytes (e.g. serialized cart contents).
    Bytes(Vec<u8>),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Approximate wire size in bytes, used for writeset size accounting
    /// (the paper reports ~275-byte average writesets for TPC-W).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Text(s) => s.len() + 4,
            Value::Bytes(b) => b.len() + 4,
        }
    }
}

/// An ordered list of cells matching the table's column order: a shared,
/// copy-on-write image.
///
/// `Clone` bumps a reference count; the row derefs to `[Value]`; the
/// first mutable access to a shared row copies the cells into an
/// allocation of its own and leaves every other holder's image as it
/// was. A `Vec<Value>` or an array of values converts with `into()`, and
/// [`crate::Database::insert`] / [`crate::Database::update`] take either.
/// Serializes as the plain sequence of its cells.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Row(Arc<[Value]>);

impl Deref for Row {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl DerefMut for Row {
    /// Copy-on-write: a row nobody else holds is edited in place.
    fn deref_mut(&mut self) -> &mut [Value] {
        Arc::make_mut(&mut self.0)
    }
}

impl From<Vec<Value>> for Row {
    fn from(cells: Vec<Value>) -> Self {
        Row(cells.into())
    }
}

impl<const N: usize> From<[Value; N]> for Row {
    fn from(cells: [Value; N]) -> Self {
        Row(cells.into())
    }
}

/// Collects cells into one allocation when the iterator knows its
/// length (a `Vec`'s `drain(..)` does), as the log and checkpoint
/// decoders' scratch row does.
impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(cells: I) -> Self {
        Row(cells.into_iter().collect())
    }
}

/// Prints the cells as a slice, so [`crate::Database::durable_state`]
/// reads the same whoever shares the row.
impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

/// Total wire size of a row.
pub fn row_wire_size(row: &[Value]) -> usize {
    row.iter().map(Value::wire_size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Int(7).wire_size(), 8);
        assert_eq!(Value::text("abcd").wire_size(), 8);
        assert_eq!(Value::Bytes(vec![0; 10]).wire_size(), 14);
        assert_eq!(row_wire_size(&[Value::Int(1), Value::text("xy")]), 8 + 6);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(Value::text("a"), Value::Text("a".to_string()));
        assert_ne!(Value::Int(1), Value::Float(1.0));
    }
}
