//! Domain values.
//!
//! The paper fixes an abstract domain `D` of values; we provide a small
//! concrete domain of strings and integers, which is all the paper's examples
//! (and realistic relational workloads) need. Values are ordered and hashable
//! so that tuples can key hash maps and be sorted deterministically for
//! display and testing.

use provsem_semiring::fxhash::FxHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A value of the domain `D`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A string constant such as `"a"` or `"alice"`.
    Str(Arc<str>),
    /// An integer constant.
    Int(i64),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Creates an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Returns the string content if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// Returns the integer content if this is an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Str(_) => None,
            Value::Int(i) => Some(*i),
        }
    }

    /// A borrowed view of the value — the form typed columns hand out
    /// without minting a [`Value`] (see [`ValueRef`]).
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Str(s) => ValueRef::Str(s),
            Value::Int(i) => ValueRef::Int(*i),
        }
    }

    /// Content hash of the value, independent of how a column stores it:
    /// equal to `int_content_hash` for integers and `str_content_hash`
    /// for strings, which is what lets the columnar kernels
    /// (`plan::column`) hash typed, dictionary-encoded, and plain-value
    /// columns interchangeably — and what the datalog interner hashes
    /// constants by. Type-tagged so `1` and `"1"` do not collide
    /// structurally.
    pub fn content_hash(&self) -> u64 {
        match self {
            Value::Int(x) => int_content_hash(*x),
            Value::Str(s) => str_content_hash(s),
        }
    }
}

/// A borrowed domain value: what a reader gets from a [`Value`], an `i64`
/// column or a dictionary-encoded string column alike, so renderers walk
/// rows and columns through one type and never clone an `Arc<str>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueRef<'a> {
    /// A string constant.
    Str(&'a str),
    /// An integer constant.
    Int(i64),
}

/// The content hash an integer value contributes to row hashing, whether it
/// sits in a typed `i64` column or a plain [`Value`] column.
pub(crate) fn int_content_hash(x: i64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(0);
    h.write_i64(x);
    h.finish()
}

/// The content hash a string value contributes to row hashing, whether it
/// sits dictionary-encoded (hashed once per distinct string at interning
/// time) or in a plain [`Value`] column.
pub(crate) fn str_content_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(1);
    s.hash(&mut h);
    h.finish()
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = Value::str("a");
        let i = Value::int(42);
        assert_eq!(s.as_str(), Some("a"));
        assert_eq!(s.as_int(), None);
        assert_eq!(i.as_int(), Some(42));
        assert_eq!(i.as_str(), None);
    }

    #[test]
    fn equality_and_ordering() {
        assert_eq!(Value::from("a"), Value::str("a"));
        assert_ne!(Value::from("a"), Value::from("b"));
        assert_ne!(Value::from("1"), Value::from(1i64));
        let mut vs = [
            Value::str("b"),
            Value::str("a"),
            Value::int(3),
            Value::int(1),
        ];
        vs.sort();
        assert_eq!(vs.len(), 4);
    }

    #[test]
    fn display_is_bare() {
        assert_eq!(format!("{}", Value::str("abc")), "abc");
        assert_eq!(format!("{}", Value::int(-7)), "-7");
    }
}
