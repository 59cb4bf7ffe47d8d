//! Attribute values and their domains.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::TemporalError;

/// The domain (type) of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float (NaN is rejected at ingestion).
    Float,
    /// Interned UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Human-readable name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "Int",
            DataType::Float => "Float",
            DataType::Str => "Str",
            DataType::Bool => "Bool",
        }
    }
}

/// A single attribute value.
///
/// Values are used both as data and as grouping keys, so they implement
/// `Eq`/`Hash`. To make floats hashable we reject NaN at the [`Value::float`]
/// constructor and normalise `-0.0` to `0.0`. A `Value::Float(-0.0)` built
/// directly equals, orders and hashes as `0.0`, so it falls in the same
/// group.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Finite 64-bit float.
    Float(f64),
    /// Shared string (cheap to clone into group keys).
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Creates a float value, rejecting NaN and infinities so `Value` can be
    /// used as a hashable grouping key and aggregates stay well defined.
    pub fn float(v: f64) -> Result<Self, TemporalError> {
        if v.is_finite() {
            Ok(Value::Float(if v == 0.0 { 0.0 } else { v }))
        } else {
            Err(TemporalError::NonFiniteValue { context: format!("float literal {v}") })
        }
    }

    /// Creates a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// The value's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Numeric view used by aggregate functions; `None` for non-numeric
    /// values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(_) | Value::Str(_) => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            // Both values are finite by construction, so bit equality modulo
            // the normalised -0.0 is plain equality.
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used to sort aggregation groups deterministically:
    /// values order within their type; across types the order is
    /// `Int < Float < Str < Bool` (arbitrary but fixed).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Int(_) => 0,
                Value::Float(_) => 1,
                Value::Str(_) => 2,
                Value::Bool(_) => 3,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => {
                signed_zero_as_zero(*a).total_cmp(&signed_zero_as_zero(*b))
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                1u8.hash(state);
                signed_zero_as_zero(*v).to_bits().hash(state);
            }
            Value::Str(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            Value::Bool(v) => {
                3u8.hash(state);
                v.hash(state);
            }
        }
    }
}

/// `v` with `-0.0` read as `0.0`, the float `Value`'s `Ord` and `Hash` see:
/// its `Eq` already equates the two zeros.
fn signed_zero_as_zero(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn float_constructor_rejects_non_finite() {
        assert!(Value::float(f64::NAN).is_err());
        assert!(Value::float(f64::INFINITY).is_err());
        assert!(Value::float(1.5).is_ok());
    }

    #[test]
    fn negative_zero_is_normalised() {
        let a = Value::float(0.0).unwrap();
        let b = Value::float(-0.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn a_directly_built_negative_zero_orders_and_hashes_as_zero() {
        let (neg, pos) = (Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(neg, pos);
        assert_eq!(neg.cmp(&pos), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(&neg), hash_of(&pos));
        assert!(Value::Float(-1e-300) < neg && pos < Value::Float(1e-300));
    }

    #[test]
    fn cross_type_values_never_compare_equal() {
        assert_ne!(Value::Int(1), Value::float(1.0).unwrap());
        assert_ne!(Value::Bool(true), Value::Int(1));
    }

    #[test]
    fn numeric_view() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::float(2.5).unwrap().as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
    }

    #[test]
    fn display_renders_raw_values() {
        assert_eq!(Value::str("John").to_string(), "John");
        assert_eq!(Value::Int(800).to_string(), "800");
    }
}
