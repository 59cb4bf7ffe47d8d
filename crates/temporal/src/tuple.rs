//! Temporal tuples.

use std::fmt;

use crate::interval::TimeInterval;
use crate::value::Value;

/// A tuple `r = (v1, ..., vm, t)` over a temporal relation schema: attribute
/// values plus a validity interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    values: Vec<Value>,
    interval: TimeInterval,
}

impl Tuple {
    /// Creates a tuple. Arity/type checking happens when the tuple is pushed
    /// into a [`crate::TemporalRelation`], which knows the schema.
    pub fn new(values: Vec<Value>, interval: TimeInterval) -> Self {
        Self { values, interval }
    }

    /// The attribute values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value of attribute `index` (`r.A` in the paper).
    pub fn value(&self, index: usize) -> &Value {
        &self.values[index]
    }

    /// The validity interval (`r.T`).
    pub fn interval(&self) -> TimeInterval {
        self.interval
    }

    /// Projects the tuple onto the attributes at `indices` (`r.A` for an
    /// attribute set `A`), cloning the selected values.
    pub fn project(&self, indices: &[usize]) -> Vec<Value> {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") {}", self.interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_selects_and_reorders() {
        let t = Tuple::new(
            vec![Value::str("John"), Value::str("A"), Value::Int(800)],
            TimeInterval::new(1, 4).unwrap(),
        );
        assert_eq!(t.project(&[2, 0]), vec![Value::Int(800), Value::str("John")]);
    }

    #[test]
    fn display_shows_values_and_interval() {
        let t =
            Tuple::new(vec![Value::str("A"), Value::Int(800)], TimeInterval::new(1, 2).unwrap());
        assert_eq!(t.to_string(), "(A, 800) [1, 2]");
    }
}
