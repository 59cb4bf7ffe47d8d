//! Temporal relations: bags of tuples with validity intervals.

use std::fmt;

use crate::chronon::Chronon;
use crate::error::TemporalError;
use crate::interval::TimeInterval;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A temporal relation `r` over a schema `R = (A1, ..., Am, T)`.
///
/// Tuples may overlap arbitrarily in time — this is the *argument* type of
/// the aggregation operators, e.g. the `proj` relation of Fig. 1(a).
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalRelation {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl TemporalRelation {
    /// Creates an empty relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self { schema, tuples: Vec::new() }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Appends a tuple after validating arity and attribute types.
    pub fn push(
        &mut self,
        values: Vec<Value>,
        interval: TimeInterval,
    ) -> Result<(), TemporalError> {
        if values.len() != self.schema.arity() {
            return Err(TemporalError::ArityMismatch {
                got: values.len(),
                expected: self.schema.arity(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            let attr = self.schema.attribute(i);
            if v.data_type() != attr.data_type() {
                return Err(TemporalError::TypeMismatch {
                    attribute: attr.name().to_string(),
                    expected: attr.data_type().name(),
                    got: v.data_type().name(),
                });
            }
            if let Value::Float(x) = v {
                if !x.is_finite() {
                    return Err(TemporalError::NonFiniteValue {
                        context: format!("attribute {:?}", attr.name()),
                    });
                }
            }
        }
        self.tuples.push(Tuple::new(values, interval));
        Ok(())
    }

    /// Moves `other`'s tuples, already checked against the same schema,
    /// onto the end of this relation.
    pub(crate) fn append(&mut self, mut other: Self) {
        debug_assert_eq!(self.schema, other.schema);
        self.tuples.append(&mut other.tuples);
    }

    /// Builds a relation from rows, failing on the first invalid row.
    pub fn from_rows(
        schema: Schema,
        rows: impl IntoIterator<Item = (Vec<Value>, TimeInterval)>,
    ) -> Result<Self, TemporalError> {
        let mut rel = Self::new(schema);
        for (values, interval) in rows {
            rel.push(values, interval)?;
        }
        Ok(rel)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Iterates over the tuples.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// The convex hull of all tuple timestamps, `None` when empty.
    pub fn time_extent(&self) -> Option<TimeInterval> {
        let mut it = self.tuples.iter();
        let first = it.next()?.interval();
        let (mut lo, mut hi) = (first.start(), first.end());
        for t in it {
            lo = lo.min(t.interval().start());
            hi = hi.max(t.interval().end());
        }
        // `lo <= hi` because both come from the same valid interval set, so
        // `ok()` never actually discards an error here.
        TimeInterval::new(lo, hi).ok()
    }

    /// Sorts tuples by interval start (then end), the order ITA sweeps in.
    pub fn sort_by_time(&mut self) {
        self.tuples.sort_by_key(|t| (t.interval().start(), t.interval().end()));
    }

    /// All distinct chronons at which some tuple starts or ends, sorted.
    /// These are the only instants where an ITA aggregate can change.
    pub fn change_points(&self) -> Vec<Chronon> {
        let mut pts: Vec<Chronon> = Vec::with_capacity(self.tuples.len() * 2);
        for t in &self.tuples {
            pts.push(t.interval().start());
            pts.push(t.interval().end() + 1);
        }
        pts.sort_unstable();
        pts.dedup();
        pts
    }
}

impl fmt::Display for TemporalRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.tuples.len())?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a TemporalRelation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::of(&[("Empl", DataType::Str), ("Sal", DataType::Int)]).unwrap()
    }

    fn iv(a: Chronon, b: Chronon) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn push_validates_arity() {
        let mut r = TemporalRelation::new(schema());
        let err = r.push(vec![Value::str("John")], iv(1, 4)).unwrap_err();
        assert!(matches!(err, TemporalError::ArityMismatch { got: 1, expected: 2 }));
    }

    #[test]
    fn push_validates_types() {
        let mut r = TemporalRelation::new(schema());
        let err = r.push(vec![Value::Int(1), Value::Int(800)], iv(1, 4)).unwrap_err();
        assert!(matches!(err, TemporalError::TypeMismatch { .. }));
    }

    #[test]
    fn extent_and_change_points() {
        let mut r = TemporalRelation::new(schema());
        r.push(vec![Value::str("John"), Value::Int(800)], iv(1, 4)).unwrap();
        r.push(vec![Value::str("Ann"), Value::Int(400)], iv(3, 6)).unwrap();
        assert_eq!(r.time_extent(), Some(iv(1, 6)));
        assert_eq!(r.change_points(), vec![1, 3, 5, 7]);
    }

    #[test]
    fn empty_relation_has_no_extent() {
        let r = TemporalRelation::new(schema());
        assert!(r.time_extent().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn sort_by_time_orders_tuples() {
        let mut r = TemporalRelation::new(schema());
        r.push(vec![Value::str("B"), Value::Int(2)], iv(5, 6)).unwrap();
        r.push(vec![Value::str("A"), Value::Int(1)], iv(1, 9)).unwrap();
        r.sort_by_time();
        assert_eq!(r.tuples()[0].interval(), iv(1, 9));
    }
}
