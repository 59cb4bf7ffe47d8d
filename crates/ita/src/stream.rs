//! Streaming instant temporal aggregation.
//!
//! [`StreamingIta`] computes the ITA result one tuple at a time, in the
//! (group, time) order a sequential relation requires. The greedy PTA
//! algorithms (gPTAc/gPTAε, §6.2–6.3) consume this iterator so merging can
//! begin *before* the full ITA result exists: the paper's "trivial
//! modifications to the ITA algorithm ... to allow processing the tuples
//! one by one as they become available".
//!
//! The iterator holds the argument relation partitioned by group, the
//! partition [`fn@crate::ita`] sweeps: the rows' argument values in one
//! flat `n × p` buffer, their timestamps, their group order and one key
//! per group. It sweeps one group at a time and holds only that group's
//! ITA tuples, never the whole result.

use std::convert::Infallible;

use pta_temporal::{GroupKey, TemporalRelation, TimeInterval};

use crate::error::ItaError;
use crate::ita::ItaQuerySpec;
use crate::partition::{Partition, Sweep};

/// One ITA result tuple: group key, maximal constant interval, `p`
/// aggregate values.
#[derive(Debug, Clone, PartialEq)]
pub struct ItaRow {
    /// Values of the grouping attributes.
    pub key: GroupKey,
    /// Maximal interval over which the aggregate values are constant.
    pub interval: TimeInterval,
    /// Aggregate values `B1..Bp`.
    pub values: Vec<f64>,
}

/// Iterator producing the ITA result of a query one tuple at a time, in
/// (group, time) order.
#[derive(Debug)]
pub struct StreamingIta {
    part: Partition,
    sweep: Sweep,
    /// The next group to sweep.
    next_group: usize,
    /// The ITA tuples of group `next_group − 1`: timestamps, and `p`
    /// values each.
    intervals: Vec<TimeInterval>,
    values: Vec<f64>,
    /// The next tuple of the current group to yield.
    next: usize,
}

impl StreamingIta {
    /// Partitions `relation` by the query's grouping attributes. Fails
    /// when the query is malformed (no aggregates, unknown or non-numeric
    /// attributes).
    pub fn new(relation: &TemporalRelation, spec: &ItaQuerySpec) -> Result<Self, ItaError> {
        let part = Partition::for_query(relation, spec)?;
        let sweep = part.sweep();
        Ok(Self { part, sweep, next_group: 0, intervals: Vec::new(), values: Vec::new(), next: 0 })
    }

    /// Number of aggregate dimensions `p` of the produced rows.
    pub fn dims(&self) -> usize {
        self.part.dims()
    }
}

impl Iterator for StreamingIta {
    type Item = ItaRow;

    fn next(&mut self) -> Option<ItaRow> {
        while self.next == self.intervals.len() {
            let group = self.next_group;
            if group == self.part.groups() {
                return None;
            }
            self.next_group += 1;
            self.intervals.clear();
            self.values.clear();
            self.next = 0;
            let (intervals, values) = (&mut self.intervals, &mut self.values);
            let Ok(()) = self.sweep.run(&self.part, group, |interval, row| {
                intervals.push(interval);
                values.extend_from_slice(row);
                Ok::<(), Infallible>(())
            });
        }
        let (i, p) = (self.next, self.dims());
        self.next += 1;
        Some(ItaRow {
            key: self.part.keys()[self.next_group - 1].clone(),
            interval: self.intervals[i],
            values: self.values[i * p..(i + 1) * p].to_vec(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use pta_temporal::{DataType, Schema, Value};

    /// The paper's running example, Fig. 1(a).
    pub(crate) fn proj() -> TemporalRelation {
        let schema =
            Schema::of(&[("Empl", DataType::Str), ("Proj", DataType::Str), ("Sal", DataType::Int)])
                .unwrap();
        let rows = [
            ("John", "A", 800, 1, 4),
            ("Ann", "A", 400, 3, 6),
            ("Tom", "A", 300, 4, 7),
            ("John", "B", 500, 4, 5),
            ("John", "B", 500, 7, 8),
        ];
        TemporalRelation::from_rows(
            schema,
            rows.iter().map(|(e, p, s, a, b)| {
                (
                    vec![Value::str(*e), Value::str(*p), Value::Int(*s)],
                    TimeInterval::new(*a, *b).unwrap(),
                )
            }),
        )
        .unwrap()
    }

    #[test]
    fn streaming_matches_fig_1c() {
        let spec = ItaQuerySpec {
            grouping: vec!["Proj".into()],
            aggregates: vec![AggregateSpec::avg("Sal").as_output("AvgSal")],
        };
        let rows: Vec<ItaRow> = StreamingIta::new(&proj(), &spec).unwrap().collect();
        let expected = [
            ("A", 1, 2, 800.0),
            ("A", 3, 3, 600.0),
            ("A", 4, 4, 500.0),
            ("A", 5, 6, 350.0),
            ("A", 7, 7, 300.0),
            ("B", 4, 5, 500.0),
            ("B", 7, 8, 500.0),
        ];
        assert_eq!(rows.len(), expected.len());
        for (row, (g, a, b, v)) in rows.iter().zip(expected) {
            assert_eq!(row.key.values(), &[Value::str(g)]);
            assert_eq!(row.interval, TimeInterval::new(a, b).unwrap());
            assert!((row.values[0] - v).abs() < 1e-9, "{} != {v}", row.values[0]);
        }
    }

    #[test]
    fn rejects_missing_aggregates() {
        let spec = ItaQuerySpec { grouping: vec![], aggregates: vec![] };
        let err = StreamingIta::new(&proj(), &spec).unwrap_err();
        assert!(err.common().is_some_and(pta_temporal::CommonError::is_empty_input));
    }

    #[test]
    fn rejects_non_numeric_aggregate() {
        let spec = ItaQuerySpec { grouping: vec![], aggregates: vec![AggregateSpec::avg("Empl")] };
        assert!(matches!(
            StreamingIta::new(&proj(), &spec),
            Err(ItaError::NonNumericAggregate { .. })
        ));
    }
}
