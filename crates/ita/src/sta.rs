//! Span temporal aggregation (STA).
//!
//! STA lets the application fix the reporting intervals in the query (e.g.
//! one tuple per trimester, Fig. 1(b)): for each span and group, the
//! aggregates are evaluated over all argument tuples whose timestamp
//! *overlaps* the span, each tuple counted once. The result size is
//! predictable but ignores the data distribution — the limitation PTA
//! addresses.

use pta_temporal::{
    Chronon, SequentialBuilder, SequentialRelation, TemporalRelation, TimeInterval,
};

use crate::aggregate::{Accumulator, AggregateSpec};
use crate::error::ItaError;
use crate::partition::{Columns, Partition};

/// How the time line is partitioned into reporting spans.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanSpec {
    /// Regular spans `[origin + k·width, origin + (k+1)·width − 1]`,
    /// instantiated over the relation's time extent.
    Fixed {
        /// Start of span 0.
        origin: Chronon,
        /// Positive span width in chronons.
        width: i64,
    },
    /// Explicit spans; must be sorted and pairwise disjoint so the result
    /// is a sequential relation.
    Explicit(Vec<TimeInterval>),
}

impl SpanSpec {
    /// Materialises the span list for a relation covering `extent`.
    fn spans(&self, extent: Option<TimeInterval>) -> Result<Vec<TimeInterval>, ItaError> {
        match self {
            SpanSpec::Fixed { origin, width } => {
                if *width <= 0 {
                    return Err(ItaError::invalid_span_width(*width));
                }
                let Some(extent) = extent else {
                    return Ok(Vec::new());
                };
                let mut spans = Vec::new();
                // First span index covering the extent start (floor division
                // handles extents starting before the origin).
                let mut k = (extent.start() - origin).div_euclid(*width);
                loop {
                    let s = origin + k * width;
                    if s > extent.end() {
                        break;
                    }
                    spans.push(TimeInterval::new(s, s + width - 1)?);
                    k += 1;
                }
                Ok(spans)
            }
            SpanSpec::Explicit(spans) => {
                if spans.is_empty() {
                    return Err(ItaError::empty_spans());
                }
                for i in 1..spans.len() {
                    if spans[i].start() <= spans[i - 1].end() {
                        return Err(ItaError::OverlappingSpans { index: i });
                    }
                }
                Ok(spans.clone())
            }
        }
    }
}

/// Span temporal aggregation: one result tuple per (group, span) with at
/// least one overlapping argument tuple.
///
/// Reads the group partition [`fn@crate::ita`] sweeps; each (group, span)
/// aggregates over the group's rows in input order.
pub fn sta(
    relation: &TemporalRelation,
    grouping: &[&str],
    aggregates: &[AggregateSpec],
    spans: &SpanSpec,
) -> Result<SequentialRelation, ItaError> {
    let columns = Columns::resolve(relation.schema(), grouping, aggregates)?;
    let spans = spans.spans(relation.time_extent())?;
    let part = Partition::new(relation, &columns)?;

    let p = aggregates.len();
    let mut builder = SequentialBuilder::new(p);
    let mut accs: Vec<Accumulator> =
        aggregates.iter().map(|a| Accumulator::for_function(a.function)).collect();
    let mut values = vec![0.0; p];
    for (g, key) in part.keys().iter().enumerate() {
        // Interned at the group's first tuple: a group no span overlaps
        // names no key.
        let mut id = None;
        for span in &spans {
            for (acc, agg) in accs.iter_mut().zip(aggregates) {
                *acc = Accumulator::for_function(agg.function);
            }
            let mut any = false;
            for &row in part.rows(g) {
                if part.interval(row).overlaps(span) {
                    any = true;
                    for (acc, &v) in accs.iter_mut().zip(part.args(row)) {
                        acc.insert(v);
                    }
                }
            }
            if any {
                for (v, acc) in values.iter_mut().zip(&accs) {
                    // pta-lint: allow(no-panic-in-lib) — `any` is only set
                    // after inserting into every accumulator in the group.
                    *v = acc.value().expect("non-empty span group");
                }
                let group = *id.get_or_insert_with(|| builder.intern(key.clone()));
                builder.push_id(group, *span, &values)?;
            }
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_temporal::Value;

    fn proj() -> TemporalRelation {
        crate::stream::tests::proj()
    }

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    /// Fig. 1(b): average monthly salary per project and trimester.
    #[test]
    fn fig_1b_trimester_averages() {
        let s = sta(
            &proj(),
            &["Proj"],
            &[AggregateSpec::avg("Sal").as_output("AvgSal")],
            &SpanSpec::Fixed { origin: 1, width: 4 },
        )
        .unwrap();
        assert_eq!(s.len(), 4);
        let expected =
            [("A", 1, 4, 500.0), ("A", 5, 8, 350.0), ("B", 1, 4, 500.0), ("B", 5, 8, 500.0)];
        for (i, (g, a, b, v)) in expected.iter().enumerate() {
            assert_eq!(s.group_key(s.group(i)).unwrap().values(), &[Value::str(*g)]);
            assert_eq!(s.interval(i), iv(*a, *b));
            assert!((s.value(i, 0) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn spans_without_data_produce_no_tuples() {
        let s = sta(
            &proj(),
            &["Proj"],
            &[AggregateSpec::count()],
            &SpanSpec::Explicit(vec![iv(100, 200)]),
        )
        .unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn explicit_spans_must_be_disjoint() {
        let r = sta(
            &proj(),
            &[],
            &[AggregateSpec::count()],
            &SpanSpec::Explicit(vec![iv(1, 4), iv(4, 8)]),
        );
        assert!(matches!(r, Err(ItaError::OverlappingSpans { index: 1 })));
    }

    #[test]
    fn fixed_width_must_be_positive() {
        let r =
            sta(&proj(), &[], &[AggregateSpec::count()], &SpanSpec::Fixed { origin: 0, width: 0 });
        let err = r.unwrap_err();
        assert!(err.common().is_some_and(pta_temporal::CommonError::is_invalid_parameter));
    }

    #[test]
    fn fixed_spans_cover_extents_starting_before_origin() {
        let s =
            sta(&proj(), &[], &[AggregateSpec::count()], &SpanSpec::Fixed { origin: 3, width: 10 })
                .unwrap();
        // Extent [1, 8]: spans [-7, 2] and [3, 12] both overlap data.
        assert_eq!(s.len(), 2);
        assert_eq!(s.interval(0), iv(-7, 2));
        assert_eq!(s.interval(1), iv(3, 12));
    }
}
