//! Streaming instant temporal aggregation.
//!
//! [`StreamingIta`] computes the ITA result one tuple at a time, in the
//! (group, time) order a sequential relation requires. The greedy PTA
//! algorithms (gPTAc/gPTAε, §6.2–6.3) consume this iterator so merging can
//! begin *before* the full ITA result exists: the paper's "trivial
//! modifications to the ITA algorithm ... to allow processing the tuples
//! one by one as they become available".

use std::collections::BTreeMap;

use pta_temporal::{Chronon, GroupKey, TemporalRelation, TimeInterval};

use crate::aggregate::{Accumulator, AggregateFunction};
use crate::error::ItaError;
use crate::ita::ItaQuerySpec;

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

/// Sweep event: at chronon `t`, the row with the given argument values
/// enters (`start`) or leaves the live set.
#[derive(Debug, Clone)]
struct Event {
    t: Chronon,
    row: usize,
    start: bool,
}

/// Per-group chronological sweep state.
#[derive(Debug)]
pub(crate) struct GroupSweep {
    /// Argument values per input row, one `f64` per aggregate spec.
    row_values: Vec<Vec<f64>>,
    events: Vec<Event>,
    pos: usize,
    accumulators: Vec<Accumulator>,
    live: usize,
    prev_t: Chronon,
    /// Constant run awaiting coalescing with the next emission.
    pending: Option<(TimeInterval, Vec<f64>)>,
    drained: bool,
}

impl GroupSweep {
    fn new(rows: Vec<(TimeInterval, Vec<f64>)>, functions: &[AggregateFunction]) -> Self {
        let mut row_values = Vec::with_capacity(rows.len());
        let mut events = Vec::with_capacity(rows.len() * 2);
        for (i, (interval, values)) in rows.into_iter().enumerate() {
            events.push(Event { t: interval.start(), row: i, start: true });
            events.push(Event { t: interval.end() + 1, row: i, start: false });
            row_values.push(values);
        }
        events.sort_by_key(|e| e.t);
        let accumulators = functions.iter().map(|&f| Accumulator::for_function(f)).collect();
        Self {
            row_values,
            events,
            pos: 0,
            accumulators,
            live: 0,
            prev_t: 0,
            pending: None,
            drained: false,
        }
    }

    /// Advances the sweep until one coalesced ITA row is complete.
    pub(crate) fn next_row(&mut self) -> Option<(TimeInterval, Vec<f64>)> {
        loop {
            if self.pos >= self.events.len() {
                if self.drained {
                    return None;
                }
                self.drained = true;
                return self.pending.take();
            }
            let t = self.events[self.pos].t;
            let mut flushed = None;
            if self.live > 0 && self.prev_t < t {
                // pta-lint: allow(no-panic-in-lib) — `prev_t < t` makes the run non-empty.
                let interval = TimeInterval::new(self.prev_t, t - 1).expect("prev_t < t");
                let values: Vec<f64> = self
                    .accumulators
                    .iter()
                    // pta-lint: allow(no-panic-in-lib) — `live > 0` means
                    // every accumulator saw at least one insert.
                    .map(|a| a.value().expect("live > 0 implies a defined aggregate"))
                    .collect();
                flushed = self.coalesce_emit(interval, values);
            }
            while self.pos < self.events.len() && self.events[self.pos].t == t {
                let ev = &self.events[self.pos];
                let vals = &self.row_values[ev.row];
                for (acc, &v) in self.accumulators.iter_mut().zip(vals) {
                    if ev.start {
                        acc.insert(v);
                    } else {
                        acc.remove(v);
                    }
                }
                if ev.start {
                    self.live += 1;
                } else {
                    self.live -= 1;
                }
                self.pos += 1;
            }
            self.prev_t = t;
            if flushed.is_some() {
                return flushed;
            }
        }
    }

    /// Coalescing step of Def. 1: extends the pending run when the new run
    /// meets it with identical aggregate values; otherwise the pending run
    /// is complete and returned.
    fn coalesce_emit(
        &mut self,
        interval: TimeInterval,
        values: Vec<f64>,
    ) -> Option<(TimeInterval, Vec<f64>)> {
        match &mut self.pending {
            Some((piv, pvals)) if piv.meets(&interval) && *pvals == values => {
                *piv = piv.span(&interval);
                None
            }
            _ => self.pending.replace((interval, values)),
        }
    }
}

/// A group's raw rows awaiting their sweep: `(interval, argument values)`.
type GroupRows = Vec<(TimeInterval, Vec<f64>)>;

/// Iterator producing the ITA result of a query one tuple at a time, in
/// (group, time) order.
#[derive(Debug)]
pub struct StreamingIta {
    functions: Vec<AggregateFunction>,
    /// Remaining groups in ascending key order; reversed so `pop` yields
    /// the next group.
    groups: Vec<(GroupKey, GroupRows)>,
    current: Option<(GroupKey, GroupSweep)>,
}

impl StreamingIta {
    /// Partitions `relation` by the query's grouping attributes and
    /// prepares per-group sweeps. Fails when the query is malformed (no
    /// aggregates, unknown or non-numeric attributes).
    pub fn new(relation: &TemporalRelation, spec: &ItaQuerySpec) -> Result<Self, ItaError> {
        if spec.aggregates.is_empty() {
            return Err(ItaError::no_aggregates());
        }
        let schema = relation.schema();
        let group_idx =
            schema.indices_of(&spec.grouping.iter().map(String::as_str).collect::<Vec<_>>())?;
        // Resolve each aggregate's argument column; count(*) takes none.
        let mut arg_idx: Vec<Option<usize>> = Vec::with_capacity(spec.aggregates.len());
        for agg in &spec.aggregates {
            if agg.function == AggregateFunction::Count && agg.attribute == "*" {
                arg_idx.push(None);
            } else {
                arg_idx.push(Some(schema.index_of(&agg.attribute)?));
            }
        }

        let mut partitions: BTreeMap<GroupKey, Vec<(TimeInterval, Vec<f64>)>> = BTreeMap::new();
        for tuple in relation.iter() {
            let key = GroupKey::new(tuple.project(&group_idx));
            let mut values = Vec::with_capacity(arg_idx.len());
            for (ai, agg) in arg_idx.iter().zip(&spec.aggregates) {
                let v = match ai {
                    None => 0.0, // count(*) ignores the argument
                    Some(i) => tuple.value(*i).as_f64().ok_or_else(|| {
                        ItaError::NonNumericAggregate { attribute: agg.attribute.clone() }
                    })?,
                };
                values.push(v);
            }
            partitions.entry(key).or_default().push((tuple.interval(), values));
        }

        let mut groups: Vec<_> = partitions.into_iter().collect();
        groups.reverse();
        Ok(Self {
            functions: spec.aggregates.iter().map(|a| a.function).collect(),
            groups,
            current: None,
        })
    }

    /// Number of aggregate dimensions `p` of the produced rows.
    pub fn dims(&self) -> usize {
        self.functions.len()
    }

    /// The groups not yet started, in key order, each with the sweep that
    /// yields its rows: one key per group rather than one per row.
    pub(crate) fn into_groups(self) -> impl Iterator<Item = (GroupKey, GroupSweep)> {
        debug_assert!(self.current.is_none(), "a started group would be lost");
        let functions = self.functions;
        self.groups.into_iter().rev().map(move |(key, rows)| {
            let sweep = GroupSweep::new(rows, &functions);
            (key, sweep)
        })
    }
}

impl Iterator for StreamingIta {
    type Item = ItaRow;

    fn next(&mut self) -> Option<ItaRow> {
        loop {
            if let Some((key, sweep)) = &mut self.current {
                if let Some((interval, values)) = sweep.next_row() {
                    return Some(ItaRow { key: key.clone(), interval, values });
                }
                self.current = None;
            }
            let (key, rows) = self.groups.pop()?;
            let sweep = GroupSweep::new(rows, &self.functions);
            self.current = Some((key, sweep));
        }
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
