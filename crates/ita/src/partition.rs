//! The group partition and per-group sweep behind [`fn@crate::ita`],
//! [`crate::StreamingIta`] and [`fn@crate::sta`].
//!
//! [`Partition::new`] reads the argument relation once into flat buffers:
//! the rows' argument values (`n × p`, row-major) and timestamps in input
//! order, and the row indices in group order. That order comes from one
//! stable sort of the row indices by a code per grouping value, a `u64`
//! whose order within a column is `Value::cmp`'s (`Int`, `Float` and
//! `Bool` by bit transforms, `Str` by rank among the column's distinct
//! strings), so each group keeps its rows in input order. Each group's
//! [`GroupKey`] is built once, from its first row.
//!
//! [`Sweep`] evaluates the ITA of one group at a time. Its event buffer,
//! accumulators and pending-row buffer are reused from group to group, so
//! a sweep allocates nothing per row.

use std::collections::HashMap;

use pta_temporal::{Chronon, GroupKey, Schema, TemporalRelation, TimeInterval, Value};

use crate::aggregate::{Accumulator, AggregateFunction, AggregateSpec};
use crate::error::ItaError;
use crate::ita::ItaQuerySpec;

/// A query's columns resolved against a schema: the grouping columns,
/// and the argument column of each aggregate (`None` for `count(*)`).
#[derive(Debug)]
pub(crate) struct Columns {
    group: Vec<usize>,
    args: Vec<Option<usize>>,
    functions: Vec<AggregateFunction>,
}

impl Columns {
    /// Resolves `grouping` and the aggregates' arguments. Fails when the
    /// aggregate list is empty or an attribute is unknown.
    pub(crate) fn resolve(
        schema: &Schema,
        grouping: &[&str],
        aggregates: &[AggregateSpec],
    ) -> Result<Self, ItaError> {
        if aggregates.is_empty() {
            return Err(ItaError::no_aggregates());
        }
        let group = schema.indices_of(grouping)?;
        let mut args = Vec::with_capacity(aggregates.len());
        for agg in aggregates {
            if agg.function == AggregateFunction::Count && agg.attribute == "*" {
                args.push(None);
            } else {
                args.push(Some(schema.index_of(&agg.attribute)?));
            }
        }
        Ok(Self { group, args, functions: aggregates.iter().map(|a| a.function).collect() })
    }
}

/// The argument relation partitioned by group, in ascending key order.
#[derive(Debug)]
pub(crate) struct Partition {
    functions: Vec<AggregateFunction>,
    /// Argument values, `p` per row, in input order. `count(*)` reads
    /// `0.0`.
    args: Vec<f64>,
    /// Timestamps, in input order.
    intervals: Vec<TimeInterval>,
    /// Row indices in group order, input order within a group.
    order: Vec<usize>,
    /// Group `g` holds rows `order[starts[g]..starts[g + 1]]`.
    starts: Vec<usize>,
    keys: Vec<GroupKey>,
}

impl Partition {
    /// The partition an ITA query sweeps.
    pub(crate) fn for_query(
        relation: &TemporalRelation,
        spec: &ItaQuerySpec,
    ) -> Result<Self, ItaError> {
        let grouping: Vec<&str> = spec.grouping.iter().map(String::as_str).collect();
        Self::new(relation, &Columns::resolve(relation.schema(), &grouping, &spec.aggregates)?)
    }

    /// Partitions `relation` by the grouping columns. Fails on the first
    /// row, in input order, with a non-numeric aggregate argument.
    pub(crate) fn new(relation: &TemporalRelation, columns: &Columns) -> Result<Self, ItaError> {
        let (n, p, k) = (relation.len(), columns.args.len(), columns.group.len());
        let mut args = Vec::with_capacity(n * p);
        let mut intervals = Vec::with_capacity(n);
        let mut codes = Vec::with_capacity(n * k);
        let mut strings: Vec<StrRanks<'_>> =
            columns.group.iter().map(|_| StrRanks::default()).collect();
        for tuple in relation.iter() {
            for &col in &columns.args {
                args.push(match col {
                    None => 0.0,
                    Some(i) => tuple.value(i).as_f64().ok_or_else(|| {
                        let attribute = relation.schema().attribute(i).name().to_string();
                        ItaError::NonNumericAggregate { attribute }
                    })?,
                });
            }
            intervals.push(tuple.interval());
            // A column holds values of its schema type only (checked by
            // `TemporalRelation::push`), so one column's codes compare
            // values of one type.
            for (&col, ranks) in columns.group.iter().zip(&mut strings) {
                codes.push(match tuple.value(col) {
                    Value::Int(v) => (*v as u64) ^ (1 << 63),
                    Value::Float(v) => float_code(*v),
                    Value::Bool(v) => u64::from(*v),
                    Value::Str(s) => ranks.id(s),
                });
            }
        }
        for (c, ranks) in strings.into_iter().enumerate() {
            ranks.into_ranks(&mut codes, c, k);
        }
        let (order, starts) = group_order(&codes, k, n);
        let tuples = relation.tuples();
        let keys = starts[..starts.len() - 1]
            .iter()
            .map(|&s| GroupKey::new(tuples[order[s]].project(&columns.group)))
            .collect();
        Ok(Self { functions: columns.functions.clone(), args, intervals, order, starts, keys })
    }

    /// Number of aggregate dimensions `p`.
    pub(crate) fn dims(&self) -> usize {
        self.functions.len()
    }

    /// Number of groups.
    pub(crate) fn groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// The group keys, indexed by group, in ascending order.
    pub(crate) fn keys(&self) -> &[GroupKey] {
        &self.keys
    }

    /// Moves the key table out, leaving the partition without keys.
    pub(crate) fn take_keys(&mut self) -> Vec<GroupKey> {
        std::mem::take(&mut self.keys)
    }

    /// The rows of group `g`, in input order.
    pub(crate) fn rows(&self, g: usize) -> &[usize] {
        &self.order[self.starts[g]..self.starts[g + 1]]
    }

    /// The timestamp of row `row`.
    pub(crate) fn interval(&self, row: usize) -> TimeInterval {
        self.intervals[row]
    }

    /// The `p` argument values of row `row`.
    pub(crate) fn args(&self, row: usize) -> &[f64] {
        let p = self.dims();
        &self.args[row * p..(row + 1) * p]
    }

    /// A sweep sized for this partition's aggregates.
    pub(crate) fn sweep(&self) -> Sweep {
        Sweep {
            events: Vec::new(),
            accumulators: self.functions.iter().map(|&f| Accumulator::for_function(f)).collect(),
            functions: self.functions.clone(),
            values: vec![0.0; self.dims()],
            pending: None,
            pending_values: vec![0.0; self.dims()],
        }
    }
}

/// The code of a float: its bits, with `-0.0` read as `0.0`, mapped so
/// that unsigned order is `f64::total_cmp`'s.
fn float_code(v: f64) -> u64 {
    let bits = if v == 0.0 { 0 } else { v.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Dense ids of a `Str` column's distinct strings in first-seen order,
/// turned into ranks once the column has been read.
#[derive(Default)]
struct StrRanks<'a> {
    ids: HashMap<&'a str, u64>,
}

impl<'a> StrRanks<'a> {
    fn id(&mut self, s: &'a str) -> u64 {
        let next = self.ids.len() as u64;
        *self.ids.entry(s).or_insert(next)
    }

    /// Replaces the ids of column `c` in the row-major `codes` of `k`
    /// columns by the ranks of their strings. A column without strings is
    /// left as it is.
    fn into_ranks(self, codes: &mut [u64], c: usize, k: usize) {
        if self.ids.is_empty() {
            return;
        }
        let mut distinct: Vec<(&str, u64)> = self.ids.into_iter().collect();
        distinct.sort_unstable();
        let mut rank = vec![0; distinct.len()];
        for (r, (_, id)) in distinct.iter().enumerate() {
            rank[*id as usize] = r as u64;
        }
        for code in codes.iter_mut().skip(c).step_by(k) {
            *code = rank[*code as usize];
        }
    }
}

/// The row indices in group order (ascending by their `k` codes, input
/// order within equal codes), and where each group starts in that order,
/// closed by `n`.
fn group_order(codes: &[u64], k: usize, n: usize) -> (Vec<usize>, Vec<usize>) {
    let code = |row: usize| &codes[row * k..(row + 1) * k];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| code(a).cmp(code(b)));
    let mut starts = vec![0];
    starts.extend((1..n).filter(|&i| code(order[i]) != code(order[i - 1])));
    if n > 0 {
        starts.push(n);
    }
    (order, starts)
}

/// The chronological sweep of one group at a time (Def. 1), with buffers
/// reused from group to group.
#[derive(Debug)]
pub(crate) struct Sweep {
    /// `(chronon, 2·row + end)`: row `row` starts (`end = 0`) or stops
    /// (`end = 1`) holding at the chronon. Sorting the pairs orders events
    /// by time, and events at one chronon as the rows appear in the input,
    /// each row's start before its end.
    events: Vec<(Chronon, usize)>,
    accumulators: Vec<Accumulator>,
    functions: Vec<AggregateFunction>,
    /// The aggregate values of the run being closed.
    values: Vec<f64>,
    /// The last closed run, awaiting coalescing with the next one.
    pending: Option<TimeInterval>,
    pending_values: Vec<f64>,
}

impl Sweep {
    /// Sweeps group `g` of `part`, passing each coalesced ITA tuple to
    /// `emit` in time order. Stops at `emit`'s first error.
    pub(crate) fn run<E>(
        &mut self,
        part: &Partition,
        g: usize,
        mut emit: impl FnMut(TimeInterval, &[f64]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.events.clear();
        for &row in part.rows(g) {
            let iv = part.interval(row);
            self.events.push((iv.start(), 2 * row));
            self.events.push((iv.end() + 1, 2 * row + 1));
        }
        self.events.sort_unstable();
        for (acc, &f) in self.accumulators.iter_mut().zip(&self.functions) {
            *acc = Accumulator::for_function(f);
        }
        self.pending = None;
        let (mut live, mut prev_t) = (0usize, 0);
        let mut e = 0;
        while e < self.events.len() {
            let t = self.events[e].0;
            if live > 0 {
                // pta-lint: allow(no-panic-in-lib) — events are sorted by
                // time and all of `prev_t`'s were consumed, so `prev_t < t`.
                let interval = TimeInterval::new(prev_t, t - 1).expect("prev_t < t");
                for (v, acc) in self.values.iter_mut().zip(&self.accumulators) {
                    // pta-lint: allow(no-panic-in-lib) — `live > 0` means
                    // every accumulator holds at least one value.
                    *v = acc.value().expect("live > 0 implies a defined aggregate");
                }
                self.close_run(interval, &mut emit)?;
            }
            while let Some(&(_, ev)) = self.events.get(e).filter(|(et, _)| *et == t) {
                let start = ev % 2 == 0;
                for (acc, &v) in self.accumulators.iter_mut().zip(part.args(ev / 2)) {
                    if start {
                        acc.insert(v);
                    } else {
                        acc.remove(v);
                    }
                }
                if start {
                    live += 1;
                } else {
                    live -= 1;
                }
                e += 1;
            }
            prev_t = t;
        }
        match self.pending.take() {
            Some(interval) => emit(interval, &self.pending_values),
            None => Ok(()),
        }
    }

    /// Coalescing step of Def. 1: the run in `values` extends the pending
    /// run when it meets it with equal values. Otherwise the pending run
    /// is complete and goes to `emit`, and the new run becomes pending.
    fn close_run<E>(
        &mut self,
        interval: TimeInterval,
        emit: &mut impl FnMut(TimeInterval, &[f64]) -> Result<(), E>,
    ) -> Result<(), E> {
        match &mut self.pending {
            Some(pending) if pending.meets(&interval) && self.pending_values == self.values => {
                *pending = pending.span(&interval);
                Ok(())
            }
            pending => {
                let done = pending.replace(interval);
                if let Some(done) = done {
                    emit(done, &self.pending_values)?;
                }
                self.pending_values.copy_from_slice(&self.values);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_temporal::{DataType, GroupKey};

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    /// Partitions `rows` by every column but the last, an `Int` argument.
    fn partition(types: &[DataType], rows: Vec<Vec<Value>>) -> (TemporalRelation, Partition) {
        let names: Vec<String> = (0..types.len()).map(|i| format!("c{i}")).collect();
        let mut attrs: Vec<(&str, DataType)> =
            names.iter().map(String::as_str).zip(types.iter().copied()).collect();
        attrs.push(("v", DataType::Int));
        let schema = Schema::of(&attrs).unwrap();
        let rel = TemporalRelation::from_rows(
            schema.clone(),
            rows.into_iter().enumerate().map(|(i, mut values)| {
                values.push(Value::Int(i as i64));
                (values, iv(i as i64, i as i64))
            }),
        )
        .unwrap();
        let grouping: Vec<&str> = names.iter().map(String::as_str).collect();
        let columns = Columns::resolve(&schema, &grouping, &[AggregateSpec::sum("v")]).unwrap();
        let part = Partition::new(&rel, &columns).unwrap();
        (rel, part)
    }

    /// Keys ascend strictly in `Value::cmp` order, each group holds
    /// exactly the rows with its key, and in input order.
    fn assert_partitioned(rel: &TemporalRelation, part: &Partition, k: usize) {
        let cols: Vec<usize> = (0..k).collect();
        assert!(part.keys().windows(2).all(|w| w[0] < w[1]), "{:?}", part.keys());
        let mut seen = vec![false; rel.len()];
        for (g, key) in part.keys().iter().enumerate() {
            let rows = part.rows(g);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "group {g} rows {rows:?}");
            for &row in rows {
                assert_eq!(&GroupKey::new(rel.tuples()[row].project(&cols)), key);
                seen[row] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn codes_order_each_type_as_value_cmp() {
        let ints = [7, i64::MIN, -1, 0, i64::MAX, -1, 3];
        let floats = [2.5, -0.0, -1e300, 1e-300, 0.0, -1e-300, f64::MAX, -2.5, 2.5];
        let strs = ["b", "", "é", "B", "ab", "a", "b"];
        let cases: [(DataType, Vec<Value>); 4] = [
            (DataType::Int, ints.iter().map(|&v| Value::Int(v)).collect()),
            (DataType::Float, floats.iter().map(|&v| Value::Float(v)).collect()),
            (DataType::Str, strs.iter().map(|&v| Value::str(v)).collect()),
            (DataType::Bool, [true, false, true].iter().map(|&v| Value::Bool(v)).collect()),
        ];
        for (dtype, values) in cases {
            let (rel, part) = partition(&[dtype], values.into_iter().map(|v| vec![v]).collect());
            assert_partitioned(&rel, &part, 1);
        }
    }

    #[test]
    fn negative_zero_joins_the_zero_group_under_its_first_key() {
        let (_, part) = partition(
            &[DataType::Float],
            vec![vec![Value::Float(-0.0)], vec![Value::Float(1.0)], vec![Value::Float(0.0)]],
        );
        assert_eq!(part.groups(), 2);
        assert_eq!(part.rows(0), &[0, 2]);
        assert!(matches!(part.keys()[0].values(), [Value::Float(z)] if z.is_sign_negative()));
    }

    #[test]
    fn multi_column_keys_order_lexicographically() {
        let rows = (0..40)
            .map(|i| {
                vec![
                    Value::str(["x", "a", "m"][i % 3]),
                    Value::Int([5, -5, i64::MAX][i % 4 % 3]),
                    Value::Bool(i % 5 == 0),
                ]
            })
            .collect();
        let (rel, part) = partition(&[DataType::Str, DataType::Int, DataType::Bool], rows);
        assert_partitioned(&rel, &part, 3);
    }

    #[test]
    fn sweep_coalesces_equal_runs_and_keeps_gaps() {
        let schema = Schema::of(&[("v", DataType::Int)]).unwrap();
        let rel = TemporalRelation::from_rows(
            schema.clone(),
            [(1, 1, 3), (1, 4, 6), (2, 5, 5), (1, 9, 9)]
                .into_iter()
                .map(|(v, a, b)| (vec![Value::Int(v)], iv(a, b))),
        )
        .unwrap();
        let columns = Columns::resolve(&schema, &[], &[AggregateSpec::max("v")]).unwrap();
        let part = Partition::new(&rel, &columns).unwrap();
        let mut sweep = part.sweep();
        let mut out = Vec::new();
        let Ok(()) = sweep.run(&part, 0, |interval, values| {
            out.push((interval, values.to_vec()));
            Ok::<(), std::convert::Infallible>(())
        });
        let expected = [(iv(1, 4), 1.0), (iv(5, 5), 2.0), (iv(6, 6), 1.0), (iv(9, 9), 1.0)]
            .map(|(i, v)| (i, vec![v]));
        assert_eq!(out, expected);
    }
}
