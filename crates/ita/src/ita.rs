//! Eager instant temporal aggregation (Def. 1).

use pta_temporal::{
    GroupId, GroupInterner, SequentialBuilder, SequentialRelation, TemporalRelation,
};

use crate::aggregate::AggregateSpec;
use crate::error::ItaError;
use crate::partition::Partition;

/// An ITA query: grouping attributes `A` and aggregate functions `F`.
#[derive(Debug, Clone, PartialEq)]
pub struct ItaQuerySpec {
    /// Names of the grouping attributes `A = {A1, ..., Ak}` (may be empty:
    /// one global group).
    pub grouping: Vec<String>,
    /// The aggregate functions `F = {f1/B1, ..., fp/Bp}`.
    pub aggregates: Vec<AggregateSpec>,
}

impl ItaQuerySpec {
    /// Creates a spec from grouping-attribute names and aggregates.
    pub fn new(grouping: &[&str], aggregates: Vec<AggregateSpec>) -> Self {
        Self { grouping: grouping.iter().map(|s| s.to_string()).collect(), aggregates }
    }
}

/// Instant temporal aggregation `ᴳITA[A, F] r` (Def. 1).
///
/// For each combination of grouping values `g` and each time instant `t`,
/// the aggregates are evaluated over all tuples with `r.A = g` whose
/// timestamp contains `t`; value-equivalent results over consecutive
/// instants are coalesced into maximal intervals. The result is a
/// [`SequentialRelation`] with one dimension per aggregate, sorted by group
/// and chronologically within groups — the input format of PTA.
///
/// Cost: one sort of the `n` row indices by their grouping values, then a
/// sweep per group that sorts the group's `2·n_g` endpoints and updates
/// incremental accumulators, so `O(n log n)` overall; `min`/`max` add an
/// `O(log n)` multiset factor. The key table is built once per group and
/// moves into the result as it is.
pub fn ita(
    relation: &TemporalRelation,
    spec: &ItaQuerySpec,
) -> Result<SequentialRelation, ItaError> {
    let mut part = Partition::for_query(relation, spec)?;
    let mut sweep = part.sweep();
    let groups = GroupInterner::from_keys(part.take_keys());
    let mut builder = SequentialBuilder::with_groups(part.dims(), relation.len() * 2, groups);
    for g in 0..part.groups() {
        sweep.run(&part, g, |interval, values| builder.push_id(g as GroupId, interval, values))?;
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;
    use pta_temporal::{DataType, Schema, TimeInterval, Value};

    fn proj() -> TemporalRelation {
        crate::stream::tests::proj()
    }

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn fig_1c_average_salary_per_project() {
        let spec = ItaQuerySpec::new(&["Proj"], vec![AggregateSpec::avg("Sal")]);
        let s = ita(&proj(), &spec).unwrap();
        assert_eq!(s.len(), 7);
        s.validate().unwrap();
        assert_eq!(s.cmin(), 3);
        let vals: Vec<f64> = (0..7).map(|i| s.value(i, 0)).collect();
        assert_eq!(vals, vec![800.0, 600.0, 500.0, 350.0, 300.0, 500.0, 500.0]);
        assert_eq!(s.interval(3), iv(5, 6));
        assert_eq!(s.group_key(s.group(5)).unwrap().values(), &[Value::str("B")]);
    }

    #[test]
    fn multiple_aggregates_in_one_pass() {
        let spec = ItaQuerySpec::new(
            &["Proj"],
            vec![
                AggregateSpec::min("Sal"),
                AggregateSpec::max("Sal"),
                AggregateSpec::count(),
                AggregateSpec::sum("Sal"),
            ],
        );
        let s = ita(&proj(), &spec).unwrap();
        assert_eq!(s.dims(), 4);
        // Month 4, project A: salaries {800, 400, 300}.
        let i = (0..s.len()).find(|&i| s.interval(i).contains_point(4) && s.group(i) == 0).unwrap();
        assert_eq!(s.values(i), &[300.0, 800.0, 3.0, 1500.0]);
    }

    #[test]
    fn no_grouping_merges_everything() {
        let spec = ItaQuerySpec::new(&[], vec![AggregateSpec::count()]);
        let s = ita(&proj(), &spec).unwrap();
        s.validate().unwrap();
        // Counts over months 1..8: 1,1,2,4,3,2,2,1 coalesced:
        // [1,2]=1, [3,3]=2, [4,4]=4, [5,5]=3, [6,7]=2, [8,8]=1.
        let expected =
            [(1, 2, 1.0), (3, 3, 2.0), (4, 4, 4.0), (5, 5, 3.0), (6, 7, 2.0), (8, 8, 1.0)];
        assert_eq!(s.len(), expected.len());
        for (i, (a, b, v)) in expected.iter().enumerate() {
            assert_eq!(s.interval(i), iv(*a, *b));
            assert_eq!(s.value(i, 0), *v);
        }
    }

    #[test]
    fn gaps_are_preserved() {
        let schema = Schema::of(&[("K", DataType::Str), ("V", DataType::Int)]).unwrap();
        let rel = TemporalRelation::from_rows(
            schema,
            [
                (vec![Value::str("x"), Value::Int(1)], iv(1, 2)),
                (vec![Value::str("x"), Value::Int(1)], iv(10, 11)),
            ],
        )
        .unwrap();
        let s = ita(&rel, &ItaQuerySpec::new(&[], vec![AggregateSpec::sum("V")])).unwrap();
        assert_eq!(s.len(), 2);
        assert!(!s.adjacent(0));
        assert_eq!(s.cmin(), 2);
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let schema = Schema::of(&[("V", DataType::Int)]).unwrap();
        let rel = TemporalRelation::new(schema);
        let s = ita(&rel, &ItaQuerySpec::new(&[], vec![AggregateSpec::sum("V")])).unwrap();
        assert!(s.is_empty());
    }

    /// The ITA result of `n` tuples has at most `2n − 1` tuples (§3).
    #[test]
    fn result_size_bound_holds_on_overlapping_input() {
        let schema = Schema::of(&[("V", DataType::Int)]).unwrap();
        let mut rel = TemporalRelation::new(schema);
        // Nested intervals force a change point at every endpoint.
        let n = 20;
        for i in 0..n {
            rel.push(vec![Value::Int(i)], iv(i, 2 * n - i)).unwrap();
        }
        let s = ita(&rel, &ItaQuerySpec::new(&[], vec![AggregateSpec::avg("V")])).unwrap();
        assert!(s.len() < 2 * n as usize, "|ITA| = {} > 2n-1", s.len());
        s.validate().unwrap();
    }
}
