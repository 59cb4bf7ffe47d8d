//! Reduction results: a reduced relation plus provenance and error.

use std::ops::Range;

use pta_temporal::{
    GroupInterner, SequentialBuilder, SequentialRelation, TemporalError, TimeInterval,
};

use crate::error::CoreError;
use crate::policy::GapPolicy;
use crate::prefix::PrefixStats;
use crate::sse::{merged_value_naive, sse_of_range_naive};
use crate::weights::Weights;

/// The result of reducing an ITA relation: the merged relation `z`, the
/// contiguous source range each output tuple was merged from, and the total
/// SSE introduced (Def. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    relation: SequentialRelation,
    source_ranges: Vec<Range<usize>>,
    sse: f64,
}

impl Reduction {
    /// Builds a reduction from ascending partition boundaries: prefix
    /// lengths `0 = b_0 < b_1 < ... < b_k = n`, where output tuple `t`
    /// merges input tuples `b_t..b_{t+1}`.
    ///
    /// Every range must lie within one maximal adjacent run (merging across
    /// gaps or groups is undefined); violations return an error.
    pub fn from_boundaries(
        input: &SequentialRelation,
        weights: &Weights,
        stats: &PrefixStats,
        boundaries: &[usize],
    ) -> Result<Self, CoreError> {
        Self::from_boundaries_with_policy(input, weights, stats, boundaries, GapPolicy::Strict)
    }

    /// [`Reduction::from_boundaries`] validating mergeability under a
    /// policy — ranges may bridge holes a [`GapPolicy::Tolerate`] admits.
    pub fn from_boundaries_with_policy(
        input: &SequentialRelation,
        weights: &Weights,
        stats: &PrefixStats,
        boundaries: &[usize],
        policy: GapPolicy,
    ) -> Result<Self, CoreError> {
        let n = input.len();
        debug_assert_eq!(boundaries.first().copied(), Some(0));
        debug_assert_eq!(boundaries.last().copied(), Some(n));
        let p = input.dims();
        let groups = GroupInterner::from_keys(input.group_keys().to_vec());
        let mut builder = SequentialBuilder::with_groups(p, boundaries.len() - 1, groups);
        let mut source_ranges = Vec::with_capacity(boundaries.len() - 1);
        let mut values = vec![0.0; p];
        let mut sse = 0.0;
        for w in boundaries.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            debug_assert!(lo < hi && hi <= n);
            for i in lo..hi - 1 {
                if !policy.mergeable(input, i) {
                    return Err(CoreError::Temporal(TemporalError::NonSequential {
                        index: i,
                        reason: "reduction range crosses a gap or group boundary".into(),
                    }));
                }
            }
            let group = input.group(lo);
            let interval =
                TimeInterval::new(input.interval(lo).start(), input.interval(hi - 1).end())?;
            stats.merged_values(lo..hi, &mut values);
            sse += stats.range_sse(weights, lo..hi);
            builder.push_id(group, interval, &values)?;
            source_ranges.push(lo..hi);
        }
        Ok(Self { relation: builder.build(), source_ranges, sse })
    }

    /// The identity reduction: every tuple kept, SSE 0. Returned when the
    /// size bound is at least the input size.
    pub fn identity(input: &SequentialRelation) -> Self {
        let n = input.len();
        Self {
            relation: input.clone(),
            source_ranges: (0..n).map(|i| i..i + 1).collect(),
            sse: 0.0,
        }
    }

    /// Assembles a reduction from its parts (used by the greedy
    /// algorithms, which track merged tuples incrementally): the reduced
    /// relation, one contiguous source range per output tuple in ascending
    /// order, and the accumulated merge error.
    pub(crate) fn new(
        relation: SequentialRelation,
        source_ranges: Vec<Range<usize>>,
        sse: f64,
    ) -> Self {
        debug_assert_eq!(relation.len(), source_ranges.len());
        Self { relation, source_ranges, sse }
    }

    /// The reduced relation `z`. Offline runs (the DP and the greedy
    /// `run*` functions) give it the input's key table, so its group ids
    /// are the input's, and a reduction over a slice carries the keys of
    /// every group in the slice's table. The streaming `push` entry points
    /// intern keys in arrival order instead.
    pub fn relation(&self) -> &SequentialRelation {
        &self.relation
    }

    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// Whether the reduction is empty.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// For each output tuple, the half-open range of input tuple indices it
    /// merges (the set `s_z` of Def. 5).
    pub fn source_ranges(&self) -> &[Range<usize>] {
        &self.source_ranges
    }

    /// The total SSE introduced by the reduction, as tracked by the
    /// producing algorithm.
    pub fn sse(&self) -> f64 {
        self.sse
    }

    /// Recomputes `SSE(s, z)` naively from the source relation — `O(n·p)`.
    /// Tests use this to confirm the tracked error is consistent.
    pub fn recompute_sse(&self, input: &SequentialRelation, weights: &Weights) -> f64 {
        let mut total = 0.0;
        for range in &self.source_ranges {
            let merged = merged_value_naive(input, range.clone());
            total += sse_of_range_naive(input, weights, range.clone(), &merged);
        }
        total
    }

    /// Consumes the reduction, returning the reduced relation.
    pub fn into_relation(self) -> SequentialRelation {
        self.relation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_temporal::{GroupKey, Value};

    fn fig1c() -> SequentialRelation {
        let mut b = SequentialBuilder::new(1);
        let rows = [
            ("A", 1, 2, 800.0),
            ("A", 3, 3, 600.0),
            ("A", 4, 4, 500.0),
            ("A", 5, 6, 350.0),
            ("A", 7, 7, 300.0),
            ("B", 4, 5, 500.0),
            ("B", 7, 8, 500.0),
        ];
        for (g, a, bb, v) in rows {
            b.push(GroupKey::new(vec![Value::str(g)]), TimeInterval::new(a, bb).unwrap(), &[v])
                .unwrap();
        }
        b.build()
    }

    /// The optimal size-4 reduction of the running example (Fig. 1(d)):
    /// z1 = s1 ⊕ s2 = (A, 733.33, [1,3]), z2 = s3 ⊕ s4 ⊕ s5 = (A, 375, [4,7]),
    /// z3 = s6, z4 = s7; total error 49 166.
    #[test]
    fn fig_1d_reduction() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let stats = PrefixStats::build(&input);
        let r = Reduction::from_boundaries(&input, &w, &stats, &[0, 2, 5, 6, 7]).unwrap();
        assert_eq!(r.len(), 4);
        let z = r.relation();
        assert!((z.value(0, 0) - 733.333_333).abs() < 1e-4);
        assert_eq!(z.interval(0), TimeInterval::new(1, 3).unwrap());
        assert!((z.value(1, 0) - 375.0).abs() < 1e-9);
        assert_eq!(z.interval(1), TimeInterval::new(4, 7).unwrap());
        assert_eq!(z.value(2, 0), 500.0);
        assert_eq!(z.value(3, 0), 500.0);
        assert!((r.sse() - 49_166.666_667).abs() < 1e-3);
        assert!((r.recompute_sse(&input, &w) - r.sse()).abs() < 1e-6);
        z.validate().unwrap();
    }

    #[test]
    fn ranges_crossing_breaks_are_rejected() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let stats = PrefixStats::build(&input);
        // 0..6 spans the group boundary between s5 and s6.
        let r = Reduction::from_boundaries(&input, &w, &stats, &[0, 6, 7]);
        assert!(matches!(r, Err(CoreError::Temporal(_))));
    }

    #[test]
    fn identity_reduction_has_zero_error() {
        let input = fig1c();
        let r = Reduction::identity(&input);
        assert_eq!(r.len(), input.len());
        assert_eq!(r.sse(), 0.0);
        assert_eq!(r.recompute_sse(&input, &Weights::uniform(1)), 0.0);
        assert_eq!(r.source_ranges()[3], 3..4);
    }

    /// Fig. 9's greedy reduction to 4 tuples has error 63 000 — a valid but
    /// sub-optimal partition; from_boundaries reproduces its error.
    #[test]
    fn fig_9_greedy_partition_error() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let stats = PrefixStats::build(&input);
        let r = Reduction::from_boundaries(&input, &w, &stats, &[0, 1, 5, 6, 7]).unwrap();
        assert!((r.sse() - 63_000.0).abs() < 1e-6, "got {}", r.sse());
        // z2 = s2 ⊕ s3 ⊕ s4 ⊕ s5 = (A, 420, [3, 7]).
        assert!((r.relation().value(1, 0) - 420.0).abs() < 1e-9);
    }
}
