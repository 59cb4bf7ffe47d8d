//! Sequential relations: the compact form of an ITA result.
//!
//! A (temporal) relation is *sequential* when, within each aggregation
//! group, tuple timestamps never intersect (§3). Every ITA result is
//! sequential, and PTA preserves sequentiality because it only merges
//! *adjacent* tuples (Def. 2): same group, no temporal gap.
//!
//! [`SequentialRelation`] stores the `n` tuples sorted by group and,
//! within each group, chronologically; the `p` aggregate values per tuple
//! live in one row-major `n × p` buffer, which keeps prefix-sum
//! construction (§5.2) and merging cache-friendly.

use std::fmt;
use std::ops::Range;

use crate::error::TemporalError;
use crate::group::{GroupId, GroupInterner, GroupKey};
use crate::interval::TimeInterval;

/// Group id and timestamp of one sequential-relation tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqEntry {
    /// The tuple's aggregation group.
    pub group: GroupId,
    /// The tuple's timestamp.
    pub interval: TimeInterval,
}

/// An ITA-result-shaped relation: tuples sorted by aggregation group and
/// chronologically within groups, with `p` numeric aggregate values each.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialRelation {
    p: usize,
    entries: Vec<SeqEntry>,
    values: Vec<f64>,
    group_keys: Vec<GroupKey>,
}

impl SequentialRelation {
    /// Creates an empty relation with `p` aggregate dimensions and a single
    /// anonymous group.
    pub fn empty(p: usize) -> Self {
        Self { p, entries: Vec::new(), values: Vec::new(), group_keys: vec![GroupKey::empty()] }
    }

    /// Builds a single-group relation from a regular time series: row `t`
    /// becomes the tuple with timestamp `[t0 + t, t0 + t]` and the `p`
    /// values of that row. This is how the paper feeds UCR time-series data
    /// to PTA (§7.1: "we replace the timestamp by a validity interval of
    /// length one").
    pub fn from_time_series(p: usize, t0: i64, rows: &[f64]) -> Result<Self, TemporalError> {
        if p == 0 || !rows.len().is_multiple_of(p) {
            return Err(TemporalError::DimensionMismatch { got: rows.len(), expected: p.max(1) });
        }
        let mut b = SequentialBuilder::with_capacity(p, rows.len() / p);
        for (i, row) in rows.chunks_exact(p).enumerate() {
            b.push(GroupKey::empty(), TimeInterval::instant(t0 + i as i64)?, row)?;
        }
        Ok(b.build())
    }

    /// Number of tuples `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the relation has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of aggregate dimensions `p`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.p
    }

    /// Group id and timestamp of tuple `i`.
    #[inline]
    pub fn entry(&self, i: usize) -> SeqEntry {
        self.entries[i]
    }

    /// All entries, in (group, time) order.
    #[inline]
    pub fn entries(&self) -> &[SeqEntry] {
        &self.entries
    }

    /// The timestamp of tuple `i`.
    #[inline]
    pub fn interval(&self, i: usize) -> TimeInterval {
        self.entries[i].interval
    }

    /// The group id of tuple `i`.
    #[inline]
    pub fn group(&self, i: usize) -> GroupId {
        self.entries[i].group
    }

    /// The `p` aggregate values of tuple `i`.
    #[inline]
    pub fn values(&self, i: usize) -> &[f64] {
        &self.values[i * self.p..(i + 1) * self.p]
    }

    /// Aggregate value `d` of tuple `i`.
    #[inline]
    pub fn value(&self, i: usize, d: usize) -> f64 {
        self.values[i * self.p + d]
    }

    /// The raw row-major `n × p` value buffer.
    #[inline]
    pub fn raw_values(&self) -> &[f64] {
        &self.values
    }

    /// The interned group keys, indexed by [`GroupId`].
    pub fn group_keys(&self) -> &[GroupKey] {
        &self.group_keys
    }

    /// The key of group `id`.
    pub fn group_key(&self, id: GroupId) -> Result<&GroupKey, TemporalError> {
        self.group_keys.get(id as usize).ok_or(TemporalError::UnknownGroup(id))
    }

    /// Are tuples `i` and `i + 1` adjacent (`s_i ≺ s_{i+1}`, Def. 2)?
    ///
    /// Adjacent means: same aggregation group and `s_i.te + 1 = s_{i+1}.tb`.
    /// Only adjacent tuples may be merged by PTA.
    #[inline]
    pub fn adjacent(&self, i: usize) -> bool {
        debug_assert!(i + 1 < self.entries.len());
        let (a, b) = (&self.entries[i], &self.entries[i + 1]);
        a.group == b.group && a.interval.meets(&b.interval)
    }

    /// The paper's gap vector `G`: the 0-based indices `i` such that tuples
    /// `i` and `i + 1` are *not* adjacent, in increasing order. (The paper
    /// stores 1-based positions `l` with `s_l ⊀ s_{l+1}`; our index `i`
    /// equals `l − 1`.)
    pub fn gap_vector(&self) -> Vec<usize> {
        (0..self.entries.len().saturating_sub(1)).filter(|&i| !self.adjacent(i)).collect()
    }

    /// The smallest size any reduction can reach: `cmin = |s| − #adjacent
    /// pairs`, equivalently the number of maximal runs of adjacent tuples.
    pub fn cmin(&self) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        self.gap_vector().len() + 1
    }

    /// The maximal runs of pairwise-adjacent tuples ("segments"), as index
    /// ranges. Merging never crosses a segment boundary.
    pub fn segments(&self) -> Vec<Range<usize>> {
        let n = self.entries.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut start = 0;
        for i in 0..n - 1 {
            if !self.adjacent(i) {
                out.push(start..i + 1);
                start = i + 1;
            }
        }
        out.push(start..n);
        out
    }

    /// Sum of tuple timestamp lengths — the number of (group, chronon)
    /// cells the relation covers. This weights the SSE error measure.
    pub fn total_duration(&self) -> u64 {
        self.entries.iter().map(|e| e.interval.len()).sum()
    }

    /// Clones the tuple range `range` into a new relation. The whole group
    /// table is cloned with it, so the slice keeps the source's group ids
    /// and the keys of groups outside `range`. Used by the evaluation to
    /// carve fixed-size subsets out of a dataset as the paper does in
    /// Figs. 14(b) and 18.
    pub fn slice(&self, range: Range<usize>) -> SequentialRelation {
        SequentialRelation {
            p: self.p,
            entries: self.entries[range.clone()].to_vec(),
            values: self.values[range.start * self.p..range.end * self.p].to_vec(),
            group_keys: self.group_keys.clone(),
        }
    }

    /// Checks the sequentiality invariant over the stored entries, returning
    /// the first violation. `O(n)`; intended for tests and debug assertions.
    pub fn validate(&self) -> Result<(), TemporalError> {
        for i in 1..self.entries.len() {
            let (a, b) = (&self.entries[i - 1], &self.entries[i]);
            if b.group < a.group {
                return Err(TemporalError::NonSequential {
                    index: i,
                    reason: format!("group {} follows group {}", b.group, a.group),
                });
            }
            if b.group == a.group && b.interval.start() <= a.interval.end() {
                return Err(TemporalError::NonSequential {
                    index: i,
                    reason: format!(
                        "interval {} starts before predecessor {} ends",
                        b.interval, a.interval
                    ),
                });
            }
        }
        for (i, e) in self.entries.iter().enumerate() {
            if e.group as usize >= self.group_keys.len() {
                return Err(TemporalError::NonSequential {
                    index: i,
                    reason: format!("group id {} has no interned key", e.group),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for SequentialRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sequential relation: n = {}, p = {}", self.len(), self.p)?;
        for i in 0..self.len() {
            let e = &self.entries[i];
            write!(f, "  {} ", self.group_keys[e.group as usize])?;
            for d in 0..self.p {
                write!(f, "{:.2} ", self.value(i, d))?;
            }
            writeln!(f, "{}", e.interval)?;
        }
        Ok(())
    }
}

/// Incremental builder enforcing the sequential-relation invariant.
///
/// Rows must arrive sorted: all rows of one group consecutively (groups in
/// ascending id order, which is first-seen order for interned keys) and
/// chronologically, without overlaps, within each group. This is exactly
/// the order ITA produces.
///
/// Rows enter by key ([`SequentialBuilder::push`]) or by the id of a key
/// already in the builder's table ([`SequentialBuilder::push_id`], after
/// [`SequentialBuilder::intern`] or [`SequentialBuilder::with_groups`]).
/// A key is hashed only when it differs from the previous row's key.
#[derive(Debug)]
pub struct SequentialBuilder {
    p: usize,
    entries: Vec<SeqEntry>,
    values: Vec<f64>,
    groups: GroupInterner,
}

impl SequentialBuilder {
    /// Creates a builder for `p`-dimensional rows.
    pub fn new(p: usize) -> Self {
        Self::with_capacity(p, 0)
    }

    /// Pre-allocates room for `n` rows.
    pub fn with_capacity(p: usize, n: usize) -> Self {
        Self::with_groups(p, n, GroupInterner::new())
    }

    /// A builder for `n` rows over an existing key table, whose ids rows
    /// may name through [`SequentialBuilder::push_id`]. The table moves
    /// into the built relation as it is.
    pub fn with_groups(p: usize, n: usize, groups: GroupInterner) -> Self {
        Self { p, entries: Vec::with_capacity(n), values: Vec::with_capacity(n * p), groups }
    }

    /// The id of `key` in the builder's table, interning it on first
    /// sight.
    pub fn intern(&mut self, key: GroupKey) -> GroupId {
        self.groups.intern(key)
    }

    /// Appends one row of group `key`. Fails when the dimensionality,
    /// value finiteness or the (group, time) ordering invariant is
    /// violated.
    pub fn push(
        &mut self,
        key: GroupKey,
        interval: TimeInterval,
        values: &[f64],
    ) -> Result<(), TemporalError> {
        let group = match self.entries.last() {
            Some(last) if self.groups.key(last.group) == Some(&key) => last.group,
            _ => {
                self.check_values(values)?;
                self.groups.intern(key)
            }
        };
        self.push_id(group, interval, values)
    }

    /// Appends one row of the group with id `group`. Fails like
    /// [`SequentialBuilder::push`], and when the id is not in the table.
    pub fn push_id(
        &mut self,
        group: GroupId,
        interval: TimeInterval,
        values: &[f64],
    ) -> Result<(), TemporalError> {
        self.check_values(values)?;
        let index = self.entries.len();
        let Some(key) = self.groups.key(group) else {
            return Err(TemporalError::UnknownGroup(group));
        };
        if let Some(last) = self.entries.last() {
            if group < last.group {
                return Err(TemporalError::NonSequential {
                    index,
                    reason: format!("group {key} reappears after another group"),
                });
            }
            if group == last.group && interval.start() <= last.interval.end() {
                return Err(TemporalError::NonSequential {
                    index,
                    reason: format!(
                        "interval {} starts before predecessor {} ends",
                        interval, last.interval
                    ),
                });
            }
        }
        self.entries.push(SeqEntry { group, interval });
        self.values.extend_from_slice(values);
        Ok(())
    }

    fn check_values(&self, values: &[f64]) -> Result<(), TemporalError> {
        if values.len() != self.p {
            return Err(TemporalError::DimensionMismatch { got: values.len(), expected: self.p });
        }
        match values.iter().position(|v| !v.is_finite()) {
            Some(d) => Err(TemporalError::NonFiniteValue {
                context: format!("row {}, dimension {d}", self.entries.len()),
            }),
            None => Ok(()),
        }
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finalises the relation. Its key table is the builder's: without
    /// rows or keys it is empty, so the relation names no groups.
    pub fn build(self) -> SequentialRelation {
        SequentialRelation {
            p: self.p,
            entries: self.entries,
            values: self.values,
            group_keys: self.groups.into_keys(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn key(s: &str) -> GroupKey {
        GroupKey::new(vec![Value::str(s)])
    }

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    /// The ITA result of the paper's running example, Fig. 1(c).
    fn fig1c() -> SequentialRelation {
        let mut b = SequentialBuilder::new(1);
        b.push(key("A"), iv(1, 2), &[800.0]).unwrap();
        b.push(key("A"), iv(3, 3), &[600.0]).unwrap();
        b.push(key("A"), iv(4, 4), &[500.0]).unwrap();
        b.push(key("A"), iv(5, 6), &[350.0]).unwrap();
        b.push(key("A"), iv(7, 7), &[300.0]).unwrap();
        b.push(key("B"), iv(4, 5), &[500.0]).unwrap();
        b.push(key("B"), iv(7, 8), &[500.0]).unwrap();
        b.build()
    }

    #[test]
    fn running_example_shape() {
        let s = fig1c();
        assert_eq!(s.len(), 7);
        assert_eq!(s.dims(), 1);
        s.validate().unwrap();
        // Example 2: s1 ≺ s2 ≺ s3 ≺ s4 ≺ s5, s5 ⊀ s6, s6 ⊀ s7.
        assert!(s.adjacent(0) && s.adjacent(1) && s.adjacent(2) && s.adjacent(3));
        assert!(!s.adjacent(4) && !s.adjacent(5));
        // Example 13: G = <5, 6> in 1-based positions = <4, 5> 0-based.
        assert_eq!(s.gap_vector(), vec![4, 5]);
        // Running example: cmin = 7 − 4 = 3.
        assert_eq!(s.cmin(), 3);
        assert_eq!(s.segments(), vec![0..5, 5..6, 6..7]);
        assert_eq!(s.total_duration(), 2 + 1 + 1 + 2 + 1 + 2 + 2);
    }

    #[test]
    fn builder_rejects_wrong_dimension() {
        let mut b = SequentialBuilder::new(2);
        let err = b.push(key("A"), iv(1, 2), &[1.0]).unwrap_err();
        assert!(matches!(err, TemporalError::DimensionMismatch { got: 1, expected: 2 }));
    }

    #[test]
    fn builder_rejects_non_finite() {
        let mut b = SequentialBuilder::new(1);
        assert!(b.push(key("A"), iv(1, 2), &[f64::NAN]).is_err());
    }

    #[test]
    fn builder_rejects_overlap_within_group() {
        let mut b = SequentialBuilder::new(1);
        b.push(key("A"), iv(1, 4), &[1.0]).unwrap();
        let err = b.push(key("A"), iv(4, 6), &[2.0]).unwrap_err();
        assert!(matches!(err, TemporalError::NonSequential { index: 1, .. }));
    }

    #[test]
    fn builder_rejects_group_interleaving() {
        let mut b = SequentialBuilder::new(1);
        b.push(key("A"), iv(1, 2), &[1.0]).unwrap();
        b.push(key("B"), iv(1, 2), &[1.0]).unwrap();
        let err = b.push(key("A"), iv(3, 4), &[1.0]).unwrap_err();
        assert!(matches!(err, TemporalError::NonSequential { index: 2, .. }));
    }

    #[test]
    fn id_entry_rejects_group_interleaving() {
        let mut b = SequentialBuilder::new(1);
        let (a, bb) = (b.intern(key("A")), b.intern(key("B")));
        b.push_id(a, iv(1, 2), &[1.0]).unwrap();
        b.push_id(bb, iv(1, 2), &[1.0]).unwrap();
        let err = b.push_id(a, iv(3, 4), &[1.0]).unwrap_err();
        assert!(matches!(err, TemporalError::NonSequential { index: 2, .. }), "{err}");
        assert!(err.to_string().contains("(A) reappears"), "{err}");
    }

    #[test]
    fn id_entry_rejects_overlap_non_finite_and_unknown_ids() {
        let mut b = SequentialBuilder::with_groups(1, 2, GroupInterner::from_keys(vec![key("A")]));
        b.push_id(0, iv(1, 4), &[1.0]).unwrap();
        let err = b.push_id(0, iv(4, 6), &[2.0]).unwrap_err();
        assert!(matches!(err, TemporalError::NonSequential { index: 1, .. }));
        assert!(matches!(
            b.push_id(0, iv(5, 6), &[f64::INFINITY]),
            Err(TemporalError::NonFiniteValue { .. })
        ));
        assert!(matches!(b.push_id(1, iv(5, 6), &[1.0]), Err(TemporalError::UnknownGroup(1))));
        b.push_id(0, iv(5, 6), &[2.0]).unwrap();
        let s = b.build();
        assert_eq!(s.len(), 2);
        s.validate().unwrap();
    }

    #[test]
    fn key_and_id_entries_share_one_table() {
        let mut b = SequentialBuilder::new(1);
        b.push(key("A"), iv(1, 2), &[1.0]).unwrap();
        let bb = b.intern(key("B"));
        assert_eq!(bb, 1);
        b.push_id(bb, iv(1, 2), &[2.0]).unwrap();
        b.push(key("B"), iv(3, 3), &[3.0]).unwrap();
        assert!(b.push(key("A"), iv(9, 9), &[1.0]).is_err());
        let s = b.build();
        assert_eq!(s.group_keys(), &[key("A"), key("B")]);
        assert_eq!(s.group(2), 1);
    }

    #[test]
    fn a_builder_without_rows_names_no_groups() {
        let s = SequentialBuilder::new(2).build();
        assert!(s.is_empty());
        assert!(s.group_keys().is_empty());
        s.validate().unwrap();
    }

    #[test]
    fn builder_allows_gaps_and_touching_values() {
        let mut b = SequentialBuilder::new(1);
        b.push(key("A"), iv(1, 2), &[1.0]).unwrap();
        b.push(key("A"), iv(5, 6), &[1.0]).unwrap();
        let s = b.build();
        assert!(!s.adjacent(0));
        assert_eq!(s.cmin(), 2);
    }

    #[test]
    fn time_series_construction() {
        let s = SequentialRelation::from_time_series(2, 10, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.interval(0), iv(10, 10));
        assert_eq!(s.interval(1), iv(11, 11));
        assert_eq!(s.values(1), &[3.0, 4.0]);
        assert!(s.adjacent(0));
        assert!(SequentialRelation::from_time_series(2, 0, &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn slicing_preserves_values() {
        let s = fig1c();
        let t = s.slice(2..5);
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(0, 0), 500.0);
        assert_eq!(t.interval(2), iv(7, 7));
        t.validate().unwrap();
    }

    #[test]
    fn empty_relation() {
        let s = SequentialRelation::empty(3);
        assert_eq!(s.len(), 0);
        assert_eq!(s.cmin(), 0);
        assert!(s.segments().is_empty());
        s.validate().unwrap();
    }
}
