//! The per-group summary cache.
//!
//! At startup the server runs ITA once and splits the sequential result
//! into per-group series (ITA output is sorted by group, so each group is
//! one contiguous run). Each group lazily computes its **error curve**
//! (`optimal_error_curve`: optimal SSE for every output size `1..=kmax`
//! in one DP pass) on first use, under the *requesting* query's cancel
//! token — a curve that blows its requester's budget is **not** stored,
//! so a deadline failure never poisons the cache for later queries.
//!
//! Curves are capped at `GroupEntry::curve_depth` rows (the DP is
//! O(kmax · n²) in the worst case); queries beyond the cached depth fall
//! back to a direct bounded-DP run under the same token.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use pta_core::{
    error_threshold, max_error, optimal_error_curve_with_cancel, pta_error_bounded_with_opts,
    pta_size_bounded_with_opts, CancelToken, DpOptions, DpStrategy, Weights,
};
use pta_failpoints::fail_point;
use pta_temporal::{GroupKey, SequentialBuilder, SequentialRelation, Value};

use crate::protocol::QueryBound;
use crate::ServeError;

/// A resolved `(group, bound)` answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Achieved output size (tuples in the reduction).
    pub size: usize,
    /// Optimal SSE at that size.
    pub sse: f64,
    /// Whether the answer came from the cached curve (`curve`) or a
    /// direct DP run past the cached depth (`direct`).
    pub cached: bool,
}

/// One group's series plus its lazily cached error curve.
pub struct GroupEntry {
    name: String,
    series: SequentialRelation,
    weights: Weights,
    /// The group's maximal reduction error (SSE at size `cmin`).
    emax: f64,
    cmin: usize,
    curve_depth: usize,
    curve: Mutex<Option<Arc<Vec<f64>>>>,
    /// Set once the curve is stored. A fill holds `curve` for its whole
    /// DP, so counting cached curves reads this flag instead of the lock.
    cached: AtomicBool,
}

impl GroupEntry {
    /// The group's wire name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input tuples in the group's ITA series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the group's series is empty (never true for built stores:
    /// ITA emits no empty groups).
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The smallest reachable output size.
    pub fn cmin(&self) -> usize {
        self.cmin
    }

    /// The group's maximal reduction error.
    pub fn emax(&self) -> f64 {
        self.emax
    }

    /// Whether the error curve has been computed and cached. Never waits
    /// on a fill in progress.
    pub fn curve_cached(&self) -> bool {
        self.cached.load(Ordering::Acquire)
    }

    /// The cached error curve, computing it under `cancel` on first use.
    /// Entry `k - 1` is the optimal SSE at output size `k` (∞ below
    /// `cmin`); the curve is monotone non-increasing.
    fn curve(&self, cancel: &CancelToken) -> Result<Arc<Vec<f64>>, ServeError> {
        fail_point!("serve.cache", |msg: String| Err(ServeError::Injected(msg)));
        let mut slot = self.curve.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(curve) = slot.as_ref() {
            return Ok(curve.clone());
        }
        // Waiting on the lock (another request may be filling the same
        // curve) counts against this request's budget.
        cancel.check()?;
        let kmax = self.curve_depth.min(self.series.len());
        // Single-threaded fill: concurrency comes from serving many
        // requests, not from fanning out one curve across the workers.
        let curve = optimal_error_curve_with_cancel(
            &self.series,
            &self.weights,
            kmax,
            DpStrategy::Auto,
            1,
            cancel.clone(),
        )?;
        let curve = Arc::new(curve);
        *slot = Some(curve.clone());
        self.cached.store(true, Ordering::Release);
        Ok(curve)
    }

    /// Answers one bound under `cancel`, preferring the cached curve.
    pub fn answer(&self, bound: QueryBound, cancel: &CancelToken) -> Result<Answer, ServeError> {
        let n = self.series.len();
        match bound {
            QueryBound::Size(c) => {
                if c < self.cmin {
                    return Err(ServeError::Core(pta_core::CoreError::SizeBelowMinimum {
                        requested: c,
                        cmin: self.cmin,
                    }));
                }
                self.answer_size(c.min(n), cancel)
            }
            QueryBound::Error(eps) => {
                // The threshold the direct PTAε run below applies too, so
                // an answer does not depend on the cached depth.
                let budget = error_threshold(eps, self.emax);
                let curve = self.curve(cancel)?;
                // Monotone non-increasing curve: entries above the budget
                // form a prefix; the first entry at or below it is the
                // smallest feasible size.
                let k = curve.partition_point(|&e| e > budget) + 1;
                if k <= curve.len() {
                    return Ok(Answer { size: k, sse: curve[k - 1], cached: true });
                }
                // No size within the cached depth meets the budget: run
                // the error-bounded DP directly.
                let opts = DpOptions::default().with_threads(1).with_cancel(cancel.clone());
                let out = pta_error_bounded_with_opts(&self.series, &self.weights, eps, opts)?;
                Ok(Answer { size: out.reduction.len(), sse: out.reduction.sse(), cached: false })
            }
            QueryBound::Ratio(r) => {
                // ceil(r · n), clamped into [cmin, n]: the honest nearest
                // feasible size for ratios below the floor.
                let raw = (r * n as f64).ceil() as usize;
                let c = raw.clamp(self.cmin.max(1), n);
                self.answer_size(c, cancel)
            }
        }
    }

    fn answer_size(&self, c: usize, cancel: &CancelToken) -> Result<Answer, ServeError> {
        if c <= self.curve_depth {
            let curve = self.curve(cancel)?;
            if c <= curve.len() {
                return Ok(Answer { size: c, sse: curve[c - 1], cached: true });
            }
        }
        let opts = DpOptions::default().with_threads(1).with_cancel(cancel.clone());
        let out = pta_size_bounded_with_opts(&self.series, &self.weights, c, opts)?;
        Ok(Answer { size: out.reduction.len(), sse: out.reduction.sse(), cached: false })
    }
}

/// Immutable group index built at startup; shared by all workers.
pub struct GroupStore {
    entries: Vec<GroupEntry>,
    index: HashMap<String, usize>,
    total_n: usize,
}

impl GroupStore {
    /// Splits an ITA result into per-group entries. `curve_depth` caps
    /// the cached curve length per group (`0` means "cache nothing":
    /// every query runs the direct DP).
    pub fn build(
        seq: &SequentialRelation,
        weights: Weights,
        curve_depth: usize,
    ) -> Result<GroupStore, ServeError> {
        let mut entries = Vec::new();
        let mut index = HashMap::new();
        let n = seq.len();
        let mut i = 0;
        while i < n {
            let gid = seq.group(i);
            let mut j = i + 1;
            while j < n && seq.group(j) == gid {
                j += 1;
            }
            // Each series gets a table of its own group's key alone, so a
            // direct run's reduction carries one key, not the input's all.
            let key = seq.group_key(gid)?;
            let mut builder = SequentialBuilder::with_capacity(seq.dims(), j - i);
            let own = builder.intern(key.clone());
            for k in i..j {
                builder.push_id(own, seq.interval(k), seq.values(k))?;
            }
            let series = builder.build();
            let name = group_name(key);
            let emax = max_error(&series, &weights)?;
            let cmin = series.cmin();
            if index.insert(name.clone(), entries.len()).is_some() {
                return Err(ServeError::Config(format!(
                    "duplicate group name `{name}` — ITA output is not grouped contiguously"
                )));
            }
            entries.push(GroupEntry {
                name,
                series,
                weights: weights.clone(),
                emax,
                cmin,
                curve_depth,
                curve: Mutex::new(None),
                cached: AtomicBool::new(false),
            });
            i = j;
        }
        Ok(GroupStore { entries, index, total_n: n })
    }

    /// Looks a group up by wire name.
    pub fn get(&self, name: &str) -> Option<&GroupEntry> {
        self.index.get(name).map(|&i| &self.entries[i])
    }

    /// All groups, in input (sorted) order.
    pub fn entries(&self) -> &[GroupEntry] {
        &self.entries
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.entries.len()
    }

    /// Total ITA tuples across all groups.
    pub fn total_n(&self) -> usize {
        self.total_n
    }

    /// How many groups currently hold a cached curve. Lock-free, so
    /// `stats` answers while curves fill.
    pub fn curves_cached(&self) -> usize {
        self.entries.iter().filter(|e| e.curve_cached()).count()
    }
}

/// The wire name of a group: its key values joined with `|`; the empty
/// key (ungrouped queries — one global group) renders as `*`.
pub fn group_name(key: &GroupKey) -> String {
    if key.values().is_empty() {
        return "*".to_string();
    }
    let parts: Vec<String> = key.values().iter().map(render_value).collect();
    parts.join("|")
}

fn render_value(v: &Value) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_core::optimal_error_curve;
    use pta_ita::{ita, AggregateSpec, ItaQuerySpec};

    fn store() -> GroupStore {
        let relation = pta_datasets::proj_relation();
        let spec = ItaQuerySpec::new(&["Proj"], vec![AggregateSpec::avg("Sal")]);
        let seq = ita(&relation, &spec).expect("ita");
        GroupStore::build(&seq, Weights::uniform(1), 128).expect("store")
    }

    #[test]
    fn splits_groups_and_answers_from_the_curve() {
        let store = store();
        assert_eq!(store.groups(), 2);
        let a = store.get("A").expect("group A");
        assert_eq!(store.curves_cached(), 0);
        let ans = a.answer(QueryBound::Size(4), &CancelToken::inert()).expect("answer");
        assert!(ans.cached);
        assert_eq!(ans.size, 4);
        // Bit-identical to a direct curve over the same series.
        let curve = optimal_error_curve(&a.series, &Weights::uniform(1), a.len()).expect("curve");
        assert_eq!(ans.sse.to_bits(), curve[3].to_bits());
        assert_eq!(store.curves_cached(), 1);
    }

    #[test]
    fn each_series_holds_its_own_rows_and_key_alone() {
        let relation = pta_datasets::proj_relation();
        let spec = ItaQuerySpec::new(&["Proj"], vec![AggregateSpec::avg("Sal")]);
        let seq = ita(&relation, &spec).expect("ita");
        let store = GroupStore::build(&seq, Weights::uniform(1), 128).expect("store");
        let mut start = 0;
        for entry in store.entries() {
            let series = &entry.series;
            let rows = start..start + series.len();
            assert_eq!(series.group_keys().len(), 1, "group {}", entry.name);
            assert_eq!(group_name(&series.group_keys()[0]), entry.name);
            assert!(series.entries().iter().all(|e| e.group == 0), "group {}", entry.name);
            for (i, k) in rows.clone().enumerate() {
                assert_eq!(series.interval(i), seq.interval(k));
                assert_eq!(series.values(i), seq.values(k));
            }
            start = rows.end;
        }
        assert_eq!(start, seq.len());
    }

    #[test]
    fn error_and_ratio_bounds_resolve_against_the_curve() {
        let store = store();
        let a = store.get("A").expect("group A");
        let full = a.answer(QueryBound::Error(1.0), &CancelToken::inert()).expect("eps=1");
        assert_eq!(full.size, a.cmin(), "eps=1 admits the maximal reduction");
        let tight = a.answer(QueryBound::Error(0.0), &CancelToken::inert()).expect("eps=0");
        assert_eq!(tight.size, a.len(), "eps=0 forces the identity");
        let half = a.answer(QueryBound::Ratio(0.5), &CancelToken::inert()).expect("ratio");
        assert_eq!(half.size, (a.len() as f64 * 0.5).ceil() as usize);
    }

    #[test]
    fn below_cmin_is_a_typed_error() {
        let store = store();
        let a = store.get("A").expect("group A");
        let err = a.answer(QueryBound::Size(0), &CancelToken::inert());
        assert!(matches!(err, Err(ServeError::Core(pta_core::CoreError::SizeBelowMinimum { .. }))));
    }

    #[test]
    fn queries_past_the_cached_depth_fall_back_to_direct_dp() {
        let relation = pta_datasets::proj_relation();
        let spec = ItaQuerySpec::new(&["Proj"], vec![AggregateSpec::avg("Sal")]);
        let seq = ita(&relation, &spec).expect("ita");
        let store = GroupStore::build(&seq, Weights::uniform(1), 3).expect("store");
        let a = store.get("A").expect("group A");
        let deep = a.answer(QueryBound::Size(a.len()), &CancelToken::inert()).expect("deep");
        assert!(!deep.cached);
        assert_eq!(deep.size, a.len());
        assert!(deep.sse.abs() < 1e-9, "identity reduction has zero error");
    }

    #[test]
    fn an_expired_deadline_does_not_poison_the_cache() {
        let store = store();
        let a = store.get("A").expect("group A");
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        let err = a.answer(QueryBound::Size(4), &expired);
        assert!(matches!(
            err,
            Err(ServeError::Core(
                pta_core::CoreError::DeadlineExceeded { .. }
                    | pta_core::CoreError::Cancelled { .. }
            ))
        ));
        assert_eq!(store.curves_cached(), 0, "failed fill must not be cached");
        // A healthy retry fills and caches the curve.
        assert!(a.answer(QueryBound::Size(4), &CancelToken::inert()).is_ok());
        assert_eq!(store.curves_cached(), 1);
    }
}
