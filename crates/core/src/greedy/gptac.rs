//! `gPTAc`: streaming greedy size-bounded PTA (Fig. 11).
//!
//! The algorithm ingests ITA tuples as they are produced and merges as
//! early as it can prove (Prop. 3) — or heuristically assume, after δ
//! adjacent successors — that GMS would perform the same merge. Live state
//! is `O(c + β)` segments; total time `O(n log(c + β))`.

use pta_temporal::{GroupKey, SequentialRelation, TimeInterval};

use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::gaps::GapVector;
use crate::greedy::engine::GreedyEngine;
use crate::greedy::{Delta, GreedyOutcome};
use crate::policy::GapPolicy;
use crate::weights::Weights;

/// Streaming size-bounded greedy reducer. Feed ITA tuples in (group, time)
/// order via [`GPtaC::push`], then call [`GPtaC::finish`].
#[derive(Debug)]
pub struct GPtaC {
    engine: GreedyEngine,
    c: usize,
    delta: Delta,
}

impl GPtaC {
    /// Creates a reducer targeting `c` output tuples with read-ahead δ
    /// under a mergeability policy (§8 gap-tolerant extension): holes
    /// within the tolerance no longer force the stream to buffer until the
    /// next hard gap.
    pub fn with_policy(weights: Weights, c: usize, delta: Delta, policy: GapPolicy) -> Self {
        Self { engine: GreedyEngine::with_policy(weights, policy), c, delta }
    }

    /// Attaches a [`CancelToken`], checked once per pushed row and once
    /// per merge in [`GPtaC::push`] and [`GPtaC::finish`]. A fired token
    /// makes `push`/`finish` return [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.engine.cancel = cancel;
        self
    }

    /// Ingests the next ITA tuple and performs all merges currently
    /// permitted by Prop. 3 / the δ heuristic (Fig. 11 lines 5–22).
    pub fn push(
        &mut self,
        key: &GroupKey,
        interval: TimeInterval,
        values: &[f64],
    ) -> Result<(), CoreError> {
        self.engine.push_key(key, interval, values)?;
        self.merge_ready()
    }

    /// The merges Prop. 3 / the δ heuristic permit after a push.
    fn merge_ready(&mut self) -> Result<(), CoreError> {
        while self.engine.live() > self.c {
            self.engine.cancel.check()?;
            let Some((slot, key, _)) = self.engine.heap.peek() else { break };
            if !key.is_finite() {
                break;
            }
            let nid = self.engine.list.node(slot).id;
            if nid < self.engine.last_gap_id && self.engine.bg >= self.c {
                self.engine.bg -= 1;
                self.engine.merge_top();
            } else if nid > self.engine.last_gap_id
                && self.engine.has_delta_successors(slot, self.delta)
            {
                self.engine.ag -= 1;
                self.engine.merge_top();
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Number of currently live segments (the paper's `|H|`).
    pub fn live(&self) -> usize {
        self.engine.live()
    }

    /// Ends the stream: merges the most similar pairs until the size bound
    /// holds (Fig. 11 lines 23–24) and assembles the result. When
    /// `c < cmin` the result is clamped to `cmin` tuples and the stats
    /// flag it.
    pub fn finish(mut self) -> Result<GreedyOutcome, CoreError> {
        let mut clamped = false;
        while self.engine.live() > self.c {
            self.engine.cancel.check()?;
            match self.engine.heap.peek() {
                Some((_, key, _)) if key.is_finite() => {
                    self.engine.merge_top();
                }
                _ => {
                    clamped = true;
                    break;
                }
            }
        }
        self.engine.into_outcome(clamped)
    }

    /// Runs gPTAc over a complete sequential relation under a
    /// mergeability policy and a [`CancelToken`], validating the size
    /// bound upfront.
    pub fn run(
        input: &SequentialRelation,
        weights: &Weights,
        c: usize,
        delta: Delta,
        policy: GapPolicy,
        cancel: CancelToken,
    ) -> Result<GreedyOutcome, CoreError> {
        weights.check_dims(input.dims())?;
        let cmin = GapVector::build_with_policy(input, policy).cmin();
        if c < cmin {
            return Err(CoreError::SizeBelowMinimum { requested: c, cmin });
        }
        let mut alg = GPtaC::with_policy(weights.clone(), c, delta, policy).with_cancel(cancel);
        alg.engine.use_groups_of(input);
        for i in 0..input.len() {
            alg.engine.push_entry(input, i)?;
            alg.merge_ready()?;
        }
        alg.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::tests::fig1c;
    use crate::greedy::gms::gms_size_bounded;

    /// Theorem 2: with δ = ∞, gPTAc output is identical to GMS.
    #[test]
    fn theorem_2_delta_unbounded_equals_gms() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for c in 3..=7 {
            let a = GPtaC::run(
                &input,
                &w,
                c,
                Delta::Unbounded,
                GapPolicy::Strict,
                CancelToken::inert(),
            )
            .unwrap();
            let b =
                gms_size_bounded(&input, &w, c, GapPolicy::Strict, CancelToken::inert()).unwrap();
            assert_eq!(a.reduction.source_ranges(), b.reduction.source_ranges(), "c = {c}");
            assert!((a.stats.total_error - b.stats.total_error).abs() < 1e-9);
        }
    }

    /// Example 21: running gPTAc over the proj relation with c = 3, δ = 1,
    /// the heap never exceeds five entries while seven tuples stream
    /// through.
    #[test]
    fn example_21_heap_stays_small() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let out =
            GPtaC::run(&input, &w, 3, Delta::Finite(1), GapPolicy::Strict, CancelToken::inert())
                .unwrap();
        assert_eq!(out.reduction.len(), 3);
        assert_eq!(out.stats.tuples_in, 7);
        assert!(out.stats.max_heap_size <= 5, "max heap {}", out.stats.max_heap_size);
        // δ = ∞ cannot merge before the gap arrives: heap grows further.
        let lazy =
            GPtaC::run(&input, &w, 3, Delta::Unbounded, GapPolicy::Strict, CancelToken::inert())
                .unwrap();
        assert!(lazy.stats.max_heap_size >= out.stats.max_heap_size);
    }

    /// δ = 0 merges immediately: the heap never exceeds c (+1 during push).
    #[test]
    fn delta_zero_caps_heap_at_c() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let out =
            GPtaC::run(&input, &w, 3, Delta::Finite(0), GapPolicy::Strict, CancelToken::inert())
                .unwrap();
        assert!(out.stats.max_heap_size <= 4, "max heap {}", out.stats.max_heap_size);
        assert_eq!(out.reduction.len(), 3);
    }

    /// All δ values produce a valid reduction of the requested size with a
    /// consistent tracked error.
    #[test]
    fn all_deltas_produce_valid_reductions() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for delta in [Delta::Finite(0), Delta::Finite(1), Delta::Finite(2), Delta::Unbounded] {
            for c in 3..=6 {
                let out = GPtaC::run(&input, &w, c, delta, GapPolicy::Strict, CancelToken::inert())
                    .unwrap();
                assert_eq!(out.reduction.len(), c);
                out.reduction.relation().validate().unwrap();
                let recomputed = out.reduction.recompute_sse(&input, &w);
                assert!(
                    (out.stats.total_error - recomputed).abs() < 1e-6 * (1.0 + recomputed),
                    "delta {delta:?} c {c}"
                );
            }
        }
    }

    #[test]
    fn streaming_clamps_when_bound_unreachable() {
        let w = Weights::uniform(1);
        let mut alg = GPtaC::with_policy(w, 1, Delta::Finite(1), GapPolicy::Strict);
        let (a, b) = (GroupKey::empty(), GroupKey::empty());
        alg.push(&a, TimeInterval::new(1, 2).unwrap(), &[1.0]).unwrap();
        alg.push(&b, TimeInterval::new(5, 6).unwrap(), &[2.0]).unwrap();
        let out = alg.finish().unwrap();
        assert_eq!(out.reduction.len(), 2);
        assert!(out.stats.clamped_to_cmin);
    }

    #[test]
    fn run_rejects_c_below_cmin() {
        let input = fig1c();
        let w = Weights::uniform(1);
        assert!(matches!(
            GPtaC::run(&input, &w, 2, Delta::Finite(1), GapPolicy::Strict, CancelToken::inert()),
            Err(CoreError::SizeBelowMinimum { .. })
        ));
    }

    #[test]
    fn out_of_order_stream_is_rejected() {
        let w = Weights::uniform(1);
        let mut alg = GPtaC::with_policy(w, 2, Delta::Finite(1), GapPolicy::Strict);
        let k = GroupKey::empty();
        alg.push(&k, TimeInterval::new(5, 6).unwrap(), &[1.0]).unwrap();
        let err = alg.push(&k, TimeInterval::new(1, 2).unwrap(), &[1.0]).unwrap_err();
        assert!(matches!(err, CoreError::Temporal(_)));
    }
}
