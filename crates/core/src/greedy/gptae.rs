//! `gPTAε`: streaming greedy error-bounded PTA (Fig. 13).
//!
//! Tuples merge during streaming only when their key is at most the
//! average error budget `ε·Ê_max/n̂` (Prop. 4) and the gap/δ criteria of
//! gPTAc admit the merge. Once the stream completes, the real `E_max` is
//! known (accumulated per segment on the fly) and merging continues
//! greedily while the accumulated error stays within `ε·E_max`.

use pta_temporal::{GroupKey, SequentialRelation, TimeInterval};

use crate::cancel::CancelToken;
use crate::dp::error_threshold;
use crate::error::CoreError;
use crate::greedy::engine::GreedyEngine;
use crate::greedy::estimate::Estimates;
use crate::greedy::{Delta, GreedyOutcome};
use crate::policy::GapPolicy;
use crate::weights::Weights;

/// Streaming error-bounded greedy reducer.
#[derive(Debug)]
pub struct GPtaE {
    engine: GreedyEngine,
    epsilon: f64,
    delta: Delta,
    /// Per-merge budget `ε·Ê_max/n̂` used while streaming.
    avg_budget: f64,
    /// Running per-segment sums for the exact `E_max` of the seen prefix.
    seg_l: f64,
    seg_s: Vec<f64>,
    seg_ss: Vec<f64>,
    emax_real: f64,
    weights_squared: Vec<f64>,
}

impl GPtaE {
    /// Creates a reducer with error bound `epsilon ∈ [0, 1]`, read-ahead
    /// δ, the `(n̂, Ê_max)` estimates steering early merging, and a
    /// mergeability policy (§8 gap-tolerant extension). Segment accounting
    /// for the exact `E_max` follows the policy automatically (runs end
    /// where keys turn infinite).
    pub fn with_policy(
        weights: Weights,
        epsilon: f64,
        delta: Delta,
        estimates: Estimates,
        policy: GapPolicy,
    ) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(CoreError::invalid_error_bound(epsilon));
        }
        let p = weights.dims();
        let weights_squared = weights.squared_all().to_vec();
        Ok(Self {
            engine: GreedyEngine::with_policy(weights, policy),
            epsilon,
            delta,
            avg_budget: epsilon * estimates.emax_hat / estimates.n_hat,
            seg_l: 0.0,
            seg_s: vec![0.0; p],
            seg_ss: vec![0.0; p],
            emax_real: 0.0,
            weights_squared,
        })
    }

    /// Attaches a [`CancelToken`], checked once per pushed row and once
    /// per merge in [`GPtaE::push`] and [`GPtaE::finish`]. A fired token
    /// makes `push`/`finish` return [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.engine.cancel = cancel;
        self
    }

    /// Ingests one ITA tuple and merges all candidates within the average
    /// budget (Fig. 13 lines 7–21).
    pub fn push(
        &mut self,
        key: &GroupKey,
        interval: TimeInterval,
        values: &[f64],
    ) -> Result<(), CoreError> {
        let slot = self.engine.push_key(key, interval, values)?;
        self.absorb(slot, interval, values)
    }

    /// Segment accounting and the merges within the average budget after
    /// the row in `slot` arrived.
    fn absorb(
        &mut self,
        slot: u32,
        interval: TimeInterval,
        values: &[f64],
    ) -> Result<(), CoreError> {
        if self.engine.heap.key(slot).is_infinite() {
            // The row opened a new maximal adjacent run.
            self.close_segment();
        }
        let len = interval.len() as f64;
        self.seg_l += len;
        for (d, &v) in values.iter().enumerate() {
            self.seg_s[d] += len * v;
            self.seg_ss[d] += len * v * v;
        }

        while let Some((slot, k, _)) = self.engine.heap.peek() {
            // NaN-safe: merge only when the key is within the budget.
            let within = k <= self.avg_budget;
            if !within {
                break;
            }
            self.engine.cancel.check()?;
            let nid = self.engine.list.node(slot).id;
            if nid < self.engine.last_gap_id {
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

    /// Number of currently live segments.
    pub fn live(&self) -> usize {
        self.engine.live()
    }

    /// The exact maximal error accumulated so far (closed segments only).
    fn close_segment(&mut self) {
        if self.seg_l > 0.0 {
            let mut sse = 0.0;
            for d in 0..self.seg_s.len() {
                sse += self.weights_squared[d]
                    * (self.seg_ss[d] - self.seg_s[d] * self.seg_s[d] / self.seg_l);
            }
            self.emax_real += sse.max(0.0);
            self.seg_l = 0.0;
            self.seg_s.fill(0.0);
            self.seg_ss.fill(0.0);
        }
    }

    /// Ends the stream: with the real `E_max` now known, merges greedily
    /// while the accumulated error stays within `ε·E_max` (Fig. 13 lines
    /// 22–28).
    pub fn finish(mut self) -> Result<GreedyOutcome, CoreError> {
        self.close_segment();
        let budget = error_threshold(self.epsilon, self.emax_real);
        while let Some((_, k, _)) = self.engine.heap.peek() {
            if !k.is_finite() || self.engine.etot + k > budget {
                break;
            }
            self.engine.cancel.check()?;
            self.engine.merge_top();
        }
        self.engine.into_outcome(false)
    }

    /// Runs gPTAε over a complete sequential relation under a
    /// mergeability policy and a [`CancelToken`]. When `estimates` is
    /// `None` the exact values are used, as in the paper's δ experiments.
    /// The rows enter by group id, so no key is hashed.
    pub fn run(
        input: &SequentialRelation,
        weights: &Weights,
        epsilon: f64,
        delta: Delta,
        estimates: Option<Estimates>,
        policy: GapPolicy,
        cancel: CancelToken,
    ) -> Result<GreedyOutcome, CoreError> {
        weights.check_dims(input.dims())?;
        let est = match estimates {
            Some(e) => e,
            None => Estimates::exact(input, weights)?,
        };
        let mut alg =
            GPtaE::with_policy(weights.clone(), epsilon, delta, est, policy)?.with_cancel(cancel);
        alg.engine.use_groups_of(input);
        for i in 0..input.len() {
            let slot = alg.engine.push_entry(input, i)?;
            alg.absorb(slot, input.interval(i), input.values(i))?;
        }
        alg.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::max_error;
    use crate::dp::tests::fig1c;
    use crate::greedy::gms::gms_error_bounded;

    /// Theorem 3: with δ = ∞ and exact estimates, gPTAε equals GMS.
    #[test]
    fn theorem_3_delta_unbounded_equals_gms() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for eps in [0.0, 0.01, 0.1, 0.3, 0.65, 1.0] {
            let a = GPtaE::run(
                &input,
                &w,
                eps,
                Delta::Unbounded,
                None,
                GapPolicy::Strict,
                CancelToken::inert(),
            )
            .unwrap();
            let b = gms_error_bounded(&input, &w, eps, GapPolicy::Strict, CancelToken::inert())
                .unwrap();
            assert_eq!(a.reduction.source_ranges(), b.reduction.source_ranges(), "eps = {eps}");
        }
    }

    #[test]
    fn budget_is_respected_for_all_deltas() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let emax = max_error(&input, &w).unwrap();
        for delta in [Delta::Finite(0), Delta::Finite(1), Delta::Finite(2), Delta::Unbounded] {
            for eps in [0.0, 0.1, 0.5, 1.0] {
                let out = GPtaE::run(
                    &input,
                    &w,
                    eps,
                    delta,
                    None,
                    GapPolicy::Strict,
                    CancelToken::inert(),
                )
                .unwrap();
                assert!(
                    out.stats.total_error <= eps * emax + 1e-6,
                    "delta {delta:?} eps {eps}: {} > {}",
                    out.stats.total_error,
                    eps * emax
                );
                out.reduction.relation().validate().unwrap();
            }
        }
    }

    /// Example 22: with ε = 0.5, the average budget is
    /// 0.5 · 269 285.714 / 7 = 19 234.69.
    #[test]
    fn example_22_average_budget() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let est = Estimates::exact(&input, &w).unwrap();
        let alg = GPtaE::with_policy(w, 0.5, Delta::Finite(1), est, GapPolicy::Strict).unwrap();
        assert!((alg.avg_budget - 19_234.693_877).abs() < 1e-3, "{}", alg.avg_budget);
    }

    /// Streaming Emax accumulation matches the direct computation.
    #[test]
    fn streamed_emax_matches_direct() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let est = Estimates::exact(&input, &w).unwrap();
        let mut alg =
            GPtaE::with_policy(w.clone(), 1.0, Delta::Unbounded, est, GapPolicy::Strict).unwrap();
        for i in 0..input.len() {
            let key = input.group_key(input.group(i)).unwrap().clone();
            alg.push(&key, input.interval(i), input.values(i)).unwrap();
        }
        alg.close_segment();
        let direct = max_error(&input, &w).unwrap();
        assert!((alg.emax_real - direct).abs() < 1e-6 * (1.0 + direct));
    }

    #[test]
    fn underestimated_emax_only_delays_merging() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let low = Estimates::new(7.0, 1.0).unwrap();
        let out = GPtaE::run(
            &input,
            &w,
            1.0,
            Delta::Finite(1),
            Some(low),
            GapPolicy::Strict,
            CancelToken::inert(),
        )
        .unwrap();
        // Final phase still reaches the maximal reduction.
        assert_eq!(out.reduction.len(), 3);
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let w = Weights::uniform(1);
        let est = Estimates::new(10.0, 5.0).unwrap();
        let err = GPtaE::with_policy(w, 1.2, Delta::Finite(1), est, GapPolicy::Strict).unwrap_err();
        assert!(err.common().is_some_and(pta_temporal::CommonError::is_invalid_parameter));
    }
}
