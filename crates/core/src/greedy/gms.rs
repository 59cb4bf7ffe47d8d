//! The offline greedy merging strategy (§6.1).
//!
//! GMS loads the complete ITA result and repeatedly merges the most
//! similar adjacent pair until the size or error bound is met. It is the
//! reference the streaming algorithms are proven against (Thms. 2/3), and
//! one run yields the greedy error for *every* output size at once — the
//! merge order does not depend on the bound.

use pta_temporal::SequentialRelation;

use crate::cancel::CancelToken;
use crate::dp::{error_threshold, max_error_with_policy};
use crate::error::CoreError;
use crate::gaps::GapVector;
use crate::greedy::engine::GreedyEngine;
use crate::greedy::GreedyOutcome;
use crate::policy::GapPolicy;
use crate::weights::Weights;

/// Greedy size-bounded reduction to `c` tuples.
pub fn gms_size_bounded(
    input: &SequentialRelation,
    weights: &Weights,
    c: usize,
) -> Result<GreedyOutcome, CoreError> {
    gms_size_bounded_with_policy(input, weights, c, GapPolicy::Strict)
}

/// Greedy size-bounded reduction under a mergeability policy (§8
/// gap-tolerant extension).
pub fn gms_size_bounded_with_policy(
    input: &SequentialRelation,
    weights: &Weights,
    c: usize,
    policy: GapPolicy,
) -> Result<GreedyOutcome, CoreError> {
    gms_size_bounded_with_cancel(input, weights, c, policy, CancelToken::inert())
}

/// [`gms_size_bounded_with_policy`] under a [`CancelToken`], checked once
/// per ingested row and once per merge. A fired token aborts with
/// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`].
pub fn gms_size_bounded_with_cancel(
    input: &SequentialRelation,
    weights: &Weights,
    c: usize,
    policy: GapPolicy,
    cancel: CancelToken,
) -> Result<GreedyOutcome, CoreError> {
    weights.check_dims(input.dims())?;
    let cmin = GapVector::build_with_policy(input, policy).cmin();
    if c < cmin {
        return Err(CoreError::SizeBelowMinimum { requested: c, cmin });
    }
    let mut engine = load(input, weights, policy, cancel)?;
    while engine.live() > c {
        engine.cancel.check()?;
        // pta-lint: allow(no-panic-in-lib) — `live() > c >= cmin` guarantees
        // a mergeable (finite-key) heap entry exists.
        let (_, key, _) = engine.heap.peek().expect("live > c >= cmin implies a finite key");
        debug_assert!(key.is_finite());
        engine.merge_top();
    }
    engine.into_outcome(false)
}

/// Greedy error-bounded reduction: merge as long as the accumulated error
/// stays within `epsilon · SSE_max`.
pub fn gms_error_bounded(
    input: &SequentialRelation,
    weights: &Weights,
    epsilon: f64,
) -> Result<GreedyOutcome, CoreError> {
    gms_error_bounded_with_policy(input, weights, epsilon, GapPolicy::Strict)
}

/// Greedy error-bounded reduction under a mergeability policy.
pub fn gms_error_bounded_with_policy(
    input: &SequentialRelation,
    weights: &Weights,
    epsilon: f64,
    policy: GapPolicy,
) -> Result<GreedyOutcome, CoreError> {
    gms_error_bounded_with_cancel(input, weights, epsilon, policy, CancelToken::inert())
}

/// [`gms_error_bounded_with_policy`] under a [`CancelToken`], checked once
/// per ingested row and once per merge.
pub fn gms_error_bounded_with_cancel(
    input: &SequentialRelation,
    weights: &Weights,
    epsilon: f64,
    policy: GapPolicy,
    cancel: CancelToken,
) -> Result<GreedyOutcome, CoreError> {
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(CoreError::invalid_error_bound(epsilon));
    }
    weights.check_dims(input.dims())?;
    let emax = max_error_with_policy(input, weights, policy)?;
    let budget = error_threshold(epsilon, emax);
    let mut engine = load(input, weights, policy, cancel)?;
    while let Some((_, key, _)) = engine.heap.peek() {
        if !key.is_finite() || engine.etot + key > budget {
            break;
        }
        engine.cancel.check()?;
        engine.merge_top();
    }
    engine.into_outcome(false)
}

/// One full GMS run recording the accumulated error at every intermediate
/// size: `curve[k − 1]` is the greedy error of reducing to `k` tuples
/// (`∞` for `k < cmin`, `0` for `k = n`). Fig. 15 plots exactly this.
pub fn greedy_error_curve(
    input: &SequentialRelation,
    weights: &Weights,
) -> Result<Vec<f64>, CoreError> {
    greedy_error_curve_with_cancel(input, weights, CancelToken::inert())
}

/// [`greedy_error_curve`] under a [`CancelToken`], checked once per
/// ingested row and once per merge — the deadline path of the facade's
/// greedy grid queries.
pub fn greedy_error_curve_with_cancel(
    input: &SequentialRelation,
    weights: &Weights,
    cancel: CancelToken,
) -> Result<Vec<f64>, CoreError> {
    weights.check_dims(input.dims())?;
    let n = input.len();
    let mut curve = vec![f64::INFINITY; n];
    if n == 0 {
        return Ok(curve);
    }
    curve[n - 1] = 0.0;
    let mut engine = load(input, weights, GapPolicy::Strict, cancel)?;
    while let Some((_, key, _)) = engine.heap.peek() {
        if !key.is_finite() {
            break;
        }
        engine.cancel.check()?;
        engine.merge_top();
        curve[engine.live() - 1] = engine.etot;
    }
    Ok(curve)
}

fn load(
    input: &SequentialRelation,
    weights: &Weights,
    policy: GapPolicy,
    cancel: CancelToken,
) -> Result<GreedyEngine, CoreError> {
    let mut engine = GreedyEngine::with_policy(weights.clone(), policy);
    engine.cancel = cancel;
    engine.use_groups_of(input);
    for i in 0..input.len() {
        engine.push_entry(input, i)?;
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::size_bounded::size_bounded;
    use crate::dp::tests::fig1c;

    /// Example 17 / Fig. 9: greedy reduction of the running example to 4
    /// tuples merges (s4,s5), (s2,s3), then the two results — error
    /// 63 000 against the DP optimum 49 166, ratio 1.28.
    #[test]
    fn example_17_greedy_vs_optimal() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let g = gms_size_bounded(&input, &w, 4).unwrap();
        assert_eq!(g.reduction.len(), 4);
        assert!((g.stats.total_error - 63_000.0).abs() < 1e-6, "{}", g.stats.total_error);
        // z2 = (A, 420, [3, 7]) per Fig. 9.
        assert!((g.reduction.relation().value(1, 0) - 420.0).abs() < 1e-9);
        let opt = size_bounded(&input, &w, 4).unwrap();
        let ratio = g.stats.total_error / opt.reduction.sse();
        assert!((ratio - 1.28).abs() < 0.01, "ratio {ratio}");
    }

    /// Prop. 2: the accumulated per-merge dsim equals the global SSE of
    /// the final reduction.
    #[test]
    fn accumulated_dsim_equals_global_sse() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for c in 3..=7 {
            let g = gms_size_bounded(&input, &w, c).unwrap();
            let recomputed = g.reduction.recompute_sse(&input, &w);
            assert!(
                (g.stats.total_error - recomputed).abs() < 1e-6 * (1.0 + recomputed),
                "c = {c}: tracked {} vs recomputed {recomputed}",
                g.stats.total_error
            );
        }
    }

    #[test]
    fn error_curve_matches_individual_runs() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let curve = greedy_error_curve(&input, &w).unwrap();
        assert!(curve[0].is_infinite() && curve[1].is_infinite());
        for c in 3..=7 {
            let g = gms_size_bounded(&input, &w, c).unwrap();
            assert!(
                (curve[c - 1] - g.stats.total_error).abs() < 1e-9,
                "c = {c}: {} vs {}",
                curve[c - 1],
                g.stats.total_error
            );
        }
    }

    #[test]
    fn greedy_never_beats_dp() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for c in 3..=7 {
            let g = gms_size_bounded(&input, &w, c).unwrap();
            let o = size_bounded(&input, &w, c).unwrap();
            assert!(g.stats.total_error >= o.reduction.sse() - 1e-9);
        }
    }

    #[test]
    fn error_bounded_respects_budget() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let emax = crate::dp::max_error(&input, &w).unwrap();
        for eps in [0.0, 0.01, 0.3, 1.0] {
            let g = gms_error_bounded(&input, &w, eps).unwrap();
            assert!(g.stats.total_error <= eps * emax + 1e-6);
        }
        let full = gms_error_bounded(&input, &w, 1.0).unwrap();
        assert_eq!(full.reduction.len(), 3, "eps = 1 reaches cmin");
    }

    #[test]
    fn below_cmin_rejected() {
        let input = fig1c();
        let w = Weights::uniform(1);
        assert!(matches!(
            gms_size_bounded(&input, &w, 1),
            Err(CoreError::SizeBelowMinimum { cmin: 3, .. })
        ));
    }

    #[test]
    fn empty_input() {
        let input = SequentialRelation::empty(1);
        let w = Weights::uniform(1);
        let g = gms_size_bounded(&input, &w, 0).unwrap();
        assert!(g.reduction.is_empty());
        assert_eq!(g.stats.merges, 0);
    }
}
