//! `PTAε`: exact error-bounded PTA (Fig. 8).

use pta_temporal::SequentialRelation;

use crate::dp::{
    error_threshold, max_error_over_runs, Cells, DpEngine, DpExecMode, DpOptions, DpOutcome, Fwd,
};
use crate::error::CoreError;
use crate::reduction::Reduction;
use crate::weights::Weights;

/// Exact error-bounded PTA: the *smallest* reduction of `input` whose SSE
/// stays within `epsilon · SSE_max` (Def. 7), where `SSE_max` is the error
/// of the maximal reduction to `cmin` tuples.
///
/// The DP fills rows `k = 1, 2, ...`; the optimal error `E[k][n]`
/// decreases monotonically with `k`, so the first satisfying row gives the
/// minimal size (§5.5). Same asymptotic cost as `PTAc`. The row count is
/// unknown up front, so split-point rows are recorded only while they fit
/// the mode's table budget; a satisfying row beyond the budget is
/// recovered by divide-and-conquer backtracking instead — memory stays
/// bounded and no input size is rejected.
pub fn error_bounded(
    input: &SequentialRelation,
    weights: &Weights,
    epsilon: f64,
) -> Result<DpOutcome, CoreError> {
    error_bounded_with_opts(input, weights, epsilon, DpOptions::default())
}

/// `PTAε` with every [`DpOptions`] knob chosen by the caller — under a
/// mergeability policy (§8 gap-tolerant extension) both the maximal error
/// and the feasible merges follow the policy. The fully general entry
/// point the facade uses.
pub fn error_bounded_with_opts(
    input: &SequentialRelation,
    weights: &Weights,
    epsilon: f64,
    opts: DpOptions,
) -> Result<DpOutcome, CoreError> {
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(CoreError::invalid_error_bound(epsilon));
    }
    if input.is_empty() {
        return Ok(DpOutcome::identity(input, opts.strategy, opts.threads));
    }
    let engine =
        DpEngine::new_full(input, weights, true, opts.policy, true, opts.strategy, opts.threads)?
            .with_cancel(opts.cancel.clone());
    let emax = max_error_over_runs(weights, &engine.stats, &engine.gaps, engine.n);
    if !emax.is_finite() {
        return Err(CoreError::non_finite_data("maximal reduction error is not finite"));
    }
    run_with_threshold(input, weights, &engine, &opts, error_threshold(epsilon, emax))
}

/// The Fig. 8 row loop against a precomputed absolute threshold, once
/// per stride of the strategy's schedule (one exact stride-1 probe unless
/// the strategy is `Approx(ε > 0)`). The loop stops at the first row
/// whose value satisfies the bound; on an Approx probe the value row is
/// the upper bracket (`ub ≥ E` row-wise), so the returned size is never
/// below the exact minimal one and always honestly satisfies the bound,
/// and the certified ratio relates the delivered SSE to the exact optimum
/// *for the returned size*. The rows and the split-point table are
/// reused across probes (`∞`-reset between them).
///
/// Factored out so the `found == 0` backstop is unit-testable: with finite
/// inputs `E[n][n] = 0` always satisfies any valid threshold, so the
/// typed-error path below is reachable only when a non-finite value
/// poisoned the threshold or the error table.
// pta-lint: allow(cancel-coverage) — each row fill below goes through
// DpEngine::fill_row, which polls the token once per row.
fn run_with_threshold(
    input: &SequentialRelation,
    weights: &Weights,
    engine: &DpEngine,
    opts: &DpOptions,
    threshold: f64,
) -> Result<DpOutcome, CoreError> {
    let n = engine.n;
    let width = n + 1;
    // Split-point rows are recorded only while the table stays within the
    // mode's budget; past it the rows keep filling (two value rows only)
    // and boundaries are recovered by divide and conquer afterwards.
    let row_budget = opts.mode.row_budget(n).min(n);
    let mut jm: Vec<usize> = Vec::new();
    let mut rows = engine.rows();
    let mut cells = Cells::default();
    let mut rows_done = 0usize;
    // The row count is unknown up front (the loop stops at the first
    // satisfying row); 32 pieces is a conservative stand-in for the
    // Approx stride schedule — a deeper run just means a finer first
    // stride than strictly necessary.
    for stride in engine.strides(32) {
        let mut found = 0usize;
        let mut recorded = 0usize;
        for k in 1..=n {
            let splits = if k <= row_budget {
                jm.resize(k * width, 0);
                recorded = k;
                Some(&mut jm[(k - 1) * width..k * width])
            } else {
                None
            };
            cells += engine.step::<Fwd>(k, 0, n, stride, &mut rows, splits).map_err(|e| {
                // Rows 1..k − 1 of this probe completed before the abort.
                let peak = recorded + rows.count();
                e.with_dp_progress(engine.progress(
                    rows_done + k - 1,
                    cells,
                    peak,
                    DpExecMode::Table,
                ))
            })?;
            if rows.value(n) <= threshold {
                found = k;
                break;
            }
        }
        if found == 0 {
            return Err(CoreError::non_finite_data(
                "error-bounded DP finished without any row satisfying the bound",
            ));
        }
        rows_done += found;
        let lower = rows.lower(n);
        let (boundaries, peak, mode) = if found <= recorded {
            (engine.backtrack(&jm, 0, n, found), recorded + rows.count(), DpExecMode::Table)
        } else {
            // Free the split-point rows and reuse the search rows as the
            // forward scratch, so the peak stays at max(search, recovery).
            // The search-phase work folds into the recovery's partial
            // progress if the recovery itself is aborted.
            jm = Vec::new();
            let mut bwd = engine.rows();
            let peak = (recorded + rows.count()).max(rows.count() + bwd.count());
            let mode = DpExecMode::DivideConquer;
            let part = engine
                .dnc_boundaries(stride, found, &mut rows, &mut bwd, &mut cells, &mut rows_done)
                .map_err(|e| e.with_dp_progress(engine.progress(rows_done, cells, peak, mode)))?;
            (part.boundaries, peak, mode)
        };
        let reduction = Reduction::from_boundaries_with_policy(
            input,
            weights,
            &engine.stats,
            &boundaries,
            opts.policy,
        )?;
        if let Some(ratio) = engine.certify(stride, reduction.sse(), lower) {
            let stats = engine.run_stats(rows_done, cells, peak, mode, ratio);
            return Ok(DpOutcome { reduction, stats });
        }
        rows.reset(0..=n);
        jm.clear();
    }
    // pta-lint: allow(no-panic-in-lib) — the last probe is the exact stride
    // 1, which certifies unconditionally.
    unreachable!("the exact stride-1 probe always certifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::size_bounded::size_bounded;
    use crate::dp::tests::fig1c;
    use crate::dp::DpMode;
    use crate::policy::GapPolicy;

    fn with_mode(mode: DpMode) -> DpOptions {
        DpOptions::default().with_mode(mode)
    }

    /// Example 7, consistent reading (see DESIGN.md errata): ε = 1 gives
    /// the maximal reduction to 3 tuples; ε = 0.2 gives 4 tuples as in
    /// Fig. 1(d). (The paper prints "2%", but E[4][7]/SSE_max ≈ 18.3% and
    /// E[5][7]/SSE_max ≈ 2.5%, so 2% would give 6 tuples; 20% gives
    /// exactly 4.)
    #[test]
    fn example_7_bounds() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let full = error_bounded(&input, &w, 1.0).unwrap();
        assert_eq!(full.reduction.len(), 3);
        let r02 = error_bounded(&input, &w, 0.2).unwrap();
        assert_eq!(r02.reduction.len(), 4);
        assert!((r02.reduction.sse() - 49_166.666_667).abs() < 1e-3);
        let r002 = error_bounded(&input, &w, 0.02).unwrap();
        assert_eq!(r002.reduction.len(), 6);
    }

    #[test]
    fn zero_epsilon_merges_only_free_pairs() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let out = error_bounded(&input, &w, 0.0).unwrap();
        // No adjacent pair has identical values, so nothing merges freely.
        assert_eq!(out.reduction.len(), 7);
        assert_eq!(out.reduction.sse(), 0.0);
    }

    /// The error-bounded result of size k matches the size-bounded optimum
    /// for the same k (both are optimal reductions to k tuples).
    #[test]
    fn agrees_with_size_bounded_at_same_size() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for eps in [0.05, 0.2, 0.5, 1.0] {
            let eb = error_bounded(&input, &w, eps).unwrap();
            let sb = size_bounded(&input, &w, eb.reduction.len()).unwrap();
            assert!(
                (eb.reduction.sse() - sb.reduction.sse()).abs() < 1e-6,
                "eps {eps}: {} vs {}",
                eb.reduction.sse(),
                sb.reduction.sse()
            );
        }
    }

    /// Divide-and-conquer recovery returns the same minimal reduction as
    /// the recorded table, and reports bounded memory while doing so.
    #[test]
    fn modes_agree_across_epsilons() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for eps in [0.0, 0.02, 0.05, 0.2, 0.5, 1.0] {
            let table = error_bounded_with_opts(&input, &w, eps, with_mode(DpMode::Table)).unwrap();
            let dnc =
                error_bounded_with_opts(&input, &w, eps, with_mode(DpMode::DivideConquer)).unwrap();
            assert_eq!(table.stats.mode, DpExecMode::Table);
            assert_eq!(dnc.stats.mode, DpExecMode::DivideConquer);
            assert!(dnc.stats.peak_rows <= 4, "eps {eps}: {} rows", dnc.stats.peak_rows);
            assert_eq!(table.reduction.source_ranges(), dnc.reduction.source_ranges(), "eps {eps}");
            assert!((table.reduction.sse() - dnc.reduction.sse()).abs() < 1e-9, "eps {eps}");
        }
    }

    /// A poisoned (NaN) threshold must surface as a typed error, not as a
    /// release-mode index underflow in backtrack — the `found == 0`
    /// backstop for non-finite data that slipped past the builder.
    #[test]
    fn nan_threshold_yields_typed_error_not_panic() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let engine = DpEngine::new_full(
            &input,
            &w,
            true,
            GapPolicy::Strict,
            true,
            crate::dp::DpStrategy::Auto,
            1,
        )
        .unwrap();
        let err =
            run_with_threshold(&input, &w, &engine, &DpOptions::default(), f64::NAN).unwrap_err();
        assert!(err.common().is_some_and(pta_temporal::CommonError::is_invalid_parameter));
        assert!(err.to_string().contains("non-finite"));
    }

    /// The satisfied bound really holds, and size is minimal: one tuple
    /// fewer would violate the bound.
    #[test]
    fn result_is_minimal_satisfying_size() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let emax = crate::dp::max_error(&input, &w).unwrap();
        for eps in [0.01, 0.05, 0.1, 0.2, 0.4, 0.8] {
            let out = error_bounded(&input, &w, eps).unwrap();
            let c = out.reduction.len();
            assert!(out.reduction.sse() <= eps * emax + 1e-6);
            if c > input.cmin() {
                let smaller = size_bounded(&input, &w, c - 1).unwrap();
                assert!(
                    smaller.reduction.sse() > eps * emax - 1e-6,
                    "eps {eps}: reduction to {} tuples also satisfies the bound",
                    c - 1
                );
            }
        }
    }

    #[test]
    fn epsilon_out_of_range_is_rejected() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let low = error_bounded(&input, &w, -0.1).unwrap_err();
        assert!(low.common().is_some_and(pta_temporal::CommonError::is_invalid_parameter));
        let high = error_bounded(&input, &w, 1.5).unwrap_err();
        assert!(high.common().is_some_and(pta_temporal::CommonError::is_invalid_parameter));
    }

    #[test]
    fn empty_input() {
        let input = SequentialRelation::empty(1);
        let out = error_bounded(&input, &Weights::uniform(1), 0.5).unwrap();
        assert!(out.reduction.is_empty());
    }
}
