//! `PTAc`: exact size-bounded PTA (Fig. 7).

use pta_temporal::SequentialRelation;

use crate::dp::{Cells, DpEngine, DpExecMode, DpOptions, DpOutcome, DpStrategy, Partition};
use crate::error::CoreError;
use crate::reduction::Reduction;
use crate::weights::Weights;

/// Exact size-bounded PTA: the reduction of `input` to (exactly) `c`
/// tuples with minimal SSE (Def. 6), via the gap-pruned DP.
///
/// Worst case `O(n² c p)` time on gap-free data; near-linear when gaps or
/// groups bound the adjacent runs (§5.3). Space is two error rows plus
/// whatever the backtracking mode needs: `O(n c)` for the materialized
/// split-point table, `O(n)` under divide and conquer —
/// [`DpMode::Auto`](crate::dp::DpMode::Auto) picks between them, so no
/// input size is rejected.
///
/// Fails with [`CoreError::SizeBelowMinimum`] when `c < cmin`.
pub fn size_bounded(
    input: &SequentialRelation,
    weights: &Weights,
    c: usize,
) -> Result<DpOutcome, CoreError> {
    run(input, weights, c, true, DpOptions::default(), true)
}

/// `PTAc` with every [`DpOptions`] knob chosen by the caller: the
/// mergeability policy, the backtracking mode, the row strategy, the
/// thread budget and the cancellation token. Under
/// [`GapPolicy::Tolerate`](crate::policy::GapPolicy::Tolerate) this is
/// the paper's §8 future-work extension: tuples separated by holes up to
/// `max_gap` chronons may merge, lowering `cmin` and unlocking smaller
/// results on gap-ridden data. The fully general entry point the facade
/// uses.
pub fn size_bounded_with_opts(
    input: &SequentialRelation,
    weights: &Weights,
    c: usize,
    opts: DpOptions,
) -> Result<DpOutcome, CoreError> {
    run(input, weights, c, true, opts, true)
}

/// `PTAc` without the Jagadish early break — ablation target only; always
/// produces the same reduction, strictly more slowly on most data. Pins
/// [`DpStrategy::Scan`]: the early break is a scan-path acceleration, so
/// the ablation must hold the row minimizer fixed.
pub fn size_bounded_no_early_break(
    input: &SequentialRelation,
    weights: &Weights,
    c: usize,
) -> Result<DpOutcome, CoreError> {
    let opts = DpOptions { strategy: DpStrategy::Scan, ..DpOptions::default() };
    run(input, weights, c, true, opts, false)
}

/// The unpruned "DP" baseline of Fig. 18: identical recurrence and
/// constant-time SSE, but no `imax`/`jmin` gap pruning, so every cell of
/// every row is evaluated.
pub fn size_bounded_naive(
    input: &SequentialRelation,
    weights: &Weights,
    c: usize,
) -> Result<DpOutcome, CoreError> {
    run(input, weights, c, false, DpOptions::default().with_strategy(DpStrategy::Scan), true)
}

/// The size-bounded driver: probes each stride of the strategy's
/// schedule (one exact stride-1 probe unless the strategy is
/// `Approx(ε > 0)`) until a partition certifies, accumulating the work
/// counters across probes. The split-point table (or the
/// divide-and-conquer scratch) and the value rows are allocated once and
/// `∞`-reset between probes.
fn run(
    input: &SequentialRelation,
    weights: &Weights,
    c: usize,
    prune: bool,
    opts: DpOptions,
    early_break: bool,
) -> Result<DpOutcome, CoreError> {
    if input.is_empty() {
        return Ok(DpOutcome::identity(input, opts.strategy, opts.threads));
    }
    let engine = DpEngine::new_full(
        input,
        weights,
        prune,
        opts.policy,
        early_break,
        opts.strategy,
        opts.threads,
    )?
    .with_cancel(opts.cancel.clone());
    let n = engine.n;
    let cmin = engine.gaps.cmin();
    if c < cmin {
        return Err(CoreError::SizeBelowMinimum { requested: c, cmin });
    }
    if c >= n {
        return Ok(DpOutcome::identity(input, engine.strategy, engine.pool.threads()));
    }

    let width = n + 1;
    let table = opts.mode.materializes_table(n, c);
    let mut jm = if table { vec![0usize; c * width] } else { Vec::new() };
    let mut rows = engine.rows();
    // Divide and conquer fills a backward scratch beside the forward one.
    let mut bwd = (!table).then(|| engine.rows());
    let (peak, mode) = match &bwd {
        None => (c + rows.count(), DpExecMode::Table),
        Some(bwd) => (rows.count() + bwd.count(), DpExecMode::DivideConquer),
    };
    let mut cells = Cells::default();
    let mut rows_done = 0usize;
    for stride in engine.strides(c) {
        let part = match &mut bwd {
            None => {
                for k in 1..=c {
                    let splits = &mut jm[(k - 1) * width..k * width];
                    cells += engine.step_fwd(k, 0, n, stride, &mut rows, Some(splits)).map_err(
                        // Rows 1..k − 1 of this probe completed before the abort.
                        |e| {
                            e.with_dp_progress(engine.progress(
                                rows_done + k - 1,
                                cells,
                                peak,
                                mode,
                            ))
                        },
                    )?;
                }
                rows_done += c;
                Partition {
                    boundaries: engine.backtrack(&jm, c),
                    value: rows.value(n),
                    lower: rows.lower(n),
                }
            }
            Some(bwd) => engine
                .dnc_boundaries(stride, c, &mut rows, bwd, &mut cells, &mut rows_done)
                .map_err(|e| e.with_dp_progress(engine.progress(rows_done, cells, peak, mode)))?,
        };
        let reduction = Reduction::from_boundaries_with_policy(
            input,
            weights,
            &engine.stats,
            &part.boundaries,
            opts.policy,
        )?;
        debug_assert!(
            stride > 1 || (reduction.sse() - part.value).abs() <= 1e-6 * (1.0 + part.value),
            "reconstructed SSE {} deviates from DP optimum {}",
            reduction.sse(),
            part.value
        );
        if let Some(ratio) = engine.certify(stride, reduction.sse(), part.lower) {
            let stats = engine.run_stats(rows_done, cells, peak, mode, ratio);
            return Ok(DpOutcome { reduction, stats });
        }
        rows.reset(0..=n);
    }
    // pta-lint: allow(no-panic-in-lib) — the last probe is the exact stride
    // 1, which certifies unconditionally.
    unreachable!("the exact stride-1 probe always certifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::tests::fig1c;
    use crate::dp::DpMode;
    use pta_temporal::TimeInterval;

    fn with_mode(mode: DpMode) -> DpOptions {
        DpOptions::default().with_mode(mode)
    }

    /// Example 6 / Fig. 1(d): the best reduction of the running example to
    /// 4 tuples has error 49 166 and merges {s1,s2}, {s3,s4,s5}, {s6}, {s7}.
    #[test]
    fn example_6_optimal_reduction() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for f in [size_bounded, size_bounded_naive] {
            let out = f(&input, &w, 4).unwrap();
            let r = &out.reduction;
            assert_eq!(r.len(), 4);
            assert!((r.sse() - 49_166.666_667).abs() < 1e-3, "sse {}", r.sse());
            assert_eq!(r.source_ranges(), &[0..2, 2..5, 5..6, 6..7]);
            assert!((r.relation().value(0, 0) - 733.333_333).abs() < 1e-4);
            assert!((r.relation().value(1, 0) - 375.0).abs() < 1e-9);
            assert_eq!(r.relation().interval(1), TimeInterval::new(4, 7).unwrap());
        }
    }

    /// Example 11: backtracking follows J[4][7] = 6, J[3][6] = 5,
    /// J[2][5] = 2, J[1][2] = 0 — boundaries 0, 2, 5, 6, 7.
    #[test]
    fn example_11_backtrack_path() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let out = size_bounded(&input, &w, 4).unwrap();
        let cuts: Vec<usize> =
            out.reduction.source_ranges().iter().map(|r| r.start).chain([7]).collect();
        assert_eq!(cuts, vec![0, 2, 5, 6, 7]);
    }

    /// Both backtracking modes produce the paper's partition, and the
    /// stats faithfully report which one ran and its memory footprint.
    #[test]
    fn modes_agree_on_running_example() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for c in 3..=6 {
            let table = size_bounded_with_opts(&input, &w, c, with_mode(DpMode::Table)).unwrap();
            let dnc =
                size_bounded_with_opts(&input, &w, c, with_mode(DpMode::DivideConquer)).unwrap();
            assert_eq!(table.stats.mode, DpExecMode::Table);
            assert_eq!(dnc.stats.mode, DpExecMode::DivideConquer);
            assert_eq!(table.stats.peak_rows, c + 2);
            assert_eq!(dnc.stats.peak_rows, 4);
            assert_eq!(table.reduction.source_ranges(), dnc.reduction.source_ranges());
            assert!((table.reduction.sse() - dnc.reduction.sse()).abs() < 1e-9);
        }
    }

    /// A tiny explicit budget forces divide and conquer; a generous one
    /// keeps the table.
    #[test]
    fn budget_knob_selects_the_mode() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let forced = size_bounded_with_opts(&input, &w, 4, with_mode(DpMode::Budget(8))).unwrap();
        assert_eq!(forced.stats.mode, DpExecMode::DivideConquer);
        let roomy =
            size_bounded_with_opts(&input, &w, 4, with_mode(DpMode::Budget(1 << 10))).unwrap();
        assert_eq!(roomy.stats.mode, DpExecMode::Table);
        assert_eq!(forced.reduction.source_ranges(), roomy.reduction.source_ranges());
    }

    #[test]
    fn reduction_to_cmin_merges_each_segment() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let out = size_bounded(&input, &w, 3).unwrap();
        assert_eq!(out.reduction.len(), 3);
        assert!((out.reduction.sse() - 269_285.714_285).abs() < 1e-2);
        assert_eq!(out.reduction.source_ranges(), &[0..5, 5..6, 6..7]);
    }

    #[test]
    fn below_cmin_is_rejected() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let err = size_bounded(&input, &w, 2).unwrap_err();
        assert!(matches!(err, CoreError::SizeBelowMinimum { requested: 2, cmin: 3 }));
    }

    #[test]
    fn size_at_least_n_is_identity() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for c in [7, 8, 100] {
            let out = size_bounded(&input, &w, c).unwrap();
            assert_eq!(out.reduction.len(), 7);
            assert_eq!(out.reduction.sse(), 0.0);
        }
    }

    #[test]
    fn empty_input_reduces_to_empty() {
        let input = SequentialRelation::empty(1);
        let w = Weights::uniform(1);
        let out = size_bounded(&input, &w, 0).unwrap();
        assert!(out.reduction.is_empty());
    }

    #[test]
    fn weight_dimension_is_checked() {
        let input = fig1c();
        let w = Weights::uniform(2);
        assert!(matches!(
            size_bounded(&input, &w, 4),
            Err(CoreError::WeightDimensionMismatch { .. })
        ));
    }

    /// Gap pruning evaluates strictly fewer split points on gap-rich data.
    #[test]
    fn pruning_reduces_work() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let pruned = size_bounded(&input, &w, 4).unwrap();
        let naive = size_bounded_naive(&input, &w, 4).unwrap();
        assert!(pruned.stats.cells < naive.stats.cells);
        assert!((pruned.reduction.sse() - naive.reduction.sse()).abs() < 1e-9);
    }

    /// Doubling the SSE weight of the only dimension scales the optimal
    /// error by 4 but leaves the partition unchanged.
    #[test]
    fn weights_scale_error_not_partition() {
        let input = fig1c();
        let base = size_bounded(&input, &Weights::uniform(1), 4).unwrap();
        let scaled = size_bounded(&input, &Weights::new(&[2.0]).unwrap(), 4).unwrap();
        assert_eq!(base.reduction.source_ranges(), scaled.reduction.source_ranges());
        assert!((scaled.reduction.sse() - 4.0 * base.reduction.sse()).abs() < 1e-6);
    }
}
