//! `PTAc`: exact size-bounded PTA (Fig. 7).

use pta_temporal::SequentialRelation;

use crate::dp::{
    runs, Cells, DpEngine, DpExecMode, DpOptions, DpOutcome, DpStrategy, Fwd, Partition, Rows,
};
use crate::error::CoreError;
use crate::reduction::Reduction;
use crate::weights::Weights;

/// Exact size-bounded PTA: the reduction of `input` to (exactly) `c`
/// tuples with minimal SSE (Def. 6), via the gap-pruned DP.
///
/// Worst case `O(n² c p)` time on gap-free data; near-linear when gaps or
/// groups bound the adjacent runs (§5.3). On an input with breaks the
/// break-free runs are solved apart and their error curves merged, in
/// `O(Σ_r n_r² · d_r + s · Σ_r d_r)` with slack `s = c − cmin` and
/// `d_r = min(n_r, s + 1)` (see "Run decomposition" in the
/// [module docs](crate::dp)). Space is two error rows plus whatever the
/// backtracking mode needs: `O(n c)` for the materialized split-point
/// table, `O(n)` under divide and conquer —
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

/// The size-bounded driver. Exact pruned runs (every strategy but
/// `Approx(ε > 0)`) over an input with breaks decompose into its
/// break-free runs (see [`runs`](super::runs)). Gap-free inputs,
/// `Approx(ε > 0)` runs and the unpruned baseline solve the whole input
/// as one range, probing each stride of
/// the strategy's schedule (one exact stride-1 probe unless the strategy
/// is `Approx(ε > 0)`) until a partition certifies, accumulating the work
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

    let table = opts.mode.materializes_table(n, c);
    // SSE bits depend only on the boundaries: every path rebuilds the
    // reduction from the global prefix stats. Exact partitions must
    // reproduce their DP value.
    let reduce = |part: &Partition, exact: bool| {
        let reduction = Reduction::from_boundaries_with_policy(
            input,
            weights,
            &engine.stats,
            &part.boundaries,
            opts.policy,
        )?;
        debug_assert!(
            !exact || (reduction.sse() - part.value).abs() <= 1e-6 * (1.0 + part.value),
            "reconstructed SSE {} deviates from DP optimum {}",
            reduction.sse(),
            part.value
        );
        Ok::<_, CoreError>(reduction)
    };
    if prune && engine.approx_eps().is_none() && engine.gaps.count() > 0 {
        let (part, stats) = runs::size_bounded_by_runs(&engine, c, table)?;
        return Ok(DpOutcome { reduction: reduce(&part, true)?, stats });
    }
    let mut solver = RangeSolver::new(&engine, 0, n, c, table);
    let (peak, mode) = (solver.peak(), solver.mode());
    let mut cells = Cells::default();
    let mut rows_done = 0usize;
    for stride in engine.strides(c) {
        let part = solver
            .solve(stride, &mut cells, &mut rows_done)
            .map_err(|e| e.with_dp_progress(engine.progress(rows_done, cells, peak, mode)))?;
        let reduction = reduce(&part, stride == 1)?;
        if let Some(ratio) = engine.certify(stride, reduction.sse(), part.lower) {
            let stats = engine.run_stats(rows_done, cells, peak, mode, ratio);
            return Ok(DpOutcome { reduction, stats });
        }
        solver.reset();
    }
    // pta-lint: allow(no-panic-in-lib) — the last probe is the exact stride
    // 1, which certifies unconditionally.
    unreachable!("the exact stride-1 probe always certifies")
}

/// How a [`RangeSolver`] recovers its split points.
enum Recovery {
    /// A materialized split-point table: `c` rows over the range's cells.
    Table(Vec<usize>),
    /// Divide and conquer, with its backward scratch rows.
    DivideConquer(Rows),
}

/// The single-range size-bounded DP (Fig. 7): partitions the tuple range
/// `lo..hi` into `c` pieces, recovering the split points from a
/// materialized table or by divide and conquer. It owns its scratch —
/// rows covering only `lo..=hi`, so a run's solver costs `O(n_r)` memory
/// plus its table — and reuses it across probes. Over `0..n` it is the
/// classic whole-input DP.
pub(crate) struct RangeSolver<'e> {
    engine: &'e DpEngine,
    c: usize,
    fwd: Rows,
    recovery: Recovery,
}

impl<'e> RangeSolver<'e> {
    /// Scratch for partitioning `lo..hi` into `c` pieces, with a split-point
    /// table when `table` holds and divide-and-conquer rows otherwise.
    pub(crate) fn new(engine: &'e DpEngine, lo: usize, hi: usize, c: usize, table: bool) -> Self {
        let recovery = if table {
            Recovery::Table(vec![0usize; c * (hi - lo + 1)])
        } else {
            Recovery::DivideConquer(engine.rows_over(lo, hi))
        };
        Self { engine, c, fwd: engine.rows_over(lo, hi), recovery }
    }

    /// Rows held at once: the `c` split-point rows beside the two value
    /// rows, or the four divide-and-conquer scratch rows (twice that on an
    /// `Approx(ε > 0)` probe, which carries lower-bracket rows).
    pub(crate) fn peak(&self) -> usize {
        match &self.recovery {
            Recovery::Table(_) => self.c + self.fwd.count(),
            Recovery::DivideConquer(bwd) => self.fwd.count() + bwd.count(),
        }
    }

    /// The backtracking mode this solver runs.
    pub(crate) fn mode(&self) -> DpExecMode {
        match self.recovery {
            Recovery::Table(_) => DpExecMode::Table,
            Recovery::DivideConquer(_) => DpExecMode::DivideConquer,
        }
    }

    /// One probe at `stride`: the partition and its value (optimal at
    /// stride 1). Work accumulates into `cells` and `rows` as each row
    /// completes, so an abort leaves honest partial counters behind.
    // pta-lint: allow(cancel-coverage) — each row fill below polls the
    // token inside fill_row.
    pub(crate) fn solve(
        &mut self,
        stride: usize,
        cells: &mut Cells,
        rows: &mut usize,
    ) -> Result<Partition, CoreError> {
        let engine = self.engine;
        let (lo, hi) = self.fwd.span();
        match &mut self.recovery {
            Recovery::Table(jm) => {
                let width = hi - lo + 1;
                for k in 1..=self.c {
                    let splits = &mut jm[(k - 1) * width..k * width];
                    *cells += engine.step::<Fwd>(k, lo, hi, stride, &mut self.fwd, Some(splits))?;
                    *rows += 1;
                }
                Ok(Partition {
                    boundaries: engine.backtrack(jm, lo, hi, self.c),
                    value: self.fwd.value(hi),
                    lower: self.fwd.lower(hi),
                })
            }
            Recovery::DivideConquer(bwd) => {
                engine.dnc_boundaries(stride, self.c, &mut self.fwd, bwd, cells, rows)
            }
        }
    }

    /// `∞`-resets the value rows between probes.
    fn reset(&mut self) {
        let (lo, hi) = self.fwd.span();
        self.fwd.reset(lo..=hi);
    }
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
            // The runs are s1..s5, s6 and s7. At c = cmin = 3 every run
            // is forced to one piece and nothing is allocated; above it
            // s1..s5 is the only free run and takes c − 2 pieces: its
            // c − 2 split-point rows beside two value rows, or the four
            // divide-and-conquer rows, each of 6 entries — in 8-entry
            // (n + 1) rows, rounded up.
            let (table_peak, dnc_peak) = if c == 3 { (0, 0) } else { ((6 * c).div_ceil(8), 3) };
            assert_eq!(table.stats.peak_rows, table_peak);
            assert_eq!(dnc.stats.peak_rows, dnc_peak);
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
