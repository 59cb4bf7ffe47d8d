//! Exact size-bounded PTA by run decomposition.
//!
//! A break separates tuples that can never merge, so the maximal
//! break-free runs of the gap vector are independent subproblems: a
//! `c`-piece reduction is one partition per run, and its SSE is the sum
//! of theirs. Rather than one DP whose every row rescans every run, the
//! driver solves the runs apart and combines them (see "Run
//! decomposition" in the [module docs](super)):
//!
//! 1. With slack `s = c − cmin`, run `r` takes between 1 and
//!    `d_r = min(n_r, s + 1)` pieces. Runs with `d_r = 1` are *forced* to
//!    one piece; the others are *free*.
//! 2. Each free run fills rows `1..=d_r` of its own DP over its own cells
//!    and keeps the last cell of each row: its error curve. Under a
//!    split-point table the fill records the run's table too.
//! 3. A min-plus merge of the curves splits the slack among the free runs.
//! 4. Each free run is backtracked at its size: a walk of its recorded
//!    table, or divide and conquer over its cells.
//!
//! With at most one free run there is nothing to merge: that run takes
//! the whole slack and the single-range solver partitions it.

use super::size_bounded::RangeSolver;
use super::{Cells, DpEngine, DpExecMode, DpStats, Fwd, Partition, PAR_MIN_ROW_WORK};
use crate::error::CoreError;

/// A free run: the tuples `lo..hi` and its curve depth `d_r`.
#[derive(Debug, Clone, Copy)]
struct FreeRun {
    lo: usize,
    hi: usize,
    depth: usize,
}

impl FreeRun {
    fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Entries of one row over the run's cells `lo..=hi`.
    fn width(&self) -> usize {
        self.len() + 1
    }

    /// Estimated split-point evaluations of `rows` row fills over the run:
    /// the fan-out gates, not an exact cost.
    fn work(&self, rows: usize) -> u64 {
        let n = self.len() as u64;
        n * n * rows as u64 / 2
    }
}

/// Rows filled and split points evaluated.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    cells: Cells,
    rows: usize,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, rhs: Self) {
        self.cells += rhs.cells;
        self.rows += rhs.rows;
    }
}

/// The maximal break-free runs of the engine's gap vector, as `(lo, hi)`
/// tuple ranges in order.
fn runs(engine: &DpEngine) -> impl Iterator<Item = (usize, usize)> + '_ {
    let breaks = engine.gaps.breaks().iter().copied();
    std::iter::once(0).chain(breaks.clone()).zip(breaks.chain(std::iter::once(engine.n)))
}

/// `PTAc` by run decomposition: the optimal `c`-piece partition of the
/// whole input and the run's stats. Requires `cmin ≤ c < n`; `table` is
/// the backtracking mode resolved for the whole input, which every
/// per-run solve uses. Its tables fit the whole-input table's budget:
/// `Σ_r d_r · (n_r + 1) ≤ (s + 1) · (n + cmin) ≤ c · (n + 1)`.
// pta-lint: allow(cancel-coverage) — the loop stitches run boundaries; the
// row fills poll inside fill_row and the merge polls per run.
pub(crate) fn size_bounded_by_runs(
    engine: &DpEngine,
    c: usize,
    table: bool,
) -> Result<(Partition, DpStats), CoreError> {
    let slack = c - engine.gaps.cmin();
    let free: Vec<FreeRun> = runs(engine)
        .filter(|&(lo, hi)| slack > 0 && hi - lo > 1)
        .map(|(lo, hi)| FreeRun { lo, hi, depth: (hi - lo).min(slack + 1) })
        .collect();
    let mode = if table { DpExecMode::Table } else { DpExecMode::DivideConquer };
    // Peak memory in entries, reported in `(n + 1)`-entry rows.
    let rows_of = |entries: usize| entries.div_ceil(engine.n + 1);
    let abort = |work: Work, peak: usize| {
        move |e: CoreError| {
            e.with_dp_progress(engine.progress(work.rows, work.cells, rows_of(peak), mode))
        }
    };
    let mut work = Work::default();
    let mut peak = 0;
    let parts = match free.as_slice() {
        [] => Vec::new(),
        &[run] => {
            // One free run takes the whole slack.
            let mut solver = RangeSolver::new(engine, run.lo, run.hi, slack + 1, table);
            peak = solver.peak() * run.width();
            let part = solver.solve(1, &mut work.cells, &mut work.rows);
            vec![part.map_err(abort(work, peak))?]
        }
        _ => {
            // Under a table, one allocation holds every run's split
            // points, `d_r` rows of `n_r + 1` entries each, in run order.
            let table_len = |r: &FreeRun| if table { r.depth * r.width() } else { 0 };
            let mut splits = vec![0usize; free.iter().map(table_len).sum()];
            let curve_entries: usize = free.iter().map(|r| r.depth).sum();
            let sweep_entries: usize = free.iter().map(|r| 2 * r.width()).sum();
            peak = splits.len() + curve_entries + sweep_entries.max(2 * (slack + 1));
            let mut rest = splits.as_mut_slice();
            let jobs: Vec<(FreeRun, &mut [usize])> = free
                .iter()
                .map(|&r| {
                    let (own, tail) = std::mem::take(&mut rest).split_at_mut(table_len(&r));
                    rest = tail;
                    (r, own)
                })
                .collect();
            let (curves, spent) = fan_out(
                engine,
                jobs,
                |(r, _)| r.work(r.depth),
                |(r, own), w| run_curve(engine, r, own, w),
            );
            work += spent;
            let curves = curves.map_err(abort(work, peak))?;
            let sizes = merge_runs(engine, &curves, slack, &mut work).map_err(abort(work, peak))?;
            if table {
                // Every size is within the recorded depth: walk the tables.
                let mut rest = splits.as_slice();
                free.iter()
                    .zip(curves)
                    .zip(sizes)
                    .map(|((r, curve), size)| {
                        let (own, tail) = rest.split_at(table_len(r));
                        rest = tail;
                        let value = curve[size - 1];
                        let boundaries = engine.backtrack(own, r.lo, r.hi, size);
                        Partition { boundaries, value, lower: value }
                    })
                    .collect()
            } else {
                drop(curves);
                peak = peak.max(free.iter().map(|r| 4 * r.width()).sum());
                let jobs: Vec<(FreeRun, usize)> = free.iter().copied().zip(sizes).collect();
                let (parts, spent) = fan_out(
                    engine,
                    jobs,
                    |&(r, size)| r.work(size),
                    |(r, size), w| {
                        RangeSolver::new(engine, r.lo, r.hi, size, false).solve(
                            1,
                            &mut w.cells,
                            &mut w.rows,
                        )
                    },
                );
                work += spent;
                parts.map_err(abort(work, peak))?
            }
        }
    };

    let mut boundaries = Vec::with_capacity(c + 1);
    let mut value = 0.0;
    let mut solved = free.iter().zip(parts).peekable();
    for (lo, hi) in runs(engine) {
        match solved.next_if(|(r, _)| r.lo == lo) {
            Some((_, part)) => {
                boundaries.extend_from_slice(&part.boundaries[..part.boundaries.len() - 1]);
                value += part.value;
            }
            None => {
                boundaries.push(lo);
                value += engine.stats.range_sse(&engine.weights, lo..hi);
            }
        }
    }
    boundaries.push(engine.n);
    debug_assert_eq!(boundaries.len(), c + 1);
    let stats = engine.run_stats(work.rows, work.cells, rows_of(peak), mode, 1.0);
    Ok((Partition { boundaries, value, lower: value }, stats))
}

/// Runs `job` on every item and returns the results in item order (the
/// first error in item order wins) with the work of every job that ran.
/// When the estimated work pays for a fan-out, the pool runs one item
/// per job, unless one item carries a `1/threads` share of it or more:
/// such an item would hold a single worker for most of the run, so the
/// items run in order on the calling thread instead, where each item's
/// own row fills fan out. Each job is the same computation wherever it
/// runs, so results and counters do not depend on the thread budget.
// pta-lint: allow(cancel-coverage) — every job polls the token inside its
// row fills.
fn fan_out<T: Send, R: Send>(
    engine: &DpEngine,
    items: Vec<T>,
    weight: impl Fn(&T) -> u64,
    job: impl Fn(T, &mut Work) -> Result<R, CoreError> + Sync,
) -> (Result<Vec<R>, CoreError>, Work) {
    let run = |item: T| {
        let mut work = Work::default();
        let out = job(item, &mut work);
        (out, work)
    };
    let total: u64 = items.iter().map(&weight).sum();
    let threads = engine.pool.threads() as u64;
    let outs = if threads > 1
        && total >= PAR_MIN_ROW_WORK
        && !pta_pool::in_worker()
        && items.iter().all(|item| weight(item) * threads < total)
    {
        engine.pool.map(items, run)
    } else {
        let mut outs = Vec::with_capacity(items.len());
        for item in items {
            let out = run(item);
            let failed = out.0.is_err();
            outs.push(out);
            if failed {
                break;
            }
        }
        outs
    };
    let mut spent = Work::default();
    let mut results = Vec::with_capacity(outs.len());
    let mut first_err = None;
    for (out, work) in outs {
        spent += work;
        match out {
            Ok(v) => results.push(v),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    (first_err.map_or(Ok(results), Err), spent)
}

/// A free run's error curve: fills rows `1..=d_r` of the run's own DP
/// (`O(n_r)` scratch) and keeps each row's last cell, recording the
/// run's split points into `splits` (`d_r` rows of `n_r + 1` entries)
/// unless it is empty.
// pta-lint: allow(cancel-coverage) — each row fill polls the token inside
// fill_row.
fn run_curve(
    engine: &DpEngine,
    run: FreeRun,
    splits: &mut [usize],
    work: &mut Work,
) -> Result<Vec<f64>, CoreError> {
    let width = run.width();
    let mut rows = engine.rows_over(run.lo, run.hi);
    let mut curve = Vec::with_capacity(run.depth);
    for k in 1..=run.depth {
        let row = (!splits.is_empty()).then(|| &mut splits[(k - 1) * width..k * width]);
        work.cells += engine.step::<Fwd>(k, run.lo, run.hi, 1, &mut rows, row)?;
        work.rows += 1;
        curve.push(rows.value(run.hi));
    }
    Ok(curve)
}

/// The min-plus merge's state: the free runs' curves, the budget vectors
/// of the two halves of the current split, and the extra pieces decided
/// so far.
struct MergeState<'a> {
    engine: &'a DpEngine,
    curves: &'a [Vec<f64>],
    left: Vec<f64>,
    right: Vec<f64>,
    extra: Vec<usize>,
    evals: u64,
}

/// Splits `slack` extra pieces among the free runs to minimize the summed
/// SSE, where `curves[r][x]` is run `r`'s optimal SSE in `x + 1` pieces,
/// and returns each run's size. Hirschberg's scheme over the run
/// sequence keeps the memory at two `(s + 1)`-entry budget vectors: each
/// split min-plus folds the curves of its two halves, picks the best
/// division of its budget, and recurses on the halves. The allocation
/// evaluations count as scan cells.
fn merge_runs(
    engine: &DpEngine,
    curves: &[Vec<f64>],
    slack: usize,
    work: &mut Work,
) -> Result<Vec<usize>, CoreError> {
    let mut m = MergeState {
        engine,
        curves,
        left: Vec::with_capacity(slack + 1),
        right: Vec::with_capacity(slack + 1),
        extra: vec![0; curves.len()],
        evals: 0,
    };
    let split = merge_split(&mut m, 0, curves.len(), slack);
    work.cells.scan += m.evals;
    split?;
    Ok(m.extra.into_iter().map(|x| x + 1).collect())
}

/// Allocates `budget` extra pieces to the runs `a..b`. On an exact tie
/// the later half gets the larger share, as the global scan's
/// rightmost split would.
fn merge_split(m: &mut MergeState<'_>, a: usize, b: usize, budget: usize) -> Result<(), CoreError> {
    if budget == 0 {
        return Ok(());
    }
    if b - a == 1 {
        m.extra[a] = budget;
        return Ok(());
    }
    m.engine.cancel.check()?;
    let mid = a + (b - a) / 2;
    let cap_left = merge_fold(m.engine, &m.curves[a..mid], budget, &mut m.left, &mut m.evals)?;
    let cap_right = merge_fold(m.engine, &m.curves[mid..b], budget, &mut m.right, &mut m.evals)?;
    let first = budget - cap_right;
    let mut best = f64::INFINITY;
    let mut take = first;
    for x in first..=cap_left {
        let total = m.left[x] + m.right[budget - x];
        if total < best {
            best = total;
            take = x;
        }
    }
    m.evals += (cap_left + 1).saturating_sub(first) as u64;
    merge_split(m, a, mid, take)?;
    merge_split(m, mid, b, budget - take)
}

/// Min-plus folds `curves` into `acc`: `acc[x]` becomes their least summed
/// SSE with `x` extra pieces, for `x ≤ min(budget, Σ (d_r − 1))`, which
/// is returned. The fold runs in place, each budget reading only smaller
/// ones, and polls the cancel token once per run.
fn merge_fold(
    engine: &DpEngine,
    curves: &[Vec<f64>],
    budget: usize,
    acc: &mut Vec<f64>,
    evals: &mut u64,
) -> Result<usize, CoreError> {
    acc.clear();
    acc.push(0.0);
    let mut cap = 0;
    for curve in curves {
        engine.cancel.check()?;
        let top = (cap + curve.len() - 1).min(budget);
        acc.resize(top + 1, f64::INFINITY);
        for x in (0..=top).rev() {
            let (lo, hi) = (x.saturating_sub(cap), x.min(curve.len() - 1));
            let mut best = f64::INFINITY;
            for (y, &v) in curve.iter().enumerate().take(hi + 1).skip(lo) {
                let total = acc[x - y] + v;
                if total < best {
                    best = total;
                }
            }
            acc[x] = best;
            *evals += (hi + 1 - lo) as u64;
        }
        cap = top;
    }
    Ok(cap)
}
