//! Exact PTA evaluation by dynamic programming (§5).
//!
//! The DP fills an error matrix `E` where cell `(k, i)` holds the smallest
//! SSE of reducing the first `i` ITA tuples to `k` tuples:
//!
//! ```text
//! E[k][i] = min_{j} ( E[k−1][j] + SSE(merge s_{j+1..i}) )
//! ```
//!
//! with merging across non-adjacent pairs costing `∞`. Three accelerations
//! apply (§5.2–5.3): constant-time range SSE from prefix sums, the
//! `imax`/`jmin` bounds derived from the gap vector, and Jagadish et al.'s
//! early break when the range SSE alone exceeds the best cell value.
//!
//! # Row minimization strategies
//!
//! Each row fill decomposes its cells into *inter-break windows* (maximal
//! runs of cells sharing the same rightmost break below them), hoisting
//! every gap lookup out of the cell loop. Within a window the candidate
//! split range is break-free; when the window's tuple values are
//! additionally **monotone in every dimension** — an exact, precomputed
//! certificate — its cost matrix `prev[j] + SSE(j..i)` is provably Monge
//! (the 1-D k-means structure; see [`monge`] for why monotonicity is
//! required and what breaks without it) and two interchangeable linear
//! minimizers apply, selected by [`DpStrategy`]:
//!
//! * **Scan** ([`DpStrategy::Scan`]): the Fig. 7 decreasing-`j` scan with
//!   the early break — `O(window²)` per row window in the worst case.
//!   This is what the paper runs; on gap-rich data windows are tiny and
//!   the scan is near-linear.
//! * **Monge** ([`DpStrategy::Monge`]): SMAWK/divide-and-conquer row
//!   minimization on every certified window — `O(window)` per monotone
//!   row window, making the whole DP `O(c · n)` on gap-free monotone-run
//!   data (trends, ramps, plateaus) where §5.3 pruning has nothing to
//!   cut and the scan is `O(c · n²)`. Uncertified windows scan.
//! * **Auto** ([`DpStrategy::Auto`], the default everywhere): SMAWK on
//!   certified windows at least [`MONGE_AUTO_MIN_WINDOW`] cells wide in
//!   both dimensions, the scan below. Every strategy returns identical
//!   row values and split points (tie-breaking follows the scan; see the
//!   [`monge`] module docs), pinned by the cross-strategy equivalence
//!   suite.
//! * **Approx** ([`DpStrategy::Approx`]): the certified `(1 + ε)` tier
//!   for unsorted gap-free data, where no window carries the certificate
//!   and the scan is `O(c · n²)`. It runs the same fills on a sparser
//!   candidate grid (see [`approx`]).
//!
//! # One row engine
//!
//! Every strategy, mode and entry point runs through the same machinery:
//! one row fill, window walk, window solver, scan and Monge window solver,
//! one parallel chunker and fan-out, one divide-and-conquer recursion, and
//! one driver per entry point. The row code is written once for both
//! directions — the prefix rows of Fig. 7 and the mirrored suffix rows
//! that divide and conquer pairs them with — over a direction type fixed
//! at compile time (`Dir`), whose methods own every piece of index
//! arithmetic that differs: the row's cells and fixed end, the window's
//! bounding break, the candidate order, the stride clamp, the bracket's
//! snap allowance, the free end of the SSE kernel, and the Monge window's
//! columns and tie preference. Beyond the Monge window engine (exact
//! strategies only), a run's strategy sets two parameters of every fill:
//!
//! * the **grid stride** `b`: 1 for the exact strategies — every cell
//!   over every candidate — and, for `Approx(ε > 0)`, each stride of the
//!   `approx::probe_strides` schedule in turn, whose fills solve only
//!   the grid cells over the grid candidates;
//! * the optional **lower-bracket row** `lb`, carried beside the value
//!   row by `Approx(ε > 0)` runs only; it certifies their result (see
//!   [`approx`] for the soundness proof). Exact runs allocate no `lb`
//!   rows and do no `lb` work per candidate: the window scan is compiled
//!   once with the bracket and once without.
//!
//! Every range SSE a fill evaluates comes from one prefix-sum kernel
//! (see [`crate::prefix`]). A window anchors it at the end its ranges
//! share, the cell in a scan or the break in a forced window, and picks
//! the kernel's `p = 1` or any-`p` instantiation once. Row 1 and the
//! naive baseline check each range for a break and then call
//! `range_sse`, the kernel anchored at the range's end.
//!
//! # Backtracking modes and their memory model
//!
//! Error values only ever need two `(n + 1)`-entry rows, so the memory
//! question is entirely about recovering the optimal *split points*. Two
//! interchangeable modes exist, selected by [`DpMode`]:
//!
//! * **Materialized table** ([`DpMode::Table`]): record the best split
//!   point of every cell in a `c × (n + 1)` `usize` matrix and walk it
//!   backwards once — `O(n · c)` memory, a single DP pass. Fastest while
//!   the table fits in memory.
//! * **Divide and conquer** ([`DpMode::DivideConquer`]): record nothing.
//!   To split `n` tuples into `c` pieces, run a forward DP to row
//!   `⌊c/2⌋` and a mirrored *suffix* DP to row `⌈c/2⌉` (two rows each),
//!   pick the midpoint `m` minimizing their sum, and recurse on the two
//!   halves (Hirschberg's scheme). Memory is four scratch rows (eight
//!   with `lb` rows) — `O(n)` regardless of `c` — and because each recursion level halves
//!   both the piece count and the covered area, the total work is at most
//!   ~2× the single-pass table fill. This is what lifts exact PTA to
//!   inputs with `n` in the millions.
//!
//! [`DpMode::Auto`] (the default everywhere) materializes the table only
//! when `c · (n + 1)` fits [`DEFAULT_TABLE_BUDGET`] and silently switches
//! to divide and conquer beyond it; nothing fails on large inputs anymore
//! (the pre-existing hard `TableTooLarge` cap is gone). Both modes return
//! identical reductions and are pinned against each other by the
//! cross-mode equivalence tests. The strategy knob is orthogonal: any
//! [`DpStrategy`] combines with any [`DpMode`] — in particular
//! `Monge × DivideConquer` runs exact PTA over gap-free monotone runs in
//! `O(c · n)` time *and* `O(n)` memory.
//!
//! # Run decomposition
//!
//! A break separates tuples that can never merge, so every piece of a
//! reduction lies inside one maximal break-free *run* of the gap vector,
//! and the reduction's SSE is the sum of its runs' SSEs. The gap pruning
//! keeps the whole-input DP from merging across breaks, but each of its
//! `c` rows still rescans every run's in-run candidates: `O(c · Σ n_r²)`
//! on grouped data, for what is a combination of independent per-run
//! problems. Exact `PTAc` on an input with breaks therefore solves the
//! runs apart:
//!
//! * **Forced and free runs.** With slack `s = c − cmin`, run `r` of
//!   `n_r` tuples takes between 1 and `d_r = min(n_r, s + 1)` pieces.
//!   A run with `d_r = 1` (a single tuple, or no slack at all) is
//!   *forced* to one piece and costs no DP work; the others are *free*.
//! * **Curves.** Each free run fills rows `1..=d_r` of its own DP with
//!   the forward row fill, over rows that cover only the run (`O(n_r)`
//!   scratch), and keeps each row's last cell: its optimal SSE in
//!   `1..=d_r` pieces. The runs fan out across the pool, one run per
//!   job. When one run carries a `1/threads` share of the estimated
//!   work or more, that run would hold one worker for most of the fill,
//!   so the runs fill in order on the calling thread instead and each
//!   run's rows fan out.
//! * **Merge.** A min-plus merge of the curves splits the slack among the
//!   free runs in `O(s · Σ_r d_r)`: each fold is windowed to the budget
//!   the runs folded so far can absorb, and Hirschberg's scheme over the
//!   run sequence (fold both halves, pick the best division of the
//!   budget, recurse) recovers the allocation with two `(s + 1)`-entry
//!   vectors instead of a (free runs) × `(s + 1)` argmin table. On an
//!   exact tie the later half takes the larger share, as the whole-input
//!   scan's rightmost split would. The merge polls the cancel token once
//!   per folded run.
//! * **Backtracking.** The [`DpMode`] resolves for the whole input
//!   (`c · (n + 1)` against the budget), so [`DpStats::mode`] reads as
//!   before. Under a table each curve fill also records its run's
//!   split points (`d_r · (n_r + 1)` entries; all runs together stay
//!   within `c · (n + 1)`), and a run is backtracked by walking its
//!   table at its size — no second fill. Under divide and conquer the
//!   curves keep only two rows per run, and each run is partitioned at
//!   its size by the whole-input DP's divide-and-conquer recursion over
//!   its own cells (sizes `1` and `n_r` need no DP).
//!
//! Inputs without breaks, and inputs where at most one run is free, skip
//! the curves and the merge: the one free run takes the whole slack and
//! runs the single-range DP (over `0..n` on a gap-free input, which is
//! exactly the whole-input DP). The reduction is always rebuilt from
//! the global prefix stats, so its SSE bits depend only on the
//! boundaries; ties aside, every strategy and mode returns the
//! boundaries of the whole-input DP. [`DpStats`] sums the runs' rows
//! and split points, counts the merge's evaluations as scan cells, and
//! reports the runs' summed buffers in `(n + 1)`-entry rows; no counter
//! depends on the thread budget. The work drops from
//! `O(c · Σ_r n_r²)` to `O(Σ_r n_r² · d_r + s · Σ_r d_r)`. Error-bounded
//! runs, the curves of [`curve`], `Approx(ε > 0)` probes and the unpruned
//! baseline keep the whole-input DP.
//!
//! [`size_bounded`] implements `PTAc` (Fig. 7), [`error_bounded`]
//! implements `PTAε` (Fig. 8), and [`curve`] produces whole error-vs-size
//! curves for the evaluation. The *naive DP* baseline of the paper's
//! Fig. 18 (recurrence + constant-time SSE, no gap pruning) is available by
//! disabling pruning; it always runs the scan — it exists to measure the
//! unaccelerated recurrence.

pub mod approx;
pub mod curve;
pub mod error_bounded;
pub mod monge;
mod runs;
pub mod size_bounded;

use std::ops::{Range, RangeInclusive};

use pta_failpoints::fail_point;
use pta_pool::Pool;
use pta_temporal::SequentialRelation;

use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::gaps::GapVector;
use crate::policy::GapPolicy;
use crate::prefix::{PrefixStats, SseAnchor};
use crate::reduction::Reduction;
use crate::weights::Weights;

pub use approx::DEFAULT_APPROX_EPS;
pub use monge::{DpStrategy, MONGE_AUTO_MIN_WINDOW};

use monge::RowMinEngine;

/// Default split-point table budget of [`DpMode::Auto`], in table entries
/// (one `usize` each): 2²⁵ entries, i.e. 256 MiB on 64-bit targets.
/// Inputs whose `c · (n + 1)` exceeds the budget transparently use
/// divide-and-conquer backtracking — no input is rejected. (The pre-PR
/// hard cap `MAX_TABLE_ENTRIES` was 2²⁸ entries, beyond which exact PTA
/// failed with `TableTooLarge`.)
pub const DEFAULT_TABLE_BUDGET: usize = 1 << 25;

/// How the exact DP recovers the optimal split points. Both modes produce
/// the same optimal reduction; they trade memory against a small constant
/// factor of extra work (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DpMode {
    /// Materialize the split-point table when `c · (n + 1)` fits
    /// [`DEFAULT_TABLE_BUDGET`]; divide and conquer otherwise.
    #[default]
    Auto,
    /// [`DpMode::Auto`] with an explicit table budget in entries — the
    /// opt-in memory knob: the table is materialized only while
    /// `c · (n + 1)` stays within the budget.
    Budget(usize),
    /// Always materialize the split-point table (`O(n · c)` memory, one
    /// DP pass).
    Table,
    /// Always backtrack by divide and conquer (`O(n)` memory, at most
    /// about twice the split-point evaluations).
    DivideConquer,
}

impl DpMode {
    /// Whether a `c × (n + 1)` split-point table fits this mode's budget.
    pub fn materializes_table(self, n: usize, c: usize) -> bool {
        let entries = c.saturating_mul(n.saturating_add(1));
        match self {
            Self::Auto => entries <= DEFAULT_TABLE_BUDGET,
            Self::Budget(budget) => entries <= budget,
            Self::Table => true,
            Self::DivideConquer => false,
        }
    }

    /// How many `(n + 1)`-wide split-point rows the error-bounded DP may
    /// record under this mode before falling back to divide-and-conquer
    /// recovery (`PTAε` does not know its final row count up front).
    pub(crate) fn row_budget(self, n: usize) -> usize {
        match self {
            Self::Auto => DEFAULT_TABLE_BUDGET / (n + 1),
            Self::Budget(budget) => budget / (n + 1),
            Self::Table => usize::MAX,
            Self::DivideConquer => 0,
        }
    }
}

/// The backtracking strategy a DP run actually used — the resolution of a
/// [`DpMode`] request against the input size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DpExecMode {
    /// Split points were recovered from a materialized table.
    #[default]
    Table,
    /// Split points were recovered by divide and conquer.
    DivideConquer,
}

/// Options shared by the exact DP entry points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpOptions {
    /// Mergeability policy (§8 gap-tolerant extension).
    pub policy: GapPolicy,
    /// Split-point backtracking mode.
    pub mode: DpMode,
    /// Row minimization strategy.
    pub strategy: DpStrategy,
    /// Thread budget for the row fills; `0` (the default) means the
    /// process-wide default ([`pta_pool::default_threads`], i.e. the
    /// `PTA_THREADS` knob). Every budget produces bit-identical results —
    /// parallelism splits rows into the same per-cell computations the
    /// sequential scan performs (see `DpEngine::fill_row`).
    pub threads: usize,
    /// Cooperative cancellation handle, polled at row/window granularity.
    /// The default token is inert (the run can never be interrupted);
    /// arm it with [`CancelToken::new`] / [`CancelToken::with_timeout`]
    /// to make the run abort with [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`] carrying partial-progress stats.
    pub cancel: CancelToken,
}

impl DpOptions {
    /// Sets the mergeability policy (§8 gap-tolerant extension).
    #[must_use]
    pub fn with_policy(mut self, policy: GapPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the split-point backtracking mode.
    #[must_use]
    pub fn with_mode(mut self, mode: DpMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the row minimization strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: DpStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the thread budget (`0` means the process-wide default).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a cancellation handle.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// Work counters reported by the DP algorithms; the evaluation uses them to
/// show how gap pruning shrinks the search space, `bench_dp` records
/// `peak_rows` as the memory yardstick of the two backtracking modes, and
/// the scan/Monge split of `cells` is the yardstick of the row
/// minimization strategies.
/// `Eq` and derived `Default` are deliberately absent:
/// [`DpStats::certified_ratio`] is an `f64` whose neutral value is `1.0`
/// (an exact run is trivially within every bound), not `0.0`.
///
/// A size-bounded run decomposed into break-free runs (see "Run
/// decomposition" in the [module docs](self)) counts the work of every
/// run: `rows` and `cells` sum the runs' curve fills and backtracks, plus
/// the merge's allocation evaluations as scan cells, and `peak_rows`
/// measures the runs' buffers in `(n + 1)`-entry rows. None of them
/// depends on the thread budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpStats {
    /// Number of matrix rows filled (`k` values), counting divide-and-
    /// conquer re-fills. A decomposed run counts each free run's rows:
    /// `d_r` curve rows, plus its divide-and-conquer rows (a table walk
    /// fills none); forced runs fill none.
    pub rows: usize,
    /// Number of inner-loop split-point evaluations
    /// (`scan_cells + monge_cells`).
    pub cells: u64,
    /// Split-point evaluations performed by the quadratic scan (including
    /// linear `k = 1` rows and forced-split cells). A decomposed run adds
    /// the run merge's evaluations: one per (budget, pieces) pair it
    /// compares.
    pub scan_cells: u64,
    /// Cost-oracle evaluations performed by the Monge row-minima engine.
    pub monge_cells: u64,
    /// Peak number of `(n + 1)`-entry rows simultaneously allocated
    /// (error rows plus recorded split-point rows). `c + 2` for the
    /// materialized table; a small constant for divide and conquer. A
    /// decomposed run's buffers each cover one run (`n_r + 1` entries a
    /// row), so it reports their peak total in `(n + 1)`-entry rows,
    /// rounded up, counting every free run as if all were in flight at
    /// once: two rows each while the curves fill, plus under a table the
    /// runs' split-point tables (`d_r` rows each), beside the curves
    /// (`Σ d_r` entries) and the merge's two `(s + 1)`-entry vectors;
    /// under divide and conquer, four rows per run while the runs
    /// backtrack. With one free run only its single-range solver counts
    /// (`a + 2` or 4 rows of `n_r + 1` entries, converted the same way);
    /// with none, 0.
    pub peak_rows: usize,
    /// Which backtracking mode actually ran.
    pub mode: DpExecMode,
    /// The row minimization strategy the run was asked for (the naive DP
    /// baseline always records [`DpStrategy::Scan`]).
    pub strategy: DpStrategy,
    /// The resolved thread budget of the run (`>= 1`; the
    /// [`DpOptions::threads`] request with `0` replaced by the
    /// process-wide default). A budget above 1 only changes wall time,
    /// never results or the evaluation counters.
    pub threads: usize,
    /// The *a posteriori* certified approximation ratio: the returned
    /// SSE is at most `certified_ratio` times the exact optimum. Exact
    /// runs report `1.0`; [`DpStrategy::Approx`] runs report the
    /// upper/lower-bracket quotient actually proved (`≤ 1 + ε` on every
    /// completed run); aborted runs report `f64::INFINITY` — nothing was
    /// certified.
    pub certified_ratio: f64,
}

impl Default for DpStats {
    fn default() -> Self {
        Self {
            rows: 0,
            cells: 0,
            scan_cells: 0,
            monge_cells: 0,
            peak_rows: 0,
            mode: DpExecMode::default(),
            strategy: DpStrategy::default(),
            threads: 0,
            certified_ratio: 1.0,
        }
    }
}

/// A finished DP run: the optimal reduction plus work counters.
#[derive(Debug, Clone)]
pub struct DpOutcome {
    /// The optimal reduction.
    pub reduction: Reduction,
    /// Work counters.
    pub stats: DpStats,
}

impl DpOutcome {
    /// The identity reduction of a run with nothing to merge (an empty
    /// input, or `c ≥ n`): no rows and no cells, but the strategy the run
    /// was asked for and its resolved thread budget.
    pub(crate) fn identity(
        input: &SequentialRelation,
        strategy: DpStrategy,
        threads: usize,
    ) -> Self {
        let stats =
            DpStats { strategy, threads: Pool::new(threads).threads(), ..DpStats::default() };
        Self { reduction: Reduction::identity(input), stats }
    }
}

/// Per-strategy split-point evaluation counters of one or more row fills.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cells {
    /// Evaluations by the quadratic scan (and linear `k = 1` rows).
    pub(crate) scan: u64,
    /// Cost-oracle evaluations by the Monge engines.
    pub(crate) monge: u64,
}

impl Cells {
    /// Total split-point evaluations.
    pub(crate) fn total(self) -> u64 {
        self.scan + self.monge
    }
}

impl std::ops::AddAssign for Cells {
    fn add_assign(&mut self, rhs: Self) {
        self.scan += rhs.scan;
        self.monge += rhs.monge;
    }
}

/// Minimum *estimated* split-point evaluations in one row fill before the
/// fill fans out across the pool. Below it the scoped-spawn cost (tens of
/// microseconds) is comparable to the row itself; rows this small run the
/// sequential loop even under a multi-thread budget.
const PAR_MIN_ROW_WORK: u64 = 1 << 16;

/// Minimum cells per parallel chunk of a scan window — keeps the chunk
/// descriptor overhead negligible relative to per-cell work.
const PAR_MIN_CHUNK_CELLS: usize = 16;

/// Per-worker oversubscription factor of the chunker: more chunks than
/// workers so the atomic-cursor scheduler can balance the early-break
/// scan's data-dependent cell costs.
const PAR_CHUNKS_PER_WORKER: u64 = 4;

/// Minimum *estimated* split-point evaluations in one row window before
/// the sequential solve loop re-polls the cancel token ahead of it. Every
/// row checks at entry regardless; the per-window poll only exists so a
/// huge window (gap-free data: one window spanning the whole row) cannot
/// delay cancellation by a whole row, and gating it on window work keeps
/// gap-rich rows — thousands of tiny windows — free of per-window
/// `Instant::now()` calls (the `bench_dp` overhead gate).
const CANCEL_CHECK_MIN_WORK: u64 = 1 << 12;

/// The direction of a row fill, fixed at compile time. [`Fwd`] fills the
/// prefix rows of Fig. 7: cell `i` of row `k` holds the best SSE of the
/// tuples from the subproblem's start `lo` to `i` in `k` pieces, whose
/// last piece `j..i` starts at a split `j < i`. [`Bwd`] fills the
/// mirrored suffix rows that divide-and-conquer backtracking pairs them
/// with: cell `i` holds the best SSE of the tuples from `i` to the end
/// `hi`, whose first piece `i..j` ends at a split `j > i`. The row
/// engine is written once over `D: Dir`; these methods own every piece
/// of index arithmetic that differs between the two. The subproblem end
/// a row's pieces run toward (`lo` forward, `hi` backward) is its *fixed
/// end*; a cell's candidates lie between the cell and it. Scans visit the
/// candidates moving away from the cell and keep the first strict
/// minimum, so ties prefer the split nearest the cell: the largest `j`
/// forward, the smallest backward. The methods called per cell or per
/// candidate are `#[inline(always)]`, like the kernel they wrap.
pub(crate) trait Dir {
    /// `true` for prefix rows.
    const FWD: bool;

    /// The cells `first..=last` of row `k` over the tuples `lo..hi`, or
    /// `None` when it has none: `lo + k ..= imax` forward and
    /// `imin ..= hi − k` backward, with `imax`/`imin` the §5.3 gap bounds
    /// on pruned runs and the subproblem's ends otherwise.
    #[inline]
    fn cells(
        gaps: &GapVector,
        prune: bool,
        k: usize,
        lo: usize,
        hi: usize,
    ) -> Option<(usize, usize)> {
        if Self::FWD {
            let imax = if prune { gaps.imax_within(k, lo, hi) } else { hi };
            (lo + k <= imax).then_some((lo + k, imax))
        } else {
            let imin = if prune { gaps.imin_within(k, lo, hi) } else { lo };
            (imin + k <= hi).then(|| (imin, hi - k))
        }
    }

    /// The candidate bound of row `k`: the split farthest from the cells
    /// that still leaves room for `k − 1` pieces toward the fixed end,
    /// `lo + k − 1` forward and `hi − (k − 1)` backward. At `k = 1` it is
    /// the fixed end itself, every cell's only candidate.
    #[inline]
    fn bound(k: usize, lo: usize, hi: usize) -> usize {
        if Self::FWD {
            lo + k - 1
        } else {
            hi - (k - 1)
        }
    }

    /// Whichever of two splits lies nearer the cells.
    #[inline]
    fn nearer(a: usize, b: usize) -> usize {
        if Self::FWD {
            a.max(b)
        } else {
            a.min(b)
        }
    }

    /// The inter-break window starting at cell `ws`, given the breaks
    /// strictly inside the subproblem: its last cell (at most `last`), its
    /// bounding break — the nearest break between the window and the
    /// fixed end, if any — and the number of breaks there. Forward windows
    /// are the cells `(g, g']` between consecutive breaks, backward ones
    /// `[g, g')`.
    #[inline]
    fn window(inner: &[usize], ws: usize, last: usize) -> (usize, Option<usize>, usize) {
        if Self::FWD {
            let below = inner.partition_point(|&g| g < ws);
            let we = inner.get(below).map_or(last, |&g| g.min(last));
            (we, below.checked_sub(1).map(|b| inner[b]), below)
        } else {
            let below = inner.partition_point(|&g| g <= ws);
            let g = inner.get(below).copied();
            (g.map_or(last, |g| (g - 1).min(last)), g, inner.len() - below)
        }
    }

    /// Whether split `j` lies on cell `i`'s candidate side.
    #[inline]
    fn toward(i: usize, j: usize) -> bool {
        if Self::FWD {
            j < i
        } else {
            j > i
        }
    }

    /// The piece between cell `i` and split `j`.
    #[inline]
    fn range(i: usize, j: usize) -> Range<usize> {
        if Self::FWD {
            j..i
        } else {
            i..j
        }
    }

    /// The candidate columns of an open window `[ws, we]` with candidate
    /// bound `jbound`: `jmin ..= we − 1` forward, `ws + 1 ..= jmax`
    /// backward.
    #[inline]
    fn cols(ws: usize, we: usize, jbound: usize) -> RangeInclusive<usize> {
        if Self::FWD {
            jbound..=we - 1
        } else {
            ws + 1..=jbound
        }
    }

    /// The split `b` further from the cell than `j`. `CLAMP` (a stride
    /// grid) steps onto `jbound` instead of past it.
    #[inline(always)]
    fn next<const CLAMP: bool>(j: usize, b: usize, jbound: usize) -> usize {
        let past = if Self::FWD { j < jbound + b } else { j + b > jbound };
        if CLAMP && past {
            jbound
        } else if Self::FWD {
            j - b
        } else {
            j + b
        }
    }

    /// Cell `i`'s first candidate on the stride-`b` grid: the nearest
    /// multiple of `b` on the candidate side, or `jbound` if that lies
    /// beyond it.
    #[inline(always)]
    fn grid_first(i: usize, b: usize, jbound: usize) -> usize {
        if Self::FWD {
            ((i - 1) / b * b).max(jbound)
        } else {
            ((i / b + 1) * b).min(jbound)
        }
    }

    /// The bracket's snap allowance: split `j` moved `b − 1` points toward
    /// cell `i`, but not past it — `min(j + b − 1, i)` forward,
    /// `max(j + 1 − b, i)` backward.
    #[inline(always)]
    fn snap(j: usize, b: usize, i: usize) -> usize {
        if Self::FWD {
            (j + b - 1).min(i)
        } else {
            (j + 1).saturating_sub(b).max(i)
        }
    }

    /// The SSE of the piece between split `j` and the cell the kernel is
    /// anchored at: the free end is the piece's start forward and its end
    /// backward.
    #[inline(always)]
    fn cell_sse<const ONE: bool>(sse: &SseAnchor<'_, ONE>, j: usize) -> f64 {
        if Self::FWD {
            sse.from(j)
        } else {
            sse.to(j)
        }
    }

    /// The SSE of the piece between cell `i` and the split the kernel is
    /// anchored at.
    #[inline(always)]
    fn split_sse<const ONE: bool>(sse: &SseAnchor<'_, ONE>, i: usize) -> f64 {
        if Self::FWD {
            sse.to(i)
        } else {
            sse.from(i)
        }
    }
}

/// Prefix rows (see [`Dir`]).
pub(crate) enum Fwd {}

/// Suffix rows, the mirror of [`Fwd`].
pub(crate) enum Bwd {}

impl Dir for Fwd {
    const FWD: bool = true;
}

impl Dir for Bwd {
    const FWD: bool = false;
}

/// How one inter-break row window is minimized — recorded by the window
/// walk so windows can be solved out of line, in any order, including on
/// pool workers. The solve step is identical per cell whether windows run
/// sequentially or chunked in parallel, which is the bit-identity
/// guarantee of the `threads` knob.
#[derive(Debug, Clone, Copy)]
enum WindowTask {
    /// Forced split pinned to break `g` (Fig. 7 lines 13–16); `feasible`
    /// records whether the forced prefix/suffix can hold `k − 1` tuples
    /// (when not, the cells stay `∞`).
    Forced { g: usize, feasible: bool },
    /// Break-free candidate range delimited by `jbound` (`jmin` forward,
    /// `jmax` backward); `engine` is the Monge dispatch, `None` scans.
    Open { jbound: usize, engine: Option<RowMinEngine> },
}

/// One inter-break window (or, on the parallel path, one chunk of a scan
/// window) of cells `[ws, we]` awaiting minimization.
#[derive(Debug, Clone, Copy)]
struct RowWindow {
    ws: usize,
    we: usize,
    /// First and last cell of the whole window; chunks inherit them.
    edges: (usize, usize),
    task: WindowTask,
}

impl RowWindow {
    /// Number of cells in the window.
    fn cells(&self) -> usize {
        self.we - self.ws + 1
    }

    /// Whether an open-window cell is solved on the stride-`stride` grid:
    /// grid-aligned positions plus the window's own edges. Edges matter
    /// because the next row reads this row at window boundaries — its
    /// `jbound` is either the row floor (= the first window's `ws`) or a
    /// gap break (= some window's `we`) — so keeping them solved keeps
    /// every future candidate finite wherever the exact DP is finite. A
    /// pure function of the whole window's edges, never of chunk edges.
    #[inline]
    fn on_grid(&self, i: usize, stride: usize) -> bool {
        stride == 1 || i.is_multiple_of(stride) || i == self.edges.0 || i == self.edges.1
    }

    /// Upper bound on the window's split-point evaluations at `stride`,
    /// assuming the candidate count per cell grows away from `jbound`
    /// (cell `i` scans at most `|i − jbound|` candidates, in either
    /// direction). Monge windows are estimated at their SMAWK bound.
    /// The early break can only shrink the real work, so this is a
    /// fan-out and cancel-poll *gate*, not an exact cost.
    fn work(&self, stride: usize) -> u64 {
        match self.task {
            WindowTask::Forced { .. } => self.cells() as u64,
            WindowTask::Open { jbound, engine } => {
                let (x, y) = (self.ws.abs_diff(jbound) as u64, self.we.abs_diff(jbound) as u64);
                let (a, b) = (x.min(y), x.max(y));
                match engine {
                    // SMAWK/D&C evaluate O(rows + cols) oracle entries.
                    Some(_) => 4 * (self.cells() as u64 + b),
                    None => grid_work((a + b) * (b - a + 1) / 2, stride),
                }
            }
        }
    }
}

/// Scales an every-cell, every-candidate evaluation estimate to the
/// stride-`b` grid: a `1/b` share of the cells, each scanning a `1/b`
/// share of its candidates at two evaluations apiece (upper and lower
/// bracket). Stride 1 is the exact scan's estimate, unchanged.
fn grid_work(work: u64, stride: usize) -> u64 {
    if stride == 1 {
        work
    } else {
        2 * work / (stride * stride) as u64
    }
}

/// The row a fill reads: DP row `k − 1`, plus its lower bracket on an
/// `Approx(ε > 0)` probe. Cell `j` sits at index `j − at`, so a row can
/// cover just the tuple range it serves (see [`Rows`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowIn<'a> {
    at: usize,
    val: &'a [f64],
    lb: Option<&'a [f64]>,
}

impl<'a> RowIn<'a> {
    /// An unbracketed, absolute-indexed row (the exact strategies).
    pub(crate) fn values(val: &'a [f64]) -> Self {
        Self { at: 0, val, lb: None }
    }

    /// The value at cell `j`.
    #[inline]
    fn get(&self, j: usize) -> f64 {
        self.val[j - self.at]
    }

    /// The lower bracket at `j` — the value itself when unbracketed.
    #[inline]
    fn lower(&self, j: usize) -> f64 {
        self.lb.map_or_else(|| self.get(j), |lb| lb[j - self.at])
    }
}

/// The slices a fill writes: DP row `k`, its lower bracket on an
/// `Approx(ε > 0)` probe, and the split-point row when the run records
/// one. Cell `i` lands at index `i − at`, so the sequential fill writes
/// whole absolute-indexed rows (`at = 0`) and the parallel fill hands
/// each chunk its disjoint subslices.
#[derive(Debug)]
pub(crate) struct RowOut<'a> {
    at: usize,
    val: &'a mut [f64],
    lb: Option<&'a mut [f64]>,
    splits: Option<&'a mut [usize]>,
}

impl<'a> RowOut<'a> {
    /// An unbracketed row (the exact strategies).
    pub(crate) fn values(val: &'a mut [f64], splits: Option<&'a mut [usize]>) -> Self {
        Self { at: 0, val, lb: None, splits }
    }

    /// Sets cells `range` to `∞` in the value and bracket rows.
    fn reset(&mut self, range: RangeInclusive<usize>) {
        let range = range.start() - self.at..=range.end() - self.at;
        self.val[range.clone()].fill(f64::INFINITY);
        if let Some(lb) = self.lb.as_deref_mut() {
            lb[range].fill(f64::INFINITY);
        }
    }

    /// Writes cell `i`: its value and, when bracketed, its lower bound.
    #[inline]
    fn put(&mut self, i: usize, val: f64, lower: f64) {
        self.val[i - self.at] = val;
        if let Some(lb) = self.lb.as_deref_mut() {
            lb[i - self.at] = lower;
        }
    }

    /// Records cell `i`'s best split point, when the run records them.
    #[inline]
    fn split(&mut self, i: usize, j: usize) {
        if let Some(splits) = self.splits.as_deref_mut() {
            splits[i - self.at] = j;
        }
    }

    /// Splits off the first `len` cells as their own output.
    fn take_front(&mut self, len: usize) -> Self {
        fn cut<'s, T>(slice: &mut &'s mut [T], len: usize) -> &'s mut [T] {
            let (head, rest) = std::mem::take(slice).split_at_mut(len);
            *slice = rest;
            head
        }
        let front = Self {
            at: self.at,
            val: cut(&mut self.val, len),
            lb: self.lb.as_mut().map(|lb| cut(lb, len)),
            splits: self.splits.as_mut().map(|s| cut(s, len)),
        };
        self.at += len;
        front
    }
}

/// The two alternating rows of a DP sweep — row `k − 1` (`prev`) and
/// row `k` (`cur`) — plus, on an `Approx(ε > 0)` run, the matching pair
/// of lower-bracket rows. Every row covers the cells `lo..=hi` of the
/// tuple range it serves (`n + 1` entries for the whole input, `n_r + 1`
/// for one run; cell `i` sits at index `i − lo`) and is `∞`-initialized;
/// each fill resets only its own window (see
/// [`DpEngine::fill_row`]), so sparse rows cost `O(window)`.
pub(crate) struct Rows {
    at: usize,
    prev: Vec<f64>,
    cur: Vec<f64>,
    lb: Option<(Vec<f64>, Vec<f64>)>,
}

impl Rows {
    fn new(lo: usize, hi: usize, bracket: bool) -> Self {
        let row = || vec![f64::INFINITY; hi - lo + 1];
        Self { at: lo, prev: row(), cur: row(), lb: bracket.then(|| (row(), row())) }
    }

    /// The tuple range `lo..hi` the rows serve, as `(lo, hi)`.
    pub(crate) fn span(&self) -> (usize, usize) {
        (self.at, self.at + self.prev.len() - 1)
    }

    /// Number of rows held — this buffer's share of
    /// [`DpStats::peak_rows`].
    pub(crate) fn count(&self) -> usize {
        if self.lb.is_some() {
            4
        } else {
            2
        }
    }

    /// Resets cells `range` of every row to `∞`.
    pub(crate) fn reset(&mut self, range: RangeInclusive<usize>) {
        let range = range.start() - self.at..=range.end() - self.at;
        self.prev[range.clone()].fill(f64::INFINITY);
        self.cur[range.clone()].fill(f64::INFINITY);
        if let Some((prev, cur)) = &mut self.lb {
            prev[range.clone()].fill(f64::INFINITY);
            cur[range].fill(f64::INFINITY);
        }
    }

    /// Cell `i` of the last completed row.
    pub(crate) fn value(&self, i: usize) -> f64 {
        self.prev[i - self.at]
    }

    /// Cell `i` of the last completed row's lower bracket — the value
    /// itself when unbracketed.
    pub(crate) fn lower(&self, i: usize) -> f64 {
        self.lb.as_ref().map_or(self.value(i), |(prev, _)| prev[i - self.at])
    }

    /// The row to read and the row to write for the next fill.
    fn io<'a>(&'a mut self, splits: Option<&'a mut [usize]>) -> (RowIn<'a>, RowOut<'a>) {
        let (lb_in, lb_out) = match &mut self.lb {
            Some((prev, cur)) => (Some(&prev[..]), Some(&mut cur[..])),
            None => (None, None),
        };
        let at = self.at;
        (
            RowIn { at, val: &self.prev, lb: lb_in },
            RowOut { at, val: &mut self.cur, lb: lb_out, splits },
        )
    }

    /// Makes the row just written the row the next fill reads.
    fn swap(&mut self) {
        std::mem::swap(&mut self.prev, &mut self.cur);
        if let Some((prev, cur)) = &mut self.lb {
            std::mem::swap(prev, cur);
        }
    }
}

/// A partition one probe produced: its boundaries (prefix lengths,
/// `0` and `n` included), the DP's value for it, and a lower bound on
/// the exact optimum — the value itself on exact probes.
pub(crate) struct Partition {
    pub(crate) boundaries: Vec<usize>,
    pub(crate) value: f64,
    pub(crate) lower: f64,
}

/// The largest possible reduction error `SSE_max = SSE(s, ρ(s, cmin))`:
/// every maximal adjacent run merged into a single tuple. Error-bounded
/// PTA expresses its threshold relative to this value (Def. 7).
pub fn max_error(input: &SequentialRelation, weights: &Weights) -> Result<f64, CoreError> {
    max_error_with_policy(input, weights, GapPolicy::Strict)
}

/// The SSE threshold of error bound `ε`: `ε · E_max` plus an absolute
/// slack of `1e-9 · (1 + E_max)`, so that `ε = 1` stops exactly at `cmin`
/// although the DP and the direct `E_max` summation round differently.
/// `PTAε`, GMS, gPTAε, the Comparator and `pta-serve`'s curve lookups all
/// answer an error bound against this one threshold.
pub fn error_threshold(epsilon: f64, emax: f64) -> f64 {
    epsilon * emax + 1e-9 * (1.0 + emax)
}

/// [`max_error`] under a mergeability policy: the maximal reduction then
/// collapses each policy-defined run (which may bridge small holes).
pub fn max_error_with_policy(
    input: &SequentialRelation,
    weights: &Weights,
    policy: GapPolicy,
) -> Result<f64, CoreError> {
    weights.check_dims(input.dims())?;
    let stats = PrefixStats::build(input);
    let gaps = GapVector::build_with_policy(input, policy);
    Ok(max_error_over_runs(weights, &stats, &gaps, input.len()))
}

/// [`max_error`] reusing prebuilt prefix stats.
pub fn max_error_with(input: &SequentialRelation, weights: &Weights, stats: &PrefixStats) -> f64 {
    input.segments().into_iter().map(|seg| stats.range_sse(weights, seg)).sum()
}

/// Sum of per-run SSEs where runs are delimited by the gap vector.
pub(crate) fn max_error_over_runs(
    weights: &Weights,
    stats: &PrefixStats,
    gaps: &GapVector,
    n: usize,
) -> f64 {
    let mut total = 0.0;
    let mut start = 0usize;
    for &g in gaps.breaks() {
        total += stats.range_sse(weights, start..g);
        start = g;
    }
    if n > 0 {
        total += stats.range_sse(weights, start..n);
    }
    total
}

/// Shared DP machinery over one input relation.
pub(crate) struct DpEngine {
    pub(crate) stats: PrefixStats,
    pub(crate) gaps: GapVector,
    pub(crate) weights: Weights,
    pub(crate) n: usize,
    /// Apply the §5.3 `imax`/`jmin` gap pruning (PTAc/PTAε) or not (the
    /// Fig. 18 "DP" baseline).
    pub(crate) prune: bool,
    /// Jagadish et al.'s decreasing-`j` early break (toggleable for the
    /// ablation benchmark; scan path only).
    pub(crate) early_break: bool,
    /// Row minimization strategy (pruned rows only — the naive baseline
    /// always scans).
    pub(crate) strategy: DpStrategy,
    /// `mono_end[t]` = one past the end of the longest tuple run starting
    /// at `t` whose values are monotone in *every* dimension — the exact
    /// certificate that a window's cost matrix is Monge (see [`monge`]).
    /// Built only when the strategy can use it.
    mono_end: Option<Vec<usize>>,
    /// Thread budget for the row fills (see [`DpOptions::threads`]).
    pub(crate) pool: Pool,
    /// Cancellation handle polled at row entry, between large windows,
    /// and before each parallel chunk (see [`DpOptions::cancel`]).
    pub(crate) cancel: CancelToken,
}

/// One backward pass per dimension: the exclusive end of the maximal
/// per-dimension-monotone run starting at each tuple (a run may be
/// nondecreasing in one dimension and nonincreasing in another —
/// directions are independent, plateaus belong to both).
fn monotone_run_ends(input: &SequentialRelation) -> Vec<usize> {
    let n = input.len();
    let mut mono = vec![n; n];
    if n == 0 {
        return mono;
    }
    for d in 0..input.dims() {
        let mut asc_end = n;
        let mut desc_end = n;
        for t in (0..n - 1).rev() {
            let (a, b) = (input.value(t, d), input.value(t + 1, d));
            if b < a {
                asc_end = t + 1;
            }
            if b > a {
                desc_end = t + 1;
            }
            let run = asc_end.max(desc_end);
            if run < mono[t] {
                mono[t] = run;
            }
        }
    }
    mono
}

impl DpEngine {
    pub(crate) fn new_full(
        input: &SequentialRelation,
        weights: &Weights,
        prune: bool,
        policy: GapPolicy,
        early_break: bool,
        strategy: DpStrategy,
        threads: usize,
    ) -> Result<Self, CoreError> {
        weights.check_dims(input.dims())?;
        // The unpruned Fig. 18 baseline measures the plain recurrence;
        // Monge minimization would change what it benchmarks.
        let strategy = if prune { strategy } else { DpStrategy::Scan };
        // Only the Monge strategies consume the certificate.
        let mono_end = matches!(strategy, DpStrategy::Monge | DpStrategy::Auto)
            .then(|| monotone_run_ends(input));
        Ok(Self {
            stats: PrefixStats::build(input),
            gaps: GapVector::build_with_policy(input, policy),
            weights: weights.clone(),
            n: input.len(),
            prune,
            early_break,
            strategy,
            mono_end,
            pool: Pool::new(threads),
            cancel: CancelToken::default(),
        })
    }

    /// Arms the engine with a cancellation handle (builder style — the
    /// entry points thread [`DpOptions::cancel`] through here).
    pub(crate) fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The `ε` of an `Approx(ε > 0)` run, whose probes fill stride grids
    /// with lower-bracket rows. `None` for the exact strategies and for
    /// `Approx(0)`, which is the exact scan under the approx label.
    pub(crate) fn approx_eps(&self) -> Option<f64> {
        match self.strategy {
            DpStrategy::Approx(eps) if eps > 0.0 => Some(eps),
            _ => None,
        }
    }

    /// The grid strides a run probes, in order, for about `pieces` DP
    /// rows: the [`approx::probe_strides`] schedule, or the exact stride 1.
    pub(crate) fn strides(&self, pieces: usize) -> Vec<usize> {
        match self.approx_eps() {
            Some(eps) => approx::probe_strides(eps, self.n, pieces),
            None => vec![1],
        }
    }

    /// The certified ratio of a probe at `stride` that delivered `sse`
    /// against the lower bound `lower`, or `None` when the probe does
    /// not certify. Stride 1 fills every cell over every candidate — the
    /// exact scan, update for update — so it certifies unconditionally.
    pub(crate) fn certify(&self, stride: usize, sse: f64, lower: f64) -> Option<f64> {
        match self.approx_eps() {
            Some(eps) if stride > 1 => approx::certify(sse, lower, eps),
            _ => Some(1.0),
        }
    }

    /// Fresh `∞` rows for a sweep over the whole input, bracketed on an
    /// `Approx(ε > 0)` run.
    pub(crate) fn rows(&self) -> Rows {
        self.rows_over(0, self.n)
    }

    /// Fresh `∞` rows covering only the cells `lo..=hi` — the scratch of
    /// a sweep over the tuple range `lo..hi`.
    pub(crate) fn rows_over(&self, lo: usize, hi: usize) -> Rows {
        Rows::new(lo, hi, self.approx_eps().is_some())
    }

    /// The statistics of a run of this engine.
    pub(crate) fn run_stats(
        &self,
        rows: usize,
        cells: Cells,
        peak_rows: usize,
        mode: DpExecMode,
        certified_ratio: f64,
    ) -> DpStats {
        DpStats {
            rows,
            cells: cells.total(),
            scan_cells: cells.scan,
            monge_cells: cells.monge,
            peak_rows,
            mode,
            strategy: self.strategy,
            threads: self.pool.threads(),
            certified_ratio,
        }
    }

    /// The partial-progress statistics of an aborted run: honest
    /// counters; an `Approx(ε > 0)` run certified nothing.
    pub(crate) fn progress(
        &self,
        rows: usize,
        cells: Cells,
        peak: usize,
        mode: DpExecMode,
    ) -> DpStats {
        let ratio = if self.approx_eps().is_some() { f64::INFINITY } else { 1.0 };
        self.run_stats(rows, cells, peak, mode, ratio)
    }

    /// Cost of merging the tuples `range` (prefix lengths) into one tuple:
    /// the range SSE, or `∞` when the range crosses a break.
    #[inline]
    pub(crate) fn cost(&self, range: Range<usize>) -> f64 {
        if self.gaps.range_crosses_break(range.start, range.end) {
            f64::INFINITY
        } else {
            self.stats.range_sse(&self.weights, range)
        }
    }

    /// Whether the tuple range `[lo, hi)` carries the Monge certificate:
    /// values monotone in every dimension, so the window's cost matrix
    /// provably satisfies the quadrangle inequality (see [`monge`]).
    #[inline]
    fn monotone_span(&self, lo: usize, hi: usize) -> bool {
        match &self.mono_end {
            Some(mono) => hi <= mono[lo],
            None => false,
        }
    }

    /// Whether a non-forced window of the given extent runs a Monge
    /// engine under this engine's strategy — and which one: SMAWK for
    /// wide windows, the allocation-free divide-and-conquer fallback for
    /// windows below [`MONGE_AUTO_MIN_WINDOW`] (only reachable when
    /// [`DpStrategy::Monge`] is pinned — [`DpStrategy::Auto`] hands tiny
    /// windows to the scan instead). `mono` is the window's Monge
    /// certificate; without it every strategy scans — exactness first.
    #[inline]
    fn window_engine(&self, mono: bool, rows: usize, cols: usize) -> Option<RowMinEngine> {
        if !mono {
            return None;
        }
        let wide = rows >= MONGE_AUTO_MIN_WINDOW && cols >= MONGE_AUTO_MIN_WINDOW;
        match self.strategy {
            DpStrategy::Scan => None,
            DpStrategy::Monge => {
                Some(if wide { RowMinEngine::Smawk } else { RowMinEngine::DivideConquer })
            }
            DpStrategy::Auto => wide.then_some(RowMinEngine::Smawk),
            // Approx scans its (sparsified) candidate sets; the Monge row
            // minimizers assume the full range.
            DpStrategy::Approx(_) => None,
        }
    }

    /// Fills row `k` of the subproblem "partition tuples `lo..hi`" in
    /// direction `D` (see [`Dir`]), reading row `k − 1` from `prev`: for
    /// every cell `i` of the row's *window* — `lo + k ..= imax(k)` forward,
    /// `imin(k) ..= hi − k` backward — `out` cell `i` becomes the smallest
    /// SSE of reducing tuples `lo..i` (forward) or `i..hi` (backward) to
    /// `k` tuples. Rows are absolute-indexed; only the window is reset (to
    /// `∞`) and written, so a row costs `O(window)` — on gap-rich data the
    /// window is far smaller than `n`, which is what keeps paper-scale
    /// runs near-linear. Callers must hand in row buffers whose `[lo..=hi]`
    /// slice was `∞`-initialized before row 1 and alternate `prev`/`out`
    /// between consecutive rows; positions outside every window then stay
    /// `∞` (windows only move away from the fixed end as `k` grows), which
    /// is exactly their semantic value. When `out` carries a split-point
    /// row (forward rows only), records the best split point per cell.
    /// Returns the per-strategy split-point evaluation counts.
    ///
    /// Cells decompose into inter-break windows (all cells between two
    /// consecutive breaks share their candidate bound, their forced-split
    /// status, and a break-free candidate range), so the gap lookups are
    /// hoisted out of the cell loop and each window is minimized either
    /// by the Fig. 7 scan or by SMAWK per [`DpStrategy`]. The §5.3
    /// accelerations hold in both directions: the `imax`/`jmin` gap
    /// bounds (`imin`/`jmax` backward), the pinned cut when exactly `k −
    /// 1` internal breaks lie between the cell and the fixed end, and the
    /// early break (a piece's SSE grows as its split moves away from the
    /// cell).
    ///
    /// At `stride > 1` (an Approx probe; `prev`/`out` then carry the
    /// lower-bracket rows) open windows solve only their grid cells over
    /// grid candidates (see [`approx`]); stride 1 is the exact fill.
    ///
    /// `lo = 0, hi = n` is the classic whole-input DP row (Fig. 7);
    /// arbitrary subranges serve the divide-and-conquer recursion, which
    /// pairs forward and backward rows to locate optimal midpoints without
    /// a split-point table.
    ///
    /// The row polls the engine's [`CancelToken`] at entry and again
    /// ahead of every window whose estimated work exceeds
    /// [`CANCEL_CHECK_MIN_WORK`] (parallel chunks poll once each); a
    /// fired token aborts the fill with [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`]. An aborted row leaves `out` in an
    /// unspecified state — callers must not read it on the error path.
    pub(crate) fn fill_row<D: Dir>(
        &self,
        k: usize,
        lo: usize,
        hi: usize,
        stride: usize,
        prev: RowIn<'_>,
        mut out: RowOut<'_>,
    ) -> Result<Cells, CoreError> {
        debug_assert!(k >= 1 && lo <= hi && hi <= self.n);
        debug_assert!(stride == 1 || prev.lb.is_some(), "a stride grid needs its lower bracket");
        debug_assert!(D::FWD || out.splits.is_none(), "backward rows record no split points");
        fail_point!("dp.fill_row", |msg: String| Err(CoreError::Panic { message: msg }));
        self.cancel.check()?;
        let Some((first, last)) = D::cells(&self.gaps, self.prune, k, lo, hi) else {
            return Ok(Cells::default());
        };
        out.reset(first..=last);
        let mut cells = Cells::default();
        let bound = D::bound(k, lo, hi);
        if k == 1 {
            // First row: each cell's tuples up to the fixed end merge into
            // one tuple — exact on both brackets, there is nothing to
            // sparsify.
            for i in first..=last {
                let cost = self.cost(D::range(i, bound));
                out.put(i, cost, cost);
                out.split(i, bound);
            }
            cells.scan += (last + 1 - first) as u64;
            return Ok(cells);
        }
        if !self.prune {
            // Fig. 18 naive baseline: every candidate of every cell, from
            // the cell out to the bound, with the per-pair crossing check
            // folded into the cost.
            for i in first..=last {
                let mut best = f64::INFINITY;
                let mut best_j = bound;
                let mut j = i;
                loop {
                    j = D::next::<false>(j, 1, bound);
                    cells.scan += 1;
                    let err2 = self.cost(D::range(i, j));
                    let total = prev.get(j) + err2;
                    if total < best {
                        best = total;
                        best_j = j;
                    }
                    if self.early_break && err2 > best || j == bound {
                        break;
                    }
                }
                out.put(i, best, best);
                out.split(i, best_j);
            }
            return Ok(cells);
        }

        // Pruned: decompose the cells into inter-break windows, then solve
        // each window — on the pool when the row is worth fanning out,
        // sequentially otherwise. The per-cell computation is identical
        // either way.
        let windows = self.collect_windows::<D>(k, lo, hi, first, last);
        let work: u64 = windows.iter().map(|w| w.work(stride)).sum();
        if self.pool.threads() > 1 && !pta_pool::in_worker() && work >= PAR_MIN_ROW_WORK {
            return self.fill_windows_par::<D>(&windows, work, stride, prev, out);
        }
        for w in &windows {
            if w.work(stride) >= CANCEL_CHECK_MIN_WORK {
                self.cancel.check()?;
            }
            cells += self.solve_window::<D>(w, stride, prev, &mut out);
        }
        Ok(cells)
    }

    /// Window walk of a row fill: records each inter-break window of the
    /// cells `first..=last` of row `k` with its minimization task (see the
    /// [`DpEngine::fill_row`] docs for the window invariants).
    fn collect_windows<D: Dir>(
        &self,
        k: usize,
        lo: usize,
        hi: usize,
        first: usize,
        last: usize,
    ) -> Vec<RowWindow> {
        let bound = D::bound(k, lo, hi);
        let breaks = self.gaps.breaks();
        // The breaks strictly inside (lo, hi): the only ones a window of
        // this subproblem can be bounded or forced by.
        let inner =
            &breaks[breaks.partition_point(|&g| g <= lo)..breaks.partition_point(|&g| g < hi)];
        let mut windows = Vec::new();
        let mut ws = first;
        while ws <= last {
            let (we, g, nb) = D::window(inner, ws, last);
            let task = match g.filter(|_| nb == k - 1) {
                // Forced split: exactly k − 1 internal breaks lie between
                // the window and the fixed end, so every cut is pinned to
                // the nearest one (Fig. 7 lines 13–16). A break beyond the
                // bound leaves too few tuples for k − 1 pieces: the cells
                // are infeasible and must stay ∞ (prev[g] may hold a stale
                // older row outside row k − 1's window).
                Some(g) => WindowTask::Forced { g, feasible: D::nearer(g, bound) == g },
                None => {
                    let jbound = g.map_or(bound, |g| D::nearer(g, bound));
                    debug_assert!(
                        D::toward(ws, jbound) && D::toward(we, jbound),
                        "every window cell has at least one candidate"
                    );
                    // The tuples the window's pieces span.
                    let (a, b) = (jbound.min(ws), jbound.max(we));
                    let mono = self.monotone_span(a, b);
                    let engine = self.window_engine(mono, we - ws + 1, b - a);
                    WindowTask::Open { jbound, engine }
                }
            };
            windows.push(RowWindow { ws, we, edges: (ws, we), task });
            ws = we + 1;
        }
        windows
    }

    /// Solves one window (or chunk) into `out`, with the range-SSE kernel
    /// compiled for this engine's `p`.
    fn solve_window<D: Dir>(
        &self,
        w: &RowWindow,
        stride: usize,
        prev: RowIn<'_>,
        out: &mut RowOut<'_>,
    ) -> Cells {
        if self.stats.dims() == 1 {
            self.window::<D, true>(w, stride, prev, out)
        } else {
            self.window::<D, false>(w, stride, prev, out)
        }
    }

    #[inline]
    fn window<D: Dir, const ONE: bool>(
        &self,
        w: &RowWindow,
        stride: usize,
        prev: RowIn<'_>,
        out: &mut RowOut<'_>,
    ) -> Cells {
        let mut cells = Cells::default();
        match w.task {
            WindowTask::Forced { g, feasible } => {
                cells.scan += w.cells() as u64;
                if feasible {
                    // Every piece has the break g at one end.
                    let sse = self.stats.anchor::<ONE>(&self.weights, g);
                    for i in w.ws..=w.we {
                        let err2 = D::split_sse(&sse, i);
                        out.put(i, prev.get(g) + err2, prev.lower(g) + err2);
                        out.split(i, g);
                    }
                }
            }
            WindowTask::Open { jbound, engine } => {
                if let Some(engine) = engine {
                    let (evals, solved) =
                        self.monge_window::<D>(engine, prev, out, w.ws, w.we, jbound);
                    cells.monge += evals;
                    if solved {
                        return cells;
                    }
                }
                cells.scan += if prev.lb.is_some() {
                    self.scan::<D, true, ONE>(w, jbound, stride, prev, out)
                } else {
                    self.scan::<D, false, ONE>(w, jbound, stride, prev, out)
                };
            }
        }
        cells
    }

    /// The Fig. 7 scan over one open window (or chunk) with candidate
    /// bound `jbound`: each cell's candidates in order from the cell out
    /// to the bound (decreasing `j` forward, increasing backward). Returns
    /// its evaluations.
    ///
    /// `BRACKET` runs an `Approx(ε > 0)` probe: only the window's grid
    /// cells are solved, each over the grid-aligned candidates past it
    /// and `jbound` last (at stride 1, every cell over every candidate),
    /// and the lower bracket rides along — per candidate, `lb_prev[j]`
    /// plus the SSE of the piece with `j` snapped `b − 1` points toward
    /// the cell ([`Dir::snap`]): the ≤ `b − 1` points a true boundary
    /// could sit between `j` and the cell are forgiven, which is what
    /// makes `lb` sound. Its early break fires once the lower piece SSE
    /// alone exceeds *both* running minima — sound because both piece
    /// SSEs grow as the split moves away from the cell and the full piece
    /// contains the snapped one. Without `BRACKET` the loop is the exact
    /// scan and does no bracket work.
    #[inline]
    fn scan<D: Dir, const BRACKET: bool, const ONE: bool>(
        &self,
        w: &RowWindow,
        jbound: usize,
        stride: usize,
        prev: RowIn<'_>,
        out: &mut RowOut<'_>,
    ) -> u64 {
        let b = if BRACKET { stride } else { 1 };
        let lb_prev = prev.lb.unwrap_or_default();
        let mut evals = 0u64;
        for i in w.ws..=w.we {
            if BRACKET && !w.on_grid(i, b) {
                continue;
            }
            // Every candidate's piece has i at one end: the kernel reads
            // row i once per cell. Candidates up to jbound never cross a
            // break.
            let sse = self.stats.anchor::<ONE>(&self.weights, i);
            let mut best = f64::INFINITY;
            let mut lb_best = f64::INFINITY;
            let mut best_j = jbound;
            let mut j =
                if BRACKET { D::grid_first(i, b, jbound) } else { D::next::<false>(i, 1, jbound) };
            // The first candidate is peeled out of the loop: on the exact
            // scan it is the one-tuple piece next to the cell, whose SSE
            // the kernel returns as exactly 0 without evaluating the
            // formula.
            let mut err2 = D::cell_sse(&sse, j);
            loop {
                evals += 1;
                let total = prev.get(j) + err2;
                if total < best {
                    best = total;
                    best_j = j;
                }
                // Away from the cell the piece's SSE grows monotonically,
                // so once it alone exceeds the best total the loop can
                // stop (Fig. 7 line 24).
                let past_best = if BRACKET {
                    let low = if b == 1 {
                        err2
                    } else {
                        evals += 1;
                        D::cell_sse(&sse, D::snap(j, b, i))
                    };
                    let lb_total = lb_prev[j - prev.at] + low;
                    if lb_total < lb_best {
                        lb_best = lb_total;
                    }
                    low > best && low > lb_best
                } else {
                    err2 > best
                };
                if self.early_break && past_best || j == jbound {
                    break;
                }
                j = D::next::<BRACKET>(j, b, jbound);
                err2 = D::cell_sse(&sse, j);
            }
            if BRACKET {
                out.put(i, best, lb_best);
            } else {
                out.val[i - out.at] = best;
            }
            out.split(i, best_j);
        }
        evals
    }

    /// Refines a row's windows into parallel chunks: scan windows above
    /// the per-chunk work target split into cell ranges — each chunk
    /// keeps its window's candidate bound and edges, so the per-cell
    /// scans are exactly the sequential ones — while forced and Monge
    /// windows stay whole (SMAWK is sequential per window). Chunk work is
    /// balanced by the same estimate the fan-out gate uses.
    fn chunk_windows(&self, windows: &[RowWindow], work: u64, stride: usize) -> Vec<RowWindow> {
        let target = (work / (self.pool.threads() as u64 * PAR_CHUNKS_PER_WORKER)).max(1);
        let mut chunks = Vec::new();
        for w in windows {
            let WindowTask::Open { jbound, engine: None } = w.task else {
                chunks.push(*w);
                continue;
            };
            if w.work(stride) <= target || w.cells() < 2 * PAR_MIN_CHUNK_CELLS {
                chunks.push(*w);
                continue;
            }
            let mut cs = w.ws;
            let mut acc = 0u64;
            for i in w.ws..=w.we {
                acc += grid_work(i.abs_diff(jbound) as u64, stride);
                if acc >= target && i < w.we && i + 1 - cs >= PAR_MIN_CHUNK_CELLS {
                    chunks.push(RowWindow { ws: cs, we: i, ..*w });
                    cs = i + 1;
                    acc = 0;
                }
            }
            chunks.push(RowWindow { ws: cs, ..*w });
        }
        chunks
    }

    /// Fans one row's windows out across the pool: chunks the windows,
    /// tiles the row region they cover (value, bracket and split rows)
    /// into disjoint per-chunk outputs in window order, and solves every
    /// chunk with the same per-cell code the sequential path runs.
    /// Results are bit-identical to the sequential fill — chunks never
    /// share cells, and each cell's scan state (`best`, `best_j`, early
    /// break) is local to the cell — and the evaluation counters are
    /// summed in window order, so [`DpStats`] is deterministic too.
    ///
    /// Each chunk polls the cancel token before solving; the first error
    /// in window order wins (remaining chunks still run — the pool has no
    /// early stop — but their output is discarded with the row).
    fn fill_windows_par<D: Dir>(
        &self,
        windows: &[RowWindow],
        work: u64,
        stride: usize,
        prev: RowIn<'_>,
        mut out: RowOut<'_>,
    ) -> Result<Cells, CoreError> {
        let chunks = self.chunk_windows(windows, work, stride);
        // Skip the cells before the row's first window.
        out.take_front(chunks.first().map_or(0, |w| w.ws) - out.at);
        let jobs: Vec<_> = chunks.into_iter().map(|w| (w, out.take_front(w.cells()))).collect();
        debug_assert_eq!(
            Some(out.at),
            windows.last().map(|w| w.we + 1),
            "chunks must tile the row region exactly"
        );
        let results: Vec<Result<Cells, CoreError>> = self.pool.map(jobs, |(w, mut out)| {
            self.cancel.check()?;
            Ok(self.solve_window::<D>(&w, stride, prev, &mut out))
        });
        let mut cells = Cells::default();
        for c in results {
            cells += c?;
        }
        Ok(cells)
    }

    /// Solves one open window `[ws, we]` with candidate bound `jbound` by
    /// Monge row minimization over the columns [`Dir::cols`]. All
    /// candidates are break-free and `prev` is finite on the whole column
    /// range (a non-forced window has at most `k − 2` internal breaks
    /// between it and the fixed end, so every candidate's remainder was
    /// feasible in row `k − 1`); cells whose column lies on the wrong side
    /// of the cell get the exact graded pad. Ties prefer the split nearest
    /// the cell, matching the scan. Returns the evaluation count and
    /// whether the window was solved — `false` (nothing written, caller
    /// must scan) when a pad won a row, which only happens if a real cost
    /// reached the pad range (astronomical data magnitudes or a
    /// non-finite `prev`).
    fn monge_window<D: Dir>(
        &self,
        engine: RowMinEngine,
        prev: RowIn<'_>,
        out: &mut RowOut<'_>,
        ws: usize,
        we: usize,
        jbound: usize,
    ) -> (u64, bool) {
        let stats = &self.stats;
        let weights = &self.weights;
        let cols = D::cols(ws, we, jbound);
        // Magnitude certificate: every oracle entry is bounded by the SSE
        // of the piece spanning the window and its candidates plus the
        // largest `prev` on the column range (`prev` is monotone in the
        // split, so sampling both ends suffices up to fp noise — hence
        // the 2³⁰ margin). If that bound approaches the pad range, real
        // costs could outgrow pads and catastrophic cancellation dwarfs
        // the QI tolerance — scan instead.
        let span = jbound.min(ws)..jbound.max(we);
        let bound =
            prev.get(*cols.start()).max(prev.get(*cols.end())) + stats.range_sse(weights, span);
        if !monge::pads_dominate(bound) {
            return (0, false);
        }
        let oracle = |i: usize, j: usize| {
            if D::toward(i, j) {
                prev.get(j) + stats.range_sse(weights, D::range(i, j))
            } else {
                monge::pad(i.abs_diff(j))
            }
        };
        #[cfg(debug_assertions)]
        {
            // Data-dependent, not a bug: mixed magnitudes can break the
            // computed QI by more than rounding ulps even below the
            // magnitude certificate. Fall back to the scan.
            if monge::validate_qi(oracle, ws..=we, cols.clone(), 4, 1e-9).is_some() {
                return (0, false);
            }
        }
        let minima = monge::window_minima(engine, oracle, ws..=we, cols, D::FWD);
        if !minima.values.iter().all(|v| *v < monge::pad_floor()) {
            debug_assert!(
                false,
                "pad won a cell in [{ws}, {we}] (forward: {}) despite the magnitude certificate",
                D::FWD
            );
            return (minima.evals, false);
        }
        for (r, i) in (ws..=we).enumerate() {
            out.put(i, minima.values[r], minima.values[r]);
            out.split(i, minima.argmins[r]);
        }
        (minima.evals, true)
    }

    /// Fills row `k` of `rows` in direction `D` at `stride`, recording
    /// split points into `splits` when given (forward rows only), and
    /// makes it the row to read next.
    pub(crate) fn step<D: Dir>(
        &self,
        k: usize,
        lo: usize,
        hi: usize,
        stride: usize,
        rows: &mut Rows,
        splits: Option<&mut [usize]>,
    ) -> Result<Cells, CoreError> {
        let (prev, out) = rows.io(splits);
        let cells = self.fill_row::<D>(k, lo, hi, stride, prev, out)?;
        rows.swap();
        Ok(cells)
    }

    /// Reconstructs the partition boundaries of the tuple range `lo..hi`
    /// from its split-point matrix: rows `1..=k`, each covering the cells
    /// `lo..=hi` (`hi − lo + 1` entries), flattened row-major.
    pub(crate) fn backtrack(&self, jm: &[usize], lo: usize, hi: usize, k: usize) -> Vec<usize> {
        let width = hi - lo + 1;
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(hi);
        let mut i = hi;
        for kk in (1..=k).rev() {
            let j = jm[(kk - 1) * width + i - lo];
            debug_assert!(j < i, "split point must shrink the prefix");
            bounds.push(j);
            i = j;
        }
        debug_assert_eq!(i, lo, "backtrack must consume the whole prefix");
        bounds.reverse();
        bounds
    }

    /// Recovers a partition of the tuple range `lo..hi` covered by the
    /// scratch rows (`lo..=hi`, see [`Rows`]) into `c` pieces with
    /// `O(hi − lo)` memory: Hirschberg-style divide-and-conquer
    /// backtracking over forward and backward [`DpEngine::fill_row`]s at
    /// `stride`, with `fwd` and `bwd` as the scratch rows of every node.
    /// At stride 1 the partition is optimal; on an Approx probe the root
    /// node's lower bound certifies it. Work accumulates into `cells` and
    /// `rows`, so an abort leaves honest partial counters behind. Requires
    /// `1 ≤ c ≤ hi − lo` and a feasible reduction (`c` at least the
    /// range's run count), which the callers establish.
    pub(crate) fn dnc_boundaries(
        &self,
        stride: usize,
        c: usize,
        fwd: &mut Rows,
        bwd: &mut Rows,
        cells: &mut Cells,
        rows: &mut usize,
    ) -> Result<Partition, CoreError> {
        let (lo, hi) = fwd.span();
        debug_assert!(c >= 1 && c <= hi - lo);
        let mut cuts = Vec::with_capacity(c + 1);
        cuts.push(lo);
        let mut d = Dnc { stride, fwd, bwd, cuts, cells, rows };
        let (value, lower) = self.dnc_rec(&mut d, lo, hi, c)?;
        let mut boundaries = d.cuts;
        boundaries.push(hi);
        debug_assert_eq!(boundaries.len(), c + 1);
        Ok(Partition { boundaries, value, lower })
    }

    /// Appends the internal cut positions of a `c`-piece partition of
    /// tuples `lo..hi` to `d.cuts` (in increasing order) and returns the
    /// node's value and lower bound. Only the *root's* lower bound
    /// certifies an Approx probe: children run over fixed midpoints,
    /// whose degradation the a posteriori ratio test catches.
    fn dnc_rec(
        &self,
        d: &mut Dnc<'_>,
        lo: usize,
        hi: usize,
        c: usize,
    ) -> Result<(f64, f64), CoreError> {
        debug_assert!(c >= 1 && hi - lo >= c);
        if c == 1 {
            let cost = self.cost(lo..hi);
            return Ok((cost, cost));
        }
        if hi - lo == c {
            // Every tuple its own piece: all cuts are forced, SSE 0.
            d.cuts.extend(lo + 1..hi);
            return Ok((0.0, 0.0));
        }
        let k_left = c / 2;
        let k_right = c - k_left;
        let stride = d.stride;
        let (mut best, mut lower, mut mid) = self.dnc_node(d, stride, lo, hi, k_left, k_right)?;
        if !best.is_finite() && stride > 1 {
            // Deep nodes can have a feasible midpoint range narrower
            // than one stride with no grid point or shared window edge
            // inside it; redo just this node's rows exactly — the
            // children still recurse at the probe's stride.
            (best, lower, mid) = self.dnc_node(d, 1, lo, hi, k_left, k_right)?;
        }
        debug_assert!(best.is_finite(), "feasible subproblem must yield a finite midpoint");
        // The children overwrite the scratch rows; the parent only needs
        // `mid` from here on, so peak memory stays at the scratch rows.
        self.dnc_rec(d, lo, mid, k_left)?;
        d.cuts.push(mid);
        self.dnc_rec(d, mid, hi, k_right)?;
        Ok((best, lower))
    }

    /// One divide-and-conquer node: forward DP to row `k_left` and suffix
    /// DP to row `k_right` over `[lo, hi]` at `stride`, then the midpoint
    /// `m` minimizing `F[k_left][m] + B[k_right][m]` — the optimal
    /// partition cuts after its `k_left`-th piece there — together with
    /// that sum and, on bracketed rows, the node's lower bound
    /// `min_i (F_lb[i] + B_lb[i])`.
    // pta-lint: allow(cancel-coverage) — each row fill below polls the
    // token inside fill_row.
    fn dnc_node(
        &self,
        d: &mut Dnc<'_>,
        stride: usize,
        lo: usize,
        hi: usize,
        k_left: usize,
        k_right: usize,
    ) -> Result<(f64, f64, usize), CoreError> {
        // A previous node left stale values in the scratch rows; reset the
        // window once per node, then the row fills reset only their own
        // (shrinking) windows.
        d.fwd.reset(lo..=hi);
        d.bwd.reset(lo..=hi);
        for k in 1..=k_left {
            *d.cells += self.step::<Fwd>(k, lo, hi, stride, d.fwd, None)?;
        }
        for k in 1..=k_right {
            *d.cells += self.step::<Bwd>(k, lo, hi, stride, d.bwd, None)?;
        }
        *d.rows += k_left + k_right;
        let bracket = d.fwd.lb.is_some();
        let mut best = f64::INFINITY;
        let mut lower = f64::INFINITY;
        let mut mid = 0usize;
        for i in (lo + k_left)..=(hi - k_right) {
            let total = d.fwd.value(i) + d.bwd.value(i);
            if total < best {
                best = total;
                mid = i;
            }
            if bracket {
                let low = d.fwd.lower(i) + d.bwd.lower(i);
                if low < lower {
                    lower = low;
                }
            }
        }
        Ok((best, if bracket { lower } else { best }, mid))
    }
}

/// What the divide-and-conquer recursion threads through its nodes: the
/// probe's stride, the forward and backward scratch rows every node
/// reuses (four `(n + 1)`-entry rows, eight on an Approx probe — the
/// entire extra memory of the mode), the cuts found so far, and the work
/// counters.
struct Dnc<'a> {
    stride: usize,
    fwd: &'a mut Rows,
    bwd: &'a mut Rows,
    cuts: Vec<usize>,
    cells: &'a mut Cells,
    rows: &'a mut usize,
}

/// Support for the `dp_row` bench: a single forward row fill over a
/// prebuilt engine. Hidden — not a public API and exempt from semver
/// hygiene.
#[doc(hidden)]
pub mod bench_support {
    use super::*;

    /// One-row-fill harness over a prebuilt DP engine.
    pub struct RowFill {
        engine: DpEngine,
    }

    impl RowFill {
        /// Builds the engine (prefix stats + gap vector) once, pinned to
        /// one thread — the `dp_row` bench measures the sequential inner
        /// loops.
        pub fn new(
            input: &SequentialRelation,
            weights: &Weights,
            strategy: DpStrategy,
        ) -> Result<Self, CoreError> {
            Ok(Self {
                engine: DpEngine::new_full(
                    input,
                    weights,
                    true,
                    GapPolicy::Strict,
                    true,
                    strategy,
                    1,
                )?,
            })
        }

        /// Row-buffer width (`n + 1`).
        pub fn width(&self) -> usize {
            self.engine.n + 1
        }

        /// Forward DP row `k ≥ 1`, computed from scratch — use as the
        /// `prev` input of [`RowFill::fill`].
        // pta-lint: allow(cancel-coverage) — bench harness: the engine's
        // token is inert by construction, rows are filled uncancellably.
        pub fn row(&self, k: usize) -> Vec<f64> {
            let mut rows = self.engine.rows();
            for kk in 1..=k {
                self.engine
                    .step::<Fwd>(kk, 0, self.engine.n, 1, &mut rows, None)
                    // pta-lint: allow(no-panic-in-lib) — harness token is inert.
                    .expect("bench harness tokens never fire");
            }
            rows.prev
        }

        /// Fills row `k` reading row `k − 1` from `prev`; returns the
        /// split-point evaluation count.
        pub fn fill(&self, k: usize, prev: &[f64], cur: &mut [f64]) -> u64 {
            self.engine
                .fill_row::<Fwd>(
                    k,
                    0,
                    self.engine.n,
                    1,
                    RowIn::values(prev),
                    RowOut::values(cur, None),
                )
                // pta-lint: allow(no-panic-in-lib) — harness token is inert.
                .expect("bench harness tokens never fire")
                .total()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval, Value};

    pub(crate) fn fig1c() -> SequentialRelation {
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

    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// A gap-free *monotone* continuous-valued series (a noisy ascending
    /// trend — one Monge-certified run) long enough that
    /// [`DpStrategy::Auto`] takes the SMAWK path.
    pub(crate) fn trend_series(n: usize, seed: u64) -> SequentialRelation {
        let mut state = seed;
        let mut b = SequentialBuilder::new(1);
        let mut v = 0.0;
        for t in 0..n {
            v += lcg(&mut state);
            b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), &[v]).unwrap();
        }
        b.build()
    }

    /// A gap-free *unsorted* series — no Monge certificate anywhere, so
    /// every strategy must take the scan path.
    pub(crate) fn wiggly_series(n: usize, seed: u64) -> SequentialRelation {
        let mut state = seed;
        let mut b = SequentialBuilder::new(1);
        for t in 0..n {
            let v = lcg(&mut state);
            b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), &[v]).unwrap();
        }
        b.build()
    }

    /// A gap-rich unsorted series: about one tuple in five opens a new
    /// run, so rows split into many short inter-break windows, forced
    /// ones included.
    fn gappy_series(n: usize, seed: u64) -> SequentialRelation {
        let mut state = seed;
        let mut b = SequentialBuilder::new(1);
        let mut t = 0;
        for _ in 0..n {
            t += if lcg(&mut state) < 0.2 { 2 } else { 1 };
            let v = lcg(&mut state);
            b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[v]).unwrap();
        }
        b.build()
    }

    /// Rows `1..=kmax` of the whole input's DP in direction `D`, each
    /// filled into a fresh `∞` row.
    fn matrix<D: Dir>(e: &DpEngine, kmax: usize) -> Vec<Vec<f64>> {
        let mut prev = vec![f64::INFINITY; e.n + 1];
        let mut rows = Vec::new();
        for k in 1..=kmax {
            let mut cur = vec![f64::INFINITY; e.n + 1];
            fill::<D>(e, k, &prev, &mut cur, None);
            rows.push(cur.clone());
            prev = cur;
        }
        rows
    }

    /// One exact row fill of the whole input over plain slices.
    fn fill<D: Dir>(
        e: &DpEngine,
        k: usize,
        prev: &[f64],
        cur: &mut [f64],
        splits: Option<&mut [usize]>,
    ) -> Cells {
        e.fill_row::<D>(k, 0, e.n, 1, RowIn::values(prev), RowOut::values(cur, splits)).unwrap()
    }

    /// The exact divide-and-conquer partition into `c` pieces.
    fn dnc_partition(e: &DpEngine, c: usize) -> Partition {
        let (mut fwd, mut bwd) = (e.rows(), e.rows());
        let (mut cells, mut rows) = (Cells::default(), 0);
        e.dnc_boundaries(1, c, &mut fwd, &mut bwd, &mut cells, &mut rows).unwrap()
    }

    fn engine_with(input: &SequentialRelation, prune: bool, strategy: DpStrategy) -> DpEngine {
        let w = Weights::uniform(input.dims());
        DpEngine::new_full(input, &w, prune, GapPolicy::Strict, true, strategy, 1).unwrap()
    }

    /// The error matrix (rows 1..=kmax) in direction `D`: backward,
    /// `rows[k − 1][i]` = optimal SSE of tuples `i..n` in `k` pieces.
    fn full_matrix_strategy<D: Dir>(
        input: &SequentialRelation,
        kmax: usize,
        prune: bool,
        strategy: DpStrategy,
    ) -> Vec<Vec<f64>> {
        matrix::<D>(&engine_with(input, prune, strategy), kmax)
    }

    fn full_matrix<D: Dir>(input: &SequentialRelation, kmax: usize, prune: bool) -> Vec<Vec<f64>> {
        full_matrix_strategy::<D>(input, kmax, prune, DpStrategy::Auto)
    }

    /// Fig. 4: the error matrix of the running example (values printed
    /// truncated in the paper; we verify to within 1.0).
    #[test]
    fn fig_4_error_matrix() {
        let input = fig1c();
        let inf = f64::INFINITY;
        let expected = [
            vec![0.0, 26_666.67, 67_500.0, 208_333.33, 269_285.71, inf, inf],
            vec![inf, 0.0, 5_000.0, 41_666.67, 49_166.67, 269_285.71, inf],
            vec![inf, inf, 0.0, 5_000.0, 6_666.67, 49_166.67, 269_285.71],
            vec![inf, inf, inf, 0.0, 1_666.67, 6_666.67, 49_166.67],
        ];
        for prune in [false, true] {
            for strategy in [DpStrategy::Scan, DpStrategy::Monge, DpStrategy::Auto] {
                let m = full_matrix_strategy::<Fwd>(&input, 4, prune, strategy);
                for (k, row) in expected.iter().enumerate() {
                    for (i, &want) in row.iter().enumerate() {
                        let got = m[k][i + 1];
                        if want.is_infinite() {
                            assert!(got.is_infinite(), "E[{}][{}] = {got}, want inf", k + 1, i + 1);
                        } else {
                            assert!(
                                (got - want).abs() < 1.0,
                                "E[{}][{}] = {got}, want {want} (prune={prune}, {strategy:?})",
                                k + 1,
                                i + 1
                            );
                        }
                    }
                }
            }
        }
    }

    /// Pruned rows equal the naive recurrence's rows bit for bit wherever
    /// either is finite: forward and suffix rows, with the early break on
    /// and off, under every exact strategy, on the running example,
    /// gap-free unsorted and monotone series, and a gap-rich series. The
    /// reference is the naive scan without the early break.
    #[test]
    fn pruning_never_changes_reachable_cells() {
        fn check<D: Dir>(input: &SequentialRelation) {
            let n = input.len();
            let rows = |prune, early_break, strategy| {
                let w = Weights::uniform(1);
                let policy = GapPolicy::Strict;
                let e = DpEngine::new_full(input, &w, prune, policy, early_break, strategy, 1);
                matrix::<D>(&e.unwrap(), n)
            };
            let naive = rows(false, false, DpStrategy::Scan);
            let mut runs = vec![(false, true, DpStrategy::Scan)];
            for strategy in [DpStrategy::Scan, DpStrategy::Monge, DpStrategy::Auto] {
                runs.extend([(true, false, strategy), (true, true, strategy)]);
            }
            for (prune, early_break, strategy) in runs {
                let got = rows(prune, early_break, strategy);
                for k in 0..n {
                    for i in 0..=n {
                        let (x, y) = (naive[k][i], got[k][i]);
                        assert!(
                            (x.is_infinite() && y.is_infinite()) || x.to_bits() == y.to_bits(),
                            "n = {n}, forward: {}, row {} cell {i}: naive {x} vs {y} \
                             (prune = {prune}, early break = {early_break}, {strategy:?})",
                            D::FWD,
                            k + 1
                        );
                    }
                }
            }
        }
        for input in [fig1c(), wiggly_series(48, 11), trend_series(64, 13), gappy_series(64, 17)] {
            check::<Fwd>(&input);
            check::<Bwd>(&input);
        }
    }

    /// Monge-minimized rows equal scanned rows bit for bit, forward and
    /// backward, on a certified gap-free window wide enough to exercise
    /// SMAWK.
    #[test]
    fn monge_rows_are_bit_identical_to_scan_rows() {
        let input = trend_series(96, 17);
        let n = input.len();
        let kmax = 24;
        let scan_f = full_matrix_strategy::<Fwd>(&input, kmax, true, DpStrategy::Scan);
        let monge_f = full_matrix_strategy::<Fwd>(&input, kmax, true, DpStrategy::Monge);
        let auto_f = full_matrix_strategy::<Fwd>(&input, kmax, true, DpStrategy::Auto);
        let scan_b = full_matrix_strategy::<Bwd>(&input, kmax, true, DpStrategy::Scan);
        let monge_b = full_matrix_strategy::<Bwd>(&input, kmax, true, DpStrategy::Monge);
        for k in 0..kmax {
            for i in 0..=n {
                assert_eq!(
                    scan_f[k][i].to_bits(),
                    monge_f[k][i].to_bits(),
                    "forward E[{}][{i}]",
                    k + 1
                );
                assert_eq!(scan_f[k][i].to_bits(), auto_f[k][i].to_bits());
                assert_eq!(
                    scan_b[k][i].to_bits(),
                    monge_b[k][i].to_bits(),
                    "backward B[{}][{i}]",
                    k + 1
                );
            }
        }
    }

    /// On uncertified (wiggly) data every strategy falls back to the
    /// scan: zero Monge evaluations, identical rows — exactness is never
    /// traded for speed.
    #[test]
    fn wiggly_data_falls_back_to_scan() {
        let input = wiggly_series(96, 29);
        let n = input.len();
        let scan = engine_with(&input, true, DpStrategy::Scan);
        let monge = engine_with(&input, true, DpStrategy::Monge);
        let width = n + 1;
        let mut prev_s = vec![f64::INFINITY; width];
        let mut prev_m = vec![f64::INFINITY; width];
        let mut cur_s = vec![f64::INFINITY; width];
        let mut cur_m = vec![f64::INFINITY; width];
        for k in 1..=12 {
            let s = fill::<Fwd>(&scan, k, &prev_s, &mut cur_s, None);
            let m = fill::<Fwd>(&monge, k, &prev_m, &mut cur_m, None);
            assert_eq!(m.monge, 0, "row {k}: no certificate, no Monge evals");
            assert_eq!(m, s, "row {k}: identical work");
            for i in 0..=n {
                assert_eq!(cur_s[i].to_bits(), cur_m[i].to_bits(), "row {k} cell {i}");
            }
            std::mem::swap(&mut prev_s, &mut cur_s);
            std::mem::swap(&mut prev_m, &mut cur_m);
        }
    }

    /// A certified (monotone) window with catastrophic dynamic range:
    /// segment SSEs reach ~1e282, where pads no longer dominate and
    /// cancellation dwarfs the QI tolerance. The magnitude certificate
    /// must route the window to the scan — identical rows, zero Monge
    /// evaluations, no panic in any profile.
    #[test]
    fn extreme_dynamic_range_falls_back_to_scan() {
        let mut b = SequentialBuilder::new(1);
        for t in 0..64i64 {
            let v = if t < 48 { t as f64 } else { t as f64 * 1e140 };
            b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[v]).unwrap();
        }
        let input = b.build();
        let n = input.len();
        let scan = engine_with(&input, true, DpStrategy::Scan);
        let monge = engine_with(&input, true, DpStrategy::Monge);
        let width = n + 1;
        let mut prev_s = vec![f64::INFINITY; width];
        let mut prev_m = vec![f64::INFINITY; width];
        let mut cur_s = vec![f64::INFINITY; width];
        let mut cur_m = vec![f64::INFINITY; width];
        for k in 1..=10 {
            let s = fill::<Fwd>(&scan, k, &prev_s, &mut cur_s, None);
            let m = fill::<Fwd>(&monge, k, &prev_m, &mut cur_m, None);
            assert_eq!(m.monge, 0, "row {k}: magnitude certificate must reject the window");
            assert_eq!(m.scan, s.scan, "row {k}");
            for i in 0..=n {
                assert_eq!(cur_s[i].to_bits(), cur_m[i].to_bits(), "row {k} cell {i}");
            }
            std::mem::swap(&mut prev_s, &mut cur_s);
            std::mem::swap(&mut prev_m, &mut cur_m);
        }
    }

    /// The monotone-run certificate is exact: per-dimension, direction-
    /// independent, plateau-tolerant.
    #[test]
    fn monotone_run_certificate() {
        // Values 1, 2, 2, 3 (asc) | 1 (reset) | 5, 4, 4 (desc).
        let vals = [1.0, 2.0, 2.0, 3.0, 1.0, 5.0, 4.0, 4.0];
        let mut b = SequentialBuilder::new(1);
        for (t, &v) in vals.iter().enumerate() {
            b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), &[v]).unwrap();
        }
        let input = b.build();
        let mono = monotone_run_ends(&input);
        assert_eq!(mono, vec![4, 4, 4, 5, 6, 8, 8, 8]);
        // Multi-dim: the certificate is the intersection of the dims.
        let mut b = SequentialBuilder::new(2);
        let rows = [[1.0, 9.0], [2.0, 8.0], [3.0, 8.5], [4.0, 9.0]];
        for (t, v) in rows.iter().enumerate() {
            b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), v).unwrap();
        }
        let mono = monotone_run_ends(&b.build());
        // Dim 0 ascends throughout; dim 1 descends then ascends at t=1.
        assert_eq!(mono, vec![2, 4, 4, 4]);
    }

    /// The recorded split points agree between the strategies as well
    /// (same tie-breaking as the scan).
    #[test]
    fn monge_split_points_match_scan() {
        let input = trend_series(80, 23);
        let n = input.len();
        for strategy in [DpStrategy::Monge, DpStrategy::Auto] {
            let scan = engine_with(&input, true, DpStrategy::Scan);
            let other = engine_with(&input, true, strategy);
            let width = n + 1;
            let mut prev_s = vec![f64::INFINITY; width];
            let mut prev_o = vec![f64::INFINITY; width];
            let mut cur_s = vec![f64::INFINITY; width];
            let mut cur_o = vec![f64::INFINITY; width];
            for k in 1..=20 {
                let mut js = vec![0usize; width];
                let mut jo = vec![0usize; width];
                fill::<Fwd>(&scan, k, &prev_s, &mut cur_s, Some(&mut js));
                fill::<Fwd>(&other, k, &prev_o, &mut cur_o, Some(&mut jo));
                for i in (k)..=n {
                    if cur_s[i].is_finite() {
                        assert_eq!(js[i], jo[i], "row {k} cell {i} ({strategy:?})");
                    }
                }
                std::mem::swap(&mut prev_s, &mut cur_s);
                std::mem::swap(&mut prev_o, &mut cur_o);
            }
        }
    }

    /// The suffix DP is the exact mirror of the forward DP: the whole-input
    /// cell agrees (`B[k][0] = E[k][n]`), and every interior cell matches
    /// F-recomputation over the corresponding suffix.
    #[test]
    fn suffix_rows_mirror_forward_rows() {
        let input = fig1c();
        let n = input.len();
        for prune in [false, true] {
            let fwd = full_matrix::<Fwd>(&input, n, prune);
            let bwd = full_matrix::<Bwd>(&input, n, prune);
            for k in 1..=n {
                let (x, y) = (fwd[k - 1][n], bwd[k - 1][0]);
                assert!(
                    (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-6,
                    "k = {k}: forward {x} vs suffix {y} (prune={prune})"
                );
            }
            // Interior: B[k][i] over fig1c computed on the sliced suffix.
            for i in 0..n {
                let suffix = input.slice(i..n);
                let sub = full_matrix::<Fwd>(&suffix, n - i, prune);
                for k in 1..=(n - i) {
                    let (x, y) = (sub[k - 1][n - i], bwd[k - 1][i]);
                    assert!(
                        (x.is_infinite() && y.is_infinite())
                            || (x - y).abs() < 1e-6 * (1.0 + x.abs()),
                        "B[{k}][{i}]: sliced {x} vs suffix-row {y} (prune={prune})"
                    );
                }
            }
        }
    }

    /// Divide-and-conquer backtracking reproduces the materialized-table
    /// partition for every feasible size of the running example, under
    /// every strategy.
    #[test]
    fn dnc_matches_table_on_running_example() {
        let input = fig1c();
        for prune in [false, true] {
            for strategy in [DpStrategy::Scan, DpStrategy::Monge, DpStrategy::Auto] {
                let engine = engine_with(&input, prune, strategy);
                let n = input.len();
                let width = n + 1;
                for c in 3..=n {
                    let mut jm = vec![0usize; c * width];
                    let mut prev = vec![f64::INFINITY; width];
                    prev[0] = 0.0;
                    let mut cur = vec![f64::INFINITY; width];
                    for k in 1..=c {
                        let splits = &mut jm[(k - 1) * width..k * width];
                        fill::<Fwd>(&engine, k, &prev, &mut cur, Some(splits));
                        std::mem::swap(&mut prev, &mut cur);
                        cur.fill(f64::INFINITY);
                    }
                    let table = engine.backtrack(&jm, 0, n, c);
                    let dnc = dnc_partition(&engine, c);
                    assert_eq!(table, dnc.boundaries, "c = {c} (prune={prune}, {strategy:?})");
                    assert!(
                        (dnc.value - prev[n]).abs() <= 1e-9 * (1.0 + prev[n]),
                        "c = {c}: dnc optimum {} vs table optimum {}",
                        dnc.value,
                        prev[n]
                    );
                }
            }
        }
    }

    /// Emax = 269 285.714 for the running example (Example 22).
    #[test]
    fn example_22_emax() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let e = max_error(&input, &w).unwrap();
        assert!((e - 269_285.714_285).abs() < 1e-2, "got {e}");
    }

    #[test]
    fn mode_selection() {
        // Old-cap territory auto-selects divide and conquer instead of
        // failing: (2²⁰ + 1) · 2¹² entries is far beyond the budget.
        assert!(DpMode::Auto.materializes_table(1_000, 100));
        assert!(!DpMode::Auto.materializes_table(1 << 20, 1 << 12));
        assert!(DpMode::Table.materializes_table(1 << 20, 1 << 12));
        assert!(!DpMode::DivideConquer.materializes_table(10, 2));
        // (4 + 1) · 10 = 50 entries sit exactly on a budget of 50.
        assert!(DpMode::Budget(50).materializes_table(4, 10));
        assert!(!DpMode::Budget(49).materializes_table(4, 10));
        // Budget overflow saturates instead of wrapping.
        assert!(!DpMode::Auto.materializes_table(usize::MAX, usize::MAX));
    }

    #[test]
    fn row_budgets() {
        assert_eq!(DpMode::DivideConquer.row_budget(100), 0);
        assert_eq!(DpMode::Table.row_budget(100), usize::MAX);
        assert_eq!(DpMode::Budget(1_010).row_budget(100), 10);
        assert_eq!(DpMode::Auto.row_budget(100), DEFAULT_TABLE_BUDGET / 101);
    }

    /// The naive baseline ignores the strategy knob: it exists to measure
    /// the unaccelerated recurrence.
    #[test]
    fn naive_engine_forces_scan() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let e =
            DpEngine::new_full(&input, &w, false, GapPolicy::Strict, true, DpStrategy::Monge, 1)
                .unwrap();
        assert_eq!(e.strategy, DpStrategy::Scan);
    }

    /// Monge rows cost O(window) evaluations where the scan pays
    /// O(window²) — the headline complexity change, measured directly.
    #[test]
    fn monge_row_is_superlinearly_cheaper_on_trend_data() {
        let input = trend_series(512, 5);
        let n = input.len();
        let scan = engine_with(&input, true, DpStrategy::Scan);
        let monge = engine_with(&input, true, DpStrategy::Monge);
        let width = n + 1;
        let mut prev = vec![f64::INFINITY; width];
        let mut cur = vec![f64::INFINITY; width];
        // Row 2 read from the genuine row 1.
        fill::<Fwd>(&scan, 1, &prev, &mut cur, None);
        std::mem::swap(&mut prev, &mut cur);
        let s = fill::<Fwd>(&scan, 2, &prev, &mut cur, None);
        let mut cur2 = vec![f64::INFINITY; width];
        let m = fill::<Fwd>(&monge, 2, &prev, &mut cur2, None);
        assert_eq!(s.monge, 0);
        assert_eq!(m.scan, 0);
        assert!(
            m.monge * 5 < s.scan,
            "monge {} evals vs scan {} — expected ≥ 5× reduction",
            m.monge,
            s.scan
        );
        assert_eq!(cur[..], cur2[..], "identical row values");
    }

    /// Two unsorted runs around a monotone one, with a break between each
    /// pair: every row holds a wide scan window, and from row 3 on a
    /// Monge-certified window beside it.
    fn wiggly_trend_wiggly(seed: u64) -> SequentialRelation {
        let mut state = seed;
        let mut b = SequentialBuilder::new(1);
        let mut v = 0.0;
        for t in 0..1000 {
            // Tuples 400..600 ascend; chronons 400 and 601 are holes.
            let trend = (400..600).contains(&t);
            v = if trend { v + lcg(&mut state) } else { lcg(&mut state) };
            let at = t + i64::from(t >= 400) + i64::from(t >= 600);
            b.push(GroupKey::empty(), TimeInterval::instant(at).unwrap(), &[v]).unwrap();
        }
        b.build()
    }

    /// Fills rows `1..=12` in direction `D` at `stride` with both engines
    /// and asserts that every row from 2 on clears the fan-out gate, and
    /// that values, lower brackets, split points and counters agree bit
    /// for bit. Returns the rows' summed counters.
    fn assert_par_rows<D: Dir>(seq: &DpEngine, par: &DpEngine, stride: usize) -> Cells {
        let n = seq.n;
        let (mut rows_s, mut rows_p) = (seq.rows(), par.rows());
        let mut cells = Cells::default();
        for k in 1..=12 {
            let at = format!("n = {n}, stride {stride}, forward: {}, row {k}", D::FWD);
            if k > 1 {
                let (first, last) = D::cells(&par.gaps, true, k, 0, n).unwrap();
                let windows = par.collect_windows::<D>(k, 0, n, first, last);
                let work: u64 = windows.iter().map(|w| w.work(stride)).sum();
                assert!(work >= PAR_MIN_ROW_WORK, "{at} must fan out");
            }
            let (mut js, mut jp) = (vec![0usize; n + 1], vec![0usize; n + 1]);
            let s = seq.step::<D>(k, 0, n, stride, &mut rows_s, D::FWD.then_some(&mut js[..]));
            let p = par.step::<D>(k, 0, n, stride, &mut rows_p, D::FWD.then_some(&mut jp[..]));
            let s = s.unwrap();
            assert_eq!(s, p.unwrap(), "{at}: identical counters");
            cells += s;
            for i in 0..=n {
                assert_eq!(rows_s.value(i).to_bits(), rows_p.value(i).to_bits(), "{at} cell {i}");
                assert_eq!(rows_s.lower(i).to_bits(), rows_p.lower(i).to_bits(), "{at} lb {i}");
            }
            assert_eq!(js, jp, "{at}: identical split points");
        }
        cells
    }

    /// A multi-thread budget fans row fills out across chunked windows;
    /// row values, lower brackets, split points, and evaluation counters
    /// stay bit-identical to the one-thread fill — forward and backward,
    /// on exact rows over scan-only (wiggly) data and over data whose rows
    /// also hold Monge-certified windows, and on bracketed `Approx` rows at
    /// strides 2 and 4. Every row from 2 on clears the fan-out work gate,
    /// and Monge windows run exactly where the input certifies them.
    #[test]
    fn parallel_rows_are_bit_identical_to_sequential() {
        let w = Weights::uniform(1);
        let cases = [
            (wiggly_series(700, 41), DpStrategy::Auto, 1, false),
            (wiggly_trend_wiggly(43), DpStrategy::Auto, 1, true),
            (wiggly_series(700, 47), DpStrategy::Approx(0.5), 2, false),
            (wiggly_series(1400, 53), DpStrategy::Approx(0.5), 4, false),
        ];
        for (input, strategy, stride, monge) in &cases {
            let make = |threads| {
                let policy = GapPolicy::Strict;
                DpEngine::new_full(input, &w, true, policy, true, *strategy, threads).unwrap()
            };
            let (seq, par) = (make(1), make(4));
            assert_eq!(par.pool.threads(), 4);
            let fwd = assert_par_rows::<Fwd>(&seq, &par, *stride);
            let bwd = assert_par_rows::<Bwd>(&seq, &par, *stride);
            assert_eq!((fwd.monge > 0, bwd.monge > 0), (*monge, *monge), "{strategy:?}");
        }
    }

    /// The chunker tiles every window region exactly, forward and
    /// backward: chunk extents are contiguous, in order, and cover the
    /// same cells under any budget.
    #[test]
    fn chunker_tiles_rows_exactly() {
        fn check<D: Dir>(engine: &DpEngine, k: usize) {
            let n = engine.n;
            let (first, last) = D::cells(&engine.gaps, true, k, 0, n).unwrap();
            let windows = engine.collect_windows::<D>(k, 0, n, first, last);
            let work: u64 = windows.iter().map(|w| w.work(1)).sum();
            let chunks = engine.chunk_windows(&windows, work, 1);
            let at = format!("k = {k}, threads = {}, forward: {}", engine.pool.threads(), D::FWD);
            assert!(chunks.len() > windows.len(), "{at}: the scan window splits");
            let mut next = first;
            for c in &chunks {
                assert_eq!(c.ws, next, "{at}");
                assert!(c.we >= c.ws);
                next = c.we + 1;
            }
            assert_eq!(next, last + 1, "{at}: chunks must end at the row's last cell");
        }
        let input = wiggly_series(300, 7);
        let w = Weights::uniform(1);
        for threads in [2, 3, 8] {
            let engine = DpEngine::new_full(
                &input,
                &w,
                true,
                GapPolicy::Strict,
                true,
                DpStrategy::Auto,
                threads,
            )
            .unwrap();
            for k in [2usize, 5, 20] {
                check::<Fwd>(&engine, k);
                check::<Bwd>(&engine, k);
            }
        }
    }

    /// The bench-support harness reproduces the engine's rows.
    #[test]
    fn bench_support_row_fill_matches_engine() {
        let input = trend_series(64, 3);
        let w = Weights::uniform(1);
        let rf = bench_support::RowFill::new(&input, &w, DpStrategy::Auto).unwrap();
        let prev = rf.row(3);
        let mut cur = vec![f64::INFINITY; rf.width()];
        let cells = rf.fill(4, &prev, &mut cur);
        assert!(cells > 0);
        let m = full_matrix::<Fwd>(&input, 4, true);
        for i in 0..=input.len() {
            assert_eq!(cur[i].to_bits(), m[3][i].to_bits(), "cell {i}");
        }
    }
}
