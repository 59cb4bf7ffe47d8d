//! The unified summarizer interface of the §7 evaluation.
//!
//! Every reduction/approximation algorithm in the comparison — exact PTA,
//! the streaming greedy family, and the nine `pta-baselines` methods —
//! implements one object-safe [`Summarizer`] trait: given a
//! [`SeriesView`] of the input and a [`Bound`] (maximal size *or* maximal
//! relative error), it produces a [`Summary`] with the achieved size, the
//! comparable time-weighted SSE, the wall time, and the algorithm's
//! output/counters. The facade's `Comparator` runs any set of summarizers
//! over a bound grid; the registry in `pta-baselines` enumerates them by
//! name for CLI/bench use. Each PTA summarizer has one constructor per
//! registry entry: [`ExactPta::new`] (`exact`), [`ExactPta::approx`]
//! (`approx`), [`NaiveDp::new`] (`dp-naive`), [`GreedyPta::new`]
//! (`greedy`, δ = 1) and [`GreedyPta::offline`] (`gms`, δ = ∞).
//!
//! Bound normalization: algorithms that natively take a size bound run
//! error bounds through [`size_for_error_budget`] (smallest size whose
//! error fits the ε-budget, by bisection); threshold-driven algorithms
//! (ATC, PLA) search their threshold instead. Both mirror the paper's
//! protocol of sweeping a method's own knob and reading the bound off the
//! achieved curve.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use pta_temporal::SequentialRelation;

use crate::cancel::CancelToken;
use crate::dp::curve::optimal_error_curve_with_cancel;
use crate::dp::error_bounded::error_bounded_with_opts;
use crate::dp::size_bounded::{size_bounded_naive, size_bounded_with_opts};
use crate::dp::{error_threshold, max_error_with_policy, DpOptions, DpStats, DpStrategy};
use crate::error::CoreError;
use crate::gaps::GapVector;
use crate::greedy::gms::greedy_error_curve;
use crate::greedy::gptac::GPtaC;
use crate::greedy::gptae::GPtaE;
use crate::greedy::{Delta, GreedyStats};
use crate::policy::GapPolicy;
use crate::reduction::Reduction;
use crate::series::{DenseSeries, PiecewiseConstant};
use crate::weights::Weights;

/// The reduction bound of a PTA-style query: either a maximal result size
/// (Def. 6) or a maximal relative error (Def. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// At most this many result tuples; the error is minimized.
    Size(usize),
    /// At most this fraction of the maximal error; the size is minimized.
    Error(f64),
}

/// What a [`Summarizer`] can consume — used by callers (the facade's
/// `Comparator`, the CLI) to anticipate the paper's "n/a" cells instead
/// of discovering them as errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Accepts relations with temporal gaps or multiple aggregation
    /// groups (multi-run inputs). Series methods require a single run.
    pub groups_and_gaps: bool,
    /// Accepts `p > 1` aggregate dimensions.
    pub multidimensional: bool,
    /// Supports [`Bound::Size`].
    pub size_bounded: bool,
    /// Supports [`Bound::Error`] (natively or via bound normalization).
    pub error_bounded: bool,
}

impl Capabilities {
    /// Capabilities of the relation-level PTA algorithms: everything.
    pub const RELATION: Self = Self {
        groups_and_gaps: true,
        multidimensional: true,
        size_bounded: true,
        error_bounded: true,
    };

    /// Capabilities of the one-dimensional, gap-free series methods.
    pub const SERIES: Self = Self {
        groups_and_gaps: false,
        multidimensional: false,
        size_bounded: true,
        error_bounded: true,
    };
}

/// Algorithm-specific counters attached to a [`Summary`].
#[derive(Debug, Clone, Default)]
pub enum SummaryStats {
    /// No counters (series methods, curve-shared grid evaluations).
    #[default]
    None,
    /// Exact-DP work counters.
    Dp(DpStats),
    /// Greedy counters (heap size, merges, ...).
    Greedy(GreedyStats),
}

/// The materialized output attached to a [`Summary`].
///
/// Grid evaluations that share one computation across many bounds (the
/// exact/greedy error curves, the ATC threshold sweep) return
/// [`SummaryDetail::None`]; per-bound [`Summarizer::summarize`] calls
/// return the algorithm's full output.
#[derive(Debug, Clone, Default)]
pub enum SummaryDetail {
    /// No materialized output.
    #[default]
    None,
    /// A reduced sequential relation with provenance (PTA, greedy, ATC).
    Reduction(Reduction),
    /// A step function over the chronons (PAA, APCA, SAX, amnesic).
    Steps(PiecewiseConstant),
    /// A dense reconstruction (DWT, DFT, Chebyshev, PLA).
    Signal(Vec<f64>),
}

/// The result of one summarizer run: the achieved size, the comparable
/// time-weighted SSE (Def. 5 — per-chronon for series methods, which is
/// the same quantity), wall time, counters and output.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The summarizer that produced this (registry name).
    pub algorithm: &'static str,
    /// The bound that was requested.
    pub bound: Bound,
    /// Achieved output size: result tuples, segments, or retained
    /// coefficients/frequencies — each method's natural size notion.
    pub size: usize,
    /// Time-weighted sum-squared error against the input.
    pub sse: f64,
    /// Wall time of the run. For curve-shared grid evaluations every
    /// summary of the grid reports the shared computation's wall time
    /// (flagged by [`Summary::shared_wall`]).
    pub wall: Duration,
    /// Whether [`Summary::wall`] is the wall time of one computation
    /// shared across the whole bound grid (the exact/greedy error-curve
    /// and ATC-sweep fast paths) rather than this point's own run —
    /// summing shared walls over a grid overcounts.
    pub shared_wall: bool,
    /// Algorithm counters.
    pub stats: SummaryStats,
    /// Materialized output, when the evaluation produced one.
    pub detail: SummaryDetail,
}

impl Summary {
    /// A summary with no counters/detail and a shared wall time (the
    /// curve-shared grid form).
    pub fn curve_point(algorithm: &'static str, bound: Bound, size: usize, sse: f64) -> Self {
        Self {
            algorithm,
            bound,
            size,
            sse,
            wall: Duration::ZERO,
            shared_wall: true,
            stats: SummaryStats::None,
            detail: SummaryDetail::None,
        }
    }

    /// The certified approximation ratio of a DP-backed run: `1.0` for
    /// exact runs, the proved `(1 + ε)`-bounded quotient for `approx`
    /// runs (see `DpStats::certified_ratio`). `None` for non-DP methods
    /// and curve-shared grid points, which carry no DP counters.
    pub fn certified_ratio(&self) -> Option<f64> {
        match &self.stats {
            SummaryStats::Dp(s) => Some(s.certified_ratio),
            SummaryStats::None | SummaryStats::Greedy(_) => None,
        }
    }
}

/// A read-only view of one summarization input: the sequential relation
/// (an ITA result), the SSE weights, and the mergeability policy, with
/// lazily computed shared derivatives — the maximal error `E_max`, the
/// policy-aware `cmin`, and the per-chronon dense expansion the series
/// methods need. The facade's `Comparator` builds one view per input so
/// ITA runs once and the input densifies once, no matter how many
/// summarizers and bounds are evaluated.
#[derive(Debug)]
pub struct SeriesView<'a> {
    relation: &'a SequentialRelation,
    weights: Weights,
    policy: GapPolicy,
    cancel: CancelToken,
    caches: Arc<ViewCaches>,
}

/// The lazily computed shared derivatives of a [`SeriesView`], behind an
/// `Arc` so [`SeriesView::with_cancel`] siblings keep sharing them.
#[derive(Debug, Default)]
struct ViewCaches {
    cmin: OnceLock<usize>,
    emax: OnceLock<Result<f64, CoreError>>,
    dense: OnceLock<Result<DenseSeries, CoreError>>,
}

impl<'a> SeriesView<'a> {
    /// Creates a view under [`GapPolicy::Strict`].
    pub fn new(relation: &'a SequentialRelation, weights: Weights) -> Result<Self, CoreError> {
        Self::with_policy(relation, weights, GapPolicy::Strict)
    }

    /// Creates a view under a mergeability policy.
    pub fn with_policy(
        relation: &'a SequentialRelation,
        weights: Weights,
        policy: GapPolicy,
    ) -> Result<Self, CoreError> {
        weights.check_dims(relation.dims())?;
        Ok(Self {
            relation,
            weights,
            policy,
            cancel: CancelToken::default(),
            caches: Arc::new(ViewCaches::default()),
        })
    }

    /// A sibling view over the same input carrying `cancel`, sharing this
    /// view's caches — how the facade's `Comparator` scopes per-method
    /// deadlines without recomputing `E_max` or re-densifying per method.
    pub fn with_cancel(&self, cancel: CancelToken) -> SeriesView<'a> {
        SeriesView {
            relation: self.relation,
            weights: self.weights.clone(),
            policy: self.policy,
            cancel,
            caches: Arc::clone(&self.caches),
        }
    }

    /// The cancellation token summarizers are expected to poll; inert
    /// unless the caller attached one via [`SeriesView::with_cancel`].
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// The underlying sequential relation.
    pub fn relation(&self) -> &'a SequentialRelation {
        self.relation
    }

    /// The SSE weights (one per aggregate dimension).
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// The mergeability policy.
    pub fn policy(&self) -> GapPolicy {
        self.policy
    }

    /// Number of input tuples `n`.
    pub fn len(&self) -> usize {
        self.relation.len()
    }

    /// Whether the input is empty.
    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// Aggregate dimensionality `p`.
    pub fn dims(&self) -> usize {
        self.relation.dims()
    }

    /// The smallest reachable size under this view's policy (cached).
    pub fn cmin(&self) -> usize {
        *self
            .caches
            .cmin
            .get_or_init(|| GapVector::build_with_policy(self.relation, self.policy).cmin())
    }

    /// The maximal reduction error `E_max` under this view's policy
    /// (cached) — the denominator of every ε bound.
    pub fn emax(&self) -> Result<f64, CoreError> {
        self.caches
            .emax
            .get_or_init(|| max_error_with_policy(self.relation, &self.weights, self.policy))
            .clone()
    }

    /// The per-chronon dense expansion (cached), or the not-applicable
    /// error series methods report on gapped/grouped/multidimensional
    /// inputs.
    pub fn dense(&self) -> Result<&DenseSeries, CoreError> {
        self.caches
            .dense
            .get_or_init(|| DenseSeries::from_sequential(self.relation))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The ε-budget of an error bound: [`error_threshold`] of `ε` and
    /// this series' `E_max`.
    pub fn error_budget(&self, epsilon: f64) -> Result<f64, CoreError> {
        if !(0.0..=1.0).contains(&epsilon) {
            return Err(CoreError::invalid_error_bound(epsilon));
        }
        let emax = self.emax()?;
        Ok(error_threshold(epsilon, emax))
    }
}

/// One algorithm of the §7 comparison behind the unified interface.
///
/// Implementations provide [`Summarizer::run`]; callers use
/// [`Summarizer::summarize`] (which stamps the wall time) or
/// [`Summarizer::summarize_grid`] (which curve-sharing algorithms
/// override to answer a whole bound grid from one computation). The trait
/// is object-safe: registries and the facade's `Comparator` hold
/// [`BoxedSummarizer`]s.
pub trait Summarizer {
    /// The registry name (also [`Summary::algorithm`]).
    fn name(&self) -> &'static str;

    /// What inputs and bounds this summarizer accepts.
    fn capabilities(&self) -> Capabilities;

    /// Executes the algorithm under `bound`. Implementations leave
    /// [`Summary::wall`] at zero; [`Summarizer::summarize`] stamps it.
    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError>;

    /// [`Summarizer::run`] with the wall time measured and stamped.
    fn summarize(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        let start = Instant::now();
        let mut summary = self.run(view, bound)?;
        summary.wall = start.elapsed();
        Ok(summary)
    }

    /// Evaluates a whole bound grid. The default runs each bound
    /// independently; curve-sharing algorithms (exact/greedy PTA over
    /// size grids, ATC) override it to share one computation, returning
    /// [`SummaryDetail::None`] per point.
    fn summarize_grid(
        &self,
        view: &SeriesView<'_>,
        bounds: &[Bound],
    ) -> Vec<Result<Summary, CoreError>> {
        bounds.iter().map(|&b| self.summarize(view, b)).collect()
    }
}

/// A boxed summarizer as registries and the facade's `Comparator` hold
/// it. `Send + Sync` so the comparator can fan methods out across a
/// thread pool; every summarizer in the workspace is a stateless (or
/// immutably configured) value, so the bounds cost implementations
/// nothing.
pub type BoxedSummarizer = Box<dyn Summarizer + Send + Sync>;

/// Smallest size in `[floor, n]` whose error fits `budget`, by bisection
/// under the (weak) assumption that `eval`'s error is non-increasing in
/// the size — exact for PTA/amnesic (their optimal curves are monotone),
/// a best-effort upper bound for heuristic segmenters. This is how
/// natively size-bounded methods normalize [`Bound::Error`].
pub fn size_for_error_budget(
    floor: usize,
    n: usize,
    budget: f64,
    mut eval: impl FnMut(usize) -> Result<f64, CoreError>,
) -> Result<usize, CoreError> {
    let mut lo = floor.max(1).min(n);
    let mut hi = n;
    if eval(lo)? <= budget {
        return Ok(lo);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if eval(mid)? <= budget {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

// ---------------------------------------------------------------------
// PTA implementations (the trait's home-team members).
// ---------------------------------------------------------------------

/// Exact PTA (`PTAc`/`PTAε`, §5) behind the [`Summarizer`] interface,
/// with the row minimization strategy as its one knob: the default
/// [`DpStrategy::Auto`] is the registry's `exact`, and
/// [`DpStrategy::Approx`] turns the same summarizer into the certified
/// `(1 + ε)`-approximate `approx` registry entry. Backtracking runs in
/// [`DpMode::Auto`](crate::DpMode::Auto); [`DpOptions::with_mode`] pins a
/// mode on the free functions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactPta {
    strategy: DpStrategy,
}

impl ExactPta {
    /// Exact PTA with [`DpMode::Auto`](crate::DpMode::Auto) backtracking.
    pub fn new() -> Self {
        Self { strategy: DpStrategy::Auto }
    }

    /// Certified `(1 + ε)`-approximate PTA: the same DP pipeline under
    /// [`DpStrategy::Approx`], so every [`Summary`] it produces carries
    /// the a posteriori guarantee in [`Summary::certified_ratio`].
    pub fn approx(eps: f64) -> Self {
        Self { strategy: DpStrategy::Approx(eps) }
    }

    fn opts(&self, view: &SeriesView<'_>) -> DpOptions {
        DpOptions {
            policy: view.policy(),
            strategy: self.strategy,
            cancel: view.cancel().clone(),
            ..DpOptions::default()
        }
    }
}

impl Summarizer for ExactPta {
    fn name(&self) -> &'static str {
        match self.strategy {
            DpStrategy::Approx(_) => "approx",
            _ => "exact",
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::RELATION
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        let out = match bound {
            Bound::Size(c) => {
                size_bounded_with_opts(view.relation(), view.weights(), c, self.opts(view))?
            }
            Bound::Error(eps) => {
                error_bounded_with_opts(view.relation(), view.weights(), eps, self.opts(view))?
            }
        };
        Ok(Summary {
            algorithm: self.name(),
            bound,
            size: out.reduction.len(),
            sse: out.reduction.sse(),
            wall: Duration::ZERO,
            shared_wall: false,
            stats: SummaryStats::Dp(out.stats),
            detail: SummaryDetail::Reduction(out.reduction),
        })
    }

    /// Size grids under [`GapPolicy::Strict`] share one DP: row `k`'s
    /// final cell of a single run *is* the optimal error for size `k`
    /// (Fig. 14's protocol), so the whole grid costs one
    /// [`crate::optimal_error_curve`] call; `approx`'s curve entries are
    /// each certified within `1 + ε`.
    fn summarize_grid(
        &self,
        view: &SeriesView<'_>,
        bounds: &[Bound],
    ) -> Vec<Result<Summary, CoreError>> {
        let sizes = all_sizes(bounds);
        let (Some(sizes), GapPolicy::Strict) = (sizes, view.policy()) else {
            return bounds.iter().map(|&b| self.summarize(view, b)).collect();
        };
        if sizes.len() < 2 {
            return bounds.iter().map(|&b| self.summarize(view, b)).collect();
        }
        let n = view.len();
        let kmax = sizes.iter().copied().max().unwrap_or(0).min(n);
        let start = Instant::now();
        let curve = match optimal_error_curve_with_cancel(
            view.relation(),
            view.weights(),
            kmax,
            self.strategy,
            0,
            view.cancel().clone(),
        ) {
            Ok(curve) => curve,
            Err(e) => return bounds.iter().map(|_| Err(e.clone())).collect(),
        };
        let wall = start.elapsed();
        curve_grid(self.name(), view, &sizes, &curve, wall)
    }
}

/// The unpruned DP baseline of Fig. 18 (`dp-naive`): identical recurrence
/// and optimum, no gap pruning — kept runnable through the registry so
/// runtime comparisons against `exact` are one call.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveDp;

impl NaiveDp {
    /// The naive-DP summarizer.
    pub fn new() -> Self {
        Self
    }
}

impl Summarizer for NaiveDp {
    fn name(&self) -> &'static str {
        "dp-naive"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { error_bounded: false, ..Capabilities::RELATION }
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        if view.policy() != GapPolicy::Strict {
            return Err(CoreError::not_applicable(
                "the naive DP baseline only runs under the strict mergeability policy",
            ));
        }
        let Bound::Size(c) = bound else {
            return Err(CoreError::not_applicable("the naive DP baseline is size-bounded only"));
        };
        let out = size_bounded_naive(view.relation(), view.weights(), c)?;
        Ok(Summary {
            algorithm: self.name(),
            bound,
            size: out.reduction.len(),
            sse: out.reduction.sse(),
            wall: Duration::ZERO,
            shared_wall: false,
            stats: SummaryStats::Dp(out.stats),
            detail: SummaryDetail::Reduction(out.reduction),
        })
    }
}

/// The greedy PTA family (`gPTAc`/`gPTAε`, §6) behind the [`Summarizer`]
/// interface, in two configurations: the streaming one at the
/// paper-recommended δ = 1 registers as `greedy`, and δ = ∞, the offline
/// GMS strategy (Thms. 2/3), registers as `gms`.
#[derive(Debug, Clone, Copy)]
pub struct GreedyPta {
    delta: Delta,
}

impl Default for GreedyPta {
    fn default() -> Self {
        Self::new()
    }
}

impl GreedyPta {
    /// The paper-recommended streaming configuration, δ = 1.
    pub fn new() -> Self {
        Self { delta: Delta::Finite(1) }
    }

    /// The offline GMS strategy (δ = ∞).
    pub fn offline() -> Self {
        Self { delta: Delta::Unbounded }
    }
}

impl Summarizer for GreedyPta {
    fn name(&self) -> &'static str {
        match self.delta {
            Delta::Unbounded => "gms",
            Delta::Finite(_) => "greedy",
        }
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::RELATION
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        let (rel, w) = (view.relation(), view.weights());
        let out = match bound {
            Bound::Size(c) => {
                GPtaC::run(rel, w, c, self.delta, view.policy(), view.cancel().clone())?
            }
            Bound::Error(eps) => {
                GPtaE::run(rel, w, eps, self.delta, None, view.policy(), view.cancel().clone())?
            }
        };
        Ok(Summary {
            algorithm: self.name(),
            bound,
            size: out.reduction.len(),
            // The accumulated merge error — the quantity Thm. 1 bounds
            // and the evaluation's greedy curves plot (equals the
            // reduction's SSE by Prop. 2).
            sse: out.stats.total_error,
            wall: Duration::ZERO,
            shared_wall: false,
            stats: SummaryStats::Greedy(out.stats),
            detail: SummaryDetail::Reduction(out.reduction),
        })
    }

    /// With δ = ∞ under [`GapPolicy::Strict`], size grids share one GMS
    /// run: the merge order does not depend on the bound, so a single
    /// [`crate::greedy_error_curve`] answers every size (Fig. 15's protocol).
    fn summarize_grid(
        &self,
        view: &SeriesView<'_>,
        bounds: &[Bound],
    ) -> Vec<Result<Summary, CoreError>> {
        let sizes = all_sizes(bounds);
        let shareable = self.delta == Delta::Unbounded && view.policy() == GapPolicy::Strict;
        let (Some(sizes), true) = (sizes, shareable) else {
            return bounds.iter().map(|&b| self.summarize(view, b)).collect();
        };
        if sizes.len() < 2 {
            return bounds.iter().map(|&b| self.summarize(view, b)).collect();
        }
        let start = Instant::now();
        let curve = match greedy_error_curve(view.relation(), view.weights(), view.cancel().clone())
        {
            Ok(curve) => curve,
            Err(e) => return bounds.iter().map(|_| Err(e.clone())).collect(),
        };
        let wall = start.elapsed();
        curve_grid(self.name(), view, &sizes, &curve, wall)
    }
}

/// `Some(sizes)` when every bound is a size bound.
fn all_sizes(bounds: &[Bound]) -> Option<Vec<usize>> {
    bounds
        .iter()
        .map(|b| match b {
            Bound::Size(c) => Some(*c),
            Bound::Error(_) => None,
        })
        .collect()
}

/// Maps an error-vs-size curve (`curve[k − 1]` = error at size `k`) onto
/// per-size summaries, mirroring the single-run edge semantics: `c ≥ n`
/// is the identity (error 0), `c < cmin` fails with
/// [`CoreError::SizeBelowMinimum`].
fn curve_grid(
    name: &'static str,
    view: &SeriesView<'_>,
    sizes: &[usize],
    curve: &[f64],
    wall: Duration,
) -> Vec<Result<Summary, CoreError>> {
    let n = view.len();
    let cmin = view.cmin();
    sizes
        .iter()
        .map(|&c| {
            if c < cmin {
                return Err(CoreError::SizeBelowMinimum { requested: c, cmin });
            }
            let (size, sse) = if c >= n { (n, 0.0) } else { (c, curve[c - 1]) };
            let mut s = Summary::curve_point(name, Bound::Size(c), size, sse);
            s.wall = wall;
            Ok(s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::size_bounded::size_bounded;
    use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval, Value};

    fn fig1c() -> SequentialRelation {
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

    #[test]
    fn exact_summarizer_matches_free_function() {
        let input = fig1c();
        let view = SeriesView::new(&input, Weights::uniform(1)).unwrap();
        let exact = ExactPta::new();
        for c in [4usize, 5, 6] {
            let s = exact.summarize(&view, Bound::Size(c)).unwrap();
            let direct = size_bounded(&input, &Weights::uniform(1), c).unwrap();
            assert_eq!(s.sse, direct.reduction.sse(), "c = {c}");
            assert_eq!(s.size, direct.reduction.len());
            assert!(s.wall >= Duration::ZERO);
            assert!(matches!(s.stats, SummaryStats::Dp(_)));
            assert!(matches!(s.detail, SummaryDetail::Reduction(_)));
        }
    }

    #[test]
    fn exact_grid_matches_per_bound_runs() {
        let input = fig1c();
        let view = SeriesView::new(&input, Weights::uniform(1)).unwrap();
        let exact = ExactPta::new();
        let bounds: Vec<Bound> = (3..=7).map(Bound::Size).collect();
        let grid = exact.summarize_grid(&view, &bounds);
        for (b, g) in bounds.iter().zip(&grid) {
            let single = exact.summarize(&view, *b).unwrap();
            let g = g.as_ref().unwrap();
            assert!(
                (g.sse - single.sse).abs() < 1e-9 * (1.0 + single.sse),
                "{b:?}: {} vs {}",
                g.sse,
                single.sse
            );
            assert!(g.shared_wall, "grid points carry the shared curve wall");
            assert!(!single.shared_wall, "single runs time themselves");
        }
        // Below cmin the grid fails exactly like the single run.
        let below = exact.summarize_grid(&view, &[Bound::Size(1), Bound::Size(4)]);
        assert!(matches!(below[0], Err(CoreError::SizeBelowMinimum { .. })));
        assert!(below[1].is_ok());
    }

    #[test]
    fn greedy_grid_matches_gms_runs() {
        let input = fig1c();
        let view = SeriesView::new(&input, Weights::uniform(1)).unwrap();
        let gms = GreedyPta::offline();
        assert_eq!(gms.name(), "gms");
        let bounds: Vec<Bound> = (3..=7).map(Bound::Size).collect();
        let grid = gms.summarize_grid(&view, &bounds);
        for (b, g) in bounds.iter().zip(&grid) {
            let single = gms.summarize(&view, *b).unwrap();
            let g = g.as_ref().unwrap();
            assert!((g.sse - single.sse).abs() < 1e-9 * (1.0 + single.sse), "{b:?}");
            assert_eq!(g.size, single.size);
        }
    }

    #[test]
    fn error_bounds_minimize_size() {
        let input = fig1c();
        let view = SeriesView::new(&input, Weights::uniform(1)).unwrap();
        let exact = ExactPta::new();
        let s = exact.summarize(&view, Bound::Error(0.2)).unwrap();
        let budget = view.error_budget(0.2).unwrap();
        assert!(s.sse <= budget, "{} > {budget}", s.sse);
        // One tuple fewer must overshoot the budget (minimality).
        let tighter = exact.summarize(&view, Bound::Size(s.size - 1)).unwrap();
        assert!(tighter.sse > budget);
    }

    #[test]
    fn naive_dp_matches_exact_optimum() {
        let input = fig1c();
        let view = SeriesView::new(&input, Weights::uniform(1)).unwrap();
        let naive = NaiveDp::new();
        let s = naive.summarize(&view, Bound::Size(4)).unwrap();
        let exact = ExactPta::new().summarize(&view, Bound::Size(4)).unwrap();
        assert!((s.sse - exact.sse).abs() < 1e-9 * (1.0 + exact.sse));
        assert!(naive.summarize(&view, Bound::Error(0.5)).is_err());
        assert!(!naive.capabilities().error_bounded);
    }

    #[test]
    fn view_caches_are_consistent() {
        let input = fig1c();
        let view = SeriesView::new(&input, Weights::uniform(1)).unwrap();
        assert_eq!(view.len(), 7);
        assert_eq!(view.cmin(), input.cmin());
        assert!(view.emax().unwrap() > 0.0);
        // fig1c has two groups: series view is n/a.
        assert!(view.dense().unwrap_err().common().is_some());
        // Dimension mismatch is rejected at construction.
        assert!(SeriesView::new(&input, Weights::uniform(2)).is_err());
    }

    #[test]
    fn size_search_finds_smallest_fitting_size() {
        // Error curve 10, 8, 6, 4, 2, 0 over sizes 1..=6.
        let curve = [10.0, 8.0, 6.0, 4.0, 2.0, 0.0];
        let eval = |c: usize| -> Result<f64, CoreError> { Ok(curve[c - 1]) };
        assert_eq!(size_for_error_budget(1, 6, 5.0, eval).unwrap(), 4);
        assert_eq!(size_for_error_budget(1, 6, 10.0, eval).unwrap(), 1);
        assert_eq!(size_for_error_budget(1, 6, 0.5, eval).unwrap(), 6);
    }
}
