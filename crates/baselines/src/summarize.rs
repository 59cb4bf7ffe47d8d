//! The nine baseline algorithms behind the unified
//! [`Summarizer`] interface, plus the name registry of *every*
//! summarizer in the workspace.
//!
//! Each adapter wraps the crate's free functions without changing their
//! numerics — a `Summary`'s SSE/size is bit-identical to calling the
//! underlying function directly (pinned by `tests/summarizers.rs`). What
//! the adapters add is *bound normalization* (§7's protocol):
//!
//! * natively size-bounded methods (PAA, APCA, DWT, DFT, Chebyshev, SAX,
//!   amnesic) answer [`Bound::Error`] through
//!   [`pta_core::size_for_error_budget`] — the smallest size whose error
//!   fits the ε-budget;
//! * threshold-driven methods search their own knob: ATC sweeps
//!   exponentially decaying local thresholds ([`atc_sweep`]) and keeps
//!   the best run per size, PLA bisects its L∞ tolerance;
//! * everything reports the same time-weighted SSE PTA minimizes, so
//!   curves are directly comparable.
//!
//! Each adapter runs the one configuration the evaluation uses (8 ATC
//! thresholds per decade, zero-padded wavelets for APCA and DWT, an
//! 8-symbol SAX alphabet, unit amnesic weights), so every adapter is a
//! field-less unit struct except PLA's search; the free functions keep
//! the knobs.

use std::time::{Duration, Instant};

use pta_core::summarize::{
    size_for_error_budget, Bound, BoxedSummarizer, Capabilities, SeriesView, Summarizer, Summary,
    SummaryDetail, SummaryStats,
};
use pta_core::{CoreError, DenseSeries, ExactPta, GreedyPta, NaiveDp};

use crate::amnesic::amnesic_size_bounded;
use crate::apca::apca;
use crate::atc::{atc, atc_sweep, AtcRun};
use crate::chebyshev::chebyshev;
use crate::dft::dft;
use crate::dwt::{dwt_for_size, Padding};
use crate::error::BaselineError;
use crate::paa::paa;
use crate::pla::swing_filter;
use crate::sax::sax;

/// The full summarizer registry: exact PTA, the certified
/// `(1 + ε)`-approximate `approx` tier (default ε), the naive-DP
/// baseline, the greedy family (streaming δ = 1 and offline GMS), and the
/// nine baseline methods — every algorithm of the §7 comparison, runnable
/// by name, each in the one configuration the evaluation uses.
pub fn registry() -> Vec<BoxedSummarizer> {
    vec![
        Box::new(ExactPta::new()),
        Box::new(ExactPta::approx(pta_core::DEFAULT_APPROX_EPS)),
        Box::new(NaiveDp::new()),
        Box::new(GreedyPta::new()),
        Box::new(GreedyPta::offline()),
        Box::new(Atc),
        Box::new(Paa),
        Box::new(Apca),
        Box::new(Dwt),
        Box::new(Dft),
        Box::new(Chebyshev),
        Box::new(Sax),
        Box::new(Amnesic),
        Box::new(Pla::new()),
    ]
}

/// The registry's names, in registry order.
pub fn summarizer_names() -> Vec<&'static str> {
    registry().iter().map(|s| s.name()).collect()
}

/// Looks a summarizer up by its registry name.
pub fn summarizer(name: &str) -> Option<BoxedSummarizer> {
    registry().into_iter().find(|s| s.name() == name)
}

/// Builds a [`Summary`] for a series-method fit (wall stamped by
/// [`Summarizer::summarize`]).
fn series_summary(
    name: &'static str,
    bound: Bound,
    size: usize,
    sse: f64,
    detail: SummaryDetail,
) -> Summary {
    Summary {
        algorithm: name,
        bound,
        size,
        sse,
        wall: Duration::ZERO,
        shared_wall: false,
        stats: SummaryStats::None,
        detail,
    }
}

/// Shared driver of the natively size-bounded series methods: runs `fit`
/// directly for size bounds and searches the smallest fitting size for
/// error bounds. A method whose error never reaches the ε-budget at any
/// size (e.g. SAX's quantization floor) reports not-applicable — the
/// same n/a semantics ATC and PLA use — never a summary that silently
/// overshoots the bound.
fn series_run(
    name: &'static str,
    view: &SeriesView<'_>,
    bound: Bound,
    mut fit: impl FnMut(&DenseSeries, usize) -> Result<(usize, f64, SummaryDetail), CoreError>,
) -> Result<Summary, CoreError> {
    let series = view.dense()?;
    match bound {
        Bound::Size(c) => {
            let (size, sse, detail) = fit(series, c)?;
            Ok(series_summary(name, bound, size, sse, detail))
        }
        Bound::Error(eps) => {
            let budget = view.error_budget(eps)?;
            let c =
                size_for_error_budget(1, series.len(), budget, |c| fit(series, c).map(|f| f.1))?;
            let (size, sse, detail) = fit(series, c)?;
            if sse > budget {
                return Err(CoreError::not_applicable(format!(
                    "{name} cannot reach the error budget {budget} at any size \
                     (best {sse} at size {size})"
                )));
            }
            Ok(series_summary(name, bound, size, sse, detail))
        }
    }
}

// ---------------------------------------------------------------------
// ATC — the only competitor that handles gaps and aggregation groups.
// ---------------------------------------------------------------------

/// Approximate temporal coalescing behind the [`Summarizer`] interface.
///
/// ATC is driven by a *local* per-segment threshold, so bounds are
/// answered from a threshold sweep ([`atc_sweep`], the paper's protocol):
/// a size bound `c` selects the best run with at most `c` tuples, an
/// error bound selects the smallest run within the ε-budget. Always
/// evaluates under strict adjacency (ATC has no gap-tolerant variant).
#[derive(Debug, Clone, Copy, Default)]
pub struct Atc;

impl Atc {
    /// The evaluation's sweep resolution: thresholds per decade.
    const STEPS_PER_DECADE: usize = 8;

    fn sweep(&self, view: &SeriesView<'_>) -> Result<Vec<Option<AtcRun>>, CoreError> {
        atc_sweep(view.relation(), view.weights(), Self::STEPS_PER_DECADE)
            .map_err(BaselineError::into_core)
    }

    /// Selects the sweep entry answering `bound`: size bounds take the
    /// best (smallest-SSE) run with at most `c` tuples, error bounds the
    /// smallest run within the budget.
    fn select(
        &self,
        view: &SeriesView<'_>,
        sweep: &[Option<AtcRun>],
        bound: Bound,
    ) -> Result<(usize, AtcRun), CoreError> {
        match bound {
            Bound::Size(c) => {
                let cmin = view.relation().cmin();
                if c < cmin {
                    return Err(CoreError::SizeBelowMinimum { requested: c, cmin });
                }
                sweep
                    .iter()
                    .enumerate()
                    .take(c.min(sweep.len()))
                    .filter_map(|(i, r)| r.map(|r| (i + 1, r)))
                    .min_by(|a, b| a.1.sse.total_cmp(&b.1.sse))
                    .ok_or_else(|| {
                        CoreError::not_applicable(format!("no ATC run achieved size <= {c}"))
                    })
            }
            Bound::Error(eps) => {
                let budget = view.error_budget(eps)?;
                sweep
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.map(|r| (i + 1, r)))
                    .find(|(_, r)| r.sse <= budget)
                    .ok_or_else(|| {
                        CoreError::not_applicable(format!("no ATC run within budget {budget}"))
                    })
            }
        }
    }

    /// Materializes the reduction of a selected run by re-running
    /// [`atc`] at its recorded threshold — deterministic, and every
    /// sweep entry (including the zero-threshold anchor) records a real
    /// run, so the recorded size/SSE are reproduced exactly.
    fn materialize(
        &self,
        view: &SeriesView<'_>,
        bound: Bound,
        size: usize,
        run: AtcRun,
    ) -> Result<Summary, CoreError> {
        let r = atc(view.relation(), view.weights(), run.threshold)
            .map_err(BaselineError::into_core)?;
        debug_assert_eq!(r.len(), size, "sweep rerun must reproduce the recorded size");
        Ok(Summary {
            algorithm: self.name(),
            bound,
            size: r.len(),
            sse: r.sse(),
            wall: Duration::ZERO,
            shared_wall: false,
            stats: SummaryStats::None,
            detail: SummaryDetail::Reduction(r),
        })
    }
}

impl Summarizer for Atc {
    fn name(&self) -> &'static str {
        "atc"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::RELATION
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        let sweep = self.sweep(view)?;
        let (size, run) = self.select(view, &sweep, bound)?;
        self.materialize(view, bound, size, run)
    }

    /// Any bound grid shares one threshold sweep; grid points skip the
    /// reduction materialization ([`SummaryDetail::None`]).
    fn summarize_grid(
        &self,
        view: &SeriesView<'_>,
        bounds: &[Bound],
    ) -> Vec<Result<Summary, CoreError>> {
        let start = Instant::now();
        let sweep = match self.sweep(view) {
            Ok(sweep) => sweep,
            Err(e) => return bounds.iter().map(|_| Err(e.clone())).collect(),
        };
        let wall = start.elapsed();
        bounds
            .iter()
            .map(|&bound| {
                let (size, run) = self.select(view, &sweep, bound)?;
                let mut s = Summary::curve_point(self.name(), bound, size, run.sse);
                s.wall = wall;
                Ok(s)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// The one-dimensional, gap-free series methods.
// ---------------------------------------------------------------------

/// Piecewise aggregate approximation (equal-length segments) behind the
/// [`Summarizer`] interface.
#[derive(Debug, Clone, Copy, Default)]
pub struct Paa;

impl Summarizer for Paa {
    fn name(&self) -> &'static str {
        "paa"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SERIES
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        series_run(self.name(), view, bound, |series, c| {
            let pc = paa(series, c).map_err(BaselineError::into_core)?;
            Ok((pc.segments(), pc.sse_against(series), SummaryDetail::Steps(pc)))
        })
    }
}

/// Adaptive piecewise-constant approximation behind the [`Summarizer`]
/// interface, over zero-padded wavelets (the evaluation's setting).
#[derive(Debug, Clone, Copy, Default)]
pub struct Apca;

impl Summarizer for Apca {
    fn name(&self) -> &'static str {
        "apca"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SERIES
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        series_run(self.name(), view, bound, |series, c| {
            let pc = apca(series, c, Padding::Zero).map_err(BaselineError::into_core)?;
            Ok((pc.segments(), pc.sse_against(series), SummaryDetail::Steps(pc)))
        })
    }
}

/// Discrete Haar wavelet approximation (best coefficient count for a
/// segment budget) behind the [`Summarizer`] interface, with zero padding
/// (the evaluation's setting).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dwt;

impl Summarizer for Dwt {
    fn name(&self) -> &'static str {
        "dwt"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SERIES
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        series_run(self.name(), view, bound, |series, c| {
            let a = dwt_for_size(series, c, Padding::Zero).map_err(BaselineError::into_core)?;
            Ok((a.segments, a.sse, SummaryDetail::Signal(a.approx)))
        })
    }
}

/// Discrete Fourier approximation (top energy frequencies) behind the
/// [`Summarizer`] interface. Sizes count retained frequencies (conjugate
/// pairs count once), capped at `n/2 + 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dft;

impl Summarizer for Dft {
    fn name(&self) -> &'static str {
        "dft"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SERIES
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        series_run(self.name(), view, bound, |series, c| {
            let c = match bound {
                // The error search probes sizes up to n; DFT's size
                // domain ends at n/2 + 1 frequencies.
                Bound::Error(_) => c.min(series.len() / 2 + 1),
                Bound::Size(_) => c,
            };
            let a = dft(series, c).map_err(BaselineError::into_core)?;
            Ok((a.frequencies, a.sse, SummaryDetail::Signal(a.approx)))
        })
    }
}

/// Chebyshev polynomial approximation behind the [`Summarizer`]
/// interface. Sizes count polynomial coefficients.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chebyshev;

impl Summarizer for Chebyshev {
    fn name(&self) -> &'static str {
        "chebyshev"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SERIES
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        series_run(self.name(), view, bound, |series, c| {
            let a = chebyshev(series, c).map_err(BaselineError::into_core)?;
            Ok((a.coefficients, a.sse, SummaryDetail::Signal(a.approx)))
        })
    }
}

/// Symbolic aggregate approximation behind the [`Summarizer`] interface,
/// scored through its numeric reconstruction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sax;

impl Sax {
    /// The common 8-symbol alphabet.
    const ALPHABET: usize = 8;
}

impl Summarizer for Sax {
    fn name(&self) -> &'static str {
        "sax"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SERIES
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        series_run(self.name(), view, bound, |series, c| {
            let out = sax(series, c, Self::ALPHABET).map_err(BaselineError::into_core)?;
            Ok((out.approx.segments(), out.sse, SummaryDetail::Steps(out.approx)))
        })
    }
}

/// Amnesic piecewise-constant approximation behind the [`Summarizer`]
/// interface, with unit weights (`RA ≡ 1`): Palpanas et al.'s
/// disabled-amnesia case, which coincides with exact size-bounded PTA
/// (pinned by `tests/summarizers.rs`). The reported SSE is the
/// *unweighted* error, comparable across methods.
#[derive(Debug, Clone, Copy, Default)]
pub struct Amnesic;

impl Summarizer for Amnesic {
    fn name(&self) -> &'static str {
        "amnesic"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SERIES
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        series_run(self.name(), view, bound, |series, c| {
            let pc = amnesic_size_bounded(series, c, |_| 1.0).map_err(BaselineError::into_core)?;
            Ok((pc.segments(), pc.sse_against(series), SummaryDetail::Steps(pc)))
        })
    }
}

/// The swing-filter piecewise-linear stream method behind the
/// [`Summarizer`] interface.
///
/// PLA's native knob is an L∞ tolerance, so both bounds are answered by
/// bisecting it: a size bound searches the smallest tolerance producing
/// at most `c` segments, an error bound the largest tolerance whose SSE
/// stays within the ε-budget (fewest segments that fit).
#[derive(Debug, Clone, Copy)]
pub struct Pla {
    bisection_steps: usize,
}

impl Default for Pla {
    fn default() -> Self {
        Self::new()
    }
}

impl Pla {
    /// PLA with the default tolerance-search resolution.
    pub fn new() -> Self {
        Self { bisection_steps: 50 }
    }

    /// The initial upper tolerance: the series' value spread (one line
    /// through the spread can absorb everything).
    fn top_epsilon(series: &DenseSeries) -> f64 {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in series.values() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (hi - lo).max(1e-12)
    }
}

impl Summarizer for Pla {
    fn name(&self) -> &'static str {
        "pla"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SERIES
    }

    fn run(&self, view: &SeriesView<'_>, bound: Bound) -> Result<Summary, CoreError> {
        let series = view.dense()?;
        let fit = |epsilon: f64| swing_filter(series, epsilon).map_err(BaselineError::into_core);
        let finish = |pla: crate::pla::PiecewiseLinear| {
            Ok(Summary {
                algorithm: self.name(),
                bound,
                size: pla.segments(),
                sse: pla.sse_against(series),
                wall: Duration::ZERO,
                shared_wall: false,
                stats: SummaryStats::None,
                detail: SummaryDetail::Signal(pla.to_dense()),
            })
        };
        match bound {
            Bound::Size(c) => {
                if c == 0 || c > series.len() {
                    return Err(CoreError::invalid_size(c, series.len()));
                }
                // Grow the tolerance until the budget holds, then bisect
                // down to the smallest tolerance that still holds.
                let mut hi = Self::top_epsilon(series);
                let mut grow = 0;
                while fit(hi)?.segments() > c {
                    hi *= 2.0;
                    grow += 1;
                    if grow > 64 {
                        return Err(CoreError::not_applicable(format!(
                            "swing filter cannot reach {c} segments"
                        )));
                    }
                }
                let mut lo = 0.0f64;
                for _ in 0..self.bisection_steps {
                    let mid = 0.5 * (lo + hi);
                    if fit(mid)?.segments() <= c {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                finish(fit(hi)?)
            }
            Bound::Error(eps) => {
                let budget = view.error_budget(eps)?;
                // Grow the tolerance while it stays within budget — one
                // O(n) swing-filter pass per doubling (the accepted
                // probe becomes the new hi; nothing is re-evaluated).
                let mut hi = Self::top_epsilon(series);
                if fit(hi)?.sse_against(series) <= budget {
                    for _ in 0..64 {
                        if fit(hi * 2.0)?.sse_against(series) > budget {
                            break;
                        }
                        hi *= 2.0;
                    }
                }
                let mut lo = 0.0f64;
                for _ in 0..self.bisection_steps {
                    let mid = 0.5 * (lo + hi);
                    if fit(mid)?.sse_against(series) <= budget {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                finish(fit(lo)?)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_core::Weights;
    use pta_temporal::SequentialRelation;

    fn series_relation() -> SequentialRelation {
        let values: Vec<f64> =
            (0..48).map(|i| ((i * 13) % 17) as f64 + (i / 12) as f64 * 5.0).collect();
        SequentialRelation::from_time_series(1, 0, &values).expect("valid series")
    }

    #[test]
    fn registry_names_are_unique_and_cover_the_evaluation() {
        let names = summarizer_names();
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate registry names: {names:?}");
        let expected = [
            "exact",
            "approx",
            "dp-naive",
            "greedy",
            "gms",
            "atc",
            "paa",
            "apca",
            "dwt",
            "dft",
            "chebyshev",
            "sax",
            "amnesic",
            "pla",
        ];
        assert_eq!(names.len(), expected.len(), "registry lists {names:?}");
        for expected in expected {
            assert!(summarizer(expected).is_some(), "missing {expected}");
        }
        // The pinned-backtracking copies of `exact` are not summarizers;
        // `DpOptions::with_mode` pins a mode on the free functions.
        for gone in ["exact-table", "exact-dnc", "nope"] {
            assert!(summarizer(gone).is_none(), "{gone}");
        }
    }

    #[test]
    fn every_summarizer_answers_a_size_bound_on_a_plain_series() {
        let rel = series_relation();
        let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
        for s in registry() {
            let out = s.summarize(&view, Bound::Size(6)).unwrap_or_else(|e| {
                panic!("{} failed on a plain series: {e}", s.name());
            });
            assert!(out.size <= 6, "{}: size {}", s.name(), out.size);
            assert!(out.sse.is_finite() && out.sse >= 0.0, "{}", s.name());
            assert_eq!(out.algorithm, s.name());
        }
    }

    #[test]
    fn every_summarizer_answers_an_error_bound_or_declares_it() {
        let rel = series_relation();
        let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
        let budget = view.error_budget(0.3).unwrap();
        for s in registry() {
            if !s.capabilities().error_bounded {
                assert!(s.summarize(&view, Bound::Error(0.3)).is_err(), "{}", s.name());
                continue;
            }
            // The contract: a summary that fits the budget, or an n/a
            // error (a method whose error floor exceeds the budget at
            // every size) — never a silent overshoot.
            match s.summarize(&view, Bound::Error(0.3)) {
                Ok(out) => {
                    assert!(out.sse <= budget, "{}: {} > {budget}", s.name(), out.sse)
                }
                Err(e) => assert!(
                    e.common().is_some_and(pta_temporal::CommonError::is_not_applicable),
                    "{}: {e}",
                    s.name()
                ),
            }
        }
    }

    #[test]
    fn unreachable_error_budgets_are_reported_not_overshot() {
        // A two-level step series: SAX's 8-symbol quantization cannot
        // represent arbitrary means, so a near-zero budget is
        // unreachable at every size — the adapter must say so.
        let values: Vec<f64> =
            (0..64).map(|i| if (i / 4) % 2 == 0 { 1.0 } else { 10.0 + (i % 3) as f64 }).collect();
        let rel = SequentialRelation::from_time_series(1, 0, &values).unwrap();
        let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
        let budget = view.error_budget(1e-9).unwrap();
        match Sax.summarize(&view, Bound::Error(1e-9)) {
            Ok(out) => assert!(out.sse <= budget, "silent overshoot: {} > {budget}", out.sse),
            Err(e) => {
                assert!(e.common().is_some_and(pta_temporal::CommonError::is_not_applicable), "{e}")
            }
        }
    }

    #[test]
    fn atc_size_bound_takes_the_best_run_at_most_c() {
        let rel = series_relation();
        let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
        let sweep = atc_sweep(&rel, &Weights::uniform(1), 8).unwrap();
        let s = Atc.summarize(&view, Bound::Size(10)).unwrap();
        let best = sweep.iter().take(10).flatten().map(|r| r.sse).fold(f64::INFINITY, f64::min);
        assert_eq!(s.sse, best);
        assert!(s.size <= 10);
        assert!(matches!(s.detail, SummaryDetail::Reduction(_)));
    }

    #[test]
    fn grid_points_match_single_runs_for_atc() {
        let rel = series_relation();
        let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
        let atc = Atc;
        let bounds = [Bound::Size(5), Bound::Size(12), Bound::Error(0.2)];
        let grid = atc.summarize_grid(&view, &bounds);
        for (b, g) in bounds.iter().zip(&grid) {
            let single = atc.summarize(&view, *b).unwrap();
            let g = g.as_ref().unwrap();
            assert_eq!(g.sse, single.sse, "{b:?}");
            assert_eq!(g.size, single.size, "{b:?}");
        }
    }

    #[test]
    fn atc_grid_and_single_agree_on_inputs_with_zero_error_neighbors() {
        // Equal adjacent values merge at every threshold (including 0),
        // so ATC can never emit size n here; the sweep's lossless anchor
        // is the real zero-threshold run, and single runs must reproduce
        // exactly what the grid reports for the same bound.
        let values = [5.0, 5.0, 3.0, 9.0, 1.0, 7.0, 7.0, 2.0];
        let rel = SequentialRelation::from_time_series(1, 0, &values).unwrap();
        let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
        let atc = Atc;
        let bound = Bound::Error(0.0);
        let single = atc.summarize(&view, bound).unwrap();
        let grid = atc.summarize_grid(&view, &[bound]);
        let grid = grid[0].as_ref().unwrap();
        assert_eq!(single.size, grid.size);
        assert_eq!(single.sse, grid.sse);
        // Both zero-error pairs merged: the lossless anchor has n-2 tuples.
        assert_eq!(single.size, rel.len() - 2);
        assert_eq!(single.sse, 0.0);
        assert!(matches!(single.detail, SummaryDetail::Reduction(_)));
    }

    #[test]
    fn pla_size_bound_respects_the_budget() {
        let rel = series_relation();
        let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
        for c in [2usize, 5, 10] {
            let s = Pla::new().summarize(&view, Bound::Size(c)).unwrap();
            assert!(s.size <= c, "c = {c}: got {} segments", s.size);
        }
    }

    #[test]
    fn series_methods_reject_grouped_input_as_not_applicable() {
        use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval, Value};
        let mut b = SequentialBuilder::new(1);
        b.push(GroupKey::new(vec![Value::str("A")]), TimeInterval::new(0, 3).unwrap(), &[1.0])
            .unwrap();
        b.push(GroupKey::new(vec![Value::str("B")]), TimeInterval::new(0, 3).unwrap(), &[2.0])
            .unwrap();
        let rel = b.build();
        let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
        for name in ["paa", "apca", "dwt", "dft", "chebyshev", "sax", "amnesic", "pla"] {
            let err = summarizer(name).unwrap().summarize(&view, Bound::Size(2)).unwrap_err();
            assert!(
                err.common().is_some_and(pta_temporal::CommonError::is_not_applicable),
                "{name}: {err}"
            );
            assert!(!summarizer(name).unwrap().capabilities().groups_and_gaps);
        }
        // The relation-level methods accept it.
        for name in ["exact", "approx", "greedy", "gms", "atc", "dp-naive"] {
            assert!(summarizer(name).unwrap().summarize(&view, Bound::Size(2)).is_ok(), "{name}");
            assert!(summarizer(name).unwrap().capabilities().groups_and_gaps);
        }
    }
}
