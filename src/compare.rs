//! The one-call §7 comparison: run any set of summarizers over one input
//! and one bound grid.
//!
//! [`Comparator`] reuses the [`PtaQuery`] front half — grouping,
//! aggregates, SSE weights, gap policy — to run ITA *once*, densify the
//! result *once* (via [`pta_core::SeriesView`]), and execute every
//! selected [`Summarizer`] across the grid. The result is a
//! [`Comparison`]: per-algorithm error/size/time curves, exactly the data
//! behind the paper's Figs. 2 and 14–19.
//!
//! ```
//! use pta::{Agg, Comparator};
//! use pta_datasets::proj_relation;
//!
//! let comparison = Comparator::new()
//!     .group_by(&["Proj"])
//!     .aggregate(Agg::avg("Sal").as_output("AvgSal"))
//!     .methods(&["exact", "greedy", "atc"])
//!     .unwrap()
//!     .sizes([4, 5, 6])
//!     .run(&proj_relation())
//!     .unwrap();
//! let exact = comparison.method("exact").unwrap();
//! let greedy = comparison.method("greedy").unwrap();
//! for i in 0..comparison.bounds.len() {
//!     assert!(exact.sse_at(i) <= greedy.sse_at(i) + 1e-9);
//! }
//! ```

use std::fmt;
use std::time::Duration;

use pta_baselines::summarize::summarizer;
use pta_core::{Bound, BoxedSummarizer, CoreError, GapPolicy, SeriesView, Summary};
use pta_failpoints::fail_point;
use pta_pool::Pool;
use pta_temporal::{SequentialRelation, TemporalRelation};

use crate::error::Error;
use crate::query::PtaQuery;

/// The bound grid of a comparison, kept symbolic until the input size is
/// known.
#[derive(Debug, Clone)]
enum Grid {
    /// Explicit bounds.
    Bounds(Vec<Bound>),
    /// Reduction ratios in percent (Fig. 14's axis): ratio `r` maps to
    /// the size `n − r/100 · (n − cmin)`, clamped to `[max(cmin, 1), n]`.
    Ratios(Vec<f64>),
}

/// Builder for §7-style comparisons: ITA once, then every selected
/// summarizer across one bound grid. `examples/compare_approximations.rs`
/// runs one end to end.
pub struct Comparator {
    query: PtaQuery,
    methods: Vec<BoxedSummarizer>,
    grid: Grid,
    threads: usize,
    method_timeout: Option<Duration>,
}

impl fmt::Debug for Comparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Comparator")
            .field("query", &self.query)
            .field("methods", &self.methods.iter().map(|m| m.name()).collect::<Vec<_>>())
            .field("grid", &self.grid)
            .finish()
    }
}

impl Default for Comparator {
    fn default() -> Self {
        Self::new()
    }
}

impl Comparator {
    /// An empty comparator: no methods, no bounds.
    pub fn new() -> Self {
        Self::from_query(PtaQuery::new())
    }

    /// Reuses an existing query's front half (grouping, aggregates,
    /// weights, gap policy); its bound/algorithm settings are ignored —
    /// the comparator's methods and grid replace them.
    pub fn from_query(query: PtaQuery) -> Self {
        Self {
            query,
            methods: Vec::new(),
            grid: Grid::Bounds(Vec::new()),
            threads: 0,
            method_timeout: None,
        }
    }

    /// Bounds each method's wall time: a method still running `timeout`
    /// after it starts aborts with the typed
    /// [`CoreError::DeadlineExceeded`] in its curve cells, and the
    /// comparison completes with every other method's results intact —
    /// one slow method cannot hold the whole evaluation hostage. The
    /// clock starts when the method starts executing (not when the run
    /// is submitted), so queuing behind other methods on a small thread
    /// budget does not consume the budget.
    ///
    /// This is the opposite convention from the service tier: `pta-serve`
    /// anchors a request's `timeout_ms` budget at **enqueue**, so time
    /// spent waiting in its admission queue *is* charged (an overloaded
    /// server sheds stale requests with `deadline-exceeded` instead of
    /// burning workers on answers nobody is waiting for). Here the fan-out
    /// is a finite batch owned by one caller — queue wait is an artifact
    /// of the chosen thread budget, not of load, so charging it would just
    /// make small budgets time out spuriously.
    #[must_use]
    pub fn method_timeout(mut self, timeout: Duration) -> Self {
        self.method_timeout = Some(timeout);
        self
    }

    /// Sets the thread budget for the method fan-out (`0` = the process
    /// default, `PTA_THREADS`; `1` = fully sequential). Each method still
    /// runs its whole grid on one worker, so curve-sharing fast paths and
    /// per-call wall times are untouched — only *methods* run
    /// concurrently.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the grouping attributes `A`.
    #[must_use]
    pub fn group_by(mut self, attrs: &[&str]) -> Self {
        self.query = self.query.group_by(attrs);
        self
    }

    /// Adds an aggregate function `f/B`.
    #[must_use]
    pub fn aggregate(mut self, spec: pta_ita::AggregateSpec) -> Self {
        self.query = self.query.aggregate(spec);
        self
    }

    /// Sets per-dimension SSE weights (defaults to 1 everywhere).
    #[must_use]
    pub fn weights(mut self, weights: &[f64]) -> Self {
        self.query = self.query.weights(weights);
        self
    }

    /// Sets the mergeability policy for every policy-aware summarizer.
    #[must_use]
    pub fn gap_policy(mut self, policy: GapPolicy) -> Self {
        self.query = self.query.gap_policy(policy);
        self
    }

    /// Adds a summarizer by registry name (`exact`, `greedy`, `gms`,
    /// `atc`, `paa`, `apca`, `dwt`, `dft`, `chebyshev`, `sax`,
    /// `amnesic`, `pla`, ...).
    pub fn method(mut self, name: &str) -> Result<Self, Error> {
        let s = summarizer(name).ok_or_else(|| {
            Error::InvalidQuery(format!(
                "unknown summarizer {name:?}; known: {}",
                pta_baselines::summarizer_names().join(", ")
            ))
        })?;
        self.methods.push(s);
        Ok(self)
    }

    /// Adds several summarizers by registry name.
    pub fn methods(mut self, names: &[&str]) -> Result<Self, Error> {
        for name in names {
            self = self.method(name)?;
        }
        Ok(self)
    }

    /// Adds every summarizer in the registry. Methods a given input is
    /// not applicable for report per-point errors instead of failing the
    /// comparison.
    #[must_use]
    pub fn all_methods(mut self) -> Self {
        self.methods.extend(pta_baselines::registry());
        self
    }

    /// Adds a custom summarizer (any [`pta_core::Summarizer`]
    /// implementation — the one-trait-impl extension point for new
    /// algorithms).
    #[must_use]
    pub fn summarizer(mut self, s: BoxedSummarizer) -> Self {
        self.methods.push(s);
        self
    }

    /// Sets an explicit bound grid.
    #[must_use]
    pub fn bounds(mut self, bounds: impl IntoIterator<Item = Bound>) -> Self {
        self.grid = Grid::Bounds(bounds.into_iter().collect());
        self
    }

    /// Sets a size-bound grid.
    pub fn sizes(self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.bounds(sizes.into_iter().map(Bound::Size))
    }

    /// Sets an error-bound grid (ε values in `[0, 1]`).
    pub fn errors(self, epsilons: impl IntoIterator<Item = f64>) -> Self {
        self.bounds(epsilons.into_iter().map(Bound::Error))
    }

    /// Sets a reduction-ratio grid (percent, Fig. 14's axis): ratio `r`
    /// resolves to the size bound `n − r/100 · (n − cmin)` once the input
    /// size is known; 100 % reduction is `cmin`.
    #[must_use]
    pub fn reduction_ratios(mut self, ratios_pct: impl IntoIterator<Item = f64>) -> Self {
        self.grid = Grid::Ratios(ratios_pct.into_iter().collect());
        self
    }

    /// Runs the comparison end to end: ITA over `relation` (once), then
    /// every method over the grid.
    pub fn run(&self, relation: &TemporalRelation) -> Result<Comparison, Error> {
        let spec = self.query.ita_spec()?;
        let seq = pta_ita::ita(relation, &spec)?;
        self.run_sequential(&seq)
    }

    /// Runs the comparison on an existing sequential relation (an ITA
    /// result or a raw time series), skipping the aggregation step —
    /// what the figure harnesses use on prepared inputs.
    ///
    /// The shared front half (the view, its `cmin`/`E_max` caches, the
    /// grid resolution) runs once on the calling thread; the methods
    /// then fan out across the comparator's thread budget, one worker
    /// per method. Timing stays honest under the fan-out: every
    /// [`Summary::wall`] is stamped on the worker that ran that call, so
    /// it measures the method's own compute exactly as in a sequential
    /// run, and `shared_wall` keeps meaning "this wall covers the whole
    /// grid, not one point" — concurrency never leaks into either.
    ///
    /// The fan-out is fault-isolated: a summarizer that panics degrades
    /// to [`CoreError::Panic`] cells in its own curve, and one that
    /// overruns [`Comparator::method_timeout`] to
    /// [`CoreError::DeadlineExceeded`] cells — the comparison itself
    /// always completes with every well-behaved method's results intact.
    pub fn run_sequential(&self, input: &SequentialRelation) -> Result<Comparison, Error> {
        if self.methods.is_empty() {
            return Err(Error::InvalidQuery("no summarizers selected".into()));
        }
        let weights = self.query.resolved_weights(input.dims())?;
        let view = SeriesView::with_policy(input, weights, self.query.policy)?;
        let (bounds, ratios) = self.resolve_grid(&view)?;
        // Resolve the shared caches before the fan-out so no worker
        // pays for (or races to compute) them inside its timed region.
        let emax = view.emax()?;
        let cmin = view.cmin();
        let base_cancel = self.query.effective_cancel();
        let (view_ref, bounds_ref, cancel_ref, timeout) =
            (&view, &bounds, &base_cancel, self.method_timeout);
        // `try_map` isolates panics per method: a crashing summarizer
        // degrades to typed `CoreError::Panic` cells in its own curve
        // while every sibling's results survive.
        let outcomes = Pool::new(self.threads).try_map(self.methods.iter().collect(), |m| {
            fail_point!(format!("comparator.method.{}", m.name()));
            // The per-method deadline counts from here — the method's own
            // start on its worker — so a timeout budgets compute, not
            // queueing.
            let method_view = match timeout {
                Some(t) => view_ref.with_cancel(cancel_ref.with_deadline_in(t)),
                None => view_ref.with_cancel(cancel_ref.clone()),
            };
            MethodCurve { name: m.name(), points: m.summarize_grid(&method_view, bounds_ref) }
        });
        let methods = outcomes
            .into_iter()
            .zip(&self.methods)
            .map(|(outcome, m)| {
                outcome.unwrap_or_else(|panic| MethodCurve {
                    name: m.name(),
                    points: bounds
                        .iter()
                        .map(|_| Err(CoreError::Panic { message: panic.message.clone() }))
                        .collect(),
                })
            })
            .collect();
        Ok(Comparison { n: view.len(), cmin, emax, bounds, ratios, methods })
    }

    fn resolve_grid(&self, view: &SeriesView<'_>) -> Result<(Vec<Bound>, Option<Vec<f64>>), Error> {
        match &self.grid {
            Grid::Bounds(b) if b.is_empty() => {
                Err(Error::InvalidQuery("no bounds set (sizes/errors/reduction_ratios)".into()))
            }
            Grid::Bounds(b) => {
                // Validate up front: an out-of-range ε would otherwise
                // fail on *every* method and masquerade as a grid of
                // legitimate "n/a" cells in a successful run.
                for bound in b {
                    if let Bound::Error(eps) = bound {
                        if !(0.0..=1.0).contains(eps) {
                            return Err(Error::InvalidQuery(format!(
                                "error bound must lie in [0, 1], got {eps}"
                            )));
                        }
                    }
                }
                Ok((b.clone(), None))
            }
            Grid::Ratios(r) if r.is_empty() => {
                Err(Error::InvalidQuery("no reduction ratios listed".into()))
            }
            Grid::Ratios(r) => {
                if let Some(bad) = r.iter().find(|ratio| !ratio.is_finite()) {
                    return Err(Error::InvalidQuery(format!(
                        "reduction ratios must be finite, got {bad}"
                    )));
                }
                let (n, cmin) = (view.len(), view.cmin());
                if n == 0 {
                    return Err(Error::InvalidQuery(
                        "cannot resolve reduction ratios against an empty input".into(),
                    ));
                }
                let span = (n - cmin) as f64;
                let bounds = r
                    .iter()
                    .map(|ratio| {
                        let k = (n as f64 - ratio / 100.0 * span).round() as usize;
                        Bound::Size(k.clamp(cmin.max(1), n))
                    })
                    .collect();
                Ok((bounds, Some(r.clone())))
            }
        }
    }
}

/// One algorithm's curve over the comparison grid.
#[derive(Debug, Clone)]
pub struct MethodCurve {
    /// The summarizer's registry name.
    pub name: &'static str,
    /// One result per grid bound, in grid order. Errors mark the paper's
    /// "n/a" cells (method not applicable, size below `cmin`, ...).
    pub points: Vec<Result<Summary, CoreError>>,
}

impl MethodCurve {
    /// The summary at grid index `i`, if that point succeeded.
    pub fn summary_at(&self, i: usize) -> Option<&Summary> {
        self.points.get(i).and_then(|p| p.as_ref().ok())
    }

    /// The SSE at grid index `i`; `∞` for failed/absent points (so
    /// ratio/percent arithmetic naturally skips them).
    pub fn sse_at(&self, i: usize) -> f64 {
        self.summary_at(i).map_or(f64::INFINITY, |s| s.sse)
    }

    /// The achieved size at grid index `i` (0 for failed points).
    pub fn size_at(&self, i: usize) -> usize {
        self.summary_at(i).map_or(0, |s| s.size)
    }

    /// The wall time at grid index `i`.
    pub fn wall_at(&self, i: usize) -> Option<Duration> {
        self.summary_at(i).map(|s| s.wall)
    }

    /// All SSEs in grid order (`∞` for failed points).
    pub fn sses(&self) -> Vec<f64> {
        (0..self.points.len()).map(|i| self.sse_at(i)).collect()
    }
}

/// The result of a [`Comparator`] run: per-algorithm error/size/time
/// curves over one shared input and bound grid.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Input size `n` (tuples of the sequential relation).
    pub n: usize,
    /// Smallest reachable size under the comparison's gap policy.
    pub cmin: usize,
    /// The maximal reduction error `E_max` — the normalizer of
    /// [`Comparison::error_pct`]. Computed once per run (one `O(n)` pass
    /// over the shared view, small next to any summarizer execution) so
    /// error-percent axes work on size grids too.
    pub emax: f64,
    /// The resolved bound grid, in evaluation order.
    pub bounds: Vec<Bound>,
    /// The reduction ratios the grid was derived from, when
    /// [`Comparator::reduction_ratios`] was used (aligned with
    /// [`Comparison::bounds`]).
    pub ratios: Option<Vec<f64>>,
    /// One curve per selected method, in selection order.
    pub methods: Vec<MethodCurve>,
}

impl Comparison {
    /// The curve of the method with this registry name.
    pub fn method(&self, name: &str) -> Option<&MethodCurve> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// An SSE as a percentage of `E_max` (Fig. 14/15's y-axis); 0 when
    /// `E_max` is 0.
    pub fn error_pct(&self, sse: f64) -> f64 {
        if self.emax > 0.0 {
            100.0 * sse / self.emax
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Agg;
    use pta_datasets::proj_relation;

    #[test]
    fn comparator_runs_the_running_example() {
        let cmp = Comparator::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .methods(&["exact", "greedy", "atc"])
            .unwrap()
            .sizes([4usize, 5, 6])
            .run(&proj_relation())
            .unwrap();
        assert_eq!(cmp.n, 7);
        assert_eq!(cmp.bounds.len(), 3);
        let exact = cmp.method("exact").unwrap();
        // Fig. 1(d): the optimal 4-tuple reduction has SSE 49 166.67.
        assert!((exact.sse_at(0) - 49_166.67).abs() < 1.0);
        for i in 0..3 {
            assert!(cmp.method("greedy").unwrap().sse_at(i) >= exact.sse_at(i) - 1e-9);
            assert!(cmp.method("atc").unwrap().sse_at(i) >= exact.sse_at(i) - 1e-9);
        }
    }

    #[test]
    fn ratio_grid_resolves_against_n_and_cmin() {
        let cmp = Comparator::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .method("exact")
            .unwrap()
            .reduction_ratios([0.0, 50.0, 100.0])
            .run(&proj_relation())
            .unwrap();
        assert_eq!(cmp.ratios.as_deref(), Some(&[0.0, 50.0, 100.0][..]));
        // 0 % keeps everything, 100 % reduces to cmin.
        assert_eq!(cmp.bounds[0], Bound::Size(cmp.n));
        assert_eq!(cmp.bounds[2], Bound::Size(cmp.cmin));
        let exact = cmp.method("exact").unwrap();
        assert_eq!(exact.sse_at(0), 0.0);
        assert!((cmp.error_pct(exact.sse_at(2)) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn unknown_method_and_empty_grid_are_invalid_queries() {
        assert!(Comparator::new().method("nope").is_err());
        let err = Comparator::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .method("exact")
            .unwrap()
            .run(&proj_relation())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidQuery(_)));
        let err = Comparator::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .sizes([4usize])
            .run(&proj_relation())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidQuery(_)));
    }

    #[test]
    fn out_of_range_bounds_fail_the_run_instead_of_masquerading_as_na() {
        let err = Comparator::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .method("exact")
            .unwrap()
            .errors([1.5])
            .run(&proj_relation())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
        let err = Comparator::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .method("exact")
            .unwrap()
            .reduction_ratios([f64::NAN])
            .run(&proj_relation())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
    }

    #[test]
    fn ratio_grid_on_empty_input_is_an_invalid_query_not_a_panic() {
        let empty = pta_temporal::SequentialRelation::empty(1);
        let err = Comparator::new()
            .method("exact")
            .unwrap()
            .reduction_ratios([50.0])
            .run_sequential(&empty)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
    }

    /// The fan-out changes scheduling only: every method's curve —
    /// SSEs, sizes, point errors, `shared_wall` flags, method order —
    /// is identical under any thread budget, and walls stay per-call
    /// (non-zero where work happened, zero where `run` was never timed).
    #[test]
    fn fan_out_matches_sequential_run() {
        let build = |threads: usize| {
            Comparator::new()
                .group_by(&["Proj"])
                .aggregate(Agg::avg("Sal").as_output("AvgSal"))
                .all_methods()
                .threads(threads)
                .sizes([3usize, 4, 5, 6])
                .run(&proj_relation())
                .unwrap()
        };
        let seq = build(1);
        for threads in [2, 4, 8] {
            let par = build(threads);
            assert_eq!(par.n, seq.n);
            assert_eq!(par.cmin, seq.cmin);
            assert_eq!(par.emax.to_bits(), seq.emax.to_bits());
            assert_eq!(par.bounds, seq.bounds);
            assert_eq!(par.methods.len(), seq.methods.len());
            for (p, s) in par.methods.iter().zip(&seq.methods) {
                assert_eq!(p.name, s.name, "method order must be selection order");
                assert_eq!(p.points.len(), s.points.len());
                for i in 0..p.points.len() {
                    assert_eq!(p.sse_at(i).to_bits(), s.sse_at(i).to_bits(), "{} @ {i}", p.name);
                    assert_eq!(p.size_at(i), s.size_at(i), "{} @ {i}", p.name);
                    assert_eq!(p.points[i].is_err(), s.points[i].is_err(), "{} @ {i}", p.name);
                    let (pw, sw) = (p.summary_at(i), s.summary_at(i));
                    assert_eq!(
                        pw.map(|x| x.shared_wall),
                        sw.map(|x| x.shared_wall),
                        "{} @ {i}: shared_wall is a property of the method, not the schedule",
                        p.name
                    );
                }
            }
        }
    }

    /// An already-expired method deadline degrades every point of every
    /// deadline-aware method to typed cells — and the comparison still
    /// completes rather than erroring out.
    #[test]
    fn expired_method_timeout_degrades_points_to_typed_deadline_cells() {
        let cmp = Comparator::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .methods(&["exact", "greedy"])
            .unwrap()
            .sizes([4usize, 5])
            .method_timeout(Duration::ZERO)
            .run(&proj_relation())
            .unwrap();
        assert_eq!(cmp.bounds.len(), 2);
        for curve in &cmp.methods {
            for (i, point) in curve.points.iter().enumerate() {
                assert!(
                    matches!(point, Err(CoreError::DeadlineExceeded { .. })),
                    "{} @ {i}: expected a deadline cell, got {point:?}",
                    curve.name
                );
            }
        }
    }

    #[test]
    fn not_applicable_methods_report_na_points_not_failures() {
        // proj has two groups: the series methods are n/a, the
        // relation-level methods run.
        let cmp = Comparator::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .all_methods()
            .sizes([4usize])
            .run(&proj_relation())
            .unwrap();
        assert!(cmp.methods.len() >= 11);
        let paa = cmp.method("paa").unwrap();
        assert!(paa.points[0].is_err());
        assert_eq!(paa.sse_at(0), f64::INFINITY);
        assert!(cmp.method("exact").unwrap().points[0].is_ok());
    }
}
