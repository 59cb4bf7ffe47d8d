//! The high-level PTA query builder.

use std::time::Duration;

use pta_core::{
    pta_error_bounded_with_opts, pta_size_bounded_with_opts, CancelToken, Delta, DpMode, DpOptions,
    DpStrategy, Estimates, GPtaC, GPtaE, GapPolicy, Reduction, Weights,
};
use pta_ita::{ItaQuerySpec, StreamingIta};
use pta_temporal::TemporalRelation;

use crate::convert::to_temporal_relation_over;
use crate::error::Error;

/// The reduction bound of a PTA query (re-exported from `pta-core`, where
/// it doubles as the bound of the unified [`pta_core::Summarizer`]
/// interface): either a maximal result size (Def. 6) or a maximal
/// relative error (Def. 7).
pub use pta_core::Bound;

/// Which evaluation algorithm executes the reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Exact dynamic programming (`PTAc`/`PTAε`, §5).
    Exact,
    /// Streaming greedy merging (`gPTAc`/`gPTAε`, §6) with read-ahead δ.
    Greedy {
        /// The read-ahead parameter; `Delta::Finite(1)` is the paper's
        /// recommended setting.
        delta: Delta,
    },
}

/// Per-run statistics of the executed algorithm.
#[derive(Debug, Clone)]
pub enum ExecutionStats {
    /// DP work counters.
    Exact(pta_core::DpStats),
    /// Greedy counters (heap size, merges, ...).
    Greedy(pta_core::GreedyStats),
}

/// The result of a PTA query.
#[derive(Debug, Clone)]
pub struct PtaOutput {
    /// The result as a displayable relation `(A..., B..., T)`.
    pub table: TemporalRelation,
    /// The reduction: reduced sequential relation, provenance, SSE.
    pub reduction: Reduction,
    /// The intermediate ITA result size `n`.
    pub ita_size: usize,
    /// Algorithm counters.
    pub stats: ExecutionStats,
}

/// Builder for parsimonious temporal aggregation queries.
///
/// ```
/// use pta::{Agg, Bound, PtaQuery};
/// use pta_datasets::proj_relation;
///
/// let out = PtaQuery::new()
///     .group_by(&["Proj"])
///     .aggregate(Agg::avg("Sal").as_output("AvgSal"))
///     .bound(Bound::Size(4))
///     .execute(&proj_relation())
///     .unwrap();
/// assert_eq!(out.reduction.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PtaQuery {
    pub(crate) grouping: Vec<String>,
    pub(crate) aggregates: Vec<pta_ita::AggregateSpec>,
    pub(crate) weights: Option<Vec<f64>>,
    pub(crate) bound: Option<Bound>,
    pub(crate) algorithm: Algorithm,
    pub(crate) estimates: Option<Estimates>,
    pub(crate) policy: GapPolicy,
    pub(crate) dp_mode: DpMode,
    pub(crate) dp_strategy: DpStrategy,
    pub(crate) threads: usize,
    pub(crate) deadline: Option<Duration>,
    pub(crate) cancel: CancelToken,
}

impl Default for PtaQuery {
    fn default() -> Self {
        Self::new()
    }
}

impl PtaQuery {
    /// Creates an empty query (exact algorithm by default).
    pub fn new() -> Self {
        Self {
            grouping: Vec::new(),
            aggregates: Vec::new(),
            weights: None,
            bound: None,
            algorithm: Algorithm::Exact,
            estimates: None,
            policy: GapPolicy::Strict,
            dp_mode: DpMode::Auto,
            dp_strategy: DpStrategy::Auto,
            threads: 0,
            deadline: None,
            cancel: CancelToken::inert(),
        }
    }

    /// Sets the grouping attributes `A`.
    #[must_use]
    pub fn group_by(mut self, attrs: &[&str]) -> Self {
        self.grouping = attrs.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Adds an aggregate function `f/B`.
    #[must_use]
    pub fn aggregate(mut self, spec: pta_ita::AggregateSpec) -> Self {
        self.aggregates.push(spec);
        self
    }

    /// Sets per-dimension SSE weights (defaults to 1 everywhere).
    #[must_use]
    pub fn weights(mut self, weights: &[f64]) -> Self {
        self.weights = Some(weights.to_vec());
        self
    }

    /// Sets the reduction bound.
    #[must_use]
    pub fn bound(mut self, bound: Bound) -> Self {
        self.bound = Some(bound);
        self
    }

    /// Selects the evaluation algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the mergeability policy. [`GapPolicy::Tolerate`] enables the
    /// paper's §8 future-work extension: tuples separated by holes up to
    /// `max_gap` chronons may merge.
    #[must_use]
    pub fn gap_policy(mut self, policy: GapPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets how exact DP execution recovers split points — the opt-in
    /// memory knob. The default, [`DpMode::Auto`], materializes the
    /// `O(n·c)` split-point table only while it fits the built-in budget
    /// and switches to `O(n)`-memory divide-and-conquer backtracking
    /// beyond it; [`DpMode::Budget`] substitutes an explicit entry budget.
    /// No input size fails either way.
    #[must_use]
    pub fn dp_mode(mut self, mode: DpMode) -> Self {
        self.dp_mode = mode;
        self
    }

    /// Sets how exact DP execution minimizes each row — the Monge knob.
    /// The default, [`DpStrategy::Auto`], runs SMAWK row minimization on
    /// wide gap-free windows whose values are provably Monge (monotone in
    /// every dimension — trends, ramps, plateaus) and the paper's pruned
    /// scan everywhere else; [`DpStrategy::Scan`] pins the scan,
    /// [`DpStrategy::Monge`] extends the Monge engines to narrow
    /// certified windows too. Every one of those strategies returns the
    /// identical optimal reduction. [`DpStrategy::Approx`] instead trades
    /// exactness for speed with a certificate: the sparsified DP returns
    /// a reduction whose SSE is proven within `(1 + ε)` of the optimum,
    /// and the ratio it actually achieved is reported in
    /// `DpStats::certified_ratio` on the result's summary.
    #[must_use]
    pub fn dp_strategy(mut self, strategy: DpStrategy) -> Self {
        self.dp_strategy = strategy;
        self
    }

    /// Sets the thread budget for exact DP row fills (`0`, the default,
    /// resolves to `PTA_THREADS` or the machine's parallelism; `1` pins
    /// fully sequential execution). Results are bit-identical at every
    /// budget — the parallel fill computes exactly the sequential cell
    /// values. The streaming greedy algorithms are inherently sequential
    /// (they merge while ITA tuples arrive) and ignore this knob.
    ///
    /// Like every builder method, the returned query must be used —
    /// dropping it silently discards the configuration:
    ///
    /// ```compile_fail
    /// #![deny(unused_must_use)]
    /// let q = pta::PtaQuery::new();
    /// q.threads(1); // ERROR: unused return value of `threads`
    /// ```
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Bounds the reduction's wall time: execution past the deadline
    /// aborts with the typed [`pta_core::CoreError::DeadlineExceeded`]
    /// (carrying the partial-progress counters) instead of running to
    /// completion. The deadline covers the reduction itself; the ITA
    /// front half is linear in the input and not interrupted.
    #[must_use]
    pub fn deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(timeout);
        self
    }

    /// Attaches an externally cancellable token:
    /// [`CancelToken::cancel`] from any thread aborts the reduction with
    /// [`pta_core::CoreError::Cancelled`]. Composes with
    /// [`PtaQuery::deadline`] — whichever fires first wins.
    #[must_use]
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The effective token of one execution: the caller's token, bounded
    /// by the configured deadline counted from now.
    pub(crate) fn effective_cancel(&self) -> CancelToken {
        match self.deadline {
            Some(timeout) => self.cancel.with_deadline_in(timeout),
            None => self.cancel.clone(),
        }
    }

    /// Supplies `(n̂, Ê_max)` estimates for greedy error-bounded
    /// execution, in place of the exact `n` and `E_max`.
    ///
    /// Greedy error-bounded execution always materializes the ITA result
    /// once and runs gPTAε over it; without estimates it takes the exact
    /// values from that result, as the paper's δ experiments do (§7.2.2).
    /// The query therefore holds all `n` ITA tuples either way. Supplying
    /// [`Estimates::exact`] of the ITA result returns the reduction the
    /// default does, bit for bit. A caller that must not hold the ITA
    /// result streams it instead: [`pta_ita::StreamingIta`] rows pushed
    /// into [`GPtaE::with_policy`] give the same reduction too.
    #[must_use]
    pub fn estimates(mut self, estimates: Estimates) -> Self {
        self.estimates = Some(estimates);
        self
    }

    /// The ITA query specification — the "front half" every execution
    /// path (PTA itself and the [`crate::Comparator`]) shares.
    pub(crate) fn ita_spec(&self) -> Result<ItaQuerySpec, Error> {
        if self.aggregates.is_empty() {
            return Err(Error::InvalidQuery("no aggregate functions listed".into()));
        }
        Ok(ItaQuerySpec { grouping: self.grouping.clone(), aggregates: self.aggregates.clone() })
    }

    /// Resolves the SSE weights against a `p`-dimensional input
    /// (defaulting to uniform weights) — shared with the comparator.
    pub(crate) fn resolved_weights(&self, p: usize) -> Result<Weights, Error> {
        let weights = match &self.weights {
            Some(w) => Weights::new(w)?,
            None => Weights::uniform(p),
        };
        if weights.dims() != p {
            return Err(Error::InvalidQuery(format!(
                "{} weights for {p} aggregate dimensions",
                weights.dims()
            )));
        }
        Ok(weights)
    }

    /// Executes the query: ITA over `relation`, then the bounded
    /// reduction.
    pub fn execute(&self, relation: &TemporalRelation) -> Result<PtaOutput, Error> {
        let bound =
            self.bound.ok_or_else(|| Error::InvalidQuery("no size or error bound set".into()))?;
        let spec = self.ita_spec()?;
        let weights = self.resolved_weights(self.aggregates.len())?;
        let cancel = self.effective_cancel();

        let (reduction, ita_size, stats) = match self.algorithm {
            Algorithm::Exact => {
                let seq = pta_ita::ita(relation, &spec)?;
                let n = seq.len();
                let opts = DpOptions::default()
                    .with_policy(self.policy)
                    .with_mode(self.dp_mode)
                    .with_strategy(self.dp_strategy)
                    .with_threads(self.threads)
                    .with_cancel(cancel);
                let out = match bound {
                    Bound::Size(c) => pta_size_bounded_with_opts(&seq, &weights, c, opts)?,
                    Bound::Error(e) => pta_error_bounded_with_opts(&seq, &weights, e, opts)?,
                };
                (out.reduction, n, ExecutionStats::Exact(out.stats))
            }
            Algorithm::Greedy { delta } => match bound {
                Bound::Size(c) => {
                    let stream = StreamingIta::new(relation, &spec)?;
                    let mut alg = GPtaC::with_policy(weights.clone(), c, delta, self.policy)
                        .with_cancel(cancel);
                    for row in stream {
                        alg.push(&row.key, row.interval, &row.values)?;
                    }
                    let out = alg.finish()?;
                    if out.stats.clamped_to_cmin {
                        return Err(Error::Core(pta_core::CoreError::SizeBelowMinimum {
                            requested: c,
                            cmin: out.reduction.len(),
                        }));
                    }
                    (out.reduction, out.stats.tuples_in, ExecutionStats::Greedy(out.stats))
                }
                Bound::Error(eps) => {
                    // gPTAε runs over the materialized ITA result, which
                    // also yields the exact estimates when none are
                    // supplied (as in the paper's δ experiments, §7.2.2).
                    let seq = pta_ita::ita(relation, &spec)?;
                    let (est, policy) = (self.estimates, self.policy);
                    let out = GPtaE::run(&seq, &weights, eps, delta, est, policy, cancel)?;
                    (out.reduction, out.stats.tuples_in, ExecutionStats::Greedy(out.stats))
                }
            },
        };

        let group_names: Vec<&str> = self.grouping.iter().map(String::as_str).collect();
        let value_names: Vec<&str> = self.aggregates.iter().map(|a| a.output.as_str()).collect();
        let table = to_temporal_relation_over(
            relation.schema(),
            reduction.relation(),
            &group_names,
            &value_names,
        )?;
        Ok(PtaOutput { table, reduction, ita_size, stats })
    }
}

/// Runs plain ITA and renders the result table — the "step 1" of PTA,
/// exposed for comparison and display.
pub fn ita_table(
    relation: &TemporalRelation,
    grouping: &[&str],
    aggregates: Vec<pta_ita::AggregateSpec>,
) -> Result<TemporalRelation, Error> {
    let value_names: Vec<String> = aggregates.iter().map(|a| a.output.clone()).collect();
    let spec = ItaQuerySpec::new(grouping, aggregates);
    let seq = pta_ita::ita(relation, &spec)?;
    let names: Vec<&str> = value_names.iter().map(String::as_str).collect();
    to_temporal_relation_over(relation.schema(), &seq, grouping, &names)
}

/// Runs moving-window temporal aggregation and renders the result table.
pub fn mwta_table(
    relation: &TemporalRelation,
    grouping: &[&str],
    aggregates: Vec<pta_ita::AggregateSpec>,
    window: pta_ita::Window,
) -> Result<TemporalRelation, Error> {
    let value_names: Vec<String> = aggregates.iter().map(|a| a.output.clone()).collect();
    let spec = ItaQuerySpec::new(grouping, aggregates);
    let seq = pta_ita::mwta(relation, &spec, window)?;
    let names: Vec<&str> = value_names.iter().map(String::as_str).collect();
    to_temporal_relation_over(relation.schema(), &seq, grouping, &names)
}

/// Runs STA and renders the result table (Fig. 1(b)-style queries).
pub fn sta_table(
    relation: &TemporalRelation,
    grouping: &[&str],
    aggregates: Vec<pta_ita::AggregateSpec>,
    spans: &pta_ita::SpanSpec,
) -> Result<TemporalRelation, Error> {
    let value_names: Vec<String> = aggregates.iter().map(|a| a.output.clone()).collect();
    let seq = pta_ita::sta(relation, grouping, &aggregates, spans)?;
    let names: Vec<&str> = value_names.iter().map(String::as_str).collect();
    to_temporal_relation_over(relation.schema(), &seq, grouping, &names)
}
