//! Parsimonious temporal aggregation (PTA) — the core algorithms.
//!
//! PTA (Gordevičius, Gamper, Böhlen) reduces the result of instant
//! temporal aggregation by merging *adjacent* tuples — same aggregation
//! group, no temporal gap — until a user bound is met, minimizing the
//! introduced sum-squared error:
//!
//! * **size-bounded**: at most `c` output tuples, minimal SSE (Def. 6);
//! * **error-bounded**: SSE at most `ε · SSE_max`, minimal size (Def. 7).
//!
//! Two evaluation families are provided:
//!
//! * **Exact dynamic programming** ([`dp`]): `PTAc` and `PTAε`. The
//!   §5 optimizations (constant-time range SSE, gap pruning, early
//!   break) make it near-linear on data with gaps/groups. On gap-free
//!   data the plain scan is `O(n²cp)`. SMAWK row minimization
//!   ([`DpStrategy`]) brings that to `O(n·c·p)` on runs whose values are
//!   monotone in every dimension, the only stretches where the SSE
//!   provably satisfies the quadrangle inequality (on unsorted data it
//!   fails: the series `0, 1, 0` violates it), so every other window
//!   keeps the exact scan. The certified `DpStrategy::Approx(ε)` tier
//!   covers unsorted gap-free data within `(1 + ε)` of the optimum.
//!   Split points come from a materialized
//!   `O(n·c)` table on small inputs or `O(n)`-memory divide-and-conquer
//!   backtracking beyond it ([`DpMode`]), so no input size is rejected.
//! * **Greedy merging** ([`greedy`]): offline GMS plus the streaming
//!   `gPTAc`/`gPTAε` that merge while ITA tuples arrive, in
//!   `O(n log(c+β))` time and `O(c+β)` space, with an `O(log n)` bound on
//!   the error ratio versus the optimum (Thm. 1).
//!
//! Inputs are [`pta_temporal::SequentialRelation`]s — any ITA result (see
//! the `pta-ita` crate) or single-group time series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod dp;
pub mod error;
pub mod gaps;
pub mod greedy;
pub mod merge;
pub mod policy;
pub mod prefix;
pub mod reduction;
pub mod series;
pub mod sse;
pub mod summarize;
pub mod weights;

pub use cancel::CancelToken;
pub use dp::curve::{optimal_error_curve, optimal_error_curve_with_cancel};
pub use dp::error_bounded::{
    error_bounded as pta_error_bounded, error_bounded_with_opts as pta_error_bounded_with_opts,
};
pub use dp::size_bounded::{
    size_bounded as pta_size_bounded, size_bounded_naive as pta_size_bounded_naive,
    size_bounded_no_early_break as pta_size_bounded_no_early_break,
    size_bounded_with_opts as pta_size_bounded_with_opts,
};
pub use dp::{
    error_threshold, max_error, max_error_with_policy, DpExecMode, DpMode, DpOptions, DpOutcome,
    DpStats, DpStrategy, DEFAULT_APPROX_EPS, DEFAULT_TABLE_BUDGET, MONGE_AUTO_MIN_WINDOW,
};
pub use error::CoreError;
pub use gaps::GapVector;
pub use greedy::estimate::Estimates;
pub use greedy::gms::{
    gms_error_bounded, gms_error_bounded_with_cancel, gms_error_bounded_with_policy,
    gms_size_bounded, gms_size_bounded_with_cancel, gms_size_bounded_with_policy,
    greedy_error_curve, greedy_error_curve_with_cancel,
};
pub use greedy::gptac::GPtaC;
pub use greedy::gptae::GPtaE;
pub use greedy::{Delta, GreedyOutcome, GreedyStats};
pub use policy::GapPolicy;
pub use prefix::PrefixStats;
pub use reduction::Reduction;
pub use series::{DenseSeries, PiecewiseConstant};
pub use sse::{dsim, pointwise_sse};
pub use summarize::{
    size_for_error_budget, Bound, BoxedSummarizer, Capabilities, ExactPta, GreedyPta, NaiveDp,
    SeriesView, Summarizer, Summary, SummaryDetail, SummaryStats,
};
pub use weights::Weights;

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
