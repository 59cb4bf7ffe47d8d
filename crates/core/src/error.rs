//! Error type for the PTA algorithms.

use std::fmt;

use pta_temporal::{CommonError, TemporalError};

use crate::dp::DpStats;

/// Errors raised by PTA evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The requested size bound is below `cmin`, the smallest size any
    /// reduction can reach without merging across gaps or groups (§4.1).
    SizeBelowMinimum {
        /// Requested output size `c`.
        requested: usize,
        /// The relation's minimum reachable size.
        cmin: usize,
    },
    /// The weight vector length does not match the relation dimensionality.
    WeightDimensionMismatch {
        /// Number of weights supplied.
        got: usize,
        /// Relation dimensionality `p`.
        expected: usize,
    },
    /// The run was cancelled through its [`CancelToken`](crate::CancelToken)
    /// before completing.
    Cancelled {
        /// DP work completed before the abort (empty for greedy runs).
        stats: DpStats,
    },
    /// The run's [`CancelToken`](crate::CancelToken) deadline passed
    /// before it completed.
    DeadlineExceeded {
        /// DP work completed before the abort (empty for greedy runs).
        stats: DpStats,
    },
    /// A summarizer panicked and the panic was isolated by the fan-out
    /// layer instead of unwinding the caller.
    Panic {
        /// The panic payload, rendered as text.
        message: String,
    },
    /// A failure mode shared across the workspace (invalid error bound,
    /// invalid weights, invalid estimate, ...).
    Common(CommonError),
    /// An underlying data-model error.
    Temporal(TemporalError),
}

impl CoreError {
    /// The error bound `ε` must lie in `[0, 1]` (Def. 7).
    pub fn invalid_error_bound(epsilon: f64) -> Self {
        Self::Common(CommonError::invalid_parameter(
            "error bound",
            format!("must lie in [0, 1], got {epsilon}"),
        ))
    }

    /// Weights must be positive, with a finite, normal square, one per
    /// aggregate dimension (Def. 5).
    pub fn invalid_weights(reason: impl Into<String>) -> Self {
        Self::Common(CommonError::invalid_parameter("weights", reason.into()))
    }

    /// gPTAε was configured with an unusable ITA size estimate.
    pub fn invalid_estimate(reason: impl Into<String>) -> Self {
        Self::Common(CommonError::invalid_parameter("estimate", reason.into()))
    }

    /// The operation does not apply to this input — the paper's "n/a"
    /// cells (§7.2.2): e.g. a per-chronon series view of a relation with
    /// gaps, groups, or `p ≠ 1`.
    pub fn not_applicable(reason: impl Into<String>) -> Self {
        Self::Common(CommonError::not_applicable(reason))
    }

    /// A segment/coefficient count that is zero or exceeds the series
    /// length — an invalid-parameter failure in the shared vocabulary.
    pub fn invalid_size(requested: usize, len: usize) -> Self {
        Self::Common(CommonError::invalid_parameter(
            "size",
            format!("requested size {requested} invalid for series of length {len}"),
        ))
    }

    /// Non-finite data corrupted an error computation. Input values are
    /// validated at the [`pta_temporal::SequentialBuilder`] boundary, so
    /// this is a defensive backstop: the error-bounded DP returns it
    /// instead of panicking when no row ever satisfies the threshold
    /// (possible only when a NaN poisoned the error table or the bound).
    pub fn non_finite_data(context: impl Into<String>) -> Self {
        Self::Common(CommonError::invalid_parameter(
            "input values",
            format!("non-finite value encountered: {}", context.into()),
        ))
    }

    /// Whether this error reports a cancelled or timed-out run (as
    /// opposed to invalid input or an isolated panic).
    pub fn is_cancellation(&self) -> bool {
        matches!(self, Self::Cancelled { .. } | Self::DeadlineExceeded { .. })
    }

    /// Stamps partial-progress statistics onto a cancellation error.
    /// [`CancelToken::check`](crate::CancelToken::check) reports with
    /// empty stats (it cannot see the run's counters); the outer run
    /// loops call this on the way out so callers learn how far the
    /// aborted run got. Non-cancellation errors pass through unchanged.
    pub fn with_dp_progress(self, progress: DpStats) -> Self {
        match self {
            Self::Cancelled { .. } => Self::Cancelled { stats: progress },
            Self::DeadlineExceeded { .. } => Self::DeadlineExceeded { stats: progress },
            other => other,
        }
    }

    /// The partial-progress statistics of a cancelled run, if any.
    pub fn dp_progress(&self) -> Option<&DpStats> {
        match self {
            Self::Cancelled { stats } | Self::DeadlineExceeded { stats } => Some(stats),
            _ => None,
        }
    }

    /// The shared failure vocabulary, if this error carries one (looking
    /// through wrapped lower-layer errors).
    pub fn common(&self) -> Option<&CommonError> {
        match self {
            Self::Common(c) => Some(c),
            Self::Temporal(e) => e.common(),
            _ => None,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SizeBelowMinimum { requested, cmin } => write!(
                f,
                "size bound {requested} is below cmin = {cmin}; tuples across temporal gaps or \
                 aggregation groups cannot be merged"
            ),
            Self::WeightDimensionMismatch { got, expected } => {
                write!(f, "{got} weights supplied for a {expected}-dimensional relation")
            }
            Self::Cancelled { stats } => {
                write!(f, "run cancelled after {} DP rows ({} cells)", stats.rows, stats.cells)
            }
            Self::DeadlineExceeded { stats } => {
                write!(f, "deadline exceeded after {} DP rows ({} cells)", stats.rows, stats.cells)
            }
            Self::Panic { message } => write!(f, "summarizer panicked: {message}"),
            Self::Common(e) => write!(f, "{e}"),
            Self::Temporal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Temporal(e) => Some(e),
            Self::Common(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TemporalError> for CoreError {
    fn from(e: TemporalError) -> Self {
        Self::Temporal(e)
    }
}

impl From<CommonError> for CoreError {
    fn from(e: CommonError) -> Self {
        Self::Common(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_cmin() {
        let e = CoreError::SizeBelowMinimum { requested: 2, cmin: 3 };
        assert!(e.to_string().contains("cmin = 3"));
    }

    #[test]
    fn collapsed_variants_expose_the_shared_vocabulary() {
        let e = CoreError::invalid_error_bound(1.5);
        assert!(e.common().is_some_and(CommonError::is_invalid_parameter));
        assert!(e.to_string().contains("error bound"));
        assert!(e.to_string().contains("1.5"));
        assert!(CoreError::invalid_weights("negative")
            .common()
            .is_some_and(CommonError::is_invalid_parameter));
        assert!(CoreError::invalid_estimate("zero")
            .common()
            .is_some_and(CommonError::is_invalid_parameter));
        let nan = CoreError::non_finite_data("threshold never satisfied");
        assert!(nan.common().is_some_and(CommonError::is_invalid_parameter));
        assert!(nan.to_string().contains("non-finite"));
        assert!(CoreError::SizeBelowMinimum { requested: 2, cmin: 3 }.common().is_none());
    }

    #[test]
    fn cancellation_variants_carry_progress() {
        let progress = DpStats { rows: 7, cells: 420, ..DpStats::default() };
        let e = CoreError::Cancelled { stats: DpStats::default() }.with_dp_progress(progress);
        assert!(e.is_cancellation());
        assert_eq!(e.dp_progress().map(|s| (s.rows, s.cells)), Some((7, 420)));
        assert!(e.to_string().contains("7 DP rows"));

        let progress = DpStats { rows: 2, cells: 10, ..DpStats::default() };
        let d =
            CoreError::DeadlineExceeded { stats: DpStats::default() }.with_dp_progress(progress);
        assert!(d.is_cancellation());
        assert!(d.to_string().contains("deadline exceeded"));

        // Stamping progress onto a non-cancellation error is a no-op.
        let other = CoreError::invalid_weights("negative")
            .with_dp_progress(DpStats { rows: 9, ..DpStats::default() });
        assert!(!other.is_cancellation());
        assert!(other.dp_progress().is_none());
    }

    #[test]
    fn panic_variant_renders_payload() {
        let e = CoreError::Panic { message: "boom".into() };
        assert!(!e.is_cancellation());
        assert_eq!(e.to_string(), "summarizer panicked: boom");
    }
}
