//! Optimal error-vs-size curves.
//!
//! Fig. 14 of the paper plots the minimal SSE of reducing a dataset to
//! every possible size. One DP run produces the whole curve: row `k`'s
//! final cell `E[k][n]` *is* the optimal error for size `k`, so filling
//! rows `1..=kmax` yields all of them without split-point bookkeeping.

use pta_temporal::SequentialRelation;

use crate::cancel::CancelToken;
use crate::dp::{approx, Cells, DpEngine, DpExecMode, DpStrategy, Fwd};
use crate::error::CoreError;
use crate::policy::GapPolicy;
use crate::weights::Weights;

/// Optimal reduction errors for sizes `1..=kmax` (clamped to `n`):
/// `result[k − 1] = E[k][n]`, with `∞` for unreachable sizes `k < cmin`.
/// Runs [`DpStrategy::Auto`], so gap-free monotone runs get the
/// `O(kmax · n)` Monge bound — and with them every grid fast path built
/// on this curve.
pub fn optimal_error_curve(
    input: &SequentialRelation,
    weights: &Weights,
    kmax: usize,
) -> Result<Vec<f64>, CoreError> {
    optimal_error_curve_with_cancel(input, weights, kmax, DpStrategy::Auto, 0, CancelToken::inert())
}

/// [`optimal_error_curve`] with an explicit row minimization strategy
/// and thread budget (`0` = the process default), under a
/// [`CancelToken`]: a fired token aborts the curve with
/// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] carrying
/// the rows completed so far — the deadline path of the facade's curve
/// queries. Under `Approx(ε > 0)` every returned entry is certified
/// within `1 + ε` of the exact optimum (see
/// [`approx::curve_certified`](crate::dp::approx)): an uncertified probe
/// refines the stride for the whole curve, and stride 1 is exact.
pub fn optimal_error_curve_with_cancel(
    input: &SequentialRelation,
    weights: &Weights,
    kmax: usize,
    strategy: DpStrategy,
    threads: usize,
    cancel: CancelToken,
) -> Result<Vec<f64>, CoreError> {
    let n = input.len();
    let kmax = kmax.min(n);
    if n == 0 || kmax == 0 {
        return Ok(Vec::new());
    }
    let engine =
        DpEngine::new_full(input, weights, true, GapPolicy::Strict, true, strategy, threads)?
            .with_cancel(cancel);
    let mut rows = engine.rows();
    let mut cells = Cells::default();
    let mut rows_done = 0usize;
    for stride in engine.strides(kmax) {
        let mut curve = Vec::with_capacity(kmax);
        let mut lower = Vec::new();
        for k in 1..=kmax {
            cells += engine.step::<Fwd>(k, 0, n, stride, &mut rows, None).map_err(|e| {
                // Curve entries 1..k − 1 of this probe were completed
                // before the abort.
                let peak = rows.count();
                e.with_dp_progress(engine.progress(
                    rows_done + k - 1,
                    cells,
                    peak,
                    DpExecMode::Table,
                ))
            })?;
            curve.push(rows.value(n));
            if stride > 1 {
                lower.push(rows.lower(n));
            }
        }
        rows_done += kmax;
        match engine.approx_eps() {
            Some(eps) if stride > 1 && !approx::curve_certified(&curve, &lower, eps) => {
                rows.reset(0..=n);
            }
            _ => return Ok(curve),
        }
    }
    // pta-lint: allow(no-panic-in-lib) — the last probe is the exact stride
    // 1, which certifies unconditionally.
    unreachable!("the exact stride-1 probe always certifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::size_bounded::size_bounded;
    use crate::dp::tests::fig1c;

    /// Fig. 4's last column: E[k][7] for k = 1..4 is ∞, ∞, 269 285, 49 166;
    /// continuing, E[5][7] = 6 666.67, E[6][7] = 1 666.67, E[7][7] = 0.
    #[test]
    fn running_example_curve() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let curve = optimal_error_curve(&input, &w, 7).unwrap();
        assert_eq!(curve.len(), 7);
        assert!(curve[0].is_infinite() && curve[1].is_infinite());
        assert!((curve[2] - 269_285.714).abs() < 1e-2);
        assert!((curve[3] - 49_166.667).abs() < 1e-2);
        assert!((curve[4] - 6_666.667).abs() < 1e-2);
        assert!((curve[5] - 1_666.667).abs() < 1e-2);
        assert_eq!(curve[6], 0.0);
    }

    #[test]
    fn curve_matches_individual_dp_runs() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let curve = optimal_error_curve(&input, &w, 7).unwrap();
        for c in input.cmin()..=7 {
            let out = size_bounded(&input, &w, c).unwrap();
            assert!(
                (curve[c - 1] - out.reduction.sse()).abs() < 1e-6,
                "size {c}: curve {} vs dp {}",
                curve[c - 1],
                out.reduction.sse()
            );
        }
    }

    #[test]
    fn curve_is_monotone_non_increasing() {
        let input = fig1c();
        let w = Weights::uniform(1);
        let curve = optimal_error_curve(&input, &w, 7).unwrap();
        for win in curve.windows(2) {
            assert!(win[0] >= win[1] - 1e-9);
        }
    }

    /// Both row minimization strategies produce the identical curve on a
    /// gap-free input wide enough that Auto runs SMAWK.
    #[test]
    fn strategies_agree_on_flat_curve() {
        use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval};
        let mut state = 99u64;
        let mut b = SequentialBuilder::new(1);
        for t in 0..120i64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((state >> 11) as f64) / ((1u64 << 53) as f64);
            b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[v]).unwrap();
        }
        let input = b.build();
        let w = Weights::uniform(1);
        let curve = |strategy| {
            optimal_error_curve_with_cancel(&input, &w, 40, strategy, 0, CancelToken::inert())
        };
        let scan = curve(DpStrategy::Scan).unwrap();
        let monge = curve(DpStrategy::Monge).unwrap();
        let auto = optimal_error_curve(&input, &w, 40).unwrap();
        for k in 0..40 {
            assert_eq!(scan[k].to_bits(), monge[k].to_bits(), "size {}", k + 1);
            assert_eq!(scan[k].to_bits(), auto[k].to_bits(), "size {}", k + 1);
        }
    }

    #[test]
    fn kmax_is_clamped_and_empty_handled() {
        let input = fig1c();
        let w = Weights::uniform(1);
        assert_eq!(optimal_error_curve(&input, &w, 100).unwrap().len(), 7);
        assert!(optimal_error_curve(&SequentialRelation::empty(1), &w, 5).unwrap().is_empty());
    }
}
