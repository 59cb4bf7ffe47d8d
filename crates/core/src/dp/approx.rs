//! The certified `(1 + ε)`-approximate tier
//! ([`DpStrategy::Approx`](super::DpStrategy::Approx)):
//! its stride schedule and its a posteriori certificate.
//!
//! Segment SSE violates the quadrangle inequality on unsorted data, so
//! flat and uniform inputs fail the Monge certificate and the exact scan
//! stays `O(c · n²)`. `Approx(ε)` sparsifies the candidates instead. The
//! row fills of the DP engine take a grid stride `b`: each open
//! window solves only the cells on a uniform grid of stride `b` (plus
//! the window edges), and each solved cell scans only the grid-aligned
//! split candidates (plus the window's `jbound`). A row fill therefore
//! costs `O((window / b)²)` instead of `O(window²)` — a `b²`-fold
//! reduction with `b ≈ ε · n / c` chosen so the lost resolution stays
//! inside the ε budget. Gap bounds, forced splits, cancellation polls,
//! and the [`pta_pool::Pool`] fan-out are the exact fill's; the grid is a
//! pure function of the cell index and its window's edges, so chunked
//! windows solve the same cells with the same candidates and every
//! thread budget produces bit-identical rows.
//!
//! The bound is *certified a posteriori*, not assumed: every Approx
//! fill carries a second row, the lower bracket `lb`, beside the value
//! row `ub`:
//!
//! * `ub[k][i]` — the value of a **real** `k`-piece partition of the
//!   prefix `0..i` (split points restricted to the grid), so `ub ≥ E`
//!   cell-wise, and
//! * `lb[k][i]` — a **certified lower bound** on the exact `E[k][i]`:
//!   each candidate `j` contributes `lb[k−1][j] + SSE(j + b − 1..i)`.
//!   Any true optimal split `β` has a candidate `j_b ≤ β ≤ j_b + b − 1`
//!   (candidates are never more than `b` apart), and then
//!   `lb[k−1][j_b] ≤ E[k−1][j_b] ≤ E[k−1][β]` (a prefix DP value never
//!   shrinks as the prefix grows) while `SSE(j_b + b − 1..i) ≤
//!   SSE(β..i)` (a segment's SSE about its own mean never exceeds a
//!   superset's), hence `lb[k][i] ≤ E[k][i]` — the grid affects speed
//!   and `ub` quality, never `lb` soundness. The scan's early break
//!   stops only once the lower segment SSE alone exceeds *both* running
//!   minima, which keeps both brackets sound.
//!
//! A probe at stride `b` is accepted only when the delivered SSE is
//! within `(1 + ε)` of the lower bound; the drivers refine `b` through
//! `probe_strides` and fall back to `b = 1`, which evaluates every
//! cell and every candidate — the exact scan, update for update, hence
//! accepted unconditionally — so the certificate
//! `certified_ratio ≤ 1 + ε` holds on every completed run,
//! deterministically. The exact strategies (and `Approx(0)`) run the
//! same fills at stride 1 without the `lb` rows.

/// The ε a bare `approx` strategy name resolves to: a 10 % SSE slack —
/// large enough that the first stride probe certifies on realistic
/// data, small enough that downstream error budgets barely move.
pub const DEFAULT_APPROX_EPS: f64 = 0.1;

/// The a posteriori certificate: `Some(ratio)` iff the delivered `sse`
/// is provably within `(1 + eps)` of the exact optimum, given the
/// certified lower bound `lb ≤ E`. A non-positive lower bound certifies
/// only a zero-SSE result (the ratio is unbounded otherwise); ratios
/// are clamped to `≥ 1` — `sse < lb` can only be rounding noise.
pub(crate) fn certify(sse: f64, lb: f64, eps: f64) -> Option<f64> {
    if !sse.is_finite() || !lb.is_finite() {
        return None;
    }
    if lb <= 0.0 {
        return (sse <= 0.0).then_some(1.0);
    }
    let ratio = (sse / lb).max(1.0);
    (ratio <= 1.0 + eps).then_some(ratio)
}

/// The stride schedule a driver probes for a budget `ε` over `n` cells
/// and (roughly) `pieces` DP rows: the first stride targets a per-row
/// snap loss of about `b` points per boundary — `pieces · b ≲ ε · n`
/// residual points keeps the accumulated lower-bound deficit inside the
/// budget, with a 1.5× safety margin — followed by one 4× refinement
/// and the exact fallback `b = 1`, which is bit-identical to the exact
/// scan and accepted unconditionally (this also bounds the probe loop
/// when `lb = 0` or ulp noise defeats the ratio test).
pub(crate) fn probe_strides(eps: f64, n: usize, pieces: usize) -> Vec<usize> {
    let cap = (n / 8).max(1);
    let b0 = ((eps * n as f64) / (1.5 * pieces.max(1) as f64)) as usize;
    let b0 = b0.clamp(1, cap);
    let mut v = Vec::new();
    if b0 >= 2 {
        v.push(b0);
        let b1 = b0 / 4;
        if b1 >= 2 {
            v.push(b1);
        }
    }
    v.push(1);
    v
}

/// Whether every entry of an Approx error curve carries its `(1 + ε)`
/// certificate: within `(1 + ε)` of its lower bound, below the absolute
/// noise floor (the exact tail of a curve reaches 0, where no ratio
/// certifies), or infinite on both brackets (sizes below `cmin`).
pub(crate) fn curve_certified(ub: &[f64], lb: &[f64], eps: f64) -> bool {
    let scale = ub.iter().copied().filter(|v| v.is_finite()).fold(0.0f64, f64::max);
    let floor = 1e-9 * (1.0 + scale);
    ub.iter().zip(lb).all(|(&u, &l)| {
        if u.is_infinite() && l.is_infinite() {
            return true;
        }
        u <= floor || (l > 0.0 && u <= (1.0 + eps) * l)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::dp::curve::optimal_error_curve_with_cancel;
    use crate::dp::error_bounded::error_bounded_with_opts;
    use crate::dp::size_bounded::size_bounded_with_opts;
    use crate::dp::tests::{fig1c, wiggly_series};
    use crate::dp::{DpMode, DpOptions, DpStrategy};
    use crate::weights::Weights;

    fn opts(strategy: DpStrategy) -> DpOptions {
        DpOptions { strategy, threads: 1, ..DpOptions::default() }
    }

    #[test]
    fn certify_accepts_within_budget_and_clamps() {
        assert_eq!(certify(1.04, 1.0, 0.05), Some(1.04));
        assert_eq!(certify(0.99, 1.0, 0.05), Some(1.0));
        assert_eq!(certify(1.06, 1.0, 0.05), None);
        assert_eq!(certify(0.0, 0.0, 0.05), Some(1.0));
        assert_eq!(certify(0.5, 0.0, 0.05), None);
        assert_eq!(certify(f64::INFINITY, 1.0, 0.05), None);
        assert_eq!(certify(1.0, f64::NAN, 0.05), None);
    }

    #[test]
    fn probe_strides_schedule_targets_the_budget() {
        // The flat-gate shape: ε = 0.1, n = 4000, c = 64 gives one
        // sparsified probe at stride 4, then the exact fallback.
        assert_eq!(probe_strides(0.1, 4000, 64), vec![4, 1]);
        // Tight ε cannot afford a grid at all: straight to exact.
        assert_eq!(probe_strides(0.01, 4000, 64), vec![1]);
        // Loose ε adds the 4× refinement probe.
        assert_eq!(probe_strides(1.0, 4000, 64), vec![41, 10, 1]);
        // The n/8 cap keeps at least ~8 grid cells per row.
        assert_eq!(probe_strides(1.0, 64, 1), vec![8, 2, 1]);
        // Degenerate sizes never panic and end exact.
        assert_eq!(probe_strides(0.5, 3, 1), vec![1]);
        assert_eq!(*probe_strides(0.3, 500, 500).last().unwrap(), 1);
    }

    #[test]
    fn size_bounded_bound_holds_on_running_example() {
        let input = fig1c();
        let w = Weights::uniform(1);
        for eps in [0.01, 0.1, 0.5] {
            for c in 3..=6 {
                let exact = size_bounded_with_opts(&input, &w, c, opts(DpStrategy::Scan)).unwrap();
                let approx =
                    size_bounded_with_opts(&input, &w, c, opts(DpStrategy::Approx(eps))).unwrap();
                let ratio = approx.stats.certified_ratio;
                assert!(ratio >= 1.0 && ratio <= 1.0 + eps, "eps {eps} c {c}: ratio {ratio}");
                assert!(
                    approx.reduction.sse() <= (1.0 + eps) * exact.reduction.sse() + 1e-9,
                    "eps {eps} c {c}"
                );
                assert_eq!(approx.stats.strategy, DpStrategy::Approx(eps));
            }
        }
    }

    #[test]
    fn both_modes_certify_on_wiggly_data() {
        // ε = 0.3 over n = 450, c = 30 probes stride 3 first; the probe
        // must certify (the accumulated lower-bound slack ≈ c·(b − 1)
        // points of local variance sits inside the 0.3 · SSE budget),
        // so the sparsified run's evaluation count beats the exact
        // scan's.
        let input = wiggly_series(450, 11);
        let w = Weights::uniform(1);
        for mode in [DpMode::Table, DpMode::DivideConquer] {
            let o = DpOptions { mode, ..opts(DpStrategy::Approx(0.3)) };
            let exact_o = DpOptions { mode, ..opts(DpStrategy::Scan) };
            let exact = size_bounded_with_opts(&input, &w, 30, exact_o).unwrap();
            let approx = size_bounded_with_opts(&input, &w, 30, o).unwrap();
            assert!(approx.stats.certified_ratio <= 1.3, "{mode:?}");
            assert!(
                approx.reduction.sse() <= 1.3 * exact.reduction.sse() + 1e-9,
                "{mode:?}: {} vs {}",
                approx.reduction.sse(),
                exact.reduction.sse()
            );
            // At this small n the bracket rows' paired evaluations can
            // offset the sparsification in the divide-and-conquer mode;
            // the table path must already win (the n = 4000 bench gate
            // pins the asymptotic ≥5× reduction).
            if mode == DpMode::Table {
                assert!(
                    approx.stats.cells < exact.stats.cells,
                    "{mode:?}: sparsification must cut evaluations ({} vs {})",
                    approx.stats.cells,
                    exact.stats.cells
                );
            }
        }
    }

    #[test]
    fn error_bounded_satisfies_threshold_with_certificate() {
        let input = wiggly_series(120, 2);
        let w = Weights::uniform(1);
        let emax = crate::dp::max_error(&input, &w).unwrap();
        for eps_bound in [0.05, 0.2, 0.6] {
            let out = error_bounded_with_opts(&input, &w, eps_bound, opts(DpStrategy::Approx(0.1)))
                .unwrap();
            assert!(out.reduction.sse() <= eps_bound * emax + 1e-6);
            assert!(out.stats.certified_ratio <= 1.1);
            assert_eq!(out.stats.strategy, DpStrategy::Approx(0.1));
            // The upper bracket dominates the exact row values, so the
            // approximate size can never undercut the exact minimum.
            let exact =
                error_bounded_with_opts(&input, &w, eps_bound, opts(DpStrategy::Scan)).unwrap();
            assert!(out.reduction.len() >= exact.reduction.len());
        }
    }

    #[test]
    fn curve_entries_stay_within_budget() {
        let input = wiggly_series(140, 9);
        let w = Weights::uniform(1);
        let curve = |strategy| {
            optimal_error_curve_with_cancel(&input, &w, 40, strategy, 0, CancelToken::inert())
        };
        let exact = curve(DpStrategy::Scan).unwrap();
        let approx = curve(DpStrategy::Approx(0.1)).unwrap();
        assert_eq!(exact.len(), approx.len());
        for (k, (e, a)) in exact.iter().zip(&approx).enumerate() {
            if e.is_infinite() {
                assert!(a.is_infinite(), "size {}", k + 1);
            } else {
                assert!(*a >= *e - 1e-9, "size {}: upper bracket below optimum", k + 1);
                assert!(*a <= 1.1 * *e + 1e-9, "size {}: {} vs {}", k + 1, a, e);
            }
        }
    }

    #[test]
    fn thread_budgets_produce_bit_identical_curves() {
        // ε = 0.5 over n = 600, kmax = 48 starts at stride 4, so the
        // fan-out actually runs sparsified (chunked) open windows.
        let input = wiggly_series(600, 13);
        let w = Weights::uniform(1);
        let curve = |threads| {
            let approx = DpStrategy::Approx(0.5);
            optimal_error_curve_with_cancel(&input, &w, 48, approx, threads, CancelToken::inert())
        };
        let base = curve(1).unwrap();
        for threads in [2, 4] {
            let par = curve(threads).unwrap();
            for (k, (a, b)) in base.iter().zip(&par).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}, size {}", k + 1);
            }
        }
    }
}
