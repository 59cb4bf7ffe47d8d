//! Cancellation-point sweep: abort the reductions at *every* check site.
//!
//! [`CancelToken::cancel_after_checks`] trips a run deterministically at
//! its `n`-th cancellation check. Sweeping `n` upward until the run
//! completes visits each check site exactly once and pins, for every
//! site:
//!
//! * the abort is the typed [`CoreError::Cancelled`] — never a panic,
//!   never a wrong result;
//! * a subsequent fresh-token run is bit-identical to a never-cancelled
//!   baseline (an abort leaves no state behind that could bend a retry);
//! * at least one check site exists on the path at all — the sweep would
//!   otherwise never observe a cancellation and fail its floor assert.
//!
//! The exact-DP sweep runs across both backtracking modes, both row
//! strategies, and thread budgets 1/2/4 (the parallel fills check once
//! per chunk, so the site count varies with the budget — the sweep only
//! assumes it is finite). The greedy sweep covers the streaming path:
//! per-row checks in `push_row`, per-merge checks in the drain loop.

mod common;

use common::random_sequential_continuous;
use pta_core::{
    gms_size_bounded, pta_size_bounded_with_opts, CancelToken, CoreError, DpMode, DpOptions,
    DpStrategy, GapPolicy, Weights,
};

const MODES: [DpMode; 2] = [DpMode::Table, DpMode::DivideConquer];
// Approx rides along so the sweep covers the sparsified bracket row
// loops (probe schedule, run building, chunked solves) check-by-check.
const STRATEGIES: [DpStrategy; 3] = [DpStrategy::Scan, DpStrategy::Monge, DpStrategy::Approx(0.1)];

/// Check-site sweep ceiling: every configuration below completes in far
/// fewer checks; hitting the ceiling means a check loop is not consuming
/// its fuse (or a run cancels forever).
const SWEEP_CEILING: usize = 1_000_000;

#[test]
fn exact_size_bounded_cancels_cleanly_at_every_check_site() {
    let input = random_sequential_continuous(900, 72, 1, 0.0, 0.08);
    let w = Weights::uniform(input.dims());
    let c = (input.len() / 6).clamp(2, input.len());
    for mode in MODES {
        for strategy in STRATEGIES {
            for threads in [1usize, 2, 4] {
                let opts = |cancel: CancelToken| DpOptions {
                    policy: GapPolicy::Strict,
                    mode,
                    strategy,
                    threads,
                    cancel,
                };
                let tag = format!("{mode:?} {strategy:?} threads={threads}");
                let baseline =
                    pta_size_bounded_with_opts(&input, &w, c, opts(CancelToken::inert())).unwrap();
                let mut fuse = 0usize;
                loop {
                    let token = CancelToken::cancel_after_checks(fuse);
                    match pta_size_bounded_with_opts(&input, &w, c, opts(token)) {
                        Err(CoreError::Cancelled { .. }) => {
                            fuse += 1;
                            assert!(fuse < SWEEP_CEILING, "{tag}: sweep did not terminate");
                        }
                        Ok(out) => {
                            // Enough checks for a full run: identical to
                            // the never-armed baseline.
                            assert_eq!(
                                out.reduction.source_ranges(),
                                baseline.reduction.source_ranges(),
                                "{tag}: boundaries after exhausted sweep"
                            );
                            assert_eq!(
                                out.reduction.sse().to_bits(),
                                baseline.reduction.sse().to_bits(),
                                "{tag}: sse bits after exhausted sweep"
                            );
                            break;
                        }
                        Err(other) => panic!("{tag}: fuse {fuse}: unexpected error {other:?}"),
                    }
                }
                assert!(fuse > 0, "{tag}: the run must pass at least one cancellation point");
                // A fresh-token retry right after the aborted runs is
                // bit-identical: cancellation left nothing behind.
                let retry =
                    pta_size_bounded_with_opts(&input, &w, c, opts(CancelToken::inert())).unwrap();
                assert_eq!(
                    retry.reduction.source_ranges(),
                    baseline.reduction.source_ranges(),
                    "{tag}: retry boundaries"
                );
                assert_eq!(
                    retry.reduction.sse().to_bits(),
                    baseline.reduction.sse().to_bits(),
                    "{tag}: retry sse bits"
                );
            }
        }
    }
}

#[test]
fn greedy_size_bounded_cancels_cleanly_at_every_check_site() {
    let input = random_sequential_continuous(901, 90, 1, 0.0, 0.05);
    let w = Weights::uniform(input.dims());
    let c = (input.len() / 5).clamp(2, input.len());
    let baseline =
        gms_size_bounded(&input, &w, c, GapPolicy::Strict, CancelToken::inert()).unwrap();
    let mut fuse = 0usize;
    loop {
        let token = CancelToken::cancel_after_checks(fuse);
        match gms_size_bounded(&input, &w, c, GapPolicy::Strict, token) {
            Err(CoreError::Cancelled { .. }) => {
                fuse += 1;
                assert!(fuse < SWEEP_CEILING, "greedy sweep did not terminate");
            }
            Ok(out) => {
                assert_eq!(out.reduction.source_ranges(), baseline.reduction.source_ranges());
                assert_eq!(out.reduction.sse().to_bits(), baseline.reduction.sse().to_bits());
                break;
            }
            Err(other) => panic!("fuse {fuse}: unexpected error {other:?}"),
        }
    }
    // n push checks + at least one merge check.
    assert!(fuse > input.len(), "streaming path must check per row and per merge, saw {fuse}");
    let retry = gms_size_bounded(&input, &w, c, GapPolicy::Strict, CancelToken::inert()).unwrap();
    assert_eq!(retry.reduction.source_ranges(), baseline.reduction.source_ranges());
    assert_eq!(retry.reduction.sse().to_bits(), baseline.reduction.sse().to_bits());
}
