//! The workspace has exactly one weighted-segment SSE code path, living
//! in `pta-core`. This test pins the contract from the workspace
//! bootstrap PR: on gap-free single-group inputs the three historical
//! error evaluations —
//!
//! 1. `pta-core`'s prefix-sum range SSE (Prop. 1),
//! 2. the greedy algorithms' `dsim`-accumulated SSE (Prop. 2), and
//! 3. `pta-baselines`' piecewise-constant reconstruction error
//!
//! — are the *same number* for the same segmentation, because 2 and 3
//! both evaluate through 1.

mod common;

use pta_baselines::{DenseSeries, PiecewiseConstant};
use pta_core::{
    gms_size_bounded, pta_size_bounded, CancelToken, Delta, GPtaC, GapPolicy, PrefixStats, Weights,
};
use pta_temporal::SequentialRelation;

/// Chronon-space segment boundaries of a tuple-index segmentation.
fn chronon_boundaries(input: &SequentialRelation, ranges: &[std::ops::Range<usize>]) -> Vec<usize> {
    let mut durations = vec![0usize];
    for i in 0..input.len() {
        durations.push(durations[i] + input.interval(i).len() as usize);
    }
    let mut bounds: Vec<usize> = ranges.iter().map(|r| durations[r.start]).collect();
    bounds.push(durations[input.len()]);
    bounds
}

#[test]
fn greedy_dp_and_baseline_errors_agree_on_series_inputs() {
    for seed in 0..24u64 {
        // Gap-free, single-group, one-dimensional: the inputs on which the
        // paper compares PTA against the time-series methods.
        let input = common::random_sequential(seed, 30, 1, 0.0, 0.0);
        let w = Weights::uniform(1);
        let stats = PrefixStats::build(&input);
        let series = DenseSeries::from_sequential(&input).unwrap();
        let n = input.len();

        for c in [1usize, 2, (n / 2).max(1), n] {
            // Greedy: SSE accumulated from dsim heap keys while merging.
            let greedy =
                gms_size_bounded(&input, &w, c, GapPolicy::Strict, CancelToken::inert()).unwrap();
            // Streaming greedy with unbounded buffer does the same merges.
            let streaming = GPtaC::run(
                &input,
                &w,
                c,
                Delta::Unbounded,
                GapPolicy::Strict,
                CancelToken::inert(),
            )
            .unwrap();
            // Exact DP: SSE from the prefix-sum kernel during table fill.
            let dp = pta_size_bounded(&input, &w, c).unwrap();

            for (label, outcome_sse, ranges) in [
                ("gms", greedy.reduction.sse(), greedy.reduction.source_ranges()),
                ("gptac", streaming.reduction.sse(), streaming.reduction.source_ranges()),
                ("dp", dp.reduction.sse(), dp.reduction.source_ranges()),
            ] {
                // Path 1: the prefix-sum kernel, summed over the chosen
                // segmentation.
                let kernel_sse: f64 = ranges.iter().map(|r| stats.range_sse(&w, r.clone())).sum();
                assert!(
                    (outcome_sse - kernel_sse).abs() < 1e-6 * (1.0 + kernel_sse),
                    "seed {seed} c {c} {label}: accumulated {outcome_sse} vs kernel {kernel_sse}"
                );

                // Path 3: baselines' reconstruction error of the same
                // segmentation, as a piecewise-constant over chronons.
                let bounds = chronon_boundaries(&input, ranges);
                let values: Vec<f64> =
                    ranges.iter().map(|r| stats.merged_value(r.clone(), 0)).collect();
                let pc = PiecewiseConstant::new(series.len(), &bounds, values).unwrap();
                let recon_sse = pc.sse_against(&series);
                assert!(
                    (outcome_sse - recon_sse).abs() < 1e-6 * (1.0 + recon_sse),
                    "seed {seed} c {c} {label}: accumulated {outcome_sse} vs reconstruction \
                     {recon_sse}"
                );
            }
        }
    }
}

#[test]
fn pointwise_and_segment_kernels_agree_on_step_functions() {
    // A piecewise-constant approximation evaluated (a) segment-wise via
    // prefix sums and (b) chronon-wise via the pointwise kernel.
    for seed in 0..12u64 {
        let input = common::random_sequential(seed, 20, 1, 0.0, 0.0);
        let series = DenseSeries::from_sequential(&input).unwrap();
        let w = Weights::uniform(1);
        let c = (input.len() / 3).max(1);
        let out = pta_size_bounded(&input, &w, c).unwrap();
        let bounds = chronon_boundaries(&input, out.reduction.source_ranges());
        let stats = PrefixStats::build(&input);
        let values: Vec<f64> = out
            .reduction
            .source_ranges()
            .iter()
            .map(|r| stats.merged_value(r.clone(), 0))
            .collect();
        let pc = PiecewiseConstant::new(series.len(), &bounds, values).unwrap();
        let segment_wise = pc.sse_against(&series);
        let chronon_wise = series.sse_against(&pc.to_dense());
        assert!(
            (segment_wise - chronon_wise).abs() < 1e-6 * (1.0 + chronon_wise),
            "seed {seed}: segment-wise {segment_wise} vs chronon-wise {chronon_wise}"
        );
    }
}
