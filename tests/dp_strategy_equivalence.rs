//! Cross-strategy equivalence suite: the Monge row minimization
//! (`DpStrategy::Monge`/`Auto`) returns the *identical* optimal SSE and
//! boundaries as the paper's scan (`DpStrategy::Scan`) — across both
//! `DpMode` backtracking paths, the full ε-grid of `PTAε`, randomized
//! weighted/gap-rich/gap-free/trendy inputs, and tie-heavy degenerate
//! data — plus the quadrangle-inequality property the Monge engines rely
//! on and the paper-scale release smoke.
//!
//! The engines only ever run on windows carrying the exact monotonicity
//! certificate (see `pta_core::dp::monge`), so equivalence is a theorem;
//! these tests pin the implementation to it, including the tie-breaking
//! conventions (the forward scan keeps the largest minimizing split, the
//! backward scan the smallest) and the graded-pad arithmetic.

mod common;

use common::{random_sequential_continuous, random_sequential_trendy};
use pta_core::{
    gms_size_bounded, optimal_error_curve_with_cancel, pta_error_bounded_with_opts,
    pta_size_bounded_naive, pta_size_bounded_with_opts, CancelToken, DpExecMode, DpMode, DpOptions,
    DpStrategy, GapPolicy, PrefixStats, Weights,
};
use pta_temporal::{GroupKey, SequentialBuilder, SequentialRelation, TimeInterval};

const MODES: [DpMode; 2] = [DpMode::Table, DpMode::DivideConquer];
const STRATEGIES: [DpStrategy; 3] = [DpStrategy::Scan, DpStrategy::Monge, DpStrategy::Auto];

fn opts(mode: DpMode, strategy: DpStrategy) -> DpOptions {
    DpOptions { policy: GapPolicy::Strict, mode, strategy, threads: 1, ..DpOptions::default() }
}

/// Non-uniform weights so the equivalence covers the weighted SSE.
fn weights_for(p: usize) -> Weights {
    let w: Vec<f64> = (0..p).map(|d| 0.5 + d as f64).collect();
    Weights::new(&w).unwrap()
}

/// A single-group instant series from explicit values.
fn series(values: &[f64]) -> SequentialRelation {
    let mut b = SequentialBuilder::new(1);
    for (t, &v) in values.iter().enumerate() {
        b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), &[v]).unwrap();
    }
    b.build()
}

/// The error-vs-size curve under `strategy` at the default thread budget.
fn curve(input: &SequentialRelation, w: &Weights, kmax: usize, strategy: DpStrategy) -> Vec<f64> {
    optimal_error_curve_with_cancel(input, w, kmax, strategy, 0, CancelToken::inert()).unwrap()
}

/// `PTAc`: every (mode × strategy) combination and the naive DP produce
/// identical boundaries and SSE for every feasible size, on trendy
/// (Monge-certified windows), gap-rich, and wiggly gap-free inputs.
/// Continuous values make the optimum unique with probability 1, so
/// exact boundary equality is the right assertion.
#[test]
fn size_bounded_strategies_agree_on_boundaries() {
    let cases = [
        // (seed, p, group_prob, gap_prob, flip_prob) — trendy inputs.
        (900, 1, 0.05, 0.1, 0.02),
        (901, 1, 0.0, 0.0, 0.01), // one long gap-free trend: SMAWK territory
        (902, 2, 0.1, 0.2, 0.05),
        (903, 1, 0.0, 0.0, 0.3), // wiggly: certificate mostly absent
    ];
    for (seed, p, group_prob, gap_prob, flip_prob) in cases {
        let input = random_sequential_trendy(seed, 72, p, group_prob, gap_prob, flip_prob);
        let w = weights_for(p);
        for c in input.cmin()..input.len() {
            let naive = pta_size_bounded_naive(&input, &w, c).unwrap();
            let reference =
                pta_size_bounded_with_opts(&input, &w, c, opts(DpMode::Table, DpStrategy::Scan))
                    .unwrap();
            assert_eq!(
                reference.reduction.source_ranges(),
                naive.reduction.source_ranges(),
                "seed {seed} c {c}: scan vs naive"
            );
            for mode in MODES {
                for strategy in STRATEGIES {
                    let out =
                        pta_size_bounded_with_opts(&input, &w, c, opts(mode, strategy)).unwrap();
                    assert_eq!(
                        out.reduction.source_ranges(),
                        reference.reduction.source_ranges(),
                        "seed {seed} c {c} {mode:?} {strategy:?}"
                    );
                    assert!(
                        (out.reduction.sse() - reference.reduction.sse()).abs()
                            <= 1e-9 * (1.0 + reference.reduction.sse()),
                        "seed {seed} c {c} {mode:?} {strategy:?}: sse {} vs {}",
                        out.reduction.sse(),
                        reference.reduction.sse()
                    );
                    assert_eq!(out.stats.strategy, strategy);
                    assert_eq!(out.stats.cells, out.stats.scan_cells + out.stats.monge_cells);
                }
            }
        }
    }
}

/// On gap-free continuous data the pure gap-rich suite of PR 3 stays
/// covered too (scan ≡ Monge even without any certificate).
#[test]
fn size_bounded_strategies_agree_on_uncertified_data() {
    for seed in [910, 911] {
        let input = random_sequential_continuous(seed, 56, 1, 0.08, 0.15);
        let w = Weights::uniform(1);
        for c in input.cmin()..input.len() {
            let mut reference: Option<Vec<std::ops::Range<usize>>> = None;
            for mode in MODES {
                for strategy in STRATEGIES {
                    let out =
                        pta_size_bounded_with_opts(&input, &w, c, opts(mode, strategy)).unwrap();
                    let ranges = out.reduction.source_ranges().to_vec();
                    match &reference {
                        None => reference = Some(ranges),
                        Some(r) => {
                            assert_eq!(&ranges, r, "seed {seed} c {c} {mode:?} {strategy:?}")
                        }
                    }
                }
            }
        }
    }
}

/// `PTAε` across the full ε-grid: all strategies and both backtracking
/// paths return the same minimal reduction.
#[test]
fn error_bounded_strategies_agree_across_epsilon_grid() {
    for (seed, flip) in [(920, 0.02), (921, 0.25)] {
        let input = random_sequential_trendy(seed, 64, 1, 0.05, 0.1, flip);
        let w = Weights::uniform(1);
        for eps in [0.0, 0.01, 0.1, 0.3, 0.7, 1.0] {
            let reference =
                pta_error_bounded_with_opts(&input, &w, eps, opts(DpMode::Table, DpStrategy::Scan))
                    .unwrap();
            for mode in MODES {
                for strategy in STRATEGIES {
                    let out =
                        pta_error_bounded_with_opts(&input, &w, eps, opts(mode, strategy)).unwrap();
                    assert_eq!(
                        out.reduction.source_ranges(),
                        reference.reduction.source_ranges(),
                        "seed {seed} eps {eps} {mode:?} {strategy:?}"
                    );
                    if mode == DpMode::DivideConquer {
                        assert_eq!(out.stats.mode, DpExecMode::DivideConquer);
                        assert!(out.stats.peak_rows <= 4);
                    }
                }
            }
        }
    }
}

/// The whole error-vs-size curve (the Comparator's grid fast path) is
/// bit-identical across strategies.
#[test]
fn error_curves_are_bit_identical_across_strategies() {
    for (seed, flip) in [(930, 0.015), (931, 0.2)] {
        let input = random_sequential_trendy(seed, 150, 1, 0.0, 0.0, flip);
        let w = Weights::uniform(1);
        let kmax = 60;
        let scan = curve(&input, &w, kmax, DpStrategy::Scan);
        for strategy in [DpStrategy::Monge, DpStrategy::Auto] {
            let other = curve(&input, &w, kmax, strategy);
            for k in 0..kmax {
                assert_eq!(
                    scan[k].to_bits(),
                    other[k].to_bits(),
                    "seed {seed} size {} ({strategy:?})",
                    k + 1
                );
            }
        }
    }
}

/// Property: on per-dimension monotone weighted inputs — exactly the
/// windows the engines accept — the weighted segment SSE satisfies the
/// concave quadrangle inequality within floating-point tolerance.
#[test]
fn quadrangle_inequality_holds_on_monotone_weighted_inputs() {
    for seed in 940..946 {
        let p = 1 + (seed as usize % 3);
        // Monotone in every dimension: flip probability 0 — plus random
        // durations, so the duration-weighted (weighted k-means) form is
        // what gets checked.
        let input = random_sequential_trendy(seed, 60, p, 0.0, 0.0, 0.0);
        let n = input.len();
        let stats = PrefixStats::build(&input);
        let w = weights_for(p);
        let cost = |a: usize, b: usize| stats.range_sse(&w, a..b);
        for a in (0..n - 3).step_by(3) {
            for b in (a + 1)..n.min(a + 12) {
                for c in (b + 1)..n.min(b + 8) {
                    for d in (c + 1)..n.min(c + 6) {
                        let lhs = cost(a, c) + cost(b, d);
                        let rhs = cost(a, d) + cost(b, c);
                        let scale = 1.0 + lhs.abs().max(rhs.abs());
                        assert!(
                            lhs <= rhs + 1e-9 * scale,
                            "seed {seed}: QI violated at ({a},{b},{c},{d}): {lhs} > {rhs}"
                        );
                    }
                }
            }
        }
    }
}

/// ...and on *unsorted* data it genuinely fails (the reason the engines
/// demand the certificate): the module-doc counterexample, through the
/// public kernel.
#[test]
fn quadrangle_inequality_fails_without_monotonicity() {
    let input = series(&[0.0, 1.0, 0.0]);
    let stats = PrefixStats::build(&input);
    let w = Weights::uniform(1);
    let lhs = stats.range_sse(&w, 0..2) + stats.range_sse(&w, 1..3);
    let rhs = stats.range_sse(&w, 0..3) + stats.range_sse(&w, 1..2);
    assert!(lhs > rhs + 0.2, "0,1,0 must violate the QI: {lhs} vs {rhs}");
}

/// Exact ties (all-constant data — every split of every window costs a
/// bit-identical `0.0`): the Monge engines resolve every tie to the same
/// split the scan picks, so boundaries match exactly even though the
/// optimum is massively non-unique.
#[test]
fn tie_breaking_matches_scan_on_exact_ties() {
    let input = series(&vec![3.25f64; 48]);
    let w = Weights::uniform(1);
    for c in 1..input.len() {
        // Per backtracking mode: table backtrack and divide-and-conquer
        // midpoint selection legitimately pick different (equally
        // optimal) cuts on fully tied data — a pre-existing PR 3
        // behavior — but *within* a mode the strategy must not move them.
        for mode in MODES {
            let reference =
                pta_size_bounded_with_opts(&input, &w, c, opts(mode, DpStrategy::Scan)).unwrap();
            assert_eq!(reference.reduction.sse(), 0.0);
            for strategy in [DpStrategy::Monge, DpStrategy::Auto] {
                let out = pta_size_bounded_with_opts(&input, &w, c, opts(mode, strategy)).unwrap();
                assert_eq!(
                    out.reduction.source_ranges(),
                    reference.reduction.source_ranges(),
                    "c {c} {mode:?} {strategy:?}"
                );
            }
        }
    }
}

/// *Near*-degenerate data (an integer staircase whose plateau costs carry
/// `~1e-13` rounding residue): mathematically tied splits compute ulps
/// apart, so boundary identity is not defined — but every strategy must
/// still return the same size and an SSE equal within that residue (here:
/// ~0 once `c` covers the plateaus), mirroring the cross-`DpMode` suite's
/// treatment of non-unique optima.
#[test]
fn near_degenerate_data_stays_optimal_within_residue() {
    let staircase: Vec<f64> = (0..60).map(|t| f64::from(t / 8)).collect();
    let input = series(&staircase);
    let w = Weights::uniform(1);
    for c in 1..input.len() {
        let reference =
            pta_size_bounded_with_opts(&input, &w, c, opts(DpMode::Table, DpStrategy::Scan))
                .unwrap();
        for mode in MODES {
            for strategy in [DpStrategy::Monge, DpStrategy::Auto] {
                let out = pta_size_bounded_with_opts(&input, &w, c, opts(mode, strategy)).unwrap();
                assert_eq!(out.reduction.len(), reference.reduction.len());
                assert!(
                    (out.reduction.sse() - reference.reduction.sse()).abs()
                        <= 1e-9 * (1.0 + reference.reduction.sse()),
                    "c {c} {mode:?} {strategy:?}: {} vs {}",
                    out.reduction.sse(),
                    reference.reduction.sse()
                );
            }
        }
        // 8 plateaus: any c ≥ 8 must reach (numerical) zero error.
        if c >= 8 {
            assert!(reference.reduction.sse() < 1e-9);
        }
    }
}

/// The facade knob reaches the core: `PtaQuery::dp_strategy` produces the
/// same reduction under every strategy and reports it in the stats.
#[test]
fn facade_dp_strategy_knob_is_equivalent() {
    use pta::{Agg, Algorithm, Bound, ExecutionStats, PtaQuery};
    let relation = pta_datasets::proj_relation();
    let mut reference = None;
    for strategy in STRATEGIES {
        let out = PtaQuery::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .bound(Bound::Size(4))
            .algorithm(Algorithm::Exact)
            .dp_strategy(strategy)
            .execute(&relation)
            .unwrap();
        let ExecutionStats::Exact(stats) = &out.stats else {
            panic!("exact execution must report DP stats");
        };
        assert_eq!(stats.strategy, strategy);
        let sse = out.reduction.sse();
        match reference {
            None => reference = Some(sse),
            Some(r) => assert_eq!(sse.to_bits(), f64::to_bits(r), "{strategy:?}"),
        }
    }
}

/// The ε-grid of the approx suite: from "barely distinguishable from
/// exact" to "anything within 2× goes".
const APPROX_EPS_GRID: [f64; 5] = [0.01, 0.05, 0.1, 0.3, 1.0];

/// The certified `(1 + ε)` tier: across both backtracking modes, thread
/// budgets 1/2/4, gap-rich/flat/trendy inputs, and the full ε-grid, the
/// approximate SSE stays within `(1 + ε)` of the exact scan's optimum,
/// the reported certificate bounds what was delivered, and every thread
/// budget returns bit-identical results.
#[test]
fn approx_bound_holds_across_modes_threads_and_eps_grid() {
    let inputs = [
        ("gap-rich", random_sequential_continuous(950, 64, 1, 0.08, 0.15)),
        ("flat", random_sequential_trendy(951, 80, 1, 0.0, 0.0, 0.5)),
        ("trendy", random_sequential_trendy(952, 80, 1, 0.05, 0.1, 0.02)),
    ];
    for (name, input) in &inputs {
        let w = weights_for(1);
        let c = (input.len() / 4).max(input.cmin());
        for mode in MODES {
            let exact =
                pta_size_bounded_with_opts(input, &w, c, opts(mode, DpStrategy::Scan)).unwrap();
            for eps in APPROX_EPS_GRID {
                let mut sequential_bits = None;
                for threads in [1usize, 2, 4] {
                    let o = DpOptions { threads, ..opts(mode, DpStrategy::Approx(eps)) };
                    let out = pta_size_bounded_with_opts(input, &w, c, o).unwrap();
                    assert!(
                        out.reduction.sse()
                            <= (1.0 + eps) * exact.reduction.sse()
                                + 1e-9 * (1.0 + exact.reduction.sse()),
                        "{name} {mode:?} eps {eps} threads {threads}: {} vs exact {}",
                        out.reduction.sse(),
                        exact.reduction.sse()
                    );
                    assert!(
                        out.stats.certified_ratio >= 1.0 && out.stats.certified_ratio <= 1.0 + eps,
                        "{name} {mode:?} eps {eps} threads {threads}: ratio {}",
                        out.stats.certified_ratio
                    );
                    assert_eq!(out.stats.strategy, DpStrategy::Approx(eps));
                    // Bit-identity across budgets: the sparsified rows are
                    // built before any fan-out, so chunking cannot move a
                    // single candidate evaluation.
                    let bits =
                        (out.reduction.sse().to_bits(), out.reduction.source_ranges().to_vec());
                    match &sequential_bits {
                        None => sequential_bits = Some(bits),
                        Some(reference) => assert_eq!(
                            &bits, reference,
                            "{name} {mode:?} eps {eps} threads {threads}: thread-dependent result"
                        ),
                    }
                }
            }
        }
    }
}

/// `Approx(0)` is the exact scan, bit for bit — boundaries, SSE bits,
/// and the work counters (the zero-ε run never enters the sparsified
/// machinery; it falls through to the exact path under the approx
/// label).
#[test]
fn approx_zero_eps_is_bit_identical_to_scan() {
    for (seed, flip) in [(960, 0.4), (961, 0.02)] {
        let input = random_sequential_trendy(seed, 72, 1, 0.05, 0.1, flip);
        let w = weights_for(1);
        for mode in MODES {
            for c in input.cmin()..input.len() {
                let scan = pta_size_bounded_with_opts(&input, &w, c, opts(mode, DpStrategy::Scan))
                    .unwrap();
                let zero =
                    pta_size_bounded_with_opts(&input, &w, c, opts(mode, DpStrategy::Approx(0.0)))
                        .unwrap();
                assert_eq!(
                    zero.reduction.source_ranges(),
                    scan.reduction.source_ranges(),
                    "seed {seed} c {c} {mode:?}"
                );
                assert_eq!(
                    zero.reduction.sse().to_bits(),
                    scan.reduction.sse().to_bits(),
                    "seed {seed} c {c} {mode:?}"
                );
                assert_eq!(zero.stats.cells, scan.stats.cells, "seed {seed} c {c} {mode:?}");
                assert_eq!(zero.stats.scan_cells, scan.stats.scan_cells);
                assert_eq!(zero.stats.strategy, DpStrategy::Approx(0.0));
                assert_eq!(zero.stats.certified_ratio.to_bits(), 1.0f64.to_bits());
            }
        }
    }
}

/// `PTAε` under the approx tier: the returned reduction satisfies the
/// error bound outright (the sparsified upper bracket dominates the
/// exact row values), never undercuts the exact minimal size, and
/// carries its certificate.
#[test]
fn approx_error_bounded_satisfies_bound_and_certifies() {
    for (seed, flip) in [(970, 0.02), (971, 0.35)] {
        let input = random_sequential_trendy(seed, 64, 1, 0.05, 0.1, flip);
        let w = weights_for(1);
        let emax = pta_core::max_error(&input, &w).unwrap();
        for eps_bound in [0.01, 0.1, 0.3, 0.7, 1.0] {
            for mode in MODES {
                let exact = pta_error_bounded_with_opts(
                    &input,
                    &w,
                    eps_bound,
                    opts(mode, DpStrategy::Scan),
                )
                .unwrap();
                let out = pta_error_bounded_with_opts(
                    &input,
                    &w,
                    eps_bound,
                    opts(mode, DpStrategy::Approx(0.1)),
                )
                .unwrap();
                assert!(
                    out.reduction.sse() <= eps_bound * emax + 1e-6 * (1.0 + emax),
                    "seed {seed} eps {eps_bound} {mode:?}: sse {} over budget",
                    out.reduction.sse()
                );
                assert!(
                    out.reduction.len() >= exact.reduction.len(),
                    "seed {seed} eps {eps_bound} {mode:?}: approx size {} under exact minimum {}",
                    out.reduction.len(),
                    exact.reduction.len()
                );
                assert!(
                    out.stats.certified_ratio >= 1.0 && out.stats.certified_ratio <= 1.1,
                    "seed {seed} eps {eps_bound} {mode:?}: ratio {}",
                    out.stats.certified_ratio
                );
            }
        }
    }
}

/// The error-vs-size curve under the approx tier: every finite entry is
/// within `(1 + ε)` of the exact curve and never below it (upper
/// bracket); infinite entries (sizes below `cmin`) agree exactly.
#[test]
fn approx_curve_brackets_the_exact_curve() {
    for (seed, flip) in [(980, 0.015), (981, 0.3)] {
        let input = random_sequential_trendy(seed, 120, 1, 0.0, 0.0, flip);
        let w = weights_for(1);
        let kmax = 50;
        let exact = curve(&input, &w, kmax, DpStrategy::Scan);
        for eps in [0.01, 0.1, 0.5] {
            let approx = curve(&input, &w, kmax, DpStrategy::Approx(eps));
            assert_eq!(exact.len(), approx.len());
            for (k, (e, a)) in exact.iter().zip(&approx).enumerate() {
                if e.is_infinite() {
                    assert!(a.is_infinite(), "seed {seed} eps {eps} size {}", k + 1);
                    continue;
                }
                assert!(
                    *a >= *e - 1e-9 * (1.0 + e),
                    "seed {seed} eps {eps} size {}: upper bracket {a} below optimum {e}",
                    k + 1
                );
                assert!(
                    *a <= (1.0 + eps) * *e + 1e-9 * (1.0 + e),
                    "seed {seed} eps {eps} size {}: {a} vs optimum {e}",
                    k + 1
                );
            }
        }
    }
}

/// The facade knob reaches the approx tier end to end: the query reports
/// the approx strategy and its certificate, and the SSE honors the bound
/// against the exact run of the same query.
#[test]
fn facade_approx_strategy_reports_certificate() {
    use pta::{Agg, Algorithm, Bound, ExecutionStats, PtaQuery};
    let relation = pta_datasets::proj_relation();
    let query = |strategy: DpStrategy| {
        PtaQuery::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal").as_output("AvgSal"))
            .bound(Bound::Size(4))
            .algorithm(Algorithm::Exact)
            .dp_strategy(strategy)
            .execute(&relation)
            .unwrap()
    };
    let exact = query(DpStrategy::Auto);
    let approx = query(DpStrategy::Approx(0.1));
    let ExecutionStats::Exact(stats) = &approx.stats else {
        panic!("exact execution must report DP stats");
    };
    assert_eq!(stats.strategy, DpStrategy::Approx(0.1));
    assert!(stats.certified_ratio >= 1.0 && stats.certified_ratio <= 1.1);
    assert!(approx.reduction.sse() <= 1.1 * exact.reduction.sse() + 1e-9);
}

/// Paper-scale release smoke: exact PTA over a gap-free monotone trend
/// of two million tuples under `Monge × DivideConquer` — `O(c · n)` time
/// *and* `O(n)` memory — and it beats the Scan strategy's wall time on
/// an input 62× smaller (Scan is quadratic on this data; at n = 2·10⁶ it
/// would need ~4000× the work of its n = 32 000 run and is not runnable
/// in test time). Correctness at scale: the table path reproduces the
/// divide-and-conquer boundaries, the reduction's SSE survives
/// recomputation, and greedy merging never beats the optimum. Run with
/// `cargo test --release -- --include-ignored`.
#[test]
#[ignore = "paper-scale smoke test; run in release"]
fn monge_scales_to_two_million_tuples() {
    use std::time::Instant;
    let big = pta_datasets::uniform::trend(2_000_000, 1, 77);
    let small = pta_datasets::uniform::trend(32_000, 1, 78);
    let w = Weights::uniform(1);
    let c = 8;

    let start = Instant::now();
    let monge_dnc =
        pta_size_bounded_with_opts(&big, &w, c, opts(DpMode::DivideConquer, DpStrategy::Monge))
            .unwrap();
    let monge_wall = start.elapsed();
    assert_eq!(monge_dnc.stats.mode, DpExecMode::DivideConquer);
    assert!(monge_dnc.stats.peak_rows <= 4, "O(n) memory: {} rows", monge_dnc.stats.peak_rows);
    assert_eq!(monge_dnc.reduction.len(), c);
    assert!(monge_dnc.stats.monge_cells > 0, "the certificate must fire on a pure trend");

    // Table-mode backtracking agrees at scale (c · (n + 1) entries still
    // fit comfortably at c = 8).
    let monge_table =
        pta_size_bounded_with_opts(&big, &w, c, opts(DpMode::Table, DpStrategy::Monge)).unwrap();
    assert_eq!(
        monge_table.reduction.source_ranges(),
        monge_dnc.reduction.source_ranges(),
        "table vs divide-and-conquer at n = 2e6"
    );

    // The claimed SSE is real, and optimal ≤ greedy.
    let recomputed = monge_dnc.reduction.recompute_sse(&big, &w);
    assert!(
        (monge_dnc.reduction.sse() - recomputed).abs() <= 1e-6 * (1.0 + recomputed),
        "sse {} vs recomputed {recomputed}",
        monge_dnc.reduction.sse()
    );
    let greedy = gms_size_bounded(&big, &w, c, GapPolicy::Strict, CancelToken::inert()).unwrap();
    assert!(monge_dnc.reduction.sse() <= greedy.stats.total_error + 1e-6);

    // Scan at a 62×-smaller input, same mode, same c — Monge at 2·10⁶
    // must still win, on wall time and on split evaluations.
    let start = Instant::now();
    let scan_small =
        pta_size_bounded_with_opts(&small, &w, c, opts(DpMode::DivideConquer, DpStrategy::Scan))
            .unwrap();
    let scan_wall = start.elapsed();
    assert!(
        monge_wall < scan_wall,
        "monge at n=2e6 took {monge_wall:?}, scan at n=32e3 took {scan_wall:?}"
    );
    assert!(
        monge_dnc.stats.cells < scan_small.stats.cells,
        "monge cells {} at n=2e6 vs scan cells {} at n=32e3",
        monge_dnc.stats.cells,
        scan_small.stats.cells
    );
}
