//! The DP algorithms really are optimal: they match an exhaustive search
//! over every feasible partition on small random inputs, and the pruned
//! and naive variants agree everywhere.

mod common;

use common::{brute_force_optimal, random_sequential, random_sequential_continuous};
use pta_core::{
    gms_size_bounded, optimal_error_curve, pta_error_bounded, pta_error_bounded_with_opts,
    pta_size_bounded, pta_size_bounded_naive, pta_size_bounded_with_opts, CancelToken, DpExecMode,
    DpMode, DpOptions, GapPolicy, Weights,
};
use pta_temporal::{GroupKey, SequentialBuilder, SequentialRelation, TimeInterval};

/// Default options with a pinned backtracking mode.
fn with_mode(mode: DpMode) -> DpOptions {
    DpOptions::default().with_mode(mode)
}

#[test]
fn dp_matches_brute_force_on_random_inputs() {
    for seed in 0..30 {
        let n = 3 + (seed as usize % 10);
        let input = random_sequential(seed, n, 1 + seed as usize % 2, 0.15, 0.2);
        let w = Weights::uniform(input.dims());
        let curve = optimal_error_curve(&input, &w, n).unwrap();
        for k in 1..=n {
            let expected = brute_force_optimal(&input, k);
            let got = curve[k - 1];
            if expected.is_infinite() {
                assert!(got.is_infinite(), "seed {seed} k {k}: got {got}, want inf");
            } else {
                assert!(
                    (got - expected).abs() < 1e-6 * (1.0 + expected),
                    "seed {seed} k {k}: got {got}, want {expected}"
                );
            }
        }
    }
}

#[test]
fn pruned_and_naive_dp_agree() {
    for seed in 100..130 {
        let input = random_sequential(seed, 20, 2, 0.1, 0.25);
        let w = Weights::uniform(2);
        for c in input.cmin()..=input.len() {
            let a = pta_size_bounded(&input, &w, c).unwrap();
            let b = pta_size_bounded_naive(&input, &w, c).unwrap();
            assert!(
                (a.reduction.sse() - b.reduction.sse()).abs() < 1e-6 * (1.0 + a.reduction.sse()),
                "seed {seed} c {c}"
            );
            assert!(a.stats.cells <= b.stats.cells, "pruning may not add work");
        }
    }
}

#[test]
fn greedy_never_beats_dp_and_is_logarithmically_close() {
    for seed in 200..220 {
        let input = random_sequential(seed, 40, 1, 0.05, 0.1);
        let w = Weights::uniform(1);
        for c in [input.cmin(), input.cmin() + 3, input.len() / 2] {
            let c = c.clamp(input.cmin(), input.len());
            let opt = pta_size_bounded(&input, &w, c).unwrap().reduction;
            let greedy =
                gms_size_bounded(&input, &w, c, GapPolicy::Strict, CancelToken::inert()).unwrap();
            assert!(
                greedy.stats.total_error >= opt.sse() - 1e-9,
                "seed {seed} c {c}: greedy {} < optimal {}",
                greedy.stats.total_error,
                opt.sse()
            );
            // Thm. 1: the ratio is O(log n); assert a generous constant.
            if opt.sse() > 1e-9 {
                let ratio = greedy.stats.total_error / opt.sse();
                let bound = 4.0 * (input.len() as f64).ln().max(1.0);
                assert!(ratio <= bound, "seed {seed} c {c}: ratio {ratio} > {bound}");
            }
        }
    }
}

#[test]
fn error_bounded_is_minimal_and_within_budget() {
    for seed in 300..315 {
        let input = random_sequential(seed, 24, 1, 0.1, 0.15);
        let w = Weights::uniform(1);
        let emax = pta_core::max_error(&input, &w).unwrap();
        if emax <= 0.0 {
            continue;
        }
        let curve = optimal_error_curve(&input, &w, input.len()).unwrap();
        for eps in [0.05, 0.25, 0.6, 1.0] {
            let out = pta_error_bounded(&input, &w, eps).unwrap();
            let c = out.reduction.len();
            assert!(out.reduction.sse() <= eps * emax + 1e-6 * (1.0 + emax), "seed {seed}");
            // Minimality: the optimal error one size down busts the budget.
            if c > input.cmin() {
                assert!(
                    curve[c - 2] > eps * emax - 1e-6 * (1.0 + emax),
                    "seed {seed} eps {eps}: size {} would also satisfy the bound",
                    c - 1
                );
            }
        }
    }
}

/// Cross-mode equivalence: on randomized gap-rich and gap-free inputs,
/// the divide-and-conquer path, the materialized-table path, and the
/// unpruned naive DP produce identical boundaries and SSE for every
/// feasible size. Values are continuous, so the optimum is unique with
/// probability 1 and exact boundary equality is the right assertion.
#[test]
fn size_bounded_modes_and_naive_agree_on_boundaries() {
    for (seed, group_prob, gap_prob) in
        [(500, 0.1, 0.25), (501, 0.0, 0.3), (502, 0.15, 0.0), (503, 0.0, 0.0), (504, 0.05, 0.1)]
    {
        let input =
            random_sequential_continuous(seed, 48, 1 + seed as usize % 2, group_prob, gap_prob);
        let w = Weights::uniform(input.dims());
        for c in input.cmin()..input.len() {
            let table =
                pta_size_bounded_with_opts(&input, &w, c, with_mode(DpMode::Table)).unwrap();
            let dnc = pta_size_bounded_with_opts(&input, &w, c, with_mode(DpMode::DivideConquer))
                .unwrap();
            let naive = pta_size_bounded_naive(&input, &w, c).unwrap();
            assert_eq!(table.stats.mode, DpExecMode::Table);
            assert_eq!(dnc.stats.mode, DpExecMode::DivideConquer);
            assert_eq!(
                table.reduction.source_ranges(),
                dnc.reduction.source_ranges(),
                "seed {seed} c {c}: table vs divide-and-conquer"
            );
            assert_eq!(
                table.reduction.source_ranges(),
                naive.reduction.source_ranges(),
                "seed {seed} c {c}: table vs naive"
            );
            assert!(
                (table.reduction.sse() - dnc.reduction.sse()).abs()
                    < 1e-9 * (1.0 + table.reduction.sse()),
                "seed {seed} c {c}"
            );
            // Divide and conquer re-derives rows: ~2× the raw cell area,
            // though the early break prunes the two scan directions
            // differently, so allow generous slack on the counter.
            assert!(
                dnc.stats.cells <= 6 * table.stats.cells + c as u64,
                "seed {seed} c {c}: {} vs {}",
                dnc.stats.cells,
                table.stats.cells
            );
        }
    }
}

/// A continuous-valued series whose break-free runs have the given
/// lengths, in order: each run is consecutive instants, and one empty
/// chronon separates it from the next.
fn series_of_runs(seed: u64, lengths: &[usize]) -> SequentialRelation {
    let mut state = seed;
    let mut b = SequentialBuilder::new(1);
    let mut t = 0i64;
    for &len in lengths {
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (state >> 11) as f64 / (1u64 << 53) as f64;
            b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[v]).unwrap();
            t += 1;
        }
        t += 1;
    }
    b.build()
}

/// The exact size-bounded DP solves inputs with breaks run by run and
/// merges the runs' error curves. On the shapes that merge must handle —
/// forced and free runs mixed, a single free run, several free runs of
/// unequal length (one long enough to fill on the calling thread with its
/// rows fanned out), and free runs of comparable length (filled one run
/// per pool job) — every size from `cmin` to `n` (every 23rd on the
/// last, widest shape), under every backtracking mode, returns the
/// unpruned global DP's boundaries and SSE, bit-identically at one and
/// at four threads.
#[test]
fn run_decomposition_matches_the_global_dp() {
    let shapes: [(&str, Vec<usize>, usize); 4] = [
        (
            "singletons and pairs",
            vec![1, 2, 1, 1, 2, 2, 1, 2, 1, 1, 1, 2, 2, 1, 2, 1, 2, 2, 1, 1],
            1,
        ),
        ("one long run", vec![1, 1, 34, 1, 1, 1], 1),
        ("unequal free runs", vec![9, 3, 52, 1, 22, 5, 2, 14], 1),
        ("comparable free runs", vec![40, 2, 38, 1, 42, 3, 36, 1, 39, 37], 23),
    ];
    for (seed, (name, lengths, step)) in shapes.into_iter().enumerate() {
        let input = series_of_runs(1500 + seed as u64, &lengths);
        let n = input.len();
        assert_eq!(input.cmin(), lengths.len(), "{name}");
        let w = Weights::uniform(1);
        for c in (input.cmin()..=n).step_by(step) {
            let naive = pta_size_bounded_naive(&input, &w, c).unwrap();
            for mode in [DpMode::Table, DpMode::DivideConquer, DpMode::Budget(4 * (n + 1))] {
                let run = |threads| {
                    let opts = with_mode(mode).with_threads(threads);
                    pta_size_bounded_with_opts(&input, &w, c, opts).unwrap()
                };
                let (one, four) = (run(1), run(4));
                let tag = format!("{name} c {c} {mode:?}");
                assert_eq!(
                    one.reduction.source_ranges(),
                    naive.reduction.source_ranges(),
                    "{tag}: boundaries vs the global DP"
                );
                let (got, want) = (one.reduction.sse(), naive.reduction.sse());
                assert!((got - want).abs() <= 1e-9 * want.max(1e-300), "{tag}: {got} vs {want}");
                assert_eq!(one.reduction.source_ranges(), four.reduction.source_ranges(), "{tag}");
                assert_eq!(one.reduction.sse().to_bits(), four.reduction.sse().to_bits(), "{tag}");
                assert_eq!(
                    (one.stats.rows, one.stats.cells, one.stats.scan_cells, one.stats.peak_rows),
                    (
                        four.stats.rows,
                        four.stats.cells,
                        four.stats.scan_cells,
                        four.stats.peak_rows
                    ),
                    "{tag}: work counters depend on the thread budget"
                );
            }
        }
    }
}

/// Same cross-mode agreement for the error-bounded DP across an ε grid.
#[test]
fn error_bounded_modes_agree_on_boundaries() {
    for seed in 510..516 {
        let input = random_sequential_continuous(seed, 40, 1, 0.08, 0.15);
        let w = Weights::uniform(1);
        for eps in [0.0, 0.01, 0.1, 0.3, 0.7, 1.0] {
            let table =
                pta_error_bounded_with_opts(&input, &w, eps, with_mode(DpMode::Table)).unwrap();
            let dnc =
                pta_error_bounded_with_opts(&input, &w, eps, with_mode(DpMode::DivideConquer))
                    .unwrap();
            assert_eq!(
                table.reduction.source_ranges(),
                dnc.reduction.source_ranges(),
                "seed {seed} eps {eps}"
            );
            assert_eq!(table.reduction.len(), dnc.reduction.len());
            assert!(dnc.stats.peak_rows <= 4, "seed {seed} eps {eps}");
        }
    }
}

/// Regression for the PTAε memory blow-up: the old implementation grew the
/// split-point matrix by one `(n + 1)`-wide row per DP iteration (O(n²)
/// memory as ε → 0) and aborted mid-loop once the table cap was hit.
/// Under divide-and-conquer backtracking, ε near 0 on a few-thousand-tuple
/// input succeeds with a constant number of rows allocated.
#[test]
fn error_bounded_near_zero_epsilon_runs_in_bounded_memory() {
    // 100 blocks of 30 equal values: merges inside a block are free, so
    // PTAε with ε ≈ 0 needs exactly 100 rows — formerly 100 recorded
    // split-point rows, now none at all.
    let mut b = SequentialBuilder::new(1);
    let mut t = 0i64;
    for block in 0..100i64 {
        for _ in 0..30 {
            b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[(block * 7) as f64])
                .unwrap();
            t += 1;
        }
    }
    let input = b.build();
    let w = Weights::uniform(1);
    let dnc =
        pta_error_bounded_with_opts(&input, &w, 1e-12, with_mode(DpMode::DivideConquer)).unwrap();
    assert_eq!(dnc.reduction.len(), 100);
    assert!(dnc.reduction.sse() <= 1e-6);
    assert_eq!(dnc.stats.mode, DpExecMode::DivideConquer);
    assert!(dnc.stats.peak_rows <= 4, "peak rows {}", dnc.stats.peak_rows);
    // A small explicit budget records a few rows, overruns it, and still
    // finishes via divide-and-conquer recovery instead of aborting.
    let budget = pta_error_bounded_with_opts(
        &input,
        &w,
        1e-12,
        with_mode(DpMode::Budget(10 * (input.len() + 1))),
    )
    .unwrap();
    assert_eq!(budget.reduction.len(), 100);
    assert_eq!(budget.stats.mode, DpExecMode::DivideConquer);
    assert!(budget.stats.peak_rows <= 12, "peak rows {}", budget.stats.peak_rows);
    assert_eq!(budget.reduction.source_ranges(), dnc.reduction.source_ranges());
    // The table path agrees (and records all 100 rows).
    let table = pta_error_bounded_with_opts(&input, &w, 1e-12, with_mode(DpMode::Table)).unwrap();
    assert_eq!(table.reduction.source_ranges(), dnc.reduction.source_ranges());
    assert_eq!(table.stats.peak_rows, 102);
}

/// Large-n smoke test: exact PTA at n = 2·10⁶, far beyond the old
/// `MAX_TABLE_ENTRIES = 2²⁸` cap (`c · (n + 1) ≈ 4 · 10¹²` split-point
/// entries — the old implementation rejected this outright, and PTAε's
/// mid-loop cap check aborted at row 134). Gap-rich data, as in the
/// paper's large runs: 625 mergeable pairs spread over an otherwise
/// fully gapped relation keep every DP row window narrow. Run with
/// `cargo test --release -- --include-ignored` — too slow unoptimized.
#[test]
#[ignore = "large-n smoke test; run in release"]
fn exact_pta_succeeds_beyond_the_old_table_cap() {
    const OLD_CAP: usize = 1 << 28;
    let n: usize = 2_000_000;
    let pairs: usize = 625;
    let stride = n / pairs;
    // Every tuple is separated from its neighbours by a hole, except the
    // first two tuples of each stride block, which meet. Pair p (1-based)
    // merges two unit instants with values 0 and p — SSE p²/2 — so every
    // merge subset has a distinct cost and the optimum is unique.
    let mut b = SequentialBuilder::new(1);
    let mut t = 0i64;
    let mut pair_no = 0usize;
    for i in 0..n {
        let v = if i % stride == 1 {
            pair_no += 1;
            pair_no as f64
        } else {
            0.0
        };
        b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[v]).unwrap();
        t += if i % stride == 0 { 1 } else { 3 };
    }
    let input = b.build();
    assert_eq!(input.cmin(), n - pairs);
    let w = Weights::uniform(1);
    let pair_cost = |p: usize| (p * p) as f64 / 2.0;

    // PTAc: the optimum merges exactly the 500 cheapest pairs.
    let c = n - 500;
    assert!(c * (n + 1) > OLD_CAP, "must exceed the old hard cap");
    let out = pta_size_bounded(&input, &w, c).unwrap();
    assert_eq!(out.reduction.len(), c);
    assert_eq!(out.stats.mode, DpExecMode::DivideConquer);
    assert!(out.stats.peak_rows <= 4);
    let expected: f64 = (1..=500).map(pair_cost).sum();
    assert!(
        (out.reduction.sse() - expected).abs() < 1e-6 * expected,
        "sse {} vs expected {expected}",
        out.reduction.sse()
    );
    // The exact optimum is never worse than greedy merging.
    let greedy = gms_size_bounded(&input, &w, c, GapPolicy::Strict, CancelToken::inert()).unwrap();
    assert!(out.reduction.sse() <= greedy.stats.total_error + 1e-6);

    // PTAε at ε = 0.5: the minimal satisfying size is n − m where m is
    // the largest count of cheapest pairs whose summed cost fits half of
    // SSE_max — a row index around n − 496, astronomically past the
    // 134-row point where the old implementation's mid-loop table-cap
    // check aborted after all the work was spent.
    let emax: f64 = (1..=pairs).map(pair_cost).sum();
    let threshold = 0.5 * emax + 1e-9 * (1.0 + emax);
    let mut m = 0;
    let mut acc = 0.0;
    while acc + pair_cost(m + 1) <= threshold {
        m += 1;
        acc += pair_cost(m);
    }
    let eb = pta_error_bounded(&input, &w, 0.5).unwrap();
    assert_eq!(eb.reduction.len(), n - m);
    assert_eq!(eb.stats.mode, DpExecMode::DivideConquer);
    assert!(eb.stats.peak_rows <= 32, "peak rows {}", eb.stats.peak_rows);
    assert!((eb.reduction.sse() - acc).abs() < 1e-6 * (1.0 + acc));
}

#[test]
fn reductions_reproduce_their_claimed_error() {
    for seed in 400..420 {
        let input = random_sequential(seed, 30, 3, 0.1, 0.1);
        let w = Weights::uniform(3);
        let c = (input.cmin() + input.len()) / 2;
        let out = pta_size_bounded(&input, &w, c).unwrap();
        let recomputed = out.reduction.recompute_sse(&input, &w);
        assert!(
            (out.reduction.sse() - recomputed).abs() < 1e-6 * (1.0 + recomputed),
            "seed {seed}: {} vs {}",
            out.reduction.sse(),
            recomputed
        );
        out.reduction.relation().validate().unwrap();
        assert_eq!(out.reduction.len(), c);
    }
}
