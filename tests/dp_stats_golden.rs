//! Golden pin of the exact and approximate DP: boundaries, SSE bits,
//! curve bits and every `DpStats` counter of a fixed grid of runs, read
//! against `tests/golden/dp_stats.txt`.
//!
//! The other DP suites compare runs with each other (strategy against
//! strategy, mode against mode, thread budget against thread budget).
//! This one compares every run with a recorded value, so a refactor of
//! the row engine that shifts a counter, a certificate or a tie-break
//! shows up even when it shifts every strategy alike. All runs use one
//! thread; thread invariance is pinned by `parallel_equivalence`.
//!
//! The grid covers the stride schedule of `DpStrategy::Approx`: the
//! gap-free unsorted input (`n = 256`) at `c = 10`, `ε = 0.5` probes
//! strides `[8, 2, 1]`, so sparsified probes, the 4× refinement and the exact
//! stride-1 fallback all appear in the file.
//!
//! Every input but the last is one-dimensional under unit weights. The
//! last has `p = 3` and non-uniform weights, so the range-SSE kernel's
//! any-`p` path is pinned too, not only its `p = 1` path.

mod common;

use std::fmt::Write as _;

use common::{fig1c, random_sequential_continuous, random_sequential_trendy};
use pta_core::{
    optimal_error_curve_with_cancel, pta_error_bounded_with_opts, pta_size_bounded_naive,
    pta_size_bounded_no_early_break, pta_size_bounded_with_opts, CancelToken, DpMode, DpOptions,
    DpOutcome, DpStats, DpStrategy, Weights,
};
use pta_temporal::SequentialRelation;

const GOLDEN: &str = include_str!("golden/dp_stats.txt");

const MODES: [DpMode; 2] = [DpMode::Table, DpMode::DivideConquer];

const STRATEGIES: [DpStrategy; 6] = [
    DpStrategy::Scan,
    DpStrategy::Monge,
    DpStrategy::Auto,
    DpStrategy::Approx(0.0),
    DpStrategy::Approx(0.1),
    DpStrategy::Approx(0.5),
];

/// The inputs of the grid, each with the SSE weights its runs use.
fn inputs() -> Vec<(&'static str, SequentialRelation, Weights)> {
    let unit = || Weights::uniform(1);
    vec![
        ("fig1c", fig1c(), unit()),
        ("gap-rich", random_sequential_continuous(1401, 160, 1, 0.06, 0.12), unit()),
        ("gap-free", random_sequential_trendy(1402, 256, 1, 0.0, 0.0, 0.5), unit()),
        ("trend", random_sequential_trendy(1403, 160, 1, 0.0, 0.0, 0.0), unit()),
        (
            "p3-weighted",
            random_sequential_continuous(1404, 120, 3, 0.06, 0.12),
            Weights::new(&[1.0, 0.5, 2.0]).expect("valid weights"),
        ),
    ]
}

/// A run's `DpStats` as text. Runs that pin a thread budget record it;
/// the naive baselines take no options and run at the process default,
/// which depends on the machine and `PTA_THREADS`, so their budget is
/// checked against that default and recorded as `default`.
fn stats_text(s: &DpStats, pinned_threads: bool) -> String {
    let threads = if pinned_threads {
        s.threads.to_string()
    } else {
        assert_eq!(s.threads, pta_pool::default_threads(), "unpinned runs use the default");
        "default".to_string()
    };
    format!(
        "rows={} cells={} scan={} monge={} peak={} mode={:?} strategy={:?} threads={threads} ratio={:#018x}",
        s.rows,
        s.cells,
        s.scan_cells,
        s.monge_cells,
        s.peak_rows,
        s.mode,
        s.strategy,
        s.certified_ratio.to_bits()
    )
}

fn outcome_text(out: &DpOutcome, pinned_threads: bool) -> String {
    let bounds: Vec<String> = out
        .reduction
        .source_ranges()
        .iter()
        .map(|r| r.start)
        .chain(out.reduction.source_ranges().last().map(|r| r.end))
        .map(|b| b.to_string())
        .collect();
    format!(
        "bounds={} sse={:#018x} {}",
        bounds.join(","),
        out.reduction.sse().to_bits(),
        stats_text(&out.stats, pinned_threads)
    )
}

fn opts(mode: DpMode, strategy: DpStrategy) -> DpOptions {
    DpOptions::default().with_mode(mode).with_strategy(strategy).with_threads(1)
}

/// Every run of the grid, one `id: result` line each, in a fixed order.
fn actual_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (name, input, w) in inputs() {
        let n = input.len();
        let cmin = input.cmin();
        let mut sizes = vec![cmin, (n / 4).max(cmin)];
        if (cmin..n).contains(&10) {
            sizes.push(10);
        }
        sizes.dedup();
        for &c in &sizes {
            for mode in MODES {
                for strategy in STRATEGIES {
                    let out = pta_size_bounded_with_opts(&input, &w, c, opts(mode, strategy))
                        .expect("size-bounded run");
                    rows.push(format!(
                        "{name} size c={c} {mode:?} {strategy:?}: {}",
                        outcome_text(&out, true)
                    ));
                }
            }
            let naive = pta_size_bounded_naive(&input, &w, c).expect("naive run");
            rows.push(format!("{name} size c={c} naive: {}", outcome_text(&naive, false)));
            let no_break = pta_size_bounded_no_early_break(&input, &w, c).expect("no-break run");
            rows.push(format!(
                "{name} size c={c} no-early-break: {}",
                outcome_text(&no_break, false)
            ));
        }
        // A budget of three split-point rows forces divide-and-conquer
        // recovery whenever the satisfying row lies deeper.
        let budget = DpMode::Budget(3 * (n + 1));
        for eps in [0.05, 0.3] {
            for mode in [DpMode::Table, DpMode::DivideConquer, budget] {
                for strategy in STRATEGIES {
                    let out = pta_error_bounded_with_opts(&input, &w, eps, opts(mode, strategy))
                        .expect("error-bounded run");
                    rows.push(format!(
                        "{name} error eps={eps} {mode:?} {strategy:?}: {}",
                        outcome_text(&out, true)
                    ));
                }
            }
        }
        let kmax = (n / 3).max(1);
        for strategy in STRATEGIES {
            let curve = optimal_error_curve_with_cancel(
                &input,
                &w,
                kmax,
                strategy,
                1,
                CancelToken::inert(),
            )
            .expect("curve run");
            let mut text = String::new();
            for (k, v) in curve.iter().enumerate() {
                if k > 0 {
                    text.push(',');
                }
                let _ = write!(text, "{:x}", v.to_bits());
            }
            rows.push(format!("{name} curve kmax={kmax} {strategy:?}: {text}"));
        }
    }
    rows
}

#[test]
fn dp_runs_match_the_golden_file() {
    let expected: Vec<&str> =
        GOLDEN.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let actual = actual_rows();
    let mut report = String::new();
    for i in 0..expected.len().max(actual.len()) {
        let (want, got) = (expected.get(i).copied(), actual.get(i).map(String::as_str));
        if want != got {
            let _ = writeln!(report, "row {i}:");
            let _ = writeln!(report, "- {}", want.unwrap_or("<missing>"));
            let _ = writeln!(report, "+ {}", got.unwrap_or("<missing>"));
        }
    }
    assert!(report.is_empty(), "DP runs differ from tests/golden/dp_stats.txt:\n{report}");
}
