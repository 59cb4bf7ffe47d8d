//! Parallel-vs-sequential equivalence suite: the threaded DP row fills
//! are *bit-identical* to sequential execution — same boundaries, same
//! SSE bits, same evaluation counters — across both backtracking modes,
//! both row strategies, and gap-rich / trendy / flat inputs; the optimal
//! error curve and the chunked CSV ingest agree the same way.
//!
//! Determinism is by construction (the parallel fill partitions each
//! row's scan windows into chunks that evaluate exactly the sequential
//! candidate sequence per cell, and Monge windows are solved whole on
//! one worker); this suite pins the implementation to it through the
//! public entry points, at thread budgets well above the row count's
//! chunking sweet spot and on a 1-core container alike. Its inputs are
//! small enough that no single row clears the row fan-out gate; the `dp`
//! unit test `parallel_rows_are_bit_identical_to_sequential` pins the
//! chunked row fill itself.

mod common;

use common::{fig1c, random_sequential_continuous, random_sequential_trendy};
use pta_core::{
    optimal_error_curve_with_cancel, pta_error_bounded_with_opts, pta_size_bounded_with_opts,
    CancelToken, DpMode, DpOptions, DpStrategy, GapPolicy, Weights,
};
use pta_temporal::SequentialRelation;

const MODES: [DpMode; 2] = [DpMode::Table, DpMode::DivideConquer];
const STRATEGIES: [DpStrategy; 2] = [DpStrategy::Scan, DpStrategy::Monge];

fn opts(mode: DpMode, strategy: DpStrategy, threads: usize) -> DpOptions {
    DpOptions { policy: GapPolicy::Strict, mode, strategy, threads, ..DpOptions::default() }
}

/// The error-vs-size curve under `strategy` at a thread budget.
fn curve(
    input: &SequentialRelation,
    w: &Weights,
    kmax: usize,
    strategy: DpStrategy,
    threads: usize,
) -> Vec<f64> {
    optimal_error_curve_with_cancel(input, w, kmax, strategy, threads, CancelToken::inert())
        .unwrap()
}

/// The three §7 input classes the row fills behave differently on.
fn inputs() -> Vec<(&'static str, SequentialRelation)> {
    vec![
        // Gap-rich: many small forced/open windows per row.
        ("gap_rich", random_sequential_continuous(700, 220, 2, 0.06, 0.2)),
        // Trendy gap-free: Monge-certified windows.
        ("trendy", random_sequential_trendy(701, 260, 1, 0.0, 0.0, 0.02)),
        // Wiggly gap-free: one wide scan window per row. At n = 260 a
        // row's estimated work (about 34k split points) stays below the
        // row fan-out gate (`PAR_MIN_ROW_WORK`, 65,536), so even these
        // rows fill sequentially.
        ("flat", random_sequential_continuous(702, 260, 1, 0.0, 0.0)),
    ]
}

/// `PTAc`: identical boundaries, SSE bits, and cell counters at thread
/// budgets 2, 4 and 9 versus 1, for every mode × strategy × input class.
#[test]
fn size_bounded_is_bit_identical_across_thread_budgets() {
    for (name, input) in inputs() {
        let p = input.dims();
        let w = Weights::uniform(p);
        for c in [input.cmin().max(2), input.len() / 8, input.len() / 2] {
            let c = c.clamp(input.cmin().max(1), input.len());
            for mode in MODES {
                for strategy in STRATEGIES {
                    let seq =
                        pta_size_bounded_with_opts(&input, &w, c, opts(mode, strategy, 1)).unwrap();
                    assert_eq!(seq.stats.threads, 1);
                    for threads in [2usize, 4, 9] {
                        let par = pta_size_bounded_with_opts(
                            &input,
                            &w,
                            c,
                            opts(mode, strategy, threads),
                        )
                        .unwrap();
                        let tag = format!("{name} c={c} {mode:?} {strategy:?} threads={threads}");
                        assert_eq!(par.stats.threads, threads, "{tag}");
                        assert_eq!(
                            par.reduction.source_ranges(),
                            seq.reduction.source_ranges(),
                            "{tag}: boundaries"
                        );
                        assert_eq!(
                            par.reduction.sse().to_bits(),
                            seq.reduction.sse().to_bits(),
                            "{tag}: sse bits"
                        );
                        assert_eq!(par.stats.cells, seq.stats.cells, "{tag}: cells");
                        assert_eq!(par.stats.scan_cells, seq.stats.scan_cells, "{tag}: scan");
                        assert_eq!(par.stats.monge_cells, seq.stats.monge_cells, "{tag}: monge");
                    }
                }
            }
        }
    }
}

/// `PTAε`: same equivalence across the ε grid (the row loop with the
/// early-stop on the satisfying row — the parallel fill must not change
/// which row satisfies first).
#[test]
fn error_bounded_is_bit_identical_across_thread_budgets() {
    for (name, input) in inputs() {
        let w = Weights::uniform(input.dims());
        for eps in [0.0, 0.05, 0.3, 1.0] {
            for mode in MODES {
                let seq =
                    pta_error_bounded_with_opts(&input, &w, eps, opts(mode, DpStrategy::Auto, 1))
                        .unwrap();
                for threads in [3usize, 8] {
                    let par = pta_error_bounded_with_opts(
                        &input,
                        &w,
                        eps,
                        opts(mode, DpStrategy::Auto, threads),
                    )
                    .unwrap();
                    let tag = format!("{name} eps={eps} {mode:?} threads={threads}");
                    assert_eq!(par.reduction.len(), seq.reduction.len(), "{tag}: size");
                    assert_eq!(
                        par.reduction.source_ranges(),
                        seq.reduction.source_ranges(),
                        "{tag}: boundaries"
                    );
                    assert_eq!(
                        par.reduction.sse().to_bits(),
                        seq.reduction.sse().to_bits(),
                        "{tag}: sse bits"
                    );
                    assert_eq!(par.stats.cells, seq.stats.cells, "{tag}: cells");
                }
            }
        }
    }
}

/// The whole error-vs-size curve (the Comparator's grid fast path) is
/// bit-identical at any thread budget.
#[test]
fn error_curves_are_bit_identical_across_thread_budgets() {
    for (name, input) in inputs() {
        let w = Weights::uniform(input.dims());
        let kmax = input.len() / 2;
        for strategy in STRATEGIES {
            let seq = curve(&input, &w, kmax, strategy, 1);
            for threads in [2usize, 6] {
                let par = curve(&input, &w, kmax, strategy, threads);
                assert_eq!(par.len(), seq.len());
                for k in 0..kmax {
                    assert_eq!(
                        par[k].to_bits(),
                        seq[k].to_bits(),
                        "{name} {strategy:?} threads={threads} size={}",
                        k + 1
                    );
                }
            }
        }
    }
}

/// The running example stays exact under any budget — the smallest
/// end-to-end smoke the paper's numbers pin.
#[test]
fn running_example_is_exact_at_any_budget() {
    let input = fig1c();
    let w = Weights::uniform(1);
    for threads in [1usize, 2, 4] {
        let out = pta_size_bounded_with_opts(
            &input,
            &w,
            4,
            opts(DpMode::Table, DpStrategy::Auto, threads),
        )
        .unwrap();
        assert_eq!(out.reduction.len(), 4);
        assert!((out.reduction.sse() - 49_166.666_667).abs() < 1e-3, "threads={threads}");
    }
}

/// The parallel CSV reader produces the identical relation through the
/// public facade path the CLI uses.
#[test]
fn csv_ingest_is_row_identical_across_thread_budgets() {
    use pta_temporal::csv::{parse_schema, read_relation, read_relation_str};
    let mut text = String::from("Empl,Dept,Sal,t_start,t_end\n");
    for i in 0..400 {
        let start = (i * 2) as i64;
        text.push_str(&format!("e{},d{},{},{},{}\n", i % 7, i % 3, 500 + i, start, start + 1));
    }
    let schema = parse_schema("Empl:str,Dept:str,Sal:int").unwrap();
    let seq = read_relation(schema.clone(), text.as_bytes()).unwrap();
    for threads in [0usize, 1, 2, 4] {
        assert_eq!(read_relation_str(schema.clone(), &text, threads).unwrap(), seq, "{threads}");
    }
}
