//! DP backtracking-mode and row-strategy benchmark with machine-readable
//! output: times `PTAc` and `PTAε` under the materialized-table and
//! divide-and-conquer modes, and the Scan-vs-Monge row minimization
//! strategies, writing `BENCH_dp.json` — one record per run with `n`,
//! `c`, the executed mode, the requested strategy, wall time, peak rows,
//! and the split-point evaluation counters (total / scan / Monge) — so
//! the perf trajectory of the exact DP is tracked from PR to PR.
//!
//! Two fixed-size studies run at every scale on gap-free data:
//!
//! * `trend` (monotone values, Monge-certified): the strategy's
//!   superlinear win — Monge cells grow linearly in `n` where Scan cells
//!   grow quadratically; the binary *asserts* Monge ≤ Scan cells and
//!   Monge-beats-Scan wall time here, so the optimization cannot
//!   silently regress.
//! * `flat` (uniform values, no certificate): the exactness guard —
//!   Monge must fall back to the scan, cell-for-cell.
//!
//! An `approx` study runs the certified `(1 + ε)` tier
//! (`DpStrategy::Approx`) on the same flat and trend points at
//! ε ∈ {0.01, 0.1}: every record carries the a posteriori
//! `certified_ratio` it proved, the binary *asserts*
//! `certified_ratio ≤ 1 + ε` on every approx record, and on the flat
//! (non-Monge) point at the largest size the ε = 0.1 tier must beat the
//! exact scan by ≥5× split-point evaluations *and* on wall time — the
//! quadratic-wall escape the tier exists for.
//!
//! A third study measures the threaded row fills: the flat/Scan/Table
//! point at `n = 4000` under thread budgets 1, 2 and the process default.
//! The mode and strategy studies pin `threads = 1` so their committed
//! trajectory stays comparable across machines; the threads study is
//! where budgets vary. Its guards assert that a 2-thread budget never
//! costs more than 10 % over sequential (cheap-chunk overhead stays
//! bounded even on one core) and — whenever the default budget resolves
//! to 2+ workers, i.e. on real multi-core runners — that the default
//! budget actually delivers a `min(2, 0.6·T)`-fold wall-time reduction.
//!
//! The exit code is non-zero when an assertion fails, which is what the
//! CI step relies on.

use std::fmt::Write as _;
use std::time::Duration;

use pta_bench::{fmt, print_table, row, time, HarnessArgs, Scale};
use pta_core::{
    pta_error_bounded_with_opts, pta_size_bounded_with_opts, CancelToken, DpExecMode, DpMode,
    DpOptions, DpOutcome, DpStrategy, GapPolicy, Weights,
};
use pta_datasets::uniform;
use pta_temporal::SequentialRelation;

struct Record {
    algorithm: &'static str,
    dataset: &'static str,
    n: usize,
    c: usize,
    mode: DpExecMode,
    strategy: DpStrategy,
    threads: usize,
    wall_ms: f64,
    peak_rows: usize,
    cells: u64,
    scan_cells: u64,
    monge_cells: u64,
    /// The requested ε of an approx-tier run; `None` for exact runs
    /// (serialized as JSON `null`).
    eps: Option<f64>,
    /// The a posteriori certified approximation ratio: 1.0 for exact
    /// runs, the proved `≤ 1 + ε` quotient for approx runs.
    certified_ratio: f64,
}

fn mode_name(mode: DpExecMode) -> &'static str {
    match mode {
        DpExecMode::Table => "table",
        DpExecMode::DivideConquer => "divide_and_conquer",
    }
}

fn record(
    algorithm: &'static str,
    dataset: &'static str,
    n: usize,
    strategy: DpStrategy,
    out: &DpOutcome,
    wall_ms: f64,
) -> Record {
    Record {
        algorithm,
        dataset,
        n,
        c: out.reduction.len(),
        mode: out.stats.mode,
        strategy,
        threads: out.stats.threads,
        wall_ms,
        peak_rows: out.stats.peak_rows,
        cells: out.stats.cells,
        scan_cells: out.stats.scan_cells,
        monge_cells: out.stats.monge_cells,
        eps: strategy.eps(),
        certified_ratio: out.stats.certified_ratio,
    }
}

fn json(records: &[Record]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let eps = match r.eps {
            Some(e) => format!("{e}"),
            None => "null".to_string(),
        };
        let _ = write!(
            s,
            "  {{\"algorithm\": \"{}\", \"dataset\": \"{}\", \"n\": {}, \"c\": {}, \
             \"mode\": \"{}\", \"strategy\": \"{}\", \"threads\": {}, \"wall_ms\": {:.3}, \
             \"peak_rows\": {}, \"cells\": {}, \"scan_cells\": {}, \"monge_cells\": {}, \
             \"eps\": {}, \"certified_ratio\": {:.9}}}",
            r.algorithm,
            r.dataset,
            r.n,
            r.c,
            mode_name(r.mode),
            r.strategy.name(),
            r.threads,
            r.wall_ms,
            r.peak_rows,
            r.cells,
            r.scan_cells,
            r.monge_cells,
            eps,
            r.certified_ratio
        );
        s.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    s.push_str("]\n");
    s
}

/// The strategy study: Scan vs Monge × Table vs divide-and-conquer on
/// gap-free data at fixed sizes, every scale — the committed perf
/// trajectory the acceptance assertions read.
const STRATEGY_SIZES: [usize; 3] = [1_000, 2_000, 4_000];
const STRATEGY_C: usize = 64;

/// The ε grid of the approx study: the tight budget where certification
/// has to work hard, and the default the registry's `approx` entry runs.
const APPROX_EPS: [f64; 2] = [0.01, 0.1];

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "DP backtracking modes and row strategies — table vs divide-and-conquer, \
         scan vs Monge ({:?} scale)",
        args.scale
    );
    let sizes: Vec<usize> = match args.scale {
        Scale::Small => vec![250, 500],
        Scale::Medium => vec![500, 1_000, 2_000],
        Scale::Paper => vec![1_000, 2_000, 4_000, 8_000],
    };
    let p = 4;
    let w = Weights::uniform(p);
    let mut records = Vec::new();

    // The mode and strategy studies pin threads = 1: their records track
    // the sequential inner loops, and stay machine-comparable that way.
    let opts = |mode: DpMode, strategy: DpStrategy| DpOptions {
        policy: GapPolicy::Strict,
        mode,
        strategy,
        threads: 1,
        ..DpOptions::default()
    };

    // Backtracking-mode matrix (as since PR 3), under the default Auto
    // strategy.
    {
        let mut run_both =
            |algorithm: &'static str,
             dataset: &'static str,
             input: &SequentialRelation,
             exec: &dyn Fn(&SequentialRelation, DpMode) -> DpOutcome| {
                for mode in [DpMode::Table, DpMode::DivideConquer] {
                    let (out, wall) = time(|| exec(input, mode));
                    records.push(record(
                        algorithm,
                        dataset,
                        input.len(),
                        DpStrategy::Auto,
                        &out,
                        wall.as_secs_f64() * 1e3,
                    ));
                }
            };

        for &n in &sizes {
            let flat = uniform::ungrouped(n, p, 21);
            let grouped = uniform::grouped((n / 10).max(1), 10, p, 22);
            let c_flat = (n / 10).max(20).min(flat.len());
            let c_grouped = (n / 10).max(20).max(grouped.cmin()).min(grouped.len());
            run_both("size_bounded", "flat", &flat, &|input, mode| {
                pta_size_bounded_with_opts(input, &w, c_flat, opts(mode, DpStrategy::Auto))
                    .expect("valid size bound")
            });
            run_both("size_bounded", "grouped", &grouped, &|input, mode| {
                pta_size_bounded_with_opts(input, &w, c_grouped, opts(mode, DpStrategy::Auto))
                    .expect("valid size bound")
            });
            run_both("error_bounded", "grouped", &grouped, &|input, mode| {
                pta_error_bounded_with_opts(input, &w, 0.1, opts(mode, DpStrategy::Auto))
                    .expect("valid error bound")
            });
        }
    }

    // Strategy study (fixed sizes at every scale).
    for &n in &STRATEGY_SIZES {
        for (dataset, input) in
            [("trend", uniform::trend(n, p, 23)), ("flat", uniform::ungrouped(n, p, 21))]
        {
            for mode in [DpMode::Table, DpMode::DivideConquer] {
                for strategy in [DpStrategy::Scan, DpStrategy::Monge] {
                    let (out, wall) = time(|| {
                        pta_size_bounded_with_opts(&input, &w, STRATEGY_C, opts(mode, strategy))
                            .expect("valid size bound")
                    });
                    records.push(record(
                        "size_bounded",
                        dataset,
                        n,
                        strategy,
                        &out,
                        wall.as_secs_f64() * 1e3,
                    ));
                }
            }
        }
    }

    // Approx study: the certified (1 + ε) tier on the same fixed-size
    // points, Table mode, threads = 1 — flat is the non-Monge regime the
    // tier exists for, trend checks it doesn't mangle certified data.
    for &n in &STRATEGY_SIZES {
        for (dataset, input) in
            [("trend", uniform::trend(n, p, 23)), ("flat", uniform::ungrouped(n, p, 21))]
        {
            for eps in APPROX_EPS {
                let strategy = DpStrategy::Approx(eps);
                let (out, wall) = time(|| {
                    pta_size_bounded_with_opts(
                        &input,
                        &w,
                        STRATEGY_C,
                        opts(DpMode::Table, strategy),
                    )
                    .expect("valid size bound")
                });
                records.push(record(
                    "size_bounded",
                    dataset,
                    n,
                    strategy,
                    &out,
                    wall.as_secs_f64() * 1e3,
                ));
            }
        }
    }

    // Threads study: the flat/Scan/Table point at n = 4000 under thread
    // budgets 1, 2 and the process default (deduplicated — on a 1- or
    // 2-core machine the default coincides with a pinned budget).
    let par_n = *STRATEGY_SIZES.last().expect("non-empty study sizes");
    let default_threads = pta_pool::default_threads();
    {
        let input = uniform::ungrouped(par_n, p, 21);
        let mut budgets = vec![1usize, 2];
        if default_threads > 2 {
            budgets.push(default_threads);
        }
        for &threads in &budgets {
            let (out, wall) = time(|| {
                pta_size_bounded_with_opts(
                    &input,
                    &w,
                    STRATEGY_C,
                    DpOptions {
                        policy: GapPolicy::Strict,
                        mode: DpMode::Table,
                        strategy: DpStrategy::Scan,
                        threads,
                        ..DpOptions::default()
                    },
                )
                .expect("valid size bound")
            });
            records.push(record(
                "size_bounded",
                "flat",
                par_n,
                DpStrategy::Scan,
                &out,
                wall.as_secs_f64() * 1e3,
            ));
        }
    }

    // Cancellation-overhead study: the same flat/Scan/Table point at
    // n = 4000, threads = 1, with an armed-but-never-firing deadline
    // token against the inert default. Interleaved min-of-k (armed and
    // inert alternate within each round) so the gate below measures the
    // per-check cost, not drift between two separated timing blocks.
    let (cancel_inert_ms, cancel_armed_ms) = {
        let input = uniform::ungrouped(par_n, p, 21);
        let point = |cancel: CancelToken| {
            pta_size_bounded_with_opts(
                &input,
                &w,
                STRATEGY_C,
                DpOptions {
                    policy: GapPolicy::Strict,
                    mode: DpMode::Table,
                    strategy: DpStrategy::Scan,
                    threads: 1,
                    cancel,
                },
            )
            .expect("valid size bound")
        };
        let baseline = point(CancelToken::inert());
        let mut inert_best = f64::INFINITY;
        let mut armed_best = f64::INFINITY;
        let mut run_inert = || {
            let (_, wall) = time(|| point(CancelToken::inert()));
            inert_best = inert_best.min(wall.as_secs_f64() * 1e3);
        };
        let mut run_armed = || {
            let token = CancelToken::with_timeout(Duration::from_secs(3600));
            let (out, wall) = time(|| point(token));
            armed_best = armed_best.min(wall.as_secs_f64() * 1e3);
            assert_eq!(
                out.reduction.source_ranges(),
                baseline.reduction.source_ranges(),
                "an armed token must not change the result"
            );
        };
        // Alternate which arm goes first so a monotone machine slowdown
        // (or warm-up) cannot systematically tax one arm.
        for round in 0..4 {
            if round % 2 == 0 {
                run_inert();
                run_armed();
            } else {
                run_armed();
                run_inert();
            }
        }
        (inert_best, armed_best)
    };

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            row([
                r.algorithm.to_string(),
                r.dataset.to_string(),
                r.n.to_string(),
                r.c.to_string(),
                mode_name(r.mode).to_string(),
                r.strategy.name().to_string(),
                r.threads.to_string(),
                fmt(r.wall_ms),
                r.peak_rows.to_string(),
                r.cells.to_string(),
                r.monge_cells.to_string(),
                r.eps.map_or_else(|| "-".to_string(), |e| e.to_string()),
                format!("{:.6}", r.certified_ratio),
            ])
        })
        .collect();
    print_table(
        "DP backtracking modes and row strategies",
        &[
            "algorithm",
            "dataset",
            "n",
            "c",
            "mode",
            "strategy",
            "threads",
            "wall_ms",
            "peak_rows",
            "cells",
            "monge_cells",
            "eps",
            "certified_ratio",
        ],
        &rows,
    );

    let payload = json(&records);
    let path = std::path::Path::new("BENCH_dp.json");
    match std::fs::write(path, &payload) {
        Ok(()) => println!("[written {}]", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }

    // Regression guards over the strategy study. Failing any of these
    // exits non-zero, which fails the CI bench step.
    let mut failures = 0u32;
    let mut check = |ok: bool, msg: String| {
        if ok {
            println!("[ok] {msg}");
        } else {
            eprintln!("[REGRESSION] {msg}");
            failures += 1;
        }
    };
    for &n in &STRATEGY_SIZES {
        for dataset in ["trend", "flat"] {
            for mode in [DpExecMode::Table, DpExecMode::DivideConquer] {
                let find = |strategy: DpStrategy| {
                    records
                        .iter()
                        .find(|r| {
                            r.dataset == dataset
                                && r.n == n
                                && r.c == STRATEGY_C
                                && r.mode == mode
                                && r.strategy == strategy
                                && r.threads == 1
                        })
                        .expect("strategy study record")
                };
                let scan = find(DpStrategy::Scan);
                let monge = find(DpStrategy::Monge);
                if dataset == "trend" {
                    check(
                        monge.cells <= scan.cells,
                        format!(
                            "{dataset} n={n} {}: monge cells {} <= scan cells {}",
                            mode_name(mode),
                            monge.cells,
                            scan.cells
                        ),
                    );
                    check(
                        monge.cells * 5 <= scan.cells,
                        format!(
                            "{dataset} n={n} {}: >=5x cell reduction (monge {} vs scan {})",
                            mode_name(mode),
                            monge.cells,
                            scan.cells
                        ),
                    );
                    // Real margins are 9–17×; gate at 2× so a noisy CI
                    // runner can't flake the deterministic cell guards'
                    // step over a few milliseconds of scheduler jitter.
                    check(
                        monge.wall_ms * 2.0 < scan.wall_ms,
                        format!(
                            "{dataset} n={n} {}: monge wall {:.3} ms ≥2x under scan wall {:.3} ms",
                            mode_name(mode),
                            monge.wall_ms,
                            scan.wall_ms
                        ),
                    );
                } else {
                    // No certificate on uniform data: Monge falls back to
                    // the scan. Divide-and-conquer recursion bottoms out
                    // on 2–4-tuple subranges that are trivially monotone,
                    // so allow a 2 % sliver of Monge-engine work; the
                    // bulk must be scan-identical.
                    check(
                        monge.cells <= scan.cells + scan.cells / 50
                            && monge.monge_cells * 50 <= monge.cells,
                        format!(
                            "{dataset} n={n} {}: monge ~falls back to scan ({} vs {}, {} monge)",
                            mode_name(mode),
                            monge.cells,
                            scan.cells,
                            monge.monge_cells
                        ),
                    );
                }
            }
        }
    }
    // Approx-study guards: the certificate must hold on every recorded
    // approx run, and on the flat (non-Monge) point at the largest size
    // the ε = 0.1 tier must beat the exact scan ≥5× on split-point
    // evaluations and outright on wall time.
    {
        let approx: Vec<&Record> = records.iter().filter(|r| r.eps.is_some()).collect();
        check(
            approx.len() == STRATEGY_SIZES.len() * 2 * APPROX_EPS.len(),
            format!("approx study: {} records (expected full grid)", approx.len()),
        );
        for r in &approx {
            let eps = r.eps.expect("filtered on eps");
            check(
                r.certified_ratio >= 1.0 && r.certified_ratio <= 1.0 + eps,
                format!(
                    "{} n={} eps={eps}: certified_ratio {:.9} in [1, 1 + eps]",
                    r.dataset, r.n, r.certified_ratio
                ),
            );
        }
        let scan = records
            .iter()
            .find(|r| {
                r.dataset == "flat"
                    && r.n == par_n
                    && r.c == STRATEGY_C
                    && r.mode == DpExecMode::Table
                    && r.strategy == DpStrategy::Scan
                    && r.threads == 1
            })
            .expect("flat scan reference record");
        let tier = approx
            .iter()
            .find(|r| {
                r.dataset == "flat"
                    && r.n == par_n
                    && r.eps.is_some_and(|e| (e - 0.1).abs() < 1e-12)
            })
            .expect("flat approx eps=0.1 record");
        check(
            tier.cells * 5 <= scan.cells,
            format!(
                "approx study: flat n={par_n} eps=0.1 >=5x cell reduction \
                 (approx {} vs scan {})",
                tier.cells, scan.cells
            ),
        );
        check(
            tier.wall_ms < scan.wall_ms,
            format!(
                "approx study: flat n={par_n} eps=0.1 faster wall \
                 (approx {:.3} ms vs scan {:.3} ms)",
                tier.wall_ms, scan.wall_ms
            ),
        );
    }

    // Threads-study guards. The threads-study records are the Table/Scan
    // flat points at the largest study size; find them by budget.
    {
        let find = |threads: usize| {
            // Scan from the back: the threads-study records land after
            // the strategy study's (which also holds a threads = 1 copy
            // of this point).
            records
                .iter()
                .rev()
                .find(|r| {
                    r.dataset == "flat"
                        && r.n == par_n
                        && r.c == STRATEGY_C
                        && r.mode == DpExecMode::Table
                        && r.strategy == DpStrategy::Scan
                        && r.threads == threads
                })
                .expect("threads study record")
        };
        let seq = find(1);
        let two = find(2);
        // Determinism: the parallel fill evaluates exactly the
        // sequential split candidates — the counters must agree.
        check(
            two.cells == seq.cells && two.scan_cells == seq.cells,
            format!(
                "threads study: identical work at any budget ({} vs {} cells)",
                two.cells, seq.cells
            ),
        );
        // Overhead guard, meaningful even on a single core: a 2-thread
        // budget must never cost more than 10 % over sequential.
        check(
            two.wall_ms <= seq.wall_ms * 1.1,
            format!(
                "threads study: 2-thread overhead bounded ({:.3} ms vs {:.3} ms sequential)",
                two.wall_ms, seq.wall_ms
            ),
        );
        // Speedup guard — only decidable where parallel hardware exists.
        // A 1-core container resolves the default budget to 1 and cannot
        // observe a wall-time reduction, so the gate arms itself on the
        // resolved default: T >= 2 workers must deliver min(2, 0.6·T)×.
        if default_threads >= 2 {
            let def = find(default_threads);
            check(def.cells == seq.cells, "threads study: default budget work identical".into());
            let speedup = seq.wall_ms / def.wall_ms.max(1e-9);
            let need = 2.0_f64.min(0.6 * default_threads as f64);
            check(
                speedup >= need,
                format!(
                    "threads study: default budget ({} workers) speedup {speedup:.2}x >= {need:.2}x",
                    default_threads
                ),
            );
        } else {
            println!(
                "[skip] threads study speedup gate: default budget resolves to \
                 {default_threads} worker(s) on this machine"
            );
        }
    }

    // Cancellation-overhead gate: an armed-but-never-fired token may cost
    // at most 2 % wall on the hot row-fill point — the contract that lets
    // deadline tokens default-on in services without a perf tax.
    check(
        cancel_armed_ms <= cancel_inert_ms * 1.02,
        format!(
            "cancellation overhead bounded: armed {cancel_armed_ms:.3} ms \
             <= 1.02x inert {cancel_inert_ms:.3} ms"
        ),
    );

    if failures > 0 {
        eprintln!("{failures} regression check(s) failed");
        std::process::exit(1);
    }
}
