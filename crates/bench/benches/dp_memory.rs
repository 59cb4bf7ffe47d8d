//! Criterion microbenchmarks of the two DP backtracking modes: the
//! materialized `O(n·c)` split-point table versus `O(n)`-memory
//! divide-and-conquer recovery. Same optimal reductions; the table does
//! one pass, divide and conquer re-derives rows per recursion level —
//! this bench tracks the constant-factor gap the `DpMode::Auto` switch
//! trades against memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use pta_core::{
    pta_error_bounded_with_opts, pta_size_bounded_with_opts, DpMode, DpOptions, DpStrategy, Weights,
};
use pta_datasets::uniform;

const MODES: [(&str, DpMode); 2] = [("table", DpMode::Table), ("dnc", DpMode::DivideConquer)];

/// Default options with a pinned backtracking mode.
fn with_mode(mode: DpMode) -> DpOptions {
    DpOptions::default().with_mode(mode)
}

fn bench_size_bounded_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("dp_memory_size_bounded");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    let w = Weights::uniform(4);
    for &n in &[500usize, 2_000] {
        let flat = uniform::ungrouped(n, 4, 11);
        let grouped = uniform::grouped(n / 10, 10, 4, 12);
        let cc = (n / 10).max(20);
        for (name, mode) in MODES {
            g.bench_with_input(BenchmarkId::new(format!("flat_{name}"), n), &n, |b, _| {
                b.iter(|| {
                    pta_size_bounded_with_opts(black_box(&flat), &w, cc, with_mode(mode)).unwrap()
                })
            });
            let cg = cc.max(grouped.cmin()).min(grouped.len());
            g.bench_with_input(BenchmarkId::new(format!("grouped_{name}"), n), &n, |b, _| {
                b.iter(|| {
                    pta_size_bounded_with_opts(black_box(&grouped), &w, cg, with_mode(mode))
                        .unwrap()
                })
            });
        }
    }
    g.finish();
}

fn bench_error_bounded_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("dp_memory_error_bounded");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    let w = Weights::uniform(4);
    let grouped = uniform::grouped(100, 10, 4, 13);
    for &eps in &[0.5, 0.05] {
        for (name, mode) in MODES {
            g.bench_with_input(
                BenchmarkId::new(format!("grouped_1000_{name}"), format!("eps{eps}")),
                &eps,
                |b, &eps| {
                    b.iter(|| {
                        pta_error_bounded_with_opts(black_box(&grouped), &w, eps, with_mode(mode))
                            .unwrap()
                    })
                },
            );
        }
    }
    g.finish();
}

/// The `Approx(ε)` probe loop of the error-bounded driver runs up to
/// three stride probes (the first grid stride, its 4× refinement, and
/// stride 1) over the same row loop. The split-point table and the four
/// bracket rows are allocated *once* and ∞-reset between probes (see
/// `dp/error_bounded.rs`); this bench pins that hoist —
/// re-allocating per probe shows up here as a measurable regression on
/// the tight-ε configurations, while results stay bit-identical (each
/// probe starts from the same ∞-reset state a fresh allocation would
/// give). Covers a tight bound (many rows, all probes exercised) and a
/// loose one (first probe certifies).
fn bench_error_bounded_approx_probes(c: &mut Criterion) {
    let mut g = c.benchmark_group("dp_memory_error_bounded_approx");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    let w = Weights::uniform(4);
    let grouped = uniform::grouped(100, 10, 4, 13);
    let opts = DpOptions { strategy: DpStrategy::Approx(0.1), threads: 1, ..DpOptions::default() };
    for &eps in &[0.5, 0.05] {
        g.bench_with_input(
            BenchmarkId::new("grouped_1000_approx", format!("eps{eps}")),
            &eps,
            |b, &eps| {
                b.iter(|| {
                    pta_error_bounded_with_opts(black_box(&grouped), &w, eps, opts.clone()).unwrap()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_size_bounded_modes,
    bench_error_bounded_modes,
    bench_error_bounded_approx_probes
);
criterion_main!(benches);
