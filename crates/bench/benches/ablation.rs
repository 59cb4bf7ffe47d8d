//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * §5.3 gap pruning (pruned PTAc vs the naive DP) — also in Fig. 18;
//! * the Jagadish early break (on vs off);
//! * the §8 gap-tolerant extension (strict vs tolerant adjacency).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use pta_core::{
    pta_size_bounded, pta_size_bounded_naive, pta_size_bounded_no_early_break,
    pta_size_bounded_with_opts, DpOptions, DpStrategy, GapPolicy, Weights,
};
use pta_datasets::{timeseries, uniform};

fn bench_early_break(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_early_break");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    let w = Weights::uniform(1);
    // Smooth data: the early break fires constantly and should dominate.
    let smooth = timeseries::chaotic(1_200, 11);
    // Uniform noise: the break fires later; the gap shrinks.
    let noisy = uniform::ungrouped(1_200, 1, 12);
    // Both sides pin DpStrategy::Scan: the early break is a scan-path
    // acceleration, so the ablation must hold the row minimizer fixed.
    let scan = DpOptions { strategy: DpStrategy::Scan, ..DpOptions::default() };
    for (name, rel) in [("smooth", &smooth), ("noisy", &noisy)] {
        let cc = rel.len() / 10;
        g.bench_with_input(BenchmarkId::new("with_break", name), name, |b, _| {
            b.iter(|| pta_size_bounded_with_opts(black_box(rel), &w, cc, scan.clone()).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("no_break", name), name, |b, _| {
            b.iter(|| pta_size_bounded_no_early_break(black_box(rel), &w, cc).unwrap())
        });
    }
    g.finish();
}

fn bench_gap_pruning(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_gap_pruning");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    let w = Weights::uniform(4);
    let grouped = uniform::grouped(100, 20, 4, 13);
    let cc = 400;
    g.bench_function("pruned", |b| {
        b.iter(|| pta_size_bounded(black_box(&grouped), &w, cc).unwrap())
    });
    g.bench_function("naive", |b| {
        b.iter(|| pta_size_bounded_naive(black_box(&grouped), &w, cc).unwrap())
    });
    g.finish();
}

fn bench_gap_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_gap_policy");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    let w = Weights::uniform(12);
    // Gap-ridden 12-dim wind data: tolerant adjacency bridges the holes,
    // trading pruning opportunities for reachable smaller sizes.
    let rel = timeseries::wind(1_500, 12, 120, 14);
    let cc = 300;
    g.bench_function("strict", |b| b.iter(|| pta_size_bounded(black_box(&rel), &w, cc).unwrap()));
    g.bench_function("tolerate_2", |b| {
        b.iter(|| {
            pta_size_bounded_with_opts(
                black_box(&rel),
                &w,
                cc,
                DpOptions::default().with_policy(GapPolicy::Tolerate { max_gap: 2 }),
            )
            .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_early_break, bench_gap_pruning, bench_gap_policy);
criterion_main!(benches);
