//! Criterion microbenchmark of a *single* forward DP row fill — the
//! innermost unit of the exact algorithms, isolated from backtracking and
//! row iteration. Pins the range-SSE kernel anchored at each cell (the
//! cell's row read once, `p = 1` compiled in) and the window-decomposed
//! fill (gap lookups hoisted out of the cell loop), and shows the
//! scan-vs-SMAWK gap per row class:
//!
//! * `trend` — gap-free monotone data: one Monge-certified window
//!   spanning the row; Scan is `O(n²)`, Monge is `O(n)`.
//! * `flat` — gap-free uniform data: no certificate; every strategy
//!   scans (Monge must match Scan here, not beat it).
//! * `grouped` — many small windows; the hoisted-lookup scan dominates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use pta_core::dp::bench_support::RowFill;
use pta_core::{DpStrategy, Weights};
use pta_datasets::uniform;

const ROW: usize = 8;

fn bench_row_fill(c: &mut Criterion) {
    let mut g = c.benchmark_group("dp_row_fill");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    let p = 4;
    let w = Weights::uniform(p);
    for &n in &[500usize, 2_000] {
        let datasets = [
            ("trend", uniform::trend(n, p, 31)),
            ("flat", uniform::ungrouped(n, p, 32)),
            ("grouped", uniform::grouped((n / 10).max(1), 10, p, 33)),
        ];
        for (name, input) in &datasets {
            for strategy in [DpStrategy::Scan, DpStrategy::Monge] {
                let rf = RowFill::new(input, &w, strategy).expect("dims match");
                let prev = rf.row(ROW - 1);
                let mut cur = vec![f64::INFINITY; rf.width()];
                g.bench_with_input(
                    BenchmarkId::new(format!("{name}_{}", strategy.name()), n),
                    &n,
                    |b, _| b.iter(|| rf.fill(ROW, black_box(&prev), &mut cur)),
                );
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench_row_fill);
criterion_main!(benches);
