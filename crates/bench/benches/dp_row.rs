//! Cost per split point of one forward DP row fill — the range-SSE kernel
//! and the scan around it, isolated from backtracking and row iteration.
//!
//! Row 8 of a `Scan` fill through `dp::bench_support::RowFill`, on three
//! inputs: flat gap-free data at `p = 1` and at `p = 4` (non-uniform
//! weights), and many small groups at `p = 1`. Each input's fill is
//! timed five times and the best kept; three rounds run interleaved
//! across the inputs, and the median round is printed in ns per split
//! point. This is the protocol of the README's per-split-point table.
//!
//! Run with `cargo bench -p pta-bench --bench dp_row`.

use std::hint::black_box;
use std::time::Instant;

use pta_bench::{print_table, row};
use pta_core::dp::bench_support::RowFill;
use pta_core::{DpStrategy, Weights};
use pta_datasets::uniform;

const ROW: usize = 8;
const REPS: usize = 5;
const ROUNDS: usize = 3;

fn main() {
    let inputs = [
        ("flat, p = 1", uniform::ungrouped(3000, 1, 32), Weights::uniform(1)),
        (
            "flat, p = 4",
            uniform::ungrouped(3000, 4, 32),
            Weights::new(&[1.0, 0.5, 2.0, 1.5]).expect("finite positive weights"),
        ),
        ("grouped, p = 1", uniform::grouped(60, 50, 1, 33), Weights::uniform(1)),
    ];
    let fills: Vec<_> = inputs
        .iter()
        .map(|(_, input, w)| {
            let rf = RowFill::new(input, w, DpStrategy::Scan).expect("weights match the input");
            let prev = rf.row(ROW - 1);
            (rf, prev)
        })
        .collect();
    let mut cells = vec![0u64; fills.len()];
    let mut ns = vec![Vec::new(); fills.len()];
    for _ in 0..ROUNDS {
        for (i, (rf, prev)) in fills.iter().enumerate() {
            let mut cur = vec![f64::INFINITY; rf.width()];
            let mut best = f64::INFINITY;
            for _ in 0..REPS {
                let t0 = Instant::now();
                cells[i] = rf.fill(ROW, black_box(prev), &mut cur);
                best = best.min(t0.elapsed().as_nanos() as f64);
            }
            ns[i].push(best / cells[i] as f64);
        }
    }
    let rows: Vec<_> = inputs
        .iter()
        .zip(cells.iter().zip(ns.iter_mut()))
        .map(|((name, input, _), (cells, per))| {
            per.sort_by(f64::total_cmp);
            row([
                name.to_string(),
                input.len().to_string(),
                cells.to_string(),
                format!("{:.1}", per[ROUNDS / 2]),
            ])
        })
        .collect();
    print_table(
        &format!("dp_row: row {ROW} of a Scan fill, best of {REPS}, median of {ROUNDS} rounds"),
        &["input", "n", "split points", "ns per split point"],
        &rows,
    );
}
