//! Fig. 20: maximal heap size of the streaming algorithms as a function
//! of the output size, for δ ∈ {0, 1, 2, ∞}, on gap-free uniform data.
//!
//! Expected shape: for gPTAc, δ = ∞ fills the heap with the whole input;
//! δ = 0 caps it at ~c; finite δ sits at c + β with small β. gPTAε's
//! heap is substantially larger regardless of δ.

use pta_bench::{delta_name, print_table, row, HarnessArgs, Scale};
use pta_core::{CancelToken, Delta, GPtaC, GPtaE, GapPolicy, Weights};
use pta_datasets::uniform;

fn main() {
    let args = HarnessArgs::parse();
    let n = match args.scale {
        Scale::Small => 20_000,
        Scale::Medium => 200_000,
        Scale::Paper => 10_000_000,
    };
    let p = 10;
    let rel = uniform::ungrouped(n, p, 80);
    let w = Weights::uniform(p);
    println!("Fig. 20 — maximal heap size vs. output size (n = {n})");
    let deltas = [Delta::Finite(0), Delta::Finite(1), Delta::Finite(2), Delta::Unbounded];

    // (a) gPTAc over logarithmically spaced c.
    let mut cs = Vec::new();
    let mut c = 1usize;
    while c < n {
        cs.push(c);
        c *= 10;
    }
    cs.push(n / 2);
    cs.sort_unstable();
    let mut rows_a = Vec::new();
    for &c in &cs {
        for &delta in &deltas {
            let out = GPtaC::run(&rel, &w, c, delta, GapPolicy::Strict, CancelToken::inert())
                .expect("c >= cmin = 1");
            rows_a.push(row([
                c.to_string(),
                delta_name(delta),
                out.stats.max_heap_size.to_string(),
            ]));
        }
    }
    print_table("Fig. 20(a): gPTAc maximal heap size", &["c", "delta", "max_heap"], &rows_a);
    args.write_csv("fig20a.csv", &["c", "delta", "max_heap"], &rows_a);

    // (b) gPTAε: sweep ε, plot (achieved size, max heap).
    let mut rows_b = Vec::new();
    for &delta in &deltas {
        for eps in [0.9, 0.65, 0.4, 0.2, 0.1, 0.05, 0.01] {
            let out =
                GPtaE::run(&rel, &w, eps, delta, None, GapPolicy::Strict, CancelToken::inert())
                    .expect("valid epsilon");
            rows_b.push(row([
                format!("{eps}"),
                delta_name(delta),
                out.reduction.len().to_string(),
                out.stats.max_heap_size.to_string(),
            ]));
        }
    }
    print_table(
        "Fig. 20(b): gPTAe maximal heap size",
        &["epsilon", "delta", "result_size", "max_heap"],
        &rows_b,
    );
    args.write_csv("fig20b.csv", &["epsilon", "delta", "result_size", "max_heap"], &rows_b);

    // Shape checks for a mid-range c.
    let mid_c = 1_000.min(n / 10);
    let heap_of = |delta: Delta| {
        GPtaC::run(&rel, &w, mid_c, delta, GapPolicy::Strict, CancelToken::inert())
            .expect("valid")
            .stats
            .max_heap_size
    };
    let (h0, h1, hinf) =
        (heap_of(Delta::Finite(0)), heap_of(Delta::Finite(1)), heap_of(Delta::Unbounded));
    assert_eq!(hinf, n, "delta = inf must buffer the whole gap-free input");
    assert!(h0 <= mid_c + 1, "delta = 0 keeps the heap at c (got {h0})");
    // β grows mildly with the stream length on noisy data but stays a
    // vanishing fraction of n — the paper's "β is typically very small".
    let beta = h1.saturating_sub(mid_c);
    assert!(
        beta <= (n / 500).max(64),
        "delta = 1 keeps beta small (beta = {beta} for c = {mid_c}, n = {n})"
    );
    assert!(h1 < n / 10, "heap(delta=1) must stay far below the input size");
    println!(
        "\nshape check: heap(inf) = n; heap(0) <= c+1; heap(1) = c + {beta} (small beta) — OK"
    );
}
