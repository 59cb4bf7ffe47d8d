//! The divide-and-conquer `Approx(ε)` certificate when the optimal
//! boundaries sit off the stride grid: 100 seeds of step data with
//! random step positions and narrow spikes, at `c = 16`, `ε = 0.2`.

use pta_core::{pta_size_bounded_with_opts, DpMode, DpOptions, DpStrategy, GapPolicy, Weights};
use pta_temporal::{GroupKey, SequentialBuilder, SequentialRelation, TimeInterval};

/// A single-group instant series from explicit values.
fn series(values: &[f64]) -> SequentialRelation {
    let mut b = SequentialBuilder::new(1);
    for (t, &v) in values.iter().enumerate() {
        b.push(GroupKey::empty(), TimeInterval::instant(t as i64).unwrap(), &[v]).unwrap();
    }
    b.build()
}

/// Piecewise-constant levels with random step positions (off the stride
/// grid by construction) plus occasional narrow spikes and noise.
fn off_grid_steps(seed: u64, n: usize) -> SequentialRelation {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    };
    let mut vals = Vec::with_capacity(n);
    let mut level = 0.0f64;
    let mut next_step = 5 + ((next().abs() * 40.0) as usize);
    for t in 0..n {
        if t == next_step {
            level += next() * 200.0;
            next_step = t + 3 + ((next().abs() * 50.0) as usize);
        }
        let spike = if next() > 0.48 { next() * 800.0 } else { 0.0 };
        vals.push(level + spike + next());
    }
    series(&vals)
}

/// The optimal boundaries almost never sit on the stride grid, and divide
/// and conquer recurses over fixed midpoints, so the `(1 + ε)` bound must
/// survive the a posteriori ratio test alone.
#[test]
fn fuzz_dnc_certificate() {
    let (c, eps) = (16usize, 0.2f64);
    let w = Weights::uniform(1);
    let opts = |strategy| DpOptions {
        policy: GapPolicy::Strict,
        mode: DpMode::DivideConquer,
        strategy,
        threads: 1,
        ..DpOptions::default()
    };
    for seed in 40..140u64 {
        let input = off_grid_steps(seed, 300);
        let e = pta_size_bounded_with_opts(&input, &w, c, opts(DpStrategy::Scan))
            .unwrap()
            .reduction
            .sse();
        let approx =
            pta_size_bounded_with_opts(&input, &w, c, opts(DpStrategy::Approx(eps))).unwrap();
        let a = approx.reduction.sse();
        assert!(
            a <= (1.0 + eps) * e + 1e-6 * (1.0 + e),
            "seed {seed} c {c} eps {eps}: approx sse {a} vs exact {e} (certified {})",
            approx.stats.certified_ratio
        );
    }
}
