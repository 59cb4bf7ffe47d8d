//! UCR-archive-like time series (§7.1, Table 1(c)).
//!
//! The paper uses `chaotic.dat` (1 800 points), `tide.dat` (8 746) and the
//! 12-dimensional `wind.dat` (6 574, 216 maximal runs). The archive is not
//! redistributable, so we generate series from the same regimes: a
//! Mackey–Glass chaotic signal, a harmonic tide with noise, and a
//! cross-correlated AR(1) wind field with missing-value gaps.

use pta_temporal::{GroupKey, SequentialBuilder, SequentialRelation, TimeInterval};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A chaotic series from the Mackey–Glass delay equation
/// `x' = 0.2·x(t−τ)/(1 + x(t−τ)¹⁰) − 0.1·x(t)` with `τ = 17` — smooth
/// deterministic chaos like the UCR `chaotic.dat`, scaled to ~[0, 100].
/// (A logistic map would be white-noise-like and incompressible; the UCR
/// series is smooth enough that PTA reduces it 95 % under 10 % error,
/// Fig. 14(a).)
pub fn chaotic(n: usize, seed: u64) -> SequentialRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    const TAU: usize = 17;
    // Sub-sample the Euler integration so neighbouring output samples stay
    // correlated but the attractor is traversed.
    const STEPS_PER_SAMPLE: usize = 1;
    let mut history: Vec<f64> = (0..=TAU).map(|_| 1.2 + rng.random_range(-0.1..0.1)).collect();
    let mut t = TAU;
    let step = |history: &mut Vec<f64>, t: &mut usize| {
        let x_tau = history[*t - TAU];
        let x = history[*t];
        let next = x + 0.2 * x_tau / (1.0 + x_tau.powi(10)) - 0.1 * x;
        history.push(next);
        *t += 1;
    };
    // Burn-in to land on the attractor.
    for _ in 0..1_000 {
        step(&mut history, &mut t);
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        for _ in 0..STEPS_PER_SAMPLE {
            step(&mut history, &mut t);
        }
        values.push(60.0 * history[t]);
    }
    // pta-lint: allow(no-panic-in-lib) — width 1, origin 0: always a valid series.
    SequentialRelation::from_time_series(1, 0, &values).expect("generated series is valid")
}

/// A tidal series: four harmonic constituents (M2, S2, K1, O1 period
/// ratios) plus small noise — the T2 stand-in, friendly to DFT/Chebyshev.
pub fn tide(n: usize, seed: u64) -> SequentialRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let phases: Vec<f64> = (0..4).map(|_| rng.random_range(0.0..std::f64::consts::TAU)).collect();
    // 12-minute samples; constituent periods (M2, S2, K1, O1) in samples.
    let constituents = [(120.0f64, 62.1f64), (40.0, 60.0), (25.0, 119.7), (18.0, 129.1)];
    let mut values = Vec::with_capacity(n);
    for t in 0..n {
        let mut v = 200.0;
        for ((amp, period), phase) in constituents.iter().zip(&phases) {
            v += amp * (std::f64::consts::TAU * t as f64 / period + phase).sin();
        }
        v += rng.random_range(-0.5..0.5);
        values.push(v);
    }
    // pta-lint: allow(no-panic-in-lib) — width 1, origin 0: always a valid series.
    SequentialRelation::from_time_series(1, 0, &values).expect("generated series is valid")
}

/// A 12-dimensional wind field: per-dimension AR(1) processes sharing a
/// common weather factor, with `runs − 1` missing-value gaps splitting the
/// series into maximal runs — the T3 stand-in (the paper's wind data has
/// 216 runs).
pub fn wind(n: usize, dims: usize, runs: usize, seed: u64) -> SequentialRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut common: f64 = 0.0;
    let mut state = vec![0.0f64; dims];
    // Pick gap positions (1-chronon holes) splitting 0..n into `runs`.
    let mut holes: Vec<i64> = Vec::new();
    if runs > 1 && n > runs * 2 {
        while holes.len() < runs - 1 {
            let h = rng.random_range(1..n as i64 - 1);
            if !holes.contains(&h) {
                holes.push(h);
            }
        }
        holes.sort_unstable();
    }
    let mut b = SequentialBuilder::with_capacity(dims, n);
    let mut hole_iter = holes.iter().peekable();
    let mut row = vec![0.0f64; dims];
    let mut t_out: i64 = 0;
    for t_in in 0..n as i64 {
        common = 0.9 * common + rng.random_range(-0.7..0.7);
        for (d, s) in state.iter_mut().enumerate() {
            *s = 0.15 * *s + rng.random_range(-3.0..3.0);
            row[d] = 10.0 + 2.0 * common + *s + d as f64 * 0.5;
        }
        if hole_iter.peek() == Some(&&t_in) {
            hole_iter.next();
            t_out += 1; // leave a one-chronon hole before this sample
        }
        // pta-lint: allow(no-panic-in-lib) — instants are valid; t_out is monotone.
        b.push(GroupKey::empty(), TimeInterval::instant(t_out).expect("valid instant"), &row)
            // pta-lint: allow(no-panic-in-lib) — t_out strictly increases, so order holds.
            .expect("rows arrive in order");
        t_out += 1;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaotic_is_deterministic_and_bounded() {
        let a = chaotic(500, 1);
        let b = chaotic(500, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        for i in 0..a.len() {
            let v = a.value(i, 0);
            assert!((0.0..=100.0).contains(&v));
        }
        assert_eq!(a.cmin(), 1);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(chaotic(100, 1), chaotic(100, 2));
        assert_ne!(tide(100, 1), tide(100, 2));
    }

    #[test]
    fn tide_oscillates_around_mean() {
        let s = tide(1_000, 3);
        let mean: f64 = (0..s.len()).map(|i| s.value(i, 0)).sum::<f64>() / s.len() as f64;
        assert!((mean - 200.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn wind_has_requested_shape() {
        let s = wind(2_000, 12, 216, 9);
        assert_eq!(s.len(), 2_000);
        assert_eq!(s.dims(), 12);
        assert_eq!(s.cmin(), 216);
        s.validate().unwrap();
    }

    #[test]
    fn wind_without_gaps() {
        let s = wind(300, 3, 1, 9);
        assert_eq!(s.cmin(), 1);
    }
}
