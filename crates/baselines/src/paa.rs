//! Piecewise aggregate approximation (PAA).
//!
//! Keogh & Pazzani / Yi & Faloutsos ("Segmented means"): divide the series
//! into `c` segments of (near-)equal length and represent each by its
//! mean. Not data-adaptive — the limitation Fig. 2(e) illustrates.

use crate::error::BaselineError;
use pta_core::series::{DenseSeries, PiecewiseConstant};

/// PAA with `c` segments. When `c` does not divide the length, segment
/// boundaries follow the standard `round(k·n/c)` rule so lengths differ by
/// at most one.
pub fn paa(series: &DenseSeries, c: usize) -> Result<PiecewiseConstant, BaselineError> {
    let n = series.len();
    if c == 0 || c > n {
        return Err(BaselineError::invalid_size(c, n));
    }
    let mut boundaries = Vec::with_capacity(c + 1);
    for k in 0..=c {
        boundaries.push((k * n + c / 2) / c);
    }
    boundaries[0] = 0;
    boundaries[c] = n;
    // The rounding rule keeps boundaries strictly increasing for c <= n.
    let values = boundaries.windows(2).map(|w| series.range_mean(w[0]..w[1])).collect();
    Ok(PiecewiseConstant::new(n, &boundaries, values)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_division() {
        let s = DenseSeries::new(vec![1.0, 3.0, 5.0, 7.0]);
        let pc = paa(&s, 2).unwrap();
        assert_eq!(pc.segments(), 2);
        assert_eq!(pc.values(), &[2.0, 6.0]);
    }

    #[test]
    fn uneven_division_keeps_all_points() {
        let s = DenseSeries::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let pc = paa(&s, 2).unwrap();
        assert_eq!(pc.boundaries(), vec![0, 3, 5]);
        assert_eq!(pc.values(), &[2.0, 4.5]);
    }

    #[test]
    fn c_equals_n_is_exact() {
        let s = DenseSeries::new(vec![4.0, 1.0, 9.0]);
        let pc = paa(&s, 3).unwrap();
        assert_eq!(pc.sse_against(&s), 0.0);
    }

    #[test]
    fn c_one_is_global_mean() {
        let s = DenseSeries::new(vec![2.0, 4.0, 6.0]);
        let pc = paa(&s, 1).unwrap();
        assert_eq!(pc.values(), &[4.0]);
    }

    #[test]
    fn invalid_sizes() {
        let s = DenseSeries::new(vec![1.0, 2.0]);
        assert!(paa(&s, 0).is_err());
        assert!(paa(&s, 3).is_err());
    }

    #[test]
    fn boundaries_strictly_increase_for_awkward_ratios() {
        for n in 1..=60 {
            let s = DenseSeries::new((0..n).map(|i| i as f64).collect());
            for c in 1..=n {
                let pc = paa(&s, c).unwrap();
                assert_eq!(pc.segments(), c, "n={n}, c={c}");
            }
        }
    }
}
