//! Chebyshev polynomial approximation (Cai & Ng, §2.2, Fig. 2(d)).
//!
//! The series is treated as a function over `[−1, 1]`; the first `c`
//! Chebyshev coefficients are computed by Gauss–Chebyshev quadrature over
//! the interpolated series, and the restored polynomial is sampled at
//! every time point. Like DFT the result is continuous; the paper compares
//! it against PTA results with the same number of intervals.

use crate::error::BaselineError;
use pta_core::series::DenseSeries;

/// A Chebyshev approximation.
#[derive(Debug, Clone)]
pub struct ChebApprox {
    /// The polynomial sampled at every time point.
    pub approx: Vec<f64>,
    /// Coefficients used.
    pub coefficients: usize,
    /// SSE against the original series.
    pub sse: f64,
}

/// Approximates with the first `c` Chebyshev coefficients.
pub fn chebyshev(series: &DenseSeries, c: usize) -> Result<ChebApprox, BaselineError> {
    let n = series.len();
    if c == 0 || c > n {
        return Err(BaselineError::invalid_size(c, n));
    }
    // Value of the series at a real position in [0, n−1], linearly
    // interpolated between samples.
    let value_at = |pos: f64| -> f64 {
        if n == 1 {
            return series.get(0);
        }
        let pos = pos.clamp(0.0, (n - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = pos - lo as f64;
        series.get(lo) * (1.0 - frac) + series.get(hi) * frac
    };

    // Gauss–Chebyshev quadrature with m = n nodes: x_k = cos(π(k+½)/m).
    let m = n.max(c);
    let mf = m as f64;
    let mut coeffs = vec![0.0; c];
    for k in 0..m {
        let theta = std::f64::consts::PI * (k as f64 + 0.5) / mf;
        let xk = theta.cos();
        let f = value_at((xk + 1.0) / 2.0 * (n - 1) as f64);
        for (j, coeff) in coeffs.iter_mut().enumerate() {
            *coeff += f * (j as f64 * theta).cos();
        }
    }
    for coeff in &mut coeffs {
        *coeff *= 2.0 / mf;
    }

    // Clenshaw evaluation at each time point.
    let mut approx = Vec::with_capacity(n);
    for t in 0..n {
        let x = if n == 1 { 0.0 } else { 2.0 * t as f64 / (n - 1) as f64 - 1.0 };
        let (mut b1, mut b2) = (0.0, 0.0);
        for &a in coeffs.iter().skip(1).rev() {
            let b0 = 2.0 * x * b1 - b2 + a;
            b2 = b1;
            b1 = b0;
        }
        approx.push(x * b1 - b2 + coeffs[0] / 2.0);
    }
    let sse = series.sse_against(&approx);
    Ok(ChebApprox { approx, coefficients: c, sse })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_is_exact_with_one_coefficient() {
        let s = DenseSeries::new(vec![5.5; 20]);
        let a = chebyshev(&s, 1).unwrap();
        assert!(a.sse < 1e-12, "sse {}", a.sse);
    }

    #[test]
    fn linear_series_is_near_exact_with_two_coefficients() {
        let s = DenseSeries::new((0..32).map(|i| 2.0 * i as f64 - 7.0).collect());
        let a = chebyshev(&s, 2).unwrap();
        assert!(a.sse < 1e-6 * 32.0, "sse {}", a.sse);
    }

    #[test]
    fn error_broadly_decreases_with_degree() {
        let s = DenseSeries::new((0..64).map(|i| ((i as f64) * 0.37).sin() * 4.0).collect());
        let low = chebyshev(&s, 2).unwrap().sse;
        let high = chebyshev(&s, 12).unwrap().sse;
        assert!(high < low * 0.5, "low {low}, high {high}");
    }

    #[test]
    fn invalid_sizes_rejected() {
        let s = DenseSeries::new(vec![1.0; 4]);
        assert!(chebyshev(&s, 0).is_err());
        assert!(chebyshev(&s, 5).is_err());
    }
}
