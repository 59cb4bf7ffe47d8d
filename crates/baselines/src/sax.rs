//! Symbolic aggregate approximation (SAX, Lin et al., §2.2) — a
//! related-work extension.
//!
//! SAX z-normalises the series, applies PAA with `c` segments, and maps
//! each segment mean to one of `w` symbols chosen so each is equally
//! probable under a standard normal. We additionally reconstruct a
//! numeric approximation (each symbol valued at the expected value of its
//! normal bin, de-normalised) so SAX error curves can sit on the same
//! axes as the other methods. PAA's limitations carry over (§2.2).

use crate::error::BaselineError;
use crate::paa::paa;
use pta_core::series::{DenseSeries, PiecewiseConstant};

/// A SAX discretisation plus its numeric reconstruction.
#[derive(Debug, Clone)]
pub struct SaxOutput {
    /// Symbol per segment, `0..w`.
    pub symbols: Vec<u8>,
    /// Numeric reconstruction (bin expected values, de-normalised).
    pub approx: PiecewiseConstant,
    /// SSE of the reconstruction against the original series.
    pub sse: f64,
}

/// SAX with `c` segments over an alphabet of `w ∈ 2..=26` symbols.
pub fn sax(series: &DenseSeries, c: usize, w: usize) -> Result<SaxOutput, BaselineError> {
    if !(2..=26).contains(&w) {
        return Err(BaselineError::invalid_parameter(
            "alphabet size",
            format!("SAX alphabet size must be in 2..=26, got {w}"),
        ));
    }
    let mean = series.mean();
    let sd = series.std_dev();
    let paa_approx = paa(series, c)?;

    // Breakpoints β_1..β_{w−1}: standard normal quantiles at i/w.
    let breakpoints: Vec<f64> = (1..w).map(|i| normal_quantile(i as f64 / w as f64)).collect();
    // Bin representative: E[Z | β_i < Z ≤ β_{i+1}] = (φ(a) − φ(b)) / (1/w).
    let phi = |x: f64| (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let bin_value = |bin: usize| -> f64 {
        let lo = if bin == 0 { f64::NEG_INFINITY } else { breakpoints[bin - 1] };
        let hi = if bin == w - 1 { f64::INFINITY } else { breakpoints[bin] };
        let (plo, phi_hi) = (
            if lo.is_finite() { phi(lo) } else { 0.0 },
            if hi.is_finite() { phi(hi) } else { 0.0 },
        );
        (plo - phi_hi) * w as f64
    };

    let mut symbols = Vec::with_capacity(c);
    let mut values = Vec::with_capacity(c);
    for &m in paa_approx.values() {
        let z = if sd > 0.0 { (m - mean) / sd } else { 0.0 };
        let bin = breakpoints.partition_point(|&b| b < z).min(w - 1);
        symbols.push(bin as u8);
        values.push(bin_value(bin) * sd + mean);
    }
    let approx = PiecewiseConstant::new(series.len(), &paa_approx.boundaries(), values)?;
    let sse = approx.sse_against(series);
    Ok(SaxOutput { symbols, approx, sse })
}

/// Acklam's rational approximation of the standard normal quantile
/// function (|error| < 1.15e-9 over (0, 1)).
fn normal_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_approximation_is_accurate() {
        // Known values: Φ⁻¹(0.5) = 0, Φ⁻¹(0.975) ≈ 1.959964,
        // Φ⁻¹(0.84134) ≈ 1.0.
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.841_344_75) - 1.0).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-5);
    }

    #[test]
    fn equiprobable_breakpoints_for_w4() {
        // Classic SAX table for w = 4: ±0.6745, 0.
        let s = DenseSeries::new((0..32).map(|i| i as f64).collect());
        let out = sax(&s, 8, 4).unwrap();
        assert_eq!(out.symbols.len(), 8);
        // Monotone series ⇒ monotone symbols.
        assert!(out.symbols.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.symbols[0], 0);
        assert_eq!(out.symbols[7], 3);
    }

    #[test]
    fn larger_alphabets_do_not_hurt() {
        let s = DenseSeries::new((0..64).map(|i| ((i * 13) % 29) as f64).collect());
        let coarse = sax(&s, 16, 3).unwrap();
        let fine = sax(&s, 16, 16).unwrap();
        assert!(fine.sse <= coarse.sse + 1e-9);
    }

    #[test]
    fn constant_series_maps_to_middle() {
        let s = DenseSeries::new(vec![7.0; 16]);
        let out = sax(&s, 4, 4).unwrap();
        // sd = 0: z = 0 falls in bin 2 of 4 (first bin with breakpoint ≥ 0).
        assert!(out.symbols.iter().all(|&b| b == out.symbols[0]));
    }

    #[test]
    fn invalid_alphabet_rejected() {
        let s = DenseSeries::new(vec![1.0; 8]);
        assert!(sax(&s, 4, 1).is_err());
        assert!(sax(&s, 4, 27).is_err());
    }
}
