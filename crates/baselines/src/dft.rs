//! Discrete Fourier approximation (§2.2, Fig. 2(c)).
//!
//! The series is transformed (real-input DFT), the `c` highest-energy
//! frequencies are kept — a conjugate pair `X_f`, `X_{N−f}` counts as one
//! retained frequency, as is conventional — and the signal is restored by
//! the inverse transform. The result is a *continuous* approximation, so
//! DFT "cannot be directly employed to evaluate PTA queries"; the paper
//! plots it for reference only.

use crate::error::BaselineError;
use pta_core::series::DenseSeries;

/// A DFT approximation.
#[derive(Debug, Clone)]
pub struct DftApprox {
    /// The restored signal.
    pub approx: Vec<f64>,
    /// Number of frequencies kept (conjugate pairs count once).
    pub frequencies: usize,
    /// SSE against the original series.
    pub sse: f64,
}

/// Keeps the `c` highest-energy frequencies. `O(N²)` — adequate for the
/// evaluation's series lengths; the method appears only in Fig. 2.
pub fn dft(series: &DenseSeries, c: usize) -> Result<DftApprox, BaselineError> {
    let n = series.len();
    let max_freq = n / 2 + 1;
    if c == 0 || c > max_freq {
        return Err(BaselineError::invalid_size(c, max_freq));
    }
    let x = series.values();
    let nf = n as f64;

    // Forward transform for frequencies 0..=n/2 (real input ⇒ Hermitian).
    let mut spec: Vec<(f64, f64)> = Vec::with_capacity(max_freq);
    for k in 0..max_freq {
        let (mut re, mut im) = (0.0, 0.0);
        let w = -2.0 * std::f64::consts::PI * k as f64 / nf;
        for (t, &v) in x.iter().enumerate() {
            let (s, cth) = (w * t as f64).sin_cos();
            re += v * cth;
            im += v * s;
        }
        spec.push((re, im));
    }

    // Energy per frequency: conjugate partners double the contribution of
    // the interior frequencies.
    let mut order: Vec<usize> = (0..max_freq).collect();
    let energy = |k: usize| -> f64 {
        let (re, im) = spec[k];
        let mag = re * re + im * im;
        if k == 0 || (n.is_multiple_of(2) && k == n / 2) {
            mag
        } else {
            2.0 * mag
        }
    };
    order.sort_by(|&a, &b| energy(b).total_cmp(&energy(a)).then(a.cmp(&b)));
    let kept = &order[..c];

    // Inverse restricted to the kept frequencies.
    let mut approx = vec![0.0; n];
    for &k in kept {
        let (re, im) = spec[k];
        let w = 2.0 * std::f64::consts::PI * k as f64 / nf;
        let double = !(k == 0 || (n.is_multiple_of(2) && k == n / 2));
        for (t, a) in approx.iter_mut().enumerate() {
            let (s, cth) = (w * t as f64).sin_cos();
            // X_k e^{iwt} + conj for the partner frequency.
            let contrib = re * cth - im * s;
            *a += if double { 2.0 * contrib } else { contrib } / nf;
        }
    }
    let sse = series.sse_against(&approx);
    Ok(DftApprox { approx, frequencies: c, sse })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_frequencies_reconstruct_exactly() {
        let s = DenseSeries::new(vec![3.0, -1.0, 4.0, 1.0, -5.0, 9.0]);
        let a = dft(&s, 4).unwrap();
        assert!(a.sse < 1e-12, "sse {}", a.sse);
    }

    #[test]
    fn single_sinusoid_needs_two_frequencies() {
        let n = 64;
        let values: Vec<f64> = (0..n)
            .map(|t| 2.0 + (2.0 * std::f64::consts::PI * 3.0 * t as f64 / n as f64).sin())
            .collect();
        let s = DenseSeries::new(values);
        // DC + the single tone: exact.
        let a = dft(&s, 2).unwrap();
        assert!(a.sse < 1e-12, "sse {}", a.sse);
        // DC alone leaves the tone's energy: n/2.
        let dc = dft(&s, 1).unwrap();
        assert!((dc.sse - n as f64 / 2.0).abs() < 1e-6);
    }

    #[test]
    fn error_decreases_with_more_frequencies() {
        let values: Vec<f64> = (0..40).map(|i| ((i * i) % 17) as f64).collect();
        let s = DenseSeries::new(values);
        let mut prev = f64::INFINITY;
        for c in 1..=21 {
            let a = dft(&s, c).unwrap();
            assert!(a.sse <= prev + 1e-9, "c = {c}");
            prev = a.sse;
        }
    }

    #[test]
    fn invalid_sizes_rejected() {
        let s = DenseSeries::new(vec![1.0; 10]);
        assert!(dft(&s, 0).is_err());
        assert!(dft(&s, 7).is_err());
    }
}
