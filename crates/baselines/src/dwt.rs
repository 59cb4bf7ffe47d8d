//! Discrete Haar wavelet approximation (§2.2, Fig. 2(b)).
//!
//! The series is padded to a power of two, transformed with the
//! orthonormal Haar wavelet, and approximated by keeping the `k` largest
//! coefficients. The reconstruction is a step function, but there is "no
//! direct relationship between the number of coefficients retained and the
//! number of segments" (§7.2.2) — a `k`-coefficient reconstruction has
//! between 1 and `3k` segments — so obtaining a `c`-segment result
//! requires searching over `k`. [`DwtTable`] supports that search in
//! `O(N log N)` total by adding coefficients incrementally (largest
//! first): each addition shifts two constant half-blocks, so the error and
//! segment count update locally.

use crate::error::BaselineError;
use pta_core::series::DenseSeries;

/// How the series is padded to the next power of two. The paper notes
/// padding "influences the approximation result" (the right-edge
/// fluctuation in Fig. 2(b) comes from zero padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Padding {
    /// Pad with zeros (classic, produces the paper's edge artefacts).
    #[default]
    Zero,
    /// Repeat the last value.
    LastValue,
    /// Pad with the series mean.
    Mean,
}

fn padded(series: &DenseSeries, padding: Padding) -> Vec<f64> {
    let n = series.len();
    let cap = n.next_power_of_two();
    let fill = match padding {
        Padding::Zero => 0.0,
        Padding::LastValue => series.values().last().copied().unwrap_or(0.0),
        Padding::Mean => series.mean(),
    };
    let mut data = Vec::with_capacity(cap);
    data.extend_from_slice(series.values());
    data.resize(cap, fill);
    data
}

/// In-place orthonormal Haar forward transform. `data.len()` must be a
/// power of two. Layout: index 0 holds the scaling coefficient; indices
/// `[2^l, 2^{l+1})` hold the level-`l` details (support `N / 2^l`).
pub(crate) fn haar_forward(data: &mut [f64]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let mut len = n;
    let mut buf = vec![0.0; n];
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let (a, b) = (data[2 * i], data[2 * i + 1]);
            buf[i] = (a + b) * inv_sqrt2;
            buf[half + i] = (a - b) * inv_sqrt2;
        }
        data[..len].copy_from_slice(&buf[..len]);
        len = half;
    }
}

/// In-place inverse of [`haar_forward`].
pub(crate) fn haar_inverse(data: &mut [f64]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let mut len = 2;
    let mut buf = vec![0.0; n];
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    while len <= n {
        let half = len / 2;
        for i in 0..half {
            let (s, d) = (data[i], data[half + i]);
            buf[2 * i] = (s + d) * inv_sqrt2;
            buf[2 * i + 1] = (s - d) * inv_sqrt2;
        }
        data[..len].copy_from_slice(&buf[..len]);
        len *= 2;
    }
}

/// The support and sign pattern of coefficient `j` in an `N`-point
/// transform: returns `(start, mid, end, amplitude)`; the basis vector is
/// `+amplitude` on `start..mid` and `−amplitude` on `mid..end` (for `j =
/// 0` it is `+amplitude` on the whole range with `mid == end`).
fn basis(j: usize, n: usize) -> (usize, usize, usize, f64) {
    if j == 0 {
        return (0, n, n, 1.0 / (n as f64).sqrt());
    }
    let level = usize::BITS as usize - 1 - j.leading_zeros() as usize;
    let support = n >> level;
    let m = j - (1 << level);
    let start = m * support;
    (start, start + support / 2, start + support, 1.0 / (support as f64).sqrt())
}

/// Reconstruction from the `k` largest-magnitude coefficients.
#[derive(Debug, Clone)]
pub struct DwtApprox {
    /// The reconstructed signal over the original (unpadded) length.
    pub approx: Vec<f64>,
    /// Coefficients kept.
    pub k: usize,
    /// Segments of the reconstruction (over the original length).
    pub segments: usize,
    /// SSE against the original series (padding excluded).
    pub sse: f64,
}

/// Keeps the `k` largest-magnitude Haar coefficients and reconstructs.
pub fn dwt_top_k(
    series: &DenseSeries,
    k: usize,
    padding: Padding,
) -> Result<DwtApprox, BaselineError> {
    let n = series.len();
    if n == 0 || k == 0 {
        return Err(BaselineError::invalid_size(k, n));
    }
    let table = DwtTable::build(series, padding);
    Ok(table.approx_at(k.min(table.padded_len())))
}

/// Incremental coefficient table: for every `k`, the segment count and SSE
/// of the top-`k` reconstruction, plus the best achievable error for every
/// segment budget.
#[derive(Debug, Clone)]
pub struct DwtTable {
    n: usize,
    padded: usize,
    coeffs: Vec<f64>,
    /// Coefficient indices, largest magnitude first.
    order: Vec<usize>,
    /// `(segments, sse)` after adding the first `k` coefficients
    /// (index `k − 1`).
    entries: Vec<(usize, f64)>,
    /// `best_for[s]` = (k, sse) minimizing sse among prefixes with at most
    /// `s` segments.
    best_for: Vec<Option<(usize, f64)>>,
}

impl DwtTable {
    /// Builds the full table in `O(N log N)`.
    pub fn build(series: &DenseSeries, padding: Padding) -> Self {
        let n = series.len();
        let data = padded(series, padding);
        let padded_len = data.len();
        let mut coeffs = data;
        haar_forward(&mut coeffs);

        let mut order: Vec<usize> = (0..padded_len).collect();
        order.sort_by(|&a, &b| coeffs[b].abs().total_cmp(&coeffs[a].abs()).then(a.cmp(&b)));

        let mut recon = vec![0.0; padded_len];
        // Running SSE over the original region and boundary count. The
        // starting point — the error of the all-zero reconstruction — comes
        // from the shared pta-core kernel; coefficient additions then
        // adjust it by O(1) per affected chronon.
        let mut sse: f64 = series.range_sse_constant(0..n, 0.0);
        let mut boundaries = 0usize; // recon is all-zero: none
        let mut entries = Vec::with_capacity(padded_len);

        let pair_differs =
            |recon: &[f64], i: usize| -> bool { i + 1 < n && recon[i] != recon[i + 1] };

        for &j in &order {
            let (start, mid, end, amp) = basis(j, padded_len);
            let delta = coeffs[j] * amp;
            // Boundary pairs whose relation can change: around start, mid,
            // end. Remove their old state first.
            let mut watch = [None::<usize>; 3];
            watch[0] = start.checked_sub(1);
            if mid < end {
                watch[1] = Some(mid - 1);
            }
            watch[2] = Some(end - 1);
            for w in watch.iter().flatten() {
                if pair_differs(&recon, *w) {
                    boundaries -= 1;
                }
            }
            for (i, r) in recon.iter_mut().enumerate().take(mid).skip(start) {
                if i < n {
                    let old = *r - series.get(i);
                    let new = old + delta;
                    sse += new * new - old * old;
                }
                *r += delta;
            }
            for (i, r) in recon.iter_mut().enumerate().take(end).skip(mid) {
                if i < n {
                    let old = *r - series.get(i);
                    let new = old - delta;
                    sse += new * new - old * old;
                }
                *r -= delta;
            }
            for w in watch.iter().flatten() {
                if pair_differs(&recon, *w) {
                    boundaries += 1;
                }
            }
            entries.push((boundaries + 1, sse.max(0.0)));
        }

        let mut best_for: Vec<Option<(usize, f64)>> = vec![None; n + 2];
        for (idx, &(segments, err)) in entries.iter().enumerate() {
            let s = segments.min(n);
            let k = idx + 1;
            if best_for[s].is_none_or(|(_, e)| err < e) {
                best_for[s] = Some((k, err));
            }
        }
        // Prefix-min: a budget of s segments admits any entry with fewer.
        for s in 1..best_for.len() {
            if let Some((pk, pe)) = best_for[s - 1] {
                if best_for[s].is_none_or(|(_, e)| pe < e) {
                    best_for[s] = Some((pk, pe));
                }
            }
        }
        Self { n, padded: padded_len, coeffs, order, entries, best_for }
    }

    /// Original series length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the series was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Padded transform length.
    pub fn padded_len(&self) -> usize {
        self.padded
    }

    /// `(segments, sse)` of the top-`k` reconstruction.
    pub fn entry(&self, k: usize) -> (usize, f64) {
        self.entries[k - 1]
    }

    /// The best `(k, sse)` whose reconstruction has at most `c` segments.
    pub fn best_for_segments(&self, c: usize) -> Option<(usize, f64)> {
        self.best_for.get(c.min(self.n)).copied().flatten()
    }

    /// Materialises the top-`k` reconstruction (recomputed from the
    /// coefficients; `O(N)` plus one inverse transform).
    pub fn approx_at(&self, k: usize) -> DwtApprox {
        let mut kept = vec![0.0; self.padded];
        for &j in self.order.iter().take(k) {
            kept[j] = self.coeffs[j];
        }
        haar_inverse(&mut kept);
        kept.truncate(self.n);
        let (segments, sse) = self.entries[k - 1];
        DwtApprox { approx: kept, k, segments, sse }
    }
}

/// The best DWT approximation using at most `c` segments — the search the
/// paper performs to compare DWT against size-bounded PTA.
pub fn dwt_for_size(
    series: &DenseSeries,
    c: usize,
    padding: Padding,
) -> Result<DwtApprox, BaselineError> {
    let n = series.len();
    if c == 0 || c > n {
        return Err(BaselineError::invalid_size(c, n));
    }
    let table = DwtTable::build(series, padding);
    match table.best_for_segments(c) {
        Some((k, _)) => Ok(table.approx_at(k)),
        // No prefix stays within c segments (tiny c): fall back to the
        // scaling coefficient alone if it is first, else the global mean.
        None => {
            let mean = series.mean();
            let approx = vec![mean; n];
            let sse = series.sse_against(&approx);
            Ok(DwtApprox { approx, k: 1, segments: 1, sse })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_inverse_roundtrip() {
        let mut data = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let orig = data.clone();
        haar_forward(&mut data);
        haar_inverse(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transform_preserves_energy() {
        let mut data = vec![2.0, -1.0, 0.5, 3.0];
        let e0: f64 = data.iter().map(|v| v * v).sum();
        haar_forward(&mut data);
        let e1: f64 = data.iter().map(|v| v * v).sum();
        assert!((e0 - e1).abs() < 1e-10);
    }

    #[test]
    fn all_coefficients_reconstruct_exactly() {
        let s = DenseSeries::new(vec![3.0, 1.0, 4.0, 1.0, 5.0]);
        let a = dwt_top_k(&s, 8, Padding::Zero).unwrap();
        assert!(a.sse < 1e-12, "sse {}", a.sse);
        assert_eq!(a.approx.len(), 5);
    }

    #[test]
    fn one_coefficient_of_constant_series_is_exact() {
        let s = DenseSeries::new(vec![7.0; 8]);
        let a = dwt_top_k(&s, 1, Padding::Zero).unwrap();
        assert!(a.sse < 1e-18);
        assert_eq!(a.segments, 1);
    }

    #[test]
    fn incremental_table_matches_direct_reconstruction() {
        let values: Vec<f64> = (0..23).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let s = DenseSeries::new(values);
        let table = DwtTable::build(&s, Padding::Zero);
        for k in 1..=table.padded_len() {
            let a = table.approx_at(k);
            let direct_sse = s.sse_against(&a.approx);
            let (segments, table_sse) = table.entry(k);
            assert!(
                (direct_sse - table_sse).abs() < 1e-6 * (1.0 + direct_sse),
                "k = {k}: {direct_sse} vs {table_sse}"
            );
            let direct_segments =
                pta_core::series::PiecewiseConstant::from_step_signal(&a.approx).segments();
            assert_eq!(segments, direct_segments, "k = {k}");
        }
    }

    #[test]
    fn size_search_respects_budget() {
        let values: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() * 10.0).collect();
        let s = DenseSeries::new(values);
        for c in 1..=20 {
            let a = dwt_for_size(&s, c, Padding::Zero).unwrap();
            assert!(a.segments <= c, "c = {c}: got {} segments", a.segments);
        }
    }

    #[test]
    fn padding_modes_differ_on_non_pow2_input() {
        let s = DenseSeries::new(vec![5.0, 5.0, 5.0, 5.0, 5.0]);
        let zero = dwt_top_k(&s, 2, Padding::Zero).unwrap();
        let last = dwt_top_k(&s, 1, Padding::LastValue).unwrap();
        // Last-value padding makes the padded series constant: exact with
        // one coefficient; zero padding cannot be exact with two.
        assert!(last.sse < 1e-18);
        assert!(zero.sse > 0.0);
    }
}
