//! Amnesic piecewise-constant approximation (Palpanas et al., §2.2).
//!
//! An *amnesic* approximation tolerates more error on older data. The
//! user supplies a weight per age (the reciprocal of the paper's relative
//! amnesic function `RA(t)`); the optimal `c`-segment step function then
//! minimizes the age-weighted SSE
//!
//! ```text
//! Σ_t w(age(t)) · (x_t − approx_t)²
//! ```
//!
//! With `w ≡ 1` ("`RA(t) = 1` ... its effect is disabled") the problem
//! "is equivalent to size-bounded PTA" — a property the tests assert. The
//! solver is the same Jagadish-style DP with weighted prefix sums.

use crate::error::BaselineError;
use pta_core::series::{DenseSeries, PiecewiseConstant};

/// Optimal `c`-segment approximation under an age-weighted SSE. `weight`
/// maps the *age* of a point (0 = most recent) to a positive weight;
/// monotonically decreasing weights yield the amnesic effect.
pub fn amnesic_size_bounded(
    series: &DenseSeries,
    c: usize,
    weight: impl Fn(usize) -> f64,
) -> Result<PiecewiseConstant, BaselineError> {
    let n = series.len();
    if c == 0 || c > n {
        return Err(BaselineError::invalid_size(c, n));
    }
    // First pass: validate the weights and find the weighted global mean
    // — the centering point that keeps `SS − S²/W` well-conditioned for
    // large-mean data, mirroring `pta_core::PrefixStats`.
    let mut ws = Vec::with_capacity(n);
    let (mut wsum, mut wxsum) = (0.0, 0.0);
    for t in 0..n {
        let age = n - 1 - t;
        let w = weight(age);
        if !(w.is_finite() && w > 0.0) {
            return Err(BaselineError::invalid_parameter(
                "amnesic weight",
                format!("weight at age {age} must be positive and finite, got {w}"),
            ));
        }
        wsum += w;
        wxsum += w * series.get(t);
        ws.push(w);
    }
    let mu = wxsum / wsum;
    // Weighted prefix sums centered at μ: W, S, SS (1-based, zero row).
    let mut pw = vec![0.0; n + 1];
    let mut ps = vec![0.0; n + 1];
    let mut pss = vec![0.0; n + 1];
    for (t, &w) in ws.iter().enumerate() {
        let x = series.get(t) - mu;
        pw[t + 1] = pw[t] + w;
        ps[t + 1] = ps[t] + w * x;
        pss[t + 1] = pss[t] + w * x * x;
    }
    let cost = |lo: usize, hi: usize| -> f64 {
        let w = pw[hi] - pw[lo];
        let s = ps[hi] - ps[lo];
        let ss = pss[hi] - pss[lo];
        (ss - s * s / w).max(0.0)
    };

    // DP over (segments, prefix) with the usual decreasing-j early break.
    let width = n + 1;
    let mut prev = vec![f64::INFINITY; width];
    prev[0] = 0.0;
    let mut cur = vec![f64::INFINITY; width];
    let mut jm = vec![0u32; c * width];
    for k in 1..=c {
        for i in k..=n {
            if k == 1 {
                cur[i] = cost(0, i);
                continue;
            }
            let mut best = f64::INFINITY;
            let mut best_j = k - 1;
            for j in (k - 1..i).rev() {
                let err2 = cost(j, i);
                let total = prev[j] + err2;
                if total < best {
                    best = total;
                    best_j = j;
                }
                if err2 > best {
                    break;
                }
            }
            cur[i] = best;
            jm[(k - 1) * width + i] = best_j as u32;
        }
        std::mem::swap(&mut prev, &mut cur);
        cur.fill(f64::INFINITY);
    }

    // Backtrack and materialise with *weighted* segment means.
    let mut bounds = vec![n];
    let mut i = n;
    for k in (1..=c).rev() {
        let j = jm[(k - 1) * width + i] as usize;
        bounds.push(j);
        i = j;
    }
    bounds.reverse();
    let values =
        bounds.windows(2).map(|w| mu + (ps[w[1]] - ps[w[0]]) / (pw[w[1]] - pw[w[0]])).collect();
    Ok(PiecewiseConstant::new(n, &bounds, values)?)
}

/// The paper-cited relative amnesic family `RA(age) = 1 + rate · age`:
/// returns the corresponding weight function `1 / RA`.
pub fn linear_amnesia(rate: f64) -> impl Fn(usize) -> f64 {
    move |age| 1.0 / (1.0 + rate * age as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_core::{pta_size_bounded, Weights};
    use pta_temporal::SequentialRelation;

    fn series() -> DenseSeries {
        DenseSeries::new((0..48).map(|i| ((i * 13) % 17) as f64 + (i / 12) as f64 * 5.0).collect())
    }

    /// Palpanas et al. §2.2: with RA(t) = 1 the problem is size-bounded
    /// PTA — identical optimal error.
    #[test]
    fn unit_weights_equal_pta() {
        let s = series();
        let rel = SequentialRelation::from_time_series(1, 0, s.values()).expect("valid series");
        let w = Weights::uniform(1);
        for c in [1usize, 3, 7, 20] {
            let amn = amnesic_size_bounded(&s, c, |_| 1.0).unwrap();
            let pta = pta_size_bounded(&rel, &w, c).unwrap();
            assert!(
                (amn.sse_against(&s) - pta.reduction.sse()).abs()
                    < 1e-6 * (1.0 + pta.reduction.sse()),
                "c = {c}: {} vs {}",
                amn.sse_against(&s),
                pta.reduction.sse()
            );
        }
    }

    /// Decaying weights shift segment boundaries toward the recent end:
    /// the most recent segment gets shorter, old data coarser.
    #[test]
    fn amnesia_refines_recent_data() {
        let s = series();
        let flat = amnesic_size_bounded(&s, 6, |_| 1.0).unwrap();
        let amnesic = amnesic_size_bounded(&s, 6, linear_amnesia(0.5)).unwrap();
        let first_len = |pc: &PiecewiseConstant| pc.boundaries()[1] - pc.boundaries()[0];
        assert!(
            first_len(&amnesic) >= first_len(&flat),
            "oldest amnesic segment ({}) should be at least as long as the flat one ({})",
            first_len(&amnesic),
            first_len(&flat)
        );
        assert_eq!(amnesic.segments(), 6);
    }

    /// The weighted error of the amnesic optimum never exceeds the
    /// weighted error of the unweighted optimum's partition.
    #[test]
    fn amnesic_optimum_dominates_reweighted_flat_partition() {
        let s = series();
        let weight = linear_amnesia(0.3);
        let weighted_err = |pc: &PiecewiseConstant| -> f64 {
            let n = s.len();
            let bounds = pc.boundaries();
            let mut err = 0.0;
            for (k, w2) in bounds.windows(2).enumerate() {
                for t in w2[0]..w2[1] {
                    let d = s.get(t) - pc.values()[k];
                    err += weight(n - 1 - t) * d * d;
                }
            }
            err
        };
        let amnesic = amnesic_size_bounded(&s, 5, &weight).unwrap();
        let flat = amnesic_size_bounded(&s, 5, |_| 1.0).unwrap();
        // Recompute flat's values as weighted means over its own bounds for
        // a fair comparison of partitions.
        let reweighted = {
            let bounds = flat.boundaries();
            let values: Vec<f64> = bounds
                .windows(2)
                .map(|w2| {
                    let (mut num, mut den) = (0.0, 0.0);
                    for t in w2[0]..w2[1] {
                        let w = weight(s.len() - 1 - t);
                        num += w * s.get(t);
                        den += w;
                    }
                    num / den
                })
                .collect();
            PiecewiseConstant::new(s.len(), &bounds, values).unwrap()
        };
        assert!(weighted_err(&amnesic) <= weighted_err(&reweighted) + 1e-9);
    }

    /// Regression: the centered cost must survive large-mean data (an
    /// uncentered `SS − S²/W` collapses every segment cost to ~0 there),
    /// and the unit-weight = PTA equivalence must hold on it too.
    #[test]
    fn unit_weights_equal_pta_for_large_means() {
        let values: Vec<f64> = (0..64).map(|i| 1.0e8 + (((i * 13) % 17) as f64 - 8.0)).collect();
        let s = DenseSeries::new(values.clone());
        let rel = SequentialRelation::from_time_series(1, 0, &values).expect("valid series");
        let w = Weights::uniform(1);
        for c in [2usize, 5, 9] {
            let amn = amnesic_size_bounded(&s, c, |_| 1.0).unwrap();
            let pta = pta_size_bounded(&rel, &w, c).unwrap();
            assert!(
                (amn.sse_against(&s) - pta.reduction.sse()).abs()
                    < 1e-6 * (1.0 + pta.reduction.sse()),
                "c = {c}: amnesic {} vs PTA {}",
                amn.sse_against(&s),
                pta.reduction.sse()
            );
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let s = series();
        assert!(amnesic_size_bounded(&s, 0, |_| 1.0).is_err());
        assert!(amnesic_size_bounded(&s, 100, |_| 1.0).is_err());
        assert!(amnesic_size_bounded(&s, 3, |_| 0.0).is_err());
        assert!(amnesic_size_bounded(&s, 3, |_| f64::NAN).is_err());
    }
}
