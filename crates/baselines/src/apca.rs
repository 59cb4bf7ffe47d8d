//! Adaptive piecewise constant approximation (APCA, Chakrabarti et al.).
//!
//! APCA starts from the top-`c` Haar coefficients, reconstructs the step
//! signal (up to `3c` segments), substitutes the *true* mean of the
//! original data in every segment, and greedily merges the most similar
//! adjacent segments until `c` remain (§2.2, Fig. 2(f)). The greedy merge
//! is exactly PTA's GMS on the segment relation, so we reuse it.

use pta_core::{gms_size_bounded, CancelToken, GapPolicy, Weights};
use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval};

use crate::dwt::{DwtTable, Padding};
use crate::error::BaselineError;
use pta_core::series::{DenseSeries, PiecewiseConstant};

/// APCA with `c` segments.
pub fn apca(
    series: &DenseSeries,
    c: usize,
    padding: Padding,
) -> Result<PiecewiseConstant, BaselineError> {
    let n = series.len();
    if c == 0 || c > n {
        return Err(BaselineError::invalid_size(c, n));
    }
    // Step 1: reconstruct from the c most significant coefficients.
    let table = DwtTable::build(series, padding);
    let recon = table.approx_at(c.min(table.padded_len()));
    // Step 2: derive segments and replace values with true means.
    let steps = PiecewiseConstant::from_step_signal(&recon.approx).with_true_means(series);
    if steps.segments() <= c {
        return Ok(steps);
    }
    // Step 3: greedily merge the most similar adjacent segments down to c.
    let mut b = SequentialBuilder::new(1);
    let bounds = steps.boundaries();
    for (k, w) in bounds.windows(2).enumerate() {
        b.push(
            GroupKey::empty(),
            TimeInterval::new(w[0] as i64, w[1] as i64 - 1)?,
            &[steps.values()[k]],
        )?;
    }
    let seg_rel = b.build();
    let merged = gms_size_bounded(
        &seg_rel,
        &Weights::uniform(1),
        c,
        GapPolicy::Strict,
        CancelToken::inert(),
    )?;
    let z = merged.reduction.relation();
    let mut boundaries = Vec::with_capacity(c + 1);
    let mut values = Vec::with_capacity(c);
    for i in 0..z.len() {
        boundaries.push(z.interval(i).start() as usize);
        values.push(z.value(i, 0));
    }
    boundaries.push(n);
    Ok(PiecewiseConstant::new(n, &boundaries, values)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paa::paa;

    fn noisy_steps(n: usize) -> DenseSeries {
        // Three plateaus with deterministic jitter.
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let base = if i < n / 3 {
                    10.0
                } else if i < 2 * n / 3 {
                    -5.0
                } else {
                    3.0
                };
                base + ((i * 7919) % 13) as f64 * 0.01
            })
            .collect();
        DenseSeries::new(values)
    }

    #[test]
    fn produces_at_most_c_segments() {
        let s = noisy_steps(50);
        for c in 1..=12 {
            let a = apca(&s, c, Padding::Zero).unwrap();
            assert!(a.segments() <= c, "c = {c}: {} segments", a.segments());
            assert_eq!(a.len(), 50);
        }
    }

    /// APCA's segment values are true means, so with the same boundaries
    /// it cannot lose to the raw DWT reconstruction; being data-adaptive
    /// it typically also beats PAA on step-like data (the paper's claim).
    #[test]
    fn beats_paa_on_step_data() {
        let s = noisy_steps(96);
        let c = 3;
        let a = apca(&s, c, Padding::Zero).unwrap();
        let p = paa(&s, c).unwrap();
        assert!(
            a.sse_against(&s) <= p.sse_against(&s) + 1e-9,
            "APCA {} vs PAA {}",
            a.sse_against(&s),
            p.sse_against(&s)
        );
    }

    #[test]
    fn exact_when_c_covers_structure() {
        // A clean 2-level step function is recovered exactly with c = 2.
        let mut v = vec![4.0; 16];
        v.extend(vec![-2.0; 16]);
        let s = DenseSeries::new(v);
        let a = apca(&s, 2, Padding::Zero).unwrap();
        assert!(a.sse_against(&s) < 1e-18, "sse {}", a.sse_against(&s));
    }

    #[test]
    fn invalid_sizes_rejected() {
        let s = noisy_steps(10);
        assert!(apca(&s, 0, Padding::Zero).is_err());
        assert!(apca(&s, 11, Padding::Zero).is_err());
    }
}
