//! Sample summaries and the reduction checker.

use std::ops::Range;

use pta_temporal::SequentialRelation;

/// Share of samples dropped from each end by [`Timing::trimmed`].
const TRIM: f64 = 0.1;

/// Summary of repeated timings of one identical operation.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub min: f64,
    pub median: f64,
    /// The mean of the samples left after dropping the lowest and the
    /// highest tenth of them.
    pub trimmed: f64,
    pub first: f64,
    pub samples: usize,
}

impl Timing {
    pub fn of(samples: &[f64]) -> Timing {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let cut = (sorted.len() as f64 * TRIM) as usize;
        let kept = &sorted[cut..sorted.len() - cut];
        Timing {
            min: sorted.first().copied().unwrap_or(f64::NAN),
            median: percentile(&sorted, 0.5),
            trimmed: kept.iter().sum::<f64>() / kept.len() as f64,
            first: samples.first().copied().unwrap_or(f64::NAN),
            samples: samples.len(),
        }
    }
}

/// The `q`-quantile of ascending `sorted` samples, linearly interpolated.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The `q`-quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// Whether `a` and `b` agree to `1e-9` relative (floored at 1 so that
/// two near-zero errors compare absolutely).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn adjacent(seq: &SequentialRelation, i: usize) -> bool {
    seq.group(i) == seq.group(i + 1) && seq.interval(i).end() + 1 == seq.interval(i + 1).start()
}

/// SSE of merging `range` of `seq` into one tuple: squared deviations
/// from the duration-weighted mean, weighted by duration, unit weights.
fn range_sse(seq: &SequentialRelation, range: Range<usize>) -> f64 {
    let mut sse = 0.0;
    for d in 0..seq.dims() {
        let (mut total, mut sum) = (0.0, 0.0);
        for i in range.clone() {
            let len = seq.interval(i).len() as f64;
            total += len;
            sum += len * seq.value(i, d);
        }
        let mean = sum / total;
        for i in range.clone() {
            let diff = seq.value(i, d) - mean;
            sse += seq.interval(i).len() as f64 * diff * diff;
        }
    }
    sse
}

/// Recomputes a reduction's SSE from its source ranges against the ITA
/// input it reduced, after checking that the ranges partition `0..n` in
/// order and that each stays within one maximal adjacent run. Fails when
/// the reported SSE differs from the recomputed one by more than `1e-9`
/// relative; returns the recomputed SSE.
pub fn check_reduction(
    seq: &SequentialRelation,
    ranges: &[Range<usize>],
    reported_sse: f64,
) -> Result<f64, String> {
    let mut next = 0;
    let mut sse = 0.0;
    for r in ranges {
        if r.start != next || r.end <= r.start || r.end > seq.len() {
            return Err(format!("source range {r:?} does not continue at {next}"));
        }
        if let Some(i) = (r.start..r.end - 1).find(|&i| !adjacent(seq, i)) {
            return Err(format!("source range {r:?} crosses a gap or group boundary at {i}"));
        }
        sse += range_sse(seq, r.clone());
        next = r.end;
    }
    if next != seq.len() {
        return Err(format!("source ranges cover 0..{next}, input has {} tuples", seq.len()));
    }
    if !close(sse, reported_sse) {
        return Err(format!("reported SSE {reported_sse} but the source ranges give {sse}"));
    }
    Ok(sse)
}

/// The maximal reduction error `E_max`: every maximal adjacent run merged
/// into one tuple.
pub fn max_error(seq: &SequentialRelation) -> f64 {
    let mut sse = 0.0;
    let mut start = 0;
    for i in 0..seq.len() {
        if i + 1 == seq.len() || !adjacent(seq, i) {
            sse += range_sse(seq, start..i + 1);
            start = i + 1;
        }
    }
    sse
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval, Value};

    /// The paper's Fig. 1(c) ITA result: group A over [1, 7], group B
    /// over [4, 5] and [7, 8].
    fn fig1c() -> SequentialRelation {
        let mut b = SequentialBuilder::new(1);
        let rows = [
            ("A", 1, 2, 800.0),
            ("A", 3, 3, 600.0),
            ("A", 4, 4, 500.0),
            ("A", 5, 6, 350.0),
            ("A", 7, 7, 300.0),
            ("B", 4, 5, 500.0),
            ("B", 7, 8, 500.0),
        ];
        for (g, lo, hi, v) in rows {
            let key = GroupKey::new(vec![Value::str(g)]);
            b.push(key, TimeInterval::new(lo, hi).expect("interval"), &[v]).expect("push");
        }
        b.build()
    }

    fn fig1d() -> Vec<Range<usize>> {
        vec![0..2, 2..5, 5..6, 6..7]
    }

    #[test]
    fn accepts_the_papers_reduction() {
        let sse = check_reduction(&fig1c(), &fig1d(), 49_166.666_666_666_66).expect("valid");
        assert!((sse - 49_166.67).abs() < 0.01);
        assert!(max_error(&fig1c()) >= sse);
    }

    #[test]
    fn rejects_a_corrupted_sse() {
        let err = check_reduction(&fig1c(), &fig1d(), 49_166.7).expect_err("tampered SSE");
        assert!(err.contains("reported SSE"), "{err}");
    }

    #[test]
    fn rejects_corrupted_ranges() {
        let seq = fig1c();
        let gap = vec![0..2, 2..5, 5..7];
        assert!(check_reduction(&seq, &gap, 0.0).expect_err("gap").contains("crosses"));
        let hole = vec![0..1, 2..7];
        assert!(check_reduction(&seq, &hole, 0.0).expect_err("hole").contains("continue"));
        let short = [0..2, 2..5];
        assert!(check_reduction(&seq, &short, 0.0).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let t = Timing::of(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!((t.min, t.first, t.samples), (1.0, 3.0, 4));
        assert!((t.median - 2.5).abs() < 1e-12);
        assert!((t.trimmed - 2.5).abs() < 1e-12);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.99) - 4.96).abs() < 1e-12);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_end() {
        // Two passes out of twenty are outliers, one at each end.
        let mut v: Vec<f64> = (1..=18).map(f64::from).collect();
        v.extend([-1e6, 1e6]);
        let t = Timing::of(&v);
        assert!((t.trimmed - 9.5).abs() < 1e-12, "{}", t.trimmed);
        // A two-valued sample moves the trimmed mean in proportion to the
        // mix, where the median jumps from one value to the other.
        let mix = |low: usize| {
            let v: Vec<f64> = (0..20).map(|i| if i < low { 13.0 } else { 20.0 }).collect();
            Timing::of(&v)
        };
        assert_eq!((mix(9).median, mix(11).median), (20.0, 13.0));
        assert!(mix(9).trimmed - mix(11).trimmed < 1.0);
    }
}
