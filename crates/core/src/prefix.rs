//! Prefix-sum statistics for constant-time range SSE (§5.2, Prop. 1).
//!
//! Following Jagadish et al.'s histogram construction, extended to
//! multi-dimensional data, we precompute for every prefix of the sorted ITA
//! relation:
//!
//! * `S_{d,i}  = Σ_{j ≤ i} |s_j.T| · (s_j.B_d − μ_d)` — weighted value sums,
//! * `SS_{d,i} = Σ_{j ≤ i} |s_j.T| · (s_j.B_d − μ_d)²` — weighted square sums,
//! * `L_i     = Σ_{j ≤ i} |s_j.T|` — total covered chronons,
//!
//! where `μ_d` is the relation's global length-weighted mean of dimension
//! `d`. The SSE of merging tuples `i..=j` (1-based) into one then evaluates
//! in `O(p)`:
//!
//! ```text
//! SSE = Σ_d w_d² [ SS_{d,j} − SS_{d,i−1} − (S_{d,j} − S_{d,i−1})² / (L_j − L_{i−1}) ]
//! ```
//!
//! The centering at `μ` does not change this formula — the SSE is
//! translation-invariant — but it conditions the arithmetic: without it,
//! `SS − S²/L` cancels catastrophically for data whose mean is large
//! relative to its spread (values `1e8 ± 0.5` would lose *all* precision),
//! which matters because every error figure in the workspace flows through
//! this kernel.
//!
//! # One kernel, anchored at a fixed end
//!
//! The formula has one implementation, anchored at one end of the range.
//! The anchor holds that end's `S`, `SS` and `L` rows and the squared
//! weights, so each evaluation reads only the other end's row. The exact
//! DP holds one end fixed for a whole cell, so it builds one anchor per
//! cell and evaluates every split candidate against it. For a range of
//! at most one tuple the kernel returns exactly `0` without evaluating
//! the formula; the scans compute their first candidate, on the exact
//! scan that one-tuple range, before their loop. The kernel is compiled
//! twice: with `p = 1` as a constant, and for any `p`.
//! [`PrefixStats::range_sse`] is the kernel at the range's end, so a DP
//! cell, a reduction's SSE and a comparator's error agree to the bit.

use pta_temporal::SequentialRelation;

use crate::weights::Weights;

/// Prefix sums `S`, `SS`, `L` over a sequential relation.
///
/// Internally 1-based with a zero row, so ranges touching the first tuple
/// need no special casing. Ranges in the public API are ordinary 0-based
/// half-open `start..end` index ranges over the relation.
#[derive(Debug, Clone)]
pub struct PrefixStats {
    p: usize,
    /// Per-dimension global length-weighted mean the sums are centered at.
    mu: Vec<f64>,
    /// `(n + 1) × p`, row-major, centered at `mu`; row 0 is zero.
    s: Vec<f64>,
    /// `(n + 1) × p`, row-major, centered at `mu`; row 0 is zero.
    ss: Vec<f64>,
    /// `n + 1`; entry 0 is zero.
    l: Vec<f64>,
}

impl PrefixStats {
    /// Builds the prefix sums in one `O(n·p)` scan. The paper notes this
    /// can be fused into ITA result production at no extra cost; we keep it
    /// a separate pass for clarity — it is linear either way.
    pub fn build(input: &SequentialRelation) -> Self {
        let n = input.len();
        let p = input.dims();
        // First pass: the global length-weighted mean per dimension, the
        // centering point that keeps `SS − S²/L` well-conditioned.
        let mut mu = vec![0.0; p];
        let mut total = 0.0;
        for i in 0..n {
            let len = input.interval(i).len() as f64;
            total += len;
            for (d, m) in mu.iter_mut().enumerate() {
                *m += len * input.value(i, d);
            }
        }
        if total > 0.0 {
            for m in &mut mu {
                *m /= total;
            }
        }
        let mut s = vec![0.0; (n + 1) * p];
        let mut ss = vec![0.0; (n + 1) * p];
        let mut l = vec![0.0; n + 1];
        for i in 0..n {
            let len = input.interval(i).len() as f64;
            l[i + 1] = l[i] + len;
            let vals = input.values(i);
            let (prev, cur) = ((i) * p, (i + 1) * p);
            for d in 0..p {
                let v = vals[d] - mu[d];
                s[cur + d] = s[prev + d] + len * v;
                ss[cur + d] = ss[prev + d] + len * v * v;
            }
        }
        Self { p, mu, s, ss, l }
    }

    /// Builds prefix sums over a dense one-dimensional series: one value
    /// per chronon, unit durations. This is the per-chronon special case
    /// of the weighted-segment kernel, used by the time-series comparator
    /// methods so that their reconstruction errors evaluate through the
    /// same code path as PTA's (Def. 5 with unit weights).
    pub fn from_dense(values: &[f64]) -> Self {
        let n = values.len();
        let mu = if n == 0 { 0.0 } else { values.iter().sum::<f64>() / n as f64 };
        let mut s = vec![0.0; n + 1];
        let mut ss = vec![0.0; n + 1];
        let mut l = vec![0.0; n + 1];
        for (i, &v) in values.iter().enumerate() {
            let v = v - mu;
            l[i + 1] = l[i] + 1.0;
            s[i + 1] = s[i] + v;
            ss[i + 1] = ss[i] + v * v;
        }
        Self { p: 1, mu: vec![mu], s, ss, l }
    }

    /// Number of tuples covered.
    pub fn len(&self) -> usize {
        self.l.len() - 1
    }

    /// Whether the relation was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality `p`.
    pub fn dims(&self) -> usize {
        self.p
    }

    /// Total covered chronons of tuples `range`.
    #[inline]
    pub fn duration(&self, range: std::ops::Range<usize>) -> f64 {
        self.l[range.end] - self.l[range.start]
    }

    /// The SSE (Prop. 1) of merging tuples `range` into a single tuple,
    /// in `O(p)` time. Returns 0 for ranges of length ≤ 1.
    ///
    /// This is the anchored kernel the exact DP scans with (see the
    /// module docs), anchored at `range.end` for one evaluation, so every
    /// range SSE in the workspace comes from one formula.
    #[inline]
    pub fn range_sse(&self, weights: &Weights, range: std::ops::Range<usize>) -> f64 {
        debug_assert!(range.start <= range.end);
        if self.p == 1 {
            self.anchor::<true>(weights, range.end).from(range.start)
        } else {
            self.anchor::<false>(weights, range.end).from(range.start)
        }
    }

    /// The range-SSE kernel anchored at prefix row `at`: it reads row
    /// `at`'s sums and the squared weights once, and each evaluation
    /// reads only the other end's row. `ONE` compiles the kernel for
    /// `p = 1`; it requires a one-dimensional relation.
    #[inline]
    pub(crate) fn anchor<'a, const ONE: bool>(
        &'a self,
        weights: &'a Weights,
        at: usize,
    ) -> SseAnchor<'a, ONE> {
        debug_assert!(at <= self.len());
        debug_assert!(!ONE || self.p == 1, "the p = 1 kernel on a {}-dimensional relation", self.p);
        debug_assert_eq!(weights.dims(), self.p);
        let p = if ONE { 1 } else { self.p };
        let row = at * p..at * p + p;
        SseAnchor {
            stats: self,
            w: weights.squared_all(),
            s: &self.s[row.clone()],
            ss: &self.ss[row],
            l: self.l[at],
            at,
        }
    }

    /// The SSE of representing tuples `range` by the *arbitrary* constant
    /// `rep` (one value per dimension), in `O(p)` time:
    ///
    /// ```text
    /// Σ_d w_d² [ SS_range,d − 2·rep_d·S_range,d + rep_d²·L_range ]
    /// ```
    ///
    /// With `rep` equal to the length-weighted mean this reduces to
    /// [`PrefixStats::range_sse`]; comparator methods (APCA, DWT, SAX)
    /// need the general form because their representatives are not
    /// segment means.
    #[inline]
    pub fn range_sse_against(
        &self,
        weights: &Weights,
        range: std::ops::Range<usize>,
        rep: &[f64],
    ) -> f64 {
        debug_assert!(range.end <= self.len());
        debug_assert_eq!(rep.len(), self.p);
        if range.is_empty() {
            return 0.0;
        }
        let dur = self.duration(range.clone());
        let (lo, hi) = (range.start * self.p, range.end * self.p);
        let mut err = 0.0;
        for (d, &r) in rep.iter().enumerate() {
            // The sums are centered at μ_d, so shift the representative
            // into the same frame (the SSE is translation-invariant).
            let r = r - self.mu[d];
            let sum = self.s[hi + d] - self.s[lo + d];
            let sq = self.ss[hi + d] - self.ss[lo + d];
            err += weights.squared(d) * (sq - 2.0 * r * sum + r * r * dur);
        }
        // Cancellation can produce tiny negatives when `rep` is (near) the
        // range mean of a (near-)constant range; the true SSE is ≥ 0.
        err.max(0.0)
    }

    /// The merged (length-weighted mean) value of dimension `d` over
    /// `range` — what `⊕` assigns when the range collapses to one tuple.
    #[inline]
    pub fn merged_value(&self, range: std::ops::Range<usize>, d: usize) -> f64 {
        let dur = self.duration(range.clone());
        self.mu[d] + (self.s[range.end * self.p + d] - self.s[range.start * self.p + d]) / dur
    }

    /// Writes all `p` merged values of `range` into `out`.
    pub fn merged_values(&self, range: std::ops::Range<usize>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.p);
        let dur = self.duration(range.clone());
        let (lo, hi) = (range.start * self.p, range.end * self.p);
        for (d, o) in out.iter_mut().enumerate() {
            *o = self.mu[d] + (self.s[hi + d] - self.s[lo + d]) / dur;
        }
    }
}

/// The range-SSE kernel with one end of the range fixed: the prefix row
/// `at`, whose `S`, `SS` and `L` it holds, with the squared weights, from
/// [`PrefixStats::anchor`]. The exact DP holds one end of every range
/// fixed for a whole cell (the cell's own prefix length), so a cell reads
/// the anchor's row once and each split candidate reads only its own.
///
/// [`SseAnchor::from`] evaluates `SSE(lo..at)` and [`SseAnchor::to`]
/// evaluates `SSE(at..hi)`, both as
///
/// ```text
/// max(0, 0 + Σ_d w_d² · (ΔSS_d − ΔS_d² / ΔL))
/// ```
///
/// with every `Δ` taken as the higher row minus the lower one and the
/// dimensions summed in order, so either anchor returns the same bits
/// for the same range. `ONE` fixes `p = 1` at compile time; the other
/// instantiation loops over the relation's `p`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SseAnchor<'a, const ONE: bool> {
    stats: &'a PrefixStats,
    /// `w_d²`, `p` entries.
    w: &'a [f64],
    /// `S` and `SS` at row `at`, `p` entries each.
    s: &'a [f64],
    ss: &'a [f64],
    /// `L` at row `at`.
    l: f64,
    at: usize,
}

impl<const ONE: bool> SseAnchor<'_, ONE> {
    /// `SSE(lo..at)`; 0 for ranges of at most one tuple.
    #[inline(always)]
    pub(crate) fn from(&self, lo: usize) -> f64 {
        debug_assert!(lo <= self.at);
        if self.at - lo <= 1 {
            0.0
        } else {
            self.eval::<true>(lo)
        }
    }

    /// `SSE(at..hi)`; 0 for ranges of at most one tuple.
    #[inline(always)]
    pub(crate) fn to(&self, hi: usize) -> f64 {
        debug_assert!(hi >= self.at);
        if hi - self.at <= 1 {
            0.0
        } else {
            self.eval::<false>(hi)
        }
    }

    /// The kernel, with the free end at prefix row `free`: below the
    /// anchor when `AT_HI`, above it otherwise.
    #[inline(always)]
    fn eval<const AT_HI: bool>(&self, free: usize) -> f64 {
        let st = self.stats;
        let p = if ONE { 1 } else { st.p };
        let row = free * p..free * p + p;
        let (s, ss) = (&st.s[row.clone()], &st.ss[row]);
        let dur = if AT_HI { self.l - st.l[free] } else { st.l[free] - self.l };
        let mut err = 0.0;
        for (((&w, &sa), &qa), (&sf, &qf)) in
            self.w.iter().zip(self.s).zip(self.ss).zip(s.iter().zip(ss))
        {
            let (sum, sq) = if AT_HI { (sa - sf, qa - qf) } else { (sf - sa, qf - qa) };
            err += w * (sq - sum * sum / dur);
        }
        // Cancellation in `sq − sum²/dur` can produce tiny negatives for
        // (near-)constant ranges; the true SSE is non-negative.
        err.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sse::{merged_value_naive, sse_of_range_naive};
    use pta_temporal::{GroupKey, SequentialBuilder, TimeInterval, Value};

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
        for (g, a, bb, v) in rows {
            b.push(GroupKey::new(vec![Value::str(g)]), TimeInterval::new(a, bb).unwrap(), &[v])
                .unwrap();
        }
        b.build()
    }

    /// Example 12 (paper, uncentered): S = ⟨1600, 2200, 2700, 3400, ...⟩,
    /// SS = ⟨1 280 000, 1 640 000, 1 890 000, 2 135 000, ...⟩,
    /// L = ⟨2, 3, 4, 6, ...⟩. The kernel stores sums centered at the
    /// global mean μ for numerical stability; the paper's raw values are
    /// recovered as `S = S' + μL` and `SS = SS' + 2μS' + μ²L`.
    #[test]
    fn example_12_prefixes() {
        let st = PrefixStats::build(&fig1c());
        let mu = st.mu[0];
        let s: Vec<f64> = (1..=4).map(|i| st.s[i] + mu * st.l[i]).collect();
        let ss: Vec<f64> =
            (1..=4).map(|i| st.ss[i] + 2.0 * mu * st.s[i] + mu * mu * st.l[i]).collect();
        let l: Vec<f64> = (1..=4).map(|i| st.l[i]).collect();
        for (got, want) in s.iter().zip([1600.0, 2200.0, 2700.0, 3400.0]) {
            assert!((got - want).abs() < 1e-6, "S: {got} vs {want}");
        }
        for (got, want) in ss.iter().zip([1_280_000.0, 1_640_000.0, 1_890_000.0, 2_135_000.0]) {
            assert!((got - want).abs() < 1e-3, "SS: {got} vs {want}");
        }
        assert_eq!(l, vec![2.0, 3.0, 4.0, 6.0]);
    }

    /// Example 12: SSE of merging {s2, s3} = 1 890 000 − 1 280 000 −
    /// (2700 − 1600)² / (4 − 2) = 5 000.
    #[test]
    fn example_12_range_sse() {
        let st = PrefixStats::build(&fig1c());
        let w = Weights::uniform(1);
        assert!((st.range_sse(&w, 1..3) - 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn constant_time_sse_matches_naive_everywhere() {
        let input = fig1c();
        let st = PrefixStats::build(&input);
        let w = Weights::uniform(1);
        for i in 0..input.len() {
            for j in i + 1..=input.len() {
                let merged = merged_value_naive(&input, i..j);
                let naive = sse_of_range_naive(&input, &w, i..j, &merged);
                let fast = st.range_sse(&w, i..j);
                assert!(
                    (naive - fast).abs() < 1e-6 * (1.0 + naive),
                    "range {i}..{j}: naive {naive} vs fast {fast}"
                );
                assert!((st.merged_value(i..j, 0) - merged[0]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn singleton_ranges_are_exact_zero() {
        let st = PrefixStats::build(&fig1c());
        let w = Weights::uniform(1);
        for i in 0..7 {
            assert_eq!(st.range_sse(&w, i..i + 1), 0.0);
        }
    }

    #[test]
    fn constant_ranges_clamp_to_zero() {
        let mut b = SequentialBuilder::new(1);
        for i in 0..50i64 {
            b.push(GroupKey::empty(), TimeInterval::instant(i).unwrap(), &[1.0e8 + 0.1]).unwrap();
        }
        let input = b.build();
        let st = PrefixStats::build(&input);
        let w = Weights::uniform(1);
        assert!(st.range_sse(&w, 0..50) >= 0.0);
        assert!(st.range_sse(&w, 0..50) < 1e-3);
    }

    #[test]
    fn merged_values_buffer_api() {
        let st = PrefixStats::build(&fig1c());
        let mut out = [0.0];
        st.merged_values(0..2, &mut out);
        assert!((out[0] - 733.333_333_333).abs() < 1e-6);
    }

    #[test]
    fn empty_relation() {
        let st = PrefixStats::build(&SequentialRelation::empty(2));
        assert!(st.is_empty());
        assert_eq!(st.dims(), 2);
    }

    #[test]
    fn dense_prefix_matches_unit_interval_relation() {
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut b = SequentialBuilder::new(1);
        for (i, &v) in values.iter().enumerate() {
            b.push(GroupKey::empty(), TimeInterval::instant(i as i64).unwrap(), &[v]).unwrap();
        }
        let from_rel = PrefixStats::build(&b.build());
        let from_dense = PrefixStats::from_dense(&values);
        let w = Weights::uniform(1);
        assert_eq!(from_dense.len(), values.len());
        for lo in 0..values.len() {
            for hi in lo + 1..=values.len() {
                assert!(
                    (from_rel.range_sse(&w, lo..hi) - from_dense.range_sse(&w, lo..hi)).abs()
                        < 1e-9
                );
            }
        }
    }

    #[test]
    fn sse_against_mean_reduces_to_range_sse() {
        let st = PrefixStats::build(&fig1c());
        let w = Weights::uniform(1);
        for lo in 0..7 {
            for hi in lo + 1..=7 {
                let mean = [st.merged_value(lo..hi, 0)];
                let via_rep = st.range_sse_against(&w, lo..hi, &mean);
                let direct = st.range_sse(&w, lo..hi);
                assert!((via_rep - direct).abs() < 1e-6 * (1.0 + direct));
            }
        }
    }

    #[test]
    fn sse_against_arbitrary_rep_matches_naive() {
        let input = fig1c();
        let st = PrefixStats::build(&input);
        let w = Weights::uniform(1);
        for rep in [0.0, 450.0, -120.5, 800.0] {
            for lo in 0..input.len() {
                for hi in lo + 1..=input.len() {
                    let naive = sse_of_range_naive(&input, &w, lo..hi, &[rep]);
                    let fast = st.range_sse_against(&w, lo..hi, &[rep]);
                    assert!(
                        (naive - fast).abs() < 1e-6 * (1.0 + naive),
                        "rep {rep} range {lo}..{hi}: naive {naive} vs fast {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn centering_preserves_precision_for_large_means() {
        // Values 1e8 ± 0.5: uncentered prefix sums would cancel to 0 (the
        // true SSE of a mean-constant fit over 1000 points is 250).
        let values: Vec<f64> =
            (0..1000).map(|i| 1.0e8 + if i % 2 == 0 { 0.5 } else { -0.5 }).collect();
        let st = PrefixStats::from_dense(&values);
        let w = Weights::uniform(1);
        let mean = st.merged_value(0..1000, 0);
        assert!((mean - 1.0e8).abs() < 1e-6);
        assert!((st.range_sse(&w, 0..1000) - 250.0).abs() < 1e-6);
        assert!((st.range_sse_against(&w, 0..1000, &[mean]) - 250.0).abs() < 1e-6);
        // Same through the relation-based constructor.
        let mut b = SequentialBuilder::new(1);
        for (i, &v) in values.iter().enumerate() {
            b.push(GroupKey::empty(), TimeInterval::instant(i as i64).unwrap(), &[v]).unwrap();
        }
        let st2 = PrefixStats::build(&b.build());
        assert!((st2.range_sse(&w, 0..1000) - 250.0).abs() < 1e-6);
    }

    /// The kernel's reference, kept apart from it: Prop. 1 straight from
    /// the prefix rows, `0 + Σ_d w_d² (ΔSS_d − ΔS_d² / ΔL)` summed in `d`
    /// order, before the clamp. `None` for ranges of at most one tuple.
    fn reference_raw(st: &PrefixStats, w: &Weights, lo: usize, hi: usize) -> Option<f64> {
        if hi - lo <= 1 {
            return None;
        }
        let p = st.p;
        let dl = st.l[hi] - st.l[lo];
        let mut err = 0.0;
        for d in 0..p {
            let ds = st.s[hi * p + d] - st.s[lo * p + d];
            let dss = st.ss[hi * p + d] - st.ss[lo * p + d];
            err += w.squared(d) * (dss - ds * ds / dl);
        }
        Some(err)
    }

    /// Checks every range `lo..hi` (`lo ≤ hi`) through `range_sse` and
    /// both anchors of every instantiation that applies — the `p = 1`
    /// one only on one-dimensional stats — against the reference, bit
    /// for bit. Returns how many ranges the clamp fired on.
    fn assert_kernel_matches_reference(st: &PrefixStats, w: &Weights) -> usize {
        fn check<const ONE: bool>(st: &PrefixStats, w: &Weights, lo: usize, hi: usize, want: f64) {
            let (at_hi, at_lo) = (st.anchor::<ONE>(w, hi), st.anchor::<ONE>(w, lo));
            for (name, v) in [("from", at_hi.from(lo)), ("to", at_lo.to(hi))] {
                assert_eq!(
                    v.to_bits(),
                    want.to_bits(),
                    "ONE={ONE} {name} on {lo}..{hi}: {v} vs reference {want}"
                );
            }
        }
        let mut clamped = 0;
        for hi in 0..=st.len() {
            for lo in 0..=hi {
                let raw = reference_raw(st, w, lo, hi);
                clamped += usize::from(raw.is_some_and(|r| r < 0.0));
                let want = raw.map_or(0.0, |r| r.max(0.0));
                assert_eq!(
                    st.range_sse(w, lo..hi).to_bits(),
                    want.to_bits(),
                    "range_sse {lo}..{hi}"
                );
                check::<false>(st, w, lo, hi, want);
                if st.dims() == 1 {
                    check::<true>(st, w, lo, hi, want);
                }
            }
        }
        clamped
    }

    /// SplitMix64 in `[0, 1)`: seeded test data without a dependency.
    fn unit(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` adjacent tuples of 1 to 4 chronons with `p` values each drawn
    /// by `value(seed state, tuple, dimension)`.
    fn seeded(
        seed: u64,
        n: usize,
        p: usize,
        mut value: impl FnMut(&mut u64, usize, usize) -> f64,
    ) -> SequentialRelation {
        let mut state = seed;
        let mut b = SequentialBuilder::new(p);
        let mut t = 0i64;
        for i in 0..n {
            let len = 1 + (unit(&mut state) * 4.0) as i64;
            let vals: Vec<f64> = (0..p).map(|d| value(&mut state, i, d)).collect();
            b.push(GroupKey::empty(), TimeInterval::new(t, t + len - 1).unwrap(), &vals).unwrap();
            t += len;
        }
        b.build()
    }

    #[test]
    fn anchored_kernel_matches_the_reference_bit_for_bit() {
        let weights = [1.0, 0.5, 2.0, 3.0, 0.25];
        let mut clamped = 0;
        for p in 1..=5 {
            let w = Weights::new(&weights[..p]).unwrap();
            // Spread values of mixed scale per dimension.
            let spread = seeded(1700 + p as u64, 40, p, |st, _, d| {
                (unit(st) - 0.3) * 10f64.powi(d as i32 * 2 - 2)
            });
            assert_kernel_matches_reference(&PrefixStats::build(&spread), &w);
            // Near-constant ranges: a spread first half, then a constant
            // level. Ranges in the second half difference large prefix
            // sums, so `ΔSS − ΔS²/ΔL` cancels to rounding noise around
            // zero and the clamp fires.
            let flat = seeded(1800 + p as u64, 40, p, |st, i, d| {
                let level = 1.0e3 * (d + 1) as f64 + 0.1;
                if i < 20 {
                    level + (unit(st) - 0.5) * 1.0e3
                } else {
                    level
                }
            });
            clamped += assert_kernel_matches_reference(&PrefixStats::build(&flat), &w);
        }
        assert!(clamped > 0, "no near-constant range exercised the clamp");
        // Centering: values 1e8 ± 0.5, dense and as a relation.
        let values: Vec<f64> =
            (0..120).map(|i| 1.0e8 + if i % 2 == 0 { 0.5 } else { -0.5 }).collect();
        let w = Weights::new(&[1.5]).unwrap();
        assert_kernel_matches_reference(&PrefixStats::from_dense(&values), &w);
        let centered = seeded(1900, 120, 1, |_, i, _| values[i]);
        assert_kernel_matches_reference(&PrefixStats::build(&centered), &w);
        // An empty relation and p = 0 have nothing to sum.
        assert_kernel_matches_reference(&PrefixStats::from_dense(&[]), &Weights::uniform(1));
        let zero_dims = seeded(2000, 6, 0, |_, _, _| 0.0);
        assert_kernel_matches_reference(&PrefixStats::build(&zero_dims), &Weights::uniform(0));
    }

    #[test]
    fn sse_against_empty_range_is_zero() {
        let st = PrefixStats::from_dense(&[1.0, 2.0]);
        let w = Weights::uniform(1);
        assert_eq!(st.range_sse_against(&w, 1..1, &[7.0]), 0.0);
    }
}
