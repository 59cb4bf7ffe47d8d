//! Totally monotone (Monge) row-minima engines for the exact-PTA DP.
//!
//! On a window whose tuple values are **monotone in every dimension**,
//! the weighted segment SSE `w(j, i)` of the shared [`crate::prefix`]
//! kernel satisfies the *concave quadrangle inequality*
//!
//! ```text
//! w(a, c) + w(b, d)  ≤  w(a, d) + w(b, c)      for a ≤ b ≤ c ≤ d
//! ```
//!
//! — the classic 1-D (weighted) k-means structure: segments of a sorted
//! sequence are value intervals, and splitting value intervals is never
//! worse than crossing them. Each DP row restricted to such a window is
//! then the row-minima problem of a Monge matrix `C[i][j] = prev[j] +
//! w(j, i)`: the per-row argmin is nondecreasing in `i`, and all row
//! minima are computable with `O(rows + cols)` cost evaluations by SMAWK
//! instead of the `O(rows · cols)` scan of Fig. 7 — `O(c · n)` instead of
//! `O(c · n²)` for a gap-free monotone run, where the §5.3 gap pruning
//! has nothing to cut.
//!
//! **The inequality is a property of sorted values, not of SSE itself.**
//! On general time-ordered data it fails outright — take the series
//! `0, 1, 0`: `w(0,2) + w(1,3) = ½ + ½ > w(0,3) + w(1,2) = ⅔ + 0` — and
//! empirically ~10 % of the cells of a DP row over uniform-random data
//! have non-monotone argmins, so SMAWK would return *wrong minima*, not
//! merely slower ones. (Exact subquadratic v-optimal segmentation of
//! unsorted sequences is an open problem.) The DP therefore applies these
//! engines only to windows it has *proven* Monge by checking per-dimension
//! monotonicity of the data — an exact, `O(n · p)`-precomputable test
//! (see `DpEngine`'s monotone-run bounds) — and scans everywhere else.
//! Aggregated real-world series are full of long monotone runs (trends,
//! ramps, plateaus — the running example's group A is one descending
//! run), which is exactly where the quadratic scan used to hurt.
//!
//! Two engines are provided, both driving an abstract
//! `|i, j| prev[j] + range_sse(j..i)` cost oracle:
//!
//! * `RowMinEngine::Smawk` — the SMAWK algorithm with the standard
//!   REDUCE/INTERPOLATE recursion, `O(rows + cols)` evaluations. The
//!   production engine.
//! * `RowMinEngine::DivideConquer` — divide-and-conquer optimization
//!   (solve the middle row by scan, recurse left/right with narrowed
//!   column bounds), `O((rows + cols) · log rows)` evaluations. The
//!   simpler fallback: no per-recursion column vectors, so a pinned
//!   [`DpStrategy::Monge`] runs it on windows too narrow to amortize
//!   SMAWK's bookkeeping. Cross-validated against SMAWK by the tests.
//!
//! # Invalid cells and exact padding
//!
//! A DP window is triangular (`j < i` forward, `j > i` backward), but the
//! engines want a rectangular matrix. Invalid cells are padded with
//! `pad`: a *graded* penalty `2⁹⁰⁰ · (distance + 1)`. Grading (instead
//! of a flat `∞`) keeps the padded matrix genuinely Monge, and the
//! power-of-two unit makes every pad value and pad difference exactly
//! representable, so padding can never flip a floating-point comparison —
//! total monotonicity of the padded matrix is exact, not approximate.
//! Should a real cost ever reach the pad range regardless, the DP
//! notices the pad winning and rescans that window.
//!
//! # Tie-breaking and floating-point caveats
//!
//! Real data produces exact ties (equal-valued runs whose segment costs
//! clamp to exactly `0.0`). The engines therefore take an explicit tie
//! preference and the DP passes the one matching its scan loop: the
//! forward scan walks `j` *downwards* and keeps the first strict
//! improvement, i.e. the **largest** minimizing `j`; the backward scan
//! walks upwards and keeps the **smallest**. With the same candidate
//! set, the same cost expression, and the same tie preference, the
//! engines reproduce the scan's split points (and its row values bit for
//! bit) whenever cell values are either bit-equal or separated by more
//! than the kernel's rounding residue — pinned by the cross-strategy
//! equivalence suite on continuous and constant inputs alike.
//!
//! The one remaining caveat is *near*-degenerate data: costs that are
//! mathematically tied but compute to values ulps apart (e.g. plateau
//! SSEs carrying `~1e-13` centered-prefix-sum residue). There the
//! computed matrix violates the quadrangle inequality at that residue
//! scale and the engines may keep a different — equally optimal within
//! ulps — split than the scan; the equivalence suite pins size and SSE
//! in that regime rather than boundary identity, mirroring how the
//! cross-`DpMode` suite treats non-unique optima.
//!
//! Two guards keep pathological magnitudes out of the engines entirely:
//! `pads_dominate` rejects (→ scan) any window whose cost bound comes
//! within 2³⁰ of the pad range — the regime where catastrophic
//! cancellation could also dwarf the QI tolerance — and debug builds
//! additionally sample each window with the quadrangle-inequality
//! validator (`validate_qi`), falling back to the scan when mixed
//! dynamic range breaks the computed inequality by more than rounding
//! ulps.

use std::ops::RangeInclusive;

/// How the exact DP minimizes each row — orthogonal to [`crate::DpMode`],
/// which only decides how split points are *recovered*.
///
/// Every strategy is exact: the Monge engines run only on windows whose
/// data is provably Monge (per-dimension monotone values — see the
/// [module docs](self)), where they produce the scan's row values and
/// split points bit for bit. The knob trades the scan's lower constant on
/// tiny windows against the engines' linear bound on wide monotone runs.
/// `Eq` is deliberately absent: [`DpStrategy::Approx`] carries its ε as
/// an `f64`, so only `PartialEq` is derivable. Every workspace comparison
/// site uses `==`/`assert_eq!`, which `PartialEq` serves.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum DpStrategy {
    /// The Fig. 7 split-point scan with the Jagadish early break
    /// everywhere — `O(window²)` per row window in the worst case.
    Scan,
    /// Monge row minimization on every provably-Monge window regardless
    /// of size (SMAWK on wide windows, divide-and-conquer on narrow
    /// ones) — `O(window)` per monotone row window.
    Monge,
    /// SMAWK on provably-Monge windows at least
    /// [`MONGE_AUTO_MIN_WINDOW`] cells wide in both dimensions, the
    /// pruned scan below — the default: gap-rich or wiggly data keeps the
    /// scan's low constant, monotone runs get the linear bound.
    #[default]
    Auto,
    /// The certified `(1 + ε)`-approximate tier (see
    /// [`crate::dp::approx`]): each row solves only the cells on a
    /// uniform grid of stride `b ≈ ε · n / c` against the grid-aligned
    /// split candidates, with an a posteriori upper/lower SSE bracket
    /// certifying the bound —
    /// [`crate::DpStats::certified_ratio`] `≤ 1 + ε` on every returned
    /// result. `Approx(0.0)` runs the exact scan. This is the tier for
    /// the non-Monge regime, where the certificate fails and the exact
    /// scan is `O(c · n²)`.
    Approx(f64),
}

impl DpStrategy {
    /// Parses a CLI-style strategy name. `approx` takes the default ε
    /// ([`crate::dp::approx::DEFAULT_APPROX_EPS`]); `approx:<eps>`
    /// requires a finite ε in `[0, 1]`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scan" => Some(Self::Scan),
            "monge" => Some(Self::Monge),
            "auto" => Some(Self::Auto),
            "approx" => Some(Self::Approx(crate::dp::approx::DEFAULT_APPROX_EPS)),
            _ => {
                let eps: f64 = s.strip_prefix("approx:")?.parse().ok()?;
                (eps.is_finite() && (0.0..=1.0).contains(&eps)).then_some(Self::Approx(eps))
            }
        }
    }

    /// The CLI-style strategy name (`approx` drops its ε — pair with the
    /// strategy's [`DpStrategy::eps`] where the value matters).
    pub fn name(self) -> &'static str {
        match self {
            Self::Scan => "scan",
            Self::Monge => "monge",
            Self::Auto => "auto",
            Self::Approx(_) => "approx",
        }
    }

    /// The approximation budget: `Some(ε)` for [`DpStrategy::Approx`],
    /// `None` for the exact strategies.
    pub fn eps(self) -> Option<f64> {
        match self {
            Self::Approx(eps) => Some(eps),
            _ => None,
        }
    }
}

/// Minimum window extent (rows *and* columns) for [`DpStrategy::Auto`] to
/// pick the SMAWK engine over the scan. Below it the scan's smaller
/// constant wins; grouped/gappy workloads (windows of ~tens of cells)
/// stay on the scan, long gap-free monotone runs go Monge.
pub const MONGE_AUTO_MIN_WINDOW: usize = 32;

/// Which row-minima engine solves a Monge window: SMAWK for wide windows,
/// the allocation-free divide-and-conquer fallback for narrow ones (the
/// `DpEngine` picks per window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowMinEngine {
    /// SMAWK — `O(rows + cols)` evaluations.
    Smawk,
    /// Divide-and-conquer optimization — `O((rows + cols) log rows)`.
    DivideConquer,
}

/// The graded penalty of an invalid matrix cell at `distance` cells past
/// the valid triangle: `2⁹⁰⁰ · (distance + 1)`. Dominates every
/// realistic cost (≈ 8.5·10²⁷⁰; a window's cell values are sums of SSEs,
/// which stay far below that for any data whose squares don't overflow)
/// while staying exactly representable — the unit is a power of two and
/// the multiplier an exact small integer (`pad(n) < 2⁹²⁴ < f64::MAX` for
/// any supported `n`), so pads order strictly by distance and padded
/// Monge differences are exact. Windows whose cost bound approaches the
/// pad range at all are rejected up front by [`pads_dominate`] and
/// scanned instead — the optimization degrades, exactness does not.
#[inline]
pub(crate) fn pad(distance: usize) -> f64 {
    // 2f64.powi is exact for powers of two; (distance + 1) ≤ 2^53.
    2f64.powi(900) * (distance + 1) as f64
}

/// Any value `≥` this is a pad, not a real cost — the backstop detector
/// behind the per-window scan fallback.
#[inline]
pub(crate) fn pad_floor() -> f64 {
    2f64.powi(900)
}

/// The a-priori magnitude certificate: pads must dominate every real
/// cost of a window by at least 2³⁰, so no Monge-dominance comparison
/// involving a pad can be crossed by real values and sums never
/// overflow. `cost_bound` is an upper bound on the window's oracle
/// entries (the spanning segment's SSE plus the largest `prev` — SSE is
/// monotone under range containment, so the span bounds every segment);
/// a `NaN`/`∞` bound fails the check, which routes the window to the
/// scan.
#[inline]
pub(crate) fn pads_dominate(cost_bound: f64) -> bool {
    cost_bound < pad_floor() * 2f64.powi(-30)
}

/// Row minima of one window. `values[r]` / `argmins[r]` belong to row
/// `rows.start() + r`.
pub(crate) struct WindowMinima {
    /// The row minima.
    pub(crate) values: Vec<f64>,
    /// The tie-preferred minimizing column per row.
    pub(crate) argmins: Vec<usize>,
    /// Cost-oracle evaluations performed.
    pub(crate) evals: u64,
}

/// Computes the row minima of the totally monotone matrix `cost(i, j)`
/// over `rows × cols` with the given engine. `prefer_high` selects the
/// largest minimizing column on exact ties (the forward DP's convention);
/// `false` selects the smallest (the backward DP's).
pub(crate) fn window_minima<F: FnMut(usize, usize) -> f64>(
    engine: RowMinEngine,
    mut cost: F,
    rows: RangeInclusive<usize>,
    cols: RangeInclusive<usize>,
    prefer_high: bool,
) -> WindowMinima {
    let (r0, r1) = (*rows.start(), *rows.end());
    let (c0, c1) = (*cols.start(), *cols.end());
    debug_assert!(r0 <= r1 && c0 <= c1);
    let nrows = r1 - r0 + 1;
    let row_idx: Vec<usize> = (r0..=r1).collect();
    let mut ctx = Ctx {
        cost: &mut cost,
        prefer_high,
        evals: 0,
        row0: r0,
        values: vec![f64::INFINITY; nrows],
        argmins: vec![c0; nrows],
    };
    match engine {
        RowMinEngine::Smawk => {
            let col_idx: Vec<usize> = (c0..=c1).collect();
            smawk(&mut ctx, &row_idx, &col_idx);
        }
        RowMinEngine::DivideConquer => {
            divide_conquer(&mut ctx, &row_idx, c0, c1);
        }
    }
    WindowMinima { values: ctx.values, argmins: ctx.argmins, evals: ctx.evals }
}

/// Shared engine state: the counted oracle, the tie preference, and the
/// output rows indexed relative to `row0`.
struct Ctx<'f, F> {
    cost: &'f mut F,
    prefer_high: bool,
    evals: u64,
    row0: usize,
    values: Vec<f64>,
    argmins: Vec<usize>,
}

impl<F: FnMut(usize, usize) -> f64> Ctx<'_, F> {
    #[inline]
    fn eval(&mut self, r: usize, c: usize) -> f64 {
        self.evals += 1;
        (self.cost)(r, c)
    }

    /// Does value `new` at a *larger* column beat value `old`? Strictly
    /// smaller always wins; exact ties go to the larger column only under
    /// `prefer_high`.
    #[inline]
    fn beats(&self, new: f64, old: f64) -> bool {
        new < old || (self.prefer_high && new == old)
    }
}

/// SMAWK: REDUCE prunes the columns to at most one candidate per row,
/// the recursion solves the odd rows, INTERPOLATE fills the even rows by
/// scanning between their odd neighbours' argmins. `O(rows + cols)`
/// oracle evaluations in total.
// pta-lint: allow(cancel-coverage) — row-minimizer internals; the caller
// (fill_row_fwd/bwd) polls the token once per filled row.
fn smawk<F: FnMut(usize, usize) -> f64>(ctx: &mut Ctx<'_, F>, rows: &[usize], cols: &[usize]) {
    if rows.is_empty() {
        return;
    }
    // REDUCE: a column is popped once some candidate to its right beats
    // it on the row matching its stack depth — total monotonicity then
    // rules it out for every later row, and the stack invariant for every
    // earlier one.
    let mut stack: Vec<usize> = Vec::with_capacity(rows.len().min(cols.len()));
    for &c in cols {
        loop {
            let Some(&top) = stack.last() else {
                stack.push(c);
                break;
            };
            let r = rows[stack.len() - 1];
            let v_new = ctx.eval(r, c);
            let v_top = ctx.eval(r, top);
            if ctx.beats(v_new, v_top) {
                stack.pop();
            } else {
                if stack.len() < rows.len() {
                    stack.push(c);
                }
                break;
            }
        }
    }
    let cols = stack;
    debug_assert!(!cols.is_empty());

    let odd: Vec<usize> = rows.iter().copied().skip(1).step_by(2).collect();
    smawk(ctx, &odd, &cols);

    // INTERPOLATE: even row `rows[t]`'s argmin lies between the argmins
    // of `rows[t − 1]` and `rows[t + 1]` (monotonicity), so the scans
    // telescope to O(rows + cols).
    let mut start = 0usize;
    let mut t = 0usize;
    while t < rows.len() {
        let r = rows[t];
        let hi_col = if t + 1 < rows.len() {
            ctx.argmins[rows[t + 1] - ctx.row0]
        } else {
            // pta-lint: allow(no-panic-in-lib) — REDUCE never returns an
            // empty column set for a non-empty row set.
            *cols.last().expect("reduce keeps at least one column")
        };
        let mut best = f64::INFINITY;
        let mut best_c = cols[start];
        let mut chosen = false;
        for &c in cols[start..].iter().take_while(|&&c| c <= hi_col) {
            let v = ctx.eval(r, c);
            if !chosen || ctx.beats(v, best) {
                best = v;
                best_c = c;
                chosen = true;
            }
        }
        ctx.values[r - ctx.row0] = best;
        ctx.argmins[r - ctx.row0] = best_c;
        if t + 1 < rows.len() {
            let next_arg = ctx.argmins[rows[t + 1] - ctx.row0];
            while cols[start] < next_arg {
                start += 1;
            }
        }
        t += 2;
    }
}

/// Divide-and-conquer optimization: solve the middle row by a direct scan
/// of its column bounds, then recurse on the halves with the bounds
/// narrowed by the argmin — the simpler `O((rows + cols) log rows)`
/// fallback engine.
// pta-lint: allow(cancel-coverage) — row-minimizer internals; the caller
// (fill_row_fwd/bwd) polls the token once per filled row.
fn divide_conquer<F: FnMut(usize, usize) -> f64>(
    ctx: &mut Ctx<'_, F>,
    rows: &[usize],
    c_lo: usize,
    c_hi: usize,
) {
    if rows.is_empty() {
        return;
    }
    let mid = rows.len() / 2;
    let r = rows[mid];
    let mut best = f64::INFINITY;
    let mut best_c = c_lo;
    let mut chosen = false;
    for c in c_lo..=c_hi {
        let v = ctx.eval(r, c);
        if !chosen || ctx.beats(v, best) {
            best = v;
            best_c = c;
            chosen = true;
        }
    }
    ctx.values[r - ctx.row0] = best;
    ctx.argmins[r - ctx.row0] = best_c;
    divide_conquer(ctx, &rows[..mid], c_lo, best_c);
    divide_conquer(ctx, &rows[mid + 1..], best_c, c_hi);
}

/// Debug-mode quadrangle-inequality validator: samples up to
/// `samples × samples` index quadruples `(i < i', j < j')` from the valid
/// region of the window and checks `cost(i, j) + cost(i', j') ≤
/// cost(i, j') + cost(i', j) + tol · scale`. Returns the first violation
/// as a message. Pads (values `≥` [`pad_floor`]) are skipped — their
/// Mongeness is exact by construction.
#[cfg_attr(not(any(debug_assertions, test)), allow(dead_code))]
// pta-lint: allow(cancel-coverage) — debug-only sampled validator, bounded
// by `samples`²; never runs on production fills.
pub(crate) fn validate_qi<F: FnMut(usize, usize) -> f64>(
    mut cost: F,
    rows: RangeInclusive<usize>,
    cols: RangeInclusive<usize>,
    samples: usize,
    tol: f64,
) -> Option<String> {
    let (r0, r1) = (*rows.start(), *rows.end());
    let (c0, c1) = (*cols.start(), *cols.end());
    if r1 == r0 || c1 == c0 {
        return None;
    }
    let floor = pad_floor();
    let pick = |lo: usize, hi: usize, t: usize| lo + (hi - lo) * t / samples;
    for ti in 0..samples {
        let i = pick(r0, r1 - 1, ti);
        let i2 = pick(i + 1, r1, ti);
        for tj in 0..samples {
            let j = pick(c0, c1 - 1, tj);
            let j2 = pick(j + 1, c1, tj);
            let (a, b, c_, d) = (cost(i, j), cost(i2, j2), cost(i, j2), cost(i2, j));
            if a >= floor || b >= floor || c_ >= floor || d >= floor {
                continue;
            }
            let scale = 1.0 + a.abs().max(b.abs()).max(c_.abs()).max(d.abs());
            if a + b > c_ + d + tol * scale {
                return Some(format!(
                    "quadrangle inequality violated at rows ({i}, {i2}) cols ({j}, {j2}): \
                     {a} + {b} > {c_} + {d}"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force row minima with the engines' tie conventions.
    fn brute<F: FnMut(usize, usize) -> f64>(
        mut cost: F,
        rows: RangeInclusive<usize>,
        cols: RangeInclusive<usize>,
        prefer_high: bool,
    ) -> (Vec<f64>, Vec<usize>) {
        let mut values = Vec::new();
        let mut argmins = Vec::new();
        for i in rows {
            let mut best = f64::INFINITY;
            let mut best_c = *cols.start();
            let mut chosen = false;
            for c in cols.clone() {
                let v = cost(i, c);
                if !chosen || v < best || (prefer_high && v == best) {
                    best = v;
                    best_c = c;
                    chosen = true;
                }
            }
            values.push(best);
            argmins.push(best_c);
        }
        (values, argmins)
    }

    /// A forward-DP-shaped Monge oracle from synthetic *sorted* data
    /// (callers sort `v` — segment SSE over a sorted sequence is the
    /// provably-Monge regime): prefix sums of `v` give the segment SSE,
    /// `prev` is an arbitrary nonnegative row, invalid `j ≥ i` cells are
    /// graded pads.
    fn dp_oracle(v: Vec<f64>, prev: Vec<f64>) -> impl FnMut(usize, usize) -> f64 {
        let n = v.len();
        let mut s = vec![0.0; n + 1];
        let mut ss = vec![0.0; n + 1];
        for (i, &x) in v.iter().enumerate() {
            s[i + 1] = s[i] + x;
            ss[i + 1] = ss[i] + x * x;
        }
        move |i: usize, j: usize| {
            if j >= i {
                return pad(j - i);
            }
            let len = (i - j) as f64;
            let sum = s[i] - s[j];
            let sse = (ss[i] - ss[j] - sum * sum / len).max(0.0);
            prev[j] + sse
        }
    }

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
    }

    #[test]
    fn engines_match_brute_force_on_random_sorted_dp_matrices() {
        let mut seed = 42u64;
        for trial in 0..40 {
            let n = 3 + (trial % 37);
            let mut v: Vec<f64> = (0..n).map(|_| lcg(&mut seed) * 10.0).collect();
            v.sort_by(f64::total_cmp);
            if trial % 2 == 1 {
                v.reverse(); // descending runs are Monge too
            }
            let prev: Vec<f64> = (0..n).map(|_| lcg(&mut seed) * 50.0).collect();
            for prefer_high in [false, true] {
                for engine in [RowMinEngine::Smawk, RowMinEngine::DivideConquer] {
                    let rows = 1..=(n - 1);
                    let cols = 0..=(n - 2);
                    let m = window_minima(
                        engine,
                        dp_oracle(v.clone(), prev.clone()),
                        rows.clone(),
                        cols.clone(),
                        prefer_high,
                    );
                    let (bv, ba) =
                        brute(dp_oracle(v.clone(), prev.clone()), rows, cols, prefer_high);
                    assert_eq!(m.values, bv, "trial {trial} {engine:?} prefer_high={prefer_high}");
                    assert_eq!(m.argmins, ba, "trial {trial} {engine:?} prefer_high={prefer_high}");
                }
            }
        }
    }

    /// Exact ties (piecewise-constant data) resolve to the convention the
    /// scan uses — both engines, both directions.
    #[test]
    fn tie_breaking_follows_the_preference() {
        // Constant data: every segment SSE is 0, prev constant — every
        // valid column ties.
        let v = vec![5.0; 12];
        let prev = vec![1.0; 12];
        for engine in [RowMinEngine::Smawk, RowMinEngine::DivideConquer] {
            let hi =
                window_minima(engine, dp_oracle(v.clone(), prev.clone()), 2..=11, 1..=10, true);
            for (r, &a) in hi.argmins.iter().enumerate() {
                let i = 2 + r;
                assert_eq!(a, (i - 1).min(10), "{engine:?}: rightmost tie for row {i}");
            }
            let lo =
                window_minima(engine, dp_oracle(v.clone(), prev.clone()), 2..=11, 1..=10, false);
            for (r, &a) in lo.argmins.iter().enumerate() {
                assert_eq!(a, 1, "{engine:?}: leftmost tie for row {}", 2 + r);
            }
        }
    }

    /// SMAWK stays linear: evaluations bounded by a small multiple of
    /// rows + cols (the whole point of the engine).
    #[test]
    fn smawk_evaluation_count_is_linear() {
        let mut seed = 7u64;
        for &n in &[64usize, 256, 1024] {
            let mut v: Vec<f64> = (0..n).map(|_| lcg(&mut seed)).collect();
            v.sort_by(f64::total_cmp);
            let prev: Vec<f64> = (0..n).map(|_| lcg(&mut seed)).collect();
            let m = window_minima(
                RowMinEngine::Smawk,
                dp_oracle(v, prev),
                1..=(n - 1),
                0..=(n - 2),
                true,
            );
            let budget = 8 * (2 * n as u64) + 64;
            assert!(m.evals <= budget, "n = {n}: {} evals > {budget}", m.evals);
        }
    }

    #[test]
    fn pads_are_exact_and_ordered() {
        assert_eq!(pad(0), pad_floor());
        for d in 0..100 {
            assert!(pad(d) < pad(d + 1));
            // Exactness: the grading survives subtraction.
            assert_eq!(pad(d + 1) - pad(d), pad_floor());
        }
        assert!(pad(1 << 24).is_finite());
    }

    #[test]
    fn qi_validator_accepts_sorted_sse_and_rejects_anti_monge() {
        let mut seed = 9u64;
        let mut v: Vec<f64> = (0..50).map(|_| lcg(&mut seed) * 3.0).collect();
        v.sort_by(f64::total_cmp);
        let prev: Vec<f64> = (0..50).map(|_| lcg(&mut seed)).collect();
        assert_eq!(validate_qi(dp_oracle(v, prev), 1..=49, 0..=48, 8, 1e-9), None);
        // An inverse-Monge matrix (supermodular `i·j`) must be flagged.
        let bad = |i: usize, j: usize| (i * j) as f64;
        assert!(validate_qi(bad, 0..=10, 0..=10, 8, 1e-9).is_some());
    }

    /// The module docs' counterexample: SSE over the *unsorted* series
    /// `0, 1, 0` violates the quadrangle inequality — the very reason the
    /// DP restricts these engines to monotone windows. The validator
    /// (sampling densely here) must flag it, and brute-force row minima
    /// of such a matrix are genuinely non-monotone on uniform data.
    #[test]
    fn unsorted_sse_is_not_monge() {
        let violation =
            validate_qi(dp_oracle(vec![0.0, 1.0, 0.0], vec![0.0; 4]), 2..=3, 0..=1, 2, 1e-9);
        assert!(violation.is_some(), "0,1,0 must violate the quadrangle inequality");
        // And the numeric check itself: w(0,2)+w(1,3) > w(0,3)+w(1,2).
        let mut w = dp_oracle(vec![0.0, 1.0, 0.0], vec![0.0; 4]);
        assert!(w(2, 0) + w(3, 1) > w(3, 0) + w(2, 1) + 0.2);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [DpStrategy::Scan, DpStrategy::Monge, DpStrategy::Auto] {
            assert_eq!(DpStrategy::parse(s.name()), Some(s));
        }
        // The bare approx name resolves to the default ε; the ε-carrying
        // form round-trips through the name (the value rides in `eps`).
        assert_eq!(
            DpStrategy::parse("approx"),
            Some(DpStrategy::Approx(crate::dp::DEFAULT_APPROX_EPS))
        );
        assert_eq!(DpStrategy::parse("approx:0.25"), Some(DpStrategy::Approx(0.25)));
        assert_eq!(DpStrategy::parse("approx:0"), Some(DpStrategy::Approx(0.0)));
        assert_eq!(DpStrategy::Approx(0.25).name(), "approx");
        assert_eq!(DpStrategy::Approx(0.25).eps(), Some(0.25));
        assert_eq!(DpStrategy::Auto.eps(), None);
        // Malformed ε values are rejected: negative, above 1, non-finite,
        // or not a number at all.
        for bad in ["approx:-0.1", "approx:1.5", "approx:NaN", "approx:inf", "approx:", "approx:x"]
        {
            assert_eq!(DpStrategy::parse(bad), None, "{bad:?}");
        }
        assert_eq!(DpStrategy::parse("smawk"), None);
    }

    #[test]
    fn single_row_and_single_col_windows() {
        let oracle = |_, j: usize| j as f64;
        for engine in [RowMinEngine::Smawk, RowMinEngine::DivideConquer] {
            let m = window_minima(engine, oracle, 5..=5, 2..=9, false);
            assert_eq!(m.values, vec![2.0]);
            assert_eq!(m.argmins, vec![2]);
            let m = window_minima(engine, oracle, 3..=8, 4..=4, true);
            assert_eq!(m.values, vec![4.0; 6]);
            assert_eq!(m.argmins, vec![4; 6]);
        }
    }
}
