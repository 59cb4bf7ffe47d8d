//! Comparator-vs-direct-call equivalence: every `Summarizer` adapter must
//! return *bit-identical* SSE/size to the free function it wraps — the
//! unified interface adds bound normalization, never new numerics — and
//! the paper's identities must survive the indirection (amnesic with unit
//! weights ≡ exact size-bounded PTA, Palpanas et al. §2.2).

use pta::{Bound, SeriesView, Summarizer, Weights};
use pta_baselines::{apca, atc_size_targeted, chebyshev, dft, dwt_for_size, paa, sax, Padding};
use pta_core::{
    pta_error_bounded, pta_size_bounded, CancelToken, Delta, DenseSeries, GPtaC, GPtaE, GapPolicy,
};
use pta_temporal::SequentialRelation;

/// A deterministic, non-trivial single-run series (48 chronons).
fn series_values() -> Vec<f64> {
    (0..48).map(|i| ((i * 29) % 23) as f64 + (i / 8) as f64 * 3.5).collect()
}

fn series_relation() -> SequentialRelation {
    SequentialRelation::from_time_series(1, 0, &series_values()).expect("valid series")
}

fn summarizer(name: &str) -> Box<dyn Summarizer> {
    pta::summarizer(name).unwrap_or_else(|| panic!("{name} not registered"))
}

#[test]
fn exact_adapter_is_bit_identical_to_pta_size_bounded() {
    let rel = series_relation();
    let w = Weights::uniform(1);
    let view = SeriesView::new(&rel, w.clone()).unwrap();
    for c in [1usize, 3, 7, 20, 48] {
        let s = summarizer("exact").summarize(&view, Bound::Size(c)).unwrap();
        let direct = pta_size_bounded(&rel, &w, c).unwrap();
        assert_eq!(s.sse, direct.reduction.sse(), "c = {c}");
        assert_eq!(s.size, direct.reduction.len(), "c = {c}");
    }
}

#[test]
fn exact_adapter_is_bit_identical_to_pta_error_bounded() {
    let rel = series_relation();
    let w = Weights::uniform(1);
    let view = SeriesView::new(&rel, w.clone()).unwrap();
    for eps in [0.0, 0.05, 0.3, 0.8, 1.0] {
        let s = summarizer("exact").summarize(&view, Bound::Error(eps)).unwrap();
        let direct = pta_error_bounded(&rel, &w, eps).unwrap();
        assert_eq!(s.sse, direct.reduction.sse(), "eps = {eps}");
        assert_eq!(s.size, direct.reduction.len(), "eps = {eps}");
    }
}

#[test]
fn greedy_adapters_are_bit_identical_to_the_streaming_runners() {
    let rel = series_relation();
    let w = Weights::uniform(1);
    let view = SeriesView::new(&rel, w.clone()).unwrap();
    for c in [2usize, 6, 15] {
        let s = summarizer("greedy").summarize(&view, Bound::Size(c)).unwrap();
        let direct =
            GPtaC::run(&rel, &w, c, Delta::Finite(1), GapPolicy::Strict, CancelToken::inert())
                .unwrap();
        assert_eq!(s.sse, direct.stats.total_error, "c = {c}");
        assert_eq!(s.size, direct.reduction.len(), "c = {c}");

        let s = summarizer("gms").summarize(&view, Bound::Size(c)).unwrap();
        let direct =
            GPtaC::run(&rel, &w, c, Delta::Unbounded, GapPolicy::Strict, CancelToken::inert())
                .unwrap();
        assert_eq!(s.sse, direct.stats.total_error, "gms c = {c}");
    }
    for eps in [0.1, 0.5] {
        let s = summarizer("greedy").summarize(&view, Bound::Error(eps)).unwrap();
        let direct = GPtaE::run(
            &rel,
            &w,
            eps,
            Delta::Finite(1),
            None,
            GapPolicy::Strict,
            CancelToken::inert(),
        )
        .unwrap();
        assert_eq!(s.sse, direct.stats.total_error, "eps = {eps}");
        assert_eq!(s.size, direct.reduction.len(), "eps = {eps}");
    }
}

#[test]
fn series_adapters_are_bit_identical_to_their_free_functions() {
    let rel = series_relation();
    let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
    let series = DenseSeries::new(series_values());
    for c in [2usize, 5, 10, 24] {
        let b = Bound::Size(c);
        let s = summarizer("paa").summarize(&view, b).unwrap();
        let direct = paa(&series, c).unwrap();
        assert_eq!(s.sse, direct.sse_against(&series), "paa c = {c}");
        assert_eq!(s.size, direct.segments());

        let s = summarizer("apca").summarize(&view, b).unwrap();
        let direct = apca(&series, c, Padding::Zero).unwrap();
        assert_eq!(s.sse, direct.sse_against(&series), "apca c = {c}");

        let s = summarizer("dwt").summarize(&view, b).unwrap();
        let direct = dwt_for_size(&series, c, Padding::Zero).unwrap();
        assert_eq!(s.sse, direct.sse, "dwt c = {c}");
        assert_eq!(s.size, direct.segments);

        let s = summarizer("dft").summarize(&view, b).unwrap();
        let direct = dft(&series, c).unwrap();
        assert_eq!(s.sse, direct.sse, "dft c = {c}");
        assert_eq!(s.size, direct.frequencies);

        let s = summarizer("chebyshev").summarize(&view, b).unwrap();
        let direct = chebyshev(&series, c).unwrap();
        assert_eq!(s.sse, direct.sse, "chebyshev c = {c}");

        let s = summarizer("sax").summarize(&view, b).unwrap();
        let direct = sax(&series, c, 8).unwrap();
        assert_eq!(s.sse, direct.sse, "sax c = {c}");
    }
}

#[test]
fn atc_adapter_selects_the_best_sweep_run_at_most_c() {
    let rel = series_relation();
    let w = Weights::uniform(1);
    let view = SeriesView::new(&rel, w.clone()).unwrap();
    let curve = atc_size_targeted(&rel, &w, 8).unwrap();
    for c in [3usize, 8, 20] {
        let s = summarizer("atc").summarize(&view, Bound::Size(c)).unwrap();
        let best =
            curve[..c].iter().copied().filter(|e| e.is_finite()).fold(f64::INFINITY, f64::min);
        assert_eq!(s.sse, best, "c = {c}");
        assert!(s.size <= c);
    }
}

/// Palpanas et al. §2.2: with `RA ≡ 1` the amnesic approximation solves
/// exactly size-bounded PTA — now checked *through the trait*: the
/// registry's `amnesic` (unit weights) must match the registry's `exact`
/// on every size.
#[test]
fn amnesic_with_unit_weights_coincides_with_exact_pta_through_the_trait() {
    let rel = series_relation();
    let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
    let (amnesic, exact) = (summarizer("amnesic"), summarizer("exact"));
    for c in [1usize, 3, 7, 20] {
        let a = amnesic.summarize(&view, Bound::Size(c)).unwrap();
        let e = exact.summarize(&view, Bound::Size(c)).unwrap();
        assert!(
            (a.sse - e.sse).abs() < 1e-6 * (1.0 + e.sse),
            "c = {c}: amnesic {} vs exact PTA {}",
            a.sse,
            e.sse
        );
        assert_eq!(a.size, e.size, "c = {c}");
    }
}

#[test]
fn error_bound_normalization_fits_the_budget_or_reports_na() {
    let rel = series_relation();
    let view = SeriesView::new(&rel, Weights::uniform(1)).unwrap();
    for eps in [0.05, 0.3, 0.7] {
        let budget = view.error_budget(eps).unwrap();
        // These methods can always reach the budget on this input (their
        // size-n fits are exact or near-exact), so they must return Ok.
        for name in ["exact", "gms", "amnesic", "atc", "pla"] {
            let s = summarizer(name).summarize(&view, Bound::Error(eps)).unwrap();
            assert!(
                s.sse <= budget,
                "{name} at eps = {eps}: sse {} exceeds budget {budget}",
                s.sse
            );
        }
        // Every other error-capable method must either fit the budget or
        // report not-applicable — never silently overshoot.
        for s in pta::registry() {
            if !s.capabilities().error_bounded {
                continue;
            }
            match s.summarize(&view, Bound::Error(eps)) {
                Ok(out) => assert!(
                    out.sse <= budget,
                    "{} at eps = {eps}: silent overshoot {} > {budget}",
                    s.name(),
                    out.sse
                ),
                Err(e) => assert!(
                    e.common().is_some_and(pta::CommonError::is_not_applicable),
                    "{}: {e}",
                    s.name()
                ),
            }
        }
        // Exact is also *minimal*: one tuple fewer must overshoot.
        let s = summarizer("exact").summarize(&view, Bound::Error(eps)).unwrap();
        if s.size > 1 {
            let tighter = summarizer("exact").summarize(&view, Bound::Size(s.size - 1)).unwrap();
            assert!(tighter.sse > budget, "eps = {eps}");
        }
    }
}

#[test]
fn capabilities_match_behavior_on_multidimensional_input() {
    // 2-dimensional single run: series methods must refuse, relation
    // methods must run.
    let mut values = Vec::new();
    for i in 0..30 {
        values.push(((i * 7) % 11) as f64);
        values.push(((i * 3) % 5) as f64);
    }
    let rel = SequentialRelation::from_time_series(2, 0, &values).expect("valid series");
    let view = SeriesView::new(&rel, Weights::uniform(2)).unwrap();
    for s in pta::registry() {
        let out = s.summarize(&view, Bound::Size(4));
        if s.capabilities().multidimensional {
            assert!(out.is_ok(), "{} should accept p = 2: {:?}", s.name(), out.err());
        } else {
            let err = out.unwrap_err();
            assert!(
                err.common().is_some_and(pta::CommonError::is_not_applicable),
                "{}: {err}",
                s.name()
            );
        }
    }
}
