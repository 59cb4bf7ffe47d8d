//! Edge cases and failure injection across the whole stack.

mod common;

use pta::{ita_table, mwta_table, Agg, Algorithm, Bound, Delta, GapPolicy, PtaQuery, Window};
use pta_core::{
    pta_error_bounded_with_opts, pta_size_bounded, pta_size_bounded_naive,
    pta_size_bounded_with_opts, CancelToken, Delta as CoreDelta, DpOptions, DpStrategy, Estimates,
    GPtaC, GPtaE, Weights,
};
use pta_temporal::{
    CommonError, DataType, GroupInterner, GroupKey, Schema, SequentialBuilder, SequentialRelation,
    TemporalRelation, TimeInterval, Value,
};

#[test]
fn single_tuple_relation_roundtrips() {
    let mut b = SequentialBuilder::new(1);
    b.push(GroupKey::empty(), TimeInterval::new(5, 9).unwrap(), &[42.0]).unwrap();
    let input = b.build();
    let w = Weights::uniform(1);
    let out = pta_size_bounded(&input, &w, 1).unwrap();
    assert_eq!(out.reduction.len(), 1);
    assert_eq!(out.reduction.sse(), 0.0);
    let g =
        GPtaC::run(&input, &w, 1, CoreDelta::Finite(1), GapPolicy::Strict, CancelToken::inert())
            .unwrap();
    assert_eq!(g.reduction.len(), 1);
}

#[test]
fn extreme_chronon_positions() {
    use pta_temporal::chronon::MAX_CHRONON;
    let mut b = SequentialBuilder::new(1);
    b.push(GroupKey::empty(), TimeInterval::new(i64::MIN, i64::MIN + 1).unwrap(), &[1.0]).unwrap();
    b.push(GroupKey::empty(), TimeInterval::new(MAX_CHRONON - 1, MAX_CHRONON).unwrap(), &[2.0])
        .unwrap();
    let input = b.build();
    input.validate().unwrap();
    assert!(!input.adjacent(0));
    assert_eq!(input.cmin(), 2);
    let w = Weights::uniform(1);
    // Reduction works; the huge hole is never bridged by Strict policy.
    let out = pta_size_bounded(&input, &w, 2).unwrap();
    assert_eq!(out.reduction.len(), 2);
}

#[test]
fn zero_dimensional_relations_merge_freely() {
    // p = 0 is degenerate but well-defined: every merge has zero error.
    let mut b = SequentialBuilder::new(0);
    for t in 0..5i64 {
        b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[]).unwrap();
    }
    let input = b.build();
    let w = Weights::uniform(0);
    let out = pta_size_bounded(&input, &w, 2).unwrap();
    assert_eq!(out.reduction.len(), 2);
    assert_eq!(out.reduction.sse(), 0.0);
}

#[test]
fn identical_values_coalesce_to_zero_error_everywhere() {
    let mut b = SequentialBuilder::new(2);
    for t in 0..20i64 {
        b.push(GroupKey::empty(), TimeInterval::instant(t).unwrap(), &[3.5, -1.0]).unwrap();
    }
    let input = b.build();
    let w = Weights::uniform(2);
    for c in 1..=5 {
        let out = pta_size_bounded(&input, &w, c).unwrap();
        assert_eq!(out.reduction.sse(), 0.0, "c = {c}");
    }
    let g = GPtaE::run(
        &input,
        &w,
        0.0,
        CoreDelta::Finite(1),
        None,
        GapPolicy::Strict,
        CancelToken::inert(),
    )
    .unwrap();
    assert_eq!(g.reduction.len(), 1, "zero budget still merges zero-cost pairs");
}

/// Non-finite values are stopped at the `SequentialBuilder` boundary — the
/// guarantee that keeps the DP error tables finite, so the error-bounded
/// DP's threshold loop always terminates with a satisfying row instead of
/// underflowing in backtrack (the release-mode panic this PR fixed; the
/// in-crate `nan_threshold_yields_typed_error_not_panic` test covers the
/// defensive backstop behind it).
#[test]
fn non_finite_values_are_rejected_at_the_builder_boundary() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut b = SequentialBuilder::new(1);
        let err = b.push(GroupKey::empty(), TimeInterval::instant(0).unwrap(), &[bad]).unwrap_err();
        assert!(matches!(err, pta_temporal::TemporalError::NonFiniteValue { .. }), "{bad}");
        // A NaN hidden among finite dimensions is caught too.
        let mut b = SequentialBuilder::new(3);
        assert!(b
            .push(GroupKey::empty(), TimeInterval::instant(0).unwrap(), &[1.0, bad, 2.0])
            .is_err());
    }
    // Weights are the other numeric input; NaN is rejected there as well.
    assert!(Weights::new(&[f64::NAN]).is_err());
    assert!(Weights::new(&[f64::INFINITY]).is_err());
}

/// The facade's DP-mode knob: divide-and-conquer and table backtracking
/// produce identical query results end to end.
#[test]
fn facade_dp_mode_knob_is_equivalent() {
    let rel = pta_datasets::proj_relation();
    let run = |mode: pta::DpMode| {
        PtaQuery::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal"))
            .bound(Bound::Size(4))
            .dp_mode(mode)
            .execute(&rel)
            .unwrap()
    };
    let auto = run(pta::DpMode::Auto);
    let dnc = run(pta::DpMode::DivideConquer);
    let table = run(pta::DpMode::Table);
    assert_eq!(auto.reduction.source_ranges(), dnc.reduction.source_ranges());
    assert_eq!(auto.reduction.source_ranges(), table.reduction.source_ranges());
    match (auto.stats, dnc.stats) {
        (pta::ExecutionStats::Exact(a), pta::ExecutionStats::Exact(d)) => {
            assert_eq!(a.mode, pta::DpExecMode::Table, "small input auto-selects the table");
            assert_eq!(d.mode, pta::DpExecMode::DivideConquer);
        }
        _ => panic!("exact algorithm must report DP stats"),
    }
}

#[test]
fn huge_weights_stay_finite() {
    let input = common::random_sequential(1, 20, 1, 0.1, 0.1);
    let w = Weights::new(&[1e150]).unwrap();
    let out = pta_size_bounded(&input, &w, input.cmin()).unwrap();
    assert!(out.reduction.sse().is_finite());
}

#[test]
fn facade_rejects_unknown_attributes() {
    let rel = pta_datasets::proj_relation();
    let err = PtaQuery::new()
        .group_by(&["Nope"])
        .aggregate(Agg::avg("Sal"))
        .bound(Bound::Size(3))
        .execute(&rel)
        .unwrap_err();
    assert!(err.to_string().contains("Nope"));
    let err = PtaQuery::new()
        .aggregate(Agg::avg("Missing"))
        .bound(Bound::Size(3))
        .execute(&rel)
        .unwrap_err();
    assert!(err.to_string().contains("Missing"));
}

#[test]
fn facade_rejects_bad_weights() {
    let rel = pta_datasets::proj_relation();
    let err = PtaQuery::new()
        .group_by(&["Proj"])
        .aggregate(Agg::avg("Sal"))
        .weights(&[0.0])
        .bound(Bound::Size(4))
        .execute(&rel)
        .unwrap_err();
    assert!(matches!(err, pta::Error::Core(_)));
    // A weight whose square overflows to ∞ (1e200) or underflows to 0
    // (1e-200) would make every SSE ∞ or 0; both are invalid weights, for
    // the exact DP and the greedy path alike.
    for w in [1e200, 1e-200] {
        for algorithm in [Algorithm::Exact, Algorithm::Greedy { delta: Delta::Finite(1) }] {
            let err = PtaQuery::new()
                .group_by(&["Proj"])
                .aggregate(Agg::avg("Sal"))
                .weights(&[w])
                .algorithm(algorithm)
                .bound(Bound::Size(4))
                .execute(&rel)
                .unwrap_err();
            let pta::Error::Core(core) = &err else { panic!("{w} {algorithm:?}: {err}") };
            assert!(
                core.common().is_some_and(CommonError::is_invalid_parameter),
                "{w} {algorithm:?}: {err}"
            );
            assert!(err.to_string().contains("weight"), "{err}");
        }
    }
    let err = PtaQuery::new()
        .group_by(&["Proj"])
        .aggregate(Agg::avg("Sal"))
        .weights(&[1.0, 2.0])
        .bound(Bound::Size(4))
        .execute(&rel)
        .unwrap_err();
    assert!(matches!(err, pta::Error::Core(_) | pta::Error::InvalidQuery(_)));
}

#[test]
fn facade_gap_policy_reaches_smaller_sizes() {
    // Project B's two assignments ([4,5] and [7,8]) are separated by one
    // empty month; tolerating it merges them.
    let rel = pta_datasets::proj_relation();
    let strict = PtaQuery::new()
        .group_by(&["Proj"])
        .aggregate(Agg::avg("Sal"))
        .bound(Bound::Size(2))
        .execute(&rel);
    assert!(strict.is_err(), "strict cmin is 3");
    let tolerant = PtaQuery::new()
        .group_by(&["Proj"])
        .aggregate(Agg::avg("Sal"))
        .bound(Bound::Size(2))
        .gap_policy(GapPolicy::Tolerate { max_gap: 1 })
        .execute(&rel)
        .unwrap();
    assert_eq!(tolerant.reduction.len(), 2);
    // B's merged tuple spans [4, 8] with value 500 (both plateaus equal).
    let z = tolerant.reduction.relation();
    let b_idx = (0..z.len())
        .find(|&i| z.group_key(z.group(i)).unwrap().values() == [Value::str("B")])
        .unwrap();
    assert_eq!(z.interval(b_idx), TimeInterval::new(4, 8).unwrap());
    assert_eq!(z.value(b_idx, 0), 500.0);
}

#[test]
fn facade_greedy_gap_policy_matches_exact_partition_on_proj() {
    let rel = pta_datasets::proj_relation();
    for alg in [Algorithm::Exact, Algorithm::Greedy { delta: Delta::Unbounded }] {
        let out = PtaQuery::new()
            .group_by(&["Proj"])
            .aggregate(Agg::avg("Sal"))
            .bound(Bound::Size(2))
            .gap_policy(GapPolicy::Tolerate { max_gap: 1 })
            .algorithm(alg)
            .execute(&rel)
            .unwrap();
        assert_eq!(out.reduction.len(), 2, "{alg:?}");
    }
}

#[test]
fn mwta_table_smoke() {
    let rel = pta_datasets::proj_relation();
    let t =
        mwta_table(&rel, &["Proj"], vec![Agg::count().as_output("Held")], Window::past(1)).unwrap();
    assert!(!t.is_empty());
    // The window extends each tuple's influence one month forward.
    let ita = ita_table(&rel, &["Proj"], vec![Agg::count().as_output("Held")]).unwrap();
    let span = |r: &TemporalRelation| r.time_extent().map(|iv| (iv.start(), iv.end())).unwrap();
    assert_eq!(span(&t).1, span(&ita).1 + 1);
}

#[test]
fn streaming_estimates_from_argument_size() {
    // gPTAε driven by the 2|r|−1 size estimate and a rough error estimate
    // still respects the final (exact) budget.
    let input = common::random_sequential(7, 50, 1, 0.05, 0.1);
    let w = Weights::uniform(1);
    let emax = pta_core::max_error(&input, &w).unwrap();
    let est = Estimates::from_argument_size(30, emax * 0.5).unwrap();
    let out = GPtaE::run(
        &input,
        &w,
        0.4,
        CoreDelta::Finite(1),
        Some(est),
        GapPolicy::Strict,
        CancelToken::inert(),
    )
    .unwrap();
    assert!(out.stats.total_error <= 0.4 * emax + 1e-6 * (1.0 + emax));
}

#[test]
fn non_numeric_group_keys_flow_through_output_schema() {
    let schema = Schema::of(&[("Flag", DataType::Bool), ("V", DataType::Int)]).unwrap();
    let mut rel = TemporalRelation::new(schema);
    rel.push(vec![Value::Bool(true), Value::Int(4)], TimeInterval::new(0, 3).unwrap()).unwrap();
    rel.push(vec![Value::Bool(false), Value::Int(9)], TimeInterval::new(1, 2).unwrap()).unwrap();
    let out = PtaQuery::new()
        .group_by(&["Flag"])
        .aggregate(Agg::sum("V"))
        .bound(Bound::Size(4))
        .execute(&rel)
        .unwrap();
    assert_eq!(out.table.schema().to_string(), "(Flag: Bool, sum_V: Float, T)");
}

/// The relation stays usable after a failed push (error safety).
#[test]
fn builder_remains_usable_after_rejected_row() {
    let mut b = SequentialBuilder::new(1);
    b.push(GroupKey::empty(), TimeInterval::new(0, 4).unwrap(), &[1.0]).unwrap();
    assert!(b.push(GroupKey::empty(), TimeInterval::new(2, 6).unwrap(), &[2.0]).is_err());
    b.push(GroupKey::empty(), TimeInterval::new(5, 6).unwrap(), &[2.0]).unwrap();
    let rel: SequentialRelation = b.build();
    rel.validate().unwrap();
    assert_eq!(rel.len(), 2);
}

/// An empty input has nothing to merge, yet its DP stats still report the
/// strategy the run was asked for and the resolved thread budget, like
/// every other run.
#[test]
fn empty_input_reports_requested_strategy_and_threads() {
    let input = SequentialRelation::empty(1);
    let w = Weights::uniform(1);
    let opts = DpOptions::default().with_strategy(DpStrategy::Scan).with_threads(3);
    let sized = pta_size_bounded_with_opts(&input, &w, 0, opts.clone()).unwrap();
    let bounded = pta_error_bounded_with_opts(&input, &w, 0.5, opts).unwrap();
    for out in [sized, bounded] {
        assert!(out.reduction.is_empty());
        assert_eq!(out.stats.strategy, DpStrategy::Scan);
        assert_eq!(out.stats.threads, 3);
        assert_eq!((out.stats.rows, out.stats.cells), (0, 0));
    }
    // A zero budget resolves to the process default, which is at least 1.
    let default = pta_size_bounded_with_opts(&input, &w, 0, DpOptions::default()).unwrap();
    assert_eq!(default.stats.strategy, DpStrategy::Auto);
    assert!(default.stats.threads >= 1);
    // The naive baseline always records the scan.
    let naive = pta_size_bounded_naive(&input, &w, 0).unwrap();
    assert_eq!(naive.stats.strategy, DpStrategy::Scan);
}

/// An empty relation grouped by a non-empty `group_by` renders an empty
/// table whose schema names the grouping attributes, typed as the input
/// declares them, the aggregate outputs and `T`, on every algorithm ×
/// bound and through `ita_table` — the schema a non-empty input renders.
#[test]
fn empty_grouped_input_renders_an_empty_table() {
    let schema =
        Schema::of(&[("Proj", DataType::Str), ("Team", DataType::Int), ("Sal", DataType::Int)])
            .unwrap();
    let empty = TemporalRelation::new(schema.clone());
    let mut one = TemporalRelation::new(schema);
    one.push(
        vec![Value::str("A"), Value::Int(7), Value::Int(800)],
        TimeInterval::new(1, 4).unwrap(),
    )
    .unwrap();
    let expected = "(Proj: Str, Team: Int, AvgSal: Float, T)";
    let grouping = ["Proj", "Team"];
    for algorithm in [Algorithm::Exact, Algorithm::Greedy { delta: Delta::Finite(1) }] {
        for bound in [Bound::Size(3), Bound::Error(0.5)] {
            let query = PtaQuery::new()
                .group_by(&grouping)
                .aggregate(Agg::avg("Sal").as_output("AvgSal"))
                .bound(bound)
                .algorithm(algorithm);
            let out =
                query.execute(&empty).unwrap_or_else(|e| panic!("{algorithm:?} {bound:?}: {e}"));
            assert!(out.reduction.is_empty() && out.table.is_empty(), "{algorithm:?} {bound:?}");
            assert_eq!(out.ita_size, 0);
            assert_eq!(out.table.schema().to_string(), expected, "{algorithm:?} {bound:?}");
            let rendered = query.execute(&one).unwrap().table;
            assert_eq!(rendered.schema().to_string(), expected, "{algorithm:?} {bound:?}");
        }
    }
    for rel in [&empty, &one] {
        let aggs = vec![Agg::avg("Sal").as_output("AvgSal")];
        let table = ita_table(rel, &grouping, aggs).unwrap();
        assert_eq!(table.len(), rel.len());
        assert_eq!(table.schema().to_string(), expected);
    }
}

/// `Value::Float(-0.0)` equals `Value::Float(0.0)`, so rows grouped by a
/// float column holding both zeros form one group: one ITA group, one
/// interned key, and a reduction to one tuple.
#[test]
fn negative_and_positive_zero_keys_form_one_group() {
    let schema = Schema::of(&[("F", DataType::Float), ("V", DataType::Int)]).unwrap();
    let rel = TemporalRelation::from_rows(
        schema,
        [
            (vec![Value::Float(-0.0), Value::Int(1)], TimeInterval::new(1, 2).unwrap()),
            (vec![Value::Float(0.0), Value::Int(3)], TimeInterval::new(3, 4).unwrap()),
        ],
    )
    .unwrap();
    let spec = pta_ita::ItaQuerySpec::new(&["F"], vec![Agg::avg("V")]);
    let seq = pta_ita::ita(&rel, &spec).unwrap();
    assert_eq!(seq.group_keys().len(), 1);
    assert_eq!(seq.cmin(), 1);
    let mut interner = GroupInterner::new();
    let neg = interner.intern(GroupKey::new(vec![Value::Float(-0.0)]));
    assert_eq!(interner.intern(GroupKey::new(vec![Value::Float(0.0)])), neg);
    for algorithm in [Algorithm::Exact, Algorithm::Greedy { delta: Delta::Finite(1) }] {
        let out = PtaQuery::new()
            .group_by(&["F"])
            .aggregate(Agg::avg("V"))
            .bound(Bound::Size(1))
            .algorithm(algorithm)
            .execute(&rel)
            .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
        assert_eq!(out.table.len(), 1, "{algorithm:?}");
        assert_eq!(out.reduction.relation().value(0, 0), 2.0, "{algorithm:?}");
    }
}
