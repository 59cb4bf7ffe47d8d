//! The streaming algorithms agree with their offline reference (Thms.
//! 2/3) and their bookkeeping stays consistent on random inputs.

mod common;

use common::random_sequential;
use pta::{to_temporal_relation, Agg, Algorithm, Bound, ExecutionStats, PtaQuery};
use pta_core::{
    gms_error_bounded, gms_size_bounded, greedy_error_curve, max_error, CancelToken, Delta,
    Estimates, GPtaC, GPtaE, GapPolicy, Weights,
};
use pta_ita::{ItaQuerySpec, StreamingIta};
use pta_temporal::{DataType, Schema, TemporalRelation, TimeInterval, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn theorem_2_gptac_with_unbounded_delta_equals_gms() {
    for seed in 0..25 {
        let input = random_sequential(seed, 50, 1, 0.08, 0.15);
        let w = Weights::uniform(1);
        for c in [input.cmin(), (input.cmin() + input.len()) / 2, input.len() - 1] {
            let c = c.clamp(input.cmin(), input.len());
            let streaming = GPtaC::run(&input, &w, c, Delta::Unbounded).unwrap();
            let offline = gms_size_bounded(&input, &w, c).unwrap();
            assert_eq!(
                streaming.reduction.source_ranges(),
                offline.reduction.source_ranges(),
                "seed {seed} c {c}"
            );
            assert!(
                (streaming.stats.total_error - offline.stats.total_error).abs() < 1e-9,
                "seed {seed} c {c}"
            );
        }
    }
}

#[test]
fn theorem_3_gptae_with_unbounded_delta_equals_gms() {
    for seed in 30..50 {
        let input = random_sequential(seed, 40, 1, 0.1, 0.12);
        let w = Weights::uniform(1);
        for eps in [0.1, 0.4, 0.8] {
            let streaming = GPtaE::run(&input, &w, eps, Delta::Unbounded, None).unwrap();
            let offline = gms_error_bounded(&input, &w, eps).unwrap();
            assert_eq!(
                streaming.reduction.source_ranges(),
                offline.reduction.source_ranges(),
                "seed {seed} eps {eps}"
            );
        }
    }
}

#[test]
fn finite_delta_respects_size_and_error_budgets() {
    for seed in 60..80 {
        let input = random_sequential(seed, 60, 2, 0.05, 0.1);
        let w = Weights::uniform(2);
        let emax = max_error(&input, &w).unwrap();
        for delta in [Delta::Finite(0), Delta::Finite(1), Delta::Finite(3)] {
            let c = (input.cmin() + input.len()) / 2;
            let out = GPtaC::run(&input, &w, c, delta).unwrap();
            assert_eq!(out.reduction.len(), c, "seed {seed} {delta:?}");
            out.reduction.relation().validate().unwrap();
            let recomputed = out.reduction.recompute_sse(&input, &w);
            assert!(
                (out.stats.total_error - recomputed).abs() < 1e-6 * (1.0 + recomputed),
                "seed {seed} {delta:?}: tracked vs recomputed"
            );

            for eps in [0.2, 0.7] {
                let out = GPtaE::run(&input, &w, eps, delta, None).unwrap();
                assert!(
                    out.stats.total_error <= eps * emax + 1e-6 * (1.0 + emax),
                    "seed {seed} {delta:?} eps {eps}"
                );
            }
        }
    }
}

#[test]
fn error_curve_is_consistent_with_runs_and_monotone() {
    for seed in 90..105 {
        let input = random_sequential(seed, 45, 1, 0.1, 0.15);
        let w = Weights::uniform(1);
        let curve = greedy_error_curve(&input, &w).unwrap();
        // Monotone: fewer tuples, more error.
        for k in input.cmin()..input.len() {
            assert!(curve[k - 1] >= curve[k] - 1e-9, "seed {seed} k {k}");
        }
        for c in [input.cmin(), input.len() / 2 + 1] {
            let c = c.clamp(input.cmin(), input.len());
            let run = gms_size_bounded(&input, &w, c).unwrap();
            assert!((curve[c - 1] - run.stats.total_error).abs() < 1e-9, "seed {seed} c {c}");
        }
    }
}

#[test]
fn streaming_push_interface_matches_bulk_run() {
    for seed in 110..120 {
        let input = random_sequential(seed, 35, 1, 0.12, 0.2);
        let w = Weights::uniform(1);
        let c = input.cmin().max(3).min(input.len());
        let bulk = GPtaC::run(&input, &w, c, Delta::Finite(1)).unwrap();
        let mut alg = GPtaC::new(w.clone(), c, Delta::Finite(1));
        for i in 0..input.len() {
            let key = input.group_key(input.group(i)).unwrap().clone();
            alg.push(&key, input.interval(i), input.values(i)).unwrap();
        }
        let streamed = alg.finish().unwrap();
        assert_eq!(bulk.reduction.source_ranges(), streamed.reduction.source_ranges());
        assert_eq!(bulk.stats.max_heap_size, streamed.stats.max_heap_size);
    }
}

#[test]
fn conservative_estimates_preserve_gms_equivalence() {
    // Thm. 3's premise: underestimating Emax/n keeps gPTAε ≡ GMS.
    for seed in 130..140 {
        let input = random_sequential(seed, 40, 1, 0.1, 0.15);
        let w = Weights::uniform(1);
        let exact = Estimates::exact(&input, &w).unwrap();
        let conservative = Estimates::new(exact.n_hat * 2.0, exact.emax_hat / 2.0).unwrap();
        for eps in [0.3, 0.9] {
            let a = GPtaE::run(&input, &w, eps, Delta::Unbounded, Some(conservative)).unwrap();
            let b = gms_error_bounded(&input, &w, eps).unwrap();
            assert_eq!(
                a.reduction.source_ranges(),
                b.reduction.source_ranges(),
                "seed {seed} eps {eps}"
            );
        }
    }
}

/// A random `(G, V)` relation of `groups` groups: about a third of them
/// hold one argument tuple, so their ITA result is a single tuple; the
/// rest hold overlapping, meeting and gapped tuples.
fn random_grouped_relation(seed: u64, groups: usize) -> TemporalRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = Schema::of(&[("G", DataType::Str), ("V", DataType::Int)]).unwrap();
    let mut rel = TemporalRelation::new(schema);
    for g in 0..groups {
        let rows = if rng.random_bool(0.35) { 1 } else { rng.random_range(2..12) };
        for _ in 0..rows {
            let start = rng.random_range(0..40i64);
            let end = start + rng.random_range(0..8i64);
            let v = rng.random_range(0..50i64);
            let values = vec![Value::str(format!("g{g:02}")), Value::Int(v)];
            rel.push(values, TimeInterval::new(start, end).unwrap()).unwrap();
        }
    }
    rel
}

/// gPTAε through the facade without estimates (exact values from the
/// materialized ITA result), through the facade with `Estimates::exact`,
/// streamed (`StreamingIta` rows pushed into `GPtaE`) and offline on the
/// ITA result: all four give bit-identical SSE, source ranges, counters
/// and relations, and the two facade runs the offline rendered table.
#[test]
fn facade_streamed_and_offline_gptae_agree_bit_for_bit() {
    let w = Weights::uniform(1);
    let spec = ItaQuerySpec::new(&["G"], vec![Agg::avg("V")]);
    let deltas = [Delta::Finite(0), Delta::Finite(1), Delta::Unbounded];
    let policies = [GapPolicy::Strict, GapPolicy::Tolerate { max_gap: 1 }];
    for seed in 0..6 {
        let rel = random_grouped_relation(seed, 12);
        let ita = pta_ita::ita(&rel, &spec).unwrap();
        let groups = ita.group_keys().len() as u32;
        let tuples_of = |g| ita.entries().iter().filter(|e| e.group == g).count();
        assert!(
            groups > 1 && (0..groups).any(|g| tuples_of(g) == 1),
            "seed {seed}: multi-group input with single-tuple groups"
        );
        let exact = Estimates::exact(&ita, &w).unwrap();
        for delta in deltas {
            for policy in policies {
                for eps in [0.0, 0.05, 0.3, 1.0] {
                    let ctx = format!("seed {seed} {delta:?} {policy:?} eps {eps}");
                    let query = PtaQuery::new()
                        .group_by(&["G"])
                        .aggregate(Agg::avg("V"))
                        .bound(Bound::Error(eps))
                        .algorithm(Algorithm::Greedy { delta })
                        .gap_policy(policy);
                    let default = query.clone().execute(&rel).unwrap();
                    let supplied = query.estimates(exact).execute(&rel).unwrap();
                    let mut alg = GPtaE::with_policy(w.clone(), eps, delta, exact, policy).unwrap();
                    for row in StreamingIta::new(&rel, &spec).unwrap() {
                        alg.push(&row.key, row.interval, &row.values).unwrap();
                    }
                    let streamed = alg.finish().unwrap();
                    let inert = CancelToken::inert();
                    let offline =
                        GPtaE::run_with_cancel(&ita, &w, eps, delta, None, policy, inert).unwrap();
                    let offline_table =
                        to_temporal_relation(offline.reduction.relation(), &["G"], &["avg_V"])
                            .unwrap();
                    let runs = [
                        ("default", &default.reduction, default.stats.clone()),
                        ("supplied", &supplied.reduction, supplied.stats.clone()),
                        ("streamed", &streamed.reduction, ExecutionStats::Greedy(streamed.stats)),
                    ];
                    for (name, r, stats) in runs {
                        let o = &offline.reduction;
                        assert_eq!(r.sse().to_bits(), o.sse().to_bits(), "{name} {ctx}");
                        assert_eq!(r.source_ranges(), o.source_ranges(), "{name} {ctx}");
                        assert_eq!(r.relation(), o.relation(), "{name} {ctx}");
                        match stats {
                            ExecutionStats::Greedy(g) => {
                                assert_eq!(g, offline.stats, "{name} {ctx}")
                            }
                            ExecutionStats::Exact(_) => panic!("greedy query reported DP stats"),
                        }
                    }
                    for (name, out) in [("default", &default), ("supplied", &supplied)] {
                        assert_eq!(out.table, offline_table, "{name} {ctx}");
                        assert_eq!(out.ita_size, ita.len(), "{name} {ctx}");
                    }
                }
            }
        }
    }
}
