//! Property-based tests over randomly generated sequential relations and
//! temporal relations: the core invariants the paper's definitions
//! promise.
//!
//! The generators are hand-rolled over the workspace's deterministic
//! `rand` shim (the build environment has no crates.io access for
//! proptest): each property runs against `CASES` seeded random inputs,
//! and every assertion message carries the offending seed so a failure
//! reproduces exactly.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pta_core::{
    gms_size_bounded, max_error, optimal_error_curve, pta_error_bounded, pta_size_bounded,
    CancelToken, Delta, GPtaC, GapPolicy, PrefixStats, Weights,
};
use pta_ita::{ita, AggregateSpec, ItaQuerySpec};
use pta_temporal::{
    coalesce, DataType, GroupKey, Schema, SequentialBuilder, SequentialRelation, TemporalRelation,
    TimeInterval, Value,
};

/// Cases per property — matches the proptest budget this file used before.
const CASES: u64 = 96;

/// Generator: a sequential relation of 1..32 tuples, 1..=2 dimensions,
/// group breaks and gaps mixed in; small integer values so arithmetic is
/// exact.
fn sequential_relation(seed: u64) -> SequentialRelation {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ 0xDEAD_BEEF);
    let p = rng.random_range(1usize..=2);
    let rows = rng.random_range(1usize..32);
    let mut b = SequentialBuilder::new(p);
    let mut group = 0i64;
    let mut t = 0i64;
    for i in 0..rows {
        let kind = rng.random_range(0u8..=9);
        if i > 0 && kind == 0 {
            group += 1;
            t = 0;
        } else if i > 0 && kind <= 2 {
            t += 2;
        }
        let v = rng.random_range(0u8..=8);
        let dur = rng.random_range(1i64..=3);
        let vals: Vec<f64> = (0..p).map(|d| (v as f64) + d as f64).collect();
        b.push(
            GroupKey::new(vec![Value::Int(group)]),
            TimeInterval::new(t, t + dur - 1).unwrap(),
            &vals,
        )
        .unwrap();
        t += dur;
    }
    b.build()
}

/// Generator: an arbitrary (overlapping) temporal relation for ITA tests.
fn temporal_relation(seed: u64) -> TemporalRelation {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x517C_C1B7) ^ 0xFEED_F00D);
    let schema = Schema::of(&[("G", DataType::Int), ("V", DataType::Int)]).unwrap();
    let mut rel = TemporalRelation::new(schema);
    for _ in 0..rng.random_range(1usize..24) {
        let g = rng.random_range(0i64..3);
        let start = rng.random_range(-4i64..12);
        let len = rng.random_range(1i64..6);
        let v = rng.random_range(-5i64..5);
        rel.push(
            vec![Value::Int(g), Value::Int(v)],
            TimeInterval::new(start, start + len - 1).unwrap(),
        )
        .unwrap();
    }
    rel
}

/// Prop. 1: the prefix-sum range SSE equals the naive evaluation.
#[test]
fn prefix_sse_matches_naive() {
    for seed in 0..CASES {
        let input = sequential_relation(seed);
        let w = Weights::uniform(input.dims());
        let stats = PrefixStats::build(&input);
        let n = input.len();
        for lo in 0..n {
            for hi in lo + 1..=n.min(lo + 8) {
                let merged = pta_core::sse::merged_value_naive(&input, lo..hi);
                let naive = pta_core::sse::sse_of_range_naive(&input, &w, lo..hi, &merged);
                let fast = stats.range_sse(&w, lo..hi);
                assert!(
                    (naive - fast).abs() < 1e-6 * (1.0 + naive),
                    "seed {seed} range {lo}..{hi}: naive {naive} vs fast {fast}"
                );
            }
        }
    }
}

/// A size-bounded reduction has exactly c tuples, stays sequential,
/// respects boundaries, and its claimed SSE is real.
#[test]
fn size_bounded_invariants() {
    for seed in 0..CASES {
        let input = sequential_relation(seed);
        let w = Weights::uniform(input.dims());
        let cmin = input.cmin();
        let n = input.len();
        for c in [cmin, (cmin + n) / 2, n] {
            let out = pta_size_bounded(&input, &w, c).unwrap();
            assert_eq!(out.reduction.len(), c, "seed {seed} c {c}");
            out.reduction.relation().validate().unwrap();
            for range in out.reduction.source_ranges() {
                for i in range.start..range.end - 1 {
                    assert!(input.adjacent(i), "seed {seed}: merged across boundary at {i}");
                }
            }
            let recomputed = out.reduction.recompute_sse(&input, &w);
            assert!(
                (out.reduction.sse() - recomputed).abs() < 1e-6 * (1.0 + recomputed),
                "seed {seed} c {c}: claimed {} vs recomputed {recomputed}",
                out.reduction.sse()
            );
        }
    }
}

/// The optimal error curve is monotone non-increasing and the greedy
/// error dominates it pointwise.
#[test]
fn curves_are_ordered() {
    for seed in 0..CASES {
        let input = sequential_relation(seed);
        let w = Weights::uniform(input.dims());
        let n = input.len();
        let opt = optimal_error_curve(&input, &w, n).unwrap();
        let greedy = pta_core::greedy_error_curve(&input, &w, CancelToken::inert()).unwrap();
        for k in 1..n {
            assert!(opt[k - 1] >= opt[k] - 1e-9, "seed {seed}: curve rises at {k}");
        }
        for k in input.cmin()..=n {
            if opt[k - 1].is_finite() {
                assert!(
                    greedy[k - 1] >= opt[k - 1] - 1e-6 * (1.0 + opt[k - 1]),
                    "seed {seed}: greedy beats optimum at {k}"
                );
            }
        }
    }
}

/// Merging conserves the time-weighted mass of every dimension: each
/// output tuple's value times its duration equals the sum over its
/// sources.
#[test]
fn reduction_conserves_mass() {
    for seed in 0..CASES {
        let input = sequential_relation(seed);
        let w = Weights::uniform(input.dims());
        let c = input.cmin();
        let out = pta_size_bounded(&input, &w, c).unwrap();
        let z = out.reduction.relation();
        for (zi, range) in out.reduction.source_ranges().iter().enumerate() {
            for d in 0..input.dims() {
                let mass_out = z.value(zi, d) * z.interval(zi).len() as f64;
                let mass_in: f64 =
                    range.clone().map(|i| input.value(i, d) * input.interval(i).len() as f64).sum();
                assert!(
                    (mass_out - mass_in).abs() < 1e-6 * (1.0 + mass_in.abs()),
                    "seed {seed} tuple {zi} dim {d}: {mass_out} vs {mass_in}"
                );
            }
        }
    }
}

/// Error-bounded PTA satisfies its budget and gPTAc with δ = ∞ matches
/// offline GMS (Thm. 2) on arbitrary inputs.
#[test]
fn bounded_and_streaming_consistency() {
    for seed in 0..CASES {
        let input = sequential_relation(seed);
        let w = Weights::uniform(input.dims());
        let emax = max_error(&input, &w).unwrap();
        let out = pta_error_bounded(&input, &w, 0.3).unwrap();
        assert!(
            out.reduction.sse() <= 0.3 * emax + 1e-6 * (1.0 + emax),
            "seed {seed}: budget violated"
        );

        let c = input.cmin();
        let a =
            GPtaC::run(&input, &w, c, Delta::Unbounded, GapPolicy::Strict, CancelToken::inert())
                .unwrap();
        let b = gms_size_bounded(&input, &w, c, GapPolicy::Strict, CancelToken::inert()).unwrap();
        assert_eq!(
            a.reduction.source_ranges(),
            b.reduction.source_ranges(),
            "seed {seed}: gPTAc(∞) differs from GMS"
        );
    }
}

/// ITA result invariants (Def. 1): sequential, coalesced (no two adjacent
/// tuples with identical values), at most 2·|r| − 1 tuples, and
/// aggregates correct at every change point.
#[test]
fn ita_result_invariants() {
    for seed in 0..CASES {
        let rel = temporal_relation(seed);
        let spec = ItaQuerySpec::new(
            &["G"],
            vec![AggregateSpec::sum("V"), AggregateSpec::count(), AggregateSpec::min("V")],
        );
        let s = ita(&rel, &spec).unwrap();
        s.validate().unwrap();
        assert!(s.len() <= 2 * rel.len(), "seed {seed}");
        for i in 0..s.len().saturating_sub(1) {
            if s.adjacent(i) {
                assert!(
                    s.values(i) != s.values(i + 1),
                    "seed {seed}: adjacent equal-valued tuples must be coalesced"
                );
            }
        }
        // Spot-check the aggregate at each result tuple's start instant.
        for i in 0..s.len() {
            let t = s.interval(i).start();
            let key = s.group_key(s.group(i)).unwrap();
            let live: Vec<i64> = rel
                .iter()
                .filter(|tuple| {
                    tuple.interval().contains_point(t) && tuple.value(0) == &key.values()[0]
                })
                .map(|tuple| match tuple.value(1) {
                    Value::Int(v) => *v,
                    _ => unreachable!(),
                })
                .collect();
            assert!(!live.is_empty(), "seed {seed}");
            let sum: i64 = live.iter().sum();
            assert!((s.value(i, 0) - sum as f64).abs() < 1e-6, "seed {seed}");
            assert!((s.value(i, 1) - live.len() as f64).abs() < 1e-9, "seed {seed}");
            let min = *live.iter().min().unwrap() as f64;
            assert!((s.value(i, 2) - min).abs() < 1e-9, "seed {seed}");
        }
    }
}

/// Coalescing is idempotent and loses no chronon coverage.
#[test]
fn coalescing_preserves_coverage() {
    for seed in 0..CASES {
        let rel = temporal_relation(seed);
        let c1 = coalesce(&rel);
        let c2 = coalesce(&c1);
        assert_eq!(c1.len(), c2.len(), "seed {seed}: coalesce not idempotent");
        let cover = |r: &TemporalRelation| -> std::collections::BTreeSet<(String, i64)> {
            let mut set = std::collections::BTreeSet::new();
            for t in r.iter() {
                for ch in t.interval().chronons() {
                    set.insert((format!("{:?}", t.values()), ch));
                }
            }
            set
        };
        assert_eq!(cover(&rel), cover(&c1), "seed {seed}: coverage changed");
    }
}

/// PTA at size c is optimal among *all* piecewise-constant approximations
/// with at most c segments — so it never loses to PAA, APCA, DWT or SAX
/// on the same series.
#[test]
fn pta_dominates_every_segment_method() {
    use pta_baselines::{apca, dwt_for_size, paa, sax, DenseSeries, Padding};
    for seed in 0..12u64 {
        let input = common::random_sequential(seed, 40, 1, 0.0, 0.0);
        let series = DenseSeries::from_sequential(&input).unwrap();
        let w = Weights::uniform(1);
        for c in [2usize, 5, 10, 20] {
            let opt = pta_size_bounded(&input, &w, c).unwrap().reduction.sse();
            let others = [
                paa(&series, c).unwrap().sse_against(&series),
                apca(&series, c, Padding::Zero).unwrap().sse_against(&series),
                dwt_for_size(&series, c, Padding::Zero).unwrap().sse,
                sax(&series, c, 8).unwrap().sse,
            ];
            for (i, e) in others.iter().enumerate() {
                assert!(
                    opt <= e + 1e-6 * (1.0 + e),
                    "seed {seed} c {c}: PTA {opt} beaten by method {i} ({e})"
                );
            }
        }
    }
}
