//! The §8 future-work extension: merging tuples separated by temporal
//! gaps. Under `GapPolicy::Tolerate { max_gap }`, holes up to `max_gap`
//! chronons may be bridged; aggregate values and SSE still weight only the
//! covered chronons.

mod common;

use common::random_sequential;
use pta_core::{
    gms_size_bounded, max_error_with_policy, pta_error_bounded_with_opts, pta_size_bounded,
    pta_size_bounded_with_opts, CancelToken, Delta, DpOptions, GPtaC, GapPolicy, GapVector,
    Weights,
};
use pta_temporal::{GroupKey, SequentialBuilder, SequentialRelation, TimeInterval, Value};

/// Default options under a mergeability policy.
fn with_policy(policy: GapPolicy) -> DpOptions {
    DpOptions::default().with_policy(policy)
}

/// Two plateaus separated by a 2-chronon hole, in one group; a second
/// group follows.
fn holed() -> SequentialRelation {
    let mut b = SequentialBuilder::new(1);
    let g = |s: &str| GroupKey::new(vec![Value::str(s)]);
    b.push(g("A"), TimeInterval::new(0, 3).unwrap(), &[10.0]).unwrap();
    b.push(g("A"), TimeInterval::new(6, 9).unwrap(), &[12.0]).unwrap();
    b.push(g("B"), TimeInterval::new(0, 1).unwrap(), &[5.0]).unwrap();
    b.build()
}

#[test]
fn tolerating_gaps_lowers_cmin() {
    let input = holed();
    assert_eq!(input.cmin(), 3);
    assert_eq!(GapVector::build_with_policy(&input, GapPolicy::Tolerate { max_gap: 1 }).cmin(), 3);
    assert_eq!(GapVector::build_with_policy(&input, GapPolicy::Tolerate { max_gap: 2 }).cmin(), 2);
    // Group boundaries are never bridged.
    assert_eq!(
        GapVector::build_with_policy(&input, GapPolicy::Tolerate { max_gap: 1_000 }).cmin(),
        2
    );
}

#[test]
fn bridged_merge_weights_covered_chronons_only() {
    let input = holed();
    let w = Weights::uniform(1);
    let policy = GapPolicy::Tolerate { max_gap: 2 };
    let out = pta_size_bounded_with_opts(&input, &w, 2, with_policy(policy)).unwrap();
    assert_eq!(out.reduction.len(), 2);
    let z = out.reduction.relation();
    // Merged A-tuple spans the hole [0, 9] but averages 4+4 covered months.
    assert_eq!(z.interval(0), TimeInterval::new(0, 9).unwrap());
    assert!((z.value(0, 0) - 11.0).abs() < 1e-9, "got {}", z.value(0, 0));
    // SSE = 4·(10−11)² + 4·(12−11)² = 8.
    assert!((out.reduction.sse() - 8.0).abs() < 1e-9);
    // Strict PTA cannot reach size 2 at all.
    assert!(pta_size_bounded(&input, &w, 2).is_err());
}

#[test]
fn zero_tolerance_equals_strict_everywhere() {
    for seed in 0..15 {
        let input = random_sequential(seed, 30, 2, 0.1, 0.3);
        let w = Weights::uniform(2);
        let zero = GapPolicy::Tolerate { max_gap: 0 };
        for c in [input.cmin(), (input.cmin() + input.len()) / 2] {
            let strict = pta_size_bounded(&input, &w, c).unwrap();
            let tolerant = pta_size_bounded_with_opts(&input, &w, c, with_policy(zero)).unwrap();
            assert_eq!(strict.reduction.source_ranges(), tolerant.reduction.source_ranges());
        }
    }
}

#[test]
fn wider_tolerance_never_hurts_the_optimum() {
    for seed in 20..35 {
        let input = random_sequential(seed, 30, 1, 0.05, 0.4);
        let w = Weights::uniform(1);
        let loose = GapPolicy::Tolerate { max_gap: 10 };
        let loose_cmin = GapVector::build_with_policy(&input, loose).cmin();
        for c in [input.cmin(), (input.cmin() + input.len()) / 2, input.len()] {
            if c < loose_cmin.max(input.cmin()) {
                continue;
            }
            let strict = pta_size_bounded(&input, &w, c).unwrap();
            let tolerant = pta_size_bounded_with_opts(&input, &w, c, with_policy(loose)).unwrap();
            assert!(
                tolerant.reduction.sse() <= strict.reduction.sse() + 1e-9,
                "seed {seed} c {c}: a superset of merges cannot be worse"
            );
        }
    }
}

#[test]
fn greedy_respects_policy_and_matches_gms() {
    for seed in 40..55 {
        let input = random_sequential(seed, 40, 1, 0.08, 0.35);
        let w = Weights::uniform(1);
        let policy = GapPolicy::Tolerate { max_gap: 3 };
        let cmin = GapVector::build_with_policy(&input, policy).cmin();
        for c in [cmin, (cmin + input.len()) / 2] {
            let a =
                GPtaC::run(&input, &w, c, Delta::Unbounded, policy, CancelToken::inert()).unwrap();
            let b = gms_size_bounded(&input, &w, c, policy, CancelToken::inert()).unwrap();
            assert_eq!(
                a.reduction.source_ranges(),
                b.reduction.source_ranges(),
                "seed {seed} c {c}"
            );
            let recomputed = a.reduction.recompute_sse(&input, &w);
            assert!((a.stats.total_error - recomputed).abs() < 1e-6 * (1.0 + recomputed));
        }
    }
}

#[test]
fn error_bounded_uses_policy_scoped_emax() {
    let input = holed();
    let w = Weights::uniform(1);
    let policy = GapPolicy::Tolerate { max_gap: 2 };
    let strict_emax = pta_core::max_error(&input, &w).unwrap();
    let tolerant_emax = max_error_with_policy(&input, &w, policy).unwrap();
    assert_eq!(strict_emax, 0.0, "strict runs are single-valued plateaus");
    assert!((tolerant_emax - 8.0).abs() < 1e-9);
    let out = pta_error_bounded_with_opts(&input, &w, 1.0, with_policy(policy)).unwrap();
    assert_eq!(out.reduction.len(), 2, "full budget reaches the tolerant cmin");
}
