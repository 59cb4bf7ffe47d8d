//! The uniform synthetic dataset (§7.1, Table 1(d)).
//!
//! "To avoid any data induced bias we generate a synthetic dataset with 10
//! million tuples, one grouping attribute, and 10 aggregate attributes
//! with uniformly distributed values." Query S1 uses no grouping (a single
//! gap-free run); S2 groups into 50 000 groups of 200 tuples each.
//!
//! The tuples are already sequential (one instant per tuple), so the
//! generators produce [`SequentialRelation`]s directly — the merging
//! phase is what the large-scale experiments measure.

use pta_temporal::{GroupKey, SequentialBuilder, SequentialRelation, TimeInterval, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An ungrouped uniform relation: `n` instant tuples, `p` uniform values
/// each, no gaps (`cmin = 1`). The paper's S1.
pub fn ungrouped(n: usize, p: usize, seed: u64) -> SequentialRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = SequentialBuilder::with_capacity(p, n);
    let mut row = vec![0.0f64; p];
    for t in 0..n {
        for v in &mut row {
            *v = rng.random::<f64>();
        }
        // pta-lint: allow(no-panic-in-lib) — instants are valid for every t.
        b.push(GroupKey::empty(), TimeInterval::instant(t as i64).expect("valid"), &row)
            // pta-lint: allow(no-panic-in-lib) — t strictly increases, so order holds.
            .expect("rows arrive in order");
    }
    b.build()
}

/// A gap-free *monotone trend* relation: `n` instant tuples whose `p`
/// values are per-dimension nondecreasing random walks (uniform
/// increments), no gaps, no groups (`cmin = 1`). Where [`ungrouped`] is
/// the worst case for the exact DP's gap pruning *and* carries no Monge
/// certificate, this is the gap-free workload the SMAWK row minimization
/// provably accelerates: one monotone run spanning the relation — the
/// strategy benchmark's superlinear-win dataset.
pub fn trend(n: usize, p: usize, seed: u64) -> SequentialRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = SequentialBuilder::with_capacity(p, n);
    let mut row = vec![0.0f64; p];
    for t in 0..n {
        for v in &mut row {
            *v += rng.random::<f64>();
        }
        // pta-lint: allow(no-panic-in-lib) — instants are valid for every t.
        b.push(GroupKey::empty(), TimeInterval::instant(t as i64).expect("valid"), &row)
            // pta-lint: allow(no-panic-in-lib) — t strictly increases, so order holds.
            .expect("rows arrive in order");
    }
    b.build()
}

/// A grouped uniform relation: `groups · per_group` instant tuples with
/// `p` uniform values, one grouping attribute (`cmin = groups`). The
/// paper's S2 is `grouped(50_000, 200, 10, seed)`.
pub fn grouped(groups: usize, per_group: usize, p: usize, seed: u64) -> SequentialRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = SequentialBuilder::with_capacity(p, groups * per_group);
    let mut row = vec![0.0f64; p];
    for g in 0..groups {
        let key = GroupKey::new(vec![Value::Int(g as i64)]);
        for t in 0..per_group {
            for v in &mut row {
                *v = rng.random::<f64>();
            }
            // pta-lint: allow(no-panic-in-lib) — instants are valid for every t.
            b.push(key.clone(), TimeInterval::instant(t as i64).expect("valid"), &row)
                // pta-lint: allow(no-panic-in-lib) — t strictly increases per group.
                .expect("rows arrive in order");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungrouped_shape() {
        let s = ungrouped(1_000, 10, 5);
        assert_eq!(s.len(), 1_000);
        assert_eq!(s.dims(), 10);
        assert_eq!(s.cmin(), 1);
        s.validate().unwrap();
        for i in 0..s.len() {
            for d in 0..10 {
                let v = s.value(i, d);
                assert!((0.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn trend_is_monotone_and_gap_free() {
        let s = trend(500, 3, 7);
        assert_eq!(s.len(), 500);
        assert_eq!(s.cmin(), 1);
        s.validate().unwrap();
        for i in 0..s.len() - 1 {
            for d in 0..3 {
                assert!(s.value(i + 1, d) >= s.value(i, d), "dim {d} must be nondecreasing");
            }
        }
        assert_eq!(trend(100, 2, 9), trend(100, 2, 9));
    }

    #[test]
    fn grouped_shape() {
        let s = grouped(50, 20, 3, 5);
        assert_eq!(s.len(), 1_000);
        assert_eq!(s.cmin(), 50);
        assert_eq!(s.group_keys().len(), 50);
        s.validate().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(ungrouped(100, 2, 9), ungrouped(100, 2, 9));
        assert_ne!(ungrouped(100, 2, 9), ungrouped(100, 2, 10));
    }
}
