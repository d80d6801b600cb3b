//! Property tests for the interned/memoized set algebra.
//!
//! The engines compare analysis results *structurally* (rect-list
//! equality), so [`SpaceAlgebra`] must return spaces structurally identical
//! to the direct sweeps — a fast path or cached entry returning a merely
//! point-equal space would silently change materialization plans. These
//! tests drive one long-lived algebra (so the interner and cache accumulate
//! state across operations, exercising hits, promotions and evictions) and
//! check every result against the uncached [`IndexSpace`] operation.

use proptest::prelude::*;
use viz_geometry::{IndexSpace, InternConfig, Rect, SpaceAlgebra};

/// A small random index space out of up to 4 random rects in a 64x64
/// universe; duplicates across cases are likely, which is exactly what the
/// interner and cache exist for.
fn space() -> impl Strategy<Value = IndexSpace> {
    prop::collection::vec(
        (0i64..64, 0i64..16, 0i64..64, 0i64..16)
            .prop_map(|(x, w, y, h)| Rect::xy(x, x + w, y, y + h)),
        0..4,
    )
    .prop_map(IndexSpace::from_rects)
}

fn check_all_ops(alg: &mut SpaceAlgebra, a: &IndexSpace, b: &IndexSpace) {
    let (ia, ib) = (alg.intern(a), alg.intern(b));
    // Interning round-trips exactly.
    prop_assert_eq!(alg.space(ia), a);
    prop_assert_eq!(alg.space(ib), b);
    prop_assert_eq!(alg.bbox(ia), a.bbox());

    let i = alg.intersect(ia, ib);
    prop_assert_eq!(alg.space(i), &a.intersect(b), "intersect diverged");
    let s = alg.subtract(ia, ib);
    prop_assert_eq!(alg.space(s), &a.subtract(b), "subtract diverged");
    let u = alg.union(ia, ib);
    prop_assert_eq!(alg.space(u), &a.union(b), "union diverged");
    prop_assert_eq!(alg.overlaps(ia, ib), a.overlaps(b), "overlaps diverged");
    prop_assert_eq!(alg.contains(ia, ib), a.contains(b), "contains diverged");

    // Convenience forms must agree with the id-keyed paths.
    prop_assert_eq!(&alg.intersect_spaces(a, b), &a.intersect(b));
    prop_assert_eq!(&alg.subtract_spaces(a, b), &a.subtract(b));
    prop_assert_eq!(&alg.union_spaces(a, b), &a.union(b));
    prop_assert_eq!(alg.overlaps_spaces(a, b), a.overlaps(b));
    prop_assert_eq!(alg.contains_spaces(a, b), a.contains(b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The algebra (fast paths + cache) ≡ direct sweeps, structurally,
    /// over a sequence of pairs sharing one algebra. Running every pair
    /// twice forces the second round through the memo table.
    #[test]
    fn interned_algebra_matches_direct(pairs in prop::collection::vec((space(), space()), 1..12)) {
        let mut alg = SpaceAlgebra::new(InternConfig::default());
        for _ in 0..2 {
            for (a, b) in &pairs {
                check_all_ops(&mut alg, a, b);
            }
        }
    }

    /// A tiny cache capacity forces constant eviction; results must not
    /// change (only hit rates may).
    #[test]
    fn eviction_never_changes_results(pairs in prop::collection::vec((space(), space()), 1..12)) {
        let mut alg = SpaceAlgebra::new(InternConfig { cache_cap: 2 });
        for _ in 0..2 {
            for (a, b) in &pairs {
                check_all_ops(&mut alg, a, b);
            }
        }
        prop_assert!(alg.stats().cache_entries <= 2);
    }

    /// With caching off (capacity 0) the structural fast paths alone
    /// answer or fall through to the sweep, and still match it exactly.
    #[test]
    fn uncached_algebra_matches_direct(pairs in prop::collection::vec((space(), space()), 1..8)) {
        let mut alg = SpaceAlgebra::new(InternConfig { cache_cap: 0 });
        for _ in 0..2 {
            for (a, b) in &pairs {
                check_all_ops(&mut alg, a, b);
            }
        }
        prop_assert_eq!(alg.stats().hits, 0);
        prop_assert_eq!(alg.stats().cache_entries, 0);
    }

    /// Self-operations hit the identical-id fast paths and must still be
    /// structurally exact (a ∩ a = a, a \ a = ∅).
    #[test]
    fn self_ops_are_structural_identities(a in space()) {
        let mut alg = SpaceAlgebra::new(InternConfig::default());
        let ia = alg.intern(&a);
        let i = alg.intersect(ia, ia);
        prop_assert_eq!(i, ia);
        prop_assert_eq!(alg.space(i), &a.intersect(&a));
        let s = alg.subtract(ia, ia);
        prop_assert!(alg.space(s).is_empty());
        prop_assert_eq!(alg.space(s), &a.subtract(&a));
    }
}
