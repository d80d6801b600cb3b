//! Property tests: the static, dynamic and flattened BVHs must agree with
//! brute force on arbitrary rectangle sets and query patterns (including
//! degenerate shapes: points, lines, heavy overlap, churn).

use proptest::prelude::*;
use viz_geometry::{Bvh, DynamicBvh, FlatBvh, Rect};

fn rect() -> impl Strategy<Value = Rect> {
    (0i64..500, 0i64..60, 0i64..500, 0i64..60).prop_map(|(x, w, y, h)| Rect::xy(x, x + w, y, y + h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bvh_matches_brute_force(
        items in prop::collection::vec(rect(), 0..60),
        queries in prop::collection::vec(rect(), 1..10),
    ) {
        let tagged: Vec<(u32, Rect)> = items
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u32, *r))
            .collect();
        let bvh = Bvh::build(tagged.clone());
        prop_assert_eq!(bvh.len(), items.len());
        for q in &queries {
            let mut got = bvh.query_vec(q);
            got.sort_unstable();
            let mut expect: Vec<u32> = tagged
                .iter()
                .filter(|(_, r)| r.overlaps(q))
                .map(|(i, _)| *i)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }

    /// Audit of `DynamicBvh::remove`'s sibling-splice + ancestor-refit
    /// early break: after *every* remove, every inner node's stored bbox
    /// must equal the exact union of its children — as tight as a freshly
    /// rebuilt tree's, never a stale superset left by a refit that broke
    /// too early. Checked after each mutation (not just at the end) so a
    /// transiently-stale ancestor cannot hide behind a later rebuild.
    #[test]
    fn dynamic_bvh_remove_keeps_bboxes_exactly_tight(
        inserts in prop::collection::vec(rect(), 1..60),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
        queries in prop::collection::vec(rect(), 1..8),
    ) {
        let mut tree = DynamicBvh::new();
        let mut live: Vec<(u64, Rect)> = Vec::new();
        for (i, r) in inserts.iter().enumerate() {
            tree.insert(i as u64, *r);
            live.push((i as u64, *r));
        }
        prop_assert!(tree.validate_tight().is_ok(), "{:?}", tree.validate_tight());
        for idx in &removals {
            if live.is_empty() {
                break;
            }
            let k = idx.index(live.len());
            let (id, _) = live.remove(k);
            prop_assert!(tree.remove(id));
            prop_assert!(tree.validate_tight().is_ok(), "{:?}", tree.validate_tight());
        }
        // Tight bboxes must also mean exact queries: agree with a freshly
        // rebuilt tree over the same live items.
        let mut fresh = DynamicBvh::new();
        for (id, r) in &live {
            fresh.insert(*id, *r);
        }
        for q in &queries {
            let mut got = tree.query_vec(q);
            got.sort_unstable();
            let mut expect = fresh.query_vec(q);
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }

    /// The flattened SoA snapshot answers exactly like the dynamic tree it
    /// was taken from, across churn, batch layouts, and epochs.
    #[test]
    fn flat_snapshot_matches_dynamic_tree(
        inserts in prop::collection::vec(rect(), 1..80),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..30),
        queries in prop::collection::vec(rect(), 1..10),
    ) {
        let mut tree = DynamicBvh::new();
        let mut live: Vec<(u64, Rect)> = Vec::new();
        for (i, r) in inserts.iter().enumerate() {
            tree.insert(i as u64, *r);
            live.push((i as u64, *r));
        }
        for idx in &removals {
            if live.is_empty() {
                break;
            }
            let k = idx.index(live.len());
            let (id, _) = live.remove(k);
            prop_assert!(tree.remove(id));
        }
        let snap = FlatBvh::snapshot(&tree);
        prop_assert_eq!(snap.len(), live.len());
        prop_assert_eq!(snap.epoch(), tree.epoch());
        let (mut hits, mut offsets) = (Vec::new(), Vec::new());
        snap.batch_query(&queries, &mut hits, &mut offsets);
        prop_assert_eq!(offsets.len(), queries.len() + 1);
        for (k, q) in queries.iter().enumerate() {
            let mut got: Vec<u64> =
                hits[offsets[k] as usize..offsets[k + 1] as usize].to_vec();
            got.sort_unstable();
            let mut expect = tree.query_vec(q);
            expect.sort_unstable();
            prop_assert_eq!(&got, &expect, "query {}: flat != dynamic", k);
            let mut brute: Vec<u64> = live
                .iter()
                .filter(|(_, r)| r.overlaps(q))
                .map(|(i, _)| *i)
                .collect();
            brute.sort_unstable();
            prop_assert_eq!(&got, &brute, "query {}: flat != brute force", k);
        }
    }

    /// Degenerate single-point items still index correctly.
    #[test]
    fn point_items(xs in prop::collection::vec((0i64..100, 0i64..100), 1..40)) {
        let items: Vec<(u32, Rect)> = xs
            .iter()
            .enumerate()
            .map(|(i, (x, y))| (i as u32, Rect::xy(*x, *x, *y, *y)))
            .collect();
        let bvh = Bvh::build(items.clone());
        for (i, (x, y)) in xs.iter().enumerate() {
            let hits = bvh.query_vec(&Rect::xy(*x, *x, *y, *y));
            prop_assert!(hits.contains(&(i as u32)));
        }
    }
}
