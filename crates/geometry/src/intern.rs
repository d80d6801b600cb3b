//! Hash-consed index spaces and memoized set algebra.
//!
//! Every visibility scan bottoms out in [`IndexSpace`] set algebra, and the
//! same handful of domains (partition pieces, ghost halos, equivalence-set
//! domains) meet each other over and over: a stencil that launches the same
//! tiles every timestep recomputes the same intersections millions of times.
//! Legion survives at scale by interning index spaces and caching their
//! pairwise algebra; this module is that layer.
//!
//! * [`SpaceInterner`] stores each distinct (structurally normalized) space
//!   once, content-addressed with the [`crate::hash`] machinery. A
//!   [`SpaceId`] is a handle; id equality is structural space equality.
//! * [`AlgebraCache`] memoizes `(op, lhs, rhs) → result` with a bounded
//!   segmented-LRU eviction policy.
//! * [`SpaceAlgebra`] combines both behind the operation API the engines
//!   use, trying cheap structural fast paths (identical ids, empty operands,
//!   bounding-box disjointness, single-rect pairs, contained-bbox dominance)
//!   before consulting the cache, and only then falling back to the
//!   rectangle sweep.
//!
//! **Structural fidelity invariant:** analysis results are compared with
//! structural (`PartialEq`, rect-list) equality, so every fast path and
//! every cached entry must return a space *structurally identical* to what
//! the direct sweep would produce — not merely the same point set. Each fast
//! path below documents why it is faithful; the property tests in
//! `tests/prop_interned_algebra.rs` check this over random rect sets, and
//! the engine differential tests check it end to end.

use crate::hash::{FxHashMap, FxHasher};
use crate::index_space::IndexSpace;
use crate::rect::Rect;
use std::hash::{Hash, Hasher};

/// Handle to an interned [`IndexSpace`]. Two ids are equal iff the spaces
/// are structurally equal (same normalized rect list).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SpaceId(u32);

impl SpaceId {
    /// The empty set, pre-interned in every interner.
    pub const EMPTY: SpaceId = SpaceId(0);

    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Configuration for the interning/memoization layer. The runtime reads
/// `VIZ_ALGEBRA_CACHE_CAP` into it (`viz_runtime::config`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct InternConfig {
    /// Algebra-cache capacity in entries (0 disables caching; the
    /// structural fast paths stay on).
    pub cache_cap: usize,
}

pub const DEFAULT_ALGEBRA_CACHE_CAP: usize = 4096;

impl Default for InternConfig {
    fn default() -> Self {
        InternConfig {
            cache_cap: DEFAULT_ALGEBRA_CACHE_CAP,
        }
    }
}

/// Running counters of the interning/memoization layer, exported through
/// viz-profile by the engines.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AlgebraStats {
    /// Cache lookups answered from the memo table.
    pub hits: u64,
    /// Cache lookups that fell through to the rectangle sweep.
    pub misses: u64,
    /// Operations answered by a structural fast path (no sweep, no cache).
    pub fast_hits: u64,
    /// Entries dropped by segmented-LRU eviction.
    pub evictions: u64,
    /// Distinct spaces currently interned.
    pub interned: usize,
    /// Entries currently cached.
    pub cache_entries: usize,
}

impl AlgebraStats {
    /// Counter delta since `prev` (sizes are reported as-is, not diffed).
    pub fn delta_since(&self, prev: &AlgebraStats) -> AlgebraStats {
        AlgebraStats {
            hits: self.hits - prev.hits,
            misses: self.misses - prev.misses,
            fast_hits: self.fast_hits - prev.fast_hits,
            evictions: self.evictions - prev.evictions,
            interned: self.interned,
            cache_entries: self.cache_entries,
        }
    }
}

struct InternedSpace {
    space: IndexSpace,
    /// Cached bounding box (the disjointness fast paths hit this on every
    /// call; recomputing it is a full rect-list fold).
    bbox: Rect,
}

/// Content-addressed store of normalized index spaces.
///
/// Structurally identical spaces share one slot, so equality of interned
/// spaces is id (pointer) equality and the per-space metadata (bounding box)
/// is computed once.
pub struct SpaceInterner {
    spaces: Vec<InternedSpace>,
    /// content hash → candidate slots (collisions resolved structurally).
    by_hash: FxHashMap<u64, Vec<u32>>,
}

impl Default for SpaceInterner {
    fn default() -> Self {
        let mut i = SpaceInterner {
            spaces: Vec::new(),
            by_hash: FxHashMap::default(),
        };
        let id = i.intern(&IndexSpace::empty());
        debug_assert_eq!(id, SpaceId::EMPTY);
        i
    }
}

fn content_hash(space: &IndexSpace) -> u64 {
    let mut h = FxHasher::default();
    space.rects().hash(&mut h);
    h.finish()
}

impl SpaceInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct spaces stored.
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }

    /// Intern by reference (clones only on first sight).
    pub fn intern(&mut self, space: &IndexSpace) -> SpaceId {
        let h = content_hash(space);
        let bucket = self.by_hash.entry(h).or_default();
        for &slot in bucket.iter() {
            if self.spaces[slot as usize].space == *space {
                return SpaceId(slot);
            }
        }
        let slot = self.spaces.len() as u32;
        bucket.push(slot);
        self.spaces.push(InternedSpace {
            bbox: space.bbox(),
            space: space.clone(),
        });
        SpaceId(slot)
    }

    /// Intern an owned space (no clone on first sight).
    pub fn intern_owned(&mut self, space: IndexSpace) -> SpaceId {
        let h = content_hash(&space);
        let bucket = self.by_hash.entry(h).or_default();
        for &slot in bucket.iter() {
            if self.spaces[slot as usize].space == space {
                return SpaceId(slot);
            }
        }
        let slot = self.spaces.len() as u32;
        bucket.push(slot);
        self.spaces.push(InternedSpace {
            bbox: space.bbox(),
            space,
        });
        SpaceId(slot)
    }

    /// Resolve an id.
    #[inline]
    pub fn get(&self, id: SpaceId) -> &IndexSpace {
        &self.spaces[id.0 as usize].space
    }

    /// Cached bounding box of an interned space.
    #[inline]
    pub fn bbox(&self, id: SpaceId) -> Rect {
        self.spaces[id.0 as usize].bbox
    }
}

/// Cached operation kinds. `Contains` is `lhs ⊇ rhs`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AlgebraOp {
    Intersect,
    Subtract,
    Union,
    Overlaps,
    Contains,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum CacheVal {
    Space(SpaceId),
    Flag(bool),
}

type CacheKey = (AlgebraOp, SpaceId, SpaceId);

/// Bounded memo table for pairwise algebra results.
///
/// Eviction is segmented LRU: entries start in the *hot* generation; when
/// the hot generation fills to half the capacity it is demoted wholesale to
/// *cold* and the previous cold generation (entries not touched for a full
/// generation) is dropped. Lookups promote cold entries back to hot. This
/// keeps every operation O(1) while approximating LRU closely enough for
/// the loop-shaped reuse the engines exhibit.
pub struct AlgebraCache {
    hot: FxHashMap<CacheKey, CacheVal>,
    cold: FxHashMap<CacheKey, CacheVal>,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl AlgebraCache {
    pub fn new(cap: usize) -> Self {
        AlgebraCache {
            hot: FxHashMap::default(),
            cold: FxHashMap::default(),
            cap,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hot.is_empty() && self.cold.is_empty()
    }

    fn get(&mut self, key: &CacheKey) -> Option<CacheVal> {
        if let Some(v) = self.hot.get(key) {
            self.hits += 1;
            return Some(*v);
        }
        if let Some(v) = self.cold.remove(key) {
            self.hits += 1;
            self.promote(*key, v);
            return Some(v);
        }
        self.misses += 1;
        None
    }

    fn insert(&mut self, key: CacheKey, val: CacheVal) {
        if self.cap == 0 {
            return;
        }
        self.promote(key, val);
    }

    fn promote(&mut self, key: CacheKey, val: CacheVal) {
        if self.hot.len() >= self.cap.div_ceil(2) {
            let demoted = std::mem::take(&mut self.hot);
            self.evictions += self.cold.len() as u64;
            self.cold = demoted;
        }
        self.hot.insert(key, val);
    }
}

/// The engines' view of the layer: an interner plus a memo table plus the
/// structural fast paths, behind the same operation vocabulary as
/// [`IndexSpace`] itself.
pub struct SpaceAlgebra {
    interner: SpaceInterner,
    cache: AlgebraCache,
    fast_hits: u64,
}

impl Default for SpaceAlgebra {
    fn default() -> Self {
        Self::new(InternConfig::default())
    }
}

impl SpaceAlgebra {
    pub fn new(config: InternConfig) -> Self {
        SpaceAlgebra {
            interner: SpaceInterner::new(),
            cache: AlgebraCache::new(config.cache_cap),
            fast_hits: 0,
        }
    }

    /// Intern a space (see [`SpaceInterner::intern`]).
    #[inline]
    pub fn intern(&mut self, space: &IndexSpace) -> SpaceId {
        self.interner.intern(space)
    }

    #[inline]
    pub fn intern_owned(&mut self, space: IndexSpace) -> SpaceId {
        self.interner.intern_owned(space)
    }

    /// Resolve an id.
    #[inline]
    pub fn space(&self, id: SpaceId) -> &IndexSpace {
        self.interner.get(id)
    }

    /// Cached bounding box.
    #[inline]
    pub fn bbox(&self, id: SpaceId) -> Rect {
        self.interner.bbox(id)
    }

    #[inline]
    pub fn is_empty_space(&self, id: SpaceId) -> bool {
        id == SpaceId::EMPTY || self.interner.get(id).is_empty()
    }

    pub fn stats(&self) -> AlgebraStats {
        AlgebraStats {
            hits: self.cache.hits,
            misses: self.cache.misses,
            fast_hits: self.fast_hits,
            evictions: self.cache.evictions,
            interned: self.interner.len(),
            cache_entries: self.cache.len(),
        }
    }

    /// Single-rect view of an interned space, if it has exactly one rect.
    #[inline]
    fn single_rect(&self, id: SpaceId) -> Option<Rect> {
        let s = self.interner.get(id);
        match s.rects() {
            [r] => Some(*r),
            _ => None,
        }
    }

    /// `lhs ∩ rhs` (the paper's `X/Y`).
    pub fn intersect(&mut self, a: SpaceId, b: SpaceId) -> SpaceId {
        // Fast paths. Each returns exactly what the direct sweep returns:
        // * a ∩ a: pairwise intersections of a disjoint family with itself
        //   are the family itself; normalization of a normalized list is the
        //   identity. Ditto the linear-band sweep.
        // * empty / bbox-disjoint operands: the sweep's own early exits.
        // * single-rect pairs: the sweep computes the one rect intersection.
        // * b a single rect covering a's bbox: every rect of a survives
        //   unchanged, so the result is a itself (and symmetrically).
        if a == b {
            self.fast_hits += 1;
            return a;
        }
        if self.is_empty_space(a) || self.is_empty_space(b) {
            self.fast_hits += 1;
            return SpaceId::EMPTY;
        }
        let (ba, bb) = (self.interner.bbox(a), self.interner.bbox(b));
        if !ba.overlaps(&bb) {
            self.fast_hits += 1;
            return SpaceId::EMPTY;
        }
        match (self.single_rect(a), self.single_rect(b)) {
            (Some(ra), Some(rb)) => {
                self.fast_hits += 1;
                let r = IndexSpace::from_rect(ra.intersect(&rb));
                return self.interner.intern_owned(r);
            }
            (_, Some(rb)) if rb.contains_rect(&ba) => {
                self.fast_hits += 1;
                return a;
            }
            (Some(ra), _) if ra.contains_rect(&bb) => {
                self.fast_hits += 1;
                return b;
            }
            _ => {}
        }
        let key = (AlgebraOp::Intersect, a, b);
        if let Some(CacheVal::Space(r)) = self.cache.get(&key) {
            return r;
        }
        let r = self.interner.get(a).intersect(self.interner.get(b));
        let r = self.interner.intern_owned(r);
        self.cache.insert(key, CacheVal::Space(r));
        r
    }

    /// `lhs \ rhs` (the paper's `X\Y`).
    pub fn subtract(&mut self, a: SpaceId, b: SpaceId) -> SpaceId {
        // Fast paths, each matching the sweep structurally:
        // * a \ a = ∅; empty minuend = ∅; empty/bbox-disjoint subtrahend
        //   returns a clone of a (≡ a's own interned storage).
        // * b a single rect covering a's bbox removes everything.
        if a == b || self.is_empty_space(a) {
            self.fast_hits += 1;
            return SpaceId::EMPTY;
        }
        if self.is_empty_space(b) {
            self.fast_hits += 1;
            return a;
        }
        let (ba, bb) = (self.interner.bbox(a), self.interner.bbox(b));
        if !ba.overlaps(&bb) {
            self.fast_hits += 1;
            return a;
        }
        if let Some(rb) = self.single_rect(b) {
            if rb.contains_rect(&ba) {
                self.fast_hits += 1;
                return SpaceId::EMPTY;
            }
        }
        let key = (AlgebraOp::Subtract, a, b);
        if let Some(CacheVal::Space(r)) = self.cache.get(&key) {
            return r;
        }
        let r = self.interner.get(a).subtract(self.interner.get(b));
        let r = self.interner.intern_owned(r);
        self.cache.insert(key, CacheVal::Space(r));
        r
    }

    /// `lhs ∪ rhs`. No structural fast path beyond the empty operands —
    /// union's decomposition depends on argument order, so everything else
    /// goes through the cache keyed on the exact (lhs, rhs) pair.
    pub fn union(&mut self, a: SpaceId, b: SpaceId) -> SpaceId {
        if self.is_empty_space(a) {
            self.fast_hits += 1;
            return b;
        }
        if self.is_empty_space(b) {
            self.fast_hits += 1;
            return a;
        }
        let key = (AlgebraOp::Union, a, b);
        if let Some(CacheVal::Space(r)) = self.cache.get(&key) {
            return r;
        }
        let r = self.interner.get(a).union(self.interner.get(b));
        let r = self.interner.intern_owned(r);
        self.cache.insert(key, CacheVal::Space(r));
        r
    }

    /// `lhs ∩ rhs ≠ ∅` — the hottest predicate in the analysis.
    pub fn overlaps(&mut self, a: SpaceId, b: SpaceId) -> bool {
        if self.is_empty_space(a) || self.is_empty_space(b) {
            self.fast_hits += 1;
            return false;
        }
        if a == b {
            self.fast_hits += 1;
            return true;
        }
        let (ba, bb) = (self.interner.bbox(a), self.interner.bbox(b));
        if !ba.overlaps(&bb) {
            self.fast_hits += 1;
            return false;
        }
        match (self.single_rect(a), self.single_rect(b)) {
            (Some(ra), Some(rb)) => {
                self.fast_hits += 1;
                return ra.overlaps(&rb);
            }
            (_, Some(rb)) if rb.contains_rect(&ba) => {
                self.fast_hits += 1;
                return true;
            }
            (Some(ra), _) if ra.contains_rect(&bb) => {
                self.fast_hits += 1;
                return true;
            }
            _ => {}
        }
        let key = (AlgebraOp::Overlaps, a, b);
        if let Some(CacheVal::Flag(v)) = self.cache.get(&key) {
            return v;
        }
        let v = self.interner.get(a).overlaps(self.interner.get(b));
        self.cache.insert(key, CacheVal::Flag(v));
        v
    }

    /// Does `lhs` contain every point of `rhs`?
    pub fn contains(&mut self, a: SpaceId, b: SpaceId) -> bool {
        if self.is_empty_space(b) {
            self.fast_hits += 1;
            return true;
        }
        if a == b {
            self.fast_hits += 1;
            return true;
        }
        if self.is_empty_space(a) {
            self.fast_hits += 1;
            return false;
        }
        let (ba, bb) = (self.interner.bbox(a), self.interner.bbox(b));
        if !ba.overlaps(&bb) {
            self.fast_hits += 1;
            return false;
        }
        if let Some(ra) = self.single_rect(a) {
            // A single rect contains b iff it contains b's bbox.
            self.fast_hits += 1;
            return ra.contains_rect(&bb);
        }
        if !ba.contains_rect(&bb) {
            // Some point of b lies outside a's bounds.
            self.fast_hits += 1;
            return false;
        }
        let key = (AlgebraOp::Contains, a, b);
        if let Some(CacheVal::Flag(v)) = self.cache.get(&key) {
            return v;
        }
        let v = self.interner.get(a).contains(self.interner.get(b));
        self.cache.insert(key, CacheVal::Flag(v));
        v
    }

    // Convenience forms for call sites holding plain spaces (the painter
    // engines): intern on the fly, then go through the id-keyed paths.

    pub fn contains_spaces(&mut self, a: &IndexSpace, b: &IndexSpace) -> bool {
        let (a, b) = (self.intern(a), self.intern(b));
        self.contains(a, b)
    }

    pub fn overlaps_spaces(&mut self, a: &IndexSpace, b: &IndexSpace) -> bool {
        let (a, b) = (self.intern(a), self.intern(b));
        self.overlaps(a, b)
    }

    pub fn intersect_spaces(&mut self, a: &IndexSpace, b: &IndexSpace) -> IndexSpace {
        let (a, b) = (self.intern(a), self.intern(b));
        let r = self.intersect(a, b);
        self.space(r).clone()
    }

    pub fn subtract_spaces(&mut self, a: &IndexSpace, b: &IndexSpace) -> IndexSpace {
        let (a, b) = (self.intern(a), self.intern(b));
        let r = self.subtract(a, b);
        self.space(r).clone()
    }

    pub fn union_spaces(&mut self, a: &IndexSpace, b: &IndexSpace) -> IndexSpace {
        let (a, b) = (self.intern(a), self.intern(b));
        let r = self.union(a, b);
        self.space(r).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(lo: i64, hi: i64) -> IndexSpace {
        IndexSpace::span(lo, hi)
    }

    #[test]
    fn interning_dedups_structurally() {
        let mut i = SpaceInterner::new();
        let a = i.intern(&sp(0, 9));
        let b = i.intern(&IndexSpace::from_rect(Rect::span(0, 9)));
        let c = i.intern(&sp(0, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.get(a), &sp(0, 9));
        assert_eq!(i.bbox(a), Rect::span(0, 9));
        // empty pre-interned
        assert_eq!(i.intern(&IndexSpace::empty()), SpaceId::EMPTY);
    }

    #[test]
    fn ops_match_direct_algebra() {
        let mut alg = SpaceAlgebra::default();
        let shapes = [
            IndexSpace::empty(),
            sp(0, 31),
            sp(16, 47),
            IndexSpace::from_rect(Rect::xy(0, 9, 0, 9)),
            IndexSpace::from_rect(Rect::xy(5, 14, 5, 14)),
            IndexSpace::from_rects([Rect::span(0, 4), Rect::span(10, 14)]),
            IndexSpace::from_rect(Rect::xy(-100, 100, -100, 100)),
        ];
        // Run twice so the second round is answered from the cache.
        for _ in 0..2 {
            for a in &shapes {
                for b in &shapes {
                    let (ia, ib) = (alg.intern(a), alg.intern(b));
                    let i = alg.intersect(ia, ib);
                    assert_eq!(alg.space(i), &a.intersect(b));
                    let s = alg.subtract(ia, ib);
                    assert_eq!(alg.space(s), &a.subtract(b));
                    let u = alg.union(ia, ib);
                    assert_eq!(alg.space(u), &a.union(b));
                    assert_eq!(alg.overlaps(ia, ib), a.overlaps(b));
                    assert_eq!(alg.contains(ia, ib), a.contains(b));
                }
            }
        }
        let s = alg.stats();
        assert!(s.hits > 0, "second round should hit: {s:?}");
    }

    #[test]
    fn cache_eviction_is_bounded() {
        let mut alg = SpaceAlgebra::new(InternConfig { cache_cap: 8 });
        // Multi-rect spaces so lookups miss the fast paths and hit the cache.
        let mk = |i: i64| {
            IndexSpace::from_rects([
                Rect::span(i * 10, i * 10 + 3),
                Rect::span(i * 10 + 5, i * 10 + 8),
            ])
        };
        let big = alg.intern(&IndexSpace::from_rects([
            Rect::span(0, 400),
            Rect::span(402, 500),
        ]));
        for i in 0..40 {
            let a = alg.intern(&mk(i));
            let _ = alg.intersect(a, big);
        }
        let s = alg.stats();
        assert!(s.cache_entries <= 8, "cache grew past cap: {s:?}");
        assert!(s.evictions > 0);
    }

    #[test]
    fn identical_id_fast_paths() {
        let mut alg = SpaceAlgebra::default();
        let a = alg.intern(&IndexSpace::from_rects([
            Rect::xy(0, 4, 0, 4),
            Rect::xy(10, 14, 10, 14),
        ]));
        assert_eq!(alg.intersect(a, a), a);
        assert_eq!(alg.subtract(a, a), SpaceId::EMPTY);
        assert!(alg.overlaps(a, a));
        assert!(alg.contains(a, a));
        assert_eq!(alg.stats().misses, 0, "no sweep should have run");
    }
}
