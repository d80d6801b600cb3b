//! Pluggable candidate-resolution backends for the raycast dynamic-BVH path.
//!
//! When no disjoint-and-complete partition exists, the raycast engine
//! resolves each requirement's candidate equivalence sets by querying an
//! incrementally maintained [`DynamicBvh`] (§7.1's K-d fallback). Those
//! queries are independent per requirement — a *batch* of visibility rays —
//! which makes them a natural target for the ROADMAP's flatten-and-sweep
//! plan: snapshot the tree into a [`FlatBvh`] (pre-order SoA arrays) and
//! answer the whole shard's pending queries in one stackless sweep.
//!
//! Two [`VisibilityBackend`] implementations exist:
//!
//! * [`ScalarVisibility`] — the original per-query walk of the dynamic
//!   tree. Zero setup cost; the right choice for small shards.
//! * [`BatchVisibility`] — flattens once per tree epoch, sweeps every
//!   query of the shard batch in one pass, and serves each requirement's
//!   candidates from the precomputed hit ranges. Falls back to the scalar
//!   walk while the tree holds fewer than `batch_min` leaves.
//!
//! **Invisibility contract.** Both backends return *exactly* the ids of
//! live leaves overlapping each query, so after the caller's sort + dedup
//! the candidate sets — and therefore every downstream charge, dependence,
//! plan, and value — are identical. The batch backend maintains this
//! exactly: snapshots record the tree's mutation epoch, every structural
//! mutation bumps it, and a stale sweep is re-resolved against the current
//! tree before any requirement consumes it (requirements later in a batch
//! observe refinements made by earlier ones, just as the scalar path
//! does). The differential proptests in
//! `crates/runtime/tests/prop_vis_backend_differential.rs` pin this.
//!
//! Backend selection follows the [`intern`](viz_geometry::InternConfig)
//! pattern: `crate::config::env_visibility()` reads `VIZ_VIS_BACKEND` /
//! `VIZ_VIS_BATCH_MIN` (through the config front door), and
//! `RuntimeConfig::visibility_backend` pins it in-process for the
//! differential tests.

use viz_geometry::{DynamicBvh, FlatBvh, Rect};

/// Which candidate-resolution implementation the raycast dynamic-BVH path
/// uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum VisibilityKind {
    /// Per-query traversal of the dynamic tree (the original path).
    #[default]
    Scalar,
    /// Flattened-snapshot batched sweep ([`FlatBvh`]).
    Batch,
}

/// Default leaf-count threshold below which the batch backend falls back
/// to scalar traversal (`VIZ_VIS_BATCH_MIN`).
pub const DEFAULT_BATCH_MIN: usize = 64;

/// Candidate-resolution configuration (see the `VIZ_VIS_BACKEND` /
/// `VIZ_VIS_BATCH_MIN` rows of the [`crate::RuntimeConfig`] env table).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct VisibilityConfig {
    pub kind: VisibilityKind,
    /// Minimum live leaves before the batch backend flattens; below this
    /// the snapshot cost cannot amortize and it runs the scalar walk.
    pub batch_min: usize,
}

impl Default for VisibilityConfig {
    fn default() -> Self {
        VisibilityConfig {
            kind: VisibilityKind::Scalar,
            batch_min: DEFAULT_BATCH_MIN,
        }
    }
}

impl VisibilityConfig {
    /// The scalar per-query backend (the default).
    pub fn scalar() -> Self {
        VisibilityConfig::default()
    }

    /// The batched backend with the default fallback threshold.
    pub fn batch() -> Self {
        VisibilityConfig {
            kind: VisibilityKind::Batch,
            ..VisibilityConfig::default()
        }
    }

    /// Override the scalar-fallback threshold (0 = always batch).
    pub fn batch_min(mut self, n: usize) -> Self {
        self.batch_min = n;
        self
    }

    /// Instantiate the configured backend (one per shard: backends hold
    /// per-shard snapshot and sweep state).
    pub fn build(&self) -> Box<dyn VisibilityBackend> {
        match self.kind {
            VisibilityKind::Scalar => Box::new(ScalarVisibility::default()),
            VisibilityKind::Batch => Box::new(BatchVisibility::new(self.batch_min)),
        }
    }
}

/// A requirement's run of query rects within the batch's flat query list:
/// `(first rect index, rect count)`.
pub type QuerySpan = (u32, u32);

/// One shard's candidate-resolution strategy.
///
/// The caller (the raycast backward scan) collects every requirement's
/// query rects into one flat `queries` list with a [`QuerySpan`] per
/// requirement, announces the batch with [`begin_batch`], then calls
/// [`resolve`] once per requirement *in order*, against the tree's state
/// at that point of the scan. `resolve` appends the ids of all live
/// leaves overlapping any of the requirement's rects (unsorted, possibly
/// duplicated across rects — callers sort + dedup).
///
/// [`begin_batch`]: VisibilityBackend::begin_batch
/// [`resolve`]: VisibilityBackend::resolve
pub trait VisibilityBackend: Send {
    fn name(&self) -> &'static str;

    /// A new shard batch is starting; any sweep state cached for the
    /// previous batch's query list is now invalid.
    fn begin_batch(&mut self) {}

    /// Resolve requirement `k`'s candidates against the tree's current
    /// state, appending hit ids to `out`.
    fn resolve(
        &mut self,
        tree: &DynamicBvh,
        queries: &[Rect],
        spans: &[QuerySpan],
        k: usize,
        out: &mut Vec<u64>,
    );
}

/// The original per-query dynamic-tree walk, with a reusable traversal
/// stack so steady state allocates nothing.
#[derive(Default)]
pub struct ScalarVisibility {
    stack: Vec<u32>,
}

impl VisibilityBackend for ScalarVisibility {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn resolve(
        &mut self,
        tree: &DynamicBvh,
        queries: &[Rect],
        spans: &[QuerySpan],
        k: usize,
        out: &mut Vec<u64>,
    ) {
        let (start, len) = spans[k];
        for r in &queries[start as usize..(start + len) as usize] {
            tree.query_with(r, &mut self.stack, out);
        }
    }
}

/// The flattened batched sweep: snapshot per tree epoch, one
/// [`FlatBvh::batch_query`] per (batch, epoch), per-requirement results
/// served from the precomputed hit ranges. All buffers are reused across
/// batches — steady state allocates nothing.
pub struct BatchVisibility {
    batch_min: usize,
    snapshot: FlatBvh,
    /// `snapshot` reflects some real tree state (a `FlatBvh::default()`
    /// placeholder does not).
    have_snapshot: bool,
    /// `hits`/`offsets` hold a sweep of the *current* batch's query list
    /// at `snapshot.epoch()`.
    swept: bool,
    hits: Vec<u64>,
    offsets: Vec<u32>,
    /// Traversal stack for the below-threshold scalar fallback.
    stack: Vec<u32>,
}

impl BatchVisibility {
    pub fn new(batch_min: usize) -> Self {
        BatchVisibility {
            batch_min,
            snapshot: FlatBvh::default(),
            have_snapshot: false,
            swept: false,
            hits: Vec::new(),
            offsets: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Snapshots taken so far reflect `epoch` — test/introspection hook.
    pub fn snapshot_epoch(&self) -> Option<u64> {
        self.have_snapshot.then(|| self.snapshot.epoch())
    }
}

impl VisibilityBackend for BatchVisibility {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn begin_batch(&mut self) {
        self.swept = false;
    }

    fn resolve(
        &mut self,
        tree: &DynamicBvh,
        queries: &[Rect],
        spans: &[QuerySpan],
        k: usize,
        out: &mut Vec<u64>,
    ) {
        let (start, len) = spans[k];
        if tree.len() < self.batch_min {
            // Below the amortization threshold: walk the dynamic tree
            // directly, exactly like the scalar backend.
            for r in &queries[start as usize..(start + len) as usize] {
                tree.query_with(r, &mut self.stack, out);
            }
            return;
        }
        // (Re-)sweep when this batch has not been resolved yet, or when an
        // earlier requirement's refinement mutated the tree since the last
        // sweep. Re-resolving the *whole* batch keeps the logic epoch-pure:
        // each requirement reads ranges computed at the tree's current
        // epoch, never a mix.
        if !self.swept || self.snapshot.epoch() != tree.epoch() {
            if !self.have_snapshot || self.snapshot.epoch() != tree.epoch() {
                self.snapshot = FlatBvh::snapshot(tree);
                self.have_snapshot = true;
                viz_profile::instant(viz_profile::EventKind::FlatSnapshot {
                    nodes: self.snapshot.node_count() as u64,
                });
            }
            self.snapshot
                .batch_query(queries, &mut self.hits, &mut self.offsets);
            self.swept = true;
            viz_profile::instant(viz_profile::EventKind::BatchQuery {
                queries: queries.len() as u64,
                hits: self.hits.len() as u64,
            });
        }
        let lo = self.offsets[start as usize] as usize;
        let hi = self.offsets[(start + len) as usize] as usize;
        out.extend_from_slice(&self.hits[lo..hi]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_of(n: u64) -> DynamicBvh {
        let mut tree = DynamicBvh::new();
        for i in 0..n {
            let x = (i as i64 * 11) % 257;
            tree.insert(
                i,
                Rect::xy(x, x + 6, (i as i64 * 5) % 97, (i as i64 * 5) % 97 + 4),
            );
        }
        tree
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Batch and scalar agree query-for-query, above and below the
    /// fallback threshold.
    #[test]
    fn backends_agree() {
        for n in [3u64, 50, 200] {
            let tree = tree_of(n);
            let queries: Vec<Rect> = (0..10)
                .map(|q| Rect::xy(q * 23, q * 23 + 40, 0, 90))
                .collect();
            let spans: Vec<QuerySpan> = (0..5).map(|k| (k * 2, 2)).collect();
            let mut scalar = ScalarVisibility::default();
            let mut batch = BatchVisibility::new(64);
            batch.begin_batch();
            for k in 0..spans.len() {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                scalar.resolve(&tree, &queries, &spans, k, &mut a);
                batch.resolve(&tree, &queries, &spans, k, &mut b);
                assert_eq!(sorted(a), sorted(b), "n={n} k={k}");
            }
        }
    }

    /// A mutation between two requirements of one batch forces a re-sweep;
    /// the later requirement sees the post-mutation tree.
    #[test]
    fn mid_batch_mutation_is_observed() {
        let mut tree = tree_of(100);
        let queries = vec![Rect::xy(0, 300, 0, 100), Rect::xy(0, 300, 0, 100)];
        let spans: Vec<QuerySpan> = vec![(0, 1), (1, 1)];
        let mut batch = BatchVisibility::new(0);
        batch.begin_batch();
        let mut first = Vec::new();
        batch.resolve(&tree, &queries, &spans, 0, &mut first);
        let epoch_before = batch.snapshot_epoch().unwrap();
        tree.insert(1000, Rect::xy(0, 5, 0, 5));
        let mut second = Vec::new();
        batch.resolve(&tree, &queries, &spans, 1, &mut second);
        assert!(batch.snapshot_epoch().unwrap() > epoch_before);
        assert!(second.contains(&1000), "re-sweep must see the insert");
        assert_eq!(sorted(second).len(), sorted(first).len() + 1);
    }

    /// An unchanged epoch across batches reuses the snapshot (no re-flatten)
    /// but re-sweeps the new query list.
    #[test]
    fn snapshot_reused_across_batches_at_same_epoch() {
        let tree = tree_of(100);
        let queries = vec![Rect::xy(0, 300, 0, 100)];
        let spans: Vec<QuerySpan> = vec![(0, 1)];
        let mut batch = BatchVisibility::new(0);
        batch.begin_batch();
        let mut out = Vec::new();
        batch.resolve(&tree, &queries, &spans, 0, &mut out);
        let full = sorted(out);
        assert_eq!(full.len(), 100);
        // Second batch, different (narrower) query list, same tree epoch.
        let queries2 = vec![Rect::xy(0, 0, 0, 100)];
        batch.begin_batch();
        let mut out2 = Vec::new();
        batch.resolve(&tree, &queries2, &spans, 0, &mut out2);
        let mut scalar_out = Vec::new();
        ScalarVisibility::default().resolve(&tree, &queries2, &spans, 0, &mut scalar_out);
        assert_eq!(sorted(out2), sorted(scalar_out));
    }

    #[test]
    fn config_env_parsing() {
        // Builder form only — env mutation is process-global and the test
        // harness runs tests concurrently.
        assert_eq!(VisibilityConfig::default().kind, VisibilityKind::Scalar);
        assert_eq!(VisibilityConfig::batch().kind, VisibilityKind::Batch);
        assert_eq!(VisibilityConfig::batch().batch_min, DEFAULT_BATCH_MIN);
        assert_eq!(VisibilityConfig::batch().batch_min(0).batch_min, 0);
        assert_eq!(VisibilityConfig::scalar().build().name(), "scalar");
        assert_eq!(VisibilityConfig::batch().build().name(), "batch");
    }
}
