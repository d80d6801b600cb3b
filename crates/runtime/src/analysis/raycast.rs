//! Ray casting: Warnock plus dominating writes (§7).
//!
//! Two changes relative to Warnock's algorithm:
//!
//! 1. **Dominating writes** (Fig 11): materializing with `read-write`
//!    privilege replaces every equivalence set covered by the region with a
//!    *single* fresh set whose history is just the write — occluded sets
//!    are pruned instead of accumulating. Equivalence sets therefore
//!    *coalesce* as well as refine.
//! 2. Because coalescing destroys the refinement tree, the BVH is instead
//!    derived from a **disjoint-and-complete partition** of the root
//!    (chosen by usage): each equivalence set is anchored under the
//!    partition child containing it, and constituent-set discovery is a
//!    region-tree query — purely local, no root traversal. "In rare cases
//!    when no subtree with disjoint-complete partitions exists, the runtime
//!    creates a K-d tree" — implemented here as an incrementally
//!    maintained [`DynamicBvh`] over the root's index space.
//!
//! The result: fewer live sets than Warnock (writes reset the
//! decomposition every iteration), no global discovery traffic, and the
//! near-flat scaling of the `RayCast` curves in Figs 12–17.
//!
//! Everything for one `(root, field)` — sets, spatial index, anchor memo,
//! usage counters — is one shard; nothing an analysis does crosses shards.

use crate::analysis::visibility::{QuerySpan, VisibilityBackend, VisibilityConfig};
use crate::analysis::warnock::{scan_eq_history, EqEntry};
use crate::analysis::{group_reqs_by_shard, ChargeSet, ReqOutcome, ShardKey, ShardedState};
use crate::engine::{CoherenceEngine, GcSweep, ShardCtx, StateSize};
use crate::plan::MaterializePlan;
use crate::task::TaskLaunch;
use viz_geometry::{
    AlgebraStats, Bvh, DynamicBvh, FxHashMap, InternConfig, Rect, SpaceAlgebra, SpaceId,
};
use viz_region::{PartitionId, Privilege, RegionForest, RegionId};
use viz_sim::{ChargeLog, NodeId, Op};

/// A live equivalence set. The domain is a handle into the shard's
/// [`SpaceAlgebra`] interner: sets refined from the same launch targets
/// share storage, and the refine/overlap algebra is memoized per shard.
struct RaySet {
    domain: SpaceId,
    hist: Vec<EqEntry>,
    owner: NodeId,
    live: bool,
    /// When a *refinement split* kills this set, the two halves that
    /// replaced it — so a commit deferred by an earlier requirement of the
    /// same launch can chase the split instead of vanishing. Stays empty
    /// for sets occluded by a dominating write (those are never the target
    /// of a pending same-launch commit: interfering requirements of one
    /// launch must be disjoint, commuting ones never occlude).
    replaced_by: Vec<u32>,
    /// Anchor positions whose buckets hold this set (anchored index only;
    /// stays empty on the dynamic-BVH path). Removal walks exactly these buckets
    /// instead of sweeping every bucket in the shard — the per-launch cost
    /// of a kill is the set's own anchor count, not the live-set count.
    anchors: Vec<u32>,
}

/// Spatial index over the live sets.
enum SetIndex {
    /// Anchored under the children of a disjoint-and-complete partition:
    /// `buckets[i]` holds the set ids overlapping child `i` (a set spanning
    /// several anchors appears in each; queries deduplicate).
    Anchored {
        partition: PartitionId,
        buckets: Vec<Vec<u32>>,
        /// Static BVH over the anchor-children bounding boxes: placing a
        /// new set resolves the overlapping anchors in O(log anchors +
        /// hits) instead of sweeping every anchor. Exact (leaf rects are
        /// tested), so membership is identical to the linear scan it
        /// replaces.
        lookup: Bvh,
        /// Partition child → anchor position, so anchor resolution from a
        /// region-tree query is a hash lookup, not a `position()` sweep of
        /// the child list.
        child_pos: FxHashMap<RegionId, u32>,
    },
    /// Fallback when no such partition exists (§7.1): an incrementally
    /// maintained BVH — set churn is absorbed by leaf insert/remove with
    /// ancestor refits, rebuilding only on degradation.
    DynamicBvh { tree: DynamicBvh },
}

/// Reusable backward-scan buffers, one struct per shard. Every vector here
/// used to be allocated fresh per requirement (or per shard batch); holding
/// them in the shard means the scan stops allocating once each has grown to
/// the workload's high-water mark.
#[derive(Default)]
struct ScanScratch {
    /// Flat list of every requirement's query rects for the current shard
    /// batch — the batched backend resolves all of them in one sweep (and
    /// it is exactly the query buffer a GPU dispatch would upload).
    queries: Vec<Rect>,
    /// One `(first rect, rect count)` span into `queries` per requirement.
    spans: Vec<QuerySpan>,
    /// Raw index hits for one requirement, before sort + dedup.
    hits: Vec<u64>,
    /// Deduplicated candidate set ids for one requirement.
    candidates: Vec<u32>,
    /// Anchor positions the current requirement resolved to.
    req_anchors: Vec<u32>,
    /// Sets killed by refinement within the current requirement.
    killed: Vec<u32>,
}

/// Per-(root, field) ray-casting state — one shard.
struct FieldState {
    sets: Vec<RaySet>,
    index: SetIndex,
    /// Memoized overlapping-anchor lists per named region.
    anchor_memo: FxHashMap<RegionId, Vec<u32>>,
    live: usize,
    /// Launches observed per disjoint-and-complete partition — the usage
    /// heuristic of §7.1 that drives anchor shifting.
    usage: FxHashMap<PartitionId, u64>,
    shifts: u64,
    /// Interned-space storage and memoized set algebra for this shard.
    alg: SpaceAlgebra,
    /// Cumulative candidate ids produced by the spatial index across every
    /// requirement scanned against this shard (post-dedup). Flatness under
    /// weak scaling is *measured* from this, not inferred.
    candidates_visited: u64,
    /// Cumulative live sets actually overlap-tested by the backward scans
    /// (the sweep work a launch pays; tracks requirement overlap, not the
    /// live-set count).
    sets_swept: u64,
    /// Candidate-resolution backend for the dynamic-BVH path (scalar walk or
    /// flattened batched sweep — see [`crate::analysis::visibility`]).
    vis: Box<dyn VisibilityBackend>,
    scratch: ScanScratch,
    last_stats: AlgebraStats,
    last_refits: u64,
    last_rebuilds: u64,
}

impl FieldState {
    fn new_set(&mut self, domain: SpaceId, hist: Vec<EqEntry>, owner: NodeId) -> u32 {
        let id = self.sets.len() as u32;
        self.sets.push(RaySet {
            domain,
            hist,
            owner,
            live: true,
            replaced_by: Vec::new(),
            anchors: Vec::new(),
        });
        self.live += 1;
        id
    }

    fn kill(&mut self, id: u32) {
        if self.sets[id as usize].live {
            self.sets[id as usize].live = false;
            self.live -= 1;
        }
    }
}

/// The ray-casting engine ("RayCast" / `neweqcr` in the figures).
pub struct RayCast {
    shards: ShardedState<FieldState>,
    force_dynamic_bvh: bool,
    use_anchor_memo: bool,
    intern: InternConfig,
    vis: VisibilityConfig,
}

impl RayCast {
    pub fn new() -> Self {
        Self::with_intern(crate::config::env_intern())
    }

    /// Build with an explicit interning configuration; the visibility
    /// backend still defaults from the environment.
    pub fn with_intern(intern: InternConfig) -> Self {
        Self::with_config(intern, crate::config::env_visibility())
    }

    /// Build with both the interning and the candidate-resolution
    /// configuration pinned (the differential tests compare backends in
    /// one process without touching the environment).
    pub fn with_config(intern: InternConfig, vis: VisibilityConfig) -> Self {
        RayCast {
            shards: ShardedState::new(),
            force_dynamic_bvh: false,
            use_anchor_memo: true,
            intern,
            vis,
        }
    }

    /// Always use the dynamic-BVH fallback, even when a disjoint-and-complete
    /// partition exists (ablation A3).
    pub fn force_dynamic_bvh() -> Self {
        RayCast {
            force_dynamic_bvh: true,
            ..Self::new()
        }
    }

    /// Disable the overlapping-anchor memo: every launch recomputes its
    /// anchor list from the region tree. The reference for the memo's
    /// correctness property tests.
    pub fn without_anchor_memo() -> Self {
        RayCast {
            use_anchor_memo: false,
            ..Self::new()
        }
    }

    /// Choose the BVH for a root: the first disjoint-and-complete partition
    /// (the heuristic "based on which partitions tasks are using" — our
    /// benchmark programs create the primary partition first, which is the
    /// one their tasks write through), else the dynamic-BVH fallback (the
    /// paper's K-d tree).
    fn init_state(
        forest: &RegionForest,
        root: RegionId,
        force_dynamic_bvh: bool,
        intern: InternConfig,
        vis: VisibilityConfig,
    ) -> FieldState {
        let mut alg = SpaceAlgebra::new(intern);
        let root_domain = forest.domain(root);
        let dc = if force_dynamic_bvh {
            Vec::new()
        } else {
            forest.disjoint_complete_partitions(root)
        };
        match dc.first() {
            Some(p) => {
                let children = forest.children(*p);
                let mut sets = Vec::with_capacity(children.len());
                let mut buckets = Vec::with_capacity(children.len());
                let mut anchor_bboxes = Vec::with_capacity(children.len());
                let mut child_pos =
                    FxHashMap::with_capacity_and_hasher(children.len(), Default::default());
                // Initial sets: one per anchor (they cover the root since
                // the partition is complete).
                for (i, c) in children.iter().enumerate() {
                    let domain = alg.intern(forest.domain(*c));
                    anchor_bboxes.push(alg.bbox(domain));
                    sets.push(RaySet {
                        domain,
                        hist: Vec::new(),
                        owner: 0,
                        live: true,
                        replaced_by: Vec::new(),
                        anchors: vec![i as u32],
                    });
                    buckets.push(vec![i as u32]);
                    child_pos.insert(*c, i as u32);
                }
                let live = sets.len();
                let lookup = Self::anchor_lookup(&anchor_bboxes);
                FieldState {
                    sets,
                    index: SetIndex::Anchored {
                        partition: *p,
                        buckets,
                        lookup,
                        child_pos,
                    },
                    anchor_memo: FxHashMap::default(),
                    live,
                    usage: FxHashMap::default(),
                    shifts: 0,
                    alg,
                    candidates_visited: 0,
                    sets_swept: 0,
                    vis: vis.build(),
                    scratch: ScanScratch::default(),
                    last_stats: AlgebraStats::default(),
                    last_refits: 0,
                    last_rebuilds: 0,
                }
            }
            None => {
                let mut tree = DynamicBvh::new();
                tree.insert(0, root_domain.bbox());
                let domain = alg.intern(root_domain);
                FieldState {
                    sets: vec![RaySet {
                        domain,
                        hist: Vec::new(),
                        owner: 0,
                        live: true,
                        replaced_by: Vec::new(),
                        anchors: Vec::new(),
                    }],
                    index: SetIndex::DynamicBvh { tree },
                    anchor_memo: FxHashMap::default(),
                    live: 1,
                    usage: FxHashMap::default(),
                    shifts: 0,
                    alg,
                    candidates_visited: 0,
                    sets_swept: 0,
                    vis: vis.build(),
                    scratch: ScanScratch::default(),
                    last_stats: AlgebraStats::default(),
                    last_refits: 0,
                    last_rebuilds: 0,
                }
            }
        }
    }

    /// The anchor-placement index: a static BVH over the anchor bounding
    /// boxes. Queries are exact (leaf rects are overlap-tested), so the
    /// anchors reported for a set's bbox are precisely those the linear
    /// `anchor_bboxes` sweep would report.
    fn anchor_lookup(anchor_bboxes: &[Rect]) -> Bvh {
        Bvh::build(
            anchor_bboxes
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u32, *r))
                .collect(),
        )
    }
}

impl RayCast {
    /// Times any field state re-anchored to a different partition (§7.1:
    /// "If the application switches to using a different subtree with
    /// disjoint-complete partitions, the runtime shifts the equivalence
    /// sets to the new subtree").
    pub fn shift_count(&self) -> u64 {
        self.shards.iter().map(|(_, f)| f.shifts).sum()
    }

    /// The disjoint-and-complete partition on `region`'s path from the
    /// root, if any — the subtree this launch "votes" for.
    fn home_partition(forest: &RegionForest, region: RegionId) -> Option<PartitionId> {
        let mut cur = region;
        let mut best = None;
        while let Some(q) = forest.parent_partition(cur) {
            if forest.is_disjoint(q) && forest.is_complete(q) {
                best = Some(q);
            }
            cur = forest.parent_region(q);
        }
        best
    }

    /// Track usage and re-anchor when another disjoint-complete partition
    /// clearly dominates the current one.
    fn maybe_shift(
        state: &mut FieldState,
        forest: &RegionForest,
        home: Option<PartitionId>,
        log: &mut ChargeLog,
        origin: NodeId,
    ) {
        let Some(home) = home else { return };
        *state.usage.entry(home).or_insert(0) += 1;
        let SetIndex::Anchored { partition, .. } = &state.index else {
            return;
        };
        let current = *partition;
        if home == current {
            return;
        }
        let home_uses = state.usage[&home];
        let current_uses = state.usage.get(&current).copied().unwrap_or(0);
        if home_uses < 16 || home_uses < 4 * current_uses.max(1) {
            return;
        }
        // Shift: rebuild the anchor buckets under the new partition and
        // re-bucket every live set. This wholesale pass is the one place
        // that still walks every live set — shifts are rare (usage must
        // 4x-dominate) and rebuild the lookup structures anyway.
        let children = forest.children(home).to_vec();
        let anchor_bboxes: Vec<viz_geometry::Rect> =
            children.iter().map(|c| forest.domain(*c).bbox()).collect();
        let child_pos: FxHashMap<RegionId, u32> = children
            .iter()
            .enumerate()
            .map(|(i, c)| (*c, i as u32))
            .collect();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); children.len()];
        let mut moved = 0usize;
        for (id, set) in state.sets.iter_mut().enumerate() {
            set.anchors.clear();
            if !set.live {
                continue;
            }
            moved += 1;
            let bb = state.alg.bbox(set.domain);
            for (i, abb) in anchor_bboxes.iter().enumerate() {
                if abb.overlaps(&bb) {
                    buckets[i].push(id as u32);
                    set.anchors.push(i as u32);
                }
            }
        }
        log.op(origin, Op::GeomOp { rects: moved });
        for _ in 0..moved {
            log.op(origin, Op::SetTouch);
        }
        let lookup = Self::anchor_lookup(&anchor_bboxes);
        state.index = SetIndex::Anchored {
            partition: home,
            buckets,
            lookup,
            child_pos,
        };
        // Refresh the anchor memo instead of clearing it wholesale: a
        // memoized list is stale only if the region's overlapping-anchor
        // set actually differs under the new partition. Recompute each
        // list once (priced as a geometry query), keep the entries that
        // come out unchanged and drop the rest. Keeping an entry is sound
        // precisely because lookups interpret the stored positions against
        // the *current* partition, and the kept value equals the fresh
        // computation against it.
        let memo = std::mem::take(&mut state.anchor_memo);
        let SetIndex::Anchored { child_pos, .. } = &state.index else {
            unreachable!("index was just re-anchored")
        };
        for (region, old) in memo {
            let overlapping = forest.overlapping_children(home, forest.domain(region));
            log.op(
                origin,
                Op::GeomOp {
                    rects: overlapping.len().max(1),
                },
            );
            let fresh: Vec<u32> = overlapping.into_iter().map(|c| child_pos[&c]).collect();
            if fresh == old {
                state.anchor_memo.insert(region, fresh);
            }
        }
        state.usage.clear();
        state.shifts += 1;
    }
}

impl Default for RayCast {
    fn default() -> Self {
        Self::new()
    }
}

impl CoherenceEngine for RayCast {
    fn name(&self) -> &'static str {
        "raycast"
    }

    fn prepare(&mut self, launch: &TaskLaunch, ctx: &ShardCtx<'_>) -> Vec<(ShardKey, Vec<u32>)> {
        let groups = group_reqs_by_shard(launch, ctx.forest);
        for (key, _) in &groups {
            let force_dynamic_bvh = self.force_dynamic_bvh;
            let intern = self.intern;
            let vis = self.vis;
            self.shards.get_or_insert_with(*key, || {
                Self::init_state(ctx.forest, key.0, force_dynamic_bvh, intern, vis)
            });
        }
        groups
    }

    fn analyze_shard(
        &self,
        key: ShardKey,
        launch: &TaskLaunch,
        reqs: &[u32],
        ctx: &ShardCtx<'_>,
    ) -> Vec<ReqOutcome> {
        let origin = ctx.shards.origin(launch.node);
        let mut shard = self.shards.lock(key);
        // Split the ShardRef borrow once so disjoint fields (index vs memo
        // vs sets) can be borrowed independently below.
        let state: &mut FieldState = &mut shard;
        let mut outcomes: Vec<ReqOutcome> = Vec::with_capacity(reqs.len());
        // Deferred commits: (set ids, entry) per requirement.
        let mut commits: Vec<(Vec<u32>, EqEntry)> = Vec::with_capacity(reqs.len());

        // On the dynamic-BVH path, collect every requirement's query rects up
        // front so the batched backend can resolve the whole shard's
        // candidate set in one sweep (a requirement later in the batch
        // re-resolves against the current tree when an earlier one
        // refined it — see `analysis::visibility`).
        state.scratch.queries.clear();
        state.scratch.spans.clear();
        if matches!(state.index, SetIndex::DynamicBvh { .. }) {
            for &ri in reqs {
                let rects = ctx.forest.domain(launch.reqs[ri as usize].region).rects();
                let start = state.scratch.queries.len() as u32;
                state.scratch.queries.extend_from_slice(rects);
                state.scratch.spans.push((start, rects.len() as u32));
            }
            state.vis.begin_batch();
        }

        for (qk, &ri) in reqs.iter().enumerate() {
            let req = &launch.reqs[ri as usize];
            let mut out = ReqOutcome {
                req: ri,
                ..ReqOutcome::default()
            };
            let target = ctx.forest.domain(req.region).clone();
            let target_id = state.alg.intern(&target);
            if !self.force_dynamic_bvh {
                let home = Self::home_partition(ctx.forest, req.region);
                Self::maybe_shift(state, ctx.forest, home, &mut out.scan_log, origin);
            }

            // ---- Ray casting: find the candidate sets through the index.
            // With anchors this is a (replicated, local) region-tree query;
            // the memoized anchor list makes the steady state O(1).
            // `candidates`/`req_anchors` are shard scratch, moved out for
            // the duration of this requirement (borrow split) and returned
            // below — the scan allocates nothing at steady state.
            let mut candidates = std::mem::take(&mut state.scratch.candidates);
            candidates.clear();
            // The anchor positions this requirement resolved to (used again
            // by the dominating-write commit below).
            let mut req_anchors = std::mem::take(&mut state.scratch.req_anchors);
            req_anchors.clear();
            match &mut state.index {
                SetIndex::Anchored {
                    partition,
                    buckets,
                    child_pos,
                    ..
                } => {
                    let compute = |log: &mut ChargeLog| {
                        let kids = ctx.forest.overlapping_children(*partition, &target);
                        log.op(
                            origin,
                            Op::GeomOp {
                                rects: kids.len().max(1),
                            },
                        );
                        kids.into_iter()
                            .map(|c| child_pos[&c])
                            .collect::<Vec<u32>>()
                    };
                    if self.use_anchor_memo {
                        out.scan_log.op(origin, Op::Memo);
                        match state.anchor_memo.get(&req.region) {
                            Some(a) => req_anchors.extend_from_slice(a),
                            None => {
                                let idx = compute(&mut out.scan_log);
                                req_anchors.extend_from_slice(&idx);
                                state.anchor_memo.insert(req.region, idx);
                            }
                        }
                    } else {
                        req_anchors.extend_from_slice(&compute(&mut out.scan_log));
                    }
                    for a in &req_anchors {
                        candidates.extend(buckets[*a as usize].iter().copied());
                    }
                    // A set spanning several anchors appears in each bucket:
                    // deduplicate so it is scanned (and folded) once.
                    candidates.sort_unstable();
                    candidates.dedup();
                    viz_profile::instant(viz_profile::EventKind::BvhTraversal {
                        nodes: candidates.len() as u64,
                    });
                }
                SetIndex::DynamicBvh { tree } => {
                    let hits = &mut state.scratch.hits;
                    hits.clear();
                    state
                        .vis
                        .resolve(tree, &state.scratch.queries, &state.scratch.spans, qk, hits);
                    hits.sort_unstable();
                    hits.dedup();
                    out.scan_log.op(
                        origin,
                        Op::GeomOp {
                            rects: hits.len().max(1),
                        },
                    );
                    candidates.extend(hits.iter().map(|h| *h as u32));
                    viz_profile::instant(viz_profile::EventKind::DynamicBvhTraversal {
                        nodes: candidates.len() as u64,
                    });
                }
            }
            state.candidates_visited += candidates.len() as u64;

            // ---- Refine straddlers; collect the constituent sets.
            // (`relevant` stays requirement-owned: it moves into `commits`.)
            let mut relevant: Vec<u32> = Vec::new();
            let mut killed = std::mem::take(&mut state.scratch.killed);
            killed.clear();
            let mut tests = 0usize;
            // All remote work for this requirement — refinements, history
            // scans, invalidations — is batched into one concurrent flush
            // (Legion issues these as parallel active messages).
            let mut charges = ChargeSet::new();
            for &c in &candidates {
                if !state.sets[c as usize].live {
                    continue;
                }
                tests += 1;
                let dom = state.sets[c as usize].domain;
                if !state.alg.overlaps(dom, target_id) {
                    continue;
                }
                if state.alg.contains(target_id, dom) {
                    relevant.push(c);
                    continue;
                }
                // Split c into inside/outside halves (the Warnock refine —
                // ray casting still refines on partial overlaps).
                let inside = state.alg.intersect(dom, target_id);
                let outside = state.alg.subtract(dom, target_id);
                let (hist, old_owner) = {
                    let s = &state.sets[c as usize];
                    (s.hist.clone(), s.owner)
                };
                state.kill(c);
                killed.push(c);
                // The inside half migrates to its first user's node.
                let inside_id = state.new_set(inside, hist.clone(), launch.node);
                let outside_id = state.new_set(outside, hist, old_owner);
                state.sets[c as usize].replaced_by = vec![inside_id, outside_id];
                Self::index_replace(
                    &mut state.index,
                    &mut state.sets,
                    &state.alg,
                    c,
                    &[inside_id, outside_id],
                );
                for op in [
                    Op::EqSetRefine,
                    Op::EqSetCreate,
                    Op::EqSetCreate,
                    Op::GeomOp { rects: 2 },
                ] {
                    charges.add(old_owner, op);
                }
                relevant.push(inside_id);
            }
            if !killed.is_empty() {
                Self::index_remove_dead(&mut state.index, &mut state.sets, &killed);
                viz_profile::instant(viz_profile::EventKind::EqSetRefined {
                    count: killed.len() as u64,
                });
                viz_profile::instant(viz_profile::EventKind::EqSetCreated {
                    count: 2 * killed.len() as u64,
                });
            }
            out.scan_log.op(
                origin,
                Op::GeomOp {
                    rects: tests.max(1),
                },
            );
            state.sets_swept += tests as u64;
            viz_profile::instant(viz_profile::EventKind::ScanSweep {
                candidates: candidates.len() as u64,
                swept: tests as u64,
            });

            // ---- Scan histories for dependences + plan.
            let mut deps = Vec::new();
            let mut plan = if req.privilege.needs_current_values() {
                MaterializePlan::default()
            } else {
                let Privilege::Reduce(op) = req.privilege else {
                    unreachable!()
                };
                MaterializePlan::identity(op)
            };
            let mut entries_scanned = 0usize;
            for n in &relevant {
                let s = &state.sets[*n as usize];
                scan_eq_history(
                    &s.hist,
                    state.alg.space(s.domain),
                    req.privilege,
                    &mut deps,
                    &mut plan,
                );
                entries_scanned += s.hist.len();
                charges.add(s.owner, Op::SetTouch);
                charges.add(
                    s.owner,
                    Op::HistScan {
                        entries: s.hist.len(),
                    },
                );
            }
            viz_profile::instant(viz_profile::EventKind::HistoryScan {
                entries: entries_scanned as u64,
            });
            for _ in &deps {
                out.scan_log.op(origin, Op::DepRecord);
            }
            if !req.privilege.needs_current_values() {
                plan.copies.clear();
                plan.reductions.clear();
            }
            out.deps = deps;
            out.plan = plan;

            // ---- Dominating write (Fig 11): one fresh set replaces every
            // constituent set; the occluded sets are pruned.
            let entry = EqEntry {
                task: launch.id,
                req: ri,
                privilege: req.privilege,
            };
            if req.privilege.is_write() {
                for n in &relevant {
                    let owner = state.sets[*n as usize].owner;
                    state.kill(*n);
                    if owner != origin {
                        charges.add(owner, Op::EqSetRefine);
                    }
                }
                // One fresh set per anchor the write covers, keeping the
                // index aligned with the disjoint partition (a write within
                // one anchor — the common case — creates exactly one set,
                // as in Fig 11).
                let pieces: Vec<SpaceId> = match &state.index {
                    SetIndex::Anchored { partition, .. } => {
                        // Borrow the child list instead of cloning it: the
                        // clone was O(anchors) per write requirement — the
                        // single largest per-launch term at weak scale.
                        let kids = ctx.forest.children(*partition);
                        let alg = &mut state.alg;
                        let mut out = Vec::with_capacity(req_anchors.len());
                        for a in &req_anchors {
                            let adom = alg.intern(ctx.forest.domain(kids[*a as usize]));
                            let piece = alg.intersect(target_id, adom);
                            if !alg.is_empty_space(piece) {
                                out.push(piece);
                            }
                        }
                        out
                    }
                    SetIndex::DynamicBvh { .. } => vec![target_id],
                };
                // The occluded constituent sets coalesce into the fresh
                // dominating-write sets.
                viz_profile::instant(viz_profile::EventKind::EqSetCoalesced {
                    count: relevant.len() as u64,
                });
                let mut new_ids = Vec::with_capacity(pieces.len());
                for piece in pieces {
                    let id = state.new_set(piece, Vec::new(), launch.node);
                    out.scan_log.op(origin, Op::EqSetCreate);
                    new_ids.push(id);
                }
                viz_profile::instant(viz_profile::EventKind::EqSetCreated {
                    count: new_ids.len() as u64,
                });
                Self::index_replace(
                    &mut state.index,
                    &mut state.sets,
                    &state.alg,
                    u32::MAX,
                    &new_ids,
                );
                Self::index_remove_dead(&mut state.index, &mut state.sets, &relevant);
                commits.push((new_ids, entry));
            } else {
                commits.push((relevant, entry));
            }
            charges.flush_into(&mut out.scan_log, origin);
            outcomes.push(out);
            // Return the scratch buffers (capacity intact) to the shard.
            state.scratch.candidates = candidates;
            state.scratch.req_anchors = req_anchors;
            state.scratch.killed = killed;
        }

        // ---- Commit: append to each requirement's target sets. The sets
        // live in the shard this analysis already holds; a requirement that
        // resolved to no sets (empty target) commits nothing — there is no
        // state lookup left to fail. A set another requirement of this SAME
        // launch split after this one's scan forwards the commit to its
        // replacement halves (dropping it would lose the access entirely);
        // sets occluded by a dominating write stay dropped.
        for (out, (ids, entry)) in outcomes.iter_mut().zip(commits) {
            let mut stack = ids;
            while let Some(n) = stack.pop() {
                let s = &mut state.sets[n as usize];
                if !s.live {
                    stack.extend(s.replaced_by.iter().copied());
                    continue;
                }
                if entry.privilege.is_write() && !s.hist.is_empty() {
                    s.hist.clear();
                }
                s.hist.push(entry.clone());
                // One-way commit notification; the append is handled by the
                // owner's message service. A mutating commit migrates the
                // set to the task's node (Legion moves equivalence-set
                // metadata to its active users).
                out.commit_log.send(origin, s.owner, 64);
                if entry.privilege.is_mutating() {
                    s.owner = launch.node;
                }
            }
        }
        let delta = state.alg.stats().delta_since(&state.last_stats);
        if delta.hits + delta.fast_hits + delta.misses > 0 {
            viz_profile::instant(viz_profile::EventKind::AlgebraCache {
                hits: delta.hits + delta.fast_hits,
                misses: delta.misses,
            });
        }
        state.last_stats = state.alg.stats();
        if let SetIndex::DynamicBvh { tree } = &state.index {
            let (refits, rebuilds) = (tree.refits(), tree.rebuilds());
            let (dr, db) = (refits - state.last_refits, rebuilds - state.last_rebuilds);
            if dr + db > 0 {
                viz_profile::instant(viz_profile::EventKind::BvhMaintain {
                    refits: dr,
                    rebuilds: db,
                });
            }
            state.last_refits = refits;
            state.last_rebuilds = rebuilds;
        }
        outcomes
    }

    /// Drop the dead sets that refinement and dominating writes leave
    /// behind. Compaction is **order-preserving**: live sets keep their
    /// relative order (and new sets still get larger ids than every
    /// retained one), so the id-sorted candidate lists visit sets in the
    /// same sequence as an uncollected engine — which is what keeps deps,
    /// plans, and charges byte-identical. Reusing freed ids via a free
    /// list would break exactly that ordering.
    ///
    /// `replaced_by` chains only forward commits *within* one launch's
    /// `analyze_shard`, so between launches the dead sets (and their cloned
    /// histories) are unreachable garbage.
    fn collect(&mut self, _floor: crate::task::TaskId) -> GcSweep {
        let mut sweep = GcSweep::default();
        for (_, s) in self.shards.sweep_mut() {
            if s.live == s.sets.len() {
                continue;
            }
            let mut remap = vec![u32::MAX; s.sets.len()];
            let mut next = 0u32;
            for (i, set) in s.sets.iter().enumerate() {
                if set.live {
                    remap[i] = next;
                    next += 1;
                } else {
                    sweep.equivalence_sets += 1;
                    sweep.history_entries += set.hist.len();
                }
            }
            s.sets.retain(|set| set.live);
            for set in &mut s.sets {
                set.replaced_by.clear();
            }
            match &mut s.index {
                SetIndex::Anchored { buckets, .. } => {
                    // Buckets hold only live ids (`index_remove_dead` runs
                    // after every kill) — just renumber them.
                    for bucket in buckets.iter_mut() {
                        for id in bucket.iter_mut() {
                            debug_assert_ne!(remap[*id as usize], u32::MAX);
                            *id = remap[*id as usize];
                        }
                    }
                }
                SetIndex::DynamicBvh { tree } => {
                    // Rebuild over the renumbered live sets: the hit set of
                    // a query depends only on the leaves, not the tree
                    // shape, so a fresh tree answers identically.
                    let mut fresh = DynamicBvh::new();
                    for (i, set) in s.sets.iter().enumerate() {
                        fresh.insert(i as u64, s.alg.bbox(set.domain));
                    }
                    *tree = fresh;
                    s.last_refits = tree.refits();
                    s.last_rebuilds = tree.rebuilds();
                }
            }
        }
        sweep
    }

    // Coarsening is native here: a dominating write already replaces every
    // covered set with one fresh set per anchor (Fig 11), so the engine
    // ignores `set_coarsening` — there is no re-converged sibling state a
    // sweep could find that the next write wave would not coalesce anyway.

    fn state_size(&self) -> StateSize {
        let mut size = StateSize::default();
        for (_, s) in self.shards.iter() {
            size.equivalence_sets += s.live;
            size.index_nodes += match &s.index {
                SetIndex::Anchored { buckets, .. } => buckets.len(),
                SetIndex::DynamicBvh { tree } => tree.len(),
            };
            size.memo_entries += s.anchor_memo.values().map(Vec::len).sum::<usize>();
            for set in &s.sets {
                if set.live {
                    size.history_entries += set.hist.len();
                }
            }
            let a = s.alg.stats();
            size.interned_spaces += a.interned;
            size.algebra_cache_entries += a.cache_entries;
            size.algebra_hits += a.hits + a.fast_hits;
            size.algebra_misses += a.misses;
            size.candidates_visited += s.candidates_visited;
            size.sets_swept += s.sets_swept;
        }
        size
    }
}

impl RayCast {
    /// Register new sets in the index: for the anchored index, each set is
    /// placed in every anchor bucket its bounding box overlaps (queries
    /// filter exactly and deduplicate). The overlapping anchors come from
    /// the static anchor-lookup BVH — O(log anchors + hits) per set, with
    /// membership identical to a linear sweep of `anchor_bboxes` — and are
    /// recorded on the set so its eventual removal touches only those
    /// buckets.
    fn index_replace(
        index: &mut SetIndex,
        sets: &mut [RaySet],
        alg: &SpaceAlgebra,
        _old: u32,
        new_ids: &[u32],
    ) {
        match index {
            SetIndex::Anchored {
                buckets, lookup, ..
            } => {
                for id in new_ids {
                    let bb = alg.bbox(sets[*id as usize].domain);
                    let anchors = &mut sets[*id as usize].anchors;
                    anchors.clear();
                    lookup.query(&bb, anchors);
                    for a in anchors.iter() {
                        buckets[*a as usize].push(*id);
                    }
                }
            }
            SetIndex::DynamicBvh { tree } => {
                for id in new_ids {
                    tree.insert(*id as u64, alg.bbox(sets[*id as usize].domain));
                }
            }
        }
    }

    /// Unregister dead sets. Each dead set's recorded anchor list names
    /// exactly the buckets holding it, so the cost is the dead sets' own
    /// footprint — the wholesale `retain` over every bucket this replaces
    /// was O(live sets) per kill batch. `swap_remove` is safe because
    /// queries sort + dedup their candidate lists, so bucket-internal
    /// order is unobservable.
    fn index_remove_dead(index: &mut SetIndex, sets: &mut [RaySet], dead: &[u32]) {
        match index {
            SetIndex::Anchored { buckets, .. } => {
                for d in dead {
                    let anchors = std::mem::take(&mut sets[*d as usize].anchors);
                    for a in &anchors {
                        let bucket = &mut buckets[*a as usize];
                        if let Some(pos) = bucket.iter().position(|m| m == d) {
                            bucket.swap_remove(pos);
                        }
                    }
                }
            }
            SetIndex::DynamicBvh { tree } => {
                for d in dead {
                    tree.remove(*d as u64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisCtx;
    use crate::plan::AnalysisResult;
    use crate::sharding::ShardMap;
    use crate::task::{RegionRequirement, TaskId};
    use proptest::prelude::*;
    use viz_geometry::IndexSpace;
    use viz_region::{FieldId, RedOpRegistry};
    use viz_sim::Machine;

    struct Fixture {
        forest: RegionForest,
        field: FieldId,
        machine: Machine,
        shards: ShardMap,
        eng: RayCast,
        next: u32,
    }

    fn paper_fixture() -> (Fixture, RegionId, PartitionId, PartitionId) {
        let mut forest = RegionForest::new();
        let n = forest.create_root("N", IndexSpace::span(0, 29));
        let field = forest.add_field(n, "up");
        let p = forest.create_partition(
            n,
            "P",
            vec![
                IndexSpace::span(0, 9),
                IndexSpace::span(10, 19),
                IndexSpace::span(20, 29),
            ],
        );
        let g = forest.create_partition(
            n,
            "G",
            vec![
                IndexSpace::from_points([10, 11, 20].map(viz_geometry::Point::p1)),
                IndexSpace::from_points([8, 9, 20, 21].map(viz_geometry::Point::p1)),
                IndexSpace::from_points([9, 18, 19].map(viz_geometry::Point::p1)),
            ],
        );
        (
            Fixture {
                forest,
                field,
                machine: Machine::new(1),
                shards: ShardMap::new(1, false),
                eng: RayCast::new(),
                next: 0,
            },
            n,
            p,
            g,
        )
    }

    impl Fixture {
        fn launch(&mut self, region: RegionId, privilege: Privilege) -> AnalysisResult {
            let id = self.next;
            self.next += 1;
            let launch = TaskLaunch {
                id: TaskId(id),
                name: format!("t{id}"),
                node: 0,
                reqs: vec![RegionRequirement::new(region, self.field, privilege)],
                duration_ns: 0,
            };
            let mut ctx = AnalysisCtx {
                forest: &self.forest,
                machine: &mut self.machine,
                shards: &self.shards,
            };
            self.eng.analyze(&launch, &mut ctx)
        }
    }

    #[test]
    fn dependences_match_paper_example() {
        let (mut fx, _n, p, g) = paper_fixture();
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        for i in 0..3 {
            let r = fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
            assert!(r.deps.is_empty());
        }
        let r3 = fx.launch(fx.forest.subregion(g, 0), sum);
        assert_eq!(r3.deps, vec![TaskId(1), TaskId(2)]);
        let r4 = fx.launch(fx.forest.subregion(g, 1), sum);
        assert_eq!(r4.deps, vec![TaskId(0), TaskId(2)]);
        let r5 = fx.launch(fx.forest.subregion(g, 2), sum);
        assert_eq!(r5.deps, vec![TaskId(0), TaskId(1)]);
        let r6 = fx.launch(fx.forest.subregion(p, 0), Privilege::ReadWrite);
        assert_eq!(r6.deps, vec![TaskId(0), TaskId(4), TaskId(5)]);
    }

    /// §7: "The write privilege causes any refinements and their histories
    /// ... to be discarded, reducing the number of equivalence sets."
    #[test]
    fn dominating_writes_coalesce_sets_each_iteration() {
        let (mut fx, _n, p, g) = paper_fixture();
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let mut after_writes = Vec::new();
        let mut after_ghosts = Vec::new();
        for _ in 0..4 {
            for i in 0..3 {
                fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
            }
            after_writes.push(fx.eng.state_size().equivalence_sets);
            for i in 0..3 {
                fx.launch(fx.forest.subregion(g, i), sum);
            }
            after_ghosts.push(fx.eng.state_size().equivalence_sets);
        }
        // After the write wave the decomposition returns to the 3 pieces.
        assert!(
            after_writes.iter().all(|s| *s == 3),
            "writes must coalesce back to the primary pieces: {after_writes:?}"
        );
        // Ghost refinement re-fragments, but to a stable bounded count.
        assert_eq!(after_ghosts[1], after_ghosts[3]);
        assert!(after_ghosts[0] > 3);
    }

    #[test]
    fn raycast_keeps_fewer_sets_than_warnock() {
        use crate::analysis::warnock::Warnock;
        let (mut fx, _n, p, g) = paper_fixture();
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        let mut weng = Warnock::new();
        let mut wmachine = Machine::new(1);
        let mut next = 0u32;
        for _ in 0..4 {
            for phase in 0..2 {
                for i in 0..3 {
                    let (part, privilege) = if phase == 0 {
                        (p, Privilege::ReadWrite)
                    } else {
                        (g, sum)
                    };
                    let region = fx.forest.subregion(part, i);
                    let launch = TaskLaunch {
                        id: TaskId(next),
                        name: String::new(),
                        node: 0,
                        reqs: vec![RegionRequirement::new(region, fx.field, privilege)],
                        duration_ns: 0,
                    };
                    next += 1;
                    let mut ctx = AnalysisCtx {
                        forest: &fx.forest,
                        machine: &mut wmachine,
                        shards: &fx.shards,
                    };
                    weng.analyze(&launch, &mut ctx);
                    let mut ctx = AnalysisCtx {
                        forest: &fx.forest,
                        machine: &mut fx.machine,
                        shards: &fx.shards,
                    };
                    fx.eng.analyze(&launch, &mut ctx);
                    fx.next = next;
                }
            }
        }
        let ray = fx.eng.state_size().equivalence_sets;
        let war = weng.state_size().equivalence_sets;
        assert!(
            ray <= war,
            "ray casting must maintain fewer sets (ray {ray} vs warnock {war})"
        );
    }

    #[test]
    fn kd_fallback_when_no_disjoint_complete_partition() {
        let mut forest = RegionForest::new();
        let n = forest.create_root("N", IndexSpace::span(0, 19));
        let field = forest.add_field(n, "v");
        // Only an aliased, incomplete partition exists.
        forest.create_partition(
            n,
            "G",
            vec![IndexSpace::span(0, 12), IndexSpace::span(8, 15)],
        );
        let g = forest.partitions_of(n)[0];
        let mut fx = Fixture {
            forest,
            field,
            machine: Machine::new(1),
            shards: ShardMap::new(1, false),
            eng: RayCast::new(),
            next: 0,
        };
        let g0 = fx.forest.subregion(g, 0);
        let g1 = fx.forest.subregion(g, 1);
        let r0 = fx.launch(g0, Privilege::ReadWrite);
        assert!(r0.deps.is_empty());
        let r1 = fx.launch(g1, Privilege::ReadWrite);
        assert_eq!(r1.deps, vec![TaskId(0)], "overlap through the K-d index");
        let r2 = fx.launch(n, Privilege::Read);
        assert_eq!(r2.deps, vec![TaskId(0), TaskId(1)]);
        let total: u64 = r2.plans[0].copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn plan_reads_across_pieces() {
        let (mut fx, n, p, _) = paper_fixture();
        for i in 0..3 {
            fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
        }
        let r = fx.launch(n, Privilege::Read);
        assert_eq!(r.deps.len(), 3);
        let total: u64 = r.plans[0].copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 30);
        assert!(r.plans[0]
            .copies
            .iter()
            .all(|c| c.source != crate::plan::Source::Initial));
    }

    /// Regression (commit path): a requirement that resolves to *no*
    /// equivalence sets — here a write to an empty region — must commit as
    /// a no-op. The seed committed through
    /// `self.fields.get_mut(&key).unwrap()` under the assumption the scan
    /// left something to commit to.
    #[test]
    fn commit_with_no_relevant_sets_is_a_noop() {
        let (mut fx, n, _p, _g) = paper_fixture();
        let e = fx
            .forest
            .create_partition(n, "E", vec![IndexSpace::empty()]);
        let empty = fx.forest.subregion(e, 0);
        let r = fx.launch(empty, Privilege::ReadWrite);
        assert!(r.deps.is_empty());
        assert!(r.plans[0].copies.is_empty(), "nothing to materialize");
        assert_eq!(fx.eng.state_size().equivalence_sets, 3);
        let r2 = fx.launch(n, Privilege::Read);
        assert!(r2.deps.is_empty(), "empty-region write left no history");
    }

    /// Regression (§7.1 shifting): re-anchoring used to clear the whole
    /// anchor memo; it must only invalidate regions whose overlapping-
    /// anchor sets actually changed under the new partition.
    #[test]
    fn shift_keeps_memo_entries_whose_anchors_are_unchanged() {
        let (mut fx, _n, p, _g) = paper_fixture();
        // A second disjoint-and-complete partition: Q0 = [0,14], Q1 = [15,29].
        // P0 = [0,9] overlaps exactly {Q0}: its memo entry [0] is valid
        // under both partitions. P2 = [20,29] maps to anchor 2 under P but
        // anchor 1 under Q: stale.
        let n = fx.forest.root_of(fx.forest.subregion(p, 0));
        let q = fx.forest.create_partition(
            n,
            "Q",
            vec![IndexSpace::span(0, 14), IndexSpace::span(15, 29)],
        );
        for i in 0..3 {
            fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
        }
        assert_eq!(fx.eng.shift_count(), 0);
        // Drive usage of Q until the shift heuristic fires (≥16 uses and
        // ≥4× the current partition's).
        let q0 = fx.forest.subregion(q, 0);
        for _ in 0..16 {
            fx.launch(q0, Privilege::Read);
        }
        assert_eq!(fx.eng.shift_count(), 1, "re-anchored to Q");
        // The memo holds Q0 (just looked up) *and* the still-valid P0
        // entry; P1 and P2 were invalidated. The seed's wholesale clear
        // leaves only Q0.
        assert_eq!(fx.eng.state_size().memo_entries, 2);
        // Post-shift answers stay correct: reading P2 sees the P-wave
        // write, through a freshly recomputed anchor list.
        let r = fx.launch(fx.forest.subregion(p, 2), Privilege::Read);
        assert_eq!(r.deps, vec![TaskId(2)]);
    }

    /// One step of a random workload over the paper fixture plus a second
    /// disjoint-complete partition (so anchor shifts can trigger).
    #[derive(Clone, Debug)]
    struct RandOp {
        part: u8,
        child: u8,
        privilege: u8,
    }

    fn rand_op() -> impl Strategy<Value = RandOp> {
        (0u8..4, 0u8..3, 0u8..3).prop_map(|(part, child, privilege)| RandOp {
            part,
            child,
            privilege,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The anchor memo is a pure cache: across random refine sequences
        /// — including usage-driven anchor shifts — the memoized engine
        /// must produce exactly the dependences and plans of an engine
        /// that recomputes every anchor lookup from the region tree.
        #[test]
        fn anchor_memo_agrees_with_unmemoized(
            ops in prop::collection::vec(rand_op(), 1..60),
        ) {
            let (mut fx, n, p, g) = paper_fixture();
            let q = fx.forest.create_partition(
                n,
                "Q",
                vec![IndexSpace::span(0, 14), IndexSpace::span(15, 29)],
            );
            let mut bare = RayCast::without_anchor_memo();
            let mut bare_machine = Machine::new(1);
            for (i, op) in ops.iter().enumerate() {
                let region = match op.part {
                    0 => fx.forest.subregion(p, (op.child % 3) as usize),
                    1 => fx.forest.subregion(g, (op.child % 3) as usize),
                    // Bias toward Q so shift heuristics actually fire.
                    _ => fx.forest.subregion(q, (op.child % 2) as usize),
                };
                let privilege = match op.privilege {
                    0 => Privilege::ReadWrite,
                    1 => Privilege::Read,
                    _ => Privilege::Reduce(RedOpRegistry::SUM),
                };
                let launch = TaskLaunch {
                    id: TaskId(i as u32),
                    name: String::new(),
                    node: 0,
                    reqs: vec![RegionRequirement::new(region, fx.field, privilege)],
                    duration_ns: 0,
                };
                let mut ctx = AnalysisCtx {
                    forest: &fx.forest,
                    machine: &mut fx.machine,
                    shards: &fx.shards,
                };
                let memoized = fx.eng.analyze(&launch, &mut ctx);
                let mut ctx = AnalysisCtx {
                    forest: &fx.forest,
                    machine: &mut bare_machine,
                    shards: &fx.shards,
                };
                let reference = bare.analyze(&launch, &mut ctx);
                prop_assert_eq!(&memoized.deps, &reference.deps, "launch {}", i);
                prop_assert_eq!(&memoized.plans, &reference.plans, "launch {}", i);
            }
            prop_assert_eq!(
                fx.eng.state_size().equivalence_sets,
                bare.state_size().equivalence_sets
            );
        }
    }
}
