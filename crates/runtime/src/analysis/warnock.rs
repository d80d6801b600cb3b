//! Warnock's algorithm: equivalence sets with monotonic refinement (§6).
//!
//! The state is a set of **equivalence sets** — `(region, history)` pairs
//! with the invariant that *every* operation in the history is relevant to
//! *every* point of the region (`dom(eqset) ⊆ dom(entry)` for all entries).
//! Equivalence sets are pairwise disjoint and always cover the root region.
//!
//! When a launch names a region `R` that straddles an equivalence set, the
//! set is **refined** — split into `∩R` and `\R` halves (Fig 9, line 11) —
//! and refinement is *monotonic*: sets are never merged. The history of
//! refinements forms a search tree that doubles as a BVH (§6.1); a
//! memoized list of constituent sets per named region lets steady-state
//! launches skip the root traversal.
//!
//! Because every history entry covers its whole set, the per-set visibility
//! scan needs **no geometry at all** — that is the payoff over the
//! painter's algorithm. The cost is the superlinear growth in the number of
//! sets at scale, which is exactly what dooms Warnock's initialization in
//! Figs 12–14.
//!
//! Distribution: each refined set migrates to its first user; the
//! refinement tree's inner nodes are immutable once split, so they
//! replicate on demand — but *discovery* of brand-new regions must traverse
//! from the root, whose authority lives on node 0.
//!
//! The whole refinement tree for one `(root, field)` — including its memo
//! and replication cache — is one shard; nothing an analysis does ever
//! crosses shards.

use crate::analysis::{group_reqs_by_shard, ChargeSet, ReqOutcome, ShardKey, ShardedState};
use crate::engine::{CoherenceEngine, GcSweep, ShardCtx, StateSize};
use crate::plan::{CopyRange, MaterializePlan, ReduceRange, Source};
use crate::task::{TaskId, TaskLaunch};
use viz_geometry::{
    AlgebraStats, FxHashMap, FxHashSet, IndexSpace, InternConfig, SpaceAlgebra, SpaceId,
};
use viz_region::{Privilege, RegionId};
use viz_sim::{NodeId, Op};

/// One operation recorded in an equivalence set's history. The domain is
/// implicit: it covers the whole set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct EqEntry {
    pub task: TaskId,
    pub req: u32,
    pub privilege: Privilege,
}

/// Scan an equivalence set's history (newest first, no geometry): produces
/// dependences and the per-set slice of the materialization plan.
///
/// Invariant exploited: commits reset the history on a write, so a history
/// is `[write?] ++ (reads | reduces)*` — everything in it is visible.
pub(crate) fn scan_eq_history(
    hist: &[EqEntry],
    set_domain: &IndexSpace,
    privilege: Privilege,
    deps: &mut Vec<TaskId>,
    plan: &mut MaterializePlan,
) {
    let want_values = privilege.needs_current_values();
    let mut base: Option<&EqEntry> = None;
    for e in hist.iter().rev() {
        if e.privilege.interferes(privilege) {
            deps.push(e.task);
        }
        match e.privilege {
            Privilege::ReadWrite => {
                debug_assert!(
                    base.is_none(),
                    "second write below a write: broken invariant"
                );
                base = Some(e);
            }
            Privilege::Reduce(op) => {
                if want_values {
                    plan.reductions.push(ReduceRange {
                        task: e.task,
                        req: e.req,
                        redop: op,
                        domain: set_domain.clone(),
                    });
                }
            }
            Privilege::Read => {}
        }
    }
    if want_values {
        plan.copies.push(CopyRange {
            source: match base {
                Some(e) => Source::Task(e.task, e.req),
                None => Source::Initial,
            },
            domain: set_domain.clone(),
        });
    }
}

/// A node in the refinement tree: an equivalence set that is either live
/// (leaf, holds a history) or refined (inner, holds its two halves). The
/// domain is an interned handle into the shard's [`SpaceAlgebra`] — sibling
/// sets produced by the same partition share storage, and the overlap /
/// containment tests the traversal runs against it are memoized.
struct EqNode {
    domain: SpaceId,
    owner: NodeId,
    kind: EqKind,
}

enum EqKind {
    Leaf { hist: Vec<EqEntry> },
    Inner { children: Vec<u32> },
}

/// Per-(root, field) refinement tree — one shard of Warnock's state.
struct FieldTree {
    nodes: Vec<EqNode>,
    root: u32,
    /// Memoized constituent sets per named region (§6.1): node indices that
    /// were leaves when memoized; lookups descend from them, which stays
    /// correct because refinement only splits.
    memo: FxHashMap<RegionId, Vec<u32>>,
    live_leaves: usize,
    /// Inner tree nodes already replicated at a given machine node.
    replicated: FxHashSet<(u32, NodeId)>,
    /// Per-shard interner + memoized set algebra for every domain the tree
    /// touches (set domains, refinement splits, traversal predicates).
    alg: SpaceAlgebra,
    /// Interned handle per named target region, so steady-state launches
    /// skip re-hashing the region's domain.
    target_ids: FxHashMap<RegionId, SpaceId>,
    /// Algebra counters at the last profile report (deltas are emitted per
    /// `analyze_shard`).
    last_stats: AlgebraStats,
}

impl FieldTree {
    fn new(domain: &IndexSpace, intern: InternConfig) -> Self {
        let mut alg = SpaceAlgebra::new(intern);
        let root_domain = alg.intern(domain);
        FieldTree {
            nodes: vec![EqNode {
                domain: root_domain,
                owner: 0,
                kind: EqKind::Leaf { hist: Vec::new() },
            }],
            root: 0,
            memo: FxHashMap::default(),
            live_leaves: 1,
            replicated: FxHashSet::default(),
            alg,
            target_ids: FxHashMap::default(),
            last_stats: AlgebraStats::default(),
        }
    }
}

/// Warnock's algorithm ("Warnock" / `oldeqcr` in the figures).
pub struct Warnock {
    shards: ShardedState<FieldTree>,
    memoize: bool,
    intern: InternConfig,
    coarsen: bool,
}

impl Warnock {
    pub fn new() -> Self {
        Self::with_intern(crate::config::env_intern())
    }

    /// As [`Warnock::new`] with an explicit interning configuration.
    pub fn with_intern(intern: InternConfig) -> Self {
        Warnock {
            shards: ShardedState::new(),
            memoize: true,
            intern,
            coarsen: false,
        }
    }

    /// Disable the constituent-set memoization of §6.1 (every launch
    /// traverses from the tree root) — ablation A2.
    pub fn without_memoization() -> Self {
        Warnock {
            memoize: false,
            ..Self::new()
        }
    }
}

impl Default for Warnock {
    fn default() -> Self {
        Self::new()
    }
}

impl CoherenceEngine for Warnock {
    fn name(&self) -> &'static str {
        "warnock"
    }

    fn prepare(&mut self, launch: &TaskLaunch, ctx: &ShardCtx<'_>) -> Vec<(ShardKey, Vec<u32>)> {
        let groups = group_reqs_by_shard(launch, ctx.forest);
        for (key, _) in &groups {
            self.shards.get_or_insert_with(*key, || {
                FieldTree::new(ctx.forest.domain(key.0), self.intern)
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
        let mut tree = self.shards.lock(key);
        let mut outcomes: Vec<ReqOutcome> = Vec::with_capacity(reqs.len());
        let mut commits: Vec<(Vec<u32>, EqEntry)> = Vec::with_capacity(reqs.len());

        for &ri in reqs {
            let req = &launch.reqs[ri as usize];
            let mut out = ReqOutcome {
                req: ri,
                ..ReqOutcome::default()
            };
            let target = match tree.target_ids.get(&req.region) {
                Some(&id) => id,
                None => {
                    let id = tree.alg.intern(ctx.forest.domain(req.region));
                    tree.target_ids.insert(req.region, id);
                    id
                }
            };

            // ---- Discovery: find the starting nodes (memo hit) or
            // traverse from the tree root (memo miss).
            out.scan_log.op(origin, Op::Memo);
            let starts = match tree.memo.get(&req.region) {
                Some(nodes) if self.memoize => nodes.clone(),
                _ => vec![tree.root],
            };

            // ---- Descend to the live leaves overlapping the target,
            // refining straddlers (Fig 9, `refine`).
            let mut relevant: Vec<u32> = Vec::new();
            let mut stack = starts;
            let mut traversal_tests = 0usize;
            let mut refined = 0usize;
            let mut to_replicate = 0usize;
            let mut refine_charges = ChargeSet::new();
            while let Some(n) = stack.pop() {
                traversal_tests += 1;
                let dom = tree.nodes[n as usize].domain;
                let rects = tree.alg.space(dom).rect_count();
                let overlap = tree.alg.overlaps(dom, target);
                // Each traversal step tests the target against this node's
                // (possibly heavily fragmented) domain.
                out.scan_log.op(
                    origin,
                    Op::GeomOp {
                        rects: rects.min(64),
                    },
                );
                if !overlap {
                    continue;
                }
                let is_inner = matches!(tree.nodes[n as usize].kind, EqKind::Inner { .. });
                if is_inner {
                    // Replication on demand of immutable inner nodes: the
                    // descriptors this traversal needs and has not yet
                    // cached are fetched in one batched request below.
                    if tree.replicated.insert((n, origin)) {
                        to_replicate += 1;
                    }
                    if let EqKind::Inner { children } = &tree.nodes[n as usize].kind {
                        stack.extend(children.iter().copied());
                    }
                    continue;
                }
                // Leaf: contained or straddling?
                let contained = tree.alg.contains(target, dom);
                if contained {
                    relevant.push(n);
                    continue;
                }
                // Refine: split into ∩target and \target (both nonempty
                // here since the leaf overlaps but is not contained).
                let inside = tree.alg.intersect(dom, target);
                let outside = tree.alg.subtract(dom, target);
                let (hist, old_owner) = {
                    let node = &tree.nodes[n as usize];
                    let EqKind::Leaf { hist } = &node.kind else {
                        unreachable!()
                    };
                    (hist.clone(), node.owner)
                };
                let inside_idx = tree.nodes.len() as u32;
                tree.nodes.push(EqNode {
                    domain: inside,
                    // Migrates to its first user: the node where the task
                    // that named this region executes (Legion moves the
                    // equivalence set metadata to the mapped node, not the
                    // node running the analysis).
                    owner: launch.node,
                    kind: EqKind::Leaf { hist: hist.clone() },
                });
                let outside_idx = tree.nodes.len() as u32;
                tree.nodes.push(EqNode {
                    domain: outside,
                    owner: old_owner,
                    kind: EqKind::Leaf { hist },
                });
                tree.nodes[n as usize].kind = EqKind::Inner {
                    children: vec![inside_idx, outside_idx],
                };
                tree.live_leaves += 1;
                // Refinement happens at the owner of the split set; the
                // round trips for one launch are issued concurrently.
                for op in [
                    Op::EqSetRefine,
                    Op::EqSetCreate,
                    Op::EqSetCreate,
                    Op::GeomOp { rects: 2 },
                ] {
                    refine_charges.add(old_owner, op);
                }
                refined += 1;
                relevant.push(inside_idx);
            }
            refine_charges.flush_into(&mut out.scan_log, origin);
            viz_profile::instant(viz_profile::EventKind::BvhTraversal {
                nodes: traversal_tests as u64,
            });
            if refined > 0 {
                viz_profile::instant(viz_profile::EventKind::EqSetRefined {
                    count: refined as u64,
                });
                viz_profile::instant(viz_profile::EventKind::EqSetCreated {
                    count: 2 * refined as u64,
                });
            }
            if to_replicate > 0 {
                // One batched fetch: the authoritative tree lives on node
                // 0, which must build and ship the descriptors.
                out.scan_log.request(
                    origin,
                    0,
                    96,
                    64 * to_replicate as u64,
                    &[Op::Replicate {
                        nodes: to_replicate,
                    }],
                );
            }

            // Memoize the (now exact) constituent sets.
            tree.memo.insert(req.region, relevant.clone());

            // ---- Materialize + dependences per constituent set, charged
            // at each set's owner (batched per owner).
            let mut deps = Vec::new();
            let mut plan = if req.privilege.needs_current_values() {
                MaterializePlan::default()
            } else {
                let Privilege::Reduce(op) = req.privilege else {
                    unreachable!()
                };
                MaterializePlan::identity(op)
            };
            let mut charges = ChargeSet::new();
            let mut entries_scanned = 0usize;
            for n in &relevant {
                let node = &tree.nodes[*n as usize];
                let EqKind::Leaf { hist } = &node.kind else {
                    unreachable!("relevant nodes are leaves")
                };
                scan_eq_history(
                    hist,
                    tree.alg.space(node.domain),
                    req.privilege,
                    &mut deps,
                    &mut plan,
                );
                entries_scanned += hist.len();
                charges.add(node.owner, Op::SetTouch);
                charges.add(
                    node.owner,
                    Op::HistScan {
                        entries: hist.len(),
                    },
                );
            }
            charges.flush_into(&mut out.scan_log, origin);
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
            outcomes.push(out);

            commits.push((
                relevant,
                EqEntry {
                    task: launch.id,
                    req: ri,
                    privilege: req.privilege,
                },
            ));
        }

        // ---- Commit (Fig 9): append to each constituent set; a write
        // clears the prior history, keeping histories precise. A
        // requirement whose scan found no sets (empty target) commits
        // nothing — the loop body simply never runs, there is no state
        // lookup left to panic on. A set another requirement of this SAME
        // launch refined after this one's scan is now an inner node: the
        // entry commits to its current leaves instead (their domains are
        // subsets of the refined set, so the entry stays relevant to every
        // point — dropping it would lose the access entirely).
        for (out, (relevant, entry)) in outcomes.iter_mut().zip(commits) {
            let mut stack = relevant;
            while let Some(n) = stack.pop() {
                if let EqKind::Inner { children } = &tree.nodes[n as usize].kind {
                    stack.extend(children.iter().copied());
                    continue;
                }
                let node = &mut tree.nodes[n as usize];
                let EqKind::Leaf { hist } = &mut node.kind else {
                    unreachable!("node is leaf or inner")
                };
                if entry.privilege.is_write() {
                    hist.clear();
                }
                hist.push(entry.clone());
                // One-way commit notification; the append is handled by the
                // owner's message service. A mutating commit migrates the
                // set to the task's node.
                out.commit_log.send(origin, node.owner, 64);
                if entry.privilege.is_mutating() {
                    node.owner = launch.node;
                }
            }
        }
        let stats = tree.alg.stats();
        let delta = stats.delta_since(&tree.last_stats);
        if delta.hits + delta.misses + delta.fast_hits > 0 {
            viz_profile::instant(viz_profile::EventKind::AlgebraCache {
                hits: delta.hits + delta.fast_hits,
                misses: delta.misses,
            });
        }
        tree.last_stats = stats;
        outcomes
    }

    /// Warnock's refinement is monotonic — without coarsening the whole
    /// tree stays reachable from the root and there is nothing to reclaim,
    /// so the sweep is a no-op unless [`set_coarsening`]
    /// (CoherenceEngine::set_coarsening) enabled the inverse operation.
    ///
    /// Coarsening merges sibling leaves whose states *re-converged*: every
    /// child of an inner node is a leaf with an identical history and
    /// owner (the common cause is a write covering the parent's whole
    /// domain, which reset each child to the same single entry). The
    /// parent — whose domain is by construction the union of its
    /// children's — becomes a leaf with that history, and the children are
    /// compacted away. Dependences and plan coverage are unchanged
    /// (duplicate deps are deduped and same-source copies merged
    /// downstream); charge counts shrink, which is the point — and the
    /// reason coarsening is excluded from the byte-differential.
    fn collect(&mut self, _floor: TaskId) -> GcSweep {
        let mut sweep = GcSweep::default();
        if !self.coarsen {
            return sweep;
        }
        for (_, t) in self.shards.sweep_mut() {
            // ---- Phase 1: bottom-up merge. Children always have larger
            // indices than their parent, so one reverse index scan sees a
            // merged child (now a leaf) before its own parent examines it —
            // cascades complete in a single pass.
            let n = t.nodes.len();
            let mut dead = vec![false; n];
            let mut merged_into: Vec<u32> = (0..n as u32).collect();
            let mut merges = 0usize;
            for i in (0..n).rev() {
                let children = match &t.nodes[i].kind {
                    EqKind::Inner { children } => children.clone(),
                    EqKind::Leaf { .. } => continue,
                };
                let merge = {
                    let first = &t.nodes[children[0] as usize];
                    let EqKind::Leaf { hist: h0 } = &first.kind else {
                        continue;
                    };
                    let owner = first.owner;
                    children
                        .iter()
                        .all(|c| {
                            let node = &t.nodes[*c as usize];
                            node.owner == owner
                                && matches!(&node.kind, EqKind::Leaf { hist } if hist == h0)
                        })
                        .then(|| (h0.clone(), owner))
                };
                let Some((hist, owner)) = merge else { continue };
                sweep.history_entries += hist.len() * (children.len() - 1);
                sweep.equivalence_sets += children.len() - 1;
                t.live_leaves -= children.len() - 1;
                for c in &children {
                    dead[*c as usize] = true;
                    merged_into[*c as usize] = i as u32;
                }
                t.nodes[i].kind = EqKind::Leaf { hist };
                t.nodes[i].owner = owner;
                merges += 1;
            }
            if merges == 0 {
                continue;
            }
            sweep.coarsen_merges += merges;

            // ---- Phase 2: compact the merged-away children out of the
            // node table and renumber every reference.
            let mut remap = vec![u32::MAX; n];
            let mut next = 0u32;
            for (i, d) in dead.iter().enumerate() {
                if !*d {
                    remap[i] = next;
                    next += 1;
                }
            }
            sweep.index_nodes += n - next as usize;
            // A dead node resolves to the (transitively) merged ancestor
            // that absorbed it — memo entries keep descending correctly
            // because the ancestor's domain contains the dead leaf's.
            let resolve = |mut i: u32| -> u32 {
                while dead[i as usize] {
                    i = merged_into[i as usize];
                }
                remap[i as usize]
            };
            let mut idx = 0;
            t.nodes.retain(|_| {
                let keep = !dead[idx];
                idx += 1;
                keep
            });
            t.root = remap[t.root as usize];
            for node in &mut t.nodes {
                if let EqKind::Inner { children } = &mut node.kind {
                    for c in children.iter_mut() {
                        // Dead nodes were children of *merged* parents,
                        // which are leaves now — surviving inner nodes
                        // reference live children only.
                        debug_assert!(!dead[*c as usize]);
                        *c = remap[*c as usize];
                    }
                }
            }
            for list in t.memo.values_mut() {
                for v in list.iter_mut() {
                    *v = resolve(*v);
                }
                let mut seen = FxHashSet::default();
                list.retain(|v| seen.insert(*v));
            }
            // Replication cache: drop pairs for compacted nodes and for
            // merged parents (now leaves — only inner descriptors are ever
            // replicated; if a parent re-refines it is fetched afresh).
            let old = std::mem::take(&mut t.replicated);
            for (node, origin) in old {
                if !dead[node as usize] {
                    let new = remap[node as usize];
                    if matches!(t.nodes[new as usize].kind, EqKind::Inner { .. }) {
                        t.replicated.insert((new, origin));
                        continue;
                    }
                }
                sweep.memo_entries += 1;
            }
        }
        sweep
    }

    fn set_coarsening(&mut self, on: bool) {
        self.coarsen = on;
    }

    fn state_size(&self) -> StateSize {
        let mut size = StateSize::default();
        for (_, t) in self.shards.iter() {
            size.equivalence_sets += t.live_leaves;
            size.index_nodes += t.nodes.len();
            size.memo_entries += t.memo.values().map(Vec::len).sum::<usize>();
            for n in &t.nodes {
                if let EqKind::Leaf { hist } = &n.kind {
                    size.history_entries += hist.len();
                }
            }
            let s = t.alg.stats();
            size.interned_spaces += s.interned;
            size.algebra_cache_entries += s.cache_entries;
            size.algebra_hits += s.hits + s.fast_hits;
            size.algebra_misses += s.misses;
        }
        size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnalysisCtx;
    use crate::plan::AnalysisResult;
    use crate::sharding::ShardMap;
    use crate::task::RegionRequirement;
    use viz_region::{FieldId, RedOpRegistry, RegionForest};
    use viz_sim::Machine;

    struct Fixture {
        forest: RegionForest,
        field: FieldId,
        machine: Machine,
        shards: ShardMap,
        eng: Warnock,
        next: u32,
    }

    fn fixture_with(build: impl FnOnce(&mut RegionForest, RegionId)) -> (Fixture, RegionId) {
        let mut forest = RegionForest::new();
        let n = forest.create_root("N", IndexSpace::span(0, 29));
        let field = forest.add_field(n, "up");
        build(&mut forest, n);
        (
            Fixture {
                forest,
                field,
                machine: Machine::new(1),
                shards: ShardMap::new(1, false),
                eng: Warnock::new(),
                next: 0,
            },
            n,
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

    /// Fig 10's refinement cascade: the primary pieces refine the root into
    /// three sets; ghost accesses refine further; repeating the loop adds
    /// no new sets.
    #[test]
    fn fig10_refinement_then_steady_state() {
        let (mut fx, n) = fixture_with(|f, n| {
            f.create_partition(
                n,
                "P",
                vec![
                    IndexSpace::span(0, 9),
                    IndexSpace::span(10, 19),
                    IndexSpace::span(20, 29),
                ],
            );
            f.create_partition(
                n,
                "G",
                vec![
                    IndexSpace::from_points([10, 11, 20].map(viz_geometry::Point::p1)),
                    IndexSpace::from_points([8, 9, 20, 21].map(viz_geometry::Point::p1)),
                    IndexSpace::from_points([9, 18, 19].map(viz_geometry::Point::p1)),
                ],
            );
        });
        let p = fx.forest.partitions_of(n)[0];
        let g = fx.forest.partitions_of(n)[1];
        let sum = Privilege::Reduce(RedOpRegistry::SUM);

        // t0-t2: the primary writes refine N into the three pieces.
        for i in 0..3 {
            fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
        }
        assert_eq!(fx.eng.state_size().equivalence_sets, 3);
        // t3-t5: ghost reductions split piece interiors from halo cells.
        for i in 0..3 {
            fx.launch(fx.forest.subregion(g, i), sum);
        }
        let after_first_iter = fx.eng.state_size().equivalence_sets;
        assert!(
            after_first_iter > 3,
            "ghost aliasing must refine further: {after_first_iter}"
        );
        // Subsequent iterations: "no further refinements are needed".
        for _ in 0..3 {
            for i in 0..3 {
                fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
            }
            for i in 0..3 {
                fx.launch(fx.forest.subregion(g, i), sum);
            }
        }
        assert_eq!(
            fx.eng.state_size().equivalence_sets,
            after_first_iter,
            "Warnock's sets are stable after the partitions are discovered"
        );
    }

    #[test]
    fn dependences_match_paper_example() {
        let (mut fx, n) = fixture_with(|f, n| {
            f.create_partition(
                n,
                "P",
                vec![
                    IndexSpace::span(0, 9),
                    IndexSpace::span(10, 19),
                    IndexSpace::span(20, 29),
                ],
            );
            f.create_partition(
                n,
                "G",
                vec![
                    IndexSpace::from_points([10, 11, 20].map(viz_geometry::Point::p1)),
                    IndexSpace::from_points([8, 9, 20, 21].map(viz_geometry::Point::p1)),
                    IndexSpace::from_points([9, 18, 19].map(viz_geometry::Point::p1)),
                ],
            );
        });
        let p = fx.forest.partitions_of(n)[0];
        let g = fx.forest.partitions_of(n)[1];
        let sum = Privilege::Reduce(RedOpRegistry::SUM);
        for i in 0..3 {
            fx.launch(fx.forest.subregion(p, i), Privilege::ReadWrite);
        }
        let r3 = fx.launch(fx.forest.subregion(g, 0), sum);
        assert_eq!(r3.deps, vec![TaskId(1), TaskId(2)]);
        let r4 = fx.launch(fx.forest.subregion(g, 1), sum);
        assert_eq!(r4.deps, vec![TaskId(0), TaskId(2)]);
        let r5 = fx.launch(fx.forest.subregion(g, 2), sum);
        assert_eq!(r5.deps, vec![TaskId(0), TaskId(1)]);
        // Second loop entry: t6 = rw P[0] depends on the ghost reducers
        // overlapping P[0] (t4 on 8,9 and t5 on 9) plus its old write t0.
        let r6 = fx.launch(fx.forest.subregion(p, 0), Privilege::ReadWrite);
        assert_eq!(r6.deps, vec![TaskId(0), TaskId(4), TaskId(5)]);
    }

    #[test]
    fn write_resets_histories() {
        let (mut fx, n) = fixture_with(|_, _| {});
        fx.launch(n, Privilege::ReadWrite);
        fx.launch(n, Privilege::Read);
        fx.launch(n, Privilege::Read);
        assert_eq!(fx.eng.state_size().history_entries, 3);
        fx.launch(n, Privilege::ReadWrite);
        assert_eq!(
            fx.eng.state_size().history_entries,
            1,
            "the write cleared the prior history (Fig 9 lines 30-31)"
        );
    }

    #[test]
    fn plan_covers_target_exactly() {
        let (mut fx, n) = fixture_with(|f, n| {
            f.create_equal_partition_1d(n, "P", 3);
        });
        let p = fx.forest.partitions_of(n)[0];
        // Write only piece 0; read the root: base must be piece-0's write
        // plus Initial for the rest.
        fx.launch(fx.forest.subregion(p, 0), Privilege::ReadWrite);
        let r = fx.launch(n, Privilege::Read);
        let total: u64 = r.plans[0].copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 30, "copies cover the whole root");
        let from_init: u64 = r.plans[0]
            .copies
            .iter()
            .filter(|c| c.source == Source::Initial)
            .map(|c| c.domain.volume())
            .sum();
        assert_eq!(from_init, 20);
    }

    #[test]
    fn memoization_survives_refinement() {
        let (mut fx, n) = fixture_with(|f, n| {
            f.create_equal_partition_1d(n, "P", 2);
        });
        let p = fx.forest.partitions_of(n)[0];
        let p0 = fx.forest.subregion(p, 0);
        // Touch the root (memoizes [root set]); then refine through P; then
        // the root again — its memo must resolve through the refined tree.
        fx.launch(n, Privilege::ReadWrite);
        fx.launch(p0, Privilege::ReadWrite);
        let r = fx.launch(n, Privilege::Read);
        let total: u64 = r.plans[0].copies.iter().map(|c| c.domain.volume()).sum();
        assert_eq!(total, 30);
        assert_eq!(r.deps.len(), 2, "depends on both prior writes");
    }

    /// Regression (commit path): a requirement whose scan finds *no*
    /// relevant sets — here an empty region — must commit as a no-op. The
    /// seed committed through `self.trees.get_mut(&key).unwrap()` keyed
    /// off state the scan was assumed to have created.
    #[test]
    fn commit_with_no_relevant_sets_is_a_noop() {
        let (mut fx, n) = fixture_with(|f, n| {
            f.create_partition(n, "E", vec![IndexSpace::empty(), IndexSpace::span(0, 29)]);
        });
        let e = fx.forest.partitions_of(n)[0];
        let empty = fx.forest.subregion(e, 0);
        let r = fx.launch(empty, Privilege::ReadWrite);
        assert!(r.deps.is_empty());
        assert!(r.plans[0].copies.is_empty(), "nothing to materialize");
        // The root set is untouched, and a follow-up full write still works.
        assert_eq!(fx.eng.state_size().equivalence_sets, 1);
        let r2 = fx.launch(n, Privilege::ReadWrite);
        assert!(r2.deps.is_empty(), "empty-region write left no history");
    }
}
