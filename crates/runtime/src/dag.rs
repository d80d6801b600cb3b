//! The dependence DAG produced by the analysis (§3.2).
//!
//! Task ids are assigned in program order, so every edge points from a task
//! to a strictly earlier task and program order is already a topological
//! order. Dependence analysis "relaxes the sequential order to a partial
//! (parallel) order such that the coherence of reads is still guaranteed."
//!
//! Precedence queries (`must_follow`) are answered from DePa-style
//! order-maintenance tags assigned at push time instead of a graph walk:
//!
//! * **Tags** — each task carries `(depth, min_anc)`: its longest-path depth
//!   and the smallest ancestor id. Both are exact O(1) negative filters.
//! * **Ancestor bitsets** — `anc(j) = ∪_{p ∈ deps(j)} anc(p) ∪ {p}`, one bit
//!   per earlier task inside a sliding tag window. Positive queries are one
//!   word lookup. Rows are ragged: row `j` only covers ids in
//!   `[row_base(j), j)` where `row_base` is the 64-aligned maximum of the GC
//!   watermark and `j - window` at push time, so tag memory is bounded by
//!   the unretired window rather than quadratic in program length.
//!
//! Queries about ids below a row's window fall back to the exact
//! predecessor walk (predecessor lists are O(edges) and are never pruned);
//! in debug builds every tag answer is cross-checked against the walk.

use crate::task::TaskId;

/// Default width (in task ids) of the ancestor-bitset tag window when no GC
/// watermark bounds it. 512 bytes of tag per in-window launch.
pub const DEFAULT_TAG_WINDOW: u32 = 4096;

/// One ragged ancestor-bitset row: bit `i - base` ⇔ task `i` is an ancestor
/// of the row's task. `base` is 64-aligned so predecessor rows union with
/// whole-word ORs.
#[derive(Clone, Debug, Default)]
struct AncRow {
    base: u32,
    words: Vec<u64>,
}

/// Dependence DAG over recorded launches.
#[derive(Clone, Debug)]
pub struct TaskDag {
    /// `preds[t]` = tasks `t` must wait for (sorted, deduplicated).
    preds: Vec<Vec<TaskId>>,
    /// Incrementally maintained inverse of `preds` (see `successors`).
    succs: Vec<Vec<TaskId>>,
    /// Longest-path depth of each task (0 for roots).
    depth: Vec<u32>,
    /// Smallest ancestor id of each task (`u32::MAX` for roots).
    min_anc: Vec<u32>,
    /// Windowed ancestor bitsets; rows below `floor` are freed.
    anc: Vec<AncRow>,
    /// Max tag-window width in ids.
    window: u32,
    /// GC watermark: ancestor rows for tasks below it have been freed.
    floor: u32,
    /// Live bitset words across all rows (for stats).
    tag_words: usize,
    /// Sum of every `preds` row's length, kept by `push` (the only place
    /// edges are added) so reading it is O(1).
    edges: usize,
}

impl Default for TaskDag {
    fn default() -> Self {
        Self::with_window(DEFAULT_TAG_WINDOW)
    }
}

impl TaskDag {
    pub fn new() -> Self {
        Self::default()
    }

    /// A DAG whose ancestor tags cover at most the last `window` ids.
    pub fn with_window(window: u32) -> Self {
        Self {
            preds: Vec::new(),
            succs: Vec::new(),
            depth: Vec::new(),
            min_anc: Vec::new(),
            anc: Vec::new(),
            window: window.max(64),
            floor: 0,
            tag_words: 0,
            edges: 0,
        }
    }

    /// Append the next task (ids must be added in program order) with its
    /// dependences, assigning its order-maintenance tag incrementally:
    /// O(deps × window/64) with no rebuild of earlier rows.
    pub fn push(&mut self, deps: Vec<TaskId>) -> TaskId {
        let id = TaskId(self.preds.len() as u32);
        debug_assert!(deps.iter().all(|d| *d < id), "dependence on the future");

        // Row covers ids in [base, id); base is 64-aligned so predecessor
        // rows (whose bases are <= ours) union with word-aligned ORs. The
        // floor rounds *up*: a retired predecessor's row is freed, so its
        // ancestors in [floor_down, floor) could never be unioned in — the
        // row must not claim to cover them. The window bound rounds down
        // (covering more is only slack).
        let base = (self.floor.div_ceil(64) * 64).max((id.0.saturating_sub(self.window) / 64) * 64);
        let words = (id.0.saturating_sub(base) as usize).div_ceil(64);
        let mut row = AncRow {
            base,
            words: vec![0u64; words],
        };
        let mut depth = 0u32;
        let mut min_anc = u32::MAX;
        for d in &deps {
            let p = d.0;
            depth = depth.max(self.depth[d.index()] + 1);
            min_anc = min_anc.min(self.min_anc[d.index()]).min(p);
            if p >= base {
                let bit = (p - base) as usize;
                row.words[bit / 64] |= 1 << (bit % 64);
            }
            // Union the predecessor's ancestors. A freed or narrower
            // predecessor row only omits ids below our own base, which this
            // row cannot represent anyway.
            let src = &self.anc[d.index()];
            if src.words.is_empty() || src.base > base {
                debug_assert!(src.words.is_empty() || p < self.floor || src.base <= base);
                continue;
            }
            let shift = ((base - src.base) / 64) as usize;
            if shift >= src.words.len() {
                // The predecessor's row ends at or below our base (`p <=
                // base` — e.g. a dep older than the tag window): every bit
                // it holds is for an id `< p <= base`, which our row cannot
                // represent. Its direct bit (if `p == base`) was already set
                // above, and queries below `base` take the walk fallback.
                debug_assert!(p <= base);
                continue;
            }
            for (w, s) in row.words.iter_mut().zip(src.words[shift..].iter()) {
                *w |= s;
            }
        }
        for d in &deps {
            self.succs[d.index()].push(id);
        }
        self.tag_words += row.words.len();
        self.edges += deps.len();
        self.preds.push(deps);
        self.succs.push(Vec::new());
        self.depth.push(depth);
        self.min_anc.push(min_anc);
        self.anc.push(row);
        id
    }

    pub fn len(&self) -> usize {
        self.preds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        &self.preds[t.index()]
    }

    /// Successor lists. Maintained incrementally by `push`; this is a view,
    /// not a rebuild (see `successors_is_cached` test).
    pub fn successors(&self) -> &[Vec<TaskId>] {
        &self.succs
    }

    /// Is `anc` reachable from `t` through dependence edges (i.e. must `t`
    /// run after `anc`)? Reflexive.
    ///
    /// Answered in O(1) from the `(depth, min_anc)` tags and the windowed
    /// ancestor bitset; falls back to the exact predecessor walk only for
    /// ids below the tag window. Debug builds cross-check every tag answer
    /// against the walk.
    pub fn must_follow(&self, t: TaskId, anc: TaskId) -> bool {
        if t == anc {
            return true;
        }
        if anc > t {
            return false;
        }
        let ti = t.index();
        // DePa tag pruning: both are exact negatives.
        if anc.0 < self.min_anc[ti] || self.depth[anc.index()] >= self.depth[ti] {
            debug_assert!(!self.must_follow_walk(t, anc));
            return false;
        }
        let row = &self.anc[ti];
        if !row.words.is_empty() && anc.0 >= row.base {
            let bit = (anc.0 - row.base) as usize;
            let hit = row.words[bit / 64] >> (bit % 64) & 1 != 0;
            debug_assert_eq!(hit, self.must_follow_walk(t, anc));
            return hit;
        }
        self.must_follow_walk(t, anc)
    }

    /// The pre-tag transitive walk over predecessor lists. Exact for every
    /// pair regardless of the tag window; retained as the debug-assert
    /// oracle and as the fallback below the window.
    pub fn must_follow_walk(&self, t: TaskId, anc: TaskId) -> bool {
        if t == anc {
            return true;
        }
        // Depth-first over predecessors; ids decrease along edges so we can
        // prune anything below `anc`.
        let mut seen = vec![false; self.preds.len()];
        let mut stack = vec![t];
        while let Some(cur) = stack.pop() {
            for d in self.preds(cur) {
                if *d == anc {
                    return true;
                }
                if *d > anc && !seen[d.index()] {
                    seen[d.index()] = true;
                    stack.push(*d);
                }
            }
        }
        false
    }

    /// Free the ancestor-bitset rows of every task below `floor` (the GC
    /// watermark) and bound future rows by it. Predecessor lists, depths and
    /// `min_anc` are kept — they are O(edges)/O(1) per task — so walks about
    /// retired ids stay exact. Returns the number of words freed.
    pub fn retire_to(&mut self, floor: TaskId) -> usize {
        let f = floor.0.min(self.preds.len() as u32);
        if f <= self.floor {
            return 0;
        }
        let mut freed = 0;
        for row in &mut self.anc[self.floor as usize..f as usize] {
            freed += row.words.len();
            row.words = Vec::new();
        }
        self.tag_words -= freed;
        self.floor = f;
        freed
    }

    /// GC watermark last passed to [`retire_to`].
    pub fn retired_floor(&self) -> u32 {
        self.floor
    }

    /// Live ancestor-bitset words (8 bytes each) across all rows.
    pub fn tag_words(&self) -> usize {
        self.tag_words
    }

    /// Total number of edges. O(1): a running count, not a sweep of the
    /// program's predecessor lists.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The length of the longest dependence chain (critical path in tasks).
    pub fn critical_path_len(&self) -> usize {
        self.depth.iter().max().map_or(0, |d| *d as usize + 1)
    }

    /// Partition tasks into "waves" that could run concurrently: a task's
    /// wave is one past the max wave of its predecessors (its tag depth).
    pub fn waves(&self) -> Vec<Vec<TaskId>> {
        let max_wave = self.depth.iter().max().copied().unwrap_or(0) as usize;
        let mut waves = vec![
            Vec::new();
            if self.depth.is_empty() {
                0
            } else {
                max_wave + 1
            }
        ];
        for (i, w) in self.depth.iter().enumerate() {
            waves[*w as usize].push(TaskId(i as u32));
        }
        waves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig 5 dependence structure: three waves of three
    /// independent tasks, each wave depending on all of the previous.
    fn fig5_dag() -> TaskDag {
        let mut dag = TaskDag::new();
        for _ in 0..3 {
            dag.push(vec![]);
        }
        for _ in 3..6 {
            dag.push(vec![TaskId(0), TaskId(1), TaskId(2)]);
        }
        for _ in 6..9 {
            dag.push(vec![TaskId(3), TaskId(4), TaskId(5)]);
        }
        dag
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut dag = TaskDag::new();
        assert_eq!(dag.push(vec![]), TaskId(0));
        assert_eq!(dag.push(vec![TaskId(0)]), TaskId(1));
        assert_eq!(dag.len(), 2);
    }

    #[test]
    fn fig5_waves() {
        let dag = fig5_dag();
        let waves = dag.waves();
        assert_eq!(waves.len(), 3, "t0-2, t3-5, t6-8 run as three waves");
        assert_eq!(waves[0], vec![TaskId(0), TaskId(1), TaskId(2)]);
        assert_eq!(waves[2], vec![TaskId(6), TaskId(7), TaskId(8)]);
        assert_eq!(dag.critical_path_len(), 3);
    }

    #[test]
    fn transitive_reachability() {
        let dag = fig5_dag();
        // t6 depends on t0 only transitively (through t3-5).
        assert!(!dag.preds(TaskId(6)).contains(&TaskId(0)));
        assert!(dag.must_follow(TaskId(6), TaskId(0)));
        assert!(dag.must_follow(TaskId(6), TaskId(6)));
        assert!(!dag.must_follow(TaskId(0), TaskId(6)));
        assert!(!dag.must_follow(TaskId(1), TaskId(0)), "peers unordered");
    }

    #[test]
    fn successors_inverts_preds() {
        let dag = fig5_dag();
        let succs = dag.successors();
        assert_eq!(
            succs[0],
            vec![TaskId(3), TaskId(4), TaskId(5)],
            "t0 feeds all of the second wave"
        );
        assert!(succs[8].is_empty());
        assert_eq!(dag.edge_count(), 18);
    }

    #[test]
    fn edge_count_is_the_sum_of_pred_rows_across_retirement() {
        let mut dag = fig5_dag();
        let sum = |d: &TaskDag| (0..d.len() as u32).map(|t| d.preds(TaskId(t)).len()).sum();
        assert_eq!(dag.edge_count(), sum(&dag));
        dag.retire_to(TaskId(4));
        dag.push(vec![TaskId(6), TaskId(7)]);
        assert_eq!(dag.edge_count(), sum(&dag));
        assert_eq!(dag.edge_count(), 20);
    }

    #[test]
    fn successors_is_cached() {
        // Regression for the old behavior that rebuilt the full adjacency on
        // every call: the view must be the same allocation across calls and
        // stay correct as pushes interleave with queries.
        let mut dag = fig5_dag();
        let p0 = dag.successors().as_ptr();
        let p1 = dag.successors().as_ptr();
        assert_eq!(p0, p1, "successors() must not rebuild per call");
        dag.push(vec![TaskId(8)]);
        let succs = dag.successors();
        assert_eq!(succs[8], vec![TaskId(9)]);
        assert_eq!(succs.len(), 10);
    }

    #[test]
    fn tags_cross_word_boundaries() {
        // 200 tasks in a chain: bit indices span multiple u64 words.
        let mut dag = TaskDag::new();
        dag.push(vec![]);
        for i in 1..200u32 {
            dag.push(vec![TaskId(i - 1)]);
        }
        assert!(dag.must_follow(TaskId(199), TaskId(0)));
        assert!(dag.must_follow(TaskId(199), TaskId(64)));
        assert!(dag.must_follow(TaskId(64), TaskId(63)));
        assert!(!dag.must_follow(TaskId(0), TaskId(199)));
        assert_eq!(dag.critical_path_len(), 200);
    }

    #[test]
    fn narrow_window_falls_back_to_walk() {
        // Window narrower than the chain: queries about ids below each
        // row's base must still be exact via the walk fallback.
        let mut dag = TaskDag::with_window(64);
        dag.push(vec![]);
        for i in 1..300u32 {
            dag.push(vec![TaskId(i - 1)]);
        }
        assert!(dag.must_follow(TaskId(299), TaskId(0)), "below window");
        assert!(dag.must_follow(TaskId(299), TaskId(290)), "in window");
        assert!(!dag.must_follow(TaskId(150), TaskId(151)));
        // Two independent chains: no cross edges at any distance.
        let mut two = TaskDag::with_window(64);
        two.push(vec![]);
        two.push(vec![]);
        for i in 1..150u32 {
            two.push(vec![TaskId(2 * i - 2)]);
            two.push(vec![TaskId(2 * i - 1)]);
        }
        assert!(two.must_follow(TaskId(298), TaskId(0)));
        assert!(!two.must_follow(TaskId(298), TaskId(1)), "other chain");
        assert!(!two.must_follow(TaskId(299), TaskId(0)), "other chain");
    }

    #[test]
    fn dep_reaching_below_window_is_skipped_not_panicked() {
        // Regression: a dependence on a task *older than the tag window*
        // whose own row is non-empty used to slice the predecessor's words
        // out of range. The bits it would contribute are all below our base
        // anyway; queries about them take the walk fallback.
        let mut dag = TaskDag::with_window(64);
        dag.push(vec![]); // t0
        dag.push(vec![TaskId(0)]); // t1: non-empty row at base 0
        for _ in 2..302u32 {
            dag.push(vec![]);
        }
        let t = dag.push(vec![TaskId(1), TaskId(301)]); // row base far above t1's
        assert!(dag.must_follow(t, TaskId(0)), "via walk below the window");
        assert!(dag.must_follow(t, TaskId(1)), "via walk below the window");
        assert!(dag.must_follow(t, TaskId(301)), "via tag in the window");
        assert!(!dag.must_follow(t, TaskId(2)));
    }

    #[test]
    fn retire_frees_tag_rows_but_stays_exact() {
        let mut dag = TaskDag::new();
        dag.push(vec![]);
        for i in 1..128u32 {
            dag.push(vec![TaskId(i - 1)]);
        }
        let before = dag.tag_words();
        assert!(before > 0);
        let freed = dag.retire_to(TaskId(100));
        assert!(freed > 0);
        assert_eq!(dag.tag_words(), before - freed);
        assert_eq!(dag.retired_floor(), 100);
        // Retired rows answer via the walk; retained rows via tags. Both
        // must stay exact, including across the floor.
        assert!(dag.must_follow(TaskId(50), TaskId(0)));
        assert!(dag.must_follow(TaskId(127), TaskId(50)));
        assert!(dag.must_follow(TaskId(127), TaskId(126)));
        assert!(!dag.must_follow(TaskId(50), TaskId(51)));
        // New pushes start their window at the watermark.
        let t = dag.push(vec![TaskId(127)]);
        assert!(dag.must_follow(t, TaskId(0)));
        assert!(dag.must_follow(t, TaskId(127)));
        // Retiring is monotone; re-retiring below the floor is a no-op.
        assert_eq!(dag.retire_to(TaskId(50)), 0);
        assert_eq!(dag.retired_floor(), 100);
    }
}
