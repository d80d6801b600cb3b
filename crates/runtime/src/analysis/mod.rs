//! The three visibility-based coherence engines (paper §5–7) and their
//! shared machinery.

pub mod history;
pub mod paint;
pub mod paint_naive;
pub mod raycast;
pub mod visibility;
pub mod warnock;

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

use viz_geometry::FxHashMap;
use viz_region::{FieldId, RegionForest, RegionId};
use viz_sim::{ChargeLog, Machine, NodeId, Op};

use crate::task::TaskLaunch;

/// The unit of analysis-state independence: all engines key their state by
/// the root region of the requirement's region tree and the field (§5–7 —
/// state on distinct `(root, field)` pairs never interacts). Scans for
/// distinct shards may therefore run concurrently.
pub type ShardKey = (RegionId, FieldId);

/// Group a launch's requirements by shard, preserving the first-touch order
/// of shards and requirement order within each shard.
pub fn group_reqs_by_shard(
    launch: &TaskLaunch,
    forest: &RegionForest,
) -> Vec<(ShardKey, Vec<u32>)> {
    let mut groups: Vec<(ShardKey, Vec<u32>)> = Vec::new();
    let mut index: FxHashMap<ShardKey, usize> = FxHashMap::default();
    for (i, req) in launch.reqs.iter().enumerate() {
        let key = (forest.root_of(req.region), req.field);
        match index.get(&key) {
            Some(&g) => groups[g].1.push(i as u32),
            None => {
                index.insert(key, groups.len());
                groups.push((key, vec![i as u32]));
            }
        }
    }
    groups
}

/// One shard's engine state, accessible from worker threads.
///
/// The driver guarantees at most one worker touches a shard at a time (work
/// for the same shard is queued to the same worker, in launch order); the
/// atomic flag turns a violation of that contract into a panic instead of a
/// data race.
struct ShardCell<S> {
    busy: AtomicBool,
    /// Set on every [`ShardedState::lock`] (and at creation), cleared when
    /// a GC sweep visits the shard — the sweep can then skip shards no
    /// launch has touched since it last ran, instead of walking every
    /// `(root, field)` in the engine.
    dirty: AtomicBool,
    state: UnsafeCell<S>,
}

// SAFETY: access to `state` is serialized by the `busy` flag (enforced in
// `ShardedState::lock`); a shard's state never crosses threads while
// borrowed.
unsafe impl<S: Send> Sync for ShardCell<S> {}

/// Exclusive access to one shard's state, released on drop.
pub struct ShardRef<'a, S> {
    cell: &'a ShardCell<S>,
}

impl<S> Deref for ShardRef<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        // SAFETY: `busy` was claimed in `lock`; no other ShardRef exists.
        unsafe { &*self.cell.state.get() }
    }
}

impl<S> DerefMut for ShardRef<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        // SAFETY: as in `deref`.
        unsafe { &mut *self.cell.state.get() }
    }
}

impl<S> Drop for ShardRef<'_, S> {
    fn drop(&mut self) {
        self.cell.busy.store(false, Ordering::Release);
    }
}

/// Per-`(root, field)` engine state, sharded for concurrent scans.
///
/// Shards are created on the driver thread (`&mut self`, during
/// [`crate::engine::CoherenceEngine::prepare`]) and then accessed from
/// worker threads through [`ShardedState::lock`] (`&self`), one worker per
/// shard at a time.
pub struct ShardedState<S> {
    shards: FxHashMap<ShardKey, Box<ShardCell<S>>>,
    /// Sweep generation counter: every `FULL_SWEEP_PERIOD`-th
    /// [`ShardedState::sweep_mut`] call visits all shards regardless of
    /// dirtiness.
    sweeps: u32,
}

/// Sweeps between forced full passes of [`ShardedState::sweep_mut`]: even
/// a shard never locked again is revisited periodically, so
/// watermark-dependent retirement cannot be deferred indefinitely on idle
/// shards.
pub const FULL_SWEEP_PERIOD: u32 = 16;

impl<S> Default for ShardedState<S> {
    fn default() -> Self {
        ShardedState {
            shards: FxHashMap::default(),
            sweeps: 0,
        }
    }
}

impl<S> ShardedState<S> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Create the shard if missing (driver thread only).
    pub fn get_or_insert_with(&mut self, key: ShardKey, f: impl FnOnce() -> S) -> &mut S {
        let cell = self.shards.entry(key).or_insert_with(|| {
            Box::new(ShardCell {
                busy: AtomicBool::new(false),
                dirty: AtomicBool::new(true),
                state: UnsafeCell::new(f()),
            })
        });
        cell.state.get_mut()
    }

    /// Claim exclusive access to a shard from a worker. Panics if the shard
    /// does not exist or another worker currently holds it — both indicate a
    /// scheduling bug, not a recoverable condition.
    pub fn lock(&self, key: ShardKey) -> ShardRef<'_, S> {
        let cell = self
            .shards
            .get(&key)
            .unwrap_or_else(|| panic!("shard {key:?} was not created during prepare"));
        let was_busy = cell.busy.swap(true, Ordering::Acquire);
        assert!(!was_busy, "shard {key:?} scanned by two workers at once");
        // A locked shard may be mutated: mark it for the next GC sweep.
        cell.dirty.store(true, Ordering::Release);
        ShardRef { cell }
    }

    /// Iterate shard states for a GC sweep: only shards locked (i.e.
    /// scanned, and so possibly mutated) since the previous sweep are
    /// yielded — plus every shard on each [`FULL_SWEEP_PERIOD`]-th call, so
    /// sweeps whose reclaimable state depends on an advancing watermark
    /// still drain idle shards eventually. An untouched shard has
    /// accumulated nothing new for a reachability-based sweep to reclaim.
    /// Visited shards' dirty flags are cleared; `&mut self` guarantees no
    /// worker holds a shard.
    pub fn sweep_mut(&mut self) -> impl Iterator<Item = (&ShardKey, &mut S)> {
        self.sweeps = self.sweeps.wrapping_add(1);
        let full = self.sweeps.is_multiple_of(FULL_SWEEP_PERIOD);
        self.shards.iter_mut().filter_map(move |(k, cell)| {
            let was_dirty = cell.dirty.swap(false, Ordering::Acquire);
            (full || was_dirty).then(move || (k, cell.state.get_mut()))
        })
    }

    /// Iterate shard states for instrumentation. Requires quiescence: panics
    /// if any shard is currently claimed by a worker.
    pub fn iter(&self) -> impl Iterator<Item = (&ShardKey, &S)> {
        self.shards.iter().map(|(k, cell)| {
            assert!(
                !cell.busy.load(Ordering::Acquire),
                "state inspected while shard {k:?} is being scanned"
            );
            // SAFETY: not busy, and `&self` prevents new `lock` claims from
            // this thread; callers only inspect between analysis phases.
            (k, unsafe { &*cell.state.get() })
        })
    }
}

/// What one shard-local analysis produced for one region requirement:
/// the dependences and plan, plus the machine charges of the scan and the
/// commit, recorded for canonical-order replay by the driver.
#[derive(Debug, Default)]
pub struct ReqOutcome {
    /// Requirement index within the launch.
    pub req: u32,
    pub deps: Vec<crate::task::TaskId>,
    pub plan: crate::plan::MaterializePlan,
    /// Charges from the visibility scan (close, traversal, history scans,
    /// dependence records).
    pub scan_log: ChargeLog,
    /// Charges from committing the requirement into the shard state.
    pub commit_log: ChargeLog,
}

/// Batches analysis operations by the node owning the touched state, then
/// flushes them as priced messages: work on remotely-owned state costs a
/// request/response round trip from the analysis origin (plus the work at
/// the owner); local work is charged directly.
///
/// This is how the engines express the paper's distribution story without
/// real networking: *where* state lives and *who* asks for it produce the
/// message patterns; the machine prices them.
#[derive(Debug, Default)]
pub struct ChargeSet {
    per_owner: FxHashMap<NodeId, Vec<Op>>,
}

/// One round-trip target of a flushed [`ChargeSet`]: the owner node plus
/// the request/response byte sizes fed to [`Machine::multi_request`].
type RequestTarget = (NodeId, u64, u64);

impl ChargeSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, owner: NodeId, op: Op) {
        self.per_owner.entry(owner).or_default().push(op);
    }

    pub fn is_empty(&self) -> bool {
        self.per_owner.is_empty()
    }

    /// Flush all batched work. Remote batches cost one round trip each
    /// (request + response), with request size growing with the op count
    /// (the serialized region descriptions). The round trips to distinct
    /// owners are issued concurrently — the origin blocks until the last
    /// response (Legion overlaps its equivalence-set requests the same
    /// way).
    pub fn flush(self, machine: &mut Machine, origin: NodeId) {
        let (targets, work) = self.into_batches();
        let views: Vec<&[Op]> = work.iter().map(|w| w.as_slice()).collect();
        machine.multi_request(origin, &targets, &views);
    }

    /// As [`ChargeSet::flush`], but record the round trips into a
    /// [`ChargeLog`] for later replay instead of charging the live machine.
    pub fn flush_into(self, log: &mut ChargeLog, origin: NodeId) {
        let (targets, work) = self.into_batches();
        log.multi_request(origin, targets, work);
    }

    fn into_batches(mut self) -> (Vec<RequestTarget>, Vec<Vec<Op>>) {
        // Deterministic order: sort owners.
        let mut owners: Vec<NodeId> = self.per_owner.keys().copied().collect();
        owners.sort_unstable();
        let targets: Vec<(NodeId, u64, u64)> = owners
            .iter()
            .map(|o| (*o, 96 + 24 * self.per_owner[o].len() as u64, 96))
            .collect();
        let work: Vec<Vec<Op>> = owners
            .iter()
            .map(|o| std::mem::take(self.per_owner.get_mut(o).unwrap()))
            .collect();
        (targets, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_charges_advance_origin_only() {
        let mut m = Machine::new(2);
        let mut c = ChargeSet::new();
        c.add(0, Op::EqSetCreate);
        c.add(0, Op::EqSetCreate);
        c.flush(&mut m, 0);
        assert_eq!(m.counters().eqsets_created, 2);
        assert_eq!(m.counters().messages, 0);
        assert!(m.now(0) > 0);
        assert_eq!(m.now(1), 0);
    }

    #[test]
    fn remote_charges_cost_round_trips() {
        let mut m = Machine::new(3);
        let mut c = ChargeSet::new();
        c.add(1, Op::EqSetCreate);
        c.add(2, Op::EqSetCreate);
        c.flush(&mut m, 0);
        assert_eq!(m.counters().messages, 4, "two round trips");
        assert!(m.now(0) > 0, "origin blocked on responses");
        assert_eq!(m.counters().eqsets_created, 2, "work served at owners");
        assert!(m.service_clocks()[1] > 0 && m.service_clocks()[2] > 0);
    }

    #[test]
    fn flush_into_replays_identically_to_flush() {
        let build = || {
            let mut c = ChargeSet::new();
            c.add(1, Op::HistScan { entries: 4 });
            c.add(2, Op::SetTouch);
            c.add(0, Op::DepRecord);
            c
        };
        let mut direct = Machine::new(3);
        build().flush(&mut direct, 0);

        let mut log = ChargeLog::new();
        build().flush_into(&mut log, 0);
        let mut replayed = Machine::new(3);
        log.replay(&mut replayed);

        assert_eq!(direct.clocks(), replayed.clocks());
        assert_eq!(direct.service_clocks(), replayed.service_clocks());
        assert_eq!(direct.counters(), replayed.counters());
    }

    #[test]
    fn sharded_state_locks_are_exclusive() {
        let mut s: ShardedState<u32> = ShardedState::new();
        let key = (viz_region::RegionId(0), viz_region::FieldId(0));
        *s.get_or_insert_with(key, || 1) += 1;
        {
            let mut h = s.lock(key);
            *h += 1;
        }
        let h = s.lock(key);
        assert_eq!(*h, 3);
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.lock(key);
        }));
        assert!(second.is_err(), "double lock must panic");
        drop(h);
        let _ = s.lock(key);
    }
}
