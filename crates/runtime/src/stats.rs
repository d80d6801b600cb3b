//! The one stats front door: [`crate::Runtime::stats`] returns a
//! [`RuntimeStats`] snapshot of engine state ([`StateSize`], which carries
//! the interner's `AlgebraStats` roll-up), the submission-plane counters,
//! the trace counters, and the history-GC and coarsening counters. Trace
//! counters have no other accessor.
//!
//! Everything in the snapshot is plain data (`Clone`, `Debug`): probes and
//! benches can take one, drop the runtime borrow, and format at leisure.

use crate::engine::StateSize;
use crate::pipeline::PipelineMetrics;

/// One coherent snapshot of the runtime's observable counters, taken at a
/// drain point (every queued launch has committed).
#[non_exhaustive]
#[derive(Clone, Debug, Default)]
pub struct RuntimeStats {
    /// Engine label (`"Paint"`, `"Warnock"`, ...).
    pub engine: &'static str,
    /// Tasks committed so far across every producer, fences included.
    pub tasks: u64,
    /// Launches currently retained in the commit ledger (`== tasks` until
    /// history GC retires a prefix).
    pub retained: u64,
    /// The history-GC watermark: every task id below it has retired.
    pub watermark: u32,
    /// Engine-retained analysis state, including the algebra/interner
    /// roll-up.
    pub state: StateSize,
    /// History-GC and coarsening counters.
    pub gc: GcStats,
    /// Dependence-DAG shape and tag-storage footprint.
    pub dag: DagStats,
    /// Trace machinery counters (manual and auto).
    pub tracing: TracingStats,
    /// Submission-plane counters (`None` in synchronous mode).
    pub pipeline: Option<PipelineStats>,
}

/// History-GC and coarsening counters (see [`crate::config::GcConfig`]).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    pub enabled: bool,
    pub coarsen: bool,
    /// Collection sweeps run.
    pub collections: u64,
    /// Sweeps whose floor was clamped by tracing-aware pinning.
    pub pins: u64,
    /// Ledger entries retired below the watermark.
    pub retired_launches: u64,
    /// Ancestor-tag words freed from the DAG's bitset window.
    pub tag_words_freed: u64,
    /// Per-(root,field) history entries dropped by engine sweeps.
    pub history_entries: u64,
    /// Dead equivalence sets reclaimed.
    pub equivalence_sets: u64,
    /// Unreachable composite views dropped.
    pub composite_views: u64,
    /// Spatial-index nodes reclaimed.
    pub index_nodes: u64,
    /// Stale memoization entries dropped.
    pub memo_entries: u64,
    /// Sibling-set merges performed by coarsening.
    pub coarsen_merges: u64,
}

/// Dependence-DAG shape and precedence-tag footprint.
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default)]
pub struct DagStats {
    /// Tasks pushed (never shrinks; retirement only frees tag rows).
    pub tasks: u64,
    /// Dependence edges recorded.
    pub edges: u64,
    /// 64-bit words currently held by the ragged ancestor-bitset window.
    pub tag_words: u64,
    /// Floor below which tag rows were freed by history GC.
    pub retired_floor: u32,
}

/// Trace-machinery counters (manual `begin_trace`/`end_trace` regions and
/// the auto tracer).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default)]
pub struct TracingStats {
    /// Launches whose analysis was synthesized from a template.
    pub replayed_launches: u64,
    /// Repeats promoted by the auto tracer.
    pub auto_promotions: u64,
    /// Auto traces demoted back to normal analysis.
    pub auto_demotions: u64,
    /// Trace violations observed (each demotes the offending trace).
    pub violations: u64,
    /// Current size of the rebase interval map.
    pub rebase_ranges: u64,
}

/// A plain-data snapshot of [`PipelineMetrics`] (the live handle stays
/// available from [`crate::Runtime::pipeline_metrics`] for code that needs
/// to watch counters move).
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    pub submitted: u64,
    pub retired: u64,
    pub stalls: u64,
    pub stalled_ns: u64,
    pub max_depth: u64,
    pub combines: u64,
    pub combined_specs: u64,
    pub max_combine: u64,
    pub multi_ring_combines: u64,
    pub rings: u64,
}

impl PipelineStats {
    pub(crate) fn snapshot(m: &PipelineMetrics) -> Self {
        PipelineStats {
            submitted: m.submitted(),
            retired: m.retired(),
            stalls: m.stalls(),
            stalled_ns: m.stalled_ns(),
            max_depth: m.max_depth(),
            combines: m.combines(),
            combined_specs: m.combined_specs(),
            max_combine: m.max_combine(),
            multi_ring_combines: m.multi_ring_combines(),
            rings: m.rings() as u64,
        }
    }
}
