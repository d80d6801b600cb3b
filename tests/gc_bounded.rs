//! The tentpole's memory claim, as a test: with history GC on, the
//! retained ledger window, the DAG's tag storage, and the engines' dead
//! state are bounded by the *retain window*, not by program length — and
//! the watermark actually advances. Also covers the coarsening
//! cost/benefit counters and the eager-execution guards.

use visibility::apps::{Circuit, CircuitConfig, Stencil, StencilConfig, Workload};
use visibility::prelude::*;
use visibility::runtime::config::DEFAULT_GC_RETAIN;
use visibility::runtime::GcConfig;

/// GC on (`enabled`) or coarsening only, at an explicit cadence.
fn gc_cfg(enabled: bool, interval: u32, retain: u32, coarsen: bool) -> GcConfig {
    GcConfig {
        enabled,
        interval,
        retain,
        coarsen,
    }
}

fn long_stencil(iterations: usize) -> Stencil {
    Stencil::new(StencilConfig {
        nodes: 4,
        iterations,
        ..StencilConfig::small(4, 6, 2)
    })
}

fn long_circuit(iterations: usize) -> Circuit {
    Circuit::new(CircuitConfig {
        nodes: 4,
        iterations,
        ..CircuitConfig::small(4, 2)
    })
}

#[test]
fn retained_window_is_bounded_by_retain_not_program_length() {
    for engine in EngineKind::all() {
        let mut short_retained = 0;
        for iterations in [10usize, 40] {
            let mut rt = Runtime::new(
                RuntimeConfig::new(engine)
                    .nodes(4)
                    .validate(false)
                    .gc_config(gc_cfg(true, 16, 32, false)),
            );
            long_stencil(iterations).execute(&mut rt);
            let stats = rt.stats();
            assert!(stats.gc.collections > 0, "{engine:?}: GC never ran");
            assert!(stats.watermark > 0, "{engine:?}: watermark never advanced");
            assert_eq!(
                stats.retained as u32 + stats.watermark,
                stats.tasks as u32,
                "{engine:?}: ledger accounting broke"
            );
            // Retained window ≤ retain + one GC interval's slack (sweeps
            // are amortized: at most `interval` launches land between the
            // watermark moving and the next sweep).
            assert!(
                stats.retained <= 32 + 16,
                "{engine:?} iters={iterations}: retained {} outgrew the window",
                stats.retained
            );
            if iterations == 10 {
                short_retained = stats.retained;
            } else {
                // 4× the program, same retained ceiling: memory tracks the
                // window, not program length.
                assert!(
                    stats.retained <= short_retained + 16 + 32,
                    "{engine:?}: retained grew with program length \
                     ({short_retained} -> {})",
                    stats.retained
                );
            }
        }
    }
}

#[test]
fn tag_words_are_bounded_by_the_window() {
    // GC-off: tag memory grows with program length (within the tag
    // window). GC-on: it tracks the retained suffix.
    let mut off = Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(4)
            .validate(false),
    );
    long_stencil(40).execute(&mut off);
    let off_words = off.stats().dag.tag_words;

    let mut on = Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(4)
            .validate(false)
            .gc_config(gc_cfg(true, 16, 32, false)),
    );
    long_stencil(40).execute(&mut on);
    let stats = on.stats();
    assert!(stats.gc.tag_words_freed > 0, "no tag rows were ever freed");
    assert!(
        stats.dag.tag_words * 4 < off_words,
        "tag words with GC ({}) not clearly below GC-off ({off_words})",
        stats.dag.tag_words
    );
    assert_eq!(stats.dag.retired_floor, stats.watermark);
}

#[test]
fn engine_sweeps_reclaim_dead_state() {
    // Circuit exercises every engine's sweep path: RayCast reclaims
    // dominated sets and their histories, Warnock (with coarsening) folds
    // re-converged siblings, Paint prunes replicated-cache pairs and
    // spatial-index nodes, and the naive painter drops union-occluded
    // history entries its commit-time prune cannot see.
    for engine in EngineKind::all() {
        let mut rt = Runtime::new(
            RuntimeConfig::new(engine)
                .nodes(4)
                .validate(false)
                .gc_config(gc_cfg(true, 16, 32, engine == EngineKind::Warnock)),
        );
        long_circuit(40).execute(&mut rt);
        let gc = rt.stats().gc;
        let dropped = gc.history_entries
            + gc.equivalence_sets
            + gc.composite_views
            + gc.index_nodes
            + gc.memo_entries;
        assert!(
            dropped > 0,
            "{engine:?}: {} sweeps reclaimed nothing",
            gc.collections
        );
    }
}

#[test]
fn coarsening_merges_reconverged_siblings_and_reports_cost() {
    // Circuit's whole-region phases re-converge Warnock's per-piece
    // refinements each iteration; coarsening must fold the siblings back
    // up and count the merges. (Stencil never re-converges: its pieces
    // keep distinct owners forever, which is why it is absent here.)
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::Warnock)
            .nodes(4)
            .validate(false)
            .gc_config(gc_cfg(true, 8, 16, true)),
    );
    let app = long_circuit(30);
    app.execute(&mut rt);
    let gc = rt.stats().gc;
    assert!(gc.coarsen, "knob not reflected in stats");
    assert!(
        gc.coarsen_merges > 0,
        "no sibling sets re-converged across 30 whole-region iterations"
    );
    // Benefit measurement: merges must actually shrink the tree.
    assert!(gc.equivalence_sets > 0 || gc.index_nodes > 0);

    // Coarsening alone (GC off) also works: it only merges live state.
    let mut rt2 = Runtime::new(
        RuntimeConfig::new(EngineKind::Warnock)
            .nodes(4)
            .validate(false)
            .gc_config(gc_cfg(false, 8, DEFAULT_GC_RETAIN, true)),
    );
    app.execute(&mut rt2);
    let stats2 = rt2.stats();
    assert_eq!(stats2.watermark, 0, "GC off must not retire");
    assert!(stats2.gc.coarsen_merges > 0);
}

#[test]
fn retired_history_refuses_eager_execution() {
    // `execute_values`/`timed_schedule` need the full launch history; once
    // GC has retired a prefix they must fail loudly, not replay garbage.
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(2)
            .validate(false)
            .gc_config(gc_cfg(true, 8, 8, false)),
    );
    long_stencil(20).execute(&mut rt);
    assert!(rt.stats().watermark > 0);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.execute_values();
    }));
    assert!(
        err.is_err(),
        "execute_values silently ran on retired history"
    );
}
