//! History GC must be *observationally invisible*: with GC on, every
//! launch still retained (ids at or above the watermark) must carry
//! byte-identical dependences and materialization plans to the same run
//! with GC off, and the simulated machine must observe the exact same
//! operation stream. Checked across all four engines × serial/sharded
//! analysis × pipelined submission × auto-tracing.
//!
//! Collection points depend only on launch ids, never on how a driver cut
//! its batches: the GC'd Serial, Sharded and Pipelined runs of one program
//! must agree on the retirement watermark and on every GC counter.
//!
//! Coarsening (`VIZ_GC_COARSEN`) is deliberately *not* in this matrix: it
//! preserves dependences and plan coverage but coalesces plan ranges over
//! merged sets, so it is excluded from the byte-differential by contract
//! (see `GcConfig::coarsen`).

use visibility::apps::{Circuit, CircuitConfig, Stencil, StencilConfig, Workload};
use visibility::prelude::*;
use visibility::runtime::{AnalysisResult, GcConfig, GcStats};
use visibility::sim::Counters;

/// The submission/analysis shapes the differential covers.
#[derive(Copy, Clone, Debug)]
enum Mode {
    Serial,
    Sharded,
    Pipelined,
    AutoTraced,
}

const MODES: [Mode; 4] = [
    Mode::Serial,
    Mode::Sharded,
    Mode::Pipelined,
    Mode::AutoTraced,
];

fn configure(engine: EngineKind, mode: Mode, nodes: usize) -> RuntimeConfig {
    let cfg = RuntimeConfig::new(engine).nodes(nodes).validate(false);
    match mode {
        Mode::Serial => cfg.analysis_threads(1),
        Mode::Sharded => cfg.analysis_threads(4),
        Mode::Pipelined => cfg.analysis_threads(1).pipeline(true),
        Mode::AutoTraced => cfg.analysis_threads(1).auto_trace(true),
    }
}

struct Observed {
    tasks: usize,
    watermark: u32,
    gc: GcStats,
    /// Results of the retained suffix `[watermark..tasks)`.
    results: Vec<AnalysisResult>,
    names: Vec<String>,
    counters: Counters,
}

fn run(
    workload: &dyn Workload,
    engine: EngineKind,
    mode: Mode,
    nodes: usize,
    gc: bool,
) -> Observed {
    let mut rt = Runtime::new(
        // Aggressive cadence so several sweeps land inside a small
        // program; a retain window big enough to keep suffixes comparable
        // but far smaller than the program.
        configure(engine, mode, nodes).gc_config(GcConfig {
            enabled: gc,
            interval: 16,
            retain: 24,
            ..GcConfig::default()
        }),
    );
    workload.execute(&mut rt);
    let stats = rt.stats();
    let names = rt.launches().iter().map(|l| l.name.clone()).collect();
    let counters = rt.machine().counters().clone();
    Observed {
        tasks: rt.num_tasks(),
        watermark: stats.watermark,
        gc: stats.gc,
        results: rt.results(),
        names,
        counters,
    }
}

fn differential(workload: &dyn Workload, nodes: usize) {
    for engine in EngineKind::all() {
        // The GC'd Serial run, which the Sharded and Pipelined runs must
        // match collection for collection.
        let mut serial: Option<(u32, GcStats)> = None;
        for mode in MODES {
            let off = run(workload, engine, mode, nodes, false);
            let on = run(workload, engine, mode, nodes, true);
            let ctx = format!("{} {engine:?} {mode:?}", workload.name());
            match (mode, serial) {
                (Mode::Serial, _) => serial = Some((on.watermark, on.gc)),
                (Mode::Sharded | Mode::Pipelined, Some((watermark, gc))) => {
                    assert_eq!(
                        on.watermark, watermark,
                        "{ctx}: retirement watermark diverged from the Serial run"
                    );
                    assert_eq!(on.gc, gc, "{ctx}: GC stats diverged from the Serial run");
                }
                _ => {}
            }

            assert_eq!(off.watermark, 0, "{ctx}: GC-off run must retire nothing");
            assert_eq!(on.tasks, off.tasks, "{ctx}: program length diverged");
            assert!(
                on.watermark > 0,
                "{ctx}: GC never fired — the differential tested nothing \
                 (tasks={}, interval=16)",
                on.tasks
            );
            let w = on.watermark as usize;
            assert!(w <= off.tasks, "{ctx}: watermark past the end");
            assert_eq!(
                on.results,
                off.results[w..],
                "{ctx}: retained analysis results diverged from the GC-off run"
            );
            assert_eq!(
                on.names,
                off.names[w..],
                "{ctx}: retained launch records diverged"
            );
            // PaintNaive is the one engine whose cost model *charges* for
            // scanning occluded entries (§5.1's pathology); its GC sweep
            // reclaims union-occluded entries the commit-time prune cannot,
            // so its simulated scan cost legitimately drops while deps and
            // plans stay identical. Every other engine's sweep only removes
            // state the scans already never visit.
            if engine != EngineKind::PaintNaive {
                assert_eq!(
                    on.counters, off.counters,
                    "{ctx}: simulated machine observed a different operation stream"
                );
            }
        }
    }
}

#[test]
fn stencil_gc_on_off_agree() {
    let app = Stencil::new(StencilConfig {
        nodes: 4,
        iterations: 8,
        ..StencilConfig::small(4, 6, 2)
    });
    differential(&app, 4);
}

#[test]
fn circuit_gc_on_off_agree() {
    let app = Circuit::new(CircuitConfig {
        nodes: 4,
        iterations: 8,
        ..CircuitConfig::small(4, 2)
    });
    differential(&app, 4);
}

/// Fences and manual traces interleaved with GC sweeps: the fence path
/// goes through the same commit pipeline, and replayed launches resolve
/// through templates that must survive retirement (tracing-aware pinning).
#[test]
fn traced_stencil_with_fences_gc_on_off_agree() {
    let app = Stencil::new(StencilConfig {
        nodes: 2,
        iterations: 10,
        traced: true,
        ..StencilConfig::small(4, 6, 2)
    });
    differential(&app, 2);
}
