//! Trace-replay bench: per-launch cost of replaying a trace — manual
//! (`begin_trace`/`end_trace`) and automatic (detector-promoted) — against
//! ordinary analysis, plus a direct zero-copy proof.
//!
//! The workload is the stencil's repetitive top-level loop (64 pieces on 4
//! nodes), the shape tracing exists for. Reported:
//!
//! * host nanoseconds per launch, untraced vs manual vs auto-traced, and
//!   the resulting replay speedup over the visibility analysis;
//! * a pointer-identity proof that replay never deep-clones an
//!   [`viz_runtime::AnalysisResult`]: every replayed launch stores the
//!   *same* `Arc` allocation as the template entry it came from, so the
//!   number of distinct shared allocations stays bounded by the template
//!   length no matter how many instances replay;
//! * criterion timings per mode.

use criterion::{BenchmarkId, Criterion};
use std::collections::BTreeSet;
use std::time::Instant;
use viz_apps::{Stencil, StencilConfig, Workload};
use viz_runtime::{EngineKind, Runtime, RuntimeConfig, TaskId};

const PIECES: usize = 64;
const NODES: usize = 4;
const ITERS: usize = 12;

#[derive(Copy, Clone, PartialEq, Debug)]
enum Mode {
    Untraced,
    Manual,
    Auto,
}

fn bench_app(mode: Mode) -> Stencil {
    Stencil::new(StencilConfig {
        pieces: PIECES,
        tile: 8,
        iterations: ITERS,
        nodes: NODES,
        with_bodies: false,
        traced: mode == Mode::Manual,
        vars: 1,
    })
}

/// One full run; returns host seconds and the runtime for inspection.
fn run_once(engine: EngineKind, mode: Mode) -> (f64, Runtime) {
    let mut rt = Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(NODES)
            .dcr(false)
            .validate(false)
            .auto_trace(mode == Mode::Auto),
    );
    let app = bench_app(mode);
    let t0 = Instant::now();
    let run = app.execute(&mut rt);
    let dt = t0.elapsed().as_secs_f64();
    assert!(!run.iter_end.is_empty());
    (dt, rt)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Per-launch host cost per mode, and the replay speedup over analysis.
fn speedup_report() {
    const REPS: usize = 9;
    println!(
        "\n# Trace replay: per-launch host cost (stencil, {PIECES} pieces, {NODES} nodes, \
         {ITERS} iterations)"
    );
    println!("engine\tmode\tns_per_launch\treplayed\tspeedup_vs_untraced");
    for engine in [EngineKind::Paint, EngineKind::RayCast] {
        let mut untraced_ns = 0.0;
        for mode in [Mode::Untraced, Mode::Manual, Mode::Auto] {
            let secs = median((0..REPS).map(|_| run_once(engine, mode).0).collect());
            let (_, rt) = run_once(engine, mode);
            let ns = secs * 1e9 / rt.num_tasks() as f64;
            if mode == Mode::Untraced {
                untraced_ns = ns;
            }
            println!(
                "{}\t{:?}\t{:.0}\t{}\t{:.2}x",
                engine.label(),
                mode,
                ns,
                rt.stats().tracing.replayed_launches,
                untraced_ns / ns
            );
            if mode != Mode::Untraced {
                assert!(
                    rt.stats().tracing.replayed_launches > 0,
                    "{engine:?} {mode:?}: nothing replayed"
                );
            }
        }
    }
}

/// Zero-copy proof: replayed launches share the template's allocations.
///
/// If replay deep-cloned results, every replayed launch would store a
/// fresh allocation and the distinct-address count would grow with the
/// replayed-launch count. Sharing bounds it by the launches of the
/// analyzed instances (template + one auto-verification instance).
fn zero_copy_report() {
    for mode in [Mode::Manual, Mode::Auto] {
        let (_, rt) = run_once(EngineKind::RayCast, mode);
        let mut shared_tasks = 0u64;
        let mut addrs = BTreeSet::new();
        for t in 0..rt.num_tasks() {
            if let Some(a) = rt.shared_result_addr(TaskId(t as u32)) {
                shared_tasks += 1;
                addrs.insert(a);
            }
        }
        let per_iter = shared_tasks.min(2 * PIECES as u64 + 8);
        let replayed = rt.stats().tracing.replayed_launches;
        println!(
            "# Zero-copy ({mode:?}): {} trace-backed launches share {} allocations \
             ({} replayed)",
            shared_tasks,
            addrs.len(),
            replayed
        );
        assert!(
            replayed >= 6 * per_iter,
            "{mode:?}: expected most instances to replay, got {replayed}"
        );
        // Template entries (+ the auto path's analyzed verification
        // instance) are the only distinct allocations; replays add none.
        assert!(
            (addrs.len() as u64) <= 2 * per_iter,
            "{mode:?}: {} distinct allocations for {} trace-backed launches — \
             replay is cloning results",
            addrs.len(),
            shared_tasks
        );
    }
}

fn criterion_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("tracing_replay");
    g.sample_size(10);
    for mode in [Mode::Untraced, Mode::Manual, Mode::Auto] {
        g.bench_with_input(
            BenchmarkId::new("raycast", format!("{mode:?}").to_lowercase()),
            &mode,
            |b, &mode| {
                b.iter(|| run_once(EngineKind::RayCast, mode).0);
            },
        );
    }
    g.finish();
}

fn main() {
    speedup_report();
    zero_copy_report();
    let mut c = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300))
        .configure_from_args();
    criterion_benches(&mut c);
    c.final_summary();
}
