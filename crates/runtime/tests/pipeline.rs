//! Pipelined-frontend tests (PR 4).
//!
//! The pipelined submission frontend must be *transparent*: enabling it may
//! only change when analysis runs (on a driver thread, overlapped with
//! submission), never what it computes. Random aliased/reduction-heavy
//! programs run pipelined and synchronous, through all four engines with
//! auto-tracing on and off, and must agree on dependences, plans, and
//! executed values. The drain semantics (fence, inline_read, end_trace,
//! drop) and the typed error paths are pinned down by directed tests.

use proptest::prelude::*;
use std::sync::Arc;
use viz_geometry::{IndexSpace, Point, Rect};
use viz_region::{Privilege, RedOpRegistry};
use viz_runtime::validate::check_sufficiency;
use viz_runtime::{
    EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig,
    RuntimeError, TaskId,
};

const N: i64 = 48;
const PIECES: usize = 4;

/// One abstract launch (same shape as the autotracing differential tests).
#[derive(Clone, Debug)]
struct AbsLaunch {
    target: usize, // 0..PIECES = primary piece, PIECES..2*PIECES = ghost
    privilege: u8, // 0 = read, 1 = rw, 2 = reduce-sum
    salt: u32,     // body constant (does not affect the signature)
}

fn abs_launch() -> impl Strategy<Value = AbsLaunch> {
    ((0..2 * PIECES), 0u8..3, 0u32..1000).prop_map(|(target, privilege, salt)| AbsLaunch {
        target,
        privilege,
        salt,
    })
}

/// A program with a repeating unit, so auto-tracing has something to
/// promote while the pipeline chunks the stream arbitrarily underneath it.
#[derive(Clone, Debug)]
struct Program {
    prefix: Vec<AbsLaunch>,
    unit: Vec<AbsLaunch>,
    repeats: usize,
    suffix: Vec<AbsLaunch>,
}

impl Program {
    fn stream(&self) -> Vec<AbsLaunch> {
        let mut out = self.prefix.clone();
        for _ in 0..self.repeats {
            out.extend(self.unit.iter().cloned());
        }
        out.extend(self.suffix.iter().cloned());
        out
    }
}

fn program() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(abs_launch(), 0..4),
        prop::collection::vec(abs_launch(), 1..6),
        1usize..8,
        prop::collection::vec(abs_launch(), 0..4),
    )
        .prop_map(|(prefix, unit, repeats, suffix)| Program {
            prefix,
            unit,
            repeats,
            suffix,
        })
}

fn build_runtime(engine: EngineKind, auto: bool, threads: usize, pipelined: bool) -> Runtime {
    Runtime::new(
        RuntimeConfig::new(engine)
            .nodes(2)
            .analysis_threads(threads)
            .auto_trace(auto)
            .pipeline(pipelined),
    )
}

fn setup_regions(
    rt: &mut Runtime,
) -> (
    viz_region::RegionId,
    viz_region::FieldId,
    Vec<viz_region::RegionId>,
) {
    let root = rt.forest_mut().create_root_1d("A", N);
    let field = rt.forest_mut().add_field(root, "v");
    let p = rt.forest_mut().create_equal_partition_1d(root, "P", PIECES);
    let chunk = N / PIECES as i64;
    let ghosts: Vec<IndexSpace> = (0..PIECES as i64)
        .map(|i| {
            let lo = i * chunk;
            let hi = (i + 1) * chunk - 1;
            let mut rects = Vec::new();
            if lo > 0 {
                rects.push(Rect::span(lo - 2, lo - 1));
            }
            if hi < N - 1 {
                rects.push(Rect::span(hi + 1, (hi + 2).min(N - 1)));
            }
            IndexSpace::from_rects(rects)
        })
        .collect();
    let g = rt.forest_mut().create_partition(root, "G", ghosts);
    rt.try_set_initial(root, field, |pt| (pt.x % 17) as f64)
        .expect("root field exists");
    let mut regions = Vec::new();
    for k in 0..PIECES {
        regions.push(rt.forest().subregion(p, k));
    }
    for k in 0..PIECES {
        regions.push(rt.forest().subregion(g, k));
    }
    (root, field, regions)
}

fn spec_of(
    l: &AbsLaunch,
    i: usize,
    regions: &[viz_region::RegionId],
    field: viz_region::FieldId,
) -> LaunchSpec {
    let region = regions[l.target];
    let salt = l.salt as f64 + i as f64;
    let (privilege, body): (Privilege, viz_runtime::TaskBody) = match l.privilege {
        0 => (Privilege::Read, Arc::new(|_: &mut [PhysicalRegion]| {})),
        1 => (
            Privilege::ReadWrite,
            Arc::new(move |rs: &mut [PhysicalRegion]| {
                rs[0].update_all(|pt, v| ((v * 3.0 + salt + pt.x as f64) as i64 % 257) as f64);
            }),
        ),
        _ => (
            Privilege::Reduce(RedOpRegistry::SUM),
            Arc::new(move |rs: &mut [PhysicalRegion]| {
                let dom = rs[0].domain().clone();
                for pt in dom.points() {
                    rs[0].reduce(pt, ((salt as i64 + pt.x) % 13) as f64);
                }
            }),
        ),
    };
    LaunchSpec::new(
        format!("t{i}"),
        l.target % 2,
        vec![RegionRequirement::new(region, field, privilege)],
        100,
        Some(body),
    )
}

struct Outcome {
    values: Vec<f64>,
    deps: Vec<Vec<u32>>,
    plans_fingerprint: usize,
    replayed: u64,
    detected: u64,
}

/// Run one program. `pipelined` routes every submission through the
/// bounded queue and the analysis driver thread; otherwise analysis runs
/// inline on this thread. Either way launches are submitted one at a time
/// (maximum overlap for the pipeline to exploit).
fn run_program(
    engine: EngineKind,
    auto: bool,
    threads: usize,
    pipelined: bool,
    stream: &[AbsLaunch],
) -> Outcome {
    let mut rt = build_runtime(engine, auto, threads, pipelined);
    let (root, field, regions) = setup_regions(&mut rt);
    for (i, l) in stream.iter().enumerate() {
        let h = rt
            .submit(spec_of(l, i, &regions, field))
            .expect("generated launches are valid");
        assert_eq!(h.id(), TaskId(i as u32), "handles are program-ordered");
    }
    let probe = rt.inline_read(root, field).unwrap();
    let violations = check_sufficiency(rt.forest(), rt.launches(), rt.dag());
    assert!(
        violations.is_empty(),
        "{engine:?} auto={auto} pipelined={pipelined}: unsound DAG: {violations:?}"
    );
    let results = rt.results();
    let deps: Vec<Vec<u32>> = results
        .iter()
        .map(|r| r.deps.iter().map(|d| d.0).collect())
        .collect();
    let plans_fingerprint = results.iter().map(|r| r.plans.len()).sum::<usize>()
        + results
            .iter()
            .flat_map(|r| &r.plans)
            .map(|p| p.copies.len() + p.reductions.len())
            .sum::<usize>();
    let tracing = rt.stats().tracing;
    let (replayed, detected) = (tracing.replayed_launches, tracing.auto_promotions);
    let store = rt.execute_values();
    let values: Vec<f64> = (0..N)
        .map(|x| store.inline(probe).get(Point::p1(x)))
        .collect();
    Outcome {
        values,
        deps,
        plans_fingerprint,
        replayed,
        detected,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pipeline may only change *when* analysis runs, never what it
    /// computes: identical values, dependences, and plans vs the
    /// synchronous path, across all four engines, serial and sharded
    /// drivers, auto-tracing on and off.
    #[test]
    fn pipelined_equals_synchronous(p in program()) {
        let stream = p.stream();
        let reference = run_program(EngineKind::PaintNaive, false, 1, false, &stream);
        for engine in [
            EngineKind::PaintNaive,
            EngineKind::Paint,
            EngineKind::Warnock,
            EngineKind::RayCast,
        ] {
            for auto in [false, true] {
                for threads in [1, 4] {
                    let sync = run_program(engine, auto, threads, false, &stream);
                    let piped = run_program(engine, auto, threads, true, &stream);
                    prop_assert_eq!(
                        &piped.values, &reference.values,
                        "{:?} auto={} threads={}: pipeline changed values",
                        engine, auto, threads
                    );
                    prop_assert_eq!(
                        &piped.deps, &sync.deps,
                        "{:?} auto={} threads={}: pipeline changed dependences",
                        engine, auto, threads
                    );
                    prop_assert_eq!(
                        piped.plans_fingerprint, sync.plans_fingerprint,
                        "{:?} auto={} threads={}: pipeline changed plans",
                        engine, auto, threads
                    );
                    prop_assert_eq!(
                        (piped.replayed, piped.detected),
                        (sync.replayed, sync.detected),
                        "{:?} auto={} threads={}: pipeline changed trace statistics",
                        engine, auto, threads
                    );
                }
            }
        }
    }
}

/// `fence` is a drain point: the fence task is ordered after every queued
/// launch and gets the next program-order id.
#[test]
fn fence_observes_all_queued_launches() {
    let mut rt = build_runtime(EngineKind::RayCast, false, 1, true);
    let (_root, field, regions) = setup_regions(&mut rt);
    for i in 0..PIECES {
        let l = AbsLaunch {
            target: i,
            privilege: 1,
            salt: 3,
        };
        rt.submit(spec_of(&l, i, &regions, field)).unwrap();
    }
    let f = rt.fence();
    assert_eq!(f, TaskId(PIECES as u32), "fence id follows the queued wave");
    let dag = rt.dag();
    let preds = dag.preds(f);
    assert_eq!(
        preds,
        (0..PIECES as u32).map(TaskId).collect::<Vec<_>>(),
        "fence must depend on every queued launch"
    );
}

/// `inline_read` is itself a submission: FIFO order alone guarantees it
/// observes every earlier queued write without draining.
#[test]
fn inline_read_observes_queued_writes() {
    let mut rt = build_runtime(EngineKind::Warnock, false, 1, true);
    let (root, field, regions) = setup_regions(&mut rt);
    for i in 0..2 * PIECES {
        let l = AbsLaunch {
            target: i % PIECES,
            privilege: 1,
            salt: 11,
        };
        rt.submit(spec_of(&l, i, &regions, field)).unwrap();
    }
    let probe = rt.inline_read(root, field).unwrap();
    let store = rt.execute_values();
    // Reference: the same program, synchronous.
    let mut rt2 = build_runtime(EngineKind::Warnock, false, 1, false);
    let (root2, field2, regions2) = setup_regions(&mut rt2);
    for i in 0..2 * PIECES {
        let l = AbsLaunch {
            target: i % PIECES,
            privilege: 1,
            salt: 11,
        };
        rt2.submit(spec_of(&l, i, &regions2, field2)).unwrap();
    }
    let probe2 = rt2.inline_read(root2, field2).unwrap();
    let store2 = rt2.execute_values();
    for x in 0..N {
        assert_eq!(
            store.inline(probe).get(Point::p1(x)),
            store2.inline(probe2).get(Point::p1(x)),
            "inline read missed queued writes at {x}"
        );
    }
}

/// Manual traces over the pipelined frontend: begin/end drain, the
/// recorded instances replay, and values match the synchronous run.
#[test]
fn manual_traces_drain_and_replay_pipelined() {
    let run = |pipelined: bool| -> (Vec<f64>, u64) {
        let mut rt = build_runtime(EngineKind::RayCast, false, 1, pipelined);
        let (root, field, regions) = setup_regions(&mut rt);
        let mut i = 0;
        for _ in 0..5 {
            rt.try_begin_trace(7).expect("no trace is open");
            for k in 0..PIECES {
                let l = AbsLaunch {
                    target: k,
                    privilege: 1,
                    salt: 5,
                };
                rt.submit(spec_of(&l, i, &regions, field)).unwrap();
                i += 1;
            }
            rt.try_end_trace(7).expect("trace 7 is open");
        }
        let probe = rt.inline_read(root, field).unwrap();
        let replayed = rt.stats().tracing.replayed_launches;
        let store = rt.execute_values();
        let values = (0..N)
            .map(|x| store.inline(probe).get(Point::p1(x)))
            .collect();
        (values, replayed)
    };
    let (sync_values, sync_replayed) = run(false);
    let (piped_values, piped_replayed) = run(true);
    assert_eq!(
        piped_values, sync_values,
        "tracing + pipeline changed values"
    );
    assert_eq!(piped_replayed, sync_replayed, "replay counts diverged");
    assert!(
        sync_replayed >= 2 * PIECES as u64,
        "instances 4 and 5 replay"
    );
}

/// Dropping a runtime with a non-empty queue flushes it: every submitted
/// launch retires before the driver exits (observed through the metrics
/// handle, which outlives the runtime).
#[test]
fn drop_flushes_queued_launches() {
    let mut rt = build_runtime(EngineKind::Paint, false, 1, true);
    let (_root, field, regions) = setup_regions(&mut rt);
    let metrics = rt.pipeline_metrics().expect("pipelined runtime");
    const COUNT: usize = 100;
    for i in 0..COUNT {
        let l = AbsLaunch {
            target: i % (2 * PIECES),
            privilege: (i % 3) as u8,
            salt: 1,
        };
        rt.submit(spec_of(&l, i, &regions, field)).unwrap();
    }
    drop(rt);
    assert_eq!(metrics.submitted(), COUNT as u64);
    assert_eq!(
        metrics.retired(),
        COUNT as u64,
        "drop lost queued launches: {}/{} retired",
        metrics.retired(),
        metrics.submitted()
    );
}

/// Backpressure: a tiny queue forces submissions to stall while the driver
/// catches up — the program still completes and retires everything.
#[test]
fn backpressure_bounds_the_queue() {
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::PaintNaive)
            .nodes(2)
            .pipeline(true)
            .pipeline_depth(2),
    );
    let (root, field, regions) = setup_regions(&mut rt);
    const COUNT: usize = 400;
    for i in 0..COUNT {
        // Every launch read-writes the full root: the serial history scan
        // grows quadratically, so the driver falls behind a tight
        // submission loop and the 2-deep queue must fill.
        let spec = LaunchSpec::new(
            format!("t{i}"),
            0,
            vec![RegionRequirement::read_write(root, field)],
            0,
            None,
        );
        rt.submit(spec).unwrap();
    }
    rt.flush();
    let m = rt.pipeline_metrics().unwrap();
    assert_eq!(m.submitted(), COUNT as u64);
    assert_eq!(m.retired(), COUNT as u64);
    assert!(
        m.stalls() > 0,
        "a 2-deep queue under {COUNT} serial-scan launches never stalled"
    );
    assert_eq!(rt.num_tasks(), COUNT);
    let _ = (field, regions);
}

/// Typed submission errors: rejected on the application thread, consuming
/// no task id, leaving the pipeline healthy.
#[test]
fn submission_errors_consume_no_ids() {
    let mut rt = build_runtime(EngineKind::RayCast, false, 1, true);
    let (root, field, regions) = setup_regions(&mut rt);
    let bogus = viz_region::RegionId(9999);
    let err = rt
        .submit(LaunchSpec::new(
            "bad",
            0,
            vec![RegionRequirement::read(bogus, field)],
            0,
            None,
        ))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::UnknownRegion { .. }));
    let err = rt
        .submit(LaunchSpec::new(
            "bad",
            0,
            vec![RegionRequirement::read(root, viz_region::FieldId(9999))],
            0,
            None,
        ))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::UnknownField { .. }));
    let err = rt
        .submit(LaunchSpec::new(
            "bad",
            0,
            vec![
                RegionRequirement::read_write(root, field),
                RegionRequirement::read(root, field),
            ],
            0,
            None,
        ))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::InterferingRequirements { .. }));
    assert!(err.to_string().contains("alias with interfering"));
    // The failed submissions consumed no ids: the next valid launch is
    // task 0, and the queue still drains cleanly.
    let l = AbsLaunch {
        target: 0,
        privilege: 1,
        salt: 2,
    };
    let h = rt.submit(spec_of(&l, 0, &regions, field)).unwrap();
    assert_eq!(rt.resolve(h), TaskId(0));
    assert_eq!(rt.num_tasks(), 1);
}

/// Trace misnesting is reported as a typed error under the pipeline, with
/// the open trace left intact.
#[test]
fn trace_misnesting_errors_pipelined() {
    let mut rt = build_runtime(EngineKind::Warnock, false, 1, true);
    let (_root, field, regions) = setup_regions(&mut rt);
    assert!(matches!(
        rt.try_end_trace(1),
        Err(RuntimeError::EndWithoutBegin { .. })
    ));
    rt.try_begin_trace(1).unwrap();
    let l = AbsLaunch {
        target: 0,
        privilege: 1,
        salt: 4,
    };
    rt.submit(spec_of(&l, 0, &regions, field)).unwrap();
    assert!(matches!(
        rt.try_begin_trace(2),
        Err(RuntimeError::NestedTrace { .. })
    ));
    assert!(matches!(
        rt.try_end_trace(2),
        Err(RuntimeError::MismatchedTraceEnd { .. })
    ));
    assert!(rt.try_end_trace(1).unwrap().is_none());
}

/// Satellite 1 (PR 7): a driver panic mid-batch must not silently lose
/// dequeued-but-unretired specs. The panic is latched, later submissions
/// fail with [`RuntimeError::DriverPanicked`] carrying the exact count of
/// queued launches that will never be analyzed, and dropping the runtime
/// re-raises the original panic payload.
#[test]
fn driver_panic_surfaces_lost_launches_and_rethrows() {
    let mut rt = Runtime::new(
        RuntimeConfig::new(EngineKind::RayCast)
            .nodes(2)
            .pipeline(true)
            // Let a poison spec reach the driver thread: producer-side
            // validation would otherwise reject it before enqueue.
            .validate(false),
    );
    let (root, field, _regions) = setup_regions(&mut rt);
    let metrics = rt.pipeline_metrics().unwrap();
    let ok = |i: usize| {
        LaunchSpec::new(
            format!("ok{i}"),
            0,
            vec![RegionRequirement::read_write(root, field)],
            0,
            None,
        )
    };
    let poison = LaunchSpec::new(
        "poison",
        0,
        vec![RegionRequirement::read(viz_region::RegionId(9999), field)],
        0,
        None,
    );
    // The poison rides last: all three pushes land before the driver can
    // possibly panic, so `submitted` is exactly 3.
    rt.submit_batch(vec![ok(0), ok(1), poison]).unwrap();
    let start = std::time::Instant::now();
    while !metrics.panicked() {
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "driver never panicked on the poison spec"
        );
        std::thread::yield_now();
    }
    assert_eq!(metrics.submitted(), 3);
    let lost = metrics.lost();
    assert!(
        (1..=3).contains(&lost),
        "the poison spec itself can never retire (lost = {lost})"
    );
    assert_eq!(lost, metrics.submitted() - metrics.retired());
    // Subsequent submissions are refused with the loss count attached.
    let err = rt.submit(ok(2)).expect_err("post-panic submissions fail");
    match &err {
        RuntimeError::DriverPanicked { lost: l } => assert_eq!(*l, lost),
        e => panic!("expected DriverPanicked, got {e}"),
    }
    assert!(err.to_string().contains("unanalyzed"));
    // Dropping the runtime propagates the driver's panic payload.
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(rt)));
    assert!(unwound.is_err(), "drop must propagate the driver panic");
    // The metrics handle outlives the runtime and still reports the loss.
    assert!(metrics.panicked());
    assert_eq!(metrics.lost(), lost);
}

/// Handles resolve to program-order ids across every submission spelling
/// (submit, submit_batch, builder, fence, inline_read).
#[test]
fn handles_are_program_ordered_across_spellings() {
    let mut rt = build_runtime(EngineKind::Paint, false, 4, true);
    let (root, field, regions) = setup_regions(&mut rt);
    let l = AbsLaunch {
        target: 0,
        privilege: 1,
        salt: 1,
    };
    let h0 = rt.submit(spec_of(&l, 0, &regions, field)).unwrap();
    let batch: Vec<LaunchSpec> = (1..4)
        .map(|i| {
            let l = AbsLaunch {
                target: i % PIECES,
                privilege: 2,
                salt: 9,
            };
            spec_of(&l, i, &regions, field)
        })
        .collect();
    let hs = rt.submit_batch(batch).unwrap();
    let hb = rt
        .task("built")
        .on(1)
        .read(regions[0], field)
        .duration_ns(10)
        .submit()
        .unwrap();
    let f = rt.fence();
    let probe = rt.inline_read(root, field).unwrap();
    assert_eq!(h0.id(), TaskId(0));
    assert_eq!(
        hs.iter().map(|h| h.id()).collect::<Vec<_>>(),
        vec![TaskId(1), TaskId(2), TaskId(3)]
    );
    assert_eq!(hb.id(), TaskId(4));
    assert_eq!(f, TaskId(5));
    assert_eq!(probe, TaskId(6));
    assert_eq!(rt.resolve(hb), TaskId(4));
    assert_eq!(rt.num_tasks(), 7);
    assert_eq!(rt.launches().as_ref().len(), 7);
}
